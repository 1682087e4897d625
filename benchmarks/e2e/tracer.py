"""The per-layer run: spans around every call into a layer.

End-to-end numbers come from untraced runs only. This module does the
other run: one extra in-process repetition per workload replays the same
seeded ops through a mirror of the request path built from the
program's public calls, with a span (name, start, end, parent, op id)
around each call into a layer. Layers are the package names: ``xml``,
``xpath``, ``service``, ``core``, ``axes``, ``serve``. Tracing lives
only here — the program has no span API yet (ROADMAP) — so the mirror
spells out what ``XPathDaemon._run_query``, ``QueryService.evaluate`` /
``evaluate_many`` and ``DocumentStore.save`` / ``load`` do:

    decode_frame -> ClientState quota calls -> QueryService.plan
    (child: QueryPlanner.compile) -> AdmissionController.decide ->
    DocumentSession memo (children: resolve, evaluator.evaluate under
    stats.collect()) -> render_value -> ok_response + encode_frame ->
    client-side decode_frame

Self time is a span's duration minus its children's. Exact counts come
from ``stats.collect()``, ``cache_stats()``, ``BatchPlanStats`` and
``axis_kernel_stats`` deltas. Times are stopwatch times (not normalised:
they are for attribution within one run, next to ``host.calib_ms``), as
medians per op unless the metric says otherwise. Spans go to
``benchmarks/results/e2e/trace-<workload>.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import statistics
import tempfile
import time

import host
import oracle
import protocol

from repro import QueryService, parse_document, stats
from repro.axes.axes import kernel_mode_forced
from repro.serve.admission import AdmissionController
from repro.serve.daemon import render_value
from repro.serve.protocol import decode_frame, encode_frame, ok_response
from repro.serve.quotas import ClientQuota, ClientState
from repro.service.batchplan import build_batch_plan
from repro.stats import axis_kernel_stats
from repro.xml.index import node_index
from repro.xml.snapshot import decode_snapshot, encode_snapshot
from repro.xml.store import DocumentStore

#: Cells timed under every admissible algorithm for the regret figure,
#: and Core XPath cells timed under the scan kernels.
REGRET_SAMPLE = 40
SCAN_SAMPLE = 20


class Tracer:
    """Spans in memory: ``[name, start, end, parent index, op id]``."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self.op = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self, name: str, self_time: bool = False) -> list:
        """Milliseconds of every finished span called ``name``."""
        children: dict = {}
        if self_time:
            for record in self.spans:
                if record[3] is not None:
                    children[record[3]] = children.get(record[3], 0.0) + record[2] - record[1]
        return [
            (record[2] - record[1] - children.get(index, 0.0)) * 1000.0
            for index, record in enumerate(self.spans)
            if record[0] == name
        ]

    def unattributed_share(self, root: str) -> float:
        """Share of the ``root`` spans' time not inside any child span."""
        total = sum(self.durations(root))
        return sum(self.durations(root, self_time=True)) / total if total else 0.0


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, None, tracer.op]

    def __enter__(self):
        tracer = self.tracer
        self.record[3] = tracer._open[-1] if tracer._open else None
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc_info):
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# The mirrored request path
# ----------------------------------------------------------------------


class _TracedEvaluator:
    """An evaluator whose entry points are spans; everything else passes
    through. No ``stats.collect()`` here: an active collector makes every
    counter call in the evaluators do work, which would bill the tracer's
    cost to ``core`` (the counts come from :func:`probe_counts`)."""

    def __init__(self, inner, name: str, mirror: "Mirror"):
        self._inner = inner
        self._name = name
        self._mirror = mirror

    def _traced(self, method: str, *args, **kwargs):
        with self._mirror.tracer.span(self._name):
            return getattr(self._inner, method)(*args, **kwargs)

    def evaluate(self, *args, **kwargs):
        return self._traced("evaluate", *args, **kwargs)

    def forward_from_pres(self, *args, **kwargs):
        return self._traced("forward_from_pres", *args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class Mirror:
    """One service plus the serve-side objects around it, every call
    into a layer wrapped in a span.

    Three calls have no seam a caller can stand in — the planner inside
    ``QueryService.plan``, and ``resolve`` / ``evaluator`` inside a
    session (the batch DAG calls them from ``evaluate_row``) — so those
    are shadowed on the instances with spans around the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.service = QueryService()
        self.admission = AdmissionController(self.service)
        self.client = ClientState(name="trace", quota=ClientQuota())
        self.algorithms: dict = {}  # evaluators handed out, by algorithm
        compile_plan = self.service.planner.compile

        def traced_compile(*args, **kwargs):
            with tracer.span("xpath.compile"):
                return compile_plan(*args, **kwargs)

        self.service.planner.compile = traced_compile

    def plan(self, query: str):
        with self.tracer.span("service.plan"):
            return self.service.plan(query)

    def session(self, document):
        session = self.service.session(document)
        if "evaluator" not in vars(session):
            resolve, evaluator = session.resolve, session.evaluator

            def traced_resolve(*args, **kwargs):
                with self.tracer.span("service.specialize"):
                    return resolve(*args, **kwargs)

            def traced_evaluator(algorithm: str):
                self.algorithms[algorithm] = self.algorithms.get(algorithm, 0) + 1
                return _TracedEvaluator(evaluator(algorithm), f"core.{algorithm}", self)

            session.resolve = traced_resolve
            session.evaluator = traced_evaluator
        return session

    def evaluate(self, plan, document, algorithm: str = "auto"):
        """``QueryService.evaluate``: the session memo, and under it (on
        a miss) the specializer and the evaluator."""
        with self.tracer.span("service.memo"):
            return self.session(document).evaluate(plan, algorithm=algorithm)

    def query(self, request_id: int, query: str, name: str, document) -> dict:
        """One QUERY the way the daemon handles it; returns the reply as
        the client decodes it."""
        tracer = self.tracer
        with tracer.span("serve.client_encode"):
            data = encode_frame({"verb": "QUERY", "id": request_id, "query": query, "doc": name})
        with tracer.span("serve.decode"):
            frame = decode_frame(data)
        with tracer.span("serve.quota"):
            self.client.touch()
            self.client.check_rate()
            self.client.acquire_slot()
            registered = self.client.document(frame["doc"])
        try:
            plan = self.last_plan = self.plan(frame["query"])
            with tracer.span("serve.admission"):
                decision = self.admission.decide([plan], [registered], None, 0)
            value = self.evaluate(plan, registered, decision.algorithm)
            with tracer.span("serve.render"):
                payload = render_value(value, "path")
            with tracer.span("serve.encode"):
                reply = encode_frame(
                    ok_response(
                        frame["id"],
                        query=query,
                        doc=name,
                        algorithm=decision.algorithm,
                        degraded=decision.degraded,
                        priced_ms=decision.priced_seconds * 1000.0,
                        elapsed_ms=0.0,
                        **payload,
                    )
                )
        finally:
            self.client.release_slot()
        self.reply_bytes = len(reply)
        with tracer.span("serve.client_decode"):
            return decode_frame(reply)


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------


class Replay:
    """State shared by the three replays: tracer, pacer, counters."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.tracer = Tracer()
        self.setup = Tracer()  # the set-up's spans, moved here by end_setup
        self.pacer = host.Pacer()
        self.failed = 0
        self.cells: list = []  # (plan, document) pairs for the probes
        self.extra: dict = {}

    def parse_all(self) -> dict:
        """Parse and index every document of the spec, as REGISTER (or a
        library caller) would before the first query."""
        documents = {}
        for entry in self.spec["documents"]:
            with self.tracer.span("xml.parse"):
                document = documents[entry["name"]] = parse_document(entry["xml"])
            with self.tracer.span("xml.index_build"):
                node_index(document)
        self.extra["parsed_nodes"] = sum(len(d.nodes) for d in documents.values())
        return documents

    def end_setup(self, mirror: "Mirror") -> None:
        """Everything recorded so far was set-up: keep it apart so the
        per-op accounting starts empty."""
        self.setup.spans = list(self.tracer.spans)
        self.tracer.spans.clear()
        mirror.algorithms.clear()
        self.kernels_before = axis_kernel_stats.snapshot()

    def kernel_delta(self) -> dict:
        after = axis_kernel_stats.snapshot()
        return {key: after[key] - self.kernels_before[key] for key in after}

    def op(self, index: int) -> "_Span":
        self.pacer.tick()
        self.tracer.op = index
        return self.tracer.span("op")

    def check(self, seen, wanted) -> None:
        with self.tracer.span("bench.verify"):
            if seen != wanted:
                self.failed += 1


def replay_serve(replay: Replay) -> Mirror:
    spec, tracer = replay.spec, replay.tracer
    mirror = Mirror(tracer)
    documents = replay.parse_all()
    for entry in spec["documents"]:
        mirror.client.register(entry["name"], documents[entry["name"]], len(entry["xml"]))
    cells = spec["cells"]
    for cell_index in spec["setup_cells"]:
        query, name = cells[cell_index]
        mirror.query(0, query, name, documents[name])
    replay.end_setup(mirror)
    caches_before = mirror.service.cache_stats()
    reply_bytes = []
    probed: dict = {}
    for index, cell_index in enumerate(spec["ops"]):
        query, name = cells[cell_index]
        with replay.op(index):
            reply = mirror.query(index + 1, query, name, documents[name])
            replay.check(oracle.reduce_payload(reply), spec["expected"][name][query])
        reply_bytes.append(mirror.reply_bytes)
        probed[cell_index] = (mirror.last_plan, documents[name])
    replay.extra["reply_bytes"] = reply_bytes
    replay.extra["caches"] = (caches_before, mirror.service.cache_stats())
    replay.cells = list(probed.values())
    return mirror


def replay_batch(replay: Replay) -> Mirror:
    spec, tracer = replay.spec, replay.tracer
    mirror = Mirror(tracer)
    documents = replay.parse_all()
    plan_totals: dict = {}
    shared_cells = disjoint_cells = 0

    def evaluate_many(op: dict, counted: bool):
        """``QueryService.evaluate_many`` spelled out: plan, build the
        shared-step DAG, one row per document."""
        nonlocal shared_cells, disjoint_cells
        plans = [mirror.plan(query) for query in op["queries"]]
        with tracer.span("service.batchplan_build"):
            batch_plan = build_batch_plan(plans)
        rows = []
        # Named after what the generator built, not after what the DAG
        # found: `//` alone is a step two unrelated queries have in common.
        kind = "shared" if op["shared"] else "disjoint"
        for name in op["docs"]:
            session = mirror.session(documents[name])
            with tracer.span(f"service.batch_row_{kind}"):
                if batch_plan is not None and batch_plan.shared:
                    rows.append(batch_plan.evaluate_row(session))
                else:
                    rows.append([session.evaluate(plan) for plan in plans])
        if op["shared"]:
            shared_cells += len(plans) * len(rows) * counted
        else:
            disjoint_cells += len(plans) * len(rows) * counted
        if counted and batch_plan is not None:
            for key, value in batch_plan.stats.snapshot().items():
                plan_totals[key] = plan_totals.get(key, 0) + value
        return plans, rows

    for op in spec["setup_ops"]:
        evaluate_many(op, counted=False)
    replay.end_setup(mirror)
    caches_before = mirror.service.cache_stats()
    for index, op in enumerate(spec["ops"]):
        with replay.op(index):
            plans, rows = evaluate_many(op, counted=True)
            for row, name in zip(rows, op["docs"]):
                wanted = [spec["expected"][name][query] for query in op["queries"]]
                replay.check([oracle.reduce_value(value) for value in row], wanted)
        replay.cells += [(plan, documents[op["docs"][0]]) for plan in plans[:1]]
    replay.extra["caches"] = (caches_before, mirror.service.cache_stats())
    replay.extra["batch_plan"] = plan_totals
    replay.extra["batch_cells"] = (shared_cells, disjoint_cells)
    return mirror


def replay_ingest(replay: Replay, directory: pathlib.Path) -> Mirror:
    spec, tracer = replay.spec, replay.tracer
    markup = {entry["name"]: entry["xml"] for entry in spec["documents"]}
    store = DocumentStore(directory / "store.json")
    mirror = Mirror(tracer)  # for the probes; every open gets its own service
    parsed_nodes = snapshot_bytes = snapshot_nodes = 0
    materialized: list = []
    hit_rates: list = []

    def put(name: str) -> int:
        nonlocal parsed_nodes, snapshot_bytes, snapshot_nodes
        with tracer.span("xml.parse"):
            document = parse_document(markup[name])
        with tracer.span("xml.store_save"):
            sidecar = store.save_snapshot(name, document)
        parsed_nodes += len(document.nodes)
        snapshot_bytes += sidecar.stat().st_size
        snapshot_nodes += len(document.nodes)
        return len(document.nodes)

    def open_(op: dict) -> list:
        before = axis_kernel_stats.snapshot()["nodes_materialized"]
        with tracer.span("xml.store_load"):
            document = store.load(op["name"], lazy=True)
        fresh = Mirror(tracer)
        plans = [fresh.plan(query) for query in op["queries"]]
        values = [fresh.evaluate(plan, document) for plan in plans]
        for name, count in fresh.algorithms.items():
            mirror.algorithms[name] = mirror.algorithms.get(name, 0) + count
        materialized.append(axis_kernel_stats.snapshot()["nodes_materialized"] - before)
        replay.cells.append((plans[0], document))
        return values

    for name in spec["initial"]:
        put(name)
    for op in spec["setup_ops"]:
        open_(op)
    replay.end_setup(mirror)
    materialized.clear()
    replay.cells.clear()
    for index, op in enumerate(spec["ops"]):
        with replay.op(index):
            if op["kind"] == "put":
                replay.check(put(op["name"]), spec["node_counts"][op["name"]])
            else:
                wanted = [spec["expected"][op["name"]][query] for query in op["queries"]]
                replay.check([oracle.reduce_value(v) for v in open_(op)], wanted)
    # Encode and lazy decode on their own, outside any op: store.save and
    # store.load contain them but give no seam to time them through.
    for name in store.names()[:20]:
        blob = store.load_snapshot(name)
        with tracer.span("xml.snapshot_decode_lazy"):
            document = decode_snapshot(blob, lazy=True)
        eager = decode_snapshot(blob)
        with tracer.span("xml.snapshot_encode"):
            encode_snapshot(eager)
    replay.extra.update(
        parsed_nodes=parsed_nodes,
        materialized=materialized,
        snapshot_bytes_per_node=snapshot_bytes / max(1, snapshot_nodes),
    )
    return mirror


# ----------------------------------------------------------------------
# Probes: what the chosen algorithm and kernel tier cost against the
# alternatives, on a seeded sample of this workload's own cells
# ----------------------------------------------------------------------


def _time_cell(session, plan, algorithm: str) -> float:
    started = time.perf_counter()
    session.evaluate(plan, algorithm=algorithm, cached=False)
    return time.perf_counter() - started


def probe_regret(mirror: Mirror, cells: list, rng: random.Random) -> float:
    """Sum of the chosen algorithm's time over the sum of the fastest
    admissible one's, >= 1 (1 = the specializer never picked a loser)."""
    sample = rng.sample(cells, min(REGRET_SAMPLE, len(cells)))
    chosen_total = best_total = 0.0
    for plan, document in sample:
        session = mirror.service.session(document)
        candidates = ["mincontext", "optmincontext"] + (["corexpath"] * plan.is_core_xpath)
        times = {name: _time_cell(session, plan, name) for name in candidates}
        chosen_total += times[session.resolve(plan)]
        best_total += min(times.values())
    return chosen_total / best_total if best_total else 0.0


def probe_counts(mirror: Mirror, cells: list, rng: random.Random) -> tuple:
    """The paper's own measures on the sample: the largest number of
    context-value-table cells live at once, and contexts evaluated per
    cell (both exact for a given choice of algorithm)."""
    sample = rng.sample(cells, min(REGRET_SAMPLE, len(cells)))
    peak = contexts = 0
    for plan, document in sample:
        with stats.collect() as collector:
            mirror.service.session(document).evaluate(plan, cached=False)
        peak = max(peak, collector.peak_table_cells)
        contexts += collector.get("mincontext_contexts_evaluated")
    return peak, contexts / len(sample) if sample else 0.0


def probe_scan(mirror: Mirror, cells: list, rng: random.Random) -> float:
    """Core XPath cells: time under the forced scan kernels over time
    under the default kernel policy."""
    core = [cell for cell in cells if cell[0].is_core_xpath]
    sample = rng.sample(core, min(SCAN_SAMPLE, len(core)))
    default = scan = 0.0
    for plan, document in sample:
        session = mirror.service.session(document)
        default += _time_cell(session, plan, "corexpath")
        with kernel_mode_forced("scan"):
            scan += _time_cell(session, plan, "corexpath")
    return scan / default if default else 0.0


# ----------------------------------------------------------------------
# From spans to metrics
# ----------------------------------------------------------------------


def _rate(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def layer_metrics(replay: Replay, mirror: Mirror, untraced: dict) -> dict:
    tracer, extra = replay.tracer, replay.extra
    kernels = extra["kernels"]
    ms = tracer.durations

    def whole_run(name: str) -> list:
        return replay.setup.durations(name) + ms(name)

    def us(name: str) -> float:
        return _median(ms(name)) * 1000.0

    ops = ms("op")
    op_total = sum(ops)
    core = [d for name in ("corexpath", "optmincontext", "mincontext") for d in ms(f"core.{name}")]
    plan_self = ms("service.plan", self_time=True)
    compiles = ms("xpath.compile")
    # A plan-cache hit is a service.plan span with no compile under it.
    compiled_parents = {record[3] for record in tracer.spans if record[0] == "xpath.compile"}
    plan_hits = [
        (record[2] - record[1]) * 1000.0
        for index, record in enumerate(tracer.spans)
        if record[0] == "service.plan" and index not in compiled_parents
    ]
    memo_parents = {
        record[3] for record in tracer.spans if record[0] == "service.specialize"
    }
    memo_hits = [
        (record[2] - record[1]) * 1000.0
        for index, record in enumerate(tracer.spans)
        if record[0] == "service.memo" and index not in memo_parents
    ]
    caches = extra.get("caches")
    shared_cells, disjoint_cells = extra.get("batch_cells", (0, 0))
    batch_plan = extra.get("batch_plan", {})
    evaluations = sum(mirror.algorithms.values())

    def per_evaluation(count: int) -> float:
        return count / evaluations if evaluations else 0.0

    fused, fallback = kernels["fused_hits"], kernels["fallback_scans"]
    serve_stats = untraced.get("deterministic", {}).get("serve_stats", {})
    parse_ms = sum(whole_run("xml.parse"))
    in_process_p50 = _median(ops)
    return {
        "xml.parse_us_per_node": parse_ms * 1000.0 / extra["parsed_nodes"] if extra.get("parsed_nodes") else 0.0,
        "xml.index_build_ms": _median(whole_run("xml.index_build")),
        "xml.store_save_ms": _median(ms("xml.store_save")),
        "xml.snapshot_encode_ms": _median(ms("xml.snapshot_encode")),
        "xml.store_load_ms": _median(ms("xml.store_load")),
        "xml.snapshot_decode_lazy_ms": _median(ms("xml.snapshot_decode_lazy")),
        "xml.nodes_materialized_per_open": _median(extra.get("materialized", [])),
        "xml.snapshot_bytes_per_node": extra.get("snapshot_bytes_per_node", 0.0),
        "xpath.compile_ms": _median(compiles),
        "service.plan_hit_ms": _median(plan_hits),
        "service.memo_hit_ms": _median(memo_hits),
        "service.plan_cache_hit_rate": _rate(caches[0]["plan_cache"], caches[1]["plan_cache"]) if caches else 0.0,
        "service.result_cache_hit_rate": _rate(caches[0]["result_cache"], caches[1]["result_cache"]) if caches else 0.0,
        "service.specialize_ms": _median(ms("service.specialize")),
        "service.specialize_hit_rate": _rate(caches[0]["specialize_cache"], caches[1]["specialize_cache"]) if caches else 0.0,
        "service.specialize_regret": extra["regret"],
        "service.batchplan_build_ms": _median(ms("service.batchplan_build")),
        "service.batchplan_steps_saved_share": (
            batch_plan.get("steps_saved", 0) / batch_plan["steps_independent"]
            if batch_plan.get("steps_independent")
            else 0.0
        ),
        "service.batch_shared_ms_per_cell": sum(ms("service.batch_row_shared")) / shared_cells if shared_cells else 0.0,
        "service.batch_disjoint_ms_per_cell": sum(ms("service.batch_row_disjoint")) / disjoint_cells if disjoint_cells else 0.0,
        "core.corexpath_ms": _median(ms("core.corexpath")),
        "core.optmincontext_ms": _median(ms("core.optmincontext")),
        "core.mincontext_ms": _median(ms("core.mincontext")),
        "core.share_of_op": sum(core) / op_total if op_total else 0.0,
        "core.peak_table_cells": extra["peak_table_cells"],
        "core.contexts_evaluated": extra["contexts_per_cell"],
        "axes.fused_hits_per_cell": per_evaluation(fused),
        "axes.vector_ops_per_cell": per_evaluation(kernels["vector_ops"]),
        "axes.fallback_scan_share": fallback / (fused + fallback) if fused + fallback else 0.0,
        "axes.auto_over_scan_speedup": extra["scan_speedup"],
        "serve.decode_us": us("serve.decode"),
        "serve.quota_us": us("serve.quota"),
        "serve.admission_us": us("serve.admission"),
        "serve.render_ms": _median(ms("serve.render")),
        "serve.encode_us": us("serve.encode"),
        "serve.client_decode_us": us("serve.client_decode"),
        "serve.response_bytes_per_op": _median(extra.get("reply_bytes", [])),
        # What the untraced client saw per op beyond what the in-process
        # mirror spends: event loop, socket, executor hop (serve-*), or
        # just the harness (library workloads, ~0).
        "serve.wire_residual_ms": untraced.get("stopwatch", {}).get("latency_p50_ms", 0.0) - in_process_p50,
        "serve.admitted": serve_stats.get("admitted", 0),
        "serve.rejected": serve_stats.get("rejected", 0),
        "serve.degraded": serve_stats.get("degraded", 0),
        "serve.deadlined": serve_stats.get("deadlined", 0),
        "trace.unattributed_share": tracer.unattributed_share("op"),
        "host.calib_ms": _median(replay.pacer.samples),
        "host.cpus": os.cpu_count(),
    }


def trace_workload(name: str, seed: int, scale: float, scratch: pathlib.Path, timeout: float):
    """Oracle pass, one untraced repetition (the end-to-end figure the
    residual is taken against), then the traced replay."""
    workload, spec_path, timing = protocol.prepare(name, seed, scale, scratch)
    untraced = protocol.run_worker(spec_path, scratch / f"out-{name}.json", scratch, timeout)
    spec = workload.spec
    replay = Replay(spec)
    if spec["transport"] == "serve":
        mirror = replay_serve(replay)
    elif name == "batch":
        mirror = replay_batch(replay)
    else:
        mirror = replay_ingest(replay, pathlib.Path(tempfile.mkdtemp(dir=scratch)))
    replay.extra["kernels"] = replay.kernel_delta()
    replay.pacer.lap()
    # The probes evaluate through the traced sessions; what they add to
    # the span list and the evaluator tally is not part of the replay.
    recorded, handed_out = len(replay.tracer.spans), dict(mirror.algorithms)
    rng = random.Random(f"probe:{name}:{seed}")
    replay.extra["regret"] = probe_regret(mirror, replay.cells, rng)
    replay.extra["scan_speedup"] = probe_scan(mirror, replay.cells, rng)
    replay.extra["peak_table_cells"], replay.extra["contexts_per_cell"] = probe_counts(
        mirror, replay.cells, rng
    )
    del replay.tracer.spans[recorded:]
    mirror.algorithms = handed_out
    metrics = layer_metrics(replay, mirror, untraced)
    protocol.RESULTS.mkdir(parents=True, exist_ok=True)
    with open(protocol.RESULTS / f"trace-{name}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "columns": ["name", "start_s", "end_s", "parent", "op"],
                "setup_spans": replay.setup.spans,
                "spans": replay.tracer.spans,
                "algorithms": mirror.algorithms,
                "replay_failed_ops": replay.failed,
            },
            handle,
        )
    metrics["_replay_failed_ops"] = replay.failed
    return metrics, untraced, len(spec["ops"]), timing


def run(names: list, seed: int, scale: float, contract: dict):
    """``(layers, summaries)``: per-layer metrics per workload (exactly
    the contract's ``per_layer`` names), and the untraced repetition
    summarised like a one-repetition run."""
    # The same CPU the workers pin themselves to (see host.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    protocol.RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="tmp-", dir=protocol.RESULTS))
    layers, summaries = {}, {}
    try:
        for name in names:
            metrics, untraced, ops, timing = trace_workload(
                name, seed, scale, scratch, protocol.REPETITION_TIMEOUT * max(1.0, scale)
            )
            untraced.setdefault("disturbed", False)
            summary = protocol.summarize(name, [untraced], ops, timing, contract["end_to_end"])
            summary["attempted"] += ops
            summary["failed"] += metrics.pop("_replay_failed_ops")
            layers[name] = {metric["name"]: metrics[metric["name"]] for metric in contract["per_layer"]}
            summaries[name] = summary
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return layers, summaries
