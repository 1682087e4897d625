"""The scheduler abstraction: pluggable middle layers for sharded batches.

PR 2's :class:`~repro.service.executor.ShardedExecutor` hard-wired its
middle layer to ``concurrent.futures`` pools. This module extracts that
layer into a backend-agnostic :class:`Scheduler` with three phases:

1. **prepare** — compile/resolve every query in the parent (surfacing
   syntax and fragment errors before any worker starts) and plan the
   document shards (:func:`repro.service.shard.plan_shards`);
2. **dispatch** — evaluate the shards; *this is the only phase a backend
   overrides*;
3. **merge** — reassemble per-shard values into batch order and sum the
   per-shard cache counters exactly (:func:`merge_stats_snapshots`).

Backends
--------

* :class:`SerialScheduler` — shards run one after another in the calling
  thread. The semantics baseline: zero concurrency, zero overhead, and
  the reference the differential scheduler suite compares everything
  against.
* :class:`ThreadScheduler` — a ``ThreadPoolExecutor``, one worker per
  shard. In-process overlap (latency hiding behind a slow shard), no
  serialization, workers seeded with the parent's compiled plans;
  CPython's GIL still serializes the evaluation work.
* :class:`ProcessScheduler` — a ``ProcessPoolExecutor`` for true
  parallelism. Documents cross the boundary as binary snapshots
  (:mod:`repro.xml.snapshot`) — exact for every document, so
  workers skip the XML parse *and* the index build — and node-set
  results return as pre-order indices rebound to the parent's trees.
  A worker that rejects a blob (corruption) falls back to in-parent
  evaluation.
* :class:`AsyncScheduler` — asyncio: one coroutine per shard, a bounded
  semaphore capping in-flight shards, with the GIL-bound evaluation work
  offloaded to threads (``asyncio.to_thread``). Same overlap profile as
  the thread backend, but it composes with an event loop — it powers
  :class:`~repro.service.async_service.AsyncQueryService`, including
  :meth:`AsyncScheduler.stream`, which yields shard outcomes *as they
  complete* instead of barriering on the slowest shard.

Statistics-merge semantics
--------------------------

Each worker's :class:`QueryService` is fresh, so its per-batch stats
deltas equal its lifetime counters. The merged ``plan_stats`` /
``result_stats`` are the *exact* sums of the per-shard hit/miss/eviction
counters (hit rate recomputed over the summed lookups), and the unmerged
per-shard snapshots are kept on ``BatchResult.shards`` so nothing is
lost in aggregation. Summation describes the fleet, not one cache: under
the process backend each worker compiles its own plans, so a query
evaluated on ``k`` shards contributes ``k`` plan-cache misses; in-process
backends seed workers with the parent's plans, so the same lookups are
``k`` (honest, warm) hits.

Each worker resolves each query's evaluation algorithm itself, but
resolution is deterministic (fragment classification is a pure function
of the compiled AST), so the parent's up-front resolution always matches
the workers'.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.service.plan import CompiledPlan
from repro.service.planner import compile_plan, resolve_algorithm
from repro.service.shard import (
    SHARD_STRATEGIES,
    Shard,
    ShardTimingHistory,
    plan_shards,
)
from repro.stats import BatchPlanStats, CacheStats
from repro.xml.document import Document


def merge_stats_snapshots(snapshots, name: str, capacity=None) -> dict:
    """Sum hit/miss/eviction counters across per-shard stats snapshots.

    The sums are exact (each worker counts every lookup exactly once and
    the shards are disjoint); the hit rate is recomputed over the summed
    lookups rather than averaged, so it is the fleet-wide rate. This is
    the barrier form; the streaming front end folds the same snapshots in
    one at a time via :meth:`repro.stats.CacheStats.absorb_snapshot` and
    reaches the identical totals.
    """
    merged = CacheStats(name=name, capacity=capacity)
    for snapshot in snapshots:
        merged.absorb_snapshot(snapshot)
    return merged.snapshot()


def merge_batch_plan_snapshots(snapshots) -> dict:
    """Sum batch-plan counters across per-shard snapshots.

    Each shard builds its own step DAG over the same query list, so the
    plan-shape fields sum across shards just like the per-cell counters
    (they describe the fleet of DAGs, not one). Returns ``{}`` when no
    shard shared anything — notably whenever the batch ran with
    ``share=False`` — so the merged result is byte-identical to the
    unsharded no-share result.
    """
    merged = BatchPlanStats()
    nonempty = False
    for snapshot in snapshots:
        if snapshot:
            nonempty = True
            merged.absorb_snapshot(snapshot)
    return merged.snapshot() if nonempty else {}


# ----------------------------------------------------------------------
# Worker entry points (module-level so the process backend can import
# them by reference in spawned interpreters).
# ----------------------------------------------------------------------


def _evaluate_shard(
    config: dict,
    queries: list[str],
    documents,
    algorithm: str,
    plans=None,
    share: bool = True,
):
    """Run one shard's sub-batch in a fresh service (in-process workers).

    ``plans`` seeds the worker's plan cache with already-compiled plans —
    :class:`CompiledPlan` is immutable and freely shareable across
    threads, so in-process workers reuse the parent's compilations
    instead of redoing the frontend pipeline per worker. ``share``
    forwards the batch-sharing knob: each worker builds its own step DAG
    over its shard's documents, so process workers stay self-contained
    (nothing DAG-related crosses the process boundary except the counter
    snapshot)."""
    from repro.service.service import QueryService

    service = QueryService(**config)
    for plan in plans or ():
        service.plans.put(plan.cache_key, plan)
    return service.evaluate_many(
        queries, documents, algorithm=algorithm, share=share
    )


def _encode_value(value):
    """Make one result cell picklable without shipping the tree back:
    node-sets become pre-order index lists, scalars pass through."""
    if isinstance(value, list):
        return ("nset", [node.pre for node in value])
    return ("scalar", value)


def _decode_value(encoded, document: Document):
    """Rebind an encoded cell to the parent process's document."""
    tag, payload = encoded
    if tag == "nset":
        return document.nodes_at(payload)
    return payload


def _evaluate_shard_snapshots(payload: dict) -> dict:
    """Process-backend worker: rebuild the shard's documents from binary
    snapshots (:mod:`repro.xml.snapshot`), evaluate, and return an
    index-encoded result.

    Snapshots preserve the pre-order numbering *exactly* for every
    document, so decoding them is always sound where the old markup path
    needed a canonicality screen. The decoder's CRC and structural
    validation reject corrupt blobs, and
    the rebuilt node counts are still cross-checked against the parent's
    as defense in depth: any failure is reported as a fallback request
    instead of a result — the parent then evaluates that shard
    in-process. Mis-binding silently is the one outcome this layer must
    never produce."""
    from repro.errors import DocumentStoreError
    from repro.xml.snapshot import decode_snapshot

    started = time.perf_counter()
    try:
        # The worker adopts the index and evaluates over flat columns,
        # materializing just the result nodes it encodes back.
        documents = [decode_snapshot(blob) for blob in payload["snapshots"]]
    except DocumentStoreError as error:
        return {"fallback": f"shard snapshot does not decode: {error}"}
    for document, expected in zip(documents, payload["node_counts"]):
        if len(document) != expected:
            return {
                "fallback": "snapshot decode is not node-isomorphic "
                f"({expected} nodes became {len(document)})"
            }
    batch = _evaluate_shard(
        payload["config"],
        payload["queries"],
        documents,
        payload["algorithm"],
        share=payload.get("share", True),
    )
    # The shard's wall time as the worker experienced it (rebuild +
    # evaluation) — the cost the adaptive weighting should balance.
    return {
        "values": [[_encode_value(value) for value in row] for row in batch.values],
        "plan_stats": batch.plan_stats,
        "result_stats": batch.result_stats,
        "batch_plan": batch.batch_plan,
        "elapsed_seconds": time.perf_counter() - started,
    }


# ----------------------------------------------------------------------
# The scheduler seam
# ----------------------------------------------------------------------


@dataclass
class PreparedBatch:
    """Everything the prepare phase produces: the immutable input to
    ``dispatch`` and ``merge``. Shards are planned and every query is
    compiled and algorithm-resolved, so a prepared batch can no longer
    fail on query errors — only on evaluation itself."""

    queries: list[str]
    documents: list
    algorithm: str
    share: bool = True
    algorithms: list[str] = field(default_factory=list)
    plans: list[CompiledPlan] = field(default_factory=list)
    shards: list[Shard] = field(default_factory=list)


class Scheduler:
    """Backend-agnostic sharded batch evaluation: prepare → dispatch → merge.

    Construction takes the same cache/compilation knobs as
    :class:`~repro.service.service.QueryService` — each worker builds its
    own service from them. ``workers`` is the maximum shard count;
    batches with fewer documents use fewer shards (never empty ones).

    Subclasses override :meth:`dispatch` (and nothing else): it receives
    a :class:`PreparedBatch` and returns one outcome dict per shard, in
    shard order, each with ``values`` rows (decoded, parent-tree nodes)
    plus ``plan_stats``/``result_stats`` snapshots.
    """

    #: Backend name, reported on ``BatchResult.shards`` entries.
    name = "scheduler"

    def __init__(
        self,
        workers: int = 2,
        shard_by: str = "round-robin",
        plan_capacity: int = 256,
        session_capacity: int = 64,
        result_capacity: int | None = None,
        optimize: bool = False,
        variables: dict[str, object] | None = None,
        history: ShardTimingHistory | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_by not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {shard_by!r}; choose from {SHARD_STRATEGIES}"
            )
        self.workers = workers
        self.shard_by = shard_by
        #: Optional cross-batch timing history (owned by the caller —
        #: typically :attr:`QueryService.shard_history`): consulted for
        #: LPT weights in :meth:`prepare`, fed by completed shards. Not
        #: part of ``service_config`` — workers must not inherit it.
        self.history = history
        self.service_config = {
            "plan_capacity": plan_capacity,
            "session_capacity": session_capacity,
            "result_capacity": result_capacity,
            "optimize": optimize,
            "variables": dict(variables or {}),
        }

    # ------------------------------------------------------------------
    # Phase 1: prepare

    def prepare(
        self, queries, documents, algorithm: str = "auto", share: bool = True
    ) -> PreparedBatch:
        """Compile each distinct query once, resolve its algorithm, and
        plan the shards — surfacing syntax/fragment errors before any
        worker starts, and fixing the merged result's ``algorithms``
        list. The plans are kept so in-process workers can reuse them
        instead of recompiling (process workers must recompile: an AST is
        cheap to rebuild but expensive to pickle). ``share`` rides the
        prepared batch so every worker applies the same batch-sharing
        policy; the DAG itself is built per shard, never here."""
        prepared = PreparedBatch(
            queries=list(queries),
            documents=list(documents),
            algorithm=algorithm,
            share=share,
        )
        plans: dict[str, CompiledPlan] = {}
        for query in prepared.queries:
            plan = plans.get(query)
            if plan is None:
                plan = compile_plan(
                    query,
                    self.service_config["variables"],
                    self.service_config["optimize"],
                )
                plans[query] = plan
            prepared.algorithms.append(resolve_algorithm(plan, algorithm))
        prepared.plans = list(plans.values())
        if prepared.documents:
            # Adaptive weighting (size-balanced only): when the attached
            # history has observed any of these documents, LPT balances
            # on predicted seconds instead of the node-count proxy.
            weights = None
            if self.history is not None and self.shard_by == "size-balanced":
                weights = self.history.predicted_weights(prepared.documents)
            prepared.shards = plan_shards(
                prepared.documents, self.workers, self.shard_by, weights=weights
            )
        return prepared

    # ------------------------------------------------------------------
    # Phase 2: dispatch (the backend seam)

    def dispatch(self, prepared: PreparedBatch) -> list[dict]:
        """Evaluate every shard; returns, per shard (in shard order), a
        dict with decoded ``values`` rows plus the shard's stats
        snapshots. The one method a backend overrides."""
        raise NotImplementedError

    def run_shard(self, shard: Shard, prepared: PreparedBatch) -> dict:
        """Evaluate one shard in-process (the in-process backends' worker
        body, and the process backend's fallback path). The shard's wall
        time rides the outcome — it is what the adaptive weighting
        satellite feeds back into :func:`plan_shards`."""
        started = time.perf_counter()
        batch = _evaluate_shard(
            self.service_config,
            prepared.queries,
            [prepared.documents[i] for i in shard.document_indices],
            prepared.algorithm,
            plans=prepared.plans,
            share=prepared.share,
        )
        return {
            "values": batch.values,
            "plan_stats": batch.plan_stats,
            "result_stats": batch.result_stats,
            "batch_plan": batch.batch_plan,
            "elapsed_seconds": time.perf_counter() - started,
        }

    # ------------------------------------------------------------------
    # Phase 3: merge

    def shard_report(self, shard: Shard, outcome: dict) -> dict:
        """One ``BatchResult.shards`` entry: the shard's identity and its
        unmerged stats snapshots. Shared by the barrier merge and the
        streaming front end so the two report shapes cannot drift."""
        return {
            "shard": shard.index,
            "backend": self.name,
            "strategy": self.shard_by,
            "documents": list(shard.document_indices),
            "weight": shard.weight,
            "elapsed_seconds": outcome.get("elapsed_seconds", 0.0),
            "local_fallback": outcome.get("local_fallback", False),
            "plan_stats": outcome["plan_stats"],
            "result_stats": outcome["result_stats"],
            "batch_plan": outcome.get("batch_plan", {}),
        }

    def record_timing(
        self, shard: Shard, outcome: dict, prepared: PreparedBatch
    ) -> None:
        """Feed one completed shard's wall time into the attached
        :class:`~repro.service.shard.ShardTimingHistory` (no-op without
        one). Called exactly once per shard — by :meth:`merge` on the
        barrier path and by the streaming front end as shards complete —
        so each observation is folded once."""
        if self.history is None:
            return
        elapsed = outcome.get("elapsed_seconds", 0.0)
        self.history.observe_shard(
            [prepared.documents[i] for i in shard.document_indices], elapsed
        )

    def merge(self, prepared: PreparedBatch, outcomes: list[dict]):
        """Reassemble shard outcomes into one merged
        :class:`~repro.service.service.BatchResult`: ``values`` in batch
        order (indistinguishable from the sequential path),
        ``plan_stats``/``result_stats`` summed exactly across shards, and
        per-shard snapshots on ``shards``."""
        from repro.service.service import BatchResult

        values: list[list[object] | None] = [None] * len(prepared.documents)
        for shard, outcome in zip(prepared.shards, outcomes):
            self.record_timing(shard, outcome, prepared)
            for doc_index, row in zip(shard.document_indices, outcome["values"]):
                values[doc_index] = row
        return BatchResult(
            queries=prepared.queries,
            document_count=len(prepared.documents),
            values=values,
            algorithms=prepared.algorithms,
            plan_stats=merge_stats_snapshots(
                [outcome["plan_stats"] for outcome in outcomes],
                "plan_cache",
                self.service_config["plan_capacity"],
            ),
            result_stats=merge_stats_snapshots(
                [outcome["result_stats"] for outcome in outcomes], "result_cache"
            ),
            batch_plan=merge_batch_plan_snapshots(
                [outcome.get("batch_plan", {}) for outcome in outcomes]
            ),
            workers=len(prepared.shards),
            shards=[
                self.shard_report(shard, outcome)
                for shard, outcome in zip(prepared.shards, outcomes)
            ],
        )

    # ------------------------------------------------------------------

    def execute(self, queries, documents, algorithm: str = "auto", share: bool = True):
        """Prepare, dispatch, and merge one batch — the sync entry point."""
        prepared = self.prepare(queries, documents, algorithm, share=share)
        return self.merge(prepared, self.dispatch(prepared))


class SerialScheduler(Scheduler):
    """Shards run one after another in the calling thread — the zero-
    concurrency reference backend the scheduler suite diffs against."""

    name = "serial"

    def dispatch(self, prepared: PreparedBatch) -> list[dict]:
        return [self.run_shard(shard, prepared) for shard in prepared.shards]


class ThreadScheduler(Scheduler):
    """One ``ThreadPoolExecutor`` worker per shard: in-process latency
    overlap (the GIL serializes the evaluation work itself)."""

    name = "thread"

    def dispatch(self, prepared: PreparedBatch) -> list[dict]:
        with ThreadPoolExecutor(max_workers=len(prepared.shards) or 1) as pool:
            futures = [
                pool.submit(self.run_shard, shard, prepared)
                for shard in prepared.shards
            ]
            return [future.result() for future in futures]


class ProcessScheduler(Scheduler):
    """A ``ProcessPoolExecutor`` for true parallelism; documents are
    rebuilt per worker from binary snapshots (pre-order numbering
    preserved exactly, node index pre-seeded) and node-set results
    rebound to the parent's trees via pre-order indices.

    Requires scalar variable bindings: node-set and object bindings are
    bound to the parent's trees, and shipping them would pickle tree
    copies whose nodes then decode against the wrong document. Enforced
    at construction — use an in-process backend for non-scalar bindings.
    """

    name = "process"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        non_scalar = [
            name
            for name, value in self.service_config["variables"].items()
            if not (value is None or isinstance(value, (str, float, int, bool)))
        ]
        if non_scalar:
            raise ValueError(
                "process backend requires scalar variable bindings; "
                f"non-scalar bindings {sorted(non_scalar)} are bound to the "
                "parent's trees and cannot cross the process boundary — "
                "use the thread, serial, or async backend"
            )

    def dispatch(self, prepared: PreparedBatch) -> list[dict]:
        # Every shard ships: binary snapshots preserve the pre-order
        # numbering exactly for all documents, so the old serialize →
        # parse canonicality screen — and its in-parent fallback path for
        # non-canonical documents — is gone. Blobs are encoded once per
        # document (weak-cached) no matter how many shards share it.
        from repro.xml.snapshot import cached_snapshot

        documents = prepared.documents
        outcomes: dict[int, dict] = {}
        with ProcessPoolExecutor(
            max_workers=max(1, len(prepared.shards))
        ) as pool:
            futures = {
                shard.index: pool.submit(
                    _evaluate_shard_snapshots,
                    {
                        "config": self.service_config,
                        "queries": prepared.queries,
                        "algorithm": prepared.algorithm,
                        "share": prepared.share,
                        "snapshots": [
                            cached_snapshot(documents[i])
                            for i in shard.document_indices
                        ],
                        "node_counts": [
                            len(documents[i]) for i in shard.document_indices
                        ],
                    },
                )
                for shard in prepared.shards
            }
            for shard in prepared.shards:
                outcome = futures[shard.index].result()
                if "fallback" in outcome:
                    # The worker refused the shard (corrupt blob or
                    # renumbered nodes); evaluate it here instead.
                    reason = outcome["fallback"]
                    outcome = self.run_shard(shard, prepared)
                    outcome["local_fallback"] = reason
                else:
                    outcome["values"] = [
                        [
                            _decode_value(encoded, documents[doc_index])
                            for encoded in row
                        ]
                        for doc_index, row in zip(
                            shard.document_indices, outcome["values"]
                        )
                    ]
                outcomes[shard.index] = outcome
        return [outcomes[shard.index] for shard in prepared.shards]


class AsyncScheduler(Scheduler):
    """Coroutine-per-shard on asyncio: in-flight shards are bounded by a
    semaphore and the GIL-bound evaluation work is offloaded to threads
    (``asyncio.to_thread``), so the event loop stays responsive.

    Two async entry points beyond the sync :meth:`dispatch` bridge:
    :meth:`dispatch_async` (barrier, for ``await evaluate_many``) and
    :meth:`stream` (an async generator yielding ``(shard, outcome)``
    pairs in *completion* order — small shards surface while the big one
    is still running, which is the whole point of streaming).
    """

    name = "async"

    def __init__(self, *args, max_concurrency: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        if max_concurrency is not None and max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.max_concurrency = max_concurrency

    def _semaphore(self, shard_count: int) -> asyncio.Semaphore:
        limit = self.max_concurrency or max(1, shard_count)
        return asyncio.Semaphore(limit)

    def dispatch(self, prepared: PreparedBatch) -> list[dict]:
        """Sync bridge: run the async dispatch on a private event loop
        (used when an async batch is requested from synchronous code,
        e.g. ``evaluate_many(backend="async")`` or the CLI)."""
        return asyncio.run(self.dispatch_async(prepared))

    async def dispatch_async(self, prepared: PreparedBatch) -> list[dict]:
        """Evaluate every shard concurrently; outcomes in shard order."""
        semaphore = self._semaphore(len(prepared.shards))

        async def run(shard: Shard) -> dict:
            async with semaphore:
                return await asyncio.to_thread(self.run_shard, shard, prepared)

        return list(await asyncio.gather(*(run(shard) for shard in prepared.shards)))

    async def stream(self, prepared: PreparedBatch):
        """Async generator of ``(shard, outcome)`` pairs in completion
        order. Early exit (``break``/``aclose``) cancels the not-yet-
        finished shard tasks; already-offloaded evaluations run to
        completion in their worker threads but their results are dropped.
        """
        semaphore = self._semaphore(len(prepared.shards))

        async def run(shard: Shard) -> tuple[Shard, dict]:
            async with semaphore:
                return shard, await asyncio.to_thread(self.run_shard, shard, prepared)

        tasks = [asyncio.ensure_future(run(shard)) for shard in prepared.shards]
        try:
            for future in asyncio.as_completed(tasks):
                yield await future
        finally:
            for task in tasks:
                task.cancel()
            # Await the cancellations: leaving the generator (early break,
            # aclose, deadline) must not leak pending tasks into the loop
            # — the serving daemon's drain and the cancellation hammer
            # both assert the loop is quiet afterwards.
            await asyncio.gather(*tasks, return_exceptions=True)


#: The selectable scheduler backends, by name.
SCHEDULERS = {
    scheduler.name: scheduler
    for scheduler in (SerialScheduler, ThreadScheduler, ProcessScheduler, AsyncScheduler)
}

SCHEDULER_BACKENDS = tuple(SCHEDULERS)


def make_scheduler(backend: str = "thread", **kwargs) -> Scheduler:
    """Instantiate the scheduler for a backend name (the seam the service
    and CLI select on). Raises ``ValueError`` for unknown names."""
    try:
        scheduler_class = SCHEDULERS[backend]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {backend!r}; choose from {SCHEDULER_BACKENDS}"
        ) from None
    return scheduler_class(**kwargs)
