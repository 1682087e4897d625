"""EXP-AXIS — output-sensitive axis kernels vs the O(|D|) scans.

The PR 5 payoff claim: on *selective* queries over large documents, the
per-document NodeIndex (name-partitioned sorted pre arrays + sorted-array
node-set algebra) turns each ``χ(X) ∩ T(t)`` from a whole-document scan
into a binary-search range query, without changing a single result byte
— the Definition-1 scans remain the dispatch fallback, so worst-case
asymptotics never regress.

Three gates, two of them machine-independent:

* **value gate** — for every axis × node test × context-set cell over
  the workload documents (attributes, the document node, and whole-dom
  sets included), the step functions under ``auto`` return
  byte-identical node sets to the forced-``scan`` path, forward and
  inverse; and every workload query evaluates byte-identically under
  ``scan`` and ``auto`` across the paper-bounded evaluators.
* **counter gate** — ``index_adoptions`` moves by exactly one per fresh
  built document and ``index_builds`` by zero (every document adopts
  the index partitioned from its columns at birth, and ``node_index``
  hits it), every dispatch counts exactly one fused/fallback outcome,
  and the selective workload actually takes the kernels (fused hits
  dominate).
* **speedup gate** — summed best-of-N evaluation time of the selective
  workload under ``auto`` dispatch ≥ 2× faster than under forced
  ``scan``. Host-gated: enforced when the host grants
  ≥ 2 usable CPUs (CI runners), reported but not enforced on 1-CPU
  containers where shared-host noise dominates. The measured ratio
  prints either way.

The script exits nonzero if any enforced gate fails. Run with::

    PYTHONPATH=src python benchmarks/bench_axes.py
"""

from __future__ import annotations

import os
import random
import sys

from harness import ExperimentReport, time_query

from repro import stats
from repro.axes.axes import (
    ALL_AXES,
    axis_set,
    inverse_axis_set,
    kernel_mode_forced,
    select_node_test,
)
from repro.axes.vec import forward_step, inverse_step
from repro.engine import XPathEngine
from repro.workloads.documents import balanced_tree, book_catalog
from repro.xml.builder import DocumentBuilder
from repro.xml.index import node_index
from repro.xpath.ast import NodeTest

REPEAT = 5
SPEEDUP_GATE = 2.0

#: The selective workload: large documents, queries whose name tests hit
#: small partitions — the regime the fused kernels exist for. Each entry
#: is (query, forced algorithm); corexpath rides the sorted-array
#: sweeps, mincontext the same kernels through step_candidate_pres.
WORKLOAD_QUERIES = (
    ("/descendant::price", "corexpath"),
    ("/descendant::ref", "corexpath"),
    ("/descendant::chapter[child::pages]", "corexpath"),
    ("/descendant::author[not(following::ref)]", "corexpath"),
    ("/descendant::heading/following::ref", "corexpath"),
    ("/descendant::book[descendant::pages]/child::title", "corexpath"),
    ("/descendant::price[. > 80]", "mincontext"),
    ("/descendant::ref/preceding::title", "corexpath"),
)


def workload_documents():
    return [
        book_catalog(books=120, chapters_per_book=5),
        book_catalog(books=60, chapters_per_book=3),
        balanced_tree(depth=6, fanout=4, tags=("a", "b", "c", "d", "e")),
    ]


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------


def run_value_gate(documents) -> tuple[bool, int]:
    """Kernel ≡ scan on every (axis, test, context-set) cell, forward and
    inverse, plus whole-query identity across both policies."""
    tests = [
        NodeTest("name", "price"),
        NodeTest("name", "chapter"),
        NodeTest("name", "nosuch"),
        NodeTest("name", "id"),
        NodeTest("wildcard"),
        NodeTest("node"),
        NodeTest("text"),
        NodeTest("comment"),
    ]
    rng = random.Random(20030615)
    cells = 0
    ok = True
    for document in documents:
        dom = range(len(document))
        attributes = list(node_index(document).attributes)
        context_sets = [
            [0],
            rng.sample(dom, 5),
            rng.sample(dom, 40) + attributes[:2],
            list(dom),
        ]
        for X in context_sets:
            pres = sorted(set(X))
            for axis in sorted(ALL_AXES):
                for test in tests:
                    expected = sorted(
                        select_node_test(document, axis_set(document, axis, pres), test, axis)
                    )
                    kernel = list(forward_step(document, axis, pres, test))
                    with kernel_mode_forced("scan"):
                        scanned = list(forward_step(document, axis, pres, test))
                    if not (kernel == scanned == expected):
                        ok = False
                    cells += 1
                inverse_expected = sorted(inverse_axis_set(document, axis, pres))
                inverse_kernel = inverse_step(document, axis, pres)
                with kernel_mode_forced("scan"):
                    inverse_scanned = inverse_step(document, axis, pres)
                if not (inverse_kernel == inverse_scanned == inverse_expected):
                    ok = False
                cells += 1
    # Whole queries: both policies return the same bytes.
    for document in documents:
        engine = XPathEngine(document)
        for query, algorithm in WORKLOAD_QUERIES:
            compiled = engine.compile(query)
            with kernel_mode_forced("scan"):
                baseline = engine.evaluate(compiled, algorithm=algorithm)
            if engine.evaluate(compiled, algorithm=algorithm) != baseline:
                ok = False
            cells += 1
    return ok, cells


def run_counter_gate() -> tuple[bool, dict]:
    """Exact accounting: one adoption and no build per fresh built
    document, one outcome per dispatch, kernels actually engaged on the
    selective workload."""
    before = stats.axis_kernel_stats.snapshot()
    documents = []
    for i in range(3):
        builder = DocumentBuilder()
        builder.start("r")
        for _ in range(20 + i):
            builder.leaf("a", "1")
            builder.leaf("b", "2")
        builder.end()
        documents.append(builder.build())
    for document in documents:
        node_index(document)  # must hit the adopted index
    after_builds = stats.axis_kernel_stats.snapshot()
    builds_exact = (
        after_builds["index_adoptions"] - before["index_adoptions"] == len(documents)
        and after_builds["index_builds"] == before["index_builds"]
    )
    test = NodeTest("name", "a")
    calls = 0
    before_dispatch = stats.axis_kernel_stats.snapshot()
    for document in documents:
        for axis in ("descendant", "following", "preceding", "child", "self"):
            for _ in range(10):
                forward_step(document, axis, [0], test)
                calls += 1
    after = stats.axis_kernel_stats.snapshot()
    fused_delta = after["fused_hits"] - before_dispatch["fused_hits"]
    fallback_delta = after["fallback_scans"] - before_dispatch["fallback_scans"]
    dispatch_exact = fused_delta + fallback_delta == calls
    kernels_engaged = fused_delta == calls  # selective name test: all fused
    detail = {
        "documents": len(documents),
        "adoptions_delta": after_builds["index_adoptions"] - before["index_adoptions"],
        "builds_delta": after_builds["index_builds"] - before["index_builds"],
        "dispatches": calls,
        "fused": fused_delta,
        "fallback": fallback_delta,
    }
    return builds_exact and dispatch_exact and kernels_engaged, detail


def run_speedup_gate(documents):
    """Summed best-of-N evaluation seconds, auto dispatch vs forced scan."""
    engines = [XPathEngine(document) for document in documents]
    compiled = [
        [(engine.compile(query), algorithm) for query, algorithm in WORKLOAD_QUERIES]
        for engine in engines
    ]
    for engine in engines:  # build indexes outside the timed region
        node_index(engine.document)
    per_mode = {}
    for mode in ("scan", "auto"):
        with kernel_mode_forced(mode):
            total = 0.0
            for engine, plans in zip(engines, compiled):
                for plan, algorithm in plans:
                    total += time_query(engine, plan, algorithm, repeat=REPEAT)
            per_mode[mode] = total
    return per_mode["scan"], per_mode["auto"]


def main() -> int:
    usable_cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    documents = workload_documents()

    value_ok, value_cells = run_value_gate(documents)
    counters_ok, counter_detail = run_counter_gate()
    scan_seconds, auto_seconds = run_speedup_gate(documents)
    speedup = scan_seconds / auto_seconds if auto_seconds else float("inf")
    speedup_enforced = usable_cpus >= 2
    speedup_ok = speedup >= SPEEDUP_GATE

    report = ExperimentReport(
        "EXP-AXIS", "output-sensitive axis kernels vs O(|D|) scans"
    )
    sizes = ", ".join(str(len(document)) for document in documents)
    report.note(
        f"workload: {len(WORKLOAD_QUERIES)} selective queries x "
        f"{len(documents)} documents (|dom| = {sizes}); "
        f"best of {REPEAT}; host grants {usable_cpus} usable CPU(s)"
    )
    report.table(
        ["dispatch", "summed best (ms)", "speedup"],
        [
            ["scan (Definition-1 fallback forced)", scan_seconds * 1e3, 1.0],
            ["auto (kernels + predicted-cost fallback)", auto_seconds * 1e3, speedup],
        ],
    )
    report.note()
    report.note(
        f"kernels: {counter_detail['fused']} fused / "
        f"{counter_detail['fallback']} fallback over "
        f"{counter_detail['dispatches']} counted dispatches; "
        f"{counter_detail['adoptions_delta']} index adoptions and "
        f"{counter_detail['builds_delta']} builds for "
        f"{counter_detail['documents']} fresh documents"
    )
    report.note(
        f"value gate:   auto == scan on every cell ({value_cells} cells) — "
        + ("PASS" if value_ok else "FAIL")
    )
    report.note(
        "counter gate: adoptions/dispatch outcomes exact, kernels engaged — "
        + ("PASS" if counters_ok else "FAIL")
    )
    if speedup_enforced:
        report.note(
            f"speedup gate: auto over scan = {speedup:.2f}x "
            f"(need >= {SPEEDUP_GATE}x) — " + ("PASS" if speedup_ok else "FAIL")
        )
    else:
        report.note(
            f"speedup gate: SKIPPED — 1-CPU host (measured {speedup:.2f}x, "
            f"gate needs >= {SPEEDUP_GATE}x on >= 2-CPU hosts)"
        )
    report.finish()
    if not value_ok or not counters_ok:
        return 1
    if speedup_enforced and not speedup_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
