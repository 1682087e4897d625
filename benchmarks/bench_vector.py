"""EXP-VEC — block-vectorized column programs vs the scalar kernels.

The PR 9 payoff claim: wide Core XPath sweeps — whole-document
``descendant``/``child``/``attribute`` chains where every frontier is
thousands of nodes — spend their time in per-node Python dispatch, not
in the index lookups themselves. Compiling the sweep's step chain into a
linear column program and executing it batch-at-a-time over the flat
NodeIndex columns (interval joins, partition semi-joins, child-span and
attribute-run gathers) removes that dispatch without changing a single
result byte.

Three gates, two of them machine-independent:

* **value gate** — every workload query over every workload document
  evaluates byte-identically under forced ``scan``, ``indexed``,
  ``auto``, and ``vector`` dispatch.
* **counter gate** — ``vector_program_runs``/``vector_ops`` move by
  exactly the program-shape-predicted amounts for known queries, and
  the wide workload actually engages the vector tier under ``auto``
  dispatch.
* **speedup gate** — summed best-of-N evaluation time of the wide
  workload under forced ``vector`` dispatch vs forced ``indexed``
  (scalar kernels): >= 1.5x. Host-gated like EXP-AXIS: enforced when
  the host grants >= 2 usable CPUs (CI runners), reported but not
  enforced on 1-CPU containers where shared-host noise dominates. The
  measured ratio prints either way.

The script exits nonzero if any enforced gate fails. Run with::

    PYTHONPATH=src python benchmarks/bench_vector.py
"""

from __future__ import annotations

import os
import sys

from harness import ExperimentReport, time_query

from repro import stats
from repro.axes import kernel_mode_forced
from repro.engine import XPathEngine
from repro.workloads.documents import balanced_tree, book_catalog
from repro.xml.index import node_index

REPEAT = 5
VECTOR_SPEEDUP_GATE = 1.5

#: The wide-sweep workload: whole-document frontiers, the regime the
#: vector tier exists for. All Core XPath, all routed through
#: ``corexpath`` — the only algorithm whose sweeps compile to programs.
WORKLOAD_QUERIES = (
    "/descendant-or-self::node()/child::*",
    "/descendant::*/child::node()",
    "/descendant::chapter/descendant::node()",
    "/descendant::node()[ancestor::chapter]",
    "/descendant::*[not(child::*)]",
    "/descendant::*/parent::*",
    "/descendant::*/attribute::node()",
    "/descendant::*[child::*]/child::node()",
)

#: Extra identity-only queries: narrow results, delegated axes, nested
#: predicates — shapes the speedup workload skips but the byte-identity
#: contract must still cover.
IDENTITY_QUERIES = WORKLOAD_QUERIES + (
    "/descendant::*[child::node()]",
    "/descendant::book/following-sibling::book",
    "/descendant::chapter[descendant::ref]/ancestor::book",
    "/descendant::title/following::price",
    "/child::*/child::*[child::*[child::node()]]",
    "/descendant::ref/preceding-sibling::node()",
)


def workload_documents():
    return [
        book_catalog(books=300, chapters_per_book=5),
        balanced_tree(depth=7, fanout=4, tags=("a", "b", "c", "d", "e")),
    ]


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------


def run_value_gate(documents) -> tuple[bool, int]:
    """Vector ≡ indexed ≡ auto ≡ scan on every query × document cell."""
    cells = 0
    ok = True
    for document in documents:
        engine = XPathEngine(document)
        for query in IDENTITY_QUERIES:
            compiled = engine.compile(query)
            with kernel_mode_forced("scan"):
                baseline = engine.evaluate(compiled, algorithm="corexpath")
            for mode in ("indexed", "auto", "vector"):
                with kernel_mode_forced(mode):
                    if engine.evaluate(compiled, algorithm="corexpath") != baseline:
                        ok = False
                cells += 1
    return ok, cells


#: (query, expected program runs, expected vector ops) for one forced-
#: ``vector`` evaluation. Shapes: a forward program run ticks one op per
#: vectorizable step; each predicate adds one backward program run whose
#: steps tick a filter op plus an inverse op; delegated axes (siblings)
#: tick no op but still count the run.
COUNTER_QUERIES = (
    ("/descendant::chapter", 1, 1),
    ("/descendant::*/child::node()", 1, 2),
    ("/descendant::*/attribute::node()", 1, 2),
    ("/descendant::*[child::*]", 2, 3),
    ("/descendant::book/following-sibling::book", 1, 1),
)


def run_counter_gate(documents) -> tuple[bool, list]:
    """Exact accounting: the vector counters move by program-shape-
    predicted deltas."""
    document = documents[0]
    engine = XPathEngine(document)
    ok = True
    rows = []
    for query, want_runs, want_ops in COUNTER_QUERIES:
        compiled = engine.compile(query)
        with kernel_mode_forced("vector"):
            before = stats.axis_kernel_stats.snapshot()
            engine.evaluate(compiled, algorithm="corexpath")
            after = stats.axis_kernel_stats.snapshot()
        runs = after["vector_program_runs"] - before["vector_program_runs"]
        ops = after["vector_ops"] - before["vector_ops"]
        if (runs, ops) != (want_runs, want_ops):
            ok = False
        rows.append([query, runs, want_runs, ops, want_ops])
    # Engagement: under plain auto dispatch the wide workload must run
    # through the vector tier, not fall back to scalar sweeps.
    with kernel_mode_forced("auto"):
        before = stats.axis_kernel_stats.snapshot()
        for query in WORKLOAD_QUERIES:
            engine.evaluate(engine.compile(query), algorithm="corexpath")
        after = stats.axis_kernel_stats.snapshot()
    engaged_runs = after["vector_program_runs"] - before["vector_program_runs"]
    engaged_ops = after["vector_ops"] - before["vector_ops"]
    if engaged_runs < len(WORKLOAD_QUERIES) or engaged_ops <= engaged_runs:
        ok = False
    rows.append(
        ["auto dispatch, full workload", engaged_runs, f">={len(WORKLOAD_QUERIES)}",
         engaged_ops, f">{engaged_runs}"]
    )
    return ok, rows


def run_speedup_gate(documents):
    """Summed best-of-N evaluation seconds: forced indexed scalar
    kernels vs forced vector programs."""
    engines = [XPathEngine(document) for document in documents]
    compiled = [
        [engine.compile(query) for query in WORKLOAD_QUERIES] for engine in engines
    ]
    for engine in engines:  # build indexes + tables outside timed region
        index = node_index(engine.document)
        index.child_table()
        index.attribute_counts()
    timings = {}
    for mode in ("indexed", "vector"):
        with kernel_mode_forced(mode):
            timings[mode] = sum(
                time_query(engine, plan, "corexpath", repeat=REPEAT)
                for engine, plans in zip(engines, compiled)
                for plan in plans
            )
    return timings


def main() -> int:
    usable_cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    documents = workload_documents()

    value_ok, value_cells = run_value_gate(documents)
    counters_ok, counter_rows = run_counter_gate(documents)
    timings = run_speedup_gate(documents)
    vector_speedup = timings["indexed"] / timings["vector"]
    speedup_enforced = usable_cpus >= 2
    vector_ok = vector_speedup >= VECTOR_SPEEDUP_GATE

    report = ExperimentReport(
        "EXP-VEC", "block-vectorized column programs vs scalar kernels"
    )
    sizes = ", ".join(str(len(document)) for document in documents)
    report.note(
        f"workload: {len(WORKLOAD_QUERIES)} wide-sweep queries x "
        f"{len(documents)} documents (|dom| = {sizes}); best of {REPEAT}; "
        f"host grants {usable_cpus} usable CPU(s)"
    )
    rows = [
        ["indexed (scalar kernels forced)", timings["indexed"] * 1e3, 1.0],
        ["vector (column programs forced)", timings["vector"] * 1e3, vector_speedup],
    ]
    report.table(["dispatch", "summed best (ms)", "speedup"], rows)
    report.note()
    report.table(
        ["counter probe", "runs", "want", "ops", "want "],
        counter_rows,
    )
    report.note()
    report.note(
        f"value gate:   vector == indexed == auto == scan on every cell "
        f"({value_cells} cells) — "
        + ("PASS" if value_ok else "FAIL")
    )
    report.note(
        "counter gate: program/op deltas exact — "
        + ("PASS" if counters_ok else "FAIL")
    )
    if speedup_enforced:
        report.note(
            f"speedup gate: vector over indexed = {vector_speedup:.2f}x "
            f"(need >= {VECTOR_SPEEDUP_GATE}x) — "
            + ("PASS" if vector_ok else "FAIL")
        )
    else:
        report.note(
            f"speedup gate: SKIPPED — 1-CPU host (measured "
            f"{vector_speedup:.2f}x; gate needs >= {VECTOR_SPEEDUP_GATE}x "
            f"on >= 2-CPU hosts)"
        )
    report.finish()
    if not value_ok or not counters_ok:
        return 1
    if speedup_enforced and not vector_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
