"""EXP-MQO — batch-level multi-query optimization: the shared-step DAG.

The batch layer (:mod:`repro.service.batchplan`) unifies a batch's
common step prefixes into a DAG and evaluates each distinct
(prefix, document) node-set exactly once. This experiment runs a
deliberately prefix-heavy batch — one deep ``//book/chapter`` spine
shared by a dozen tails, over catalogs and a balanced tree — and it
compares ``share=True`` against ``share=False`` on fresh
services (no warm memos), so the measured difference is exactly the
work the DAG removes.

Five gates, four of them machine-independent:

* **value gate** — ``share=True`` values are byte-identical to
  ``share=False`` values, cell by cell;
* **counter gate** — the declared :data:`~repro.stats.BatchPlanStats`
  identities read residual 0: every shared cell is a memo
  hit, a shared evaluation, or a fallback; ``steps_saved`` equals
  ``steps_independent - steps_shared`` and is nonnegative (sharing only
  ever removes work);
* **no-share gate** — ``share=False`` reproduces the independent
  per-cell loop exactly, per-batch cache stats included, and reports an
  empty ``batch_plan``;
* **work-removal gate** — the DAG removes at least half of the sharable
  step applications of the prefix-heavy batch (``steps_saved`` over
  ``steps_independent``; 108 of 160 here). This is the experiment's
  claim in the unit the DAG works in, and it is exact;
* **speedup gate** — shared throughput >= 1.3x independent throughput on
  the prefix-heavy batch: removing the work must pay on the clock, by a
  margin a noisy runner cannot erase. What the ratio *is* depends on
  what a prefix step costs relative to a tail, which is not the DAG's
  doing: it read 1.9x-2.1x while the leading ``//`` sweep was slower
  and 1.5x-2.0x since the set kernels made it cheaper (the shared pass
  itself got no slower), so the bar is set on the sign of the effect,
  not on its size. Wall-clock ratios on an oversubscribed 1-CPU host
  are too noisy even for that, so it is enforced only when the host grants >= 2 usable CPUs and reported as
  SKIPPED otherwise, with the measured ratio printed either way.

The script exits nonzero if any enforced gate fails. Run with::

    PYTHONPATH=src python benchmarks/bench_batchplan.py
"""

from __future__ import annotations

import os
import statistics
import sys
import time

from harness import ExperimentReport

from repro.service import QueryService
from repro.stats import BatchPlanStats
from repro.workloads.documents import balanced_tree, book_catalog

PASSES = 5
WARMUP_PASSES = 1
SPEEDUP_GATE = 1.3
STEPS_REMOVED_GATE = 0.5


def prefix_heavy_workload():
    """A dozen tails over one deep spine, plus an unsharable straggler.

    Every independent evaluation of a ``//book...`` query re-sweeps the
    whole document for the leading ``descendant-or-self`` step; the DAG
    materializes that spine (and the ``//book`` and ``//book/chapter``
    prefixes under it) once per document and runs only the cheap tails.
    The tails are deliberately Core-step-heavy: predicate work costs the
    same with and without sharing (it never touches a shared prefix), so
    predicate-laden batches are value/counter coverage for the *tests* —
    here they would only dilute the measured ratio without changing what
    the DAG removes.
    """
    documents = [
        book_catalog(books=80, chapters_per_book=6),
        book_catalog(books=50, chapters_per_book=5),
        balanced_tree(depth=5, fanout=3),
        book_catalog(books=25),
    ]
    queries = [
        "//book/title",
        "//book/authors",
        "//book/authors/author",
        "//book/price",
        "//book/ref",
        "//book/chapter",
        "//book/chapter/heading",
        "//book/chapter/pages",
        "//book/chapter/heading/text()",
        "//book/authors/author/text()",
        "//book/chapter[position() = 1]",
        "/descendant-or-self::node()/child::book/child::title",  # ≡ //book/title
        # An unsharable straggler: the DAG must leave it untouched.
        "count(/catalog/book)",
    ]
    return queries, documents


def _median_pass_seconds(run_pass) -> float:
    for _ in range(WARMUP_PASSES):
        run_pass()
    times = []
    for _ in range(PASSES):
        started = time.perf_counter()
        run_pass()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _counters_reconcile(plan: dict) -> bool:
    """The BatchPlanStats identities, checked exactly."""
    if not plan:
        return False
    monotone = plan["fallback_cells"] > 0 or plan["steps_saved"] >= 0
    return not any(BatchPlanStats.residuals(plan).values()) and monotone


def _no_share_is_byte_identical(queries, documents, independent) -> bool:
    """share=False must equal a manual per-cell loop — values and the
    per-batch plan/result cache counters."""
    manual = QueryService()
    plans = [manual.plan(query) for query in queries]
    values = []
    for document in documents:
        session = manual.session(document)
        values.append([session.evaluate(plan, algorithm="auto") for plan in plans])
    if independent.values != values or independent.batch_plan != {}:
        return False
    lifetime = manual.cache_stats()
    for stats_name, merged in (
        ("plan_cache", independent.plan_stats),
        ("result_cache", independent.result_stats),
    ):
        for counter in ("hits", "misses"):
            if merged[counter] != lifetime[stats_name][counter]:
                return False
    return True


def main() -> int:
    queries, documents = prefix_heavy_workload()
    evaluations = len(queries) * len(documents)
    usable_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )

    shared = QueryService().evaluate_many(queries, documents)
    independent = QueryService().evaluate_many(queries, documents, share=False)

    value_gate = shared.values == independent.values
    counter_gate = _counters_reconcile(shared.batch_plan)
    no_share_gate = _no_share_is_byte_identical(queries, documents, independent)
    plan = shared.batch_plan
    steps_removed = plan["steps_saved"] / max(1, plan["steps_independent"])
    work_removal_gate = steps_removed >= STEPS_REMOVED_GATE

    shared_seconds = _median_pass_seconds(
        lambda: QueryService().evaluate_many(queries, documents)
    )
    independent_seconds = _median_pass_seconds(
        lambda: QueryService().evaluate_many(queries, documents, share=False)
    )
    speedup = independent_seconds / shared_seconds
    speedup_enforced = usable_cpus >= 2
    speedup_ok = speedup >= SPEEDUP_GATE

    report = ExperimentReport(
        "EXP-MQO", "batch multi-query optimization (shared-step DAG vs independent)"
    )
    report.note(
        f"workload: {len(queries)} queries x {len(documents)} documents = "
        f"{evaluations} evaluations/pass (fresh service per pass, cold memos); "
        f"median of {PASSES} passes; host grants {usable_cpus} usable CPU(s)"
    )
    report.table(
        ["configuration", "median pass (ms)", "throughput (eval/s)", "vs independent"],
        [
            [
                "independent (--no-share)",
                independent_seconds * 1e3,
                evaluations / independent_seconds,
                1.0,
            ],
            [
                "shared-step DAG (share=True)",
                shared_seconds * 1e3,
                evaluations / shared_seconds,
                speedup,
            ],
        ],
    )
    report.note()
    report.note(
        f"batch plan: prefixes={plan['prefix_nodes']} "
        f"shared plans={plan['shared_plans']}/{plan['sharable_plans']} "
        f"cells={plan['cells']} shared evals={plan['shared_evaluations']} "
        f"memo hits={plan['memo_hits']} fallbacks={plan['fallback_cells']}"
    )
    report.note(
        f"steps: independent={plan['steps_independent']} "
        f"shared={plan['steps_shared']} saved={plan['steps_saved']} "
        f"({100.0 * steps_removed:.1f}% of the sharable step applications removed)"
    )
    report.note(
        "value gate:    share=True values byte-identical to share=False — "
        + ("PASS" if value_gate else "FAIL")
    )
    report.note(
        "counter gate:  cells == memo hits + shared evals + fallbacks; "
        "steps saved == independent - shared >= 0 — "
        + ("PASS" if counter_gate else "FAIL")
    )
    report.note(
        "no-share gate: share=False == manual per-cell loop (values + stats), "
        "batch_plan == {} — " + ("PASS" if no_share_gate else "FAIL")
    )
    report.note(
        f"work-removal gate: {100.0 * steps_removed:.1f}% of the sharable step "
        f"applications removed (need >= {100.0 * STEPS_REMOVED_GATE:.0f}%) — "
        + ("PASS" if work_removal_gate else "FAIL")
    )
    if speedup_enforced:
        report.note(
            f"speedup gate:  shared over independent throughput = {speedup:.2f}x "
            f"(need >= {SPEEDUP_GATE}x) — " + ("PASS" if speedup_ok else "FAIL")
        )
    else:
        report.note(
            f"speedup gate:  SKIPPED — 1 usable CPU is too noisy to enforce a "
            f"wall-clock ratio (measured {speedup:.2f}x, gate needs >= "
            f"{SPEEDUP_GATE}x on >= 2 CPUs)"
        )
    report.finish()
    if not (value_gate and counter_gate and no_share_gate and work_removal_gate):
        return 1
    if speedup_enforced and not speedup_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
