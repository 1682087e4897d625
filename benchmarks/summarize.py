"""Aggregate all experiment reports into one document.

Run after the benchmark suite:

    pytest benchmarks/ --benchmark-only
    python benchmarks/summarize.py               # prints + writes results/ALL.txt
    python benchmarks/summarize.py --plan-cache  # just the plan-cache hit rates
    python benchmarks/summarize.py --sharded     # just the sharding gates/speedup
    python benchmarks/summarize.py --async-batch # just the async/streaming gates
    python benchmarks/summarize.py --specialize  # just the specialization gates
    python benchmarks/summarize.py --axes        # just the fused-kernel gates
    python benchmarks/summarize.py --snapshot    # just the snapshot gates
    python benchmarks/summarize.py --batchplan   # just the multi-query gates
    python benchmarks/summarize.py --serve       # just the serving-daemon gates
"""

from __future__ import annotations

import argparse
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

ORDER = [
    "exp_f4", "exp_f5", "exp_e9",
    "exp_x1", "exp_t7a", "exp_t7b", "exp_t10", "exp_t13",
    "exp_x2", "exp_x3", "exp_a1", "exp_a2",
    "exp_svc", "exp_shard", "exp_mqo", "exp_async", "exp_spec", "exp_axis", "exp_snap",
    "exp_serve",
]


def plan_cache_lines() -> list[str]:
    """The cache hit-rate and speedup lines from the EXP-SVC report
    (written by bench_plan_cache.py)."""
    path = RESULTS_DIR / "exp_svc.txt"
    if not path.exists():
        return []
    markers = ("hit rate:", "speedup = ")
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def sharded_batch_lines() -> list[str]:
    """The gate and throughput lines from the EXP-SHARD report (written
    by bench_sharded_batch.py)."""
    path = RESULTS_DIR / "exp_shard.txt"
    if not path.exists():
        return []
    markers = ("gate:", "vs 1 worker", "workers (", "1 worker (", "shards:")
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def async_batch_lines() -> list[str]:
    """The gate and latency lines from the EXP-ASYNC report (written by
    bench_async_batch.py)."""
    path = RESULTS_DIR / "exp_async.txt"
    if not path.exists():
        return []
    markers = ("gate:", "barrier", "stream:")
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def specialize_lines() -> list[str]:
    """The gate, throughput, and choice-matrix lines from the EXP-SPEC
    report (written by bench_specialize.py)."""
    path = RESULTS_DIR / "exp_spec.txt"
    if not path.exists():
        return []
    markers = ("gate:", "speedup", "configuration", "dispatch", "specialized", "->")
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def axes_lines() -> list[str]:
    """The gate, speedup, and kernel-counter lines from the EXP-AXIS
    report (written by bench_axes.py)."""
    path = RESULTS_DIR / "exp_axis.txt"
    if not path.exists():
        return []
    markers = ("gate:", "speedup", "kernels:", "dispatch", "workload:")
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def snapshot_lines() -> list[str]:
    """The gate, speedup, and adoption- and store-counter lines from the
    EXP-SNAP report (written by bench_snapshot.py)."""
    path = RESULTS_DIR / "exp_snap.txt"
    if not path.exists():
        return []
    markers = (
        "gate:", "speedup", "adoption", "store:", "cold-start", "first query",
        "dispatch", "workload:",
    )
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def batchplan_lines() -> list[str]:
    """The gate, speedup, and DAG-counter lines from the EXP-MQO report
    (written by bench_batchplan.py)."""
    path = RESULTS_DIR / "exp_mqo.txt"
    if not path.exists():
        return []
    markers = ("gate:", "vs independent", "batch plan:", "steps:", "workload:")
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def serve_lines() -> list[str]:
    """The gate, percentile, and counter lines from the EXP-SERVE report
    (written by bench_serve.py)."""
    path = RESULTS_DIR / "exp_serve.txt"
    if not path.exists():
        return []
    markers = ("gate:", "counters:", "workload:", "p99")
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--plan-cache",
        action="store_true",
        help="print only the plan-cache hit rates and speedups (EXP-SVC)",
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="print only the sharded-batch gates and throughputs (EXP-SHARD)",
    )
    parser.add_argument(
        "--async-batch",
        action="store_true",
        help="print only the async/streaming gates and latencies (EXP-ASYNC)",
    )
    parser.add_argument(
        "--specialize",
        action="store_true",
        help="print only the specialization gates and choice matrix (EXP-SPEC)",
    )
    parser.add_argument(
        "--axes",
        action="store_true",
        help="print only the fused-axis-kernel gates and speedup (EXP-AXIS)",
    )
    parser.add_argument(
        "--snapshot",
        action="store_true",
        help="print only the binary-snapshot gates and speedups (EXP-SNAP)",
    )
    parser.add_argument(
        "--batchplan",
        action="store_true",
        help="print only the multi-query sharing gates and speedup (EXP-MQO)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="print only the serving-daemon gates: p99, reconciliation, "
        "admission, drain, hit (EXP-SERVE)",
    )
    args = parser.parse_args(argv)
    if args.plan_cache:
        lines = plan_cache_lines()
        if not lines:
            raise SystemExit(
                "no plan-cache results yet — run: python benchmarks/bench_plan_cache.py"
            )
        print("\n".join(lines))
        return
    if args.sharded:
        lines = sharded_batch_lines()
        if not lines:
            raise SystemExit(
                "no sharded-batch results yet — run: "
                "python benchmarks/bench_sharded_batch.py"
            )
        print("\n".join(lines))
        return
    if args.async_batch:
        lines = async_batch_lines()
        if not lines:
            raise SystemExit(
                "no async-batch results yet — run: "
                "python benchmarks/bench_async_batch.py"
            )
        print("\n".join(lines))
        return
    if args.specialize:
        lines = specialize_lines()
        if not lines:
            raise SystemExit(
                "no specialization results yet — run: "
                "python benchmarks/bench_specialize.py"
            )
        print("\n".join(lines))
        return
    if args.axes:
        lines = axes_lines()
        if not lines:
            raise SystemExit(
                "no fused-kernel results yet — run: "
                "python benchmarks/bench_axes.py"
            )
        print("\n".join(lines))
        return
    if args.snapshot:
        lines = snapshot_lines()
        if not lines:
            raise SystemExit(
                "no snapshot results yet — run: "
                "python benchmarks/bench_snapshot.py"
            )
        print("\n".join(lines))
        return
    if args.batchplan:
        lines = batchplan_lines()
        if not lines:
            raise SystemExit(
                "no multi-query results yet — run: "
                "python benchmarks/bench_batchplan.py"
            )
        print("\n".join(lines))
        return
    if args.serve:
        lines = serve_lines()
        if not lines:
            raise SystemExit(
                "no serving-daemon results yet — run: "
                "python benchmarks/bench_serve.py"
            )
        print("\n".join(lines))
        return
    if not RESULTS_DIR.exists():
        raise SystemExit("no results yet — run: pytest benchmarks/ --benchmark-only")
    sections = []
    seen = set()
    for stem in ORDER:
        path = RESULTS_DIR / f"{stem}.txt"
        if path.exists():
            sections.append(path.read_text(encoding="utf-8"))
            seen.add(path.name)
    for path in sorted(RESULTS_DIR.glob("*.txt")):
        if path.name not in seen and path.name != "ALL.txt":
            sections.append(path.read_text(encoding="utf-8"))
    combined = "\n".join(sections)
    (RESULTS_DIR / "ALL.txt").write_text(combined, encoding="utf-8")
    print(combined)


if __name__ == "__main__":
    main()
