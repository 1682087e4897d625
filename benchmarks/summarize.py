"""Aggregate all experiment reports into one document.

Run after the benchmark suite:

    pytest benchmarks/ --benchmark-only
    python benchmarks/summarize.py               # prints + writes results/ALL.txt
    python benchmarks/summarize.py --plan-cache  # just the plan-cache hit rates
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
    "exp_svc", "exp_mqo", "exp_axis", "exp_snap",
    "exp_serve",
]


#: ``--flag`` → (report stem, the markers of the lines it prints, the
#: script that writes the report, what the flag prints).
GATES = {
    "plan-cache": (
        "exp_svc", ("hit rate:", "speedup = "), "bench_plan_cache.py",
        "the plan-cache hit rates and speedups (EXP-SVC)",
    ),
    "axes": (
        "exp_axis", ("gate:", "speedup", "kernels:", "dispatch", "workload:"),
        "bench_axes.py", "the fused-axis-kernel gates and speedup (EXP-AXIS)",
    ),
    "snapshot": (
        "exp_snap",
        ("gate:", "speedup", "index:", "store:", "cold-start", "first query",
         "dispatch", "workload:"),
        "bench_snapshot.py", "the binary-snapshot gates and speedups (EXP-SNAP)",
    ),
    "batchplan": (
        "exp_mqo", ("gate:", "vs independent", "batch plan:", "steps:", "workload:"),
        "bench_batchplan.py", "the multi-query sharing gates and speedup (EXP-MQO)",
    ),
    "serve": (
        "exp_serve", ("gate:", "counters:", "workload:", "p99"), "bench_serve.py",
        "the serving-daemon gates: p99, reconciliation, admission, drain, "
        "hit (EXP-SERVE)",
    ),
}


def gate_lines(flag: str) -> list[str]:
    """The lines of ``flag``'s report that carry one of its markers."""
    stem, markers, _, _ = GATES[flag]
    path = RESULTS_DIR / f"{stem}.txt"
    if not path.exists():
        return []
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(marker in line for marker in markers)
    ]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, (_, _, _, what) in GATES.items():
        parser.add_argument(f"--{flag}", action="store_true", help=f"print only {what}")
    args = parser.parse_args(argv)
    for flag, (stem, _, script, _) in GATES.items():
        if getattr(args, flag.replace("-", "_")):
            lines = gate_lines(flag)
            if not lines:
                raise SystemExit(
                    f"no {stem} results yet — run: python benchmarks/{script}"
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
