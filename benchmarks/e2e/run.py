#!/usr/bin/env python3
"""End-to-end benchmark of the repro XPath stack: four workloads, seven
metrics each, every answer checked.

    python3 benchmarks/e2e/run.py --seed 15                 # all four workloads
    python3 benchmarks/e2e/run.py --workload batch --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --traced                  # per-layer run
    python3 benchmarks/e2e/run.py --aa                      # same code twice
    python3 benchmarks/e2e/run.py --smoke                   # seconds, not minutes

The protocol (README.md says why): each workload runs R = 5 repetitions,
interleaved round-robin across workloads; a repetition is a fresh
``worker.py`` process pinned to one CPU (timed set-up, then a fixed seeded
op list in a closed loop with one client); clock-derived values are
normalised to reference host speed by a calibration slice interleaved with
the ops (equal to the stopwatch readings on a calm host), and a run's
value is the median over its repetitions. Per-repetition values,
quartiles, stopwatch readings and the exact counters go to ``benchmarks/results/e2e/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def print_summaries(summaries: dict) -> None:
    for name, summary in summaries.items():
        for metric, entry in summary["metrics"].items():
            label = f"{name}/{metric}"
            if "value" not in entry:
                print(f"{label} - {entry['unit']}  (no repetition completed)")
                continue
            spread = ""
            if "quartiles" in entry and entry["value"]:
                low, _, high = entry["quartiles"]
                share = 100 * (high - low) / entry["value"]
                spread = f"  (repetitions: IQR {share:.1f}% of the value, n={len(entry['values'])})"
            stopwatch = f"  [stopwatch {entry['stopwatch']:.4f}]" if "stopwatch" in entry else ""
            print(f"{label} {entry['value']!r} {entry['unit']}{spread}{stopwatch}")
        notes = [
            f"{summary['attempted']} ops attempted, {summary['failed']} failed",
            f"{summary['disturbed']}/{summary['repetitions']} repetitions disturbed",
            "exact counters "
            + ("identical across repetitions" if summary["deterministic_ok"] else "DIFFER"),
        ]
        if summary["timed_out"]:
            notes.append(f"{summary['timed_out']} repetitions timed out")
        if summary["cpu_over_wall"]:
            notes.append(f"CPU time exceeds wall time in {summary['cpu_over_wall']} repetitions")
        notes += [f"set-up failed: {failure}" for failure in summary["setup_failures"]]
        print(f"# {name}: " + "; ".join(notes))


def flatten(per_workload: dict, units: dict, single: bool) -> dict:
    """``{workload: {metric: value}}`` as the contract's ``metrics``
    object; metric names carry the workload unless there is only one."""
    return {
        (metric if single else f"{name}/{metric}"): {"value": value, "unit": units[metric]}
        for name, values in per_workload.items()
        for metric, value in values.items()
    }


def contract_line(summaries: dict, metrics: dict) -> str:
    failed = sum(summary["failed"] for summary in summaries.values())
    return json.dumps(
        {
            "correct": failed == 0 and all(s["deterministic_ok"] for s in summaries.values()),
            "attempted": sum(summary["attempted"] for summary in summaries.values()),
            "failed": failed,
            "metrics": metrics,
        }
    )


def compare_aa(first: dict, second: dict, bounds: dict) -> int:
    """Two runs of the same code: print every (workload, metric) pair's
    relative difference next to its bound, and next to the difference
    the stopwatch readings show; return the breaches."""
    breaches = 0
    print(f"{'pair':<32}{'first':>14}{'second':>14}{'diff':>9}{'bound':>9}{'stopwatch':>11}")
    for name in first:
        for metric, entry in first[name]["metrics"].items():
            other = second[name]["metrics"][metric]
            a, b = entry.get("value"), other.get("value")
            if not a or b is None:
                print(f"{name + '/' + metric:<32} missing")
                breaches += 1
                continue
            diff = abs(b - a) / abs(a)
            breach = diff > bounds[metric]
            breaches += breach
            stopwatch = ""
            if "stopwatch" in entry:
                share = abs(other["stopwatch"] - entry["stopwatch"]) / entry["stopwatch"]
                stopwatch = f"{100 * share:>10.2f}%"
            print(
                f"{name + '/' + metric:<32}{a:>14.4f}{b:>14.4f}{100 * diff:>8.2f}%"
                f"{100 * bounds[metric]:>8.2f}%{stopwatch:>11}{'  BREACH' if breach else ''}"
            )
        if first[name]["deterministic"] != second[name]["deterministic"]:
            print(f"{name}: exact counters differ between the two runs  BREACH")
            breaches += 1
    return breaches


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=15, help="workload seed")
    parser.add_argument("--seconds", type=float, help="measured seconds per run (scales op counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--aa", action="store_true", help="run twice, compare against the bounds")
    parser.add_argument("--smoke", action="store_true", help="tiny op counts, 2 repetitions")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import host
    import protocol
    import workloads

    contract = protocol.load_contract()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; one of {', '.join(workloads.WORKLOADS)}")
    seconds = args.seconds if args.seconds else float(contract["run_seconds"])
    scale = seconds / contract["run_seconds"] * (protocol.SMOKE_SCALE if args.smoke else 1.0)
    repetitions = protocol.SMOKE_REPETITIONS if args.smoke else protocol.REPETITIONS
    budget = protocol.INVOCATION_BUDGET * max(1.0, scale) * len(names)
    single = args.workload is not None
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}

    def record(kind: str, payload: dict) -> None:
        protocol.RESULTS.mkdir(parents=True, exist_ok=True)
        scope = args.workload or "all"
        with open(protocol.RESULTS / f"{kind}-{scope}-seed{args.seed}.json", "w") as handle:
            json.dump({"host": host.fingerprint(), "seed": args.seed, **payload}, handle, indent=1)

    def values(summaries: dict) -> dict:
        return {
            name: {m: e["value"] for m, e in summary["metrics"].items() if "value" in e}
            for name, summary in summaries.items()
        }

    if args.traced or args.trace:
        import tracer

        layers, summaries = tracer.run(names, args.seed, scale, contract)
        for name, metrics in layers.items():
            for metric, value in metrics.items():
                print(f"{name}/{metric} {value!r} {units[metric]}")
        print_summaries(summaries)
        record("traced", {"layers": layers, "untraced": summaries})
        print(contract_line(summaries, flatten(layers, units, single)))
        return 0 if all(s["deterministic_ok"] for s in summaries.values()) else 1

    summaries = protocol.run_protocol(names, args.seed, scale, repetitions, budget)
    print_summaries(summaries)
    status = 0 if all(s["deterministic_ok"] for s in summaries.values()) else 1
    if args.aa:
        again = protocol.run_protocol(names, args.seed, scale, repetitions, budget)
        bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
        breaches = compare_aa(summaries, again, bounds)
        print(f"# A/A: {breaches} breach(es)")
        record("aa", {"first": summaries, "second": again})
        status = status or (1 if breaches else 0)
    else:
        record("run", {"workloads": summaries})
    print(contract_line(summaries, flatten(values(summaries), units, single)))
    return status


if __name__ == "__main__":
    sys.exit(main())
