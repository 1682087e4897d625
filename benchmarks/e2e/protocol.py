"""The measurement protocol: repetitions, worker processes, summaries.

``run.py`` is the command line and the report; this module is what both
it and ``tracer.py`` drive. See README.md for why the protocol is what it
is (interleaved repetitions, a fresh pinned worker per repetition,
calibration inside the run, medians over five repetitions).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import host
import oracle
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "e2e"

REPETITIONS = 5
SMOKE_REPETITIONS = 2
SMOKE_SCALE = 0.05
#: Hard limit on one repetition and on one invocation at the default
#: --seconds; both stretch with --seconds. A repetition that hits its
#: limit reports the ops it never sent as failed.
REPETITION_TIMEOUT = 28.0
INVOCATION_BUDGET = 160.0


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One repetition = one worker process
# ----------------------------------------------------------------------


def run_worker(spec_path: pathlib.Path, out_path: pathlib.Path, scratch, timeout: float) -> dict:
    """Start worker.py in its own process group, wait, read its result.
    Whatever happens the whole group (worker and its daemon) is gone
    when this returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--spec", str(spec_path),
            "--out", str(out_path),
            "--tmp", str(scratch),
            "--timeout", f"{timeout:.3f}",
        ],
        env=env,
        stdin=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        # The worker enforces `timeout` itself; the slack covers teardown
        # (daemon drain) and a worker that cannot enforce anything.
        process.wait(timeout=timeout + 15.0)
    except subprocess.TimeoutExpired:
        pass
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if not out_path.is_file():
        return {"setup_failed": f"worker exited {process.returncode} without a result"}
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------


def prepare(name: str, seed: int, scale: float, scratch: pathlib.Path):
    """Generate a workload's inputs, run the oracle, write the spec."""
    started = time.perf_counter()
    workload = workloads.build(name, seed, scale)
    generated = time.perf_counter()
    workload.spec["expected"] = oracle.expected_results(workload.spec, workload.documents)
    checked = time.perf_counter()
    path = scratch / f"spec-{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workload.spec, handle)
    timing = {"generate_s": generated - started, "oracle_s": checked - generated}
    return workload, path, timing


def run_protocol(names: list, seed: int, scale: float, repetitions: int, budget: float) -> dict:
    """The untraced run: ``{workload: summary}``."""
    contract = load_contract()
    metrics = contract["end_to_end"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    give_up = time.monotonic() + budget
    try:
        prepared = {name: prepare(name, seed, scale, scratch) for name in names}
        raw: dict = {name: [] for name in names}
        # Round-robin: hot1 cold1 batch1 ingest1 hot2 ... so every
        # workload samples the same stretch of machine states.
        schedule = [(rep, name) for rep in range(repetitions) for name in names]
        for position, (rep, name) in enumerate(schedule):
            left = len(schedule) - position
            timeout = min(
                REPETITION_TIMEOUT * max(1.0, scale),
                max(1.0, (give_up - time.monotonic()) / left),
            )
            result = run_worker(
                prepared[name][1], scratch / f"out-{name}-{rep}.json", scratch, timeout
            )
            raw[name].append(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    measured = [r for results in raw.values() for r in results if "calib_ms" in r]
    flags = host.flag_disturbed([result["calib_ms"] for result in measured])
    for result, flag in zip(measured, flags):
        result["disturbed"] = flag
    return {
        name: summarize(
            name, raw[name], len(prepared[name][0].spec["ops"]), prepared[name][2], metrics
        )
        for name in names
    }


def summarize(workload: str, results: list, ops: int, timing: dict, metrics: list) -> dict:
    """Medians and quartiles over a workload's repetitions, its failure
    count and its determinism verdict."""
    good = [result for result in results if "setup_failed" not in result]
    summary: dict = {
        "workload": workload,
        "repetitions": len(results),
        "ops_per_repetition": ops,
        "attempted": ops * len(results),
        # A repetition that never reached the measured phase failed all
        # of its ops.
        "failed": sum(result["failed"] for result in good) + ops * (len(results) - len(good)),
        "setup_failures": [r["setup_failed"] for r in results if "setup_failed" in r],
        "timed_out": sum(1 for result in good if result["timed_out"]),
        "disturbed": sum(1 for result in good if result["disturbed"]),
        # Worker and daemon share one CPU, so a phase cannot use more CPU
        # than it lasted; three 10 ms ticks of the /proc clock are allowed.
        "cpu_over_wall": sum(1 for r in good if r["cpu_s"] > r["wall_s"] + 0.03),
        "calib_ms": [result["calib_ms"] for result in good],
        "prepare": timing,
        "metrics": {},
        "per_repetition": [
            {
                key: result.get(key)
                for key in ("wall_s", "cpu_s", "stopwatch", "errors", "info", "disturbed")
            }
            for result in good
        ],
    }
    for metric in metrics:
        name = metric["name"]
        values = [result[name] for result in good]
        entry = {"unit": metric["unit"], "values": values}
        if values:
            entry["value"] = statistics.median(values)
        if values and name in good[0]["stopwatch"]:
            # The same metric before normalisation to reference host speed.
            entry["stopwatch"] = statistics.median(r["stopwatch"][name] for r in good)
        if len(values) >= 2:
            entry["quartiles"] = statistics.quantiles(values, n=4)
        summary["metrics"][name] = entry
    # Over every op of every repetition, not a median: one repetition that
    # failed ops must show.
    summary["metrics"]["ok_share"]["value"] = 1.0 - summary["failed"] / summary["attempted"]
    exact = [result["deterministic"] for result in good]
    summary["deterministic"] = exact[0] if exact else {}
    summary["deterministic_ok"] = all(block == exact[0] for block in exact[1:])
    if not summary["deterministic_ok"]:
        summary["deterministic_all"] = exact
    return summary


