"""Smoke test of the end-to-end benchmark (about a minute; not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs ``run.py --smoke`` untraced and traced and checks the output against
``BENCHMARK.json``: every workload and every metric it names is printed
with its unit, names are well-formed, every op was answered correctly.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(*flags: str) -> tuple:
    """``(printed, result)``: ``{"workload/metric": (value, unit)}`` from
    the report lines and the JSON object on the last line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7", *flags],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            label, value, unit = line.split()[:3]
            printed[label] = (float(value), unit)
    return printed, json.loads(lines[-1])


def test_names_are_well_formed():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in CONTRACT[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("flags, key", [((), "end_to_end"), (("--traced",), "per_layer")])
def test_every_metric_of_every_workload_is_printed(flags, key):
    printed, result = smoke(*flags)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for workload in CONTRACT["workloads"]:
        for metric in CONTRACT[key]:
            label = f"{workload['name']}/{metric['name']}"
            assert label in printed, f"{label} not printed"
            assert printed[label][1] == metric["unit"], label
            assert result["metrics"][label]["unit"] == metric["unit"]
        assert printed[f"{workload['name']}/ok_share"][0] == 1.0
