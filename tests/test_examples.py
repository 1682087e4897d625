"""Every script under ``examples/`` runs to completion against the tree."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_runs(script, tmp_path):
    source = os.path.dirname(os.path.dirname(repro.__file__))
    # TMPDIR keeps what an example writes (document_store_service.py
    # makes a store in a fresh temporary directory) inside tmp_path.
    completed = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": source, "TMPDIR": str(tmp_path)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
