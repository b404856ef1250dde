"""Negative controls for the benchmark's checks.

Each workload is run with one expected value shifted by 1/10^6 (C0 for
verify_all and charpoly_relabel, the diagonal of one G(a) for green_sweep).
The run must count failed items, report correct false and exit 1, which
shows that no workload's check can pass vacuously. Takes about a minute:

    python3 -m pytest -q perfbench/negative_control.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def run(*args):
    return subprocess.run([sys.executable, str(RUN), *args],
                          cwd=RUN.parent.parent, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("workload",
                         ["verify_all", "green_sweep", "charpoly_relabel"])
def test_corrupted_expectation_fails(workload):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", "1", "--corrupt")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_optimized_interpreter():
    proc = subprocess.run([sys.executable, "-O", str(RUN), "--workload",
                           "green_sweep", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
