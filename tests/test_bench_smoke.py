"""Smoke test of the benchmark command: it runs, and every packet meets its
predicted fate.  No speed is asserted.

The traced run patches a wrapper into every place a ``gvn`` module binds a
function the benchmark's tracer lists, so it also fails when one of those
names is renamed or moved.  The untraced ``mixed_fabric`` run covers the
path that produces its end-to-end metrics: batches, the closed loop and
the host calibration.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace",
                         [("wire_tagging", 0), ("mixed_fabric", 0), ("mixed_fabric", 1)])
def test_benchmark_runs_and_every_fate_holds(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, done.stdout
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
