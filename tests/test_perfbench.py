"""The benchmark's traced smoke runs of all four workloads pass their output and tracing checks.

A traced run alternates traced and untraced passes and checks, besides the
artifacts, that no pass crashes under the span tracer and that the time
outside the layer spans stays within the tracing overhead plus 1 ms
(``trace.self_times_sum``).  A change to what the package allocates can move
a garbage collection into a pass and fail that check.  The tracer's counter
hooks only count their own errors, so the ``plan`` and ``simulate`` runs also
assert that the counters read from their outputs came out positive.  The
``rate`` run asserts none: its solver counters hook ``solve_rate``, which the
batched profile does not call, and read 0.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COUNTERS = {
    "exact": (),
    "plan": ("lowerbound.schedule_rows", "lowerbound.quad_nodes"),
    "rate": (),
    "simulate": ("chains.ns_per_batch_path_step", "chains.export_path_csv.bytes"),
}


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_traced_smoke_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--smoke",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
    for name in COUNTERS[workload]:
        assert result["metrics"][name]["value"] > 0, name
