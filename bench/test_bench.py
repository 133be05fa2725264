"""The benchmark's own test: exact work counts repeat across two runs.

Run from the repository root: python3 -m pytest -q bench/test_bench.py

Each run is a separate traced process on the same seed; every count the
tracer derives from call arguments and return values (triads, steps,
column-steps, calls, Hoelder pairs, objective evaluations, artifact bytes)
must agree exactly, op by op.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tail-r3", "gram-r4", "control-r8", "quadvar-c")


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    record = json.loads(
        (ROOT / ".bench_results" / f"{workload}-seed{seed}-trace1.json").read_text())
    return record["op_counts"], record["artifact_bytes"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    counts_a, bytes_a = traced_counts(workload, seed=5)
    counts_b, bytes_b = traced_counts(workload, seed=5)
    n = min(len(counts_a), len(counts_b))
    assert n >= 1
    assert counts_a[:n] == counts_b[:n]
    assert bytes_a[:n] == bytes_b[:n]
    assert any(agg.get("calls") for agg in counts_a[0].values())
