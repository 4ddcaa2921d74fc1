"""Smoke test: every workload at its smallest size prints every named metric with its unit.

Run with ``python3 -m pytest -q bench/test_smoke.py`` from the repository
root. Each run is three set-ups, one warm-up cycle and the minimum number of
measured cycles (``--seconds 0``), except one traced run that is long enough
for several traced cycles, so that the counts are compared across runs with
different numbers of traced cycles.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("tensor.tape_entries_per_step", "tensor.matmul_calls_per_step",
          "tensor.matmul_gflop_per_step", "model.decoder_positions_per_token",
          "model.zero_grad_param_share")


def run(workload, trace, seed=7, seconds=0.0):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert result["attempted"] >= 1
    return result, lines


def check_metrics(result, lines, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float)
        printed = [line.split() for line in lines[:-1] if line.split()[:1] == [m["name"]]]
        assert printed and printed[0][-1] == m["unit"], m["name"]


def outputs_digest(lines):
    return [line for line in lines if "outputs digest" in line]


def cycles_and_warmup(lines):
    """(measured cycles, warm-up seconds) from the report's samples line."""
    found = next(re.search(r"over (\d+) cycles; warm-up ([\d.]+) s", line) for line in lines
                 if "warm-up" in line)
    return int(found.group(1)), float(found.group(2))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_repeats_exactly(workload):
    result, untraced = run(workload, trace=0)
    check_metrics(result, untraced, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    first, traced = run(workload, trace=1)
    check_metrics(first, traced, SPEC["per_layer"])
    cycles, warmup_s = cycles_and_warmup(traced)
    assert cycles == 2      # one untraced and one traced cycle
    # Long enough for at least two traced cycles; cycles alternate untraced, traced.
    second, again = run(workload, trace=1, seconds=5 * warmup_s)
    assert cycles_and_warmup(again)[0] >= 4
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    # The determinism contract across processes, with and without the tracer.
    assert outputs_digest(untraced) == outputs_digest(traced) == outputs_digest(again) != []
