"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit
for each workload, in both modes, that a corrupted oracle value makes the
gate fail, so the checks are live, and that the speed probe samples while it
runs and normalises by the probes around and inside a stretch.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import Benchmark  # noqa: E402
from speed import PROBE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.01", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


# One oracle value per workload, and how to corrupt it.
CORRUPT = {
    "poisson_fit": lambda plan: plan["oracle"].update(mean=plan["oracle"]["mean"] + 1.0),
    "tail_estimators": lambda plan: plan.update(rare_exact=plan["rare_exact"] * 2),
    "host_count": lambda plan: plan["counts"].update({"clique:3": plan["counts"]["clique:3"] + 6}),
    "core_prune": lambda plan: plan["star"][0]["removed"].pop(),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_oracle_fails(workload):
    bench = Benchmark(workload, 7, "tiny")
    try:
        bench.prepare(repeats=1)
        CORRUPT[workload](bench.plan)
        plain = bench.measure(0.01, trace=False)["result"]
        traced = bench.measure(0.01, trace=True)["result"]
    finally:
        bench.cleanup()
    assert plain["failed"] > 0 and plain["correct"] is False
    assert traced["metrics"]["fail_ratio"]["value"] > 0


def test_speed_probe_normalises():
    probe = SpeedProbe()
    probe.durations = [0.002, 0.001, 0.003]  # before, one inside, after
    net, norm = probe.normalise(0.011, 0, (1, 2))
    assert net == pytest.approx(0.010)
    assert norm == pytest.approx(0.010 / 0.002 * PROBE_S)


def test_speed_probe_samples_while_running():
    probe = SpeedProbe()
    with probe.running():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.durations) >= 3
    assert all(d > 0 for d in probe.durations)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
