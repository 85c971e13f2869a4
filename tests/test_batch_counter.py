"""The batched sample-and-count engine of the Monte Carlo estimators.

``_BatchCounter`` replaced several per-sample counting loops; those loops are
kept here as the reference oracle, and the engine must agree with them row
for row.  Estimator outputs are pinned to the values the per-sample loops
produced, and a large-n CLI run must stay within a fixed memory ceiling.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uppertail.counting import count_labelled
from uppertail.graphs import HostGraph, clique, pattern_from_shorthand, star, star_arms
from uppertail.meanfield import EdgeProbabilityMatrix
from uppertail.montecarlo import (
    HighDegreeDetector,
    Planting,
    _BatchCounter,
    _pair_arrays,
    conditioned_structure_frequency,
    estimate_tail_direct,
    estimate_tail_importance,
    poisson_fit_experiment,
    star_count_samples,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Reference oracle: the per-sample counters the engine replaced
# ---------------------------------------------------------------------------

def oracle_degrees(n, present):
    pair_u, pair_v = _pair_arrays(n)
    return np.array(
        [np.bincount(pair_u[row], minlength=n) + np.bincount(pair_v[row], minlength=n)
         for row in present],
        dtype=np.int64,
    )


def oracle_counts(pattern, n, present):
    """Labelled counts per row: degree falling factorials for stars, Python
    bitset rows for triangles, and the generic counter otherwise."""
    pair_u, pair_v = _pair_arrays(n)
    r = star_arms(pattern)
    triangle = pattern.vertex_count == 3 and pattern.edge_count == 3
    out = []
    for row in present:
        edge_u, edge_v = pair_u[row], pair_v[row]
        if r is not None:
            deg = np.bincount(edge_u, minlength=n) + np.bincount(edge_v, minlength=n)
            value = np.ones(n, dtype=np.int64)
            for i in range(r):
                value *= deg - i
            out.append(int(value.sum()))
        elif triangle:
            us, vs = edge_u.tolist(), edge_v.tolist()
            rows = [0] * n
            for a, b in zip(us, vs):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
            unlabelled = sum((rows[a] & rows[b]).bit_count() for a, b in zip(us, vs)) // 3
            out.append(6 * unlabelled)
        else:
            out.append(count_labelled(pattern, HostGraph(n, zip(edge_u.tolist(), edge_v.tolist()))))
    return np.array(out, dtype=np.int64)


def _batches(n, seed):
    """Seeded indicator batches: constant p and one planted matrix."""
    rng = np.random.default_rng(seed)
    pair_u, pair_v = _pair_arrays(n)
    planted = EdgeProbabilityMatrix.planted(n, 0.15, hubs=[1], boosted=0, boosted_value=0.7)
    probs = planted.to_dense()[pair_u, pair_v]
    rows = 40 if n < 40 else 12
    return [rng.random((rows, len(pair_u))) < p for p in (0.3, 0.1, probs)]


@pytest.mark.parametrize("n", [5, 12, 40])
@pytest.mark.parametrize("spec", ["star:2", "star:3", "path:4", "cycle:4", "clique:3"])
def test_counts_and_degrees_match_oracle(spec, n):
    pattern = pattern_from_shorthand(spec)
    counter = _BatchCounter(pattern, n)
    assert (counter.masks is not None) == (n <= 6)
    for present in _batches(n, 1000 * n + len(spec)):
        assert np.array_equal(counter.degrees(present), oracle_degrees(n, present))
        assert np.array_equal(counter.counts(present), oracle_counts(pattern, n, present))
        degrees = counter.degrees(present)
        assert np.array_equal(counter.counts(present, degrees), counter.counts(present))


def test_batch_rows_rule():
    assert _BatchCounter(star(2), 40).rows == 4096
    assert _BatchCounter(star(2), 63).rows == 4096  # 1953 pairs
    assert _BatchCounter(star(2), 64).rows == 8_000_000 // 2016
    assert _BatchCounter(star(2), 2000).rows == 4


def test_draws_do_not_depend_on_batching():
    counter = _BatchCounter(star(2), 12)
    whole = np.random.Generator(np.random.Philox(7)).random((10, 66)) < 0.3
    counter.rows = 3
    parts = list(counter.draws(np.random.Generator(np.random.Philox(7)), 0.3, 10))
    assert [len(part) for part in parts] == [3, 3, 3, 1]
    assert np.array_equal(np.concatenate(parts), whole)


def test_pinned_estimator_outputs():
    est = estimate_tail_direct(star(2), 40, 0.05, 321, 20000, 0)
    assert (est.point, est.extras["accepted"]) == (0.0032, 64)
    assert estimate_tail_direct(clique(3), 12, 0.3, 60, 3000, 3).extras["accepted"] == 479
    est = estimate_tail_importance(star(2), 6, 0.2, 50, Planting.parse("hub:4:0.55"), 20000, 5)
    assert est.point == 1.0002412953494018e-04
    assert est.extras["effective_samples"] == 137.76032301680013
    out = conditioned_structure_frequency(
        star(2), 40, 0.05, 1.0, HighDegreeDetector(8), 160000, 0, min_accepted=160000
    )
    assert (out.accepted, out.freq_conditioned, out.freq_unconditioned) == (445, 0.4, 0.02336875)
    counts = star_count_samples(EdgeProbabilityMatrix.constant(30, 0.3), 2, 4000, 5)
    assert int(counts.sum()) == 8_787_372
    fit = poisson_fit_experiment(clique(3), 200, 18 ** (1 / 3) / 200, 10000, 0)
    assert (fit.mean, fit.tv_distance) == (2.9369, 0.03223753484726789)


def test_large_n_tail_memory():
    # A whole-budget batch at n = 2000 would hold 64 x 1,999,000 uniforms
    # (about 1 GB); batches sized by the pair count stay far below that.
    argv = ["tail", "--pattern", "star:2", "--n", "2000", "--p", "0.001", "--delta", "1",
            "--samples", "64", "--replicas", "1", "--threads", "1"]
    env = {k: v for k, v in os.environ.items() if k != "UPPERTAIL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "uppertail.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    _, status, usage = os.wait4(child.pid, 0)  # this child's own peak RSS
    child.returncode = os.waitstatus_to_exitcode(status)
    out, err = (stream.decode() for stream in child.communicate())
    assert child.returncode == 0, err
    assert json.loads(out)["result"]["samples"] == 64
    peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    assert peak_mb < 400, peak_mb
