import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from uppertail.errors import ValidationError
from uppertail.meanfield import (
    EdgeProbabilityMatrix,
    bernoulli_relative_entropy,
    exact_star2_variance,
    expected_star_count_inhom,
    planted_star_optimizer,
    total_cost,
    variance_ratio_estimate,
    variational_upper_bound,
)


def _random_dense(n, seed, lo=0.05, hi=0.95):
    rng = np.random.default_rng(seed)
    arr = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    arr[iu] = rng.uniform(lo, hi, size=len(iu[0]))
    return arr + arr.T


# Array oracles for the closed forms: the relative-entropy sum and the row DP
# for e_r over an explicit symmetric matrix with zero diagonal.

def dense_total_cost(arr, p):
    """Sum of entrywise relative entropies over the pairs above the diagonal."""
    x = arr[np.triu_indices(len(arr), k=1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(x > 0, x * np.log(x / p), 0.0)
        term = term + np.where(x < 1, (1 - x) * np.log((1 - x) / (1 - p)), 0.0)
    return float(np.sum(term))


def dense_star_count(arr, r):
    """Expected labelled r-star count: r! e_r of each row, by the one-pass DP."""
    n = len(arr)
    total = 0.0
    for i in range(n):
        e = [1.0] + [0.0] * r
        for value in (arr[i, j] for j in range(n) if j != i):
            for j in range(r, 0, -1):
                e[j] += e[j - 1] * value
        total += math.factorial(r) * e[r]
    return total


def test_entropy_examples():
    assert bernoulli_relative_entropy(0.3, 0.3) == 0.0
    assert bernoulli_relative_entropy(1.0, 0.3) == pytest.approx(math.log(1 / 0.3), abs=1e-15)
    want = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert bernoulli_relative_entropy(0.25, 0.5) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValidationError):
        bernoulli_relative_entropy(0.5, 0.0)
    with pytest.raises(ValidationError):
        bernoulli_relative_entropy(1.2, 0.5)


def test_entropy_nonnegative_strictly_convex():
    p = 0.23
    grid = [k / 40 for k in range(41)]
    for x in grid:
        value = bernoulli_relative_entropy(x, p)
        assert value >= 0
        assert (value == 0) == (x == p)
    for a, b in itertools.combinations(grid, 2):
        mid = bernoulli_relative_entropy((a + b) / 2, p)
        avg = (bernoulli_relative_entropy(a, p) + bernoulli_relative_entropy(b, p)) / 2
        assert mid < avg + 1e-12


def test_total_cost_examples():
    assert total_cost(EdgeProbabilityMatrix.constant(6, 0.3), 0.3) == 0.0
    one_edge = EdgeProbabilityMatrix.planted(2, 0.3, boosted=0, boosted_value=1.0)
    assert total_cost(one_edge, 0.3) == pytest.approx(math.log(1 / 0.3), abs=1e-12)
    zeros = EdgeProbabilityMatrix.constant(4, 0.0)
    assert total_cost(zeros, 0.5) == pytest.approx(6 * math.log(2), abs=1e-12)
    arr = np.full((3, 3), 0.3)
    np.fill_diagonal(arr, 0.0)
    arr[0, 1] = arr[1, 0] = 1.0
    assert dense_total_cost(arr, 0.3) == pytest.approx(math.log(1 / 0.3), abs=1e-12)
    assert dense_total_cost(np.zeros((4, 4)), 0.5) == pytest.approx(6 * math.log(2), abs=1e-12)


def test_total_cost_structured_matches_dense():
    for n, hubs, boosted_value in [(30, (), 0.4), (50, (1, 2, 3), 0.7), (200, (1,), 0.25)]:
        struct = EdgeProbabilityMatrix.planted(n, 0.1, hubs=hubs, boosted=0, boosted_value=boosted_value)
        want = dense_total_cost(struct.to_dense(), 0.1)
        assert total_cost(struct, 0.1) == pytest.approx(want, rel=1e-12)
    hubs_only = EdgeProbabilityMatrix.planted(40, 0.2, hubs=[0, 5])
    want = dense_total_cost(hubs_only.to_dense(), 0.2)
    assert total_cost(hubs_only, 0.2) == pytest.approx(want, rel=1e-12)


def test_expected_star_count_examples():
    ones = EdgeProbabilityMatrix.constant(3, 1.0)
    assert expected_star_count_inhom(ones, 2) == 6.0
    assert dense_star_count(ones.to_dense(), 2) == 6.0
    a, b = 0.7, 0.4
    arr = np.zeros((3, 3))
    arr[0, 1] = arr[1, 0] = a
    arr[0, 2] = arr[2, 0] = b
    assert dense_star_count(arr, 2) == pytest.approx(2 * a * b, abs=1e-14)


def test_expected_star_count_constant_exact():
    rng = random.Random(33)
    for _ in range(50):
        n = rng.randint(6, 500)
        r = rng.randint(2, 4)
        p = rng.uniform(0.01, 0.9)
        got = expected_star_count_inhom(EdgeProbabilityMatrix.constant(n, p), r)
        want = (p ** r) * (n * math.perm(n - 1, r))
        assert got == want  # bitwise: same closed-form expression


def test_expected_star_count_structured_matches_dp():
    struct = EdgeProbabilityMatrix.planted(60, 0.15, hubs=[1, 2], boosted=0, boosted_value=0.5)
    arr = struct.to_dense()
    for r in (2, 3, 5):
        a = expected_star_count_inhom(struct, r)
        b = dense_star_count(arr, r)
        assert a == pytest.approx(b, rel=1e-11)


def test_expected_star_count_monotone():
    # variational_upper_bound bisects on the boost, so the count must rise
    # with it.
    for hubs in ((), (1,), (1, 2)):
        for r in (2, 3):
            values = [
                expected_star_count_inhom(
                    EdgeProbabilityMatrix.planted(12, 0.2, hubs=hubs, boosted=0, boosted_value=x), r)
                for x in (0.2, 0.5, 0.9, 1.0)
            ]
            assert values == sorted(values) and len(set(values)) == len(values)


def test_planted_optimizer_fractional_regime():
    n = 10**6
    p = n**-0.7
    opt = planted_star_optimizer(n, p, 2, 1.0, 0.1)
    assert opt.hub_count == 0
    f = 0.95 * n * p**2
    assert opt.boosted_value == pytest.approx(p + math.sqrt(f), rel=1e-12)
    assert opt.meets_target


def test_planted_optimizer_integer_and_hub_cases():
    # delta (1 - eps/2) n p^r exactly integer: boost vanishes
    n = 10**4
    p = math.sqrt(2 / (0.95 * n))
    opt = planted_star_optimizer(n, p, 2, 1.0, 0.1)
    assert opt.hub_count == 2
    assert opt.boosted_value == pytest.approx(p, abs=1e-9)
    # fractional part 0.5 -> boost sqrt(0.5)
    p = math.sqrt(2.5 / (0.95 * n))
    opt = planted_star_optimizer(n, p, 2, 1.0, 0.1)
    assert opt.hub_count == 2
    assert opt.boosted_value == pytest.approx(p + math.sqrt(0.5), rel=1e-9)


def test_planted_optimizer_literal_flag_agrees_below_one():
    # Whenever delta' n p^r < 1 both readings coincide.
    n = 10**6
    p = n**-0.7
    a = planted_star_optimizer(n, p, 2, 1.0, 0.1, literal_reading=False)
    b = planted_star_optimizer(n, p, 2, 1.0, 0.1, literal_reading=True)
    assert a.boosted_value == pytest.approx(b.boosted_value, rel=1e-12)


def test_variational_bound_small_delta_vanishes():
    value_small = variational_upper_bound(2000, 0.01, 2, 1e-4).value
    value_large = variational_upper_bound(2000, 0.01, 2, 1.0).value
    assert 0 <= value_small < 1e-2 * value_large


def test_variational_bound_hub_count_case():
    # n p^2 = 2 and delta = 1.6 puts delta rho at 3.2: three hubs win.
    n = 10**4
    p = math.sqrt(2 / n)
    bound = variational_upper_bound(n, p, 2, 1.6)
    assert bound.hub_count == 3
    assert 0.3 < bound.boosted_value < 0.5  # near frac(3.2)^(1/2) ~ 0.447
    target = (1 + 1.6) * n**3 * p**2
    assert expected_star_count_inhom(bound.witness, 2) >= target * (1 - 1e-9)


def test_variational_bound_monotone_grid():
    n = 3000
    values_in_delta = [
        variational_upper_bound(n, 0.005, 2, d).value for d in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(values_in_delta, values_in_delta[1:]))
    assert all(v >= 0 for v in values_in_delta)
    # In p the value tracks the n^(1+1/r) p log n speed (so it grows with p);
    # what is monotone in p is the cost of any fixed tilt above background.
    witness = variational_upper_bound(n, 0.005, 2, 1.0).witness
    costs = [total_cost(witness, p) for p in (0.002, 0.005)]
    assert costs[1] <= costs[0]
    for p in (0.002, 0.005, 0.01):
        value = variational_upper_bound(n, p, 2, 1.0).value
        speed = n**1.5 * p * math.log(n)
        assert 0.2 < value / speed < 2.0


def test_exact_variance_against_enumeration():
    # Full enumeration over all graphs on 5 vertices with random edge probs.
    arr = _random_dense(5, 123)
    # A stand-in with what exact_star2_variance reads; a structured matrix
    # cannot hold per-pair probabilities.
    xi = SimpleNamespace(n=5, to_dense=arr.copy)
    pairs = list(zip(*np.triu_indices(5, 1)))
    e1 = e2 = 0.0
    for mask in range(1 << len(pairs)):
        prob = 1.0
        deg = [0] * 5
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                prob *= arr[u, v]
                deg[u] += 1
                deg[v] += 1
            else:
                prob *= 1 - arr[u, v]
        count = sum(d * (d - 1) for d in deg)
        e1 += prob * count
        e2 += prob * count * count
    assert dense_star_count(arr, 2) == pytest.approx(e1, rel=1e-10)
    assert exact_star2_variance(xi) == pytest.approx(e2 - e1**2, rel=1e-8)


def test_variance_ratio_all_ones_is_zero():
    ones = EdgeProbabilityMatrix.constant(10, 1.0)
    assert variance_ratio_estimate(ones, 2, 50, 3).ratio == 0.0


def test_variance_ratio_matches_exact_oracle():
    xi = EdgeProbabilityMatrix.constant(50, 0.5)
    exact = exact_star2_variance(xi) / expected_star_count_inhom(xi, 2) ** 2
    est = variance_ratio_estimate(xi, 2, 8000, 7)
    assert abs(est.ratio - exact) < 3 * est.stderr


def test_matrix_validation():
    with pytest.raises(ValidationError):
        EdgeProbabilityMatrix.planted(10, 0.1, hubs=[0], boosted=0, boosted_value=0.5)
    with pytest.raises(ValidationError):
        EdgeProbabilityMatrix.planted(10, 0.1, hubs=[10])
    with pytest.raises(ValidationError):
        EdgeProbabilityMatrix.planted(10, 0.1, boosted=0, boosted_value=1.2)
    m = EdgeProbabilityMatrix.planted(10, 0.1, hubs=[1], boosted=0, boosted_value=0.5).to_dense()
    assert m[0, 1] == m[1, 0] == 0.5  # boosted wins over hub
    assert m[1, 2] == m[2, 1] == 1.0
    assert m[2, 3] == 0.1
    assert m[4, 4] == 0.0
