import itertools
import math
import random

import numpy as np
import pytest

from uppertail.counting import count_labelled
from uppertail.errors import ValidationError
from uppertail.graphs import HostGraph, PatternGraph, biclique, clique, cycle, path, star
from uppertail.meanfield import (
    EdgeProbabilityMatrix,
    VariationalBound,
    _planted_star_count,
    bernoulli_relative_entropy,
    exact_variance,
    expected_count_inhom,
    expected_star_count_inhom,
    phi_planted_search,
    planted_star_optimizer,
    total_cost,
    variance_ratio_estimate,
    variational_upper_bound,
)
from uppertail.montecarlo import _BatchCounter
from util_dense import exact_star2_variance, to_dense


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
        want = dense_total_cost(to_dense(struct), 0.1)
        assert total_cost(struct, 0.1) == pytest.approx(want, rel=1e-12)
    hubs_only = EdgeProbabilityMatrix.planted(40, 0.2, hubs=[0, 5])
    want = dense_total_cost(to_dense(hubs_only), 0.2)
    assert total_cost(hubs_only, 0.2) == pytest.approx(want, rel=1e-12)


def test_expected_star_count_examples():
    ones = EdgeProbabilityMatrix.constant(3, 1.0)
    assert expected_star_count_inhom(ones, 2) == 6.0
    assert dense_star_count(to_dense(ones), 2) == 6.0
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
    arr = to_dense(struct)
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


def test_star_targets_that_underflow_are_refused():
    # (1 + delta) n^3 p^2 is 0.0 in floats at p = 1e-200: every planting
    # would meet it, so the bound would read 0.0.
    with pytest.raises(ValidationError, match=r"underflows to 0\.0 at n=1000000, p=1e-200"):
        variational_upper_bound(10**6, 1e-200, 2, 1.0)
    with pytest.raises(ValidationError, match=r"underflows to 0\.0 at n=1000000, p=1e-300"):
        planted_star_optimizer(10**6, 1e-300, 2, 1.0, 0.5)
    assert variational_upper_bound(10**6, 1e-100, 2, 1.0).value > 0


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


def _variational_with_matrices(n, p, r, delta, visited):
    """The former ``variational_upper_bound``, which built a planted matrix
    for every count it bisected on; ``visited`` collects each (k, x)."""
    target = (1 + delta) * n ** (r + 1) * p**r
    k_cap = min(n - 2, int(math.ceil(2 * delta * n * p**r)) + 2)
    best = None

    def build(k, x):
        return EdgeProbabilityMatrix.planted(n, p, hubs=range(1, k + 1), boosted=0, boosted_value=x)

    def stars(k, x):
        visited.append((k, x))
        return expected_star_count_inhom(build(k, x), r)

    k = 0
    while k <= n - 2:
        if stars(k, 1.0) >= target:
            if stars(k, p) >= target:
                x = p
            else:
                lo, hi = p, 1.0
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if stars(k, mid) < target:
                        lo = mid
                    else:
                        hi = mid
                x = hi
            witness = build(k, x)
            cost = total_cost(witness, p)
            if best is None or cost < best.value:
                best = VariationalBound(cost, witness, k, x)
        if k >= k_cap and best is not None:
            break
        k += 1
    return best


@pytest.mark.parametrize("n, p, r, delta", [
    (10**6, (10**6) ** -0.7, 2, 1.0),  # acceptance criterion 6
    (10**4, math.sqrt(2 / 10**4), 2, 1.6),  # three hubs
    (2000, 0.01, 2, 1e-4),
    (3000, 0.005, 2, 4.0),
    (500, 0.05, 3, 0.5),
    (200, 0.1, 4, 2.0),
    (60, 0.3, 2, 0.2),
    (12, 0.2, 5, 3.0),
    (8, 0.3, 2, 0.5),
])
def test_variational_bound_matches_matrix_counts(n, p, r, delta):
    # Bisecting on the planted family's closed form instead of a matrix per
    # step must leave every count, and so the bound, bit-for-bit the same.
    visited = []
    want = _variational_with_matrices(n, p, r, delta, visited)
    assert len(visited) > 2
    for k, x in visited:
        matrix = EdgeProbabilityMatrix.planted(n, p, hubs=range(1, k + 1), boosted=0, boosted_value=x)
        assert _planted_star_count(n, p, r, k, x) == expected_star_count_inhom(matrix, r)
    got = variational_upper_bound(n, p, r, delta)
    assert (got.value, got.hub_count, got.boosted_value) == (want.value, want.hub_count, want.boosted_value)
    assert got.witness.classes == want.witness.classes
    assert got.witness.probs.tolist() == want.witness.probs.tolist()


def test_exact_variance_against_enumeration():
    # Full enumeration over all graphs on 5 vertices with random edge probs.
    arr = _random_dense(5, 123)
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
    assert exact_star2_variance(arr) == pytest.approx(e2 - e1**2, rel=1e-8)


@pytest.mark.parametrize("pattern", [star(2), star(3), clique(3), path(4), cycle(4)],
                         ids=["star:2", "star:3", "clique:3", "path:4", "cycle:4"])
@pytest.mark.parametrize("p", [0.2, 0.5])
def test_exact_variance_equals_the_count_table(pattern, p):
    # The variance over all graphs on 6 vertices, each weighted by the
    # product over pairs of q or 1 - q, under a constant and a block matrix.
    n = 6
    counter = _BatchCounter(pattern, n)
    table = counter.table.astype(float)
    bits = (np.arange(len(table))[:, None] >> np.arange(len(counter.pair_u))) & 1
    for xi in (EdgeProbabilityMatrix.constant(n, p),
               EdgeProbabilityMatrix.planted(n, p, hubs=[1], boosted=0, boosted_value=0.7)):
        q = to_dense(xi)[counter.pair_u, counter.pair_v]
        weights = np.where(bits == 1, q, 1.0 - q).prod(axis=1)
        mean = float(weights @ table)
        want = float(weights @ (table - mean) ** 2)
        assert exact_variance(xi, pattern) == pytest.approx(want, rel=1e-13)


def test_exact_variance_equals_the_star2_oracle():
    for xi in (EdgeProbabilityMatrix.constant(50, 0.5),
               EdgeProbabilityMatrix.constant(50, 0.1),
               EdgeProbabilityMatrix.planted(40, 0.05, hubs=[1, 2], boosted=0, boosted_value=0.4),
               EdgeProbabilityMatrix.planting("hub:4:0.55", 30, 0.1)):
        want = exact_star2_variance(to_dense(xi))
        assert exact_variance(xi, star(2)) == pytest.approx(want, rel=1e-13)
    assert exact_variance(EdgeProbabilityMatrix.constant(50, 0.5), star(2)) == 2837100.0


def test_exact_variance_is_zero_when_every_probability_is_zero_or_one():
    for xi in (EdgeProbabilityMatrix.constant(7, 1.0), EdgeProbabilityMatrix.constant(7, 0.0),
               EdgeProbabilityMatrix.planted(7, 0.0, hubs=[1, 2])):
        for pattern in (star(2), star(3), clique(3), path(4), cycle(4), PatternGraph(3, [])):
            assert exact_variance(xi, pattern) == 0.0


def test_exact_variance_refuses_five_vertices():
    with pytest.raises(ValidationError, match="^pattern too large$"):
        exact_variance(EdgeProbabilityMatrix.constant(6, 0.3), path(5))


def test_variance_ratio_all_ones_is_zero():
    ones = EdgeProbabilityMatrix.constant(10, 1.0)
    assert variance_ratio_estimate(ones, 2, 50, 3).ratio == 0.0


def test_variance_ratio_matches_exact_oracle():
    xi = EdgeProbabilityMatrix.constant(50, 0.5)
    exact = exact_variance(xi, star(2)) / expected_star_count_inhom(xi, 2) ** 2
    est = variance_ratio_estimate(xi, 2, 8000, 7)
    assert abs(est.ratio - exact) < 3 * est.stderr


def test_matrix_validation():
    with pytest.raises(ValidationError):
        EdgeProbabilityMatrix.planted(10, 0.1, hubs=[0], boosted=0, boosted_value=0.5)
    with pytest.raises(ValidationError):
        EdgeProbabilityMatrix.planted(10, 0.1, hubs=[10])
    with pytest.raises(ValidationError):
        EdgeProbabilityMatrix.planted(10, 0.1, boosted=0, boosted_value=1.2)
    m = to_dense(EdgeProbabilityMatrix.planted(10, 0.1, hubs=[1], boosted=0, boosted_value=0.5))
    assert m[0, 1] == m[1, 0] == 0.5  # boosted wins over hub
    assert m[1, 2] == m[2, 1] == 1.0
    assert m[2, 3] == 0.1
    assert m[4, 4] == 0.0
    for n, classes, probs in [
        (0, (), [[0.1]]),
        (4, ([0], [0, 1]), np.full((3, 3), 0.1)),  # vertex 0 twice
        (4, ([4],), np.full((2, 2), 0.1)),
        (4, ([-1],), np.full((2, 2), 0.1)),
        (4, ([0],), np.full((3, 3), 0.1)),
        (4, ([0],), [[0.1, 0.2], [0.3, 0.1]]),
        (4, ([0],), [[0.1, math.nan], [math.nan, 0.1]]),
        (4, (), [[1.5]]),
    ]:
        with pytest.raises(ValidationError):
            EdgeProbabilityMatrix(n, classes, probs)
    with pytest.raises(ValidationError):
        EdgeProbabilityMatrix.planted(10, 0.1, boosted=0)


def _plantings(n, p):
    """Each planting kind with its dense matrix, built entry by entry."""
    def dense(rule):
        arr = np.array([[rule(u, v) if u != v else 0.0 for v in range(n)] for u in range(n)])
        return arr
    return {
        "hub:3:0.7": dense(lambda u, v: 0.7 if min(u, v) < 3 else p),
        "clique:3:0.6": dense(lambda u, v: 0.6 if max(u, v) < 3 else p),
        "highdeg:0.9": dense(lambda u, v: 0.9 if min(u, v) < 1 else p),
        "highdeg": dense(lambda u, v: 0.8 if min(u, v) < 1 else p),
        "hub:7": dense(lambda u, v: 0.8),
        "none": dense(lambda u, v: p),
    }


def test_planting_constructors_match_dense():
    n, p = 7, 0.2
    for text, want in _plantings(n, p).items():
        xi = EdgeProbabilityMatrix.planting(text, n, p)
        assert np.array_equal(to_dense(xi), want), text
        assert total_cost(xi, p) == pytest.approx(dense_total_cost(want, p), rel=1e-12, abs=1e-15)
        assert xi.expected_edges() == pytest.approx(want.sum() / 2, rel=1e-12)
        for r in (2, 3):
            assert expected_star_count_inhom(xi, r) == pytest.approx(dense_star_count(want, r), rel=1e-11)


def test_log_likelihood_ratio_matches_dense():
    # log dP/dQ summed pair by pair over seeded graphs, for P the constant
    # measure at p, against the closed form from per-probability edge counts.
    n, p = 9, 0.15
    rng = np.random.default_rng(5)
    iu = np.triu_indices(n, 1)
    for xi in (EdgeProbabilityMatrix.planting("hub:2:0.6", n, p),
               EdgeProbabilityMatrix.planting("clique:4:0.5", n, p),
               EdgeProbabilityMatrix(n, ([2, 7], [4]), [[0.5, 0.3, 0.25], [0.3, 0.6, 0.4],
                                                        [0.25, 0.4, p]]),
               EdgeProbabilityMatrix.constant(n, p)):
        q = to_dense(xi)[iu]
        present = rng.random((20, len(q))) < q
        want = np.where(present, np.log(p / q), np.log((1 - p) / (1 - q))).sum(axis=1)
        levels = [x for x, _, _ in xi.levels()]
        hits = np.array([(present & (q == x)).sum(axis=1) for x in levels])
        slope, offset = xi.log_likelihood_ratio(p)
        assert np.allclose(slope @ hits + offset, want, rtol=1e-12, atol=1e-12)
    # n = 1 has no pairs, so no levels and a ratio of 1.
    slope, offset = EdgeProbabilityMatrix.planting("highdeg", 1, p).log_likelihood_ratio(p)
    assert slope.shape == (0,) and offset == 0.0


# ---------------------------------------------------------------------------
# Expected counts of any pattern, and the planted hub-or-clique scan
# ---------------------------------------------------------------------------

def _injection_histogram(pattern, n, planted=None):
    """c_k: the injections of the pattern's vertices into n vertices that put
    k pattern edges off the ``planted`` host graph (all of them without one)."""
    edge_list = pattern.sorted_edges()
    histogram = [0] * (len(edge_list) + 1)
    for image in itertools.permutations(range(n), pattern.vertex_count):
        missing = len(edge_list)
        if planted is not None:
            missing = sum(not planted.has_edge(image[x], image[y]) for x, y in edge_list)
        histogram[missing] += 1
    return histogram


def injection_walk(pattern, n, p, planted=None):
    """The expected labelled count with ``planted`` present and every other
    pair at p, as sum_k c_k p^k over all n!/(n-v)! injections: the oracle for
    ``expected_count_inhom`` under 0/1 plantings."""
    histogram = _injection_histogram(pattern, n, planted)
    return float(sum(cnt * p**k for k, cnt in enumerate(histogram) if cnt))


def _hub_host(n, m):
    return HostGraph(n, [(i, j) for i in range(m) for j in range(m, n)])


def _clique_host(n, m):
    return HostGraph(n, itertools.combinations(range(m), 2))


def _planting(family, n, m, p):
    """The block matrix of the hub K_{m,n-m} or clique K_m on the first m
    vertices at 1, every other pair at p."""
    probs = [[p, 1.0], [1.0, p]] if family == "hub" else [[1.0, p], [p, p]]
    return EdgeProbabilityMatrix(n, [range(m)], probs)


GRID_PATTERNS = {"P3": path(3), "P4": path(4), "K12": star(2), "K13": star(3), "K3": clique(3),
                 "C4": cycle(4), "K23": biclique(2, 3)}


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("name", sorted(GRID_PATTERNS))
def test_expected_count_inhom_equals_the_injection_walk(name, n):
    # Bit-for-bit: the class sum adds the same terms c_k p^k in the same order.
    pattern = GRID_PATTERNS[name]
    plantings = [("hub", m, _hub_host(n, m)) for m in range(1, n)]
    plantings += [("clique", m, _clique_host(n, m)) for m in range(2, n + 1)]
    for family, m, host in [("constant", 0, None)] + plantings:
        histogram = _injection_histogram(pattern, n, host)
        for p in (0.1, 0.3, 0.6):
            want = float(sum(cnt * p**k for k, cnt in enumerate(histogram) if cnt))
            xi = EdgeProbabilityMatrix.constant(n, p) if host is None else _planting(family, n, m, p)
            assert expected_count_inhom(xi, pattern) == want, (family, m, p)


def test_expected_count_inhom_examples():
    edge = PatternGraph(2, [(0, 1)])
    p = 0.37
    assert expected_count_inhom(EdgeProbabilityMatrix.constant(3, p), edge) == pytest.approx(6 * p, abs=1e-12)
    # a planted edge {0, 1} is a clique class of two at 1
    planted = EdgeProbabilityMatrix(3, [range(2)], [[1.0, p], [p, p]])
    assert expected_count_inhom(planted, edge) == pytest.approx(2 + 4 * p, abs=1e-12)
    # p = 1 recovers the complete-graph count
    for pattern in (clique(3), path(3)):
        full = count_labelled(pattern, HostGraph.complete(5))
        assert expected_count_inhom(EdgeProbabilityMatrix.constant(5, 1.0), pattern) == full
    # more vertices than n: no injection
    assert expected_count_inhom(EdgeProbabilityMatrix.constant(3, p), path(4)) == 0.0
    # the class sum does not walk the n!/(n-v)! injections
    n = 10**6
    assert expected_count_inhom(EdgeProbabilityMatrix.constant(n, p), path(4)) == math.perm(n, 4) * p**3
    with pytest.raises(ValidationError, match="pattern too large"):
        expected_count_inhom(EdgeProbabilityMatrix.constant(20, p), star(12))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_expected_count_inhom_matches_the_star_closed_form(r):
    n, p = 30, 0.15
    matrices = [EdgeProbabilityMatrix.planted(n, p, hubs=hubs, boosted=boosted, boosted_value=x)
                for hubs in ((), (1,), (1, 2, 3)) for boosted, x in ((None, None), (0, 0.55))]
    matrices += [EdgeProbabilityMatrix.planting(f"hub:{k}:{q}", n, p)
                 for k in (1, 2, 5) for q in (0.15, 0.4, 0.9)]
    for xi in matrices:
        want = expected_star_count_inhom(xi, r)
        assert expected_count_inhom(xi, star(r)) == pytest.approx(want, rel=1e-12, abs=0)


def test_phi_planted_search():
    res = phi_planted_search(star(2), 20, 0.3, 1.0)
    assert res.family == "hub"
    assert res.value == pytest.approx(res.size * (20 - res.size) * math.log(1 / 0.3))
    assert res.value == total_cost(res.witness, 0.3)
    # the witness satisfies the constraint, by the injection walk too
    base = injection_walk(star(2), 20, 0.3)
    assert injection_walk(star(2), 20, 0.3, _hub_host(20, res.size)) >= 2.0 * base
    assert expected_count_inhom(res.witness, star(2)) >= 2.0 * base

    res0 = phi_planted_search(star(2), 10, 0.3, 0.0)
    assert (res0.value, res0.family, res0.size) == (0.0, "empty", 0)
    assert res0.witness.expected_edges() == pytest.approx(45 * 0.3)

    res3 = phi_planted_search(clique(3), 12, 0.4, 2.0)
    assert res3.family in ("hub", "clique")
    host = (_hub_host if res3.family == "hub" else _clique_host)(12, res3.size)
    assert injection_walk(clique(3), 12, 0.4, host) >= 3.0 * injection_walk(clique(3), 12, 0.4)

    # n = 160 was over the injection walk's budget: perm(160, 4) = 6.3e8
    n = 160
    res4 = phi_planted_search(path(4), n, n**-0.7, 1.0)
    assert res4.family in ("hub", "clique") and res4.value > 0
    base4 = expected_count_inhom(EdgeProbabilityMatrix.constant(n, n**-0.7), path(4))
    assert expected_count_inhom(res4.witness, path(4)) >= 2.0 * base4


def test_expected_count_inhom_monte_carlo_crosscheck():
    from uppertail.montecarlo import sample_gnp

    n, p = 8, 0.3
    planted = HostGraph(n, [(0, 1), (1, 2), (0, 2)])
    # a planted triangle {0, 1, 2} is a clique class of three at 1
    want = expected_count_inhom(_planting("clique", n, 3, p), clique(3))
    values = []
    for s in range(1500):
        fresh = sample_gnp(n, p, 9000 + s)
        merged = HostGraph(n, list(set(fresh.edges()) | set(planted.edges())))
        values.append(count_labelled(clique(3), merged))
    arr = np.array(values, dtype=float)
    sem = arr.std(ddof=1) / math.sqrt(len(arr))
    assert abs(arr.mean() - want) < 4 * sem


def test_phi_planted_search_refuses_bad_inputs():
    for p in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError, match=r"p must lie in \(0, 1\)"):
            phi_planted_search(star(2), 10, p, 1.0)
    with pytest.raises(ValidationError, match=r"delta must lie in \[0, inf\), got -0.1"):
        phi_planted_search(star(2), 10, 0.3, -0.1)
