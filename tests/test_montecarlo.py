import itertools
import math

import numpy as np
import pytest

from uppertail.errors import ResourceBudgetError, ValidationError
from uppertail.graphs import HostGraph, PatternGraph, clique, star
from uppertail.counting import count_labelled
from uppertail.meanfield import EdgeProbabilityMatrix, expected_star_count_inhom
from uppertail import montecarlo
from uppertail.montecarlo import (
    _chunk_sizes,
    _map_replicas,
    _replica_rng,
    ConditionedFrequencies,
    conditioned_structure_frequency,
    count_samples,
    estimate_tail_direct,
    estimate_tail_importance,
    exact_tail,
    poisson_fit_experiment,
    sample_gnp,
    sample_inhom,
    threshold_for,
)

EDGE = PatternGraph(2, [(0, 1)])


def test_sample_gnp_boundaries():
    assert sample_gnp(20, 0.0, 1).edge_count == 0
    assert sample_gnp(20, 1.0, 1).edge_count == 190


def test_sample_gnp_edge_count_moments():
    g = sample_gnp(10**4, 0.01, 7)
    mean = (10**4 * (10**4 - 1) // 2) * 0.01
    sd = math.sqrt(mean * 0.99)
    assert abs(g.edge_count - mean) < 4 * sd
    # deterministic given the seed
    assert set(sample_gnp(10**4, 0.01, 7).edges()) == set(g.edges())


def test_sample_gnp_small_sanity():
    g = sample_gnp(50, 0.2, 3)
    assert g.vertex_count == 50
    assert sum(g.degrees()) == 2 * g.edge_count


def test_sample_inhom():
    assert sample_inhom(EdgeProbabilityMatrix.constant(12, 1.0), 3).edge_count == 66
    assert sample_inhom(EdgeProbabilityMatrix.constant(12, 0.0), 3).edge_count == 0
    planted = EdgeProbabilityMatrix.planted(40, 0.1, hubs=[1, 2], boosted=0, boosted_value=1.0)
    g = sample_inhom(planted, 5)
    assert g.degree(0) == 39
    for hub in (1, 2):
        assert all(g.has_edge(hub, v) for v in range(3, 40))


def test_exact_tail_examples():
    assert exact_tail(clique(3), 3, 0.5, 6).point == 0.125
    for p in (0.1, 0.5, 0.9):
        want = 1 - (1 - p) ** 3 - 3 * p * (1 - p) ** 2
        assert exact_tail(star(2), 3, p, 2).point == pytest.approx(want, abs=1e-12)
    assert exact_tail(EDGE, 2, 0.3, 2).point == pytest.approx(0.3, abs=1e-15)


def test_exact_tail_boundaries():
    assert exact_tail(clique(3), 4, 0.5, 0).point == 1.0
    top = count_labelled(clique(3), HostGraph.complete(4))
    assert exact_tail(clique(3), 4, 0.5, top + 1).point == 0.0
    assert exact_tail(clique(3), 4, 0.0, 1).point == 0.0
    assert exact_tail(clique(3), 4, 1.0, top).point == 1.0
    with pytest.raises(ValidationError):
        exact_tail(clique(3), 7, 0.5, 1)


@pytest.mark.parametrize("pattern", [clique(3), star(2)], ids=["clique:3", "star:2"])
def test_exact_tail_is_one_when_every_graph_meets_the_threshold(pattern):
    # The float sum of the 2^15 weights at n = 6 misses 1 (0.9999999999999993).
    smallest = int(montecarlo._BatchCounter(pattern, 6).table.min())
    for p in (0.05, 0.3, 0.5):
        for threshold in (0, -5, smallest):
            assert exact_tail(pattern, 6, p, threshold).point == 1.0


def test_direct_estimator_matches_exact():
    est = estimate_tail_direct(clique(3), 3, 0.5, 6, 200_000, 42)
    assert abs(est.point - 0.125) < 3 * est.stderr
    est = estimate_tail_direct(EDGE, 2, 0.3, 2, 200_000, 42)
    assert abs(est.point - 0.3) < 3 * est.stderr


def test_direct_estimator_trivial_threshold():
    est = estimate_tail_direct(clique(3), 5, 0.2, 0, 1000, 1)
    assert est.point == 1.0 and est.stderr == 0.0


def test_direct_estimator_deterministic_and_thread_independent():
    a = estimate_tail_direct(clique(3), 3, 0.5, 6, 100_000, 42)
    b = estimate_tail_direct(clique(3), 3, 0.5, 6, 100_000, 42)
    assert a == b


def test_importance_reduces_to_direct_with_no_planting():
    none = EdgeProbabilityMatrix.planting("none", 3, 0.5)
    est = estimate_tail_importance(clique(3), 3, 0.5, 6, none, 150_000, 13)
    assert abs(est.point - 0.125) < 3 * est.stderr
    assert est.extras["mean_weight"] == pytest.approx(1.0, abs=1e-12)
    # Both estimators read the one constant stream and every weight is
    # exactly 1, so the point and the accept count agree exactly: on the
    # count table, degree and bit-row paths.  The standard errors come from
    # p(1 - p) and s2/N - p^2, which may differ in the last bit.
    for pattern, n, p, threshold, samples, seed in [(clique(3), 3, 0.5, 6, 150_000, 13),
                                                    (star(2), 40, 0.05, 321, 20_000, 0),
                                                    (clique(3), 12, 0.3, 60, 3000, 3)]:
        none = EdgeProbabilityMatrix.planting("none", n, p)
        est = estimate_tail_importance(pattern, n, p, threshold, none, samples, seed)
        direct = estimate_tail_direct(pattern, n, p, threshold, samples, seed)
        assert est.point == direct.point and est.extras["accepted"] == direct.extras["accepted"]
        assert est.stderr == pytest.approx(direct.stderr, rel=1e-15)


def test_importance_mean_weight_is_one():
    hub = EdgeProbabilityMatrix.planting("hub:1:0.6", 6, 0.2)
    est = estimate_tail_importance(star(2), 6, 0.2, 0, hub, 40_000, 11)
    # threshold 0: the indicator is identically one and the estimator must
    # average the weights to 1 within noise
    assert abs(est.point - 1.0) < 3 * est.stderr + 1e-12


def test_importance_unbiased_near_exact():
    exact = exact_tail(star(2), 6, 0.2, 50).point
    hub = EdgeProbabilityMatrix.planting("hub:4:0.55", 6, 0.2)
    est = estimate_tail_importance(star(2), 6, 0.2, 50, hub, 100_000, 2024)
    assert abs(est.point - exact) < 3 * est.stderr


def test_importance_validation():
    for text in ("hub:1:1.0", "hub:1:0.1", "wedge:2", "hub", "hub:0", "clique:2:x", "hub:5"):
        with pytest.raises(ValidationError):
            EdgeProbabilityMatrix.planting(text, 4, 0.3)
    # A proposal built by hand must fit n and keep every probability in (0, 1).
    hub = EdgeProbabilityMatrix.planting("hub:1:0.5", 4, 0.3)
    with pytest.raises(ValidationError):
        estimate_tail_importance(EDGE, 5, 0.3, 1, hub, 100, 1)
    with pytest.raises(ValidationError):
        estimate_tail_importance(EDGE, 4, 0.3, 1, EdgeProbabilityMatrix.planted(4, 0.3, hubs=[0]), 100, 1)


def test_threshold_for():
    assert threshold_for(3.0, star(2), 40, 0.05) == math.ceil(4 * 40**3 * 0.05**2)
    assert threshold_for(0.0, EDGE, 10, 0.5) == math.ceil(100 * 0.5)
    # A product beyond the float range is refused, whether delta or n^v
    # takes it there.
    for delta, n in [(1e308, 40), (1.0, 10**200), (1e308, 10**200)]:
        with pytest.raises(ValidationError, match="delta"):
            threshold_for(delta, star(2), n, 0.05)


def test_chunk_sizes_cap_replicas_at_the_samples():
    assert _chunk_sizes(5, 10**11) == [1, 1, 1, 1, 1]
    assert _chunk_sizes(10, 4) == [3, 3, 2, 2]
    assert _chunk_sizes(3, 3) == [1, 1, 1]


def test_replicas_run_in_order_and_only_when_taken():
    work = lambda rng, m: (int(rng.integers(2**62)), m)  # noqa: E731
    for samples, replicas in [(7, 3), (6, 6), (9, 9), (5, 1), (2, 10)]:
        # Each chunk runs on its own replica stream, in replica order.
        want = [(int(_replica_rng(11, i).integers(2**62)), m)
                for i, m in enumerate(_chunk_sizes(samples, replicas))]
        assert list(_map_replicas(work, samples, replicas, 11)) == want
    # A replica is drawn only as its result is taken: a caller that stops
    # after the first result never starts replica 1.
    started = []
    results = _map_replicas(lambda rng, m: started.append(m), 10, 4, 11)
    next(results)
    results.close()
    assert started == [3]


def test_star_count_samples_against_expectation():
    xi = EdgeProbabilityMatrix.constant(30, 0.3)
    counts = count_samples(star(2), xi, 4000, 5)
    expected = expected_star_count_inhom(xi, 2)
    sd = counts.std(ddof=1)
    assert abs(counts.mean() - expected) < 4 * sd / math.sqrt(len(counts))
    # deterministic
    again = count_samples(star(2), xi, 4000, 5)
    assert np.array_equal(counts, again)


def test_conditioned_structure_trivial_cases():
    # threshold 0: every sample is accepted, frequencies coincide
    out = conditioned_structure_frequency(
        star(2), 15, 0.2, 0.0, 4, 4000, 3, min_accepted=100, threshold=0
    )
    assert out.accepted == out.samples
    assert out.freq_conditioned == out.freq_unconditioned
    # detector that is always true
    out = conditioned_structure_frequency(
        star(2), 15, 0.2, 0.5, 0, 20_000, 3, min_accepted=50
    )
    assert out.freq_conditioned == 1.0


def test_conditioned_structure_directional():
    out = conditioned_structure_frequency(
        star(2), 40, 0.05, 1.0, 8, 400_000, 17, min_accepted=300
    )
    assert out.accepted >= 300
    assert out.freq_conditioned > out.freq_unconditioned


def test_conditioned_frequencies_do_not_depend_on_threads():
    # The criterion-9 point: the first replica covers the pilot and brings
    # the accepts past min_accepted, so every run stops there.
    n, p, delta = 40, 0.02, 0.5
    runs = [conditioned_structure_frequency(star(2), n, p, delta, delta ** 0.5 * n**1.5 * p,
                                            2_000_000, 2718)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0] == ConditionedFrequencies(freq_conditioned=0.8076498712762045,
                                             freq_unconditioned=0.248192, accepted=8157,
                                             samples=62_500, acceptance=0.130512)


def test_conditioned_structure_rarity_guard():
    with pytest.raises(ResourceBudgetError):
        conditioned_structure_frequency(
            star(2), 40, 0.05, 3.0, 8, 200_000, 17, pilot=30_000
        )


def test_poisson_fit_guards():
    with pytest.raises(ValidationError):
        poisson_fit_experiment(clique(3), 30, 0.5, 1000, 1)  # mean far above window
    tri_pendant = PatternGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    with pytest.raises(ValidationError):
        poisson_fit_experiment(tri_pendant, 100, 0.01, 1000, 1)  # not strictly balanced
    assert poisson_fit_experiment(clique(3), 30, 0.0, 1000, 1).tv_distance == 0.0


def test_poisson_fit_small_run():
    n = 60
    p = (18) ** (1 / 3) / n  # mean ~ 3 triangles
    fit = poisson_fit_experiment(clique(3), n, p, 4000, 9)
    assert abs(fit.mean - 3.0) < 0.5
    assert fit.tv_distance < 0.15


def test_importance_unbiased_over_30_runs():
    exact = exact_tail(clique(3), 4, 0.3, 6).point
    points = [
        estimate_tail_importance(
            clique(3), 4, 0.3, 6, EdgeProbabilityMatrix.planting("clique:4:0.6", 4, 0.3), 20_000, 100 + k
        ).point
        for k in range(30)
    ]
    mean = sum(points) / len(points)
    spread = math.sqrt(sum((x - mean) ** 2 for x in points) / (len(points) - 1))
    sem = spread / math.sqrt(len(points))
    assert abs(mean - exact) < 3 * sem


def test_importance_thread_count_independent():
    planting = EdgeProbabilityMatrix.planting("hub:2:0.5", 6, 0.2)
    a = estimate_tail_importance(star(2), 6, 0.2, 30, planting, 50_000, 31)
    b = estimate_tail_importance(star(2), 6, 0.2, 30, planting, 50_000, 31)
    assert a == b


def test_exact_tail_against_per_graph_counting():
    # Independent route: enumerate graphs explicitly and count each one.
    n, p, threshold = 4, 0.35, 4
    pattern = star(2)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    total = 0.0
    for mask in range(1 << 6):
        edges = [pairs[i] for i in range(6) if (mask >> i) & 1]
        host = HostGraph(n, edges)
        if count_labelled(pattern, host) >= threshold:
            total += p ** len(edges) * (1 - p) ** (6 - len(edges))
    assert exact_tail(pattern, n, p, threshold).point == pytest.approx(total, abs=1e-12)


def test_exact_tail_with_an_isolated_pattern_vertex():
    # P3 plus an isolated vertex: each copy of P3 has n - 3 places for the
    # isolated vertex, so the labelled count is not copies times |Aut|.
    n, p = 5, 0.9
    pattern = PatternGraph(4, [(0, 1), (1, 2)])
    pairs = list(itertools.combinations(range(n), 2))
    graphs = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        graphs.append((count_labelled(pattern, HostGraph(n, edges)), len(edges)))
    assert max(count for count, _ in graphs) == 120
    for threshold in (1, 37, 61, 120):
        total = sum(p**k * (1 - p) ** (len(pairs) - k) for count, k in graphs if count >= threshold)
        assert exact_tail(pattern, n, p, threshold).point == pytest.approx(total, abs=1e-12)


def test_star_count_samples_r3():
    xi = EdgeProbabilityMatrix.constant(25, 0.35)
    counts = count_samples(star(3), xi, 3000, 12)
    expected = expected_star_count_inhom(xi, 3)
    sem = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - expected) < 4 * sem


def test_poisson_fit_star_path():
    # Exercises the degree-based unlabelled star counting; at n = 50 the law
    # is still visibly non-Poisson, so only coverage-level bounds here.
    n = 50
    p = math.sqrt(6 / n**3)
    fit = poisson_fit_experiment(star(2), n, p, 8000, 77)
    assert abs(fit.mean - 3.0) < 0.5
    assert 0.0 <= fit.tv_distance < 0.5
