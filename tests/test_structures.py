import gc
import math
import random

import pytest

from uppertail.errors import ValidationError
from uppertail.graphs import HostGraph, clique, path, star
from uppertail.counting import count_labelled, count_labelled_using_edge, star_count_using_edge
from uppertail.structures import (
    EXHAUSTIVE_CLIQUE_N,
    NO,
    UNKNOWN,
    YES,
    CoreConfig,
    detect_clique,
    detect_high_degree,
    detect_hub,
    detect_tilde_hub,
    extract_core,
    extract_strong_core,
    stability_peel,
    verify_hub,
)
from conftest import host_of, seeded_hosts


def verify_quasi_clique(graph: HostGraph, witness, chi: float) -> bool:
    """Recheck a ``detect_clique`` witness from scratch: every vertex has at
    least floor((1 - chi) |U|) neighbours inside it."""
    inner = set(witness)
    need = math.floor((1 - chi) * len(inner))
    return all(sum(1 for u in graph.neighbors(v) if u in inner) >= need for v in inner)


def _k28() -> HostGraph:
    return HostGraph(10, [(u, v) for u in (0, 1) for v in range(2, 10)])


def test_detect_hub_examples():
    host = _k28()
    verdict = detect_hub(host, 0.1, edge_threshold=16, degree_threshold=7)
    assert verdict.found == YES
    assert set(verdict.witness) == {0, 1}
    assert verify_hub(host, verdict.witness, 7, 16)

    empty = HostGraph(6, ())
    assert detect_hub(empty, 0.1, 1.0, 1.0).found == NO

    assert detect_hub(host, 0.1, edge_threshold=17, degree_threshold=7).found == NO


def test_detect_hub_greedy_path():
    # More than 20 candidates forces the greedy prefix search.
    n = 40
    host = HostGraph(n, [(u, v) for u in range(25) for v in range(n) if u < v])
    verdict = detect_hub(host, 0.1, edge_threshold=100, degree_threshold=10)
    assert verdict.found == YES
    assert verify_hub(host, verdict.witness, 10, 100)


def test_detect_hub_recheck_fuzzed():
    rng = random.Random(13)
    for host in seeded_hosts(25, (8, 14), 0.4, 99):
        degree_threshold = rng.randint(1, 6)
        edge_threshold = rng.randint(1, 20)
        verdict = detect_hub(host, 0.1, edge_threshold, degree_threshold)
        if verdict.found == YES:
            assert verify_hub(host, verdict.witness, degree_threshold, edge_threshold)


def test_detect_clique_examples():
    # K5 buried in sparse noise
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(5, 6), (7, 8), (5, 9)]
    host = HostGraph(12, edges)
    verdict = detect_clique(host, 0.2, 5)
    assert verdict.found == YES
    assert verify_quasi_clique(host, verdict.witness, 0.2)
    assert len(verdict.witness) >= 5

    star_host = host_of(star(9))
    assert detect_clique(star_host, 0.2, 3).found == NO

    any_host = HostGraph(4, [(0, 1)])
    assert detect_clique(any_host, 0.2, 1).found == YES


def test_detect_clique_greedy_large():
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    edges += [(i, i + 1) for i in range(8, 40)]
    host = HostGraph(41, edges)
    verdict = detect_clique(host, 0.1, 7)
    assert verdict.found == YES
    assert verify_quasi_clique(host, verdict.witness, 0.1)


def test_detect_high_degree_examples():
    assert detect_high_degree(host_of(star(5)), 5).found == YES
    assert detect_high_degree(host_of(star(5)), 5).witness == (0,)
    from uppertail.graphs import cycle

    assert detect_high_degree(host_of(cycle(6)), 3).found == NO
    assert detect_high_degree(HostGraph.complete(4), 3).found == YES


def test_detect_tilde_hub_examples():
    n = 20
    edges = []
    for hub in (0, 1):
        edges += [(hub, v) for v in range(n) if v != hub and (hub, v) != (0, 1)]
    edges += [(2, v) for v in range(4, 4 + 16)]  # degree-16 extra vertex
    host = HostGraph(n, edges)
    verdict = detect_tilde_hub(host, 2, 0.9 * 18, 0.7 * 18)
    assert verdict.found == YES
    hub_set, extra = verdict.witness
    assert set(hub_set) == {0, 1} and extra == 2

    assert detect_tilde_hub(host, 0, 5, 0).found == YES
    from uppertail.graphs import cycle

    assert detect_tilde_hub(host_of(cycle(8)), 1, 7, 0).found == NO


def test_detect_tilde_hub_reversed_thresholds():
    # extra threshold above the hub threshold: the reservation path
    host = HostGraph(6, [(0, v) for v in range(1, 6)] + [(1, 2), (1, 3), (2, 3)])
    verdict = detect_tilde_hub(host, 2, 2, 5)
    assert verdict.found == YES
    hub_set, extra = verdict.witness
    assert extra == 0 and 0 not in hub_set


def test_prune_example_pendant():
    host = HostGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    cfg = CoreConfig(delta=1.0, epsilon=0.5, star_arms=2)
    # Pick (n, p) that lands the star threshold at 7: prune kills the pendant
    # edge (count 6) and keeps K4 (count 8).  threshold = de n^3 p^2/(C n^1.5 p log(1/p)).
    # Rather than reverse-engineering, drive the pruning loop directly.
    from uppertail.structures import _edges_at_endpoints, _prune_to_threshold

    def prune(threshold):
        return _prune_to_threshold(
            host, lambda g, e: star_count_using_edge(2, g, e), _edges_at_endpoints, threshold
        )

    core, removed = prune(7)
    assert removed == [(0, 4)]
    assert core.edge_count == 6
    assert all(star_count_using_edge(2, core, e) >= 7 for e in core.edges())

    untouched, removed0 = prune(0)
    assert removed0 == [] and untouched.edge_count == host.edge_count

    emptied, _ = prune(10**9)
    assert emptied.edge_count == 0


def test_extract_core_reports_conditions():
    host = HostGraph(6, [(0, v) for v in range(1, 6)] + [(1, 2), (3, 4)])
    cfg = CoreConfig(delta=1.0, epsilon=0.1, star_arms=2)
    result = extract_core(host, star(2), cfg, n=6, p=0.3)
    assert result.graph.edge_count <= host.edge_count
    for e in result.graph.edges():
        assert star_count_using_edge(2, result.graph, e) >= result.threshold
    # generic-pattern threshold path
    cfg_gen = CoreConfig(delta=1.0, epsilon=0.1)
    result2 = extract_core(host, path(3), cfg_gen, n=6, p=0.3)
    for e in result2.graph.edges():
        assert count_labelled_using_edge(path(3), result2.graph, e) >= result2.threshold


def test_extract_core_idempotent_fuzz():
    cfg = CoreConfig(delta=1.0, epsilon=0.2, star_arms=2)
    for host in seeded_hosts(20, (6, 11), 0.35, 55):
        result = extract_core(host, star(2), cfg, n=host.vertex_count, p=0.3)
        again = extract_core(result.graph, star(2), cfg, n=host.vertex_count, p=0.3)
        assert set(again.graph.edges()) == set(result.graph.edges())
        assert set(result.graph.edges()) <= set(host.edges())


def test_extract_strong_core():
    # hub K_{1,8} with m^(r-1) above threshold plus two noise edges
    edges = [(0, v) for v in range(1, 9)] + [(9, 10), (11, 12)]
    host = HostGraph(13, edges)
    cfg = CoreConfig(delta=1.0, epsilon=0.5, c_bar_star=1.0)
    # threshold = (de/C*) (n^{1+1/2} p)^{r-1}: choose p so threshold sits in (2, 14)
    n, p = 13, 0.2
    threshold = 0.5 * (n**1.5 * p) ** 1
    assert 2 < threshold < 14
    result = extract_strong_core(host, 2, cfg, n, p)
    assert result.threshold == pytest.approx(threshold)
    kept = set(result.graph.edges())
    assert (9, 10) not in kept and (11, 12) not in kept
    assert len(kept) == 8  # the hub survives: each hub edge sees 2*(8-1) = 14 stars

    empty = HostGraph(5, ())
    result = extract_strong_core(empty, 2, cfg, 5, 0.2)
    assert result.graph.edge_count == 0


def test_stability_peel_examples():
    k5 = HostGraph.complete(5)
    res = stability_peel(k5, 0.04)
    assert res.kept == (0, 1, 2, 3, 4) and res.min_degree == 4

    star_host = host_of(star(9))
    res = stability_peel(star_host, 0.01)
    assert res.kept == () and res.graph.edge_count == 0

    single = HostGraph(2, [(0, 1)])
    res = stability_peel(single, 1.0)  # negative target: vacuous, intact
    assert res.kept == (0, 1) and res.min_degree == 1


def test_library_refusals():
    with pytest.raises(ValidationError, match="at least one edge"):
        stability_peel(HostGraph(5, ()), 0.1)
    for eps in (0.0, -0.1):
        with pytest.raises(ValidationError, match="epsilon must be positive"):
            stability_peel(HostGraph.complete(4), eps)
    with pytest.raises(ValidationError, match="u_size must be nonnegative"):
        detect_tilde_hub(HostGraph.complete(4), -1, 1.0, 1.0)


def test_stability_peel_cliques_meet_hypothesis():
    # For G = K_m the count hypothesis holds with epsilon ~ 3/(2m); the peel
    # must return a nonempty subgraph meeting the degree bound.
    for m in (8, 12, 20):
        host = HostGraph.complete(m)
        eps = 2.0 / m
        assert eps >= host.edge_count**-0.5
        copies = count_labelled(clique(3), host)
        assert copies >= (1 - eps) * (2 * host.edge_count) ** 1.5
        res = stability_peel(host, eps)
        assert res.kept
        assert res.min_degree >= (1 - 4 * math.sqrt(eps)) * math.sqrt(2 * host.edge_count)


def test_core_config_validation():
    with pytest.raises(ValidationError):
        CoreConfig(delta=0.0, epsilon=0.1)
    # NaN and inf pass a "<= 0" test; every constant must be finite and positive.
    for bad in (math.nan, math.inf, -1.0, 0.0):
        for name in ("delta", "epsilon", "c_bar", "c_bar_star"):
            kwargs = {"delta": 1.0, "epsilon": 0.1, name: bad}
            with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
                CoreConfig(**kwargs)
    for run in (lambda n: extract_core(HostGraph.complete(3), path(3), CoreConfig(1.0, 0.1), n, 0.3),
                lambda n: extract_strong_core(HostGraph.complete(3), 2, CoreConfig(1.0, 0.1), n, 0.3)):
        for n in (0, -3):
            with pytest.raises(ValidationError, match="n must be at least 1"):
                run(n)
    # star_arms selects the star threshold of that star, not of another.
    for pattern in (star(2), path(4), clique(3)):
        with pytest.raises(ValidationError, match="star_arms=3"):
            extract_core(HostGraph.complete(6), pattern, CoreConfig(1.0, 0.1, star_arms=3), 6, 0.3)
    cfg = CoreConfig(delta=2.0, epsilon=0.1)
    assert cfg.resolved_c_bar() == pytest.approx(2.0)
    assert CoreConfig(delta=2.0, epsilon=0.1, c_bar=7.0).resolved_c_bar() == 7.0


def test_detect_clique_leaves_no_reference_cycles():
    # The exact search recurses through a module function, not a closure
    # that reaches itself through its cell and so holds the host until the
    # next cyclic collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        detect_clique(HostGraph.complete(6), 0.1, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_detect_clique_exact_matches_brute_force():
    import itertools
    import random as _random

    rng = _random.Random(12)
    for _ in range(20):
        n = rng.randint(4, 8)
        host = HostGraph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        chi = rng.choice([0.1, 0.25, 0.5])
        s_min = rng.randint(1, n)
        verdict = detect_clique(host, chi, s_min)
        exists = False
        for size in range(s_min, n + 1):
            need = math.floor((1 - chi) * size)
            for subset in itertools.combinations(range(n), size):
                inner = set(subset)
                if all(
                    sum(1 for u in host.neighbors(v) if u in inner) >= need
                    for v in subset
                ):
                    exists = True
                    break
            if exists:
                break
        assert (verdict.found == YES) == exists
        if verdict.found == YES:
            assert verify_quasi_clique(host, verdict.witness, chi)


# ---------------------------------------------------------------------------
# The two peeling loops that ``structures._peel`` replaced, kept as oracles.
# ---------------------------------------------------------------------------

def _greedy_clique_oracle(graph: HostGraph, chi: float, size_threshold: float):
    """``detect_clique`` above the exhaustive cutoff, as its own peeling loop:
    test every surviving set, then drop the least (degree, vertex) vertex."""
    s_min = max(1, math.ceil(size_threshold))
    cert = {"chi": chi, "size_threshold": size_threshold, "minimum_size": s_min}
    n = graph.vertex_count
    if s_min > n:
        return NO, None, cert
    alive = set(range(n))
    inner_deg = {v: graph.degree(v) for v in alive}
    while alive:
        if len(alive) >= s_min:
            need = math.floor((1 - chi) * len(alive))
            if min(inner_deg[v] for v in alive) >= need:
                cert["size"] = len(alive)
                return YES, tuple(sorted(alive)), cert
        drop = min(alive, key=lambda v: (inner_deg[v], v))
        alive.discard(drop)
        for u in graph.neighbors(drop):
            if u in alive:
                inner_deg[u] -= 1
    return UNKNOWN, None, cert


def _stability_peel_oracle(graph: HostGraph, epsilon: float):
    """``stability_peel`` as its own peeling loop: (kept, min_degree, edges, target)."""
    target = (1 - 4 * math.sqrt(epsilon)) * math.sqrt(2 * graph.edge_count)
    alive = set(range(graph.vertex_count))
    inner_deg = graph.degrees().copy()
    while alive:
        drop = min(alive, key=lambda v: (inner_deg[v], v))
        if inner_deg[drop] >= target:
            break
        alive.discard(drop)
        for u in graph.neighbors(drop):
            if u in alive:
                inner_deg[u] -= 1
    kept = tuple(sorted(alive))
    min_deg = min((inner_deg[v] for v in alive), default=0)
    return kept, min_deg, set(graph.subgraph_on(kept).edges()), target


def _circulant(n: int, k: int) -> HostGraph:
    """Each vertex v joined to v +- 1, ..., v +- k mod n: 2k-regular for k < n/2."""
    return HostGraph(n, {(min(v, (v + j) % n), max(v, (v + j) % n))
                         for v in range(n) for j in range(1, k + 1)})


def _peel_hosts(count: int, seed: int):
    """G(n, p) hosts with 31 <= n <= 150 above the exhaustive clique cutoff,
    every tenth a circulant, whose equal degrees leave every peel to the
    vertex tie-break."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(EXHAUSTIVE_CLIQUE_N + 1, 150)
        if i % 10 == 0:
            yield rng, _circulant(n, rng.randint(1, n // 3))
        else:
            q = rng.choice([0.03, 0.1, 0.3, 0.6, 0.9])
            yield rng, HostGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < q])


def test_greedy_clique_and_stability_peel_match_their_oracles():
    seen = set()
    for rng, host in _peel_hosts(320, 2323):
        n = host.vertex_count
        chi = rng.choice([0.0, 0.1, 0.3, 0.5, 0.8])
        size = rng.choice([1, 2.5, n / 4, n / 2, 0.9 * n, n + 1])
        verdict = detect_clique(host, chi, size)
        assert (verdict.found, verdict.witness, verdict.certificate) == \
            _greedy_clique_oracle(host, chi, size)
        seen.add(verdict.found)
        if host.edge_count:
            eps = rng.choice([1e-4, 1e-3, 0.01, 0.03, 0.06, 0.5])
            res = stability_peel(host, eps)
            assert (res.kept, res.min_degree, set(res.graph.edges()), res.target) == \
                _stability_peel_oracle(host, eps)
            seen.add("kept" if res.kept else "emptied")
    assert seen == {YES, NO, UNKNOWN, "kept", "emptied"}
    # A survivor whose minimum degree equals the target is kept: C_32(1..4) is
    # 8-regular with 128 edges, and at eps = 1/64 the target is sqrt(256) / 2 = 8.
    res = stability_peel(_circulant(32, 4), 1 / 64)
    assert (res.kept, res.min_degree, res.target) == (tuple(range(32)), 8, 8.0)
