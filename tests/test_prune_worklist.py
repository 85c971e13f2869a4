"""Worklist core pruning and running-count hub detection against the
rescanning loops they replaced.

``rescan_prune`` and ``greedy_hub_oracle`` are the former implementations of
``structures._prune_to_threshold`` and of the greedy branch of
``detect_hub``: the first recounts every edge after each deletion and
rebuilds the host, the second recounts the crossing edges of every prefix
from scratch.  The worklist versions must reproduce their removal sequences,
cores, witnesses and certificates exactly.
"""

import math
import random

import pytest

from uppertail.counting import (
    _copy_edge_sets,
    count_labelled_using_edge,
    star_count_using_edge,
)
from uppertail.errors import ResourceBudgetError
from uppertail.graphs import HostGraph, clique, cycle, path, star
from uppertail.structures import (
    UNKNOWN,
    YES,
    CoreConfig,
    StructureVerdict,
    _cross_edges_from,
    detect_hub,
    extract_core,
    extract_strong_core,
)
from conftest import seeded_hosts

# path:3 and star:2, the 2-star centred at 1 and at 0, take the closed forms
# under the generic threshold; their oracle counts are the enumerator's.
GENERIC = {"clique:3": clique(3), "path:3": path(3), "cycle:4": cycle(4), "star:2": star(2)}
N, P, DELTA, EPS = 30, 0.2, 1.0, 0.5


def rescan_prune(graph, per_edge_count, threshold):
    """Delete, lexicographically-first, any edge whose copy participation is
    below threshold; recompute after each deletion until a fixed point."""
    current = graph
    removed = []
    while True:
        violator = None
        for edge in sorted(current.edges()):
            if per_edge_count(current, edge) < threshold:
                violator = edge
                break
        if violator is None:
            return current, removed
        removed.append(violator)
        current = current.without_edges([violator])


def greedy_hub_oracle(graph, edge_threshold, degree_threshold):
    pool = [v for v in range(graph.vertex_count) if graph.degree(v) >= degree_threshold]
    cert = {
        "degree_threshold": degree_threshold,
        "edge_threshold": edge_threshold,
        "pool_size": len(pool),
    }
    ordered = sorted(pool, key=lambda v: -graph.degree(v))
    for size in range(1, len(ordered) + 1):
        subset = ordered[:size]
        if _cross_edges_from(graph, subset) >= edge_threshold:
            cert["cross_edges"] = _cross_edges_from(graph, subset)
            return StructureVerdict(YES, tuple(subset), cert)
    return StructureVerdict(UNKNOWN, None, cert)


def _middle_thresholds(counts, quantiles):
    """Thresholds between the smallest and largest per-edge counts, so the
    pruning deletes some edges and (usually) keeps some."""
    values = sorted(set(counts))
    if len(values) < 2:
        return [values[0] + 1] if values else []
    return sorted({values[int(q * len(values))] + 0.5 for q in quantiles})


def _star_cfg(r, threshold):
    # c_bar chosen so that extract_core's star threshold equals ``threshold``.
    c_bar = DELTA * EPS * N ** (r + 1) * P**r / (threshold * N ** (1 + 1 / r) * P * math.log(1 / P))
    return CoreConfig(delta=DELTA, epsilon=EPS, c_bar=c_bar, star_arms=r)


def _strong_cfg(r, threshold):
    c_bar_star = DELTA * EPS * (N ** (1 + 1 / r) * P) ** (r - 1) / threshold
    return CoreConfig(delta=DELTA, epsilon=EPS, c_bar_star=c_bar_star)


def _generic_cfg(pattern, threshold):
    v, e = pattern.vertex_count, pattern.edge_count
    d = max(pattern.degrees())
    c_bar = DELTA * EPS * N**v * P**e / (threshold * N**2 * P**d * math.log(1 / P))
    return CoreConfig(delta=DELTA, epsilon=EPS, c_bar=c_bar)


def _cases(host, quantiles):
    """(label, run, per-edge oracle count, threshold) for every core kind,
    at thresholds from the given quantiles of the host's per-edge counts."""
    edges = host.edges()
    out = []
    for r in (2, 3):
        counts = [star_count_using_edge(r, host, e) for e in edges]

        def star_count(g, e, r=r):
            return star_count_using_edge(r, g, e)

        for t in _middle_thresholds(counts, quantiles):
            out.append((f"star:{r}", lambda h, r=r, t=t: extract_core(h, star(r), _star_cfg(r, t), N, P),
                        star_count, t))
            out.append((f"strong star:{r}", lambda h, r=r, t=t: extract_strong_core(h, r, _strong_cfg(r, t), N, P),
                        star_count, t))
    for name, pattern in GENERIC.items():
        counts = [count_labelled_using_edge(pattern, host, e) for e in edges]

        def generic_count(g, e, pattern=pattern):
            return count_labelled_using_edge(pattern, g, e)

        for t in _middle_thresholds(counts, quantiles):
            out.append((name, lambda h, pattern=pattern, t=t: extract_core(h, pattern, _generic_cfg(pattern, t), N, P),
                        generic_count, t))
    return out


def _check_against_rescan(host, quantiles=(1 / 3, 2 / 3)):
    before = host.edges()
    deleted = 0
    for label, run, per_edge, threshold in _cases(host, quantiles):
        result = run(host)
        assert result.threshold == pytest.approx(threshold, rel=1e-9), label
        want_core, want_removed = rescan_prune(host, per_edge, result.threshold)
        assert list(result.removed) == want_removed, label
        assert result.graph == want_core, label
        assert result.graph.edge_count == want_core.edge_count, label
        assert host.edges() == before and host.edge_count == len(before), label
        deleted += len(want_removed)
    return deleted


@pytest.mark.parametrize("seed", [55, 99])
def test_worklist_matches_rescan_on_seeded_hosts(seed):
    deleted = sum(_check_against_rescan(h) for h in seeded_hosts(6, (8, 16), 0.35, seed))
    assert deleted > 0


def test_worklist_matches_rescan_on_sets_backend():
    n = 10_001
    spread = [(i * 331) % n for i in range(20)]  # scatter 20 vertices over n
    base = seeded_hosts(1, (20, 20), 0.3, 7)[0]
    host = HostGraph(n, [(spread[u], spread[v]) for u, v in base.edges()])
    # One threshold per kind: every rescan step walks all n vertices.
    assert _check_against_rescan(host, quantiles=(1 / 2,)) > 0


def test_pinned_copy_edge_sets_are_the_copies_through_the_edge():
    for host in seeded_hosts(4, (7, 10), 0.45, 3):
        for pattern in GENERIC.values():
            every = _copy_edge_sets(pattern, host, None)
            for e in host.edges():
                through = _copy_edge_sets(pattern, host, None, through=e)
                assert through == [c for c in every if e in c]


def test_too_small_budget_raises_with_its_limit():
    host = HostGraph.complete(8)
    cfg = CoreConfig(delta=DELTA, epsilon=EPS)
    with pytest.raises(ResourceBudgetError, match=r"budget of 5 search nodes"):
        extract_core(host, clique(3), cfg, N, P, budget=5)


def test_greedy_hub_matches_prefix_rescan():
    rng = random.Random(8)
    checked = {YES: 0, UNKNOWN: 0}
    for trial in range(12):
        n = rng.randint(40, 70)
        host = seeded_hosts(1, (n, n), rng.uniform(0.2, 0.5), 100 + trial)[0]
        degs = sorted(host.degrees(), reverse=True)
        degree_threshold = degs[rng.randint(21, 35)]
        pool = sum(1 for d in degs if d >= degree_threshold)
        assert pool > 20  # the greedy branch, not the exhaustive one
        for edge_threshold in (1, rng.randint(20, 400), host.edge_count + 1):
            got = detect_hub(host, edge_threshold, degree_threshold)
            want = greedy_hub_oracle(host, edge_threshold, degree_threshold)
            assert got == want
            checked[got.found] += 1
    assert checked[YES] > 12 and checked[UNKNOWN] >= 12
