"""The batched sample-and-count engine of the Monte Carlo estimators.

``_BatchCounter`` replaced several per-sample counting loops; those loops are
kept here as the reference oracle, and the engine must agree with them row
for row on batches converted from dense indicator matrices.  Its sparse
draws must have the right per-pair marginals and must not depend on the
batch size, and the single-graph samplers must return graph 0 of the same
stream.  The count table (n <= 6) and the in-place skip stream keep the
code they replaced as oracles too; with one probability the slots must not
depend on the skip-block length either.  A matrix's draw, one stream per
distinct probability, must match an oracle that lists each probability's
pairs by enumeration, and its law must match the thinned stream it
replaced.  Estimator outputs are pinned to the sparse-draw stream, a run's
traced working set must stay small, and large-n CLI runs
(``child_process`` tests) must stay within fixed memory ceilings.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from uppertail.counting import _copy_edge_sets, count_labelled
from uppertail.errors import ValidationError
from uppertail.graphs import HostGraph, PatternGraph, clique, pattern_from_shorthand, star, star_arms
from uppertail.meanfield import EdgeProbabilityMatrix, planted_star_optimizer
from uppertail.montecarlo import (
    EdgeBatch,
    MAX_PAIRS,
    _BATCH_ITEMS,
    _BatchCounter,
    _draws,
    _measure_draws,
    _pair_arrays,
    _pair_count,
    _pair_endpoints,
    _present_slots,
    _replica_rng,
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
from util_dense import to_dense

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


def as_batch(present):
    """The ``EdgeBatch`` of a dense indicator matrix, one row per graph."""
    graph, pair = np.nonzero(present)
    return EdgeBatch(graph, pair, len(present))


def _planted(n):
    """A matrix with a probability-1 hub and a boosted row."""
    return EdgeProbabilityMatrix.planted(n, 0.15, hubs=[1], boosted=0, boosted_value=0.7)


def _pair_probs(xi, n):
    """The probability of each vertex pair, in ``_pair_arrays`` order."""
    return to_dense(xi)[_pair_arrays(n)]


def _planted_probs(n):
    return _pair_probs(_planted(n), n)


def _batches(n, seed):
    """Seeded indicator batches: constant p and one planted matrix."""
    rng = np.random.default_rng(seed)
    rows = 40 if n < 40 else 12
    return [rng.random((rows, n * (n - 1) // 2)) < p for p in (0.3, 0.1, _planted_probs(n))]


SPECS = ["star:2", "star:3", "path:4", "cycle:4", "clique:3"]
P3_K1 = PatternGraph(4, [(0, 1), (1, 2)])  # a path plus an isolated vertex


@pytest.mark.parametrize(
    "spec, n", [(spec, n) for n in (5, 12, 40) for spec in SPECS] + [("P3+K1", 5)])
def test_counts_and_degrees_match_oracle(spec, n):
    pattern = P3_K1 if spec == "P3+K1" else pattern_from_shorthand(spec)
    counter = _BatchCounter(pattern, n)
    assert (counter.table is not None) == (n <= 6)
    for present in _batches(n, 1000 * n + len(spec)):
        batch = as_batch(present)
        assert np.array_equal(counter.degrees(batch), oracle_degrees(n, present))
        assert np.array_equal(counter.counts(batch), oracle_counts(pattern, n, present))
        degrees = counter.degrees(batch)
        assert np.array_equal(counter.counts(batch, degrees), counter.counts(batch))


@pytest.mark.parametrize("n, p, rows", [(130, 0.1, 6), (130, 0.3, 3), (300, 0.3, 2)])
@pytest.mark.parametrize("spec", ["star:2", "star:3", "clique:3"])
def test_multiword_rows_match_oracle(spec, n, p, rows):
    # n > 64 spreads each bit row over several words; n = 300, p = 0.3 is a
    # dense point with about 13,000 edges and 120,000 triangles per graph.
    pattern = pattern_from_shorthand(spec)
    counter = _BatchCounter(pattern, n)
    present = np.random.default_rng(n + rows).random((rows, n * (n - 1) // 2)) < p
    batch = as_batch(present)
    assert np.array_equal(counter.degrees(batch), oracle_degrees(n, present))
    assert np.array_equal(counter.counts(batch), oracle_counts(pattern, n, present))


def test_graphs_without_edges():
    counter = _BatchCounter(clique(3), 9)
    present = np.zeros((4, 36), dtype=bool)
    present[2] = True
    assert counter.counts(as_batch(present)).tolist() == [0, 0, 9 * 8 * 7, 0]
    assert counter.counts(as_batch(present[:0])).tolist() == []


# ---------------------------------------------------------------------------
# Reference oracle: the per-copy mask loop the count table replaced
# ---------------------------------------------------------------------------

def oracle_mask_counts(pattern, n, graphs):
    """Labelled counts of graphs given as pair bitmasks: each copy of the
    pattern in K_n is a bitmask, and a graph holds it when it has all of its
    bits; every contained copy carries the same number of labelled maps."""
    pair_u, pair_v = _pair_arrays(n)
    index = {e: i for i, e in enumerate(zip(pair_u.tolist(), pair_v.tolist()))}
    copies = _copy_edge_sets(pattern, HostGraph.complete(n), None)
    masks = [sum(1 << index[e] for e in edge_set) for edge_set in copies]
    weight = math.perm(n, pattern.vertex_count) // len(copies) if copies else 0
    contained = np.zeros(len(graphs), dtype=np.int64)
    for mask in masks:
        contained += (graphs & mask) == mask
    return contained * weight


def oracle_exact_tail(pattern, n, p, threshold):
    """The former ``exact_tail`` sum over the per-copy mask loop's counts,
    with its one intended change: exactly 1 when every graph meets the
    threshold, where the float sum can fall short of 1."""
    total_pairs = n * (n - 1) // 2
    graphs = np.arange(1 << total_pairs, dtype=np.int64)
    labelled = oracle_mask_counts(pattern, n, graphs)
    if (labelled >= threshold).all():
        return 1.0
    popcnt = np.bitwise_count(graphs)
    weights = np.power(p, popcnt) * np.power(1.0 - p, total_pairs - popcnt)
    return min(float(weights[labelled >= threshold].sum()), 1.0)


TABLE_PATTERNS = {
    **{spec: pattern_from_shorthand(spec) for spec in SPECS},
    "P3+K1": P3_K1,
    "edgeless": PatternGraph(3, []),
    "K1": PatternGraph(1, []),
    "path:7": pattern_from_shorthand("path:7"),  # more vertices than any n here
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", list(TABLE_PATTERNS))
def test_count_table_matches_mask_loop(name, n):
    pattern = TABLE_PATTERNS[name]
    counter = _BatchCounter(pattern, n)
    graphs = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    want = oracle_mask_counts(pattern, n, graphs)
    assert counter.table.dtype == np.int64
    assert np.array_equal(counter.table, want)
    if n * (n - 1) // 2 >= 1:  # every graph as one batch, through ``counts``
        present = ((graphs[:, None] >> np.arange(n * (n - 1) // 2)) & 1).astype(bool)
        assert np.array_equal(counter.counts(as_batch(present)), want)
    for p in (0.0, 0.3, 1.0):
        for threshold in sorted({0, 1, int(want.max()), int(want.max()) + 1}):
            got = exact_tail(pattern, n, p, threshold).point
            assert got == oracle_exact_tail(pattern, n, p, threshold)


# ---------------------------------------------------------------------------
# Reference oracles: the skip stream before it ran in place, and the thinned
# stream that drew a matrix before it was drawn one probability at a time
# ---------------------------------------------------------------------------

_SKIP_BLOCK = 1 << 16  # the block length of the thinned stream


def oracle_present_slots(rng, probs, n_pairs, total, size=None):
    """``_present_slots`` with a fresh array for every step, in blocks of
    ``size`` gaps; by default min(65,536, 1.1 total q + 64) for the largest
    probability q.  With one probability per pair, each candidate is kept
    with probability probs[pair] / q, by a uniform drawn after its block of
    gaps."""
    probs = np.asarray(probs, dtype=float)
    top = min(float(probs.max(initial=0.0)), 1.0)
    if top <= 0.0:
        yield np.empty(0, dtype=np.int64), total
        return
    ratio = probs / top if probs.min() < top else None
    scale = -1.0 / math.log1p(-top) if top < 1.0 else 0.0
    if size is None:
        size = int(min(_SKIP_BLOCK, total * top * 1.1 + 64))
    decided = 0
    while decided < total:
        gaps = rng.standard_exponential(size)
        gaps *= scale
        np.minimum(gaps, total, out=gaps)
        slots = np.cumsum(gaps.astype(np.int64) + 1) + (decided - 1)
        decided = int(slots[-1]) + 1
        slots = slots[: np.searchsorted(slots, total)]
        if ratio is not None:
            keep = rng.random(size)[: len(slots)] < ratio[slots % n_pairs]
            slots = slots[keep]
        yield slots, decided


def oracle_draws(rng, probs, n_pairs, m, rows):
    """``_draws`` with a fresh array for every step of the pair split."""
    stream = oracle_present_slots(rng, probs, n_pairs, m * n_pairs)
    pending, decided, done = np.empty(0, dtype=np.int64), 0, 0
    while done < m:
        take = min(m - done, rows)
        end = (done + take) * n_pairs
        parts = [pending]
        while decided < end:
            slots, decided = next(stream)
            parts.append(slots)
        slots = np.concatenate(parts)
        cut = np.searchsorted(slots, end)
        pending = slots[cut:]
        slots = slots[:cut] - done * n_pairs
        graph = slots // n_pairs
        yield EdgeBatch(graph, slots - graph * n_pairs, take)
        done += take


def oracle_level_pairs(blocks, n):
    """The pairs of one probability's blocks in slot order, listed by
    enumeration: each class's pairs in lexicographic order, then each pair
    of classes row by row."""
    index = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    pairs = []
    for a, b in blocks:
        block = itertools.combinations(a.tolist(), 2) if b is None else itertools.product(a.tolist(), b.tolist())
        pairs += [index[min(u, v), max(u, v)] for u, v in block]
    return np.array(pairs, dtype=np.int64)


def oracle_measure_draws(rng, xi, m, rows):
    """``_measure_draws`` of a matrix with several probabilities: each
    probability's ``oracle_draws`` stream, its slots looked up in
    ``oracle_level_pairs`` and the edges sorted by (graph, pair)."""
    levels = xi.levels()
    children = [rng, *rng.spawn(len(levels) - 1)]
    streams = [oracle_draws(child, q, pairs, m, rows)
               for child, (q, pairs, _) in zip(children, levels)]
    tables = [oracle_level_pairs(blocks, xi.n) for _, _, blocks in levels]
    for parts in zip(*streams):
        graph = np.concatenate([batch.graph for batch in parts])
        pair = np.concatenate([table[batch.pair] for batch, table in zip(parts, tables)])
        order = np.lexsort((pair, graph))
        hits = np.array([np.bincount(batch.graph, minlength=batch.size) for batch in parts])
        yield EdgeBatch(graph[order], pair[order], parts[0].size, hits)


def _hub(n):
    return EdgeProbabilityMatrix.planting("hub:4:0.55", n, 0.2)


def _optimizer(n):
    """The planted star optimizer's matrix: one hub and a boosted row."""
    return planted_star_optimizer(n, 0.1, 2, 4.0, 0.5).matrix


# Matrices with two and three probabilities, hubs off the first rows, and a
# class with no inner pairs.
MATRICES = {
    "hub:4:0.55": _hub,
    "clique:4:0.6": lambda n: EdgeProbabilityMatrix.planting("clique:4:0.6", n, 0.3),
    "planted": _planted,
    "optimizer": _optimizer,
    "scattered": lambda n: EdgeProbabilityMatrix.planted(n, 0.2, hubs=[0, 5], boosted=3,
                                                         boosted_value=0.5),
    "highdeg": lambda n: EdgeProbabilityMatrix.planting("highdeg:0.9", n, 0.05),
}


# (name, n, probs, graphs, rows): constant p, its extremes, matrices, and
# draws over several 65,536-gap oracle blocks.
STREAMS = [
    ("constant", 12, lambda n: 0.3, 50, 7),
    ("zero", 12, lambda n: 0.0, 20, 6),
    ("one", 9, lambda n: 1.0, 20, 6),
    ("hub", 6, _hub, 400, 64),
    ("planted", 12, _planted, 300, 41),
    ("blocks", 40, lambda n: 0.05, 9000, 4096),
    ("planted-blocks", 40, _planted, 2500, 700),
]


def _joined(blocks):
    """The present slots of a ``_present_slots`` stream, in one array."""
    return np.concatenate([slots for slots, _ in blocks])


def _streams(xi, n, rng):
    """(generator, probability, pairs per graph) of each stream that draws
    from ``xi``: one probability, or a matrix with several."""
    if isinstance(xi, EdgeProbabilityMatrix):
        levels = xi.levels()
        children = [rng, *rng.spawn(len(levels) - 1)]
        return [(child, q, pairs) for child, (q, pairs, _) in zip(children, levels)]
    return [(rng, xi, n * (n - 1) // 2)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name, n, probs, m, rows", STREAMS, ids=[s[0] for s in STREAMS])
def test_stream_matches_fresh_array_oracle(name, n, probs, m, rows, seed):
    xi = probs(n)
    blocks = 0
    for (rng, q, n_pairs), (old_rng, _, _) in zip(_streams(xi, n, _replica_rng(seed, 1)),
                                                  _streams(xi, n, _replica_rng(seed, 1))):
        old = list(oracle_present_slots(old_rng, q, n_pairs, m * n_pairs))
        new = list(_present_slots(rng, q, n_pairs, m * n_pairs))
        assert np.array_equal(_joined(new), _joined(old)) and _joined(new).dtype == np.int64
        assert new[-1][1] >= m * n_pairs
        blocks = max(blocks, len(old))
    if name.endswith("blocks"):
        assert blocks >= 3
    for (rng, q, n_pairs), (old_rng, _, _) in zip(_streams(xi, n, _replica_rng(seed, 2)),
                                                  _streams(xi, n, _replica_rng(seed, 2))):
        old = list(oracle_draws(old_rng, q, n_pairs, m, rows))
        new = list(_draws(rng, q, n_pairs, m, rows))
        assert [b.size for b in new] == [b.size for b in old]
        for a, b in zip(new, old):
            assert np.array_equal(a.graph, b.graph) and np.array_equal(a.pair, b.pair)
            assert a.graph.dtype == b.graph.dtype == a.pair.dtype == b.pair.dtype == np.int64


@pytest.mark.parametrize("n", [6, 12, 40])
@pytest.mark.parametrize("name", list(MATRICES))
def test_matrix_draws_match_the_enumerated_blocks(name, n):
    xi = MATRICES[name](n)
    probs = _pair_probs(xi, n)
    levels = xi.levels()
    assert [q for q, _, _ in levels] == sorted(set(probs.tolist())) and len(levels) >= 2
    for q, pairs, blocks in levels:  # each probability's slots are its pairs, once each
        table = oracle_level_pairs(blocks, n)
        assert pairs == len(table)
        assert np.array_equal(np.sort(table), np.flatnonzero(probs == q))
    assert xi.expected_edges() == pytest.approx(probs.sum(), rel=1e-12)
    rows = _BatchCounter(star(2), n).rows(xi)
    want = list(oracle_measure_draws(_replica_rng(n, 0), xi, 700, rows))
    got = list(_measure_draws(_replica_rng(n, 0), xi, 700, rows))
    assert [b.size for b in got] == [b.size for b in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.graph, b.graph) and np.array_equal(a.pair, b.pair)
        assert np.array_equal(a.hits, b.hits)
        assert a.graph.dtype == a.pair.dtype == np.int64


def test_one_probability_draws_the_constant_stream():
    # A matrix whose pairs all share one probability reads the replica's
    # generator as a constant draw does, so it draws the same graphs.
    for xi in (EdgeProbabilityMatrix.planting("hub:2:0.3", 12, 0.3),
               EdgeProbabilityMatrix.planted(12, 0.3, boosted=0, boosted_value=0.3)):
        assert len(xi.levels()) == 1
        got = list(_measure_draws(_replica_rng(4, 0), xi, 300, 64))
        want = list(_draws(_replica_rng(4, 0), 0.3, 66, 300, 64))
        assert all(np.array_equal(a.graph, b.graph) and np.array_equal(a.pair, b.pair)
                   for a, b in zip(got, want))
        assert all(a.hits is None for a in got)


THINNED_LAW = {
    "hub:2:0.55": lambda: EdgeProbabilityMatrix.planting("hub:2:0.55", 4, 0.2),
    "scattered": lambda: EdgeProbabilityMatrix.planted(4, 0.2, hubs=[2], boosted=1, boosted_value=0.5),
}


@pytest.mark.parametrize("name", list(THINNED_LAW))
def test_matrix_draws_have_the_thinned_law(name):
    # The graphs of n = 4 are 64 bitmasks.  A two-sample chi-square over
    # them compares the block draw with the thinned stream it replaced;
    # under one law it has mean 63 and SD 11.2.
    n, m = 4, 40000
    xi = THINNED_LAW[name]()
    bits = 1 << np.arange(6)

    def masks(batches):
        return np.concatenate([np.bincount(b.graph, weights=bits[b.pair], minlength=b.size)
                               for b in batches]).astype(np.int64)

    new = masks(_measure_draws(_replica_rng(8, 0), xi, m, 4096))
    old = masks(oracle_draws(_replica_rng(8, 1), _pair_probs(xi, n), 6, m, 4096))
    a, b = np.bincount(new, minlength=64), np.bincount(old, minlength=64)
    seen = a + b > 0
    chi2 = float((((a - b) ** 2)[seen] / (a + b)[seen]).sum())
    assert chi2 < 63 + 5 * math.sqrt(2 * 63), chi2


def _global_slots(batches, n_pairs):
    """The stream slots of ``_draws`` batches: graph g of the whole draw,
    pair k, is slot g * n_pairs + k."""
    slots, done = [], 0
    for batch in batches:
        slots.append((batch.graph + done) * n_pairs + batch.pair)
        done += batch.size
    return np.concatenate(slots)


# (n, p, graphs): one probability at the sizes the estimators run, its
# extremes, and a draw of several 65,536-gap blocks.
CONSTANT_STREAMS = [(5, 0.3, 700), (12, 1.0, 40), (40, 0.05, 4200), (200, 0.0131, 300),
                    (64, 0.02, 3000)]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n, p, m", CONSTANT_STREAMS)
def test_constant_stream_does_not_depend_on_block_length(n, p, m, seed):
    # With one probability there is no thinning, so the slots are the
    # running sums of one stream of exponentials, whatever the block length.
    n_pairs = n * (n - 1) // 2
    want = _joined(oracle_present_slots(_replica_rng(seed, 3), p, n_pairs, m * n_pairs))
    for size in (1, 7, 1000, 8192, _SKIP_BLOCK):
        got = oracle_present_slots(_replica_rng(seed, 3), p, n_pairs, m * n_pairs, size)
        assert np.array_equal(_joined(got), want)
    assert np.array_equal(_joined(_present_slots(_replica_rng(seed, 3), p, n_pairs, m * n_pairs)), want)
    rows = _BatchCounter(star(2), n).rows(EdgeProbabilityMatrix.constant(n, p))
    for batch_rows in sorted({1, 3, 64, rows, 4096, m}):
        batches = list(_draws(_replica_rng(seed, 3), p, n_pairs, m, batch_rows))
        assert [b.size for b in batches] == [min(batch_rows, m - d) for d in range(0, m, batch_rows)]
        assert np.array_equal(_global_slots(batches, n_pairs), want)




def test_batch_rows_rule():
    # About 8,192 expected edges (the sum of a graph's pair probabilities),
    # and at most 8,192 degree cells, or bit-row words (n * ceil(n / 64))
    # for triangles, per batch.
    def rows(pattern, n, p):
        return _BatchCounter(pattern, n).rows(EdgeProbabilityMatrix.constant(n, p))

    assert rows(star(2), 40, 0.05) == 8192 // 40  # 39 edges, 40 cells
    assert rows(star(2), 40, 0.5) == 8192 // 390
    hub = EdgeProbabilityMatrix.planting("hub:1:0.5", 40, 0.05)
    assert _BatchCounter(star(2), 40).rows(hub) == 144  # 39 * 0.5 + 741 * 0.05 edges
    assert rows(star(2), 40, 0.0) == 8192 // 40
    assert rows(clique(3), 200, 0.0131) == 8192 // 800  # 4 words a row
    assert rows(star(2), 5, 0.3) == 8192 // 5
    assert rows(star(2), 1, 0.5) == 8192
    assert rows(star(2), 2000, 0.001) == 4  # 1,999 edges
    assert rows(clique(3), 2000, 0.001) == 1  # 64,000 words
    assert rows(clique(3), 1000, 0.5) == 1


def _any_draws(rng, xi, n, m, rows):
    """The draws of m graphs on n vertices from one probability
    (``_draws``) or a matrix (``_measure_draws``)."""
    if isinstance(xi, EdgeProbabilityMatrix):
        return _measure_draws(rng, xi, m, rows)
    return _draws(rng, xi, n * (n - 1) // 2, m, rows)


def _drawn(xi, n, m, rows, seed=7):
    """(graph, pair) of m graphs drawn from xi in batches of ``rows``
    graphs, with graph numbers counted over the whole draw, and the batch
    sizes."""
    rng = np.random.Generator(np.random.Philox(seed))
    graphs, pairs, sizes = [], [], []
    for batch in _any_draws(rng, xi, n, m, rows):
        graphs.append(batch.graph + sum(sizes))
        pairs.append(batch.pair)
        sizes.append(batch.size)
    return np.concatenate(graphs), np.concatenate(pairs), sizes


def test_draws_do_not_depend_on_batching():
    for xi in (0.3, _planted(12)):
        graph, pair, sizes = _drawn(xi, 12, 10, 10)
        assert sizes == [10]
        assert np.all(np.diff(graph * 66 + pair) > 0)  # sorted by (graph, pair)
        for rows in (1, 3, 7, 4096):
            got_graph, got_pair, sizes = _drawn(xi, 12, 10, rows)
            assert sizes == [min(rows, 10 - done) for done in range(0, 10, rows)]
            assert np.array_equal(got_graph, graph) and np.array_equal(got_pair, pair)
        # A stream long enough to need several skip blocks gives the same edges.
        graph, pair, _ = _drawn(xi, 12, 9000, 4096, seed=3)
        assert len(pair) > 8 * _BATCH_ITEMS
        got_graph, got_pair, _ = _drawn(xi, 12, 9000, 1000, seed=3)
        assert np.array_equal(got_graph, graph) and np.array_equal(got_pair, pair)


@pytest.mark.parametrize("case", ["constant", "hub:4:0.55", "planted", "clique:4:0.6", "optimizer"])
def test_draws_have_the_right_marginals(case):
    n, m = (6, 40000) if case in ("hub:4:0.55", "clique:4:0.6") else (12, 20000)
    if case == "optimizer":
        n = 40
    counter = _BatchCounter(star(2), n)
    if case == "constant":
        probs = np.full(len(counter.pair_u), 0.3)
        xi = EdgeProbabilityMatrix.constant(n, 0.3)
    else:
        xi = MATRICES[case](n)
        probs = _pair_probs(xi, n)
    if case == "planted":
        assert probs.max() == 1.0 and 0.7 in probs and 0.15 in probs
    _, pair, _ = _drawn(xi, n, m, counter.rows(xi))
    freq = np.bincount(pair, minlength=len(probs)) / m
    se = np.sqrt(probs * (1 - probs) / m)
    assert np.all(np.abs(freq - probs) <= 5 * se), np.max(np.abs(freq - probs) / np.maximum(se, 1e-12))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_pair_endpoints_follow_triu_order(n):
    u, v = _pair_endpoints(np.arange(n * (n - 1) // 2), n)
    want_u, want_v = np.triu_indices(n, k=1)
    assert np.array_equal(u, want_u) and np.array_equal(v, want_v)


def _graph_0_of_five(xi, n, seed, rows):
    """The edges of graph 0 of five graphs drawn from replica 0 of ``seed``."""
    batch = next(_any_draws(_replica_rng(seed, 0), xi, n, 5, rows))
    u, v = _pair_endpoints(batch.pair[batch.graph == 0], n)
    return set(zip(u.tolist(), v.tolist()))


@pytest.mark.parametrize("rows", [1, 5])
def test_sample_gnp_is_graph_0_of_the_estimator_stream(rows):
    for n, p, seed in [(12, 0.3, 1), (40, 0.05, 2), (200, 0.5, 3), (30, 1.0, 4)]:
        assert set(sample_gnp(n, p, seed).edges()) == _graph_0_of_five(p, n, seed, rows)


@pytest.mark.parametrize("rows", [1, 5])
def test_sample_inhom_is_graph_0_of_the_estimator_stream(rows):
    # Each probability's stream has slots that do not depend on its block
    # length, so one graph and five share graph 0 at every n.
    for n, seed in [(12, 6), (40, 7), (400, 6)]:
        planted = _planted(n)
        graph = sample_inhom(planted, seed)
        assert set(graph.edges()) == _graph_0_of_five(planted, n, seed, rows)
        assert graph.degree(1) == n - 2 + graph.has_edge(0, 1)


def test_samplers_reject_bad_sizes():
    with pytest.raises(ValidationError):
        sample_gnp(0, 0.5, 1)
    with pytest.raises(ValidationError):
        sample_gnp(-3, 0.5, 1)
    with pytest.raises(ValidationError):
        _BatchCounter(star(2), 0)
    with pytest.raises(ValidationError):
        _BatchCounter(star(2), -1)
    # A planted draw holds no per-pair array, so it has no dense size limit.
    graph = sample_inhom(EdgeProbabilityMatrix.planted(4001, 0.001, hubs=[0]), 1)
    assert graph.vertex_count == 4001 and graph.degree(0) == 4000


def test_pinned_estimator_outputs():
    est = estimate_tail_direct(star(2), 40, 0.05, 321, 20000, 0)
    assert (est.point, est.extras["accepted"]) == (0.0027, 54)
    assert estimate_tail_direct(clique(3), 12, 0.3, 60, 3000, 3).extras["accepted"] == 474
    est = estimate_tail_importance(star(2), 6, 0.2, 50, _hub(6), 20000, 5)
    assert est.point == 9.888981416664378e-05
    assert est.extras["effective_samples"] == 238.33715693662754
    out = conditioned_structure_frequency(star(2), 40, 0.05, 1.0, 8, 160000, 0, min_accepted=160000)
    got = (out.accepted, out.freq_conditioned, out.freq_unconditioned)
    assert got == (418, 0.42822966507177035, 0.0229875)
    counts = count_samples(star(2), EdgeProbabilityMatrix.constant(30, 0.3), 4000, 5)
    assert int(counts.sum()) == 8_749_158
    fit = poisson_fit_experiment(clique(3), 200, 18 ** (1 / 3) / 200, 10000, 0)
    assert (fit.mean, fit.tv_distance) == (2.9281, 0.02736365843603086)


def test_pinned_chunked_outputs():
    # Each replica of these runs is counted in several batches; a replica's
    # conditioned tally and importance sums do not depend on the batching.
    out = conditioned_structure_frequency(
        star(2), 70, 0.04, 0.5, 9, 12000, 1, min_accepted=12000, pilot=5000)
    got = (out.accepted, out.freq_conditioned, out.freq_unconditioned)
    assert got == (103, 0.5048543689320388, 0.10825)
    out = conditioned_structure_frequency(
        clique(3), 130, 0.05, 0.5, 15, 3000, 2, min_accepted=3000, pilot=1500)
    got = (out.accepted, out.freq_conditioned, out.freq_unconditioned)
    assert got == (30, 0.6333333333333333, 0.24666666666666667)
    est = estimate_tail_importance(star(2), 70, 0.04, 700,
                                   EdgeProbabilityMatrix.planting("hub:2:0.1", 70, 0.04), 8000, 4,
                                   replicas=1)
    assert (est.point, est.extras["accepted"]) == (0.04856418925352156, 2640)
    assert est.extras["effective_samples"] == 92.53033753900361
    threshold = threshold_for(3, star(2), 40, 0.05)
    est = estimate_tail_importance(star(2), 40, 0.05, threshold,
                                   EdgeProbabilityMatrix.planting("hub:1:0.5", 40, 0.05), 20000, 3)
    assert (est.point, est.extras["accepted"]) == (8.206881566416719e-14, 6529)


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_working_set_stays_small():
    # A batch's arrays stay near 64 KB, so the heap recycles them; with
    # 4,096-graph batches these runs peaked at 13.9 MB and 9.4 MB.
    peak = _traced_peak_mb(lambda: poisson_fit_experiment(clique(3), 200, 18 ** (1 / 3) / 200, 10000, 0))
    assert peak < 2, peak
    peak = _traced_peak_mb(lambda: conditioned_structure_frequency(
        star(2), 40, 0.05, 1.0, 8, 160000, 0, min_accepted=160000))
    assert peak < 2, peak
    # The direct estimator holds one replica's counts (62,500 here), not
    # every sample's: this run peaked at 31.3 MB when it held all 2,000,000.
    accepted = []
    peak = _traced_peak_mb(lambda: accepted.append(
        estimate_tail_direct(star(2), 5, 0.3, 8, 2_000_000, 1).extras["accepted"]))
    assert peak < 4 and accepted == [567_996], (peak, accepted)


# Runs the CLI, then reports the process's own peak RSS on stderr.  The
# ru_maxrss that wait4 returns for a child also counts its parent's peak,
# which the child inherits across fork and exec.
_LAUNCHER = """
import sys
from uppertail.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _run_child(argv):
    """Run the CLI in a child process; return its exit code, its own peak RSS
    in MB, its stdout and the stderr lines before the peak."""
    env = {k: v for k, v in os.environ.items() if k != "UPPERTAIL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *argv], capture_output=True, text=True, env=env
    )
    *lines, peak = child.stderr.splitlines()  # "VmHWM:  123456 kB"
    return child.returncode, int(peak.split()[1]) / 1024, child.stdout, lines


def _peak_rss_mb(argv):
    """The child's own peak RSS in MB and its result."""
    code, peak_mb, stdout, lines = _run_child(argv)
    assert code == 0, lines
    return peak_mb, json.loads(stdout)["result"]


@pytest.mark.child_process
def test_peak_rss_is_the_childs_own():
    # About 300 MB held here must not show in a small child's peak.
    ballast = np.ones(300 * 2**20 // 8)
    peak_mb, result = _peak_rss_mb(["analyze-pattern", "cycle:4"])
    assert result["v"] == 4 and ballast.sum() == len(ballast)
    assert peak_mb < 150, peak_mb


@pytest.mark.child_process
def test_large_n_tail_memory():
    # A whole-budget batch at n = 2000 would hold 64 x 1,999,000 pair slots;
    # batches sized by the pair count stay far below that.
    argv = ["tail", "--pattern", "star:2", "--n", "2000", "--p", "0.001", "--delta", "1",
            "--samples", "64", "--replicas", "1", "--threads", "1"]
    peak_mb, result = _peak_rss_mb(argv)
    assert result["samples"] == 64
    assert peak_mb < 400, peak_mb


@pytest.mark.child_process
def test_dense_triangle_tail_memory():
    # Four graphs of G(1000, 0.5) hold about a million edges, drawn and
    # counted one graph a batch: a few int64 arrays of 2 MB each; a graph's
    # bit rows take 128 KB, and the gathered words are counted in 64 KB
    # chunks.  A (batch, n, n) tensor of one byte per pair
    # would add 64 MB, and uint64 words per pair 512 MB.
    argv = ["tail", "--pattern", "clique:3", "--n", "1000", "--p", "0.5", "--delta", "0",
            "--samples", "4", "--replicas", "1", "--threads", "1"]
    peak_mb, result = _peak_rss_mb(argv)
    assert result["samples"] == 4
    assert peak_mb < 250, peak_mb


@pytest.mark.child_process
def test_too_many_vertex_pairs_is_refused_up_front():
    # n = 10^6 has 5 * 10^11 vertex pairs: the pair tables alone would take
    # 3.64 TiB.  The run is refused before any table is built.
    argv = ["tail", "--pattern", "star:2", "--n", "1000000", "--p", "1e-6", "--delta", "1",
            "--samples", "1", "--replicas", "1", "--threads", "1"]
    code, peak_mb, stdout, lines = _run_child(argv)
    assert (code, stdout) == (3, "")
    assert lines == [f"resource error: n = 1000000 has 499999500000 vertex pairs; "
                     f"a sampled run holds at most {MAX_PAIRS} (n up to 10,000)"]
    assert peak_mb < 150, peak_mb
    assert _pair_count(10_000) <= MAX_PAIRS < _pair_count(10_001)


@pytest.mark.child_process
def test_count_graph_file_memory(tmp_path):
    # G(2000, 0.5) as a file: about 10^6 edges in 8.9 MB of text.  The
    # neighbour sets are the one structure that must scale with the edges;
    # the file is parsed in blocks, never held as lines or string pairs.
    n = 2000
    rng = np.random.default_rng(2000)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < 0.5
    edges = np.column_stack([u[keep], v[keep]])
    graph = tmp_path / "g.txt"
    np.savetxt(graph, edges, fmt="%d", header=f"n {n}", comments="")
    del u, v, keep
    peak_mb, result = _peak_rss_mb(["count", "--pattern", "path:2", "--graph", str(graph)])
    assert result["count"] == 2 * len(edges)
    assert peak_mb < 200, peak_mb
