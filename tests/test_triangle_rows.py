"""The triangle counter of ``_BatchCounter`` against the one it replaced.

The former counter built a fresh bit-row table for every batch and
intersected the rows of every edge; it is kept here, verbatim, as the
oracle.  The current one keeps one table for all its batches, clears only
the words a batch set, and intersects only the edges that can close a
triangle; its counts must match on one-word and multi-word rows, sparse and
dense, at every batch size, and the table must come back zeroed after every
batch.
"""

import numpy as np
import pytest

from uppertail.graphs import clique
from uppertail.meanfield import EdgeProbabilityMatrix
from uppertail.montecarlo import (
    _BATCH_ITEMS,
    EdgeBatch,
    _BatchCounter,
    _measure_draws,
    _replica_rng,
    count_samples,
)


def oracle_triangle_counts(self, batch: EdgeBatch) -> np.ndarray:
    """Labelled triangle counts of the graphs of a batch.

    Row g*n + a holds a's later neighbours in graph g as packed uint64
    words, so a triangle a < b < c is seen once, from its edge (a, b),
    and has 6 labellings.  The edges come in row order, so the rows are
    built by one ``bitwise_or.reduceat`` over runs of equal words.
    """
    n, graph, pair, size = self.n, batch.graph, batch.pair, batch.size
    words = (n + 63) >> 6
    a, b = np.take(self.pair_u, pair), np.take(self.pair_v, pair)
    row_a = graph * n + a
    row_b = graph * n + b
    word = row_a * words + (b >> 6)
    rows = np.zeros(size * n * words, dtype=np.uint64)
    if len(word):
        runs = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
        bits = np.left_shift(np.uint64(1), (b & 63).astype(np.uint64))
        rows[word[runs]] = np.bitwise_or.reduceat(bits, runs)
    rows = rows.reshape(size * n, words)
    per_edge = np.zeros(len(pair), dtype=np.int64)
    chunk = max(1, _BATCH_ITEMS // words)
    for lo in range(0, len(pair), chunk):
        common = np.take(rows, row_a[lo : lo + chunk], axis=0)
        common &= np.take(rows, row_b[lo : lo + chunk], axis=0)
        ones = np.bitwise_count(common)
        acc = per_edge[lo : lo + chunk]
        for w in range(words):
            acc += ones[:, w]
    ends = np.searchsorted(graph, np.arange(size + 1))
    return 6 * np.diff(np.concatenate(([0], np.cumsum(per_edge)))[ends])


# (n, p, graphs): one-word rows (n <= 64) and multi-word rows, each at a
# sparse point near one triangle a graph and at a dense one.
POINTS = [
    (9, 0.3, 200), (9, 0.9, 100),
    (40, 0.05, 300), (40, 0.5, 60),
    (130, 0.03, 100), (130, 0.3, 12),
    (200, 18 ** (1 / 3) / 200, 120), (200, 0.2, 8),
    (300, 0.01, 60), (300, 0.3, 4),
]


def _check_batches(counter, xi, graphs, rows, seed):
    """Every batch of ``graphs`` draws from xi, ``rows`` a batch, counted on
    the counter's own table and by the oracle; returns the counts."""
    out = []
    for batch in _measure_draws(_replica_rng(seed, 0), xi, graphs, rows):
        got = counter.counts(batch)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle_triangle_counts(counter, batch))
        assert not counter.bits.any()  # the words the batch set are zeroed again
        out.append(got)
    return np.concatenate(out)


@pytest.mark.parametrize("n, p, graphs", POINTS, ids=[f"n{n}-p{p:.3g}" for n, p, _ in POINTS])
def test_counts_match_the_fresh_table_oracle(n, p, graphs):
    counter = _BatchCounter(clique(3), n)
    xi = EdgeProbabilityMatrix.constant(n, p)
    rule = counter.rows(xi)
    want = None
    # The batches grow, past the rule where graphs > rule, and the table
    # with them; the last, smaller batches run on the grown table.
    for rows in [*sorted({1, 3, 7, rule, graphs}), 3]:
        got = _check_batches(counter, xi, graphs, rows, seed=n)
        assert want is None or np.array_equal(got, want)  # batching changes no count
        want = got
    assert len(counter.bits) == graphs * n * ((n + 63) >> 6)
    assert want.sum() > 0


def test_planted_draws_match_the_oracle():
    # A probability-1 hub makes every edge at it close triangles.
    counter = _BatchCounter(clique(3), 70)
    xi = EdgeProbabilityMatrix.planted(70, 0.05, hubs=[3], boosted=0, boosted_value=0.6)
    got = _check_batches(counter, xi, 150, counter.rows(xi), seed=5)
    assert (got > 0).all()


@pytest.mark.parametrize("n", [9, 130])
def test_batches_without_edges(n):
    counter = _BatchCounter(clique(3), n)
    empty = np.empty(0, dtype=np.int64)
    assert counter.counts(EdgeBatch(empty, empty, 4)).tolist() == [0, 0, 0, 0]
    assert counter.counts(EdgeBatch(empty, empty, 0)).tolist() == []
    assert counter.counts(EdgeBatch(empty, empty, 3)).tolist() == [0, 0, 0]
    # Graph 2 of 4 is complete and the others are empty; then one triangle
    # alone, in graph 3.
    pairs = np.arange(n * (n - 1) // 2, dtype=np.int64)
    full = EdgeBatch(np.full(len(pairs), 2, dtype=np.int64), pairs, 4)
    assert counter.counts(full).tolist() == [0, 0, n * (n - 1) * (n - 2), 0]
    assert not counter.bits.any()
    one = EdgeBatch(np.array([3, 3, 3]), np.array([0, 1, n - 1]), 4)  # (0, 1), (0, 2), (1, 2)
    assert counter.counts(one).tolist() == [0, 0, 0, 6]
    assert np.array_equal(counter.counts(one), oracle_triangle_counts(counter, one))
    assert not counter.bits.any()


def test_one_table_serves_every_replica():
    # The 32 replicas of one run count on one counter's table, each batch
    # leaving it zeroed for the next.
    xi = EdgeProbabilityMatrix.constant(200, 0.0131)
    got = count_samples(clique(3), xi, 2000, 11)
    assert got.sum() > 0
    counter = _BatchCounter(clique(3), 200)
    want = np.concatenate([
        oracle_triangle_counts(counter, batch)
        for replica, m in enumerate([63] * 16 + [62] * 16)
        for batch in _measure_draws(_replica_rng(11, replica), xi, m, counter.rows(xi))
    ])
    assert np.array_equal(got, want)
