"""Sampling, exact small-n tail oracles, and tail estimators.

Randomness comes from counter-based Philox streams keyed by (master seed,
replica index), so every estimate is bit-identical across reruns and
independent of how replicas are scheduled; acceptance counters are integers
and float partials are reduced in replica order.  Every estimator runs on one
replica map, ``_map_replicas``: it hands each replica's chunk of the samples
its stream and yields the replicas' results in order, drawing a replica only
as results are taken, so a run that stops early (the conditioned experiment)
draws the same replicas on any number of threads.

Every random graph comes from ``_present_slots``: geometric skipping at one
probability over the pair slots of all of a replica's graphs.  A graph with
independent edges at the probabilities of an ``EdgeProbabilityMatrix`` takes
one such stream for each distinct probability, over the pairs that hold it,
merged batch by batch.  ``_draws`` cuts a stream into batches, each a sparse
list of (graph, pair) edges, and a replica's edges do not depend on how its
draws are batched.  ``sample_gnp`` and ``sample_inhom`` return the first
graph of replica 0.  Every Monte Carlo estimator draws from an
``EdgeProbabilityMatrix`` (``constant(n, p)`` at one probability) and counts
its draws through one ``_BatchCounter``, in batches sized so that each holds
about ``_BATCH_ITEMS`` expected edges and at most ``_BATCH_ITEMS`` degree
cells or bit-row words: a batch's arrays stay near 64 KB, so the heap
recycles them instead of returning them to the system and faulting them
back in for the next batch.  Labelled counts come from
the first path that applies: for n <= 6, a table of the labelled count of
every graph on n vertices, indexed by its pair bitmask (``exact_tail``
sums over the same table); degree falling factorials for stars; packed
uint64 bit rows for triangles; and the generic backtracking counter.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import ResourceBudgetError, ValidationError, _check_range
from .graphs import HostGraph, PatternGraph, is_connected, is_strictly_balanced, star_arms
from .counting import _copy_edge_sets, count_labelled, automorphism_count
from .meanfield import EdgeProbabilityMatrix

EXACT_TAIL_MAX_N = 6
# A batched run keeps tables of both endpoints of every vertex pair, 16 bytes
# a pair and more while they are built: above this many pairs (n > 10,000)
# it is refused before any table exists.
MAX_PAIRS = 50_000_000
DEFAULT_REPLICAS = 32
# Conditioned detector frequencies are refused below this pilot acceptance.
ACCEPTANCE_FLOOR = 1e-5
# The expected unlabelled counts at which a copy count is near Poisson.
POISSON_MEAN_WINDOW = (0.5, 20.0)


@dataclass(frozen=True)
class TailEstimate:
    point: float
    stderr: float
    method: str  # "exact" | "direct" | "importance"
    samples: int
    seed: int
    extras: dict = field(default_factory=dict)


def _replica_rng(seed: int, replica: int) -> np.random.Generator:
    # Every sampler draws through here, so this is the one seed check.
    _check_range("seed", seed, "[0, inf)")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, replica))))


def _chunk_sizes(total: int, replicas: int) -> list[int]:
    _check_range("samples", total, "[1, inf)")
    _check_range("replicas", replicas, "[1, inf)")
    replicas = min(replicas, total)  # the rest would get empty chunks
    base, extra = divmod(total, replicas)
    return [base + (1 if i < extra else 0) for i in range(replicas)]


def _map_replicas(work: Callable[[np.random.Generator, int], object], samples: int, replicas: int,
                  seed: int, threads: int = 1) -> Iterator:
    """Yield work(rng, m) for each ``_chunk_sizes`` chunk of ``samples``, in
    replica order, with rng the chunk's replica stream ``_replica_rng(seed,
    i)``.  A chunk starts only when a result is asked for, at most one chunk
    per thread ahead of the results taken, so a caller that stops early
    leaves later replicas undrawn and its output does not depend on the
    thread count.  The pool holds at most one thread per replica and per
    core."""
    sizes = _chunk_sizes(samples, replicas)
    _check_range("threads", threads, "[1, inf)")
    jobs = ((_replica_rng(seed, i), m) for i, m in enumerate(sizes))
    workers = min(threads, len(sizes), os.cpu_count() or 1)
    if workers <= 1:
        for rng, m in jobs:
            yield work(rng, m)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for rng, m in jobs:
            ahead.append(pool.submit(work, rng, m))
            if len(ahead) == workers:
                yield ahead.popleft().result()
        for future in ahead:
            yield future.result()


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _pair_count(n: int) -> int:
    _check_range("n", n, "[1, inf)")
    return n * (n - 1) // 2


def _pair_endpoints(pair: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints u < v of pair indices; pairs are numbered row by row, (0, 1),
    (0, 2), ..., (1, 2), ..., so row u starts at u(2n - u - 1) / 2."""
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(offsets, pair, side="right") - 1
    return u, pair - offsets[u] + u + 1


def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    return _pair_endpoints(np.arange(_pair_count(n), dtype=np.int64), n)


# The working set of one batch, in int64 entries: expected edges, degree
# cells, bit-row words, and the skip block of a stream.
_BATCH_ITEMS = 1 << 13


class EdgeBatch(NamedTuple):
    """The edges of ``size`` graphs as int64 arrays sorted by (graph, pair):
    ``graph`` numbers the graphs of the batch from 0 and ``pair`` indexes
    vertex pairs in ``_pair_arrays`` order.  ``_measure_draws`` sets
    ``hits[i, g]`` to the edges of graph g at the i-th of its
    probabilities when it has several; a draw at one probability leaves
    ``hits`` None, since every edge is at that probability."""

    graph: np.ndarray
    pair: np.ndarray
    size: int
    hits: Optional[np.ndarray] = None


def _present_slots(rng: np.random.Generator, p: float, n_pairs: int, total: int):
    """Present slots, in increasing order, of a stream of ``total`` slots at
    probability p, in which slot s is pair s % n_pairs of graph s // n_pairs.

    Yields ``(slots, decided)`` block by block; every slot below ``decided``
    is settled.  Slots come from geometric skipping: the gap to the next
    present slot is 1 + floor(E / -log(1-p)) for a standard exponential E,
    so P(gap > k) = (1-p)^k.  The slots are the running sums of one stream
    of exponentials, so they do not depend on the block length, which is
    about one batch, nor on how a caller batches them.
    """
    top = min(float(p), 1.0)
    if top <= 0.0:
        yield np.empty(0, dtype=np.int64), total
        return
    scale = -1.0 / math.log1p(-top) if top < 1.0 else 0.0
    draws = np.empty(int(min(_BATCH_ITEMS, total * top * 1.1 + 64)))
    decided = 0
    while decided < total:
        rng.standard_exponential(out=draws)
        draws *= scale
        np.minimum(draws, total, out=draws)  # keeps the running sum in int64
        slots = draws.astype(np.int64)  # yielded as a view, so fresh for each block
        slots += 1
        slots[0] += decided - 1
        np.cumsum(slots, out=slots)
        decided = int(slots[-1]) + 1
        yield slots[: np.searchsorted(slots, total)], decided


def _draws(rng: np.random.Generator, p: float, n_pairs: int, m: int, rows: int):
    """``EdgeBatch``es of at most ``rows`` graphs covering m graphs of
    ``n_pairs`` pair slots, each present with probability p.  The skip
    position carries across batches, so the graphs do not depend on
    ``rows``.  A batch copies only its own slots, and one inside the
    pending block is a view of it, split in place."""
    stream = _present_slots(rng, p, n_pairs, m * n_pairs)
    pending, decided, done = np.empty(0, dtype=np.int64), 0, 0
    while done < m:
        take = min(m - done, rows)
        end = (done + take) * n_pairs
        parts = [pending]
        while decided < end:  # only the last block drawn reaches past the batch
            slots, decided = next(stream)
            parts.append(slots)
        cut = np.searchsorted(parts[-1], end)
        pending = parts[-1][cut:]
        parts[-1] = parts[-1][:cut]
        pair = np.concatenate(parts) if len(parts) > 1 else parts[0]
        pair -= done * n_pairs
        graph = pair // n_pairs
        pair -= graph * n_pairs
        yield EdgeBatch(graph, pair, take)
        done += take


def _level_rows(blocks: list) -> tuple:
    """(start, vertex, shift, column) for the slots of one probability of a
    matrix, its blocks laid end to end row by row: slot s of row i, from
    ``start[i]`` on, pairs ``vertex[i]`` with ``column[s - shift[i]]``.  A
    block (vertices of a, None) has rows a[i] with a[i + 1:], and a block
    (vertices of a, vertices of b) rows a[i] with all of b."""
    vertex, first, length, column, base = [], [], [], [], 0
    for a, b in blocks:
        inner = b is None
        vertex.append(a[:-1] if inner else a)
        first.append(base + (np.arange(1, len(a)) if inner else np.zeros(len(a), np.int64)))
        length.append(np.arange(len(a) - 1, 0, -1) if inner else np.full(len(a), len(b)))
        column.append(a if inner else b)
        base += len(column[-1])
    length, first = np.concatenate(length), np.concatenate(first)
    start = np.cumsum(length) - length
    return start, np.concatenate(vertex), start - first, np.concatenate(column)


def _measure_draws(rng: np.random.Generator, xi: EdgeProbabilityMatrix, m: int, rows: int):
    """``_draws`` of m graphs from ``xi``: one stream per distinct
    probability, over its own pairs, the lowest read from ``rng`` itself (so
    one probability is the constant stream) and the others from children of
    ``rng.spawn``.  Each batch merges the streams' edges by (graph, pair)
    and counts each graph's edges per probability in ``hits``; every stream
    carries its skip position across batches, so the graphs do not depend
    on ``rows``.  One probability yields the constant stream's batches as
    they are, without ``hits``."""
    n, levels = xi.n, xi.levels()
    n_pairs = _pair_count(n)
    if len(levels) <= 1:  # no levels at n = 1
        yield from _draws(rng, levels[0][0] if levels else 0.0, n_pairs, m, rows)
        return
    children = [rng, *rng.spawn(len(levels) - 1)]
    streams = [_draws(child, q, pairs, m, rows) for child, (q, pairs, _) in zip(children, levels)]
    layouts = [_level_rows(blocks) for _, _, blocks in levels]
    w = np.arange(n, dtype=np.int64)
    row_base = w * (2 * n - w - 1) // 2 - w - 1  # pair (u, v), u < v, is row_base[u] + v
    for parts in zip(*streams):
        keys = []
        for batch, (start, vertex, shift, column) in zip(parts, layouts):
            row = np.searchsorted(start, batch.pair, side="right") - 1
            u, v = vertex[row], column[batch.pair - shift[row]]
            keys.append(batch.graph * n_pairs + row_base[np.minimum(u, v)] + np.maximum(u, v))
        keys = np.concatenate(keys)
        keys.sort(kind="stable")  # a merge of sorted runs, one per stream
        graph = keys // n_pairs
        keys -= graph * n_pairs
        hits = np.stack([np.bincount(batch.graph, minlength=batch.size) for batch in parts])
        yield EdgeBatch(graph, keys, parts[0].size, hits)


def sample_gnp(n: int, p: float, seed: int) -> HostGraph:
    """One binomial random graph; deterministic given the seed."""
    return sample_inhom(EdgeProbabilityMatrix.constant(n, p), seed)


def sample_inhom(xi: EdgeProbabilityMatrix, seed: int) -> HostGraph:
    """One graph with independent edges at the matrix's probabilities: the
    graph of a one-graph draw from replica 0 of ``seed``, which is graph 0
    of any longer draw from that replica too."""
    batch = next(_measure_draws(_replica_rng(seed, 0), xi, 1, 1))
    u, v = _pair_endpoints(batch.pair, xi.n)
    return HostGraph(xi.n, zip(u.tolist(), v.tolist()))


class _BatchCounter:
    """Counts a pattern in each graph of batches of graphs on n vertices.

    A batch is an ``EdgeBatch`` of at most ``rows(xi)`` graphs drawn from an
    ``EdgeProbabilityMatrix``, as ``batches`` yields it.  The counter holds
    no state beyond its tables, so replica threads share one instance.
    """

    def __init__(self, pattern: PatternGraph, n: int):
        if _pair_count(n) > MAX_PAIRS:
            raise ResourceBudgetError(
                f"n = {n} has {_pair_count(n)} vertex pairs; a sampled run holds at most "
                f"{MAX_PAIRS} (n up to 10,000)")
        self.pattern = pattern
        self.n = n
        self.pair_u, self.pair_v = _pair_arrays(n)
        self.table = None
        if n <= EXACT_TAIL_MAX_N:
            self.table = self._count_table()
            self.pair_bits = np.ldexp(1.0, np.arange(len(self.pair_u)))  # exact below 2^53
        r = star_arms(pattern)
        self.star_arms = r if r is not None and n ** (r + 1) < 2**62 else None
        self.triangle = pattern.vertex_count == 3 and pattern.edge_count == 3

    def _count_table(self) -> np.ndarray:
        """Labelled counts of every graph on n vertices, indexed by the
        graph's bitmask over the pairs (2^15 entries at n = 6).

        A 1 at the mask of each copy of the pattern in K_n, summed over
        subsets one bit at a time, counts the copies inside each graph.
        Every contained copy carries the same number of labelled maps: the
        labelled count in K_n (every injection) over the copies."""
        bit = {e: i for i, e in enumerate(zip(self.pair_u.tolist(), self.pair_v.tolist()))}
        copies = _copy_edge_sets(self.pattern, HostGraph.complete(self.n), None)
        masks = np.array([sum(1 << bit[e] for e in edges) for edges in copies], dtype=np.int64)
        table = np.bincount(masks, minlength=1 << len(bit))
        for i in range(len(bit)):
            halves = table.reshape(-1, 2, 1 << i)  # masks without, then with, bit i
            halves[:, 1] += halves[:, 0]
        table *= math.perm(self.n, self.pattern.vertex_count) // len(copies) if copies else 0
        return table

    def rows(self, xi: EdgeProbabilityMatrix) -> int:
        """Graphs per batch of draws from ``xi``: about ``_BATCH_ITEMS``
        expected edges, and at most ``_BATCH_ITEMS`` degree cells, or bit-row
        words for triangles."""
        cells = self.n * ((self.n + 63) >> 6) if self.triangle else self.n
        per_graph = max(xi.expected_edges(), cells)
        return max(1, int(_BATCH_ITEMS // per_graph))

    def batches(self, rng: np.random.Generator, xi: EdgeProbabilityMatrix, m: int):
        """m graphs drawn from ``xi`` by ``_measure_draws``, ``rows(xi)``
        graphs a batch."""
        return _measure_draws(rng, xi, m, self.rows(xi))

    def degrees(self, batch: EdgeBatch) -> np.ndarray:
        """Degree matrix of a batch, one row per graph."""
        offset, cells = batch.graph * self.n, batch.size * self.n
        index = np.take(self.pair_u, batch.pair)
        index += offset
        deg = np.bincount(index, minlength=cells)
        np.take(self.pair_v, batch.pair, out=index)
        index += offset
        deg += np.bincount(index, minlength=cells)
        return deg.reshape(batch.size, self.n)

    def counts(self, batch: EdgeBatch, degrees: Optional[np.ndarray] = None) -> np.ndarray:
        """Labelled counts of the pattern in each graph of a batch; a star
        reuses ``degrees`` when the caller already has them."""
        if self.table is not None:
            bits = np.bincount(batch.graph, weights=self.pair_bits[batch.pair], minlength=batch.size)
            return self.table[bits.astype(np.int64)]
        if self.star_arms is not None:
            deg = self.degrees(batch) if degrees is None else degrees
            value = deg.copy()
            for i in range(1, self.star_arms):
                value *= deg - i
            return value.sum(axis=1)
        if self.triangle:
            return self._triangle_counts(batch)
        us, vs = self.pair_u[batch.pair].tolist(), self.pair_v[batch.pair].tolist()
        bounds = np.searchsorted(batch.graph, np.arange(batch.size + 1)).tolist()
        return np.array(
            [count_labelled(self.pattern, HostGraph(self.n, zip(us[lo:hi], vs[lo:hi])))
             for lo, hi in zip(bounds, bounds[1:])],
            dtype=np.int64,
        )

    def _triangle_counts(self, batch: EdgeBatch) -> np.ndarray:
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


def _replica_counts(
    pattern: PatternGraph,
    xi: EdgeProbabilityMatrix,
    samples: int,
    seed: int,
    replicas: int = DEFAULT_REPLICAS,
    threads: int = 1,
) -> Iterator[np.ndarray]:
    """Labelled counts of ``pattern`` in ``samples`` independent draws from
    xi, one array per replica, drawn as ``_map_replicas`` yields them."""
    counter = _BatchCounter(pattern, xi.n)

    def work(rng: np.random.Generator, m: int) -> np.ndarray:
        return np.concatenate([counter.counts(batch) for batch in counter.batches(rng, xi, m)])

    return _map_replicas(work, samples, replicas, seed, threads)


def count_samples(
    pattern: PatternGraph,
    xi: EdgeProbabilityMatrix,
    samples: int,
    seed: int,
    replicas: int = DEFAULT_REPLICAS,
    threads: int = 1,
) -> np.ndarray:
    """Labelled counts of ``pattern`` in ``samples`` independent draws from
    xi, in replica order."""
    return np.concatenate(list(_replica_counts(pattern, xi, samples, seed, replicas, threads)))


# ---------------------------------------------------------------------------
# Exact tail oracle (n <= 6)
# ---------------------------------------------------------------------------

def exact_tail(pattern: PatternGraph, n: int, p: float, threshold: int) -> TailEstimate:
    """P(N >= threshold) by summing over all labelled graphs on n vertices;
    exactly 1 when every graph meets the threshold, where the float sum of
    the weights can fall short of 1."""
    _check_range("n", n, f"[1, {EXACT_TAIL_MAX_N}]")
    _check_range("p", p, "[0, 1]")
    _check_range("threshold", threshold, "(-inf, inf)")
    counter = _BatchCounter(pattern, n)
    total_pairs = len(counter.pair_u)
    labelled = counter.table  # indexed by the graph's pair bitmask
    graphs = np.arange(len(labelled), dtype=np.int64)
    popcnt = np.bitwise_count(graphs)
    # Plain powers keep round cases exact (0^0 = 1 covers p in {0, 1}).
    weights = np.power(p, popcnt) * np.power(1.0 - p, total_pairs - popcnt)
    met = labelled >= threshold
    point = 1.0 if met.all() else min(float(weights[met].sum()), 1.0)
    return TailEstimate(point=point, stderr=0.0, method="exact", samples=len(graphs), seed=0)


# ---------------------------------------------------------------------------
# Direct and importance-sampled estimation
# ---------------------------------------------------------------------------

def estimate_tail_direct(
    pattern: PatternGraph,
    n: int,
    p: float,
    threshold: int,
    samples: int,
    seed: int,
    replicas: int = DEFAULT_REPLICAS,
    threads: int = 1,
) -> TailEstimate:
    """Empirical tail frequency with binomial standard error."""
    xi = EdgeProbabilityMatrix.constant(n, p)
    _check_range("threshold", threshold, "(-inf, inf)")
    accepts = sum(int((counts >= threshold).sum())
                  for counts in _replica_counts(pattern, xi, samples, seed, replicas, threads))
    point = accepts / samples
    stderr = math.sqrt(point * (1 - point) / samples)
    return TailEstimate(
        point=point,
        stderr=stderr,
        method="direct",
        samples=samples,
        seed=seed,
        extras={"accepted": accepts},
    )


def estimate_tail_importance(
    pattern: PatternGraph,
    n: int,
    p: float,
    threshold: int,
    proposal: EdgeProbabilityMatrix,
    samples: int,
    seed: int,
    replicas: int = DEFAULT_REPLICAS,
    threads: int = 1,
) -> TailEstimate:
    """Unbiased tail estimate from a tilted product measure.

    Samples come from ``proposal``, such as ``EdgeProbabilityMatrix.planting``
    builds; each sample is weighted by the likelihood ratio of the constant
    measure at p against the proposal, from its edge count at each of the
    proposal's probabilities.  Reports the effective sample size alongside
    the estimate.
    """
    if proposal.n != n:
        raise ValidationError(f"the proposal has {proposal.n} vertices, not n = {n}")
    _check_range("threshold", threshold, "(-inf, inf)")
    counter = _BatchCounter(pattern, n)  # refuses too many pairs before levels() sizes arrays by n
    for q, _, _ in proposal.levels():  # a weight needs q in (0, 1) to stay unbiased
        _check_range("proposal probability", q, "(0, 1)")
    slope, offset = proposal.log_likelihood_ratio(p)

    def work(rng: np.random.Generator, m: int) -> tuple[float, float, float, float, int]:
        weights, tails = [], []
        for batch in counter.batches(rng, proposal, m):
            hits = batch.hits
            if hits is None:  # one probability, or none at n = 1
                hits = np.bincount(batch.graph, minlength=batch.size)[None][: len(slope)]
            weights.append(np.exp(slope @ hits + offset))
            tails.append(counter.counts(batch) >= threshold)
        w, ind = np.concatenate(weights), np.concatenate(tails)
        contrib = w * ind
        return (*(float(x.sum()) for x in (contrib, contrib**2, w, w**2)), int(ind.sum()))

    parts = list(_map_replicas(work, samples, replicas, seed, threads))
    s1, s2, w1, w2 = (math.fsum(part[i] for part in parts) for i in range(4))
    accepted = sum(part[4] for part in parts)
    point = s1 / samples
    variance = max(s2 / samples - point**2, 0.0)
    ess = w1**2 / w2 if w2 > 0 else 0.0
    return TailEstimate(
        point=point,
        stderr=math.sqrt(variance / samples),
        method="importance",
        samples=samples,
        seed=seed,
        extras={"accepted": accepted, "effective_samples": ess, "mean_weight": w1 / samples},
    )


def threshold_for(delta: float, pattern: PatternGraph, n: int, p: float) -> int:
    """ceil((1 + delta) n^v p^e): the tail threshold as an explicit count."""
    _check_range("delta", delta, "[0, inf)")
    _check_range("p", p, "[0, 1]")
    try:
        count = (1 + delta) * n**pattern.vertex_count * p**pattern.edge_count
    except OverflowError:  # n^v beyond the float range
        count = math.inf
    if not math.isfinite(count):
        raise ValidationError(f"the threshold (1 + delta) n^v p^e is not finite at delta = {delta!r}")
    return math.ceil(count)


# ---------------------------------------------------------------------------
# Conditioned-structure and Poisson experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionedFrequencies:
    freq_conditioned: float
    freq_unconditioned: float
    accepted: int
    samples: int
    acceptance: float


def conditioned_structure_frequency(
    pattern: PatternGraph,
    n: int,
    p: float,
    delta: float,
    degree_threshold: float,
    samples: int,
    seed: int,
    min_accepted: int = 300,
    pilot: int = 50_000,
    threshold: Optional[int] = None,
    replicas: int = DEFAULT_REPLICAS,
    threads: int = 1,
) -> ConditionedFrequencies:
    """Rejection-sample the tail event and compare the frequencies of a
    vertex of degree at least ``degree_threshold`` with and without it.

    Replicas are tallied in order.  Once they cover min(pilot, samples)
    draws, the acceptance they show is checked: below ``ACCEPTANCE_FLOOR``
    the run is refused, since conditioned detector frequencies of events
    below the floor are not supported, and only the tail probability itself
    can be estimated, by ``estimate_tail_importance`` (``tail --method
    importance``).  The run then stops after the first replica that brings
    the conditioned samples to ``min_accepted``, or when the sample budget
    is exhausted.  ``threshold`` overrides the default ceil((1+delta) n^v
    p^e) count.
    """
    _check_range("min_accepted", min_accepted, "[0, inf)")
    _check_range("degree_threshold", degree_threshold, "(-inf, inf)")
    if threshold is None:
        threshold = threshold_for(delta, pattern, n, p)
    _check_range("threshold", threshold, "(-inf, inf)")
    counter = _BatchCounter(pattern, n)
    xi = EdgeProbabilityMatrix.constant(n, p)

    def work(rng: np.random.Generator, m: int) -> np.ndarray:
        tally = np.zeros(4, dtype=np.int64)  # both, flagged, accepted, drawn
        for batch in counter.batches(rng, xi, m):
            deg = counter.degrees(batch)
            flags = deg.max(axis=1) >= degree_threshold
            good = counter.counts(batch, deg) >= threshold
            tally += ((flags & good).sum(), flags.sum(), good.sum(), batch.size)
        return tally

    pilot = min(pilot, samples)
    tally = np.zeros(4, dtype=np.int64)
    for part in _map_replicas(work, samples, replicas, seed, threads):
        before = int(tally[3])
        tally += part
        both, flagged, accepted, drawn = tally.tolist()
        if before < pilot <= drawn and accepted / drawn < ACCEPTANCE_FLOOR:
            raise ResourceBudgetError(
                f"acceptance too rare (estimated {accepted / drawn:.2e} from {drawn} pilot "
                f"samples, floor {ACCEPTANCE_FLOOR:.0e}); conditioned frequencies of events "
                "below the floor are not supported; estimate the tail probability with "
                "estimate_tail_importance (tail --method importance)"
            )
        if drawn >= pilot and accepted >= min_accepted:
            break
    return ConditionedFrequencies(
        freq_conditioned=both / accepted if accepted else 0.0,
        freq_unconditioned=flagged / drawn,
        accepted=accepted,
        samples=drawn,
        acceptance=accepted / drawn,
    )


@dataclass(frozen=True)
class PoissonFit:
    tv_distance: float
    mean: float
    samples: int


def poisson_fit_experiment(
    pattern: PatternGraph,
    n: int,
    p: float,
    samples: int,
    seed: int,
    replicas: int = DEFAULT_REPLICAS,
    threads: int = 1,
) -> PoissonFit:
    """Total-variation distance between sampled unlabelled-copy counts and a
    Poisson law with the empirical mean.

    Requires a strictly balanced pattern with expected unlabelled count
    inside ``POISSON_MEAN_WINDOW`` (the near-threshold regime where the count
    is approximately Poisson).
    """
    if not is_connected(pattern) or not is_strictly_balanced(pattern):
        raise ValidationError("pattern must be connected and strictly balanced")
    xi = EdgeProbabilityMatrix.constant(n, p)
    aut = automorphism_count(pattern)
    mu = n**pattern.vertex_count * p**pattern.edge_count / aut
    if p > 0 and not POISSON_MEAN_WINDOW[0] <= mu <= POISSON_MEAN_WINDOW[1]:
        raise ValidationError(
            f"expected unlabelled count {mu:.3g} outside window {POISSON_MEAN_WINDOW}"
        )
    counts = count_samples(pattern, xi, samples, seed, replicas, threads) // aut
    mean = float(counts.mean())
    values, freq = np.unique(counts, return_counts=True)
    empirical = freq / samples
    if mean == 0.0:
        poisson = np.where(values == 0, 1.0, 0.0)
    else:
        log_pmf = values * math.log(mean) - mean - np.array(
            [math.lgamma(int(k) + 1) for k in values]
        )
        poisson = np.exp(log_pmf)
    tv = 0.5 * float(np.abs(empirical - poisson).sum())
    return PoissonFit(tv_distance=tv, mean=mean, samples=samples)
