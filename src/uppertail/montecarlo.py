"""Sampling, exact small-n tail oracles, and tail estimators.

Randomness comes from counter-based Philox streams keyed by (master seed,
replica index), so every estimate is bit-identical across reruns and
independent of how replicas are scheduled; acceptance counters are integers
and float partials are reduced in replica order.

Every random graph comes from ``_present_slots``: geometric skipping over
the pair slots of all of a replica's graphs, thinned when the probabilities
differ per pair.  ``_draws`` cuts that stream into batches, each a sparse
list of (graph, pair) edges, and a replica's edges do not depend on how its
draws are batched.  ``sample_gnp`` and ``sample_inhom`` return the first
graph of replica 0.  Every Monte Carlo estimator draws batches of
max(1, min(4096, 8_000_000 // n_pairs)) graphs and counts them through one
``_BatchCounter``.  Labelled counts come from the first path that applies:
the table of copy masks in K_n (n <= 6), degree falling factorials for
stars, packed uint64 bit rows for triangles (at most about 2 MB per batch),
and the generic backtracking counter.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ResourceBudgetError, ValidationError
from .graphs import HostGraph, PatternGraph, is_connected, is_strictly_balanced, star, star_arms
from .counting import _copy_edge_sets, count_labelled, automorphism_count
from .meanfield import EdgeProbabilityMatrix

EXACT_TAIL_MAX_N = 6
# A batched run keeps tables of both endpoints of every vertex pair, 16 bytes
# a pair and more while they are built: above this many pairs (n > 10,000)
# it is refused before any table exists.
MAX_PAIRS = 50_000_000
DEFAULT_REPLICAS = 32


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
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, replica))))


def _chunk_sizes(total: int, replicas: int) -> list[int]:
    if total < 1:
        raise ValidationError("need at least one sample")
    if replicas < 1:
        raise ValidationError("need at least one replica")
    base, extra = divmod(total, replicas)
    return [base + (1 if i < extra else 0) for i in range(replicas)]


def _map_replicas(worker: Callable[[int, int], object], sizes: Sequence[int], threads: int = 1) -> list:
    """Run worker(replica_index, chunk_size) for each replica; results are
    returned in replica order regardless of scheduling."""
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    jobs = [(i, m) for i, m in enumerate(sizes) if m > 0]
    if threads == 1 or len(jobs) <= 1:
        return [worker(i, m) for i, m in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, i, m) for i, m in jobs]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _pair_count(n: int) -> int:
    if n < 1:
        raise ValidationError(f"need at least one vertex, got n = {n}")
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


_SKIP_BLOCK = 1 << 16


class EdgeBatch(NamedTuple):
    """The edges of ``size`` graphs as int64 arrays sorted by (graph, pair):
    ``graph`` numbers the graphs of the batch from 0 and ``pair`` indexes
    vertex pairs in ``_pair_arrays`` order."""

    graph: np.ndarray
    pair: np.ndarray
    size: int


def _present_slots(rng: np.random.Generator, probs, n_pairs: int, total: int):
    """Present slots, in increasing order, of a stream of ``total`` slots in
    which slot s is pair s % n_pairs of graph s // n_pairs.

    Yields ``(slots, decided)`` block by block; every slot below ``decided``
    is settled.  Candidates come from geometric skipping at the largest
    probability q: the gap to the next candidate is 1 + floor(E / -log(1-q))
    for a standard exponential E, so P(gap > k) = (1-q)^k.  With unequal
    probabilities per pair, each candidate is kept with probability
    probs[pair] / q, by a uniform drawn in lockstep with its gap.  The
    block size depends only on ``probs`` and ``total``, so the slots do not
    depend on how a caller batches them.
    """
    probs = np.asarray(probs, dtype=float)
    top = min(float(probs.max(initial=0.0)), 1.0)
    if top <= 0.0:
        yield np.empty(0, dtype=np.int64), total
        return
    ratio = probs / top if probs.min() < top else None  # equal probabilities need no thinning
    scale = -1.0 / math.log1p(-top) if top < 1.0 else 0.0
    size = int(min(_SKIP_BLOCK, total * top * 1.1 + 64))
    decided = 0
    while decided < total:
        gaps = rng.standard_exponential(size)
        gaps *= scale
        np.minimum(gaps, total, out=gaps)  # keeps the running sum in int64
        slots = np.cumsum(gaps.astype(np.int64) + 1) + (decided - 1)
        decided = int(slots[-1]) + 1
        slots = slots[: np.searchsorted(slots, total)]
        if ratio is not None:
            keep = rng.random(size)[: len(slots)] < ratio[slots % n_pairs]
            slots = slots[keep]
        yield slots, decided


def _draws(rng: np.random.Generator, probs, n_pairs: int, m: int, rows: int):
    """``EdgeBatch``es of at most ``rows`` graphs covering m graphs with
    independent edges; ``probs`` is one probability or one per pair.  The
    skip position carries across batches, so the graphs do not depend on
    ``rows``."""
    stream = _present_slots(rng, probs, n_pairs, m * n_pairs)
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


def _first_graph(n: int, probs, seed: int) -> HostGraph:
    """The graph of a one-graph draw from replica 0 of ``seed``.  With one
    probability for every pair it is graph 0 of any longer draw from that
    replica too; a thinned draw shares it only when its skip blocks are as
    long, which holds once one graph fills a block."""
    batch = next(_draws(_replica_rng(seed, 0), probs, _pair_count(n), 1, 1))
    u, v = _pair_endpoints(batch.pair, n)
    return HostGraph(n, zip(u.tolist(), v.tolist()))


def sample_gnp(n: int, p: float, seed: int) -> HostGraph:
    """One binomial random graph; deterministic given the seed."""
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    return _first_graph(n, p, seed)


def sample_inhom(xi: EdgeProbabilityMatrix, seed: int) -> HostGraph:
    """One graph with independent edges at the matrix's probabilities; a
    structured matrix is refused above ``meanfield.DENSE_LIMIT`` vertices."""
    return _first_graph(xi.n, xi.to_dense()[_pair_arrays(xi.n)], seed)


class _BatchCounter:
    """Counts a pattern in each graph of batches of graphs on n vertices.

    A batch is an ``EdgeBatch`` of at most ``rows`` graphs, as ``_draws``
    yields it.  The counter
    holds no state beyond its tables, so replica threads share one instance.
    """

    def __init__(self, pattern: PatternGraph, n: int):
        if _pair_count(n) > MAX_PAIRS:
            raise ResourceBudgetError(
                f"n = {n} has {_pair_count(n)} vertex pairs; a sampled run holds at most "
                f"{MAX_PAIRS} (n up to 10,000)")
        self.pattern = pattern
        self.n = n
        self.pair_u, self.pair_v = _pair_arrays(n)
        self.rows = max(1, min(4096, 8_000_000 // max(len(self.pair_u), 1)))
        self.masks = None
        if n <= EXACT_TAIL_MAX_N:
            # Each copy of the pattern in K_n as a bitmask over the pairs.
            index = {e: i for i, e in enumerate(zip(self.pair_u.tolist(), self.pair_v.tolist()))}
            copies = _copy_edge_sets(pattern, HostGraph.complete(n), None)
            self.masks = [sum(1 << index[e] for e in edge_set) for edge_set in copies]
            # Labelled maps per contained copy: the labelled count in K_n
            # (every injection) over the copies, which share it by symmetry.
            self.weight = math.perm(n, pattern.vertex_count) // len(copies) if copies else 0
            self.pair_bits = np.ldexp(1.0, np.arange(len(self.pair_u)))  # exact below 2^53
        r = star_arms(pattern)
        self.star_arms = r if r is not None and n ** (r + 1) < 2**62 else None
        self.triangle = pattern.vertex_count == 3 and pattern.edge_count == 3

    def sample_counts(self, rng: np.random.Generator, probs, m: int) -> np.ndarray:
        """Labelled counts of m graphs drawn by ``_draws``."""
        batches = _draws(rng, probs, len(self.pair_u), m, self.rows)
        return np.concatenate([self.counts(batch) for batch in batches])

    def degrees(self, batch: EdgeBatch) -> np.ndarray:
        """Degree matrix of a batch, one row per graph."""
        offset, cells = batch.graph * self.n, batch.size * self.n
        low = np.bincount(offset + np.take(self.pair_u, batch.pair), minlength=cells)
        high = np.bincount(offset + np.take(self.pair_v, batch.pair), minlength=cells)
        return (low + high).reshape(batch.size, self.n)

    def mask_counts(self, graphs: np.ndarray) -> np.ndarray:
        """Labelled counts of graphs given as pair bitmasks (n <= 6)."""
        contained = np.zeros(len(graphs), dtype=np.int64)
        for mask in self.masks:
            contained += (graphs & mask) == mask
        return contained * self.weight

    def counts(self, batch: EdgeBatch, degrees: Optional[np.ndarray] = None) -> np.ndarray:
        """Labelled counts of the pattern in each graph of a batch; a star
        reuses ``degrees`` when the caller already has them."""
        if self.masks is not None:
            bits = np.bincount(batch.graph, weights=self.pair_bits[batch.pair], minlength=batch.size)
            return self.mask_counts(bits.astype(np.int64))
        if self.star_arms is not None:
            deg = self.degrees(batch) if degrees is None else degrees
            value = np.ones_like(deg)
            for i in range(self.star_arms):
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
        n, (graph, pair, size) = self.n, batch
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
        chunk = max(1, (1 << 18) // words)  # about 2 MB of gathered words
        for lo in range(0, len(pair), chunk):
            common = np.take(rows, row_a[lo : lo + chunk], axis=0)
            common &= np.take(rows, row_b[lo : lo + chunk], axis=0)
            ones = np.bitwise_count(common)
            acc = per_edge[lo : lo + chunk]
            for w in range(words):
                acc += ones[:, w]
        ends = np.searchsorted(graph, np.arange(size + 1))
        return 6 * np.diff(np.concatenate(([0], np.cumsum(per_edge)))[ends])


def star_count_samples(
    xi: EdgeProbabilityMatrix,
    r: int,
    samples: int,
    seed: int,
    replicas: int = DEFAULT_REPLICAS,
    threads: int = 1,
) -> np.ndarray:
    """Labelled r-star counts of ``samples`` independent draws from xi."""
    n = xi.n
    if n ** (r + 1) >= 2**62:
        raise ValidationError("star counts would overflow 64-bit accumulation")
    counter = _BatchCounter(star(r), n)
    probs = xi.to_dense()[counter.pair_u, counter.pair_v]

    def worker(replica: int, m: int) -> np.ndarray:
        return counter.sample_counts(_replica_rng(seed, replica), probs, m)

    return np.concatenate(_map_replicas(worker, _chunk_sizes(samples, replicas), threads))


# ---------------------------------------------------------------------------
# Exact tail oracle (n <= 6)
# ---------------------------------------------------------------------------

def exact_tail(pattern: PatternGraph, n: int, p: float, threshold: int) -> TailEstimate:
    """P(N >= threshold) by summing over all labelled graphs on n vertices."""
    if n > EXACT_TAIL_MAX_N:
        raise ValidationError(f"exact tail enumeration capped at n = {EXACT_TAIL_MAX_N}")
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    counter = _BatchCounter(pattern, n)
    total_pairs = len(counter.pair_u)
    graphs = np.arange(1 << total_pairs, dtype=np.int64)
    labelled = counter.mask_counts(graphs)
    popcnt = np.bitwise_count(graphs)
    # Plain powers keep round cases exact (0^0 = 1 covers p in {0, 1}).
    weights = np.power(p, popcnt) * np.power(1.0 - p, total_pairs - popcnt)
    point = float(weights[labelled >= threshold].sum())
    return TailEstimate(point=min(point, 1.0), stderr=0.0, method="exact", samples=len(graphs), seed=0)


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
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    counter = _BatchCounter(pattern, n)

    def worker(replica: int, m: int) -> int:
        return int((counter.sample_counts(_replica_rng(seed, replica), p, m) >= threshold).sum())

    accepts = sum(_map_replicas(worker, _chunk_sizes(samples, replicas), threads))
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


@dataclass(frozen=True)
class Planting:
    """Importance-sampling proposal: which pairs get boosted and to what.

    ``hub``: all pairs touching the first ``size`` vertices; ``clique``: all
    pairs inside the first ``size`` vertices; ``highdeg``: one boosted row
    (hub of size 1); ``none``: no modification.  The boosted probability must
    stay strictly inside (0, 1) so the estimator remains unbiased for the
    background measure.
    """

    kind: str
    size: int = 0
    value: float = 0.8

    @classmethod
    def parse(cls, text: str) -> "Planting":
        parts = text.split(":")
        kind = parts[0]
        if kind == "none":
            return cls("none")
        try:
            if kind == "highdeg":
                value = float(parts[1]) if len(parts) > 1 else 0.8
                return cls("highdeg", 1, value)
            if kind in ("hub", "clique"):
                if len(parts) < 2:
                    raise ValidationError(f"{kind} planting needs a size, e.g. {kind}:2")
                size = int(parts[1])
                value = float(parts[2]) if len(parts) > 2 else 0.8
                if size < 1:
                    raise ValidationError(f"{kind} planting size must be at least 1")
                return cls(kind, size, value)
        except ValueError:
            raise ValidationError(f"malformed number in planting {text!r}") from None
        raise ValidationError(f"unknown planting {text!r}")

    def boosted_pair_mask(self, pair_u: np.ndarray, pair_v: np.ndarray) -> np.ndarray:
        if self.kind == "none":
            return np.zeros(len(pair_u), dtype=bool)
        if self.kind in ("hub", "highdeg"):
            k = self.size if self.kind == "hub" else 1
            return (pair_u < k) | (pair_v < k)
        if self.kind == "clique":
            return (pair_u < self.size) & (pair_v < self.size)
        raise ValidationError(f"unknown planting kind {self.kind!r}")


def estimate_tail_importance(
    pattern: PatternGraph,
    n: int,
    p: float,
    threshold: int,
    planting: Planting,
    samples: int,
    seed: int,
    replicas: int = DEFAULT_REPLICAS,
    threads: int = 1,
) -> TailEstimate:
    """Unbiased tail estimate from a tilted product measure.

    Samples come from the planting's probabilities; each sample is weighted
    by the likelihood ratio of the background measure against the proposal.
    Reports the effective sample size alongside the estimate.
    """
    if not 0 < p < 1:
        raise ValidationError("p must lie in (0, 1)")
    if planting.kind != "none" and not p <= planting.value < 1:
        raise ValidationError("planted probability must lie in [p, 1) for an unbiased estimator")
    if planting.size > n:
        raise ValidationError(f"planting size {planting.size} exceeds n = {n}")
    counter = _BatchCounter(pattern, n)
    boosted = planting.boosted_pair_mask(counter.pair_u, counter.pair_v)
    q = np.where(boosted, planting.value, p) if boosted.any() else p
    n_boosted = int(boosted.sum())
    log_hit = math.log(p / planting.value) if planting.kind != "none" else 0.0
    log_miss = (
        math.log((1 - p) / (1 - planting.value)) if planting.kind != "none" else 0.0
    )

    def worker(replica: int, m: int) -> tuple[float, float, float, float, int]:
        rng = _replica_rng(seed, replica)
        s1 = s2 = w1 = w2 = 0.0
        accepted = 0
        for batch in _draws(rng, q, len(counter.pair_u), m, counter.rows):
            counts = counter.counts(batch)
            hits = np.bincount(batch.graph[boosted[batch.pair]], minlength=batch.size)
            log_w = hits * log_hit + (n_boosted - hits) * log_miss
            w = np.exp(log_w)
            ind = counts >= threshold
            contrib = w * ind
            s1 += float(contrib.sum())
            s2 += float((contrib**2).sum())
            w1 += float(w.sum())
            w2 += float((w**2).sum())
            accepted += int(ind.sum())
        return s1, s2, w1, w2, accepted

    parts = _map_replicas(worker, _chunk_sizes(samples, replicas), threads)
    s1 = math.fsum(part[0] for part in parts)
    s2 = math.fsum(part[1] for part in parts)
    w1 = math.fsum(part[2] for part in parts)
    w2 = math.fsum(part[3] for part in parts)
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
    if not 0 <= delta < math.inf:
        raise ValidationError("delta must be nonnegative and finite")
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    return math.ceil((1 + delta) * n**pattern.vertex_count * p**pattern.edge_count)


# ---------------------------------------------------------------------------
# Conditioned-structure and Poisson experiments
# ---------------------------------------------------------------------------

class HighDegreeDetector:
    """Detector: does the graph have a vertex of degree >= threshold?"""

    def __init__(self, threshold: float):
        self.threshold = threshold

    def evaluate_degrees(self, degrees: np.ndarray) -> np.ndarray:
        return degrees.max(axis=1) >= self.threshold


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
    detector,
    samples: int,
    seed: int,
    min_accepted: int = 300,
    acceptance_floor: float = 1e-5,
    pilot: int = 50_000,
    threshold: Optional[int] = None,
) -> ConditionedFrequencies:
    """Rejection-sample the tail event and compare detector frequencies.

    A pilot run estimates the acceptance probability first; if it appears to
    be below the floor the run is refused: conditioned detector frequencies
    of events below the floor are not supported, and only the tail
    probability itself can be estimated, by ``estimate_tail_importance``
    (``tail --method importance``).  Sampling then continues until
    ``min_accepted`` conditioned samples or the sample budget is exhausted.
    ``threshold`` overrides the default ceil((1+delta) n^v p^e) count.  The
    detector maps a batch's degree matrix to one flag per graph
    (``evaluate_degrees``).  Each batch draws from a fresh replica stream.
    """
    if samples < 1:
        raise ValidationError("need at least one sample")
    if min_accepted < 0:
        raise ValidationError("min_accepted must be nonnegative")
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    if threshold is None:
        threshold = threshold_for(delta, pattern, n, p)
    counter = _BatchCounter(pattern, n)

    hits_cond = 0
    hits_all = 0
    accepted = 0
    drawn = 0
    replica = 0

    def run_batch(take):
        nonlocal hits_cond, hits_all, accepted, drawn, replica
        rng = _replica_rng(seed, replica)
        replica += 1
        for batch in _draws(rng, p, len(counter.pair_u), take, counter.rows):
            deg = counter.degrees(batch)
            flags = np.asarray(detector.evaluate_degrees(deg), dtype=bool)
            good = counter.counts(batch, deg) >= threshold
            hits_cond += int((flags & good).sum())
            hits_all += int(flags.sum())
            accepted += int(good.sum())
            drawn += batch.size

    pilot_budget = min(pilot, samples)
    while drawn < pilot_budget:
        run_batch(min(counter.rows, pilot_budget - drawn))
    acceptance_estimate = accepted / drawn if drawn else 0.0
    if acceptance_estimate < acceptance_floor:
        raise ResourceBudgetError(
            f"acceptance too rare (estimated {acceptance_estimate:.2e} from {drawn} pilot "
            f"samples, floor {acceptance_floor:.0e}); conditioned frequencies of events "
            "below the floor are not supported; estimate the tail probability with "
            "estimate_tail_importance (tail --method importance)"
        )
    while accepted < min_accepted and drawn < samples:
        run_batch(min(counter.rows, samples - drawn))
    return ConditionedFrequencies(
        freq_conditioned=hits_cond / accepted if accepted else 0.0,
        freq_unconditioned=hits_all / drawn,
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
    mean_window: tuple[float, float] = (0.5, 20.0),
) -> PoissonFit:
    """Total-variation distance between sampled unlabelled-copy counts and a
    Poisson law with the empirical mean.

    Requires a strictly balanced pattern with expected unlabelled count
    inside ``mean_window`` (the near-threshold regime where the count is
    approximately Poisson).
    """
    if not is_connected(pattern) or not is_strictly_balanced(pattern):
        raise ValidationError("pattern must be connected and strictly balanced")
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    if p == 0:
        return PoissonFit(tv_distance=0.0, mean=0.0, samples=samples)
    aut = automorphism_count(pattern)
    mu = n**pattern.vertex_count * p**pattern.edge_count / aut
    if not mean_window[0] <= mu <= mean_window[1]:
        raise ValidationError(
            f"expected unlabelled count {mu:.3g} outside window {mean_window}"
        )
    counter = _BatchCounter(pattern, n)

    def worker(replica: int, m: int) -> np.ndarray:
        return counter.sample_counts(_replica_rng(seed, replica), p, m)

    counts = np.concatenate(_map_replicas(worker, _chunk_sizes(samples, replicas), threads)) // aut
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
