"""Naive mean-field objects for the upper tail.

A product Bernoulli law on edges is summarized by its matrix of edge
probabilities.  The relative-entropy cost of tilting p to a matrix xi, the
exact expected count and variance of a pattern's count (of stars in closed
form) under xi, the planted star near-optimizer, a restricted variational
bound for stars and the planted hub-or-clique scan live here.

A matrix is stored by blocks, its one form: a few vertex classes and one
probability per pair of classes.  Its cost, expected edge and star counts
and likelihood ratio are sums over class pairs, and the mean and variance
of any small pattern's count are sums over the maps from vertices to
classes, which is what makes n around 10^6 feasible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError, _check_range
from .graphs import PATTERN_VERTEX_CAP, PatternGraph, star

VARIANCE_VERTEX_CAP = 4  # two copies glue in 209 ways at v = 4, 1,546 at v = 5


def _class_pairs(sizes: list, probs: list):
    """(a, b, vertex pairs, probability) for each pair of classes a <= b
    that holds a vertex pair, for classes of ``sizes`` joined at ``probs``."""
    for a, s in enumerate(sizes):
        for b in range(a, len(sizes)):
            pairs = s * (s - 1) // 2 if a == b else s * sizes[b]
            if pairs:
                yield a, b, pairs, probs[a][b]


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


class EdgeProbabilityMatrix:
    """Symmetric matrix of edge probabilities with zero diagonal, constant
    on blocks.

    ``classes`` lists disjoint vertex sets, and the vertices in none of them
    form one last class; two distinct vertices in classes a and b are joined
    with probability ``probs[a, b]``.  ``hubs`` and ``boosted`` record the
    hub set and boosted vertex a ``planted`` matrix was built from.
    """

    __slots__ = ("n", "classes", "probs", "sizes", "hubs", "boosted", "_levels", "_rows")

    def __init__(self, n, classes, probs, hubs=frozenset(), boosted=None):
        self.n, self.hubs, self.boosted = int(n), frozenset(hubs), boosted
        self._levels = self._rows = None
        _check_range("n", self.n, "[1, inf)")
        self.classes = tuple(tuple(sorted(int(v) for v in c)) for c in classes)
        listed = set().union(*self.classes)
        if len(listed) < sum(map(len, self.classes)) or listed and not (
                0 <= min(listed) and max(listed) < self.n):
            raise ValidationError("need disjoint vertex classes below n")
        self.probs = np.asarray(probs, dtype=float)
        k, rows = len(self.classes) + 1, self.probs.tolist()
        if self.probs.shape != (k, k) or rows != [list(col) for col in zip(*rows)]:
            raise ValidationError(f"need a symmetric {k} x {k} array of class-pair probabilities")
        for q in itertools.chain(*rows):
            _check_range("edge probability", q, "[0, 1]")
        self.sizes = [len(c) for c in self.classes] + [self.n - len(listed)]

    @classmethod
    def constant(cls, n: int, p: float) -> "EdgeProbabilityMatrix":
        return cls(n, (), [[_check_range("p", p, "[0, 1]")]])

    @classmethod
    def planted(
        cls,
        n: int,
        p: float,
        hubs=(),
        boosted: Optional[int] = None,
        boosted_value: Optional[float] = None,
    ) -> "EdgeProbabilityMatrix":
        """Background p, every pair between a hub and a non-hub at 1, and
        every pair touching the boosted vertex at ``boosted_value``.  The
        classes are the boosted vertex, the hubs and the rest."""
        if boosted is not None and boosted_value is None:
            raise ValidationError("a boosted vertex needs a boosted value")
        _check_range("p", p, "[0, 1]")
        hubs = frozenset(int(h) for h in hubs)
        x = p if boosted is None else boosted_value
        return cls(n, ([] if boosted is None else [boosted], hubs),
                   [[x, x, x], [x, p, 1.0], [x, 1.0, p]], hubs=hubs, boosted=boosted)

    @classmethod
    def planting(cls, text: str, n: int, p: float) -> "EdgeProbabilityMatrix":
        """The importance-sampling proposal ``text`` names, over background p.

        ``hub:k[:q]``: every pair touching the first k vertices at q;
        ``clique:m[:q]``: every pair inside the first m vertices at q;
        ``highdeg[:q]``: ``hub:1[:q]``; ``none``: p itself.  q defaults to
        0.8, and q in [p, 1) keeps the estimator unbiased for the background
        measure.
        """
        kind, *parts = text.split(":")
        if kind == "none":
            return cls.constant(n, p)
        try:
            if kind == "highdeg":
                size, value = 1, float(parts[0]) if parts else 0.8
            elif kind in ("hub", "clique"):
                if not parts:
                    raise ValidationError(f"{kind} planting needs a size, e.g. {kind}:2")
                size, value = int(parts[0]), float(parts[1]) if len(parts) > 1 else 0.8
            else:
                raise ValidationError(f"unknown planting {text!r}")
        except ValueError:
            raise ValidationError(f"malformed number in planting {text!r}") from None
        _check_range("p", p, "[0, 1]")
        _check_range("planted probability", value, f"[{p}, 1)")
        _check_range("planting size", size, f"[1, {n}]")
        cross = p if kind == "clique" else value
        return cls(n, [range(size)], [[value, cross], [cross, p]])

    def _class_pairs(self):
        return _class_pairs(self.sizes, self.probs.tolist())

    def levels(self) -> tuple:
        """(q, vertex pairs, blocks) for each distinct probability q of a
        vertex pair, in increasing order of q; none at n = 1.  Its blocks
        are (vertices of a, None) for the pairs inside class a and
        (vertices of a, vertices of b) for those across classes a < b.
        Built on the first call and kept, since every draw reads them."""
        if self._levels is None:
            members = [np.array(c, dtype=np.int64) for c in self.classes]
            rest = np.ones(self.n, dtype=bool)
            for c in members:
                rest[c] = False
            members.append(np.flatnonzero(rest))
            levels = {}
            for a, b, pairs, q in self._class_pairs():
                level = levels.setdefault(q, [q, 0, []])
                level[1] += pairs
                level[2].append((members[a], None if a == b else members[b]))
            self._levels = tuple(tuple(levels[q]) for q in sorted(levels))
        return self._levels

    def level_rows(self) -> tuple:
        """``_level_rows`` of the blocks of each of ``levels()``: where the
        slots of each probability's stream land.  Built on the first call and
        kept, since every replica's draw reads them."""
        if self._rows is None:
            self._rows = tuple(_level_rows(blocks) for _, _, blocks in self.levels())
        return self._rows

    def expected_edges(self) -> float:
        return sum(pairs * q for _, _, pairs, q in self._class_pairs())

    def log_likelihood_ratio(self, p: float) -> tuple:
        """(a, c) such that log dP/dQ = a @ h + c, for P the constant measure
        at p and Q this matrix, of a graph with h[i] edges at the i-th of
        ``levels()``."""
        _check_range("p", p, "(0, 1)")
        q, pairs = np.array([level[:2] for level in self.levels()], dtype=float).reshape(-1, 2).T
        miss = np.log1p(-p) - np.log1p(-q)
        return np.log(p / q) - miss, float(miss @ pairs)


def bernoulli_relative_entropy(x: float, p: float) -> float:
    """I_p(x) = x log(x/p) + (1-x) log((1-x)/(1-p)), with 0 log 0 = 0."""
    _check_range("p", p, "(0, 1)")
    _check_range("x", x, "[0, 1]")
    total = 0.0
    if x > 0:
        total += x * math.log(x / p)
    if x < 1:
        total += (1 - x) * math.log((1 - x) / (1 - p))
    return total


def total_cost(xi: EdgeProbabilityMatrix, p: float) -> float:
    """Sum of entrywise relative entropies over unordered pairs."""
    _check_range("p", p, "(0, 1)")
    return sum(count * bernoulli_relative_entropy(q, p) for _, _, count, q in xi._class_pairs())


def _er_of_product(terms: list[tuple[float, int]], r: int) -> float:
    """Coefficient of t^r in the product of (1 + v t)^c over (v, c) terms."""
    coeffs = [0.0] * (r + 1)
    coeffs[0] = 1.0
    for value, count in terms:
        if count == 0:
            continue
        new = [0.0] * (r + 1)
        for j in range(r + 1):
            base = coeffs[j]
            if base == 0.0:
                continue
            top = min(r - j, count)
            power = 1.0
            for i in range(top + 1):
                new[j + i] += base * math.comb(count, i) * power
                power *= value
        coeffs = new
    return coeffs[r]


def expected_star_count_inhom(xi: EdgeProbabilityMatrix, r: int) -> float:
    """Exact expected labelled count of r-armed stars under the product law.

    Per row this is r! times the degree-r elementary symmetric polynomial of
    the row, in closed form over row classes.
    """
    return _star_count(xi.n, xi.sizes, xi.probs.tolist(), r)


def _star_count(n: int, sizes: list, probs: list, r: int) -> float:
    """``expected_star_count_inhom`` of the matrix on n vertices whose
    classes have ``sizes`` and are joined at ``probs`` (nested lists)."""
    _check_range("star arm count", r, "[2, 8]")
    levels = {q for _, _, _, q in _class_pairs(sizes, probs)}
    if len(levels) <= 1:
        # Constant background: n (n-1)...(n-r) p^r, kept in this exact
        # float expression so the closed form is reproducible bit-for-bit.
        p = levels.pop() if levels else 0.0
        return (p**r) * (n * math.perm(n - 1, r))
    total = 0.0
    for a, size in enumerate(sizes):
        row = {}  # the row of a vertex in class a: count per probability
        for b, other in enumerate(sizes):
            if size and other - (a == b):
                q = probs[a][b]
                row[q] = row.get(q, 0) + other - (a == b)
        total += size * _er_of_product(list(row.items()), r)
    return math.factorial(r) * total


def _class_map_sum(xi: EdgeProbabilityMatrix, graphs: list, term) -> float:
    """Sum of ``term`` over the injections into xi's vertices of each
    (vertex count, edge sets) graph in ``graphs``, given per edge set the
    product of the probabilities an injection puts on its edges.  That
    depends only on the map s from the graph's vertices to xi's classes,
    which carries prod_c (size_c)_(|s^-1(c)|) injections, kept per exponent
    vector of xi's distinct probabilities and summed in increasing exponent
    order: under a 0/1 planting over p a mean is sum_k c_k p^k, with c_k the
    injections that put k edges off the planting."""
    probs = xi.probs.tolist()
    levels = sorted({q for row in probs for q in row})
    index = [[levels.index(q) for q in row] for row in probs]
    weights: dict = {}
    for vertex_count in sorted({count for count, _ in graphs}):
        edge_sets = [sets for count, sets in graphs if count == vertex_count]
        for s in itertools.product(range(len(xi.sizes)), repeat=vertex_count):
            weight = math.prod(math.perm(size, s.count(c)) for c, size in enumerate(xi.sizes))
            if weight:
                for sets in edge_sets:
                    key = tuple(tuple(map([index[s[x]][s[y]] for x, y in edges].count,
                                          range(len(levels)))) for edges in sets)
                    weights[key] = weights.get(key, 0) + weight
    return float(sum(weights[key] * term(*(math.prod(map(pow, levels, powers)) for powers in key))
                     for key in sorted(weights)))


def expected_count_inhom(xi: EdgeProbabilityMatrix, pattern: PatternGraph) -> float:
    """Exact expected labelled count of ``pattern`` under the product law."""
    if pattern.vertex_count > PATTERN_VERTEX_CAP:
        raise ValidationError("pattern too large")
    return _class_map_sum(xi, [(pattern.vertex_count, (pattern.edges,))], lambda edges: edges)


def _gluings(pattern: PatternGraph):
    """(vertex count, (edges, shared edges)) of the graph F that two copies
    of ``pattern`` make when glued along a partial injection between their
    vertices, for each gluing under which they share an edge."""
    v, edges = pattern.vertex_count, pattern.edges
    for k in range(2, v + 1):
        for glued in itertools.combinations(range(v), k):
            for image in itertools.permutations(range(v), k):
                place, fresh = dict(zip(glued, image)), iter(range(v, 2 * v))
                label = [place[j] if j in place else next(fresh) for j in range(v)]
                second = {tuple(sorted((label[x], label[y]))) for x, y in edges}
                if shared := edges & second:
                    yield 2 * v - k, (edges | second, shared)


def exact_variance(xi: EdgeProbabilityMatrix, pattern: PatternGraph) -> float:
    """Exact variance of the labelled count of ``pattern`` under the product
    law.  Two copies that share no edge are independent, so it is the sum,
    over the gluings of two copies that share an edge and the injections of
    each glued graph F, of prod_{e in F} q_e (1 - prod_{e shared} q_e): with
    no E[N^2] - E[N]^2 cancellation, exactly 0 when every q is 0 or 1."""
    if pattern.vertex_count > VARIANCE_VERTEX_CAP:
        raise ValidationError("pattern too large")
    return _class_map_sum(xi, list(_gluings(pattern)), lambda joint, shared: joint * (1 - shared))


@dataclass(frozen=True)
class PlantedOptimizer:
    matrix: EdgeProbabilityMatrix
    hub_count: int
    boosted_value: float
    achieved_ratio: float
    meets_target: bool


def planted_star_optimizer(
    n: int,
    p: float,
    r: int,
    delta: float,
    epsilon: float,
    literal_reading: bool = False,
) -> PlantedOptimizer:
    """The planted family member targeting a (1 + delta(1-epsilon)) excess.

    With t = delta (1 - epsilon/2) n p^r, plant floor(t) full hub rows and
    boost one further row to p + frac(t)^(1/r), capped at 1.  That boost puts
    the distinguished degree near frac(t)^(1/r) n, matching both the star
    rate's floor/fractional split and the near-full-degree hub set.
    ``literal_reading`` instead applies the fractional part to the O(1)
    quantity (delta(1-epsilon/2))^(1/r) n^(1/r) p; the two agree whenever
    t < 1.  The achieved expected-count ratio against the target is reported
    rather than asserted, since at desk scale the guarantee is asymptotic.
    """
    _check_range("p", p, "(0, 1)")
    _check_range("delta", delta, "(0, inf)")
    _check_range("epsilon", epsilon, "(0, 1)")
    _check_range("star arm count", r, "[2, inf)")
    _check_range("n", n, f"[{r + 1}, inf)")  # no r-star fits on fewer vertices
    tilted = delta * (1 - epsilon / 2)
    t = tilted * n * p**r
    k = int(math.floor(t))
    if k > n - 2:
        raise ValidationError("hub count exceeds vertex budget; outside the modeled regime")
    if literal_reading:
        y = tilted ** (1.0 / r) * n ** (1.0 / r) * p
        boost = y - math.floor(y)
    else:
        boost = (t - k) ** (1.0 / r)
    value = min(1.0, p + boost)
    matrix = EdgeProbabilityMatrix.planted(
        n, p, hubs=range(1, k + 1), boosted=0, boosted_value=value
    )
    target = _star_target(1 + delta * (1 - epsilon), n, p, r)
    achieved = expected_star_count_inhom(matrix, r)
    return PlantedOptimizer(
        matrix=matrix,
        hub_count=k,
        boosted_value=value,
        achieved_ratio=achieved / target,
        meets_target=achieved >= target,
    )


def _star_target(excess: float, n: int, p: float, r: int) -> float:
    """The target star count excess * n^(r+1) p^r, refused when it
    underflows to 0.0 in floats: every count would meet it."""
    target = excess * n ** (r + 1) * p**r
    if not target > 0:
        raise ValidationError(
            f"target star count underflows to {target!r} at n={n}, p={p!r}: p is too small")
    return target


def _planted_star_count(n: int, p: float, r: int, k: int, x: float) -> float:
    """``expected_star_count_inhom`` of the planted matrix with hubs 1..k
    and vertex 0 boosted to x, from the classes and probabilities
    ``EdgeProbabilityMatrix.planted`` would give it, without building it."""
    x, p = float(x), float(p)
    return _star_count(n, [1, k, n - 1 - k], [[x, x, x], [x, p, 1.0], [x, 1.0, p]], r)


@dataclass(frozen=True)
class VariationalBound:
    value: float
    witness: EdgeProbabilityMatrix
    hub_count: int
    boosted_value: float


def variational_upper_bound(n: int, p: float, r: int, delta: float) -> VariationalBound:
    """Minimize the relative-entropy cost over the planted family subject to
    the expected star count reaching (1 + delta) n^(r+1) p^r.

    For each hub count k the boosted-row value is bisected so the constraint
    binds (the expected count is strictly increasing in the boost); the
    cheapest (k, boost) pair wins.  This is an upper bound on the true
    mean-field value: no search outside the planted family is attempted.
    """
    _check_range("p", p, "(0, 1)")
    _check_range("delta", delta, "(0, inf)")
    _check_range("star arm count", r, "[2, inf)")
    _check_range("n", n, f"[{r + 1}, inf)")
    target = _star_target(1 + delta, n, p, r)
    k_cap = min(n - 2, int(math.ceil(2 * delta * n * p**r)) + 2)
    best: Optional[VariationalBound] = None

    def build(k: int, x: float) -> EdgeProbabilityMatrix:
        return EdgeProbabilityMatrix.planted(n, p, hubs=range(1, k + 1), boosted=0, boosted_value=x)

    k = 0
    while k <= n - 2:
        top = _planted_star_count(n, p, r, k, 1.0)
        if top >= target:
            base = _planted_star_count(n, p, r, k, p)
            if base >= target:
                x = p
            else:
                lo, hi = p, 1.0
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:  # adjacent floats: every later step is a no-op
                        break
                    if _planted_star_count(n, p, r, k, mid) < target:
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
    if best is None:
        raise ValidationError("constraint infeasible even with every row at one")
    return best


@dataclass(frozen=True)
class PlantedSearchResult:
    value: float
    witness: EdgeProbabilityMatrix
    family: str  # "hub", "clique", or "empty"
    size: int


def phi_planted_search(pattern: PatternGraph, n: int, p: float, delta: float) -> PlantedSearchResult:
    """Cheapest planting among hubs K_{m,n-m} and cliques K_m, as block
    matrices at 1 on the planting and p elsewhere, whose expected count
    clears (1 + delta) times the unconditioned one.

    Both families are scanned over all sizes (hub edge sets are not nested
    in m, so no bisection), skipping plantings whose cost e log(1/p) is not
    below the best feasible one.  The result is an upper bound on the
    planted variational value, not claimed optimal.
    """
    _check_range("p", p, "(0, 1)")
    _check_range("delta", delta, "[0, inf)")
    if delta == 0:
        return PlantedSearchResult(0.0, EdgeProbabilityMatrix.constant(n, p), "empty", 0)
    target = (1 + delta) * expected_count_inhom(EdgeProbabilityMatrix.constant(n, p), pattern)
    best: Optional[PlantedSearchResult] = None
    for family, probs, sizes in (
        ("hub", [[p, 1.0], [1.0, p]], range(1, n)),
        ("clique", [[1.0, p], [p, p]], range(2, n + 1)),
    ):
        for m in sizes:
            witness = EdgeProbabilityMatrix(n, [range(m)], probs)
            value = total_cost(witness, p)
            if best is not None and value >= best.value:
                continue
            if expected_count_inhom(witness, pattern) >= target:
                best = PlantedSearchResult(value, witness, family, m)
    if best is None:
        raise ValidationError("constraint unsatisfiable even at the complete graph")
    return best


@dataclass(frozen=True)
class VarianceRatio:
    ratio: float
    stderr: float
    expected: float
    samples: int


def variance_ratio_estimate(
    xi: EdgeProbabilityMatrix,
    r: int,
    samples: int,
    seed: int,
) -> VarianceRatio:
    """Monte Carlo estimate of Var(N)/E[N]^2 for the star count under xi.

    The denominator uses the exact expected count; the numerator is the
    unbiased sample variance of simulated counts, with an asymptotic
    standard error from the fourth central moment.
    """
    from .montecarlo import count_samples

    _check_range("samples", samples, "[2, inf)")
    expected = expected_star_count_inhom(xi, r)
    if expected == 0:
        raise ValidationError("expected count is zero")
    if xi.n ** (r + 1) >= 2**62:
        raise ValidationError("star counts would overflow 64-bit accumulation")
    counts = count_samples(star(r), xi, samples, seed)
    mean = counts.mean()
    centered = counts - mean
    sample_var = float(np.dot(centered, centered) / (samples - 1))
    mu4 = float(np.mean(centered**4))
    var_of_var = max(mu4 - sample_var**2, 0.0) / samples
    return VarianceRatio(
        ratio=sample_var / expected**2,
        stderr=math.sqrt(var_of_var) / expected**2,
        expected=expected,
        samples=samples,
    )
