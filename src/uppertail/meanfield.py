"""Naive mean-field objects for the star upper tail.

A product Bernoulli law on edges is summarized by its matrix of edge
probabilities.  The relative-entropy cost of tilting the background
probability p to a matrix xi, the exact expected star count under xi, the
planted near-optimizer (full hub rows plus one partially boosted row), and a
restricted variational upper bound all live here, along with an exact
variance formula for 2-armed stars used as a Monte Carlo oracle.

A matrix is stored by blocks: a few vertex classes and one probability per
pair of classes.  Its cost, expected edge and star counts and likelihood
ratio are sums over class pairs, which is what makes n around 10^6
feasible; ``to_dense`` gives the explicit array for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

DENSE_LIMIT = 4000


class EdgeProbabilityMatrix:
    """Symmetric matrix of edge probabilities with zero diagonal, constant
    on blocks.

    ``classes`` lists disjoint vertex sets, and the vertices in none of them
    form one last class; two distinct vertices in classes a and b are joined
    with probability ``probs[a, b]``.  ``hubs`` and ``boosted`` record the
    hub set and boosted vertex a ``planted`` matrix was built from.
    """

    __slots__ = ("n", "classes", "probs", "sizes", "hubs", "boosted", "_levels")

    def __init__(self, n, classes, probs, hubs=frozenset(), boosted=None):
        self.n, self.hubs, self.boosted, self._levels = int(n), frozenset(hubs), boosted, None
        self.classes = tuple(tuple(sorted(int(v) for v in c)) for c in classes)
        listed = set().union(*self.classes)
        if self.n < 1 or len(listed) < sum(map(len, self.classes)) or listed and not (
                0 <= min(listed) and max(listed) < self.n):
            raise ValidationError("need n >= 1 and disjoint vertex classes below n")
        self.probs = np.asarray(probs, dtype=float)
        k, rows = len(self.classes) + 1, self.probs.tolist()
        if self.probs.shape != (k, k) or rows != [list(col) for col in zip(*rows)]:
            raise ValidationError(f"need a symmetric {k} x {k} array of class-pair probabilities")
        if not all(0 <= q <= 1 for row in rows for q in row):
            raise ValidationError("edge probabilities must lie in [0, 1]")
        self.sizes = [len(c) for c in self.classes] + [self.n - len(listed)]

    @classmethod
    def constant(cls, n: int, p: float) -> "EdgeProbabilityMatrix":
        return cls(n, (), [[p]])

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
        0.8 and must lie in [p, 1), so that the estimator stays unbiased for
        the background measure.
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
                if size < 1:
                    raise ValidationError(f"{kind} planting size must be at least 1")
            else:
                raise ValidationError(f"unknown planting {text!r}")
        except ValueError:
            raise ValidationError(f"malformed number in planting {text!r}") from None
        if not p <= value < 1:
            raise ValidationError("planted probability must lie in [p, 1) for an unbiased estimator")
        if size > n:
            raise ValidationError(f"planting size {size} exceeds n = {n}")
        cross = p if kind == "clique" else value
        return cls(n, [range(size)], [[value, cross], [cross, p]])

    def _class_pairs(self):
        """(a, b, vertex pairs, probability) for each pair of classes a <= b
        that holds a vertex pair."""
        probs = self.probs.tolist()
        for a, s in enumerate(self.sizes):
            for b in range(a, len(self.sizes)):
                pairs = s * (s - 1) // 2 if a == b else s * self.sizes[b]
                if pairs:
                    yield a, b, pairs, probs[a][b]

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

    def expected_edges(self) -> float:
        return sum(pairs * q for _, _, pairs, q in self._class_pairs())

    def log_likelihood_ratio(self, p: float) -> tuple:
        """(a, c) such that log dP/dQ = a @ h + c, for P the constant measure
        at p and Q this matrix, of a graph with h[i] edges at the i-th of
        ``levels()``."""
        q, pairs = np.array([level[:2] for level in self.levels()], dtype=float).reshape(-1, 2).T
        miss = np.log1p(-p) - np.log1p(-q)
        return np.log(p / q) - miss, float(miss @ pairs)

    def to_dense(self) -> np.ndarray:
        if self.n > DENSE_LIMIT:
            raise ValidationError(f"refusing to densify above n = {DENSE_LIMIT}")
        label = np.full(self.n, len(self.classes))
        for a, c in enumerate(self.classes):
            label[list(c)] = a
        arr = self.probs[np.ix_(label, label)]
        arr[np.diag_indices_from(arr)] = 0.0
        return arr


def bernoulli_relative_entropy(x: float, p: float) -> float:
    """I_p(x) = x log(x/p) + (1-x) log((1-x)/(1-p)), with 0 log 0 = 0."""
    if not 0 < p < 1:
        raise ValidationError("p must lie in (0, 1)")
    if not 0 <= x <= 1:
        raise ValidationError("x must lie in [0, 1]")
    total = 0.0
    if x > 0:
        total += x * math.log(x / p)
    if x < 1:
        total += (1 - x) * math.log((1 - x) / (1 - p))
    return total


def total_cost(xi: EdgeProbabilityMatrix, p: float) -> float:
    """Sum of entrywise relative entropies over unordered pairs."""
    if not 0 < p < 1:
        raise ValidationError("p must lie in (0, 1)")
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
    if not 2 <= r <= 8:
        raise ValidationError("star arm count must be between 2 and 8")
    n = xi.n
    levels = {q for _, _, _, q in xi._class_pairs()}
    if len(levels) <= 1:
        # Constant background: n (n-1)...(n-r) p^r, kept in this exact
        # float expression so the closed form is reproducible bit-for-bit.
        p = levels.pop() if levels else 0.0
        return (p**r) * (n * math.perm(n - 1, r))
    total, probs = 0.0, xi.probs.tolist()
    for a, size in enumerate(xi.sizes):
        row = {}  # the row of a vertex in class a: count per probability
        for b, other in enumerate(xi.sizes):
            if size and other - (a == b):
                q = probs[a][b]
                row[q] = row.get(q, 0) + other - (a == b)
        total += size * _er_of_product(list(row.items()), r)
    return math.factorial(r) * total


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
    if not 0 < p < 1:
        raise ValidationError("p must lie in (0, 1)")
    if not 0 < delta < math.inf or not 0 < epsilon < 1:
        raise ValidationError("need a finite delta > 0 and epsilon in (0, 1)")
    if r < 2:
        raise ValidationError("star arm count must be at least 2")
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
    target = (1 + delta * (1 - epsilon)) * n ** (r + 1) * p**r
    achieved = expected_star_count_inhom(matrix, r)
    return PlantedOptimizer(
        matrix=matrix,
        hub_count=k,
        boosted_value=value,
        achieved_ratio=achieved / target,
        meets_target=achieved >= target,
    )


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
    if not 0 < p < 1:
        raise ValidationError("p must lie in (0, 1)")
    if not 0 < delta < math.inf:
        raise ValidationError("delta must be positive and finite")
    if r < 2:
        raise ValidationError("star arm count must be at least 2")
    target = (1 + delta) * n ** (r + 1) * p**r
    k_cap = min(n - 2, int(math.ceil(2 * delta * n * p**r)) + 2)
    best: Optional[VariationalBound] = None

    def build(k: int, x: float) -> EdgeProbabilityMatrix:
        return EdgeProbabilityMatrix.planted(n, p, hubs=range(1, k + 1), boosted=0, boosted_value=x)

    k = 0
    while k <= n - 2:
        top = expected_star_count_inhom(build(k, 1.0), r)
        if top >= target:
            base = expected_star_count_inhom(build(k, p), r)
            if base >= target:
                x = p
            else:
                lo, hi = p, 1.0
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if expected_star_count_inhom(build(k, mid), r) < target:
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


def exact_star2_variance(xi: EdgeProbabilityMatrix) -> float:
    """Exact variance of the labelled 2-star count under the product law.

    Splits E[N^2] into same-center terms (factorial moments of each row's
    Poisson-binomial degree), independent cross-center products, and a
    correction for pairs of stars sharing their connecting edge.
    """
    arr = xi.to_dense()
    n = xi.n
    s = arr.sum(axis=1)
    p2 = (arr**2).sum(axis=1)
    p3 = (arr**3).sum(axis=1)
    p4 = (arr**4).sum(axis=1)
    e1 = s
    e2 = (e1 * s - p2) / 2.0
    e3 = (e2 * s - e1 * p2 + p3) / 3.0
    e4 = (e3 * s - e2 * p2 + e1 * p3 - p4) / 4.0
    per_center = s * s - p2  # E[d(d-1)] per row
    expected = float(per_center.sum())
    same_center = 24.0 * e4 + 24.0 * e3 + 4.0 * e2
    cross_products = expected**2 - float((per_center**2).sum())
    a = s[:, None] - arr
    b = s[None, :] - arr
    shared_edge = 4.0 * arr * (1.0 - arr) * a * b
    second_moment = float(same_center.sum()) + cross_products + float(shared_edge.sum())
    return second_moment - expected**2


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
    from .montecarlo import star_count_samples

    if samples < 2:
        raise ValidationError("need at least two samples")
    expected = expected_star_count_inhom(xi, r)
    if expected == 0:
        raise ValidationError("expected count is zero")
    counts = star_count_samples(xi, r, samples, seed)
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
