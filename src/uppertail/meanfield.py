"""Naive mean-field objects for the star upper tail.

A product Bernoulli law on edges is summarized by its matrix of edge
probabilities.  The relative-entropy cost of tilting the background
probability p to a matrix xi, the exact expected star count under xi, the
planted near-optimizer (full hub rows plus one partially boosted row), and a
restricted variational upper bound all live here, along with an exact
variance formula for 2-armed stars used as a Monte Carlo oracle.

A matrix is stored in structured form (constant background, k full hub rows,
one boosted row), whose cost and expected count evaluate in closed form,
which is what makes n around 10^6 feasible; ``to_dense`` gives the explicit
array for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

DENSE_LIMIT = 4000


class EdgeProbabilityMatrix:
    """Symmetric matrix of edge probabilities with zero diagonal.

    Instances store (background p, hub set, boosted vertex and value); the
    entry rule is: any pair touching the boosted vertex takes the boosted
    value, otherwise a hub/non-hub pair takes 1, otherwise the background.
    """

    __slots__ = ("n", "background", "hubs", "boosted", "boosted_value")

    def __init__(self, n, background=None, hubs=frozenset(), boosted=None, boosted_value=None):
        self.n = int(n)
        if self.n < 2:
            raise ValidationError("matrix needs at least two vertices")
        self.background = background
        self.hubs = frozenset(hubs)
        self.boosted = boosted
        self.boosted_value = boosted_value

    @classmethod
    def constant(cls, n: int, p: float) -> "EdgeProbabilityMatrix":
        if not 0 <= p <= 1:
            raise ValidationError("background probability must lie in [0, 1]")
        return cls(n, background=float(p))

    @classmethod
    def planted(
        cls,
        n: int,
        p: float,
        hubs=(),
        boosted: Optional[int] = None,
        boosted_value: Optional[float] = None,
    ) -> "EdgeProbabilityMatrix":
        hub_set = frozenset(int(h) for h in hubs)
        if not 0 <= p <= 1:
            raise ValidationError("background probability must lie in [0, 1]")
        if any(not 0 <= h < n for h in hub_set):
            raise ValidationError("hub index out of range")
        if boosted is not None:
            if not 0 <= boosted < n:
                raise ValidationError("boosted index out of range")
            if boosted in hub_set:
                raise ValidationError("boosted vertex cannot also be a hub")
            if boosted_value is None or not 0 <= boosted_value <= 1:
                raise ValidationError("boosted value must lie in [0, 1]")
        return cls(
            n,
            background=float(p),
            hubs=hub_set,
            boosted=boosted,
            boosted_value=None if boosted is None else float(boosted_value),
        )

    def to_dense(self) -> np.ndarray:
        if self.n > DENSE_LIMIT:
            raise ValidationError(f"refusing to densify above n = {DENSE_LIMIT}")
        arr = np.full((self.n, self.n), self.background, dtype=float)
        hub_idx = sorted(self.hubs)
        if hub_idx:
            arr[hub_idx, :] = 1.0
            arr[:, hub_idx] = 1.0
            arr[np.ix_(hub_idx, hub_idx)] = self.background
        if self.boosted is not None:
            arr[self.boosted, :] = self.boosted_value
            arr[:, self.boosted] = self.boosted_value
        arr[np.diag_indices_from(arr)] = 0.0
        return arr

    def __repr__(self) -> str:
        return (
            f"EdgeProbabilityMatrix(n={self.n}, background={self.background}, "
            f"hubs={len(self.hubs)}, boosted={self.boosted})"
        )


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
    n, k = xi.n, len(xi.hubs)
    background_cost = bernoulli_relative_entropy(xi.background, p)
    log_inv_p = math.log(1 / p)
    if xi.boosted is None:
        m = n - k
        background_pairs = k * (k - 1) // 2 + m * (m - 1) // 2
        return k * m * log_inv_p + background_pairs * background_cost
    m = n - 1 - k
    cost = (n - 1) * bernoulli_relative_entropy(xi.boosted_value, p)
    cost += k * m * log_inv_p
    cost += (k * (k - 1) // 2 + m * (m - 1) // 2) * background_cost
    return cost


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
    p = xi.background
    k = len(xi.hubs)
    fact = math.factorial(r)
    if xi.boosted is None:
        if k == 0:
            # Constant background: n (n-1)...(n-r) p^r, kept in this exact
            # float expression so the closed form is reproducible bit-for-bit.
            return (p**r) * (n * math.perm(n - 1, r))
        m = n - k
        hub_row = _er_of_product([(p, k - 1), (1.0, m)], r)
        base_row = _er_of_product([(1.0, k), (p, m - 1)], r)
        return fact * (k * hub_row + m * base_row)
    x = xi.boosted_value
    k_hub = k
    m = n - 1 - k_hub
    boosted_row = _er_of_product([(x, n - 1)], r)
    hub_row = _er_of_product([(x, 1), (p, k_hub - 1), (1.0, m)], r)
    base_row = _er_of_product([(x, 1), (1.0, k_hub), (p, m - 1)], r)
    return fact * (boosted_row + k_hub * hub_row + m * base_row)


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
