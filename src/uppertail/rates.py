"""Speeds, rate functions, and regime classification for upper-tail events.

The tail event is {N(H, G(n,p)) >= (1+delta) n^v p^e}.  Depending on where
(n, p) sits, minus-log-probability is normalized by one of three speeds:

* localized (hub) regime for irregular H: n^2 p^Delta log(1/p), with the
  rate the unique positive root of P(theta) = 1 + delta for the independence
  polynomial P of the max-degree core;
* Poisson regime for strictly balanced H near the appearance threshold:
  n^v p^e / Aut(H), with rate (1+delta)log(1+delta) - delta;
* star localized regime below n^(-1/r): n^(1+1/r) p log n, with a rate that
  jumps at integer values of delta * rho.

The asymptotic regime hypotheses are operationalized at finite (n, p) as
strict inequalities with a multiplicative slack factor, and every margin is
reported so borderline cases are visible to the caller.  ``rate_for`` is
the one place that picks a theorem, and ``SPEEDS`` holds each theorem's speed
under its regime tag, the name ``RateResult.theorem`` uses too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .counting import automorphism_count
from .errors import ValidationError, _check_range
from .graphs import (
    PatternGraph,
    is_connected,
    is_regular,
    is_strictly_balanced,
    max_degree,
    star_arms,
)
from .patterns import (
    IndependencePolynomial,
    fractional_independence_number,
    h_star,
    independence_polynomial,
)

ROOT_RELATIVE_TOL = 1e-12
ROOT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Regime:
    # A key of SPEEDS (the theorem whose hypotheses hold), or Unclassified
    # when none or several of them hold.
    tag: str
    margins: dict[str, float] = field(default_factory=dict)
    satisfied: tuple[str, ...] = ()


@dataclass(frozen=True)
class RateResult:
    rate: float
    theorem: str  # the SPEEDS key of the theorem that gave the rate
    inputs: dict
    details: dict = field(default_factory=dict)
    regime: Optional[Regime] = None  # the classifier's verdict, when (n, p) was given

    def speed(self, n: int, p: float) -> float:
        """Evaluate this result's normalizing sequence at (n, p)."""
        return speed(self.theorem, self.inputs["pattern"], n, p)


def theta_star_root(poly: IndependencePolynomial, delta: float) -> float:
    """Unique positive solution of P(theta) = 1 + delta.

    P is strictly increasing on theta >= 0 with P(0) = 1 and slope >= i_1 >= 1,
    so [0, max(1, delta)] brackets the root: the coefficients are nonnegative,
    so P(max(1, delta)) >= 1 + max(1, delta), under Horner rounding too.
    Bisection narrows the bracket, Newton polishes, and the residual is
    checked against the documented tolerance.
    """
    _check_range("delta", delta, "(0, inf)")
    coeffs = poly.coefficients
    if len(coeffs) < 2 or coeffs[1] < 1 or min(coeffs) < 0:
        raise ValidationError("polynomial must have i_1 >= 1 and no negative coefficient")
    target = 1.0 + delta

    lo, hi = 0.0, max(1.0, float(delta))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poly.evaluate(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROOT_RELATIVE_TOL * max(hi, 1.0):
            break
    root = 0.5 * (lo + hi)
    for _ in range(8):
        step = (poly.evaluate(root) - target) / poly.derivative(root)
        new = root - step
        if not lo < new <= hi:  # P(lo) < 1 + delta <= P(hi): the root may be hi
            break
        root = new
        if abs(step) <= ROOT_RELATIVE_TOL * max(root, 1.0):
            break
    if abs(poly.evaluate(root) - target) > ROOT_RESIDUAL_TOL * target:
        raise ValidationError("root refinement failed to reach tolerance")
    return root


def rate_localized_I(pattern: PatternGraph, delta: float) -> RateResult:
    """Hub-regime rate for a connected irregular pattern."""
    if not is_connected(pattern):
        raise ValidationError("pattern must be connected")
    if is_regular(pattern):
        raise ValidationError("pattern is regular; use rate_regular")
    core = h_star(pattern)
    poly = independence_polynomial(core)
    theta = theta_star_root(poly, delta)
    return RateResult(
        rate=theta,
        theorem="LocalizedI",
        inputs={"pattern": pattern, "delta": delta},
        details={"core_polynomial": poly.coefficients},
    )


def rate_regular(pattern: PatternGraph, delta: float) -> RateResult:
    """Regular-pattern rate: min of the hub root and the clique value
    delta^(2/v)/2, with the attaining branch and the crossover point.

    The printed exponent in the source display is ambiguous; delta^(2/v)/2 is
    used, consistent with a planted clique of about delta^(2/v) n^2 p^Delta / 2
    edges.
    """
    if not is_connected(pattern):
        raise ValidationError("pattern must be connected")
    if not is_regular(pattern):
        raise ValidationError("pattern is irregular; use rate_localized_I")
    poly = independence_polynomial(pattern)
    hub = theta_star_root(poly, delta)
    v = pattern.vertex_count
    clique_value = delta ** (2.0 / v) / 2.0
    branch = "hub" if hub <= clique_value else "clique"
    return RateResult(
        rate=min(hub, clique_value),
        theorem="Regular-Localized",
        inputs={"pattern": pattern, "delta": delta},
        details={
            "hub_value": hub,
            "clique_value": clique_value,
            "branch": branch,
            "delta0": regular_crossover(pattern),
        },
    )


def regular_crossover(pattern: PatternGraph) -> Optional[float]:
    """The delta where the hub and clique branches exchange the minimum.

    Below it the hub root is smaller, above it the clique value is.  Since P
    is increasing, theta*(delta) <= c exactly when P(c) >= 1 + delta, so the
    branches meet at delta0 = (2t)^(v/2) for the first positive root t of
    f(t) = P(t) - 1 - (2t)^(v/2): f is positive below it and not above.  A
    doubling bracket and bisection to adjacent floats find the least float
    with f(t) <= 0.  Returns None when the two branches never cross: for a
    single edge they coincide identically, and otherwise f stays positive up
    to t = 2^64.
    """
    v = pattern.vertex_count
    if v <= 2:
        return None
    poly = independence_polynomial(pattern)

    def f(t: float) -> float:
        return poly.evaluate(t) - 1.0 - (2.0 * t) ** (v / 2.0)

    lo = hi = 1.0
    while f(lo) <= 0:  # f(t) ~ v t - (2t)^(v/2) > 0 as t -> 0, since v > 2
        lo /= 2.0
    for _ in range(64):
        if f(hi) <= 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        return None
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (2.0 * hi) ** (v / 2.0)


def rate_poisson(delta: float) -> float:
    """(1+delta) log(1+delta) - delta; the speed is n^v p^e / Aut(H)."""
    _check_range("delta", delta, "[0, inf)")
    return (1.0 + delta) * math.log1p(delta) - delta


def rate_star_localized_II(r: int, delta: float, rho: float) -> float:
    """Star rate in the intermediate window.

    rho is the limit of n p^r.  At rho = 0 the rate is delta^(1/r)/r; at
    positive rho it picks up a floor/fractional-part structure and is
    discontinuous in delta * rho at integers.
    """
    _check_range("star arm count", r, "[2, inf)")
    _check_range("delta", delta, "(0, inf)")
    _check_range("rho", rho, "[0, inf)")
    if rho == 0:
        return delta ** (1.0 / r) / r
    x = delta * rho
    whole = math.floor(x)
    frac = x - whole
    return (whole + frac ** (1.0 / r)) / (r * rho ** (1.0 / r))


def star_rho_proxy(n: int, p: float, r: int, delta: float) -> tuple[float, bool]:
    """Finite-n proxy rho_hat = n p^r, flagging proximity to a rate jump.

    The star rate jumps when delta * rho crosses a positive integer (it is
    continuous at 0); the flag trips when delta * rho_hat is within 0.05 of
    one.
    """
    _check_range("p", p, "(0, 1)")
    _check_range("delta", delta, "(0, inf)")
    rho_hat = n * p**r
    x = delta * rho_hat
    near_jump = abs(x - max(1, round(x))) < 0.05
    return rho_hat, near_jump


def regime_classify(pattern: PatternGraph, n: int, p: float, slack: float = 1.0) -> Regime:
    """Classify (H, n, p) by which theorem hypotheses hold at finite size.

    Every asymptotic comparison a << b becomes log(b) - log(a) > log(slack);
    the weak comparison p <~ n^(-1/r) becomes margin >= -log(slack).  All
    margins are reported.  The tag is Unclassified when zero or several
    hypothesis sets hold.
    """
    _check_range("n", n, "[3, inf)")
    _check_range("p", p, "(0, 1)")
    _check_range("slack", slack, "(0, inf)")
    log_slack = math.log(slack)
    log_n, log_p = math.log(n), math.log(p)
    loglog_n = math.log(log_n)
    connected = is_connected(pattern)
    regular = is_regular(pattern)
    delta_deg = max_degree(pattern)
    v, e = pattern.vertex_count, pattern.edge_count

    margins: dict[str, float] = {}
    satisfied: list[str] = []

    if connected and not regular:
        m_lower = log_p + log_n / delta_deg  # p >> n^(-1/Delta)
        m_upper = -log_p  # p << 1
        margins["localized_I.p_above_n^(-1/Delta)"] = m_lower
        margins["localized_I.p_below_1"] = m_upper
        if m_lower > log_slack and m_upper > log_slack:
            satisfied.append("LocalizedI")

    if connected:
        if is_strictly_balanced(pattern):
            mean_log = v * log_n + e * log_p  # log of n^v p^e
            m_lower = mean_log
            margins["poisson.mean_above_1"] = m_lower
            alpha = fractional_independence_number(pattern).value
            if alpha > 1:
                exponent = float(alpha / (alpha - 1))
                m_upper = exponent * loglog_n - mean_log
            else:
                m_upper = math.inf
            margins["poisson.mean_below_polylog"] = m_upper
            if m_lower > log_slack and m_upper > log_slack:
                satisfied.append("Poisson")

    r = star_arms(pattern)
    if r is not None:
        m_weak = -log_n / r - log_p  # p <~ n^(-1/r)
        m_lower = (r + 1) * log_n + r * log_p - (r / (r - 1)) * loglog_n
        margins["star_II.p_at_most_n^(-1/r)"] = m_weak
        margins["star_II.mean_above_polylog"] = m_lower
        if m_weak >= -log_slack and m_lower > log_slack:
            satisfied.append("LocalizedII-Star")

    if connected and regular and v >= 3:
        m_lower = log_n + (delta_deg / 2.0) * log_p - loglog_n / (v - 2)
        m_upper = -log_p
        margins["regular.np^(Delta/2)_above_polylog"] = m_lower
        margins["regular.p_below_1"] = m_upper
        if m_lower > log_slack and m_upper > log_slack:
            satisfied.append("Regular-Localized")

    tag = satisfied[0] if len(satisfied) == 1 else "Unclassified"
    return Regime(tag=tag, margins=margins, satisfied=tuple(satisfied))


def _hub_speed(pattern: PatternGraph, n: int, p: float) -> float:
    return n**2 * p ** max_degree(pattern) * math.log(1 / p)


def _star_speed(pattern: PatternGraph, n: int, p: float) -> float:
    r = star_arms(pattern)
    if r is None:
        raise ValidationError("star speed requires a star pattern")
    return n ** (1 + 1.0 / r) * p * math.log(n)


# Each theorem's normalizing sequence, keyed by its Regime tag.
SPEEDS = {
    "LocalizedI": _hub_speed,
    "Regular-Localized": _hub_speed,
    "Poisson": lambda pattern, n, p: (
        n**pattern.vertex_count * p**pattern.edge_count / automorphism_count(pattern)
    ),
    "LocalizedII-Star": _star_speed,
}


def speed(regime: Regime | str, pattern: PatternGraph, n: int, p: float) -> float:
    """The normalizing sequence of a regime (or its tag) evaluated at (n, p)."""
    tag = regime.tag if isinstance(regime, Regime) else regime
    if tag not in SPEEDS:
        raise ValidationError(f"no speed for regime {tag!r}")
    _check_range("p", p, "(0, 1)")
    return SPEEDS[tag](pattern, n, p)


def rate_for(
    pattern: PatternGraph,
    delta: float,
    n: Optional[int] = None,
    p: Optional[float] = None,
    rho: Optional[float] = None,
    slack: float = 1.0,
) -> RateResult:
    """The rate of the theorem that applies to (H, delta), at (n, p) if given.

    In order: an explicit rho takes the star window; with (n, p), a Poisson
    regime takes the Poisson rate and a LocalizedII-Star regime the star rate
    at rho_hat = n p^r (``rho_hat`` and ``near_jump`` go in ``details``);
    otherwise a connected regular H takes rate_regular and any other H
    rate_localized_I.  ``regime`` is None without (n, p); where it is set, it
    backs ``theorem`` only when its tag equals it.
    """
    if (n is None) != (p is None):
        raise ValidationError("n and p must be given together")
    max_degree(pattern)  # refuses a pattern with no edges, which has no tail
    regime = None if n is None else regime_classify(pattern, n, p, slack)
    tag = regime and regime.tag
    inputs = {"pattern": pattern, "delta": delta}
    if rho is not None or tag == "LocalizedII-Star":
        r = star_arms(pattern)
        if r is None:
            raise ValidationError("rho only applies to star patterns")
        details = {}
        if rho is None:
            rho, near_jump = star_rho_proxy(n, p, r, delta)
            details = {"rho_hat": rho, "near_jump": near_jump}
        return RateResult(rate_star_localized_II(r, delta, rho), "LocalizedII-Star", inputs,
                          details, regime)
    if tag == "Poisson":
        return RateResult(rate_poisson(delta), "Poisson", inputs, {}, regime)
    if is_connected(pattern) and is_regular(pattern):
        return replace(rate_regular(pattern, delta), regime=regime)
    return replace(rate_localized_I(pattern, delta), regime=regime)
