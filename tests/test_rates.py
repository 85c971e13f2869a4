import contextlib
import io
import json
import math
import random

import pytest

from uppertail.cli import _json_ready, main
from uppertail.errors import ValidationError
from uppertail.graphs import PatternGraph, clique, cycle, path, pattern_from_shorthand, star
from uppertail import rates
from uppertail.patterns import IndependencePolynomial, independence_polynomial
from uppertail.rates import (
    SPEEDS,
    Regime,
    rate_localized_I,
    rate_poisson,
    rate_regular,
    rate_for,
    rate_star_localized_II,
    regime_classify,
    regular_crossover,
    speed,
    star_rho_proxy,
    theta_star_root,
)


def test_theta_root_examples():
    assert theta_star_root(IndependencePolynomial((1, 1)), 0.5) == pytest.approx(0.5, abs=1e-12)
    assert theta_star_root(IndependencePolynomial((1, 2)), 1.0) == pytest.approx(0.5, abs=1e-12)
    assert theta_star_root(IndependencePolynomial((1, 3, 1)), 4.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        theta_star_root(IndependencePolynomial((1, 1)), 0.0)


def test_theta_root_of_a_single_vertex_core_is_delta():
    # P(theta) = 1 + theta: the root delta is the top of the bracket [0, max(1, delta)]
    # at delta = 3, and a bisection midpoint at delta = 0.5.
    for delta in (0.5, 3.0):
        assert abs(theta_star_root(IndependencePolynomial((1, 1)), delta) - delta) <= 1e-12
    # The bracket rests on nonnegative coefficients, so a negative one is refused.
    with pytest.raises(ValidationError, match="no negative coefficient"):
        theta_star_root(IndependencePolynomial((1, 1, -5)), 1.0)


def test_theta_root_random_residuals_and_monotonicity():
    rng = random.Random(77)
    for _ in range(100):
        coeffs = [1] + [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        poly = IndependencePolynomial(tuple(coeffs))
        delta = rng.uniform(0.01, 50)
        root = theta_star_root(poly, delta)
        assert abs(poly.evaluate(root) - (1 + delta)) <= 1e-10 * (1 + delta)
        assert theta_star_root(poly, delta * 1.5) > root


def test_rate_localized_I_examples():
    assert rate_localized_I(star(3), 0.7).rate == pytest.approx(0.7, abs=1e-12)
    assert rate_localized_I(path(4), 1.0).rate == pytest.approx(0.5, abs=1e-12)
    assert rate_localized_I(path(5), 4.0).rate == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        rate_localized_I(clique(3), 1.0)
    with pytest.raises(ValidationError):
        rate_localized_I(PatternGraph(4, [(0, 1), (2, 3)]), 1.0)


def test_star_rate_is_delta():
    for r in (2, 3, 4):
        for delta in (0.1, 0.5, 1.0, 3.0, 7.0):
            assert rate_localized_I(star(r), delta).rate == pytest.approx(delta, abs=1e-10)


def test_rate_regular_examples():
    res = rate_regular(clique(3), 8.0)
    assert res.rate == pytest.approx(2.0, abs=1e-12)
    assert res.details["branch"] == "clique"
    res = rate_regular(clique(3), 0.1)
    assert res.rate == pytest.approx(0.1 / 3, abs=1e-12)
    assert res.details["branch"] == "hub"
    assert rate_regular(cycle(4), 1e-9).rate < 1e-9
    with pytest.raises(ValidationError):
        rate_regular(path(4), 1.0)


def test_regular_crossover_branch_switch():
    delta0 = regular_crossover(clique(3))
    assert delta0 == pytest.approx(27 / 8, rel=1e-6)
    below = rate_regular(clique(3), delta0 * 0.98)
    above = rate_regular(clique(3), delta0 * 1.02)
    assert below.details["branch"] == "hub"
    assert above.details["branch"] == "clique"


def _crossover_all_steps(pattern):
    """The former ``regular_crossover``, a delta scan and a bisection on the
    sign of the hub root minus the clique value, with all 200 bisection
    steps taken: the reference for the one-root solve."""
    poly = independence_polynomial(pattern)

    def gap(delta):
        return theta_star_root(poly, delta) - delta ** (2.0 / pattern.vertex_count) / 2.0

    d = 1e-6
    while not gap(d) < 0 <= gap(2 * d):
        d *= 2
    lo, hi = d, 2 * d
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


CROSSOVER_SPECS = ["cycle:4", "cycle:5", "cycle:6", "cycle:8", "clique:3", "clique:4",
                   "clique:5", "biclique:2,2", "biclique:3,3"]


@pytest.mark.parametrize("spec", CROSSOVER_SPECS)
def test_regular_crossover_is_one_root_of_the_independence_polynomial(monkeypatch, spec):
    # delta0 = (2t)^(v/2) at the first positive root t of P(t) - 1 - (2t)^(v/2):
    # within 8 ulp of the scan-and-bisect reference, and without a single
    # theta* solve (that reference takes 75-78 of them).
    pattern = pattern_from_shorthand(spec)
    want = _crossover_all_steps(pattern)
    calls = []
    monkeypatch.setattr(rates, "theta_star_root", lambda *args: calls.append(args))
    got = regular_crossover(pattern)
    assert abs(got - want) <= 8 * math.ulp(want)
    assert calls == []


def test_regular_crossover_exact_roots_and_the_single_edge():
    # Roots t = 2 of C6 and t = 1 of K4 are floats, so delta0 is exact.
    assert regular_crossover(cycle(6)) == 64.0
    assert regular_crossover(clique(4)) == 4.0
    # K2: both branches are delta/2, so they never cross.
    for spec in ("clique:2", "path:2"):
        assert regular_crossover(pattern_from_shorthand(spec)) is None
        assert rate_for(pattern_from_shorthand(spec), 1.0).details["delta0"] is None


def test_rate_poisson():
    assert rate_poisson(0.0) == 0.0
    assert rate_poisson(math.e - 1) == pytest.approx(1.0, abs=1e-12)
    assert rate_poisson(1.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
    # convexity on a grid, and superlinear growth
    grid = [0.1 * k for k in range(1, 60)]
    for a, b in zip(grid, grid[2:]):
        mid = (a + b) / 2
        assert rate_poisson(mid) <= (rate_poisson(a) + rate_poisson(b)) / 2 + 1e-12
    assert rate_poisson(1000) / 1000 > rate_poisson(10) / 10


def test_rate_star_localized_II():
    assert rate_star_localized_II(2, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert rate_star_localized_II(2, 1.5, 1.0) == pytest.approx((1 + math.sqrt(0.5)) / 2, abs=1e-12)
    assert rate_star_localized_II(3, 2.0, 1.0) == pytest.approx(2 / 3, abs=1e-12)
    # continuity toward rho = 0 while delta * rho < 1
    for r in (2, 3):
        delta = 0.8
        for k in range(1, 21):
            rho = k / (21 * delta)
            assert rate_star_localized_II(r, delta, rho) == pytest.approx(
                delta ** (1 / r) / r, abs=1e-12
            )
    with pytest.raises(ValidationError):
        rate_star_localized_II(1, 1.0, 0.0)


def test_star_rho_proxy():
    rho_hat, near = star_rho_proxy(1000, 0.03, 2, 2.0)
    assert rho_hat == pytest.approx(1000 * 0.03**2)
    assert near == (abs(2 * rho_hat - round(2 * rho_hat)) < 0.05)


def test_regime_classify_examples():
    n = 10**6
    assert regime_classify(star(2), n, n**-0.4).tag == "LocalizedI"
    assert regime_classify(star(2), n, n**-0.9).tag == "LocalizedII-Star"
    p = (math.log(n) ** 1.2 / n**3) ** (1 / 3)
    assert regime_classify(clique(3), n, p).tag == "Poisson"
    # regular localized window for K3: n p ~ n^0.4 >> log n
    assert regime_classify(clique(3), n, n**-0.6).tag == "Regular-Localized"
    with pytest.raises(ValidationError):
        regime_classify(star(2), n, 1.5)


def test_regime_margins_reported():
    regime = regime_classify(star(2), 10**6, 10**-2)
    assert "localized_I.p_above_n^(-1/Delta)" in regime.margins
    assert all(isinstance(v, float) for v in regime.margins.values())


def test_speed_examples():
    s = speed(Regime("LocalizedI"), star(2), 100, 0.2)
    assert s == pytest.approx(100**2 * 0.2**2 * math.log(5), rel=1e-9)
    s = speed(Regime("Poisson"), clique(3), 100, 0.01)
    assert s == pytest.approx(1 / 6, rel=1e-12)
    s = speed(Regime("LocalizedII-Star"), star(2), 10**4, 1e-3)
    assert s == pytest.approx(10**6 * 1e-3 * math.log(10**4), rel=1e-9)
    with pytest.raises(ValidationError):
        speed(Regime("Unclassified"), star(2), 100, 0.2)


def test_slack_semantics():
    # Mild slack keeps a comfortably classified point in place; past the
    # binding margin a star hands over to the adjacent regime (the two
    # windows partition around p ~ n^(-1/r)), and points outside every
    # window stay Unclassified.
    n = 10**6
    regime = regime_classify(star(2), n, n**-0.4)
    assert regime.tag == "LocalizedI"
    binding = regime.margins["localized_I.p_above_n^(-1/Delta)"]
    assert regime_classify(star(2), n, n**-0.4, slack=math.exp(binding / 2)).tag == "LocalizedI"
    assert (
        regime_classify(star(2), n, n**-0.4, slack=math.exp(binding * 2)).tag
        == "LocalizedII-Star"
    )
    # very sparse p lands in the Poisson window (stars are strictly
    # balanced); below the appearance threshold nothing applies
    assert regime_classify(star(2), n, n**-1.4).tag == "Poisson"
    assert regime_classify(star(2), n, n**-1.6).tag == "Unclassified"


def test_rate_result_speed_method():
    res = rate_localized_I(star(2), 1.0)
    assert res.speed(100, 0.2) == pytest.approx(100**2 * 0.04 * math.log(5), rel=1e-9)


# ``uppertail rate`` results keyed by (pattern, delta, n, p, rho), recorded when
# the CLI still chose the theorem itself.  Together the cases take every
# branch of rate_for: an explicit rho (with no regime, and overriding the
# LocalizedI, LocalizedII-Star and Poisson regimes), Poisson, the
# LocalizedII-Star window, a connected regular pattern and the LocalizedI
# fallback, with and without (n, p), including an Unclassified point.
RECORDED_RATE_RESULTS = [
    (("path:4", 1.0, None, None, None), {
        "core_polynomial": [1, 2],
        "margins": {},
        "rate": 0.49999999999954525,
        "regime": None,
        "speed": None,
        "theorem": "localized-I",
    }),
    (("clique:3", 8.0, None, None, None), {
        "branch": "clique",
        "clique_value": 1.9999999999999998,
        "delta0": 3.3749999999999982,
        "hub_value": 2.6666666666666665,
        "margins": {},
        "rate": 1.9999999999999998,
        "regime": None,
        "speed": None,
        "theorem": "regular-localized",
    }),
    (("cycle:4", 0.5, None, None, None), {
        "branch": "hub",
        "clique_value": 0.3535533905932738,
        "delta0": 16.0,
        "hub_value": 0.11803398874989486,
        "margins": {},
        "rate": 0.11803398874989486,
        "regime": None,
        "speed": None,
        "theorem": "regular-localized",
    }),
    (("star:2", 1.5, None, None, 1.0), {
        "margins": {},
        "rate": 0.8535533905932737,
        "regime": None,
        "speed": None,
        "theorem": "star-localized-II",
    }),
    (("star:2", 1.0, 10000, 0.0251, 0.5), {
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": 0.920282753143693,
            "localized_I.p_below_1": 3.684887432844399,
            "poisson.mean_above_1": 20.261246250239754,
            "poisson.mean_below_polylog": -15.820592637504062,
            "star_II.mean_above_polylog": 15.820592637504062,
            "star_II.p_at_most_n^(-1/r)": -0.920282753143693,
        },
        "rate": 0.5,
        "regime": "LocalizedI",
        "speed": 232151.59315663,
        "theorem": "star-localized-II",
    }),
    (("star:2", 1.0, 1000000, 2.8585564675625834e-06, 0.25), {
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": -5.857438513191733,
            "localized_I.p_below_1": 12.76519379217387,
            "poisson.mean_above_1": 15.916144089545082,
            "poisson.mean_below_polylog": -10.66456026059306,
            "star_II.mean_above_polylog": 10.66456026059306,
            "star_II.p_at_most_n^(-1/r)": 5.857438513191733,
        },
        "rate": 0.5,
        "regime": "LocalizedII-Star",
        "speed": 39492.41705814793,
        "theorem": "star-localized-II",
    }),
    (("star:2", 1.0, 1000000, 0.001, None), {
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": 0.0,
            "localized_I.p_below_1": 6.907755278982137,
            "poisson.mean_above_1": 27.631021115928547,
            "poisson.mean_below_polylog": -22.379437286976525,
            "star_II.mean_above_polylog": 22.379437286976525,
            "star_II.p_at_most_n^(-1/r)": 0.0,
        },
        "near_jump": True,
        "rate": 0.5,
        "regime": "LocalizedII-Star",
        "rho_hat": 1.0,
        "speed": 13815510.557964273,
        "theorem": "star-localized-II",
    }),
    (("star:2", 0.5, 40, 0.02, None), {
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": -2.0675832783711776,
            "localized_I.p_below_1": 3.912023005428146,
            "poisson.mean_above_1": 3.2425923514855173,
            "poisson.mean_below_polylog": -0.631946869559044,
            "star_II.mean_above_polylog": 0.631946869559044,
            "star_II.p_at_most_n^(-1/r)": 2.0675832783711776,
        },
        "near_jump": False,
        "rate": 0.3535533905932738,
        "regime": "LocalizedII-Star",
        "rho_hat": 0.016,
        "speed": 18.664417742077802,
        "theorem": "star-localized-II",
    }),
    (("clique:3", 1.0, 1000000, 2.8585564675625834e-06, None), {
        "margins": {
            "poisson.mean_above_1": 3.1509502973712102,
            "poisson.mean_below_polylog": 4.7264254460568225,
            "regular.np^(Delta/2)_above_polylog": -1.575475148685607,
            "regular.p_below_1": 12.76519379217387,
        },
        "rate": 0.3862943611198906,
        "regime": "Poisson",
        "speed": 3.893041887016619,
        "theorem": "poisson",
    }),
    (("clique:3", 0.0, 1000000, 2.8585564675625834e-06, None), {
        "margins": {
            "poisson.mean_above_1": 3.1509502973712102,
            "poisson.mean_below_polylog": 4.7264254460568225,
            "regular.np^(Delta/2)_above_polylog": -1.575475148685607,
            "regular.p_below_1": 12.76519379217387,
        },
        "rate": 0.0,
        "regime": "Poisson",
        "speed": 3.893041887016619,
        "theorem": "poisson",
    }),
    (("star:2", 1.0, 1000000, 3.981071705534977e-09, None), {
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": -12.433959502167845,
            "localized_I.p_below_1": 19.34171478114998,
            "poisson.mean_above_1": 2.7631021115928576,
            "poisson.mean_below_polylog": 2.4884817173591642,
            "star_II.mean_above_polylog": -2.4884817173591642,
            "star_II.p_at_most_n^(-1/r)": 12.433959502167845,
        },
        "rate": 0.3862943611198906,
        "regime": "Poisson",
        "speed": 7.924465962305586,
        "theorem": "poisson",
    }),
    (("star:2", 1.0, 1000000, 0.003981071705534972, None), {
        "core_polynomial": [1, 1],
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": 1.381551055796427,
            "localized_I.p_below_1": 5.52620422318571,
            "poisson.mean_above_1": 30.3941232275214,
            "poisson.mean_below_polylog": -25.14253939856938,
            "star_II.mean_above_polylog": 25.14253939856938,
            "star_II.p_at_most_n^(-1/r)": -1.381551055796427,
        },
        "rate": 0.9999999999995453,
        "regime": "LocalizedI",
        "speed": 87584434.53476883,
        "theorem": "localized-I",
    }),
    (("path:4", 1.0, 1000, 0.05, None), {
        "core_polynomial": [1, 2],
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": 0.45814536593707755,
            "localized_I.p_below_1": 2.995732273553991,
            "poisson.mean_above_1": 18.643824295266576,
            "poisson.mean_below_polylog": -14.778534827434445,
        },
        "rate": 0.49999999999954525,
        "regime": "LocalizedI",
        "speed": 7489.3306838849785,
        "theorem": "localized-I",
    }),
    (("clique:3", 1.0, 1000000, 0.00025118864315095806, None), {
        "branch": "hub",
        "clique_value": 0.5,
        "delta0": 3.3749999999999982,
        "hub_value": 0.3333333333333333,
        "margins": {
            "poisson.mean_above_1": 16.57861266955713,
            "poisson.mean_below_polylog": -8.701236926129098,
            "regular.np^(Delta/2)_above_polylog": 2.900412308709699,
            "regular.p_below_1": 8.289306334778564,
        },
        "rate": 0.3333333333333333,
        "regime": "Regular-Localized",
        "speed": 523019.87125747284,
        "theorem": "regular-localized",
    }),
    (("star:2", 1.0, 1000000, 2.511886431509577e-10, None), {
        "core_polynomial": [1, 1],
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": -15.197061613760702,
            "localized_I.p_below_1": 22.10481689274284,
            "poisson.mean_above_1": -2.7631021115928576,
            "poisson.mean_below_polylog": 8.01468594054488,
            "star_II.mean_above_polylog": -8.01468594054488,
            "star_II.p_at_most_n^(-1/r)": 15.197061613760702,
        },
        "rate": 0.9999999999995453,
        "regime": "Unclassified",
        "speed": None,
        "theorem": "localized-I",
    }),
    (("star:2", 1.0, 1000000, 3.981071705534977e-09, 0.5), {
        "margins": {
            "localized_I.p_above_n^(-1/Delta)": -12.433959502167845,
            "localized_I.p_below_1": 19.34171478114998,
            "poisson.mean_above_1": 2.7631021115928576,
            "poisson.mean_below_polylog": 2.4884817173591642,
            "star_II.mean_above_polylog": -2.4884817173591642,
            "star_II.p_at_most_n^(-1/r)": 12.433959502167845,
        },
        "rate": 0.5,
        "regime": "Poisson",
        "speed": 7.924465962305586,
        "theorem": "star-localized-II",
    }),
]

# The three intended differences from the recorded results.  (1) ``theorem``
# now uses the Regime tags.  (2) ``speed`` belongs to the theorem that gave
# the rate, so it is null where an explicit rho overrides the classified
# regime (it used to be the regime's speed).
THEOREM_RENAMES = {"localized-I": "LocalizedI", "regular-localized": "Regular-Localized",
                   "poisson": "Poisson", "star-localized-II": "LocalizedII-Star"}
# (3) Newton may now step onto the top of the bisection bracket, where an
# exactly representable root sits, so the roots 1/2 and 1 are exact (they
# were recorded 4.5e-13 low), and the C4 crossover, now one root of
# P(t) - 1 - (2t)^2 bisected to adjacent floats, ends 4 ulp lower.
POLISHED = {0.49999999999954525: 0.5, 0.9999999999995453: 1.0, 16.0: 15.999999999999993}


def _expected_now(case, recorded):
    expected = {key: POLISHED.get(value, value) if isinstance(value, float) else value
                for key, value in recorded.items()}
    expected["theorem"] = THEOREM_RENAMES[recorded["theorem"]]
    if case[4] is not None and expected["regime"] != expected["theorem"]:
        expected["speed"] = None
    return expected


def _cli_rate(case):
    spec, delta, n, p, rho = case
    argv = ["rate", "--pattern", spec, "--delta", repr(delta)]
    argv += [] if n is None else ["--n", str(n), "--p", repr(p)]
    argv += [] if rho is None else ["--rho", repr(rho)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())["result"]


def _json_round_trip(value):
    return json.loads(json.dumps(_json_ready(value)))


@pytest.mark.parametrize("case, recorded", RECORDED_RATE_RESULTS,
                         ids=[repr(case) for case, _ in RECORDED_RATE_RESULTS])
def test_rate_for_reproduces_the_recorded_dispatch(case, recorded):
    expected = _expected_now(case, recorded)
    spec, delta, n, p, rho = case
    res = rate_for(pattern_from_shorthand(spec), delta, n, p, rho)
    assert res.theorem == expected["theorem"]
    assert res.rate == expected["rate"]
    assert (res.regime and res.regime.tag) == expected["regime"]
    assert _json_round_trip(res.regime.margins if res.regime else {}) == expected["margins"]
    extras = {k: v for k, v in expected.items()
              if k not in ("margins", "rate", "regime", "speed", "theorem")}
    assert _json_round_trip(res.details) == extras
    assert _cli_rate(case) == expected


def test_reported_speed_is_the_theorems_speed():
    for case, _ in RECORDED_RATE_RESULTS:
        spec, delta, n, p, rho = case
        result = _cli_rate(case)
        if result["speed"] is not None:
            assert result["regime"] == result["theorem"]
            assert result["speed"] == speed(result["theorem"], pattern_from_shorthand(spec), n, p)
    # The override of a LocalizedI point by an explicit rho: no speed.
    result = _cli_rate(("star:2", 1.0, 10000, 0.0251, 0.5))
    assert (result["regime"], result["theorem"], result["speed"]) == (
        "LocalizedI", "LocalizedII-Star", None)


def test_speed_table_has_one_entry_per_theorem():
    assert sorted(SPEEDS) == ["LocalizedI", "LocalizedII-Star", "Poisson", "Regular-Localized"]
    res = rate_for(star(2), 1.0, rho=0.5)
    assert res.speed(10**4, 1e-3) == SPEEDS["LocalizedII-Star"](star(2), 10**4, 1e-3)


@pytest.mark.parametrize("kwargs", [
    {"delta": math.nan}, {"delta": math.inf}, {"delta": -1.0},
    {"delta": 1.0, "n": 10**4}, {"delta": 1.0, "p": 0.01},
    {"delta": 1.0, "n": 10**4, "p": 0.01, "slack": math.nan},
    {"delta": 1.0, "n": 10**4, "p": 0.01, "slack": math.inf},
    {"delta": 1.0, "rho": math.nan}, {"delta": 1.0, "rho": math.inf},
    {"delta": math.nan, "n": 40, "p": 0.02},
])
def test_rate_for_rejects_non_finite_and_partial_inputs(kwargs):
    with pytest.raises(ValidationError):
        rate_for(star(2), **kwargs)
