"""Every public function that reads p, delta, epsilon, rho, slack, chi, c_bar,
a degree, size or count threshold, or the n of a star solver refuses NaN,
+inf, -inf and a finite value outside its range with a ``ValidationError``
that names the argument, in the one form ``errors._check_range`` gives:
``<name> must lie in <interval>, got <value>``.
"""

import math
import re

import pytest

from uppertail.errors import ValidationError, _check_range
from uppertail.graphs import HostGraph, clique, cycle, star
from uppertail.meanfield import (
    EdgeProbabilityMatrix,
    bernoulli_relative_entropy,
    phi_planted_search,
    planted_star_optimizer,
    total_cost,
    variational_upper_bound,
)
from uppertail.montecarlo import (
    conditioned_structure_frequency,
    estimate_tail_direct,
    estimate_tail_importance,
    exact_tail,
    poisson_fit_experiment,
    sample_gnp,
    threshold_for,
)
from uppertail.patterns import IndependencePolynomial
from uppertail.rates import (
    rate_for,
    rate_localized_I,
    rate_poisson,
    rate_regular,
    rate_star_localized_II,
    regime_classify,
    speed,
    star_rho_proxy,
    theta_star_root,
)
from uppertail.structures import (
    CoreConfig,
    detect_clique,
    detect_high_degree,
    detect_hub,
    detect_tilde_hub,
    extract_core,
    extract_strong_core,
    stability_peel,
    verify_hub,
)

K4 = HostGraph.complete(4)
CFG = CoreConfig(1.0, 0.1)
XI = EdgeProbabilityMatrix.constant(5, 0.3)
PROPOSAL = EdgeProbabilityMatrix.planting("hub:1", 5, 0.3)

# (function, argument name, a finite value outside its range or None when
# its range is every real number, and a call that puts the value there).
CASES = [
    ("theta_star_root", "delta", 0.0, lambda x: theta_star_root(IndependencePolynomial((1, 2)), x)),
    ("rate_localized_I", "delta", -1.0, lambda x: rate_localized_I(star(2), x)),
    ("rate_regular", "delta", 0.0, lambda x: rate_regular(cycle(4), x)),
    ("rate_poisson", "delta", -1.0, rate_poisson),
    ("rate_star_localized_II", "delta", 0.0, lambda x: rate_star_localized_II(2, x, 0.5)),
    ("rate_star_localized_II", "rho", -1.0, lambda x: rate_star_localized_II(2, 1.0, x)),
    ("star_rho_proxy", "p", 1.0, lambda x: star_rho_proxy(100, x, 2, 1.0)),
    ("star_rho_proxy", "delta", 0.0, lambda x: star_rho_proxy(100, 0.1, 2, x)),
    ("regime_classify", "p", 0.0, lambda x: regime_classify(star(2), 100, x)),
    ("regime_classify", "slack", 0.0, lambda x: regime_classify(star(2), 100, 0.1, x)),
    ("rate_for", "delta", -1.0, lambda x: rate_for(star(2), x)),
    ("rate_for", "p", 1.5, lambda x: rate_for(star(2), 1.0, 100, x)),
    ("rate_for", "rho", -1.0, lambda x: rate_for(star(2), 1.0, rho=x)),
    ("rate_for", "slack", -1.0, lambda x: rate_for(star(2), 1.0, 100, 0.1, slack=x)),
    ("speed", "p", 0.0, lambda x: speed("LocalizedI", star(2), 100, x)),
    ("EdgeProbabilityMatrix.constant", "p", 1.5, lambda x: EdgeProbabilityMatrix.constant(5, x)),
    ("EdgeProbabilityMatrix.planted", "p", -0.5,
     lambda x: EdgeProbabilityMatrix.planted(5, x, hubs=[1])),
    ("EdgeProbabilityMatrix.planting", "p", 1.5,
     lambda x: EdgeProbabilityMatrix.planting("hub:1", 5, x)),
    ("EdgeProbabilityMatrix.log_likelihood_ratio", "p", 0.0, PROPOSAL.log_likelihood_ratio),
    ("bernoulli_relative_entropy", "p", 1.0, lambda x: bernoulli_relative_entropy(0.5, x)),
    ("total_cost", "p", 0.0, lambda x: total_cost(XI, x)),
    ("planted_star_optimizer", "n", 2, lambda x: planted_star_optimizer(x, 0.05, 2, 1.0, 0.1)),
    ("planted_star_optimizer", "p", 0.0, lambda x: planted_star_optimizer(100, x, 2, 1.0, 0.1)),
    ("planted_star_optimizer", "delta", 0.0,
     lambda x: planted_star_optimizer(100, 0.05, 2, x, 0.1)),
    ("planted_star_optimizer", "epsilon", 1.0,
     lambda x: planted_star_optimizer(100, 0.05, 2, 1.0, x)),
    ("variational_upper_bound", "n", 2, lambda x: variational_upper_bound(x, 0.05, 2, 1.0)),
    ("variational_upper_bound", "p", 1.0, lambda x: variational_upper_bound(40, x, 2, 1.0)),
    ("variational_upper_bound", "delta", 0.0, lambda x: variational_upper_bound(40, 0.05, 2, x)),
    ("phi_planted_search", "p", 0.0, lambda x: phi_planted_search(clique(3), 10, x, 1.0)),
    ("phi_planted_search", "delta", -0.1, lambda x: phi_planted_search(clique(3), 10, 0.3, x)),
    ("sample_gnp", "p", 1.5, lambda x: sample_gnp(5, x, 0)),
    ("exact_tail", "p", -0.5, lambda x: exact_tail(star(2), 4, x, 1)),
    ("exact_tail", "threshold", None, lambda x: exact_tail(star(2), 4, 0.3, x)),
    ("estimate_tail_direct", "p", 1.5, lambda x: estimate_tail_direct(star(2), 5, x, 8, 10, 0)),
    ("estimate_tail_direct", "threshold", None,
     lambda x: estimate_tail_direct(star(2), 5, 0.3, x, 10, 0)),
    ("estimate_tail_importance", "p", 0.0,
     lambda x: estimate_tail_importance(star(2), 5, x, 8, PROPOSAL, 10, 0)),
    ("estimate_tail_importance", "threshold", None,
     lambda x: estimate_tail_importance(star(2), 5, 0.3, x, PROPOSAL, 10, 0)),
    ("threshold_for", "delta", -1.0, lambda x: threshold_for(x, star(2), 40, 0.05)),
    ("threshold_for", "p", 1.5, lambda x: threshold_for(1.0, star(2), 40, x)),
    ("conditioned_structure_frequency", "p", -0.5,
     lambda x: conditioned_structure_frequency(star(2), 40, x, 1.0, 5.0, 10, 0)),
    ("conditioned_structure_frequency", "delta", -1.0,
     lambda x: conditioned_structure_frequency(star(2), 40, 0.05, x, 5.0, 10, 0)),
    ("conditioned_structure_frequency", "degree_threshold", None,
     lambda x: conditioned_structure_frequency(star(2), 40, 0.05, 1.0, x, 10, 0)),
    ("conditioned_structure_frequency", "threshold", None,
     lambda x: conditioned_structure_frequency(star(2), 40, 0.05, 1.0, 5.0, 10, 0, threshold=x)),
    ("poisson_fit_experiment", "p", 1.5, lambda x: poisson_fit_experiment(clique(3), 8, x, 10, 0)),
    ("verify_hub", "degree_threshold", None, lambda x: verify_hub(K4, (0,), x, 1.0)),
    ("verify_hub", "edge_threshold", None, lambda x: verify_hub(K4, (0,), 1.0, x)),
    ("detect_hub", "degree_threshold", None, lambda x: detect_hub(K4, 1.0, x)),
    ("detect_hub", "edge_threshold", None, lambda x: detect_hub(K4, x, 1.0)),
    ("detect_clique", "chi", 1.0, lambda x: detect_clique(K4, x, 2.0)),
    ("detect_clique", "size_threshold", None, lambda x: detect_clique(K4, 0.1, x)),
    ("detect_high_degree", "threshold", None, lambda x: detect_high_degree(K4, x)),
    ("detect_tilde_hub", "u_degree_threshold", None, lambda x: detect_tilde_hub(K4, 1, x, 1.0)),
    ("detect_tilde_hub", "extra_degree_threshold", None,
     lambda x: detect_tilde_hub(K4, 1, 1.0, x)),
    ("CoreConfig", "delta", 0.0, lambda x: CoreConfig(x, 0.1)),
    ("CoreConfig", "epsilon", -0.1, lambda x: CoreConfig(1.0, x)),
    ("CoreConfig", "c_bar", 0.0, lambda x: CoreConfig(1.0, 0.1, c_bar=x)),
    ("CoreConfig", "c_bar_star", -1.0, lambda x: CoreConfig(1.0, 0.1, c_bar_star=x)),
    ("extract_core", "p", 1.0, lambda x: extract_core(K4, clique(3), CFG, 4, x)),
    ("extract_strong_core", "p", 0.0, lambda x: extract_strong_core(K4, 2, CFG, 4, x)),
    ("stability_peel", "epsilon", 0.0, lambda x: stability_peel(K4, x)),
]


BAD = [pytest.param(name, call, value, id=f"{function}-{name}-{value!r}")
       for function, name, outside, call in CASES
       for value in (math.nan, math.inf, -math.inf, outside) if value is not None]


@pytest.mark.parametrize("name, call, value", BAD)
def test_bad_values_are_refused_by_name(name, call, value):
    message = f"^{name} must lie in .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        call(value)


@pytest.mark.parametrize("solve", [lambda n, r: planted_star_optimizer(n, 0.05, r, 1.0, 0.1),
                                   lambda n, r: variational_upper_bound(n, 0.05, r, 1.0)],
                         ids=["planted_star_optimizer", "variational_upper_bound"])
def test_star_solvers_need_room_for_one_star(solve):
    # An r-star has r + 1 vertices; below that the solvers name n, not the
    # constraint they cannot meet.
    for r in (2, 3):
        for n in (-3, 0, 1, r):
            with pytest.raises(ValidationError, match=rf"^n must lie in \[{r + 1}, inf\), got {n}$"):
                solve(n, r)
        solve(r + 1, r)


@pytest.mark.parametrize("interval, inside, outside", [
    ("(0, 1)", [0.5, 1e-300], [0.0, 1.0]),
    ("[0, 1]", [0.0, 1.0], [-1e-300, 1.0000000000000002]),
    ("[0, 1)", [0.0], [1.0]),
    ("(0, inf)", [1e-300, 1e308], [0.0]),
    ("[0, inf)", [0, 10**400], [-1]),
    ("[1, inf)", [1, 10**400], [0]),
    ("(-inf, inf)", [-1e308, 0.0, 1e308], []),
])
def test_check_range(interval, inside, outside):
    for value in inside:
        assert _check_range("x", value, interval) is value
    for value in outside + [math.nan, math.inf, -math.inf]:
        with pytest.raises(ValidationError, match=f"^x must lie in {re.escape(interval)}, got "):
            _check_range("x", value, interval)
