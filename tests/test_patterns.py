import itertools
import random
from fractions import Fraction

import pytest

from uppertail.errors import ValidationError
from uppertail.graphs import (
    PatternGraph, biclique, clique, cycle, is_bipartite_with_parts, max_degree, path, star,
)
from uppertail import patterns
from uppertail.patterns import (
    IndependencePolynomial,
    analyze_pattern,
    deficiency_sigma,
    enumerate_qh,
    fractional_independence_number,
    h_star,
    independence_polynomial,
    lemma23_check,
    qh_independent_set_bijection_check,
)
from util_smallgraphs import alpha_by_search, connected_patterns_upto


def member_pattern(member) -> PatternGraph:
    """A Q_H member's subgraph J relabelled to a dense pattern."""
    index = {v: i for i, v in enumerate(member.vertices)}
    return PatternGraph(len(index), [(index[u], index[v]) for u, v in member.edges])


def test_fractional_independence_examples():
    assert fractional_independence_number(clique(3)).value == Fraction(3, 2)
    assert fractional_independence_number(star(3)).value == 3
    assert fractional_independence_number(cycle(4)).value == 2


def test_fractional_independence_witness_feasible():
    for pat in (clique(4), path(5), cycle(5), biclique(2, 3)):
        res = fractional_independence_number(pat)
        assert sum(res.assignment) == res.value
        for u, v in pat.edges:
            assert res.assignment[u] + res.assignment[v] <= 1


def test_fractional_independence_bounds_and_halves():
    for pat in connected_patterns_upto(5):
        value = fractional_independence_number(pat).value
        assert Fraction(pat.vertex_count, 2) <= value <= pat.vertex_count
        assert value.denominator in (1, 2)


def _assert_alpha_matches_search(n, edges):
    value, witness = patterns._alpha(n, frozenset(edges))
    assert value == alpha_by_search(n, edges)[0], (n, sorted(edges))
    # Any optimal witness will do: feasible, in [0, 1] and summing to the value.
    assert sum(witness) == value and all(0 <= x <= 1 for x in witness)
    assert all(witness[u] + witness[v] <= 1 for u, v in edges)


def test_alpha_by_matching_equals_the_exhaustive_search():
    # Every labelled graph on at most 5 vertices, isolated vertices included.
    for n in range(1, 6):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            _assert_alpha_matches_search(n, [e for i, e in enumerate(slots) if mask >> i & 1])
    rng = random.Random(21)
    for _ in range(1000):
        n, q = rng.randint(6, 12), rng.random()
        _assert_alpha_matches_search(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < q])


def test_bipartite_alpha_integral():
    # All bipartite patterns on <= 6 vertices, plus random larger ones.
    for pat in connected_patterns_upto(6):
        if is_bipartite_with_parts(pat) is not None:
            assert fractional_independence_number(pat).value.denominator == 1
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([7, 8])
        left = rng.randint(1, n - 1)
        edges = [
            (u, v)
            for u in range(left)
            for v in range(left, n)
            if rng.random() < 0.5
        ]
        pat = PatternGraph(n, edges)
        assert fractional_independence_number(pat).value.denominator == 1


def test_fractional_cap():
    with pytest.raises(ValidationError):
        fractional_independence_number(clique(13))


def test_h_star():
    assert h_star(star(3)).vertex_count == 1
    assert h_star(path(4)) == PatternGraph(2, [(0, 1)])
    assert h_star(path(5)) == path(3)
    assert h_star(cycle(5)) == cycle(5)  # regular: the core is everything


def test_independence_polynomial_examples():
    assert independence_polynomial(PatternGraph(1, [])).coefficients == (1, 1)
    assert independence_polynomial(PatternGraph(2, [(0, 1)])).coefficients == (1, 2)
    assert independence_polynomial(path(3)).coefficients == (1, 3, 1)


def test_independence_polynomial_brute_force():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        pat = PatternGraph(n, edges)
        coeffs = independence_polynomial(pat).coefficients
        # brute force: count independent subsets by size
        byhand = [0] * (n + 1)
        for size in range(n + 1):
            for sub in itertools.combinations(range(n), size):
                inside = set(sub)
                if all(not (u in inside and v in inside) for u, v in edges):
                    byhand[size] += 1
        while byhand and byhand[-1] == 0:
            byhand.pop()
        assert coeffs == tuple(byhand)


def test_independence_polynomial_disjoint_union_convolution():
    a, b = path(3), clique(3)
    union = PatternGraph(6, list(a.edges) + [(u + 3, v + 3) for u, v in b.edges])
    pa = independence_polynomial(a).coefficients
    pb = independence_polynomial(b).coefficients
    conv = [0] * (len(pa) + len(pb) - 1)
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            conv[i + j] += x * y
    assert independence_polynomial(union).coefficients == tuple(conv)


def test_independence_polynomial_shape():
    for pat in (path(4), cycle(6), star(5)):
        poly = independence_polynomial(pat)
        assert poly.coefficients[0] == 1
        assert poly.coefficients[1] == pat.vertex_count
        assert poly.evaluate(0.0) == 1.0
        assert poly.evaluate(0.2) < poly.evaluate(0.3)


def test_enumerate_qh_examples():
    assert len(enumerate_qh(star(3))) == 1
    only = enumerate_qh(star(3))[0]
    assert only.a_side == frozenset({0}) and len(only.edges) == 3

    members = enumerate_qh(path(4))
    assert len(members) == 2
    assert all(len(m.a_side) == 1 and len(m.edges) == 2 for m in members)
    assert {next(iter(m.a_side)) for m in members} == {1, 2}

    c4 = enumerate_qh(cycle(4))
    assert len(c4) == 6
    full = [m for m in c4 if len(m.edges) == 4]
    assert len(full) == 2  # the two orientations of the 4-cycle itself


def test_qh_member_invariants():
    for pat in (path(4), path(5), star(3), cycle(4), cycle(6)):
        delta = max(pat.degrees())
        for member in enumerate_qh(pat):
            assert len(member.edges) == delta * len(member.a_side)
            sub = member_pattern(member)
            alpha = fractional_independence_number(sub).value
            assert alpha == len(member.b_side)


def test_bijection_check_examples():
    assert qh_independent_set_bijection_check(path(4))
    assert qh_independent_set_bijection_check(star(3))
    assert qh_independent_set_bijection_check(path(5))


def test_sigma_examples():
    assert deficiency_sigma(path(4)).value == 1
    assert deficiency_sigma(star(3)).value == 1
    assert deficiency_sigma(path(5)).value == 1
    with pytest.raises(ValidationError):
        deficiency_sigma(PatternGraph(2, [(0, 1)]))


def test_sigma_positive_for_irregular():
    from uppertail.graphs import is_regular

    for pat in connected_patterns_upto(5):
        if pat.edge_count <= 1:
            continue
        result = deficiency_sigma(pat)
        assert result.witness.edge_count >= 1
        if not is_regular(pat):
            assert result.value > 0
        else:
            # Regular non-bipartite patterns attain 0 via the all-halves
            # assignment on themselves; the balance bound still holds.
            assert result.value >= 0


def test_lemma23_examples():
    assert lemma23_check(path(4))
    assert lemma23_check(star(3))
    chord = PatternGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    assert lemma23_check(chord)


def test_polynomial_validation():
    with pytest.raises(ValidationError):
        IndependencePolynomial((2, 1))


def test_size_caps():
    from uppertail.graphs import PatternGraph

    big = PatternGraph(21, [(i, i + 1) for i in range(20)])
    with pytest.raises(ValidationError):
        independence_polynomial(big)
    wide = PatternGraph(11, [(0, i) for i in range(1, 11)])
    with pytest.raises(ValidationError):
        enumerate_qh(wide)


def test_edge_subset_walks_refuse_past_the_edge_cap():
    # clique:7 has 21 edges and biclique:4,4 has 16: 2^e subsets each.
    for pattern in (clique(7), biclique(4, 4)):
        e = pattern.edge_count
        for walk in (enumerate_qh, deficiency_sigma, lemma23_check):
            with pytest.raises(ValidationError, match=f"pattern has {e} edges, over the 15-edge cap"):
                walk(pattern)
        with pytest.warns(UserWarning, match="regular"):
            report = analyze_pattern(pattern)
        assert report.qh_size is None and report.sigma is None


def test_alpha_cache_is_bounded():
    # The deficiency walk asks for alpha* of all 2^15 - 1 edge subsets of K6.
    with pytest.warns(UserWarning, match="regular"):
        analyze_pattern(clique(6))
    assert patterns._alpha.cache_info().currsize <= 4096


# ---------------------------------------------------------------------------
# The walks that ``patterns._qh_walk`` replaced, kept as oracles: Q_H by its
# own scan, and sigma and the Lemma 2.3 check each walking the edge subsets
# a second time, after listing Q_H.
# ---------------------------------------------------------------------------

def _enumerate_qh_oracle(pattern):
    delta = max_degree(pattern)
    members = []
    for edges in patterns._iter_edge_subsets(pattern):
        deg = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        full = [v for v, d in deg.items() if d == delta]
        if not full:
            continue
        verts = set(deg)
        for k in range(1, len(full) + 1):
            for a_side in itertools.combinations(full, k):
                a_set = set(a_side)
                if all(((u in a_set) != (v in a_set)) for u, v in edges):
                    members.append(patterns.QhMember(
                        edges=frozenset(edges), a_side=frozenset(a_set),
                        b_side=frozenset(verts - a_set)))
    return members


def _deficiency_sigma_oracle(pattern):
    delta = max_degree(pattern)
    member_edge_sets = {m.edges for m in _enumerate_qh_oracle(pattern)}
    best = witness = None
    for edges in patterns._iter_edge_subsets(pattern):
        if frozenset(edges) in member_edge_sets:
            continue
        sub, alpha = patterns._subgraph_stats(edges)
        value = delta * (sub.vertex_count - alpha) - sub.edge_count
        if best is None or value < best:
            best, witness = value, sub
    if best is None:
        raise ValidationError("no subgraph outside the full-degree family (degenerate pattern)")
    return patterns.Deficiency(best, witness)


def _lemma23_oracle(pattern):
    delta = max_degree(pattern)
    members = _enumerate_qh_oracle(pattern)
    member_edge_sets = {m.edges for m in members}
    for edges in patterns._iter_edge_subsets(pattern):
        sub, alpha = patterns._subgraph_stats(edges)
        slack = delta * (sub.vertex_count - alpha) - sub.edge_count
        if slack < 0 or (slack == 0) != (frozenset(edges) in member_edge_sets):
            return False
    for member in members:
        verts = set(member.vertices)
        for u, v in member.edges:
            a, b = (u, v) if u in member.a_side else (v, u)
            index = {x: i for i, x in enumerate(sorted(verts - {a, b}))}
            kept = frozenset((index[x], index[y]) for x, y in member.edges
                             if a not in (x, y) and b not in (x, y))
            if patterns._alpha(len(index), kept)[0] != len(member.b_side) - 1:
                return False
    return True


def _outcome(job, pattern):
    try:
        return job(pattern)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.filterwarnings("ignore:pattern is regular")
def test_one_walk_matches_the_oracles(monkeypatch):
    battery = connected_patterns_upto(5) + [path(10), cycle(10), biclique(3, 4)]
    jobs = (qh_independent_set_bijection_check, analyze_pattern)
    for pat in battery:
        for job, oracle in ((enumerate_qh, _enumerate_qh_oracle),
                            (deficiency_sigma, _deficiency_sigma_oracle),
                            (lemma23_check, _lemma23_oracle)):
            assert _outcome(job, pat) == _outcome(oracle, pat), (job.__name__, pat)
        now = [_outcome(job, pat) for job in jobs]
        with monkeypatch.context() as m:
            m.setattr(patterns, "enumerate_qh", _enumerate_qh_oracle)
            m.setattr(patterns, "deficiency_sigma", _deficiency_sigma_oracle)
            assert now == [_outcome(job, pat) for job in jobs], pat


def test_each_job_walks_the_edge_subsets_once(monkeypatch):
    walks = []
    walk = patterns._iter_edge_subsets

    def counted(pattern):
        walks.append(pattern)
        return walk(pattern)

    monkeypatch.setattr(patterns, "_iter_edge_subsets", counted)
    # analyze_pattern reads Q_H and sigma: one walk each.
    for job, count in ((analyze_pattern, 2), (lemma23_check, 1), (deficiency_sigma, 1),
                       (enumerate_qh, 1)):
        walks.clear()
        job(path(5))
        assert len(walks) == count, job.__name__
