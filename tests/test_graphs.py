import math

import pytest

from uppertail.errors import ValidationError
from uppertail.graphs import (
    HostGraph,
    PatternGraph,
    automorphism_count,
    biclique,
    clique,
    cycle,
    induced_subgraph,
    is_bipartite_with_parts,
    is_connected,
    is_regular,
    is_strictly_balanced,
    load_edge_list,
    max_degree,
    path,
    pattern_from_shorthand,
    star,
    validate_vertex_set,
)
from conftest import seeded_hosts


def test_pattern_construction_rejects_bad_edges():
    with pytest.raises(ValidationError):
        PatternGraph(3, [(0, 0)])
    with pytest.raises(ValidationError):
        PatternGraph(3, [(0, 3)])
    # duplicate edges collapse silently (sets), orientation normalized
    g = PatternGraph(3, [(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_max_degree():
    assert max_degree(star(3)) == 3
    assert max_degree(path(4)) == 2
    assert max_degree(cycle(5)) == 2
    with pytest.raises(ValidationError):
        max_degree(PatternGraph(3, []))


def test_is_regular():
    assert is_regular(cycle(4))
    assert not is_regular(star(2))
    assert is_regular(clique(4))


def test_is_connected():
    assert is_connected(path(4))
    assert not is_connected(PatternGraph(4, [(0, 1), (2, 3)]))
    assert is_connected(PatternGraph(1, []))


def test_bipartite_parts():
    assert is_bipartite_with_parts(cycle(4)) == ((0, 2), (1, 3))
    assert is_bipartite_with_parts(clique(3)) is None
    parts = is_bipartite_with_parts(star(3))
    assert parts == ((0,), (1, 2, 3))
    # every edge crosses the returned parts
    g = biclique(2, 3)
    p0, p1 = is_bipartite_with_parts(g)
    side = {v: 0 for v in p0} | {v: 1 for v in p1}
    assert all(side[u] != side[v] for u, v in g.edges)


def test_automorphism_count_examples():
    assert automorphism_count(clique(3)) == 6
    assert automorphism_count(star(3)) == 6
    assert automorphism_count(path(4)) == 2


def test_automorphism_count_invariants():
    for m in range(2, 6):
        assert automorphism_count(clique(m)) == math.factorial(m)
    for g in (path(5), cycle(5), biclique(2, 3), star(4)):
        assert math.factorial(g.vertex_count) % automorphism_count(g) == 0
    with pytest.raises(ValidationError):
        automorphism_count(clique(13))


def test_strictly_balanced():
    assert is_strictly_balanced(clique(3))
    assert is_strictly_balanced(cycle(4))
    triangle_pendant = PatternGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert not is_strictly_balanced(triangle_pendant)
    assert is_strictly_balanced(PatternGraph(2, [(0, 1)]))
    with pytest.raises(ValidationError):
        is_strictly_balanced(PatternGraph(4, [(0, 1), (2, 3)]))


def test_strictly_balanced_checks_the_vertex_cap_first():
    # The subset walk takes 2^v steps: 2^100 for star:99.  Patterns past
    # the cap are refused before it starts.
    assert is_strictly_balanced(star(11))  # 12 vertices, at the cap
    for arms in (12, 40, 99):
        with pytest.raises(ValidationError, match="pattern too large"):
            is_strictly_balanced(star(arms))


def test_induced_subgraph():
    g, mapping = induced_subgraph(clique(4), [0, 1, 2])
    assert g == clique(3) and mapping == (0, 1, 2)
    g, _ = induced_subgraph(path(4), [0, 3])
    assert g.vertex_count == 2 and g.edge_count == 0
    g, _ = induced_subgraph(cycle(5), [0, 1, 2, 3])
    assert g == path(4)
    # identity up to relabeling on the full vertex set
    for pat in (path(5), cycle(6), star(4)):
        g, mapping = induced_subgraph(pat, range(pat.vertex_count))
        assert g == pat and mapping == tuple(range(pat.vertex_count))
    with pytest.raises(ValidationError):
        induced_subgraph(path(4), [0, 9])
    with pytest.raises(ValidationError):
        induced_subgraph(path(4), [0, 0])


def test_cross_subgraph_partition_identity():
    for host in seeded_hosts(10, (5, 9), 0.5, 7):
        n = host.vertex_count
        half = list(range(n // 2))
        rest = list(range(n // 2, n))
        cross = sum(1 for u, v in host.edges() if u < n // 2 <= v)
        inside_u = host.subgraph_on(half).edge_count
        inside_v = host.subgraph_on(rest).edge_count
        assert cross + inside_u + inside_v == host.edge_count
        assert cross <= host.edge_count


def test_degree_sum_identity():
    for host in seeded_hosts(10, (4, 10), 0.4, 11):
        assert sum(host.degrees()) == 2 * host.edge_count
    for pat in (path(5), star(4), cycle(6)):
        assert sum(pat.degrees()) == 2 * pat.edge_count


def test_host_graph_basics():
    g = HostGraph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.neighbors(1) == [0, 2]
    assert g.edges() == [(0, 1), (1, 2), (3, 4)]
    g2 = g.without_edges([(1, 2)])
    assert g2.edge_count == 2 and not g2.has_edge(1, 2)
    g3 = g.subgraph_on([0, 1, 2])
    assert g3.edge_count == 2 and g3.vertex_count == 5


def test_validate_vertex_set():
    g = HostGraph.empty(4)
    assert validate_vertex_set(g, [2, 0]) == (2, 0)
    with pytest.raises(ValidationError):
        validate_vertex_set(g, [0, 4])
    with pytest.raises(ValidationError):
        validate_vertex_set(g, [1, 1])


def test_shorthand_patterns():
    assert pattern_from_shorthand("star:3") == star(3)
    assert pattern_from_shorthand("path:4") == path(4)
    assert pattern_from_shorthand("cycle:5") == cycle(5)
    assert pattern_from_shorthand("clique:4") == clique(4)
    assert pattern_from_shorthand("biclique:2,3") == biclique(2, 3)
    for bad in ("star", "star:x", "blob:3", "biclique:2"):
        with pytest.raises(ValidationError):
            pattern_from_shorthand(bad)


def test_edge_list_loader(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# comment\nn 4\n0 1\n1 2  # trailing comment\n2 3\n")
    g, mapping = load_edge_list(str(f))
    assert g.vertex_count == 4 and g.edge_count == 3
    assert mapping["0"] == 0

    # arbitrary labels get re-indexed in order of first appearance
    f2 = tmp_path / "labels.txt"
    f2.write_text("n 3\nalice bob\nbob carol\n")
    g2, mapping2 = load_edge_list(str(f2))
    assert g2.edge_count == 2
    assert mapping2 == {"alice": 0, "bob": 1, "carol": 2}
    assert g2.has_edge(0, 1) and g2.has_edge(1, 2)

    f3 = tmp_path / "bad.txt"
    f3.write_text("0 1\n")
    with pytest.raises(ValidationError):
        load_edge_list(str(f3))
    f4 = tmp_path / "toomany.txt"
    f4.write_text("n 2\na b\nb c\n")
    with pytest.raises(ValidationError):
        load_edge_list(str(f4))


def test_file_pattern_shorthand(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("n 3\n0 1\n1 2\n")
    assert pattern_from_shorthand(f"file:{f}") == path(3)


def test_strictly_balanced_against_all_edge_subsets():
    import itertools
    from fractions import Fraction
    from util_smallgraphs import connected_patterns_upto

    for pat in connected_patterns_upto(5):
        if pat.edge_count == 0:
            continue
        target = Fraction(pat.edge_count, pat.vertex_count)
        edge_list = pat.sorted_edges()
        brute = True
        for k in range(1, len(edge_list) + 1):
            for subset in itertools.combinations(edge_list, k):
                verts = {u for e in subset for u in e}
                if len(verts) == pat.vertex_count and k == len(edge_list):
                    continue  # not a proper subgraph
                if Fraction(k, len(verts)) >= target:
                    brute = False
        assert is_strictly_balanced(pat) == brute


def test_automorphism_count_brute_force():
    import itertools
    import random as _random

    rng = _random.Random(8)
    for _ in range(15):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        pat = PatternGraph(n, edges)
        edge_set = pat.edges
        brute = 0
        for perm in itertools.permutations(range(n)):
            mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edge_set}
            if mapped == edge_set:
                brute += 1
        assert automorphism_count(pat) == brute


def test_host_graph_above_bitset_limit():
    n = 10_005
    edges = [(0, 1), (1, 2), (2, 3), (0, 2), (n - 2, n - 1)]
    g = HostGraph(n, edges)
    assert g.degree(2) == 3 and g.degree(n - 1) == 1
    assert g.has_edge(2, 0) and not g.has_edge(0, 3)
    assert g.neighbors(2) == [0, 1, 3]
    assert sorted(g.edges()) == sorted(edges)
    sub = g.subgraph_on([0, 1, 2])
    assert sub.edge_count == 3


def test_induced_subgraph_on_host():
    host = HostGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    sub, mapping = induced_subgraph(host, [0, 1, 2, 3])
    assert isinstance(sub, HostGraph)
    assert mapping == (0, 1, 2, 3)
    assert sorted(sub.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_host_from_integer_array_matches_pairs():
    import numpy as np

    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 40):
        edges = rng.integers(0, n, size=(3 * n, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        for dtype in (np.int64, np.int32, np.uint16):
            host = HostGraph(n, edges.astype(dtype))
            assert host == HostGraph(n, edges.tolist())
            assert host.edge_count == HostGraph(n, edges.tolist()).edge_count
            assert all(type(v) is int for row in host.adjacency_rows() for v in row)
    assert HostGraph(3, np.empty((0, 2), dtype=np.int64)) == HostGraph.empty(3)
    # The first bad row raises what the pair path raises for it.
    for bad in ([[0, 1], [2, 2], [0, 9]], [[0, 1], [-1, 0], [1, 1]], [[3, 1]], [[1, 3]]):
        with pytest.raises(ValidationError) as want:
            HostGraph(3, bad)
        with pytest.raises(ValidationError) as got:
            HostGraph(3, np.array(bad))
        assert str(got.value) == str(want.value)


def _subgraph_on_oracle(host, keep):
    """The former ``subgraph_on``: list every edge and build a new host."""
    keep_set = set(keep)
    kept = [(u, v) for u, v in host.edges() if u in keep_set and v in keep_set]
    return HostGraph(host.vertex_count, kept)


def test_subgraph_on_matches_edge_filter():
    import random

    rng = random.Random(31)
    for host in seeded_hosts(25, (1, 30), 0.3, 19):
        n = host.vertex_count
        for _ in range(6):
            keep = [rng.randrange(-2, n + 3) for _ in range(rng.randint(0, n + 2))]
            got, want = host.subgraph_on(keep), _subgraph_on_oracle(host, keep)
            assert got == want and got.edge_count == want.edge_count
            assert got.adjacency_rows() == want.adjacency_rows()
            assert got.adjacency_rows() is not host.adjacency_rows()
    host = HostGraph.complete(5)
    host.subgraph_on([0, 1, 2]).adjacency_rows()[0].clear()
    assert host.degree(0) == 4
