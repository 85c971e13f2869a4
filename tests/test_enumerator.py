"""The one embedding enumerator against the searches it replaced, and
against networkx's VF2 matcher, and its codegree sums against dense
matrix products.

``_count_with_order`` (bitset rows), ``_count_with_order_sets`` (neighbour
sets) and ``_copy_edge_sets`` (the copy collector, here ``copy_edge_sets``)
are the three backtracking searches ``counting`` ran before it had one
enumerator and one host form, kept below as oracles.  Hosts store only
neighbour sets now, so ``_count_with_order`` builds its bit rows itself; as
before, it checks hosts of at most ``ORACLE_BITSET_LIMIT`` vertices and
hands larger ones to ``_count_with_order_sets``.  The counts, the copy lists
and, for the two count paths, the budget nodes spent must match them
exactly.  The collector may spend fewer nodes than its oracle: the
enumerator prunes candidates by degree there too, and leaves isolated
pattern vertices out.
"""

import itertools
import math
import random
from typing import Optional

import numpy as np
import pytest

from uppertail import counting
from uppertail.counting import (
    _Budget,
    _copy_edge_sets,
    _order,
    _plan,
    _start_classes,
    automorphism_count,
    count_labelled,
    count_labelled_using_edge,
    star_count_exact,
    star_count_using_edge,
)
from uppertail.errors import ResourceBudgetError, ValidationError
from uppertail.graphs import (
    PATTERN_VERTEX_CAP,
    HostGraph,
    PatternGraph,
    biclique,
    clique,
    cycle,
    path,
    pattern_from_shorthand,
    star,
)
from conftest import seeded_hosts
from util_smallgraphs import connected_patterns_upto

# Hosts up to this size are checked by the bitset-row oracle, larger ones by
# the neighbour-set oracle (the host-form switch the package once had).
ORACLE_BITSET_LIMIT = 10_000


# ---------------------------------------------------------------------------
# Oracles: the former searches
# ---------------------------------------------------------------------------

def _search_order(pattern: PatternGraph, first=()) -> list[int]:
    """Greedy connected ordering: each next vertex maximizes the number of
    already-placed neighbors (ties broken by degree, then index)."""
    return list(_order(pattern, tuple(first)))


def _count_with_order(
    pattern: PatternGraph,
    host: HostGraph,
    order: list[int],
    pinned: dict[int, int],
    budget: _Budget,
) -> int:
    """Backtracking count; ``pinned`` fixes images of the leading vertices of
    ``order``."""
    n_host = host.vertex_count
    if n_host > ORACLE_BITSET_LIMIT:
        return _count_with_order_sets(pattern, host, order, pinned, budget)
    full = (1 << n_host) - 1
    rows = [sum(1 << w for w in host.neighbors(v)) for v in range(n_host)]
    degrees = host.degrees()
    pat_deg = pattern.degrees()
    position = {v: i for i, v in enumerate(order)}
    back_neighbors = [
        [u for u in pattern.neighbors(v) if position[u] < position[v]] for v in order
    ]
    images = [0] * pattern.vertex_count  # indexed by order position
    used_mask = 0
    start = 0
    for v, w in pinned.items():
        pos = position[v]
        images[pos] = w
        used_mask |= 1 << w
        start = max(start, pos + 1)

    def recurse(pos: int) -> int:
        nonlocal used_mask
        if pos == len(order):
            return 1
        v = order[pos]
        candidates = full & ~used_mask
        for u in back_neighbors[pos]:
            candidates &= rows[images[position[u]]]
            if not candidates:
                return 0
        total = 0
        need = pat_deg[v]
        while candidates:
            low = candidates & -candidates
            w = low.bit_length() - 1
            candidates ^= low
            budget.spend()
            if degrees[w] < need:
                continue
            images[pos] = w
            used_mask |= low
            total += recurse(pos + 1)
            used_mask ^= low
        return total

    return recurse(start)


def _count_with_order_sets(pattern, host, order, pinned, budget):
    """Adjacency-set fallback for hosts above the bitset limit."""
    position = {v: i for i, v in enumerate(order)}
    back_neighbors = [
        [u for u in pattern.neighbors(v) if position[u] < position[v]] for v in order
    ]
    images = [0] * pattern.vertex_count
    used: set[int] = set()
    start = 0
    for v, w in pinned.items():
        pos = position[v]
        images[pos] = w
        used.add(w)
        start = max(start, pos + 1)
    pat_deg = pattern.degrees()

    def recurse(pos: int) -> int:
        if pos == len(order):
            return 1
        v = order[pos]
        backs = back_neighbors[pos]
        if backs:
            cands = set(host.neighbors(images[position[backs[0]]]))
            for u in backs[1:]:
                cands &= set(host.neighbors(images[position[u]]))
        else:
            cands = set(range(host.vertex_count))
        cands -= used
        total = 0
        for w in sorted(cands):
            budget.spend()
            if host.degree(w) < pat_deg[v]:
                continue
            images[pos] = w
            used.add(w)
            total += recurse(pos + 1)
            used.discard(w)
        return total

    return recurse(start)


def copy_edge_sets(
    pattern: PatternGraph,
    host: HostGraph,
    budget: Optional[int],
    through: Optional[tuple[int, int]] = None,
) -> list[frozenset]:
    """Distinct unlabelled copies, each as a frozenset of host edges.

    With ``through`` set, only the copies containing that host edge: its
    endpoints are pinned to each pattern edge in both orientations, as in
    ``count_labelled_using_edge``.
    """
    edge_list = pattern.sorted_edges()
    if through is None:
        starts = [(_search_order(pattern), {})]
    else:
        u, v = through
        if not host.has_edge(u, v):
            raise ValidationError(f"edge ({u},{v}) not in host graph")
        starts = [
            (_search_order(pattern, first=[x, y]), {x: a, y: b})
            for x, y in edge_list
            for a, b in ((u, v), (v, u))
        ]
    shared = _Budget(budget)
    copies: set[frozenset] = set()
    n_host = host.vertex_count
    images: dict[int, int] = {}
    used: set[int] = set()

    def recurse(order: list[int], pos: int) -> None:
        if pos == len(order):
            copies.add(
                frozenset(
                    (min(images[x], images[y]), max(images[x], images[y]))
                    for x, y in edge_list
                )
            )
            return
        v = order[pos]
        backs = [u for u in pattern.neighbors(v) if u in images]
        candidates = None
        for u in backs:
            neigh = set(host.neighbors(images[u]))
            candidates = neigh if candidates is None else candidates & neigh
        if candidates is None:
            candidates = set(range(n_host))
        for w in sorted(candidates - used):
            shared.spend()
            images[v] = w
            used.add(w)
            recurse(order, pos + 1)
            used.discard(w)
            del images[v]

    for order, pinned in starts:
        images.update(pinned)
        used.update(pinned.values())
        recurse(order, len(pinned))
        images.clear()
        used.clear()
    return sorted(copies, key=sorted)


def oracle_count(pattern, host, budget):
    """The former ``count_labelled`` on a caller's budget."""
    if pattern.vertex_count > host.vertex_count:
        return 0
    order = _search_order(pattern)
    return _count_with_order(pattern, host, order, {}, budget)


def oracle_count_using_edge(pattern, host, edge, budget):
    """The former ``count_labelled_using_edge`` on a caller's budget."""
    u, v = edge
    total = 0
    for x, y in pattern.sorted_edges():
        for a, b in ((u, v), (v, u)):
            order = _search_order(pattern, first=[x, y])
            total += _count_with_order(pattern, host, order, {x: a, y: b}, budget)
    return total


# ---------------------------------------------------------------------------
# Patterns and hosts
# ---------------------------------------------------------------------------

PATTERNS = {
    "star:2": star(2),
    "star:3": star(3),
    "path:4": path(4),
    "cycle:4": cycle(4),
    "clique:3": clique(3),
    "clique:4": clique(4),
    "2K2": PatternGraph(4, [(0, 1), (2, 3)]),  # disconnected
    "path:5": path(5),
    "star:4": star(4),
    "P3+K1": PatternGraph(4, [(0, 1), (1, 2)]),  # last vertex has no placed neighbour
    # Shapes of the counted trailing run (pairwise non-adjacent last vertices):
    "biclique:2,3": biclique(2, 3),  # two vertices sharing a two-vertex back set
    "biclique:2,4": biclique(2, 4),  # three vertices sharing a two-vertex back set
    "biclique:2,5": biclique(2, 5),  # four vertices sharing it: a twin level of five
    "C4+K1": PatternGraph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),  # C4 and pendant
    "star:5": star(5),  # five arms below the centre, four below a pinned arm
    "paw": PatternGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # triangle and pendant
    "bull": PatternGraph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),  # two rows, other backs
    "E3": PatternGraph(3, []),  # edgeless: each pool is every free vertex
}
BITSET_HOSTS = seeded_hosts(6, (6, 11), 0.45, 501)


def sparse_host() -> HostGraph:
    """n = 10,001, so the neighbour-set oracle: a dense G(12, 0.5) on the
    low vertices plus a few edges out to the top ones."""
    rng = random.Random(77)
    n = 10_001
    edges = [e for e in itertools.combinations(range(12), 2) if rng.random() < 0.5]
    edges += [(3, n - 1), (n - 2, n - 1), (5, n - 2), (7, n - 1)]
    return HostGraph(n, edges)


SPARSE = sparse_host()
# Keyed by the former search that checks the hosts.
BACKENDS = {"bitsets": BITSET_HOSTS, "sets": [SPARSE]}


def test_hosts_cover_both_backends():
    assert all(h.vertex_count <= ORACLE_BITSET_LIMIT for h in BITSET_HOSTS)
    assert SPARSE.vertex_count > ORACLE_BITSET_LIMIT


@pytest.fixture
def spent(monkeypatch):
    """Nodes spent by the one ``_Budget`` the last counting call made."""
    made = []

    class Recording(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(counting, "_Budget", Recording)

    def nodes() -> int:
        assert len(made) == 1
        budget = made.pop()
        return budget.limit - budget.remaining

    return nodes


def oracle(run):
    """(value, nodes spent) of an oracle call on a fresh budget."""
    budget = _Budget(None)
    value = run(budget)
    return value, budget.limit - budget.remaining


# ---------------------------------------------------------------------------
# Equivalence with the former searches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", PATTERNS)
def test_plain_count_matches_oracle(spent, backend, name):
    pattern = PATTERNS[name]
    for host in BACKENDS[backend]:
        if host is SPARSE and name == "E3":
            continue  # 10^12 maps: see test_edgeless_pattern_counts_every_injection
        got = count_labelled(pattern, host)
        assert (got, spent()) == oracle(lambda b: oracle_count(pattern, host, b))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", PATTERNS)
def test_pinned_count_matches_oracle(spent, backend, name):
    pattern = PATTERNS[name]
    for host in BACKENDS[backend]:
        for e in host.edges():
            got = count_labelled_using_edge(pattern, host, e)
            want = oracle(lambda b: oracle_count_using_edge(pattern, host, e, b))
            assert (got, spent()) == want


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", PATTERNS)
def test_copy_edge_sets_match_oracle(backend, name):
    pattern = PATTERNS[name]
    for host in BACKENDS[backend]:
        edges = host.edges()
        # At a position with no placed neighbour the former collector tries
        # all 10^4 vertices of the sets host and descends into each, so 2K2,
        # P3+K1 and E3 run it unpinned on the bitset hosts only, and here
        # through two edges (about 0.1 s each).
        if host is SPARSE and name in ("2K2", "P3+K1", "E3"):
            edges = edges[:2]
        else:
            assert _copy_edge_sets(pattern, host, None) == copy_edge_sets(pattern, host, None)
        for e in edges:
            got = _copy_edge_sets(pattern, host, None, through=e)
            assert got == copy_edge_sets(pattern, host, None, through=e)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["path:5", "star:4", "P3+K1", "cycle:4", "biclique:2,3",
                                  "biclique:2,4", "biclique:2,5", "C4+K1", "star:5", "paw",
                                  "bull"])
def test_budget_boundary_on_counted_levels(spent, backend, name):
    """The counted last levels are charged in sums, not node by node: a
    budget of exactly the nodes spent still suffices, one fewer fails."""
    pattern = PATTERNS[name]
    for host in BACKENDS[backend]:
        e = host.edges()[0]
        for run in (lambda b: count_labelled(pattern, host, b),
                    lambda b: count_labelled_using_edge(pattern, host, e, b)):
            want = run(None)
            nodes = spent()
            assert nodes > 0
            assert run(nodes) == want
            spent()
            with pytest.raises(ResourceBudgetError, match=f"budget of {nodes - 1} search nodes"):
                run(nodes - 1)
            spent()


@pytest.mark.parametrize("backend", BACKENDS)
def test_edgeless_pattern_counts_every_injection(spent, backend):
    """A whole edgeless pattern is one counted run: (n)_3 maps, charged
    n + (n)_2 + (n)_3 nodes in one sum, also on the 10,001-vertex host,
    where the listing oracle would need 10^12 nodes.  An overrun reports
    the limit and the nodes charged."""
    for host in BACKENDS[backend]:
        n = host.vertex_count
        nodes = n + math.perm(n, 2) + math.perm(n, 3)
        assert count_labelled(PATTERNS["E3"], host, nodes) == math.perm(n, 3)
        assert spent() == nodes
        message = f"budget of {nodes - 1} search nodes exceeded: {nodes} charged so far"
        with pytest.raises(ResourceBudgetError, match=message):
            count_labelled(PATTERNS["E3"], host, nodes - 1)
        spent()


def _twin(pattern, first=()):
    """Whether the start's plan sums its twin level from codegrees."""
    return _plan(pattern, _order(pattern, tuple(first)), len(first))[4]


def test_twin_level_is_planned_for_c4_and_k2t_only():
    # The codegree sum must be the path these counts take, not a silent
    # fallback to listing: unpinned C4 and K_{2,t} have a twin level.
    for name in ("cycle:4", "biclique:2,3", "biclique:2,4", "biclique:2,5"):
        assert _twin(PATTERNS[name]), name
    # Pinned starts, and runs whose back sets differ, keep listing.
    for name, pattern in PATTERNS.items():
        for x, y in pattern.sorted_edges():
            assert not _twin(pattern, (x, y)), (name, x, y)
    for name in ("path:4", "paw", "bull", "C4+K1", "path:5", "star:3", "clique:4", "2K2"):
        assert not _twin(PATTERNS[name]), name


def test_twin_counts_match_dense_codegree_sums():
    # Labelled C4s are sum over u != w of (c)_2 and K_{2,3}s of (c)_3, with
    # c = |N(u) & N(w)| read off A^2, on a sparse G(1500, 9000 edges).
    rng = random.Random(18)
    n, edges = 1500, set()
    while len(edges) < 9000:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    host = HostGraph(n, sorted(edges))
    adjacency = np.zeros((n, n))
    pairs = np.array(sorted(edges))
    adjacency[pairs[:, 0], pairs[:, 1]] = adjacency[pairs[:, 1], pairs[:, 0]] = 1.0
    codegree = (adjacency @ adjacency).astype(np.int64)
    np.fill_diagonal(codegree, 0)
    assert codegree.any()
    c4 = int((codegree * (codegree - 1)).sum())
    k23 = int((codegree * (codegree - 1) * (codegree - 2)).sum())
    assert count_labelled(cycle(4), host) == c4 > 0
    assert count_labelled(biclique(2, 3), host) == k23 > 0


# The valid pattern specs test_cli.py draws; star:12 has 13 vertices, over the cap.
CLI_SPECS = ["star:2", "star:3", "path:3", "path:4", "cycle:3", "cycle:4", "clique:3",
             "biclique:1,2", "star:10", "star:11", "star:12", "path:12", "clique:7", "biclique:4,4",
             "clique:10", "clique:11", "clique:12", "biclique:6,6"]

# |Aut(H)| in closed form where listing the copies of H in H, as the oracle
# below does, would take too long or exceed the default node budget.
AUT_CLOSED_FORMS = {"clique:10": math.factorial(10), "clique:11": math.factorial(11),
                    "clique:12": math.factorial(12), "star:11": math.factorial(11),
                    "biclique:6,6": 2 * math.factorial(6) ** 2, "cycle:12": 24, "path:12": 2}

# The Frucht graph (LCF notation [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]): cubic on
# 12 vertices with no automorphism but the identity, so every orbit search
# past the pinned-adjacency and signature checks must fail.
FRUCHT = PatternGraph(12, [(i, (i + 1) % 12) for i in range(12)] + [
    (i, (i + j) % 12) for i, j in enumerate([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])])


def _maps_by_automorphism(pattern, order, other) -> bool:
    """Whether order[i] -> other[i] for every position i is an automorphism."""
    every = list(range(pattern.vertex_count))
    if sorted(order) != every or sorted(other) != every:
        return False
    image = dict(zip(order, other))
    mapped = {frozenset((image[x], image[y])) for x, y in pattern.edges}
    return mapped == {frozenset(e) for e in pattern.edges}


def test_start_classes_partition_the_pinned_starts():
    patterns = dict(PATTERNS)
    for spec in CLI_SPECS:
        pattern = pattern_from_shorthand(spec)
        if pattern.vertex_count <= PATTERN_VERTEX_CAP:
            patterns[spec] = pattern
    assert "star:11" in patterns and "star:12" not in patterns
    for name, pattern in patterns.items():
        classes = _start_classes(pattern)
        assert sum(size for _, size in classes) == 2 * pattern.edge_count, name
        # Every pinned start maps onto exactly one representative, so the
        # representatives are pairwise inequivalent and each class is whole.
        members = dict.fromkeys((order for order, _ in classes), 0)
        for x, y in pattern.sorted_edges():
            for first in ((x, y), (y, x)):
                order = _order(pattern, first)
                reps = [rep for rep, _ in classes if _maps_by_automorphism(pattern, rep, order)]
                assert len(reps) == 1, (name, first)
                members[reps[0]] += 1
        assert members == dict(classes), name


def _aut_by_listing(pattern: PatternGraph) -> int:
    """The former count: the labelled copies of the pattern in itself."""
    return count_labelled(pattern, HostGraph(pattern.vertex_count, pattern.edges))


def test_automorphism_count_equals_listing_the_copies_in_itself():
    for pattern in connected_patterns_upto(6):
        assert automorphism_count(pattern) == _aut_by_listing(pattern), sorted(pattern.edges)
    # Every labelled graph on at most 5 vertices, so isolated vertices and
    # labellings other than the canonical ones are covered too.
    for n in range(1, 6):
        slots = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            pattern = PatternGraph(n, [e for i, e in enumerate(slots) if mask >> i & 1])
            assert automorphism_count(pattern) == _aut_by_listing(pattern), (n, mask)
    checked = set()
    for spec in CLI_SPECS:
        pattern = pattern_from_shorthand(spec)
        if pattern.vertex_count > PATTERN_VERTEX_CAP:
            with pytest.raises(ValidationError, match="pattern too large"):
                automorphism_count(pattern)
        elif spec in AUT_CLOSED_FORMS:
            assert automorphism_count(pattern) == AUT_CLOSED_FORMS[spec], spec
        else:
            assert automorphism_count(pattern) == _aut_by_listing(pattern), spec
        checked.add(spec)
    for spec, want in AUT_CLOSED_FORMS.items():
        if spec not in checked:
            assert automorphism_count(pattern_from_shorthand(spec)) == want, spec
    assert FRUCHT.degrees() == (3,) * 12 and FRUCHT.edge_count == 18
    assert automorphism_count(FRUCHT) == _aut_by_listing(FRUCHT) == 1


def test_automorphism_count_runs_at_most_one_search_per_vertex_pair(monkeypatch):
    searches = []

    def counted_embed(*args, **kwargs):
        searches.append(args[2])
        return embed(*args, **kwargs)

    embed = counting._embed
    monkeypatch.setattr(counting, "_embed", counted_embed)
    for spec in ("clique:12", "star:11", "biclique:6,6", "cycle:12", "path:12"):
        searches.clear()
        automorphism_count.cache_clear()  # a cached count runs no search
        automorphism_count(pattern_from_shorthand(spec))
        v = pattern_from_shorthand(spec).vertex_count
        assert 0 < len(searches) <= v * (v - 1) // 2, spec
        # Each search is one start pinning 0, ..., i-1 to themselves.
        for [(order, pinned, size)] in searches:
            i = len(pinned) - 1
            assert size == 1 and tuple(order[: i + 1]) == tuple(range(i + 1))
            assert all(pinned[j] == j for j in range(i)) and pinned[i] > i
    searches.clear()
    automorphism_count.cache_clear()
    automorphism_count(FRUCHT)
    assert len(searches) <= 66


def test_start_class_sizes():
    # One search per edge for cliques; C4's (1, 0, 2, 3) order does not
    # correspond to (0, 1, 2, 3) though both pin an edge of one Aut-orbit.
    sizes = {"clique:3": (6,), "clique:4": (12,), "cycle:4": (4, 4), "path:4": (2, 2, 1, 1),
             "star:3": (3, 3)}
    for name, want in sizes.items():
        assert tuple(size for _, size in _start_classes(PATTERNS[name])) == want, name


@pytest.mark.parametrize("name", ["clique:3", "cycle:4"])
def test_pinned_counts_on_a_relabelled_core_host(spent, name):
    # A triangle-core host: G(60, 212 edges) with its vertices relabelled.
    rng = random.Random(19)
    n, base = 60, set()
    while len(base) < 212:
        base.add(tuple(sorted(rng.sample(range(n), 2))))
    label = list(range(n))
    rng.shuffle(label)
    host = HostGraph(n, [(label[u], label[v]) for u, v in base])
    pattern = PATTERNS[name]
    for e in host.edges():
        got = count_labelled_using_edge(pattern, host, e)
        assert (got, spent()) == oracle(lambda b: oracle_count_using_edge(pattern, host, e, b))


def test_cached_plans_survive_equal_patterns_and_mutated_orders():
    # Plans are cached by pattern value: a pattern built again, or with its
    # edges listed otherwise, gets the same plan and so the same counts.
    host = BITSET_HOSTS[3]
    e = host.edges()[0]
    for name, pattern in PATTERNS.items():
        flipped = [(v, u) for u, v in reversed(pattern.sorted_edges())]
        twin = PatternGraph(pattern.vertex_count, flipped)
        assert twin == pattern and twin is not pattern
        for run in (lambda p: count_labelled(p, host), lambda p: count_labelled_using_edge(p, host, e)):
            assert run(twin) == run(pattern)
    # The order handed out is a fresh list: mutating it changes no later search.
    pattern = PATTERNS["path:5"]
    want = count_labelled(pattern, host), count_labelled_using_edge(pattern, host, e)
    for first in ((), (1, 2)):
        kept = _search_order(pattern, first)
        order = _search_order(pattern, first)
        order.reverse()
        order.append(99)
        assert _search_order(pattern, first) == kept != order
    assert (count_labelled(pattern, host), count_labelled_using_edge(pattern, host, e)) == want


def test_copy_edge_sets_need_room_for_isolated_vertices():
    # The edge sets are those of P3, but only a host with a fourth vertex
    # has room for the isolated one.
    pattern, triangle = PATTERNS["P3+K1"], HostGraph.complete(3)
    assert _copy_edge_sets(pattern, triangle, None) == []
    assert _copy_edge_sets(path(3), triangle, None) != []


def test_pinned_edge_must_be_a_host_edge():
    host = BITSET_HOSTS[0]
    missing = next(e for e in itertools.combinations(range(host.vertex_count), 2)
                   if not host.has_edge(*e))
    with pytest.raises(ValidationError):
        count_labelled_using_edge(path(3), host, missing)
    with pytest.raises(ValidationError):
        _copy_edge_sets(path(3), host, None, through=missing)


@pytest.mark.parametrize("budget", [-1, -50])
def test_negative_budget_is_invalid_input(budget):
    host = HostGraph.complete(4)
    with pytest.raises(ValidationError):
        count_labelled(path(3), host, budget)
    with pytest.raises(ValidationError):
        count_labelled_using_edge(path(3), host, (0, 1), budget)
    # Rejected before the early return for patterns larger than the host.
    with pytest.raises(ValidationError):
        count_labelled(path(5), host, budget)


# ---------------------------------------------------------------------------
# Independent oracle: networkx's VF2 subgraph monomorphisms
# ---------------------------------------------------------------------------

def test_counts_match_vf2_monomorphisms():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(5)
    for trial in range(4):
        n = rng.randint(10, 30)
        g = nx.gnp_random_graph(n, 0.2 if n > 20 else 0.35, seed=rng.randrange(10**6))
        host = HostGraph(n, g.edges())
        picked = rng.sample(sorted(g.edges()), min(3, g.number_of_edges()))
        for name, pattern in PATTERNS.items():
            if name == "star:5":
                # VF2 takes about 9 s to list these matches; the star closed
                # forms are independent oracles too.
                assert count_labelled(pattern, host) == star_count_exact(5, host)
                for e in picked:
                    want = star_count_using_edge(5, host, e)
                    assert count_labelled_using_edge(pattern, host, e) == want
                continue
            h = nx.Graph()
            h.add_nodes_from(range(pattern.vertex_count))
            h.add_edges_from(pattern.edges)
            matches = list(GraphMatcher(g, h).subgraph_monomorphisms_iter())
            assert count_labelled(pattern, host) == len(matches), (trial, name)
            for u, v in picked:
                through = sum(
                    1 for m in matches
                    if u in m and v in m and pattern.has_edge(m[u], m[v])
                )
                assert count_labelled_using_edge(pattern, host, (u, v)) == through, (trial, name)
                copies = _copy_edge_sets(pattern, host, None, through=(u, v))
                if min(pattern.degrees()) > 0:  # an edge set omits isolated vertices
                    assert len(copies) * automorphism_count(pattern) == through
