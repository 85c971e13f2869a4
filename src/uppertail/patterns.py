"""Pattern-level combinatorics for the localized-rate machinery.

The objects here connect motif structure to tail rates: the fractional
independence number (always attained with values in {0, 1/2, 1}), the
max-degree core of a motif and its independence polynomial, the family of
bipartite full-degree subgraphs whose members are in bijection with
independent sets of that core, and the deficiency constant controlling how
strongly every other subgraph falls short of the critical edge/vertex
balance.

All arithmetic on the combinatorial side is exact (``fractions.Fraction``),
so equality tests in the consistency checks carry no tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .counting import automorphism_count
from .errors import ValidationError
from .graphs import (
    PATTERN_VERTEX_CAP,
    HostGraph,
    PatternGraph,
    is_bipartite_with_parts,
    is_connected,
    is_regular,
    is_strictly_balanced,
    max_degree,
)

# The crossing family and the deficiency walk every edge subset of the pattern.
QH_VERTEX_CAP = 10
QH_EDGE_CAP = 15
POLY_VERTEX_CAP = 20


@dataclass(frozen=True)
class FractionalIndependence:
    """Optimal value plus one witness assignment (per-vertex Fractions)."""

    value: Fraction
    assignment: tuple[Fraction, ...]


@dataclass(frozen=True)
class IndependencePolynomial:
    """Coefficients (i_0, i_1, ...) where i_k counts independent k-sets."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = self.coefficients
        if not coeffs or coeffs[0] != 1:
            raise ValidationError("independence polynomial must start with i_0 = 1")

    def evaluate(self, theta: float) -> float:
        total = 0.0
        for coeff in reversed(self.coefficients):
            total = total * theta + coeff
        return total

    def derivative(self, theta: float) -> float:
        total = 0.0
        for k in range(len(self.coefficients) - 1, 0, -1):
            total = total * theta + k * self.coefficients[k]
        return total


@dataclass(frozen=True)
class QhMember:
    """A triple (J, A, B): a subgraph of H with all edges crossing A-B and
    every A-vertex at full degree.  Vertex indices refer to H."""

    edges: frozenset[tuple[int, int]]
    a_side: frozenset[int]
    b_side: frozenset[int]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.a_side | self.b_side))


def fractional_independence_number(pattern: PatternGraph) -> FractionalIndependence:
    """max sum x_u over 0 <= x <= 1 with x_u + x_v <= 1 on every edge.  The
    optimum is half-integral (Nemhauser and Trotter 1975): v - nu(B)/2 for
    the maximum matching nu(B) of the bipartite double cover B (copies u, u'
    of each vertex; u-v' and v-u' per edge), and a Konig cover C of B gives
    the witness x_u = 1 - |C & {u, u'}|/2.  Isolated vertices take value 1."""
    if pattern.vertex_count > PATTERN_VERTEX_CAP:
        raise ValidationError("pattern too large")
    return FractionalIndependence(*_alpha(pattern.vertex_count, pattern.edges))


def _augment(u: int, adjacency: list[list[int]], match: list[int], seen: list[bool]) -> bool:
    """Kuhn's step on the double cover: an augmenting path from the left copy
    of u, flipped into ``match`` (each right copy's left partner, or -1).
    Every right copy it reaches is marked in ``seen``."""
    for w in adjacency[u]:
        if not seen[w]:
            seen[w] = True
            if match[w] < 0 or _augment(match[w], adjacency, match, seen):
                match[w] = u
                return True
    return False


@functools.lru_cache(maxsize=4096)
def _alpha(n: int, edges: frozenset[tuple[int, int]]) -> tuple[Fraction, tuple[Fraction, ...]]:
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adjacency[u].append(v)
        adjacency[v].append(u)
    match = [-1] * n
    for u in range(n):
        _augment(u, adjacency, match, [False] * n)
    # Konig: the steps from the free left copies now fail, marking the right
    # side of their alternating forest.  The cover is those right copies and
    # the left copies outside the forest: not free, not a marked one's partner.
    free, seen = set(range(n)).difference(match), [False] * n
    for u in free:
        _augment(u, adjacency, match, seen)
    forest = free.union(match[w] for w in range(n) if seen[w])
    cover = [(u not in forest) + seen[u] for u in range(n)]
    return n - Fraction(n - len(free), 2), tuple(1 - Fraction(c, 2) for c in cover)


def embedding_upper_bound(pattern: PatternGraph, host: HostGraph) -> int:
    """floor((2 e(G))^(v - alpha*) n^(2 alpha* - v)), evaluated exactly.

    alpha* is half-integral, so the square of the bound is an integer and the
    floor comes from an integer square root.  Always dominates the labelled
    count.
    """
    alpha = fractional_independence_number(pattern).value
    v = pattern.vertex_count
    two_a = int(2 * (v - alpha))
    two_b = int(2 * (2 * alpha - v))
    squared = (2 * host.edge_count) ** two_a * host.vertex_count**two_b
    return math.isqrt(squared)


def h_star(pattern: PatternGraph) -> PatternGraph:
    """Induced subgraph on the maximum-degree vertices (relabeled densely).

    For a regular pattern this is the pattern itself (flagged with a
    warning, since the localized-I rate machinery expects an irregular one).
    """
    if not is_connected(pattern):
        raise ValidationError("pattern must be connected")
    if is_regular(pattern):
        warnings.warn("pattern is regular: the max-degree core is the whole pattern")
    delta = max_degree(pattern)
    core = [v for v in range(pattern.vertex_count) if pattern.degree(v) == delta]
    index = {v: i for i, v in enumerate(core)}
    edges = [
        (index[u], index[v])
        for u, v in pattern.edges
        if u in index and v in index
    ]
    return PatternGraph(len(core), edges)


def independence_polynomial(pattern: PatternGraph) -> IndependencePolynomial:
    """Exact coefficients via the pivot recursion I(G) = I(G-v) + x I(G-N[v])."""
    n = pattern.vertex_count
    if n > POLY_VERTEX_CAP:
        raise ValidationError("pattern too large")
    masks = [pattern.adjacency_mask(v) for v in range(n)]
    memo: dict[int, tuple[int, ...]] = {}

    def poly(active: int) -> tuple[int, ...]:
        if active == 0:
            return (1,)
        got = memo.get(active)
        if got is not None:
            return got
        # Pivot on the highest-degree active vertex to shrink both branches.
        pivot, pivot_deg = -1, -1
        m = active
        while m:
            low = m & -m
            v = low.bit_length() - 1
            d = (masks[v] & active).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
            m ^= low
        without = poly(active & ~(1 << pivot))
        shifted = poly(active & ~(masks[pivot] | (1 << pivot)))
        size = max(len(without), len(shifted) + 1)
        coeffs = [0] * size
        for k, c in enumerate(without):
            coeffs[k] += c
        for k, c in enumerate(shifted):
            coeffs[k + 1] += c
        result = tuple(coeffs)
        memo[active] = result
        return result

    try:
        return IndependencePolynomial(poly((1 << n) - 1))
    finally:
        poly = None  # break the closure's cycle through its cell


def _subgraph_stats(edges: tuple[tuple[int, int], ...]) -> tuple[PatternGraph, Fraction]:
    """The subgraph spanned by edges, relabelled densely, and its alpha*."""
    verts = sorted({u for e in edges for u in e})
    index = {v: i for i, v in enumerate(verts)}
    sub = PatternGraph(len(verts), [(index[u], index[v]) for u, v in edges])
    return sub, fractional_independence_number(sub).value


def _iter_edge_subsets(pattern: PatternGraph):
    edge_list = pattern.sorted_edges()
    m = len(edge_list)
    for mask in range(1, 1 << m):
        yield tuple(edge_list[i] for i in range(m) if (mask >> i) & 1)


def _qh_walk(pattern: PatternGraph):
    """The one walk over the nonempty edge subsets J, in _iter_edge_subsets
    order: yields J with the Q_H members (J, A, V(J) - A) it carries, one
    per crossing A of full-degree vertices, in order of |A| then position
    (none when J is not in the family)."""
    if pattern.vertex_count > QH_VERTEX_CAP:
        raise ValidationError("pattern too large")
    if pattern.edge_count > QH_EDGE_CAP:
        raise ValidationError(f"pattern has {pattern.edge_count} edges, over the "
                              f"{QH_EDGE_CAP}-edge cap of the edge-subset walk")
    delta = max_degree(pattern)
    for edges in _iter_edge_subsets(pattern):
        deg: dict[int, int] = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        full = [v for v, d in deg.items() if d == delta]
        edge_set, verts = frozenset(edges), frozenset(deg)
        members = []
        for k in range(1, len(full) + 1):
            for a_side in map(frozenset, itertools.combinations(full, k)):
                if all(((u in a_side) != (v in a_side)) for u, v in edges):
                    members.append(QhMember(edge_set, a_side, verts - a_side))
        yield edges, members


def enumerate_qh(pattern: PatternGraph) -> list[QhMember]:
    """Exhaustive scan over edge subsets and crossing bipartitions.

    A triple qualifies when every edge of the subgraph joins A to B (no
    internal edges on either side) and every A-vertex has full degree.  Two
    triples with the same subgraph but different (A, B) count separately.
    """
    return [member for _, members in _qh_walk(pattern) for member in members]


def qh_independent_set_bijection_check(pattern: PatternGraph) -> bool:
    """Verify |{(J,A,B) : |A| = k}| matches the k-th coefficient of the
    independence polynomial of the max-degree core, for every k >= 1."""
    if not is_connected(pattern):
        raise ValidationError("pattern must be connected")
    counts: dict[int, int] = {}
    for member in enumerate_qh(pattern):
        counts[len(member.a_side)] = counts.get(len(member.a_side), 0) + 1
    coeffs = independence_polynomial(h_star(pattern)).coefficients
    top = max(len(coeffs) - 1, max(counts, default=0))
    for k in range(1, top + 1):
        expected = coeffs[k] if k < len(coeffs) else 0
        if counts.get(k, 0) != expected:
            return False
    return True


@dataclass(frozen=True)
class Deficiency:
    value: Fraction
    witness: PatternGraph


def deficiency_sigma(pattern: PatternGraph) -> Deficiency:
    """min over non-member subgraphs J of Delta (v_J - alpha*_J) - e_J.

    Positive by the full-degree/crossing characterization; the minimizing
    subgraph is returned as a witness.
    """
    if not is_connected(pattern):
        raise ValidationError("pattern must be connected")
    delta = max_degree(pattern)
    best: Optional[Fraction] = None
    witness = None
    for edges, members in _qh_walk(pattern):
        if members:
            continue
        sub, alpha = _subgraph_stats(edges)
        value = delta * (sub.vertex_count - alpha) - sub.edge_count
        if best is None or value < best:
            best = value
            witness = sub
    if best is None:
        raise ValidationError("no subgraph outside the full-degree family (degenerate pattern)")
    return Deficiency(best, witness)


def lemma23_check(pattern: PatternGraph) -> bool:
    """Full consistency check of the edge/vertex balance identities.

    Over every nonempty isolated-vertex-free subgraph J of the pattern:
    Delta (v_J - alpha*_J) >= e_J, with equality exactly when J appears in
    the crossing full-degree family.  Additionally, for every family member
    and every edge (a, b) with a on the full-degree side, deleting a and b
    (with all incident edges) leaves a graph whose alpha* equals |B| - 1,
    isolated survivors counting 1 each.
    """
    if not is_connected(pattern):
        raise ValidationError("pattern must be connected")
    delta = max_degree(pattern)
    family: list[QhMember] = []
    for edges, members in _qh_walk(pattern):
        sub, alpha = _subgraph_stats(edges)
        slack = delta * (sub.vertex_count - alpha) - sub.edge_count
        if slack < 0 or (slack == 0) != bool(members):
            return False
        family += members

    for member in family:
        verts = set(member.vertices)
        b_size = len(member.b_side)
        for u, v in member.edges:
            a, b = (u, v) if u in member.a_side else (v, u)
            index = {x: i for i, x in enumerate(sorted(verts - {a, b}))}
            kept = frozenset((index[x], index[y]) for x, y in member.edges
                             if a not in (x, y) and b not in (x, y))
            if _alpha(len(index), kept)[0] != b_size - 1:
                return False
    return True


@dataclass(frozen=True)
class PatternReport:
    """Everything the pattern analyzer computes, in one bundle."""

    vertex_count: int
    edge_count: int
    delta: int
    regular: bool
    connected: bool
    bipartite: bool
    strictly_balanced: Optional[bool]
    automorphisms: int
    alpha_star: Fraction
    h_star_vertex_count: int
    h_star_edge_count: int
    core_polynomial: tuple[int, ...]
    qh_size: Optional[int]
    sigma: Optional[Fraction]


def analyze_pattern(pattern: PatternGraph) -> PatternReport:
    connected = is_connected(pattern)
    regular = is_regular(pattern)
    delta = max_degree(pattern)
    core = h_star(pattern) if connected else pattern
    qh_size: Optional[int] = None
    sigma: Optional[Fraction] = None
    if connected and pattern.vertex_count <= QH_VERTEX_CAP and pattern.edge_count <= QH_EDGE_CAP:
        qh_size = len(enumerate_qh(pattern))
        try:
            sigma = deficiency_sigma(pattern).value
        except ValidationError:
            sigma = None
    return PatternReport(
        vertex_count=pattern.vertex_count,
        edge_count=pattern.edge_count,
        delta=delta,
        regular=regular,
        connected=connected,
        bipartite=is_bipartite_with_parts(pattern) is not None,
        strictly_balanced=is_strictly_balanced(pattern) if connected else None,
        automorphisms=automorphism_count(pattern),
        alpha_star=fractional_independence_number(pattern).value,
        h_star_vertex_count=core.vertex_count,
        h_star_edge_count=core.edge_count,
        core_polynomial=independence_polynomial(core).coefficients,
        qh_size=qh_size,
        sigma=sigma,
    )
