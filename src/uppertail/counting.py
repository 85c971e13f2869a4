"""Exact copy counting in host graphs.

Labelled copies are injective vertex maps preserving pattern edges (non-edges
of the pattern are unconstrained).  One enumerator finds them all: it
backtracks over pattern vertices in a greedy connected order that maximizes
back-degree, intersecting the host's neighbour sets, and at each embedding
counts it or hands it to a leaf action (which is how copies are collected).
Each search start's plan (order, back-neighbours, degree needs) is built once
per pattern and cached as immutable tuples.  Without a leaf action the
trailing run of pairwise non-adjacent vertices is counted from pool sizes
rather than listed, at the same node charge: star centres are listed once
and their arms counted as falling factorials of the degree.  Counts are plain
Python ints so the divisibility check stays exact.  Closed forms are used
for stars, both as fast paths and as independent oracles in the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import mul, sub
from typing import Callable, Optional, Sequence

from .errors import ResourceBudgetError, ValidationError
from .graphs import (
    HostGraph,
    PatternGraph,
    automorphism_count,
    induced_subgraph,
)
from .patterns import fractional_independence_number

DEFAULT_NODE_BUDGET = 50_000_000


@functools.lru_cache(maxsize=4096)
def _order(pattern: PatternGraph, first: tuple[int, ...]) -> tuple[int, ...]:
    n = pattern.vertex_count
    order = list(first)
    placed = set(order)
    while len(order) < n:
        best = None
        best_key = None
        for v in range(n):
            if v in placed:
                continue
            back = sum(1 for u in pattern.neighbors(v) if u in placed)
            key = (back, pattern.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    return tuple(order)


@functools.lru_cache(maxsize=4096)
def _plan(pattern: PatternGraph, order: tuple[int, ...], pinned: int):
    """The plan of a start whose first ``pinned`` vertices of ``order`` are
    pinned: per later position (vertex, back-neighbours, other placed
    vertices, degree), and the counted trailing run.  The run is the longest
    pairwise non-adjacent tail, shortened to two vertices unless all of it
    shares its back-neighbours.  The plan holds where the run begins, the
    vertices placed before it but for the one just before it, and for its
    first two vertices their other back-neighbours and whether that one is
    among their back-neighbours."""
    steps = []
    for i, v in enumerate(order[pinned:], pinned):
        back = tuple(u for u in order[:i] if pattern.has_edge(u, v))
        steps.append((v, back, tuple(u for u in order[:i] if u not in back), pattern.degree(v)))
    run = len(steps)
    while run and not any(pattern.has_edge(steps[run - 1][0], s[0]) for s in steps[run:]):
        run -= 1
    while len(steps) - run > 2 and len({s[1] for s in steps[run:]}) > 1:
        run += 1
    split = steps[run - 1][0] if run else None
    before = tuple(u for u in order[: pinned + run] if u != split)
    heads = tuple((tuple(u for u in back if u != split), split in back)
                  for _, back, _, _ in steps[run : run + 2])
    return tuple(steps), run, before, heads


class _Budget:
    __slots__ = ("remaining", "limit")

    def __init__(self, limit: Optional[int]):
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit
        if self.limit < 0:
            raise ValidationError(f"counting budget must be nonnegative, got {self.limit}")
        self.remaining = self.limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise ResourceBudgetError(
                f"counting budget of {self.limit} search nodes exceeded: "
                f"{self.limit - self.remaining} charged so far")


def _starts(pattern: PatternGraph, host: HostGraph, edge: Optional[tuple[int, int]] = None):
    """Search starts ``(order, pinned)``: one free start, or with ``edge`` one
    per pattern edge and orientation, its endpoints pinned to the host edge.
    A copy's image contains the host edge through exactly one pattern edge in
    exactly one orientation, so these starts find each such copy once."""
    if edge is None:
        return [(_order(pattern, ()), {})]
    u, v = edge
    if not host.has_edge(u, v):
        raise ValidationError(f"edge ({u},{v}) not in host graph")
    return [
        (_order(pattern, (x, y)), {x: a, y: b})
        for x, y in pattern.sorted_edges()
        for a, b in ((u, v), (v, u))
    ]


def _embed(
    pattern: PatternGraph,
    host: HostGraph,
    starts: list[tuple[Sequence[int], dict[int, int]]],
    budget: _Budget,
    leaf: Optional[Callable[[list[int]], None]] = None,
) -> int:
    """Number of injective edge-preserving maps of the pattern into the host,
    summed over the starts.

    Each start ``(order, pinned)`` fixes the images of the leading vertices of
    ``order`` and backtracks over the rest in that order, following the
    start's cached ``_plan``.  ``leaf`` is called at every embedding with the
    images indexed by pattern vertex.  Every candidate tried costs one budget
    node, also when the degree check rejects it.  Candidates are the
    intersection of the neighbour sets of the placed back-neighbours' images,
    less the other placed images, and are tried in increasing order.

    Without ``leaf`` the plan's trailing run of pairwise non-adjacent
    vertices is counted rather than listed.  Every pattern neighbour of a run
    vertex is placed before the run, so its pool is fixed by earlier images
    and each candidate in it is adjacent to that many distinct images, which
    passes the degree check.  The position before the run lists and
    degree-checks its candidates; ``counted`` then sums, over them, the
    injective maps of the run into its pools, and charges the nodes listing
    would cost.  The budget raises exactly when the running total passes its
    limit, so charging a run in one sum fails where listing it would.
    """
    rows = host.adjacency_rows()
    n_host = host.vertex_count
    images = [0] * pattern.vertex_count

    def meet(back):
        """The host vertices adjacent to the images of ``back``, or None when
        ``back`` is empty."""
        pool = None
        for u in back:
            row = rows[images[u]]
            pool = row if pool is None else pool & row
            if not pool:
                return pool
        return pool

    def descend(depth: int) -> int:
        # A neighbour set never holds its own vertex: only ``others`` are excluded.
        v, back, others, need = steps[depth]
        pool = meet(back)
        taken = [images[u] for u in others]
        if pool is None:  # no placed neighbour: every free vertex
            candidates = [w for w in range(n_host) if w not in taken]
        else:
            candidates = sorted(pool.difference(taken))
        budget.spend(len(candidates))
        fits = [w for w in candidates if len(rows[w]) >= need]
        if depth + 1 == run:
            return counted(v, fits)
        if depth == len(steps) - 1:  # only with a leaf
            for w in fits:
                images[v] = w
                leaf(images)
            return len(fits)
        total = 0
        for w in fits:
            images[v] = w
            total += descend(depth + 1)
        return total

    def counted(split, fits: list) -> int:
        """Injective maps of the run into its pools, summed over the images
        ``fits`` of the vertex ``split`` before it (None: the run begins the
        search), charged the maps of every leading part of the run.  One run
        vertex gives |Q|, two give |Q1||Q2| - |Q1 & Q2|, and more share one
        pool and give the falling factorial (|Q|)_k."""
        taken = {images[u] for u in before}
        R = [rows[w] for w in fits] if split is not None else ()

        def sizes(base, dep):
            """|Q| for each of ``fits``: w's row within ``base`` when the pool
            depends on w, else ``base`` less w; outside ``taken`` either way,
            and None for ``base`` is every vertex."""
            if base is not None and taken:
                base = base - taken
            if dep:
                if base is None:
                    return map(sub, map(len, R), map(len, map(taken.intersection, R)))
                return map(len, map(base.intersection, R))
            if base is None:
                return itertools.repeat(n_host - len(taken) - (split is not None), len(fits))
            return map(sub, itertools.repeat(len(base), len(fits)), map(base.__contains__, fits))

        k = len(steps) - run
        pools = [(meet(rest), dep) for rest, dep in heads]
        if k == 1:
            count = nodes = sum(sizes(*pools[0]))
        elif k == 2:
            (a, a_dep), (b, b_dep) = pools
            first = list(sizes(a, a_dep))
            both = a if b is None else b if a is None else a & b
            count = sum(map(mul, first, sizes(b, b_dep))) - sum(sizes(both, a_dep or b_dep))
            nodes = sum(first) + count
        else:
            count = nodes = 0
            for q, m in Counter(sizes(*pools[0])).items():
                for j in range(k):
                    m *= q - j
                    nodes += m
                count += m
        budget.spend(nodes)
        return count

    total = 0
    try:
        for order, pinned_images in starts:
            for v, w in pinned_images.items():
                images[v] = w
            steps, run, before, heads = _plan(pattern, tuple(order), len(pinned_images))
            if leaf is not None:  # list every position
                run = len(steps) + 1
            if not steps:  # every vertex pinned
                total += 1
                if leaf is not None:
                    leaf(images)
            else:
                total += counted(None, [None]) if run == 0 else descend(0)
    finally:
        # ``descend`` reaches itself through its closure cell.  Emptying the
        # cell frees the closures, and the host rows they hold, on return
        # instead of at the next cyclic garbage collection.
        descend = None
    return total


def count_labelled(pattern: PatternGraph, host: HostGraph, budget: Optional[int] = None) -> int:
    """Number of injective edge-preserving maps from the pattern into the host."""
    nodes = _Budget(budget)
    if pattern.vertex_count > host.vertex_count:
        return 0
    return _embed(pattern, host, _starts(pattern, host), nodes)


def count_labelled_using_edge(
    pattern: PatternGraph, host: HostGraph, edge: tuple[int, int], budget: Optional[int] = None
) -> int:
    """Copies whose image contains the given host edge."""
    return _embed(pattern, host, _starts(pattern, host, edge), _Budget(budget))


def star_count_using_edge(r: int, host: HostGraph, edge: tuple[int, int]) -> int:
    """Closed form for stars: the center sits at one endpoint, one arm is the
    edge, and the remaining arms choose distinct other neighbors."""
    u, v = edge
    if not host.has_edge(u, v):
        raise ValidationError(f"edge ({u},{v}) not in host graph")
    du, dv = host.degree(u), host.degree(v)
    return r * math.perm(du - 1, r - 1) + r * math.perm(dv - 1, r - 1)


def unlabelled_count(pattern: PatternGraph, labelled: int) -> int:
    """A labelled count over |Aut(H)|.  Every count here is of a copy set
    closed under Aut(H) (all copies, or those through a host edge), so
    divisibility is checked, also under ``python -O``: a failure always means
    a counting bug."""
    automorphisms = automorphism_count(pattern)
    quotient, remainder = divmod(labelled, automorphisms)
    if remainder:
        raise RuntimeError(
            f"labelled count {labelled} is not divisible by the automorphism count "
            f"{automorphisms}: a counting bug"
        )
    return quotient


def star_count_exact(r: int, host: HostGraph) -> int:
    """Sum over vertices of the falling factorial of the degree."""
    if r < 2:
        raise ValidationError("star arm count must be at least 2")
    return sum(math.perm(d, r) for d in host.degrees())


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


def conditional_expected_count(
    pattern: PatternGraph,
    n: int,
    p: float,
    planted: Optional[HostGraph] = None,
    budget: Optional[int] = None,
) -> float:
    """Expected labelled count conditioned on a planted subgraph being present.

    Sums p^(number of pattern edges falling outside the planted graph) over
    all injective placements; exact enumeration, so only for small n.
    """
    if not 0 <= p <= 1:
        raise ValidationError("p must lie in [0, 1]")
    if planted is not None and planted.vertex_count != n:
        raise ValidationError("planted graph must have n vertices")
    v = pattern.vertex_count
    if v > n:
        return 0.0
    injections = math.perm(n, v)
    limit = DEFAULT_NODE_BUDGET if budget is None else budget
    if injections > limit:
        raise ResourceBudgetError(
            f"conditional expectation enumeration needs {injections} placements, "
            f"over the budget of {limit}"
        )
    edge_list = pattern.sorted_edges()
    histogram = [0] * (len(edge_list) + 1)
    for image in itertools.permutations(range(n), v):
        missing = 0
        if planted is not None:
            for x, y in edge_list:
                if not planted.has_edge(image[x], image[y]):
                    missing += 1
        else:
            missing = len(edge_list)
        histogram[missing] += 1
    return float(sum(cnt * p**k for k, cnt in enumerate(histogram) if cnt))


@dataclass(frozen=True)
class PlantedSearchResult:
    value: float
    witness: HostGraph
    family: str  # "hub", "clique", or "empty"
    size: int


def _hub_host(n: int, m: int) -> HostGraph:
    return HostGraph(n, [(i, j) for i in range(m) for j in range(m, n)])


def _clique_host(n: int, m: int) -> HostGraph:
    return HostGraph(n, itertools.combinations(range(m), 2))


def phi_planted_search(
    pattern: PatternGraph,
    n: int,
    p: float,
    delta: float,
    budget: Optional[int] = None,
) -> PlantedSearchResult:
    """Cheapest planting among hubs K_{m,n-m} and cliques K_m whose
    conditional expected count clears (1 + delta) times the unconditioned one.

    Both families are scanned over all sizes (hub edge sets are not nested in
    m, so no bisection); plantings already costing more than the best
    feasible value found so far are skipped.  The result is an upper bound on
    the planted variational value, not claimed optimal.
    """
    if not 0 < p < 1:
        raise ValidationError("p must lie in (0, 1)")
    if delta < 0:
        raise ValidationError("delta must be nonnegative")
    base = conditional_expected_count(pattern, n, p, None, budget)
    target = (1 + delta) * base
    if delta == 0:
        return PlantedSearchResult(0.0, HostGraph.empty(n), "empty", 0)

    log_inv_p = math.log(1 / p)
    best: Optional[PlantedSearchResult] = None
    for family, builder, sizes in (
        ("hub", _hub_host, range(1, n)),
        ("clique", _clique_host, range(2, n + 1)),
    ):
        for m in sizes:
            witness = builder(n, m)
            value = witness.edge_count * log_inv_p
            if best is not None and value >= best.value:
                continue
            if conditional_expected_count(pattern, n, p, witness, budget) >= target:
                best = PlantedSearchResult(value, witness, family, m)
    if best is None:
        raise ValidationError("constraint unsatisfiable even at the complete graph")
    return best


def _copy_edge_sets(
    pattern: PatternGraph,
    host: HostGraph,
    budget: Optional[int],
    through: Optional[tuple[int, int]] = None,
) -> list[frozenset]:
    """Distinct unlabelled copies, each as a frozenset of host edges; with
    ``through`` set, only the copies containing that host edge.

    An edge set does not record where an isolated pattern vertex went, so
    the copies are those of the pattern without its isolated vertices, when
    the host has room for the whole pattern.  An edgeless pattern keeps one
    vertex, whose copy is the empty edge set."""
    room = pattern.vertex_count <= host.vertex_count
    kept = sorted({x for e in pattern.edges for x in e}) or [0]
    if len(kept) < pattern.vertex_count:
        pattern, _ = induced_subgraph(pattern, kept)
    starts = _starts(pattern, host, through)
    nodes = _Budget(budget)
    if not room:
        return []
    edge_list = pattern.sorted_edges()
    copies: set[frozenset] = set()

    def collect(images: list[int]) -> None:
        pairs = ((images[x], images[y]) for x, y in edge_list)
        copies.add(frozenset((a, b) if a < b else (b, a) for a, b in pairs))

    _embed(pattern, host, starts, nodes, leaf=collect)
    return sorted(copies, key=sorted)
