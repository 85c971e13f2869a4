"""Exact copy counting in host graphs.

Labelled copies are injective vertex maps preserving pattern edges (non-edges
of the pattern are unconstrained).  One enumerator finds them all: it
backtracks over pattern vertices in a greedy connected order that maximizes
back-degree, intersecting the host's neighbour sets, and at each embedding
counts it or hands it to a leaf action (which is how copies are collected).
A pattern's automorphisms come from existence searches of it in itself.
Each search start's plan (order, back-neighbours, degree needs) is built once
per pattern and cached as immutable tuples.  Without a leaf action the
trailing run of pairwise non-adjacent vertices is counted from pool sizes
rather than listed, at the same node charge: star centres are listed once
and their arms counted as falling factorials of the degree.  The vertex
just before the run and the run are counted in one loop per image of the
vertex before them, charged once per image.  When the vertex two before
that run is a twin of every run vertex (unpinned C4 and K_{2,t}), its level
is summed from codegrees: C4 copies are sum c(u,w)_2 and K_{2,t} copies sum
c(u,w)_t over the codegrees c(u,w) = |N(u) & N(w)|, only over the w with
c(u,w) >= 2, at the same node charge again.  The order in which candidates
are tried matters only to a leaf action, which gets them in increasing
order.  A count through a host edge pins the edge's ends to both
orientations of every pattern edge, 2 e(H) starts; starts whose orders
correspond position by position under an automorphism of H run the same
search, so each such class is searched once and its count and nodes are
taken class-size times (one search per edge for a clique, two for C4).
Counts are plain Python ints so the divisibility check stays exact.  Closed
forms are used for stars, both as fast paths and as independent oracles in
the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from operator import mul, sub
from typing import Callable, Optional, Sequence

from .errors import ResourceBudgetError, ValidationError, _check_range
from .graphs import PATTERN_VERTEX_CAP, HostGraph, PatternGraph, induced_subgraph

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
    among their back-neighbours.

    ``twin`` marks the position p two before the run when p is a twin of
    every run vertex: the position s between them has p as its only placed
    back-neighbour, each run vertex has the back-neighbours B of p and s,
    and exactly B is placed before p, with B not empty.  Then p and the run
    vertices all have the neighbours B and s, and p's level is summed from
    codegrees (see ``_embed``)."""
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
    twin = False
    if 2 <= run < len(steps):
        (p, shared, _, _), (_, s_back, _, _) = steps[run - 2 : run]
        twin = (bool(shared) and s_back == (p,)
                and set(order[: pinned + run - 2]) == set(shared)
                and all(set(back) == {*shared, split} for _, back, _, _ in steps[run:]))
    return tuple(steps), run, before, heads, twin


class _Budget:
    __slots__ = ("remaining", "limit")

    def __init__(self, limit: Optional[int]):
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit
        _check_range("counting budget", self.limit, "[0, inf)")
        self.remaining = self.limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise ResourceBudgetError(
                f"counting budget of {self.limit} search nodes exceeded: "
                f"{self.limit - self.remaining} charged so far")


@functools.lru_cache(maxsize=4096)
def _start_classes(pattern: PatternGraph) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The pinned starts ``_order(pattern, (a, b))``, over both orientations
    (a, b) of every pattern edge, grouped into classes: ``(order, size)`` per
    class, its representative the first member in edge order.  A start joins
    a class when mapping the representative's order onto its own, position
    by position, is an automorphism.  Degrees are compared first, then every
    edge: a bijection keeping every edge is an automorphism."""
    degrees = pattern.degrees()
    edges = pattern.sorted_edges()
    classes: list[list] = []
    for x, y in edges:
        for first in ((x, y), (y, x)):
            order = _order(pattern, first)
            for cls in classes:
                rep = cls[0]
                image = dict(zip(rep, order))
                if (all(degrees[a] == degrees[b] for a, b in zip(rep, order))
                        and all(pattern.has_edge(image[a], image[b]) for a, b in edges)):
                    cls[1] += 1
                    break
            else:
                classes.append([order, 1])
    return tuple((order, size) for order, size in classes)


def _starts(pattern: PatternGraph, host: HostGraph, edge: Optional[tuple[int, int]] = None):
    """Search starts ``(order, pinned, size)``: one free start, or with
    ``edge`` one per class of ``_start_classes``, the first two vertices of
    its order pinned to u and v.

    A copy's image contains the host edge through exactly one pattern edge in
    exactly one orientation, so the 2 e(H) pinned starts, one per ordered
    pattern edge (a, b) with a on u and b on v, find each such copy once.
    The orientation (v, u) of the pattern edge (a, b) is the start (b, a): a
    plan depends only on which vertices are pinned, and ``_order`` only on
    the set of them.  Starts in one class have, position by position, the
    same back-neighbours, degrees, run and heads, so the same candidates,
    counts and nodes: ``_embed`` searches the representative and counts it
    ``size`` times."""
    if edge is None:
        return [(_order(pattern, ()), {}, 1)]
    u, v = edge
    if not host.has_edge(u, v):
        raise ValidationError(f"edge ({u},{v}) not in host graph")
    return [(order, {order[0]: u, order[1]: v}, size)
            for order, size in _start_classes(pattern)]


def _embed(
    pattern: PatternGraph,
    host: HostGraph,
    starts: list[tuple[Sequence[int], dict[int, int], int]],
    budget: _Budget,
    leaf: Optional[Callable[[list[int]], None]] = None,
) -> int:
    """Number of injective edge-preserving maps of the pattern into the host,
    summed over the starts.

    Each start ``(order, pinned, size)`` fixes the images of the leading
    vertices of ``order`` and backtracks over the rest in that order,
    following the start's cached ``_plan``.  It stands for ``size`` starts
    whose searches match it position by position (see ``_starts``): its
    count is taken ``size`` times, and after it has run the other
    ``size - 1`` searches' nodes are charged in one sum, so the total charged
    is the sum over every start and the budget raises when listing each
    would.  ``leaf`` is called at every embedding with the images indexed by
    pattern vertex, for the representative only: the other searches find
    its embeddings composed with an automorphism, which cover the same host
    edges.  Every candidate tried costs one budget node, also when the
    degree check rejects it.  Candidates are the intersection of the
    neighbour sets of the placed back-neighbours' images, less the other
    placed images.  Their order matters only with ``leaf``, which sees the
    embeddings in the order of increasing candidates at every position.

    Without ``leaf`` the plan's trailing run of pairwise non-adjacent
    vertices is counted rather than listed.  Every pattern neighbour of a run
    vertex is placed before the run, so its pool is fixed by earlier images
    and each candidate in it is adjacent to that many distinct images, which
    passes the degree check.  The split vertex s just before the run and the
    run are handled by ``counted`` in one loop over the images of the vertex
    before s (once, for no image, when s or the run begins the search): per
    image it lists and degree-checks s's candidates, sums over them the
    injective maps of the run into its pools, and charges in one sum the
    nodes listing would cost.  The budget raises exactly when the running
    total passes its limit, so charging an image in one sum fails where
    listing it would, after at most that image's nodes more.

    When the plan marks a twin level, the position p two before the run has
    the run vertices' neighbours: the back-neighbours B of p and the split
    vertex s.  There ``codegrees`` sums s and the run over all of p's
    images ``fits`` at once, from C[x] = |N(x) & fits| for each image x of
    s: a candidate of p outside ``fits`` has only the images of B as
    neighbours, so x's run pool is its pool within ``fits`` less p's image,
    of size C[x] - 1, and x is reached from C[x] images of p.  Every term
    has the factor C[x] - 1, so only the reached x with C[x] >= 2 are
    summed.
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
        if depth == len(steps) - 1:  # only with a leaf
            for w in fits:
                images[v] = w
                leaf(images)
            return len(fits)
        if depth + 2 == run:
            return codegrees(back, fits) if twin else counted(v, fits)
        total = 0
        for w in fits:
            images[v] = w
            total += descend(depth + 1)
        return total

    def codegrees(shared, fits: list) -> int:
        """The maps of the twin level's s and run, summed over the images
        ``fits`` of p, charged the nodes listing s and counting the run
        would cost.  An image x of s, outside the images of ``shared``, is
        reached from C[x] = |N(x) & fits| of them; each leaves the run a
        pool of C[x] - 1, so x adds (C[x])_{k+1} maps for a run of k, and
        only x with C[x] >= 2 add maps or nodes."""
        reach = Counter(itertools.chain.from_iterable(map(rows.__getitem__, fits)))
        for u in shared:
            reach.pop(images[u], None)
        need = steps[run - 1][3]
        nodes = sum(map(len, map(rows.__getitem__, fits))) - len(shared) * len(fits)
        count = 0
        closing = Counter([c for x, c in reach.items() if c > 1 and len(rows[x]) >= need])
        for c, m in closing.items():
            m *= c
            for j in range(1, len(steps) - run + 1):
                m *= c - j
                nodes += m
            count += m
        budget.spend(nodes)
        return count

    def sizes(base, dep, taken, fits, R):
        """|Q| for each image w in ``fits`` of the split vertex, ``R`` their
        rows: w's row within ``base`` when the pool depends on w, else
        ``base`` less w; outside ``taken`` either way, and None for ``base``
        is every vertex."""
        if base is not None and taken:
            base = base - taken
        if dep:
            if base is None:
                return map(sub, map(len, R), map(len, map(taken.intersection, R)))
            return map(len, map(base.intersection, R))
        if base is None:
            return itertools.repeat(n_host - len(taken) - (run > 0), len(fits))
        return map(sub, itertools.repeat(len(base), len(fits)), map(base.__contains__, fits))

    def counted(parent, parents: list) -> int:
        """Maps of the split vertex s = ``steps[run - 1]`` and the run, summed
        over the images ``parents`` of ``parent``, the vertex placed just
        before s (None with the one image None when s is the first vertex
        searched; with ``run`` 0 there is no s either).  For each image s's
        candidates are listed and degree-checked, in any order, and the
        injective maps of the run into its pools summed over the fits of s:
        one run vertex gives |Q|, two give |Q1||Q2| - |Q1 & Q2|, and more
        share one pool and give the falling factorial (|Q|)_k.  Each image
        is charged in one sum: s's candidates and the maps of every leading
        part of the run."""
        k = len(steps) - run
        (a_rest, a_dep), (b_rest, b_dep) = heads[0], heads[-1]
        if run:
            back, need = steps[run - 1][1], steps[run - 1][3]
        else:
            fits, R, listed = [None], (), 0
        total = 0
        for w0 in parents:
            if parent is not None:
                images[parent] = w0
            taken = {images[u] for u in before}
            if run:
                pool = meet(back)
                if pool is None:  # no placed neighbour: every free vertex
                    candidates = [w for w in range(n_host) if w not in taken]
                else:
                    candidates = pool - taken
                listed = len(candidates)
                fits = [w for w in candidates if len(rows[w]) >= need]
                R = list(map(rows.__getitem__, fits))
            a = meet(a_rest)
            if k == 1:
                count = nodes = sum(sizes(a, a_dep, taken, fits, R))
            elif k == 2:
                b = meet(b_rest)
                first = list(sizes(a, a_dep, taken, fits, R))
                both = a if b is None else b if a is None else a & b
                count = (sum(map(mul, first, sizes(b, b_dep, taken, fits, R)))
                         - sum(sizes(both, a_dep or b_dep, taken, fits, R)))
                nodes = sum(first) + count
            else:
                count = nodes = 0
                for q, m in Counter(sizes(a, a_dep, taken, fits, R)).items():
                    for j in range(k):
                        m *= q - j
                        nodes += m
                    count += m
            budget.spend(listed + nodes)
            total += count
        return total

    total = 0
    try:
        for order, pinned_images, size in starts:
            for v, w in pinned_images.items():
                images[v] = w
            steps, run, before, heads, twin = _plan(pattern, tuple(order), len(pinned_images))
            if leaf is not None:  # list every position
                run, twin = len(steps) + 1, False
            remaining = budget.remaining
            if not steps:  # every vertex pinned
                found = 1
                if leaf is not None:
                    leaf(images)
            else:
                found = counted(None, [None]) if run < 2 else descend(0)
            total += size * found
            budget.spend((size - 1) * (remaining - budget.remaining))
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


class _Found(Exception):
    """Ends an existence search at its first embedding."""


def _stop(images: list[int]) -> None:
    raise _Found


@functools.lru_cache(maxsize=4096)
def automorphism_count(pattern: PatternGraph) -> int:
    """|Aut(H)| by orbit-stabilizer: the product over i of the orbit size of
    i under the automorphisms fixing 0, ..., i-1.  w is in it when a search
    of H in H with 0, ..., i-1 pinned and i on w finds an embedding (an
    automorphism); ``_stop`` ends it there.  ``_embed`` skips edges among
    pinned vertices, so w must first have i's pinned adjacencies and sorted
    neighbour degrees.  At most v(v-1)/2 searches share one node budget."""
    n = pattern.vertex_count
    if n > PATTERN_VERTEX_CAP:
        raise ValidationError("pattern too large")
    host, masks = HostGraph(n, pattern.edges), [pattern.adjacency_mask(v) for v in range(n)]
    signature = [sorted(map(pattern.degree, pattern.neighbors(v))) for v in range(n)]
    budget, total = _Budget(None), 1
    for i in range(n):
        order, orbit = _order(pattern, tuple(range(i + 1))), 1
        for w in range(i + 1, n):
            if signature[w] == signature[i] and not (masks[i] ^ masks[w]) & ((1 << i) - 1):
                try:
                    _embed(pattern, host, [(order, dict(enumerate([*range(i), w])), 1)], budget,
                           leaf=_stop)
                except _Found:
                    orbit += 1
        total *= orbit
    return total


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
    _check_range("star arm count", r, "[2, inf)")
    return sum(math.perm(d, r) for d in host.degrees())


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
