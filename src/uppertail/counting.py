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
c(u,w) >= 2, at the same node charge again.  Candidates are tried in set
order, which no caller reads: the copy collector sorts its copies, and an
existence search stops at its first embedding.  A count through a host
edge pins the edge's ends to both orientations of every pattern edge,
2 e(H) starts; starts whose orders correspond position by position under
an automorphism of H run the same search, so each such class is searched
once and its count and nodes are taken class-size times (one search per
edge for a clique, two for C4).

A free count finds each copy closed under Aut(H) once per member of a
stabilizer: ``automorphism_count`` multiplies the orbit sizes of one
stabilizer chain along the free order, and the free plan asks, for a prefix
of its steps, that the vertex at the step outrank the other members of its
orbit, rank being (degree, label) in the host.  The count is taken the
product of the prefix's orbit sizes: six for K3, four for C4, two for P4.
A dominating vertex that is a pattern neighbour of the position is met
through its row of lower-ranked neighbours, any other filters the
candidates by rank.  The prefix is the longest one the search can enforce,
never between two counted run vertices or from the twin level onto its
run.  Fewer maps are listed, so free counts charge fewer nodes; pinned
starts, leaf actions and patterns too large for the chain's orbit searches
keep every labelled copy.  Counts are plain Python ints so the
divisibility check stays exact.  Closed forms are used for stars, both as
fast paths and as independent oracles in the tests.
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
def _plan(pattern: PatternGraph, order: tuple[int, ...], pinned: int, ranked: bool = False):
    """The plan of a start whose first ``pinned`` vertices of ``order`` are
    pinned: per later position (vertex, back-neighbours met through full
    rows, other placed vertices, degree, back-neighbours met through lower
    rows, other dominating vertices), and the counted trailing run.  The run
    is the longest pairwise non-adjacent tail, shortened to two vertices
    unless all of it shares its back-neighbours.  The plan holds where the
    run begins, the vertices placed before it but for the one just before
    it, and for its first two vertices their other back-neighbours through
    full and through lower rows, and ``dep``: 0 when that one is not among
    their back-neighbours, else 1 for its full row and 2 for its lower row.

    ``twin`` marks the position p two before the run when p is a twin of
    every run vertex: the position s between them has p as its only placed
    back-neighbour, each run vertex has the back-neighbours B of p and s,
    and exactly B is placed before p, with B not empty.  Then p and the run
    vertices all have the neighbours B and s, and p's level is summed from
    codegrees (see ``_embed``).

    Only a ``ranked`` plan (the free start, counted without a leaf action)
    of at most ``PATTERN_VERTEX_CAP`` vertices, the most the stabilizer
    chain's orbit searches take, has rank conditions, the dominating
    vertices of each position from ``_ranks``, and ``factor``, the product
    of their orbit sizes; any other has none and factor 1.  A host vertex's
    lower row is its neighbours of lower rank.  A dominating vertex that is
    a back-neighbour of the position is met through its lower row, any
    other filters the candidates by rank."""
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
    twin = False
    if 2 <= run < len(steps):
        (p, shared, _, _), (_, s_back, _, _) = steps[run - 2 : run]
        twin = (bool(shared) and s_back == (p,)
                and set(order[: pinned + run - 2]) == set(shared)
                and all(set(back) == {*shared, split} for _, back, _, _ in steps[run:]))
    if ranked and pattern.vertex_count <= PATTERN_VERTEX_CAP:
        factor, ranks = _ranks(pattern, steps, run, twin)
    else:
        factor, ranks = 1, [()] * len(steps)
    steps = tuple(
        (v, tuple(u for u in back if u not in rank), others, need,
         tuple(u for u in back if u in rank), tuple(u for u in rank if u not in back))
        for (v, back, others, need), rank in zip(steps, ranks))
    heads = tuple((tuple(u for u in back if u != split), tuple(u for u in low if u != split),
                   (split in back) + 2 * (split in low))
                  for _, back, _, _, low, _ in steps[run : run + 2])
    return steps, run, before, heads, twin, factor


def _ranks(pattern: PatternGraph, steps: list, run: int, twin: bool):
    """The rank conditions of the free plan with these unranked ``steps``,
    ``run`` and ``twin``: ``(factor, ranks)``, ``ranks[j]`` the dominating
    vertices of position j and ``factor`` the product of the orbit sizes of
    the chain steps they come from.

    Step i of ``_stabilizer_chain`` asks that the image of the vertex d at
    position i outrank the images of the other members of its orbit, all
    placed later.  Of the |Aut(H)| maps onto one copy, the conditions of a
    prefix of the chain's steps keep one per member of the stabilizer left
    at its end, so the count taken ``factor`` times is exact for any
    prefix.  The longest prefix is kept in which every condition can be
    enforced: on a listed vertex or the split vertex always; on a counted
    run vertex only when d is its back-neighbour, met through d's lower row
    (so never between two run vertices, which are not adjacent); with a
    twin level, on the split vertex and the run only from before the twin
    level, whose candidates then carry the run's conditions: a twin of p is
    in every orbit that p is in, since swapping them is an automorphism
    fixing every other vertex."""
    position = {s[0]: j for j, s in enumerate(steps)}
    ranks: list[list[int]] = [[] for _ in steps]
    factor = 1
    for i, orbit in enumerate(_stabilizer_chain(pattern)):
        later = [position[w] for w in orbit[1:]]
        if twin and any(j >= run - 1 for j in later):
            if i >= run - 2:
                break
        elif not all(j < run or orbit[0] in steps[j][1] for j in later):
            break
        for j in later:
            ranks[j].append(orbit[0])
        factor *= len(orbit)
    return factor, [tuple(rank) for rank in ranks]


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
    placed images, tried in set order.  The free start of a count has a
    ranked plan (see ``_ranks``): a dominating back-neighbour is met
    through its lower row, any other dominating vertex filters the
    candidates by rank before they are charged, and the count is taken the
    plan's ``factor`` times.

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
    summed.  Any twin level builds the rank key, ranked plan or not: an x
    is kept when it ranks below the images of s's dominating vertices.
    """
    rows = host.adjacency_rows()
    n_host = host.vertex_count
    images = [0] * pattern.vertex_count
    key = lower = None

    def meet(back, low=()):
        """The host vertices adjacent to the images of ``back``, and of lower
        rank than the images of ``low``, or None when both are empty."""
        pool = None
        for u in back:
            row = rows[images[u]]
            pool = row if pool is None else pool & row
            if not pool:
                return pool
        for u in low:
            row = lower[images[u]]
            pool = row if pool is None else pool & row
            if not pool:
                return pool
        return pool

    def ranked(candidates, bound):
        """The candidates of lower rank than every image of ``bound``."""
        limit = min(map(key.__getitem__, map(images.__getitem__, bound)))
        return [w for w in candidates if key[w] < limit]

    def descend(depth: int) -> int:
        # A neighbour set never holds its own vertex: only ``others`` are excluded.
        v, back, others, need, low, bound = steps[depth]
        pool = meet(back, low)
        taken = [images[u] for u in others]
        if pool is None:  # no placed neighbour: every free vertex
            candidates = [w for w in range(n_host) if w not in taken]
        else:
            candidates = pool.difference(taken)
        if bound:
            candidates = ranked(candidates, bound)
        budget.spend(len(candidates))
        fits = [w for w in candidates if len(rows[w]) >= need]
        if depth == len(steps) - 1:  # only with a leaf
            for w in fits:
                images[v] = w
                leaf(images)
            return len(fits)
        if depth + 2 == run:
            return codegrees(fits) if twin else counted(v, fits)
        total = 0
        for w in fits:
            images[v] = w
            total += descend(depth + 1)
        return total

    def codegrees(fits: list) -> int:
        """The maps of the twin level's s and run, summed over the images
        ``fits`` of p, charged the nodes listing s and counting the run
        would cost.  An image x of s, outside the images of p's back set B
        and of rank below the images of s's dominating vertices (with none,
        the limit n_host^2 is above every key), is reached from
        C[x] = |N(x) & fits| of them; each leaves the run a pool of
        C[x] - 1, so x adds (C[x])_{k+1} maps for a run of k, and only x
        with C[x] >= 2 add maps or nodes."""
        _, _, shared, need, _, bound = steps[run - 1]  # s's other placed vertices are B
        reach = Counter(itertools.chain.from_iterable(map(rows.__getitem__, fits)))
        for u in shared:
            reach.pop(images[u], None)
        limit = min(map(key.__getitem__, map(images.__getitem__, bound)), default=n_host * n_host)
        nodes, several = 0, []
        for x, c in reach.items():
            if key[x] < limit:
                nodes += c
                if c > 1:
                    several.append(x)
        closing = Counter([reach[x] for x in several if len(rows[x]) >= need])
        count = 0
        for c, m in closing.items():
            m *= c
            for j in range(1, len(steps) - run + 1):
                m *= c - j
                nodes += m
            count += m
        budget.spend(nodes)
        return count

    def sizes(base, R, taken, fits):
        """|Q| for each image w in ``fits`` of the split vertex: w's row
        within ``base`` when the pool depends on w, ``R`` their full or
        lower rows, else (``R`` None) ``base`` less w; outside ``taken``
        either way, and None for ``base`` is every vertex."""
        if base is not None and taken:
            base = base - taken
        if R is not None:
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
        candidates are listed, rank-filtered and degree-checked, in any
        order, and the injective maps of the run into its pools summed over
        the fits of s: one run vertex gives |Q|, two give |Q1||Q2| -
        |Q1 & Q2|, and more share one pool and give the falling factorial
        (|Q|)_k.  A run vertex's pool meets s's full or lower row as its
        ``dep`` says, and both pools meet the lower one when either does.
        Each image is charged in one sum: s's candidates and the maps of
        every leading part of the run."""
        k = len(steps) - run
        (a_rest, a_low, a_dep), (b_rest, b_low, b_dep) = heads[0], heads[-1]
        both_dep = a_dep if a_dep > b_dep else b_dep
        full_rows, lower_rows = 1 in (a_dep, b_dep), 2 in (a_dep, b_dep)
        if run:
            _, back, _, need, low, bound = steps[run - 1]
        else:
            fits, tables, listed = [None], (None,), 0
        total = 0
        for w0 in parents:
            if parent is not None:
                images[parent] = w0
            taken = set(map(images.__getitem__, before))
            if run:
                pool = meet(back, low)
                if pool is None:  # no placed neighbour: every free vertex
                    candidates = [w for w in range(n_host) if w not in taken]
                else:
                    candidates = pool - taken
                if bound:
                    candidates = ranked(candidates, bound)
                listed = len(candidates)
                fits = [w for w in candidates if len(rows[w]) >= need]
                tables = (None, full_rows and list(map(rows.__getitem__, fits)),
                          lower_rows and list(map(lower.__getitem__, fits)))
            a = meet(a_rest, a_low)
            if k == 1:
                count = nodes = sum(sizes(a, tables[a_dep], taken, fits))
            elif k == 2:
                b = meet(b_rest, b_low)
                first = list(sizes(a, tables[a_dep], taken, fits))
                both = a if b is None else b if a is None else a & b
                count = (sum(map(mul, first, sizes(b, tables[b_dep], taken, fits)))
                         - sum(sizes(both, tables[both_dep], taken, fits)))
                nodes = sum(first) + count
            else:
                count = nodes = 0
                for q, m in Counter(sizes(a, tables[a_dep], taken, fits)).items():
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
            steps, run, before, heads, twin, factor = _plan(
                pattern, tuple(order), len(pinned_images), leaf is None and not pinned_images)
            if leaf is not None:  # list every position
                run, twin = len(steps) + 1, False
            if factor > 1 or twin:  # rank by (degree, label), as the host is now
                key = [len(row) * n_host + w for w, row in enumerate(rows)]
                if any(step[4] for step in steps):  # each row met with the lower-ranked
                    lower, below, empty = [None] * n_host, set(), frozenset()
                    for w in sorted(range(n_host), key=key.__getitem__):
                        lower[w] = rows[w] & below or empty  # one object for every empty row
                        below.add(w)
            remaining = budget.remaining
            if not steps:  # every vertex pinned
                found = 1
                if leaf is not None:
                    leaf(images)
            else:
                found = counted(None, [None]) if run < 2 else descend(0)
            total += size * factor * found
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
def _stabilizer_chain(pattern: PatternGraph) -> tuple[tuple[int, ...], ...]:
    """For each position i of the free order ``_order(pattern, ())``, the
    orbit of its vertex v under the automorphisms fixing the vertices before
    it, v first.  w is in it when a search of H in H with the first i
    vertices pinned to themselves and v on w finds an embedding (an
    automorphism); ``_stop`` ends it there.  ``_embed`` skips edges among
    pinned vertices, so w must first have v's pinned adjacencies and sorted
    neighbour degrees.  At most v(v-1)/2 searches share one node budget."""
    n = pattern.vertex_count
    if n > PATTERN_VERTEX_CAP:
        raise ValidationError("pattern too large")
    order = _order(pattern, ())
    host, masks = HostGraph(n, pattern.edges), [pattern.adjacency_mask(v) for v in range(n)]
    signature = [sorted(map(pattern.degree, pattern.neighbors(v))) for v in range(n)]
    budget, chain, fixed = _Budget(None), [], 0
    for i, v in enumerate(order):
        orbit = [v]
        for w in order[i + 1 :]:
            if signature[w] == signature[v] and not (masks[v] ^ masks[w]) & fixed:
                pinned = {u: u for u in order[:i]}
                pinned[v] = w
                try:
                    _embed(pattern, host, [(order, pinned, 1)], budget, leaf=_stop)
                except _Found:
                    orbit.append(w)
        chain.append(tuple(orbit))
        fixed |= 1 << v
    return tuple(chain)


def automorphism_count(pattern: PatternGraph) -> int:
    """|Aut(H)| by orbit-stabilizer: the product of the orbit sizes of
    ``_stabilizer_chain``, the chain the free counts take their rank
    conditions from."""
    return math.prod(map(len, _stabilizer_chain(pattern)))


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
