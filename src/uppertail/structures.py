"""Conditional-structure certificates and edge-pruning subroutines.

Detectors search a host graph for the structures that dominate conditioned
tail events: a hub (a set of near-full-degree vertices with many edges to the
complement), a dense quasi-clique, a single high-degree vertex, or a hub plus
one extra moderately-high-degree vertex.  Verdicts are three-valued: a yes
comes with a witness that rechecks from scratch, a no is only claimed when
the search was exhaustive, and heuristic failures stay "unknown".

Core and strong-core extraction iteratively delete edges participating in too
few copies; the deletion order (lexicographically smallest violating edge
first) is part of the contract because the fixed point can in principle
depend on it.  Pruning is a worklist: per-edge counts only fall as edges go,
so an edge that violates once violates until it is deleted, and a min-heap
of violators, refreshed only at the edges that share a copy with each
deleted edge, pops edges in exactly the order of a full rescan after every
deletion.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from .errors import ValidationError, _check_range
from .graphs import HostGraph, PatternGraph, max_degree, star, star_arms
from .counting import (
    _copy_edge_sets,
    count_labelled,
    count_labelled_using_edge,
    star_count_exact,
    star_count_using_edge,
)

EXHAUSTIVE_HUB_POOL = 20
EXHAUSTIVE_CLIQUE_N = 30

YES = "yes-with-witness"
NO = "no-exhaustive"
UNKNOWN = "unknown-heuristic"


@dataclass(frozen=True)
class StructureVerdict:
    found: str  # YES | NO | UNKNOWN
    witness: Optional[tuple] = None
    certificate: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

def _cross_edges_from(graph: HostGraph, inside: Sequence[int]) -> int:
    inner = set(inside)
    deg_sum = sum(graph.degree(v) for v in inner)
    internal = sum(1 for u, v in graph.edges() if u in inner and v in inner)
    return deg_sum - 2 * internal


def verify_hub(graph: HostGraph, witness: Sequence[int], degree_threshold: float, edge_threshold: float) -> bool:
    """Recheck a hub witness from scratch using only graph primitives."""
    _check_range("degree_threshold", degree_threshold, "(-inf, inf)")
    _check_range("edge_threshold", edge_threshold, "(-inf, inf)")
    if not witness:
        return False
    if any(graph.degree(v) < degree_threshold for v in witness):
        return False
    return _cross_edges_from(graph, witness) >= edge_threshold


def detect_hub(
    graph: HostGraph,
    edge_threshold: float,
    degree_threshold: float,
) -> StructureVerdict:
    """Search for U with every degree >= degree_threshold and at least
    edge_threshold edges leaving U.

    Any valid U lies inside the candidate pool of high-degree vertices, so
    exhausting subsets of a pool of size <= 20 is a complete search; larger
    pools fall back to degree-greedy prefixes, whose cross-edge counts are
    kept running: cross(U + w) = cross(U) + deg(w) - 2 |N(w) & U|.
    """
    _check_range("edge_threshold", edge_threshold, "(-inf, inf)")
    _check_range("degree_threshold", degree_threshold, "(-inf, inf)")
    pool = [v for v in range(graph.vertex_count) if graph.degree(v) >= degree_threshold]
    cert = {
        "degree_threshold": degree_threshold,
        "edge_threshold": edge_threshold,
        "pool_size": len(pool),
    }
    if not pool:
        return StructureVerdict(NO, None, cert)
    if len(pool) <= EXHAUSTIVE_HUB_POOL:
        k = len(pool)
        degs = [graph.degree(v) for v in pool]
        adj = [
            sum(1 << j for j in range(k) if graph.has_edge(pool[i], pool[j]))
            for i in range(k)
        ]
        # cross(U) = sum of degrees - 2 e(G[U]); one DP pass over all masks.
        deg_sum = [0] * (1 << k)
        inner = [0] * (1 << k)
        best = None
        best_key = None
        for mask in range(1, 1 << k):
            low = mask & -mask
            i = low.bit_length() - 1
            rest = mask ^ low
            deg_sum[mask] = deg_sum[rest] + degs[i]
            inner[mask] = inner[rest] + (adj[i] & rest).bit_count()
            if deg_sum[mask] - 2 * inner[mask] >= edge_threshold:
                key = (mask.bit_count(), mask)
                if best_key is None or key < best_key:
                    best, best_key = mask, key
        if best is None:
            return StructureVerdict(NO, None, cert)
        witness = tuple(pool[i] for i in range(k) if (best >> i) & 1)
        cert["cross_edges"] = _cross_edges_from(graph, witness)
        return StructureVerdict(YES, witness, cert)
    ordered = sorted(pool, key=lambda v: -graph.degree(v))
    inside: set[int] = set()
    cross = 0
    for size, w in enumerate(ordered, start=1):
        cross += graph.degree(w) - 2 * sum(1 for u in graph.neighbors(w) if u in inside)
        inside.add(w)
        if cross >= edge_threshold:
            witness = tuple(ordered[:size])
            cert["cross_edges"] = _cross_edges_from(graph, witness)
            return StructureVerdict(YES, witness, cert)
    return StructureVerdict(UNKNOWN, None, cert)


def _clique_requirement(chi: float, size: int) -> int:
    # Floor semantics: a single vertex trivially passes any chi < 1.
    return math.floor((1 - chi) * size)


def _quasi_clique_search(
    graph: HostGraph, size: int, need: int, chosen: list[int], candidates: list[int]
) -> Optional[tuple]:
    """Branch-and-bound search for a size-``size`` set with min induced
    degree >= need that extends ``chosen`` by ``candidates``.  Complete:
    returns None only if no such set exists."""
    pool = set(chosen) | set(candidates)
    # Iteratively drop vertices whose potential degree cannot reach need.
    changed = True
    cands = set(candidates)
    while changed:
        changed = False
        for v in list(cands):
            potential = sum(1 for u in graph.neighbors(v) if u in pool)
            if potential < need:
                cands.discard(v)
                pool.discard(v)
                changed = True
        for v in chosen:
            potential = sum(1 for u in graph.neighbors(v) if u in pool)
            if potential < need:
                return None  # a committed vertex can no longer qualify
    if len(chosen) + len(cands) < size:
        return None
    if len(chosen) == size:
        inner = set(chosen)
        ok = all(sum(1 for u in graph.neighbors(v) if u in inner) >= need for v in chosen)
        return tuple(sorted(chosen)) if ok else None
    remaining = sorted(cands, key=lambda v: -graph.degree(v))
    for idx, v in enumerate(remaining):
        result = _quasi_clique_search(graph, size, need, chosen + [v], remaining[idx + 1 :])
        if result is not None:
            return result
    return None


def _peel(graph: HostGraph):
    """Min-degree peeling, least (degree, vertex) first.  Before each
    removal, yields the least survivor's degree and the live map of the
    survivors to their degrees inside the survivor set; O(n^2) in all."""
    alive = {v: graph.degree(v) for v in range(graph.vertex_count)}
    while alive:
        low, drop = min((d, v) for v, d in alive.items())
        yield low, alive
        del alive[drop]
        for u in graph.neighbors(drop):
            if u in alive:
                alive[u] -= 1


def detect_clique(graph: HostGraph, chi: float, size_threshold: float) -> StructureVerdict:
    """Search for U of size at least ceil(size_threshold) whose induced
    minimum degree is at least floor((1 - chi) |U|).

    Exact branch-and-bound up to 30 host vertices; greedy min-degree peeling
    (testing every surviving prefix) above, where a miss is only "unknown".
    """
    _check_range("chi", chi, "[0, 1)")
    _check_range("size_threshold", size_threshold, "(-inf, inf)")
    s_min = max(1, math.ceil(size_threshold))
    cert = {"chi": chi, "size_threshold": size_threshold, "minimum_size": s_min}
    n = graph.vertex_count
    if s_min > n:
        return StructureVerdict(NO, None, cert)
    if n <= EXHAUSTIVE_CLIQUE_N:
        order = sorted(range(n), key=lambda v: -graph.degree(v))
        for size in range(n, s_min - 1, -1):
            found = _quasi_clique_search(graph, size, _clique_requirement(chi, size), [], order)
            if found is not None:
                cert["size"] = size
                return StructureVerdict(YES, found, cert)
        return StructureVerdict(NO, None, cert)
    for low, alive in _peel(graph):
        if len(alive) < s_min:
            break
        if low >= _clique_requirement(chi, len(alive)):
            cert["size"] = len(alive)
            return StructureVerdict(YES, tuple(sorted(alive)), cert)
    return StructureVerdict(UNKNOWN, None, cert)


def detect_high_degree(graph: HostGraph, threshold: float) -> StructureVerdict:
    _check_range("threshold", threshold, "(-inf, inf)")
    degs = graph.degrees()
    best = max(range(graph.vertex_count), key=lambda v: degs[v])
    cert = {"threshold": threshold, "max_degree": degs[best]}
    if degs[best] >= threshold:
        return StructureVerdict(YES, (best,), cert)
    return StructureVerdict(NO, None, cert)


def detect_tilde_hub(
    graph: HostGraph,
    u_size: int,
    u_degree_threshold: float,
    extra_degree_threshold: float,
) -> StructureVerdict:
    """Hub of prescribed size plus one extra vertex above a second threshold.

    The top ``u_size + 1`` vertices by (-degree, label) hold a witness if
    any exists: exchanging a witness vertex for a higher-degree one outside
    it keeps every threshold met.  The extra vertex is the first of them
    when its threshold is above the hub threshold, else the last.
    """
    _check_range("u_size", u_size, "[0, inf)")
    _check_range("u_degree_threshold", u_degree_threshold, "(-inf, inf)")
    _check_range("extra_degree_threshold", extra_degree_threshold, "(-inf, inf)")
    degs = graph.degrees()
    order = sorted(range(graph.vertex_count), key=lambda v: (-degs[v], v))
    cert = {
        "u_size": u_size,
        "u_degree_threshold": u_degree_threshold,
        "extra_degree_threshold": extra_degree_threshold,
    }
    if u_size + 1 > graph.vertex_count:
        return StructureVerdict(NO, None, cert)
    top = order[: u_size + 1]
    if extra_degree_threshold > u_degree_threshold:
        extra, hub = top[0], top[1:]
    else:
        extra, hub = top[-1], top[:-1]
    if all(degs[v] >= u_degree_threshold for v in hub) and degs[extra] >= extra_degree_threshold:
        return StructureVerdict(YES, (tuple(hub), extra), cert)
    return StructureVerdict(NO, None, cert)


# ---------------------------------------------------------------------------
# Core and strong-core extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreConfig:
    """Constants for the core definitions, surfaced as knobs.

    ``c_bar`` defaults to 4/delta; the strong-core budget ``c_bar_star``
    defaults to (1 + 8 r^2 epsilon) delta^(1/r) for stars, following the
    constant's role in the high-degree argument.  None of these are claimed
    canonical: the source only fixes them up to H, delta, epsilon.
    """

    delta: float
    epsilon: float
    c_bar: Optional[float] = None
    star_arms: Optional[int] = None  # set for the star-specialized thresholds
    c_bar_star: Optional[float] = None

    def __post_init__(self):
        for name in ("delta", "epsilon", "c_bar", "c_bar_star"):
            if getattr(self, name) is not None:
                _check_range(name, getattr(self, name), "(0, inf)")

    def resolved_c_bar(self) -> float:
        return self.c_bar if self.c_bar is not None else 4.0 / self.delta

    def resolved_c_bar_star(self, r: int) -> float:
        if self.c_bar_star is not None:
            return self.c_bar_star
        return (1 + 8 * r * r * self.epsilon) * self.delta ** (1.0 / r)


@dataclass(frozen=True)
class CoreResult:
    graph: HostGraph
    threshold: float
    removed: tuple[tuple[int, int], ...]
    copy_condition: bool  # (C1)/(SC1)
    edge_condition: bool  # (C2)/(SC2)


Edge = tuple[int, int]


def _prune_to_threshold(
    graph: HostGraph,
    per_edge_count: Callable[[HostGraph, Edge], int],
    sharing: Callable[[HostGraph, Edge], Iterable[Edge]],
    threshold: float,
) -> tuple[HostGraph, list[Edge]]:
    """Delete, lexicographically-first, any edge whose copy participation is
    below threshold, until a fixed point; returns the core and the removal
    sequence.

    ``sharing(g, e)`` lists (a superset of) the edges of g that lie in a copy
    together with e; deleting e lowers the counts of those edges and of no
    other.  Every edge is counted once and the violators go on a min-heap;
    after each deletion only the sharing edges not already queued are
    recounted.  Counts only fall under deletion, so a violator stays one
    until it is deleted, the heap holds exactly the current violators, and
    its minimum is the edge that rescanning every edge in order would pick:
    the removal sequence equals the rescan's.  Edges are deleted in place
    from a private copy of ``graph``, which is never mutated.
    """
    work = HostGraph(graph.vertex_count, graph.edges())
    heap = [e for e in work.edges() if per_edge_count(work, e) < threshold]
    heapq.heapify(heap)
    queued = set(heap)
    removed: list[Edge] = []
    while heap:
        edge = heapq.heappop(heap)
        touched = set(sharing(work, edge))
        work._delete_edge(*edge)
        removed.append(edge)
        for other in touched - queued:
            if per_edge_count(work, other) < threshold:
                heapq.heappush(heap, other)
                queued.add(other)
    return work, removed


def _edges_at_endpoints(graph: HostGraph, edge: Edge) -> list[Edge]:
    """Every edge meeting u or v: the edges that share a star with uv."""
    rows = graph.adjacency_rows()
    return [(x, w) if x < w else (w, x) for x in edge for w in rows[x]]


def _prune_core(graph: HostGraph, pattern: PatternGraph, cfg: CoreConfig, n: int, p: float,
                scale: float, k: int, budget: Optional[int]) -> CoreResult:
    """The one core definition at edge scale S = ``scale``: prune every edge
    in fewer than delta epsilon n^v p^e / S copies, and report the copy
    condition copies >= delta (1 - k epsilon) n^v p^e and the edge condition
    e(core) <= S.  A star is counted in closed form, its copies through uv
    lying on the edges at u and v; any other pattern by the enumerator,
    which alone ``budget`` charges."""
    if not scale > 0:  # p^Delta, or p itself, underflowed
        raise ValidationError(f"edge scale underflows to {scale!r} at p={p!r}: p is too small")
    v, e = pattern.vertex_count, pattern.edge_count
    threshold = cfg.delta * cfg.epsilon * n**v * p**e / scale
    r = star_arms(pattern)
    if r is not None:
        per_edge, sharing = partial(star_count_using_edge, r), _edges_at_endpoints
        count = partial(star_count_exact, r)
    else:
        per_edge = partial(count_labelled_using_edge, pattern, budget=budget)
        count = partial(count_labelled, pattern, budget=budget)

        def sharing(g, edge):
            return frozenset().union(*_copy_edge_sets(pattern, g, budget, through=edge))

    core, removed = _prune_to_threshold(graph, per_edge, sharing, threshold)
    return CoreResult(
        graph=core,
        threshold=threshold,
        removed=tuple(removed),
        copy_condition=count(core) >= cfg.delta * (1 - k * cfg.epsilon) * n**v * p**e,
        edge_condition=core.edge_count <= scale,
    )


def extract_core(
    graph: HostGraph,
    pattern: PatternGraph,
    cfg: CoreConfig,
    n: int,
    p: float,
    budget: Optional[int] = None,
) -> CoreResult:
    """Core pruning ((C1)/(C2)) at edge scale S = C n^2 p^Delta log(1/p), or
    at the star scale S = C n^(1+1/r) p log(1/p) when ``cfg.star_arms`` is
    set, which must then be the pattern's arm count.  Every edge of the
    fixed point lies in at least delta epsilon n^v p^e / S copies; the
    copy-count and edge-budget conditions are reported, not enforced.  A
    star pattern is counted in closed form under either scale, so
    ``budget`` only charges the enumerator for other patterns."""
    _check_range("p", p, "(0, 1)")
    _check_range("n", n, "[1, inf)")
    r, c_bar, log_inv_p = cfg.star_arms, cfg.resolved_c_bar(), math.log(1 / p)
    if r is None:
        scale = c_bar * n**2 * p ** max_degree(pattern) * log_inv_p
    elif r == star_arms(pattern):
        scale = c_bar * n ** (1 + 1.0 / r) * p * log_inv_p
    else:
        raise ValidationError(f"star_arms={r} but the pattern is not the {r}-armed star")
    return _prune_core(graph, pattern, cfg, n, p, scale, 3, budget)


def extract_strong_core(graph: HostGraph, r: int, cfg: CoreConfig, n: int, p: float) -> CoreResult:
    """Strong-core pruning ((SC1)/(SC2)) of the r-star at edge scale
    S = C* n^(1+1/r) p: the per-edge threshold delta epsilon n^(r+1) p^r / S
    is (delta epsilon / C*) (n^(1+1/r) p)^(r-1)."""
    _check_range("p", p, "(0, 1)")
    _check_range("n", n, "[1, inf)")
    _check_range("star arm count", r, "[2, inf)")
    scale = cfg.resolved_c_bar_star(r) * n ** (1 + 1.0 / r) * p
    return _prune_core(graph, star(r), cfg, n, p, scale, 4, None)


@dataclass(frozen=True)
class PeelResult:
    graph: HostGraph
    min_degree: int
    kept: tuple[int, ...]
    target: float


def stability_peel(graph: HostGraph, epsilon: float) -> PeelResult:
    """Peel minimum-degree vertices until the survivor clears
    (1 - 4 sqrt(epsilon)) sqrt(2 e(G)), with e(G) frozen at the input value.

    Peeling to a fixed degree floor finds the unique maximal subgraph with
    min degree above the floor, so any qualifying subgraph survives inside
    the result; the guarantee that one exists belongs to the caller's
    hypothesis, and this routine only reports what it finds.
    """
    if graph.edge_count < 1:
        raise ValidationError("graph must have at least one edge")
    _check_range("epsilon", epsilon, "(0, inf)")
    target = (1 - 4 * math.sqrt(epsilon)) * math.sqrt(2 * graph.edge_count)
    kept, min_deg = (), 0
    for low, alive in _peel(graph):
        if low >= target:
            kept, min_deg = tuple(sorted(alive)), low
            break
    return PeelResult(graph=graph.subgraph_on(kept), min_degree=min_deg, kept=kept, target=target)
