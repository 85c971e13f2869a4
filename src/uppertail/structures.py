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
from typing import Callable, Iterable, Optional, Sequence

from .errors import ValidationError
from .graphs import HostGraph, PatternGraph
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
    if not witness:
        return False
    if any(graph.degree(v) < degree_threshold for v in witness):
        return False
    return _cross_edges_from(graph, witness) >= edge_threshold


def _require_finite(**thresholds: float) -> None:
    for name, value in thresholds.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite")


def detect_hub(
    graph: HostGraph,
    chi: float,
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
    _require_finite(edge_threshold=edge_threshold, degree_threshold=degree_threshold)
    pool = [v for v in range(graph.vertex_count) if graph.degree(v) >= degree_threshold]
    cert = {
        "chi": chi,
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


def _find_quasi_clique_exact(graph: HostGraph, size: int, need: int) -> Optional[tuple]:
    """Branch-and-bound search for a size-``size`` set with min induced
    degree >= need.  Complete: returns None only if no such set exists."""
    n = graph.vertex_count
    order = sorted(range(n), key=lambda v: -graph.degree(v))

    def prune(chosen: list[int], candidates: list[int]) -> Optional[tuple]:
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
            ok = all(
                sum(1 for u in graph.neighbors(v) if u in inner) >= need for v in chosen
            )
            return tuple(sorted(chosen)) if ok else None
        remaining = sorted(cands, key=lambda v: -graph.degree(v))
        for idx, v in enumerate(remaining):
            result = prune(chosen + [v], remaining[idx + 1 :])
            if result is not None:
                return result
        return None

    return prune([], order)


def detect_clique(graph: HostGraph, chi: float, size_threshold: float) -> StructureVerdict:
    """Search for U of size at least ceil(size_threshold) whose induced
    minimum degree is at least floor((1 - chi) |U|).

    Exact branch-and-bound up to 30 host vertices; greedy min-degree peeling
    (testing every surviving prefix) above, where a miss is only "unknown".
    """
    if not 0 <= chi < 1:
        raise ValidationError("chi must lie in [0, 1)")
    _require_finite(size_threshold=size_threshold)
    s_min = max(1, math.ceil(size_threshold))
    cert = {"chi": chi, "size_threshold": size_threshold, "minimum_size": s_min}
    n = graph.vertex_count
    if s_min > n:
        return StructureVerdict(NO, None, cert)
    if n <= EXHAUSTIVE_CLIQUE_N:
        for size in range(n, s_min - 1, -1):
            found = _find_quasi_clique_exact(graph, size, _clique_requirement(chi, size))
            if found is not None:
                cert["size"] = size
                return StructureVerdict(YES, found, cert)
        return StructureVerdict(NO, None, cert)
    alive = set(range(n))
    inner_deg = {v: graph.degree(v) for v in alive}
    while alive:
        if len(alive) >= s_min:
            need = _clique_requirement(chi, len(alive))
            if min(inner_deg[v] for v in alive) >= need:
                cert["size"] = len(alive)
                return StructureVerdict(YES, tuple(sorted(alive)), cert)
        drop = min(alive, key=lambda v: (inner_deg[v], v))
        alive.discard(drop)
        for u in graph.neighbors(drop):
            if u in alive:
                inner_deg[u] -= 1
    return StructureVerdict(UNKNOWN, None, cert)


def detect_high_degree(graph: HostGraph, threshold: float) -> StructureVerdict:
    _require_finite(threshold=threshold)
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

    Degree-sorted greedy choice is exact when the extra threshold does not
    exceed the hub threshold (the intended use); the opposite ordering is
    handled by reserving one vertex above the extra threshold first.
    """
    if u_size < 0:
        raise ValidationError("u_size must be nonnegative")
    _require_finite(
        u_degree_threshold=u_degree_threshold, extra_degree_threshold=extra_degree_threshold
    )
    degs = graph.degrees()
    order = sorted(range(graph.vertex_count), key=lambda v: (-degs[v], v))
    cert = {
        "u_size": u_size,
        "u_degree_threshold": u_degree_threshold,
        "extra_degree_threshold": extra_degree_threshold,
    }
    if u_size == 0:
        top = degs[order[0]] if order else 0
        if top >= extra_degree_threshold or extra_degree_threshold <= 0:
            witness = (tuple(), order[0] if order else None)
            return StructureVerdict(YES, witness, cert)
        return StructureVerdict(NO, None, cert)
    if u_size + 1 > graph.vertex_count:
        return StructureVerdict(NO, None, cert)
    if extra_degree_threshold <= u_degree_threshold:
        hub = order[:u_size]
        extra = order[u_size]
        if all(degs[v] >= u_degree_threshold for v in hub) and degs[extra] >= extra_degree_threshold:
            return StructureVerdict(YES, (tuple(hub), extra), cert)
        return StructureVerdict(NO, None, cert)
    extras = [v for v in order if degs[v] >= extra_degree_threshold]
    if not extras:
        return StructureVerdict(NO, None, cert)
    reserved = extras[0]
    hub = [v for v in order if v != reserved and degs[v] >= u_degree_threshold][:u_size]
    if len(hub) == u_size:
        return StructureVerdict(YES, (tuple(hub), reserved), cert)
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
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and positive, got {value}")

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


def extract_core(
    graph: HostGraph,
    pattern: PatternGraph,
    cfg: CoreConfig,
    n: int,
    p: float,
    budget: Optional[int] = None,
) -> CoreResult:
    """Iterative pruning to the core per-edge threshold.

    The threshold is delta epsilon n^v p^e / (C n^2 p^Delta log(1/p)), or its
    star specialization delta epsilon n^(r+1) p^r / (C n^(1+1/r) p log(1/p)).
    The fixed point satisfies the per-edge condition by construction; the
    copy-count and edge-budget conditions are reported, not enforced.
    """
    if not 0 < p < 1:
        raise ValidationError("p must lie in (0, 1)")
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    from .graphs import max_degree as _max_degree

    c_bar = cfg.resolved_c_bar()
    log_inv_p = math.log(1 / p)
    if cfg.star_arms is not None:
        r = cfg.star_arms
        threshold = (
            cfg.delta * cfg.epsilon * n ** (r + 1) * p**r
            / (c_bar * n ** (1 + 1.0 / r) * p * log_inv_p)
        )
        edge_budget = c_bar * n ** (1 + 1.0 / r) * p * log_inv_p

        def per_edge(g, e):
            return star_count_using_edge(r, g, e)

        sharing = _edges_at_endpoints

    else:
        v, e_h = pattern.vertex_count, pattern.edge_count
        delta_deg = _max_degree(pattern)
        threshold = (
            cfg.delta * cfg.epsilon * n**v * p**e_h
            / (c_bar * n**2 * p**delta_deg * log_inv_p)
        )
        edge_budget = c_bar * n**2 * p**delta_deg * log_inv_p

        def per_edge(g, e):
            return count_labelled_using_edge(pattern, g, e, budget)

        def sharing(g, e):
            return frozenset().union(*_copy_edge_sets(pattern, g, budget, through=e))

    core, removed = _prune_to_threshold(graph, per_edge, sharing, threshold)
    v, e_h = pattern.vertex_count, pattern.edge_count
    if cfg.star_arms is not None:
        copies = star_count_exact(cfg.star_arms, core)
    else:
        copies = count_labelled(pattern, core, budget)
    copy_ok = copies >= cfg.delta * (1 - 3 * cfg.epsilon) * n**v * p**e_h
    return CoreResult(
        graph=core,
        threshold=threshold,
        removed=tuple(removed),
        copy_condition=copy_ok,
        edge_condition=core.edge_count <= edge_budget,
    )


def extract_strong_core(
    graph: HostGraph,
    r: int,
    cfg: CoreConfig,
    n: int,
    p: float,
) -> CoreResult:
    """Star pruning at the strong-core per-edge threshold
    (delta epsilon / C*) (n^(1+1/r) p)^(r-1)."""
    if not 0 < p < 1:
        raise ValidationError("p must lie in (0, 1)")
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    if r < 2:
        raise ValidationError("star arm count must be at least 2")
    c_star = cfg.resolved_c_bar_star(r)
    threshold = (cfg.delta * cfg.epsilon / c_star) * (n ** (1 + 1.0 / r) * p) ** (r - 1)

    core, removed = _prune_to_threshold(
        graph, lambda g, e: star_count_using_edge(r, g, e), _edges_at_endpoints, threshold
    )
    copies = star_count_exact(r, core)
    return CoreResult(
        graph=core,
        threshold=threshold,
        removed=tuple(removed),
        copy_condition=copies >= cfg.delta * (1 - 4 * cfg.epsilon) * n ** (r + 1) * p**r,
        edge_condition=core.edge_count <= c_star * n ** (1 + 1.0 / r) * p,
    )


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
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    target = (1 - 4 * math.sqrt(epsilon)) * math.sqrt(2 * graph.edge_count)
    alive = set(range(graph.vertex_count))
    inner_deg = graph.degrees().copy()
    while alive:
        drop = min(alive, key=lambda v: (inner_deg[v], v))
        if inner_deg[drop] >= target:
            break
        alive.discard(drop)
        for u in graph.neighbors(drop):
            if u in alive:
                inner_deg[u] -= 1
    kept = tuple(sorted(alive))
    survivor = graph.subgraph_on(kept)
    min_deg = min((inner_deg[v] for v in alive), default=0)
    return PeelResult(graph=survivor, min_degree=min_deg, kept=kept, target=target)
