"""Enumeration of small graphs up to isomorphism, used by the exhaustive
combinatorics sweeps, and the exhaustive alpha* search kept as an oracle.

Graphs on n labeled vertices are edge-subset bitmasks; the canonical form of
a mask is its minimum over all vertex permutations, computed for every mask
at once with vectorized bit shuffles (0.7M masks x 720 permutations for
n = 6 stays fast this way).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from uppertail.graphs import PatternGraph, is_connected


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def canonical_masks(n: int) -> tuple[int, ...]:
    """Canonical (minimum-relabeling) edge masks of all graphs on n vertices."""
    slots = _edge_slots(n)
    slot_index = {e: i for i, e in enumerate(slots)}
    m = len(slots)
    masks = np.arange(1 << m, dtype=np.int64)
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        mapped = np.zeros_like(masks)
        for i, (u, v) in enumerate(slots):
            a, b = perm[u], perm[v]
            j = slot_index[(a, b) if a < b else (b, a)]
            mapped |= ((masks >> i) & 1) << j
        np.minimum(canon, mapped, out=canon)
    return tuple(sorted(set(canon.tolist())))


def _mask_to_pattern(n: int, mask: int) -> PatternGraph:
    slots = _edge_slots(n)
    edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
    return PatternGraph(n, edges)


def patterns_upto(n_max: int) -> list[PatternGraph]:
    """One representative per isomorphism class of graphs on exactly
    1..n_max vertices, isolated vertices and edgeless graphs included."""
    return [_mask_to_pattern(n, mask) for n in range(1, n_max + 1) for mask in canonical_masks(n)]


def connected_patterns_upto(n_max: int) -> list[PatternGraph]:
    """One representative per isomorphism class of connected graphs on
    exactly 1..n_max vertices (no isolated vertices except the K_1 case)."""
    out = [PatternGraph(1, [])]
    for n in range(2, n_max + 1):
        for mask in canonical_masks(n):
            pattern = _mask_to_pattern(n, mask)
            # Exactly n vertices: every vertex must touch an edge.
            if min(pattern.degrees()) == 0:
                continue
            if is_connected(pattern):
                out.append(pattern)
    return out


def random_host(n: int, p: float, rng) -> "HostGraph":
    from uppertail.graphs import HostGraph

    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return HostGraph(n, edges)


def alpha_by_search(n: int, edges) -> tuple[Fraction, tuple[Fraction, ...]]:
    """alpha* by exhaustive branch and bound over the half-integral
    assignments {0, 1/2, 1}^n, the oracle for the matching in
    ``patterns._alpha``.  Values are doubled to {0, 1, 2} internally; vertex
    ``pos`` takes at most 2 minus each earlier neighbour's value."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    values = [0] * n
    best_total = -1
    best_assign = None

    def extend(pos: int, total: int) -> None:
        nonlocal best_total, best_assign
        if total + 2 * (n - pos) <= best_total:
            return
        if pos == n:
            best_total, best_assign = total, values.copy()
            return
        cap = min([2] + [2 - values[u] for u in range(pos) if masks[pos] >> u & 1])
        for val in range(cap, -1, -1):
            values[pos] = val
            extend(pos + 1, total + val)
        values[pos] = 0

    extend(0, 0)
    return Fraction(best_total, 2), tuple(Fraction(v, 2) for v in best_assign)
