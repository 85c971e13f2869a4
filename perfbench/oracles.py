"""Independent reference values for the benchmark's correctness gate.

Nothing here imports ``uppertail``: every value is computed by a different
route than the program takes (adjacency powers, degree closed forms,
brute force over injective maps, a separate random stream), so a fast path
that changes an answer is caught even when the old path agreed with it.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def gnm_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct pairs of {0..n-1}, uniformly, as an (m, 2) array with u < v.

    A fixed edge count (rather than G(n, p)) keeps the work per pass the same
    from seed to seed, so timings compare across seeds.
    """
    total = n * (n - 1) // 2
    idx = np.sort(rng.choice(total, size=m, replace=False))
    return decode_pairs(n, idx)


def decode_pairs(n: int, idx: np.ndarray) -> np.ndarray:
    """Linear upper-triangle index -> (u, v), the row-major order of triu_indices."""
    offsets = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    u = np.searchsorted(offsets, idx, side="right") - 1
    v = idx - offsets[u] + u + 1
    return np.stack([u, v], axis=1).astype(np.int64)


def write_graph(path: str, n: int, edges) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n {n}\n")
        handle.writelines(f"{int(u)} {int(v)}\n" for u, v in edges)


def degrees(n: int, edges: np.ndarray) -> np.ndarray:
    return np.bincount(edges[:, 0], minlength=n) + np.bincount(edges[:, 1], minlength=n)


def adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.float64)
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    return a


# ---------------------------------------------------------------------------
# Labelled copy counts
# ---------------------------------------------------------------------------

def dense_counts(n: int, edges: np.ndarray) -> dict:
    """Labelled copies of K3, C4, P4 and K_{1,3} from A^2 and the degrees.

    Entries of A^2 are codegrees (< 2^53), so float64 products are exact.
    """
    a = adjacency(n, edges)
    a2 = a @ a
    deg = degrees(n, edges).astype(np.int64)
    k3 = int(round(float((a2 * a).sum())))  # tr(A^3)
    codeg = np.rint(a2).astype(np.int64)
    np.fill_diagonal(codeg, 0)
    c4 = int((codeg * (codeg - 1)).sum())
    u, v = edges[:, 0], edges[:, 1]
    p4 = int(2 * ((deg[u] - 1) * (deg[v] - 1)).sum()) - k3
    star3 = int((deg * (deg - 1) * (deg - 2)).sum())
    return {"clique:3": k3, "cycle:4": c4, "path:4": p4, "star:3": star3}


def cycle4_through_edge(n: int, edges: np.ndarray, u: int, v: int) -> int:
    """Labelled C4 copies whose image contains edge uv: 8 per 4-cycle
    u-v-y-x, and each x in N(u)-v closes A^2[x, v] - 1 of them (y != u)."""
    a = adjacency(n, edges)
    xs = np.flatnonzero(a[u])
    xs = xs[xs != v]
    closing = a[xs] @ a[:, v]
    return int(8 * (closing - 1).sum())


def sparse_path4(n: int, edges: np.ndarray) -> int:
    """Labelled P4 copies of a sparse host without an n x n matrix: the
    ordered middle-edge sum minus tr(A^3), with triangles found by closing
    wedges against a sorted key table."""
    deg = degrees(n, edges).astype(np.int64)
    u, v = edges[:, 0], edges[:, 1]
    middle = int(2 * ((deg[u] - 1) * (deg[v] - 1)).sum())
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    order = np.argsort(np.concatenate([u, v]), kind="stable")
    nbrs = np.concatenate([v, u])[order]
    starts = np.concatenate([[0], np.cumsum(deg)])
    closed = 0
    for c in np.flatnonzero(deg >= 2):
        ring = nbrs[starts[c]:starts[c + 1]]
        i, j = np.triu_indices(len(ring), k=1)
        wedge = ring[i] * n + ring[j]
        pos = np.searchsorted(keys, wedge)
        pos[pos == len(keys)] = 0
        closed += int((keys[pos] == wedge).sum())
    # Each triangle closes 3 wedges; tr(A^3) = 6 triangles = 2 closed wedges.
    return middle - 2 * closed


# ---------------------------------------------------------------------------
# Exact tails for n <= 6 by brute force over injective maps
# ---------------------------------------------------------------------------

PATTERN_EDGES = {
    "path:2": (2, [(0, 1)]),
    "star:2": (3, [(0, 1), (0, 2)]),
    "star:3": (4, [(0, 1), (0, 2), (0, 3)]),
    "clique:3": (3, [(0, 1), (0, 2), (1, 2)]),
    "clique:4": (4, list(itertools.combinations(range(4), 2))),
    "path:4": (4, [(0, 1), (1, 2), (2, 3)]),
    "cycle:4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}


def exact_tail(spec: str, n: int, p: float, threshold: int) -> float:
    """P(N >= threshold) in G(n, p), N the labelled copy count.

    Every graph on n vertices is a bitmask over the pairs; N is the number
    of injective maps whose image edges are all present, summed map by map.
    """
    v, pat_edges = PATTERN_EDGES[spec]
    pairs = {pair: i for i, pair in enumerate(itertools.combinations(range(n), 2))}
    total = len(pairs)
    graphs = np.arange(1 << total, dtype=np.int64)
    counts = np.zeros(1 << total, dtype=np.int64)
    for image in itertools.permutations(range(n), v):
        mask = 0
        for x, y in pat_edges:
            a, b = sorted((image[x], image[y]))
            mask |= 1 << pairs[(a, b)]
        counts += (graphs & mask) == mask
    bits = np.array([bin(g).count("1") for g in range(1 << total)])
    weights = p**bits * (1 - p) ** (total - bits)
    return float(weights[counts >= threshold].sum())


# ---------------------------------------------------------------------------
# Triangle counts in G(n, p) (criterion-8 parameters)
# ---------------------------------------------------------------------------

def triangle_mean_var(n: int, p: float) -> tuple[float, float]:
    """Mean and variance of the unlabelled triangle count in G(n, p).

    Distinct triangles are correlated only when they share an edge:
    C(n,2) C(n-2,2) such pairs, each with covariance p^5 - p^6.
    """
    triples = math.comb(n, 3)
    mean = triples * p**3
    var = triples * (p**3 - p**6) + 2 * math.comb(n, 2) * math.comb(n - 2, 2) * (p**5 - p**6)
    return mean, var


# ---------------------------------------------------------------------------
# Two-star tail and max degree at n = 40 by an independent random stream
# ---------------------------------------------------------------------------

def star2_reference(n: int, p: float, threshold: int, degree_cut: float,
                    samples: int, rng: np.random.Generator, chunk: int = 5000) -> dict:
    """Frequencies of {labelled 2-stars >= threshold} and {max degree >=
    degree_cut} over ``samples`` draws of G(n, p)."""
    iu, iv = np.triu_indices(n, k=1)
    incidence = np.zeros((len(iu), n))
    incidence[np.arange(len(iu)), iu] = 1.0
    incidence[np.arange(len(iu)), iv] = 1.0
    tail = high = 0
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        present = rng.random((take, len(iu))) < p
        deg = np.rint(present @ incidence).astype(np.int64)
        stars = (deg * (deg - 1)).sum(axis=1)
        tail += int((stars >= threshold).sum())
        high += int((deg.max(axis=1) >= degree_cut).sum())
        done += take
    return {"tail": tail / samples, "high_degree": high / samples, "samples": samples}


# ---------------------------------------------------------------------------
# Core pruning by a worklist (independent of the program's rescans)
# ---------------------------------------------------------------------------

def prune_star2(n: int, edges, threshold: float) -> list[tuple[int, int]]:
    """Lexicographically-first deletion sequence for 2-star core pruning.

    An edge uv lies in 2(d_u - 1) + 2(d_v - 1) labelled 2-stars.  Counts
    only fall under deletion, so a heap of known violators, refreshed at the
    endpoints of each deleted edge, pops the same edges in the same order
    as rescanning everything after each deletion.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def count(u, v):
        return 2 * (len(adj[u]) - 1) + 2 * (len(adj[v]) - 1)

    return _worklist(adj, count, threshold, lambda u, v: adj[u] | adj[v])


def prune_triangle(n: int, edges, threshold: float) -> list[tuple[int, int]]:
    """Same for triangles: uv lies in 6 |N(u) & N(v)| labelled copies, and
    deleting uv only lowers counts of edges to common neighbours."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def count(u, v):
        return 6 * len(adj[u] & adj[v])

    return _worklist(adj, count, threshold, lambda u, v: adj[u] & adj[v])


def _worklist(adj, count, threshold, touched) -> list[tuple[int, int]]:
    heap = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v and count(u, v) < threshold]
    heapq.heapify(heap)
    queued = set(heap)
    removed = []
    while heap:
        u, v = heapq.heappop(heap)
        queued.discard((u, v))
        if v not in adj[u]:
            continue
        affected = touched(u, v) - {u, v}
        adj[u].discard(v)
        adj[v].discard(u)
        removed.append((u, v))
        for end in (u, v):
            for w in affected:
                if w in adj[end]:
                    e = (min(end, w), max(end, w))
                    if e not in queued and count(*e) < threshold:
                        heapq.heappush(heap, e)
                        queued.add(e)
    return removed


def core_threshold(v: int, e: int, max_deg: int, n: int, p: float, delta: float,
                   epsilon: float) -> float:
    """Per-edge core threshold delta eps n^v p^e / (c_bar n^2 p^Delta log(1/p)),
    with c_bar = 4 / delta (its default)."""
    c_bar = 4.0 / delta
    return delta * epsilon * n**v * p**e / (c_bar * n**2 * p**max_deg * math.log(1 / p))


def star_core_threshold(r: int, n: int, p: float, delta: float, epsilon: float) -> float:
    """Star specialisation: delta eps n^(r+1) p^r / (c_bar n^(1+1/r) p log(1/p))."""
    c_bar = 4.0 / delta
    return delta * epsilon * n ** (r + 1) * p**r / (c_bar * n ** (1 + 1.0 / r) * p * math.log(1 / p))


# ---------------------------------------------------------------------------
# Greedy hub detection
# ---------------------------------------------------------------------------

def cross_edges(n: int, edges: np.ndarray, inside) -> int:
    mask = np.zeros(n, dtype=bool)
    mask[list(inside)] = True
    return int((mask[edges[:, 0]] != mask[edges[:, 1]]).sum())


def hub_pool(n: int, edges: np.ndarray, degree_threshold: float) -> np.ndarray:
    """Vertices of degree >= threshold in greedy order: degree down, then index."""
    deg = degrees(n, edges)
    pool = np.flatnonzero(deg >= degree_threshold)
    return pool[np.lexsort((pool, -deg[pool]))]


def greedy_hub(n: int, edges: np.ndarray, degree_threshold: float, edge_threshold: float):
    """First prefix of the ordered pool with enough crossing edges, or None."""
    mask = np.zeros(n, dtype=bool)
    ordered = hub_pool(n, edges, degree_threshold)
    for size, w in enumerate(ordered, start=1):
        mask[w] = True
        if int((mask[edges[:, 0]] != mask[edges[:, 1]]).sum()) >= edge_threshold:
            return tuple(int(x) for x in ordered[:size])
    return None
