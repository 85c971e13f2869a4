"""Graph representations and elementary predicates.

Two graph types live here.  ``PatternGraph`` is a small fixed motif (the
graph whose copies get counted); it is capped at 12 vertices so that the
exact passes over its vertex subsets stay cheap.  ``HostGraph`` is the graph
being counted over; its one stored form is a neighbour set per vertex, which
suits the sparse hosts G(n, p) gives for p -> 0.  Both types are immutable
after construction and safe to share across threads; the one exception is a
private working copy that core pruning builds and deletes edges from in place
(``HostGraph._delete_edge``) before handing it out.

Vertices are dense 0-based integers.  File loaders re-index arbitrary labels
and return the mapping.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from array import array
from collections import deque
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ValidationError, _check_range

# Vertex cap for patterns: keeps their exact subset and vertex-map passes cheap.
PATTERN_VERTEX_CAP = 12

# Edge-list body lines that ``load_edge_list`` hands numpy at a time.
LOAD_BLOCK_LINES = 1 << 16


def _normalize_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Each edge as ``(low, high)`` ints, checked to be in range and not a loop."""
    for u, v in edges:
        u, v = int(u), int(v)  # keeps numpy ints out of neighbour sets and JSON
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValidationError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        yield (u, v) if u < v else (v, u)


def _checked_columns(vertex_count: int, edges: np.ndarray) -> Iterator[tuple[int, int]]:
    """Each row of an (m, 2) integer array as a pair of ints, checked in bulk:
    the first row that is out of range or a loop raises what
    ``_normalize_edges`` would.  Endpoints are one shared int per vertex."""
    u, v = edges[:, 0], edges[:, 1]
    bad = (u < 0) | (u >= vertex_count) | (v < 0) | (v >= vertex_count) | (u == v)
    if bad.any():
        a, b = edges[bad.argmax()].tolist()
        next(_normalize_edges(vertex_count, [(a, b)]))
    ints = np.arange(vertex_count).astype(object)
    return zip(ints[u].tolist(), ints[v].tolist())


class PatternGraph:
    """A small motif: labeled vertices 0..v-1 plus an undirected edge set."""

    __slots__ = ("vertex_count", "edges", "_degrees", "_adj_masks")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        _check_range("pattern vertex count", vertex_count, "[1, inf)")
        self.vertex_count = int(vertex_count)
        self.edges = frozenset(_normalize_edges(self.vertex_count, edges))
        deg = [0] * self.vertex_count
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._degrees = tuple(deg)
        self._adj_masks = tuple(masks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def adjacency_mask(self, v: int) -> int:
        return self._adj_masks[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def neighbors(self, v: int) -> list[int]:
        m = self._adj_masks[v]
        return [i for i in range(self.vertex_count) if (m >> i) & 1]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PatternGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"PatternGraph(v={self.vertex_count}, e={sorted(self.edges)})"


class HostGraph:
    """An n-vertex graph with O(1) adjacency tests and per-vertex degrees."""

    __slots__ = ("vertex_count", "_adj", "_edge_count")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        """``edges`` is any iterable of pairs, or an (m, 2) integer array,
        which is checked in bulk."""
        _check_range("host vertex count", vertex_count, "[1, inf)")
        self.vertex_count = int(vertex_count)
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
            pairs = _checked_columns(self.vertex_count, edges)
        else:
            pairs = _normalize_edges(self.vertex_count, edges)
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj
        self._edge_count = sum(map(len, adj)) // 2  # repeated edges count once

    @classmethod
    def complete(cls, n: int) -> "HostGraph":
        return cls(n, itertools.combinations(range(n), 2))

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self._adj]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def adjacency_rows(self) -> list[set[int]]:
        """Every vertex's neighbour set.  Not a copy, so read only."""
        return self._adj

    def neighbors(self, v: int) -> list[int]:
        return sorted(self._adj[v])

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.vertex_count):
            for v in self.neighbors(u):
                if v > u:
                    out.append((u, v))
        return out

    # Nothing in src/ calls this; perfbench/tracer.py patches it by name (KeyError
    # without it) until ROADMAP item 1 turns the tracer into a counter reader.
    def without_edges(self, removed: Iterable[tuple[int, int]]) -> "HostGraph":
        gone = {(min(e), max(e)) for e in removed}
        kept = [e for e in self.edges() if e not in gone]
        return HostGraph(self.vertex_count, kept)

    def _delete_edge(self, u: int, v: int) -> None:
        """Remove an existing edge in place; only for a private copy that no
        other code holds yet."""
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_count -= 1

    def subgraph_on(self, keep: Iterable[int]) -> "HostGraph":
        """Same vertex set, only edges with both endpoints in ``keep``."""
        keep_set = set(keep)
        kept = {u for u in range(self.vertex_count) if u in keep_set}
        sub = HostGraph(self.vertex_count)
        for u in kept:
            sub._adj[u] = self._adj[u] & kept
        sub._edge_count = sum(map(len, sub._adj)) // 2
        return sub

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HostGraph)
            and self.vertex_count == other.vertex_count
            and set(self.edges()) == set(other.edges())
        )

    def __repr__(self) -> str:
        return f"HostGraph(n={self.vertex_count}, e={self._edge_count})"


def validate_vertex_set(graph, vertices: Sequence[int]) -> tuple[int, ...]:
    """Check indices are in range and distinct; returns them as a tuple."""
    seen = set()
    for v in vertices:
        _check_range("vertex", v, f"[0, {graph.vertex_count})")
        if v in seen:
            raise ValidationError(f"duplicate vertex {v}")
        seen.add(v)
    return tuple(vertices)


# ---------------------------------------------------------------------------
# Elementary predicates and derived pattern metadata
# ---------------------------------------------------------------------------

def max_degree(pattern: PatternGraph) -> int:
    """Maximum vertex degree of a pattern with at least one edge."""
    if pattern.edge_count == 0:
        raise ValidationError("no edges")
    return max(pattern.degrees())


def is_regular(pattern: PatternGraph) -> bool:
    degs = pattern.degrees()
    return min(degs) == max(degs)


def star_arms(pattern: PatternGraph) -> Optional[int]:
    """r if the pattern is the r-armed star with r >= 2, else None."""
    n = pattern.vertex_count
    if n < 3 or pattern.edge_count != n - 1:
        return None
    degs = sorted(pattern.degrees())
    if degs[-1] == n - 1 and all(d == 1 for d in degs[:-1]):
        return n - 1
    return None


def is_connected(graph) -> bool:
    """Breadth-first reachability from vertex 0 (works for both graph kinds)."""
    n = graph.vertex_count
    if n == 1:
        return True
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def is_bipartite_with_parts(graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A 2-coloring (part0, part1) covering all vertices, or None.

    Isolated vertices land in part0.
    """
    n = graph.vertex_count
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    part0 = tuple(v for v in range(n) if color[v] == 0)
    part1 = tuple(v for v in range(n) if color[v] == 1)
    return part0, part1


def is_strictly_balanced(pattern: PatternGraph) -> bool:
    """True iff e(H[S])/|S| < e_H/v_H for every proper S with an edge.

    Density maxima over subgraphs are attained at induced subgraphs, so
    checking vertex subsets suffices.  Requires a connected pattern.
    """
    if pattern.edge_count == 0:
        raise ValidationError("no edges")
    if not is_connected(pattern):
        raise ValidationError("strict balancedness is defined for connected patterns")
    n = pattern.vertex_count
    if n > PATTERN_VERTEX_CAP:  # the subset walk below takes 2^n steps
        raise ValidationError("pattern too large")
    target = Fraction(pattern.edge_count, n)
    edge_list = pattern.sorted_edges()
    for size in range(2, n):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            e_in = sum(1 for u, v in edge_list if u in inside and v in inside)
            if e_in >= 1 and Fraction(e_in, size) >= target:
                return False
    return True


def induced_subgraph(graph, vertices: Sequence[int]):
    """Induced subgraph relabeled to 0..|S|-1; returns (graph, mapping).

    ``mapping[i]`` is the original index of new vertex ``i``.  The result has
    the same kind as the input.
    """
    verts = validate_vertex_set(graph, vertices)
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, u in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if graph.has_edge(u, verts[j]):
                edges.append((i, index[verts[j]]))
    if isinstance(graph, PatternGraph):
        return PatternGraph(len(verts), edges), verts
    return HostGraph(len(verts), edges), verts


# ---------------------------------------------------------------------------
# Standard small patterns and the shorthand / file loaders
# ---------------------------------------------------------------------------

def star(r: int) -> PatternGraph:
    """K_{1,r}: vertex 0 is the center."""
    _check_range("star arm count", r, "[1, inf)")
    return PatternGraph(r + 1, [(0, i) for i in range(1, r + 1)])


def path(k: int) -> PatternGraph:
    """P_k on k vertices."""
    _check_range("path vertex count", k, "[1, inf)")
    return PatternGraph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> PatternGraph:
    _check_range("cycle vertex count", k, "[3, inf)")
    return PatternGraph(k, [(i, (i + 1) % k) for i in range(k)])


def clique(k: int) -> PatternGraph:
    _check_range("clique vertex count", k, "[1, inf)")
    return PatternGraph(k, itertools.combinations(range(k), 2))


def biclique(a: int, b: int) -> PatternGraph:
    _check_range("biclique part size", a, "[1, inf)")
    _check_range("biclique part size", b, "[1, inf)")
    return PatternGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def pattern_from_shorthand(spec: str) -> PatternGraph:
    """Parse ``star:r``, ``path:k``, ``cycle:k``, ``clique:k``,
    ``biclique:a,b``, or ``file:<path>``."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "star":
            return star(int(arg))
        if kind == "path":
            return path(int(arg))
        if kind == "cycle":
            return cycle(int(arg))
        if kind == "clique":
            return clique(int(arg))
        if kind == "biclique":
            a, b = arg.split(",")
            return biclique(int(a), int(b))
        if kind == "file":
            host, _ = load_edge_list(arg)
            return PatternGraph(host.vertex_count, host.edges())
    except ValidationError:
        raise
    except (ValueError, OSError) as exc:
        raise ValidationError(f"bad pattern spec {spec!r}: {exc}") from None
    raise ValidationError(f"unknown pattern kind {kind!r}")


def load_edge_list(path_name: str):
    """Load the edge-list text format.

    First line ``n <N>``, then one ``u v`` pair per line; ``#`` starts a
    comment.  Labels outside 0..N-1 (or non-numeric labels) are re-indexed in
    order of first appearance.  Returns ``(HostGraph, mapping)`` where
    ``mapping`` maps original label to assigned index; when every label is
    an integer in 0..N-1 it is the read-only ``IdentityLabels(N)``.

    The body is parsed by numpy in blocks of ``LOAD_BLOCK_LINES`` lines.  A
    file that numpy refuses, or that holds a label outside 0..N-1, is read
    again line by line; both passes give the same graph, mapping and errors.
    """
    with _edge_list_text(path_name) as handle:
        n = _vertex_count(handle)
        edges = _int_edges(handle, n)
    if edges is None:
        return _load_by_lines(path_name)
    return HostGraph(n, edges), IdentityLabels(n)


class IdentityLabels(Mapping):
    """The mapping ``{str(i): i for i in range(n)}`` of an all-integer edge
    list, read-only and without a string per vertex: a label is looked up by
    parsing it."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, label):
        try:
            i = int(label)
        except (TypeError, ValueError):
            raise KeyError(label) from None
        if type(label) is not str or not 0 <= i < self.n or str(i) != label:
            raise KeyError(label)
        return i

    def __iter__(self) -> Iterator[str]:
        return map(str, range(self.n))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"IdentityLabels({self.n})"


@contextlib.contextmanager
def _edge_list_text(path_name: str):
    """The file opened as UTF-8 text.  A decoding error anywhere in the file
    wins over any other error, as when the whole file was decoded first: after
    a ``ValidationError`` the rest is still decoded, by lines, so that the
    position a decoding error reports does not change."""
    try:
        with open(path_name, "r", encoding="utf-8") as handle:
            try:
                yield handle
            except ValidationError:
                for _ in handle:
                    pass
                raise
    except UnicodeDecodeError as exc:
        raise ValidationError(f"edge-list file is not UTF-8 text: {exc}") from None


def _vertex_count(handle) -> int:
    """Read up to the header line ``n <N>`` and return N."""
    for line in handle:
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2 or parts[0] != "n":
            raise ValidationError("edge-list file must start with 'n <N>'")
        try:
            n = int(parts[1])
        except ValueError:
            raise ValidationError(f"vertex count {parts[1]!r} is not an integer") from None
        return _check_range("vertex count", n, "[1, inf)")
    raise ValidationError("empty edge-list file")


def _int_edges(handle, n: int) -> Optional[np.ndarray]:
    """The rest of the file as an (m, 2) int64 array of endpoints in 0..n-1,
    parsed a block at a time, or None once a block is refused: a line without
    exactly two tokens, a token that numpy does not read as an integer, or one
    out of range.  Lines longer than ``int()``'s digit limit are refused too,
    since numpy reads integers of any length.  numpy splits at the same
    whitespace as ``str.split``."""
    digit_limit = sys.get_int_max_str_digits()
    blocks = [np.empty((0, 2), dtype=np.int64)]
    while block := list(itertools.islice(handle, LOAD_BLOCK_LINES)):
        if digit_limit and max(map(len, block)) > digit_limit:
            return None
        # A last "0 0" row keeps a block of comments and blanks from reading
        # as no data, which numpy warns about and returns with shape (0, 1).
        block.append("0 0")
        try:
            pairs = np.loadtxt(block, dtype=np.int64, comments="#", ndmin=2)[:-1]
        except ValueError:
            return None
        if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
            return None
        blocks.append(pairs)
    return np.concatenate(blocks)


def _load_by_lines(path_name: str):
    """The second pass of ``load_edge_list``, by the per-line rules: every
    token is recorded by its label's first appearance, and the labels are
    the vertices unless all of them are integers in 0..N-1."""
    labels: dict[str, int] = {}
    ends = array("q")
    dense = True
    with _edge_list_text(path_name) as handle:
        n = _vertex_count(handle)
        for line in handle:
            text = line.split("#", 1)[0].strip()
            parts = text.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValidationError(f"bad edge line: {text!r}")
            for tok in parts:
                ends.append(labels.setdefault(tok, len(labels)))
                dense = dense and _dense_label(tok, n)
    ends = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    if dense:
        values = np.array([int(tok) for tok in labels], dtype=np.int64)
        return HostGraph(n, values[ends]), IdentityLabels(n)
    if len(labels) > n:
        raise ValidationError("more labels than declared vertices")
    return HostGraph(n, ends), labels


def _dense_label(tok: str, n: int) -> bool:
    try:
        return 0 <= int(tok) < n
    except ValueError:
        return False
