"""Layered time-graphs, permutation incidence, problem reductions, and brute-force oracles.

A complete time-graph of order n has an edge (i, j, t) for every pair of
vertex labels i, j in 1..n and every layer t in 1..n-1 (i = j included).
Edges are numbered in (t, i, j)-lexicographic order so the layer-1 block is
a contiguous prefix; a time-graph is the order n plus an int bitmask over
those edge indices.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple

from .gf2 import _set, _Value, bit_indices

ORACLE_PERM_CAP = 8  # n! enumeration guard
ORACLE_PATH_CAP = 10  # backtracking-search guard


class OracleScaleError(Exception):
    """A brute-force oracle was invoked beyond its configured scale cap."""


class Edge(NamedTuple):
    i: int
    j: int
    t: int


Permutation = tuple[int, ...]


def edge_space_size(n: int) -> int:
    """Number of edges of the complete time-graph of order n."""
    return n * n * (n - 1)


def check_edge(e: Edge, n: int) -> None:
    if not (1 <= e.i <= n and 1 <= e.j <= n and 1 <= e.t <= n - 1):
        raise ValueError(f"edge {tuple(e)} out of range for order {n}")


def edge_index(e: Edge, n: int) -> int:
    """Dense index of an edge, (t, i, j)-lexicographic."""
    check_edge(e, n)
    return ((e.t - 1) * n + (e.i - 1)) * n + (e.j - 1)


def edge_from_index(idx: int, n: int) -> Edge:
    if not 0 <= idx < edge_space_size(n):
        raise ValueError(f"edge index {idx} out of range for order {n}")
    t, rest = divmod(idx, n * n)
    i, j = divmod(rest, n)
    return Edge(i + 1, j + 1, t + 1)


def _text_rows(text: str, kind: str) -> tuple[int, list[str]]:
    """A graph or time-graph file's order and its other rows, stripped, with
    blank and # lines dropped; kind names the file in the error."""
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"empty {kind} file")
    return int(rows[0]), rows[1:]


class TimeGraph(_Value):
    """A subgraph of the complete time-graph: order n plus an edge bitmask."""

    __slots__ = _fields = ("n", "edges")

    def __init__(self, n: int, edges: int = 0) -> None:
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        if edges < 0 or edges >> edge_space_size(n):
            raise ValueError("edge bits out of range for order")
        _set(self, "n", n)
        _set(self, "edges", edges)

    @classmethod
    def empty(cls, n: int) -> "TimeGraph":
        return cls(n, 0)

    @classmethod
    def complete(cls, n: int) -> "TimeGraph":
        return cls(n, (1 << edge_space_size(n)) - 1)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "TimeGraph":
        bits = 0
        for e in edges:
            bits |= 1 << edge_index(Edge(*e), n)
        return cls(n, bits)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "TimeGraph":
        size = edge_space_size(n)
        bits = 0
        for idx in indices:
            if not 0 <= idx < size:
                raise ValueError(f"edge index {idx} out of range for order {n}")
            bits |= 1 << idx
        return cls(n, bits)

    def has_index(self, idx: int) -> bool:
        return bool((self.edges >> idx) & 1)

    def edge_count(self) -> int:
        return self.edges.bit_count()

    def edge_indices(self) -> list[int]:
        return bit_indices(self.edges)

    def complement_indices(self) -> list[int]:
        return bit_indices(((1 << edge_space_size(self.n)) - 1) ^ self.edges)

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(str(idx) for idx in self.edge_indices())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TimeGraph":
        n, rows = _text_rows(text, "time-graph")
        return cls.from_indices(n, map(int, rows))


class Graph(_Value):
    """Simple undirected graph on vertices 1..n, no self-loops."""

    __slots__ = _fields = ("n", "pairs")

    def __init__(self, n: int, pairs: frozenset[tuple[int, int]] = frozenset()) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        for a, b in pairs:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (1 <= a < b <= n):
                raise ValueError(f"edge ({a}, {b}) out of range or unordered")
        _set(self, "n", n)
        _set(self, "pairs", pairs)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        pairs = set()
        for a, b in edges:
            if a == b:
                raise ValueError("self-loops are not allowed")
            pairs.add((min(a, b), max(a, b)))
        return cls(n, frozenset(pairs))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, itertools.combinations(range(1, n + 1), 2))

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        n, rows = _text_rows(text, "graph")
        pairs = []
        for ln in rows:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"expected a vertex pair, got {ln!r}")
            a, b = int(parts[0]), int(parts[1])
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"vertex out of range in {ln!r}")
            pairs.append((a, b))
        return cls.from_edges(n, pairs)

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines.extend(f"{a} {b}" for a, b in sorted(self.pairs))
        return "\n".join(lines) + "\n"


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def check_permutation(p: Permutation) -> None:
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{len(p)}")


def all_permutations(n: int) -> list[Permutation]:
    """All permutations of 1..n in lexicographic order of their image arrays."""
    return list(itertools.permutations(range(1, n + 1)))


def incident_edges(p: Permutation) -> tuple[Edge, ...]:
    """The n-1 edges incident on a permutation, one per layer."""
    return tuple(Edge(p[t], p[t + 1], t + 1) for t in range(len(p) - 1))


def incident_mask(p: Permutation) -> int:
    n = len(p)
    bits = 0
    for t in range(n - 1):
        bits |= 1 << ((t * n + (p[t] - 1)) * n + (p[t + 1] - 1))
    return bits


@functools.cache
def permutation_table(n: int) -> tuple[tuple[Permutation, int, tuple[int, ...]], ...]:
    """(p, incident_mask(p), p's incident edge indices) for every permutation of 1..n.

    Lexicographic, as all_permutations; built once per order and kept, so
    callers check the n! cap first.
    """
    table = []
    for p in itertools.permutations(range(1, n + 1)):
        edges = tuple((t * n + (p[t] - 1)) * n + (p[t + 1] - 1) for t in range(n - 1))
        table.append((p, sum(1 << e for e in edges), edges))
    return tuple(table)


@functools.cache
def permutations_through(n: int) -> tuple[tuple[int, ...], ...]:
    """Per edge index, the permutation_table indices of the permutations
    through it, ascending; kept per order like permutation_table."""
    through: list[list[int]] = [[] for _ in range(edge_space_size(n))]
    for k, (_, _, edges) in enumerate(permutation_table(n)):
        for e in edges:
            through[e].append(k)
    return tuple(map(tuple, through))


def is_incident(e: Edge, p: Permutation) -> bool:
    """Whether edge (i, j, t) is incident on p, i.e. p(t) = i and p(t+1) = j."""
    check_edge(e, len(p))
    return p[e.t - 1] == e.i and p[e.t] == e.j


def check_perm_cap(n: int, cap: int | None = None) -> None:
    """Refuse n! enumeration beyond the cap (ORACLE_PERM_CAP by default)."""
    limit = ORACLE_PERM_CAP if cap is None else cap
    if n > limit:
        raise OracleScaleError(f"oracle scale exceeded: n={n} > cap={limit}")


def _incident(G: TimeGraph, cap: int | None = None) -> Iterator[Permutation]:
    """Permutations incident on G, lexicographically, under the n! cap."""
    check_perm_cap(G.n, cap)
    edges = G.edges
    for p, m, _ in permutation_table(G.n):
        if m & edges == m:
            yield p


def incident_permutations(G: TimeGraph) -> list[Permutation]:
    """All permutations incident on G, in lexicographic order."""
    return list(_incident(G))


def is_hamiltonian_oracle(G: TimeGraph, cap: int | None = None) -> bool:
    """Whether some permutation is incident on G (exhaustive, stops at the first)."""
    return next(_incident(G, cap), None) is not None


def reduce_hamp(g: Graph) -> TimeGraph:
    """Time-graph carrying g's adjacency at every layer.

    The output is hamiltonian exactly when g has a Hamiltonian path: a path
    visits (v_1, ..., v_n) iff the permutation it spells is incident on the
    reduction.
    """
    n = g.n
    layer = 0
    for a, b in g.pairs:
        layer |= 1 << (a - 1) * n + b - 1 | 1 << (b - 1) * n + a - 1
    # the layer-1 mask is below 2^(n^2), so its product with the repunit
    # of the n - 1 layer blocks repeats it at every layer without a carry
    return TimeGraph(n, layer * (((1 << (n - 1) * n * n) - 1) // ((1 << n * n) - 1)))


def _extend_path(adj: list[int], full: int, v: int, visited: int) -> bool:
    """Whether the path ending at v through the vertex mask visited extends
    to every vertex of full.  Vertices are numbered from 0, vertex i at
    bit i, and adj[v] is the mask of v's neighbours, tried lowest first.

    A module-level function, not a closure: a recursive closure refers to
    itself through its own cell, so every search would leave a reference
    cycle for the cyclic garbage collector.
    """
    if visited == full:
        return True
    free = adj[v] & ~visited
    while free:
        w = free & -free
        if _extend_path(adj, full, w.bit_length() - 1, visited | w):
            return True
        free ^= w
    return False


def hamiltonian_path_oracle(g: Graph, cap: int | None = None) -> bool:
    """Backtracking search for a Hamiltonian path over adjacency bitmasks."""
    limit = ORACLE_PATH_CAP if cap is None else cap
    if g.n > limit:
        raise OracleScaleError(f"oracle scale exceeded: n={g.n} > cap={limit}")
    n = g.n
    # vertex v at bit v - 1
    adj = [0] * n
    for a, b in g.pairs:
        adj[a - 1] |= 1 << b - 1
        adj[b - 1] |= 1 << a - 1
    full = (1 << n) - 1
    return any(_extend_path(adj, full, v, 1 << v) for v in range(n))
