"""Layered time-graphs, permutation incidence, problem reductions, and brute-force oracles.

A complete time-graph of order n has an edge (i, j, t) for every pair of
vertex labels i, j in 1..n and every layer t in 1..n-1 (i = j included).
Edges are numbered in (t, i, j)-lexicographic order so the layer-1 block is
a contiguous prefix; a time-graph is the order n plus an int bitmask over
those edge indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .gf2 import bit_indices

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


@dataclass(frozen=True)
class TimeGraph:
    """A subgraph of the complete time-graph: order n plus an edge bitmask."""

    n: int
    edges: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"order must be positive, got {self.n}")
        if self.edges < 0 or self.edges >> edge_space_size(self.n):
            raise ValueError("edge bits out of range for order")

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

    def has_edge(self, e: Edge) -> bool:
        return self.has_index(edge_index(e, self.n))

    def with_index(self, idx: int) -> "TimeGraph":
        if not 0 <= idx < edge_space_size(self.n):
            raise ValueError(f"edge index {idx} out of range for order {self.n}")
        return TimeGraph(self.n, self.edges | (1 << idx))

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
        rows = [ln.strip() for ln in text.splitlines()]
        rows = [ln for ln in rows if ln and not ln.startswith("#")]
        if not rows:
            raise ValueError("empty time-graph file")
        n = int(rows[0])
        return cls.from_indices(n, (int(ln) for ln in rows[1:]))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, no self-loops."""

    n: int
    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for a, b in self.pairs:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (1 <= a < b <= self.n):
                raise ValueError(f"edge ({a}, {b}) out of range or unordered")

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
        rows = [ln.strip() for ln in text.splitlines()]
        rows = [ln for ln in rows if ln and not ln.startswith("#")]
        if not rows:
            raise ValueError("empty graph file")
        n = int(rows[0])
        pairs = []
        for ln in rows[1:]:
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

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for a, b in self.pairs:
            adj[a].add(b)
            adj[b].add(a)
        return adj


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


def is_incident(e: Edge, p: Permutation) -> bool:
    """Whether edge (i, j, t) is incident on p, i.e. p(t) = i and p(t+1) = j."""
    check_edge(e, len(p))
    return p[e.t - 1] == e.i and p[e.t] == e.j


def incident_permutations(G: TimeGraph, cap: int | None = None) -> list[Permutation]:
    """All permutations incident on G, in lexicographic order."""
    limit = ORACLE_PERM_CAP if cap is None else cap
    if G.n > limit:
        raise OracleScaleError(f"oracle scale exceeded: n={G.n} > cap={limit}")
    out = []
    for p in itertools.permutations(range(1, G.n + 1)):
        m = incident_mask(p)
        if m & G.edges == m:
            out.append(p)
    return out


def is_hamiltonian_oracle(G: TimeGraph, cap: int | None = None) -> bool:
    """Whether some permutation is incident on G (exhaustive check)."""
    limit = ORACLE_PERM_CAP if cap is None else cap
    if G.n > limit:
        raise OracleScaleError(f"oracle scale exceeded: n={G.n} > cap={limit}")
    for p in itertools.permutations(range(1, G.n + 1)):
        m = incident_mask(p)
        if m & G.edges == m:
            return True
    return False


def reduce_hamp(g: Graph) -> TimeGraph:
    """Time-graph carrying g's adjacency at every layer.

    The output is hamiltonian exactly when g has a Hamiltonian path: a path
    visits (v_1, ..., v_n) iff the permutation it spells is incident on the
    reduction.
    """
    n = g.n
    bits = 0
    for a, b in g.pairs:
        for t in range(1, n):
            bits |= 1 << edge_index(Edge(a, b, t), n)
            bits |= 1 << edge_index(Edge(b, a, t), n)
    return TimeGraph(n, bits)


def hamiltonian_path_oracle(g: Graph, cap: int | None = None) -> bool:
    """Backtracking search for a Hamiltonian path."""
    limit = ORACLE_PATH_CAP if cap is None else cap
    if g.n > limit:
        raise OracleScaleError(f"oracle scale exceeded: n={g.n} > cap={limit}")
    n = g.n
    if n == 1:
        return True
    adj = g.adjacency()

    def extend(v: int, visited: set[int]) -> bool:
        if len(visited) == n:
            return True
        for w in sorted(adj[v]):
            if w not in visited:
                visited.add(w)
                if extend(w, visited):
                    return True
                visited.remove(w)
        return False

    return any(extend(start, {start}) for start in range(1, n + 1))
