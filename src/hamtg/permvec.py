"""Permutation indicator vectors over the edge space and the edge-pair space.

An EdgeVector lives in B^{E(n)} (length n^2(n-1)); a PairVector lives in
B^{E(n) x E(n)}, stored row-major as one integer so that a row extraction
is a contiguous slice.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .gf2 import _set, _Value, bit_indices
from .timegraph import (
    Edge,
    Permutation,
    TimeGraph,
    check_permutation,
    edge_index,
    edge_space_size,
    incident_mask,
)


class _Indicator(_Value):
    """Order n plus an int bitmask; subclasses fix its ``length`` from n.

    Xor is addition; vectors of different kinds or orders do not add.
    """

    __slots__ = _fields = ("n", "bits")

    def __init__(self, n: int, bits: int = 0) -> None:
        _set(self, "n", n)
        if bits < 0 or bits >> self.length:
            raise ValueError(
                f"{type(self).__name__} of order {n} has set bits "
                f"beyond its length {self.length}"
            )
        _set(self, "bits", bits)

    @classmethod
    def zero(cls, n: int) -> "_Indicator":
        return cls(n)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "_Indicator") -> "_Indicator":
        if type(other) is not type(self) or other.n != self.n:
            return NotImplemented
        return type(self)(self.n, self.bits ^ other.bits)


class EdgeVector(_Indicator):
    """An element of B^{E(n)}: bit edge_index(e) is the value at e."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return edge_space_size(self.n)

    def get(self, e: Edge) -> int:
        return (self.bits >> edge_index(e, self.n)) & 1


class PairVector(_Indicator):
    """An element of B^{E(n) x E(n)}, row-major.

    Bit edge_index(e) * L + edge_index(e') is the value at (e, e'), with
    L = n^2(n-1).
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return edge_space_size(self.n) ** 2

    def get(self, e: Edge, e2: Edge) -> int:
        pos = edge_index(e, self.n) * edge_space_size(self.n) + edge_index(e2, self.n)
        return (self.bits >> pos) & 1


def edge_indicator(p: Permutation) -> EdgeVector:
    """Indicator of the edges incident on p; exactly one bit per layer."""
    check_permutation(p)
    return EdgeVector(len(p), incident_mask(p))


def pair_indicator(p: Permutation) -> PairVector:
    """Indicator of ordered pairs of edges both incident on p."""
    check_permutation(p)
    return pair_sum(len(p), [incident_mask(p)])


@functools.cache
def pair_coordinates(n: int) -> Mapping[tuple[int, int], int]:
    """Dense index of each edge pair (e, e'), e <= e', that some permutation
    of 1..n meets, in ascending (e, e') order.

    A permutation meets one edge (i, j, t) with i != j per layer.  Two of
    its edges in layers t < t' are (i, j, t), (j, l, t + 1) with i, j, l
    distinct when t' = t + 1, and have four distinct labels otherwise; in
    one layer it meets only the pair (e, e).  Built from that rule, without
    enumerating the permutations, once per order; read-only, as every
    caller shares it.
    """

    def index(t: int, i: int, j: int) -> int:
        return (t * n + i) * n + j

    labels = range(n)
    pairs = []  # ascending: e, then the layer of e', then e' within it
    for t in range(n - 1):
        for i in labels:
            for j in labels:
                if i == j:
                    continue
                e = index(t, i, j)
                pairs.append((e, e))
                if t + 1 < n - 1:
                    pairs.extend((e, index(t + 1, j, l)) for l in labels if l != i and l != j)
                for t2 in range(t + 2, n - 1):
                    pairs.extend(
                        (e, index(t2, k, l))
                        for k in labels
                        for l in labels
                        if len({i, j, k, l}) == 4
                    )
    return MappingProxyType({pair: c for c, pair in enumerate(pairs)})


def _pair_row(coords: Mapping[tuple[int, int], int], p: Permutation) -> int:
    """p's pair indicator in the compact coordinates coords (pair_coordinates
    of p's order): one bit per pair of its incident edges, e <= e'."""
    n = len(p)
    edges = [(t * n + p[t] - 1) * n + p[t + 1] - 1 for t in range(n - 1)]
    return sum(1 << coords[e, e2] for a, e in enumerate(edges) for e2 in edges[a:])


def pair_sum(n: int, masks: Iterable[int]) -> PairVector:
    """Xor of the pair indicators of the permutations with these incident masks.

    Row e of one permutation's pair indicator is its incident mask when e
    is incident on it and zero otherwise, so row e of the sum is the xor of
    the masks through e; each row is shifted into place once.  A repeated
    mask cancels, and no masks give zero.
    """
    size = edge_space_size(n)
    rows: dict[int, int] = {}
    for m in masks:
        for e in bit_indices(m):
            rows[e] = rows.get(e, 0) ^ m
    raw = 0
    for e, row in rows.items():
        raw |= row << (e * size)
    return PairVector(n, raw)


def diagonal(g: PairVector) -> EdgeVector:
    """Diagonal extraction g(e, e); linear in g."""
    return EdgeVector(g.n, _diagonal_bits(g))


@functools.lru_cache(maxsize=1)
def _diagonal_bits(g: PairVector) -> int:
    """Bit (e, e) is bit e * (size + 1): every (size + 1)-th digit of g's
    size * size digit binary string, e descending.  Kept for the last g, as
    a campaign trial reads one g's diagonal once per enumeration."""
    size = edge_space_size(g.n)
    return int(format(g.bits, f"0{size * size}b")[:: size + 1], 2)


def row_at(g: PairVector, e: Edge) -> EdgeVector:
    """Row extraction e' -> g(e, e'); linear in g."""
    size = edge_space_size(g.n)
    ei = edge_index(e, g.n)
    raw = (g.bits >> (ei * size)) & ((1 << size) - 1)
    return EdgeVector(g.n, raw)


def value(f: EdgeVector) -> int:
    """Parity of the layer-1 entries; 1 on every single-permutation indicator."""
    layer1 = (1 << (f.n * f.n)) - 1
    return (f.bits & layer1).bit_count() & 1


def value_pair(g: PairVector) -> int:
    return value(diagonal(g))


def is_cycle(v: Union[EdgeVector, PairVector]) -> bool:
    """A vector with value 0."""
    if isinstance(v, PairVector):
        return value_pair(v) == 0
    return value(v) == 0


def is_closed_cycle(g: PairVector) -> bool:
    """A pair vector whose diagonal image is identically zero."""
    return diagonal(g).is_zero()


def support_mask(g: PairVector) -> int:
    """Bitmask over edge indices whose row is nonzero."""
    return _support_bits(g)


@functools.lru_cache(maxsize=1)
def _support_bits(g: PairVector) -> int:
    """Row e is the size digits from (size - 1 - e) * size on of g's
    size * size digit binary string, as in diagonal; a shift of g per row
    would copy all of g.  Kept for the last g, like the diagonal."""
    size = edge_space_size(g.n)
    digits = format(g.bits, f"0{size * size}b")
    out = 0
    for e in range(size):
        start = (size - 1 - e) * size
        if "1" in digits[start : start + size]:
            out |= 1 << e
    return out


def is_supported_in(g: PairVector, G: TimeGraph) -> bool:
    """Whether every supporting edge of g lies in G."""
    if g.n != G.n:
        raise ValueError(f"order mismatch: {g.n} vs {G.n}")
    return support_mask(g) & ~G.edges == 0
