"""Layered canonical bases of the indicator spans, and the closed-cycle decomposition.

Fix a time-graph G and an enumeration (e_1, ..., e_k) of its complement.
Let G_0 = G and G_l = G_{l-1} + e_l.  A canonical basis of the edge span is
built layer by layer: layer 0 is a greedy independent subset of the
indicators of permutations incident on G, and layer l extends the span with
indicators of permutations that become incident only once e_l is added (all
of which use e_l).  Layers 0..l then span exactly the subspace generated by
the permutations incident on G_l.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .gf2 import Gf2Basis
from .permvec import EdgeVector, PairVector, diagonal, edge_indicator, pair_indicator
from .timegraph import (
    ORACLE_PERM_CAP,
    OracleScaleError,
    Permutation,
    TimeGraph,
    all_permutations,
    edge_space_size,
    incident_mask,
)


class InternalInconsistencyError(RuntimeError):
    """A proven identity failed; this signals an implementation bug."""


@dataclass(frozen=True)
class BasisElement:
    layer: int
    slot: int
    perm: Permutation
    f: EdgeVector
    F: PairVector  # pair indicator of the same permutation


@dataclass(frozen=True)
class CanonicalBasis:
    G: TimeGraph
    order: tuple[int, ...]  # enumeration of the complement, as edge indices
    layers: tuple[tuple[BasisElement, ...], ...]  # index 0..k
    perm_seed: Optional[int]
    coord_basis: Gf2Basis = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.order)

    @property
    def d(self) -> tuple[int, ...]:
        """Per-layer element counts; may be zero."""
        return tuple(len(layer) for layer in self.layers)

    @property
    def elements(self) -> tuple[BasisElement, ...]:
        return tuple(el for layer in self.layers for el in layer)

    @property
    def rank(self) -> int:
        return self.coord_basis.rank

    def to_dict(self) -> dict:
        return {
            "n": self.G.n,
            "graph_edges": self.G.edge_indices(),
            "order": list(self.order),
            "perm_seed": self.perm_seed,
            "layers": [[list(el.perm) for el in layer] for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CanonicalBasis":
        n = data["n"]
        G = TimeGraph.from_indices(n, data["graph_edges"])
        size = edge_space_size(n)
        basis = Gf2Basis(size)
        layers = []
        for li, perms in enumerate(data["layers"]):
            elems = []
            for perm in perms:
                p = tuple(perm)
                f = edge_indicator(p)
                res = basis.insert(f)
                if not res.extended:
                    raise ValueError("serialized basis is not independent")
                elems.append(BasisElement(li, len(elems), p, f, pair_indicator(p)))
            layers.append(tuple(elems))
        return cls(G, tuple(data["order"]), tuple(layers), data["perm_seed"], basis)


def _perm_sequence(n: int, seed: Optional[int]) -> list[Permutation]:
    perms = all_permutations(n)
    if seed is not None:
        random.Random(seed).shuffle(perms)
    return perms


def _checked_order(
    G: TimeGraph, order: Optional[Sequence[int]]
) -> tuple[int, ...]:
    complement = G.complement_indices()
    if order is None:
        return tuple(complement)
    order = tuple(order)
    if sorted(order) != complement:
        raise ValueError("order is not an enumeration of the complement")
    return order


def _check_cap(n: int, cap: Optional[int]) -> None:
    limit = ORACLE_PERM_CAP if cap is None else cap
    if n > limit:
        raise OracleScaleError(f"oracle scale exceeded: n={n} > cap={limit}")


def _layer_candidates(
    G: TimeGraph, order: tuple[int, ...], perm_seed: Optional[int]
) -> Iterator[tuple[int, Permutation, int]]:
    """(layer, perm, incident mask) for every candidate, layer by layer.

    Layer 0 offers the permutations incident on G; layer l offers those
    incident on G_l that use e_l.
    """
    candidates = [(p, incident_mask(p)) for p in _perm_sequence(G.n, perm_seed)]
    cur = G.edges
    for li in range(len(order) + 1):
        new_bit = 0
        if li > 0:
            new_bit = 1 << order[li - 1]
            cur |= new_bit
        for p, m in candidates:
            if m & cur == m and (li == 0 or m & new_bit):
                yield li, p, m


def build_canonical_basis(
    G: TimeGraph,
    order: Optional[Sequence[int]] = None,
    perm_seed: Optional[int] = None,
    cap: Optional[int] = None,
) -> CanonicalBasis:
    """Canonical basis of the edge span with respect to G and an enumeration.

    The default enumeration is ascending edge index; the default candidate
    order within each layer is lexicographic, or seeded-shuffled when
    perm_seed is given (the construction is deterministic either way).
    """
    _check_cap(G.n, cap)
    order = _checked_order(G, order)
    basis = Gf2Basis(edge_space_size(G.n))
    layers: list[list[BasisElement]] = [[] for _ in range(len(order) + 1)]
    for li, p, m in _layer_candidates(G, order, perm_seed):
        if basis.insert_raw(m).extended:
            f = EdgeVector(G.n, m)
            layers[li].append(BasisElement(li, len(layers[li]), p, f, pair_indicator(p)))
    return CanonicalBasis(G, order, tuple(map(tuple, layers)), perm_seed, basis)


@dataclass(frozen=True)
class PairBasisElement:
    layer: int
    slot: int
    perm: Permutation
    g: PairVector


@dataclass(frozen=True)
class CanonicalPairBasis:
    G: TimeGraph
    order: tuple[int, ...]
    layers: tuple[tuple[PairBasisElement, ...], ...]
    perm_seed: Optional[int]
    coord_basis: Gf2Basis = field(compare=False, repr=False)

    @property
    def c(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @property
    def rank(self) -> int:
        return self.coord_basis.rank


def build_canonical_pair_basis(
    G: TimeGraph,
    order: Optional[Sequence[int]] = None,
    perm_seed: Optional[int] = None,
    cap: Optional[int] = None,
) -> CanonicalPairBasis:
    """Same layered construction applied to the pair indicators."""
    _check_cap(G.n, cap)
    order = _checked_order(G, order)
    basis = Gf2Basis(edge_space_size(G.n) ** 2)
    layers: list[list[PairBasisElement]] = [[] for _ in range(len(order) + 1)]
    for li, p, _ in _layer_candidates(G, order, perm_seed):
        g = pair_indicator(p)
        if basis.insert(g).extended:
            layers[li].append(PairBasisElement(li, len(layers[li]), p, g))
    return CanonicalPairBasis(G, order, tuple(map(tuple, layers)), perm_seed, basis)


@dataclass(frozen=True)
class Decomposition:
    """g = gc + sum of selected basis pair indicators, gc a closed cycle.

    alpha lists the (layer, slot) positions with coefficient 1; layer_sums[i]
    is the xor of the selected layer-i edge vectors.
    """

    alpha: tuple[tuple[int, int], ...]
    gc: PairVector
    layer_sums: tuple[EdgeVector, ...]


def decompose(g: PairVector, cb: CanonicalBasis) -> Decomposition:
    """Split g into a closed cycle plus canonical basis elements.

    The coefficients are those of g's diagonal image over the edge basis;
    they are unique, and the reconstruction is verified bit-exactly.
    """
    if g.n != cb.G.n:
        raise ValueError(f"order mismatch: {g.n} vs {cb.G.n}")
    pg = diagonal(g)
    combo = cb.coord_basis.coords(pg)
    if combo is None:
        raise InternalInconsistencyError(
            "diagonal image escapes the canonical span"
        )
    elements = cb.elements
    raw_gc = g.bits
    sums = [0] * len(cb.layers)
    alpha = []
    for kidx in combo:
        el = elements[kidx]
        alpha.append((el.layer, el.slot))
        raw_gc ^= el.F.bits
        sums[el.layer] ^= el.f.bits
    gc = PairVector(g.n, raw_gc)
    if not diagonal(gc).is_zero():
        raise InternalInconsistencyError("residual is not a closed cycle")
    layer_sums = tuple(EdgeVector(g.n, s) for s in sums)
    return Decomposition(tuple(alpha), gc, layer_sums)


def _tail_parities(
    dec: Decomposition, cb: CanonicalBasis, strict: bool = False
) -> list[int]:
    """For m = 1..k, the value at e_m of the sum of the layer sums from m on.

    With strict the sum starts beyond m, so its last entry is always 0.
    """
    k = cb.k
    tails = [0] * (k + 2)  # tails[i]: xor of the layer sums i..k
    for i in range(k, 0, -1):
        tails[i] = tails[i + 1] ^ dec.layer_sums[i].bits
    start = 1 if strict else 0
    return [(tails[m + start] >> cb.order[m - 1]) & 1 for m in range(1, k + 1)]


def tail_sum_check(dec: Decomposition, cb: CanonicalBasis) -> bool:
    """Proven identity: for each m, the layer sums from m on cancel at e_m.

    Holds for every decomposition of a vector supported in G; a False here
    means the implementation is broken, and callers treat it as fatal.
    """
    return not any(_tail_parities(dec, cb))
