"""Layered canonical bases of the edge span, and the closed-cycle decomposition.

Fix a time-graph G and an enumeration (e_1, ..., e_k) of its complement.
Let G_0 = G and G_l = G_{l-1} + e_l.  A canonical basis of the edge span is
built layer by layer: layer 0 is a greedy independent subset of the
indicators of permutations incident on G, and layer l extends the span with
indicators of permutations that become incident only once e_l is added (all
of which use e_l).  Layers 0..l then span exactly the subspace generated by
the permutations incident on G_l.

A permutation belongs to layer l exactly when e_l is the last of its
missing edges in the enumeration (layer 0 when none is missing), so one
pass over the enumeration finds every permutation's layer.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .gf2 import Gf2Basis, _Value, column_rank_profile
from .permvec import EdgeVector, PairVector, diagonal, pair_sum
from .timegraph import (
    TimeGraph,
    check_perm_cap,
    edge_space_size,
    incident_mask,
    permutation_table,
    permutations_through,
)


class InternalInconsistencyError(RuntimeError):
    """A proven identity failed; this signals an implementation bug."""


class BasisElement(_Value):
    """The permutation perm, kept as element slot of layer layer."""

    __slots__ = _fields = ("layer", "slot", "perm")


class CanonicalBasis(_Value):
    """Layered basis of the edge span.

    order is the enumeration of the complement, as edge indices, and
    layers holds layers 0..k of the elements.
    """

    _fields = ("G", "order", "layers", "perm_seed")
    __slots__ = (*_fields, "coord_basis")

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


def build_canonical_basis(
    G: TimeGraph,
    order: Optional[Sequence[int]] = None,
    perm_seed: Optional[int] = None,
) -> CanonicalBasis:
    """Canonical basis of the edge span with respect to G and an enumeration.

    The default enumeration is ascending edge index; the default candidate
    order within each layer is lexicographic, or seeded-shuffled when
    perm_seed is given (the construction is deterministic either way).

    A candidate is a permutation_table index; its layer is the enumeration
    position of its last missing edge (0 if none), the last position the
    ascending pass below writes onto it.  As random.shuffle's swaps depend
    only on the length, shuffling the indices shuffles the table.
    """
    check_perm_cap(G.n)
    order = _checked_order(G, order)
    table = permutation_table(G.n)
    through = permutations_through(G.n)
    layer_of = [0] * len(table)
    for pos, e in enumerate(order, 1):
        for k in through[e]:
            layer_of[k] = pos
    candidates = list(range(len(table)))
    if perm_seed is not None:
        random.Random(perm_seed).shuffle(candidates)
    candidates.sort(key=layer_of.__getitem__)
    # the greedy selection is the rank profile of the candidates' 0/1
    # matrix, which has far fewer columns than rows; bit i of column e is
    # set when candidate i goes through e
    bit = [0] * len(table)
    for i, k in enumerate(candidates):
        bit[k] = 1 << i
    kept = column_rank_profile([sum(map(bit.__getitem__, ks)) for ks in through], len(table))
    basis = Gf2Basis(edge_space_size(G.n))
    for i in kept:
        basis.insert_raw(table[candidates[i]][1])
    if basis.rank != len(kept):
        raise InternalInconsistencyError("a rank-profile row is dependent")
    layers: list[list[BasisElement]] = [[] for _ in range(len(order) + 1)]
    for i in kept:
        k = candidates[i]
        li = layer_of[k]
        layers[li].append(BasisElement(li, len(layers[li]), table[k][0]))
    return CanonicalBasis(G, order, tuple(map(tuple, layers)), perm_seed, basis)


class Decomposition(_Value):
    """g = gc + sum of selected basis pair indicators, gc a closed cycle.

    alpha lists the (layer, slot) positions with coefficient 1; layer_sums[i]
    is the xor of the selected layer-i edge vectors.
    """

    __slots__ = _fields = ("alpha", "gc", "layer_sums")


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
    masks = []
    sums = [0] * len(cb.layers)
    alpha = []
    for kidx in combo:
        el = elements[kidx]
        alpha.append((el.layer, el.slot))
        mask = incident_mask(el.perm)
        masks.append(mask)
        sums[el.layer] ^= mask
    gc = g ^ pair_sum(g.n, masks)
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
