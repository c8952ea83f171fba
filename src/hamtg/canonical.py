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

The greedy selection and the coordinates over the kept permutations both
come from one elimination of the columns of the candidates' 0/1 incidence
matrix, one column per edge.  The candidate order only permutes the rows,
which leaves the column dependencies alone, so the columns of a fixed
spanning set of edges, found once per order, span the column space of
every build.  Those columns are transposed out of a per-order lane table,
one int per permutation with one byte per spanning edge: eight candidates'
lanes, shifted by their place in the block, fill eight rows of every
column at once, and column j is byte j of every block.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Optional, Sequence

from .gf2 import _set, _Value, column_echelon
from .permvec import EdgeVector, PairVector, diagonal, pair_sum
from .timegraph import (
    TimeGraph,
    check_perm_cap,
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
    layers holds layers 0..k of the elements.  The hidden _kept holds a
    (pivot, row, index, layer, slot) entry per element, highest pivot
    first: the row is a sum of spanning columns, its lowest set bit, kept
    as a power of two in pivot, is the element's candidate position, and
    its bits from n! up are the edges it sums; index is the element's
    permutation_table index.  The layers' BasisElements are built from
    _kept on each read.
    """

    _fields = ("G", "order", "layers", "perm_seed")
    __slots__ = ("G", "order", "perm_seed", "_kept")

    @property
    def layers(self) -> tuple[tuple[BasisElement, ...], ...]:
        table = permutation_table(self.G.n)
        out: list[list[BasisElement]] = [[] for _ in range(self.k + 1)]
        for _, _, k, li, slot in reversed(self._kept):
            out[li].append(BasisElement(li, slot, table[k][0]))
        return tuple(map(tuple, out))

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
        return len(self._kept)

    @property
    def _layer0_empty(self) -> bool:
        """Whether layer 0 is empty, read off the lowest pivot's layer."""
        return not self._kept or self._kept[-1][3] > 0


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


@functools.cache
def _spanning_edges(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The spanning edges of the order-n incidence matrix, whose column e
    has bit k set when permutation_table entry k goes through e: ascending,
    the edges whose columns extend the span of the columns before them, a
    basis of the column space.  And per other edge its relation: the mask
    of that edge and of the spanning edges whose columns sum to its column.

    The relations are a basis of the edge masks that every incident mask
    meets in an even number of edges.  Kept per order like
    permutation_table.
    """
    through = permutations_through(n)
    cols = ((sum(1 << k for k in ks), 1 << e) for e, ks in enumerate(through))
    _, deps = column_echelon(cols, len(permutation_table(n)))
    spanning = tuple(e for e, d in enumerate(deps) if d is None)
    return spanning, tuple(d for d in deps if d is not None)


@functools.cache
def _lanes(n: int) -> tuple[int, ...]:
    """Per permutation_table entry k, its lane: the int whose byte j has
    bit 0 set when entry k goes through spanning edge j.  Then one 0 lane,
    which pads a candidate list to a multiple of 8 (n! is not one for
    n < 4).  Kept per order like _spanning_edges."""
    byte = {e: 1 << 8 * j for j, e in enumerate(_spanning_edges(n)[0])}
    lanes = [sum(byte.get(e, 0) for e in edges) for _, _, edges in permutation_table(n)]
    return (*lanes, 0)


def _shuffle(x: list, seed: int | str) -> None:
    """Shuffle x in place exactly as random.Random(seed).shuffle(x) does,
    with the same getrandbits draws, inline (Durstenfeld, CACM 1964).  The
    draw width k is fixed over each run of i sharing (i + 1).bit_length()."""
    getrandbits = random.Random(seed).getrandbits
    hi = len(x) - 1
    while hi > 0:
        k = (hi + 1).bit_length()
        lo = (1 << (k - 1)) - 1
        for i in range(hi, lo - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        hi = lo - 1


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
    ascending pass below writes onto it.  As _shuffle's swaps depend only
    on the length, shuffling the indices shuffles the table.

    The kept candidates are the rank profile of their incidence rows, read
    off one column_echelon of the spanning edges' columns, which are
    transposed out of the lane table (_lanes) eight candidates at a time.
    The basis keeps their echelon entries, each with its slot: pivots
    ascend with layer, so the ascending walk counts slots per layer.  Its
    BasisElements are built only when its layers are read.
    """
    check_perm_cap(G.n)
    order = _checked_order(G, order)
    table = permutation_table(G.n)
    through = permutations_through(G.n)
    size = len(table)
    layer_of = [0] * size
    for pos, e in enumerate(order, 1):
        for k in through[e]:
            layer_of[k] = pos
    candidates = list(range(size))
    if perm_seed is not None:
        _shuffle(candidates, perm_seed)
    # grouped by layer in one pass, each layer in candidate order
    buckets: list[list[int]] = [[] for _ in range(len(order) + 1)]
    for k in candidates:
        buckets[layer_of[k]].append(k)
    candidates.clear()
    candidates.extend(itertools.chain.from_iterable(buckets))
    del buckets  # n! entries, not kept through the elimination
    # bit i of the column of spanning edge e is set when candidate i goes
    # through e, and its tag 1 << e records that a row combines e.  Byte j
    # of block i holds candidates 8i..8i+7 at spanning edge j, so column j
    # is byte j of every block; the 0 lane pads the last block
    spanning = _spanning_edges(G.n)[0]
    width = len(spanning)
    lane = _lanes(G.n)
    candidates.extend([size] * (-size % 8))
    blocks = b"".join(
        (
            lane[a] | lane[b] << 1 | lane[c] << 2 | lane[d] << 3
            | lane[e] << 4 | lane[f] << 5 | lane[g] << 6 | lane[h] << 7
        ).to_bytes(width, "little")
        for a, b, c, d, e, f, g, h in zip(*[iter(candidates)] * 8)
    )
    cols = [(int.from_bytes(blocks[j::width], "little"), 1 << e) for j, e in enumerate(spanning)]
    pivots, deps = column_echelon(cols, size)
    if len(pivots) != len(deps):
        raise InternalInconsistencyError("a spanning column is dependent")
    slots = [0] * (len(order) + 1)
    kept = []
    for i in sorted(pivots):
        k = candidates[i]
        li = layer_of[k]
        kept.append((1 << i, pivots[i], k, li, slots[li]))
        slots[li] += 1
    kept.reverse()
    return CanonicalBasis(G, order, perm_seed, tuple(kept))


class Decomposition(_Value):
    """g = gc + sum of selected basis pair indicators, gc a closed cycle.

    alpha lists the (layer, slot) positions with coefficient 1; layer_sums[i]
    is the xor of the selected layer-i edge vectors.  The hidden _gc holds
    gc, or, as decompose leaves it, g and the selected incident masks, from
    which gc is summed over the pair space on first read and then kept.
    """

    _fields = ("alpha", "gc", "layer_sums")
    __slots__ = ("alpha", "_gc", "layer_sums")

    @property
    def gc(self) -> PairVector:
        gc = self._gc
        if type(gc) is tuple:
            g, masks = gc
            gc = g ^ pair_sum(g.n, masks)
            _set(self, "_gc", gc)
        return gc


def decompose(g: PairVector, cb: CanonicalBasis) -> Decomposition:
    """Split g into a closed cycle plus canonical basis elements.

    The coefficients are those of g's diagonal image over the edge basis,
    read off the basis's echelon by back-substitution; they are unique.
    Each selected element's layer, slot and incident mask come from its
    kept entry, so no BasisElement is built.
    The residual gc is checked in the edge space: the diagonal of a pair
    indicator is its incident mask, so gc has a zero diagonal exactly when
    the selected masks sum to g's diagonal.  When they do not, the image
    escapes the edge span if it meets some relation of the spanning edges
    oddly, and the implementation is broken otherwise.  gc itself is summed
    on first read.
    """
    if g.n != cb.G.n:
        raise ValueError(f"order mismatch: {g.n} vs {cb.G.n}")
    pg = diagonal(g).bits
    table = permutation_table(g.n)
    # highest pivot first, a pivot's coefficient is the parity of its row's
    # edges in pg and of its higher pivots already set; y holds both
    y = pg << len(table)
    chosen = []
    for entry in cb._kept:
        if (entry[1] & y).bit_count() & 1:
            y |= entry[0]
            chosen.append(entry)
    masks = []
    sums = [0] * (cb.k + 1)
    alpha = []
    residual = pg
    for _, _, k, li, slot in reversed(chosen):
        mask = table[k][1]
        alpha.append((li, slot))
        masks.append(mask)
        sums[li] ^= mask
        residual ^= mask
    if residual:
        if any((pg & rel).bit_count() & 1 for rel in _spanning_edges(g.n)[1]):
            raise InternalInconsistencyError(
                "diagonal image escapes the canonical span"
            )
        raise InternalInconsistencyError("residual is not a closed cycle")
    empty = EdgeVector(g.n)  # most layer sums are zero; they share one
    layer_sums = tuple(EdgeVector(g.n, s) if s else empty for s in sums)
    return Decomposition(tuple(alpha), (g, tuple(masks)), layer_sums)


def _tail_parities(
    dec: Decomposition, cb: CanonicalBasis, strict: bool = False
) -> list[int]:
    """For m = 1..k, the value at e_m of the sum of the layer sums from m on.

    With strict the sum starts beyond m, so its last entry is always 0.
    Above the last nonzero layer sum every such sum, and its value, is 0.
    """
    sums = dec.layer_sums
    top = max((i for i, f in enumerate(sums) if f.bits), default=0)
    parities = [0] * cb.k
    tail = 0  # xor of the layer sums m..top
    for m in range(top, 0, -1):
        beyond = tail
        tail ^= sums[m].bits
        parities[m - 1] = ((beyond if strict else tail) >> cb.order[m - 1]) & 1
    return parities


def tail_sum_check(dec: Decomposition, cb: CanonicalBasis) -> bool:
    """Proven identity: for each m, the layer sums from m on cancel at e_m.

    Holds for every decomposition of a vector supported in G; a False here
    means the implementation is broken, and callers treat it as fatal.
    """
    return not any(_tail_parities(dec, cb))
