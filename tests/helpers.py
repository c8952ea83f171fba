"""Shared test oracles, independent of the package's own linear algebra."""

from __future__ import annotations

import functools
import itertools
import random
from typing import Mapping

import numpy as np

from hamtg.gf2 import Gf2Basis, bit_indices, column_echelon
from hamtg.lab import supported_coefficient_space
from hamtg.permvec import EdgeVector, PairVector, pair_sum, support_mask
from hamtg.timegraph import (
    Edge,
    Graph,
    Permutation,
    TimeGraph,
    all_permutations,
    check_edge,
    edge_from_index,
    edge_index,
    edge_space_size,
    incident_mask,
)


def to_matrix(rows: list[int], ncols: int) -> np.ndarray:
    m = np.zeros((len(rows), ncols), dtype=np.uint8)
    for r, bits in enumerate(rows):
        for c in range(ncols):
            m[r, c] = (bits >> c) & 1
    return m


def rank_oracle(rows: list[int], ncols: int) -> int:
    """GF(2) rank by textbook elimination on a numpy uint8 matrix."""
    m = to_matrix(rows, ncols)
    rank = 0
    row = 0
    nrows = m.shape[0]
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        for r in range(nrows):
            if r != row and m[r, col]:
                m[r] ^= m[row]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def in_span_oracle(vec: int, rows: list[int], ncols: int) -> bool:
    """Membership via rank comparison, independent of the incremental basis."""
    return rank_oracle(rows + [vec], ncols) == rank_oracle(rows, ncols)


def nullspace_reference(rows: list[int], nvars: int, skip: int = 0) -> tuple[int, ...]:
    """The nullspace vectors of the free variables outside the mask skip,
    one per variable, ascending, by back-substitution: the rows' echelon,
    keyed by each row's lowest set bit, is back-substituted highest pivot
    first, and each free variable's vector has a one at that variable and
    at each pivot whose back-substituted row meets it."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            p = (r & -r).bit_length() - 1
            if p not in pivots:
                pivots[p] = r
                break
            r ^= pivots[p]
    free_mask = ((1 << nvars) - 1) & ~skip & ~sum(1 << p for p in pivots)
    null = {f: 1 << f for f in bit_indices(free_mask)}
    done: dict[int, int] = {}
    above = 0  # the pivots already back-substituted, all higher than p
    for p in sorted(pivots, reverse=True):
        r = pivots[p]
        # a done row carries no pivot but its own, so these bits stay put
        for q in bit_indices(r & above):
            r ^= done[q]
        done[p] = r
        above |= 1 << p
        for f in bit_indices(r & free_mask):
            null[f] |= 1 << p
    return tuple(null.values())


def all_graphs(n: int):
    """Every simple graph on 1..n, one per mask of the ordered vertex pairs,
    each built by Graph.from_edges."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (pairs[k] for k in range(len(pairs)) if mask >> k & 1))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(1, n)])


def cycle_graph(n: int) -> Graph:
    edges = [(v, v + 1) for v in range(1, n)] + [(n, 1)]
    return Graph.from_edges(n, edges)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


def petersen() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph.from_edges(10, outer + spokes + inner)


def reduce_hamp_reference(g: Graph) -> TimeGraph:
    """The reduction by its definition: edges (a, b, t) and (b, a, t) of
    every graph edge {a, b} at every layer t, each placed by edge_index."""
    n = g.n
    bits = 0
    for a, b in g.pairs:
        for t in range(1, n):
            bits |= 1 << edge_index(Edge(a, b, t), n)
            bits |= 1 << edge_index(Edge(b, a, t), n)
    return TimeGraph(n, bits)


def assemble_rows_reference(G: TimeGraph, perms) -> list[int]:
    """The feasibility rows by the full loop: the value row, then the AND of
    the incidence columns of every (missing edge, edge) pair, zero rows
    dropped and duplicates kept once, in first-seen order."""
    size = edge_space_size(G.n)
    masks = [incident_mask(p) for p in perms]
    cols = [
        sum(1 << i for i, m in enumerate(masks) if (m >> e) & 1) for e in range(size)
    ]
    rows = [(1 << len(perms)) - 1]
    seen = set()
    for e in range(size):
        if G.has_index(e):
            continue
        for e2 in range(size):
            m = cols[e] & cols[e2]
            if m and m not in seen:
                seen.add(m)
                rows.append(m)
    return rows


def fold_reference(zero: int, masks) -> tuple[int, dict[int, int], dict[int, int]]:
    """solver._fold by brute force: the zero mask grown while some mask
    meets it without lying inside it, then the connected components of the
    overlap graph of the masks left, found by merging each mask with every
    component it meets; each component is keyed by its largest member, and
    the components come highest non-root member first."""
    while any(m & zero and m & ~zero for m in masks):
        for m in masks:
            if m & zero:
                zero |= m
    comps: list[int] = []
    for m in masks:
        if not m & zero:
            comps = [c for c in comps if not c & m] + [
                functools.reduce(int.__or__, (c for c in comps if c & m), m)
            ]
    comps.sort(key=lambda c: bit_indices(c)[-2], reverse=True)
    members = {c.bit_length() - 1: c for c in comps}
    root_of = {v: r for r, c in members.items() for v in bit_indices(c)[:-1]}
    return zero, root_of, members


def assemble_per_edge_reference(G: TimeGraph, perms) -> tuple:
    """assemble_system's contracted system as (rows, raw_rows, contracted,
    members), with no table of the solver: each live missing edge's block
    is built and folded on its own, in ascending edge order, as the rank
    profile of its pair rows with the components of its rows of two found
    first and those meeting its rows of one absorbed after; the equal masks
    gathered are then absorbed into the zero mask until none meets it, and
    the rest joined into components by fold_reference.
    """
    size = edge_space_size(G.n)
    masks = [incident_mask(p) for p in perms]
    cols = [sum(1 << i for i, m in enumerate(masks) if m >> e & 1) for e in range(size)]
    nvars = len(masks)
    zero = 0
    equal: list[int] = []
    widened = []
    for e in range(size):
        if G.has_index(e) or not cols[e]:
            continue
        links, wide = [], []
        pivots, _ = column_echelon([(masks[i], 0) for i in bit_indices(cols[e])], size)
        for f in sorted(pivots):
            row = cols[e] & cols[f]
            if row.bit_count() == 1:
                zero |= row
            elif row.bit_count() == 2:
                links.append(row)
            else:
                wide.append((f, tuple(bit_indices(row))))
        for m in fold_reference(0, links)[2].values():
            if m & zero:
                zero |= m
            else:
                equal.append(m)
        if wide:
            widened.append((e, wide))
    while True:
        rest = []
        for m in equal:
            if m & zero:
                zero |= m
            else:
                rest.append(m)
        if len(rest) == len(equal):
            break
        equal = rest
    _, root_of, members = fold_reference(zero, equal)
    moved = 0
    value = ((1 << nvars) - 1) ^ zero
    for r, m in members.items():
        moved |= m ^ 1 << r
        value ^= m ^ (m.bit_count() & 1) << r
    kept = {}
    for e, wide in widened:
        for f, vs in wide:
            if f < e and not G.has_index(f):
                continue
            row = cols[e] & cols[f] & ~zero
            if row & moved:
                for v in vs:
                    if v in root_of:
                        row ^= 1 << v | 1 << root_of[v]
            kept[row] = None
    kept.pop(0, None)
    raw = 1 + len(G.complement_indices()) * len(cols)
    return (*kept, value), raw, zero | moved, members


def supported_subspace(G: TimeGraph, basis_perms) -> list[PairVector]:
    """Basis of the pair-span elements supported in G: the pair sums of
    supported_coefficient_space's coefficient vectors."""
    masks = [incident_mask(p) for p in basis_perms]
    return [
        pair_sum(G.n, [masks[k] for k in bit_indices(coeffs)])
        for coeffs in supported_coefficient_space(G, basis_perms)
    ]


def canonical_layers_reference(G: TimeGraph, order, perm_seed, vector) -> list:
    """(layer, slot, perm) of a canonical basis by the per-layer rescan.

    Walks the chain G_0 = G, G_l = G_{l-1} + e_l and, for each layer l,
    rescans every candidate for those incident on G_l that use e_l (layer
    0: incident on G), inserting vector(p) greedily.
    """
    perms = all_permutations(G.n)
    if perm_seed is not None:
        random.Random(perm_seed).shuffle(perms)
    basis = Gf2Basis(vector(perms[0]).length)
    out = []
    cur = G.edges
    for li in range(len(order) + 1):
        new_bit = 0
        if li > 0:
            new_bit = 1 << order[li - 1]
            cur |= new_bit
        slot = 0
        for p in perms:
            m = incident_mask(p)
            if m & cur == m and (li == 0 or m & new_bit):
                if basis.insert(vector(p)).extended:
                    out.append((li, slot, p))
                    slot += 1
    return out


def inserted_basis_alpha(cb, pg: EdgeVector):
    """(layer, slot) of the elements of a canonical basis whose incident
    masks xor to pg, read off a Gf2Basis into which those masks are
    inserted in element order; None when pg is outside their span."""
    basis = Gf2Basis(pg.length)
    for el in cb.elements:
        basis.insert_raw(incident_mask(el.perm))
    coords = basis.coords(pg)
    if coords is None:
        return None
    elements = cb.elements
    return tuple((elements[i].layer, elements[i].slot) for i in coords)


def support(g: PairVector) -> frozenset[Edge]:
    """Edges that support g, i.e. whose row carries some 1."""
    return frozenset(
        edge_from_index(e, g.n) for e in bit_indices(support_mask(g))
    )


def is_symmetric(g: PairVector) -> bool:
    """Whether g(e, e') = g(e', e) for every pair of edges."""
    size = edge_space_size(g.n)
    gb = g.bits
    for a in range(size):
        for b in range(a + 1, size):
            if ((gb >> (a * size + b)) & 1) != ((gb >> (b * size + a)) & 1):
                return False
    return True


def upper_triangle_gather(g: PairVector, coords: Mapping[tuple[int, int], int]) -> int:
    """g's entries at the pairs of coords, bit c holding g(e, e') for the
    pair (e, e') of index c."""
    size = edge_space_size(g.n)
    return sum(
        1 << c for (e, e2), c in coords.items() if (g.bits >> (e * size + e2)) & 1
    )


def symmetric_scatter(n: int, row: int, coords: Mapping[tuple[int, int], int]) -> PairVector:
    """The symmetric pair vector whose entries at coords are row's bits and
    which is zero elsewhere."""
    size = edge_space_size(n)
    bits = 0
    for (e, e2), c in coords.items():
        if (row >> c) & 1:
            bits |= 1 << (e * size + e2) | 1 << (e2 * size + e)
    return PairVector(n, bits)


def unlift_label(anchor: int, v: int) -> int:
    """Inverse of the lift relabeling: the order-(n-1) label lifted to v."""
    return v - (v > anchor)


def unlift_perm(anchor: int, p: Permutation) -> Permutation:
    """Inverse of lift_perm on the permutations that start at the anchor."""
    if not p or p[0] != anchor:
        raise ValueError("permutation does not start at the anchor")
    return tuple(unlift_label(anchor, x) for x in p[1:])


def unlift_edge(anchor: int, e: Edge, n: int) -> Edge:
    """Inverse of lift_edge on lifted_edge_range."""
    check_edge(e, n)
    if e.t < 2 or e.i == anchor or e.j == anchor:
        raise ValueError(f"edge {tuple(e)} is outside the lifted range")
    return Edge(unlift_label(anchor, e.i), unlift_label(anchor, e.j), e.t - 1)


def lifted_edge_range(anchor: int, n: int) -> list[Edge]:
    """The image of the edge lift: layers 2+, both endpoints off the anchor."""
    return [
        Edge(i, j, t)
        for t in range(2, n)
        for i in range(1, n + 1)
        if i != anchor
        for j in range(1, n + 1)
        if j != anchor
    ]


def prefix_rank_profile(rows: list[int], length: int) -> list[int]:
    """Rows whose prefix rank exceeds the rank of the rows before them.

    Each row of a numpy uint8 matrix is reduced, in turn, by the kept rows
    before it, each at its first nonzero column; a kept row is already
    reduced by the earlier kept rows, so one pass in insertion order
    clears every pivot column, and the row extends the span exactly when
    something is left.
    """
    kept, pivots = [], []
    for i, r in enumerate(to_matrix(rows, length)):
        for c, pr in pivots:
            if r[c]:
                r ^= pr
        nonzero = np.flatnonzero(r)
        if nonzero.size:
            pivots.append((nonzero[0], r))
            kept.append(i)
    return kept
