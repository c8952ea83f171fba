"""Linear-feasibility decision procedure for Hamiltonian paths.

Reduce the graph to a time-graph, take a basis {g_i} of the order-n pair
span, and ask whether some coefficient vector has total parity 1 while the
combination vanishes on every row indexed by a missing edge.  A graph with
a Hamiltonian path always yields a solution (the indicator of the path's
permutation), so the procedure never answers "no" on a yes-instance.  A
"yes" on a no-instance is possible only if the open conjectures fail, and
is surfaced as a counterexample candidate rather than an error.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from .canonical import InternalInconsistencyError
from .gf2 import _set, _Value, bit_indices, column_rank_profile, solve_system
from .liftbasis import build_basis
from .timegraph import (
    Graph,
    Permutation,
    TimeGraph,
    check_permutation,
    edge_space_size,
    incident_mask,
    reduce_hamp,
)


class LinearSystem(_Value):
    """The feasibility system of one time-graph over one basis, contracted.

    Every pair row with one or two basis permutations says alpha_a = 0 or
    alpha_a = alpha_b; those rows are folded into components of variables
    (the structured-elimination step of sparse GF(2) solvers), each standing
    for its largest member, its root, or for the constant zero.  The rows
    left are the wider pair rows rewritten onto roots, then the value row,
    so a solution over the roots lifts to one of the full system: with the
    contracted variables as pivots, the full system has the same solutions,
    the same particular solution and the same nullspace.
    """

    _fields = ("n", "nvars", "rows", "raw_rows", "contracted")
    __slots__ = (*_fields, "_members", "_tables")

    def __init__(
        self,
        n: int,
        nvars: int,
        # coefficient masks over the basis: the wide pair rows with rhs 0
        # (each on roots only; zero rows and duplicates dropped), then the
        # value row, rhs 1, with a one on every root of an odd-sized component
        rows: tuple[int, ...],
        raw_rows: int,  # constraints of the full system before pruning
        contracted: int,  # mask of the variables that are not roots
        # root -> mask of its component, for the roots with other members
        _members: dict[int, int],
        # the basis tables the rows were read from, for the witness check
        _tables: _BasisTables,
    ) -> None:
        _set(self, "n", n)
        _set(self, "nvars", nvars)
        _set(self, "rows", rows)
        _set(self, "raw_rows", raw_rows)
        _set(self, "contracted", contracted)
        _set(self, "_members", _members)
        _set(self, "_tables", _tables)

    def lift(self, x: int) -> int:
        """A solution over the roots as one over every variable: each set
        root sets its whole component."""
        members = self._members
        for r in bit_indices(x):
            x |= members.get(r, 0)
        return x


class Decision(_Value):
    __slots__ = _fields = ("answer", "witness", "nvars", "rows", "raw_rows", "rank")

    def __init__(
        self,
        answer: bool,
        witness: Optional[tuple[int, ...]],  # basis indices with coefficient 1
        nvars: int,
        rows: int,  # rows of the contracted system, as LinearSystem.rows
        raw_rows: int,
        rank: int,  # coefficient rank of the full system
    ) -> None:
        _set(self, "answer", answer)
        _set(self, "witness", witness)
        _set(self, "nvars", nvars)
        _set(self, "rows", rows)
        _set(self, "raw_rows", raw_rows)
        _set(self, "rank", rank)


def incidence_columns(n: int, basis_perms: Sequence[Permutation]) -> list[int]:
    """Per edge index, the bitmask of basis permutations incident on it."""
    cols = [0] * edge_space_size(n)
    for i, p in enumerate(basis_perms):
        if len(p) != n:
            raise ValueError(f"basis permutation {p} is not of order {n}")
        check_permutation(p)
        bit = 1 << i
        for e in bit_indices(incident_mask(p)):
            cols[e] |= bit
    return cols


# What every decision over one basis shares, built once per basis:
# - cols, the incidence_columns;
# - masks, per basis permutation, its incident edge mask;
# - live, the mask of the edges with a nonzero column (no self-loop is
#   ever live), the only edges whose rows or witness checks can be nonzero;
# - blocks, per edge, its kept pair rows as _block gives them, filled on
#   the edge's first use, so a decision pays only for its missing edges.
_Block = tuple[
    tuple[tuple[int, int], ...],
    tuple[tuple[int, int, int], ...],
    tuple[tuple[int, tuple[int, ...]], ...],
]
_BasisTables = tuple[tuple[int, ...], tuple[int, ...], int, list[Optional[_Block]]]


@lru_cache(maxsize=4)
def _basis_tables(n: int, basis_perms: tuple[Permutation, ...]) -> _BasisTables:
    cols = incidence_columns(n, basis_perms)
    masks = tuple(incident_mask(p) for p in basis_perms)
    live = 0
    for m in masks:
        live |= m
    return tuple(cols), masks, live, [None] * len(cols)


def _block(tables: _BasisTables, e: int) -> _Block:
    """The kept rows cols[e] & cols[f] of edge e's block, as (units, links, wide).

    Kept are the rows for the f whose row extends the span of e's rows for
    lower f (the block's rank profile), ascending in f and split by size: a
    unit (f, a) is the row of permutation a alone, a link (f, a, b) with
    a < b the row of a and b, and a wide row (f, (a, b, c, ...)) has three
    or more permutations, ascending.  Built on e's first use and kept in
    the tables.
    """
    cols, masks, _, blocks = tables
    block = blocks[e]
    if block is None:
        ps = bit_indices(cols[e])
        # row f of the block lists the permutations through e and f
        shared: dict[int, list[int]] = {}
        for i in ps:
            for f in bit_indices(masks[i]):
                shared.setdefault(f, []).append(i)
        u, k, w = [], [], []
        # in e's block the column of a basis permutation through e is its
        # incident mask and every other column is zero, so the block's rank
        # profile needs only those few masks
        for f in column_rank_profile([masks[i] for i in ps], len(cols)):
            vs = shared[f]
            if len(vs) == 1:
                u.append((f, *vs))
            elif len(vs) == 2:
                k.append((f, *vs))
            else:
                w.append((f, tuple(vs)))
        blocks[e] = block = (tuple(u), tuple(k), tuple(w))
    return block


def _tables(n: int, basis_perms: Sequence[Permutation]) -> _BasisTables:
    # keyed on the permutations themselves, so a basis given as lists works
    return _basis_tables(n, tuple(map(tuple, basis_perms)))


def assemble_system(G: TimeGraph, basis_perms: Sequence[Permutation]) -> LinearSystem:
    """One parity-1 value row plus, for every missing edge e and every edge
    e', the constraint that the combination vanishes at (e, e'), contracted.

    The pair constraint coefficient for basis element i is 1 exactly when
    both e and e' are incident on permutation i, so each row is the AND of
    two incidence columns.  Only e's partners are visited: a row outside
    them is the sum of e's rows for lower e', so it never changes the
    solutions or the rank.  A missing partner e' < e is skipped too, its
    row was made at (e', e).  A union-find over the unit and link rows
    joins their permutations into components, a constant-zero node nvars
    absorbing the units, and each wider row that meets a contracted
    variable is rewritten onto the roots, so no row with one or two
    permutations is ever built.  Zero and duplicate rows are dropped; the
    value row comes last.
    """
    tables = _tables(G.n, basis_perms)
    cols, masks, live, blocks = tables
    edges = G.edges
    nvars = len(masks)
    # a missing edge outside live has no partners
    missing = bit_indices(live & ~edges)
    rows_of = [blocks[e] or _block(tables, e) for e in missing]
    # union-find with path halving; parent[v] >= v throughout, so a root is
    # its component's largest member and the zero node roots its component
    parent = list(range(nvars + 1))
    for e, (units, links, _) in zip(missing, rows_of):
        for f, a in units:
            if f >= e or edges >> f & 1:
                while (p := parent[a]) != a:
                    parent[a] = a = parent[p]
                parent[a] = nvars
        for f, a, b in links:
            if f >= e or edges >> f & 1:
                while (p := parent[a]) != a:
                    parent[a] = a = parent[p]
                while (p := parent[b]) != b:
                    parent[b] = b = parent[p]
                if a < b:
                    parent[a] = b
                elif b < a:
                    parent[b] = a
    contracted = 0
    # the all-ones value row moved onto roots: each member flips its root
    value = (1 << nvars) - 1
    members: dict[int, int] = {}
    # per contracted v, the xor that moves its bit onto its root's, or
    # clears it in the zero component
    moves: dict[int, int] = {}
    # highest first, so each parent is flattened to its root before v
    for v in range(nvars - 1, -1, -1):
        r = parent[parent[v]]
        if r != v:
            parent[v] = r
            bit = 1 << v
            contracted |= bit
            if r < nvars:
                members[r] = members.get(r, 1 << r) | bit
                bit |= 1 << r
            moves[v] = bit
            value ^= bit
    kept = {}
    for e, (_, _, wide) in zip(missing, rows_of):
        ce = cols[e]
        for f, vs in wide:
            if f >= e or edges >> f & 1:
                row = ce & cols[f]
                if row & contracted:
                    for v in vs:
                        row ^= moves.get(v, 0)
                kept[row] = None
    kept.pop(0, None)
    raw = 1 + (len(cols) - edges.bit_count()) * len(cols)
    return LinearSystem(G.n, nvars, (*kept, value), raw, contracted, members, tables)


def decide_time_graph(
    G: TimeGraph, basis_perms: Sequence[Permutation]
) -> Decision:
    """Decide feasibility of the assembled system for a time-graph.

    The contracted system is solved and its solution lifted to every
    variable.  A "yes" is checked against G itself, not against the rows:
    the witness must have odd size, and for every missing edge e the
    incident masks of the witness permutations through e must xor to zero,
    which is every (e, e') constraint at once.
    """
    # through the public assemble_system, which tracers hook
    system = assemble_system(G, basis_perms)
    rows = system.rows
    res = solve_system(rows, (0,) * (len(rows) - 1) + (1,), system.nvars)
    # the contracted variables are pivots of the full system beside the
    # contracted system's own
    rank = res.rank + system.contracted.bit_count()
    if res.x is None:
        return Decision(False, None, system.nvars, len(rows), system.raw_rows, rank)
    x = system.lift(res.x)
    if x.bit_count() & 1 != 1:
        raise InternalInconsistencyError("witness has even parity")
    # a missing edge outside live meets no basis permutation
    cols, masks, live, _ = system._tables
    for e in bit_indices(live & ~G.edges):
        acc = 0
        for i in bit_indices(x & cols[e]):
            acc ^= masks[i]
        if acc:
            raise InternalInconsistencyError(
                f"witness fails the constraints of missing edge {e}"
            )
    return Decision(
        True,
        tuple(bit_indices(x)),
        system.nvars,
        len(rows),
        system.raw_rows,
        rank,
    )


def decide_hamiltonian_path(
    g: Graph,
    cache_dir: Optional[str] = None,
    cap: Optional[int] = None,
) -> Decision:
    """Full pipeline: reduce, build the pair basis, assemble, solve."""
    basis_perms = build_basis(g.n, cache_dir=cache_dir, cap=cap)
    return decide_time_graph(reduce_hamp(g), basis_perms)
