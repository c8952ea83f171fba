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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from .canonical import InternalInconsistencyError
from .gf2 import bit_indices, column_rank_profile, solve_system
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


@dataclass(frozen=True)
class LinearSystem:
    """The feasibility system of one time-graph over one basis, pruned.

    The dropped rows are each in the span of kept rows before them, so the
    pruned system has the full one's solutions, rank and echelon.
    """

    n: int
    nvars: int
    # coefficient masks over the basis: rows[0] is the value row (all ones,
    # rhs 1), every later row a pair row with rhs 0; zero rows, duplicate
    # rows and rows dependent within their missing edge's block are dropped
    rows: tuple[int, ...]
    raw_rows: int  # constraints of the full system before pruning
    # the basis tables the rows were read from, for the witness check
    _tables: Optional[_BasisTables] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Decision:
    answer: bool
    witness: Optional[tuple[int, ...]]  # basis indices with coefficient 1
    nvars: int
    rows: int  # rows of the pruned system, as LinearSystem.rows
    raw_rows: int
    rank: int


def incidence_columns(n: int, basis_perms: Sequence[Permutation]) -> list[int]:
    """Per edge index, the bitmask of basis permutations incident on it."""
    cols = [0] * edge_space_size(n)
    for i, p in enumerate(basis_perms):
        if len(p) != n:
            raise ValueError(f"basis permutation {p} is not of order {n}")
        check_permutation(p)
        bit = 1 << i
        # edge (p[t], p[t+1], t+1) at its edge_index
        for t in range(n - 1):
            cols[(t * n + p[t] - 1) * n + p[t + 1] - 1] |= bit
    return cols


# What every decision over one basis shares, built once per basis (a plain
# tuple: a dataclass here would cost a millisecond of import time):
# - cols, the incidence_columns;
# - partners, per edge e ascending, the e' whose row cols[e] & cols[e']
#   extends the span of e's rows for lower e' (the block's rank profile);
# - masks, per basis permutation, its incident edge mask;
# - live, the mask of the edges with a nonzero column (no self-loop is
#   ever live), the only edges whose rows or witness checks can be nonzero.
_BasisTables = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...], int]


@lru_cache(maxsize=4)
def _basis_tables(n: int, basis_perms: tuple[Permutation, ...]) -> _BasisTables:
    cols = incidence_columns(n, basis_perms)
    masks = tuple(incident_mask(p) for p in basis_perms)
    live = 0
    for m in masks:
        live |= m
    # in e's block (row e' is cols[e] & cols[e']) the column of a basis
    # permutation through e is its incident mask and every other column is
    # zero, so the block's rank profile needs only those few masks
    partners = tuple(
        tuple(column_rank_profile([masks[i] for i in bit_indices(ce)], len(cols)))
        for ce in cols
    )
    return tuple(cols), partners, masks, live


def _tables(n: int, basis_perms: Sequence[Permutation]) -> _BasisTables:
    # keyed on the permutations themselves, so a basis given as lists works
    return _basis_tables(n, tuple(map(tuple, basis_perms)))


def assemble_system(G: TimeGraph, basis_perms: Sequence[Permutation]) -> LinearSystem:
    """One parity-1 value row plus, for every missing edge e and every edge
    e', the constraint that the combination vanishes at (e, e').

    The pair constraint coefficient for basis element i is 1 exactly when
    both e and e' are incident on permutation i, so each row is the AND of
    two incidence columns.  Only e's partners are visited: a row outside
    them is the sum of e's rows for lower e', which come earlier, so it
    reduces to zero with rhs 0 and never changes the echelon, the rank or
    where an inconsistency shows.  A missing partner e' < e is skipped too,
    its row was made at (e', e).  Duplicate rows are emitted once, in
    first-seen order; every kept row is nonzero.
    """
    tables = _tables(G.n, basis_perms)
    cols, partners, masks, live = tables
    edges = G.edges
    # pair rows once each, in first-seen order (a dict keeps insertion
    # order); a missing edge outside live has no partners
    pairs = dict.fromkeys(
        cols[e] & cols[f]
        for e in bit_indices(live & ~edges)
        for f in partners[e]
        if f >= e or edges >> f & 1
    )
    nvars = len(masks)
    raw = 1 + (len(cols) - edges.bit_count()) * len(cols)
    return LinearSystem(G.n, nvars, ((1 << nvars) - 1, *pairs), raw, tables)


def decide_time_graph(
    G: TimeGraph, basis_perms: Sequence[Permutation]
) -> Decision:
    """Decide feasibility of the assembled system for a time-graph.

    A "yes" is checked against G itself, not against the pruned rows: the
    witness must have odd size, and for every missing edge e the incident
    masks of the witness permutations through e must xor to zero, which is
    every (e, e') constraint at once.
    """
    # through the public assemble_system, which tracers hook
    system = assemble_system(G, basis_perms)
    rows = system.rows
    res = solve_system(rows, (1,) + (0,) * (len(rows) - 1), system.nvars)
    x = res.x
    if x is None:
        return Decision(False, None, system.nvars, len(rows), system.raw_rows, res.rank)
    if x.bit_count() & 1 != 1:
        raise InternalInconsistencyError("witness has even parity")
    # a missing edge outside live meets no basis permutation
    cols, _, masks, live = system._tables
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
        res.rank,
    )


def decide_hamiltonian_path(
    g: Graph,
    cache_dir: Optional[str] = None,
    cap: Optional[int] = None,
) -> Decision:
    """Full pipeline: reduce, build the pair basis, assemble, solve."""
    basis_perms = build_basis(g.n, cache_dir=cache_dir, cap=cap)
    return decide_time_graph(reduce_hamp(g), basis_perms)
