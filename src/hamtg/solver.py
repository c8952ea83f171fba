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

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .canonical import InternalInconsistencyError
from .gf2 import bit_indices, solve_system
from .liftbasis import build_basis
from .timegraph import (
    Graph,
    Permutation,
    TimeGraph,
    edge_index,
    edge_space_size,
    incident_edges,
    reduce_hamp,
)


@dataclass(frozen=True)
class LinearSystem:
    n: int
    nvars: int
    # coefficient masks over the basis: rows[0] is the value row (all ones,
    # rhs 1), every later row a pair row with rhs 0
    rows: tuple[int, ...]
    raw_rows: int  # constraints of the full system before pruning


@dataclass(frozen=True)
class Decision:
    answer: bool
    witness: Optional[tuple[int, ...]]  # basis indices with coefficient 1
    nvars: int
    rows: int
    raw_rows: int
    rank: int


def incidence_columns(n: int, basis_perms: Sequence[Permutation]) -> list[int]:
    """Per edge index, the bitmask of basis permutations incident on it."""
    cols = [0] * edge_space_size(n)
    for i, p in enumerate(basis_perms):
        if len(p) != n:
            raise ValueError(f"basis permutation {p} is not of order {n}")
        bit = 1 << i
        for e in incident_edges(p):
            cols[edge_index(e, n)] |= bit
    return cols


@lru_cache(maxsize=4)
def _basis_columns(n: int, basis_perms: tuple[Permutation, ...]) -> tuple[int, ...]:
    # the columns depend only on the basis, which every decision of a run shares
    return tuple(incidence_columns(n, basis_perms))


def assemble_system(G: TimeGraph, basis_perms: Sequence[Permutation]) -> LinearSystem:
    """One parity-1 value row plus, for every missing edge e and every edge
    e', the constraint that the combination vanishes at (e, e').

    The pair constraint coefficient for basis element i is 1 exactly when
    both e and e' are incident on permutation i, so each row is the AND of
    two incidence columns.  All-zero rows are dropped and duplicate rows
    are emitted once, in first-seen order; both are pure optimizations.
    Pairs whose row would be dropped are never visited: e' in e's layer
    other than e itself (a permutation meets one edge per layer, so the row
    is zero), and a missing e' in a lower layer (its row was made at (e', e)).
    """
    n = G.n
    nvars = len(basis_perms)
    cols = _basis_columns(n, tuple(basis_perms))
    layer = n * n
    # per layer t: columns of the present edges below it, of all edges above it
    below = [
        [cols[i] for i in bit_indices(G.edges & ((1 << t * layer) - 1))]
        for t in range(n - 1)
    ]
    above = [cols[(t + 1) * layer :] for t in range(n - 1)]
    complement = G.complement_indices()
    # pair rows once each, in first-seen order (a dict keeps insertion order)
    pairs = dict.fromkeys(
        ce & c
        for e in complement
        if (ce := cols[e])
        for c in (*below[e // layer], ce, *above[e // layer])
    )
    pairs.pop(0, None)  # the all-zero row
    raw = 1 + len(complement) * edge_space_size(n)
    return LinearSystem(n, nvars, ((1 << nvars) - 1, *pairs), raw)


def decide_time_graph(
    G: TimeGraph, basis_perms: Sequence[Permutation]
) -> Decision:
    """Decide feasibility of the assembled system for a time-graph."""
    system = assemble_system(G, basis_perms)
    rows = system.rows
    res = solve_system(rows, (1,) + (0,) * (len(rows) - 1), system.nvars)
    x = res.x
    if x is None:
        return Decision(False, None, system.nvars, len(rows), system.raw_rows, res.rank)
    if x.bit_count() & 1 != 1 or any((x & m).bit_count() & 1 for m in rows[1:]):
        raise InternalInconsistencyError("witness fails the assembled system")
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
