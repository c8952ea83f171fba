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

from typing import Optional, Sequence

from .canonical import InternalInconsistencyError
from .gf2 import _Value, bit_indices, column_echelon, solve_system
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

    rows holds coefficient masks over the basis: the wide pair rows with
    rhs 0 (each on roots only; zero rows and duplicates dropped), then the
    value row, rhs 1, with a one on every root of an odd-sized component.
    raw_rows counts the constraints of the full system before pruning, and
    contracted is the mask of the variables that are not roots.  _members
    maps each root with other members to the mask of its component, and
    _tables holds the basis tables the rows were read from, for the
    witness check and the kernel's images.
    """

    _fields = ("n", "nvars", "rows", "raw_rows", "contracted")
    __slots__ = (*_fields, "_members", "_tables")

    def lift(self, x: int) -> int:
        """A solution over the roots as one over every variable: each set
        root sets its whole component."""
        members = self._members
        for r in bit_indices(x):
            x |= members.get(r, 0)
        return x

    def kernel(self) -> list[tuple[int, int]]:
        """The nullspace of the wide rows over the roots, one vector per
        free root, ascending, each with its diagonal image (the xor of the
        incident masks of its lift), read off the column_echelon deps of
        the transposed rows: root v is tagged with bit v and, above bit
        nvars, the xor of its component's incident masks."""
        wide, nvars, masks = self.rows[:-1], self.nvars, self._tables[1]
        cols: dict[int, int] = {}
        for i, row in enumerate(wide):
            for v in bit_indices(row):
                cols[v] = cols.get(v, 0) | 1 << i
        image = list(masks)
        for r, m in self._members.items():
            for v in bit_indices(m ^ 1 << r):
                image[r] ^= masks[v]
        low = (1 << nvars) - 1
        roots = bit_indices(low & ~self.contracted)
        tagged = ((cols.get(v, 0), 1 << v | image[v] << nvars) for v in roots)
        _, deps = column_echelon(tagged, len(wide))
        return [(d & low, d >> nvars) for d in deps if d is not None]


class Decision(_Value):
    """The answer for one time-graph over one basis.

    witness lists the basis indices with coefficient 1 (None for a no),
    rows counts the rows of the contracted system, as LinearSystem.rows,
    and rank is the coefficient rank of the full system.
    """

    __slots__ = _fields = ("answer", "witness", "nvars", "rows", "raw_rows", "rank")


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


# What every decision over one basis shares, built once per basis and kept
# by _tables for the last basis seen:
# - cols, the incidence_columns;
# - masks, per basis permutation, its incident edge mask;
# - live, the mask of the edges with a nonzero column (no self-loop is
#   ever live), the only edges whose rows or witness checks can be nonzero;
# - chunks, per byte of the edge space, a dict from a byte of live edges
#   to the fold of their blocks of pair rows as _chunk gives it, filled on
#   first use, so a decision pays only for its missing edges (the method of
#   four Russians: Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS 2010).
_Wide = tuple[tuple[int, tuple[int, ...]], ...]
_Chunk = tuple[int, tuple[int, ...], tuple[tuple[int, _Wide], ...]]
_BasisTables = tuple[tuple[int, ...], tuple[int, ...], int, list[dict[int, _Chunk]]]


def _basis_tables(n: int, basis_perms: tuple[Permutation, ...]) -> _BasisTables:
    cols = incidence_columns(n, basis_perms)
    masks = tuple(incident_mask(p) for p in basis_perms)
    live = 0
    for m in masks:
        live |= m
    return tuple(cols), masks, live, [{} for _ in range(-(-len(cols) // 8))]


def _fold(zero: int, masks: list[int]) -> tuple[int, dict[int, int], dict[int, int]]:
    """Contract the rows alpha_a = 0 for the bits a of zero and, per mask
    of two or more variables, alpha_a = alpha_b for any two of its bits
    (the structured-elimination step of sparse GF(2) solvers: LaMacchia and
    Odlyzko, CRYPTO '90), as (zero, root_of, members).

    A mask that meets the zero mask is zero throughout, and absorbing it
    may make another mask meet the zero mask, so the returned zero is the
    least superset of the given one that absorbs every mask meeting it.
    The masks left are joined into components, each standing for its
    largest member, its root: root_of maps every member but the root to
    it, and members maps each root to the mask of its component, highest
    non-root member first.  A union-find keyed by member, with path
    halving; parent[v] > v throughout.
    """
    while True:
        rest = []
        for m in masks:
            if m & zero:
                zero |= m
            else:
                rest.append(m)
        if len(rest) == len(masks):
            break
        masks = rest
    parent: dict[int, int] = {}
    for m in masks:
        roots = set()
        for v in bit_indices(m):
            while (p := parent.get(v, v)) != v:
                parent[v] = v = parent.get(p, p)
            roots.add(v)
        r = max(roots)
        for v in roots:
            if v != r:
                parent[v] = r
    members: dict[int, int] = {}
    # highest first, so each parent is flattened to its root before v
    for v in sorted(parent, reverse=True):
        p = parent[v]
        parent[v] = r = parent.get(p, p)
        members[r] = members.get(r, 1 << r) | 1 << v
    return zero, parent, members


def _chunk(tables: _BasisTables, j: int, b: int) -> _Chunk:
    """The blocks of pair rows of the edges 8j + k for the bits k of b,
    folded, as (zero, equal, widened).  Built on first use and kept in the
    tables.

    A byte of one edge e holds e's block: the rows cols[e] & cols[f] for
    the f whose row extends the span of e's rows for lower f (the block's
    rank profile).  A row of one permutation forces it to 0 and a row of
    two forces them equal; _fold contracts these into zero, the mask of
    the permutations they force to 0, and equal, the disjoint masks of the
    permutations they force equal and not to 0.  Each wide row (f, (a, b,
    c, ...)) has three or more permutations, ascending, and widened is
    ((e, wide rows ascending in f),), or () when e has none.  A byte of
    several edges holds the blocks of its bits in ascending edge order:
    their zero masks ORed and their equal masks and widened concatenated.

    A basis of E edges has at most ceil(E/8) * 256 entries: 3,328 at order
    5, 5,888 at order 6 and about 14k at order 8.  crossval(5) fills 795.
    """
    cols, masks, _, chunks = tables
    chunk = chunks[j]
    if b & (b - 1):
        zero = 0
        equal: list[int] = []
        widened: list[tuple[int, _Wide]] = []
        for k in bit_indices(b):
            z, eq, w = chunk.get(1 << k) or _chunk(tables, j, 1 << k)
            zero |= z
            equal += eq
            widened += w
        chunk[b] = entry = (zero, tuple(equal), tuple(widened))
        return entry
    e = 8 * j + b.bit_length() - 1
    ce = cols[e]
    zero = 0
    links, wide = [], []
    # in e's block the column of a basis permutation through e is its
    # incident mask and every other column is zero, so the block's rank
    # profile needs only those few masks
    pivots, _ = column_echelon([(masks[i], 0) for i in bit_indices(ce)], len(cols))
    for f in sorted(pivots):
        # row f of the block lists the permutations through e and f
        row = ce & cols[f]
        size = row.bit_count()
        if size == 1:
            zero |= row
        elif size == 2:
            links.append(row)
        else:
            wide.append((f, tuple(bit_indices(row))))
    zero, _, members = _fold(zero, links)
    chunk[b] = entry = (zero, tuple(members.values()), ((e, tuple(wide)),) if wide else ())
    return entry


# the last (n, permutations as tuples, tables) that _tables gave
_last: Optional[tuple[int, tuple[Permutation, ...], _BasisTables]] = None


def _tables(n: int, basis_perms: Sequence[Permutation]) -> _BasisTables:
    # keyed on the permutations themselves, so a basis given as lists works;
    # the same tuples as last time match by identity, item by item, without
    # hashing them, equal tuples read anew (a basis reloaded from its cache
    # file) match by value, and a list never equals the stored tuple, so a
    # list basis mutated in place is built afresh
    global _last
    perms = tuple(basis_perms)
    last = _last
    if last is not None and last[0] == n and last[1] == perms:
        return last[2]
    key = tuple(map(tuple, perms))
    tables = _basis_tables(n, key)
    _last = (n, key, tables)
    return tables


def assemble_system(G: TimeGraph, basis_perms: Sequence[Permutation]) -> LinearSystem:
    """One parity-1 value row plus, for every missing edge e and every edge
    e', the constraint that the combination vanishes at (e, e'), contracted.

    The pair constraint coefficient for basis element i is 1 exactly when
    both e and e' are incident on permutation i, so each row is the AND of
    two incidence columns.  Only the rows of each live missing edge's
    block are read (see _chunk): every other row of e is the sum of e's
    rows for lower e', so it never changes the solutions or the rank.
    The live missing edges are read a byte of the edge space at a time,
    and each nonzero byte is one lookup of its edges' blocks already
    folded: one pass over at most ceil(E/8) bytes ORs the zero masks of
    the blocks, gathers their equal masks and notes the edges with wide
    rows, all in ascending edge order.  The equal masks, if any, are
    contracted into the zero mask and components of variables by _fold;
    no pass over the variables or over the units and links is made.
    Each wide row of the noted edges that meets a contracted variable is
    rewritten onto the
    roots through its own permutations; a wide row of e for a missing
    e' < e is skipped, as the row of (e', e) lies in the span of e''s
    block.  Zero and duplicate rows are dropped; the value row comes last.
    """
    tables = _tables(G.n, basis_perms)
    cols, masks, live, chunks = tables
    nvars = len(masks)
    zero = 0
    equal: list[int] = []
    widened = []  # (e, its wide rows) for the missing edges that have any
    # a missing edge outside live has no partners
    for j, b in enumerate((live & ~G.edges).to_bytes(len(chunks), "little")):
        if b:
            z, eq, wide = chunks[j].get(b) or _chunk(tables, j, b)
            zero |= z
            if eq:
                equal += eq
            if wide:
                widened += wide
    if equal:
        zero, root_of, members = _fold(zero, equal)
    else:
        root_of, members = {}, {}
    moved = 0  # the contracted variables that are not zero
    # the all-ones value row moved onto roots: a root keeps a one exactly
    # when its component has odd size
    value = ((1 << nvars) - 1) ^ zero
    for r, m in members.items():
        moved |= m ^ 1 << r
        value ^= m ^ (m.bit_count() & 1) << r
    contracted = zero | moved
    nonzero = ~zero
    edges = G.edges
    kept = {}
    for e, wide in widened:
        ce = cols[e] & nonzero
        if not ce:
            continue  # every permutation through e is 0, so each row is 0
        for f, vs in wide:
            if f < e and not edges >> f & 1:
                continue  # the row of (f, e), spanned by f's block
            row = ce & cols[f]
            if row & moved:
                for v in vs:
                    r = root_of.get(v)
                    if r is not None:
                        row ^= 1 << v | 1 << r
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
    # each witness permutation adds its incident mask to each missing edge
    # it meets
    masks = system._tables[1]
    missing = ~G.edges
    acc: dict[int, int] = {}
    for i in bit_indices(x):
        m = masks[i]
        for e in bit_indices(m & missing):
            acc[e] = acc.get(e, 0) ^ m
    failing = [e for e, a in acc.items() if a]
    if failing:
        raise InternalInconsistencyError(
            f"witness fails the constraints of missing edge {min(failing)}"
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
