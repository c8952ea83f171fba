import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtg import solver
from hamtg.canonical import InternalInconsistencyError
from hamtg.gf2 import Gf2Basis, rank_profile, solve_system
from hamtg.liftbasis import build_basis
from hamtg.permvec import pair_indicator, value_pair, is_supported_in
from hamtg.solver import (
    assemble_system,
    decide_hamiltonian_path,
    decide_time_graph,
)
from hamtg.timegraph import (
    Graph,
    TimeGraph,
    edge_from_index,
    edge_space_size,
    hamiltonian_path_oracle,
    is_incident,
    reduce_hamp,
)

from helpers import assemble_rows_reference, path_graph, star_graph


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, (pairs[k] for k in range(len(pairs)) if (mask >> k) & 1)
        )


def test_complete_time_graph_yields_value_row_only():
    n = 4
    perms = build_basis(n)
    system = assemble_system(TimeGraph.complete(n), perms)
    assert system.rows == ((1 << len(perms)) - 1,)  # the value row alone
    decision = decide_time_graph(TimeGraph.complete(n), perms)
    assert decision.answer


def test_empty_time_graph_is_infeasible():
    n = 3
    perms = build_basis(n)
    decision = decide_time_graph(TimeGraph.empty(n), perms)
    assert not decision.answer
    assert not hamiltonian_path_oracle(Graph(n))  # edgeless graph agrees


def test_raw_row_count_bound():
    n = 4
    perms = build_basis(n)
    g = path_graph(n)
    T = reduce_hamp(g)
    system = assemble_system(T, perms)
    assert system.raw_rows == 1 + len(T.complement_indices()) * edge_space_size(n)
    assert len(system.rows) <= system.raw_rows


def test_value_row_is_all_ones():
    n = 3
    perms = build_basis(n)
    system = assemble_system(TimeGraph.complete(n), perms)
    assert system.rows[0] == (1 << len(perms)) - 1
    # rhs 1: the witness meets the value row an odd number of times
    decision = decide_time_graph(TimeGraph.complete(n), perms)
    assert len(decision.witness) % 2 == 1


def test_assemble_rejects_order_mismatch():
    with pytest.raises(ValueError):
        assemble_system(TimeGraph.complete(3), build_basis(4))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_complete_graphs_decide_yes(n):
    decision = decide_hamiltonian_path(Graph.complete(n))
    assert decision.answer
    assert hamiltonian_path_oracle(Graph.complete(n))


def test_star_agrees_with_oracle():
    g = star_graph(3)
    decision = decide_hamiltonian_path(g)
    oracle = hamiltonian_path_oracle(g)
    assert oracle is False
    # a yes here would be a conjecture counterexample, not an error; record
    # equality so a change in behaviour is noticed
    assert decision.answer == oracle


def test_exhaustive_order4_no_false_negatives():
    perms = build_basis(4)
    for g in all_graphs(4):
        decision = decide_time_graph(reduce_hamp(g), perms)
        if hamiltonian_path_oracle(g):
            assert decision.answer, f"false negative on {sorted(g.pairs)}"


def test_witness_satisfies_every_row():
    perms = build_basis(4)
    for g in [path_graph(4), Graph.complete(4), star_graph(3)]:
        T = reduce_hamp(g)
        decision = decide_time_graph(T, perms)
        if not decision.answer:
            continue
        x = 0
        for k in decision.witness:
            x |= 1 << k
        # the full loop's rows, not only the kept ones
        rows = assemble_rows_reference(T, perms)
        parities = [(x & m).bit_count() & 1 for m in rows]
        assert parities == [1] + [0] * (len(rows) - 1)


def test_witness_combination_is_supported_with_value_one():
    perms = build_basis(4)
    g = path_graph(4)
    T = reduce_hamp(g)
    decision = decide_time_graph(T, perms)
    assert decision.answer
    combo = pair_indicator(perms[decision.witness[0]])
    for k in decision.witness[1:]:
        combo = combo ^ pair_indicator(perms[k])
    assert is_supported_in(combo, T)
    assert value_pair(combo) == 1


def test_adding_edges_never_flips_yes_to_no():
    rng = random.Random(23)
    perms = build_basis(5)
    pairs = list(itertools.combinations(range(1, 6), 2))
    for _ in range(15):
        chosen = [pq for pq in pairs if rng.randrange(2)]
        g = Graph.from_edges(5, chosen)
        base = decide_time_graph(reduce_hamp(g), perms)
        missing = [pq for pq in pairs if pq not in g.pairs]
        if not missing:
            continue
        extra = missing[rng.randrange(len(missing))]
        bigger = Graph.from_edges(5, chosen + [extra])
        grown = decide_time_graph(reduce_hamp(bigger), perms)
        if base.answer:
            assert grown.answer


@st.composite
def time_graphs(draw):
    """Random time-graphs of order 3 to 5, half of them reductions of graphs."""
    n = draw(st.integers(min_value=3, max_value=5))
    if draw(st.booleans()):
        return TimeGraph(n, draw(st.integers(0, (1 << edge_space_size(n)) - 1)))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    return reduce_hamp(Graph.from_edges(n, chosen))


def _solutions(rows, nvars):
    """solve_system on the augmented rows and on the homogeneous ones."""
    zeros = (0,) * (len(rows) - 1)
    out = []
    for system, rhs in ((rows, (1, *zeros)), (rows[1:], zeros)):
        res = solve_system(system, rhs, nvars)
        out.append((res.consistent, res.x, res.rank, res.nullspace))
    return out


def _check_against_reference(T, perms):
    """The kept rows against the full loop's rows.

    Kept rows are reference rows; every reference pair row that extends
    the span of the reference rows before it is kept, in the same relative
    order; and both systems solve alike, augmented and homogeneous.  (A
    kept dependent row may come later than its first reference occurrence,
    whose own block dropped it.)
    """
    system = assemble_system(T, perms)
    ref = assemble_rows_reference(T, perms)
    kept = list(system.rows)
    assert kept[0] == ref[0]
    assert set(kept) <= set(ref)
    echelon = Gf2Basis(len(perms))
    extending = [r for r in ref[1:] if echelon.insert_raw(r).extended]
    place = {r: k for k, r in enumerate(kept)}
    assert all(r in place for r in extending)
    assert [place[r] for r in extending] == sorted(place[r] for r in extending)
    assert _solutions(kept, len(perms)) == _solutions(ref, len(perms))
    assert system.raw_rows == 1 + len(T.complement_indices()) * edge_space_size(T.n)
    return system


@settings(max_examples=60, deadline=None)
@given(time_graphs())
def test_assembly_matches_full_loop_reference(T):
    # the pruned pair visits keep the full loop's independent rows, in
    # order, and solve exactly as the full loop's rows do
    _check_against_reference(T, build_basis(T.n))


@settings(max_examples=15, deadline=None)
@given(time_graphs())
def test_assembly_matches_reference_on_reversed_and_list_bases(T):
    perms = build_basis(T.n)
    _check_against_reference(T, perms[::-1])
    _check_against_reference(T, [list(p) for p in perms])


def test_pruned_rows_drop_dependent_rows():
    # the star on 5 vertices keeps 157 of the full loop's 313 rows
    perms = build_basis(5)
    T = reduce_hamp(star_graph(4))
    system = _check_against_reference(T, perms)
    assert len(system.rows) < 0.55 * len(assemble_rows_reference(T, perms))


def test_columns_follow_the_basis_order():
    # a second basis of the same order must not reuse the first one's tables
    perms = build_basis(4)
    T = reduce_hamp(path_graph(4))
    decide_time_graph(T, perms)
    reversed_perms = perms[::-1]
    _check_against_reference(T, reversed_perms)
    decision = decide_time_graph(T, reversed_perms)
    assert decision.answer
    combo = pair_indicator(reversed_perms[decision.witness[0]])
    for k in decision.witness[1:]:
        combo = combo ^ pair_indicator(reversed_perms[k])
    assert is_supported_in(combo, T)
    assert value_pair(combo) == 1


def test_partners_are_each_blocks_rank_profile():
    # the table, read off the incident masks, is the rank profile of each
    # edge's block of pair rows cols[e] & cols[e'] in ascending e', and
    # live marks exactly the edges with a nonzero column
    for n in (3, 4, 5):
        for perms in (build_basis(n), build_basis(n)[::-1]):
            cols, partners, _, live = solver._basis_tables(n, tuple(perms))
            assert live == sum(1 << e for e, ce in enumerate(cols) if ce)
            assert list(cols) == [
                sum(1 << i for i, p in enumerate(perms) if is_incident(edge_from_index(e, n), p))
                for e in range(edge_space_size(n))
            ]
            assert partners == tuple(
                tuple(rank_profile([ce & c for c in cols], len(perms))[0])
                for ce in cols
            )


def test_list_basis_decides_like_tuple_basis():
    perms = build_basis(4)
    as_lists = [list(p) for p in perms]
    for g in [path_graph(4), star_graph(3), Graph.complete(4), Graph(4)]:
        T = reduce_hamp(g)
        assert decide_time_graph(T, as_lists) == decide_time_graph(T, perms)


def test_corrupted_partner_table_never_gives_an_unchecked_yes(monkeypatch):
    # with every partner block cut to its first partner the system loses
    # constraints; the witness check reads G, not the rows, so a wrong yes
    # must surface as an InternalInconsistencyError
    perms = build_basis(4)
    honest = {g: decide_time_graph(reduce_hamp(g), perms) for g in all_graphs(4)}
    real = solver._basis_tables

    def truncated(n, basis_perms):
        cols, partners, masks, live = real(n, basis_perms)
        return cols, tuple(block[:1] for block in partners), masks, live

    monkeypatch.setattr(solver, "_basis_tables", truncated)
    caught = []
    for g, expected in honest.items():
        try:
            decision = decide_time_graph(reduce_hamp(g), perms)
        except InternalInconsistencyError:
            caught.append(g)
            continue
        assert decision.answer == expected.answer
    # the search finds a no-instance the truncated rows would have passed
    assert any(not hamiltonian_path_oracle(g) for g in caught)


def test_a_yes_decision_looks_up_the_basis_tables_once(monkeypatch):
    # the witness check reads the tables the system was assembled from
    perms = build_basis(5)
    T = reduce_hamp(path_graph(5))
    real = solver._tables
    calls = []

    def counted(n, basis_perms):
        calls.append(n)
        return real(n, basis_perms)

    monkeypatch.setattr(solver, "_tables", counted)
    decision = decide_time_graph(T, perms)
    assert decision.answer
    assert calls == [5]
