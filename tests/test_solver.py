import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    edge_space_size,
    hamiltonian_path_oracle,
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
        rows = assemble_system(T, perms).rows
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


@settings(max_examples=60, deadline=None)
@given(time_graphs())
def test_assembly_matches_full_loop_reference(T):
    # the pruned pair visits keep exactly the rows of the full loop, in order
    perms = build_basis(T.n)
    system = assemble_system(T, perms)
    assert list(system.rows) == assemble_rows_reference(T, perms)
    assert system.raw_rows == 1 + len(T.complement_indices()) * edge_space_size(T.n)


def test_columns_follow_the_basis_order():
    # a second basis of the same order must not reuse the first one's columns
    perms = build_basis(4)
    T = reduce_hamp(path_graph(4))
    decide_time_graph(T, perms)
    reversed_perms = perms[::-1]
    system = assemble_system(T, reversed_perms)
    assert list(system.rows) == assemble_rows_reference(T, reversed_perms)
    decision = decide_time_graph(T, reversed_perms)
    assert decision.answer
    combo = pair_indicator(reversed_perms[decision.witness[0]])
    for k in decision.witness[1:]:
        combo = combo ^ pair_indicator(reversed_perms[k])
    assert is_supported_in(combo, T)
    assert value_pair(combo) == 1
