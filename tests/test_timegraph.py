import gc
import itertools
import math

import pytest

from hamtg.timegraph import (
    Edge,
    Graph,
    OracleScaleError,
    TimeGraph,
    all_permutations,
    edge_from_index,
    edge_index,
    edge_space_size,
    hamiltonian_path_oracle,
    identity,
    incident_edges,
    incident_permutations,
    is_hamiltonian_oracle,
    is_incident,
    reduce_hamp,
)

from helpers import (
    all_graphs,
    cycle_graph,
    path_graph,
    petersen,
    reduce_hamp_reference,
    star_graph,
)


# ---------------------------------------------------------------------------
# edge indexing

def test_edge_index_examples():
    assert edge_index(Edge(1, 1, 1), 3) == 0
    assert edge_index(Edge(3, 3, 2), 3) == 17 == edge_space_size(3) - 1
    assert edge_index(Edge(2, 3, 1), 4) == 6


def test_edge_index_rejects_out_of_range():
    for bad in [Edge(0, 1, 1), Edge(1, 4, 1), Edge(1, 1, 3), Edge(1, 1, 0)]:
        with pytest.raises(ValueError):
            edge_index(bad, 3)
    with pytest.raises(ValueError):
        edge_from_index(18, 3)


@pytest.mark.parametrize("n", range(2, 9))
def test_edge_index_roundtrip(n):
    for idx in range(edge_space_size(n)):
        e = edge_from_index(idx, n)
        assert edge_index(e, n) == idx


@pytest.mark.parametrize("n", [2, 3, 4])
def test_time_graph_from_edges_matches_from_indices(n):
    # every third edge, given as Edge values and as plain (i, j, t) tuples
    edges = [edge_from_index(idx, n) for idx in range(0, edge_space_size(n), 3)]
    expected = TimeGraph.from_indices(n, [edge_index(e, n) for e in edges])
    assert expected.edge_count() == len(edges)
    assert TimeGraph.from_edges(n, edges) == expected
    assert TimeGraph.from_edges(n, [tuple(e) for e in edges]) == expected
    assert TimeGraph.from_edges(n, []) == TimeGraph.from_indices(n, []) == TimeGraph.empty(n)


@pytest.mark.parametrize("idx", [-1, 18])
def test_time_graph_from_indices_rejects_an_index_out_of_range(idx):
    with pytest.raises(ValueError, match=f"edge index {idx} out of range for order 3"):
        TimeGraph.from_indices(3, [0, idx])


# ---------------------------------------------------------------------------
# incidence

def test_is_incident_identity():
    assert is_incident(Edge(1, 2, 1), identity(3))
    assert not is_incident(Edge(2, 1, 1), identity(3))


@pytest.mark.parametrize("n", range(2, 9))
def test_every_permutation_has_one_edge_per_layer(n):
    for p in all_permutations(n):
        edges = incident_edges(p)
        assert len(edges) == n - 1
        assert [e.t for e in edges] == list(range(1, n))


@pytest.mark.parametrize("n", range(2, 7))
def test_complete_time_graph_admits_all_permutations(n):
    assert len(incident_permutations(TimeGraph.complete(n))) == math.factorial(n)


def test_empty_time_graph_admits_none():
    assert incident_permutations(TimeGraph.empty(3)) == []
    assert not is_hamiltonian_oracle(TimeGraph.empty(4))


def test_incident_permutations_of_reduced_path():
    T = reduce_hamp(path_graph(3))
    assert incident_permutations(T) == [(1, 2, 3), (3, 2, 1)]


def test_oracle_cap_errors():
    with pytest.raises(OracleScaleError):
        incident_permutations(TimeGraph.complete(9))
    with pytest.raises(OracleScaleError):
        is_hamiltonian_oracle(TimeGraph.complete(9))
    with pytest.raises(OracleScaleError):
        hamiltonian_path_oracle(Graph.complete(11))
    # explicit cap override
    assert is_hamiltonian_oracle(TimeGraph.complete(3), cap=3)


# ---------------------------------------------------------------------------
# reduction

def test_reduce_complete_graph_is_complete_minus_loops():
    n = 4
    T = reduce_hamp(Graph.complete(n))
    loops = {edge_index(Edge(i, i, t), n) for i in range(1, n + 1) for t in range(1, n)}
    assert set(T.complement_indices()) == loops


def test_reduce_edgeless_graph_is_empty():
    assert reduce_hamp(Graph(3)).edges == 0


def test_reduce_path_graph_edges():
    T = reduce_hamp(path_graph(3))
    expected = {
        Edge(i, j, t)
        for (i, j) in [(1, 2), (2, 1), (2, 3), (3, 2)]
        for t in (1, 2)
    }
    actual = {edge_from_index(idx, 3) for idx in T.edge_indices()}
    assert actual == expected


@pytest.mark.parametrize(
    "g", [path_graph(4), cycle_graph(5), star_graph(3), Graph.complete(5)]
)
def test_reduce_edge_count(g):
    assert reduce_hamp(g).edge_count() == 2 * len(g.pairs) * (g.n - 1)


def test_reduce_matches_per_edge_reference_on_every_small_graph():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, (pairs[k] for k in range(len(pairs)) if mask >> k & 1))
            assert reduce_hamp(g) == reduce_hamp_reference(g)


def test_reduce_beyond_the_oracle_cap():
    # the layer-1 mask times the layer repunit must place every layer at
    # any order, not just the oracle-sized ones; a complete graph's full
    # layer is the largest multiplicand
    for g in [cycle_graph(12), petersen(), *map(Graph.complete, range(6, 10))]:
        assert reduce_hamp(g) == reduce_hamp_reference(g)


def test_hamiltonian_path_oracle_examples():
    for n in range(1, 6):
        assert hamiltonian_path_oracle(Graph.complete(n))
    assert not hamiltonian_path_oracle(star_graph(3))
    assert hamiltonian_path_oracle(petersen())
    assert is_hamiltonian_oracle(reduce_hamp(cycle_graph(5)))


def test_hamiltonian_path_oracle_leaves_no_reference_cycle():
    # the backtracking search must not be a closure that refers to itself
    g = cycle_graph(5)
    gc.collect()
    gc.disable()
    try:
        assert hamiltonian_path_oracle(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduction_equivalence_exhaustive(n):
    for g in all_graphs(n):
        assert hamiltonian_path_oracle(g) == is_hamiltonian_oracle(reduce_hamp(g))


@pytest.mark.parametrize(
    "n, pairs, expected",
    [
        (1, [], True),
        (2, [], False),
        (2, [(1, 2)], True),
        # disconnected: two edges, two triangles
        (4, [(1, 2), (3, 4)], False),
        (6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)], False),
        # an isolated vertex beside a path and beside a complete graph
        (4, [(1, 2), (2, 3)], False),
        (5, list(itertools.combinations(range(1, 5), 2)), False),
        (5, [(1, 2), (2, 3), (3, 4)], False),
        # the only paths run 3-1-4-2 and back, so the search backtracks
        (4, [(1, 3), (1, 4), (2, 4)], True),
    ],
)
def test_hamiltonian_path_oracle_small_and_disconnected_graphs(n, pairs, expected):
    g = Graph.from_edges(n, pairs)
    assert hamiltonian_path_oracle(g) is expected
    assert is_hamiltonian_oracle(reduce_hamp(g)) is expected


# ---------------------------------------------------------------------------
# file formats

def test_graph_text_roundtrip():
    g = Graph.from_text("4\n1 2\n2 1\n3 4\n\n# comment\n2 3\n")
    assert g.pairs == frozenset({(1, 2), (2, 3), (3, 4)})
    assert Graph.from_text(g.to_text()) == g


def test_graph_text_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_text("3\n1 1\n")
    with pytest.raises(ValueError):
        Graph.from_text("3\n1 4\n")
    with pytest.raises(ValueError):
        Graph.from_text("3\n1 2 3\n")
    with pytest.raises(ValueError):
        Graph.from_text("")


def test_timegraph_text_roundtrip():
    T = reduce_hamp(path_graph(3))
    back = TimeGraph.from_text(T.to_text())
    assert back == T
    assert TimeGraph.from_text(" # order\n 2\n\n# edges\n 3 \n") == TimeGraph(2, 1 << 3)


@pytest.mark.parametrize("cls, kind", [(Graph, "graph"), (TimeGraph, "time-graph")])
def test_a_file_of_only_comments_is_empty(cls, kind):
    with pytest.raises(ValueError, match=f"^empty {kind} file$"):
        cls.from_text("# nothing here\n\n   \n")


def test_graph_rejects_self_loop_pairs():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(3, 1)}))
