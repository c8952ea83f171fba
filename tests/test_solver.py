import functools
import hashlib
import itertools
import json
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtg import lab, solver
from hamtg.canonical import InternalInconsistencyError
from hamtg.gf2 import Gf2Basis, bit_indices, solve_system
from hamtg.liftbasis import build_basis
from hamtg.permvec import pair_indicator, value_pair, is_supported_in
from hamtg.solver import (
    assemble_system,
    decide_hamiltonian_path,
    decide_time_graph,
    incidence_columns,
)
from hamtg.timegraph import (
    Edge,
    Graph,
    TimeGraph,
    edge_from_index,
    edge_index,
    edge_space_size,
    hamiltonian_path_oracle,
    incident_mask,
    is_incident,
    reduce_hamp,
)

from helpers import (
    all_graphs,
    assemble_per_edge_reference,
    assemble_rows_reference,
    fold_reference,
    nullspace_reference,
    path_graph,
    prefix_rank_profile,
    rank_oracle,
    star_graph,
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


def test_incidence_columns_reject_a_bad_permutation_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            incidence_columns(3, [(1, 2, 3), (1, 1, 3)])
        with pytest.raises(ValueError):
            incidence_columns(3, [(1, 2, 3, 4)])


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


def _moved(T, move):
    """T with every edge (i, j, t) sent to the edge move(i, j, t)."""
    bits = 0
    for e in range(edge_space_size(T.n)):
        if T.has_index(e):
            bits |= 1 << edge_index(Edge(*move(*edge_from_index(e, T.n))), T.n)
    return TimeGraph(T.n, bits)


# Metamorphic checks of the decider: they compare answers only, so they
# guard the assembly without sharing any code with elimination.


@settings(max_examples=40, deadline=None)
@given(time_graphs(), st.data())
def test_answer_is_monotone_in_the_edge_set(T, data):
    # every constraint of a larger time-graph is one of T's
    size = edge_space_size(T.n)
    extra = data.draw(st.lists(st.integers(0, size - 1), max_size=4))
    bigger = TimeGraph(T.n, T.edges | sum(1 << e for e in set(extra)))
    perms = build_basis(T.n)
    if decide_time_graph(T, perms).answer:
        assert decide_time_graph(bigger, perms).answer


@settings(max_examples=40, deadline=None)
@given(time_graphs(), st.data())
def test_answer_is_invariant_under_vertex_relabelling(T, data):
    sigma = data.draw(st.permutations(range(1, T.n + 1)))
    relabelled = _moved(T, lambda i, j, t: (sigma[i - 1], sigma[j - 1], t))
    perms = build_basis(T.n)
    assert decide_time_graph(relabelled, perms).answer == decide_time_graph(T, perms).answer


@settings(max_examples=40, deadline=None)
@given(time_graphs())
def test_answer_is_invariant_under_time_reversal(T):
    # a permutation read backwards uses edge (j, i, n - t) for each (i, j, t)
    reversed_T = _moved(T, lambda i, j, t: (j, i, T.n - t))
    perms = build_basis(T.n)
    assert decide_time_graph(reversed_T, perms).answer == decide_time_graph(T, perms).answer


def _check_against_reference(T, perms):
    """The contracted system against the full loop's rows, by solution.

    Both are consistent or inconsistent alike, the lifted particular
    solution is the full system's, the supported coefficient space is the
    full homogeneous nullspace with its vectors in the same order, each
    kernel image is the diagonal image of its vector, and the
    decision's rank is the full coefficient rank, for either answer.  The
    contracted rows meet roots only, and the value row counts each
    component once per member.
    """
    nvars = len(perms)
    system = assemble_system(T, perms)
    ref = assemble_rows_reference(T, perms)
    zeros = (0,) * (len(ref) - 1)
    full = solve_system(ref, (1, *zeros), nvars)
    rows = system.rows
    small = solve_system(rows, (0,) * (len(rows) - 1) + (1,), nvars)
    assert small.consistent == full.consistent
    assert all(not r & system.contracted for r in rows)
    # the value row has a one on each root whose component, as the lift of
    # the root alone, has odd size
    roots = [r for r in range(nvars) if not system.contracted >> r & 1]
    assert rows[-1] == sum(1 << r for r in roots if system.lift(1 << r).bit_count() & 1)
    decision = decide_time_graph(T, perms)
    assert decision.answer == full.consistent
    if full.consistent:
        assert system.lift(small.x) == full.x
        assert decision.witness == tuple(bit_indices(full.x))
    echelon = Gf2Basis(nvars)
    for r in ref:
        echelon.insert_raw(r)
    assert decision.rank == echelon.rank
    assert decision.rows == len(rows)
    coeffs = lab.supported_coefficient_space(T, perms)
    assert coeffs == list(nullspace_reference(ref[1:], nvars))
    # the kernel over the roots lifts to those vectors, and each image is
    # the xor of the incident masks of its lift
    kernel = system.kernel()
    assert [system.lift(v) for v, _ in kernel] == coeffs
    masks = [incident_mask(p) for p in perms]
    for (_, image), c in zip(kernel, coeffs):
        assert image == functools.reduce(operator.xor, (masks[k] for k in bit_indices(c)), 0)
    assert system.raw_rows == 1 + len(T.complement_indices()) * edge_space_size(T.n)
    return system


@settings(max_examples=60, deadline=None)
@given(time_graphs())
def test_assembly_matches_full_loop_reference(T):
    # the contracted system solves exactly as the full loop's rows do
    _check_against_reference(T, build_basis(T.n))


@settings(max_examples=15, deadline=None)
@given(time_graphs())
def test_assembly_matches_reference_on_reversed_and_list_bases(T):
    perms = build_basis(T.n)
    _check_against_reference(T, perms[::-1])
    _check_against_reference(T, [list(p) for p in perms])


def test_assembly_matches_full_loop_reference_at_order_6():
    # below order 6 the pair indicators are independent and every set root
    # of a solution stands alone, so only here do the lifts add members;
    # HAMP reductions as crossval decides them, and uniform random
    # time-graphs as the campaign samples them
    perms = build_basis(6)
    rng = random.Random(6)
    graphs = [reduce_hamp(g) for g in lab._random_graphs(6, 12, 1)]
    graphs += [lab.random_time_graph(6, rng) for _ in range(8)]
    lifted = 0
    for T in graphs:
        system = _check_against_reference(T, perms)
        for v, _ in system.kernel():
            lifted += system.lift(v) != v
    assert lifted


def test_pruned_rows_drop_dependent_rows():
    # the star on 5 vertices: the full loop's 313 rows force every one of
    # the 120 variables to zero, so only the value row is left, and it is
    # empty: 0 = 1 at once
    perms = build_basis(5)
    T = reduce_hamp(star_graph(4))
    system = _check_against_reference(T, perms)
    assert len(assemble_rows_reference(T, perms)) == 313
    assert system.contracted.bit_count() == 120
    assert system.rows == (0,)


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
    # an edge e's folded block, read off the incident masks, rebuilds
    # exactly the rank profile of e's block of pair rows cols[e] & cols[f]
    # in ascending f: the wide rows are its rows of three or more
    # permutations, and the zero mask (each permutation alone) with the
    # equal masks (each member beside the mask's lowest) are as many
    # independent rows as its rows of one or two permutations, and span the
    # same space; live marks exactly the edges with a nonzero column
    for n in (3, 4, 5):
        for perms in (build_basis(n), build_basis(n)[::-1]):
            nvars = len(perms)
            tables = solver._basis_tables(n, tuple(perms))
            cols, _, live, chunks = tables
            assert chunks == [{} for _ in range(-(-len(cols) // 8))]
            assert live == sum(1 << e for e, ce in enumerate(cols) if ce)
            assert list(cols) == [
                sum(1 << i for i, p in enumerate(perms) if is_incident(edge_from_index(e, n), p))
                for e in range(edge_space_size(n))
            ]
            for e, ce in enumerate(cols):
                entry = solver._chunk(tables, e // 8, 1 << e % 8)
                zero, equal, widened = entry
                wide = widened[0][1] if widened else ()
                # e's byte entry is its block, its wide rows noted under e
                assert widened == (((e, wide),) if wide else ())
                block = [ce & c for c in cols]
                profile = prefix_rank_profile(block, nvars)
                assert [f for f, _ in wide] == [f for f in profile if block[f].bit_count() > 2]
                assert all(block[f] == sum(1 << v for v in vs) for f, vs in wide)
                assert all(list(vs) == sorted(vs) for _, vs in wide)
                # disjoint masks of two or more, off the zero mask, inside ce
                seen = zero
                for m in equal:
                    assert m.bit_count() >= 2 and not m & seen
                    seen |= m
                assert not seen & ~ce
                small = [block[f] for f in profile if block[f].bit_count() <= 2]
                folded = [1 << v for v in bit_indices(zero)] + [
                    m & -m | 1 << v for m in equal for v in bit_indices(m)[1:]
                ]
                assert len(folded) == len(small) == rank_oracle(folded, nvars)
                assert rank_oracle(small + folded, nvars) == len(small)
                assert tables[3][e // 8][1 << e % 8] is entry


def test_each_live_edge_block_has_full_rank_through_order_5():
    # the decider is exact through order 5: there every permutation p
    # through an edge e is the only one through e and some second edge of
    # p, so e's block of pair rows has full rank, as many profile rows as
    # cols[e] has bits, and a missing e forces every permutation through it
    # to 0.  The block's rank is read off its folded entry: one per zero
    # bit, one per equal mask member beside the first, one per wide row.
    # Order 5's 20 layer-1 edges keep a wide row each; at order 6 all but
    # two live edges fall short, so there the argument stops
    short, wide = {}, {}
    for n in (3, 4, 5, 6):
        perms = build_basis(n)
        tables = solver._basis_tables(n, tuple(perms))
        cols, _, live, _ = tables
        short[n], wide[n] = [], []
        for e in bit_indices(live):
            zero, equal, widened = solver._chunk(tables, e // 8, 1 << e % 8)
            if widened:
                wide[n].append((edge_from_index(e, n).t, len(widened[0][1])))
            rank = zero.bit_count() + sum(m.bit_count() - 1 for m in equal)
            rank += len(widened[0][1]) if widened else 0
            # the block's distinct rows, on the permutations through e alone
            through = bit_indices(cols[e])
            block = {sum(((cols[e] & c) >> v & 1) << k for k, v in enumerate(through)) for c in cols}
            assert rank == rank_oracle(list(block), len(through))
            if rank < cols[e].bit_count():
                short[n].append((rank, cols[e].bit_count()))
            elif n <= 5:
                G = TimeGraph(n, TimeGraph.complete(n).edges & ~(1 << e))
                system = assemble_system(G, perms)
                assert all(not system.lift(v) & cols[e] for v, _ in system.kernel())
    assert short[3] == short[4] == short[5] == wide[3] == wide[4] == []
    assert wide[5] == [(1, 1)] * 20
    assert len(short[6]) == 148 and live.bit_count() == 150
    assert {r for r, _ in short[6]} == {18, 20, 23}
    assert {size for _, size in short[6]} == {23, 24}


def test_list_basis_decides_like_tuple_basis():
    perms = build_basis(4)
    as_lists = [list(p) for p in perms]
    for g in [path_graph(4), star_graph(3), Graph.complete(4), Graph(4)]:
        T = reduce_hamp(g)
        assert decide_time_graph(T, as_lists) == decide_time_graph(T, perms)


def test_corrupted_partner_table_never_gives_an_unchecked_yes(monkeypatch):
    # with every edge's zero mask cut to its lowest permutation and its
    # equal masks and wide rows each cut to their first the system loses
    # constraints; the witness check reads G, not the rows, so a wrong yes
    # must surface as an InternalInconsistencyError
    perms = build_basis(4)
    honest = {g: decide_time_graph(reduce_hamp(g), perms) for g in all_graphs(4)}
    real = solver._basis_tables
    cut = {}

    def truncated(n, basis_perms):
        tables = real(n, basis_perms)
        chunks = tables[3]
        # the chunk dicts are still empty, so every entry folds cut blocks
        assert not any(chunks)
        for e in bit_indices(tables[2]):
            j, b = e // 8, 1 << e % 8
            zero, equal, widened = solver._chunk(tables, j, b)
            wide = widened[0][1][:1] if widened else ()
            cut[e] = chunks[j][b] = (zero & -zero, equal[:1], ((e, wide),) if wide else ())
        return tables

    monkeypatch.setattr(solver, "_basis_tables", truncated)
    # the memo still holds the honest tables of perms
    monkeypatch.setattr(solver, "_last", None)
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
    # and every chunk entry it read is the fold of the cut blocks
    chunks = solver._last[2][3]
    assert sum(map(len, chunks)) > len(cut)
    for j, chunk in enumerate(chunks):
        for b, (zero, equal, widened) in chunk.items():
            edges = bit_indices(b << 8 * j)
            assert zero == functools.reduce(int.__or__, (cut[e][0] for e in edges))
            assert equal == tuple(m for e in edges for m in cut[e][1])
            assert widened == tuple(w for e in edges for w in cut[e][2])


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


def test_a_campaign_and_its_replays_build_the_basis_tables_once(monkeypatch, tmp_path):
    # the replays reload the basis from the cache directory as new tuples,
    # which the last-basis memo matches by value, so no second cache is needed
    real = solver._basis_tables
    calls = []

    def counted(n, basis_perms):
        calls.append(n)
        return real(n, basis_perms)

    monkeypatch.setattr(solver, "_basis_tables", counted)
    monkeypatch.setattr(solver, "_last", None)
    result = lab.run_campaign(4, 4, 0, orders=2, cache_dir=str(tmp_path))
    assert {rep.conjecture for rep in result["reports"]} == {1, 2}
    for rep in result["reports"]:
        assert lab.replay_report(rep.to_dict(), cache_dir=str(tmp_path))
    assert calls == [4]


def test_tables_memo_follows_a_list_basis_mutated_in_place(monkeypatch):
    # a tuple basis seen last time skips the table lookup; a list basis
    # always takes it, so permutations rewritten in place are read afresh
    perms = build_basis(4)
    T = reduce_hamp(path_graph(4))
    real = solver._basis_tables
    calls = []

    def counted(n, basis_perms):
        calls.append(basis_perms)
        return real(n, basis_perms)

    monkeypatch.setattr(solver, "_basis_tables", counted)
    monkeypatch.setattr(solver, "_last", None)
    as_tuples = tuple(perms)
    first = decide_time_graph(T, as_tuples)
    assert decide_time_graph(T, as_tuples) == first
    assert len(calls) == 1
    as_lists = [list(p) for p in perms]
    assert decide_time_graph(T, as_lists) == first
    # the same lists, now holding the basis rotated by one
    rotated = perms[1:] + perms[:1]
    for p, q in zip(as_lists, rotated):
        p[:] = q
    moved = decide_time_graph(T, as_lists)
    assert moved == decide_time_graph(T, rotated)
    assert moved.witness != first.witness
    assert calls[-1] == tuple(rotated)


def test_order5_hamp_assembly_is_pinned():
    # sha256 of the (rows, contracted) of every order-5 HAMP reduction, in
    # crossval's order: a reordered, added or dropped row fails here
    perms = build_basis(5)
    systems = [assemble_system(reduce_hamp(g), perms) for g in lab._all_graphs(5)]
    text = json.dumps([[list(s.rows), s.contracted] for s in systems])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aa1d240728bfdf48e9ca437ceaf703b96b8d0c36e8279f431489833c28d4506f"
    )


def test_order6_assembly_is_pinned():
    # sha256 of the rows, contracted, components and raw_rows of 64 seeded
    # random order-6 time-graphs, half at edge density 1/2 and half at 7/8
    # (the OR of three draws), where wide rows and components are common
    perms = build_basis(6)
    rng = random.Random(2106)
    size = edge_space_size(6)
    graphs = [lab.random_time_graph(6, rng) for _ in range(32)]
    graphs += [
        TimeGraph(6, rng.getrandbits(size) | rng.getrandbits(size) | rng.getrandbits(size))
        for _ in range(32)
    ]
    systems = [assemble_system(T, perms) for T in graphs]
    text = json.dumps(
        [[list(s.rows), s.contracted, sorted(s._members.items()), s.raw_rows] for s in systems]
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2d215079bb315868cdd8403cfe7054de51c3c24f421df7bd790f302714d0c2f6"
    )


def _variables(size_min, size_max):
    return st.sets(st.integers(0, 11), min_size=size_min, max_size=size_max).map(
        lambda vs: sum(1 << v for v in vs)
    )


@settings(max_examples=300, deadline=None)
@given(_variables(0, 3), st.lists(_variables(2, 4), max_size=10), st.randoms())
def test_fold_contracts_like_the_brute_force_reference(zero, masks, rnd):
    got_zero, root_of, members = got = solver._fold(zero, list(masks))
    ref_zero, ref_root_of, ref_members = fold_reference(zero, masks)
    # the least superset of zero that absorbs every mask meeting it
    assert got_zero == ref_zero
    assert got_zero & zero == zero
    assert all(not m & got_zero or not m & ~got_zero for m in masks)
    # the components of the overlap graph of the masks left, each keyed by
    # its largest member, highest non-root member first
    assert list(members.items()) == list(ref_members.items())
    assert all(m >> r == 1 for r, m in members.items())
    assert all(not m & got_zero for m in members.values())
    left = [m for m in masks if not m & got_zero]
    assert all(sum(1 for c in members.values() if c & m == m) == 1 for m in left)
    # root_of maps every member but the root, to the root
    assert root_of == ref_root_of
    assert root_of == {v: r for r, m in members.items() for v in bit_indices(m) if v != r}
    # the order of the masks does not matter
    shuffled = list(masks)
    rnd.shuffle(shuffled)
    again = solver._fold(zero, shuffled)
    assert again == got and list(again[2].items()) == list(members.items())
    # joining the components first and absorbing those that meet the zero
    # mask after gives the same contraction
    zero_after = zero
    equal = {}
    for r, m in solver._fold(0, list(masks))[2].items():
        if m & zero:
            zero_after |= m
        else:
            equal[r] = m
    assert zero_after == got_zero
    assert list(equal.items()) == list(members.items())


@st.composite
def fold_time_graphs(draw):
    """Random time-graphs of order 3 to 6 at edge density 1/2 or 7/8 (the
    OR of three draws), or missing only edges of the last, partial byte of
    the edge space (16-17 at order 3, 96-99 at order 5, 176-179 at order 6)."""
    n = draw(st.integers(min_value=3, max_value=6))
    size = edge_space_size(n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = rng.getrandbits(size)
    shape = draw(st.sampled_from(("half", "dense", "last byte")))
    if shape == "dense":
        edges |= rng.getrandbits(size) | rng.getrandbits(size)
    elif shape == "last byte":
        edges |= (1 << (size & ~7)) - 1
    return TimeGraph(n, edges)


def _check_fold(T, perms):
    system = assemble_system(T, perms)
    rows, raw, contracted, members = assemble_per_edge_reference(T, perms)
    assert system.rows == rows
    assert system.contracted == contracted
    assert list(system._members.items()) == list(members.items())
    assert system.raw_rows == raw
    return system


@settings(max_examples=120, deadline=None)
@given(fold_time_graphs(), st.sampled_from(("tuples", "lists", "reversed")))
def test_byte_fold_matches_the_per_edge_fold(T, form):
    # the blocks of the missing edges folded a byte at a time give the same
    # rows in the same order, the same contraction and the same components
    # as folding them one edge at a time
    perms = build_basis(T.n)
    if form == "lists":
        perms = [list(p) for p in perms]
    elif form == "reversed":
        perms = perms[::-1]
    _check_fold(T, perms)


def test_byte_fold_reads_the_last_partial_byte():
    # every nonempty set of missing edges within the last, partial byte
    for n in (3, 5, 6):
        size = edge_space_size(n)
        perms = build_basis(n)
        constrained = 0
        for last in range(1, 1 << size % 8):
            system = _check_fold(TimeGraph(n, ((1 << size) - 1) ^ last << (size & ~7)), perms)
            constrained += system.contracted != 0
        # a self-loop alone, the last edge, constrains nothing
        assert constrained == (1 << size % 8) - 2


def test_chunk_tables_are_bounded_and_go_with_their_basis(monkeypatch):
    # a basis of E edges has one dict per byte of the edge space, keyed by
    # nonzero bytes of live edges only, so at most ceil(E/8) * 256 entries
    monkeypatch.setattr(solver, "_last", None)
    perms = build_basis(5)
    rng = random.Random(5)
    graphs = [reduce_hamp(g) for g in lab._all_graphs(5)]
    graphs += [lab.random_time_graph(5, rng) for _ in range(200)]
    for T in graphs:
        assemble_system(T, perms)
    _, _, live, chunks = solver._last[2]
    assert len(chunks) == -(-edge_space_size(5) // 8) == 13
    for j, chunk in enumerate(chunks):
        byte = live >> 8 * j & 255
        assert all(0 < b and not b & ~byte for b in chunk)
    assert 0 < sum(map(len, chunks)) <= 13 * 256
    # the last-basis memo holds the only reference: a second basis drops it
    assert sys.getrefcount(chunks) == 3  # the memo's tables, ours, the call's
    assemble_system(graphs[0], perms[::-1])
    assert solver._last[2][3] is not chunks
    assert sys.getrefcount(chunks) == 2
