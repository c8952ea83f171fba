import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamtg.gf2 import Gf2Basis, LengthMismatchError, bit_indices, rank
from hamtg.permvec import (
    EdgeVector,
    PairVector,
    _pair_row,
    diagonal,
    edge_indicator,
    is_closed_cycle,
    is_cycle,
    is_supported_in,
    pair_coordinates,
    pair_indicator,
    pair_sum,
    row_at,
    support_mask,
    value,
    value_pair,
)
from hamtg.timegraph import (
    Edge,
    TimeGraph,
    all_permutations,
    edge_space_size,
    identity,
    incident_edges,
    incident_mask,
    incident_permutations,
    permutation_table,
    reduce_hamp,
)

from helpers import (
    is_symmetric,
    path_graph,
    support,
    symmetric_scatter,
    upper_triangle_gather,
)


def xor_all(vectors, zero):
    out = zero
    for v in vectors:
        out = out ^ v
    return out


# ---------------------------------------------------------------------------
# indicators

def test_edge_indicator_identity_bits():
    f = edge_indicator(identity(3))
    assert bit_indices(f.bits) == [1, 14]  # (1,2,1) and (2,3,2)


@pytest.mark.parametrize("n", range(2, 8))
def test_edge_indicator_popcount(n):
    for p in all_permutations(n):
        assert edge_indicator(p).bits.bit_count() == n - 1


def test_edge_indicator_disjoint_supports():
    f = edge_indicator((2, 1, 3)) ^ edge_indicator((1, 2, 3))
    assert f.bits.bit_count() == 4


def test_pair_indicator_identity_bits():
    g = pair_indicator(identity(3))
    # ordered pairs over edge indices {1, 14}
    assert bit_indices(g.bits) == [1 * 18 + 1, 1 * 18 + 14, 14 * 18 + 1, 14 * 18 + 14]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pair_indicator_popcount_and_diagonal(n):
    for p in all_permutations(n):
        g = pair_indicator(p)
        assert g.bits.bit_count() == (n - 1) ** 2
        assert diagonal(g) == edge_indicator(p)


@st.composite
def permutation_lists(draw):
    """An order n <= 5 and a list of its permutations, repeats allowed."""
    n = draw(st.integers(min_value=1, max_value=5))
    perm = st.permutations(range(1, n + 1)).map(tuple)
    perms = draw(st.lists(perm, max_size=8))
    if perms and draw(st.booleans()):
        perms += draw(st.lists(st.sampled_from(perms), min_size=1, max_size=4))
    return n, perms


@settings(max_examples=80, deadline=None)
@given(permutation_lists())
@example((4, []))  # no masks: zero
@example((4, [(2, 1, 3, 4)] * 2))  # a repeat cancels
@example((4, [(2, 1, 3, 4)] * 3 + [(1, 2, 3, 4)]))
def test_pair_sum_is_the_xor_of_pair_indicators(case):
    n, perms = case
    expected = xor_all(map(pair_indicator, perms), PairVector.zero(n))
    assert pair_sum(n, [incident_mask(p) for p in perms]) == expected


# ---------------------------------------------------------------------------
# compact pair coordinates

def test_pair_coordinates_sizes():
    sizes = {n: len(pair_coordinates(n)) for n in range(1, 8)}
    assert sizes == {1: 0, 2: 2, 3: 18, 4: 108, 5: 620, 6: 2790, 7: 9702}
    for n in range(1, 8):
        coords = pair_coordinates(n)
        assert list(coords) == sorted(coords)
        assert list(coords.values()) == list(range(len(coords)))
    with pytest.raises(TypeError):
        pair_coordinates(3)[0, 0] = 0  # one table shared by every caller


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_coordinates_are_the_met_upper_pairs(n):
    met = {
        (e, e2)
        for _, _, edges in permutation_table(n)
        for a, e in enumerate(edges)
        for e2 in edges[a:]
    }
    assert set(pair_coordinates(n)) == met


@settings(max_examples=80, deadline=None)
@given(permutation_lists())
@example((5, [(3, 1, 4, 5, 2), (5, 4, 3, 2, 1)]))
def test_compact_row_is_the_upper_triangle_gather(case):
    # the gather loses nothing on the span: scattering it back, mirrored,
    # gives the full vector again
    n, perms = case
    coords = pair_coordinates(n)
    rows = [_pair_row(coords, p) for p in perms]
    for p, row in zip(perms, rows):
        assert row == upper_triangle_gather(pair_indicator(p), coords)
        assert row.bit_count() == n * (n - 1) // 2
    g = pair_sum(n, [incident_mask(p) for p in perms])
    compact = xor_all(rows, 0)
    assert compact == upper_triangle_gather(g, coords)
    assert symmetric_scatter(n, compact, coords) == g


@pytest.mark.parametrize("n, seed, k", [(4, 0, 16), (5, 1, 60), (5, 2, 90), (6, 3, 200)])
def test_compact_rank_equals_the_full_vector_rank(n, seed, k):
    # the same extend-or-dependent decision at every insert, so a greedy
    # selection over either gives the same permutations
    rng = random.Random(seed)
    perms = rng.sample(all_permutations(n), k)
    coords = pair_coordinates(n)
    compact = Gf2Basis(len(coords))
    full = Gf2Basis(edge_space_size(n) ** 2)
    for p in perms:
        assert (
            compact.insert_raw(_pair_row(coords, p)).extended
            == full.insert(pair_indicator(p)).extended
        )
    assert compact.rank == full.rank


def test_indicator_rejects_non_permutation():
    with pytest.raises(ValueError):
        edge_indicator((1, 1, 3))
    with pytest.raises(ValueError):
        pair_indicator((1, 2, 4))


def test_vectors_reject_bits_outside_their_length():
    assert EdgeVector(3, (1 << 18) - 1).length == 18
    assert PairVector(3, (1 << 324) - 1).length == 324
    for bad in (
        lambda: EdgeVector(3, 1 << 18),
        lambda: PairVector(3, 1 << 324),
        lambda: EdgeVector(3, -1),
        lambda: PairVector(3, -1),
    ):
        with pytest.raises(ValueError):
            bad()


def test_basis_rejects_vector_of_other_length():
    with pytest.raises(LengthMismatchError):
        Gf2Basis(18).insert(pair_indicator(identity(3)))
    assert Gf2Basis(324).insert(pair_indicator(identity(3))).extended


def test_xor_needs_same_kind_and_order():
    with pytest.raises(TypeError):
        EdgeVector(3) ^ EdgeVector(4)
    with pytest.raises(TypeError):
        EdgeVector(3) ^ PairVector(3)
    assert EdgeVector(3, 0b110) ^ EdgeVector(3, 0b011) == EdgeVector(3, 0b101)


# ---------------------------------------------------------------------------
# diagonal and row maps

def test_diagonal_zero_and_linearity():
    n = 3
    assert diagonal(PairVector.zero(n)).is_zero()
    p1, p2 = (1, 2, 3), (2, 3, 1)
    lhs = diagonal(pair_indicator(p1) ^ pair_indicator(p2))
    assert lhs == edge_indicator(p1) ^ edge_indicator(p2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_diagonal_matches_per_bit_reference(n, rnd):
    size = edge_space_size(n)
    last = (size - 1) * (size + 1)  # bit (e, e) of the last edge, the top bit
    for top in (0, 1):
        bits = rnd.getrandbits(size * size) & ~(1 << last) | top << last
        got = diagonal(PairVector(n, bits))
        for e in range(size):
            assert got.bits >> e & 1 == bits >> (e * size + e) & 1
        assert got.bits >> (size - 1) == top


def test_row_at_incident_edge_recovers_indicator():
    g = pair_indicator(identity(3))
    assert row_at(g, Edge(1, 2, 1)) == edge_indicator(identity(3))


def test_row_at_non_incident_edge_is_zero():
    g = pair_indicator(identity(3))
    assert row_at(g, Edge(2, 1, 1)).is_zero()


def test_row_at_rejects_invalid_edge():
    with pytest.raises(ValueError):
        row_at(pair_indicator(identity(3)), Edge(1, 1, 3))


def test_row_symmetry_on_random_spans():
    rng = random.Random(3)
    n = 3
    perms = all_permutations(n)
    for _ in range(20):
        g = xor_all(
            [pair_indicator(p) for p in perms if rng.randrange(2)],
            PairVector.zero(n),
        )
        for e in incident_edges(perms[rng.randrange(len(perms))]):
            for e2 in incident_edges(perms[rng.randrange(len(perms))]):
                assert row_at(g, e).get(e2) == row_at(g, e2).get(e)


def test_row_linearity():
    p1, p2 = (1, 2, 3), (3, 1, 2)
    e = Edge(1, 2, 1)
    lhs = row_at(pair_indicator(p1) ^ pair_indicator(p2), e)
    assert lhs == row_at(pair_indicator(p1), e) ^ row_at(pair_indicator(p2), e)


# ---------------------------------------------------------------------------
# value functional

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_value_of_indicators(n):
    for p in all_permutations(n):
        assert value(edge_indicator(p)) == 1
        assert value_pair(pair_indicator(p)) == 1


def test_value_of_zero():
    assert value(EdgeVector.zero(4)) == 0
    assert value_pair(PairVector.zero(4)) == 0


@pytest.mark.parametrize("n", [4, 5])
def test_value_counts_parity(n):
    rng = random.Random(n)
    perms = all_permutations(n)
    for _ in range(30):
        k = rng.randrange(1, 8)
        chosen = rng.sample(perms, k)
        f = xor_all([edge_indicator(p) for p in chosen], EdgeVector.zero(n))
        g = xor_all([pair_indicator(p) for p in chosen], PairVector.zero(n))
        assert value(f) == k % 2
        assert value_pair(g) == k % 2


def test_common_edge_value_exhaustive_order3():
    # when e is incident on every permutation in the sum, the value can be
    # read off at e
    perms = all_permutations(3)
    for mask in range(1, 1 << len(perms)):
        chosen = [perms[k] for k in range(len(perms)) if (mask >> k) & 1]
        common = set(incident_edges(chosen[0]))
        for p in chosen[1:]:
            common &= set(incident_edges(p))
        if not common:
            continue
        f = xor_all([edge_indicator(p) for p in chosen], EdgeVector.zero(3))
        g = xor_all([pair_indicator(p) for p in chosen], PairVector.zero(3))
        for e in common:
            assert value(f) == f.get(e)
            assert value_pair(g) == g.get(e, e)


@pytest.mark.parametrize("n", [4, 5])
def test_common_edge_value_random(n):
    rng = random.Random(10 + n)
    perms = all_permutations(n)
    for _ in range(40):
        anchor = perms[rng.randrange(len(perms))]
        e = incident_edges(anchor)[rng.randrange(n - 1)]
        sharing = [p for p in perms if e in incident_edges(p)]
        chosen = [p for p in sharing if rng.randrange(2)]
        if not chosen:
            continue
        f = xor_all([edge_indicator(p) for p in chosen], EdgeVector.zero(n))
        g = xor_all([pair_indicator(p) for p in chosen], PairVector.zero(n))
        assert value(f) == f.get(e)
        assert value_pair(g) == g.get(e, e)


# ---------------------------------------------------------------------------
# cycles

def test_two_indicator_sum_is_cycle():
    g = pair_indicator((1, 2, 3)) ^ pair_indicator((2, 1, 3))
    assert is_cycle(g)
    f = edge_indicator((1, 2, 3)) ^ edge_indicator((2, 1, 3))
    assert is_cycle(f)


def test_closed_cycle_implies_cycle_and_sums_stay_closed():
    n = 4
    perms = all_permutations(n)
    rng = random.Random(9)
    closed = []
    for _ in range(50):
        chosen = [p for p in perms if rng.randrange(2)]
        g = xor_all([pair_indicator(p) for p in chosen], PairVector.zero(n))
        if is_closed_cycle(g):
            closed.append(g)
            assert is_cycle(g)
    for a in closed:
        for b in closed:
            assert is_closed_cycle(a ^ b)


# ---------------------------------------------------------------------------
# support

def test_support_of_indicator_is_incident_edge_set():
    for p in all_permutations(4):
        assert support(pair_indicator(p)) == frozenset(incident_edges(p))


def test_support_of_zero():
    g = PairVector.zero(3)
    assert support(g) == frozenset()
    assert is_supported_in(g, TimeGraph.empty(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_support_mask_matches_per_row_reference(n, rnd):
    # order 1 has no edges; sparse rows leave some rows zero, and the top
    # bit sits in the last row
    size = edge_space_size(n)
    rows = [rnd.getrandbits(size) if rnd.randrange(2) else 0 for _ in range(size)]
    sparse = sum(r << (e * size) for e, r in enumerate(rows))
    last = 1 << (size * size - 1) if size else 0
    for bits in (0, sparse, last, sparse | last):
        want = sum(1 << e for e in range(size) if bits >> (e * size) & ((1 << size) - 1))
        assert support_mask(PairVector(n, bits)) == want


def test_incident_combinations_are_supported():
    T = reduce_hamp(path_graph(4))
    rng = random.Random(2)
    perms = incident_permutations(T)
    assert perms
    for _ in range(20):
        g = xor_all(
            [pair_indicator(p) for p in perms if rng.randrange(2)],
            PairVector.zero(4),
        )
        assert is_supported_in(g, T)


def test_is_supported_in_rejects_order_mismatch():
    with pytest.raises(ValueError):
        is_supported_in(PairVector.zero(3), TimeGraph.empty(4))


@pytest.mark.parametrize("n", [3, 4])
def test_symmetry_on_span_samples(n):
    rng = random.Random(n)
    perms = all_permutations(n)
    for _ in range(10):
        g = xor_all(
            [pair_indicator(p) for p in perms if rng.randrange(2)],
            PairVector.zero(n),
        )
        assert is_symmetric(g)


# ---------------------------------------------------------------------------
# span dimensions used downstream

def test_rank_of_order3_indicators():
    from helpers import rank_oracle

    perms = all_permutations(3)
    rows = [edge_indicator(p) for p in perms]
    assert rank(rows) == 6
    # cross-check by an unrelated elimination on the transposed matrix
    transposed = [
        sum(((row.bits >> c) & 1) << r for r, row in enumerate(rows)) for c in range(18)
    ]
    assert rank_oracle(transposed, len(rows)) == 6
    assert rank([pair_indicator(p) for p in perms]) == 6
