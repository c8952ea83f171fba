import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtg.gf2 import (
    BitVec,
    Gf2Basis,
    LengthMismatchError,
    rank,
    solve_system,
)

from helpers import in_span_oracle, rank_oracle


def bv(length, *indices):
    return BitVec.from_indices(length, indices)


# ---------------------------------------------------------------------------
# BitVec

def test_bitvec_basics():
    v = bv(10, 0, 3, 9)
    assert v.popcount() == 3
    assert v.indices() == (0, 3, 9)
    assert v.get(3) == 1 and v.get(4) == 0
    assert (v ^ v).popcount() == 0
    assert v.with_bit(4).get(4) == 1
    assert v.with_bit(0, 0).get(0) == 0


def test_bitvec_rejects_overflow():
    with pytest.raises(ValueError):
        BitVec(4, 1 << 4)
    with pytest.raises(ValueError):
        BitVec(-1, 0)
    with pytest.raises(IndexError):
        bv(4).get(4)


def test_bitvec_length_mismatch():
    with pytest.raises(LengthMismatchError):
        bv(4, 1) ^ bv(5, 1)


def test_bitvec_hex_roundtrip():
    v = bv(33, 0, 31, 32)
    assert BitVec.from_hex(33, v.to_hex()) == v


# ---------------------------------------------------------------------------
# incremental basis

def test_insert_zero_vector_is_dependent_empty():
    basis = Gf2Basis(8)
    res = basis.insert(bv(8))
    assert not res.extended
    assert basis.coords(bv(8)) == ()


def test_insert_duplicate_reports_first():
    basis = Gf2Basis(8)
    assert basis.insert(bv(8, 0)).extended
    res = basis.insert(bv(8, 0))
    assert not res.extended
    assert basis.coords(bv(8, 0)) == (0,)


def test_insert_xor_identity():
    basis = Gf2Basis(8)
    assert basis.insert(bv(8, 0)).extended
    assert basis.insert(bv(8, 1)).extended
    res = basis.insert(bv(8, 0, 1))
    assert not res.extended
    assert basis.coords(bv(8, 0, 1)) == (0, 1)
    assert basis.rank == 2


def test_coords_unit_and_zero():
    basis = Gf2Basis(12)
    vecs = [bv(12, 0, 5), bv(12, 1, 5), bv(12, 2, 7, 9)]
    for v in vecs:
        basis.insert(v)
    for k, v in enumerate(vecs):
        assert basis.coords(v) == (k,)
    assert basis.coords(bv(12)) == ()
    assert basis.coords(bv(12, 11)) is None


def test_coords_recover_random_combination():
    rng = random.Random(11)
    basis = Gf2Basis(40)
    originals = []
    while basis.rank < 8:
        v = BitVec(40, rng.getrandbits(40))
        if basis.insert(v).extended:
            originals.append(v)
    picked = (1, 4, 6)
    target = originals[1] ^ originals[4] ^ originals[6]
    assert basis.coords(target) == picked


def test_basis_length_mismatch():
    with pytest.raises(LengthMismatchError):
        Gf2Basis(4).insert(bv(5, 0))


# ---------------------------------------------------------------------------
# rank

def test_rank_unit_vectors():
    assert rank([bv(6, k) for k in range(4)]) == 4


def test_rank_duplicates():
    assert rank([bv(6, 1, 2), bv(6, 1, 2)]) == 1


def test_rank_empty():
    assert rank([]) == 0


def test_rank_mixed_lengths_rejected():
    with pytest.raises(LengthMismatchError):
        rank([bv(4, 0), bv(5, 0)])


def test_rank_agrees_with_independent_elimination():
    # two unrelated routines on the matrix and its transpose must agree
    rng = random.Random(5)
    rows = [rng.getrandbits(30) for _ in range(20)]
    vecs = [BitVec(30, r) for r in rows]
    transposed = [
        sum(((rows[r] >> c) & 1) << r for r in range(20)) for c in range(30)
    ]
    assert rank(vecs) == rank_oracle(transposed, 20)


# ---------------------------------------------------------------------------
# solve_system

def test_solve_identity_system():
    res = solve_system([1 << k for k in range(5)], [0, 1, 0, 1, 0], 5)
    assert res.consistent
    assert res.x == 0b01010
    assert res.nullspace == ()
    assert res.rank == 5


def test_solve_zero_matrix_inconsistent():
    res = solve_system([0, 0, 0], [1, 0, 0], 4)
    assert not res.consistent
    assert res.x is None
    assert res.rank == 0


def test_solve_zero_matrix_zero_rhs():
    res = solve_system([0, 0, 0], [0, 0, 0], 4)
    assert res.consistent
    assert res.x == 0
    assert res.nullspace == (0b0001, 0b0010, 0b0100, 0b1000)


def test_solve_planted_20x30():
    rng = random.Random(17)
    nrows, nvars = 20, 30
    eq_rows = [rng.getrandbits(nvars) for _ in range(nrows)]
    planted = rng.getrandbits(nvars)
    rhs = [(r & planted).bit_count() & 1 for r in eq_rows]
    res = solve_system(eq_rows, rhs, nvars)
    assert res.consistent
    for r, b in zip(eq_rows, rhs):
        assert (r & res.x).bit_count() & 1 == b
    for vec in res.nullspace:
        for r in eq_rows:
            assert (r & vec).bit_count() & 1 == 0
    # planted minus particular lies in the nullspace span
    assert in_span_oracle(planted ^ res.x, list(res.nullspace), nvars)


def test_solve_system_detects_inconsistency():
    res = solve_system([0b11, 0b11], [0, 1], 2)
    assert not res.consistent


def test_solve_system_rejects_wide_rows():
    with pytest.raises(ValueError):
        solve_system([0b100], [0], 2)


# ---------------------------------------------------------------------------
# properties

short_vecs = st.integers(min_value=0, max_value=(1 << 24) - 1)


@given(st.lists(short_vecs, min_size=1, max_size=10), st.randoms(use_true_random=False))
def test_coords_reconstruct(raw, rnd):
    basis = Gf2Basis(24)
    for r in raw:
        basis.insert(BitVec(24, r))
    originals = basis.originals
    picked = [k for k in range(len(originals)) if rnd.randrange(2)]
    target = 0
    for k in picked:
        target ^= originals[k].bits
    combo = basis.coords(BitVec(24, target))
    assert combo is not None
    back = 0
    for k in combo:
        back ^= originals[k].bits
    assert back == target


@given(st.lists(short_vecs, min_size=2, max_size=10), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(raw, rnd):
    vecs = [BitVec(24, r) for r in raw]
    base = rank(vecs)
    shuffled = vecs[:]
    rnd.shuffle(shuffled)
    assert rank(shuffled) == base
    a, b = rnd.randrange(len(vecs)), rnd.randrange(len(vecs))
    if a != b:
        replaced = vecs[:]
        replaced[a] = replaced[a] ^ replaced[b]
        assert rank(replaced) == base


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.randoms(use_true_random=False),
)
def test_solve_random_planted(nrows, nvars, rnd):
    eq_rows = [rnd.getrandbits(nvars) for _ in range(nrows)]
    planted = rnd.getrandbits(nvars)
    rhs = [(r & planted).bit_count() & 1 for r in eq_rows]
    res = solve_system(eq_rows, rhs, nvars)
    assert res.consistent
    assert res.x is not None
    for r, b in zip(eq_rows, rhs):
        assert (r & res.x).bit_count() & 1 == b
    for vec in res.nullspace:
        for r in eq_rows:
            assert (r & vec).bit_count() & 1 == 0


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=14),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_solve_system_matches_oracle(nvars, nrows, density, planted, rnd):
    # every output is pinned to its definition, not to a particular kernel
    eq_rows = [
        sum(1 << c for c in range(nvars) if rnd.random() < density)
        for _ in range(nrows)
    ]
    if planted:
        x0 = rnd.getrandbits(nvars)
        rhs = [(r & x0).bit_count() & 1 for r in eq_rows]
    else:
        rhs = [rnd.randrange(2) for _ in eq_rows]
    aug = [r | b << nvars for r, b in zip(eq_rows, rhs)]
    res = solve_system(eq_rows, rhs, nvars)
    rank_a = rank_oracle(eq_rows, nvars)
    assert res.consistent == (rank_a == rank_oracle(aug, nvars + 1))
    if not res.consistent:
        # the rank covers the rows before the first one that makes 0 = 1
        k = next(
            k for k in range(nrows)
            if rank_oracle(eq_rows[: k + 1], nvars) != rank_oracle(aug[: k + 1], nvars + 1)
        )
        assert res.rank == rank_oracle(eq_rows[:k], nvars)
        assert res.x is None and res.nullspace == ()
        return
    assert res.rank == rank_a
    assert len(res.nullspace) == nvars - rank_a
    # free variables: the columns where the prefix column rank does not grow
    free = [
        c for c in range(nvars)
        if rank_oracle([r & ((2 << c) - 1) for r in eq_rows], c + 1)
        == rank_oracle([r & ((1 << c) - 1) for r in eq_rows], c)
    ]
    free_mask = sum(1 << c for c in free)
    assert res.x & free_mask == 0
    for r, b in zip(eq_rows, rhs):
        assert (r & res.x).bit_count() & 1 == b
    for f, vec in zip(free, res.nullspace):
        assert vec & free_mask == 1 << f
        for r in eq_rows:
            assert (r & vec).bit_count() & 1 == 0
