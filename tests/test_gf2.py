import functools
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamtg.gf2 import (
    BitVec,
    Gf2Basis,
    LengthMismatchError,
    _keep,
    bit_indices,
    column_echelon,
    rank,
    solve_system,
)

from helpers import in_span_oracle, nullspace_reference, prefix_rank_profile, rank_oracle


def bv(length, *indices):
    return BitVec.from_indices(length, indices)


# ---------------------------------------------------------------------------
# BitVec

def test_bitvec_basics():
    v = bv(10, 0, 3, 9)
    assert v.bits == 0b1000001001
    assert v.get(3) == 1 and v.get(4) == 0
    assert (v ^ v).bits == 0


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
    basis = Gf2Basis(4)
    basis.insert(bv(4, 1))
    for method in (basis.insert, basis.coords, basis.contains):
        for v in (bv(5, 0), bv(3, 0), bv(0)):
            with pytest.raises(LengthMismatchError):
                method(v)
    assert basis.rank == 1


def test_raw_entry_points_reject_bits_beyond_length():
    # the k-th original is kept at bit length + k of each row, so a stray
    # bit there would be read as a combination of originals
    for length in (0, 1, 4):
        basis = Gf2Basis(length)
        for k in range(length):
            basis.insert_raw(1 << k)
        for bits in (1 << length, 1 << length | 1, 1 << (2 * length + 1), -1):
            with pytest.raises(ValueError):
                basis.insert_raw(bits)
            with pytest.raises(ValueError):
                basis.coords_raw(bits)
        assert basis.rank == length
        assert basis.coords_raw((1 << length) - 1) == tuple(range(length))


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
# column_echelon: the rank profile, its sorted pivots

def _columns(rows, length):
    return [sum((r >> c & 1) << i for i, r in enumerate(rows)) for c in range(length)]


def column_rank_profile(cols, nrows):
    """The rank profile column_echelon reads off untagged columns."""
    return sorted(column_echelon([(c, 0) for c in cols], nrows)[0])


def test_column_rank_profile_small_cases():
    # (length, rows, kept): both shapes, zero rows, duplicates, no rows
    cases = [
        (0, [], []),
        (3, [], []),
        (0, [0, 0], []),
        (2, [0, 0, 0], []),
        (4, [0, 0b0110, 0b0110, 0], [1]),
        (2, [0b01, 0b01, 0b10, 0b11, 0b10], [0, 2]),
        (3, [0b011, 0, 0b101, 0b110, 0b011, 0b100], [0, 2, 5]),
        (5, [0b10000, 0b00001, 0b10001], [0, 1]),
    ]
    for length, rows, kept in cases:
        assert column_rank_profile(_columns(rows, length), len(rows)) == kept, (length, rows)


profile_cases = st.integers(0, 10).flatmap(
    lambda length: st.tuples(
        st.just(length),
        st.lists(st.one_of(st.just(0), st.integers(0, (1 << length) - 1)), max_size=16),
    )
)


@settings(max_examples=150, deadline=None)
@given(profile_cases, st.randoms(use_true_random=False))
@example((0, []), random.Random(0))
@example((3, [5, 0, 5, 3, 6, 6, 0]), random.Random(0))
@example((8, [0, 9, 9, 0]), random.Random(0))
def test_rank_profile_matches_prefix_ranks(case, rnd):
    length, rows = case
    for _ in range(rnd.randrange(4)):  # duplicate rows
        if rows:
            rows.insert(rnd.randrange(len(rows) + 1), rnd.choice(rows))
    kept = column_rank_profile(_columns(rows, length), len(rows))
    assert kept == prefix_rank_profile(rows, length)
    # the kept rows are independent and span every row, original j at coordinate j
    basis = Gf2Basis(length)
    for i in kept:
        assert basis.insert_raw(rows[i]).extended
    for j, i in enumerate(kept):
        assert basis.coords_raw(rows[i]) == (j,)
    assert all(basis.coords_raw(r) is not None for r in rows)


@settings(max_examples=150, deadline=None)
@given(profile_cases, st.randoms(use_true_random=False))
def test_column_rank_profile_matches_prefix_ranks(case, rnd):
    # the same profile read off the columns, in any order, zero ones left out
    length, rows = case
    cols = [c for c in _columns(rows, length) if c]
    rnd.shuffle(cols)
    kept = column_rank_profile(cols, len(rows))
    assert kept == prefix_rank_profile(rows, length)
    ranks = [rank_oracle(rows[:i], length) for i in range(len(rows) + 1)]
    assert kept == [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]


def test_column_rank_profile_rejects_tall_columns():
    for cols in ([0b100], [0, 0b1, 0b100], [-1]):
        with pytest.raises(ValueError):
            column_rank_profile(cols, 2)


# ---------------------------------------------------------------------------
# column_echelon: the dependencies of tagged columns

def column_dependencies(cols, nrows):
    return column_echelon(cols, nrows)[1]


def kernel(rows, nvars):
    """The nullspace of rows, one vector per free variable, ascending: the
    column_dependencies of their columns, column v tagged 1 << v."""
    cols = [(c, 1 << v) for v, c in enumerate(_columns(rows, nvars))]
    return tuple(d for d in column_dependencies(cols, len(rows)) if d is not None)


def test_column_dependencies_small_cases():
    assert column_dependencies([], 0) == [] and kernel([], 0) == ()
    # one row, x1 = 0, over three variables: x0 and x2 are free
    assert column_dependencies([(0, 1), (1, 2), (0, 4)], 1) == [0b001, None, 0b100]
    # a tag is returned as given, with the tags of the columns it sums
    assert column_dependencies([(0b11, 5), (0b01, 6), (0b10, 8)], 2) == [None, None, 5 ^ 6 ^ 8]
    assert column_dependencies([(0, 0)], 3) == [0]


def test_column_dependencies_rejects_tall_columns():
    for cols in ([(0b100, 1)], [(0, 1), (0b1, 2), (0b100, 4)], [(-1, 1)]):
        with pytest.raises(ValueError):
            column_dependencies(cols, 2)


kernel_cases = st.integers(0, 12).flatmap(
    lambda nvars: st.tuples(
        st.just(nvars),
        st.lists(st.integers(0, (1 << nvars) - 1), max_size=12),
        st.integers(0, (1 << nvars) - 1),
        st.integers(0, (1 << nvars) - 1),
        st.lists(st.integers(0, (1 << 20) - 1), min_size=nvars, max_size=nvars),
    )
)


@settings(max_examples=200, deadline=None)
@given(kernel_cases)
@example((4, [0b0110, 0b0110], 0b1111, 0b1001, [3, 5, 7, 9]))
@example((5, [0b10011, 0b01001], 0b11011, 0b00100, [0] * 5))
def test_column_dependencies_match_back_substitution(case):
    # rows over the variables of used, so the others are in no row; the
    # skipped variables are among those, as contracted variables are in
    # no wide row, and their columns are left out
    nvars, raw, used, skip, high = case
    rows = [r & used for r in raw]
    skip &= ~used
    reference = nullspace_reference(rows, nvars, skip)
    cols = _columns(rows, nvars)
    kept = [v for v in range(nvars) if not skip >> v & 1]
    deps = column_dependencies([(cols[v], 1 << v) for v in kept], len(rows))
    assert tuple(d for d in deps if d is not None) == reference
    assert sum(d is None for d in deps) == rank_oracle(rows, nvars)
    if skip == 0:
        assert kernel(rows, nvars) == reference
    # with tags above the variables, each dependency's high part is the xor
    # of the high tags over its low part's bits, and its low part is as before
    tagged = column_dependencies([(cols[v], 1 << v | high[v] << nvars) for v in kept], len(rows))
    assert [d is None for d in tagged] == [d is None for d in deps]
    low = (1 << nvars) - 1
    for d, t in zip(deps, tagged):
        if d is not None:
            assert t & low == d
            assert t >> nvars == functools.reduce(
                operator.xor, (high[v] for v in bit_indices(d)), 0
            )


@settings(max_examples=150, deadline=None)
@given(profile_cases)
def test_column_echelon_pivots_are_the_extending_columns(case):
    # column v tagged 1 << v: one pivot per column that extended the span,
    # keyed by its lowest row, whose tags name extending columns summing to it
    length, rows = case
    cols = _columns(rows, length)
    pivots, deps = column_echelon([(c, 1 << v) for v, c in enumerate(cols)], len(rows))
    extending = {v for v, d in enumerate(deps) if d is None}
    assert len(pivots) == len(extending) == rank_oracle(rows, length)
    low = (1 << len(rows)) - 1
    for p, r in pivots.items():
        assert (r & low) & -(r & low) == 1 << p
        assert set(bit_indices(r >> len(rows))) <= extending
        assert functools.reduce(
            operator.xor, (cols[v] for v in bit_indices(r >> len(rows))), 0
        ) == r & low


# ---------------------------------------------------------------------------
# solve_system

def test_solve_identity_system():
    res = solve_system([1 << k for k in range(5)], [0, 1, 0, 1, 0], 5)
    assert res.consistent
    assert res.x == 0b01010
    assert kernel([1 << k for k in range(5)], 5) == ()
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
    assert kernel([0, 0, 0], 4) == (0b0001, 0b0010, 0b0100, 0b1000)


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
    null = kernel(eq_rows, nvars)
    for vec in null:
        for r in eq_rows:
            assert (r & vec).bit_count() & 1 == 0
    # planted minus particular lies in the nullspace span
    assert in_span_oracle(planted ^ res.x, list(null), nvars)


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
    originals = [r for r in raw if basis.insert(BitVec(24, r)).extended]
    picked = [k for k in range(len(originals)) if rnd.randrange(2)]
    target = 0
    for k in picked:
        target ^= originals[k]
    combo = basis.coords(BitVec(24, target))
    assert combo is not None
    back = 0
    for k in combo:
        back ^= originals[k]
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
    for vec in kernel(eq_rows, nvars):
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
    # free variables: the columns where the prefix column rank does not grow
    free = [
        c for c in range(nvars)
        if rank_oracle([r & ((2 << c) - 1) for r in eq_rows], c + 1)
        == rank_oracle([r & ((1 << c) - 1) for r in eq_rows], c)
    ]
    free_mask = sum(1 << c for c in free)
    # the nullspace does not depend on the rhs, so it is checked either way
    null = kernel(eq_rows, nvars)
    assert len(null) == nvars - rank_a
    for f, vec in zip(free, null):
        assert vec & free_mask == 1 << f
        for r in eq_rows:
            assert (r & vec).bit_count() & 1 == 0
    assert res.consistent == (rank_a == rank_oracle(aug, nvars + 1))
    if not res.consistent:
        # the rank covers the rows before the first one that makes 0 = 1
        k = next(
            k for k in range(nrows)
            if rank_oracle(eq_rows[: k + 1], nvars) != rank_oracle(aug[: k + 1], nvars + 1)
        )
        assert res.rank == rank_oracle(eq_rows[:k], nvars)
        assert res.x is None
        return
    assert res.rank == rank_a
    assert res.x & free_mask == 0
    for r, b in zip(eq_rows, rhs):
        assert (r & res.x).bit_count() & 1 == b


# ---------------------------------------------------------------------------
# the shared reduction step, under each tag convention: the originals above
# the basis length, no tags, the rhs at bit nvars, a row index above the
# columns


def test_tiny_bases():
    empty = Gf2Basis(0)
    assert not empty.insert_raw(0).extended
    assert empty.rank == 0
    assert empty.coords_raw(0) == () and empty.contains(bv(0))
    one = Gf2Basis(1)
    assert one.coords_raw(1) is None and not one.contains(bv(1, 0))
    assert one.insert_raw(1).extended and not one.insert_raw(1).extended
    assert not one.insert_raw(0).extended
    assert one.rank == 1
    assert one.coords_raw(1) == (0,) and one.coords_raw(0) == ()
    assert one.contains(bv(1, 0))


basis_cases = st.integers(0, 9).flatmap(
    lambda length: st.tuples(
        st.just(length),
        st.lists(st.integers(0, (1 << length) - 1), max_size=12),
        st.lists(st.integers(0, (1 << length) - 1), max_size=6),
    )
)


@settings(max_examples=150, deadline=None)
@given(basis_cases)
def test_basis_steps_match_rank_oracle(case):
    length, inserted, queries = case
    basis = Gf2Basis(length)
    originals = []
    for r in inserted:
        grows = rank_oracle(originals + [r], length) > len(originals)
        assert basis.insert_raw(r).extended == grows
        if grows:
            originals.append(r)
        assert basis.rank == len(originals)
    for r in queries + inserted:
        combo = basis.coords_raw(r)
        assert basis.contains(BitVec(length, r)) == (combo is not None)
        if rank_oracle(originals + [r], length) > len(originals):
            assert combo is None
            continue
        assert list(combo) == sorted(set(combo))
        back = 0
        for k in combo:
            back ^= originals[k]
        assert back == r


def test_solve_system_finds_zero_equals_one_after_hitting_pivots():
    # the last row meets every pivot before it is left as 0 = 1
    for nvars, rows, rhs in (
        (2, [0b11, 0b10, 0b01], [1, 0, 0]),
        (3, [0b011, 0b110, 0b100, 0b101], [1, 0, 0, 0]),
    ):
        aug = [r | b << nvars for r, b in zip(rows, rhs)]
        assert rank_oracle(aug, nvars + 1) > rank_oracle(rows, nvars)
        assert solve_system(rows[:-1], rhs[:-1], nvars).consistent
        res = solve_system(rows, rhs, nvars)
        assert not res.consistent and res.rank == rank_oracle(rows[:-1], nvars)


@settings(max_examples=150, deadline=None)
@given(profile_cases)
def test_keep_leaves_the_tags_of_a_dependent_row(case):
    # row i carries bit length + i; a row that is not kept is left with the
    # tags of rows before it, and itself, whose columns sum to zero
    length, rows = case
    pivots = {}
    for i, r in enumerate(rows):
        grows = rank_oracle(rows[: i + 1], length) > rank_oracle(rows[:i], length)
        left = _keep(pivots, r | 1 << (length + i), length)
        assert (left is None) == grows
        if left is not None:
            assert left & ((1 << length) - 1) == 0 and left >> (length + i) == 1
            assert functools.reduce(
                operator.xor, (rows[j] for j in bit_indices(left >> length)), 0
            ) == 0
    assert len(pivots) == rank_oracle(rows, length)
