import copy
import hashlib
import json
import pickle
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtg import canonical
from hamtg.canonical import (
    InternalInconsistencyError,
    build_canonical_basis,
    decompose,
    tail_sum_check,
)
from hamtg.gf2 import bit_indices, rank
from hamtg.lab import (
    random_graph,
    random_time_graph,
    sample_incident_combination,
    sample_supported_element,
    supported_coefficient_space,
)
from hamtg.liftbasis import build_basis
from hamtg.permvec import (
    PairVector,
    diagonal,
    edge_indicator,
    pair_indicator,
    pair_sum,
    value,
)
from hamtg.timegraph import (
    Edge,
    OracleScaleError,
    TimeGraph,
    all_permutations,
    edge_index,
    edge_space_size,
    incident_mask,
    incident_permutations,
    permutation_table,
    reduce_hamp,
)

from helpers import canonical_layers_reference, inserted_basis_alpha, path_graph


def random_instance(n, rng):
    """Random time-graph plus a random enumeration of its complement."""
    G = TimeGraph(n, rng.getrandbits(n * n * (n - 1)))
    order = G.complement_indices()
    rng.shuffle(order)
    return G, order


def random_supported(G, rng):
    g = PairVector.zero(G.n)
    for p in incident_permutations(G):
        if rng.randrange(2):
            g = g ^ pair_indicator(p)
    return g


# ---------------------------------------------------------------------------
# construction

def test_complete_graph_gives_single_layer():
    n = 4
    cb = build_canonical_basis(TimeGraph.complete(n))
    assert cb.k == 0
    assert len(cb.layers) == 1
    full_rank = rank([edge_indicator(p) for p in all_permutations(n)])
    assert cb.d == (full_rank,)
    assert cb.rank == full_rank


def test_empty_graph_layer_zero_is_empty():
    cb = build_canonical_basis(TimeGraph.empty(3))
    assert cb.d[0] == 0
    # all layers together still span the full space
    assert cb.rank == rank([edge_indicator(p) for p in all_permutations(3)])


def test_reduced_path_layer_zero():
    T = reduce_hamp(path_graph(3))
    cb = build_canonical_basis(T)
    assert cb.d[0] == 2
    assert {el.perm for el in cb.layers[0]} == {(1, 2, 3), (3, 2, 1)}
    assert cb.rank == rank([edge_indicator(p) for p in all_permutations(3)])


def test_layer_elements_use_their_complement_edge():
    rng = random.Random(4)
    for _ in range(5):
        G, order = random_instance(4, rng)
        cb = build_canonical_basis(G, order=order)
        for li, layer in enumerate(cb.layers):
            if li == 0:
                continue
            bit = 1 << cb.order[li - 1]
            cur = G.edges
            for idx in cb.order[:li]:
                cur |= 1 << idx
            for el in layer:
                m = incident_mask(el.perm)
                assert m & bit  # the new edge is incident on the permutation
                assert m & cur == m  # and the permutation is incident on G_l


@pytest.mark.parametrize("n", [3, 4])
def test_prefix_layers_span_intermediate_graphs(n):
    rng = random.Random(20 + n)
    for _ in range(4):
        G, order = random_instance(n, rng)
        cb = build_canonical_basis(G, order=order)
        cur = G.edges
        running = []
        for li in range(len(cb.layers)):
            if li > 0:
                cur |= 1 << cb.order[li - 1]
            running.extend(edge_indicator(el.perm) for el in cb.layers[li])
            G_l = TimeGraph(n, cur)
            brute = rank(
                [edge_indicator(p) for p in incident_permutations(G_l)]
            )
            assert rank(list(running)) == brute
            assert len(running) == sum(cb.d[: li + 1])


def test_layer_counts_are_dimension_increments():
    rng = random.Random(31)
    G, order = random_instance(4, rng)
    cb = build_canonical_basis(G, order=order)
    cur = G.edges
    prev_dim = rank([edge_indicator(p) for p in incident_permutations(G)])
    assert cb.d[0] == prev_dim
    for li in range(1, len(cb.layers)):
        cur |= 1 << cb.order[li - 1]
        dim = rank(
            [edge_indicator(p) for p in incident_permutations(TimeGraph(4, cur))]
        )
        assert cb.d[li] == dim - prev_dim
        prev_dim = dim


def test_order7_edge_basis_rank_and_layers():
    # 211 is the dimension of the order-7 edge span; each element's layer is
    # the enumeration position of its last missing edge
    G, order = random_instance(7, random.Random(11))
    cb = build_canonical_basis(G, order=order, perm_seed=3)
    assert cb.rank == len(cb.elements) == 211
    position = {e: pos for pos, e in enumerate(order, 1)}
    for el in cb.elements:
        missing = bit_indices(incident_mask(el.perm) & ~G.edges)
        assert el.layer == max(map(position.__getitem__, missing), default=0)


def test_order_validation():
    G = reduce_hamp(path_graph(3))
    with pytest.raises(ValueError):
        build_canonical_basis(G, order=[0, 1])
    with pytest.raises(OracleScaleError):
        build_canonical_basis(TimeGraph.complete(9))


def test_perm_seed_changes_layer_content_not_rank():
    T = reduce_hamp(path_graph(4))
    a = build_canonical_basis(T)
    b = build_canonical_basis(T, perm_seed=5)
    assert a.rank == b.rank
    assert a.d[0] == b.d[0]


# the lengths where (i + 1).bit_length() changes, the edges of _shuffle's runs
RUN_EDGES = sorted({(1 << k) + d for k in range(10) for d in (-1, 0, 1)})
SEEDS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(max_size=12),
    st.builds(
        "{}:{}:{}:order:{}".format,
        st.integers(0, 99), st.integers(2, 8), st.integers(0, 999), st.integers(1, 3),
    ),
)


@settings(max_examples=300, deadline=None)
@given(length=st.one_of(st.sampled_from(RUN_EDGES), st.integers(0, 1000)), seed=SEEDS)
def test_shuffle_matches_random_shuffle(length, seed):
    got, want = list(range(length)), list(range(length))
    canonical._shuffle(got, seed)
    random.Random(seed).shuffle(want)
    assert got == want


@pytest.mark.parametrize("seed", [0, 2**40 + 3, "x", "1:6:7:order:1"])
def test_shuffle_draws_like_random_shuffle(monkeypatch, seed):
    # the same getrandbits calls in the same order, so the generators end
    # in the same state, at every run edge and at 7! = 5,040
    draws = []

    class Recording(random.Random):
        def getrandbits(self, k):
            r = super().getrandbits(k)
            draws.append((k, r))
            return r

    monkeypatch.setattr(canonical, "random", type("Module", (), {"Random": Recording}))
    for length in (*RUN_EDGES, 5040):
        got, want = list(range(length)), list(range(length))
        canonical._shuffle(got, seed)
        ours = draws[:]
        draws.clear()
        Recording(seed).shuffle(want)
        assert (got, ours) == (want, draws)
        draws.clear()


@pytest.mark.parametrize("n", range(2, 8))
def test_spanning_edges_span_the_edge_span(n):
    path = Path(__file__).resolve().parent.parent / "results" / "dimensions.json"
    row = next(r for r in json.loads(path.read_text())["rows"] if r["n"] == n)
    spanning, relations = canonical._spanning_edges(n)
    assert len(spanning) == row["dim_edge_span"]
    assert len(relations) == edge_space_size(n) - len(spanning)
    # each relation holds its own edge, the highest, outside the spanning set
    assert sorted(spanning + tuple(r.bit_length() - 1 for r in relations)) == list(
        range(edge_space_size(n))
    )
    spanning_mask = sum(1 << e for e in spanning)
    for rel in relations:
        assert rel >> (rel.bit_length() - 1) == 1
        assert rel & ~spanning_mask == 1 << (rel.bit_length() - 1)
    for _, mask, _ in permutation_table(n):
        assert not any((mask & rel).bit_count() & 1 for rel in relations)


def test_a_dependent_spanning_column_is_fatal(monkeypatch):
    spanning, relations = canonical._spanning_edges(4)
    canonical._lanes(4)  # kept per order, so built before the patch
    monkeypatch.setattr(
        canonical, "_spanning_edges", lambda n: (spanning + spanning[:1], relations)
    )
    with pytest.raises(InternalInconsistencyError, match="spanning column is dependent"):
        build_canonical_basis(reduce_hamp(path_graph(4)))


# ---------------------------------------------------------------------------
# layer rule: a permutation's layer is the position of its last missing edge

@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 5),
    st.randoms(use_true_random=False),
    st.one_of(st.none(), st.integers(0, 2**31 - 1)),
)
def test_builders_match_per_layer_rescan(n, rng, perm_seed):
    G, order = random_instance(n, rng)
    cb = build_canonical_basis(G, order=order, perm_seed=perm_seed)
    got = [(el.layer, el.slot, el.perm) for el in cb.elements]
    assert got == canonical_layers_reference(G, order, perm_seed, edge_indicator)


@pytest.mark.parametrize("seed", [0, 1])
def test_order6_edge_builder_matches_per_layer_rescan(seed):
    # 180 edge columns against 720 candidate rows: the column-elimination path
    rng = random.Random(f"order6:{seed}")
    G, order = random_instance(6, rng)
    perm_seed = None if seed == 0 else rng.randrange(2**31)
    cb = build_canonical_basis(G, order=order, perm_seed=perm_seed)
    got = [(el.layer, el.slot, el.perm) for el in cb.elements]
    assert got == canonical_layers_reference(G, order, perm_seed, edge_indicator)
    assert cb.rank == 121


def test_order7_edge_builder_matches_per_layer_rescan():
    # 211 spanning columns of 5,040 rows, transposed out of the lane table
    rng = random.Random("order7")
    G, order = random_instance(7, rng)
    perm_seed = rng.randrange(2**31)
    cb = build_canonical_basis(G, order=order, perm_seed=perm_seed)
    got = [(el.layer, el.slot, el.perm) for el in cb.elements]
    assert got == canonical_layers_reference(G, order, perm_seed, edge_indicator)
    assert cb.rank == 211


def test_builds_are_pinned():
    # layers and echelon rows of unseeded and seeded builds at orders 1-7;
    # at orders 1-3, n! is not a multiple of 8, so the last block is padded
    digest = hashlib.sha256()
    for n in range(1, 8):
        rng = random.Random(f"build-digest:{n}")
        G, order = random_instance(n, rng)
        for perm_seed in (None, 7, 2**40 + 3):
            cb = build_canonical_basis(G, order=order, perm_seed=perm_seed)
            digest.update(repr(cb.layers).encode())
            digest.update(repr([(low, row) for low, row, *_ in cb._kept]).encode())
    assert digest.hexdigest() == (
        "3d3ed839ffe6670dc2fa84f91b4d82bed28475aba4467ed3a12c23d09aa17479"
    )


def test_a_warm_order7_build_holds_no_list_of_n_factorial_powers_of_two():
    # an earlier builder kept 1 << i for each of the 5,040 candidate
    # positions; a warm build now peaks below that list's size alone
    G, order = random_instance(7, random.Random("memory"))
    build_canonical_basis(G, order=order, perm_seed=1)
    tracemalloc.start()
    try:
        build_canonical_basis(G, order=order, perm_seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(sys.getsizeof(1 << i) for i in range(5040))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_an_unread_basis_decomposes_compares_and_copies_as_a_read_one(n):
    # decompose reads the kept entries, so it builds no layers; reading
    # them, comparing or hashing leaves every slot as it was
    rng = random.Random(f"lazy-layers:{n}")
    G, order = random_instance(n, rng)
    perms = all_permutations(n)
    p, q = rng.sample(perms, 2)
    elements = [sample_incident_combination(G, rng), pair_indicator(p) ^ pair_indicator(q)]
    for enum in (None, order):
        perm_seed = rng.randrange(2**31)
        read = build_canonical_basis(G, order=enum, perm_seed=perm_seed)
        slots = [getattr(read, f) for f in type(read).__slots__]
        assert sum(map(len, read.layers)) == read.rank
        unread = build_canonical_basis(G, order=enum, perm_seed=perm_seed)
        for g in elements:
            assert decompose(g, unread) == decompose(g, read)
        clones = [copy.copy(unread), copy.deepcopy(unread), pickle.loads(pickle.dumps(unread))]
        for b in (unread, *clones):
            assert b == read and hash(b) == hash(read)
            assert b.rank == len(b.elements) == sum(b.d)
        assert [getattr(read, f) for f in type(read).__slots__] == slots


@pytest.mark.parametrize("n", range(1, 7))
def test_the_gates_layer0_read_matches_the_layers(n):
    # order 1 keeps no element at all
    rng = random.Random(f"layer0:{n}")
    graphs = [TimeGraph(n), TimeGraph(n, (1 << edge_space_size(n)) - 1)]
    graphs += [random_instance(n, rng)[0] for _ in range(3)]
    if n > 1:
        graphs.append(reduce_hamp(path_graph(n)))
    for G in graphs:
        for perm_seed in (None, 1):
            cb = build_canonical_basis(G, perm_seed=perm_seed)
            assert cb._layer0_empty == (not cb.layers[0])
    if n > 1:
        assert build_canonical_basis(graphs[0])._layer0_empty
        assert not build_canonical_basis(graphs[1])._layer0_empty


# ---------------------------------------------------------------------------
# decomposition

def test_decompose_basis_element_is_unit():
    cb = build_canonical_basis(reduce_hamp(path_graph(3)))
    el = cb.elements[0]
    dec = decompose(pair_indicator(el.perm), cb)
    assert dec.alpha == ((el.layer, el.slot),)
    assert dec.gc.is_zero()


def test_decompose_zero():
    cb = build_canonical_basis(reduce_hamp(path_graph(3)))
    dec = decompose(PairVector.zero(3), cb)
    assert dec.alpha == ()
    assert dec.gc.is_zero()
    assert all(f.is_zero() for f in dec.layer_sums)


@pytest.mark.parametrize("n", [4, 5])
def test_decompose_roundtrip(n):
    rng = random.Random(40 + n)
    G, order = random_instance(n, rng)
    cb = build_canonical_basis(G, order=order)
    perms = all_permutations(n)
    for _ in range(5):
        g = PairVector.zero(n)
        for _ in range(3):
            g = g ^ pair_indicator(perms[rng.randrange(len(perms))])
        dec = decompose(g, cb)
        assert diagonal(dec.gc).is_zero()
        back = dec.gc
        lookup = {(el.layer, el.slot): el for el in cb.elements}
        for key in dec.alpha:
            back = back ^ pair_indicator(lookup[key].perm)
        assert back == g
        # layer sums match their definition
        for li in range(len(cb.layers)):
            expected = 0
            for (l, s) in dec.alpha:
                if l == li:
                    expected ^= edge_indicator(lookup[(l, s)].perm).bits
            assert dec.layer_sums[li].bits == expected


def test_order6_gc_is_summed_on_first_read():
    rng = random.Random(46)
    G, order = random_instance(6, rng)
    cb = build_canonical_basis(G, order=order, perm_seed=rng.randrange(2**31))
    perms = all_permutations(6)
    lookup = {(el.layer, el.slot): el for el in cb.elements}
    for _ in range(3):
        g = PairVector.zero(6)
        for _ in range(3):
            g = g ^ pair_indicator(rng.choice(perms))
        dec = decompose(g, cb)
        assert type(dec._gc) is tuple
        clone = pickle.loads(pickle.dumps(dec))
        selected = [lookup[key].perm for key in dec.alpha]
        gc = dec.gc
        assert gc == g ^ pair_sum(6, [incident_mask(p) for p in selected])
        assert diagonal(gc).is_zero()
        assert dec._gc is gc is dec.gc  # summed once, then kept
        assert clone == dec and hash(clone) == hash(dec)
        back = gc
        for p in selected:
            back = back ^ pair_indicator(p)
        assert back == g


def test_a_wrong_mask_leaves_a_residual_that_is_not_a_closed_cycle():
    rng = random.Random(47)
    G, order = random_instance(5, rng)
    cb = build_canonical_basis(G, order=order)
    i = rng.randrange(cb.rank)
    el = cb.elements[cb.rank - 1 - i]  # _kept is highest pivot first
    table = permutation_table(5)
    low, row, k, layer, slot = cb._kept[i]
    assert table[k][:2] == (el.perm, incident_mask(el.perm))
    assert (layer, slot) == (el.layer, el.slot)
    # the entry reads another permutation's mask
    kept = list(cb._kept)
    kept[i] = (low, row, (k + 1) % len(table), layer, slot)
    tampered = type(cb)(cb.G, cb.order, cb.perm_seed, tuple(kept))
    g = pair_indicator(el.perm)
    assert decompose(g, cb).alpha == ((el.layer, el.slot),)
    with pytest.raises(InternalInconsistencyError, match="residual is not a closed cycle"):
        decompose(g, tampered)


def test_decompositions_are_pinned():
    # alpha, gc and layer sums under both enumerations, unseeded and seeded,
    # at orders 3-6, of an incident combination, a sum of two pair
    # indicators and one pair indicator; the last two reach layers above 0,
    # which the campaign pins never do.  gc is hashed as hex, since its
    # decimal repr exceeds int's default digit limit at order 6
    digest = hashlib.sha256()
    for n in range(3, 7):
        rng = random.Random(f"decompose-digest:{n}")
        G, order = random_instance(n, rng)
        perms = all_permutations(n)
        p, q = rng.sample(perms, 2)
        elements = [
            sample_incident_combination(G, rng),
            pair_indicator(p) ^ pair_indicator(q),
            pair_indicator(rng.choice(perms)),
        ]
        top = 0
        for enum in (None, order):
            for perm_seed in (None, rng.randrange(2**31)):
                cb = build_canonical_basis(G, order=enum, perm_seed=perm_seed)
                for g in elements:
                    dec = decompose(g, cb)
                    top = max([top, *(layer for layer, _ in dec.alpha)])
                    digest.update(
                        repr((dec.alpha, format(dec.gc.bits, "x"), dec.layer_sums)).encode()
                    )
        assert top > 0
    assert digest.hexdigest() == (
        "5ac988b0d7cb19270e029fd91885b9fca23c887500fd65686fd97d16524976f4"
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_self_loop_on_the_diagonal_escapes_the_span(n):
    # no permutation goes through a self-loop edge (i, i, t), so no element
    # of the edge span has one
    G, order = random_instance(n, random.Random(50 + n))
    cb = build_canonical_basis(G, order=order)
    size = edge_space_size(n)
    for e in (edge_index(Edge(1, 1, 1), n), edge_index(Edge(n, n, n - 1), n)):
        g = pair_indicator(all_permutations(n)[-1]) ^ PairVector(n, 1 << (e * (size + 1)))
        assert diagonal(g).bits >> e & 1
        with pytest.raises(InternalInconsistencyError, match="escapes"):
            decompose(g, cb)


@pytest.fixture(scope="module")
def order6_lift_basis():
    return build_basis(6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order6_coordinates_match_an_inserted_basis(seed, order6_lift_basis):
    # instances, orders, seeds and supported elements drawn as the campaign
    # draws them, plus an element that is not supported in G
    rng = random.Random(f"coords:{seed}")
    if seed % 2 == 0:
        G = random_time_graph(6, rng)
    else:
        G = reduce_hamp(random_graph(6, rng))
    order = G.complement_indices()
    rng.shuffle(order)
    cb = build_canonical_basis(G, order=order, perm_seed=rng.randrange(2**31))
    masks = [incident_mask(p) for p in order6_lift_basis]
    coeff_space = supported_coefficient_space(G, order6_lift_basis)
    p, q = rng.sample(all_permutations(6), 2)
    elements = [
        sample_incident_combination(G, rng),
        sample_supported_element(G, rng, coeff_space, masks),
        pair_indicator(p) ^ pair_indicator(q),
    ]
    alphas = [decompose(g, cb).alpha for g in elements]
    assert alphas == [inserted_basis_alpha(cb, diagonal(g)) for g in elements]
    assert alphas[-1]


# ---------------------------------------------------------------------------
# tail-sum identity (proven; a failure is fatal for the harness)

def test_tail_sums_vanish_for_supported_elements():
    rng = random.Random(77)
    for n in (4, 5):
        for _ in range(30 if n == 4 else 8):
            G, order = random_instance(n, rng)
            cb = build_canonical_basis(G, order=order)
            g = random_supported(G, rng)
            dec = decompose(g, cb)
            assert tail_sum_check(dec, cb)


def test_tail_parities_match_their_definition():
    # sums of two pair indicators decompose into layers above 0, where the
    # tails are nonzero; each is summed here from its definition
    rng = random.Random(78)
    nonzero = 0
    for n in (4, 5):
        perms = all_permutations(n)
        for _ in range(8):
            G, order = random_instance(n, rng)
            cb = build_canonical_basis(G, order=order)
            g = pair_indicator(rng.choice(perms)) ^ pair_indicator(rng.choice(perms))
            dec = decompose(g, cb)
            for strict in (False, True):
                want = []
                for m in range(1, cb.k + 1):
                    tail = 0
                    for f in dec.layer_sums[m + strict :]:
                        tail ^= f.bits
                    want.append(tail >> cb.order[m - 1] & 1)
                assert canonical._tail_parities(dec, cb, strict) == want
                nonzero += any(want)
    assert nonzero


def test_tail_sums_vacuous_for_complete_graph():
    n = 3
    cb = build_canonical_basis(TimeGraph.complete(n))
    dec = decompose(pair_indicator((1, 2, 3)), cb)
    assert tail_sum_check(dec, cb)


def test_own_layer_entry_equals_layer_value():
    # e_m is incident on every layer-m permutation, so the value of the
    # layer-m sum can be read off at e_m (unconditionally)
    rng = random.Random(13)
    for _ in range(20):
        G, order = random_instance(4, rng)
        cb = build_canonical_basis(G, order=order)
        g = random_supported(G, rng)
        dec = decompose(g, cb)
        for m in range(1, cb.k + 1):
            fm = dec.layer_sums[m]
            assert value(fm) == (fm.bits >> cb.order[m - 1]) & 1
