import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from hamtg.gf2 import Gf2Basis, rank
from hamtg.lab import crossval
from hamtg.liftbasis import (
    PAIR_SPAN_DIMENSIONS,
    base_basis,
    build_basis,
    lift_edge,
    lift_perm,
)
from hamtg.permvec import pair_indicator
from hamtg.timegraph import (
    Edge,
    OracleScaleError,
    all_permutations,
    edge_space_size,
    is_incident,
)

from helpers import in_span_oracle, lifted_edge_range, unlift_edge, unlift_perm


# ---------------------------------------------------------------------------
# lifts

def test_lift_rejects_anchor_out_of_range():
    for anchor in (0, 5):
        with pytest.raises(ValueError):
            lift_perm(anchor, (1, 2, 3))
        with pytest.raises(ValueError):
            lift_edge(anchor, Edge(1, 3, 1), 4)
    with pytest.raises(ValueError):
        lift_edge(2, Edge(1, 4, 1), 4)  # not an order-3 edge


def test_lift_perm_example():
    assert lift_perm(2, (1, 2, 3)) == (2, 1, 3, 4)


def test_lift_perm_identity_anchor_one():
    for n in (3, 4, 5):
        assert lift_perm(1, tuple(range(1, n))) == tuple(range(1, n + 1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lift_perm_bijection_onto_anchor_class(n):
    for anchor in range(1, n + 1):
        images = {lift_perm(anchor, p) for p in all_permutations(n - 1)}
        expected = {p for p in all_permutations(n) if p[0] == anchor}
        assert images == expected  # injective with the right image
        for p in all_permutations(n - 1):
            assert unlift_perm(anchor, lift_perm(anchor, p)) == p


def test_lift_edge_example():
    assert lift_edge(2, Edge(1, 3, 1), 4) == Edge(1, 4, 2)
    assert unlift_edge(2, Edge(1, 4, 2), 4) == Edge(1, 3, 1)


@pytest.mark.parametrize("n", range(3, 8))
def test_lift_edge_bijection(n):
    anchor = min(2, n)
    domain = [
        Edge(i, j, t)
        for t in range(1, n - 1)
        for i in range(1, n)
        for j in range(1, n)
    ]
    assert len(domain) == edge_space_size(n - 1)
    images = {lift_edge(anchor, e, n) for e in domain}
    assert len(images) == (n - 1) ** 2 * (n - 2)
    assert images == set(lifted_edge_range(anchor, n))


def test_unlift_edge_rejects_out_of_range():
    with pytest.raises(ValueError):
        unlift_edge(2, Edge(1, 3, 1), 4)  # layer 1 is never hit
    with pytest.raises(ValueError):
        unlift_edge(2, Edge(2, 3, 2), 4)  # anchor endpoint


def test_incidence_transport_exhaustive_order4():
    n = 4
    for anchor in range(1, n + 1):
        for p in all_permutations(n - 1):
            q = lift_perm(anchor, p)
            for e in (
                Edge(i, j, t)
                for t in range(1, n - 1)
                for i in range(1, n)
                for j in range(1, n)
            ):
                assert is_incident(e, p) == is_incident(lift_edge(anchor, e, n), q)


def test_pair_entry_transport_exhaustive_order4():
    n = 4
    edges3 = [
        Edge(i, j, t) for t in (1, 2) for i in (1, 2, 3) for j in (1, 2, 3)
    ]
    for anchor in range(1, n + 1):
        for p in all_permutations(3):
            small = pair_indicator(p)
            big = pair_indicator(lift_perm(anchor, p))
            for e, e2 in itertools.product(edges3, repeat=2):
                assert small.get(e, e2) == big.get(
                    lift_edge(anchor, e, n), lift_edge(anchor, e2, n)
                )


def test_pair_entry_transport_sampled_order5():
    rng = random.Random(12)
    n = 5
    edges4 = [
        Edge(i, j, t) for t in (1, 2, 3) for i in range(1, 5) for j in range(1, 5)
    ]
    perms = all_permutations(4)
    for _ in range(30):
        anchor = rng.randrange(1, n + 1)
        p = perms[rng.randrange(len(perms))]
        small = pair_indicator(p)
        big = pair_indicator(lift_perm(anchor, p))
        for _ in range(40):
            e = edges4[rng.randrange(len(edges4))]
            e2 = edges4[rng.randrange(len(edges4))]
            assert small.get(e, e2) == big.get(
                lift_edge(anchor, e, n), lift_edge(anchor, e2, n)
            )


def test_linear_relations_transport_through_lifts():
    # a dependency among pair indicators at one order lifts bit-exactly
    n_small = 4
    basis_perms = build_basis(n_small)
    basis_vecs = Gf2Basis(edge_space_size(n_small) ** 2)
    for p in basis_perms:
        basis_vecs.insert(pair_indicator(p))
    rng = random.Random(6)
    sample = random.Random(7).sample(all_permutations(n_small), 8)
    for p in sample:
        combo = basis_vecs.coords(pair_indicator(p))
        assert combo is not None
        anchor = rng.randrange(1, n_small + 2)
        lifted = pair_indicator(lift_perm(anchor, p))
        back = lifted
        for k in combo:
            back = back ^ pair_indicator(lift_perm(anchor, basis_perms[k]))
        assert back.is_zero()


# ---------------------------------------------------------------------------
# base cases and the recursion

def test_base_basis_order1():
    assert base_basis(1) == [(1,)]


def test_base_basis_order2():
    assert base_basis(2) == [(1, 2), (2, 1)]


def test_base_basis_order3_is_full_rank():
    perms = base_basis(3)
    brute = rank([pair_indicator(p) for p in all_permutations(3)])
    assert len(perms) == brute == 6


def test_base_basis_range():
    with pytest.raises(ValueError):
        base_basis(4)
    with pytest.raises(ValueError):
        base_basis(0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_build_basis_size_matches_bruteforce_rank(n):
    perms = build_basis(n)
    brute = rank([pair_indicator(p) for p in all_permutations(n)])
    assert len(perms) == brute


# sha256 of json.dumps(build_basis(n)): the bases, their order and their
# labels are fixed outputs, cached on disk and read by every decision
PINNED_BASES = {
    1: "043f347c2cdc0d8ce70c38775d24e556c0290acf6d0c87a3a52aa85471cb8d02",
    2: "cfceeada3fffa0fe5fce5ee16bdb384f7f4f2c60fc42ffef62886d7962b34af7",
    3: "dc008f92bc03b935ca86268860eb921e361e9657554e9d2130ec3d7a0631654a",
    4: "fb358aef846ec458ee66550d89c9343142f2f63fff42ca0b629f438cb8f2e384",
    5: "c58916347faeef01f564a5117e919eb2f7254ab6aa46d730b9d14d16bd339ce1",
    6: "ea63e2a754d370f45440d779a6caa46b25ccbc8e74bf323847c98cefb2730d2f",
    7: "e1bcbc075239ab352f6705dcae805befb6d8c0044ca88e4796f0d82913d1f4cc",
}


def test_build_basis_is_pinned():
    # order 7 is beyond the default cap and takes about 0.3 s cold
    got = {
        n: hashlib.sha256(json.dumps(build_basis(n, cache_dir=None, cap=n)).encode()).hexdigest()
        for n in PINNED_BASES
    }
    assert got == PINNED_BASES


@pytest.mark.parametrize("n", [3, 4])
def test_build_basis_spans_all_indicators(n):
    basis_bits = [pair_indicator(p).bits for p in build_basis(n)]
    ncols = edge_space_size(n) ** 2
    for p in all_permutations(n):
        assert in_span_oracle(pair_indicator(p).bits, basis_bits, ncols)


def test_build_basis_cap():
    with pytest.raises(OracleScaleError):
        build_basis(7)
    with pytest.raises(ValueError):
        build_basis(0)


def test_build_basis_cache_roundtrip(tmp_path):
    first = build_basis(4, cache_dir=str(tmp_path))
    cache_file = tmp_path / "pair_basis_n4.json"
    assert cache_file.exists()
    stamp = cache_file.read_bytes()
    second = build_basis(4, cache_dir=str(tmp_path))
    assert second == first
    assert cache_file.read_bytes() == stamp


def test_build_basis_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HAMTG_CACHE_DIR", str(tmp_path))
    build_basis(3)
    assert (tmp_path / "pair_basis_n3.json").exists()


def test_build_basis_overlapping_cache_writers(tmp_path, monkeypatch):
    # a second writer runs to completion while the first one is publishing
    # its cache file; neither may lose or break the other's write
    real_replace = Path.replace
    nested = []

    def replace(self, target):
        monkeypatch.setattr(Path, "replace", real_replace)
        nested.append(build_basis(4, cache_dir=str(tmp_path)))
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", replace)
    outer = build_basis(4, cache_dir=str(tmp_path))
    assert outer == nested[0] == build_basis(4)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pair_basis_n3.json",
        "pair_basis_n4.json",
    ]



def _cache_text(n, perms) -> str:
    return json.dumps({"n": n, "permutations": perms}, sort_keys=True) + "\n"


def _relabel_first(perms, label):
    return [[label(x) for x in perms[0]]] + perms[1:]


# broken variants of an order-5 cache file, from its text and permutations
BAD_CACHES = {
    "torn": lambda text, perms: text[: len(text) // 2],
    "empty": lambda text, perms: "",
    "not an object": lambda text, perms: json.dumps(perms),
    "no permutations": lambda text, perms: json.dumps({"n": 5}),
    "other order": lambda text, perms: _cache_text(4, perms),
    "truncated": lambda text, perms: _cache_text(5, perms[:60]),
    "duplicate": lambda text, perms: _cache_text(5, perms[:-1] + [perms[0]]),
    "not a permutation": lambda text, perms: _cache_text(5, [[1, 1, 2, 3, 4]] + perms[1:]),
    "wrong length": lambda text, perms: _cache_text(5, [p + [6] for p in perms]),
    "float labels": lambda text, perms: _cache_text(5, _relabel_first(perms, float)),
    "bool label": lambda text, perms: _cache_text(5, _relabel_first(perms, lambda x: True if x == 1 else x)),
}


@pytest.mark.parametrize("kind", list(BAD_CACHES))
def test_bad_cache_file_is_rebuilt_and_replaced(tmp_path, kind):
    cold = build_basis(5, cache_dir=None)
    build_basis(5, cache_dir=str(tmp_path))
    path = tmp_path / "pair_basis_n5.json"
    good = path.read_text()
    path.write_text(BAD_CACHES[kind](good, json.loads(good)["permutations"]))
    assert build_basis(5, cache_dir=str(tmp_path)) == cold
    assert path.read_text() == good


def test_crossval_over_a_truncated_cache_has_no_false_negatives(tmp_path):
    path = tmp_path / "pair_basis_n5.json"
    path.write_text(_cache_text(5, [list(p) for p in build_basis(5)[:60]]))
    assert crossval(5, cache_dir=str(tmp_path))["false_negative_count"] == 0


def test_pinned_dimensions_are_the_recorded_pair_ranks():
    path = Path(__file__).resolve().parent.parent / "results" / "dimensions.json"
    rows = json.loads(path.read_text())["rows"]
    assert [PAIR_SPAN_DIMENSIONS[row["n"]] for row in rows] == [
        row["dim_pair_span"] for row in rows
    ]
    assert PAIR_SPAN_DIMENSIONS[1] == len(build_basis(1))
    assert sorted(PAIR_SPAN_DIMENSIONS) == list(range(1, 9))
