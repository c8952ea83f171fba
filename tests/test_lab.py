import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from hamtg import canonical, lab, liftbasis, permvec
from hamtg.canonical import InternalInconsistencyError, build_canonical_basis
from hamtg.gf2 import rank, solve_system
from hamtg.lab import (
    audit_false_positive,
    check_conjecture1,
    check_conjecture2,
    crossval,
    dimension_table,
    random_time_graph,
    replay_report,
    run_campaign,
    supported_image_span,
)
from hamtg.liftbasis import build_basis
from hamtg.permvec import (
    PairVector,
    edge_indicator,
    is_supported_in,
    pair_indicator,
)
from hamtg.solver import decide_time_graph
from hamtg.timegraph import (
    Edge,
    Graph,
    OracleScaleError,
    TimeGraph,
    all_permutations,
    incident_permutations,
    is_hamiltonian_oracle,
    permutation_table,
    reduce_hamp,
)

from helpers import all_graphs, supported_subspace


# ---------------------------------------------------------------------------
# supported subspace

def test_supported_subspace_of_complete_graph_is_everything():
    n = 3
    perms = build_basis(n)
    vectors = supported_subspace(TimeGraph.complete(n), perms)
    assert len(vectors) == len(perms)  # no constraints at all


@pytest.mark.parametrize("n", [3, 4])
def test_supported_subspace_contains_incident_combinations(n):
    from hamtg.gf2 import Gf2Basis
    from hamtg.timegraph import edge_space_size

    rng = random.Random(n)
    perms = build_basis(n)
    for _ in range(3):
        G = random_time_graph(n, rng)
        vecs = supported_subspace(G, perms)
        for v in vecs:
            assert is_supported_in(v, G)
        # every xor-combination of incident indicators lies in the span;
        # singletons exhaustively (combinations follow by linearity), plus
        # a sample of larger subsets
        span = Gf2Basis(edge_space_size(n) ** 2)
        for v in vecs:
            span.insert(v)
        incident = incident_permutations(G)
        for p in incident:
            assert span.contains(pair_indicator(p))
        for _ in range(10):
            g = PairVector.zero(n)
            for p in incident:
                if rng.randrange(2):
                    g = g ^ pair_indicator(p)
            if not g.is_zero():
                assert span.contains(g)


def test_supported_subspace_of_empty_graph_has_no_value_one_element():
    n = 3
    perms = build_basis(n)
    vectors = supported_subspace(TimeGraph.empty(n), perms)
    from hamtg.permvec import value_pair

    # the span of these basis vectors contains no element of value 1 iff
    # every basis vector has value 0
    assert all(value_pair(v) == 0 for v in vectors)


# ---------------------------------------------------------------------------
# conjecture checks

def _instance(n, seed):
    rng = random.Random(seed)
    G = random_time_graph(n, rng)
    order = G.complement_indices()
    rng.shuffle(order)
    cb = build_canonical_basis(G, order=order)
    return rng, G, cb


def test_conjecture1_zero_vector_holds_or_vacuous():
    _, G, cb = _instance(4, 1)
    rep = check_conjecture1(cb, PairVector.zero(4))
    assert rep.verdict in ("holds", "vacuous")
    assert rep.witness["failing_m"] == []


def test_conjecture1_vacuous_when_complement_small():
    n = 3
    G = TimeGraph.complete(n)
    cb = build_canonical_basis(G)
    rep = check_conjecture1(cb, pair_indicator((1, 2, 3)))
    assert rep.verdict == "vacuous"


def test_conjecture2_vacuous_on_zero_decomposition():
    _, G, cb = _instance(4, 2)
    rep = check_conjecture2(
        cb, PairVector.zero(4), supported_image_span(G, build_basis(4))
    )
    assert rep.verdict == "vacuous"
    assert rep.witness["j"] is None


def test_conjecture2_holds_on_incident_indicator():
    # g built from a permutation incident on G witnesses its own feasibility
    rng = random.Random(5)
    while True:
        G = random_time_graph(4, rng)
        incident = incident_permutations(G)
        if incident:
            break
    cb = build_canonical_basis(G)
    g = pair_indicator(incident[0])
    rep = check_conjecture2(cb, g, supported_image_span(G, build_basis(4)))
    assert rep.verdict in ("holds", "vacuous")


def test_conjecture2_holds_by_construction_at_layer_0():
    # a campaign's g is supported in G and lies in the pair span, and at
    # j = 0 its diagonal is f_0, so g itself witnesses feasibility
    reports = run_campaign(5, 20, 0, orders=2)["reports"]
    at_0 = [r for r in reports if r.conjecture == 2 and r.witness["j"] == 0]
    assert at_0 and all(r.verdict == "holds" for r in at_0)


def test_checks_reject_unsupported_vector():
    n = 3
    G = TimeGraph.empty(n)
    cb = build_canonical_basis(G)
    g = pair_indicator((1, 2, 3))
    with pytest.raises(ValueError):
        check_conjecture1(cb, g)
    with pytest.raises(ValueError):
        check_conjecture2(cb, g, supported_image_span(G, build_basis(n)))


# ---------------------------------------------------------------------------
# campaigns

def test_campaign_runs_and_replays():
    sink = io.StringIO()
    out = run_campaign(4, trials=12, seed=99, sink=sink)
    counts = out["summary"]["counts"]
    assert sum(counts.values()) == out["summary"]["reports"] == 24
    for rep in out["reports"]:
        assert replay_report(rep.to_dict())
    lines = sink.getvalue().splitlines()
    assert len(lines) == 25  # one per report plus the summary line
    assert "summary" in json.loads(lines[-1])


def test_campaign_is_deterministic():
    a, b = io.StringIO(), io.StringIO()
    run_campaign(4, trials=6, seed=5, sink=a)
    run_campaign(4, trials=6, seed=5, sink=b)
    assert a.getvalue() == b.getvalue()


def test_campaign_multiple_orders():
    out = run_campaign(4, trials=4, seed=2, orders=2)
    assert out["summary"]["reports"] == 16
    by_trial = {}
    for rep in out["reports"]:
        by_trial.setdefault(rep.instance_id.split("-o")[0], []).append(rep)
    for reps in by_trial.values():
        assert len(reps) == 4  # two enumerations x two conjectures
        assert {rep.instance_id.split("-")[2] for rep in reps} == {"o0", "o1"}
        # both enumerations cover the same complement
        assert len({tuple(sorted(rep.complement_order)) for rep in reps}) == 1


def test_campaign_with_basis_seed_replays():
    out = run_campaign(4, trials=4, seed=8, basis_seed=3)
    for rep in out["reports"]:
        assert rep.basis_seed is not None
        assert replay_report(rep.to_dict())


def test_campaign_decomposes_once_per_order(monkeypatch):
    calls = []
    real = lab.decompose

    def counting(g, cb):
        calls.append(1)
        return real(g, cb)

    monkeypatch.setattr(lab, "decompose", counting)
    reports = run_campaign(5, 20, 0, orders=2)["reports"]
    assert len(reports) == 80
    assert len(calls) == 20 * 2  # one per (trial, order), not one per report
    # the reports are those of one decomposition per report
    text = "".join(r.to_json() + "\n" for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "33dc9cb7799e2a5a445aeb1ea618d2ad593e9e4ad20c65c88d40a7388fb84301"
    )


def test_campaign_reads_each_trials_support_and_diagonal_once(monkeypatch):
    # both enumerations of a trial decompose one g: its support and its
    # diagonal are computed over the pair space once, and no gc is summed,
    # so pair_sum runs only to sample g
    lab_sums = _count_pair_sums(monkeypatch)
    canonical_sums = []
    monkeypatch.setattr(canonical, "pair_sum", lambda n, masks: canonical_sums.append(n))
    permvec.support_mask.cache_clear()
    permvec._diagonal_bits.cache_clear()
    run_campaign(5, 4, 0, orders=2)
    support = permvec.support_mask.cache_info()
    assert (support.misses, support.hits) == (4, 4)
    diagonal = permvec._diagonal_bits.cache_info()
    assert diagonal.misses == 4 and diagonal.hits >= 4
    assert lab_sums == [5] * 4
    assert canonical_sums == []


def test_campaign_reports_are_pinned():
    # the report lines carry each alpha's (layer, slot) positions under both
    # enumerations and seeded candidate orders; these elements decompose in
    # layer 0, so the higher layers are pinned by the per-layer rescan tests
    sink = io.StringIO()
    run_campaign(5, 8, seed=3, orders=2, basis_seed=3, sink=sink)
    assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == (
        "b10d1c254f71fceb9854fe59232d8c5b062ac9d6b978b9b4b9662e7cbcd98121"
    )


def test_order6_campaign_reports_are_pinned():
    # both seeded shuffles at order 6, of 720 candidates and of up to 180
    # complement edges; the reports replay from their own enumerations and
    # candidate seeds
    sink = io.StringIO()
    out = run_campaign(6, 16, seed=1, orders=2, basis_seed=1, sink=sink)
    assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == (
        "dfa674cfb740e2e0ff4dc0fb9ba208fe06d90296c5095d971f4e8f2bcfd8b619"
    )
    assert all(replay_report(rep.to_dict()) for rep in out["reports"])


def test_campaign_gate_raises_when_neither_conjecture_is_violated(monkeypatch):
    # with every element claimed to have value 1, the gate must run on a
    # non-hamiltonian instance and find that neither conjecture failed
    monkeypatch.setattr(lab, "value_pair", lambda g: 1)
    with pytest.raises(InternalInconsistencyError, match="violated neither"):
        run_campaign(4, 4, 0)


# ---------------------------------------------------------------------------
# cross-validation

def test_crossval_exhaustive_order3():
    result = crossval(3)
    assert result["graphs"] == 8
    assert result["false_negative_count"] == 0
    assert result["agree_yes"] + result["agree_no"] + result[
        "false_positive_count"
    ] + result["false_negative_count"] == 8


def test_crossval_random_is_deterministic():
    a = crossval(4, exhaustive=False, random_count=10, seed=6)
    b = crossval(4, exhaustive=False, random_count=10, seed=6)
    assert a == b


# sha256 of json.dumps(result, sort_keys=True) for the exhaustive order-5
# pass and a seeded order-6 sample: a changed count, witness or audit fails
CROSSVAL_DIGESTS = [
    ((5,), {}, "32a93e6db1d4979f50ee0843d2b554bb8069dea43f0dbd718db0c3b389adbce3"),
    (
        (6,),
        {"exhaustive": False, "random_count": 24, "seed": 1},
        "9417c3e44c553b01db8e3d7ff7212d5999ac5a000bfdea2c70b46d33ae2f6f81",
    ),
]


@pytest.mark.parametrize("args, kwargs, digest", CROSSVAL_DIGESTS, ids=["n5", "n6-random"])
def test_crossval_results_are_pinned(args, kwargs, digest):
    result = json.dumps(crossval(*args, **kwargs), sort_keys=True)
    assert hashlib.sha256(result.encode()).hexdigest() == digest


def test_all_graphs_match_graphs_from_edges():
    # crossval and the benchmark read this sequence, graph by graph
    for n in range(1, 6):
        assert list(lab._all_graphs(n)) == list(all_graphs(n))


def _count_pair_sums(monkeypatch) -> list:
    calls = []
    pair_sum = lab.pair_sum

    def counted(n, masks):
        calls.append(n)
        return pair_sum(n, masks)

    monkeypatch.setattr(lab, "pair_sum", counted)
    return calls


def test_crossval_builds_no_pair_indicators_without_a_false_positive(monkeypatch):
    expected = crossval(4)
    calls = _count_pair_sums(monkeypatch)
    assert crossval(4) == expected
    assert calls == []


def test_crossval_builds_pair_indicators_once_for_all_false_positives(monkeypatch):
    # an oracle that always says no turns every yes into a false positive
    expected = crossval(4)
    monkeypatch.setattr(lab, "hamiltonian_path_oracle", lambda g: False)
    uncounted = crossval(4)
    calls = _count_pair_sums(monkeypatch)
    result = crossval(4)
    assert result == uncounted
    assert result["false_positive_count"] == expected["agree_yes"] > 1
    assert calls == [4] * result["false_positive_count"]


def test_audit_of_the_time_graph_equals_the_crossval_audit(monkeypatch):
    monkeypatch.setattr(lab, "hamiltonian_path_oracle", lambda g: False)
    perms = build_basis(4)
    for fp in crossval(4)["false_positives"]:
        T = reduce_hamp(Graph.from_edges(4, fp["graph_pairs"]))
        witness = decide_time_graph(T, perms).witness
        assert audit_false_positive(T, witness, perms) == fp["audit"]


@pytest.fixture(scope="module")
def basis7():
    return build_basis(7, cap=7)


@pytest.fixture(scope="module")
def order7_false_positive(basis7):
    """The order-7 time-graph false positive: 200 edges added in a seeded
    order while no permutation stays incident; the decider says yes."""
    basis = basis7
    edges = list(range(294))
    random.Random(0).shuffle(edges)
    T = TimeGraph(7, 0)
    for e in edges:
        grown = TimeGraph(7, T.edges | 1 << e)
        if not is_hamiltonian_oracle(grown):
            T = grown
    decision = decide_time_graph(T, basis)
    return T, decision.witness, basis


def test_audit_of_a_real_false_positive_violates_both(order7_false_positive):
    T, witness, basis = order7_false_positive
    assert len(T.edge_indices()) == 200 and len(witness) == 1571
    assert not is_hamiltonian_oracle(T)
    audit = audit_false_positive(T, witness, basis)
    assert [r["verdict"] for r in audit["reports"]] == ["violated", "violated"]
    assert audit["reports"][0]["witness"]["failing_m"] == [1, 13, 14, 18, 34]
    assert audit["reports"][1]["witness"]["j"] == 50
    assert audit["implication_ok"] is True
    assert audit["witness"] == list(witness)


# the smallest known order-7 false positive, as (i, j, t): dropping any one
# of its 20 edges makes the decider say no
TS_EDGES = [
    (1, 6, 1), (2, 6, 1), (4, 6, 1), (6, 1, 1), (1, 3, 2), (6, 5, 2), (3, 2, 3),
    (3, 4, 3), (3, 5, 3), (5, 3, 3), (2, 5, 4), (3, 4, 4), (4, 5, 4), (5, 2, 4),
    (5, 4, 4), (2, 7, 5), (5, 1, 5), (1, 7, 6), (7, 1, 6), (7, 2, 6),
]


def test_the_20_edge_order7_time_graph_is_a_false_positive(basis7):
    T = TimeGraph.from_edges(7, [Edge(*e) for e in TS_EDGES])
    assert T.edge_count() == 20
    assert not is_hamiltonian_oracle(T)
    decision = decide_time_graph(T, basis7)
    assert decision.answer and len(decision.witness) == 29
    assert (decision.nvars, decision.rows, decision.rank) == (4320, 6018, 4320)
    audit = audit_false_positive(T, decision.witness, basis7)
    assert [r["verdict"] for r in audit["reports"]] == ["violated", "violated"]
    assert audit["implication_ok"] is True


def test_both_reports_of_the_order7_audit_replay(order7_false_positive):
    # conjecture 2 rebuilds the order-7 pair basis, beyond the default cap
    for rep in audit_false_positive(*order7_false_positive)["reports"]:
        assert replay_report(rep)


def test_audit_gate_raises_when_neither_conjecture_is_violated(
    order7_false_positive, monkeypatch
):
    def holds1(cb, g_hex, dec, instance_id):
        return lab._report(cb, 1, g_hex, dec, instance_id, "holds")

    def holds2(cb, g_hex, dec, image_span, instance_id):
        return lab._report(cb, 2, g_hex, dec, instance_id, "holds")

    monkeypatch.setattr(lab, "_conjecture1", holds1)
    monkeypatch.setattr(lab, "_conjecture2", holds2)
    with pytest.raises(InternalInconsistencyError, match="audit-c1/c2.*violated neither"):
        audit_false_positive(*order7_false_positive)


def test_crossval_requires_count_for_random():
    with pytest.raises(ValueError):
        crossval(4, exhaustive=False)


def test_crossval_refuses_a_count_for_exhaustive():
    with pytest.raises(ValueError, match="random_count given with exhaustive"):
        crossval(3, exhaustive=True, random_count=2, seed=5)


# ---------------------------------------------------------------------------
# dimensions

def test_dimension_table_edge_counts():
    table = dimension_table(5)
    assert [row["edges"] for row in table] == [4, 18, 48, 100]
    assert table[0]["dim_edge_span"] == 2


def test_dimension_table_basis_consistency():
    for row in dimension_table(5):
        if row["dim_pair_span"] is not None:
            assert row["consistent"]
            assert row["lift_basis_size"] == row["dim_pair_span"]


def test_dimension_table_matches_bruteforce():
    # row ranks of the full indicator vectors, against the table's column
    # edge rank and compact pair rank
    for row in dimension_table(6):
        perms = all_permutations(row["n"])
        assert row["dim_edge_span"] == rank([edge_indicator(p) for p in perms])
        assert row["dim_pair_span"] == rank([pair_indicator(p) for p in perms])


def test_dimension_table_refuses_orders_beyond_the_cap(monkeypatch):
    def enumerate_order(n):
        raise AssertionError(f"order {n} enumerated before the cap check")

    monkeypatch.setattr(lab, "permutation_table", enumerate_order)
    with pytest.raises(OracleScaleError, match="n=9 > cap=8"):
        dimension_table(9)


def test_recorded_dimensions_are_reproduced():
    path = Path(__file__).resolve().parent.parent / "results" / "dimensions.json"
    rows = json.loads(path.read_text())["rows"]
    max_n = rows[-1]["n"]
    assert max_n >= 7
    assert dimension_table(max_n, pair_max=max_n) == rows


def test_dimension_table_lifts_each_order_once(monkeypatch):
    # one lift step per order 2..6, from the order below; the columns of its
    # elimination are the lift candidates, n! per order, and the brute-force
    # pair rank is given the table's own pair rows, n! per order too
    calls = {"lift": 0, "columns": 0, "rank_rows": 0}
    lift_step, echelon = liftbasis._lift_step, liftbasis.column_echelon

    def counted_lift(n, prev):
        calls["lift"] += 1
        return lift_step(n, prev)

    def counted_echelon(cols, nrows):
        cols = list(cols)
        calls["columns"] += len(cols)
        return echelon(cols, nrows)

    def counted_solve(rows, rhs, nvars):
        rows = list(rows)
        calls["rank_rows"] += len(rows)
        return solve_system(rows, rhs, nvars)

    monkeypatch.setattr(liftbasis, "_lift_step", counted_lift)
    monkeypatch.setattr(liftbasis, "column_echelon", counted_echelon)
    monkeypatch.setattr(lab, "solve_system", counted_solve)
    table = dimension_table(7, pair_max=6)
    factorials = 2 + 6 + 24 + 120 + 720
    assert calls == {"lift": 5, "columns": factorials, "rank_rows": factorials}
    path = Path(__file__).resolve().parent.parent / "results" / "dimensions.json"
    # the recorded rows, orders 2..7, with no pair span at order 7
    expected = json.loads(path.read_text())["rows"][:6]
    expected[5].update(dim_pair_span=None, lift_basis_size=None, consistent=None)
    assert table == expected


def test_lift_candidates_are_the_permutation_table_through_order_6():
    # so through order 6 dimension_table's consistent compares the rank of
    # the same rows, in the same order, twice; at order 7 the 719-element
    # order-6 basis lifts to 5,033 of the 5,040 permutations
    prev = liftbasis.base_basis(1)
    for n in range(2, 8):
        candidates = [liftbasis.lift_perm(a, p) for a in range(1, n + 1) for p in prev]
        table = [p for p, _, _ in permutation_table(n)]
        assert (candidates == table) == (n <= 6)
        if n == 7:
            assert len(candidates) == 5033 and len(set(candidates)) == 5033
        else:
            prev = liftbasis._lift_step(n, prev)


def test_dimension_table_reads_and_writes_each_order_in_the_cache(tmp_path, monkeypatch):
    expected = dimension_table(5)
    assert dimension_table(5, cache_dir=str(tmp_path)) == expected
    for n in range(2, 6):
        data = json.loads((tmp_path / f"pair_basis_n{n}.json").read_text())
        assert data["permutations"] == [list(p) for p in build_basis(n)]

    def no_lift(n, prev):
        raise AssertionError(f"order {n} lifted with every order cached")

    monkeypatch.setattr(liftbasis, "_lift_step", no_lift)
    assert dimension_table(5, cache_dir=str(tmp_path)) == expected


# ---------------------------------------------------------------------------
# report serialization

def test_report_json_is_deterministic_and_replayable():
    out = run_campaign(4, trials=3, seed=4)
    for rep in out["reports"]:
        blob = rep.to_json()
        data = json.loads(blob)
        assert json.dumps(data, sort_keys=True, separators=(",", ":")) == blob
        assert "timing_ms" not in data
        assert replay_report(data)
