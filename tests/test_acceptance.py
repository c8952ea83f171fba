"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The whole suite is
designed to finish in a few minutes on a laptop; the heaviest items are
the exhaustive order-5 cross-validation and the random order-6 run.
"""

import io
import itertools
import json
import random
import subprocess
import sys
import time

from hamtg.canonical import build_canonical_basis, decompose, tail_sum_check
from hamtg.gf2 import Gf2Basis, rank
from hamtg.lab import (
    crossval,
    replay_report,
    run_campaign,
    sample_incident_combination,
    sample_supported_element,
    supported_coefficient_space,
)
from hamtg.liftbasis import build_basis, lift_edge, lift_perm
from hamtg.permvec import (
    EdgeVector,
    PairVector,
    diagonal,
    edge_indicator,
    pair_indicator,
    row_at,
    value,
    value_pair,
)
from hamtg.timegraph import (
    Edge,
    TimeGraph,
    all_permutations,
    edge_space_size,
    hamiltonian_path_oracle,
    incident_edges,
    incident_mask,
    is_hamiltonian_oracle,
    is_incident,
    reduce_hamp,
)

from helpers import all_graphs


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_criterion_1_reduction_equivalence():
    t0 = time.time()
    checked = 0
    for n in (3, 4, 5):
        for g in all_graphs(n):
            assert hamiltonian_path_oracle(g) == is_hamiltonian_oracle(
                reduce_hamp(g)
            ), f"mismatch on n={n}, {sorted(g.pairs)}"
            checked += 1
    assert checked == 8 + 64 + 1024
    _report("1 reduction-equivalence", f"{checked} graphs, {time.time()-t0:.1f}s")


def test_criterion_2_indicator_identities():
    t0 = time.time()
    # exhaustive identities over S_3 and S_4
    for n in (3, 4):
        edges = [
            Edge(i, j, t)
            for t in range(1, n)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        for p in all_permutations(n):
            f, g = edge_indicator(p), pair_indicator(p)
            assert diagonal(g) == f
            assert value(f) == 1 and value_pair(g) == 1
            inc = set(incident_edges(p))
            for e in edges:
                expected = f if e in inc else EdgeVector.zero(n)
                assert row_at(g, e) == expected
                assert g.get(e, e) == f.get(e)
    # parity corollaries on 1000 random xor-combinations at order 5
    rng = random.Random(2024)
    perms5 = all_permutations(5)
    for _ in range(1000):
        k = rng.randrange(1, 7)
        chosen = rng.sample(perms5, k)
        f = EdgeVector.zero(5)
        g = PairVector.zero(5)
        for p in chosen:
            f = f ^ edge_indicator(p)
            g = g ^ pair_indicator(p)
        assert value(f) == k % 2
        assert value_pair(g) == k % 2
        assert diagonal(g) == f
    _report("2 indicator-identities", f"{time.time()-t0:.1f}s")


def test_criterion_3_tail_sum_regression():
    t0 = time.time()
    total = 0
    for n, trials in ((4, 1000), (5, 200)):
        perms = build_basis(n)
        masks = [incident_mask(p) for p in perms]
        for trial in range(trials):
            rng = random.Random(f"tailsum:{n}:{trial}")
            G = TimeGraph(n, rng.getrandbits(edge_space_size(n)))
            order = G.complement_indices()
            rng.shuffle(order)
            cb = build_canonical_basis(G, order=order)
            if trial % 10 == 0:
                coeffs = supported_coefficient_space(G, perms)
                g = sample_supported_element(G, rng, coeffs, masks)
            else:
                g = sample_incident_combination(G, rng)
            dec = decompose(g, cb)
            assert tail_sum_check(dec, cb), f"tail-sum failure at n={n} trial={trial}"
            total += 1
    assert total == 1200
    _report("3 tail-sum-regression", f"{total} instances, {time.time()-t0:.1f}s")


def test_criterion_4_lift_bijections_and_transport():
    t0 = time.time()
    # exhaustive at order 4
    n = 4
    edges3 = [
        Edge(i, j, t) for t in (1, 2) for i in (1, 2, 3) for j in (1, 2, 3)
    ]
    for anchor in range(1, n + 1):
        images = set()
        for p in all_permutations(3):
            q = lift_perm(anchor, p)
            assert q[0] == anchor
            images.add(q)
            for e in edges3:
                assert is_incident(e, p) == is_incident(lift_edge(anchor, e, n), q)
            small, big = pair_indicator(p), pair_indicator(q)
            for e, e2 in itertools.product(edges3, repeat=2):
                assert small.get(e, e2) == big.get(
                    lift_edge(anchor, e, n), lift_edge(anchor, e2, n)
                )
        assert images == {q for q in all_permutations(4) if q[0] == anchor}
        lifted = {lift_edge(anchor, e, n) for e in edges3}
        assert len(lifted) == 3 * 3 * 2
        assert all(e.t >= 2 and e.i != anchor and e.j != anchor for e in lifted)
    # sampled at order 5
    rng = random.Random(17)
    edges4 = [
        Edge(i, j, t) for t in (1, 2, 3) for i in range(1, 5) for j in range(1, 5)
    ]
    perms4 = all_permutations(4)
    for _ in range(60):
        anchor = rng.randrange(1, 6)
        p = perms4[rng.randrange(len(perms4))]
        small, big = pair_indicator(p), pair_indicator(lift_perm(anchor, p))
        for _ in range(50):
            e = edges4[rng.randrange(len(edges4))]
            e2 = edges4[rng.randrange(len(edges4))]
            assert small.get(e, e2) == big.get(
                lift_edge(anchor, e, 5), lift_edge(anchor, e2, 5)
            )
    _report("4 lift-transport", f"{time.time()-t0:.1f}s")


def test_criterion_5_basis_spans_every_indicator():
    t0 = time.time()
    checks = 0
    for n in (3, 4, 5):
        span = Gf2Basis(edge_space_size(n) ** 2)
        for p in build_basis(n):
            assert span.insert(pair_indicator(p)).extended
        for p in all_permutations(n):
            assert span.contains(pair_indicator(p)), f"span miss at n={n}"
            checks += 1
    assert checks == 6 + 24 + 120
    _report("5 basis-spans-indicators", f"{checks} membership checks, {time.time()-t0:.1f}s")


def test_criterion_6_basis_size_equals_bruteforce_rank():
    t0 = time.time()
    sizes = {}
    for n in (3, 4, 5):
        brute = rank([pair_indicator(p) for p in all_permutations(n)])
        sizes[n] = (len(build_basis(n)), brute)
        assert sizes[n][0] == brute
    _report("6 basis-size", f"{sizes}, {time.time()-t0:.1f}s")


def test_criterion_7_crossval_no_false_negatives():
    t0 = time.time()
    results = [
        crossval(4, exhaustive=True),
        crossval(5, exhaustive=True),
        crossval(6, exhaustive=False, random_count=200, seed=42),
    ]
    for res in results:
        assert res["false_negative_count"] == 0, res
        for fp in res["false_positives"]:
            # counterexample candidates must carry a replayable audit in
            # which at least one conjecture check reports a violation
            assert fp["audit"]["implication_ok"], fp
            for rep in fp["audit"]["reports"]:
                assert replay_report(rep)
    detail = ", ".join(
        f"n={r['n']}: {r['graphs']} graphs, fp={r['false_positive_count']}"
        for r in results
    )
    _report("7 crossval", f"{detail}, {time.time()-t0:.1f}s")


def test_criterion_8_determinism():
    t0 = time.time()
    env_cmds = [
        [sys.executable, "-m", "hamtg", "basis", "--order", "5"],
        [
            sys.executable,
            "-m",
            "hamtg",
            "conjectures",
            "--n",
            "4",
            "--trials",
            "40",
            "--seed",
            "11",
        ],
    ]
    for cmd in env_cmds:
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1], f"non-deterministic output from {cmd}"
        assert runs[0]
    _report("8 determinism", f"{time.time()-t0:.1f}s")


def test_criterion_9_campaigns_complete_and_replay():
    t0 = time.time()
    for n, trials in ((4, 500), (5, 100)):
        sink = io.StringIO()
        out = run_campaign(n, trials=trials, seed=1234, sink=sink)
        counts = out["summary"]["counts"]
        assert sum(counts.values()) == out["summary"]["reports"] == 2 * trials
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2 * trials + 1
        summary = json.loads(lines[-1])["summary"]
        assert summary["counts"] == counts
        for line in lines[:-1]:
            assert replay_report(json.loads(line))
    _report("9 campaigns", f"{time.time()-t0:.1f}s")
