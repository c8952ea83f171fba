"""Conjecture-testing and cross-validation harness.

Conjecture 1 (strict tail sums): for a decomposed supported element, the
layer sums strictly beyond m cancel at e_m for every m up to k-1.
Conjecture 2 (diagonal feasibility): with j the last nonzero layer sum,
some element supported in G has that sum as its diagonal image.

Either verdict is a finding, not a failure; the only fatal condition is a
violation of the proven tail-sum identity, which would mean the
implementation itself is broken.  All reports are deterministic JSON and
replay from their serialized witnesses.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Sequence

from .canonical import (
    CanonicalBasis,
    InternalInconsistencyError,
    build_canonical_basis,
    decompose,
    tail_sum_check,
)
from .gf2 import Gf2Basis, bit_indices, rank, solve_system
from .liftbasis import build_basis
from .permvec import (
    PairVector,
    diagonal,
    edge_indicator,
    is_supported_in,
    pair_indicator,
    value_pair,
)
from .solver import assemble_system, decide_time_graph
from .timegraph import (
    Graph,
    Permutation,
    TimeGraph,
    all_permutations,
    edge_space_size,
    hamiltonian_path_oracle,
    incident_permutations,
    reduce_hamp,
)


# ---------------------------------------------------------------------------
# supported subspace

def supported_coefficient_space(
    G: TimeGraph, basis_perms: Sequence[Permutation]
) -> list[int]:
    """Coefficient masks spanning {alpha : the combination is supported in G}.

    These are the homogeneous solutions of the assembled system (the value
    row dropped); the homogeneous system is always consistent.
    """
    system = assemble_system(G, basis_perms)
    hom = system.rows[1:]
    res = solve_system(hom, (0,) * len(hom), system.nvars)
    return list(res.nullspace)


def _combine(
    n: int, pair_cache: Sequence[PairVector], indices: Iterable[int]
) -> PairVector:
    """Xor of the pair_cache entries at the given indices."""
    raw = 0
    for k in indices:
        raw ^= pair_cache[k].bits.bits
    return PairVector.from_raw(n, raw)


def _image_span(
    n: int, coeff_space: Iterable[int], pair_cache: Sequence[PairVector]
) -> Gf2Basis:
    """Span of the diagonal images of the combinations the masks select."""
    span = Gf2Basis(edge_space_size(n))
    for mask in coeff_space:
        span.insert(diagonal(_combine(n, pair_cache, bit_indices(mask))).bits)
    return span


def supported_subspace(
    G: TimeGraph,
    basis_perms: Sequence[Permutation],
    pair_cache: Optional[Sequence[PairVector]] = None,
) -> list[PairVector]:
    """Basis of the pair-span elements supported in G."""
    if pair_cache is None:
        pair_cache = [pair_indicator(p) for p in basis_perms]
    return [
        _combine(G.n, pair_cache, bit_indices(mask))
        for mask in supported_coefficient_space(G, basis_perms)
    ]


def supported_image_span(
    G: TimeGraph,
    basis_perms: Sequence[Permutation],
    pair_cache: Optional[Sequence[PairVector]] = None,
) -> Gf2Basis:
    """Span of diagonal images of the supported subspace."""
    if pair_cache is None:
        pair_cache = [pair_indicator(p) for p in basis_perms]
    return _image_span(G.n, supported_coefficient_space(G, basis_perms), pair_cache)


# ---------------------------------------------------------------------------
# conjecture checks

@dataclass
class ConjectureReport:
    instance_id: str
    n: int
    graph_edges: tuple[int, ...]
    complement_order: tuple[int, ...]
    basis_seed: Optional[int]
    conjecture: int
    verdict: str  # "holds" | "violated" | "vacuous"
    witness: dict
    timing_ms: Optional[float] = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "id": self.instance_id,
            "n": self.n,
            "graph_edges": list(self.graph_edges),
            "complement_order": list(self.complement_order),
            "basis_seed": self.basis_seed,
            "conjecture": self.conjecture,
            "verdict": self.verdict,
            "witness": self.witness,
        }
        if include_timing:
            out["timing_ms"] = self.timing_ms
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_timing), sort_keys=True, separators=(",", ":")
        )


def _base_witness(g: PairVector, dec) -> dict:
    return {
        "g_hex": g.bits.to_hex(),
        "alpha": [list(a) for a in dec.alpha],
    }


def check_conjecture1(
    cb: CanonicalBasis, g: PairVector, instance_id: str = "adhoc"
) -> ConjectureReport:
    """Strict tail sums: sum of layer sums beyond m vanishes at e_m.

    Vacuous when the complement has at most one edge.  Also gates on the
    proven tail-sum identity, which is fatal if it ever fails.
    """
    if not is_supported_in(g, cb.G):
        raise ValueError("g is not supported in G")
    dec = decompose(g, cb)
    if not tail_sum_check(dec, cb):
        raise InternalInconsistencyError("tail-sum identity failed")
    k = cb.k
    failing = []
    for m in range(1, k):
        em = cb.order[m - 1]
        acc = 0
        for i in range(m + 1, k + 1):
            acc ^= (dec.layer_sums[i].bits.bits >> em) & 1
        if acc:
            failing.append(m)
    if k <= 1:
        verdict = "vacuous"
    else:
        verdict = "holds" if not failing else "violated"
    witness = _base_witness(g, dec)
    witness["failing_m"] = failing
    # consequence data: the own-layer entry f^(m)(e_m) for each m
    witness["own_layer_entries"] = [
        (dec.layer_sums[m].bits.bits >> cb.order[m - 1]) & 1 for m in range(1, k + 1)
    ]
    return ConjectureReport(
        instance_id,
        cb.G.n,
        tuple(cb.G.edge_indices()),
        cb.order,
        cb.perm_seed,
        1,
        verdict,
        witness,
    )


def check_conjecture2(
    cb: CanonicalBasis,
    g: PairVector,
    basis_perms: Optional[Sequence[Permutation]] = None,
    image_span: Optional[Gf2Basis] = None,
    all_trailing: bool = False,
    instance_id: str = "adhoc",
) -> ConjectureReport:
    """Diagonal feasibility at the last nonzero layer sum.

    Tests the strongest reading: j is the maximal index with a nonzero
    layer sum, and the verdict asks whether that sum is the diagonal image
    of some element supported in G.  With all_trailing, every j whose
    trailing sums vanish is checked (those beyond the maximum are trivial).
    Vacuous when every layer sum is zero.
    """
    if not is_supported_in(g, cb.G):
        raise ValueError("g is not supported in G")
    dec = decompose(g, cb)
    if not tail_sum_check(dec, cb):
        raise InternalInconsistencyError("tail-sum identity failed")
    witness = _base_witness(g, dec)
    nonzero = [i for i, f in enumerate(dec.layer_sums) if not f.is_zero()]
    if not nonzero:
        witness["j"] = None
        verdict = "vacuous"
    else:
        j = max(nonzero)
        witness["j"] = j
        if image_span is None:
            if basis_perms is None:
                basis_perms = build_basis(cb.G.n)
            image_span = supported_image_span(cb.G, basis_perms)
        feasible = image_span.contains(dec.layer_sums[j].bits)
        witness["feasible"] = feasible
        if all_trailing:
            witness["trailing"] = [
                {
                    "j": jj,
                    "feasible": image_span.contains(dec.layer_sums[jj].bits),
                }
                for jj in range(j, cb.k + 1)
            ]
        verdict = "holds" if feasible else "violated"
    return ConjectureReport(
        instance_id,
        cb.G.n,
        tuple(cb.G.edge_indices()),
        cb.order,
        cb.perm_seed,
        2,
        verdict,
        witness,
    )


def replay_report(data: dict, cache_dir: Optional[str] = None) -> bool:
    """Re-run a serialized report's check; True when the verdict reproduces."""
    n = data["n"]
    G = TimeGraph.from_indices(n, data["graph_edges"])
    cb = build_canonical_basis(
        G, order=data["complement_order"], perm_seed=data["basis_seed"]
    )
    g = PairVector.from_raw(n, int(data["witness"]["g_hex"], 16))
    if data["conjecture"] == 1:
        rep = check_conjecture1(cb, g, instance_id=data["id"])
    else:
        rep = check_conjecture2(
            cb, g, basis_perms=build_basis(n, cache_dir=cache_dir),
            instance_id=data["id"],
        )
    return rep.verdict == data["verdict"]


# ---------------------------------------------------------------------------
# instance sampling

def random_time_graph(n: int, rng: random.Random) -> TimeGraph:
    return TimeGraph(n, rng.getrandbits(edge_space_size(n)))


def random_graph(n: int, rng: random.Random) -> Graph:
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(1, n + 1), 2)
        if rng.randrange(2)
    ]
    return Graph.from_edges(n, pairs)


def sample_incident_combination(
    G: TimeGraph, rng: random.Random
) -> PairVector:
    """Random xor of pair indicators of permutations incident on G."""
    g = PairVector.zero(G.n)
    for p in incident_permutations(G):
        if rng.randrange(2):
            g = g ^ pair_indicator(p)
    return g


def sample_supported_element(
    G: TimeGraph,
    rng: random.Random,
    coeff_space: Sequence[int],
    pair_cache: Sequence[PairVector],
) -> PairVector:
    """Random element of the supported subspace, via its coefficient basis.

    Reaches supported elements outside the span of the incident-permutation
    indicators, which is where conjecture failures would hide.
    """
    mask = 0
    for vec in coeff_space:
        if rng.randrange(2):
            mask ^= vec
    return _combine(G.n, pair_cache, bit_indices(mask))


# ---------------------------------------------------------------------------
# campaigns

def run_campaign(
    n: int,
    trials: int,
    seed: int,
    conjectures: Sequence[int] = (1, 2),
    orders: int = 1,
    basis_seed: Optional[int] = None,
    cache_dir: Optional[str] = None,
    sink: Optional[IO[str]] = None,
    include_timing: bool = False,
) -> dict:
    """Randomized conjecture campaign; returns the summary, streams reports.

    Instances alternate between uniform random time-graphs and reductions
    of random graphs; supported elements alternate between xors of incident
    indicators and random members of the supported subspace.  Everything is
    derived from the seed, so a rerun is byte-identical (timing excluded).
    """
    basis_perms = build_basis(n, cache_dir=cache_dir)
    pair_cache = [pair_indicator(p) for p in basis_perms]
    reports: list[ConjectureReport] = []
    counts = {"holds": 0, "violated": 0, "vacuous": 0}
    implication_checks = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}:{n}:{trial}")
        if trial % 2 == 0:
            G = random_time_graph(n, rng)
            source = "timegraph"
        else:
            G = reduce_hamp(random_graph(n, rng))
            source = "reduced"
        generator = "incident-xor" if (trial >> 1) % 2 == 0 else "subspace"

        @functools.cache
        def subspace() -> tuple[list[int], Gf2Basis]:
            """This trial's supported coefficient space and its image span, once."""
            coeff_space = supported_coefficient_space(G, basis_perms)
            return coeff_space, _image_span(n, coeff_space, pair_cache)

        g_rng = random.Random(f"{seed}:{n}:{trial}:g")
        if generator == "incident-xor":
            g = sample_incident_combination(G, g_rng)
        else:
            g = sample_supported_element(G, g_rng, subspace()[0], pair_cache)
        # every report of this trial shares one witness string; the hex of
        # an order-6 pair vector is 8,100 characters
        g_hex = g.bits.to_hex()
        for oi in range(orders):
            if oi == 0:
                order = None
            else:
                shuffled = G.complement_indices()
                random.Random(f"{seed}:{n}:{trial}:order:{oi}").shuffle(shuffled)
                order = shuffled
            pseed = None
            if basis_seed is not None:
                pseed = (basis_seed * 1_000_003 + trial * 1_009 + oi) & 0x7FFFFFFF
            cb = build_canonical_basis(G, order=order, perm_seed=pseed)
            by_cid: dict[int, ConjectureReport] = {}
            for cid in conjectures:
                instance_id = f"n{n}-t{trial:04d}-o{oi}-c{cid}"
                t0 = time.perf_counter()
                if cid == 1:
                    rep = check_conjecture1(cb, g, instance_id=instance_id)
                else:
                    rep = check_conjecture2(
                        cb, g, image_span=subspace()[1], instance_id=instance_id
                    )
                rep.timing_ms = (time.perf_counter() - t0) * 1000.0
                rep.witness["g_hex"] = g_hex
                rep.witness["source"] = source
                rep.witness["generator"] = generator
                by_cid[cid] = rep
                counts[rep.verdict] += 1
                reports.append(rep)
                if sink is not None:
                    sink.write(rep.to_json(include_timing) + "\n")
            # instance-wise gate: a value-1 element supported in a
            # non-hamiltonian graph (layer 0 empty) must violate at least
            # one conjecture; anything else is an implementation bug
            if cb.d[0] == 0 and value_pair(g) == 1:
                implication_checks += 1
                r1 = by_cid.get(1) or check_conjecture1(cb, g)
                if 2 in by_cid:
                    r2 = by_cid[2]
                else:
                    ensure_subspace()
                    r2 = check_conjecture2(cb, g, image_span=image_span)
                if r1.verdict != "violated" and r2.verdict != "violated":
                    raise InternalInconsistencyError(
                        "value-1 supported element on a non-hamiltonian "
                        "instance violated neither conjecture"
                    )
    summary = {
        "n": n,
        "trials": trials,
        "seed": seed,
        "orders": orders,
        "conjectures": list(conjectures),
        "reports": len(reports),
        "counts": counts,
        "implication_checks": implication_checks,
    }
    if sink is not None:
        sink.write(json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")) + "\n")
    return {"summary": summary, "reports": reports}


# ---------------------------------------------------------------------------
# cross-validation against the oracles

def audit_false_positive(
    g: Graph,
    witness: Sequence[int],
    basis_perms: Sequence[Permutation],
    pair_cache: Optional[Sequence[PairVector]] = None,
) -> dict:
    """Forensics for a yes-decision on an oracle-no graph.

    The witness combination is supported in the reduction and has value 1,
    so the conjecture checks on it cannot both hold; at least one violated
    verdict is required, otherwise something proven has failed and the
    implementation is broken.
    """
    if pair_cache is None:
        pair_cache = [pair_indicator(p) for p in basis_perms]
    T = reduce_hamp(g)
    gw = _combine(g.n, pair_cache, witness)
    if not is_supported_in(gw, T) or value_pair(gw) != 1:
        raise InternalInconsistencyError("decision witness is not a valid combination")
    cb = build_canonical_basis(T)
    image_span = supported_image_span(T, basis_perms, pair_cache)
    r1 = check_conjecture1(cb, gw, instance_id="audit-c1")
    r2 = check_conjecture2(cb, gw, image_span=image_span, instance_id="audit-c2")
    ok = r1.verdict == "violated" or r2.verdict == "violated"
    return {
        "g_hex": gw.bits.to_hex(),
        "witness": list(witness),
        "reports": [r1.to_dict(), r2.to_dict()],
        "implication_ok": ok,
    }


def _all_graphs(n: int) -> Iterable[Graph]:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, (pairs[k] for k in range(len(pairs)) if (mask >> k) & 1)
        )


def _random_graphs(n: int, count: int, seed: int) -> Iterable[Graph]:
    for idx in range(count):
        rng = random.Random(f"{seed}:{n}:crossval:{idx}")
        yield random_graph(n, rng)


def crossval(
    n: int,
    exhaustive: bool = True,
    random_count: Optional[int] = None,
    seed: int = 0,
    cache_dir: Optional[str] = None,
) -> dict:
    """Oracle answer vs. decision procedure over a family of graphs.

    A false negative breaks an unconditional guarantee and is counted (the
    acceptance suite requires zero).  False positives are conjecture
    counterexample candidates and are exported with replayable witnesses
    plus the per-instance implication audit.
    """
    basis_perms = build_basis(n, cache_dir=cache_dir)
    pair_cache = [pair_indicator(p) for p in basis_perms]
    if exhaustive:
        graphs: Iterable[Graph] = _all_graphs(n)
        source = {"kind": "exhaustive"}
    else:
        if random_count is None:
            raise ValueError("random_count required when not exhaustive")
        graphs = _random_graphs(n, random_count, seed)
        source = {"kind": "random", "count": random_count, "seed": seed}
    agree_yes = agree_no = 0
    false_negatives: list[dict] = []
    false_positives: list[dict] = []
    total = 0
    for g in graphs:
        total += 1
        oracle = hamiltonian_path_oracle(g)
        decision = decide_time_graph(reduce_hamp(g), basis_perms)
        if decision.answer and oracle:
            agree_yes += 1
        elif not decision.answer and not oracle:
            agree_no += 1
        elif decision.answer and not oracle:
            audit = audit_false_positive(g, decision.witness or (), basis_perms, pair_cache)
            false_positives.append(
                {"graph_pairs": sorted(g.pairs), "audit": audit}
            )
        else:
            false_negatives.append({"graph_pairs": sorted(g.pairs)})
    return {
        "n": n,
        "source": source,
        "graphs": total,
        "agree_yes": agree_yes,
        "agree_no": agree_no,
        "false_positive_count": len(false_positives),
        "false_negative_count": len(false_negatives),
        "false_positives": false_positives,
        "false_negatives": false_negatives,
    }


# ---------------------------------------------------------------------------
# dimensions

def dimension_table(
    max_n: int,
    pair_max: int = 6,
    cache_dir: Optional[str] = None,
) -> list[dict]:
    """Measured dimensions of the indicator spans, against the lift basis size.

    The pair-span columns stop at pair_max; where both are computed the
    lift basis size must equal the brute-force pair rank.
    """
    out = []
    for n in range(2, max_n + 1):
        perms = all_permutations(n)
        dim_edge = rank([edge_indicator(p).bits for p in perms])
        row = {
            "n": n,
            "edges": edge_space_size(n),
            "dim_edge_span": dim_edge,
            "dim_pair_span": None,
            "lift_basis_size": None,
            "consistent": None,
        }
        if n <= pair_max:
            dim_pair = rank([pair_indicator(p).bits for p in perms])
            basis_n = len(build_basis(n, cache_dir=cache_dir, cap=pair_max))
            row["dim_pair_span"] = dim_pair
            row["lift_basis_size"] = basis_n
            row["consistent"] = dim_pair == basis_n
        out.append(row)
    return out
