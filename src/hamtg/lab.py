"""Conjecture-testing and cross-validation harness.

Conjecture 1 (strict tail sums): for a decomposed supported element, the
layer sums strictly beyond m cancel at e_m for every m up to k-1.
Conjecture 2 (diagonal feasibility): with j the last nonzero layer sum,
some element supported in G has that sum as its diagonal image.

Either verdict is a finding, not a failure.  Two conditions are fatal, as
either means the implementation is broken: a violation of the proven
tail-sum identity, and the implication gate (a value-1 element supported
in a non-hamiltonian time-graph that violates neither conjecture), which
the campaign and the false-positive audit share.  All reports are
deterministic JSON and replay from their serialized witnesses.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from typing import IO, Iterable, Optional, Sequence

from .canonical import (
    CanonicalBasis,
    Decomposition,
    InternalInconsistencyError,
    _shuffle,
    _spanning_edges,
    _tail_parities,
    build_canonical_basis,
    decompose,
    tail_sum_check,
)
from .gf2 import Gf2Basis, _Value, bit_indices, solve_system
from .liftbasis import _order_basis, base_basis, build_basis
from .permvec import (
    PairVector,
    _pair_row,
    is_supported_in,
    pair_coordinates,
    pair_sum,
    value_pair,
)
from .solver import assemble_system, decide_time_graph
from .timegraph import (
    Graph,
    Permutation,
    TimeGraph,
    check_perm_cap,
    edge_space_size,
    hamiltonian_path_oracle,
    incident_mask,
    incident_permutations,
    permutation_table,
    reduce_hamp,
)


# ---------------------------------------------------------------------------
# supported subspace

def supported_coefficient_space(
    G: TimeGraph, basis_perms: Sequence[Permutation]
) -> list[int]:
    """Coefficient masks spanning {alpha : the combination is supported in G}.

    These are the homogeneous solutions of the assembled system (the value
    row dropped), LinearSystem.kernel lifted from the roots to every
    variable.  A contracted variable is in no row, so its own vector would
    be exactly its bit; it is not built, since the contraction already
    fixes that variable.
    """
    system = assemble_system(G, basis_perms)
    return [system.lift(v) for v, _ in system.kernel()]


def supported_image_span(
    G: TimeGraph, basis_perms: Sequence[Permutation]
) -> Gf2Basis:
    """Span of diagonal images of the supported subspace: the images that
    LinearSystem.kernel reads off with each vector, so none is lifted."""
    span = Gf2Basis(edge_space_size(G.n))
    for _, image in assemble_system(G, basis_perms).kernel():
        span.insert_raw(image)
    return span


# ---------------------------------------------------------------------------
# conjecture checks

class ConjectureReport(_Value):
    """One conjecture's verdict on one instance: "holds", "violated" or
    "vacuous"."""

    __slots__ = _fields = (
        "instance_id", "n", "graph_edges", "complement_order", "basis_seed",
        "conjecture", "verdict", "witness",
    )

    def to_dict(self) -> dict:
        return {
            "id": self.instance_id,
            "n": self.n,
            "graph_edges": list(self.graph_edges),
            "complement_order": list(self.complement_order),
            "basis_seed": self.basis_seed,
            "conjecture": self.conjecture,
            "verdict": self.verdict,
            "witness": self.witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _decomposed(cb: CanonicalBasis, g: PairVector) -> Decomposition:
    """g's decomposition over cb, gated on the proven tail-sum identity."""
    if not is_supported_in(g, cb.G):
        raise ValueError("g is not supported in G")
    dec = decompose(g, cb)
    if not tail_sum_check(dec, cb):
        raise InternalInconsistencyError("tail-sum identity failed")
    return dec


@functools.lru_cache(maxsize=1)
def _graph_edges(G: TimeGraph) -> tuple[int, ...]:
    """G's edge indices; consecutive reports on one instance share the tuple."""
    return tuple(G.edge_indices())


def _report(
    cb: CanonicalBasis,
    conjecture: int,
    g_hex: str,
    dec: Decomposition,
    instance_id: str,
    verdict: str,
    **witness,
) -> ConjectureReport:
    return ConjectureReport(
        instance_id,
        cb.G.n,
        _graph_edges(cb.G),
        cb.order,
        cb.perm_seed,
        conjecture,
        verdict,
        {"g_hex": g_hex, "alpha": [list(a) for a in dec.alpha], **witness},
    )


def _conjecture1(
    cb: CanonicalBasis, g_hex: str, dec: Decomposition, instance_id: str, **tags
) -> ConjectureReport:
    k = cb.k
    strict_tails = _tail_parities(dec, cb, strict=True)
    failing = [m for m, acc in enumerate(strict_tails, 1) if acc]
    if k <= 1:
        verdict = "vacuous"
    else:
        verdict = "holds" if not failing else "violated"
    return _report(
        cb, 1, g_hex, dec, instance_id, verdict,
        failing_m=failing,
        # consequence data: the own-layer entry f^(m)(e_m) for each m
        own_layer_entries=[
            (dec.layer_sums[m].bits >> cb.order[m - 1]) & 1 for m in range(1, k + 1)
        ],
        **tags,
    )


def _conjecture2(
    cb: CanonicalBasis,
    g_hex: str,
    dec: Decomposition,
    image_span: Gf2Basis,
    instance_id: str,
    **tags,
) -> ConjectureReport:
    j = max((i for i, f in enumerate(dec.layer_sums) if f.bits), default=None)
    if j is None:
        return _report(cb, 2, g_hex, dec, instance_id, "vacuous", j=None, **tags)
    feasible = image_span.contains(dec.layer_sums[j])
    verdict = "holds" if feasible else "violated"
    return _report(cb, 2, g_hex, dec, instance_id, verdict, j=j, feasible=feasible, **tags)


def _gated_reports(
    cb: CanonicalBasis, g: PairVector, g_hex: str, image_span: Gf2Basis, prefix: str, **tags
) -> tuple[ConjectureReport, ConjectureReport, bool]:
    """Both conjecture reports on one decomposition of g over cb, with ids
    prefix + "c1" and "c2" and tags (a campaign's source and generator)
    last in each witness, and whether the implication gate applied: a
    value-1 element supported in a non-hamiltonian G (layer 0 empty) must
    violate a conjecture, or the implementation is broken."""
    dec = _decomposed(cb, g)
    r1 = _conjecture1(cb, g_hex, dec, prefix + "c1", **tags)
    r2 = _conjecture2(cb, g_hex, dec, image_span, prefix + "c2", **tags)
    gated = not cb.layers[0] and value_pair(g) == 1
    if gated and "violated" not in (r1.verdict, r2.verdict):
        raise InternalInconsistencyError(
            f"{prefix}c1/c2: value-1 supported element on a non-hamiltonian "
            "instance violated neither conjecture"
        )
    return r1, r2, gated


def check_conjecture1(
    cb: CanonicalBasis, g: PairVector, instance_id: str = "adhoc"
) -> ConjectureReport:
    """Strict tail sums: sum of layer sums beyond m vanishes at e_m.

    Vacuous when the complement has at most one edge.  Also gates on the
    proven tail-sum identity, which is fatal if it ever fails.
    """
    return _conjecture1(cb, format(g.bits, "x"), _decomposed(cb, g), instance_id)


def check_conjecture2(
    cb: CanonicalBasis,
    g: PairVector,
    image_span: Gf2Basis,
    instance_id: str = "adhoc",
) -> ConjectureReport:
    """Diagonal feasibility at the last nonzero layer sum.

    Tests the strongest reading: j is the maximal index with a nonzero
    layer sum, and the verdict asks whether that sum is the diagonal image
    of some element supported in G; image_span is the span of those images
    (supported_image_span of cb.G).  Vacuous when every layer sum is zero.
    A verdict at j = 0 on a g in the pair span always holds: decompose
    leaves gc with a zero diagonal, so diag(g) is the sum of the layer
    sums, which is f_0 when j = 0, and g itself is a supported element
    with that diagonal.
    """
    return _conjecture2(
        cb, format(g.bits, "x"), _decomposed(cb, g), image_span, instance_id
    )


def replay_report(data: dict, cache_dir: Optional[str] = None) -> bool:
    """Re-run a serialized report's check; True when the verdict reproduces."""
    n = data["n"]
    G = TimeGraph.from_indices(n, data["graph_edges"])
    cb = build_canonical_basis(
        G, order=data["complement_order"], perm_seed=data["basis_seed"]
    )
    g = PairVector(n, int(data["witness"]["g_hex"], 16))
    if data["conjecture"] == 1:
        rep = check_conjecture1(cb, g, instance_id=data["id"])
    else:
        # cap=n: build_canonical_basis above already enforced the n! cap
        image_span = supported_image_span(G, build_basis(n, cache_dir=cache_dir, cap=n))
        rep = check_conjecture2(cb, g, image_span, instance_id=data["id"])
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
    return pair_sum(
        G.n, [incident_mask(p) for p in incident_permutations(G) if rng.randrange(2)]
    )


def sample_supported_element(
    G: TimeGraph,
    rng: random.Random,
    coeff_space: Sequence[int],
    incident_masks: Sequence[int],
) -> PairVector:
    """Random element of the supported subspace, via its coefficient basis.

    incident_masks holds each basis permutation's incident edge mask.
    Reaches supported elements outside the span of the incident-permutation
    indicators, which is where conjecture failures would hide.
    """
    mask = 0
    for vec in coeff_space:
        if rng.randrange(2):
            mask ^= vec
    return pair_sum(G.n, [incident_masks[k] for k in bit_indices(mask)])


# ---------------------------------------------------------------------------
# campaigns

def run_campaign(
    n: int,
    trials: int,
    seed: int,
    orders: int = 1,
    basis_seed: Optional[int] = None,
    cache_dir: Optional[str] = None,
    sink: Optional[IO[str]] = None,
) -> dict:
    """Randomized conjecture campaign; returns the summary, streams reports.

    Instances alternate between uniform random time-graphs and reductions
    of random graphs; supported elements alternate between xors of incident
    indicators and random members of the supported subspace.  Everything is
    derived from the seed, so a rerun is byte-identical.
    """
    basis_perms = build_basis(n, cache_dir=cache_dir)
    incident_masks = [incident_mask(p) for p in basis_perms]
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
        system = assemble_system(G, basis_perms)
        kernel = system.kernel()
        image_span = Gf2Basis(edge_space_size(n))
        for _, image in kernel:
            image_span.insert_raw(image)
        g_rng = random.Random(f"{seed}:{n}:{trial}:g")
        if generator == "incident-xor":
            g = sample_incident_combination(G, g_rng)
        else:
            coeff_space = [system.lift(v) for v, _ in kernel]
            g = sample_supported_element(G, g_rng, coeff_space, incident_masks)
        # every report of this trial shares one witness string; the hex of
        # an order-6 pair vector is 8,100 characters
        g_hex = format(g.bits, "x")
        for oi in range(orders):
            if oi == 0:
                order = None
            else:
                order = G.complement_indices()
                _shuffle(order, f"{seed}:{n}:{trial}:order:{oi}")
            pseed = None
            if basis_seed is not None:
                pseed = (basis_seed * 1_000_003 + trial * 1_009 + oi) & 0x7FFFFFFF
            cb = build_canonical_basis(G, order=order, perm_seed=pseed)
            r1, r2, gated = _gated_reports(
                cb, g, g_hex, image_span, f"n{n}-t{trial:04d}-o{oi}-",
                source=source, generator=generator,
            )
            implication_checks += gated
            for rep in (r1, r2):
                counts[rep.verdict] += 1
                reports.append(rep)
                if sink is not None:
                    sink.write(rep.to_json() + "\n")
    summary = {
        "n": n,
        "trials": trials,
        "seed": seed,
        "orders": orders,
        "conjectures": [1, 2],
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
    T: TimeGraph, witness: Sequence[int], basis_perms: Sequence[Permutation]
) -> dict:
    """Forensics for a yes-decision on an oracle-no time-graph.

    The witness combination is supported in T and has value 1, so when T
    is non-hamiltonian the conjecture checks on it cannot both hold: the
    reports go through the campaign's implication gate, which raises
    InternalInconsistencyError unless at least one verdict is violated.
    """
    gw = pair_sum(T.n, [incident_mask(basis_perms[k]) for k in witness])
    if not is_supported_in(gw, T) or value_pair(gw) != 1:
        raise InternalInconsistencyError("decision witness is not a valid combination")
    g_hex = format(gw.bits, "x")
    # the image span's elimination runs before the build keeps the order's
    # lane table, so the two never hold their peaks at once
    image_span = supported_image_span(T, basis_perms)
    r1, r2, _ = _gated_reports(build_canonical_basis(T), gw, g_hex, image_span, "audit-")
    return {
        "g_hex": g_hex,
        "witness": list(witness),
        "reports": [r1.to_dict(), r2.to_dict()],
        "implication_ok": "violated" in (r1.verdict, r2.verdict),
    }


def _all_graphs(n: int) -> Iterable[Graph]:
    # the pairs are ordered already, so each graph needs no from_edges pass
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, frozenset(pairs[k] for k in range(len(pairs)) if (mask >> k) & 1))


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
    if exhaustive:
        if random_count is not None:
            raise ValueError("random_count given with exhaustive")
        graphs: Iterable[Graph] = _all_graphs(n)
        source = {"kind": "exhaustive"}
    else:
        if random_count is None:
            raise ValueError("random_count required when not exhaustive")
        graphs = _random_graphs(n, random_count, seed)
        source = {"kind": "random", "count": random_count, "seed": seed}
    basis_perms = build_basis(n, cache_dir=cache_dir)
    agree_yes = agree_no = 0
    false_negatives: list[dict] = []
    false_positives: list[dict] = []
    total = 0
    for g in graphs:
        total += 1
        oracle = hamiltonian_path_oracle(g)
        T = reduce_hamp(g)
        decision = decide_time_graph(T, basis_perms)
        if decision.answer and oracle:
            agree_yes += 1
        elif not decision.answer and not oracle:
            agree_no += 1
        elif decision.answer and not oracle:
            audit = audit_false_positive(T, decision.witness or (), basis_perms)
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

    The pair-span columns stop at pair_max; where both are computed,
    consistent says whether the lift basis size equals the brute-force pair
    rank.  Through order 6 the lift step is given all n! pair rows in table
    order, the rows that rank sees, so there it holds by construction; at
    order 7 the lift has 5,033 candidates.  The edge rank is the column
    rank of the permutations' edge incidence matrix, the size of the
    spanning set of edges the canonical builder keeps; the pair rank is
    taken over compact pair rows, which keep the rank for the reason given
    in liftbasis._lift_step.  Each order's lift basis is one lift step from
    the order below, so the recursion runs once in all.
    """
    check_perm_cap(max_n)
    out = []
    basis = base_basis(1)
    for n in range(2, max_n + 1):
        row = {
            "n": n,
            "edges": edge_space_size(n),
            "dim_edge_span": len(_spanning_edges(n)[0]),
            "dim_pair_span": None,
            "lift_basis_size": None,
            "consistent": None,
        }
        if n <= pair_max:
            coords = pair_coordinates(n)
            rows = (_pair_row(coords, p) for p, _, _ in permutation_table(n))
            pair_rank = solve_system(rows, itertools.repeat(0), len(coords)).rank
            basis = _order_basis(n, cache_dir, pair_max, prev=basis)
            row["dim_pair_span"] = pair_rank
            row["lift_basis_size"] = len(basis)
            row["consistent"] = pair_rank == len(basis)
        out.append(row)
    return out
