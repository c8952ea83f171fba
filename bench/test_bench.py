"""Self-tests of the benchmark: tracing changes nothing, and the checks catch a wrong answer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hamtg import gf2, lab, liftbasis, solver  # noqa: E402

SMALL = [
    workloads.Crossval(4),
    workloads.Crossval(5, count=6, seed=3),
    workloads.Campaign(4, trials=4, seed=3),
    workloads.Dimensions(5, pair_max=5),
]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HAMTG_CACHE_DIR", str(tmp_path))
    return str(tmp_path)


def _output_bytes(wl, cache_dir) -> bytes:
    return json.dumps(wl.canonical(wl.call(cache_dir)), sort_keys=True).encode()


def _bindings() -> dict[tuple[str, str], int]:
    """Identity of every callable bound in the hamtg modules and on Gf2Basis."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "hamtg" or key.startswith("hamtg."):
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(key, attr)] = id(val)
    for attr, val in vars(gf2.Gf2Basis).items():
        out[("Gf2Basis", attr)] = id(val)
    return out


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_traced_output_is_byte_identical(wl, cache_dir):
    untraced = _output_bytes(wl, cache_dir)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = _output_bytes(wl, cache_dir)
    assert traced == untraced
    assert tracer.spans
    with probe.Probe():
        assert _output_bytes(wl, cache_dir) == untraced
    assert wl.check(json.loads(traced), cache_dir) == 0


def test_wrappers_bound_everywhere_and_removed(cache_dir):
    before = _bindings()
    originals = tracing.layer_functions()
    with tracing.installed(tracing.Tracer()):
        # names imported with "from ... import" are rebound too
        assert lab.solve_system is not originals["gf2.solve_system"]
        assert lab.build_basis is not originals["liftbasis.build_basis"]
        assert solver.assemble_system is not originals["solver.assemble_system"]
        assert gf2.Gf2Basis.insert_raw is not originals["gf2.Gf2Basis.insert_raw"]
        assert _bindings() != before
    assert _bindings() == before
    assert lab.solve_system is originals["gf2.solve_system"]


def test_nested_spans_are_parented(cache_dir):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        liftbasis.build_basis(5, cache_dir=None)
        basis = gf2.Gf2Basis(3)
        basis.insert(gf2.BitVec(3, 5))
    names = [s[0] for s in tracer.spans]
    assert names.count("liftbasis.build_basis") == 3  # orders 5, 4, 3
    by_name = {}
    for idx, (name, t0, t1, parent) in enumerate(tracer.spans):
        by_name.setdefault(name, []).append((idx, parent))
    inner = by_name["liftbasis.build_basis"][1]
    assert tracer.spans[inner[1]][0] == "liftbasis.build_basis"
    insert_idx = by_name["gf2.Gf2Basis.insert"][-1][0]
    assert tracer.spans[-1][0] == "gf2.Gf2Basis.insert_raw"
    assert tracer.spans[-1][3] == insert_idx
    stats = tracing.span_stats(tracer.spans)
    outer = tracer.spans[by_name["liftbasis.build_basis"][0][0]]
    assert stats["liftbasis.build_basis"]["s"] == pytest.approx(outer[2] - outer[1])
    assert stats["liftbasis.build_basis"]["self_s"] <= stats["liftbasis.build_basis"]["s"]
    assert tracer.counters["liftbasis.build_basis.cache_miss"] == 3


def test_injected_wrong_answer_is_counted(cache_dir, monkeypatch):
    wl = workloads.Crossval(4)
    assert wl.check(wl.canonical(wl.call(cache_dir)), cache_dir) == 0
    real = lab.decide_time_graph
    flipped = []

    def flip_first_yes(G, basis_perms):
        decision = real(G, basis_perms)
        if decision.answer and not flipped:
            flipped.append(G)
            return solver.Decision(
                False, None, decision.nvars, decision.rows, decision.raw_rows, decision.rank
            )
        return decision

    monkeypatch.setattr(lab, "decide_time_graph", flip_first_yes)
    out = wl.canonical(wl.call(cache_dir))
    assert flipped
    assert wl.check(out, cache_dir) == 1


def test_changed_campaign_verdict_is_counted(cache_dir, monkeypatch):
    wl = workloads.Campaign(4, trials=4, seed=3)
    out = wl.canonical(wl.call(cache_dir))
    pin = wl.pin(out)
    monkeypatch.setattr(workloads, "load_pins", lambda: {wl.pin_key(): pin})
    assert wl.check(out, cache_dir) == 0
    first = pin["verdicts"][0]
    pin["verdicts"] = ("0" if first == "h" else "h") + pin["verdicts"][1:]
    assert wl.check(out, cache_dir) == 1


def test_pins_cover_pinned_seeds():
    pins = workloads.load_pins()
    assert workloads.make("crossval-n5", 0).pin_key() in pins
    for seed in workloads.PINNED_SEEDS:
        for name in ("crossval-n6", "campaign-n6"):
            assert workloads.make(name, seed).pin_key() in pins


def test_dimension_row_change_is_counted():
    wl = workloads.Dimensions(5, pair_max=5)
    rows = list(wl.expected_rows().values())
    assert wl.check(rows, None) == 0
    rows[-1] = dict(rows[-1], dim_edge_span=rows[-1]["dim_edge_span"] + 1)
    assert wl.check(rows, None) == 1


def test_independent_oracle_small_cases():
    assert workloads.has_hamiltonian_path(1, [])
    assert workloads.has_hamiltonian_path(3, [(1, 2), (2, 3)])
    assert not workloads.has_hamiltonian_path(4, [(1, 2), (1, 3), (1, 4)])
    assert not workloads.has_hamiltonian_path(4, [(1, 2), (3, 4)])


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert set(run.REPORTED) <= set(tracing.layer_functions())
