#!/usr/bin/env python3
"""Benchmark of the hamtg workbench: one workload per process, closed loop.

    python3 bench/run.py --workload crossval-n5 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up builds the workload's lift basis cold into fresh cache
directories, several times, in child processes.  The timed phase then
repeats one call into ``hamtg.lab`` on the same seeded inputs, one pass
after another, for about ``--seconds``.  Outputs are checked outside the
timed region.  With ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics come from the traced ones.

The last line of stdout is the result object; the line before it records
the run environment and the details behind the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# Set-up repeats until both limits are reached, counting each child
# process's whole wall time, so that a 0.1 s import-only set-up is
# sampled about a dozen times and a 1.5 s cold n=6 build five times.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0

# Layer functions reported with .s (inclusive), .self_s and .calls per pass.
REPORTED = (
    "gf2.solve_system",
    "gf2.Gf2Basis.insert_raw",
    "gf2.Gf2Basis.contains",
    "gf2.Gf2Basis.coords_raw",
    "solver.assemble_system",
    "solver.incidence_columns",
    "solver.decide_time_graph",
    "liftbasis.build_basis",
    "canonical.build_canonical_basis",
    "canonical.decompose",
    "canonical.tail_sum_check",
    "timegraph.hamiltonian_path_oracle",
    "timegraph.incident_permutations",
    "timegraph.reduce_hamp",
    "permvec.pair_indicator",
    "permvec.diagonal",
    "permvec.is_supported_in",
    "lab.supported_coefficient_space",
    "lab.check_conjecture1",
    "lab.check_conjecture2",
    "lab.audit_false_positive",
)
# Workload entry points; their self time is the glue between the layers.
GLUE = ("lab.crossval", "lab.run_campaign", "lab.dimension_table")
# Counters recorded by the tracer's hooks, reported per pass.
COUNTS = (
    "gf2.solve_system.inconsistent",
    "gf2.solve_system.rank_sum",
    "solver.assemble_system.rows",
    "solver.assemble_system.raw_rows",
    "liftbasis.build_basis.cache_hit",
    "liftbasis.build_basis.cache_miss",
)
LATENCY = "solver.decide_time_graph"
TAIL_LEVELS = (99.9, 99.5, 99.0, 95.0, 90.0)

# Import plus a cold lift-basis build, timed like a pass: probe samples
# from a burst before, the interval timer during and a burst after.
SETUP_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[3])
import probe
before = probe.burst()
with probe.Probe() as pr:
    t0 = time.perf_counter()
    import hamtg.lab
    from hamtg.liftbasis import build_basis
    order = int(sys.argv[1])
    if order:
        build_basis(order, cache_dir=sys.argv[2])
    wall = time.perf_counter() - t0
speed = probe.relative_speed(before + pr.samples + probe.burst())
print(json.dumps({"wall_s": wall, "norm_s": (wall - pr.spent_s) * speed}))
"""


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in REPORTED:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in GLUE:
        units[f"{name}.self_s"] = "s"
    for key in COUNTS:
        units[key] = "count"
    units["gf2.Gf2Basis.insert_raw.extended_frac"] = "frac"
    units["solver.assemble_system.kept_frac"] = "frac"
    units[f"{LATENCY}.ms.p50"] = "ms"
    units[f"{LATENCY}.ms.tail"] = "ms"
    units[f"{LATENCY}.ms.tail_pct"] = "%"
    units[f"{LATENCY}.samples"] = "count"
    units["trace.coverage_frac"] = "frac"
    units["trace.overhead_frac"] = "frac"
    return units


PER_LAYER_UNITS = _per_layer_units()


# ---------------------------------------------------------------------------
# set-up


def measure_setup(order, run_dir: Path) -> tuple[list[dict], str]:
    """Repeated import plus a cold lift-basis build, each in a fresh process and cache dir."""
    times = []
    cache_dir = ""
    spent = 0.0
    while len(times) < SETUP_MIN_REPEATS or spent < SETUP_MIN_S:
        cache_dir = str(run_dir / f"cache{len(times)}")
        os.mkdir(cache_dir)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(order or 0), cache_dir, str(BENCH_DIR)],
            env={**os.environ, "PYTHONPATH": str(SRC), "HAMTG_CACHE_DIR": cache_dir}, cwd=ROOT, capture_output=True, text=True,
            timeout=150, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        spent += time.perf_counter() - t0
    return times, (cache_dir if order else "")


# ---------------------------------------------------------------------------
# per-layer numbers from the traced passes


def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(q * len(sorted_xs) / 100.0 - 1e-9) - 1
    return sorted_xs[max(k, 0)]


def latency_metrics(samples: list[float]) -> dict[str, float]:
    xs = sorted(s * 1000.0 for s in samples)
    out = {f"{LATENCY}.samples": len(xs)}
    if not xs:
        out.update({f"{LATENCY}.ms.p50": 0.0, f"{LATENCY}.ms.tail": 0.0, f"{LATENCY}.ms.tail_pct": 0.0})
        return out
    level = next((q for q in TAIL_LEVELS if len(xs) * (100.0 - q) / 100.0 >= 10), 50.0)
    out[f"{LATENCY}.ms.p50"] = percentile(xs, 50.0)
    out[f"{LATENCY}.ms.tail"] = percentile(xs, level)
    out[f"{LATENCY}.ms.tail_pct"] = level
    return out


def layer_metrics(traced: list[dict], untraced_s: list[float], traced_s: list[float]) -> dict:
    """Per-pass means of span and counter totals over the traced passes."""
    passes = len(traced) or 1
    out: dict[str, float] = {}
    for name in REPORTED:
        for field in ("s", "self_s", "calls"):
            out[f"{name}.{field}"] = sum(p["stats"].get(name, {}).get(field, 0) for p in traced) / passes
    for name in GLUE:
        out[f"{name}.self_s"] = sum(p["stats"].get(name, {}).get("self_s", 0) for p in traced) / passes
    totals = {}
    for p in traced:
        for key, val in p["counters"].items():
            totals[key] = totals.get(key, 0) + val
    for key in COUNTS:
        out[key] = totals.get(key, 0) / passes
    inserts = sum(p["stats"].get("gf2.Gf2Basis.insert_raw", {}).get("calls", 0) for p in traced)
    extended = totals.get("gf2.Gf2Basis.insert_raw.extended", 0)
    out["gf2.Gf2Basis.insert_raw.extended_frac"] = extended / inserts if inserts else 0.0
    raw_rows = totals.get("solver.assemble_system.raw_rows", 0)
    rows = totals.get("solver.assemble_system.rows", 0)
    out["solver.assemble_system.kept_frac"] = rows / raw_rows if raw_rows else 0.0
    out.update(latency_metrics([d for p in traced for d in p["latency"]]))
    out["trace.coverage_frac"] = sum(p["coverage"] for p in traced) / passes
    overhead = 0.0
    if traced_s and untraced_s:
        overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    out["trace.overhead_frac"] = overhead
    return out


# ---------------------------------------------------------------------------
# the run


def environment(wl, cache_dir: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": wl.name,
        "params": wl.params(),
        "cache_dir": cache_dir or None,
    }


def normalized_work_s(records: list[dict]) -> list[float]:
    """Each pass's work time scaled to the probe's reference speed.

    A pass too short to hold a probe sample uses the speed of the whole run.
    """
    run_speed = probe.relative_speed([s for r in records for s in r["probe"]] or probe.burst())
    return [
        r["work_s"] * (probe.relative_speed(r["probe"]) if r["probe"] else run_speed)
        for r in records
    ]


def run_passes(wl, cache_dir: str, seconds: float, trace: bool):
    """Closed loop of passes; returns (records, canonical output of the first pass)."""
    tracer = tracing.Tracer() if trace else None
    records = []
    first_out = first_digest = None
    spent = 0.0
    while True:
        traced = trace and len(records) % 2 == 1
        rec = {"traced": traced, "error": None}
        raw = None
        if traced:
            tracer.reset()
            context = tracing.installed(tracer)
        elif trace:
            context = contextlib.nullcontext()
        else:
            context = probe.Probe()
        with context as ctx:
            t0 = time.perf_counter()
            try:
                raw = wl.call(cache_dir)
            except Exception as exc:  # reported as a failed pass
                rec["error"] = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        rec["wall_s"] = t1 - t0
        if isinstance(ctx, probe.Probe):
            rec["work_s"] = rec["wall_s"] - ctx.spent_s
            rec["probe"] = ctx.samples
        if traced:
            rec["stats"] = tracing.span_stats(tracer.spans)
            rec["counters"] = dict(tracer.counters)
            rec["coverage"] = tracing.coverage(tracer.spans)
            rec["latency"] = [t1 - t0 for name, t0, t1, _ in tracer.spans if name == LATENCY]
            if not any(r["traced"] for r in records):
                rec["spans"] = tracer.spans
        if raw is not None:
            out = wl.canonical(raw)
            digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
            if first_out is None:
                first_out, first_digest = out, digest
            rec["same_as_first"] = digest == first_digest
            rec["digest"] = digest
            del raw, out
        records.append(rec)
        spent += rec["wall_s"]
        if rec["error"] is not None:
            break
        need_traced = trace and not any(r["traced"] for r in records)
        if not need_traced and spent + rec["wall_s"] > seconds:
            break
    return records, first_out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hamtg" / "__init__.py").is_file():
        print(f"error: no hamtg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Pinned before the package is imported; never inherited.
    os.environ["HAMTG_CACHE_DIR"] = ""
    import hamtg

    if not Path(hamtg.__file__).resolve().is_relative_to(SRC):
        print(f"error: hamtg imported from {hamtg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        wl = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR))
    try:
        setup_times, cache_dir = measure_setup(wl.setup_order, run_dir)
        os.environ["HAMTG_CACHE_DIR"] = cache_dir
        records, first_out = run_passes(wl, cache_dir, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # output checks, outside the timed region
        per_pass = wl.expected_ops()
        first_failed = per_pass
        if first_out is not None:
            try:
                first_failed = wl.check(first_out, cache_dir or None)
            except Exception as exc:  # a malformed output fails every operation
                print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        attempted = failed = 0
        for rec in records:
            attempted += per_pass
            if rec["error"] is not None or not rec.get("same_as_first"):
                failed += per_pass
            else:
                failed += first_failed

        untraced = [r["wall_s"] for r in records if not r["traced"]]
        detail = {
            "env": environment(wl, cache_dir),
            "setup_s": setup_times,
            "passes": [
                {k: r[k] for k in ("traced", "wall_s", "work_s", "error", "digest") if k in r}
                for r in records
            ],
            "ops_per_pass": per_pass,
            "failed_frac": failed / attempted,
        }
        if args.trace:
            traced = [r for r in records if r["traced"]]
            metrics = layer_metrics(traced, untraced, [r["wall_s"] for r in traced])
            units = PER_LAYER_UNITS
            if traced:
                trace_file = WORK_DIR / f"trace-{wl.name}-s{args.seed}.jsonl"
                with open(trace_file, "w") as fh:
                    for name, t0, t1, parent in traced[0]["spans"]:
                        fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent}) + "\n")
                detail["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            run_s = statistics.median(normalized_work_s(records))
            detail["wall_run_s"] = statistics.median(untraced)
            detail["pass_speed"] = [probe.relative_speed(r["probe"]) for r in records if r["probe"]]
            metrics = {
                "setup_s": statistics.median(t["norm_s"] for t in setup_times),
                "run_s": run_s,
                "ops_per_s": per_pass / run_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"bench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
