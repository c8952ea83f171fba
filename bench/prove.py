#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's median and spread.

    python3 bench/prove.py --runs 10 [--out bench/baseline.json] [--against bench/baseline.json]

Runs ``bench/run.py --trace 0`` once per seed (1..runs) on every workload
of BENCHMARK.json, one process at a time.  The spread of a metric is the
distance between its first and third quartile over the runs, as a share
of its median; it must stay within the metric's bound.  With ``--against``
each median must also be no worse than the median recorded in that file by
more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    result = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        per_metric: dict[str, list[float]] = {}
        units = {}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            detail = json.loads(lines[-2])["bench"]
            result.setdefault("env", {
                k: detail["env"][k]
                for k in ("python", "implementation", "nproc", "git_commit", "src_sha256")
            })
            per_metric.setdefault("wall_run_s", []).append(detail["wall_run_s"])
            units["wall_run_s"] = "s"
            if not last["correct"]:
                print(f"{name} seed {seed}: {last['failed']} of {last['attempted']} failed")
                ok = False
            for metric, m in last["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        rows = {}
        for metric, values in per_metric.items():
            s = summarize(values)
            s["unit"] = units[metric]
            rows[metric] = s
            if metric not in metrics:
                continue
            bound = metrics[metric]["bound"]
            flags = ""
            if s["spread"] > bound:
                flags += "  SPREAD OVER BOUND"
            line = f"spread {s['spread']:.3f}"
            if metric in earlier.get(name, {}):
                before = earlier[name][metric]["median"]
                worse = (s["median"] - before) / before
                if metrics[metric]["better"] == "higher":
                    worse = -worse
                line += f", worse than before by {worse:+.3f}"
                if worse > bound:
                    flags += "  MEDIAN OVER BOUND"
            ok = ok and not flags
            print(f"{name:14s} {metric:12s} median {s['median']:.4g} {units[metric]:6s} "
                  f"{line} (bound {bound}){flags}", flush=True)
        result["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
