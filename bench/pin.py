#!/usr/bin/env python3
"""Record the pinned outputs that the workload checks compare against.

    python3 bench/pin.py

Pins the crossval answers and each campaign report's verdict for every
seed in ``workloads.PINNED_SEEDS``.  They were recorded once, at the
commit that defined the benchmark: a correct change to hamtg never alters
them, so re-pinning to make a check pass would hide a wrong answer.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def main() -> None:
    pins = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["HAMTG_CACHE_DIR"] = cache_dir
        wanted = [workloads.make("crossval-n5", workloads.DEFAULT_SEED)]
        for seed in workloads.PINNED_SEEDS:
            wanted += [workloads.make("crossval-n6", seed), workloads.make("campaign-n6", seed)]
        for wl in wanted:
            pins[wl.pin_key()] = wl.pin(wl.canonical(wl.call(cache_dir)))
            print(wl.name, wl.seed, flush=True)
    workloads.PINNED_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
