"""The benchmark's workloads: one timed call into ``hamtg.lab`` each, plus its output check.

A workload's ``call`` is the timed work.  ``canonical`` turns its result
into plain JSON data, and ``check`` counts the operations (decisions,
reports or table rows) whose output is wrong.  Both run outside the timed
region.  The workload functions are looked up on ``hamtg.lab`` at call
time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
PINNED_FILE = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 0
# Seeds whose crossval answers and campaign verdicts are pinned.
PINNED_SEEDS = range(0, 21)
REPLAY_SAMPLE = 4
# One letter per campaign verdict in the pinned verdict strings.
VERDICT_CODES = {"holds": "h", "vacuous": "0", "violated": "x"}
# Edge-span ranks beyond the orders recorded in results/dimensions.json.
EXTRA_EDGE_RANKS = {7: 211}


def has_hamiltonian_path(n: int, pairs) -> bool:
    """Subset dynamic programme over path end points; shares no code with hamtg."""
    if n == 1:
        return True
    adj = [0] * n
    for a, b in pairs:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    full = (1 << n) - 1
    ends = [0] * (1 << n)  # ends[S]: vertices that end a path visiting exactly S
    for v in range(n):
        ends[1 << v] = 1 << v
    for S in range(1, full + 1):
        e = ends[S]
        for v in range(n):
            if (e >> v) & 1:
                nxt = adj[v] & ~S
                for w in range(n):
                    if (nxt >> w) & 1:
                        ends[S | (1 << w)] |= 1 << w
    return ends[full] != 0


def load_pins() -> dict:
    return json.loads(PINNED_FILE.read_text())


def _as_json(data):
    return json.loads(json.dumps(data, sort_keys=True))


class Workload:
    name: str
    setup_order: Optional[int]  # lift-basis order built cold in setup; None: import only
    seed: Optional[int]

    def call(self, cache_dir: Optional[str]):
        raise NotImplementedError

    def canonical(self, raw):
        return _as_json(raw)

    def expected_ops(self) -> int:
        raise NotImplementedError

    def check(self, out, cache_dir: Optional[str]) -> int:
        """Number of operations in ``out`` whose output is wrong."""
        raise NotImplementedError

    def pin_key(self) -> str:
        return json.dumps(self.params(), sort_keys=True)

    def params(self) -> dict:
        raise NotImplementedError


class Crossval(Workload):
    """``lab.crossval``: exhaustive when count is None, else seeded random graphs."""

    def __init__(self, n: int, count: Optional[int] = None, seed: Optional[int] = None):
        self.name = f"crossval-n{n}"
        self.n = n
        self.count = count
        self.seed = seed if count is not None else None
        self.setup_order = n

    def params(self) -> dict:
        return {"kind": "crossval", "n": self.n, "count": self.count, "seed": self.seed}

    def call(self, cache_dir):
        from hamtg import lab

        if self.count is None:
            return lab.crossval(self.n, exhaustive=True, cache_dir=cache_dir)
        return lab.crossval(
            self.n, exhaustive=False, random_count=self.count, seed=self.seed, cache_dir=cache_dir
        )

    def graphs(self) -> list[tuple[tuple[int, int], ...]]:
        """The graphs crossval visits, as sorted vertex pairs, in its order."""
        from hamtg import lab

        if self.count is None:
            gs = lab._all_graphs(self.n)
        else:
            gs = lab._random_graphs(self.n, self.count, self.seed)
        return [tuple(sorted(g.pairs)) for g in gs]

    def expected_ops(self) -> int:
        return len(self.graphs())

    def decisions(self, out, truth: list[bool]) -> Optional[list[bool]]:
        """Per-graph decider answers recovered from the report, or None if it is inconsistent.

        crossval lists the graphs where the decider and its oracle disagree;
        every other answer equals the oracle's.  The report is trusted only
        when its oracle agrees with the independent one on every count.
        """
        graphs = self.graphs()
        fn = {tuple(map(tuple, x["graph_pairs"])) for x in out["false_negatives"]}
        fp = {tuple(map(tuple, x["graph_pairs"])) for x in out["false_positives"]}
        if (
            out["graphs"] != len(graphs)
            or out["false_negative_count"] != len(out["false_negatives"])
            or out["false_positive_count"] != len(out["false_positives"])
            or out["agree_yes"] + out["false_negative_count"] != sum(truth)
            or out["agree_no"] + out["false_positive_count"] != len(truth) - sum(truth)
            or any(not t for g, t in zip(graphs, truth) if g in fn)
            or any(t for g, t in zip(graphs, truth) if g in fp)
        ):
            return None
        return [t != (g in fn or g in fp) for g, t in zip(graphs, truth)]

    def check(self, out, cache_dir) -> int:
        graphs = self.graphs()
        truth = [has_hamiltonian_path(self.n, g) for g in graphs]
        answers = self.decisions(out, truth)
        if answers is None:
            return len(graphs)
        pinned = load_pins().get(self.pin_key())
        failed = 0
        for i, (t, d) in enumerate(zip(truth, answers)):
            false_negative = t and not d
            changed = pinned is not None and d != (pinned["answers"][i] == "1")
            failed += false_negative or changed
        return failed

    def pin(self, out) -> dict:
        truth = [has_hamiltonian_path(self.n, g) for g in self.graphs()]
        answers = self.decisions(out, truth)
        if answers is None:
            raise ValueError("crossval report disagrees with the independent oracle")
        return {"answers": "".join("1" if a else "0" for a in answers)}


class Campaign(Workload):
    """``lab.run_campaign`` with two enumeration orders and a seeded candidate order."""

    def __init__(self, n: int, trials: int, seed: int, orders: int = 2):
        self.name = f"campaign-n{n}"
        self.n = n
        self.trials = trials
        self.seed = seed
        self.orders = orders
        self.setup_order = n

    def params(self) -> dict:
        return {
            "kind": "campaign", "n": self.n, "trials": self.trials,
            "seed": self.seed, "orders": self.orders, "basis_seed": self.seed,
        }

    def call(self, cache_dir):
        from hamtg import lab

        return lab.run_campaign(
            self.n, self.trials, self.seed, orders=self.orders,
            basis_seed=self.seed, cache_dir=cache_dir,
        )

    def canonical(self, raw):
        return {
            "summary": _as_json(raw["summary"]),
            "reports": [rep.to_json() for rep in raw["reports"]],
        }

    def expected_ops(self) -> int:
        return self.trials * self.orders * 2

    def check(self, out, cache_dir) -> int:
        from hamtg import lab

        reports = out["reports"]
        summary = out["summary"]
        total = self.expected_ops()
        if (
            len(reports) != total
            or summary["reports"] != total
            or sum(summary["counts"].values()) != total
        ):
            return total
        verdicts = [json.loads(rep)["verdict"] for rep in reports]
        if any(summary["counts"].get(v) != verdicts.count(v) for v in set(verdicts)):
            return total
        pinned = load_pins().get(self.pin_key())
        failed = set()
        if pinned is not None:
            if pinned["implication_checks"] != summary["implication_checks"]:
                return total
            failed.update(
                i for i, v in enumerate(verdicts) if VERDICT_CODES.get(v) != pinned["verdicts"][i]
            )
        rng = random.Random(f"replay:{self.seed}")
        for i in rng.sample(range(total), min(REPLAY_SAMPLE, total)):
            if not lab.replay_report(json.loads(reports[i]), cache_dir=cache_dir):
                failed.add(i)
        return len(failed)

    def pin(self, out) -> dict:
        """Each report's verdict, as a letter, and the summary's implication checks."""
        return {
            "verdicts": "".join(VERDICT_CODES[json.loads(rep)["verdict"]] for rep in out["reports"]),
            "implication_checks": out["summary"]["implication_checks"],
        }


class Dimensions(Workload):
    """``lab.dimension_table`` with no basis cache, so the lift recursion runs cold."""

    def __init__(self, max_n: int, pair_max: int):
        self.name = f"dimensions-n{max_n}"
        self.max_n = max_n
        self.pair_max = pair_max
        self.seed = None
        self.setup_order = None

    def params(self) -> dict:
        return {"kind": "dimensions", "max_n": self.max_n, "pair_max": self.pair_max}

    def call(self, cache_dir):
        from hamtg import lab

        return lab.dimension_table(self.max_n, pair_max=self.pair_max, cache_dir=None)

    def expected_ops(self) -> int:
        return self.max_n - 1

    def expected_rows(self) -> dict[int, dict]:
        recorded = json.loads((BENCH_DIR.parent / "results" / "dimensions.json").read_text())
        rows = {row["n"]: row for row in recorded["rows"]}
        out = {}
        for n in range(2, self.max_n + 1):
            if n in rows:
                row = dict(rows[n])
            else:
                row = {
                    "n": n, "edges": n * n * (n - 1), "dim_edge_span": EXTRA_EDGE_RANKS[n],
                    "dim_pair_span": None, "lift_basis_size": None, "consistent": None,
                }
            if n > self.pair_max:
                row.update(dim_pair_span=None, lift_basis_size=None, consistent=None)
            out[n] = row
        return out

    def check(self, out, cache_dir) -> int:
        got = {row.get("n"): row for row in out}
        return sum(got.get(n) != row for n, row in self.expected_rows().items())


# Pass sizes: a crossval-n6 or campaign-n6 pass takes about 18 s of wall
# time on a 2-core x86-64 host with CPython 3.11.7, so a 20 s run is one
# pass that averages over many random inputs; n=6 decision times spread
# about 30% from graph to graph.
def make(name: str, seed: int) -> Workload:
    if name == "crossval-n5":
        return Crossval(5)
    if name == "crossval-n6":
        return Crossval(6, count=96, seed=seed)
    if name == "campaign-n6":
        return Campaign(6, trials=64, seed=seed)
    if name == "dimensions-n7":
        return Dimensions(7, pair_max=6)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("crossval-n5", "crossval-n6", "campaign-n6", "dimensions-n7")
