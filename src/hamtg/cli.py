"""Command line interface.

Subcommands: reduce, oracle, basis, dim, solve, conjectures, crossval.
Output is JSON on stdout (or --out); `solve` exits 10 for yes and 11 for
no, `crossval` exits 1 when the decider gave a false negative (an
implementation bug), everything else exits 0 on success.  An input file
that cannot be read or parsed, an --out file or --cache-dir that cannot
be written, or an order beyond a scale cap, exits 2, as argparse's usage
errors do, with one JSON line {"error": <exception class>, "message":
...} on stderr and nothing on stdout.  An order or count below 1 is a
usage error.  The basis cache directory comes from --cache-dir or the
HAMTG_CACHE_DIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Optional

from . import lab, liftbasis, solver, timegraph

EXIT_YES = 10
EXIT_NO = 11
EXIT_INPUT = 2


class _InputFileError(Exception):
    """An input file could not be read or parsed; the cause is the error raised."""


def _positive_int(text: str) -> int:
    """argparse type of an order or count; below 1 is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _emit(obj, out: Optional[str]) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read(path: str, parse: Callable[[str], object]):
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise _InputFileError from exc


def _read_graph(path: str) -> timegraph.Graph:
    return _read(path, timegraph.Graph.from_text)


def cmd_reduce(args) -> int:
    g = _read_graph(args.graph)
    T = timegraph.reduce_hamp(g)
    if args.text:
        _write(T.to_text(), args.out)
    else:
        _emit({"n": T.n, "edges": T.edge_indices()}, args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.timegraph:
        T = _read(args.input, timegraph.TimeGraph.from_text)
        answer = timegraph.is_hamiltonian_oracle(T, cap=args.cap)
        _emit({"n": T.n, "hamiltonian": int(answer)}, args.out)
    else:
        g = _read_graph(args.input)
        answer = timegraph.hamiltonian_path_oracle(g, cap=args.cap)
        _emit({"n": g.n, "hamiltonian_path": int(answer)}, args.out)
    return 0


def cmd_basis(args) -> int:
    perms = liftbasis.build_basis(args.order, cache_dir=args.cache_dir, cap=args.cap)
    _emit(
        {"n": args.order, "size": len(perms), "permutations": [list(p) for p in perms]},
        args.out,
    )
    return 0


def cmd_dim(args) -> int:
    table = lab.dimension_table(args.max, pair_max=args.pair_max, cache_dir=args.cache_dir)
    _emit({"rows": table}, args.out)
    return 0


def cmd_solve(args) -> int:
    g = _read_graph(args.graph)
    decision = solver.decide_hamiltonian_path(g, cache_dir=args.cache_dir, cap=args.cap)
    payload = {
        "n": g.n,
        "N": decision.nvars,
        "rows": decision.rows,
        "raw_rows": decision.raw_rows,
        "rank": decision.rank,
        "answer": "yes" if decision.answer else "no",
    }
    if decision.witness is not None:
        payload["witness"] = list(decision.witness)
    if not args.no_oracle and g.n <= timegraph.ORACLE_PATH_CAP:
        oracle = timegraph.hamiltonian_path_oracle(g)
        payload["oracle_answer"] = "yes" if oracle else "no"
        if decision.answer and not oracle:
            payload["conjecture_flag"] = "counterexample-candidate"
    _emit(payload, args.out)
    return EXIT_YES if decision.answer else EXIT_NO


def cmd_conjectures(args) -> int:
    def run(sink) -> None:
        lab.run_campaign(
            args.n,
            args.trials,
            args.seed,
            orders=args.orders,
            basis_seed=args.basis_seed,
            cache_dir=args.cache_dir,
            sink=sink,
        )

    if args.out:
        # report files are append-only JSON lines
        with open(args.out, "a") as sink:
            run(sink)
    else:
        run(sys.stdout)
    return 0


def cmd_crossval(args) -> int:
    result = lab.crossval(
        args.n,
        exhaustive=args.random is None,
        random_count=args.random,
        seed=args.seed,
        cache_dir=args.cache_dir,
    )
    _emit(result, args.out)
    if result["false_negative_count"]:
        print("FALSE NEGATIVES PRESENT: implementation bug", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamtg",
        description="Exact GF(2) workbench for Hamiltonian time-graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a graph file to a time-graph")
    p.add_argument("graph")
    p.add_argument("--text", action="store_true", help="emit the time-graph text format")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force hamiltonicity oracle")
    p.add_argument("input")
    p.add_argument("--timegraph", action="store_true", help="input is a time-graph file")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("basis", help="pair-indicator basis for an order")
    p.add_argument("--order", type=_positive_int, required=True)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("dim", help="dimension table of the indicator spans")
    p.add_argument("--max", type=_positive_int, required=True)
    p.add_argument("--pair-max", type=int, default=6)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("solve", help="linear-feasibility path decision (exit 10=yes, 11=no)")
    p.add_argument("graph")
    p.add_argument("--no-oracle", action="store_true", help="skip the oracle cross-check")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("conjectures", help="randomized conjecture campaign (JSON lines)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--orders", type=_positive_int, default=1, help="complement enumerations per instance")
    p.add_argument("--basis-seed", type=int, default=None)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_conjectures)

    p = sub.add_parser("crossval", help="oracle vs. decision procedure over graph families")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--random", type=_positive_int, metavar="COUNT", help="sample COUNT random graphs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_crossval)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputFileError, OSError, timegraph.OracleScaleError) as exc:
        err = exc.__cause__ if isinstance(exc, _InputFileError) else exc
        error = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(error), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
