import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamtg
from hamtg.cli import EXIT_INPUT, EXIT_NO, EXIT_YES, main
from hamtg.timegraph import Graph, TimeGraph

from helpers import path_graph, star_graph


@pytest.fixture
def graph_file(tmp_path):
    def write(g: Graph, name: str = "graph.txt") -> str:
        path = tmp_path / name
        path.write_text(g.to_text())
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_reduce_json(capsys, graph_file):
    code, data = run_json(capsys, ["reduce", graph_file(path_graph(3))])
    assert code == 0
    assert data["n"] == 3
    assert len(data["edges"]) == 8


def test_reduce_text_is_parseable(capsys, graph_file):
    code = main(["reduce", "--text", graph_file(path_graph(3))])
    assert code == 0
    T = TimeGraph.from_text(capsys.readouterr().out)
    assert T.n == 3 and T.edge_count() == 8


def test_oracle_graph_and_timegraph(capsys, graph_file, tmp_path):
    code, data = run_json(capsys, ["oracle", graph_file(star_graph(3))])
    assert code == 0
    assert data["hamiltonian_path"] == 0

    from hamtg.timegraph import reduce_hamp

    tg = tmp_path / "tg.txt"
    tg.write_text(reduce_hamp(path_graph(3)).to_text())
    code, data = run_json(capsys, ["oracle", "--timegraph", str(tg)])
    assert code == 0
    assert data["hamiltonian"] == 1


def test_basis_output(capsys):
    code, data = run_json(capsys, ["basis", "--order", "3"])
    assert code == 0
    assert data["size"] == 6
    assert all(sorted(p) == [1, 2, 3] for p in data["permutations"])


def test_dim_output(capsys):
    code, data = run_json(capsys, ["dim", "--max", "4"])
    assert code == 0
    assert [row["n"] for row in data["rows"]] == [2, 3, 4]


def test_solve_yes_exit_code(capsys, graph_file):
    code, data = run_json(capsys, ["solve", graph_file(path_graph(4))])
    assert code == EXIT_YES
    assert data["answer"] == "yes"
    assert data["oracle_answer"] == "yes"
    assert "witness" in data


def test_solve_no_exit_code(capsys, graph_file):
    code, data = run_json(capsys, ["solve", graph_file(star_graph(3))])
    assert code == EXIT_NO
    assert data["answer"] == "no"
    assert data["oracle_answer"] == "no"
    assert "conjecture_flag" not in data


@pytest.mark.parametrize(
    "g, expected", [(path_graph(4), EXIT_YES), (star_graph(3), EXIT_NO)], ids=["yes", "no"]
)
def test_solve_under_optimize_flag(graph_file, tmp_path, g, expected):
    # python -O strips assert statements; no check of the decision may rely on one
    src = str(Path(hamtg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "HAMTG_CACHE_DIR": str(tmp_path)}
    path = graph_file(g)
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hamtg", "solve", path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == expected, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[1] == outputs[0]
    assert json.loads(outputs[0])["answer"] == ("yes" if expected == EXIT_YES else "no")


def test_solve_flags_a_yes_the_oracle_refutes(capsys, monkeypatch, graph_file):
    # the star on 4 vertices has no Hamiltonian path, so a yes on it is a
    # counterexample candidate, reported with the yes exit code
    def says_yes(g, cache_dir=None, cap=None):
        return hamtg.solver.Decision(True, (0,), 24, 1, 1, 1)

    monkeypatch.setattr(hamtg.solver, "decide_hamiltonian_path", says_yes)
    code, data = run_json(capsys, ["solve", graph_file(star_graph(3))])
    assert code == EXIT_YES
    assert data["answer"] == "yes" and data["witness"] == [0]
    assert data["oracle_answer"] == "no"
    assert data["conjecture_flag"] == "counterexample-candidate"


def test_solve_no_oracle_flag(capsys, graph_file):
    code, data = run_json(capsys, ["solve", "--no-oracle", graph_file(path_graph(3))])
    assert code == EXIT_YES
    assert "oracle_answer" not in data


def test_conjectures_jsonl(capsys):
    code = main(["conjectures", "--n", "4", "--trials", "3", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7  # 3 trials x 2 conjectures + summary
    summary = json.loads(lines[-1])["summary"]
    assert summary["trials"] == 3
    for line in lines[:-1]:
        rep = json.loads(line)
        assert rep["verdict"] in ("holds", "violated", "vacuous")


@pytest.mark.parametrize("flag", [["--conjecture", "1"], ["--timing"]])
def test_conjectures_has_no_selector_or_timing_flag(capsys, flag):
    # every campaign checks both conjectures, and its stream is byte-identical
    with pytest.raises(SystemExit) as exc:
        main(["conjectures", "--n", "4", "--trials", "1", *flag])
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_solve_over_a_torn_cache_file(capsys, tmp_path, graph_file):
    path = graph_file(path_graph(5))
    cold = main(["solve", path]), capsys.readouterr().out
    cache = tmp_path / "cache"
    assert main(["basis", "--order", "5", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    cache_file = cache / "pair_basis_n5.json"
    good = cache_file.read_text()
    cache_file.write_text(good[: len(good) // 2])
    assert (main(["solve", path, "--cache-dir", str(cache)]), capsys.readouterr().out) == cold
    assert cache_file.read_text() == good


def test_crossval_cli(capsys):
    code, data = run_json(capsys, ["crossval", "--n", "3"])
    assert code == 0
    assert data["graphs"] == 8
    assert data["false_negative_count"] == 0


def test_crossval_cli_random_prints_the_seeded_run(capsys):
    code = main(["crossval", "--n", "4", "--random", "3", "--seed", "1"])
    expected = hamtg.lab.crossval(4, exhaustive=False, random_count=3, seed=1)
    assert code == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_crossval_cli_fails_on_false_negative(capsys, monkeypatch):
    def one_false_negative(n, **kwargs):
        return {"graphs": 1, "false_negative_count": 1, "false_negatives": [{}]}

    monkeypatch.setattr(hamtg.lab, "crossval", one_false_negative)
    code = main(["crossval", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["false_negative_count"] == 1
    assert "FALSE NEGATIVES" in captured.err


def test_out_file(tmp_path, graph_file):
    out = tmp_path / "result.json"
    code = main(["reduce", graph_file(path_graph(3)), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["n"] == 3


def test_conjectures_out_file_appends(tmp_path):
    out = tmp_path / "reports.jsonl"
    argv = ["conjectures", "--n", "4", "--trials", "2", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_text()
    assert main(argv) == 0
    assert out.read_text() == first * 2  # append-only report log


def _input_error(capsys, argv) -> dict:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("command", ["solve", "reduce", "oracle"])
def test_malformed_graph_file_exits_with_input_error(capsys, tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_text("5\n1 9\n")
    error = _input_error(capsys, [command, str(path)])
    assert error == {"error": "ValueError", "message": "vertex out of range in '1 9'"}


def test_malformed_timegraph_file_exits_with_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\nseven\n")
    error = _input_error(capsys, ["oracle", "--timegraph", str(path)])
    assert error["error"] == "ValueError"


@pytest.mark.parametrize("idx", [18, -1])
def test_timegraph_file_with_an_edge_index_out_of_range_exits_with_input_error(
    capsys, tmp_path, idx
):
    # an order-3 time-graph has edge indices 0..17
    path = tmp_path / "tg.txt"
    path.write_text(f"3\n0\n{idx}\n")
    error = _input_error(capsys, ["oracle", "--timegraph", str(path)])
    assert error == {"error": "ValueError", "message": f"edge index {idx} out of range for order 3"}


def test_missing_input_file_exits_with_input_error(capsys, tmp_path):
    error = _input_error(capsys, ["solve", str(tmp_path / "missing.txt")])
    assert error["error"] == "FileNotFoundError"


def test_unwritable_out_or_cache_dir_exits_with_input_error(capsys, tmp_path, graph_file):
    # exit 1 would read as crossval's "false negatives present"
    out = tmp_path / "missing" / "x.json"
    error = _input_error(capsys, ["crossval", "--n", "3", "--out", str(out)])
    assert error["error"] == "FileNotFoundError" and str(out) in error["message"]
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    argv = ["solve", graph_file(path_graph(3)), "--cache-dir", str(not_a_dir)]
    error = _input_error(capsys, argv)
    assert error["error"] == "FileExistsError" and str(not_a_dir) in error["message"]


def test_order_beyond_the_cap_exits_with_input_error(capsys, graph_file):
    error = _input_error(capsys, ["solve", graph_file(path_graph(5)), "--cap", "4"])
    assert error == {"error": "OracleScaleError", "message": "basis scale exceeded: n=5 > cap=4"}
    error = _input_error(capsys, ["crossval", "--n", "9"])
    assert error["error"] == "OracleScaleError"
    error = _input_error(capsys, ["dim", "--max", "9"])
    assert error == {"error": "OracleScaleError", "message": "oracle scale exceeded: n=9 > cap=8"}


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--order", "0"],
        ["dim", "--max", "0"],
        ["crossval", "--n", "0"],
        ["crossval", "--n", "-3"],
        ["crossval", "--n", "4", "--random", "0"],
        ["crossval", "--n", "4", "--random", "-1"],
        ["conjectures", "--trials", "1", "--n", "0"],
        ["conjectures", "--n", "4", "--trials", "-1"],
        ["conjectures", "--n", "4", "--trials", "0"],
        ["conjectures", "--n", "4", "--trials", "1", "--orders", "0"],
    ],
)
def test_order_or_count_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be a positive integer, got {int(argv[-1])}" in captured.err


def test_internal_inconsistency_is_not_an_input_error(monkeypatch, graph_file):
    def broken(*args, **kwargs):
        raise hamtg.InternalInconsistencyError("witness has even parity")

    monkeypatch.setattr(hamtg.solver, "decide_hamiltonian_path", broken)
    with pytest.raises(hamtg.InternalInconsistencyError):
        main(["solve", graph_file(path_graph(3))])
