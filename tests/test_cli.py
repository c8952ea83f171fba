import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamtg
from hamtg.cli import EXIT_NO, EXIT_YES, main
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


def test_crossval_cli(capsys):
    code, data = run_json(capsys, ["crossval", "--n", "3"])
    assert code == 0
    assert data["graphs"] == 8
    assert data["false_negative_count"] == 0


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
