import json

import pytest

from tractor_symm import cli


def run(argv):
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    return code


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_ckt_dim(capsys):
    code, doc = run_json(capsys, ["ckt", "dim", "--n", "3",
                                  "--p", "1", "--r", "0"])
    assert code == 0
    assert doc["schema"] == "tractor-symm/1"
    assert doc["result"]["dim"] == 10
    assert doc["verdict"] == "pass"


def test_cmatrix_det(capsys):
    code, doc = run_json(capsys, ["cmatrix", "det", "--k", "4", "--d", "2"])
    assert code == 0
    assert doc["result"][0]["det"] == "320"


def test_symmetry_verify(capsys):
    code, doc = run_json(capsys, ["symmetry", "verify", "--n", "3",
                                  "--k", "1", "--p", "1", "--r", "0",
                                  "--index", "0"])
    assert code == 0
    assert doc["result"][0]["verdict"] == "pass"


def test_usage_error():
    assert run(["nonsense"]) == 1


def test_usage_error_bad_flag():
    assert run(["ckt", "dim", "--bogus"]) == 1


def test_symmetry_usage_r_ge_k():
    assert run(["symmetry", "verify", "--n", "3", "--k", "1",
                "--p", "0", "--r", "1"]) == 1


def test_deterministic_json(capsys):
    argv = ["classify", "--n", "3", "--k", "1", "--seed", "11"]
    code1, doc1 = run_json(capsys, argv)
    code2, doc2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_algebra_graded(capsys):
    code, doc = run_json(capsys, ["algebra", "graded", "--k", "2",
                                  "--t", "2", "--n", "3"])
    assert code == 0
    assert doc["result"]["graded-dim"] == 49
    assert doc["result"]["oracle-dim"] == 49


def test_text_format(capsys):
    code = run(["ckt", "dim", "--n", "3", "--p", "0", "--r", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out


def test_report(capsys):
    code, doc = run_json(capsys, ["report", "--n", "3", "--k", "1"])
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["result"]["dims"]["(1,0)"] == 10


@pytest.mark.parametrize("argv", [
    ["cmatrix", "det", "--k", "0"],
    ["cmatrix", "det", "--k", "4", "--d", "9"],
    ["ckt", "dim", "--n", "2"],
    ["ckt", "dim", "--signature", "1,1"],
    ["ckt", "dim", "--signature", "x"],
    ["ckt", "dim", "--n", "3", "--p", "-1"],
    ["ckt", "dim", "--n", "3", "--r", "-1"],
    ["algebra", "graded", "--k", "2", "--t", "0"],
])
def test_bad_input_one_line(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
