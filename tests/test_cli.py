import hashlib
import json

import pytest

from tractor_symm import algebra, cli
from tractor_symm.tensor import Metric


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


@pytest.mark.parametrize("argv, digest", [
    (["--n", "3", "--p", "2", "--r", "0"],
     "caac5cff098d97febad322b744067be261af9cfc85fa9b9b9ca3f1637a2ba6fc"),
    (["--signature", "2,1", "--p", "1", "--r", "1"],
     "29438096ecd6566341aabee06beab1a71b63d84a38c9fdfbac87967464ae0f19"),
    (["--n", "3", "--p", "0", "--r", "2"],
     "582483c2e6594b4084ee0724a01e059a55515d18553f70765f62f31ec91ee28e"),
], ids=["2,0-n3", "1,1-sig21", "0,2-n3"])
def test_ckt_basis_golden(capsys, argv, digest):
    # the kernel basis fixes every --index, so its JSON must not move
    assert run(["ckt", "basis"] + argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["algebra", "dec2can", "--n", "3", "--all-basis"],
     "06637b444110350c592454f0db6736e16999dc92360d81231b95dfe6d78c48a9"),
    (["decompose", "--signature", "2,1", "--seed", "2"],
     "7588465f57bca17550e8613a92676cbbc404bee95bfbf0eabc78d03076583060"),
    (["classify", "--signature", "2,1", "--k", "2", "--seed", "3"],
     "79be04e64dd1928a6c041f8b79c2d3dc0d9d95655a6e412ab34dacfd3294f525"),
    (["symmetry", "build", "--n", "3", "--k", "2", "--p", "2", "--r", "0",
      "--index", "3"],
     "2044f7f51815bca414eac92cda595073d379ecbfb5b7d0733c736ebd59929f1b"),
    (["compose", "--n", "3", "--k", "2", "--p", "1", "--r", "0"],
     "7cc21e832e73e46975d5920e08a17d1d84efd4b2c9e547085b1f8eb365aee827"),
    (["symmetry", "build", "--signature", "2,1", "--k", "3", "--p", "0",
      "--r", "1", "--index", "5"],
     "c14746f31ec5fc11aefaad31ab343af266919e32c23a0429c2b58d09faeff4f5"),
    (["compose", "--signature", "2,1", "--k", "3", "--p", "0", "--r", "1",
      "--index", "4"],
     "dd574aa72b90ebc06ff3b2f435d226a79cbd338b2b14b8f37887689af88b8654"),
], ids=["dec2can-all", "decompose-sig21", "classify-sig21", "build-2,0",
        "compose-1,0", "build-0,1-sig21", "compose-0,1-sig21"])
def test_json_golden(capsys, argv, digest):
    # coefficients reach the JSON through Poly.terms and qstr
    assert run(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("sig, k, dim", [("2,2", 1, 84), ("2,1", 2, 49)])
def test_algebra_graded_oracle_uses_signature(capsys, monkeypatch, sig, k,
                                              dim):
    # the oracle runs on the metric of --signature, not on E^n
    oracle = algebra.brute_dim_oracle
    seen = []

    def spy(k, t, metric):
        seen.append(metric)
        return oracle(k, t, metric)

    monkeypatch.setattr(algebra, "brute_dim_oracle", spy)
    code, doc = run_json(capsys, ["algebra", "graded", "--k", str(k),
                                  "--t", "2", "--signature", sig])
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["result"] == {"graded-dim": dim, "oracle-dim": dim}
    assert seen == [Metric(*(int(x) for x in sig.split(",")))]


def test_algebra_graded_no_verdict_without_oracle(capsys):
    # past t = 2 nothing is checked, so no verdict is printed
    argv = ["algebra", "graded", "--k", "2", "--t", "4", "--n", "3"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["result"] == {"graded-dim": 385}
    assert "verdict" not in doc
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert "graded-dim: 385" in out and "verdict" not in out


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
    ["algebra", "extra", "--n", "3", "--k", "2", "--max-degree", "3"],
])
def test_bad_input_one_line(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_split(capsys):
    code, doc = run_json(capsys, ["split", "--n", "3", "--p", "1",
                                  "--r", "0", "--index", "2"])
    assert code == 0 and doc["verdict"] == "pass"
    (entry,) = doc["result"]
    assert set(entry) == {"index", "parallel", "projects_back", "tractor"}
    assert entry["index"] == 2 and entry["parallel"]
    assert entry["projects_back"]
    assert set(entry["tractor"]) == {"weight", "slots", "comps"}


def test_compose(capsys):
    code, doc = run_json(capsys, ["compose", "--n", "3", "--k", "2",
                                  "--p", "1", "--r", "0", "--index", "2"])
    assert code == 0 and doc["verdict"] == "pass"
    res = doc["result"]
    assert set(res) == {"lhs", "rhs_factor", "intertwines"}
    assert res["intertwines"] is True
    assert set(res["lhs"]) == set(res["rhs_factor"]) == {
        "n", "signature", "terms"}


def test_decompose(capsys):
    code, doc = run_json(capsys, ["decompose", "--n", "3", "--seed", "2"])
    assert code == 0 and doc["verdict"] == "pass"
    res = doc["result"]
    assert set(res) == {"pair", "killing", "residual_terms", "dec2can"}
    assert res["dec2can"]["all"] is True


def test_failed_check_exits_2_with_one_line(capsys, monkeypatch):
    # a wrong binomial breaks the reduction chain's closed-form checks
    binom = cli.canon.binom
    monkeypatch.setattr(cli.canon, "binom", lambda m, j: binom(m, j) + 1)
    assert run(["cmatrix", "chain", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: reduction chain k=3, d=0")
