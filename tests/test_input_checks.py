"""Bad arguments raise ValueError naming the value, also under python -O."""

import ast
import os
import subprocess
import sys

import pytest

from tractor_symm.poly import Poly
from tractor_symm.tensor import Metric
from tractor_symm.ckt import CKTLabel
from tractor_symm.diffop import OpType
from tractor_symm import cli, linalg


@pytest.mark.parametrize("make, match", [
    (lambda: CKTLabel(-1, 0), r"label \(-1, 0\)"),
    (lambda: OpType(0, -2), r"type <0\|-2>"),
    (lambda: Metric(3, -1), r"signature \(3, -1\)"),
    (lambda: Poly.var(3, 0) ** -1, "power -1"),
    (lambda: linalg.det([[1, 2], [3]]), r"lengths \[2, 1\]"),
], ids=["CKTLabel", "OpType", "Metric", "pow", "det"])
def test_bad_input_raises_value_error(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("argv", [
    ["split"], ["symmetry", "build", "--k", "2"],
    ["symmetry", "verify", "--k", "2"], ["compose", "--k", "2"],
], ids=["split", "build", "verify", "compose"])
def test_negative_index_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv + ["--n", "3", "--p", "1", "--r", "0", "--index", "-1",
                         "--format", "json"])
    assert e.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: need index >= 0, got index = -1\n"


def test_checks_survive_python_O():
    # python -O strips assert statements; these checks are plain ifs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(linalg.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "bad_input_raises_value_error"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "5 passed" in out.stdout


def test_no_assert_in_src():
    # python -O strips assert statements, so src checks raise instead
    pkg = os.path.dirname(linalg.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            path = os.path.join(pkg, name)
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src: " + ", ".join(found)
