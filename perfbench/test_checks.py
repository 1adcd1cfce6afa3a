"""Each reference check accepts a known-good output, rejects a corrupt one.

Run with ``python -m pytest perfbench`` from the root of the tree.
"""

import random
from fractions import Fraction

import pytest

import checks
from tractor_symm import canon, ckt
from tractor_symm.poly import Poly
from tractor_symm.tensor import Metric


def test_determinant():
    assert checks.det([[2, 1], [1, 1]]) == 1
    assert checks.det([[0, 1], [1, 0]]) == -1
    assert checks.det([[1, 2], [2, 4]]) == 0
    assert checks.det(checks.c_matrix(4, 0)) == canon.c_matrix(4, 0).det()


def test_constraint_matrix_check():
    M = canon.extract_constraint_matrix(2, 1, 1, seed=3)
    assert checks.check_constraint_matrix(M.rows, 2, 1) is None
    bad = [row[:] for row in M.rows]
    bad[1][0] += 1
    assert "row 1" in checks.check_constraint_matrix(bad, 2, 1)
    assert checks.check_constraint_matrix(M.rows[:1], 2, 1) is not None


def test_cmatrix_chain_check():
    for d in range(6):
        ch = canon.reduction_chain(6, d)
        row = {"d": d, "det": str(ch["det"]),
               "det-companion": str(ch["det_companion"]),
               "power-of-two": ch["power_of_two"]}
        assert checks.check_chain_row(6, row) is None
    bad = dict(row, det=str(ch["det"] * 2))
    assert "det" in checks.check_chain_row(6, bad)
    bad = dict(row, **{"power-of-two": ch["power_of_two"] + 1})
    assert checks.check_chain_row(6, bad) is not None


@pytest.mark.parametrize("n,p,r,want", [
    (5, 1, 1, 330), (3, 0, 0, 1), (3, 1, 0, 10), (3, 2, 0, 35),
    (3, 0, 1, 14), (3, 1, 1, 81)])
def test_solution_dimension(n, p, r, want):
    assert checks.solution_dim(n, p, r) == want
    assert checks.check_dimension(n, p, r, want) is None
    assert checks.check_dimension(n, p, r, want - 1) is not None


def test_solution_dimension_matches_solver_n4():
    # even n + 2: the D-series branch of the formula
    for p, r in ((1, 0), (0, 1), (2, 0)):
        got = len(ckt.solve(Metric.euclidean(4), ckt.CKTLabel(p, r)))
        assert checks.check_dimension(4, p, r, got) is None


def _first_order_case(sig, k):
    metric = Metric(*sig)
    basis = ckt.solve(metric, ckt.CKTLabel(1, 0))
    phi = basis[7] + basis[2].scale(3)
    rep = canon.verify_symmetry(phi, (1, 0), k)
    n = metric.n
    eps = list(metric.eps)
    V = [{e: c * eps[a] for e, c in checks.terms(phi.get((a,))).items()}
         for a in range(n)]

    def op(S):
        return lambda f: checks.terms(S(Poly(n, f)))
    return rep, op, V, eps, n


def test_first_order_closed_form():
    rep, op, V, eps, n = _first_order_case((2, 1), 1)
    tests = [checks.random_poly(n, 3, random.Random(1))]
    assert checks.check_first_order(op(rep.S_std), V, rep.w_in, tests) is None
    assert checks.check_first_order(op(rep.Sp_std), V, rep.w_out,
                                    tests) is None
    # the wrong weight, and an operator with an extra constant term
    assert checks.check_first_order(op(rep.S_std), V, rep.w_out,
                                    tests) is not None
    shifted = op(rep.S_std + rep.S_std.identity(rep.S_std.metric))
    assert checks.check_first_order(shifted, V, rep.w_in, tests) is not None


def test_intertwining_identity():
    rep, op, V, eps, n = _first_order_case((3, 0), 2)
    tests = [checks.random_poly(n, 5, random.Random(2))]
    S, Sp = op(rep.S_std), op(rep.Sp_std)
    assert checks.check_intertwining(S, Sp, eps, 2, tests) is None
    assert "monomial" in checks.check_intertwining(S, S, eps, 2, tests)
    # a test polynomial killed by Delta^2 proves nothing
    assert "= 0" in checks.check_intertwining(
        S, Sp, eps, 2, [{(1, 0, 0): Fraction(1)}])


def test_laplacian_on_term_dicts():
    f = {(2, 0, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    assert checks.laplacian(f, [1, 1, 1]) == {(0, 0, 0): 4}
    assert checks.laplacian(f, [1, 1, -1]) == {}


def test_random_poly_is_seeded():
    a = checks.random_poly(3, 4, random.Random(5))
    assert a == checks.random_poly(3, 4, random.Random(5))
    assert max(sum(e) for e in a) == 4


def test_command_checks():
    import run
    good = {"verdict": "pass", "result": {"dim": 330, "solved": 330}}
    argv = ["ckt", "dim", "--n", "5", "--p", "1", "--r", "1"]
    assert run.check_command(argv, good) is None
    assert run.check_command(argv, dict(good, verdict="fail")) is not None
    bad = {"verdict": "pass", "result": {"dim": 329, "solved": 329}}
    assert "330" in run.check_command(argv, bad)
    rows = [{"d": d, "det": str(checks.det(checks.c_matrix(3, d))),
             "det-companion": str(checks.det(checks.companion(3, d))),
             "power-of-two": (3 - d) ** 2} for d in range(3)]
    chain = ["cmatrix", "chain", "--k", "3"]
    assert run.check_command(chain, {"verdict": "pass", "result": rows}) \
        is None
    assert run.check_command(chain, {"verdict": "pass",
                                     "result": rows[:2]}) is not None


def test_command_exception_is_a_failed_operation():
    import worker
    argv = ["symmetry", "verify", "--k", "2", "--p", "0", "--r", "1",
            "--index", "99", "--format", "json"]
    out = worker.run_cli(argv, False)
    assert out["exit"].startswith("IndexError")
