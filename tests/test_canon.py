import os
import subprocess
import sys

import pytest

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly, monomials_up_to_degree
from tractor_symm.tensor import Metric, SymTensor
from tractor_symm.diffop import StdOp
from tractor_symm.tractor import TractorField, double_D, double_D2, contract
from tractor_symm import ckt, canon

from conftest import solved_basis


MET = Metric.euclidean(3)
N = 3


def test_translation_symmetry_is_partial(named_ckvs):
    e1, _, _ = named_ckvs
    I = ckt.split(e1, ckt.CKTLabel(1, 0))
    S = canon.build_S(I, (1, 0), Q(2))
    f = Poly(N, {(2, 1, 0): Q(3), (0, 0, 1): Q(-2)})
    assert S(f) == f.diff(0)


def test_dilation_symmetry(named_ckvs):
    _, _, dil = named_ckvs
    I = ckt.split(dil, ckt.CKTLabel(1, 0))
    f = Poly(N, {(2, 1, 0): Q(3), (0, 0, 1): Q(-2)})
    for w in (Q(2), Q(-1, 2)):
        S = canon.build_S(I, (1, 0), w)
        want = sum((f.diff(a) * Poly.var(N, a) for a in range(N)),
                   Poly.zero(N)) + f.scale(-w)
        assert S(f) == want


@pytest.mark.parametrize("sig,label", [
    ((3, 0), (1, 0)), ((3, 0), (0, 1)), ((3, 0), (2, 0)), ((3, 0), (1, 1)),
    ((2, 1), (1, 1)), ((4, 0), (2, 0))])
def test_std_op_matches_action(sig, label):
    # the symbol from one plane-wave run acts as the chain does on every
    # monomial of degree <= order + 2: complete for operators of order
    # <= order + 2
    metric = Metric(*sig)
    phi = _combination(metric, label)
    I = ckt.split(phi, ckt.CKTLabel(*label))
    op = canon.build_S(I, label, Q(-1, 2))
    for e in monomials_up_to_degree(metric.n, label[0] + 2 * label[1] + 2):
        f = Poly.monomial(metric.n, e)
        assert op(f) == _chain_action(I, label, Q(-1, 2), f)


def _chain_action(I, label, w, f):
    """I . (double-D)^p (double-D^2)^r f, run on the density f itself."""
    t = TractorField.density(I.metric, w, f)
    for _ in range(label[1]):
        t = double_D2(t)
    for _ in range(label[0]):
        t = double_D(t)
    return contract(I, t).get(())


def _combination(metric, label):
    basis = ckt.solve(metric, ckt.CKTLabel(*label))
    return basis[0] + basis[len(basis) // 2].scale(2) - basis[-1]


def test_chain_cache_shared_across_phi():
    # the cached plane-wave chain does not depend on phi: S built for
    # phi2 after phi1 equals S built for phi2 on an emptied cache
    label, w = ckt.CKTLabel(1, 1), Q(-1, 2)
    basis = ckt.solve(Metric(2, 1), label)
    I1, I2 = (ckt.split(phi, label) for phi in (basis[0], basis[-1]))
    S1 = canon.build_S(I1, label, w)
    S2 = canon.build_S(I2, label, w)
    canon._chain.cache_clear()
    assert canon.build_S(I2, label, w) == S2
    assert S1 != S2


@pytest.mark.parametrize("label", [(1, 0), (0, 1)])
def test_verify_symmetry_weights_not_shared(label):
    # S and S' differ only in their weight; each is its own cache entry
    phi = _combination(Metric(2, 1), label)
    rep = canon.verify_symmetry(phi, label, 2)
    I = ckt.split(phi, ckt.CKTLabel(*label))
    assert rep.S_std == canon.build_S(I, label, rep.w_in)
    assert rep.Sp_std == canon.build_S(I, label, rep.w_out)
    assert rep.S_std != rep.Sp_std


def test_verify_symmetry_k1(named_ckvs):
    e1, _, _ = named_ckvs
    rep = canon.verify_symmetry(e1, (1, 0), 1)
    assert rep.verdict
    checks = canon.leading_checks(rep, e1)
    assert checks["all"]


def test_verify_symmetry_k2_scalar_label():
    sig = solved_basis(3, 0, 1)[3]
    rep = canon.verify_symmetry(sig, (0, 1), 2)
    assert rep.verdict


def test_commute_double_D():
    assert canon.verify_commute_doubleD(MET, 1, 1)


def test_fund_equals_double(named_ckvs):
    e1, _, _ = named_ckvs
    assert canon.verify_fund_equals_double(e1, (1, 0), Q(1))


@pytest.mark.parametrize("sig", [(2, 1), (1, 2), (2, 2)])
def test_fund_equals_double_indefinite(sig):
    metric = Metric(*sig)
    for label in ((1, 0), (0, 1), (2, 0), (1, 1)):
        phi = _combination(metric, label)
        assert canon.verify_fund_equals_double(phi, label, Q(-1, 2))


def test_gjms_k1():
    assert canon.gjms_factorization_check(MET, 1)


def test_c_scalar():
    assert canon.c_scalar(3, 4) == 32
    assert canon.c_scalar(0, 4) == 1
    assert canon.c_scalar(5, 4) == 0
    assert canon.c_scalar(-1, 4) == 0


def test_c_matrix_dets():
    assert canon.c_matrix(4, 2).det() == 320
    assert canon.c_matrix(1, 0).det() == 2


def test_regularity_small():
    for k in range(1, 7):
        for d in range(k):
            assert canon.regularity(k, d)


def test_reduction_chain():
    ch = canon.reduction_chain(4, 2)
    assert ch["det"] == 320
    assert ch["det"] == Q(2) ** ch["power_of_two"] * ch["det_companion"]


def test_extract_constraint_matrix_k1():
    M = canon.extract_constraint_matrix(1, 0, 0)
    assert M == canon.c_matrix(1, 0)


def test_extract_constraint_matrix_k2():
    M = canon.extract_constraint_matrix(2, 1, 1)
    assert M == canon.c_matrix(2, 0)


def test_extract_constraint_matrix_k5():
    # the largest worked case: five constraint levels of Delta^5
    M = canon.extract_constraint_matrix(5, 0, 4)
    assert M == canon.c_matrix(5, 0)


_WRONG_C_SCALAR = """
import sys
from tractor_symm import canon
from tractor_symm.ckt import CKTError
c_scalar = canon.c_scalar
canon.c_scalar = lambda s, k: c_scalar(s, k) + 1
try:
    canon.extract_constraint_matrix(2, 1, 1)
except CKTError as e:
    print("CKTError", sys.flags.optimize, e)
"""


def test_constraint_check_survives_python_O():
    # python -O strips asserts; the C-matrix check must still fire
    src = os.path.dirname(os.path.dirname(canon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _WRONG_C_SCALAR],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.startswith("CKTError 1 constraint entry (0,0)")


_WRONG_BINOM = """
import sys
from tractor_symm import canon
from tractor_symm.ckt import CKTError
binom = canon.binom
canon.binom = lambda n, k: binom(n, k) + 1
try:
    canon.reduction_chain(3, 0)
except CKTError as e:
    print("CKTError", sys.flags.optimize, e)
"""


def test_reduction_chain_check_survives_python_O():
    # the closed-form checks of every stage must fire without asserts
    src = os.path.dirname(os.path.dirname(canon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _WRONG_BINOM],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.startswith("CKTError 1 reduction chain k=3, d=0")


def test_classify_single(named_ckvs):
    e1, _, _ = named_ckvs
    I = ckt.split(e1, ckt.CKTLabel(1, 0))
    w = Q(2 * 1 - N, 2)
    op = canon.build_S(I, (1, 0), w)
    pieces, tail = canon.classify(op, 1)
    assert tail.is_zero()
    assert len(pieces) == 1
    label, phi = pieces[0]
    assert tuple(label) == (1, 0) and phi == e1


def test_classify_rejects_nonsymmetry():
    bad = StdOp.from_coeff(SymTensor(MET, 1, {(0,): Poly.var(N, 0)}), 0)
    with pytest.raises(canon.ClassificationError):
        canon.classify(bad, 1)


@pytest.mark.parametrize("sig", [(3, 0), (2, 1)])
def test_classify_metric_coefficient(sig):
    # g^ab nabla_a nabla_b with g not trace-free is Delta = 1 . Delta: a
    # trivial symmetry with the identity as its tail
    met = Metric(*sig)
    g = SymTensor(met, 2, {(a, a): met.eps[a] for a in range(met.n)})
    assert canon.classify(StdOp.from_coeff(g, 0), 1) == (
        [], StdOp.identity(met))


def test_classify_with_trivial_tail(named_ckvs):
    e1, _, dil = named_ckvs
    w = Q(2 * 1 - N, 2)
    I = ckt.split(dil, ckt.CKTLabel(1, 0))
    op = canon.build_S(I, (1, 0), w)
    tail = StdOp.from_coeff(SymTensor(MET, 0, {(): Poly.var(N, 1)}), 0)
    op = op + tail.compose(StdOp.laplacian_power(MET, 1))
    pieces, got_tail = canon.classify(op, 1)
    assert got_tail == tail
    assert len(pieces) == 1 and pieces[0][1] == dil
