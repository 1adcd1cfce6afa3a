import re

import pytest

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly
from tractor_symm.tensor import Metric
from tractor_symm import ckt, algebra

from conftest import solved_basis


MET = Metric.euclidean(3)
N = 3


@pytest.fixture(scope="module")
def gelems(named_ckvs):
    e1, e2, dil = named_ckvs
    return tuple(ckt.split(phi, ckt.CKTLabel(1, 0)) for phi in (e1, e2, dil))


def test_bracket_translation_dilation(gelems, named_ckvs):
    I1, _, Id = gelems
    e1 = named_ckvs[0]
    br = algebra.bracket(I1, Id)
    # [e1, x.grad] = e1
    assert ckt.extract(br, ckt.CKTLabel(1, 0)) == e1
    assert br == I1


def test_bracket_antisymmetric(gelems):
    I1, I2, _ = gelems
    a = algebra.bracket(I1, I2)
    b = algebra.bracket(I2, I1)
    assert a == b.scale(-1)


def test_killing_values(gelems, named_ckvs):
    I1, I2, Id = gelems
    e1, e2, dil = named_ckvs
    assert algebra.killing(I1, I2) == 0
    assert algebra.killing(I1, I1) == 0
    assert algebra.killing(Id, Id) == algebra.killing_oracle(dil, dil)
    assert algebra.killing(Id, Id) != 0


def test_killing_symmetric_and_invariant(gelems):
    I1, I2, Id = gelems
    assert algebra.killing(I1, Id) == algebra.killing(Id, I1)
    # invariance: <[a,b],c> + <b,[a,c]> = 0
    lhs = algebra.killing(algebra.bracket(Id, I1), I2)
    rhs = algebra.killing(I1, algebra.bracket(Id, I2))
    assert lhs + rhs == 0


def test_jacobi_identity(gelems):
    a, b, c = gelems
    t1 = algebra.bracket(algebra.bracket(a, b), c)
    t2 = algebra.bracket(algebra.bracket(b, c), a)
    t3 = algebra.bracket(algebra.bracket(c, a), b)
    assert (t1 + t2 + t3).is_zero()


def test_bullet_symmetric_tracefree(gelems):
    from tractor_symm.tractor import hmat
    I1, _, Id = gelems
    bu = algebra.bullet(I1, Id)
    h = hmat(MET)
    tr = Poly.zero(N)
    for (a, b), p in bu.comps.items():
        assert bu.get((b, a)) == p
        if h[a][b]:
            tr = tr + p.scale(h[a][b])
    assert tr.is_zero()


def test_decompose_orthogonality(gelems):
    I1, I2, Id = gelems
    for (A, B) in ((I1, I2), (I1, Id), (Id, Id)):
        dec = algebra.decompose(A, B)  # raises if residual not orthogonal
        assert dec.killing_part == algebra.killing(A, B)


@pytest.mark.parametrize("name, module, pair", [
    ("killing", "scalar", (2, 2)),
    ("bracket", "adjoint", (0, 2)),
    ("bullet", "symmetric trace-free", (0, 2)),
    ("boxtimes", "Young-(2,2) trace-free", (0, 2))])
def test_decompose_rejects_wrong_part(gelems, monkeypatch, name, module,
                                      pair):
    # doubling the pairing, the bracket or the bullet, or zeroing
    # boxtimes, leaves a residual in that part's module
    A, B = (gelems[i] for i in pair)
    algebra.decompose(A, B)
    f = getattr(algebra, name)
    c = 0 if name == "boxtimes" else 2

    def wrong(I, J):
        v = f(I, J)
        return c * v if name == "killing" else v.scale(c)

    monkeypatch.setattr(algebra, name, wrong)
    with pytest.raises(ckt.CKTError, match=rf"in the {re.escape(module)} "
                       r"module, (its Ricci trace|(Ricci )?entry \()"):
        algebra.decompose(A, B)


def test_dec2can(named_ckvs):
    e1, _, dil = named_ckvs
    for w in (Q(-1, 2), Q(2), Q(0)):
        rep = algebra.verify_dec2can(e1, dil, w)
        assert rep["all"], rep


def test_ideal_coefficient_values():
    assert algebra.ideal_coefficient(3, 1) == Q(1, 48)
    assert algebra.ideal_coefficient(3, 2) == Q(-7, 240)


def test_ideal_relation(named_ckvs):
    e1, _, dil = named_ckvs
    for k in (1, 2):
        assert algebra.ideal_relation_check(e1, dil, k)


def test_fund2_equals_xd():
    assert algebra.fund2_equals_xd_check(MET, 2)
    assert algebra.fund2_equals_xd_check(MET, Q(-1, 2))


def test_lemma_extra_k1():
    assert algebra.lemma_extra_check(1, MET)


def test_lemma_extra_rejects_doubled_operator(monkeypatch):
    # S built on 2I is 2 sigma Delta^2; Delta^2 kills every cubic, so a
    # check on monomials of degree <= 3 cannot tell it from sigma Delta^2
    split = ckt.split
    monkeypatch.setattr(ckt, "split",
                        lambda phi, label: split(phi, label).scale(2))
    sigma = solved_basis(3, 0, 2)[7]
    assert not algebra.lemma_extra_check(2, MET, basis=[sigma])


def test_graded_dims():
    assert algebra.graded_dim(1, 1, 3) == 10
    assert algebra.graded_dim(1, 2, 3) == 35
    assert algebra.graded_dim(2, 2, 3) == 49
    assert algebra.graded_dim(3, 2, 3) == 49


def test_graded_vs_brute_oracle():
    for k in (1, 2):
        for t in (1, 2):
            assert (algebra.graded_dim(k, t, 3)
                    == algebra.brute_dim_oracle(k, t, 3))


def test_brute_oracle_infeasible():
    with pytest.raises(ValueError):
        algebra.brute_dim_oracle(1, 3, 3)
