import random
import re
from functools import lru_cache

import pytest

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly
from tractor_symm.tensor import Metric
from tractor_symm.tractor import TractorField, SlotKind, pair_space
from tractor_symm import ckt, algebra

from conftest import solved_basis, dense_h, dense_W


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
    I1, _, Id = gelems
    bu = algebra.bullet(I1, Id)
    h = dense_h(MET.key())
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
    # boxtimes, leaves a residual in that part's module; decompose takes
    # boxtimes by name and the other three from contracted_products
    A, B = (gelems[i] for i in pair)
    algebra.decompose(A, B)
    if name == "boxtimes":
        box = algebra.boxtimes
        monkeypatch.setattr(algebra, "boxtimes",
                            lambda I, J: box(I, J).scale(0))
    else:
        products = algebra.contracted_products
        k = ("bullet", "bracket", "killing").index(name)

        def wrong(I, J):
            out = list(products(I, J))
            out[k] = 2 * out[k] if name == "killing" else out[k].scale(2)
            return tuple(out)

        monkeypatch.setattr(algebra, "contracted_products", wrong)
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


# indefinite signatures: on a Euclidean metric every h_A is +1, so only
# these see a sign slip in the tractor metric's involution

INDEFINITE = [(2, 1), (1, 2), (2, 2), (3, 1)]


@lru_cache(maxsize=None)
def _ckvs(sig):
    return tuple(ckt.solve(Metric(*sig), ckt.CKTLabel(1, 0)))


def _seeded_pairs(sig, count):
    basis = _ckvs(sig)
    rng = random.Random(sum(sig) + 10 * sig[1])
    return [(basis[rng.randrange(len(basis))],
             basis[rng.randrange(len(basis))]) for _ in range(count)]


@pytest.mark.parametrize("sig", INDEFINITE)
def test_dec2can_and_decompose_indefinite(sig):
    for phi, phib in _seeded_pairs(sig, 3):
        I = ckt.split(phi, ckt.CKTLabel(1, 0))
        J = ckt.split(phib, ckt.CKTLabel(1, 0))
        dec = algebra.decompose(I, J)  # raises if residual not orthogonal
        assert dec.killing_part == algebra.killing_oracle(phi, phib)
        for w in (Q(-1, 2), Q(0), Q(2)):
            rep = algebra.verify_dec2can(phi, phib, w)
            assert rep["all"], rep


def _dense_form(field):
    """Full skew (n+2) x (n+2) matrix of a one-form-slot field."""
    n = field.metric.n
    ps = pair_space(n)
    M = [[Poly.zero(n)] * (n + 2) for _ in range(n + 2)]
    for (pi,), p in field.comps.items():
        a, b = ps.pairs[pi]
        M[a][b], M[b][a] = p, p.scale(-1)
    return M


def _dense_products(I, J):
    """Oracle for bullet, bracket and killing: M = M_I h M_J summed over
    every index of the dense h, and the pairing -4n I_p W_pq J_q over
    every pair of two-forms of the dense W."""
    metric = I.metric
    n = metric.n
    N = n + 2
    h = dense_h(metric.key())
    ps = pair_space(n)
    MI, MJ = _dense_form(I), _dense_form(J)
    M = [[sum((MI[A][P] * MJ[Qi][B]).scale(h[P][Qi]) for P in range(N)
              for Qi in range(N)) for B in range(N)] for A in range(N)]
    br = TractorField(metric, 0, (SlotKind.FORM,), {
        (pi,): (M[a][b] - M[b][a]).scale(2)
        for pi, (a, b) in enumerate(ps.pairs)})
    sym = [[(M[a][b] + M[b][a]).scale(Q(-1, 2)) for b in range(N)]
           for a in range(N)]
    tr = sum(sym[a][b].scale(h[a][b]) for a in range(N) for b in range(N))
    bu = TractorField(metric, 0, (SlotKind.STD, SlotKind.STD), {
        (a, b): (sym[a][b] - tr.scale(h[a][b] / N)).scale(Q(4, n))
        for a in range(N) for b in range(N)})
    W = dense_W(h)
    kl = sum((I.get((p,)) * J.get((q,))).scale(W[p][q])
             for p in range(len(W)) for q in range(len(W))).scale(-4 * n)
    assert kl.is_constant()
    return bu, br, kl.constant_value()


@pytest.mark.parametrize("sig", [(3, 0)] + INDEFINITE)
def test_products_match_dense_formula(sig):
    for phi, phib in _seeded_pairs(sig, 2):
        I = ckt.split(phi, ckt.CKTLabel(1, 0))
        J = ckt.split(phib, ckt.CKTLabel(1, 0))
        bu, br, kl = _dense_products(I, J)
        assert algebra.bullet(I, J) == bu
        assert algebra.bracket(I, J) == br
        assert algebra.killing(I, J) == kl
        assert algebra.contracted_products(I, J) == (bu, br, kl)
