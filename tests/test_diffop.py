import random
from fractions import Fraction
from itertools import product
from math import factorial, prod
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly, monomials_up_to_degree
from tractor_symm.tensor import (Metric, SymTensor, random_tracefree,
                                 xi_laplacian)
from tractor_symm.diffop import StdOp, OpType, compose_raw


MET = Metric.euclidean(3)


def laplacian_poly(f, metric):
    """sum_a eps_a d_a^2 f on the coordinates, with no symbol."""
    out = Poly.zero(metric.n)
    for i in range(metric.n):
        out = out + f.diff(i).diff(i).scale(metric.eps[i])
    return out


def test_type_ordering():
    # ordered by (level, order)
    assert OpType(1, 1).sort_key() < OpType(0, 2).sort_key()
    assert OpType(3, 0).sort_key() < OpType(1, 2).sort_key()
    assert OpType(2, 1).order == 4 and OpType(2, 1).level == 3


def test_laplacian_on_monomials():
    lap = StdOp.laplacian_power(MET, 1)
    x1sq = Poly.monomial(3, (0, 2, 0))
    assert lap(x1sq) == Poly.const(3, 2)
    assert lap(Poly.monomial(3, (1, 1, 0))).is_zero()


def test_apply_matches_raw():
    rng = random.Random(2)
    phi = random_tracefree(MET, 2, 1, rng)
    op = StdOp.from_coeff(phi, 1)
    raw = op.sym
    f = Poly(3, {e: Q(rng.randint(-3, 3))
                 for e in monomials_up_to_degree(3, 4)})
    direct = op(f)
    # one d^alpha f per term c x^beta xi^alpha of the flat symbol
    via_raw = Poly.zero(3)
    for e, c in raw.terms.items():
        via_raw = via_raw + Poly.monomial(3, e[:3], c) * f.diff_multi(e[3:])
    assert direct == via_raw


def test_apply_matches_index_form():
    # phi^{a_1..a_p} d_{a_1}..d_{a_p} Delta^r f summed over index tuples,
    # with no symbol: an oracle for apply = sum_alpha c_alpha d^alpha
    rng = random.Random(2)
    for met in (MET, Metric(2, 1)):
        phi = random_tracefree(met, 2, 1, rng)
        op = StdOp.from_coeff(phi, 1)
        f = Poly(3, {e: Q(rng.randint(-3, 3))
                     for e in monomials_up_to_degree(3, 4)})
        g = laplacian_poly(f, met)
        want = Poly.zero(3)
        for idx in product(range(3), repeat=2):
            dg = g
            for a in idx:
                dg = dg.diff(a).scale(met.eps[a])
            want = want + phi.get(idx) * dg
        assert op(f) == want


def test_normalize_roundtrip():
    rng = random.Random(4)
    phi = random_tracefree(MET, 2, 2, rng)
    op = StdOp.from_coeff(phi, 1) + StdOp.laplacian_power(MET, 2)
    assert StdOp(MET, op.terms) == op


def test_compose_is_composition():
    rng = random.Random(9)
    a = StdOp.from_coeff(random_tracefree(MET, 1, 1, rng), 0)
    b = StdOp.from_coeff(random_tracefree(MET, 1, 2, rng), 1)
    ab = a.compose(b)
    for e in monomials_up_to_degree(3, 4):
        f = Poly.monomial(3, e)
        assert ab(f) == a(b(f))


def test_residual_from_one_symbol_difference():
    # the standard form is linear: the view of sigma(L a) - sigma(b L)
    # is the termwise difference of the two views
    rng = random.Random(12)
    lap = StdOp.laplacian_power(MET, 2)
    a, b = _random_op(MET, rng), _random_op(MET, rng)
    diff = (compose_raw(lap.sym, a.sym) - compose_raw(b.sym, lap.sym))
    res = StdOp.wrap(MET, diff)
    assert not res.is_zero()
    assert res == lap.compose(a) - b.compose(lap)
    assert res.terms == _termwise(lap.compose(a).terms,
                                  b.compose(lap).terms, -1)


def test_other_metric_rejected():
    a = StdOp.laplacian_power(MET, 1)
    b = StdOp.laplacian_power(Metric(2, 1), 1)
    # the same symbols over another signature are another operator
    assert a != b
    assert StdOp.from_coeff(SymTensor(MET, 1, {(0,): 1})) != \
        StdOp.from_coeff(SymTensor(Metric(2, 1), 1, {(0,): 1}))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a.compose(b)


def _metric_coeff(met):
    """The metric g_ab as a rank-2 coefficient: g^ab nabla_a nabla_b is
    Delta, though g is not trace-free."""
    return SymTensor(met, 2, {(a, a): met.eps[a] for a in range(met.n)})


@pytest.mark.parametrize("sig", [(3, 0), (2, 1)])
def test_metric_coefficient_is_laplacian(sig):
    # operators compare by their symbols, not by how they were written
    met = Metric(*sig)
    a, lap = StdOp.from_coeff(_metric_coeff(met), 0), StdOp.laplacian_power(
        met, 1)
    assert a == lap
    assert (a - lap).is_zero()
    assert a.greatest_term() == OpType(0, 1)


def _termwise(x, y, c=1):
    """x + c y on two standard-form views, termwise, without zero terms."""
    out = dict(x)
    for t, P in y.items():
        out[t] = out[t] + P.scale(c) if t in out else P.scale(c)
    return {t: P for t, P in out.items() if not P.is_zero()}


def test_terms_read_only():
    op = StdOp.laplacian_power(MET, 1)
    t = OpType(0, 1)
    with pytest.raises(TypeError):
        op.terms[t] = Poly.zero(6)
    with pytest.raises(TypeError):
        del op.terms[t]
    assert op.terms[t] == Poly.const(6, 1)


@pytest.mark.parametrize("sig", [(3, 0), (2, 1), (1, 2)])
def test_terms_harmonic_and_additive(sig):
    met = Metric(*sig)
    n = met.n
    rng = random.Random(7 * sig[0] + sig[1])
    for _ in range(3):
        a = _random_op(met, rng) + StdOp.from_coeff(_metric_coeff(met), 1)
        b = _random_op(met, rng)
        # every term is harmonic and of xi-degree p
        for t, P in a.terms.items():
            assert all(sum(e[n:]) == t.p for e in P.nums)
            assert xi_laplacian(P, met).is_zero()
        assert (a + b).terms == _termwise(a.terms, b.terms)


def test_serialization_roundtrip():
    rng = random.Random(8)
    op = StdOp.from_coeff(random_tracefree(MET, 2, 2, rng), 1)
    assert StdOp.from_dict(op.to_dict()) == op


def _index_symbol(phi, met):
    """sum over index tuples aa of phi^{aa} xi_aa, each index raised by
    its eps: the symbol of phi . nabla^p, apart from the symbol calculus."""
    n = met.n
    out = Poly.zero(2 * n)
    for idx in product(range(n), repeat=phi.rank):
        c, ex = Q(1), [0] * n
        for a in idx:
            c *= met.eps[a]
            ex[a] += 1
        out = out + Poly(2 * n, {e + tuple(ex): v * c
                                 for e, v in phi.get(idx).terms.items()})
    return out


@pytest.mark.parametrize("sig", [(2, 1), (1, 2)])
def test_edges_indefinite(sig):
    # a term is kept with raised indices and built into a SymTensor only
    # at coeff, from_coeff and serialization; a sign lost at one of these
    # edges shows only where eps has a -1
    met = Metric(*sig)
    rng = random.Random(10 * sig[0] + sig[1])
    op = StdOp.zero(met)
    for p, r in ((1, 0), (2, 1), (3, 0), (1, 2)):
        phi = random_tracefree(met, p, 2, rng)
        single = StdOp.from_coeff(phi, r)
        assert single.coeff(p, r) == phi
        assert not single.coeff(p, r + 1).comps
        op = op + single
    assert StdOp(met, op.terms) == op
    assert StdOp.from_dict(op.to_dict()) == op
    # the raised symbol, built index by index, reads back as phi
    phi = random_tracefree(met, 3, 1, rng)
    lead = StdOp.wrap(met, _index_symbol(phi, met))
    assert lead == StdOp.from_coeff(phi)
    assert lead.coeff(3, 0) == phi


def _random_op(met, rng):
    """A sum of two terms with polynomial coefficients."""
    op = StdOp.zero(met)
    for _ in range(2):
        coeff = random_tracefree(met, rng.randint(0, 2), rng.randint(1, 2),
                                 rng)
        op = op + StdOp.from_coeff(coeff, rng.randint(0, 1))
    return op


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_compose_associative_on_action(seed):
    rng = random.Random(seed)
    met = Metric(*rng.choice([(3, 0), (2, 1), (1, 2)]))
    a = _random_op(met, rng)
    b = _random_op(met, rng)
    ab = a.compose(b)
    ba = b.compose(a)
    f = Poly(3, {e: Q(rng.randint(-2, 2))
                 for e in monomials_up_to_degree(3, 3)})
    assert ab(f) == a(b(f))
    assert ba(f) == b(a(f))


def _falling(k, g):
    """k (k-1) .. (k-g+1): d^g x^k = _falling(k, g) x^(k-g)."""
    out = 1
    for i in range(g):
        out *= k - i
    return out


def _compose_oracle(a, b, levels=None):
    """sum_gamma (d_xi^gamma a)(d_x^gamma b) / gamma! over every
    multi-index gamma with |gamma| <= deg_xi a (in ``levels``, if given),
    term by term in Fractions: no walk, no shared denominator."""
    n = a.nvars // 2
    top = max((sum(e[n:]) for e in a.terms), default=0)
    out = {}
    for gamma in product(range(top + 1), repeat=n):
        if sum(gamma) > top or (levels is not None
                                and sum(gamma) not in levels):
            continue
        fact = prod(factorial(g) for g in gamma)
        for e1, c1 in a.terms.items():
            w1 = prod(_falling(e1[n + i], g) for i, g in enumerate(gamma))
            if not w1:
                continue
            f1 = e1[:n] + tuple(k - g for k, g in zip(e1[n:], gamma))
            for e2, c2 in b.terms.items():
                w2 = prod(_falling(e2[i], g) for i, g in enumerate(gamma))
                if not w2:
                    continue
                f2 = tuple(k - g for k, g in zip(e2[:n], gamma)) + e2[n:]
                e = tuple(map(add, f1, f2))
                out[e] = out.get(e, 0) + (Fraction(c1) * Fraction(c2)
                                          * w1 * w2 / fact)
    return {e: c for e, c in out.items() if c}


def _rational_symbol(met, rng, degree):
    """A random symbol in (x, xi) of total degree <= degree whose terms
    mix x and xi, with denominators 2, 3 and 7, plus the raw form of a
    random operator on ``met``."""
    terms = {e: Q(rng.randint(-9, 9), rng.choice((2, 3, 7)))
             for e in monomials_up_to_degree(2 * met.n, degree)
             if rng.random() < 0.3}
    return Poly(2 * met.n, terms) + _random_op(met, rng).sym


@pytest.mark.parametrize("sig", [(3, 0), (2, 1)])
def test_compose_raw_matches_oracle(sig):
    met = Metric(*sig)
    rng = random.Random(sum(sig) + 31)
    for _ in range(3):
        a, b = _rational_symbol(met, rng, 4), _rational_symbol(met, rng, 4)
        assert any(sum(e[:met.n]) and sum(e[met.n:]) >= 2 for e in a.terms)
        got = compose_raw(a, b)
        assert got.terms == _compose_oracle(a, b)
        assert all(type(c) is Q for c in got.terms.values())
        # sigma(Delta^2) # b: the case the constraint extraction composes
        lap = StdOp.laplacian_power(met, 2).sym
        assert compose_raw(lap, b).terms == _compose_oracle(lap, b)


@pytest.mark.parametrize("sig", [(3, 0), (2, 1)])
def test_compose_raw_levels(sig):
    # levels keeps exactly the products at those |gamma|
    met = Metric(*sig)
    rng = random.Random(sum(sig) + 47)
    a, b = _rational_symbol(met, rng, 4), _rational_symbol(met, rng, 4)
    for levels in (range(1), range(1, 3), range(2, 3), range(3, 5),
                   range(6, 8), range(0)):
        got = compose_raw(a, b, levels=levels)
        assert got.terms == _compose_oracle(a, b, levels)
        assert all(type(c) is Q for c in got.terms.values())
    # the levels partition the full walk
    parts = [compose_raw(a, b, levels=range(g, g + 1))
             for g in range(a.degree() + 1)]
    assert sum(parts, Poly.zero(a.nvars)) == compose_raw(a, b)
