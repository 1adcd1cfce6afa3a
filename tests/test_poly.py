import operator
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tractor_symm.scalars import Q, qstr, qparse, binom
from tractor_symm.poly import (Poly, monomials_of_degree,
                               monomials_up_to_degree)


def test_scalar_roundtrip():
    for v in (Q(0), Q(3), Q(-7, 3), Q(22, 4)):
        assert qparse(qstr(v)) == v


def test_binom():
    assert binom(4, 2) == 6
    assert binom(5, 0) == 1
    assert binom(3, 5) == 0


def test_basic_arithmetic():
    n = 3
    x = Poly.var(n, 0)
    y = Poly.var(n, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.diff(0) == x.scale(2)
    assert p.diff(1) == y.scale(-2)


def test_diff_multi():
    n = 2
    p = Poly.monomial(n, (3, 2))
    assert p.diff_multi((2, 1)) == Poly.monomial(n, (1, 1), 12)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_mixed_nvars_rejected(op):
    # an x-polynomial against an (x, xi)-polynomial has no meaning
    with pytest.raises(ValueError):
        op(Poly.var(3, 0), Poly.var(6, 4))


def test_monomial_counts():
    assert len(list(monomials_of_degree(3, 2))) == 6
    assert len(list(monomials_up_to_degree(3, 2))) == 10


def _rand_poly(rng, n=2, deg=2):
    return Poly(n, {e: Q(rng.randint(-3, 3))
                    for e in monomials_up_to_degree(n, deg)})


def _rand_qpoly(rng, n=2, deg=2):
    # rational coefficients, so the shared denominator is often > 1
    return Poly(n, {e: Q(rng.randint(-3, 3), rng.randint(1, 6))
                    for e in monomials_up_to_degree(n, deg)})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ring_laws(seed):
    for make in (_rand_poly, _rand_qpoly):
        rng = random.Random(seed)
        a, b, c = (make(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_leibniz(seed):
    for make in (_rand_poly, _rand_qpoly):
        rng = random.Random(seed)
        a, b = (make(rng) for _ in range(2))
        for i in range(2):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partials_commute(seed):
    for make in (_rand_poly, _rand_qpoly):
        rng = random.Random(seed)
        a = make(rng, n=3, deg=3)
        assert a.diff(0).diff(1) == a.diff(1).diff(0)


# plain {exponent: Fraction} dicts: the oracle for the canonical form
def _d_add(a, b, s=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + s * c
    return {e: c for e, c in out.items() if c}


def _d_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _d_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in a.items() if e[i]}


_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_dicts = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         _coeffs, max_size=5)


@settings(max_examples=80, deadline=None)
@given(_dicts, _dicts, _coeffs)
def test_canonical_form(a, b, q):
    pa, pb = Poly(2, a), Poly(2, b)
    a = {e: c for e, c in a.items() if c}
    for p, want in [(pa, a), (pa + pb, _d_add(a, b)),
                    (pa - pb, _d_add(a, b, -1)), (pa * pb, _d_mul(a, b)),
                    (pa.scale(q), _d_mul(a, {(0, 0): q})),
                    (pa.diff(0), _d_diff(a, 0)), (pa.diff(1), _d_diff(a, 1))]:
        assert p.terms == want
        assert p.den > 0 and gcd(p.den, *p.nums.values()) == 1
        assert all(type(c) is int and c for c in p.nums.values())
    # equal polys built along different paths hash equal
    for p1, p2 in [((pa + pb) * pa, pa * pa + pb * pa),
                   (pa.scale(q), pa * Poly.const(2, q)),
                   (pa - pa, Poly.zero(2)),
                   (pa * pb, Poly(2, _d_mul(a, b)))]:
        assert p1 == p2 and hash(p1) == hash(p2)
