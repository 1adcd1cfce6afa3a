import operator
import random

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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ring_laws(seed):
    rng = random.Random(seed)
    a, b, c = (_rand_poly(rng) for _ in range(3))
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_leibniz(seed):
    rng = random.Random(seed)
    a, b = (_rand_poly(rng) for _ in range(2))
    for i in range(2):
        assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_partials_commute(seed):
    rng = random.Random(seed)
    a = _rand_poly(rng, n=3, deg=3)
    assert a.diff(0).diff(1) == a.diff(1).diff(0)
