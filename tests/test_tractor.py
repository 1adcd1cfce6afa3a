import random
from itertools import product

import pytest

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly
from tractor_symm.tensor import Metric, tractor_metric
from tractor_symm.tractor import (TractorField, SlotKind, nabla, tractor_D,
                                  double_D, fund_D, casimir, x_mult,
                                  contract, permute_slots, pair_space,
                                  parallel_extend)

from conftest import random_poly, dense_h, dense_W


MET = Metric.euclidean(3)
N = 3


def test_tractor_metric():
    # the dense h is its own inverse, and the signed involution is an
    # involution that gives back every entry of it
    for sig in ((3, 0), (2, 1), (1, 2), (2, 2)):
        h, inv = dense_h(sig), tractor_metric(sig)
        size = len(h)
        assert len(inv) == size
        for i in range(size):
            ibar, hi = inv[i]
            assert inv[ibar] == (i, hi)
            for j in range(size):
                s = sum(h[i][k] * h[k][j] for k in range(size))
                assert s == (1 if i == j else 0)
                assert h[i][j] == (hi if j == ibar else 0)


def test_eq_compares_metric():
    a = TractorField(MET, 0, (SlotKind.STD,), {(0,): 1})
    assert a == TractorField(MET, 0, (SlotKind.STD,), {(0,): Q(1)})
    assert a != TractorField(Metric(2, 1), 0, (SlotKind.STD,), {(0,): 1})


def test_nabla_of_density():
    f = TractorField.density(MET, Q(2), Poly.monomial(N, (1, 1, 0)))
    g = nabla(f)
    assert g.get((0,)) == Poly.var(N, 1)
    assert g.get((1,)) == Poly.var(N, 0)
    assert g.weight == Q(2)


def test_x_is_parallel_and_null():
    # X arises as x_mult of the unit density; h(X, X) = 0
    one = TractorField.density(MET, Q(0), Poly.const(N, 1))
    X = x_mult(one)
    assert X.weight == Q(1)
    # contraction of X with itself through h vanishes (X is null)
    h = dense_h(MET.key())
    s = Poly.zero(N)
    for (a,), p in X.comps.items():
        for (b,), q in X.comps.items():
            if h[a][b]:
                s = s + (p * q).scale(h[a][b])
    assert s.is_zero()


def test_tractor_D_on_density():
    w = Q(2)
    f = Poly.monomial(N, (2, 0, 0))
    t = tractor_D(TractorField.density(MET, w, f))
    assert t.weight == w - 1
    # top component (n + 2w - 2) w f
    assert t.get((0,)) == f.scale((N + 2 * w - 2) * w)
    # bottom component -Delta f
    assert t.get((N + 1,)) == Poly.const(N, -2)


def test_double_D_squared_trace(rng):
    # D^A D_A = -2w(n+w) on densities
    Wm = dense_W(dense_h(MET.key()))
    for w in (Q(0), Q(2), Q(-1, 2), Q(3)):
        f = random_poly(N, 3, rng)
        t = double_D(double_D(TractorField.density(MET, w, f)))
        s = Poly.zero(N)
        for (p, q), val in t.comps.items():
            if Wm[p][q]:
                s = s + val.scale(Wm[p][q])
        assert s == f.scale(-2 * w * (N + w))


def test_casimir_on_density(rng):
    # the Casimir acts by a scalar on densities: -2w(n+2w-2)... verify
    # it is at least proportional to the identity with a w-dependent value
    for w in (Q(1), Q(-1, 2)):
        f = random_poly(N, 2, rng)
        c = casimir(TractorField.density(MET, w, f))
        g = random_poly(N, 2, rng)
        c2 = casimir(TractorField.density(MET, w, g))
        assert c.get(()) * g == c2.get(()) * f  # same scalar for both


def test_commutator_D_X(rng):
    h = dense_h(MET.key())
    ps = pair_space(N)
    for w in (Q(0), Q(2), Q(-3, 2)):
        f = TractorField.density(MET, w, random_poly(N, 3, rng))
        t1 = tractor_D(x_mult(f))
        t2 = permute_slots(x_mult(tractor_D(f)), (1, 0))
        comm = t1 - t2
        want = TractorField(MET, w, (SlotKind.STD, SlotKind.STD))
        dd = double_D(f)
        for (pi,), p in dd.comps.items():
            a, b = ps.pairs[pi]
            want.add_to((a, b), p.scale(-2))
            want.add_to((b, a), p.scale(2))
        for idx, p in f.comps.items():
            for A in range(N + 2):
                for B in range(N + 2):
                    if h[A][B]:
                        want.add_to((A, B) + idx,
                                    p.scale((N + 2 * w) * h[A][B]))
        assert comm == want


def test_fund_commutes_with_double(rng):
    for w in (Q(0), Q(2)):
        f = TractorField.density(MET, w, random_poly(N, 2, rng))
        a1 = fund_D(double_D(f))
        a2 = permute_slots(double_D(fund_D(f)), (1, 0))
        assert a1 == a2


def test_parallel_extend_constant():
    # a parallel tractor is determined by its value at the origin
    t0 = TractorField(MET, Q(0), (SlotKind.FORM,), {(0,): 1})
    ext = parallel_extend(t0)
    assert nabla(ext).is_zero()


@pytest.mark.parametrize("sig", [(3, 0), (2, 1)])
def test_parallel_extend_mixed_slots(sig):
    # a random constant fiber on standard, form and covector slots
    metric = Metric(*sig)
    n = metric.n
    rng = random.Random(sum(sig) * 10 + sig[1])
    slots = (SlotKind.STD, SlotKind.FORM, SlotKind.VEC)
    t0 = TractorField(metric, Q(1), slots)
    for A in range(n + 2):
        for P in range(pair_space(n).npairs()):
            for a in range(n):
                if rng.random() < 0.3:
                    t0.add_to((A, P, a), Poly.const(n, Q(rng.randint(-3, 3),
                                                         rng.randint(1, 3))))
    ext = parallel_extend(t0)
    assert nabla(ext).is_zero()
    at0 = TractorField(metric, Q(1), slots,
                       {i: p.constant_value() for i, p in ext.comps.items()})
    assert at0 == t0


def test_contract_density():
    ps = pair_space(N)
    a = TractorField(MET, Q(0), (SlotKind.FORM,), {(0,): 1})
    b = TractorField(MET, Q(0), (SlotKind.FORM,), {(0,): 1})
    v = contract(a, b).get(())
    Wm = dense_W(dense_h(MET.key()))
    assert v == Poly.const(N, Wm[0][0])


def contract_pairs(t1, t2):
    """The pair loop: every pair of components, slot by slot through h,
    W or the base metric; an oracle for contract."""
    metric = t1.metric
    k = len(t1.slots)
    h = dense_h(metric.key())
    Wm = dense_W(h)
    out = TractorField(metric, t1.weight + t2.weight, t2.slots[k:],
                       nvars=max(t1.nvars(), t2.nvars()))
    for i1, p1 in t1.comps.items():
        for i2, p2 in t2.comps.items():
            c = Q(1)
            for s, kind in enumerate(t1.slots):
                a, b = i1[s], i2[s]
                if kind == SlotKind.STD:
                    c *= h[a][b]
                elif kind == SlotKind.FORM:
                    c *= Wm[a][b]
                else:
                    c *= metric.g(a, b)
            if c:
                out.add_to(i2[k:], (p1 * p2).scale(c))
    return out


def _random_field(metric, slots, rng, density):
    n = metric.n
    dims = {SlotKind.STD: n + 2, SlotKind.FORM: pair_space(n).npairs(),
            SlotKind.VEC: n}
    t = TractorField(metric, Q(1), slots)
    for idx in product(*(range(dims[s]) for s in slots)):
        if rng.random() < density:
            t.add_to(idx, random_poly(n, 1, rng))
    return t


@pytest.mark.parametrize("sig", [(3, 0), (2, 1)])
def test_contract_matches_pair_loop(sig):
    metric = Metric(*sig)
    rng = random.Random(10 * sig[0] + sig[1])
    slots = (SlotKind.STD, SlotKind.FORM, SlotKind.VEC)
    t1 = _random_field(metric, slots, rng, 0.3)
    for tail in ((), (SlotKind.STD,), (SlotKind.FORM, SlotKind.VEC)):
        t2 = _random_field(metric, slots + tail, rng, 0.3)
        got = contract(t1, t2)
        assert not got.is_zero()
        assert got == contract_pairs(t1, t2)


def test_add_rejects_other_slots_or_weight():
    a = TractorField(MET, Q(0), (SlotKind.STD,), {(0,): 1})
    for b in (TractorField(MET, Q(0), (SlotKind.VEC,), {(0,): 1}),
              TractorField(MET, Q(1), (SlotKind.STD,), {(0,): 1})):
        with pytest.raises(ValueError):
            a + b


def test_contract_rejects_slot_mismatch():
    a = TractorField(MET, Q(0), (SlotKind.FORM,), {(0,): 1})
    b = TractorField(MET, Q(0), (SlotKind.STD,), {(0,): 1})
    with pytest.raises(ValueError):
        contract(a, b)


def test_zero_section_keeps_plane_wave_variables():
    # contracting a zero section with a plane-wave field gives a zero in
    # (x, xi), which adds to the plane wave
    wave = Poly.const(2 * N, 1)
    t = double_D(TractorField.density(MET, Q(0), wave))
    z = contract(TractorField(MET, Q(0), (SlotKind.FORM,)), t).get(())
    assert z.is_zero() and z.nvars == 2 * N
    assert z + wave == wave
