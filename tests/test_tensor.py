import random
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly, monomials_of_degree, monomials_up_to_degree
from tractor_symm.tensor import (Metric, SymTensor, trace_free, multisets,
                                 random_tracefree, harmonic_parts,
                                 harmonic_norm, xi_laplacian, xi_quadric,
                                 xi_raise, xi_dx, xi_reduce, PairSpace, kulkarni_nomizu,
                                 tractor_metric, pair_involution, weyl_part)
from tractor_symm.ckt import weyl_dim
from tractor_symm.algebra import brute_dim_oracle
from tractor_symm import linalg

from conftest import (trace, g_odot, random_poly, dense_h, dense_W,
                      kulkarni_nomizu_dense)


def test_metric_trace():
    met = Metric.euclidean(3)
    g = SymTensor(met, 2, {(a, a): Poly.const(3, met.g(a, a))
                           for a in range(3)})
    assert trace(g).get(()) == Poly.const(3, 3)


def test_unit_vector_trace():
    met = Metric.euclidean(3)
    e11 = SymTensor(met, 2, {(0, 0): 1})
    assert trace(e11).get(()) == Poly.const(3, 1)


def test_trace_free_e1e1():
    met = Metric.euclidean(3)
    e11 = SymTensor(met, 2, {(0, 0): 1})
    tf = trace_free(e11)
    want = SymTensor(met, 2, {(0, 0): Q(2, 3), (1, 1): Q(-1, 3),
                              (2, 2): Q(-1, 3)})
    assert tf == want
    assert trace(tf).is_zero()


def test_trace_free_indefinite():
    met = Metric(1, 2)
    e11 = SymTensor(met, 2, {(0, 0): 1})
    tf = trace_free(e11)
    assert trace(tf).is_zero()


def _scalar(rng, span, dens):
    """A random integer in -span..span, over a denominator drawn from
    dens when dens is given."""
    c = rng.randint(-span, span)
    return Q(c, rng.choice(dens)) if dens else Q(c)


def _random_tensor(met, rank, rng, dens=None):
    return SymTensor(met, rank, {
        m: Poly.const(met.n, _scalar(rng, 3, dens))
        for m in multisets(met.n, rank)})


def _check_decomposition(t):
    # trace and g_odot work on indices, apart from the symbol calculus
    met, p = t.metric, t.rank
    parts = [SymTensor.wrap(met, p - 2 * q, h)
             for q, h in enumerate(harmonic_parts(t.sym, met, p))]
    assert len(parts) == p // 2 + 1
    rebuilt = SymTensor.zero(met, p)
    for q, u in enumerate(parts):
        assert u.rank < 2 or trace(u).is_zero()
        emb = u
        for _ in range(q):
            emb = g_odot(emb)
        rebuilt = rebuilt + emb
    assert rebuilt == t
    assert trace_free(t) == parts[0]
    # the parts commute with raising indices
    up = list(harmonic_parts(xi_raise(t.sym, met), met, p))
    assert [SymTensor.wrap(met, p - 2 * q, xi_raise(h, met))
            for q, h in enumerate(up)] == parts


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6),
       st.sampled_from([(3, 0), (2, 1), (1, 2), (2, 2)]))
def test_trace_decomposition_roundtrip(seed, rank, sig):
    rng = random.Random(seed)
    _check_decomposition(_random_tensor(Metric(*sig), rank, rng))


@pytest.mark.parametrize("sig", [(3, 0), (2, 1), (1, 3)])
def test_symbol_calculus_matches_indices(sig):
    # sigma(tr S) = Delta_xi sigma(S) / p(p-1) and sigma(g . S) = Q sigma(S),
    # on integer entries and on entries over 2, 3 and 7
    met = Metric(*sig)
    for dens in (None, (2, 3, 7)):
        t = _random_tensor(met, 4, random.Random(sum(sig)), dens)
        assert SymTensor(met, 4, t.comps) == t
        lap = xi_laplacian(t.sym, met).scale(Q(1, 12))
        assert SymTensor.wrap(met, 2, lap) == trace(t)
        assert SymTensor.wrap(met, 6, xi_quadric(t.sym, met)) == g_odot(t)
        _check_decomposition(t)


@pytest.mark.parametrize("sig", [(3, 0), (2, 1), (1, 2)])
def test_xi_reduce_is_remainder_mod_quadric(sig):
    # xi_reduce(S + Q R) = S for S of degree < 2 in xi_1, with the
    # quadric Q as a Poly product, apart from the xi maps
    met = Metric(*sig)
    n = met.n
    rng = random.Random(sum(sig) + 5)
    quadric = Poly(2 * n, {tuple(2 if i == n + a else 0
                                 for i in range(2 * n)): met.eps[a]
                           for a in range(n)})
    for dens in (None, (2, 3, 7)):
        S, R = (Poly(2 * n, {e: _scalar(rng, 9, dens)
                             for e in monomials_up_to_degree(2 * n, 4)
                             if e[n] < 2 or not low})
                for low in (True, False))
        assert xi_reduce(S + quadric * R, met) == S
        assert xi_reduce(S, met) == S


def test_trace_decomposition_rank10():
    t = _random_tensor(Metric.euclidean(3), 10, random.Random(10))
    start = time.perf_counter()
    list(harmonic_parts(t.sym, t.metric, t.rank))
    assert time.perf_counter() - start < 5
    _check_decomposition(t)


def test_trace_rejects_rank_below_two():
    with pytest.raises(ValueError, match="rank-1"):
        trace(SymTensor(Metric(3, 0), 1))


def test_xi_dx_is_symmetrized_gradient():
    # (xi . d_x) sigma(S) = sigma of the symmetrized gradient, in indices
    # on integer entries and on entries over 2, 3 and 7
    met = Metric.euclidean(3)
    n = met.n
    for dens in (None, (2, 3, 7)):
        rng = random.Random(5)
        t = SymTensor(met, 2, {
            m: Poly(n, {e: _scalar(rng, 3, dens) for e in
                        ((2, 0, 1), (0, 1, 1), (1, 0, 0))})
            for m in multisets(n, 2)})
        # (1/3) sum over the three choices of the derivative slot
        want = SymTensor(met, 3, {
            m: sum((t.get(m[:i] + m[i + 1:]).diff(m[i]) for i in range(3)),
                   Poly.zero(n)).scale(Q(1, 3))
            for m in multisets(n, 3)})
        assert SymTensor.wrap(met, 3, xi_dx(t.sym, n)) == want


def test_random_tracefree_is_tracefree():
    rng = random.Random(3)
    met = Metric.euclidean(3)
    t = random_tracefree(met, 3, 2, rng)
    assert trace(t).is_zero()
    assert not t.is_zero()


def _random_pair_matrix(ps, rng):
    """Pair matrix of the pair-skew part of a random dense 4-tensor."""
    dim = ps.dim
    dense = {(a, b, c, d): Q(rng.randint(-3, 3)) for a in range(dim)
             for b in range(dim) for c in range(dim) for d in range(dim)}
    return [[(dense[(a, b, c, d)] - dense[(b, a, c, d)]
              - dense[(a, b, d, c)] + dense[(b, a, d, c)]) / 4
             for (c, d) in ps.pairs] for (a, b) in ps.pairs]


def _pairing(H, A, B):
    """Full-index pairing of two pair matrices, with H the dense W."""
    P = len(H)
    return sum(A[i][j] * H[i][k] * H[j][l] * B[k][l] for i in range(P)
               for j in range(P) for k in range(P) for l in range(P)
               if H[i][k] and H[j][l])


def _identity(dim):
    """The Euclidean metric on R^dim, as a signed involution."""
    return tuple((a, 1) for a in range(dim))


INVOLUTION_SIGS = [(3, 0), (2, 1), (1, 2), (2, 2), (4, 0), (3, 1)]


@pytest.mark.parametrize("sig", INVOLUTION_SIGS)
def test_involution_matches_dense(sig):
    # the signed involutions give back the dense h and W entry by entry,
    # and X o h read from them is the four-index Kulkarni-Nomizu formula
    h, inv = dense_h(sig), tractor_metric(sig)
    N = len(h)
    for A in range(N):
        Abar, hA = inv[A]
        assert [h[A][B] for B in range(N)] == [
            hA if B == Abar else 0 for B in range(N)]
    W = dense_W(h)
    assert W == kulkarni_nomizu_dense(h, h)
    for p, (q, w) in enumerate(pair_involution(inv)):
        assert w != 0
        assert W[p] == [w if j == q else 0 for j in range(len(W))]
    ps = PairSpace(N)
    rng = random.Random(sum(sig) + 10 * sig[1])
    X = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(N)]
         for _ in range(N)]
    assert kulkarni_nomizu(ps, X, inv) == kulkarni_nomizu_dense(X, h)
    assert kulkarni_nomizu(ps, h, inv) == W


def test_weyl_part_properties():
    # on a 4-dim euclidean space: the Weyl part of a random 4-tensor is
    # pair symmetric, satisfies Bianchi, is trace-free and is fixed
    dim = 4
    h = _identity(dim)
    ps = PairSpace(dim)
    W = weyl_part(ps, h, _random_pair_matrix(ps, random.Random(11)))
    assert any(any(row) for row in W)

    def comp(a, b, c, d):
        r1, r2 = ps.sign_index(a, b), ps.sign_index(c, d)
        if r1 is None or r2 is None:
            return Q(0)
        return r1[1] * r2[1] * W[r1[0]][r2[0]]

    idx = range(dim)
    for a, b, c, d in product(idx, idx, idx, idx):
        assert comp(a, b, c, d) == comp(c, d, a, b)
        assert comp(a, b, c, d) + comp(b, c, a, d) + comp(c, a, b, d) == 0
    for b, d in product(idx, idx):
        assert sum(comp(a, b, a, d) for a in idx) == 0
    assert weyl_part(ps, h, W) == W


@pytest.mark.parametrize("sig", [(4, 0), (2, 1), (1, 2)])
def test_weyl_part_self_adjoint(sig):
    # <W(A), B> = <A, W(B)> under the pairing induced by h, for pair
    # matrices that are neither symmetric nor trace-free
    h = _identity(4) if sig == (4, 0) else tractor_metric(sig)
    ps = PairSpace(len(h))
    H = dense_W([[Q(int(b == a)) for b in range(4)] for a in range(4)]
                if sig == (4, 0) else dense_h(sig))
    rng = random.Random(sum(sig))
    A, B = _random_pair_matrix(ps, rng), _random_pair_matrix(ps, rng)
    lhs = _pairing(H, weyl_part(ps, h, A), B)
    assert lhs == _pairing(H, A, weyl_part(ps, h, B))
    assert lhs != 0


@pytest.mark.parametrize("sig", [(3, 0), (2, 1), (4, 0)])
def test_weyl_part_rank(sig):
    # its image on Sym^2 Lambda^2 of the tractor space is the (2,2) module
    h = tractor_metric(sig)
    ps = PairSpace(len(h))
    P = ps.npairs()
    rows = []
    for i, j in ps.coords:
        E = [[Q(int({k, l} == {i, j})) for l in range(P)] for k in range(P)]
        W = weyl_part(ps, h, E)
        rows.append({k: v for k, v in enumerate(x for row in W for x in row)
                     if v})
    n = sum(sig)
    assert linalg.rank(rows) == weyl_dim(n, 2, 0)
    assert weyl_dim(n, 2, 0) == brute_dim_oracle(1, 2, Metric(*sig))


def test_pair_metric_is_half_kulkarni_nomizu_square():
    # the pairing read from the involution is h o h, which is
    # 2 (h_ac h_bd - h_ad h_bc)
    h, inv = dense_h((2, 1)), tractor_metric((2, 1))
    ps = PairSpace(len(h))
    W = kulkarni_nomizu(ps, h, inv)
    for p, (a, b) in enumerate(ps.pairs):
        q, w = pair_involution(inv)[p]
        for j, (c, d) in enumerate(ps.pairs):
            assert W[p][j] == 2 * (h[a][c] * h[b][d] - h[a][d] * h[b][c])
            assert W[p][j] == (w if j == q else 0)


def test_add_rejects_other_rank():
    met = Metric.euclidean(3)
    a = SymTensor(met, 1, {(0,): 1})
    b = SymTensor(met, 2, {(0, 1): 1})
    with pytest.raises(ValueError, match="rank"):
        a + b


# the symbol is the representation; components are a read-only view


def _index_form_symbol(comps, n):
    """sum over ordered index tuples aa of S_aa xi^aa, by the index form:
    every ordering of a multiset carries its component."""
    out = Poly.zero(2 * n)
    for m, p in comps.items():
        for aa in set(permutations(m)):
            ex = tuple(aa.count(a) for a in range(n))
            out = out + Poly(2 * n, {e + ex: c for e, c in p.terms.items()})
    return out


@pytest.mark.parametrize("sig", [(3, 0), (2, 1), (2, 2)])
def test_comps_symbol_roundtrip(sig):
    met = Metric(*sig)
    n = met.n
    rng = random.Random(3 * sig[0] + sig[1])
    for rank in range(5):
        want = {}
        given = {}
        for m in multisets(n, rank):
            key = tuple(rng.sample(m, len(m)))  # unsorted index keys
            kind = rng.random()
            if kind < 0.3:
                v = rng.randint(-3, 3)  # a scalar value
                p = Poly.const(n, v)
            else:
                p = v = random_poly(n, 2, rng) if kind < 0.8 else Poly.zero(n)
            given[key] = v
            if not p.is_zero():
                want[m] = p
        if rank >= 2:
            # a repeated multiset under two orderings: the last value wins
            m = (0,) * (rank - 1) + (1,)
            given = {k: v for k, v in given.items() if tuple(sorted(k)) != m}
            given[m] = Poly.var(n, 1)
            given[m[::-1]] = Poly.var(n, 0)
            want[m] = Poly.var(n, 0)
        t = SymTensor(met, rank, given)
        assert dict(t.comps) == want
        assert t.sym == _index_form_symbol(want, n)
        assert t.sym.nvars == 2 * n
        assert all(sum(e[n:]) == rank for e in t.sym.terms)
        back = SymTensor(met, rank, t.comps)
        assert back == t and dict(back.comps) == want


def test_get_absent_is_zero_poly():
    met = Metric(2, 1)
    t = SymTensor(met, 2, {(0, 1): Poly.var(3, 2)})
    assert t.get((1, 0)) == Poly.var(3, 2)
    for idx in ((0, 0), (2, 1)):
        z = t.get(idx)
        assert z == Poly.zero(3) and z.nvars == 3
    assert SymTensor.zero(met, 3).get((0, 1, 2)) == Poly.zero(3)


def test_eq_compares_symbols_not_weight():
    met = Metric(3, 0)
    a = SymTensor(met, 1, {(0,): 1}, weight=2)
    assert a == SymTensor(met, 1, {(0,): Poly.const(3, 1)})
    assert a != SymTensor(met, 1, {(1,): 1}, weight=2)
    assert a != SymTensor(met, 1, {(0,): 2}, weight=2)
    # the same components over another signature are another tensor
    assert a != SymTensor(Metric(2, 1), 1, {(0,): 1}, weight=2)
    assert a.scale(3) - a - a == a
    assert (a - a).is_zero() and (a - a) == SymTensor.zero(met, 1)


def test_comps_are_read_only():
    t = SymTensor(Metric(2, 1), 1, {(0,): 1})
    with pytest.raises(TypeError):
        t.comps[(1,)] = Poly.const(3, 1)
    with pytest.raises(TypeError):
        del t.comps[(0,)]
    assert dict(t.comps) == {(0,): Poly.const(3, 1)}


@pytest.mark.parametrize("sig", [(3, 0), (2, 1)])
def test_harmonic_norm(sig):
    # Delta_xi^R Q^R h = harmonic_norm(n, d, R) h for harmonic h of
    # xi-degree d, on random harmonic symbols in (x, xi)
    met = Metric(*sig)
    n = met.n
    rng = random.Random(sum(sig) + 40)
    for d in range(5):
        P = Poly(2 * n, {e + f: Q(rng.randint(-5, 5), rng.randint(1, 3))
                         for e in monomials_up_to_degree(n, 1)
                         for f in monomials_of_degree(n, d)})
        h = next(harmonic_parts(P, met, d))
        assert not h.is_zero()
        assert xi_laplacian(h, met).is_zero()
        for R in range(4):
            up = h
            for _ in range(R):
                up = xi_quadric(up, met)
            for _ in range(R):
                up = xi_laplacian(up, met)
            assert up == h.scale(harmonic_norm(n, d, R))
