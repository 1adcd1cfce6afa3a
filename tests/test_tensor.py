import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly
from tractor_symm.tensor import (Metric, SymTensor, trace, trace_free,
                                 g_odot, decompose_traces, multisets,
                                 random_tracefree, young22_space, symbol,
                                 from_symbol, xi_laplacian, xi_quadric)


def test_metric_trace():
    met = Metric.euclidean(3)
    g = SymTensor(met, 2)
    for a in range(3):
        g.add_to((a, a), Poly.const(3, met.g(a, a)))
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


def _random_tensor(met, rank, rng):
    t = SymTensor(met, rank)
    for m in multisets(met.n, rank):
        t.add_to(m, Poly.const(met.n, Q(rng.randint(-3, 3))))
    return t


def _check_decomposition(t):
    # trace and g_odot work on indices, apart from the symbol calculus
    parts = decompose_traces(t)
    rebuilt = SymTensor.zero(t.metric, t.rank)
    for q, u in enumerate(parts):
        assert u.rank == t.rank - 2 * q
        assert u.rank < 2 or trace(u).is_zero()
        emb = u
        for _ in range(q):
            emb = g_odot(emb)
        rebuilt = rebuilt + emb
    assert rebuilt == t
    assert trace_free(t) == parts[0]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6),
       st.sampled_from([(3, 0), (2, 1), (1, 2), (2, 2)]))
def test_trace_decomposition_roundtrip(seed, rank, sig):
    rng = random.Random(seed)
    _check_decomposition(_random_tensor(Metric(*sig), rank, rng))


@pytest.mark.parametrize("sig", [(3, 0), (2, 1), (1, 3)])
def test_symbol_calculus_matches_indices(sig):
    # sigma(tr S) = Delta_xi sigma(S) / p(p-1) and sigma(g . S) = Q sigma(S)
    met = Metric(*sig)
    t = _random_tensor(met, 4, random.Random(sum(sig)))
    assert from_symbol(symbol(t), met, 4) == t
    lap = xi_laplacian(symbol(t), met).scale(Q(1, 12))
    assert from_symbol(lap, met, 2) == trace(t)
    assert from_symbol(xi_quadric(symbol(t), met), met, 6) == g_odot(t)


def test_trace_decomposition_rank10():
    t = _random_tensor(Metric.euclidean(3), 10, random.Random(10))
    start = time.perf_counter()
    decompose_traces(t)
    assert time.perf_counter() - start < 5
    _check_decomposition(t)


def test_random_tracefree_is_tracefree():
    rng = random.Random(3)
    met = Metric.euclidean(3)
    t = random_tracefree(met, 3, 2, rng)
    assert trace(t).is_zero()
    assert not t.is_zero()


def test_young22_projection_properties():
    # on a 4-dim euclidean space: project a random 4-tensor and check
    # the result satisfies skewness, pair exchange, Bianchi, tracelessness
    dim = 4
    h = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    sp = young22_space(dim, h)
    rng = random.Random(11)
    dense = {}
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for d in range(dim):
                    dense[(a, b, c, d)] = Q(rng.randint(-3, 3))

    vec = sp.coords_of_tensor(lambda a, b, c, d: dense[(a, b, c, d)])
    _, proj = sp.project_coords(vec)

    def comp(a, b, c, d):
        r = sp.ps.coord_of(a, b, c, d)
        if r is None:
            return Q(0)
        k, s = r
        return s * proj[k]

    # Bianchi
    for (a, b, c, d) in ((0, 1, 2, 3), (0, 1, 2, 0), (1, 2, 3, 1)):
        assert comp(a, b, c, d) + comp(b, c, a, d) + comp(c, a, b, d) == 0
    # trace
    for b in range(dim):
        for d in range(dim):
            assert sum(comp(a, b, a, d) for a in range(dim)) == 0
    # projection is idempotent
    _, proj2 = sp.project_coords(proj)
    assert proj2 == proj
