import random
from functools import lru_cache

import pytest

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly, monomials_up_to_degree
from tractor_symm.tensor import Metric, PairSpace, SymTensor, multisets, nord
from tractor_symm import ckt


@lru_cache(maxsize=None)
def solved_basis(n, p, r):
    metric = Metric.euclidean(n)
    return tuple(ckt.solve(metric, ckt.CKTLabel(p, r)))


@pytest.fixture(scope="session")
def met3():
    return Metric.euclidean(3)


@pytest.fixture(scope="session")
def ckvs3():
    return solved_basis(3, 1, 0)


@pytest.fixture(scope="session")
def named_ckvs(ckvs3):
    """Translation e1, e2 and the dilation field, picked out of the basis."""
    n = 3
    e1 = e2 = dil = None
    for phi in ckvs3:
        c = phi.comps
        if list(c.keys()) == [(0,)] and c[(0,)] == Poly.const(n, 1):
            e1 = phi
        if list(c.keys()) == [(1,)] and c[(1,)] == Poly.const(n, 1):
            e2 = phi
        if set(c.keys()) == {(0,), (1,), (2,)} and all(
                c[(a,)] == Poly.var(n, a) for a in range(n)):
            dil = phi
    assert e1 is not None and e2 is not None and dil is not None
    return e1, e2, dil


def random_poly(n, degree, rng, span=4):
    return Poly(n, {e: Q(rng.randint(-span, span))
                    for e in monomials_up_to_degree(n, degree)})


@pytest.fixture
def rng():
    return random.Random(7)


# index-form oracles for the symbol calculus, apart from it


def trace(t):
    """Contract two symmetric slots with the inverse metric."""
    metric = t.metric
    if t.rank < 2:
        raise ValueError(f"trace of a rank-{t.rank} tensor")
    comps = {}
    for m in multisets(metric.n, t.rank - 2):
        total = Poly.zero(metric.n)
        for a in range(metric.n):
            total = total + t.get(m + (a, a)).scale(metric.eps[a])
        comps[m] = total
    return SymTensor(metric, t.rank - 2, comps, weight=t.weight)


def g_odot(t):
    """Symmetrized product g . t (rank goes up by two).

    Of the nord(m) orderings of m, nord(m - {a, a}) start with the pair
    (a, a); only those see a nonzero metric entry.
    """
    metric = t.metric
    comps = {}
    for m in multisets(metric.n, t.rank + 2):
        total = Poly.zero(metric.n)
        for a in sorted(set(m)):
            if m.count(a) < 2:
                continue
            rest = list(m)
            rest.remove(a)
            rest.remove(a)
            rest = tuple(rest)
            total = total + t.get(rest).scale(metric.eps[a] * nord(rest))
        comps[m] = total.scale(Q(1, nord(m)))
    return SymTensor(metric, t.rank + 2, comps, weight=t.weight)


# dense forms of the tractor metric, its Lambda^2 pairing and the
# Kulkarni-Nomizu product, from their definitions: oracles for the
# signed involutions of tractor_symm.tensor


def dense_h(sig):
    """h_AB of signature sig: h_{0,n+1} = h_{n+1,0} = 1 and
    h_{a+1,a+1} = eps_a, zero elsewhere."""
    metric = Metric(*sig)
    N = metric.n + 2
    h = [[Q(0)] * N for _ in range(N)]
    h[0][N - 1] = h[N - 1][0] = Q(1)
    for a, e in enumerate(metric.eps):
        h[a + 1][a + 1] = e
    return h


def kulkarni_nomizu_dense(A, B):
    """(A o B)_abcd = A_ac B_bd + A_bd B_ac - A_ad B_bc - A_bc B_ad on the
    two-forms (a,b), (c,d) of PairSpace(len(A))."""
    pairs = PairSpace(len(A)).pairs
    return [[A[a][c] * B[b][d] + A[b][d] * B[a][c]
             - A[a][d] * B[b][c] - A[b][c] * B[a][d]
             for (c, d) in pairs] for (a, b) in pairs]


def dense_W(h):
    """The full-index Lambda^2 pairing W_pq = 2 (h_ac h_bd - h_ad h_bc)
    of the unit two-forms p = (a,b), q = (c,d) of PairSpace(len(h))."""
    pairs = PairSpace(len(h)).pairs
    return [[2 * (h[a][c] * h[b][d] - h[a][d] * h[b][c])
             for (c, d) in pairs] for (a, b) in pairs]
