import random

import pytest
from hypothesis import given, settings, strategies as st

from tractor_symm.scalars import Q
from tractor_symm import linalg
from tractor_symm.linalg import ExactMatrix


def test_det_small():
    assert linalg.det([[Q(1), Q(2)], [Q(3), Q(4)]]) == -2
    assert linalg.det([[Q(2)]]) == 2


def test_solve_and_kernel():
    A = [[Q(1), Q(2)], [Q(2), Q(4)]]
    ker = linalg.kernel(A, 2)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + 2 * v[1] == 0
    assert linalg.rank(A) == 1


def test_solve_unique():
    A = [[Q(2), Q(0)], [Q(1), Q(3)]]
    x = linalg.solve_unique(A, [Q(4), Q(5)])
    assert x == [Q(2), Q(1)]
    # no solution is reported before a kernel, as ckt.split relies on
    B = [[Q(1), Q(1)], [Q(2), Q(2)]]
    with pytest.raises(linalg.InconsistentSystem):
        linalg.solve_unique(B, [Q(1), Q(3)])
    with pytest.raises(linalg.LinAlgError) as err:
        linalg.solve_unique(B, [Q(1), Q(2)])
    assert not isinstance(err.value, linalg.InconsistentSystem)


def test_inconsistent():
    A = [[Q(1), Q(1)], [Q(1), Q(1)]]
    with pytest.raises(linalg.LinAlgError):
        linalg.solve(A, [Q(1), Q(2)])


def _rand_mat(rng, m, n):
    return [[Q(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_det_multiplicative(seed, n):
    rng = random.Random(seed)
    A = _rand_mat(rng, n, n)
    B = _rand_mat(rng, n, n)
    C = [[sum((A[i][k] * B[k][j] for k in range(n)), Q(0))
          for j in range(n)] for i in range(n)]
    assert linalg.det(C) == linalg.det(A) * linalg.det(B)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5), st.integers(2, 5))
def test_rank_kernel_dimension(seed, m, n):
    rng = random.Random(seed)
    A = _rand_mat(rng, m, n)
    r = linalg.rank(A)
    ker = linalg.kernel(A, n)
    assert r + len(ker) == n
    for v in ker:
        for row in A:
            assert sum((row[j] * v[j] for j in range(n)), Q(0)) == 0


def test_kernel_sparse_matches_dense():
    rng = random.Random(5)
    A = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(4)]
    rows = [{j: x for j, x in enumerate(row) if x} for row in A]
    dense = linalg.kernel([[Q(x) for x in row] for row in A], 6)
    sparse = linalg.kernel_sparse(rows, 6)
    assert len(dense) == len(sparse)
    for v in sparse:
        for row in A:
            assert sum((Q(row[j]) * v[j] for j in range(6)), Q(0)) == 0


def test_exact_matrix():
    M = ExactMatrix([[Q(1), Q(1)], [Q(0), Q(2)]])
    assert M.det() == 2
