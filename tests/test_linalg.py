import random

import pytest
from hypothesis import given, settings, strategies as st

from tractor_symm.scalars import Q
from tractor_symm import linalg
from tractor_symm.linalg import ExactMatrix


def _dot(row, v):
    return sum((c * v[j] for j, c in row.items()), Q(0))


def test_det_small():
    assert linalg.det([[Q(1), Q(2)], [Q(3), Q(4)]]) == -2
    assert linalg.det([[Q(2)]]) == 2


def test_solve_and_kernel():
    A = [{0: Q(1, 2), 1: Q(1)}, {0: Q(1), 1: Q(2)}]
    ker = linalg.kernel(A, 2)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + 2 * v[1] == 0
    assert linalg.rank(A) == 1
    # no rows: the unit basis
    assert linalg.kernel([], 2) == [[1, 0], [0, 1]]
    assert linalg.rank([{}, {}]) == 0


def test_solve_unique():
    A = [{0: Q(2)}, {0: Q(1, 3), 1: Q(3)}]
    x = linalg.solve(A, [Q(4), Q(5)], 2)
    assert x == [Q(2), Q(13, 9)]
    # no solution is reported before a kernel, as ckt.split relies on
    B = [{0: Q(1), 1: Q(1)}, {0: Q(2), 1: Q(2)}]
    with pytest.raises(linalg.InconsistentSystem):
        linalg.solve(B, [Q(1), Q(3)], 2)
    with pytest.raises(linalg.LinAlgError) as err:
        linalg.solve(B, [Q(1), Q(2)], 2)
    assert not isinstance(err.value, linalg.InconsistentSystem)
    # a row with no coefficients but a right-hand side is inconsistent
    with pytest.raises(linalg.InconsistentSystem):
        linalg.solve([{0: Q(1)}, {}], [Q(1), Q(1)], 1)


def test_solve_matrix_rhs():
    A = [{0: Q(1), 1: Q(1)}, {0: Q(1), 1: Q(-1)}, {0: Q(2)}]
    # two right-hand sides, each with one entry per row of A
    X = linalg.solve(A, [[Q(3), Q(1), Q(4)], [Q(1, 2), Q(1, 2), Q(1)]], 2)
    assert X == [[Q(2), Q(1)], [Q(1, 2), Q(0)]]
    # one inconsistent column is enough
    with pytest.raises(linalg.InconsistentSystem):
        linalg.solve(A, [[Q(3), Q(1), Q(4)], [Q(1), Q(1), Q(5)]], 2)


def test_inconsistent():
    A = [{0: Q(1), 1: Q(1)}, {0: Q(1), 1: Q(1)}]
    with pytest.raises(linalg.LinAlgError):
        linalg.solve(A, [Q(1), Q(2)], 2)


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


_entry = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-4, max_value=4, max_denominator=6))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(_entry, min_size=n, max_size=n),
                         max_size=6))))
def test_rank_kernel_dimension(case):
    n, dense = case
    rows = [{j: Q(x) for j, x in enumerate(row) if x} for row in dense]
    r = linalg.rank(rows)
    ker = linalg.kernel(rows, n)
    assert r + len(ker) == n
    assert r <= len(rows)
    for v in ker:
        for row in rows:
            assert _dot(row, v) == 0
    # full column rank: solve recovers a planted solution
    if r == n:
        x = [Q(j + 1, 2) for j in range(n)]
        assert linalg.solve(rows, [_dot(row, x) for row in rows], n) == x


def test_exact_matrix():
    M = ExactMatrix([[Q(1), Q(1)], [Q(0), Q(2)]])
    assert M.det() == 2
    assert M == [[1, 1], [0, 2]]
