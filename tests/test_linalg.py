import random

import pytest
from hypothesis import given, settings, strategies as st

from tractor_symm.scalars import Q
from tractor_symm import linalg
from tractor_symm.linalg import ExactMatrix


def _dot(row, v):
    """Row times a dense vector or a sparse {column: value} one."""
    if isinstance(v, list):
        v = dict(enumerate(v))
    return sum((c * v.get(j, 0) for j, c in row.items()), Q(0))


def test_det_small():
    assert linalg.det([[Q(1), Q(2)], [Q(3), Q(4)]]) == -2
    assert linalg.det([[Q(2)]]) == 2


def test_solve_and_kernel():
    A = [{0: Q(1, 2), 1: Q(1)}, {0: Q(1), 1: Q(2)}]
    ker = linalg.kernel(A, 2)
    assert len(ker) == 1
    assert ker == [{0: Q(-2), 1: Q(1)}]
    assert linalg.rank(A) == 1
    # no rows: the unit basis, one sparse vector per free column
    assert linalg.kernel([], 2) == [{0: 1}, {1: 1}]
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
        assert all(v.values())  # sparse: no stored zeros
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
