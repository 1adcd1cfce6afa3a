"""Exact linear algebra over the rationals.

Dense Gaussian elimination over exact rationals is the workhorse; it is
used for splitting operators and the various projector computations,
all of which involve matrices of a few hundred rows at most.  For the
large sparse prolongation systems there is a fraction-free sparse kernel
routine plus a modular rank certificate that lets us skip exact
elimination when the kernel is provably trivial.
"""

from math import gcd

from .scalars import Q, ZERO, ONE


class LinAlgError(Exception):
    pass


class InconsistentSystem(LinAlgError):
    """Raised by solve() when the system has no solution."""


def _as_rows(mat):
    return [[Q(x) for x in row] for row in mat]


def rref(rows, ncols=None, aug=0):
    """In-place reduced row echelon form.

    The last ``aug`` columns are treated as augmented (never pivoted on).
    Returns the list of pivot column indices.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols - aug):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(mat):
    rows = _as_rows(mat)
    if not rows:
        return 0
    return len(rref(rows))


def det(mat):
    rows = _as_rows(mat)
    n = len(rows)
    if n == 0:
        return ONE
    assert all(len(r) == n for r in rows), "determinant needs a square matrix"
    d = ONE
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def _solve(mat, rhs):
    """One elimination of [A | b]: (particular solution, rank of A, ncols)."""
    rows = _as_rows(mat)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    vec = rhs and not isinstance(rhs[0], (list, tuple))
    brows = [[Q(x)] for x in rhs] if vec else _as_rows(rhs)
    nb = len(brows[0]) if brows else 0
    aug = [rows[i] + brows[i] for i in range(nrows)]
    pivots = rref(aug, ncols + nb, aug=nb)
    r = len(pivots)
    for i in range(r, nrows):
        if any(aug[i][ncols:]):
            raise InconsistentSystem("no solution")
    if vec:
        x = [ZERO] * ncols
        for i, c in enumerate(pivots):
            x[c] = aug[i][ncols]
        return x, r, ncols
    X = [[ZERO] * nb for _ in range(ncols)]
    for i, c in enumerate(pivots):
        X[c] = aug[i][ncols:]
    return X, r, ncols


def solve(mat, rhs):
    """Solve A x = b exactly.

    ``rhs`` may be a vector or a matrix (list of rows, one per row of A).
    Returns a particular solution (free variables set to zero).  Raises
    InconsistentSystem when no solution exists.
    """
    return _solve(mat, rhs)[0]


def solve_unique(mat, rhs):
    """Like solve() but additionally requires full column rank.

    Raises InconsistentSystem when no solution exists, else LinAlgError
    when A has a nontrivial kernel; both from the one elimination.
    """
    x, r, ncols = _solve(mat, rhs)
    if r != ncols:
        raise LinAlgError("solution is not unique")
    return x


def kernel(mat, ncols=None):
    """Basis of the right null space, as a list of Q-vectors."""
    rows = _as_rows(mat)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return [[ONE if j == i else ZERO for j in range(ncols)]
                for i in range(ncols)]
    pivots = rref(rows, ncols)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        basis.append(v)
    return basis


# -- sparse fraction-free elimination -----------------------------------

def _row_div_gcd(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def kernel_sparse(rows, ncols):
    """Kernel basis for a sparse integer matrix.

    ``rows`` is a list of dicts mapping column index to a nonzero int.
    Elimination is fraction-free (integer cross-multiplication with gcd
    reduction); back substitution produces exact rational vectors.
    """
    rows = [_row_div_gcd(dict(r)) for r in rows if r]
    # col -> eliminated row with pivot at col
    echelon = {}
    for row in rows:
        while row:
            c = min(row)
            piv = echelon.get(c)
            if piv is None:
                echelon[c] = _row_div_gcd(row)
                break
            a, b = piv[c], row[c]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            new = {}
            for k in set(row) | set(piv):
                v = row.get(k, 0) * fa - piv.get(k, 0) * fb
                if v:
                    new[k] = v
            row = _row_div_gcd(new)
    pivcols = sorted(echelon, reverse=True)
    pivset = set(pivcols)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = {f: ONE}
        for c in pivcols:
            if c > f:
                continue
            row = echelon[c]
            s = ZERO
            for k, a in row.items():
                if k > c and k in v:
                    s += a * v[k]
            if s:
                v[c] = -s / Q(row[c])
        basis.append([v.get(j, ZERO) for j in range(ncols)])
    return basis


_MOD_PRIMES = (2147483629, 2147483587)


def has_full_column_rank_mod(rows, ncols, prime=_MOD_PRIMES[0]):
    """Certify full column rank of a sparse integer matrix modulo a prime.

    Full rank mod p implies full rank over Q (the converse can fail, so a
    negative answer is only a hint to fall back to exact elimination).
    """
    echelon = {}
    nfound = 0
    for row in rows:
        row = {k: v % prime for k, v in row.items() if v % prime}
        while row:
            c = min(row)
            piv = echelon.get(c)
            if piv is None:
                inv = pow(row[c], prime - 2, prime)
                echelon[c] = {k: (v * inv) % prime for k, v in row.items()}
                nfound += 1
                if nfound == ncols:
                    return True
                break
            f = row[c]
            new = {}
            for k in set(row) | set(piv):
                v = (row.get(k, 0) - f * piv.get(k, 0)) % prime
                if v:
                    new[k] = v
            row = new
    return nfound == ncols


class ExactMatrix:
    """Thin exact-rational matrix wrapper used at module boundaries."""

    def __init__(self, rows):
        self.rows = _as_rows(rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        assert all(len(r) == self.ncols for r in self.rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            other = other.rows
        return self.rows == _as_rows(other)

    def __matmul__(self, other):
        orows = other.rows if isinstance(other, ExactMatrix) else _as_rows(other)
        out = [[sum((a * b for a, b in zip(row, col)), ZERO)
                for col in zip(*orows)] for row in self.rows]
        return ExactMatrix(out)

    def rank(self):
        return rank(self.rows)

    def det(self):
        return det(self.rows)

    def solve(self, rhs):
        return solve(self.rows, rhs)

    def kernel(self):
        return kernel(self.rows, self.ncols)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in r) + "]"
                         for r in self.rows)

    __repr__ = __str__
