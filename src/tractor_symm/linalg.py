"""Exact linear algebra over the rationals.

Every rank, kernel and solve goes through one sparse fraction-free
echelon: a row is a dict from column index to a rational, scaled to
coprime integers, and a row is reduced against the pivot row of its
leading column by integer cross-multiplication.  The systems met here
(the CKT prolongation, the splitting and ``algebra.brute_dim_oracle``)
have a few entries per row, so the work follows the nonzeros.  ``det``
is separate: dense elimination on the small square C-matrices.
"""

from math import gcd, lcm

from .scalars import Q, ZERO, ONE


class LinAlgError(Exception):
    pass


class InconsistentSystem(LinAlgError):
    """Raised by solve() when the system has no solution."""


def _as_rows(mat):
    return [[Q(x) for x in row] for row in mat]


def det(mat):
    rows = _as_rows(mat)
    n = len(rows)
    if n == 0:
        return ONE
    lengths = [len(r) for r in rows]
    if any(m != n for m in lengths):
        raise ValueError(f"determinant needs a square matrix, got {n} rows "
                         f"of lengths {lengths}")
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


def _integral(row):
    """A rational row scaled to coprime integers, zeros dropped."""
    den = lcm(*(x.denominator for x in row.values()))
    return _row_div_gcd({k: x.numerator * (den // x.denominator)
                         for k, x in row.items() if x})


def echelon(rows):
    """Row echelon form of sparse rational rows: {pivot column: row}.

    Each returned row is an integer dict whose smallest column is its
    pivot; every input row lies in their span.
    """
    ech = {}
    for row in rows:
        row = _integral(row)
        while row:
            c = min(row)
            piv = ech.get(c)
            if piv is None:
                ech[c] = row
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
    return ech


def _back_substitute(pivots, x):
    """Fill in the pivot entries of the dict ``x`` so that it solves
    every row of ``pivots``, (column, row) pairs of the echelon taken
    last column first."""
    for c, row in pivots:
        s = ZERO
        for k, a in row.items():
            if k > c and k in x:
                s += a * x[k]
        if s:
            x[c] = -s / Q(row[c])
    return x


def rank(rows):
    return len(echelon(rows))


def kernel(rows, ncols):
    """Basis of the right null space, one sparse {column: value} dict
    per free column f: 1 at f, 0 (absent) at the other free columns."""
    ech = echelon(rows)
    below = []  # the pivots left of f, in column order
    out = []
    for f in range(ncols):
        if f in ech:
            below.append((f, ech[f]))
        else:
            # a pivot right of f solves a row of columns right of it,
            # all zero in this vector, so it is zero too
            out.append(_back_substitute(reversed(below), {f: ONE}))
    return out


def solve(rows, rhs, ncols):
    """The unique solution of A x = b, with b = ``rhs`` (one entry per
    row) taken as a trailing column of the elimination.  Raises
    InconsistentSystem when b has no solution, else LinAlgError when A
    has a nontrivial kernel.  The rows are not modified.
    """
    aug = [{**row, ncols: b} if b else row
           for row, b in zip(rows, rhs, strict=True)]
    ech = echelon(aug)
    if any(c >= ncols for c in ech):
        raise InconsistentSystem("no solution")
    if len(ech) != ncols:
        raise LinAlgError("solution is not unique")
    x = _back_substitute(sorted(ech.items(), reverse=True), {ncols: -ONE})
    return [x.get(c, ZERO) for c in range(ncols)]


class ExactMatrix:
    """Thin exact-rational matrix wrapper used at module boundaries."""

    def __init__(self, rows):
        self.rows = _as_rows(rows)

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            other = other.rows
        return self.rows == _as_rows(other)

    def det(self):
        return det(self.rows)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in r) + "]"
                         for r in self.rows)

    __repr__ = __str__
