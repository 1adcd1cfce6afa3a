"""Reference computations the benchmark checks the program against.

Everything here is computed apart from the package: polynomials are
plain dicts mapping exponent tuples to ``Fraction``, matrices are lists
of lists, and the closed forms come from the paper's statements, not
from the package's code.  Each check returns ``None`` when the program's
output agrees and a one-line description of the first disagreement
otherwise.
"""

from fractions import Fraction
from math import comb


# ----------------------------------------------------------------------
# polynomials as plain term dicts
# ----------------------------------------------------------------------

def terms(poly):
    """The package's Poly as a plain {exponents: Fraction} dict."""
    return {e: Fraction(c) for e, c in poly.terms.items() if c}


def p_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def p_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
    return out


def laplacian(a, eps):
    """Delta a = sum_i eps_i d_i^2 a for the diagonal metric diag(eps)."""
    out = {}
    for i, s in enumerate(eps):
        out = p_add(out, p_diff(p_diff(a, i), i), s)
    return out


def laplacian_power(a, eps, k):
    for _ in range(k):
        a = laplacian(a, eps)
    return a


def random_poly(nvars, degree, rng, span=4):
    """Dense polynomial of the given degree with seeded integer terms."""
    out = {}
    for e in _exponents(nvars, degree):
        c = rng.randint(-span, span)
        if c:
            out[e] = Fraction(c)
    top = (degree,) + (0,) * (nvars - 1)
    out[top] = Fraction(rng.choice((-span, span)))
    return out


def _exponents(nvars, degree):
    if nvars == 1:
        return [(d,) for d in range(degree + 1)]
    return [(d,) + rest for d in range(degree + 1)
            for rest in _exponents(nvars - 1, degree - d)]


# ----------------------------------------------------------------------
# closed forms and identities
# ----------------------------------------------------------------------

def check_intertwining(S, Sp, eps, k, tests):
    """Delta^k (S f) = S'(Delta^k f) on every test polynomial.

    ``S`` and ``Sp`` map a term dict to a term dict.  At least one test
    must give a nonzero side, so the check cannot pass vacuously.
    """
    nonzero = False
    for f in tests:
        lhs = laplacian_power(S(f), eps, k)
        rhs = Sp(laplacian_power(f, eps, k))
        if lhs != rhs:
            diff = p_add(lhs, rhs, -1)
            e = min(diff)
            return ("Delta^%d S f != S' Delta^%d f at monomial %s: %s vs %s"
                    % (k, k, e, lhs.get(e, 0), rhs.get(e, 0)))
        nonzero = nonzero or bool(lhs)
    if not nonzero:
        return "every test polynomial gave Delta^%d S f = 0" % k
    return None


def first_order_symmetry(V, w):
    """S_V f = V^a d_a f - (w/n) (d_a V^a) f for a conformal Killing field.

    ``V`` lists the raised components V^a as term dicts.
    """
    n = len(V)
    div = {}
    for a in range(n):
        div = p_add(div, p_diff(V[a], a))

    def S(f):
        out = p_mul(div, f)
        out = {e: -Fraction(w) / n * c for e, c in out.items()}
        for a in range(n):
            out = p_add(out, p_mul(V[a], p_diff(f, a)))
        return out
    return S


def check_first_order(S, V, w, tests):
    """The program's first-order symmetry agrees with the closed form."""
    ref = first_order_symmetry(V, w)
    for f in tests:
        got, want = S(f), ref(f)
        if got != want:
            diff = p_add(got, want, -1)
            e = min(diff)
            return ("S_V f differs from V^a d_a f - (w/n)(div V) f at %s: "
                    "%s vs %s" % (e, got.get(e, 0), want.get(e, 0)))
    return None


# ----------------------------------------------------------------------
# C-matrices
# ----------------------------------------------------------------------

def c_entry(k, s):
    """C^s(k) = 2^s C(k, s), zero outside 0 <= s <= k."""
    return Fraction(2 ** s * comb(k, s)) if 0 <= s <= k else Fraction(0)


def c_matrix(k, d):
    m = k - d
    return [[c_entry(k, m + s - t) for t in range(m)] for s in range(m)]


def companion(k, d):
    """The binomial companion with entries C(k, k-d+s-t)."""
    m = k - d
    return [[Fraction(comb(k, m + s - t)) if 0 <= m + s - t <= k else
             Fraction(0) for t in range(m)] for s in range(m)]


def det(rows):
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def check_constraint_matrix(rows, k, r):
    """Constraint matrix for (k, p, r) equals C(k, k-r-1) and is regular."""
    want = c_matrix(k, k - r - 1)
    got = [[Fraction(x) for x in row] for row in rows]
    if got != want:
        for s, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return "constraint matrix row %d is %s, want %s" % (
                    s, [str(x) for x in g], [str(x) for x in w])
        return "constraint matrix has shape %dx%d, want %dx%d" % (
            len(got), len(got[0]) if got else 0, len(want), len(want))
    if det(got) == 0:
        return "C(%d,%d) is singular" % (k, k - r - 1)
    return None


def check_chain_row(k, row):
    """One row of `cmatrix chain --k k` against math.comb determinants."""
    d = row["d"]
    want = {"det": det(c_matrix(k, d)), "det-companion": det(companion(k, d))}
    for key, v in want.items():
        if Fraction(row[key]) != v:
            return "cmatrix chain k=%d d=%d %s is %s, want %s" % (
                k, d, key, row[key], v)
    if row["power-of-two"] != (k - d) ** 2 or want["det"] != \
            2 ** ((k - d) ** 2) * want["det-companion"]:
        return "cmatrix chain k=%d d=%d power of two %s, want %d" % (
            k, d, row["power-of-two"], (k - d) ** 2)
    return None


# ----------------------------------------------------------------------
# solution-space dimensions
# ----------------------------------------------------------------------

def so_dim(N, weight):
    """Weyl dimension of the so(N) irreducible with the given highest weight.

    ``weight`` lists the first coordinates of the highest weight in the
    orthogonal basis; the rest are zero.  For N = 2m+1 the positive
    roots are e_i +- e_j and e_i, with rho_i = m - i - 1/2 (i from 0);
    for N = 2m they are e_i +- e_j with rho_i = m - i - 1.
    """
    m = N // 2
    lam = [Fraction(x) for x in weight] + [Fraction(0)] * (m - len(weight))
    half = Fraction(1, 2) if N % 2 else Fraction(0)
    rho = [m - i - 1 + half for i in range(m)]
    lr = [a + b for a, b in zip(lam, rho)]
    num = den = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            num *= (lr[i] - lr[j]) * (lr[i] + lr[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
        if N % 2:
            num *= lr[i]
            den *= rho[i]
    return num / den


def solution_dim(n, p, r):
    """Dimension of the label-(p, r) solution space on n-dimensional space:
    the so(n+2) irreducible with highest weight (2r+p, p, 0, ...)."""
    return so_dim(n + 2, (2 * r + p, p))


def check_dimension(n, p, r, got):
    want = solution_dim(n, p, r)
    if got != want:
        return "label (%d,%d) on n=%d has %s solutions, want %s" % (
            p, r, n, got, want)
    return None
