"""Symmetric tensors, the covector-symbol calculus and the (2,2) projector.

Tensors live over a flat diagonal metric of signature (s, s').  Symmetric
tensors are stored on sorted index multisets.  A rank-p symmetric tensor
S is also the degree-p polynomial sigma(S) = S(xi, .., xi) in covector
variables xi: a *symbol*, stored as a dict mapping exponent tuples of xi
to Poly coefficients in the base variables.  The raw form of a
differential operator (``diffop``) is the same dict.  Under sigma the
trace is the xi-Laplacian Delta_xi = sum eps_a d^2/dxi_a^2 (up to the
factor p(p-1)), g . U is multiplication by the quadric Q = sum eps_a
xi_a^2, and the symmetrized gradient is xi . d_x.  The trace
decomposition

    S = S0 + g . U1 + g^2 . U2 + ...   (all pieces trace-free)

is the Fischer decomposition sigma(S) = sum_q Q^q h_q with harmonic h_q,
which has a closed form (Axler-Bourdon-Ramey, Harmonic Function Theory,
ch. 5): no linear system is solved.

The (2,2) trace-free projector works for an arbitrary symmetric metric
matrix (it is reused for the tractor metric h): four-index tensors are
compressed to coordinates on Sym^2(Lambda^2), the admissible subspace is
cut out by the first-Bianchi and trace constraints, and projection is
orthogonal with respect to the metric-induced pairing.
"""

from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

from .scalars import Q, ZERO, ONE
from . import linalg
from .poly import Poly


class Metric:
    """Flat diagonal metric of signature (s, s'): s pluses then s' minuses."""

    def __init__(self, s, sp):
        assert s >= 0 and sp >= 0 and s + sp >= 1
        self.s = s
        self.sp = sp
        self.n = s + sp
        self.eps = tuple([ONE] * s + [-ONE] * sp)

    @classmethod
    def euclidean(cls, n):
        return cls(n, 0)

    @property
    def signature(self):
        return (self.s, self.sp)

    def g(self, a, b):
        return self.eps[a] if a == b else ZERO

    def key(self):
        return (self.s, self.sp)

    def __eq__(self, other):
        return isinstance(other, Metric) and self.key() == other.key()

    def __repr__(self):
        return f"Metric(signature=({self.s},{self.sp}))"


def multisets(n, p):
    """Sorted index multisets of size p over range(n)."""
    return list(combinations_with_replacement(range(n), p))


@lru_cache(maxsize=None)
def nord(m):
    """Number of distinct orderings of an index multiset: |m|! / prod mult!."""
    out = factorial(len(m))
    for a in set(m):
        out //= factorial(m.count(a))
    return out


def exponent(m, n):
    """Exponent tuple over range(n) of an index multiset."""
    e = [0] * n
    for a in m:
        e[a] += 1
    return tuple(e)


def multiset(e):
    """Sorted index multiset of an exponent tuple."""
    return tuple(a for a, k in enumerate(e) for _ in range(k))


class SymTensor:
    """Totally symmetric tensor with polynomial components.

    Components are indexed by sorted multisets of base indices (lower
    indices).  ``weight`` records the conformal weight of the section it
    represents; it is bookkeeping only and does not affect the algebra.
    """

    def __init__(self, metric, rank, comps=None, weight=0):
        self.metric = metric
        self.rank = rank
        self.weight = Q(weight)
        self.comps = {}
        if comps:
            for m, p in comps.items():
                m = tuple(sorted(m))
                if isinstance(p, Poly):
                    if not p.is_zero():
                        self.comps[m] = p
                else:
                    p = Poly.const(metric.n, p)
                    if not p.is_zero():
                        self.comps[m] = p

    @classmethod
    def zero(cls, metric, rank, weight=0):
        return cls(metric, rank, weight=weight)

    def get(self, idx):
        key = tuple(sorted(idx))
        return self.comps.get(key, Poly.zero(self.metric.n))

    def set(self, idx, p):
        key = tuple(sorted(idx))
        if isinstance(p, Poly) and not p.is_zero():
            self.comps[key] = p
        else:
            self.comps.pop(key, None)

    def add_to(self, idx, p):
        key = tuple(sorted(idx))
        cur = self.comps.get(key)
        s = p if cur is None else cur + p
        if s.is_zero():
            self.comps.pop(key, None)
        else:
            self.comps[key] = s

    def is_zero(self):
        return all(p.is_zero() for p in self.comps.values())

    def __add__(self, other):
        assert self.rank == other.rank
        out = SymTensor(self.metric, self.rank, weight=self.weight)
        out.comps = dict(self.comps)
        for m, p in other.comps.items():
            out.add_to(m, p)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = SymTensor(self.metric, self.rank, weight=self.weight)
        for m, p in self.comps.items():
            q = p.scale(c)
            if not q.is_zero():
                out.comps[m] = q
        return out

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        if self.rank != other.rank:
            return False
        keys = set(self.comps) | set(other.comps)
        return all(self.get(k) == other.get(k) for k in keys)

    def max_degree(self):
        return max((p.degree() for p in self.comps.values()), default=-1)

    def __repr__(self):
        body = ", ".join(f"{m}: {p}" for m, p in sorted(self.comps.items()))
        return f"SymTensor(rank={self.rank}, {{{body}}})"


def sym_part(dense, rank, metric, weight=0):
    """Symmetrize a dense tensor (dict full-index-tuple -> Poly)."""
    buckets = {}
    for idx, p in dense.items():
        m = tuple(sorted(idx))
        buckets[m] = buckets[m] + p if m in buckets else p
    out = SymTensor(metric, rank, weight=weight)
    for m, total in buckets.items():
        out.add_to(m, total.scale(Q(1, nord(m))))
    return out


def trace(t, metric=None):
    """Contract two symmetric slots with the inverse metric."""
    metric = metric or t.metric
    assert t.rank >= 2
    out = SymTensor(metric, t.rank - 2, weight=t.weight)
    for m in multisets(metric.n, t.rank - 2):
        total = Poly.zero(metric.n)
        for a in range(metric.n):
            total = total + t.get(m + (a, a)).scale(metric.eps[a])
        if not total.is_zero():
            out.comps[m] = total
    return out


def g_odot(t, metric=None):
    """Symmetrized product g . t (rank goes up by two).

    Of the nord(m) orderings of m, nord(m - {a, a}) start with the pair
    (a, a); only those see a nonzero metric entry.
    """
    metric = metric or t.metric
    out = SymTensor(metric, t.rank + 2, weight=t.weight)
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
        if not total.is_zero():
            out.comps[m] = total.scale(Q(1, nord(m)))
    return out


# ----------------------------------------------------------------------
# covector symbols: dicts exponent tuple -> Poly, zero terms dropped
# ----------------------------------------------------------------------

def xi_add(P, e, c):
    """Add c to the coefficient of xi^e in the symbol P, in place."""
    cur = P.get(e)
    s = c if cur is None else cur + c
    if s.is_zero():
        P.pop(e, None)
    else:
        P[e] = s


def symbol(t):
    """sigma(S) = sum_m nord(m) S_m xi^m, the polynomial S(xi, .., xi)."""
    n = t.metric.n
    return {exponent(m, n): p.scale(nord(m)) for m, p in t.comps.items()}


def from_symbol(P, metric, rank, weight=0):
    """Inverse of symbol(): the rank-``rank`` tensor whose symbol is P."""
    out = SymTensor(metric, rank, weight=weight)
    for e, c in P.items():
        m = multiset(e)
        out.add_to(m, c.scale(Q(1, nord(m))))
    return out


def xi_raise(P, metric):
    """Raise (equivalently lower) every index: xi^e gets prod eps_a^e_a."""
    s = metric.s
    return {e: (c.scale(-1) if sum(e[s:]) % 2 else c) for e, c in P.items()}


def xi_laplacian(P, metric):
    """Delta_xi P = sum_a eps_a d^2 P / dxi_a^2."""
    out = {}
    for e, c in P.items():
        for a, k in enumerate(e):
            if k >= 2:
                xi_add(out, e[:a] + (k - 2,) + e[a + 1:],
                       c.scale(metric.eps[a] * k * (k - 1)))
    return out


def xi_quadric(P, metric):
    """Q P with the quadric Q = sum_a eps_a xi_a^2."""
    out = {}
    for e, c in P.items():
        for a, k in enumerate(e):
            xi_add(out, e[:a] + (k + 2,) + e[a + 1:], c.scale(metric.eps[a]))
    return out


def xi_reduce(P, metric):
    """P modulo the quadric Q: no term keeps an exponent >= 2 in xi_0."""
    out = {}
    work = list(P.items())
    while work:
        e, c = work.pop()
        if e[0] >= 2:
            for a in range(1, metric.n):
                e2 = list(e)
                e2[0] -= 2
                e2[a] += 2
                work.append((tuple(e2),
                             c.scale(-metric.eps[0] * metric.eps[a])))
        else:
            xi_add(out, e, c)
    return out


def xi_dx(P, n):
    """(xi . d_x) P = sum_a xi_a dP/dx_a."""
    out = {}
    for e, c in P.items():
        for a in range(n):
            dc = c.diff(a)
            if not dc.is_zero():
                xi_add(out, e[:a] + (e[a] + 1,) + e[a + 1:], dc)
    return out


@lru_cache(maxsize=None)
def _trace_decomp_solver(sig, p):
    """Scalar coefficients of the closed-form trace decomposition at rank p.

    Entry q lists c_j = a_j / N_q for j = 0 .. d//2, d = p - 2q, where

        Harm_d(P) = sum_j a_j Q^j Delta_xi^j P,
        a_0 = 1,  a_j = -a_{j-1} / (2j (n + 2d - 2j - 2)),

    is the harmonic projection of a degree-d symbol and N_q =
    prod_{i=1..q} 2i (n + 2d + 2i - 2) is the factor by which
    Delta_xi^q (Q^q h) exceeds h for harmonic h of degree d.  Then
    sigma(U_q) = Harm_d(Delta_xi^q sigma(S)) / N_q.  (perfbench reads
    this function's cache_info under this name.)
    """
    n = sum(sig)
    table = []
    for q in range(p // 2 + 1):
        d = p - 2 * q
        norm = ONE
        for i in range(1, q + 1):
            norm *= 2 * i * (n + 2 * d + 2 * i - 2)
        a = [ONE / norm]
        for j in range(1, d // 2 + 1):
            a.append(-a[-1] / (2 * j * (n + 2 * d - 2 * j - 2)))
        table.append(a)
    return table


def _laplacian_chain(t):
    """[sigma(S), Delta_xi sigma(S), .., Delta_xi^(p//2) sigma(S)]."""
    chain = [symbol(t)]
    for _ in range(t.rank // 2):
        chain.append(xi_laplacian(chain[-1], t.metric))
    return chain


def _harmonic(chain, coeffs, metric):
    """sum_j coeffs[j] Q^j chain[j], by Horner's rule in Q."""
    acc = {}
    for c, P in zip(reversed(coeffs), reversed(chain[:len(coeffs)])):
        acc = xi_quadric(acc, metric)
        for e, v in P.items():
            xi_add(acc, e, v.scale(c))
    return acc


def decompose_traces(t):
    """Full decomposition S = S0 + g.U1 + g^2.U2 + ...; returns [S0, U1, ...]."""
    metric = t.metric
    p = t.rank
    if p < 2:
        return [t]
    chain = _laplacian_chain(t)
    table = _trace_decomp_solver(metric.key(), p)
    return [from_symbol(_harmonic(chain[q:], coeffs, metric), metric,
                        p - 2 * q, weight=t.weight)
            for q, coeffs in enumerate(table)]


def trace_free(t):
    """Trace-free part of a symmetric tensor."""
    if t.rank < 2:
        return t
    coeffs = _trace_decomp_solver(t.metric.key(), t.rank)[0]
    return from_symbol(_harmonic(_laplacian_chain(t), coeffs, t.metric),
                       t.metric, t.rank, weight=t.weight)


def random_tracefree(metric, rank, degree, rng, weight=0):
    """Random trace-free symmetric tensor with polynomial entries."""
    t = SymTensor(metric, rank, weight=weight)
    from .poly import monomials_up_to_degree
    for m in multisets(metric.n, rank):
        terms = {e: Q(rng.randint(-9, 9))
                 for e in monomials_up_to_degree(metric.n, degree)}
        t.comps[m] = Poly(metric.n, terms)
    return trace_free(t)


# ----------------------------------------------------------------------
# (2,2) trace-free Young projection
# ----------------------------------------------------------------------

class PairSpace:
    """Index bookkeeping for two-form pairs over a dimension-N space."""

    def __init__(self, dim):
        self.dim = dim
        self.pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
        self.index = {p: i for i, p in enumerate(self.pairs)}

    def npairs(self):
        return len(self.pairs)

    def sign_index(self, a, b):
        """(pair index, sign) for an arbitrary ordered pair; None if a == b."""
        if a == b:
            return None
        if a < b:
            return self.index[(a, b)], 1
        return self.index[(b, a)], -1


class Young22:
    """Projector onto the trace-free (2,2) component of 4-index tensors.

    ``hmat`` is the (symmetric, invertible) metric matrix used both for
    the trace conditions and for the orthogonal projection.  Instances
    are cached via :func:`young22_space`.
    """

    def __init__(self, dim, hmat):
        self.dim = dim
        self.h = [[Q(x) for x in row] for row in hmat]
        self.ps = PairSpace(dim)
        P = self.ps.npairs()
        # coordinates on Sym^2(Lambda^2): unordered pairs of pair indices
        self.coords = [(i, j) for i in range(P) for j in range(i, P)]
        self.coord_index = {c: k for k, c in enumerate(self.coords)}
        self._build_kernel()
        self._build_gram()

    # coordinate c represents the value G_{[AB][CD]} with pair indices i<=j
    def coord_of(self, a, b, c, d):
        """(coord index, sign) of G_{abcd}; None if it vanishes by skewness."""
        s1 = self.ps.sign_index(a, b)
        s2 = self.ps.sign_index(c, d)
        if s1 is None or s2 is None:
            return None
        (i, sa), (j, sb) = s1, s2
        if i > j:
            i, j = j, i
        return self.coord_index[(i, j)], sa * sb

    def _build_kernel(self):
        dim, nc = self.dim, len(self.coords)
        rows = []

        def add_row(entries):
            row = {}
            for (a, b, c, d), coeff in entries:
                r = self.coord_of(a, b, c, d)
                if r is not None:
                    k, s = r
                    row[k] = row.get(k, ZERO) + coeff * s
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append([row.get(k, ZERO) for k in range(nc)])

        # first Bianchi: cyclic sum over the first three slots
        for (a, b, c) in combinations_with_replacement(range(dim), 3):
            if len({a, b, c}) < 3:
                continue
            for d in range(dim):
                add_row([((a, b, c, d), ONE), ((b, c, a, d), ONE),
                         ((c, a, b, d), ONE)])
        # h-trace over slots 0 and 2
        for b in range(dim):
            for d in range(b, dim):
                entries = []
                for a in range(dim):
                    for c in range(dim):
                        hv = self.h[a][c]
                        if hv:
                            entries.append(((a, b, c, d), hv))
                add_row(entries)
        self.kernel_basis = linalg.kernel(rows, nc) if rows else [
            [ONE if j == i else ZERO for j in range(nc)] for i in range(nc)]

    def _pair_metric(self):
        """W[p][q] = full-index Lambda^2 pairing of unit pair coordinates."""
        ps, h = self.ps, self.h
        P = ps.npairs()
        W = [[ZERO] * P for _ in range(P)]
        for i, (a, b) in enumerate(ps.pairs):
            for j, (c, d) in enumerate(ps.pairs):
                W[i][j] = 2 * (h[a][c] * h[b][d] - h[a][d] * h[b][c])
        return W

    def _coord_weights(self):
        """Full-contraction pairing matrix on Sym^2(Lambda^2) coordinates.

        Coordinate (i,j) with i<j stands for both ordered pair-pairs
        (i,j) and (j,i), hence the multiplicity factors.
        """
        if not hasattr(self, "_cw"):
            W = self._pair_metric()
            nc = len(self.coords)
            cw = [[ZERO] * nc for _ in range(nc)]
            for k, (i, j) in enumerate(self.coords):
                mk = 2 if i != j else 1
                for l, (i2, j2) in enumerate(self.coords):
                    ml = 2 if i2 != j2 else 1
                    s = W[i][i2] * W[j][j2] + W[i][j2] * W[j][i2]
                    if s:
                        cw[k][l] = Q(mk * ml, 2) * s
            self._cw = cw
        return self._cw

    def _build_gram(self):
        cw = self._coord_weights()

        def inner(u, v):
            total = ZERO
            for k, uk in enumerate(u):
                if not uk:
                    continue
                rowk = cw[k]
                for l, vl in enumerate(v):
                    if vl and rowk[l]:
                        total += uk * vl * rowk[l]
            return total

        B = self.kernel_basis
        self.gram = [[inner(u, v) for v in B] for u in B]

    def coords_of_tensor(self, get):
        """Sym^2(Lambda^2) coordinate vector of a dense 4-tensor.

        ``get(a,b,c,d)`` returns the tensor entry (any value supporting
        the ring operations).  Projects out the pair-skew and
        pair-exchange-symmetric part.
        """
        vec = []
        quarter = Q(1, 4)
        half = Q(1, 2)
        for (i, j) in self.coords:
            a, b = self.ps.pairs[i]
            c, d = self.ps.pairs[j]
            f1 = (get(a, b, c, d) - get(b, a, c, d)
                  - get(a, b, d, c) + get(b, a, d, c)) * quarter
            f2 = (get(c, d, a, b) - get(d, c, a, b)
                  - get(c, d, b, a) + get(d, c, b, a)) * quarter
            vec.append((f1 + f2) * half)
        return vec

    def pairing_with_basis(self, vec):
        """Inner products <B_i, vec> for each admissible basis vector."""
        cw = self._coord_weights()
        out = []
        for u in self.kernel_basis:
            total = None
            for k, uk in enumerate(u):
                if not uk:
                    continue
                rowk = cw[k]
                for l, v in enumerate(vec):
                    if not rowk[l]:
                        continue
                    if isinstance(v, Poly):
                        if v.is_zero():
                            continue
                        term = v.scale(uk * rowk[l])
                    else:
                        if not v:
                            continue
                        term = uk * rowk[l] * v
                    total = term if total is None else total + term
            out.append(total)
        return out

    def project_coords(self, vec, nvars=None):
        """Orthogonal projection of a coordinate vector onto the (2,2)0 space.

        Components may be Poly (pass nvars) or plain scalars.  Returns
        coefficients in the admissible basis together with the projected
        coordinate vector.
        """
        m = self.pairing_with_basis(vec)
        if nvars is not None:
            zero = Poly.zero(nvars)
            m = [zero if x is None else x for x in m]
            coeffs = _solve_polys(self.gram, m, nvars)
            proj = [Poly.zero(nvars) for _ in self.coords]
            for ci, bvec in zip(coeffs, self.kernel_basis):
                if ci.is_zero():
                    continue
                for k, bk in enumerate(bvec):
                    if bk:
                        proj[k] = proj[k] + ci.scale(bk)
        else:
            m = [ZERO if x is None else Q(x) for x in m]
            coeffs = linalg.solve(self.gram, m)
            proj = [ZERO] * len(self.coords)
            for ci, bvec in zip(coeffs, self.kernel_basis):
                if ci:
                    for k, bk in enumerate(bvec):
                        if bk:
                            proj[k] += ci * bk
        return coeffs, proj


def _solve_polys(A, rhs_polys, nvars):
    """Solve A x = b where b has Poly entries, column by monomial."""
    monos = sorted({e for p in rhs_polys for e in p.terms})
    if not monos:
        return [Poly.zero(nvars) for _ in range(len(A[0]) if A else 0)]
    B = [[p.terms.get(e, ZERO) for e in monos] for p in rhs_polys]
    X = linalg.solve(A, B)
    out = []
    for row in X:
        out.append(Poly(nvars, {e: c for e, c in zip(monos, row) if c}))
    return out


_young_cache = {}


def young22_space(dim, hmat):
    key = (dim, tuple(tuple(str(Q(x)) for x in row) for row in hmat))
    if key not in _young_cache:
        _young_cache[key] = Young22(dim, hmat)
    return _young_cache[key]
