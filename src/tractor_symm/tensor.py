"""Symmetric tensors, the covector-symbol calculus and the Weyl part.

Tensors live over a flat diagonal metric of signature (s, s').  A rank-p
symmetric tensor S is held as the degree-p polynomial sigma(S) =
S(xi, .., xi) = sum_m nord(m) S_m(x) xi^m in covector variables xi: a
*symbol*, one Poly in the 2n variables (x_1..x_n, xi_1..xi_n), x first.
Its components S_m on sorted index multisets m are a read-only view of
the symbol (``SymTensor.comps``).  The symbol sum_alpha c_alpha(x) xi^alpha
of a differential operator (``diffop``) is the same Poly.  Under sigma the
trace is the xi-Laplacian Delta_xi = sum eps_a d^2/dxi_a^2 (up to the
factor p(p-1)), g . U is multiplication by the quadric Q = sum eps_a
xi_a^2, and the symmetrized gradient is xi . d_x.  The trace
decomposition

    S = S0 + g . U1 + g^2 . U2 + ...   (all pieces trace-free)

is the Fischer decomposition sigma(S) = sum_q Q^q h_q with harmonic h_q,
which has a closed form (Axler-Bourdon-Ramey, Harmonic Function Theory,
ch. 5): ``harmonic_parts`` yields h_0, h_1, .. and solves no linear
system.

The tractor metric h is held as a signed involution A -> (Abar, h_A),
one nonzero per row (``tractor_metric``), and so is the Lambda^2 pairing
W = h o h it induces (``pair_involution``).  Four-index tensors in
Lambda^2 (x) Lambda^2 over the tractor space are pair matrices on
two-forms.  The Kulkarni-Nomizu product X o h builds them from two-index
ones, and the trace-free Young-(2,2) (Weyl) part has the closed form
W = R - Ric o h/(N-2) + s h o h/(2(N-1)(N-2)) of Riemannian geometry,
an orthogonal projection in every signature: no linear system is solved.
"""

from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, lcm
from types import MappingProxyType

from .scalars import Q, ZERO, ONE, qstr
from .poly import Poly, monomials_up_to_degree


class Metric:
    """Flat diagonal metric of signature (s, s'): s pluses then s' minuses."""

    def __init__(self, s, sp):
        if s < 0 or sp < 0 or s + sp < 1:
            raise ValueError(f"signature ({s}, {sp}) needs non-negative "
                             "entries and dimension >= 1")
        self.s = s
        self.sp = sp
        self.n = s + sp
        self.eps = tuple([ONE] * s + [-ONE] * sp)

    @classmethod
    def euclidean(cls, n):
        return cls(n, 0)

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
    """Totally symmetric tensor with polynomial components, held as its
    symbol.

    ``sym`` is sigma(S) = sum_m nord(m) S_m(x) xi^m, one Poly in (x, xi)
    of degree ``rank`` in xi, with lower indices.  The components S_m on
    sorted index multisets m are a read-only view of it (``comps``,
    ``get``).  ``weight`` records the conformal weight of the section it
    represents; it is bookkeeping only and does not affect the algebra.
    """

    def __init__(self, metric, rank, comps=None, weight=0):
        """The tensor with components ``comps``, a dict from index tuples
        (in any order) to Polys in x or scalars; for a repeated multiset
        the last value wins."""
        n = metric.n
        by_m = {tuple(sorted(m)): p if isinstance(p, Poly)
                else Poly.const(n, p) for m, p in (comps or {}).items()}
        den = lcm(*(p.den for p in by_m.values()))
        nums = {}
        for m, p in by_m.items():
            em, k = exponent(m, n), nord(m) * (den // p.den)
            for e, c in p.nums.items():
                nums[e + em] = c * k
        self.metric = metric
        self.rank = rank
        self.weight = Q(weight)
        self.sym = Poly.wrap(2 * n, nums, den)

    @classmethod
    def wrap(cls, metric, rank, sym, weight=0):
        """The rank-``rank`` tensor whose symbol is ``sym``, not copied."""
        t = cls(metric, rank, weight=weight)
        t.sym = sym
        return t

    @classmethod
    def zero(cls, metric, rank, weight=0):
        return cls(metric, rank, weight=weight)

    @property
    def comps(self):
        """Read-only {sorted multiset m: S_m}: the xi^m part of the
        symbol over nord(m), without zero components."""
        n, den = self.metric.n, self.sym.den
        by_xi = {}
        for e, c in self.sym.nums.items():
            by_xi.setdefault(e[n:], {})[e[:n]] = c
        out = {}
        for ex, nums in by_xi.items():
            m = multiset(ex)
            out[m] = Poly.wrap(n, nums, den * nord(m))
        return MappingProxyType(out)

    def get(self, idx):
        return self.comps.get(tuple(sorted(idx)), Poly.zero(self.metric.n))

    def is_zero(self):
        return self.sym.is_zero()

    def __add__(self, other):
        if self.rank != other.rank:
            raise ValueError(f"adding a rank-{other.rank} tensor to a "
                             f"rank-{self.rank} one")
        return SymTensor.wrap(self.metric, self.rank, self.sym + other.sym,
                              weight=self.weight)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return SymTensor.wrap(self.metric, self.rank, self.sym.scale(c),
                              weight=self.weight)

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (self.metric == other.metric and self.rank == other.rank
                and self.sym == other.sym)

    def __repr__(self):
        body = ", ".join(f"{m}: {p}" for m, p in sorted(self.comps.items()))
        return f"SymTensor(rank={self.rank}, {{{body}}})"


def comps_to_json(comps):
    """JSON form of a component dict (index tuple -> Poly), sorted:
    [[index, [[exponent, "p/q"], ..]], ..]."""
    return [[list(i), [[list(e), qstr(c)] for e, c in sorted(p.terms.items())]]
            for i, p in sorted(comps.items())]


# ----------------------------------------------------------------------
# covector symbols: Polys in (x, xi), 2n variables, x first
# ----------------------------------------------------------------------

def xi_raise(P, metric):
    """Raise (equivalently lower) every index: xi^e gets prod eps_a^e_a."""
    lo = metric.n + metric.s
    return Poly.wrap(P.nvars, {e: (-c if sum(e[lo:]) % 2 else c)
                               for e, c in P.nums.items()}, P.den)


def _moved(e, i, d):
    """The exponent tuple e with entry i moved by d."""
    return e[:i] + (e[i] + d,) + e[i + 1:]


def _xi_nums(nums, n, images):
    """The linear map sending x^b xi^e to sum_{(f, k) in images(e)}
    k x^b xi^f, for integers k, where e is the exponent from entry n on
    (all of it for n = 0), on a dict of integer numerators; images runs
    once per e."""
    table = {}
    out = {}
    for e, c in nums.items():
        ex, bx = e[n:], e[:n]
        if ex not in table:
            table[ex] = images(ex)
        for f, k in table[ex]:
            key = bx + f
            s = out.get(key)
            if s is None:
                out[key] = c * k
            else:
                s += c * k
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def _xi_map(P, n, images):
    """``_xi_nums`` on a Poly: on its numerators, over its denominator."""
    return Poly.wrap(P.nvars, _xi_nums(P.nums, n, images), P.den)


def _laplacian_images(metric):
    return lambda ex: [(_moved(ex, a, -2), int(metric.eps[a]) * k * (k - 1))
                       for a, k in enumerate(ex) if k >= 2]


def _quadric_images(metric):
    return lambda ex: [(_moved(ex, a, 2), int(metric.eps[a]))
                       for a in range(len(ex))]


def xi_laplacian(P, metric):
    """Delta_xi P = sum_a eps_a d^2 P / dxi_a^2."""
    return _xi_map(P, metric.n, _laplacian_images(metric))


def xi_quadric(P, metric):
    """Q P with the quadric Q = sum_a eps_a xi_a^2."""
    return _xi_map(P, metric.n, _quadric_images(metric))


def xi_reduce(P, metric):
    """P modulo the quadric Q: xi_0^2 is rewritten as
    -eps_0 sum_{a>0} eps_a xi_a^2 until no exponent of xi_0 is >= 2."""
    eps = [int(e) for e in metric.eps]

    def images(ex):
        if ex[0] < 2:
            return [(ex, 1)]
        out = {}
        for a in range(1, len(ex)):
            for f, k in images(_moved(_moved(ex, 0, -2), a, 2)):
                out[f] = out.get(f, 0) - eps[0] * eps[a] * k
        return [(f, k) for f, k in out.items() if k]

    return _xi_map(P, metric.n, images)


def xi_dx(P, n):
    """(xi . d_x) P = sum_a xi_a dP/dx_a."""
    return _xi_map(P, 0, lambda e: [
        (_moved(_moved(e, a, -1), n + a, 1), e[a]) for a in range(n) if e[a]])


def harmonic_norm(n, d, q):
    """N = prod_{i=1..q} 2i (n + 2d + 2i - 2): Delta_xi^q (Q^q h) = N h
    for every harmonic symbol h of xi-degree d in n covector variables."""
    out = 1
    for i in range(1, q + 1):
        out *= 2 * i * (n + 2 * d + 2 * i - 2)
    return out


@lru_cache(maxsize=None)
def _trace_decomp_solver(sig, p):
    """Scalar coefficients of the closed-form trace decomposition at rank p.

    Entry q lists c_j = a_j / N_q for j = 0 .. d//2, d = p - 2q, where

        Harm_d(P) = sum_j a_j Q^j Delta_xi^j P,
        a_0 = 1,  a_j = -a_{j-1} / (2j (n + 2d - 2j - 2)),

    is the harmonic projection of a degree-d symbol and N_q =
    ``harmonic_norm(n, d, q)`` is the factor by which Delta_xi^q (Q^q h)
    exceeds h for harmonic h of degree d.  Then
    sigma(U_q) = Harm_d(Delta_xi^q sigma(S)) / N_q.  Entry q is (u, w):
    the integers u_j = c_j w over w, the lcm of the denominators of the
    c_j.  (perfbench reads this function's cache_info under this name.)
    """
    n = sum(sig)
    table = []
    for q in range(p // 2 + 1):
        d = p - 2 * q
        a = [Q(1, harmonic_norm(n, d, q))]
        for j in range(1, d // 2 + 1):
            a.append(-a[-1] / (2 * j * (n + 2 * d - 2 * j - 2)))
        w = lcm(*(c.denominator for c in a))
        table.append(([c.numerator * (w // c.denominator) for c in a], w))
    return table


def harmonic_parts(P, metric, p):
    """sigma(S0), sigma(U1), .. of S = S0 + g.U1 + g^2.U2 + .., one at a
    time, for the degree-p symbol P = sigma(S): the harmonic parts of the
    Fischer decomposition.  Part q is sum_j c_j Q^j Delta_xi^(q+j) P, by
    Horner's rule in Q.  The parts commute with raising indices.  The
    Laplacian chain and Horner's rule run on P's integer numerators, with
    c_j = u_j / w, so part q is over P.den * w."""
    n = metric.n
    lap, quad = _laplacian_images(metric), _quadric_images(metric)
    chain = [P.nums]
    for _ in range(p // 2):
        chain.append(_xi_nums(chain[-1], n, lap))
    for q, (u, w) in enumerate(_trace_decomp_solver(metric.key(), p)):
        acc = {e: c * u[-1] for e, c in chain[-1].items()}
        for k, L in zip(reversed(u[:-1]), reversed(chain[q:-1])):
            acc = _xi_nums(acc, n, quad)
            for e, c in L.items():
                s = acc.get(e, 0) + c * k
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        yield Poly.wrap(P.nvars, acc, P.den * w)


def trace_free(t):
    """Trace-free part of a symmetric tensor."""
    return SymTensor.wrap(t.metric, t.rank,
                          next(harmonic_parts(t.sym, t.metric, t.rank)),
                          weight=t.weight)


def random_tracefree(metric, rank, degree, rng, weight=0):
    """Random trace-free symmetric tensor with polynomial entries."""
    comps = {m: Poly(metric.n, {
                 e: Q(rng.randint(-9, 9))
                 for e in monomials_up_to_degree(metric.n, degree)})
             for m in multisets(metric.n, rank)}
    return trace_free(SymTensor(metric, rank, comps, weight=weight))


# ----------------------------------------------------------------------
# Sym^2(Lambda^2): the Kulkarni-Nomizu product and the Weyl part
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def tractor_metric(sig):
    """The tractor metric h of signature ``sig`` as a signed involution.

    h pairs the top index 0 with the bottom index n+1 and is g on the
    middle block 1..n, so each of its rows has one nonzero: entry A is
    (Abar, h_A), with h_AB = h_A when B = Abar and 0 otherwise.  As a
    matrix h is its own inverse, so the same tuple gives h^AB.  Any
    diagonal +-1 metric is a signed involution too: entry a is (a, eps_a).
    """
    s, sp = sig
    n = s + sp
    return (((n + 1, 1),) + tuple((a + 1, 1 if a < s else -1)
                                  for a in range(n)) + ((0, 1),))


class PairSpace:
    """Index bookkeeping for two-form pairs over a dimension-N space."""

    def __init__(self, dim):
        self.dim = dim
        self.pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
        self.index = {p: i for i, p in enumerate(self.pairs)}
        # coordinates on Sym^2(Lambda^2): unordered pairs of pair indices
        P = len(self.pairs)
        self.coords = [(i, j) for i in range(P) for j in range(i, P)]
        self.coord_index = {c: k for k, c in enumerate(self.coords)}

    def npairs(self):
        return len(self.pairs)

    def sign_index(self, a, b):
        """(pair index, sign) for an arbitrary ordered pair; None if a == b."""
        if a == b:
            return None
        if a < b:
            return self.index[(a, b)], 1
        return self.index[(b, a)], -1

    def coord_of(self, a, b, c, d):
        """(Sym^2(Lambda^2) coordinate, sign) of G_{abcd}; None if it
        vanishes by skewness."""
        s1 = self.sign_index(a, b)
        s2 = self.sign_index(c, d)
        if s1 is None or s2 is None:
            return None
        (i, sa), (j, sb) = s1, s2
        if i > j:
            i, j = j, i
        return self.coord_index[(i, j)], sa * sb


@lru_cache(maxsize=None)
def pair_involution(h):
    """The full-index Lambda^2 pairing W = h o h of a signed involution h,
    as a signed involution on the two-forms of ``PairSpace(len(h))``:
    W_pq = 2 (h_ac h_bd - h_ad h_bc) on p = (a,b), q = (c,d) has one
    nonzero per row, at q = (abar, bbar) up to orientation, where it is
    2 h_a h_b times the orientation sign."""
    ps = PairSpace(len(h))
    out = []
    for a, b in ps.pairs:
        (ab, ha), (bb, hb) = h[a], h[b]
        q, s = ps.sign_index(ab, bb)
        out.append((q, 2 * ha * hb * s))
    return tuple(out)


def kulkarni_nomizu(ps, X, h):
    """Pair matrix of the Kulkarni-Nomizu product X o h of an N x N
    matrix X (scalar or Poly entries) with a signed involution h,

        (X o h)_abcd = X_ac h_bd + X_bd h_ac - X_ad h_bc - X_bc h_ad,

    on the two-forms (a,b), (c,d) of ``ps``.  Row (a,b) is nonzero only
    on the two-forms holding abar or bbar: X_ax h_b on (x, bbar) and
    X_bx h_a on (abar, x), each up to orientation."""
    zero = X[0][0] * 0
    out = [[zero] * len(ps.pairs) for _ in ps.pairs]
    for row, (a, b) in zip(out, ps.pairs):
        (ab, ha), (bb, hb) = h[a], h[b]
        for x in range(ps.dim):
            for r, v, hv in ((ps.sign_index(x, bb), X[a][x], hb),
                             (ps.sign_index(ab, x), X[b][x], ha)):
                if r is not None:
                    row[r[0]] = row[r[0]] + v * (hv * r[1])
    return out


def ricci(ps, h, R):
    """Ric_bd = h^ac R_abcd of a pair matrix R (any element of
    Lambda^2 (x) Lambda^2) under the signed involution h, as an N x N
    matrix."""
    N = ps.dim
    zero = R[0][0] * 0
    ric = [[zero] * N for _ in range(N)]
    for a, (c, ha) in enumerate(h):
        for b in range(N):
            if b == a:
                continue
            i, s1 = ps.sign_index(a, b)
            for d in range(N):
                if d != c:
                    j, s2 = ps.sign_index(c, d)
                    ric[b][d] = ric[b][d] + R[i][j] * (ha * s1 * s2)
    return ric


def weyl_part(ps, h, T):
    """Trace-free Young-(2,2) part of the pair-symmetrization of T.

    T is a pair matrix over ``ps`` (scalar or Poly entries) and h a
    signed involution (``tractor_metric``, or a diagonal +-1 metric),
    which both traces and pairs.  With
    S = (T + T^t)/2, R = S - S_[abcd] (S_[abcd] = (S_abcd + S_acdb +
    S_adbc)/3) and Ric, s = h^bd Ric_bd its traces,

        W = R - Ric o h / (N-2) + s h o h / (2 (N-1) (N-2)).

    Lambda^4, the h o X and the Weyl tensors are mutually orthogonal
    under the pairing induced by h, in every signature and for N >= 3, so
    W is the orthogonal projection of T onto the (2,2) module.
    """
    N = ps.dim
    P = len(ps.pairs)
    half, third = Q(1, 2), Q(1, 3)
    S = [[(T[i][j] + T[j][i]) * half for j in range(P)] for i in range(P)]

    def get(a, b, c, d):
        (i, s1), (j, s2) = ps.sign_index(a, b), ps.sign_index(c, d)
        return S[i][j] * (s1 * s2)

    R = [row[:] for row in S]
    for i, (a, b) in enumerate(ps.pairs):
        for j, (c, d) in enumerate(ps.pairs):
            if len({a, b, c, d}) == 4:
                R[i][j] = R[i][j] - (S[i][j] + get(a, c, d, b)
                                     + get(a, d, b, c)) * third
    ric = ricci(ps, h, R)
    s = sum((ric[b][d] * hb for b, (d, hb) in enumerate(h)), R[0][0] * 0)
    K = kulkarni_nomizu(ps, ric, h)
    c1, c2 = Q(1, N - 2), Q(1, 2 * (N - 1) * (N - 2))
    W = [[R[i][j] - K[i][j] * c1 for j in range(P)] for i in range(P)]
    for row, (j, w) in zip(W, pair_involution(h)):
        row[j] = row[j] + s * (w * c2)
    return W
