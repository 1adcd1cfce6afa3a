"""Tractor fields and operators on flat pseudo-Euclidean space.

A standard tractor over E^{s,s'} (n = s + s' >= 3) has n + 2 components
split against the flat scale as (alpha; mu^b; tau): index 0 carries the
top (Y) component, 1..n the middle (Z, upper tensor index) block and
n+1 the bottom (X) component.  The tractor metric pairs top with bottom
and restricts to g on the middle block; as a matrix it is an involution,
so it is its own inverse.

Fields may carry several slots:

    'S' - standard tractor index (dimension n + 2, stored upper),
    'F' - skew pair of tractor indices (stored on ordered pairs A < B),
    'V' - a base covector index (dimension n, stored lower).

Components are exact polynomials in the coordinates.  All the operators
below (tractor-D, the double-D and its square, the fundamental
derivative and the curved Casimir) are exact and reduce weights/slots
exactly as the defining formulas dictate.
"""

from functools import lru_cache

from .scalars import Q, ZERO, ONE
from .poly import Poly
from .tensor import Metric, PairSpace


class SlotKind:
    STD = "S"
    FORM = "F"
    VEC = "V"


@lru_cache(maxsize=None)
def pair_space(n):
    return PairSpace(n + 2)


@lru_cache(maxsize=None)
def _pair_W(sig):
    """Full-contraction pairing matrix for form slots: W[p][q]."""
    metric = Metric(*sig)
    n = metric.n
    ps = pair_space(n)
    h = hmat(metric)
    P = ps.npairs()
    W = [[ZERO] * P for _ in range(P)]
    for i, (a, b) in enumerate(ps.pairs):
        for j, (c, d) in enumerate(ps.pairs):
            v = 2 * (h[a][c] * h[b][d] - h[a][d] * h[b][c])
            W[i][j] = v
    return W


@lru_cache(maxsize=None)
def _hmat_cached(sig):
    metric = Metric(*sig)
    n = metric.n
    h = [[ZERO] * (n + 2) for _ in range(n + 2)]
    h[0][n + 1] = h[n + 1][0] = ONE
    for i in range(n):
        h[i + 1][i + 1] = metric.eps[i]
    return h


def hmat(metric):
    """Tractor metric h_{AB} (equal to its own inverse)."""
    return _hmat_cached(metric.key())


class TractorField:
    """Polynomial section of a weighted tensor-tractor bundle."""

    def __init__(self, metric, weight, slots, comps=None):
        self.metric = metric
        self.weight = Q(weight)
        self.slots = tuple(slots)
        self.comps = {}
        if comps:
            n = metric.n
            for idx, p in comps.items():
                if not isinstance(p, Poly):
                    p = Poly.const(n, p)
                if not p.is_zero():
                    self.comps[tuple(idx)] = p

    @classmethod
    def zero(cls, metric, weight, slots):
        return cls(metric, weight, slots)

    @classmethod
    def density(cls, metric, weight, f):
        return cls(metric, weight, (), {(): f})

    def nvec(self):
        return sum(1 for s in self.slots if s == SlotKind.VEC)

    def get(self, idx):
        return self.comps.get(tuple(idx), Poly.zero(self.metric.n))

    def add_to(self, idx, p):
        idx = tuple(idx)
        cur = self.comps.get(idx)
        s = p if cur is None else cur + p
        if s.is_zero():
            self.comps.pop(idx, None)
        else:
            self.comps[idx] = s

    def is_zero(self):
        return all(p.is_zero() for p in self.comps.values())

    def __add__(self, other):
        assert self.slots == other.slots and self.weight == other.weight
        out = TractorField(self.metric, self.weight, self.slots)
        out.comps = dict(self.comps)
        for idx, p in other.comps.items():
            out.add_to(idx, p)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = TractorField(self.metric, self.weight, self.slots)
        c = Q(c)
        if c:
            out.comps = {i: p.scale(c) for i, p in self.comps.items()}
        return out

    def with_weight(self, w):
        """Same components under a different weight label."""
        out = TractorField(self.metric, w, self.slots)
        for idx, p in self.comps.items():
            out.comps[idx] = p
        return out

    def __eq__(self, other):
        if not isinstance(other, TractorField):
            return NotImplemented
        if self.slots != other.slots or self.weight != other.weight:
            return False
        keys = set(self.comps) | set(other.comps)
        return all(self.get(k) == other.get(k) for k in keys)

    def form_get(self, slot, members, idx):
        """Signed access to a form slot by ordered members (A, B)."""
        ps = pair_space(self.metric.n)
        r = ps.sign_index(*members)
        if r is None:
            return Poly.zero(self.metric.n)
        p, s = r
        idx = list(idx)
        idx[slot] = p
        v = self.comps.get(tuple(idx))
        if v is None:
            return Poly.zero(self.metric.n)
        return v if s == 1 else v.scale(-1)

    def form_add(self, slot, members, idx, p):
        ps = pair_space(self.metric.n)
        r = ps.sign_index(*members)
        if r is None:
            return
        pi, s = r
        idx = list(idx)
        idx[slot] = pi
        self.add_to(idx, p if s == 1 else p.scale(-1))

    def __repr__(self):
        body = ", ".join(f"{i}: {p}" for i, p in sorted(self.comps.items()))
        return (f"TractorField(w={self.weight}, slots={''.join(self.slots)},"
                f" {{{body}}})")


# ----------------------------------------------------------------------
# coupled connection
# ----------------------------------------------------------------------

def _gamma_entries(metric, a):
    """Nonzero entries (A_out, A_in, coeff) of Gamma_a on a standard slot."""
    n = metric.n
    return ((0, a + 1, -metric.eps[a]), (a + 1, n + 1, ONE))


def nabla(t):
    """Coupled flat tractor connection; prepends one 'V' slot."""
    metric = t.metric
    n = metric.n
    ps = pair_space(n)
    out = TractorField(metric, t.weight, (SlotKind.VEC,) + t.slots)
    for a in range(n):
        gam = _gamma_entries(metric, a)
        for idx, p in t.comps.items():
            dp = p.diff(a)
            if not dp.is_zero():
                out.add_to((a,) + idx, dp)
            for s, kind in enumerate(t.slots):
                if kind == SlotKind.STD:
                    A = idx[s]
                    for aout, ain, c in gam:
                        if A == ain:
                            j = list(idx)
                            j[s] = aout
                            out.add_to((a,) + tuple(j), p.scale(c))
                elif kind == SlotKind.FORM:
                    A, B = ps.pairs[idx[s]]
                    for aout, ain, c in gam:
                        if A == ain:
                            tmp = TractorField(metric, t.weight,
                                               (SlotKind.VEC,) + t.slots)
                            tmp.form_add(s + 1, (aout, B), (a,) + idx,
                                         p.scale(c))
                            for k, v in tmp.comps.items():
                                out.add_to(k, v)
                        if B == ain:
                            tmp = TractorField(metric, t.weight,
                                               (SlotKind.VEC,) + t.slots)
                            tmp.form_add(s + 1, (A, aout), (a,) + idx,
                                         p.scale(c))
                            for k, v in tmp.comps.items():
                                out.add_to(k, v)
    return out


def laplacian(t):
    """Coupled Laplacian Delta = g^{ab} nabla_a nabla_b."""
    metric = t.metric
    dd = nabla(nabla(t))
    out = TractorField(metric, t.weight, t.slots)
    for idx, p in dd.comps.items():
        if idx[0] == idx[1]:
            out.add_to(idx[2:], p.scale(metric.eps[idx[0]]))
    return out


def laplacian_power(t, k):
    for _ in range(k):
        t = laplacian(t)
    return t


# ----------------------------------------------------------------------
# tractor operators
# ----------------------------------------------------------------------

def tractor_D(t):
    """Thomas tractor-D operator; prepends an 'S' slot, weight drops by 1."""
    metric = t.metric
    n = metric.n
    w = t.weight
    c = n + 2 * w - 2
    out = TractorField(metric, w - 1, (SlotKind.STD,) + t.slots)
    if c * w:
        for idx, p in t.comps.items():
            out.add_to((0,) + idx, p.scale(c * w))
    if c:
        nt = nabla(t)
        for idx, p in nt.comps.items():
            a = idx[0]
            out.add_to((a + 1,) + idx[1:], p.scale(c * metric.eps[a]))
    lt = laplacian(t)
    for idx, p in lt.comps.items():
        out.add_to((n + 1,) + idx, p.scale(-1))
    return out


def double_D(t):
    """Skew double-D operator; prepends an 'F' slot, weight unchanged."""
    metric = t.metric
    n = metric.n
    ps = pair_space(n)
    w = t.weight - t.nvec()
    out = TractorField(metric, t.weight, (SlotKind.FORM,) + t.slots)
    top = ps.index[(0, n + 1)]
    if w:
        for idx, p in t.comps.items():
            out.add_to((top,) + idx, p.scale(-w))
    nt = nabla(t)
    for idx, p in nt.comps.items():
        a = idx[0]
        pi = ps.index[(a + 1, n + 1)]
        out.add_to((pi,) + idx[1:], p.scale(-metric.eps[a]))
    # rotation part on base covector slots
    vslots = [s for s, k in enumerate(t.slots) if k == SlotKind.VEC]
    for idx, p in t.comps.items():
        for s in vslots:
            c = idx[s]
            for a in range(n):
                if a == c:
                    continue
                j = list(idx)
                j[s] = a
                out.form_add(0, (a + 1, c + 1), (0,) + tuple(j),
                             p.scale(metric.eps[c]))
    return out


def double_D2(t):
    """Symmetric square of double-D; prepends two 'S' slots."""
    metric = t.metric
    n = metric.n
    w = t.weight
    h = hmat(metric)
    dt = tractor_D(t)
    out = TractorField(metric, w, (SlotKind.STD, SlotKind.STD) + t.slots)
    half = Q(1, 2)
    if w:
        for idx, p in t.comps.items():
            for A in range(n + 2):
                for B in range(n + 2):
                    if h[A][B]:
                        out.add_to((A, B) + idx, p.scale(-w * h[A][B]))
    for idx, p in dt.comps.items():
        B = idx[0]
        rest = idx[1:]
        out.add_to((n + 1, B) + rest, p.scale(-half))
        out.add_to((B, n + 1) + rest, p.scale(-half))
    return out


def hsharp(t):
    """Operator-valued H acting by sharp; prepends an 'F' slot.

    Acts on the tractor slots only: (H^{[AB]} # f)^C
    = (h^{CA} f^B - h^{CB} f^A) / 2 on each standard index, extended as a
    derivation to form slots.
    """
    metric = t.metric
    n = metric.n
    ps = pair_space(n)
    h = hmat(metric)
    out = TractorField(metric, t.weight, (SlotKind.FORM,) + t.slots)
    half = Q(1, 2)
    for idx, p in t.comps.items():
        for s, kind in enumerate(t.slots):
            if kind == SlotKind.STD:
                D = idx[s]
                for A in range(n + 2):
                    if A == D:
                        continue
                    for C in range(n + 2):
                        if h[C][A]:
                            j = list(idx)
                            j[s] = C
                            out.form_add(0, (A, D), (0,) + tuple(j),
                                         p.scale(half * h[C][A]))
            elif kind == SlotKind.FORM:
                M0, M1 = ps.pairs[idx[s]]
                for pos, (D, other) in enumerate(((M0, M1), (M1, M0))):
                    for A in range(n + 2):
                        if A == D:
                            continue
                        for C in range(n + 2):
                            if not h[C][A]:
                                continue
                            members = (C, other) if pos == 0 else (other, C)
                            r = ps.sign_index(*members)
                            if r is None:
                                continue
                            pi, sg = r
                            j = list(idx)
                            j[s] = pi
                            out.form_add(0, (A, D), (0,) + tuple(j),
                                         p.scale(half * h[C][A] * sg))
    return out


def fund_D(t):
    """Fundamental derivative; prepends an 'F' slot."""
    return double_D(t) + hsharp(t).scale(2)


def fund_D2(t):
    """Symmetric square of the fundamental derivative (two 'S' slots).

    Computed from its defining property as minus the contracted
    composition of two fundamental derivatives.
    """
    metric = t.metric
    n = metric.n
    h = hmat(metric)
    u = fund_D(fund_D(t))  # slots: [outer F][inner F] + t.slots
    out = TractorField(metric, t.weight,
                       (SlotKind.STD, SlotKind.STD) + t.slots)
    half = Q(1, 2)
    ps = pair_space(n)
    # out^{AB} = -1/2 sum_{C,E} h_{CE} (U^{[CA],[BE]} + U^{[CB],[AE]})
    for idx, p in u.comps.items():
        (C0, C1), (D0, D1) = ps.pairs[idx[0]], ps.pairs[idx[1]]
        rest = idx[2:]
        # expand both stored pairs with signs
        for (C, A, s1) in ((C0, C1, 1), (C1, C0, -1)):
            for (B, E, s2) in ((D0, D1, 1), (D1, D0, -1)):
                he = h[C][E]
                if not he:
                    continue
                v = p.scale(-half * he * s1 * s2)
                out.add_to((A, B) + rest, v)
                out.add_to((B, A) + rest, v)
    return out


def casimir(t):
    """Curved Casimir h^{AB} D^2_{AB} (fundamental derivative squared)."""
    metric = t.metric
    n = metric.n
    h = hmat(metric)
    f2 = fund_D2(t)
    out = TractorField(metric, t.weight, t.slots)
    for idx, p in f2.comps.items():
        hv = h[idx[0]][idx[1]]
        if hv:
            out.add_to(idx[2:], p.scale(hv))
    return out


def x_mult(t):
    """Multiplication by the canonical tractor X; prepends an 'S' slot."""
    metric = t.metric
    n = metric.n
    out = TractorField(metric, t.weight + 1, (SlotKind.STD,) + t.slots)
    for idx, p in t.comps.items():
        out.comps[(n + 1,) + idx] = p
    return out


def permute_slots(t, perm):
    """Reorder slots: output slot i is input slot perm[i]."""
    out = TractorField(t.metric, t.weight, tuple(t.slots[p] for p in perm))
    for idx, p in t.comps.items():
        out.add_to(tuple(idx[q] for q in perm), p)
    return out


def contract(t1, t2):
    """Full contraction of all slots of t1 against the leading slots of t2.

    Slot kinds must match pairwise; standard slots are paired through the
    tractor metric, form slots through the induced full-index pairing and
    covector slots through the inverse base metric.
    """
    metric = t1.metric
    n = metric.n
    k = len(t1.slots)
    assert t2.slots[:k] == t1.slots
    h = hmat(metric)
    W = _pair_W(metric.key())
    out = TractorField(metric, t1.weight + t2.weight, t2.slots[k:])
    for i1, p1 in t1.comps.items():
        for i2, p2 in t2.comps.items():
            c = ONE
            ok = True
            for s, kind in enumerate(t1.slots):
                a, b = i1[s], i2[s]
                if kind == SlotKind.STD:
                    v = h[a][b]
                elif kind == SlotKind.FORM:
                    v = W[a][b]
                else:
                    v = metric.eps[a] if a == b else ZERO
                if not v:
                    ok = False
                    break
                c *= v
            if ok:
                out.add_to(i2[k:], (p1 * p2).scale(c))
    return out


# ----------------------------------------------------------------------
# parallel sections
# ----------------------------------------------------------------------

def parallel_extend(t0):
    """Unique parallel extension of a constant fiber value at the origin.

    The coupled connection is flat with commuting, nilpotent coefficient
    matrices, so the extension is polynomial and the series terminates.
    """
    metric = t0.metric
    n = metric.n
    cur = TractorField(metric, t0.weight, t0.slots, dict(t0.comps))
    total = cur
    k = 0
    while not cur.is_zero():
        k += 1
        nxt = TractorField(metric, t0.weight, t0.slots)
        grad = nabla(cur)
        # nabla(cur) = dcur + Gamma cur; we need -x^a Gamma_a cur / k,
        # and for polynomial cur the derivative part regenerates lower
        # terms, so work directly with the connection action instead:
        conn = grad - _partial_only(cur)
        for idx, p in conn.comps.items():
            # d_a T = -Gamma_a T, so the next Taylor layer is
            # -(1/k) x^a (Gamma_a cur); the direction label a is a
            # coordinate label, no metric factor enters.
            a = idx[0]
            xa = Poly.var(n, a)
            nxt.add_to(idx[1:], (xa * p).scale(Q(-1, k)))
        cur = nxt
        total = total + cur
    return total


def _partial_only(t):
    metric = t.metric
    n = metric.n
    out = TractorField(metric, t.weight, (SlotKind.VEC,) + t.slots)
    for a in range(n):
        for idx, p in t.comps.items():
            dp = p.diff(a)
            if not dp.is_zero():
                out.add_to((a,) + idx, dp)
    return out
