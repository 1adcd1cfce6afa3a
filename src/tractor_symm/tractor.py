"""Tractor fields and operators on flat pseudo-Euclidean space.

A standard tractor over E^{s,s'} (n = s + s' >= 3) has n + 2 components
split against the flat scale as (alpha; mu^b; tau): index 0 carries the
top (Y) component, 1..n the middle (Z, upper tensor index) block and
n+1 the bottom (X) component.  The tractor metric pairs top with bottom
and restricts to g on the middle block, so each row has one nonzero and
h is its own inverse.  It is held as the signed involution
A -> (Abar, h_A) of ``tensor.tractor_metric``, and the pairing it
induces on form slots as ``tensor.pair_involution``.

Fields may carry several slots:

    'S' - standard tractor index (dimension n + 2, stored upper),
    'F' - skew pair of tractor indices (stored on ordered pairs A < B),
    'V' - a base covector index (dimension n, stored lower).

Components are exact polynomials in the coordinates, or in (x, xi): such
a component p stands for p e^{xi.x}, and ``nabla``, through which every
operator below differentiates, takes d_a as d_a + xi_a on it.  So an
operator run on the plane wave e^{xi.x} gives its full symbol.  All the
operators below (tractor-D, the double-D and its square, the fundamental
derivative and the curved Casimir) are exact and reduce weights/slots
exactly as the defining formulas dictate.
"""

from functools import lru_cache

from .scalars import Q, ONE
from .poly import Poly
from .tensor import PairSpace, tractor_metric, pair_involution


class SlotKind:
    STD = "S"
    FORM = "F"
    VEC = "V"


@lru_cache(maxsize=None)
def pair_space(n):
    return PairSpace(n + 2)


class TractorField:
    """Polynomial section of a weighted tensor-tractor bundle."""

    def __init__(self, metric, weight, slots, comps=None, nvars=None):
        """``nvars`` is the number of variables of the components, taken
        from ``comps`` when not given: n, or 2n on a plane wave.  A field
        built by an operator keeps its input's, also when it is zero."""
        self.metric = metric
        self.weight = Q(weight)
        self.slots = tuple(slots)
        self.comps = {}
        comps = comps or {}
        if nvars is None:
            nvars = next((p.nvars for p in comps.values()
                          if isinstance(p, Poly)), metric.n)
        self._nvars = nvars
        for idx, p in comps.items():
            if not isinstance(p, Poly):
                p = Poly.const(nvars, p)
            if not p.is_zero():
                self.comps[tuple(idx)] = p

    @classmethod
    def density(cls, metric, weight, f):
        return cls(metric, weight, (), {(): f})

    def nvec(self):
        return sum(1 for s in self.slots if s == SlotKind.VEC)

    def nvars(self):
        """Variables of the components: n, or 2n on a plane wave."""
        return next((p.nvars for p in self.comps.values()), self._nvars)

    def get(self, idx):
        return self.comps.get(tuple(idx), Poly.zero(self.nvars()))

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
        if (self.slots, self.weight) != (other.slots, other.weight):
            raise ValueError(f"adding {self.slots} of weight {self.weight} "
                             f"to {other.slots} of weight {other.weight}")
        out = TractorField(self.metric, self.weight, self.slots,
                           nvars=self.nvars())
        out.comps = dict(self.comps)
        for idx, p in other.comps.items():
            out.add_to(idx, p)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = TractorField(self.metric, self.weight, self.slots,
                           nvars=self.nvars())
        c = Q(c)
        if c:
            out.comps = {i: p.scale(c) for i, p in self.comps.items()}
        return out

    def with_weight(self, w):
        """Same components under a different weight label."""
        out = TractorField(self.metric, w, self.slots, nvars=self.nvars())
        for idx, p in self.comps.items():
            out.comps[idx] = p
        return out

    def __eq__(self, other):
        if not isinstance(other, TractorField):
            return NotImplemented
        if (self.metric, self.slots, self.weight) != (
                other.metric, other.slots, other.weight):
            return False
        keys = set(self.comps) | set(other.comps)
        return all(self.get(k) == other.get(k) for k in keys)

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
    """Coupled flat tractor connection; prepends one 'V' slot.  On a
    plane-wave component p e^{xi.x}, d_a acts as d_a + xi_a."""
    metric = t.metric
    n = metric.n
    ps = pair_space(n)
    out = TractorField(metric, t.weight, (SlotKind.VEC,) + t.slots,
                       nvars=t.nvars())
    for a in range(n):
        gam = _gamma_entries(metric, a)
        xi = Poly.var(2 * n, n + a)
        for idx, p in t.comps.items():
            dp = p.diff(a) if p.nvars == n else p.diff(a) + p * xi
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
                            out.form_add(s + 1, (aout, B), (a,) + idx,
                                         p.scale(c))
                        if B == ain:
                            out.form_add(s + 1, (A, aout), (a,) + idx,
                                         p.scale(c))
    return out


def laplacian(t):
    """Coupled Laplacian Delta = g^{ab} nabla_a nabla_b."""
    metric = t.metric
    dd = nabla(nabla(t))
    out = TractorField(metric, t.weight, t.slots, nvars=t.nvars())
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
    out = TractorField(metric, w - 1, (SlotKind.STD,) + t.slots,
                       nvars=t.nvars())
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
    out = TractorField(metric, t.weight, (SlotKind.FORM,) + t.slots,
                       nvars=t.nvars())
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
    dt = tractor_D(t)
    out = TractorField(metric, w, (SlotKind.STD, SlotKind.STD) + t.slots,
                       nvars=t.nvars())
    half = Q(1, 2)
    if w:
        h = tractor_metric(metric.key())
        for idx, p in t.comps.items():
            for A, (B, hA) in enumerate(h):
                out.add_to((A, B) + idx, p.scale(-w * hA))
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
    h = tractor_metric(metric.key())
    out = TractorField(metric, t.weight, (SlotKind.FORM,) + t.slots,
                       nvars=t.nvars())
    half = Q(1, 2)
    for idx, p in t.comps.items():
        for s, kind in enumerate(t.slots):
            if kind == SlotKind.STD:
                D = idx[s]
                for A, (C, hA) in enumerate(h):
                    if A == D:
                        continue
                    j = list(idx)
                    j[s] = C
                    out.form_add(0, (A, D), (0,) + tuple(j),
                                 p.scale(half * hA))
            elif kind == SlotKind.FORM:
                M0, M1 = ps.pairs[idx[s]]
                for pos, (D, other) in enumerate(((M0, M1), (M1, M0))):
                    for A, (C, hA) in enumerate(h):
                        if A == D:
                            continue
                        members = (C, other) if pos == 0 else (other, C)
                        r = ps.sign_index(*members)
                        if r is None:
                            continue
                        pi, sg = r
                        j = list(idx)
                        j[s] = pi
                        out.form_add(0, (A, D), (0,) + tuple(j),
                                     p.scale(half * hA * sg))
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
    h = tractor_metric(metric.key())
    u = fund_D(fund_D(t))  # slots: [outer F][inner F] + t.slots
    out = TractorField(metric, t.weight,
                       (SlotKind.STD, SlotKind.STD) + t.slots,
                       nvars=t.nvars())
    half = Q(1, 2)
    ps = pair_space(metric.n)
    # out^{AB} = -1/2 sum_{C,E} h_{CE} (U^{[CA],[BE]} + U^{[CB],[AE]})
    for idx, p in u.comps.items():
        (C0, C1), (D0, D1) = ps.pairs[idx[0]], ps.pairs[idx[1]]
        rest = idx[2:]
        # expand both stored pairs with signs
        for (C, A, s1) in ((C0, C1, 1), (C1, C0, -1)):
            Cbar, hC = h[C]
            for (B, E, s2) in ((D0, D1, 1), (D1, D0, -1)):
                if E != Cbar:
                    continue
                v = p.scale(-half * hC * s1 * s2)
                out.add_to((A, B) + rest, v)
                out.add_to((B, A) + rest, v)
    return out


def casimir(t):
    """Curved Casimir h^{AB} D^2_{AB} (fundamental derivative squared)."""
    metric = t.metric
    h = tractor_metric(metric.key())
    f2 = fund_D2(t)
    out = TractorField(metric, t.weight, t.slots, nvars=t.nvars())
    for idx, p in f2.comps.items():
        Abar, hA = h[idx[0]]
        if Abar == idx[1]:
            out.add_to(idx[2:], p.scale(hA))
    return out


def x_mult(t):
    """Multiplication by the canonical tractor X; prepends an 'S' slot."""
    metric = t.metric
    n = metric.n
    out = TractorField(metric, t.weight + 1, (SlotKind.STD,) + t.slots,
                       nvars=t.nvars())
    for idx, p in t.comps.items():
        out.comps[(n + 1,) + idx] = p
    return out


def permute_slots(t, perm):
    """Reorder slots: output slot i is input slot perm[i]."""
    out = TractorField(t.metric, t.weight, tuple(t.slots[p] for p in perm),
                       nvars=t.nvars())
    for idx, p in t.comps.items():
        out.add_to(tuple(idx[q] for q in perm), p)
    return out


def contract(t1, t2):
    """Full contraction of all slots of t1 against the leading slots of t2.

    Slot kinds must match pairwise; standard slots are paired through the
    tractor metric h, form slots through the induced full-index pairing W
    and covector slots through the inverse base metric.  Each is a signed
    involution, a -> (abar, M_{a abar}) for the one nonzero of its row,
    so each component of t1 meets one index tuple of t2's leading slots:
    the work is linear in the components.
    """
    metric = t1.metric
    k = len(t1.slots)
    if t2.slots[:k] != t1.slots:
        raise ValueError(f"contracting {t1.slots} against {t2.slots}")
    h = tractor_metric(metric.key())
    by_kind = {SlotKind.STD: h, SlotKind.FORM: pair_involution(h),
               SlotKind.VEC: tuple(enumerate(metric.eps))}
    partners = [by_kind[kind] for kind in t1.slots]
    lead = {}
    for i2, p2 in t2.comps.items():
        lead.setdefault(i2[:k], []).append((i2[k:], p2))
    # an empty operand (a zero section) takes the other's variables
    out = TractorField(metric, t1.weight + t2.weight, t2.slots[k:],
                       nvars=max(t1.nvars(), t2.nvars()))
    for i1, p1 in t1.comps.items():
        c = ONE
        key = []
        for a, part in zip(i1, partners):
            b, v = part[a]
            key.append(b)
            c *= v
        for rest, p2 in lead.get(tuple(key), ()):
            out.add_to(rest, (p1 * p2).scale(c))
    return out


# ----------------------------------------------------------------------
# parallel sections
# ----------------------------------------------------------------------

def parallel_extend(t0):
    """Unique parallel extension of a constant fiber value at the origin.

    The connection coefficients Gamma_a commute and are nilpotent, so the
    extension is I(x) = (E(x) (x) ... (x) E(x)) I(0) with
    E = exp(-x^a Gamma_a) = 1 + M + M^2/2, M = -x^a Gamma_a: E acts on
    standard slots, Lambda^2 E on form slots, covector slots are inert.
    """
    metric = t0.metric
    n = metric.n
    ps = pair_space(n)
    # E[A][C], stored by column C as {A: entry}
    zero, one = Poly.zero(n), Poly.const(n, 1)
    E = [{C: one} for C in range(n + 2)]
    quad = zero
    for a in range(n):
        xa = Poly.var(n, a)
        E[a + 1][0] = xa.scale(metric.eps[a])
        E[n + 1][a + 1] = xa.scale(-1)
        quad = quad + (xa * xa).scale(metric.eps[a])
    E[n + 1][0] = quad.scale(Q(-1, 2))
    E2 = {}

    def form_col(P):
        """Column (C,D) = pairs[P] of Lambda^2 E, as {pair index: entry}:
        (Lambda^2 E)[(A,B)][(C,D)] = E[A][C] E[B][D] - E[A][D] E[B][C]."""
        if P not in E2:
            C, D = ps.pairs[P]
            col = {}
            for A, eac in E[C].items():
                for B, ebd in E[D].items():
                    r = ps.sign_index(A, B)
                    if r is not None:
                        k, sign = r
                        col[k] = col.get(k, zero) + (eac * ebd).scale(sign)
            E2[P] = {k: v for k, v in col.items() if not v.is_zero()}
        return E2[P]

    out = TractorField(metric, t0.weight, t0.slots)
    for idx, p in t0.comps.items():
        terms = [((), p)]
        for s, kind in enumerate(t0.slots):
            if kind == SlotKind.VEC:
                terms = [(pre + (idx[s],), v) for pre, v in terms]
            else:
                col = E[idx[s]] if kind == SlotKind.STD else form_col(idx[s])
                terms = [(pre + (A,), v if e is one else v * e)
                         for pre, v in terms for A, e in col.items()]
        for j, v in terms:
            out.add_to(j, v)
    return out
