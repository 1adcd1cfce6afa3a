"""Products of parallel adjoint tractors and composition identities.

The solutions of the conformal Killing equation correspond to parallel
adjoint tractors; their pairwise products (full pairing, bracket, bullet
and the trace-free Young-(2,2) part) decompose the composition of two
first-order canonical symmetries into canonical symmetries of higher
labels plus a scalar.  This module implements the four products, the
product decomposition, the composition and ideal-relation checks, the
k-fold-trace lemma for purely scalar generators, and the graded
dimension bookkeeping of the full symmetry algebra.
"""

from itertools import combinations_with_replacement

from .scalars import Q, ZERO, ONE
from .poly import Poly, monomials_up_to_degree
from .tensor import (Metric, SymTensor, trace_free, young22_space)
from .tractor import (TractorField, SlotKind, pair_space, hmat, contract,
                      double_D, double_D2, fund_D2, tractor_D, x_mult)
from . import ckt, linalg
from .ckt import CKTLabel, weyl_dim
from .canon import CanonicalSymmetry
from .diffop import laplacian_poly


class GElement:
    """Parallel adjoint tractor, optionally with its generating field."""

    def __init__(self, field, phi=None):
        assert field.slots == (SlotKind.FORM,)
        self.field = field
        self.metric = field.metric
        self.phi = phi

    @classmethod
    def from_ckv(cls, phi):
        return cls(ckt.split(phi, CKTLabel(1, 0)), phi)

    def projecting_part(self):
        return ckt.extract(self.field, CKTLabel(1, 0))

    def expand(self):
        """Full (n+2)x(n+2) skew component matrix."""
        n = self.metric.n
        N = n + 2
        ps = pair_space(n)
        zero = Poly.zero(n)
        M = [[zero] * N for _ in range(N)]
        for (pi,), p in self.field.comps.items():
            a, b = ps.pairs[pi]
            M[a][b] = p
            M[b][a] = p.scale(-1)
        return M

    def __eq__(self, other):
        f = other.field if isinstance(other, GElement) else other
        return self.field == f


def _as_field(x):
    return x.field if isinstance(x, GElement) else x


def _product_matrix(I, J):
    """M[A][B] = sum_{P,Q} I^{AP} h_{PQ} J^{QB} as Poly entries."""
    I = _as_field(I)
    J = _as_field(J)
    metric = I.metric
    n = metric.n
    N = n + 2
    h = hmat(metric)
    MI = GElement(I).expand()
    MJ = GElement(J).expand()
    zero = Poly.zero(n)
    out = [[zero] * N for _ in range(N)]
    for A in range(N):
        for P in range(N):
            if MI[A][P].is_zero():
                continue
            for Qi in range(N):
                hv = h[P][Qi]
                if not hv:
                    continue
                for B in range(N):
                    if MJ[Qi][B].is_zero():
                        continue
                    out[A][B] = out[A][B] + (MI[A][P] * MJ[Qi][B]).scale(hv)
    return out


def killing(I, J):
    """Invariant pairing <I,J> = -4n I.J; a rational constant."""
    I = _as_field(I)
    J = _as_field(J)
    n = I.metric.n
    v = contract(I, J).get(()).scale(-4 * n)
    assert v.is_constant(), "pairing of parallel sections must be constant"
    return v.constant_value()


def bracket(I, J):
    """Adjoint-valued product 4 I^{A0 P} J_P^{A1} (form component)."""
    If = _as_field(I)
    metric = If.metric
    n = metric.n
    ps = pair_space(n)
    M = _product_matrix(I, J)
    out = TractorField(metric, 0, (SlotKind.FORM,))
    for pi, (a, b) in enumerate(ps.pairs):
        v = (M[a][b] - M[b][a]).scale(2)  # 4 * skew part
        if not v.is_zero():
            out.comps[(pi,)] = v
    return GElement(out)


def bullet(I, J):
    """Symmetric trace-free product (4/n) I^{P(B} J_P^{B')_0."""
    If = _as_field(I)
    metric = If.metric
    n = metric.n
    N = n + 2
    h = hmat(metric)
    M = _product_matrix(I, J)
    # I^{PB} J_P^{B'} = -M[B][B'] transposed in the first factor:
    # M uses I^{AP}; I^{PB} = -I^{BP}, so the required matrix is -M.
    sym = [[(M[a][b] + M[b][a]).scale(Q(-1, 2)) for b in range(N)]
           for a in range(N)]
    tr = Poly.zero(n)
    for a in range(N):
        for b in range(N):
            if h[a][b]:
                tr = tr + sym[a][b].scale(h[a][b])
    out = TractorField(metric, 0, (SlotKind.STD, SlotKind.STD))
    for a in range(N):
        for b in range(N):
            v = sym[a][b] - tr.scale(Q(h[a][b], N))
            v = v.scale(Q(4, n))
            if not v.is_zero():
                out.comps[(a, b)] = v
    return out


def boxtimes(I, J):
    """Trace-free Young-(2,2) part of the outer product."""
    If = _as_field(I)
    Jf = _as_field(J)
    metric = If.metric
    n = metric.n
    sp = young22_space(n + 2, hmat(metric))

    def get(a, b, c, d):
        return If.form_get(0, (a, b), (0,)) * Jf.form_get(0, (c, d), (0,))

    vec = sp.coords_of_tensor(get)
    _, proj = sp.project_coords(vec, nvars=n)
    out = TractorField(metric, 0, (SlotKind.FORM, SlotKind.FORM))
    for k, (i, j) in enumerate(sp.coords):
        if proj[k].is_zero():
            continue
        out.comps[(i, j)] = proj[k]
        if i != j:
            out.comps[(j, i)] = proj[k]
    return out


def outer(I, J):
    """Plain outer product as a two-form-slot field."""
    If = _as_field(I)
    Jf = _as_field(J)
    out = TractorField(If.metric, 0, (SlotKind.FORM, SlotKind.FORM))
    for (i,), p in If.comps.items():
        for (j,), q in Jf.comps.items():
            out.add_to((i, j), p * q)
    return out


def _embed_scalar(metric):
    """The invariant element h^{A0B0} h^{A1B1} - h^{A0B1} h^{A1B0}."""
    n = metric.n
    ps = pair_space(n)
    h = hmat(metric)
    out = TractorField(metric, 0, (SlotKind.FORM, SlotKind.FORM))
    for i, (a, b) in enumerate(ps.pairs):
        for j, (c, d) in enumerate(ps.pairs):
            v = h[a][c] * h[b][d] - h[a][d] * h[b][c]
            if v:
                out.comps[(i, j)] = Poly.const(n, v)
    return out


def _embed_adjoint(metric, B):
    """Antisymmetrized h x B embedding of an adjoint element."""
    B = _as_field(B)
    n = metric.n
    ps = pair_space(n)
    h = hmat(metric)
    out = TractorField(metric, 0, (SlotKind.FORM, SlotKind.FORM))
    for i, (a, b) in enumerate(ps.pairs):
        for j, (c, d) in enumerate(ps.pairs):
            v = (B.form_get(0, (b, d), (0,)).scale(h[a][c])
                 - B.form_get(0, (a, d), (0,)).scale(h[b][c])
                 - B.form_get(0, (b, c), (0,)).scale(h[a][d])
                 + B.form_get(0, (a, c), (0,)).scale(h[b][d]))
            if not v.is_zero():
                out.comps[(i, j)] = v
    return out


def _embed_sym(metric, S):
    """Antisymmetrized h x S embedding of a symmetric two-tensor."""
    n = metric.n
    ps = pair_space(n)
    h = hmat(metric)
    out = TractorField(metric, 0, (SlotKind.FORM, SlotKind.FORM))
    for i, (a, b) in enumerate(ps.pairs):
        for j, (c, d) in enumerate(ps.pairs):
            v = (S.get((b, d)).scale(h[a][c])
                 - S.get((a, d)).scale(h[b][c])
                 - S.get((b, c)).scale(h[a][d])
                 + S.get((a, c)).scale(h[b][d]))
            if not v.is_zero():
                out.comps[(i, j)] = v
    return out


class ProductDecomp:
    """The four named components of an outer product of adjoint tractors."""

    def __init__(self, boxtimes_part, bullet_part, bracket_part,
                 killing_part, residual):
        self.boxtimes_part = boxtimes_part
        self.bullet_part = bullet_part
        self.bracket_part = bracket_part
        self.killing_part = killing_part
        self.residual = residual


def decompose(I, J, check=True):
    """Project an outer product onto its four named components.

    The outer product also carries components in the four-form and
    hook-shaped modules which the named parts do not see; they are
    returned as the residual, which is checked to be orthogonal to all
    four named modules.
    """
    If = _as_field(I)
    metric = If.metric
    n = metric.n
    box = boxtimes(I, J)
    br = bracket(I, J)
    bu = bullet(I, J)
    kl = killing(I, J)
    T = outer(I, J)
    recon = (box
             + _embed_scalar(metric).scale(-Q(kl) / (4 * n * (n + 1) * (n + 2)))
             + _embed_adjoint(metric, br).scale(Q(-1, 4 * n))
             + _embed_sym(metric, bu).scale(Q(1, 4)))
    residual = T - recon
    if check:
        _check_residual(metric, residual)
    return ProductDecomp(box, bu, br, kl, residual)


def _check_residual(metric, residual):
    """Residual must be orthogonal to all four named submodules."""
    n = metric.n
    ps = pair_space(n)
    sp = young22_space(n + 2, hmat(metric))
    pair = lambda u, v: contract(u, v).get(())
    assert pair(_embed_scalar(metric), residual).is_zero()
    # adjoint module: pair against every embedded basis two-form
    for pi in range(ps.npairs()):
        B = TractorField(metric, 0, (SlotKind.FORM,), {(pi,): 1})
        assert pair(_embed_adjoint(metric, B), residual).is_zero()
    # symmetric trace-free module
    N = n + 2
    h = hmat(metric)
    for a in range(N):
        for b in range(a, N):
            S = TractorField(metric, 0, (SlotKind.STD, SlotKind.STD))
            S.add_to((a, b), Poly.const(n, 1))
            S.add_to((b, a), Poly.const(n, 1))
            tr = Q(2 * h[a][b])
            for c in range(N):
                for d in range(N):
                    if h[c][d]:
                        S.add_to((c, d), Poly.const(n, -tr * Q(h[c][d], N)))
            assert pair(_embed_sym(metric, S), residual).is_zero()
    # Young-(2,2) trace-free module

    def get(a, b, c, d):
        r1 = ps.sign_index(a, b)
        r2 = ps.sign_index(c, d)
        if r1 is None or r2 is None:
            return Poly.zero(n)
        (i, s1), (j, s2) = r1, r2
        v = residual.comps.get((i, j))
        if v is None:
            return Poly.zero(n)
        return v.scale(s1 * s2)

    for m in sp.pairing_with_basis(sp.coords_of_tensor(get)):
        assert m is None or m.is_zero()


# ----------------------------------------------------------------------
# composition identity
# ----------------------------------------------------------------------

def dec2can_products(phi, phib):
    """The four products of the splitting tractors of two solutions."""
    I = GElement.from_ckv(phi)
    J = GElement.from_ckv(phib)
    return I, J, boxtimes(I, J), bullet(I, J), bracket(I, J), killing(I, J)


def _vector_bracket(phi, phib):
    """Lie bracket of two conformal Killing fields, lower components."""
    metric = phi.metric
    n = metric.n
    out = SymTensor(metric, 1, weight=2)
    for a in range(n):
        v = Poly.zero(n)
        for b in range(n):
            eb = metric.eps[b]
            v = (v + (phi.get((b,)) * phib.get((a,)).diff(b)).scale(eb)
                 - (phib.get((b,)) * phi.get((a,)).diff(b)).scale(eb))
        if not v.is_zero():
            out.comps[(a,)] = v
    return out


def killing_oracle(phi, phib):
    """Explicit formula for the pairing in terms of the two fields."""
    metric = phi.metric
    n = metric.n

    def up(t, a):
        return t.get((a,)).scale(metric.eps[a])

    div1 = sum((up(phi, a).diff(a) for a in range(n)), Poly.zero(n))
    div2 = sum((up(phib, a).diff(a) for a in range(n)), Poly.zero(n))
    t1 = Poly.zero(n)
    for a in range(n):
        t1 = t1 + up(phi, a) * div2.diff(a) + up(phib, a) * div1.diff(a)
    t2 = Poly.zero(n)
    for a in range(n):
        for b in range(n):
            t2 = t2 + up(phi, b).diff(a) * up(phib, a).diff(b)
    val = t1.scale(-2) + t2.scale(n) - (div1 * div2).scale(Q(n - 2, n))
    assert val.is_constant()
    return val.constant_value()


def verify_dec2can(phi, phib, w, max_degree=4):
    """Composition of two first-order canonical symmetries.

    Checks, exactly on all monomials up to ``max_degree``:
      S_phi S_phib f = (I x J) DD f + (I . J) D^2 f + 1/2 [I,J] D f
                       + w(n+w)/(n(n+1)(n+2)) <I,J> f
    and that each summand is the canonical symmetry of the matching
    product section (symmetric trace-free product, scalar product,
    vector-field bracket), with the pairing matched against its
    explicit first-order formula.
    """
    metric = phi.metric
    n = metric.n
    w = Q(w)
    I, J, box, bu, br, kl = dec2can_products(phi, phib)
    S1 = CanonicalSymmetry(I.field, (1, 0), w)
    S2 = CanonicalSymmetry(J.field, (1, 0), w)
    ok_main = True
    for e in monomials_up_to_degree(n, max_degree):
        f = Poly.monomial(n, e)
        lhs = S1(S2(f))
        t = TractorField.density(metric, w, f)
        dt = double_D(t)
        rhs = (contract(box, double_D(dt)).get(())
               + contract(bu, double_D2(t)).get(())
               + contract(br.field, dt).get(()).scale(Q(1, 2))
               + f.scale(kl * w * (n + w) / (n * (n + 1) * (n + 2))))
        if lhs != rhs:
            ok_main = False
            break
    # summand identification through the splitting of the product sections
    prod2 = SymTensor(metric, 2, weight=4)
    for a in range(n):
        for b in range(a, n):
            v = phi.get((a,)) * phib.get((b,)) + phi.get((b,)) * phib.get((a,))
            prod2.add_to((a, b), v.scale(Q(1, 2)))
    ok_box = box == ckt.split(trace_free(prod2), CKTLabel(2, 0))
    sigma = Poly.zero(n)
    for a in range(n):
        sigma = sigma + (phi.get((a,)) * phib.get((a,))).scale(metric.eps[a])
    sigma = SymTensor(metric, 0, {(): sigma.scale(Q(1, n))}, weight=4)
    ok_bullet = bu == ckt.split(sigma, CKTLabel(0, 1))
    ok_bracket = br.field == ckt.split(_vector_bracket(phi, phib),
                                       CKTLabel(1, 0))
    ok_killing = kl == killing_oracle(phi, phib)
    return {"main": ok_main, "boxtimes": ok_box, "bullet": ok_bullet,
            "bracket": ok_bracket, "killing": ok_killing,
            "all": ok_main and ok_box and ok_bullet and ok_bracket
                   and ok_killing}


def ideal_coefficient(n, k):
    """(n-2k)(n+2k) / (4n(n+1)(n+2)); equals -w(n+w)/(n(n+1)(n+2)) at
    the domain weight w = k - n/2 (checked symbolically in two formal
    variables)."""
    pn = Poly.var(2, 0)
    pk = Poly.var(2, 1)
    w = pk - pn.scale(Q(1, 2))
    lhs = (w * (pn + w)).scale(-1)
    rhs = ((pn - pk.scale(2)) * (pn + pk.scale(2))).scale(Q(1, 4))
    assert lhs == rhs
    return Q((n - 2 * k) * (n + 2 * k), 4 * n * (n + 1) * (n + 2))


def ideal_relation_check(phi, phib, k, max_degree=4):
    """The quadratic ideal relation on the domain of the k-th power.

    S_V1 S_V2 - S_{V1 x V2} - S_{V1 . V2} - 1/2 S_{[V1,V2]}
    + coeff <V1,V2> vanishes on weight k - n/2 densities.
    """
    metric = phi.metric
    n = metric.n
    w = Q(2 * k - n, 2)
    coeff = ideal_coefficient(n, k)
    I, J, box, bu, br, kl = dec2can_products(phi, phib)
    S1 = CanonicalSymmetry(I.field, (1, 0), w)
    S2 = CanonicalSymmetry(J.field, (1, 0), w)
    Sbox = CanonicalSymmetry(box, (2, 0), w)
    Sbul = CanonicalSymmetry(bu, (0, 1), w)
    Sbr = CanonicalSymmetry(br.field, (1, 0), w)
    for e in monomials_up_to_degree(n, max_degree):
        f = Poly.monomial(n, e)
        res = (S1(S2(f)) - Sbox(f) - Sbul(f) - Sbr(f).scale(Q(1, 2))
               + f.scale(coeff * kl))
        if not res.is_zero():
            return False
    return True


# ----------------------------------------------------------------------
# scalar generators and the k-fold trace lemma
# ----------------------------------------------------------------------

def _sym0_two_slots(t):
    """Symmetric trace-free part over two leading standard slots."""
    metric = t.metric
    n = metric.n
    N = n + 2
    h = hmat(metric)
    out = TractorField(metric, t.weight, t.slots)
    traces = {}
    for idx, p in t.comps.items():
        A, B = idx[0], idx[1]
        half = p.scale(Q(1, 2))
        out.add_to(idx, half)
        out.add_to((B, A) + idx[2:], half)
        if h[A][B]:
            rest = idx[2:]
            cur = traces.get(rest)
            v = p.scale(h[A][B])
            traces[rest] = v if cur is None else cur + v
    for rest, tr in traces.items():
        for A in range(N):
            for B in range(N):
                if h[A][B]:
                    out.add_to((A, B) + rest, tr.scale(-Q(h[A][B], N)))
    return out


def fund2_equals_xd_check(metric, w, max_degree=3):
    """Trace-free symmetric parts: D^2_fund = -X_(C D_D)_0 on E[w]."""
    n = metric.n
    for e in monomials_up_to_degree(n, max_degree):
        t = TractorField.density(metric, Q(w), Poly.monomial(n, e))
        lhs = _sym0_two_slots(fund_D2(t))
        xd = x_mult(tractor_D(t))
        rhs = _sym0_two_slots(xd.with_weight(lhs.weight)).scale(-1)
        if lhs != rhs:
            return False
    return True


def lemma_extra_check(k, metric, max_degree=3, basis=None):
    """Scalar-generated canonical symmetries are sigma . Delta^k."""
    n = metric.n
    w = Q(2 * k - n, 2)
    if basis is None:
        basis = ckt.solve(metric, CKTLabel(0, k))
    for sigma in basis:
        I = ckt.split(sigma, CKTLabel(0, k))
        S = CanonicalSymmetry(I, (0, k), w)
        spoly = sigma.get(())
        for e in monomials_up_to_degree(n, max_degree):
            f = Poly.monomial(n, e)
            lapf = f
            for i in range(k):
                lapf = laplacian_poly(lapf, metric)
            if S(f) != spoly * lapf:
                return False
    return True


# ----------------------------------------------------------------------
# graded dimensions
# ----------------------------------------------------------------------

def graded_dim(k, t, n):
    """Dimension of the degree-t graded piece of the symmetry algebra.

    Sum of the solution-space dimensions over j + 2i = t with
    0 <= i <= k-1 (higher Laplacian powers are trivial symmetries).
    """
    if t < 1:
        raise ValueError("t >= 1 required")
    total = 0
    for i in range(0, min(k - 1, t // 2) + 1):
        j = t - 2 * i
        total += weyl_dim(n, j, i)
    return total


def brute_dim_oracle(k, t, n):
    """Constraint-kernel dimension of the graded piece, for tiny t.

    Realizes the degree-t piece inside the symmetric power of the
    adjoint module: row constraints are the three-index skew
    symmetrizations (the rectangular Young condition) together with the
    k-fold trace condition, and the dimension is the kernel dimension.
    """
    metric = Metric.euclidean(n) if not isinstance(n, Metric) else n
    N = metric.n + 2
    h = hmat(metric)
    ps = pair_space(metric.n)
    P = ps.npairs()
    if t == 1:
        return P
    if t != 2:
        raise ValueError("oracle is only feasible for t <= 2")
    coords = [(i, j) for i in range(P) for j in range(i, P)]
    cindex = {c: m for m, c in enumerate(coords)}

    def coord_of(a, b, c, d):
        r1 = ps.sign_index(a, b)
        r2 = ps.sign_index(c, d)
        if r1 is None or r2 is None:
            return None
        (i, s1), (j, s2) = r1, r2
        if i > j:
            i, j = j, i
        return cindex[(i, j)], s1 * s2

    rows = []

    def add_row(entries):
        row = {}
        for (a, b, c, d), coeff in entries:
            r = coord_of(a, b, c, d)
            if r is not None:
                m, s = r
                row[m] = row.get(m, ZERO) + coeff * s
        row = {m: v for m, v in row.items() if v}
        if row:
            rows.append([row.get(m, ZERO) for m in range(len(coords))])

    for (a, b, c) in combinations_with_replacement(range(N), 3):
        if len({a, b, c}) < 3:
            continue
        for d in range(N):
            add_row([((a, b, c, d), ONE), ((b, c, a, d), ONE),
                     ((c, a, b, d), ONE)])
    if k == 1:
        for b in range(N):
            for d in range(b, N):
                entries = []
                for a in range(N):
                    for c in range(N):
                        if h[a][c]:
                            entries.append(((a, b, c, d), Q(h[a][c])))
                add_row(entries)
    else:
        entries = []
        for a in range(N):
            for c in range(N):
                if not h[a][c]:
                    continue
                for b in range(N):
                    for d in range(N):
                        if h[b][d]:
                            entries.append(((a, b, c, d),
                                            Q(h[a][c] * h[b][d])))
        add_row(entries)
    return len(coords) - linalg.rank(rows)
