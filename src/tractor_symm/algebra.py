"""Products of parallel adjoint tractors and composition identities.

The solutions of the conformal Killing equation correspond to parallel
adjoint tractors; their pairwise products (full pairing, bracket, bullet
and the trace-free Young-(2,2) part) decompose the composition of two
first-order canonical symmetries into canonical symmetries of higher
labels plus a scalar.  This module implements the four products, the
product decomposition, the composition and ideal-relation checks, the
k-fold-trace lemma for purely scalar generators, and the graded
dimension bookkeeping of the full symmetry algebra.

A parallel adjoint tractor is the ``TractorField`` with one form slot
that ``ckt.split(phi, CKTLabel(1, 0))`` returns; the four products take
two of them and return a ``TractorField`` (the bracket one with a form
slot, the bullet one with two standard slots, boxtimes one with two form
slots) or, for the pairing, a rational number.  The bracket, bullet and
pairing contract one index through the tractor metric h, and all three
are read off one matrix M = M_I h M_J (``contracted_products``); h is
the signed involution of ``tensor.tractor_metric``, so M is a walk over
the nonzeros of I and J.
"""

from itertools import combinations_with_replacement

from .scalars import Q, ZERO, ONE
from .poly import Poly
from .tensor import (Metric, SymTensor, kulkarni_nomizu, ricci, weyl_part,
                     harmonic_parts, tractor_metric, pair_involution)
from .tractor import (TractorField, SlotKind, pair_space, fund_D2, tractor_D,
                      x_mult)
from . import ckt, linalg
from .ckt import CKTLabel, CKTError, weyl_dim
from .canon import build_S
from .diffop import StdOp


def _form_matrix(field):
    """Full (n+2)x(n+2) skew component matrix of a one-form-slot field."""
    if field.slots != (SlotKind.FORM,):
        raise ValueError(f"expected a field with slots ('F',), got "
                         f"{field.slots}")
    n = field.metric.n
    ps = pair_space(n)
    zero = Poly.zero(n)
    M = [[zero] * (n + 2) for _ in range(n + 2)]
    for (pi,), p in field.comps.items():
        a, b = ps.pairs[pi]
        M[a][b] = p
        M[b][a] = p.scale(-1)
    return M


def _product_matrix(I, J):
    """M^A_B = I^{AP} h_{PQ} J^{QB} = sum_P h_P I^{AP} J^{Pbar B}, as
    {(A, B): Poly}, walked over the nonzeros of I, h and J."""
    h = tractor_metric(I.metric.key())
    MI, MJ = _form_matrix(I), _form_matrix(J)
    N = len(h)
    out = {}
    for A in range(N):
        for P, a in enumerate(MI[A]):
            if a.is_zero():
                continue
            Pbar, hP = h[P]
            for B, b in enumerate(MJ[Pbar]):
                if not b.is_zero():
                    v = (a * b).scale(hP)
                    out[A, B] = out[A, B] + v if (A, B) in out else v
    return out


def contracted_products(I, J):
    """I . J, [I, J] and <I, J>: the products of two parallel adjoint
    tractors that contract one index, all from one M = M_I h M_J,

        [I, J] = 2 (M - M^t),   I . J = -(4/n) sym_0(M),
        <I, J> = 4n sum_A h_A M^A_Abar,

    where sym_0 is the h-trace-free symmetric part; the bullet's sign is
    that of I^{PB} = -I^{BP}.  The pairing is a rational constant;
    CKTError if it is not."""
    metric = I.metric
    n = metric.n
    h = tractor_metric(metric.key())
    M = _product_matrix(I, J)
    zero = Poly.zero(n)

    def m(a, b):
        return M.get((a, b), zero)

    br = TractorField(metric, 0, (SlotKind.FORM,), {
        (pi,): (m(a, b) - m(b, a)).scale(2)
        for pi, (a, b) in enumerate(pair_space(n).pairs)})
    sym = {(a, b): (m(a, b) + m(b, a)).scale(Q(-1, 2))
           for a in range(n + 2) for b in range(n + 2)}
    tr = sum((sym[a, b].scale(ha) for a, (b, ha) in enumerate(h)), zero)
    bu = TractorField(metric, 0, (SlotKind.STD, SlotKind.STD))
    for (a, b), v in sym.items():
        abar, ha = h[a]
        if b == abar:
            v = v - tr.scale(Q(ha, n + 2))
        v = v.scale(Q(4, n))
        if not v.is_zero():
            bu.comps[(a, b)] = v
    kl = sum((m(a, b).scale(ha) for a, (b, ha) in enumerate(h)),
             zero).scale(4 * n)
    if not kl.is_constant():
        raise CKTError(f"pairing of parallel sections is {kl}, not constant")
    return bu, br, kl.constant_value()


def bullet(I, J):
    """Symmetric trace-free product (4/n) I^{P(B} J_P^{B')_0."""
    return contracted_products(I, J)[0]


def bracket(I, J):
    """Adjoint-valued product 4 I^{A0 P} J_P^{A1} (form component)."""
    return contracted_products(I, J)[1]


def killing(I, J):
    """Invariant pairing <I,J> = -4n I.J; a rational constant."""
    return contracted_products(I, J)[2]


def _outer_matrix(I, J):
    """Pair matrix T[i][j] = I_i J_j of the outer product."""
    P = pair_space(I.metric.n).npairs()
    col = [J.get((j,)) for j in range(P)]
    return [[I.get((i,)) * q for q in col] for i in range(P)]


def _form2_field(metric, M):
    """The two-form-slot field with pair matrix M."""
    return TractorField(metric, 0, (SlotKind.FORM, SlotKind.FORM),
                        {(i, j): p for i, row in enumerate(M)
                         for j, p in enumerate(row)})


def boxtimes(I, J):
    """Trace-free Young-(2,2) part of the outer product."""
    metric = I.metric
    return _form2_field(metric, weyl_part(
        pair_space(metric.n), tractor_metric(metric.key()),
        _outer_matrix(I, J)))


class ProductDecomp:
    """The four named components of an outer product of adjoint tractors."""

    def __init__(self, boxtimes_part, bullet_part, bracket_part,
                 killing_part, residual):
        self.boxtimes_part = boxtimes_part
        self.bullet_part = bullet_part
        self.bracket_part = bracket_part
        self.killing_part = killing_part
        self.residual = residual


def decompose(I, J):
    """Project an outer product onto its four named components.

    The scalar, adjoint and symmetric trace-free parts are embedded by
    the Kulkarni-Nomizu product with h: h o h / 2, br o h and bu o h.
    The outer product also carries components in the four-form and
    hook-shaped modules which the named parts do not see; they are
    returned as the residual, which is checked to be orthogonal to all
    four named modules.
    """
    metric = I.metric
    n = metric.n
    N = n + 2
    ps = pair_space(n)
    h = tractor_metric(metric.key())
    box = boxtimes(I, J)
    bu, br, kl = contracted_products(I, J)
    res = [[t - box.get((i, j)) for j, t in enumerate(row)]
           for i, row in enumerate(_outer_matrix(I, J))]
    ckl = -Q(kl) / (8 * n * (n + 1) * (n + 2))
    for row, (j, w) in zip(res, pair_involution(h)):  # h o h = W
        row[j] = row[j] - w * ckl
    S = [[bu.get((a, b)) for b in range(N)] for a in range(N)]
    for X, c in ((_form_matrix(br), Q(-1, 4 * n)), (S, Q(1, 4))):
        for row, krow in zip(res, kulkarni_nomizu(ps, X, h)):
            for j, k in enumerate(krow):
                row[j] = row[j] - k * c
    _check_residual(metric, res)
    return ProductDecomp(box, bu, br, kl, _form2_field(metric, res))


def _check_residual(metric, res):
    """The residual pair matrix must be orthogonal to the four named
    modules.  <h o X, res> = 4 <X, Ric(res)>, so it is orthogonal to the
    scalar, adjoint and symmetric trace-free modules exactly when its
    Ricci contraction vanishes, and to the (2,2) module exactly when its
    Weyl part does."""
    n = metric.n
    N = n + 2
    ps = pair_space(n)
    h = tractor_metric(metric.key())
    ric = ricci(ps, h, res)
    s = sum((ric[a][b] * ha for a, (b, ha) in enumerate(h)), Poly.zero(n))

    def check(module, v, what):
        if not v.is_zero():
            raise CKTError(f"product residual has {v} in the {module} "
                           f"module, {what}")

    check("scalar", s, "its Ricci trace")
    for a in range(N):
        for b in range(a + 1, N):
            check("adjoint", (ric[a][b] - ric[b][a]).scale(Q(1, 2)),
                  f"Ricci entry ({a},{b})")
    for a, (abar, ha) in enumerate(h):
        for b in range(a, N):
            v = (ric[a][b] + ric[b][a]).scale(Q(1, 2))
            if b == abar:
                v = v - s.scale(Q(ha, N))
            check("symmetric trace-free", v, f"Ricci entry ({a},{b})")
    W = weyl_part(ps, h, res)
    for i, (a, b) in enumerate(ps.pairs):
        for j, (c, d) in enumerate(ps.pairs[i:], i):
            check("Young-(2,2) trace-free", W[i][j],
                  f"entry ({a},{b},{c},{d})")


# ----------------------------------------------------------------------
# composition identity
# ----------------------------------------------------------------------

def dec2can_products(phi, phib):
    """The four products of the splitting tractors of two solutions."""
    I = ckt.split(phi, CKTLabel(1, 0))
    J = ckt.split(phib, CKTLabel(1, 0))
    return (I, J, boxtimes(I, J)) + contracted_products(I, J)


def _vector_bracket(phi, phib):
    """Lie bracket of two conformal Killing fields, lower components."""
    metric = phi.metric
    n = metric.n
    f, fb = _covector(phi), _covector(phib)
    comps = {}
    for a in range(n):
        v = Poly.zero(n)
        for b in range(n):
            eb = metric.eps[b]
            v = (v + (f[b] * fb[a].diff(b)).scale(eb)
                 - (fb[b] * f[a].diff(b)).scale(eb))
        comps[(a,)] = v
    return SymTensor(metric, 1, comps, weight=2)


def _covector(phi):
    """[phi_0, .., phi_{n-1}], from one read of the component view."""
    comps, zero = phi.comps, Poly.zero(phi.metric.n)
    return [comps.get((a,), zero) for a in range(phi.metric.n)]


def killing_oracle(phi, phib):
    """Explicit formula for the pairing in terms of the two fields."""
    metric = phi.metric
    n = metric.n
    u, ub = ([c.scale(e) for c, e in zip(_covector(t), metric.eps)]
             for t in (phi, phib))
    div1 = sum((u[a].diff(a) for a in range(n)), Poly.zero(n))
    div2 = sum((ub[a].diff(a) for a in range(n)), Poly.zero(n))
    t1 = Poly.zero(n)
    for a in range(n):
        t1 = t1 + u[a] * div2.diff(a) + ub[a] * div1.diff(a)
    t2 = Poly.zero(n)
    for a in range(n):
        for b in range(n):
            t2 = t2 + u[b].diff(a) * ub[a].diff(b)
    val = t1.scale(-2) + t2.scale(n) - (div1 * div2).scale(Q(n - 2, n))
    if not val.is_constant():
        raise CKTError(f"Killing pairing formula gives {val}, not constant")
    return val.constant_value()


def _composition_defect(products, w, c):
    """S_I S_J - S_{I x J} - S_{I . J} - 1/2 S_{[I,J]} - c <I,J> on
    weight-w densities, as an operator."""
    I, J, box, bu, br, kl = products

    def S(T, label):
        return build_S(T, label, w, check_parallel=False)

    return (S(I, (1, 0)).compose(S(J, (1, 0)))
            - S(box, (2, 0)) - S(bu, (0, 1)) - S(br, (1, 0)).scale(Q(1, 2))
            - StdOp.identity(I.metric).scale(c * kl))


def verify_dec2can(phi, phib, w, max_degree=None):
    """Composition of two first-order canonical symmetries.

    Checks, as an identity of full symbols:
      S_phi S_phib f = (I x J) DD f + (I . J) D^2 f + 1/2 [I,J] D f
                       + w(n+w)/(n(n+1)(n+2)) <I,J> f
    and that each summand is the canonical symmetry of the matching
    product section (symmetric trace-free product, scalar product,
    vector-field bracket), with the pairing matched against its
    explicit first-order formula.

    ``max_degree`` is ignored: the benchmark worker (perfbench/worker.py)
    still passes ``max_degree=3``, and would fail every dec2can case
    with a TypeError without it.
    """
    metric = phi.metric
    n = metric.n
    w = Q(w)
    _, _, box, bu, br, kl = products = dec2can_products(phi, phib)
    ok_main = _composition_defect(
        products, w, w * (n + w) / (n * (n + 1) * (n + 2))).is_zero()
    # summand identification through the splitting of the product sections:
    # the symmetric product phi phib has symbol sigma(phi) sigma(phib), and
    # its harmonic parts are its trace-free part and its trace over n,
    # g^ab phi_a phib_b / n
    prod0, trace = harmonic_parts(phi.sym * phib.sym, metric, 2)
    ok_box = box == ckt.split(SymTensor.wrap(metric, 2, prod0, weight=4),
                              CKTLabel(2, 0))
    ok_bullet = bu == ckt.split(SymTensor.wrap(metric, 0, trace, weight=4),
                                CKTLabel(0, 1))
    ok_bracket = br == ckt.split(_vector_bracket(phi, phib), CKTLabel(1, 0))
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
    if lhs != rhs:
        raise CKTError(f"ideal coefficient: -w(n+w) = {lhs} differs from "
                       f"(n-2k)(n+2k)/4 = {rhs}")
    return Q((n - 2 * k) * (n + 2 * k), 4 * n * (n + 1) * (n + 2))


def ideal_relation_check(phi, phib, k):
    """The quadratic ideal relation on the domain of the k-th power.

    S_V1 S_V2 - S_{V1 x V2} - S_{V1 . V2} - 1/2 S_{[V1,V2]}
    + coeff <V1,V2> vanishes on weight k - n/2 densities, on the full
    symbol.
    """
    n = phi.metric.n
    w = Q(2 * k - n, 2)
    return _composition_defect(dec2can_products(phi, phib), w,
                               -ideal_coefficient(n, k)).is_zero()


# ----------------------------------------------------------------------
# scalar generators and the k-fold trace lemma
# ----------------------------------------------------------------------

def _sym0_two_slots(t):
    """Symmetric trace-free part over two leading standard slots."""
    metric = t.metric
    h = tractor_metric(metric.key())
    N = len(h)
    out = TractorField(metric, t.weight, t.slots)
    traces = {}
    for idx, p in t.comps.items():
        A, B = idx[0], idx[1]
        half = p.scale(Q(1, 2))
        out.add_to(idx, half)
        out.add_to((B, A) + idx[2:], half)
        Abar, hA = h[A]
        if B == Abar:
            rest = idx[2:]
            cur = traces.get(rest)
            v = p.scale(hA)
            traces[rest] = v if cur is None else cur + v
    for rest, tr in traces.items():
        for A, (B, hA) in enumerate(h):
            out.add_to((A, B) + rest, tr.scale(-Q(hA, N)))
    return out


def fund2_equals_xd_check(metric, w):
    """Trace-free symmetric parts: D^2_fund = -X_(C D_D)_0 on E[w], on
    the full symbol (one plane-wave run)."""
    t = TractorField.density(metric, Q(w), Poly.const(2 * metric.n, 1))
    lhs = _sym0_two_slots(fund_D2(t))
    xd = x_mult(tractor_D(t))
    return lhs == _sym0_two_slots(xd.with_weight(lhs.weight)).scale(-1)


def lemma_extra_check(k, metric, basis=None):
    """Scalar-generated canonical symmetries are sigma . Delta^k, as
    standard forms read off the full symbol."""
    w = Q(2 * k - metric.n, 2)
    if basis is None:
        basis = ckt.solve(metric, CKTLabel(0, k))
    for sigma in basis:
        I = ckt.split(sigma, CKTLabel(0, k))
        S = build_S(I, (0, k), w, check_parallel=False)
        if S != StdOp.from_coeff(sigma, k):
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
    h = tractor_metric(metric.key())
    ps = pair_space(metric.n)
    if t == 1:
        return ps.npairs()
    if t != 2:
        raise ValueError("oracle is only feasible for t <= 2")
    rows = []

    def add_row(entries):
        row = {}
        for (a, b, c, d), coeff in entries:
            r = ps.coord_of(a, b, c, d)
            if r is not None:
                m, s = r
                row[m] = row.get(m, ZERO) + coeff * s
        rows.append(row)

    for (a, b, c) in combinations_with_replacement(range(N), 3):
        if len({a, b, c}) < 3:
            continue
        for d in range(N):
            add_row([((a, b, c, d), ONE), ((b, c, a, d), ONE),
                     ((c, a, b, d), ONE)])
    if k == 1:
        for b in range(N):
            for d in range(b, N):
                add_row([((a, b, c, d), Q(ha)) for a, (c, ha) in enumerate(h)])
    else:
        add_row([((a, b, c, d), Q(ha * hb)) for a, (c, ha) in enumerate(h)
                 for b, (d, hb) in enumerate(h)])
    return len(ps.coords) - linalg.rank(rows)
