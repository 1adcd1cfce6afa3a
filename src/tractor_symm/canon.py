"""Canonical symmetries of Laplacian powers and their classification.

A canonical symmetry is built from a parallel splitting tractor I by
applying r symmetrized-square double-D operators followed by p double-D
operators to a weighted density and contracting every slot with I.  The
module verifies the intertwining identity Delta^k S = S' Delta^k
exactly, checks the structural properties of the resulting standard
forms, and provides the classification machinery: the combinatorial
C-matrices, their regularity (with the full column/row reduction chain),
the constraint matrices extracted from symbolic composition, and the
greedy classification of an arbitrary symmetry into canonical pieces
plus a trivial tail.
"""

import random
from math import factorial

from .scalars import Q, ZERO, ONE, binom
from .poly import Poly
from .tensor import (Metric, SymTensor, random_tracefree, harmonic_parts,
                     harmonic_norm, xi_raise, xi_laplacian, xi_reduce, xi_dx)
from .diffop import StdOp, OpType, compose_raw, by_xi_degree
from .tractor import (TractorField, nabla, laplacian, laplacian_power,
                      tractor_D, double_D, double_D2, fund_D, fund_D2,
                      x_mult, contract)
from .linalg import ExactMatrix, det
from . import ckt
from .ckt import CKTLabel, CKTError


class CanonicalSymmetry:
    """Operator f -> I . (double-D)^p (double-D^2)^r f on densities."""

    def __init__(self, I, label, weight, use_fund=False):
        self.I = I
        n, pad = I.metric.n, (0,) * I.metric.n  # I in (x, xi), constant in xi
        self._I_xi = TractorField(I.metric, I.weight, I.slots, {
            idx: Poly.wrap(2 * n, {e + pad: c for e, c in p.nums.items()},
                           p.den)
            for idx, p in I.comps.items()})
        self.label = CKTLabel(*label)
        self.metric = I.metric
        self.weight = Q(weight)
        self.use_fund = use_fund
        self._std = None

    def apply(self, f):
        """S f, or for f in (x, xi) the component of S(f e^{xi.x})."""
        p, r = self.label
        I = self.I if f.nvars == self.metric.n else self._I_xi
        t = TractorField.density(self.metric, self.weight, f)
        sq = fund_D2 if self.use_fund else double_D2
        first = fund_D if self.use_fund else double_D
        for _ in range(r):
            t = sq(t)
        for _ in range(p):
            t = first(t)
        return contract(I, t).get(())

    __call__ = apply

    def std_op(self):
        """S as an operator: its symbol is one run on the plane wave."""
        if self._std is None:
            wave = Poly.const(2 * self.metric.n, 1)  # e^{xi.x}
            self._std = StdOp.wrap(self.metric, self.apply(wave))
        return self._std


def build_S(I, label, weight, use_fund=False, check_parallel=True):
    """Canonical symmetry from a parallel splitting tractor."""
    label = CKTLabel(*label)
    expected = ckt._shape_slots(label)
    if I.slots != expected:
        raise ValueError(f"splitting tractor has slots {I.slots}, "
                         f"label {label} needs {expected}")
    if check_parallel and not nabla(I).is_zero():
        raise ValueError("splitting tractor must be parallel")
    return CanonicalSymmetry(I, label, weight, use_fund=use_fund)


class SymmetryReport:
    """Outcome of an intertwining check Delta^k S = S' Delta^k."""

    def __init__(self, k, label, w_in, w_out, residual, S_std, Sp_std,
                 trivial):
        self.k = k
        self.label = label
        self.w_in = w_in
        self.w_out = w_out
        self.residual = residual
        self.S_std = S_std
        self.Sp_std = Sp_std
        self.trivial = trivial
        self.verdict = residual.is_zero()


def verify_symmetry(phi, label, k):
    """Check Delta^k S_phi = S'_phi Delta^k exactly, on full symbols."""
    label = CKTLabel(*label)
    metric = phi.metric
    n = metric.n
    w_in = Q(2 * k - n, 2)
    w_out = Q(-2 * k - n, 2)
    I = ckt.split(phi, label)
    S = build_S(I, label, w_in, check_parallel=False)
    Sp = build_S(I, label, w_out, check_parallel=False)
    S_std = S.std_op()
    Sp_std = Sp.std_op()
    # sigma(Delta^k S) - sigma(S' Delta^k): zero exactly when they agree
    lapk = StdOp.laplacian_power(metric, k)
    residual = lapk.compose(S_std) - Sp_std.compose(lapk)
    return SymmetryReport(k, label, w_in, w_out, residual, S_std, Sp_std,
                          trivial=(label.r >= k))


def leading_checks(report, phi):
    """Structural checks on the standard forms of S and S'.

    (i) the leading coefficient of both operators equals phi;
    (ii) every term has level at most p+r and the greatest term is phi;
    (iii) every term has order at most p+2r, with equality only at the
    leading type; (iv) no term carries more than r Laplacians.
    """
    p, r = report.label
    lead = OpType(p, r)
    # the raised symbol of phi: the term <p|r> of both operators
    want = xi_raise(phi.sym, phi.metric)
    out = {"leading_is_phi": True, "level_bound": True, "order_bound": True,
           "delta_power_bound": True}
    for op in (report.S_std, report.Sp_std):
        terms = op.terms
        if terms.get(lead, Poly.zero(want.nvars)) != want:
            out["leading_is_phi"] = False
        if not all(t.level <= p + r for t in terms) or \
                max(terms, key=OpType.sort_key, default=None) != lead:
            out["level_bound"] = False
        if not all(t.order <= p + 2 * r and
                   (t.order < p + 2 * r or t == lead) for t in terms):
            out["order_bound"] = False
        if not all(t.r <= r for t in terms):
            out["delta_power_bound"] = False
    out["all"] = all(out.values())
    return out


def verify_commute_doubleD(metric, k, p=1):
    """Coupled Delta^k commutes with a string of p double-D operators,
    on the full symbol (one plane-wave run)."""
    w = Q(2 * k - metric.n, 2)
    f = TractorField.density(metric, w, Poly.const(2 * metric.n, 1))
    lhs = f
    for _ in range(p):
        lhs = double_D(lhs)
    lhs = laplacian_power(lhs, k).with_weight(w - 2 * k)
    rhs = laplacian_power(f, k).with_weight(w - 2 * k)
    for _ in range(p):
        rhs = double_D(rhs)
    return lhs == rhs


def verify_fund_equals_double(phi, label, weight):
    """The double-D and fundamental-derivative forms of S agree, on the
    full symbol (one plane-wave run)."""
    label = CKTLabel(*label)
    I = ckt.split(phi, label)
    S1 = build_S(I, label, weight, use_fund=False, check_parallel=False)
    S2 = build_S(I, label, weight, use_fund=True, check_parallel=False)
    wave = Poly.const(2 * phi.metric.n, 1)  # e^{xi.x}
    return S1(wave) == S2(wave)


def gjms_factorization_check(metric, k):
    """(-1)^k X..X Delta^k = D..D on weight k - n/2 densities, on the
    full symbol (one plane-wave run)."""
    w = Q(2 * k - metric.n, 2)
    f = TractorField.density(metric, w, Poly.const(2 * metric.n, 1))
    lhs = f
    for _ in range(k):
        lhs = laplacian(lhs).with_weight(lhs.weight - 2)
    for _ in range(k):
        lhs = x_mult(lhs)
    lhs = lhs.scale(Q(-1) ** k)
    rhs = f
    for _ in range(k):
        rhs = tractor_D(rhs)
    return lhs == rhs


# ----------------------------------------------------------------------
# C-matrices and their regularity
# ----------------------------------------------------------------------

def c_scalar(s, k):
    """C^s(k) = 2^s binomial(k, s); zero outside 0 <= s <= k."""
    if s < 0 or s > k:
        return ZERO
    return Q(2) ** s * binom(k, s)


def c_matrix(k, d):
    """The (k-d) x (k-d) matrix with entries C^{k-d+s-t}(k)."""
    if not 0 <= d <= k - 1:
        raise ValueError("need 0 <= d <= k-1")
    m = k - d
    return ExactMatrix([[c_scalar(m + s - t, k) for t in range(m)]
                        for s in range(m)])


def regularity(k, d):
    """Exact invertibility of the C-matrix."""
    return c_matrix(k, d).det() != ZERO


def reduction_chain(k, d):
    """Column/row reduction of the binomial companion of the C-matrix.

    Performs the elementary-operation stages explicitly, checking the
    closed forms of the three intermediate matrices and the final unit
    upper triangular shape, and audits the determinant through every
    stage; a failed check raises CKTError naming the stage and entry.
    Returns the four matrices and the determinant bookkeeping.
    """
    if not 0 <= d <= k - 1:
        raise ValueError("need 0 <= d <= k-1")
    kd = k - d

    def check(stage, D, want):
        for s in range(kd):
            for t in range(kd):
                if D[s][t] != want(s, t):
                    raise CKTError(
                        f"reduction chain k={k}, d={d}, {stage}: entry "
                        f"({s},{t}) is {D[s][t]}, expected {want(s, t)}")

    # companion matrix: entries binom(k, kd+s-t), differing from the
    # C-matrix entries by the power 2^{kd+s-t}
    Ct = [[binom(k, kd + s - t) for t in range(kd)] for s in range(kd)]
    det_tilde = det(Ct)
    detC = c_matrix(k, d).det()
    if detC != Q(2) ** (kd * kd) * det_tilde:
        raise CKTError(f"reduction chain k={k}, d={d}, companion: det C = "
                       f"{detC}, expected 2^{kd * kd} * {det_tilde}")

    M = [row[:] for row in Ct]
    # stage 1: repeated right-to-left column additions
    for step in range(1, kd):
        for t in range(kd - step):
            for s in range(kd):
                M[s][t] += M[s][t + 1]
    D1 = [row[:] for row in M]
    check("stage 1", D1, lambda s, t: binom(k + kd - t - 1, kd + s - t))

    # stage 2: column then row scalings
    mult = ONE
    for t in range(kd):
        c = Q(1, factorial(k + kd - t - 1))
        mult *= c
        for s in range(kd):
            M[s][t] *= c
    for s in range(kd):
        c = Q(factorial(k - s - 1))
        mult *= c
        for t in range(kd):
            M[s][t] *= c
    D2 = [row[:] for row in M]
    check("stage 2", D2, lambda s, t: Q(1, factorial(kd + s - t)))

    # stage 3: row then column scalings
    for s in range(kd):
        c = Q(factorial(kd + s))
        mult *= c
        for t in range(kd):
            M[s][t] *= c
    for t in range(kd):
        c = Q(1, factorial(t))
        mult *= c
        for s in range(kd):
            M[s][t] *= c
    D3 = [row[:] for row in M]
    check("stage 3", D3, lambda s, t: binom(kd + s, kd + s - t))

    # stage 4: upward row subtractions
    for step in range(1, kd):
        for s in range(kd - 1, step - 1, -1):
            M[s] = [a - b for a, b in zip(M[s], M[s - 1])]
    D4 = [row[:] for row in M]
    # unit upper triangular; entries above the diagonal are free
    check("stage 4", D4,
          lambda s, t: D4[s][t] if t > s else (ONE if t == s else ZERO))
    # additions and subtractions preserve the determinant; scalings
    # multiply it by the recorded factor
    det4 = det(D4)
    if not det_tilde * mult == det4 == ONE:
        raise CKTError(f"reduction chain k={k}, d={d}, determinant audit: "
                       f"{det_tilde} * {mult} = {det_tilde * mult}, "
                       f"det D4 = {det4}, expected 1")
    return {"D1": ExactMatrix(D1), "D2": ExactMatrix(D2),
            "D3": ExactMatrix(D3), "D4": ExactMatrix(D4),
            "det": detC, "det_companion": det_tilde,
            "power_of_two": kd * kd}


# ----------------------------------------------------------------------
# constraint matrix of the classification argument
# ----------------------------------------------------------------------

def extract_constraint_matrix(k, p, r, metric=None, seed=0):
    """Coefficient matrix of the leading-level symmetry constraints.

    Composes Delta^k with each single level-(p+r) term built on a random
    trace-free coefficient and reads off, for every target type of level
    p+r+k, the scalar relating the resulting coefficient to the
    trace-free symmetrized gradient of the input.  Raises CKTError unless
    the matrix equals the C-matrix with d = k-r-1.
    """
    if not 0 <= r < k:
        raise ValueError("need 0 <= r < k")
    if metric is None:
        metric = Metric.euclidean(3)
    n = metric.n
    rng = random.Random(seed)
    lap = StdOp.laplacian_power(metric, k).sym
    mat = [[None] * (r + 1) for _ in range(r + 1)]
    for q2 in range(r + 1):
        rank = p + q2
        rdeg = r - q2
        phi = random_tracefree(metric, rank, 2 * r + 2, rng)
        # release the previous symbols before composing
        by_order = grad = None
        # the xi-degrees o read below come from |gamma| = r - q2 + 1 + q
        by_order = by_xi_degree(
            compose_raw(lap, StdOp.from_coeff(phi, rdeg).sym,
                        levels=range(r - q2 + 1, 2 * r - q2 + 2)), n)
        # one chain of symmetrized gradients (xi . d_x)^s sigma(phi)
        grad = phi.sym
        for _ in range(r - q2):
            grad = xi_dx(grad, n)
        for q in range(r + 1):
            R = k - q - 1
            s = r + q - q2 + 1
            o = p + r + 2 * k - q - 1
            # each xi-degree is read once: pop releases it
            part = by_order.pop(o, Poly.zero(2 * n))
            for _ in range(R):
                part = xi_laplacian(part, metric)
            lhs = xi_reduce(part, metric)
            grad = xi_dx(grad, n)
            # sigma of the trace-free part of nabla^s phi
            oracle = next(harmonic_parts(grad, metric, rank + s))
            if oracle.is_zero():
                raise CKTError("degenerate sample; re-run with a new seed")
            # oracle . nabla^s Delta^R has symbol Q^R h, h the raised
            # oracle, harmonic of xi-degree rank + s; Delta_xi^R takes it
            # to harmonic_norm(n, rank + s, R) h
            probe = xi_reduce(xi_raise(oracle, metric), metric).scale(
                harmonic_norm(n, rank + s, R))
            # lhs must be an exact scalar multiple of the probe
            a = next((lhs.coeff(e) / probe.coeff(e) for e in probe.nums),
                     ZERO)
            if lhs != probe.scale(a):
                raise CKTError("constraint coefficient is not scalar")
            want = c_scalar(r + q - q2 + 1, k)
            if a != want:
                raise CKTError(f"constraint entry ({q},{q2}) for k={k}, "
                               f"p={p}, r={r} is {a}, expected {want}")
            mat[q][q2] = a
    return ExactMatrix(mat)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

class ClassificationError(Exception):
    """Raised when the input operator is not a symmetry."""


def classify(op, k):
    """Decompose a symmetry of Delta^k into canonical pieces.

    Terms with at least k Laplacians are moved to a trivial right-factor
    tail first.  The remainder is consumed greedily: the greatest term's
    coefficient must solve its defining equation (otherwise the operator
    is rejected), and subtracting the matching canonical symmetry
    strictly lowers the greatest term.

    Returns (pieces, tail) where pieces is a list of (label, phi) and
    tail is a StdOp T such that op = sum of canonical symmetries + T
    composed with Delta^k.
    """
    metric = op.metric
    n = metric.n
    w = Q(2 * k - n, 2)
    tail = StdOp.zero(metric)
    pieces = []
    residual, last = op, None
    while terms := residual.terms:
        t = max(terms, key=OpType.sort_key)
        if last is not None and t.sort_key() >= last.sort_key():
            raise ClassificationError(
                f"subtracting the canonical symmetry for {last!r} left "
                f"greatest term {t!r}; no strict decrease")
        last, P = t, terms[t]
        if t.r >= k:
            # phi nabla^p Delta^r = (phi nabla^p Delta^{r-k}) Delta^k
            tail = tail + StdOp(metric, {(t.p, t.r - k): P})
            residual = residual - StdOp(metric, {t: P})
            continue
        phi = SymTensor.wrap(metric, t.p, xi_raise(P, metric))
        label = CKTLabel(t.p, t.r)
        viol = ckt.ckt_apply(phi, t.r)
        if not viol.is_zero():
            raise ClassificationError(
                f"greatest term {t!r} violates its defining equation; "
                "not a symmetry")
        I = ckt.split(phi, label)
        S = build_S(I, label, w, check_parallel=False)
        residual = residual - S.std_op()
        pieces.append((label, phi))
    return pieces, tail
