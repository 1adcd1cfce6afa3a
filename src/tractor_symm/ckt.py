"""Generalised conformal Killing tensors and their tractor splittings.

A solution of label (p, r) is a trace-free symmetric rank-p tensor of
weight 2p + 2r whose symmetrized trace-free (2r+1)-st gradient vanishes.
Solutions are polynomial; the solver works degree by degree on the
equivalent formulation

    sym(nabla^{2r+1} phi) = sym(g . rho)

with an auxiliary symmetric tensor rho, which keeps the linear systems
sparse and integral.  The dimension of the full solution space is checked
against the Weyl dimension formula for so(n+2) with highest weight
(2r+p, p, 0, ...).

The splitting operator embeds a solution as a parallel section of the
tractor bundle with p skew pairs and 2r symmetric standard slots; it is
computed by solving for the fiber value at the origin, using that
parallel sections are polynomial exponentials of the (nilpotent, flat)
connection.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

from .scalars import Q, ZERO, ONE
from .poly import Poly, monomials_of_degree
from .tensor import (SymTensor, multisets, nord, exponent, multiset,
                     trace_free, sym_part, symbol, from_symbol, xi_dx)
from .tractor import (TractorField, SlotKind, pair_space, hmat,
                      parallel_extend, nabla)
from . import linalg


class CKTLabel(tuple):
    def __new__(cls, p, r):
        assert p >= 0 and r >= 0
        return super().__new__(cls, (p, r))

    @property
    def p(self):
        return self[0]

    @property
    def r(self):
        return self[1]

    @property
    def weight(self):
        return 2 * self[0] + 2 * self[1]

    def __repr__(self):
        return f"CKTLabel({self[0]},{self[1]})"


class CKTError(Exception):
    pass


def grad_sym0(phi, q):
    """Trace-free symmetric part of the q-th gradient of phi.

    On symbols the symmetrized gradient is multiplication by xi . d_x.
    """
    sym = symbol(phi)
    for _ in range(q):
        sym = xi_dx(sym, phi.metric.n)
    return trace_free(from_symbol(sym, phi.metric, phi.rank + q))


def ckt_apply(phi, r):
    """Left-hand side of the defining equation: [nabla^{2r+1} phi]_0.

    Returns the trace-free symmetric part of the (2r+1)-st gradient, a
    SymTensor of rank p + 2r + 1.  phi is a solution iff this vanishes.
    """
    return grad_sym0(phi, 2 * r + 1)


def weyl_dim(n, p, r):
    """Weyl dimension formula for so(n+2), highest weight (2r+p, p, 0, ..)."""
    N = n + 2
    m = N // 2
    lam = [0] * m
    lam[0] = 2 * r + p
    if m > 1:
        lam[1] = p
    if N % 2:  # B_m
        rho = [Fraction(2 * (m - i) - 1, 2) for i in range(m)]
        roots = [tuple((1 if k == i else 0) for k in range(m))
                 for i in range(m)]
    else:  # D_m
        rho = [Fraction(m - 1 - i) for i in range(m)]
        roots = []
    for i in range(m):
        for j in range(i + 1, m):
            for s in (1, -1):
                root = [0] * m
                root[i], root[j] = 1, s
                roots.append(tuple(root))
    num = den = Fraction(1)
    l = [Fraction(a) + b for a, b in zip(lam, rho)]
    for root in roots:
        num *= sum(c * x for c, x in zip(root, l))
        den *= sum(c * x for c, x in zip(root, rho))
    d = num / den
    assert d.denominator == 1 and d > 0
    return int(d)


class CKTBasis:
    def __init__(self, metric, label, solutions):
        self.metric = metric
        self.label = label
        self.solutions = solutions

    def __len__(self):
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def __getitem__(self, i):
        return self.solutions[i]


def solve(metric, label, max_degree=None, check_dimension=True):
    """Exact basis of all polynomial solutions with the given label.

    Works degree by degree (the equation has constant coefficients, so
    the solution space is graded).  Stops once two consecutive degrees
    are empty and, when ``check_dimension`` is set, the total count
    matches the Weyl dimension formula; raises CKTError otherwise.
    """
    p, r = label
    label = CKTLabel(p, r)
    n = metric.n
    expected = weyl_dim(n, p, r) if check_dimension else None
    soft_cap = 2 * (p + 2 * r) + 2
    hard_cap = max_degree if max_degree is not None else 2 * soft_cap + 4
    sols = []
    empty_run = 0
    d = 0
    while d <= hard_cap:
        found = _solve_degree(metric, label, d)
        sols.extend(found)
        empty_run = empty_run + 1 if not found else 0
        d += 1
        if d > soft_cap and empty_run >= 2:
            if expected is None or len(sols) == expected:
                return CKTBasis(metric, label, sols)
    if expected is not None and len(sols) != expected:
        raise CKTError(
            f"label {label}: found {len(sols)} solutions up to degree "
            f"{hard_cap}, expected {expected}")
    return CKTBasis(metric, label, sols)


def _solve_degree(metric, label, d):
    """Homogeneous degree-d solutions of the defining equation."""
    p, r = label
    n = metric.n
    q = 2 * r + 1
    phi_sets = multisets(n, p)
    phi_monos = list(monomials_of_degree(n, d))
    cols = {}
    for m in phi_sets:
        for e in phi_monos:
            cols[("phi", m, e)] = len(cols)
    dr = d - q
    out_monos = list(monomials_of_degree(n, dr)) if dr >= 0 else []
    has_rho = dr >= 0 and p + q >= 2
    rho_sets = multisets(n, p + q - 2) if has_rho else []
    for m in rho_sets:
        for e in out_monos:
            cols[("rho", m, e)] = len(cols)
    ncols = len(cols)

    rows = []
    # trace-freeness of phi
    if p >= 2:
        for m2 in multisets(n, p - 2):
            for e in phi_monos:
                row = {}
                for a in range(n):
                    c = cols[("phi", tuple(sorted(m2 + (a, a))), e)]
                    row[c] = row.get(c, 0) + int(metric.eps[a])
                rows.append({k: v for k, v in row.items() if v})
    # sym(nabla^q phi) = sym(g . rho), row per output multiset and monomial,
    # summed over the orderings o of M: the nord(D) nord(M - D) orderings
    # that put the sub-multiset D on the q derivative slots, and the
    # nord(M - {a, a}) that start with the trace pair (a, a)
    if dr >= 0:
        for M in multisets(n, p + q):
            aM = exponent(M, n)
            grads = []
            for beta in monomials_of_degree(n, q):
                if all(b <= a for a, b in zip(aM, beta)):
                    rest = multiset(tuple(a - b for a, b in zip(aM, beta)))
                    w = nord(multiset(beta)) * nord(rest)
                    grads.append((beta, rest, w))
            traces = []
            if has_rho:
                for a in range(n):
                    if aM[a] >= 2:
                        rest = multiset(aM[:a] + (aM[a] - 2,) + aM[a + 1:])
                        traces.append((rest, int(metric.eps[a]) * nord(rest)))
            for e in out_monos:
                row = {}
                for beta, rest, w in grads:
                    src = tuple(x + b for x, b in zip(e, beta))
                    mult = w
                    for x, b in zip(e, beta):
                        mult *= factorial(x + b) // factorial(x)
                    c = cols[("phi", rest, src)]
                    row[c] = row.get(c, 0) + mult
                for rest, w in traces:
                    c2 = cols[("rho", rest, e)]
                    row[c2] = row.get(c2, 0) - w
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)

    if rows and linalg.has_full_column_rank_mod(rows, ncols):
        return []
    basis = linalg.kernel_sparse(rows, ncols) if rows else \
        [[ONE if j == i else ZERO for j in range(ncols)] for i in range(ncols)]
    out = []
    inv_cols = {v: k for k, v in cols.items()}
    for i, v in enumerate(basis):
        t = SymTensor(metric, p, weight=label.weight)
        nonzero_phi = False
        for j, c in enumerate(v):
            if not c:
                continue
            kind, m, e = inv_cols[j]
            if kind == "phi":
                nonzero_phi = True
                t.add_to(m, Poly.monomial(n, e, c))
        if not nonzero_phi:
            raise CKTError(f"label {label}, degree {d}: kernel vector {i} "
                           "has a vanishing tensor part")
        out.append(t)
    return out


# ----------------------------------------------------------------------
# splitting operator
# ----------------------------------------------------------------------

def _shape_slots(label):
    p, r = label
    return (SlotKind.FORM,) * p + (SlotKind.STD,) * (2 * r)


def _reduced_fiber(metric, label):
    """Symmetry-reduced fiber coordinates: multisets of pair indices for
    the form block and multisets of standard indices for the trace block."""
    p, r = label
    n = metric.n
    P = pair_space(n).npairs()
    fsets = list(combinations_with_replacement(range(P), p))
    ssets = list(combinations_with_replacement(range(n + 2), 2 * r))
    return [(f, s) for f in fsets for s in ssets]


def _expand_reduced(metric, label, coord):
    """Dense fiber tensor (dict slot-index tuple -> Q) of one reduced
    coordinate, symmetrized over the form block and the trace block."""
    f, s = coord
    p, r = label
    out = {}
    fords = sorted(set(permutations(f))) if p else [()]
    sords = sorted(set(permutations(s))) if r else [()]
    w = Q(1, len(fords) * len(sords))
    for fo in fords:
        for so in sords:
            idx = fo + so
            out[idx] = out.get(idx, ZERO) + w
    return {k: v for k, v in out.items() if v}


def _expanded_members(metric, label, fiber):
    """Fully expanded member-index tensor of a fiber value.

    Form-pair slots are opened into two skew member indices; returns a
    dict over tuples of 2p + 2r tractor indices.
    """
    p, r = label
    ps = pair_space(metric.n)
    out = {}
    for idx, v in fiber.items():
        expansion = [((), v)]
        for s in range(p):
            A, B = ps.pairs[idx[s]]
            nxt = []
            for pref, val in expansion:
                nxt.append((pref + (A, B), val))
                nxt.append((pref + (B, A), -val))
            expansion = nxt
        for pref, val in expansion:
            key = pref + idx[p:]
            out[key] = out.get(key, ZERO) + val
    return {k: v for k, v in out.items() if v}


def _cartan_constraint_rows(metric, label, expanded_cols):
    """Rows cutting out the irreducible (Cartan) part of the fiber.

    Conditions: all h-traces over member pairs vanish (pairs inside one
    form slot are trivial) and every three-member antisymmetrization
    vanishes.  ``expanded_cols`` is the list of expanded tensors of the
    reduced coordinate basis.
    """
    p, r = label
    nm = 2 * p + 2 * r
    h = hmat(metric)
    rows = {}

    def addrow(key, col, v):
        rows.setdefault(key, {})[col] = rows.setdefault(key, {}).get(col, ZERO) + v

    same_pair = {}
    for s in range(p):
        same_pair[(2 * s, 2 * s + 1)] = True
    for col, ex in enumerate(expanded_cols):
        for idx, val in ex.items():
            # traces
            for (u, v) in combinations(range(nm), 2):
                if same_pair.get((u, v)):
                    continue
                hv = h[idx[u]][idx[v]]
                if not hv:
                    continue
                rest = tuple(x for i, x in enumerate(idx) if i not in (u, v))
                addrow(("tr", u, v, rest), col, hv * val)
            # three-member skews
            for (u, v, w) in combinations(range(nm), 3):
                vals = (idx[u], idx[v], idx[w])
                key_vals = tuple(sorted(vals))
                rest = tuple(x for i, x in enumerate(idx)
                             if i not in (u, v, w))
                coeff = ZERO
                for perm in permutations(range(3)):
                    if tuple(key_vals[j] for j in perm) == vals:
                        sgn = _perm_sign(perm)
                        coeff += sgn
                if coeff:
                    addrow(("skew", u, v, w, key_vals, rest), col, coeff * val)
    return [row for row in rows.values() if any(row.values())]


def _perm_sign(perm):
    s = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def extract(t, label):
    """Projecting part of a tractor field with the shape of ``label``.

    Form slots are contracted with 2 X Z (leaving a tensor index),
    standard slots with X; the result is returned with lowered indices as
    a SymTensor of weight 2p + 2r.
    """
    metric = t.metric
    dense = {}
    for aa, v in _extract_dense(t, label).items():
        eps = ONE
        for a in aa:
            eps *= metric.eps[a]  # lower the extracted indices
        dense[aa] = v.scale(eps)
    return sym_part(dense, label[0], metric,
                    weight=CKTLabel(*label).weight)


def product_tuples(n, p):
    if p == 0:
        return [()]
    out = [()]
    for _ in range(p):
        out = [t + (a,) for t in out for a in range(n)]
    return out


def _extract_dense(t, label):
    """Projecting part as a dense upper-index dict, not symmetrized."""
    p, r = label
    metric = t.metric
    n = metric.n
    ps = pair_space(n)
    dense = {}
    for aa in product_tuples(n, p):
        idx = []
        sgn = ONE
        for a in aa:
            pi, s = ps.sign_index(0, a + 1)
            idx.append(pi)
            sgn *= s
        key = tuple(idx) + (0,) * (2 * r)
        v = t.comps.get(key)
        if v is not None:
            val = v.scale(sgn * Q(2) ** p)
            if not val.is_zero():
                dense[aa] = val
    return dense


def split(phi, label):
    """Splitting operator: the parallel tractor extending ``phi``.

    Solves for the fiber value at the origin subject to the irreducible
    shape constraints and to the requirement that the projecting part of
    the parallel extension equals phi as a polynomial identity.  Raises
    CKTError when phi is not a solution of the defining equation.
    """
    p, r = label
    label = CKTLabel(p, r)
    metric = phi.metric
    n = metric.n
    assert phi.rank == p
    slots = _shape_slots(label)
    red = _reduced_fiber(metric, label)
    expanded_cols = [_expand_reduced(metric, label, c) for c in red]
    members_cols = [_expanded_members(metric, label, e) for e in expanded_cols]
    crows = _cartan_constraint_rows(metric, label, members_cols)

    # parallel extension of each reduced coordinate, then its projecting part
    ext_dense = []
    for ex in expanded_cols:
        t0 = TractorField(metric, 0, slots, ex)
        ti = parallel_extend(t0)
        ext_dense.append(_extract_dense(ti, label))

    nred = len(red)
    rows = [[row.get(j, ZERO) for j in range(nred)] for row in crows]
    rhs = [ZERO] * len(rows)
    # extraction equations, per ordered index tuple and monomial
    monos = set()
    for dd in ext_dense:
        for v in dd.values():
            monos.update(v.terms)
    for m, ph in phi.comps.items():
        monos.update(ph.terms)
    monos = sorted(monos)
    for aa in product_tuples(n, p):
        eps = ONE
        for a in aa:
            eps *= metric.eps[a]
        target = phi.get(aa).scale(eps)  # raise phi to compare upper parts
        for e in monos:
            row = [dd.get(aa, Poly.zero(n)).coeff(e) for dd in ext_dense]
            rows.append(row)
            rhs.append(target.coeff(e))
    try:
        cvec = linalg.solve_unique(rows, rhs)
    except linalg.InconsistentSystem:
        raise CKTError(
            f"tensor is not a solution for label {label}: the parallel "
            "extension problem is obstructed")
    except linalg.LinAlgError:
        raise CKTError(f"splitting for label {label} is not determined")
    t0 = TractorField(metric, 0, slots)
    for c, ex in zip(cvec, expanded_cols):
        if c:
            for idx, v in ex.items():
                t0.add_to(idx, Poly.const(n, v * c))
    result = parallel_extend(t0)
    return result


# ----------------------------------------------------------------------
# Lie derivative
# ----------------------------------------------------------------------

def lie_derivative(phi, field, adj=None):
    """Lie derivative along a conformal Killing field.

    ``phi`` is a label (1,0) solution (weight-2 covector components).
    Acts on weighted fields with covector slots: transport plus the
    density weight term -(w/n) div(phi) plus the usual covector-slot
    action.  ``adj`` is accepted for signature compatibility but unused.
    """
    metric = phi.metric
    n = metric.n
    w = field.weight
    if any(k in (SlotKind.STD, SlotKind.FORM) for k in field.slots):
        raise ValueError("lie_derivative is defined on tensor bundles only")
    div = Poly.zero(n)
    for a in range(n):
        div = div + phi.get((a,)).diff(a).scale(metric.eps[a])
    out = TractorField(metric, w, field.slots)
    # transport term phi^b nabla_b
    nf = nabla(field)
    for idx, p in nf.comps.items():
        b = idx[0]
        up = phi.get((b,)).scale(metric.eps[b])
        if not up.is_zero():
            out.add_to(idx[1:], up * p)
    # weight term -(w/n) (div phi)
    if w:
        for idx, p in field.comps.items():
            out.add_to(idx, (div * p).scale(-Q(w) / n))
    # covector slots: (L f)_a picks up (d_a phi^b) f_b
    vslots = [s for s, k in enumerate(field.slots) if k == SlotKind.VEC]
    for idx, p in field.comps.items():
        for s in vslots:
            b = idx[s]
            up = phi.get((b,)).scale(metric.eps[b])  # phi^b
            for a in range(n):
                coef = up.diff(a)
                if coef.is_zero():
                    continue
                j = list(idx)
                j[s] = a
                out.add_to(tuple(j), coef * p)
    return out
