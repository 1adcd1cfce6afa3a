"""Generalised conformal Killing tensors and their tractor splittings.

A solution of label (p, r) is a trace-free symmetric rank-p tensor of
weight 2p + 2r whose symmetrized trace-free (2r+1)-st gradient vanishes.
Solutions are polynomial; the solver works degree by degree on the
equivalent formulation

    sym(nabla^{2r+1} phi) = sym(g . rho)

with an auxiliary symmetric tensor rho, which keeps the linear systems
sparse and integral.  The equations commute with d_a, so an empty degree
is followed only by empty ones and the solver stops at the first.  The
dimension of the full solution space is checked against the Weyl
dimension formula for so(n+2) with highest weight (2r+p, p, 0, ...).
A solution is returned as its symbol: the unknown phi_m x^e is the term
nord(m) x^e xi^m of sigma(phi), and the symmetrized gradient, the
trace-free part, the split's target and the extracted projecting part
are all maps on symbols.

The splitting operator embeds a solution as a parallel section of the
tractor bundle with p skew pairs and 2r symmetric standard slots; it is
computed by solving for the fiber value at the origin, using that
parallel sections are polynomial exponentials of the (nilpotent, flat)
connection.
"""

from functools import lru_cache
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import factorial, lcm

from .scalars import Q, ZERO, ONE
from .poly import Poly, monomials_of_degree
from .tensor import (Metric, SymTensor, multisets, nord, exponent, multiset,
                     harmonic_parts, xi_raise, xi_dx, tractor_metric)
from .tractor import (TractorField, SlotKind, pair_space, parallel_extend,
                      nabla)
from . import linalg


class CKTLabel(tuple):
    def __new__(cls, p, r):
        if p < 0 or r < 0:
            raise ValueError(f"label ({p}, {r}) needs p >= 0 and r >= 0")
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
    metric, rank = phi.metric, phi.rank + q
    sym = phi.sym
    for _ in range(q):
        sym = xi_dx(sym, metric.n)
    return SymTensor.wrap(metric, rank,
                          next(harmonic_parts(sym, metric, rank)))


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
        rho = [Q(2 * (m - i) - 1, 2) for i in range(m)]
        roots = [tuple((1 if k == i else 0) for k in range(m))
                 for i in range(m)]
    else:  # D_m
        rho = [Q(m - 1 - i) for i in range(m)]
        roots = []
    for i in range(m):
        for j in range(i + 1, m):
            for s in (1, -1):
                root = [0] * m
                root[i], root[j] = 1, s
                roots.append(tuple(root))
    num = den = ONE
    l = [a + b for a, b in zip(lam, rho)]
    for root in roots:
        num *= sum(c * x for c, x in zip(root, l))
        den *= sum(c * x for c, x in zip(root, rho))
    d = num / den
    if d.denominator != 1 or d <= 0:
        raise CKTError(f"Weyl dimension of label ({p},{r}) on n={n} "
                       f"is {d}, not a positive integer")
    return int(d)


def solve(metric, label):
    """Exact basis of all polynomial solutions with the given label, as a
    list of SymTensors.

    Works degree by degree (the equation has constant coefficients, so
    the solution space is graded) and stops at the first empty degree:
    d_a maps a degree-d solution (phi, rho) to a degree-(d-1) one, and a
    homogeneous polynomial of degree >= 1 with zero gradient is zero, so
    all later degrees are empty too.  Raises CKTError, naming both
    counts, unless the count equals the Weyl dimension formula, or when
    no degree up to 4(p + 2r) + 8 is empty.
    """
    p, r = label
    label = CKTLabel(p, r)
    expected = weyl_dim(metric.n, p, r)
    sols = []
    for d in range(4 * (p + 2 * r) + 9):
        found = _solve_degree(metric, label, d)
        if not found:
            break
        sols.extend(found)
    else:
        raise CKTError(f"label {label}: no empty degree up to {d}")
    if len(sols) != expected:
        raise CKTError(
            f"label {label}: found {len(sols)} solutions up to degree "
            f"{d}, expected {expected}")
    return sols


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

    # the kernel basis is fixed by the column order; reversed rows fill less
    basis = linalg.kernel(rows[::-1], ncols)
    # each phi column (m, e) is the symbol term nord(m) x^e xi^m
    out = []
    inv_cols = {v: k for k, v in cols.items()}
    for i, v in enumerate(basis):
        phi = [(inv_cols[j][1:], v[j]) for j in sorted(v)
               if inv_cols[j][0] == "phi"]
        if not phi:
            raise CKTError(f"label {label}, degree {d}: kernel vector {i} "
                           "has a vanishing tensor part")
        den = lcm(*(c.denominator for _, c in phi))
        nums = {e + exponent(m, n): c.numerator * (den // c.denominator)
                * nord(m) for (m, e), c in phi}
        out.append(SymTensor.wrap(metric, p, Poly.wrap(2 * n, nums, den),
                                  weight=label.weight))
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
    h = tractor_metric(metric.key())
    rows = {}

    def addrow(key, col, v):
        rows.setdefault(key, {})[col] = rows.setdefault(key, {}).get(col, ZERO) + v

    same_pair = {(2 * s, 2 * s + 1) for s in range(p)}
    for col, ex in enumerate(expanded_cols):
        for idx, val in ex.items():
            # traces
            for (u, v) in combinations(range(nm), 2):
                ubar, hv = h[idx[u]]
                if (u, v) in same_pair or idx[v] != ubar:
                    continue
                rest = tuple(x for i, x in enumerate(idx) if i not in (u, v))
                addrow(("tr", u, v, rest), col, hv * val)
            # three-member skews: only distinct members survive, with
            # the sign of the permutation that sorts them
            for (u, v, w) in combinations(range(nm), 3):
                a, b, c = idx[u], idx[v], idx[w]
                if len({a, b, c}) < 3:
                    continue
                sgn = (-1) ** ((a > b) + (a > c) + (b > c))
                rest = tuple(x for i, x in enumerate(idx)
                             if i not in (u, v, w))
                addrow(("skew", u, v, w, tuple(sorted((a, b, c))), rest),
                       col, sgn * val)
    return [row for row in rows.values() if any(row.values())]


def _extract_symbol(t, label):
    """Projecting part of ``t`` as an upper-index symbol in (x, xi):
    sum over ordered index tuples aa of 2^p t^{(0,a1+1)..(0,ap+1),0..0}
    xi^aa.  Each form slot is contracted with 2 X Z, leaving a tensor
    index, and each standard slot with X; the pair (0, a+1) is already
    in order, so no sign enters."""
    p, r = label
    n = t.metric.n
    ps = pair_space(n)
    out = Poly.zero(2 * n)
    for aa in product(range(n), repeat=p):
        v = t.comps.get(tuple(ps.index[(0, a + 1)] for a in aa)
                        + (0,) * (2 * r))
        if v is not None:
            ex = exponent(aa, n)
            out = out + Poly.wrap(2 * n, {e + ex: c for e, c in
                                          v.nums.items()}, v.den)
    return out.scale(2 ** p)


def extract(t, label):
    """Projecting part of a tractor field with the shape of ``label``,
    with lowered indices, as a SymTensor of weight 2p + 2r."""
    metric = t.metric
    return SymTensor.wrap(metric, label[0],
                          xi_raise(_extract_symbol(t, label), metric),
                          weight=CKTLabel(*label).weight)


@lru_cache(maxsize=None)
def _split_plan(sig, label):
    """The phi-independent part of a split: the reduced coordinates'
    expanded fibers, the Cartan rows and the extraction rows, keyed by
    the 2n-exponents of the projecting part's symbol.  linalg.solve
    does not modify rows; nothing mutates them."""
    metric = Metric(*sig)
    slots = _shape_slots(label)
    red = _reduced_fiber(metric, label)
    expanded_cols = [_expand_reduced(metric, label, c) for c in red]
    members_cols = [_expanded_members(metric, label, e) for e in expanded_cols]
    crows = _cartan_constraint_rows(metric, label, members_cols)
    ext = {}
    for j, ex in enumerate(expanded_cols):
        ti = parallel_extend(TractorField(metric, 0, slots, ex))
        for e, c in _extract_symbol(ti, label).terms.items():
            ext.setdefault(e, {})[j] = c
    return expanded_cols, crows, ext


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
    if phi.rank != p:
        raise ValueError(f"splitting a rank-{phi.rank} tensor with label "
                         f"{tuple(label)}")
    expanded_cols, crows, ext = _split_plan(metric.key(), label)
    # extraction equations, one per monomial in (x, xi): the projecting
    # part of the extension must have phi's symbol (raised, to compare
    # upper parts), with its numerators as the right-hand side
    target = xi_raise(phi.sym, metric)
    keys = ext.keys() | target.nums.keys()
    rows = crows + [ext.get(k, {}) for k in keys]
    rhs = [0] * len(crows) + [target.nums.get(k, 0) for k in keys]
    try:
        cvec = linalg.solve(rows, rhs, len(expanded_cols))
    except linalg.InconsistentSystem:
        raise CKTError(
            f"tensor is not a solution for label {label}: the parallel "
            "extension problem is obstructed")
    except linalg.LinAlgError:
        raise CKTError(f"splitting for label {label} is not determined")
    t0 = TractorField(metric, 0, _shape_slots(label))
    for c, ex in zip(cvec, expanded_cols):
        if c:
            c /= target.den
            for idx, v in ex.items():
                t0.add_to(idx, Poly.const(metric.n, v * c))
    return parallel_extend(t0)


# ----------------------------------------------------------------------
# Lie derivative
# ----------------------------------------------------------------------

def lie_derivative(phi, field):
    """Lie derivative along a conformal Killing field.

    ``phi`` is a label (1,0) solution (weight-2 covector components).
    Acts on weighted fields with covector slots: transport plus the
    density weight term -(w/n) div(phi) plus the usual covector-slot
    action.
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
