"""Acceptance gate: the ten headline verification criteria.

Each test prints a single summary line; all checks are exact equalities
over the rationals (no tolerances anywhere).
"""

import random

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly
from tractor_symm.tensor import Metric, random_tracefree
from tractor_symm.diffop import StdOp
from tractor_symm.tractor import (TractorField, SlotKind, tractor_D,
                                  double_D, fund_D, x_mult, permute_slots,
                                  contract, pair_space)
from tractor_symm import ckt, canon, algebra

from conftest import solved_basis, random_poly, dense_h, dense_W


MET3 = Metric.euclidean(3)


def _line(num, name, ok):
    print("criterion %2d (%s): %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_01_dimension_table():
    ok = True
    for n in (3, 4):
        for (p, r) in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)):
            ok = ok and len(solved_basis(n, p, r)) == ckt.weyl_dim(n, p, r)
    for (p, r), want in (((0, 0), 1), ((1, 0), 10), ((2, 0), 35),
                         ((0, 1), 14), ((1, 1), 81)):
        ok = ok and len(solved_basis(3, p, r)) == want
    _line(1, "dimension table", ok)


def test_criterion_02_symmetry_identity():
    ok = True
    for k in (1, 2, 3):
        labels = [(1, 0)] + ([(0, 1)] if k >= 2 else [])
        for (p, r) in labels:
            for phi in solved_basis(3, p, r):
                rep = canon.verify_symmetry(phi, (p, r), k)
                ok = ok and rep.verdict
    _line(2, "Delta^k S = S' Delta^k", ok)


def test_criterion_03_gjms_factorization():
    ok = True
    for k in (1, 2):
        for n in (3, 4):
            ok = ok and canon.gjms_factorization_check(
                Metric.euclidean(n), k)
    _line(3, "GJMS factorization", ok)


def test_criterion_04_dec2can_full_sweep():
    basis = solved_basis(3, 1, 0)
    ok = True
    for phi in basis:
        for phib in basis:
            for w in (Q(-1, 2), Q(2), Q(0)):
                rep = algebra.verify_dec2can(phi, phib, w)
                ok = ok and rep["all"]
    # the four summands are themselves canonical symmetries: verify the
    # three non-scalar products at k = 2 and match the pairing oracle
    phi, phib = basis[7], basis[3]
    I, J, box, bu, br, kl = algebra.dec2can_products(phi, phib)
    prods = [((2, 0), ckt.extract(box, ckt.CKTLabel(2, 0))),
             ((0, 1), ckt.extract(bu, ckt.CKTLabel(0, 1))),
             ((1, 0), ckt.extract(br, ckt.CKTLabel(1, 0)))]
    for label, part in prods:
        if not part.is_zero():
            rep = canon.verify_symmetry(part, label, 2)
            ok = ok and rep.verdict
    ok = ok and kl == algebra.killing_oracle(phi, phib)
    _line(4, "composition decomposition", ok)


def test_criterion_05_ideal_relation():
    basis = solved_basis(3, 1, 0)
    ok = algebra.ideal_coefficient(3, 1) == Q(1, 48)
    ok = ok and algebra.ideal_coefficient(3, 2) == Q(-7, 240)
    rng = random.Random(17)
    for k in (1, 2):
        for _ in range(3):
            i, j = rng.randrange(10), rng.randrange(10)
            ok = ok and algebra.ideal_relation_check(
                basis[i], basis[j], k)
    _line(5, "quadratic ideal relation", ok)


def test_criterion_06_scalar_lemma():
    ok = True
    for k in (1, 2):
        ok = ok and algebra.lemma_extra_check(k, MET3)
    _line(6, "scalar generators give sigma Delta^k", ok)


def test_criterion_07_regularity():
    ok = all(canon.c_matrix(k, d).det() != 0
             for k in range(1, 13) for d in range(k))
    count = sum(1 for k in range(1, 13) for d in range(k))
    ok = ok and count == 78
    for k in range(1, 7):
        for d in range(k):
            canon.reduction_chain(k, d)  # asserts closed forms internally
    _line(7, "C-matrix regularity", ok)


def test_criterion_08_constraint_matrices():
    ok = True
    for k in range(1, 5):
        for r in range(k):
            for p in range(3):
                M = canon.extract_constraint_matrix(k, p, r)
                ok = ok and M == canon.c_matrix(k, k - r - 1)
    # the k=4, r=3 worked table
    M = canon.extract_constraint_matrix(4, 0, 3)
    want = canon.c_matrix(4, 0)
    ok = ok and M == want
    _line(8, "constraint-matrix extraction", ok)


def test_criterion_09_classification_roundtrip():
    rng = random.Random(23)
    ok = True
    for trial in range(20):
        k = 1 + (trial % 2)
        metric = MET3
        w = Q(2 * k - 3, 2)
        op = StdOp.zero(metric)
        gens = []
        labels = [(1, 0)] + ([(0, 1)] if k >= 2 else [])
        for lab in labels:
            basis = solved_basis(3, *lab)
            phi = basis[rng.randrange(len(basis))]
            I = ckt.split(phi, ckt.CKTLabel(*lab))
            op = op + canon.build_S(I, lab, w, check_parallel=False)
            gens.append((lab, phi))
        tail = StdOp.from_coeff(random_tracefree(metric, 1, 1, rng), 0)
        op = op + tail.compose(StdOp.laplacian_power(metric, k))
        pieces, got_tail = canon.classify(op, k)
        ok = ok and got_tail == tail
        for lab, phi in gens:
            ok = ok and any(tuple(l) == tuple(lab) and p == phi
                            for l, p in pieces)
        ok = ok and len(pieces) == len(gens)
    _line(9, "classification round-trip", ok)


def test_criterion_10_operator_calculus():
    n = 3
    rng = random.Random(31)
    Wm = dense_W(dense_h(MET3.key()))
    ok = True
    # double-D trace: D^A D_A = -2w(n+w) with form-index contraction
    for w in (Q(0), Q(2), Q(-1, 2)):
        f = random_poly(n, 3, rng)
        t = double_D(double_D(TractorField.density(MET3, w, f)))
        s = Poly.zero(n)
        for (p, q), val in t.comps.items():
            if Wm[p][q]:
                s = s + val.scale(Wm[p][q])
        ok = ok and s == f.scale(-2 * w * (n + w))
    # [D_A, X_B] = -2 DD_{AB} + (n+2w) h_{AB}
    h = dense_h(MET3.key())
    ps = pair_space(n)
    for w in (Q(0), Q(2), Q(-3, 2)):
        f = TractorField.density(MET3, w, random_poly(n, 3, rng))
        comm = tractor_D(x_mult(f)) - permute_slots(
            x_mult(tractor_D(f)), (1, 0))
        want = TractorField(MET3, w, (SlotKind.STD, SlotKind.STD))
        for (pi,), p in double_D(f).comps.items():
            a, b = ps.pairs[pi]
            want.add_to((a, b), p.scale(-2))
            want.add_to((b, a), p.scale(2))
        for idx, p in f.comps.items():
            for A in range(n + 2):
                for B in range(n + 2):
                    if h[A][B]:
                        want.add_to((A, B) + idx,
                                    p.scale((n + 2 * w) * h[A][B]))
        ok = ok and comm == want
    # fundamental derivative commutes with double-D
    for w in (Q(0), Q(2)):
        f = TractorField.density(MET3, w, random_poly(n, 2, rng))
        ok = ok and fund_D(double_D(f)) == permute_slots(
            double_D(fund_D(f)), (1, 0))
    # Lie derivative property on E[w] and on covectors, all 10 fields
    ckvs = solved_basis(3, 1, 0)
    for w in (Q(2), Q(0), Q(-1, 2)):
        for phi in ckvs:
            I = ckt.split(phi, ckt.CKTLabel(1, 0))
            f = TractorField.density(MET3, w, random_poly(n, 4, rng))
            ok = ok and contract(I, double_D(f)) == ckt.lie_derivative(
                phi, f)
            fld = TractorField(MET3, w, (SlotKind.VEC,))
            for a in range(n):
                fld.add_to((a,), random_poly(n, 3, rng))
            ok = ok and contract(I, double_D(fld)) == ckt.lie_derivative(
                phi, fld)
    # fundamental and double constructions agree on parallel contractions
    ok = ok and canon.verify_fund_equals_double(ckvs[4], (1, 0), Q(1))
    sig = solved_basis(3, 0, 1)[3]
    ok = ok and canon.verify_fund_equals_double(sig, (0, 1), Q(-1, 2))
    _line(10, "operator-calculus invariants", ok)
