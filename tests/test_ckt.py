import time

import pytest

from tractor_symm.scalars import Q
from tractor_symm.poly import Poly
from tractor_symm.tensor import Metric, SymTensor
from tractor_symm.tractor import (nabla, TractorField, SlotKind, contract,
                                  double_D, pair_space)
from tractor_symm import ckt, cli
from tractor_symm.ckt import CKTLabel, weyl_dim, ckt_apply, grad_sym0

from conftest import solved_basis, random_poly, trace


MET = Metric.euclidean(3)
N = 3


DIMS_N3 = [((0, 0), 1), ((1, 0), 10), ((2, 0), 35), ((0, 1), 14),
           ((1, 1), 81)]


@pytest.mark.parametrize("label,dim", DIMS_N3)
def test_dimensions_n3(label, dim):
    assert weyl_dim(3, *label) == dim
    assert len(solved_basis(3, *label)) == dim


@pytest.mark.parametrize("sig,label", [((3, 0), lab) for lab, _ in DIMS_N3]
                         + [((2, 1), (1, 1)), ((4, 0), (1, 0)),
                            ((4, 0), (2, 0))], ids=str)
def test_empty_degree_stays_empty(sig, label):
    # d_a maps degree-d solutions to degree-(d-1) ones, so the degree
    # after the first empty one is empty as well
    metric, label = Metric(*sig), CKTLabel(*label)
    d = count = 0
    while found := ckt._solve_degree(metric, label, d):
        count += len(found)
        d += 1
    assert count == weyl_dim(metric.n, *label)
    assert ckt._solve_degree(metric, label, d) == []
    assert ckt._solve_degree(metric, label, d + 1) == []


def test_solve_count_mismatch(monkeypatch, capsys):
    # the Weyl dimension stays an independent check of the count
    monkeypatch.setattr(ckt, "weyl_dim", lambda n, p, r: 11)
    with pytest.raises(ckt.CKTError,
                       match="found 10 solutions up to degree 3, expected 11"):
        ckt.solve(MET, CKTLabel(1, 0))
    assert cli.main(["ckt", "dim", "--n", "3", "--p", "1", "--r", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: label CKTLabel(1,0): found 10 solutions up to degree 3, "
        "expected 11"]


def test_solve_needs_an_empty_degree(monkeypatch):
    # reaching the degree cap raises even when the count matches
    monkeypatch.setattr(ckt, "_solve_degree", lambda metric, label, d: [d])
    monkeypatch.setattr(ckt, "weyl_dim", lambda n, p, r: 9)
    with pytest.raises(ckt.CKTError, match="no empty degree up to 8"):
        ckt.solve(MET, CKTLabel(0, 0))


def test_solve_time_bound_n5():
    # E^5, label (1,1): degrees 0..6 hold 5+25+75+120+75+25+5 solutions
    start = time.perf_counter()
    basis = ckt.solve(Metric.euclidean(5), CKTLabel(1, 1))
    assert time.perf_counter() - start < 1.0
    assert len(basis) == 330
    for phi in basis[::33] + basis[-1:]:
        assert ckt_apply(phi, 1).is_zero()


def test_killing_field_is_solution():
    # rotation generator x^1 e_2 - x^2 e_1 satisfies the p=1, r=0 equation
    phi = SymTensor(MET, 1, {(0,): Poly.var(N, 1),
                             (1,): Poly.var(N, 0).scale(-1)}, weight=2)
    assert ckt_apply(phi, 0).is_zero()


def test_nonsolution_detected():
    phi = SymTensor(MET, 1, {(0,): Poly.var(N, 0) * Poly.var(N, 0)},
                    weight=2)
    assert not ckt_apply(phi, 0).is_zero()


def test_solutions_satisfy_equation():
    for (p, r) in ((1, 0), (0, 1)):
        for phi in solved_basis(3, p, r):
            assert ckt_apply(phi, r).is_zero()


def test_grad_sym0_tracefree(rng):
    phi = SymTensor(MET, 0, {(): random_poly(N, 4, rng)})
    out = grad_sym0(phi, 2)
    assert trace(out).is_zero()


def test_split_is_parallel_and_projects_back():
    for (p, r) in ((1, 0), (0, 1)):
        label = CKTLabel(p, r)
        for phi in solved_basis(3, p, r)[:4]:
            I = ckt.split(phi, label)
            assert nabla(I).is_zero()
            assert ckt.extract(I, label) == phi


@pytest.mark.parametrize("sig", [(2, 1), (1, 2)])
def test_split_indefinite(sig):
    metric = Metric(*sig)
    for (p, r) in ((2, 0), (1, 1), (0, 2)):
        label = CKTLabel(p, r)
        basis = ckt.solve(metric, label)
        for phi in (basis[0], basis[len(basis) // 2] + basis[-1].scale(-2)):
            I = ckt.split(phi, label)
            assert nabla(I).is_zero()
            assert ckt.extract(I, label) == phi


def test_split_rejects_nonsolution():
    for label, phi in (
            ((1, 0), SymTensor(MET, 1, {(0,): Poly.var(N, 0) ** 2},
                               weight=2)),
            ((0, 1), SymTensor(MET, 0, {(): Poly.var(N, 1) ** 3},
                               weight=2))):
        with pytest.raises(ckt.CKTError, match="obstructed"):
            ckt.split(phi, CKTLabel(*label))


def test_split_rejects_other_rank():
    phi = solved_basis(3, 1, 0)[0]
    with pytest.raises(ValueError, match="rank-1"):
        ckt.split(phi, CKTLabel(2, 0))


@pytest.mark.parametrize("sig, a, b, eps", [((3, 0), 0, 1, 1),
                                             ((2, 1), 0, 2, -1)])
def test_extract_symmetrizes_form_slots(sig, a, b, eps):
    # one ordering of the form pairs (0, a+1), (0, b+1) extracts to the
    # symmetrized half: 2^2 v / 2 on the multiset {a, b}, lowered by eps_b
    metric = Metric(*sig)
    label = CKTLabel(2, 0)
    ps = pair_space(metric.n)
    i, j = ps.index[(0, a + 1)], ps.index[(0, b + 1)]
    v = Poly.var(metric.n, 2) + Poly.const(metric.n, 3)
    want = SymTensor(metric, 2, {(a, b): v.scale(2 * eps)})
    one = TractorField(metric, 0, (SlotKind.FORM,) * 2, {(i, j): v})
    other = TractorField(metric, 0, (SlotKind.FORM,) * 2, {(j, i): v})
    assert ckt.extract(one, label) == want
    assert ckt.extract(other, label) == want
    assert ckt.extract(one + other, label) == want.scale(2)


def test_split_plan_cached():
    # the phi-independent rows are built once per (signature, label)
    label = CKTLabel(2, 0)
    ckt._split_plan.cache_clear()
    basis = solved_basis(3, 2, 0)
    for phi in (basis[3], basis[10] + basis[-1].scale(3)):
        I = ckt.split(phi, label)
        assert nabla(I).is_zero()
        assert ckt.extract(I, label) == phi
    info = ckt._split_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_split_time_bound():
    # a cold split: the per-label plan is built inside the bound
    label = CKTLabel(1, 1)
    phi = solved_basis(3, 1, 1)[40]
    ckt._split_plan.cache_clear()
    start = time.perf_counter()
    I = ckt.split(phi, label)
    assert time.perf_counter() - start < 1
    assert ckt.extract(I, label) == phi


def test_split_time_bound_02():
    # a cold (0,2) split on E^3: 55 solutions, plan included
    label = CKTLabel(0, 2)
    basis = solved_basis(3, 0, 2)
    assert len(basis) == weyl_dim(3, 0, 2) == 55
    phi = basis[30]
    ckt._split_plan.cache_clear()
    start = time.perf_counter()
    I = ckt.split(phi, label)
    assert time.perf_counter() - start < 1
    assert ckt.extract(I, label) == phi


def test_lie_derivative_matches_transport(rng):
    # I_phi-contraction of the double-D is the Lie derivative on densities
    for w in (Q(2), Q(-1, 2)):
        for phi in solved_basis(3, 1, 0):
            I = ckt.split(phi, CKTLabel(1, 0))
            f = TractorField.density(MET, w, random_poly(N, 3, rng))
            assert contract(I, double_D(f)) == ckt.lie_derivative(
                phi, f)


def test_lie_derivative_on_covectors(rng):
    for w in (Q(0), Q(2)):
        for phi in solved_basis(3, 1, 0):
            I = ckt.split(phi, CKTLabel(1, 0))
            fld = TractorField(MET, w, (SlotKind.VEC,))
            for a in range(N):
                fld.add_to((a,), random_poly(N, 2, rng))
            assert contract(I, double_D(fld)) == ckt.lie_derivative(
                phi, fld)


def test_lie_derivative_rejects_tractor_slots():
    phi = solved_basis(3, 1, 0)[0]
    fld = TractorField(MET, Q(0), (SlotKind.STD,), {(0,): 1})
    with pytest.raises(ValueError):
        ckt.lie_derivative(phi, fld)


def test_dimension_n4():
    assert len(solved_basis(4, 1, 0)) == weyl_dim(4, 1, 0)
