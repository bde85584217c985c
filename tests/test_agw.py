import pytest

from ppforge.agw import (
    AGWInstance,
    FiniteMap,
    HypothesisViolatedError,
    NotCommutingError,
    NotSurjectiveError,
    PerturbReport,
    ShiftReport,
    check_fiber_criterion,
    check_fiber_shift,
    check_perturbed_bijection,
    wrap_family_instance,
)
from ppforge.families import family_half_power, family_n4k
from ppforge.gf import make_field
from ppforge.linearized import LinPoly

F9 = make_field(3, 1, 2)
A9 = F9.elements()


def psi9(x):
    return x.frobenius() - x


def test_identity_instance_all_true():
    inst = AGWInstance(A9, lambda x: x, lambda x: x, lambda x: x)
    rep = check_fiber_criterion(inst)
    assert rep.f_bijective and rep.h_bijective and rep.fiber_injective
    assert rep.equivalence_holds


def test_frobenius_over_difference_map():
    inst = AGWInstance(A9, psi9, psi9, lambda x: x.frobenius())
    rep = check_fiber_criterion(inst)
    assert rep.f_bijective and rep.equivalence_holds


def test_constant_map_fails_both_sides():
    c = F9.generator
    inst = AGWInstance(A9, psi9, psi9, lambda x: c)
    rep = check_fiber_criterion(inst)
    assert not rep.f_bijective
    assert not (rep.h_bijective and rep.fiber_injective)
    assert rep.equivalence_holds
    assert rep.fiber_witness is not None


def test_fibers_partition_domain():
    inst = AGWInstance(A9, psi9, psi9, lambda x: x.frobenius())
    assert sum(len(f) for f in inst.fibers.values()) == len(A9)
    assert all(len(f) == 3 for f in inst.fibers.values())


def test_not_surjective():
    with pytest.raises(NotSurjectiveError):
        AGWInstance(A9, psi9, psi9, lambda x: x, S=list(A9))


def test_cardinality_mismatch():
    with pytest.raises(HypothesisViolatedError) as exc:
        AGWInstance(A9, psi9, lambda x: x, lambda x: x)
    assert exc.value.name == "cardinality"


def test_explicit_h_must_commute():
    S = FiniteMap.from_callable(A9, psi9).image()
    bad_h = {s: F9.generator for s in S}
    with pytest.raises(NotCommutingError):
        AGWInstance(A9, psi9, psi9, lambda x: x.frobenius(), h=bad_h)


def test_induced_h_requires_fiber_constancy():
    # x -> x^2 does not descend along x^q - x
    with pytest.raises(NotCommutingError):
        AGWInstance(A9, psi9, psi9, lambda x: x * x)


def test_perturbed_bijection_zero_perturbation():
    L = LinPoly.identity(F9)
    rep = check_perturbed_bijection(A9, psi9, psi9, L.apply, lambda x: F9.zero)
    assert rep.equivalence_holds and rep.perturbed_bijective


def test_perturbed_bijection_kernel_valued_term():
    # v = c * (x^q - x)^3 with c^q = -c lands in the kernel of x^q - x
    c = F9.frobenius_eigenspace(1, -1)[1]
    L = LinPoly.identity(F9)
    rep = check_perturbed_bijection(
        A9, psi9, psi9, L.apply, lambda x: c * (psi9(x) ** 3))
    assert rep.equivalence_holds and rep.perturbed_bijective


def test_perturbed_bijection_constant_base():
    c = F9.generator
    rep = check_perturbed_bijection(A9, psi9, psi9, lambda x: c, lambda x: F9.zero)
    assert not rep.perturbed_bijective and not rep.base_bijective
    assert rep.equivalence_holds


def test_perturbed_bijection_rejects_nonkernel_term():
    L = LinPoly.identity(F9)
    with pytest.raises(HypothesisViolatedError) as exc:
        check_perturbed_bijection(A9, psi9, psi9, L.apply,
                                  lambda x: F9.generator)
    assert exc.value.name == "kernel_value"


def test_perturbed_bijection_rejects_varying_term():
    # kernel-valued (F_3 lies in ker(x^q - x)) but not constant on fibers
    def noise(x):
        return F9.subfield_elements()[x.code % 3]

    with pytest.raises(HypothesisViolatedError) as exc:
        check_perturbed_bijection(A9, psi9, psi9, lambda x: x, noise)
    assert exc.value.name == "fiber_constant"


def test_fiber_shift_zero_g():
    delta = F9.generator
    psid = lambda x: psi9(x) + delta
    S = FiniteMap.from_callable(A9, psid).image()
    rep = check_fiber_shift(A9, psid, psi9, lambda x: x.frobenius(),
                            {s: F9.zero for s in S})
    assert rep.equivalence_holds
    assert rep.kernel_condition and rep.reduction_holds


def test_fiber_shift_kernel_valued_g():
    delta = F9.generator
    psid = lambda x: psi9(x) + delta
    S = FiniteMap.from_callable(A9, psid).image()
    g = {s: F9.subfield_elements()[s.code % 3] for s in S}
    rep = check_fiber_shift(A9, psid, psi9, lambda x: x.frobenius(), g)
    assert rep.equivalence_holds and rep.kernel_condition and rep.reduction_holds


def test_fiber_shift_collapsing_h():
    # choose g so the induced map is constant: p cannot be bijective
    delta = F9.generator
    psid = lambda x: psi9(x) + delta
    section = {}
    for x in A9:
        section.setdefault(psid(x), x)
    S = tuple(section)
    frob = lambda x: x.frobenius()
    g = {s: -(psi9(frob(section[s]))) for s in S}
    rep = check_fiber_shift(A9, psid, psi9, frob, g)
    assert not rep.shifted_bijective and not rep.h_bijective
    assert rep.equivalence_holds


# an empty domain has no pair to check for additivity and no point to
# collide, so every check holds vacuously, as for an empty AGWInstance

def test_perturbed_bijection_on_empty_domain_is_vacuous():
    ident = lambda x: x
    assert check_fiber_criterion(AGWInstance([], ident, ident, ident)).equivalence_holds
    rep = check_perturbed_bijection([], ident, ident, ident, lambda x: F9.zero)
    assert rep == PerturbReport(perturbed_bijective=True, base_bijective=True)


def test_fiber_shift_on_empty_domain_is_vacuous():
    ident = lambda x: x
    rep = check_fiber_shift([], ident, ident, ident, lambda s: F9.zero)
    assert rep == ShiftReport(shifted_bijective=True, h_bijective=True,
                              base_fiber_injective=True, kernel_condition=True,
                              base_bijective=True)


def test_wrap_family_instance_with_natural_square():
    f81 = make_field(3, 1, 4)
    inst = family_n4k(f81, "plain", f81.elem(7), f81.elem(2))
    rep = check_fiber_criterion(wrap_family_instance(inst))
    assert rep.equivalence_holds


def test_wrap_family_instance_identity_square():
    inst = family_half_power(F9, 1, F9.elem(3), F9.elem(5), F9.elem(2))
    wrapped = wrap_family_instance(inst)
    assert len(wrapped.S) == len(A9)
    assert check_fiber_criterion(wrapped).equivalence_holds


def test_finite_map_requires_total_table():
    with pytest.raises(ValueError):
        FiniteMap(A9, {A9[0]: A9[0]})
