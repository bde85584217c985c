import time
from typing import Union

import pytest

from ppforge import families as fam
from ppforge.families import (
    FamilyParameterError,
    GRecipe,
    SkippedInstance,
    build_g,
    instantiate_grid,
    recipe_sign,
)
from ppforge.gf import Elem, make_field
from ppforge.linearized import LinPoly, random_linearized_pp
from ppforge.oracle import check_iff
from ppforge.poly import Poly

F9 = make_field(3, 1, 2)
F25 = make_field(5, 1, 2)
F27 = make_field(3, 1, 3)
F64 = make_field(2, 1, 6)
F81 = make_field(3, 1, 4)

X9 = Poly.x(F9)
X9SQ = Poly.monomial(F9, 2)
L_ID = LinPoly.identity(F9)
L_FROB = LinPoly.frobenius_term(F9, 1)
L_TRACE = LinPoly.trace_map(F9)
KERNEL9 = F9.frobenius_eigenspace(1, -1)  # delta/beta candidates with x^q = -x


def assert_agrees(instance):
    record = check_iff(instance)
    assert record.agree, (
        f"{instance.family_id} predicted {record.predicted} but observed "
        f"{record.observed} for {instance.describe_params()}")
    return record


# ---------------------------------------------------------------------------
# recipes


@pytest.mark.parametrize("recipe,sign", [
    (fam.trace_of_h(X9), 1),
    (fam.trace_of_h(X9SQ), 1),
    (fam.norm_power(X9, 1), 1),
    (fam.norm_power(X9SQ, 2), 1),
    (fam.product_of(fam.trace_of_h(X9), fam.trace_of_h(X9SQ)), 1),
    (fam.sum_of(fam.trace_of_h(X9), fam.norm_power(X9, 1)), 1),
    (fam.anti_alternating(X9), -1),
    (fam.anti_alternating(X9SQ), -1),
    (fam.anti_m_sum(X9, 1), -1),
    (fam.anti_scaled(fam.trace_of_h(X9SQ)), -1),
    (fam.product_of(fam.trace_of_h(X9), fam.anti_alternating(X9)), -1),
    (fam.sum_of(fam.anti_alternating(X9), fam.anti_m_sum(X9SQ, 1)), -1),
    (fam.product_of(fam.anti_alternating(X9), fam.anti_alternating(X9SQ)), 1),
])
def test_recipe_contracts_f9(recipe, sign):
    assert recipe_sign(recipe) == sign
    g = build_g(recipe, F9)
    for x in F9.elements():
        y = g(x)
        assert y.frobenius() == (y if sign == 1 else -y)


def test_m_sum_contract_needs_proper_divisor():
    with pytest.raises(FamilyParameterError) as exc:
        build_g(fam.m_sum(X9, 2), F9)  # n = 2 has no 1 < d < n
    assert exc.value.reason == "bad_divisor"


def test_m_sum_contract_on_f81():
    x81 = Poly.x(F81)
    g = build_g(fam.m_sum(x81, 2), F81)
    for x in F81.elements():
        assert g(x).frobenius() == g(x)


def test_anti_m_sum_contract_on_f81():
    x81 = Poly.x(F81)
    g = build_g(fam.anti_m_sum(x81, 2), F81)   # n = 2*k*d with k = 1, d = 2
    for x in F81.elements():
        assert g(x).frobenius() == -g(x)


def test_norm_power_values_in_base_field():
    g = build_g(fam.norm_power(X9, 1), F9)
    for x in F9.elements():
        assert g(x).in_subfield()


def test_trace_of_h_matches_trace():
    g = build_g(fam.trace_of_h(X9), F9)
    for x in F9.elements():
        assert g(x) == x.trace()


def test_anti_alternating_formula_n2():
    # n = 2: g = h^q - h, so g^q = h - h^q = -g
    g = build_g(fam.anti_alternating(X9), F9)
    for x in F9.elements():
        assert g(x) == x.frobenius() - x


def test_trace_is_a_table_above_2_16():
    # the trace is tabulated at every order: summing the n Frobenius powers
    # per element instead makes this tabulation take seconds
    F = make_field(2, 1, 18)
    start = time.perf_counter()
    g = build_g(fam.trace_of_h(Poly.x(F)), F)
    assert time.perf_counter() - start < 1.5
    for c in range(0, F.order, 4099):
        x, acc = F.elem(c), F.zero
        for j in range(F.n):
            acc = acc + x.frobenius(j)
        assert g(x) == acc


def test_anti_recipes_reject_even_characteristic():
    with pytest.raises(FamilyParameterError) as exc:
        build_g(fam.anti_alternating(Poly.x(F64)), F64)
    assert exc.value.reason == "even_characteristic_anti"


def test_anti_scaled_needs_even_tower():
    with pytest.raises(FamilyParameterError) as exc:
        build_g(fam.anti_scaled(fam.trace_of_h(Poly.x(F27))), F27)
    assert exc.value.reason == "no_antisymmetric_scalar"


def test_mixed_parity_sum_rejected():
    with pytest.raises(FamilyParameterError) as exc:
        recipe_sign(fam.sum_of(fam.trace_of_h(X9), fam.anti_alternating(X9)))
    assert exc.value.reason == "mixed_parity_sum"


def test_missing_h_rejected():
    with pytest.raises(FamilyParameterError) as exc:
        build_g(GRecipe("trace_of_h"), F9)
    assert exc.value.reason == "missing_h"


# ---------------------------------------------------------------------------
# additive_g


def test_additive_g_identity_plus_nothing():
    zero_g = fam.sum_of(fam.trace_of_h(Poly.zero(F9)), fam.trace_of_h(Poly.zero(F9)))
    inst = fam.family_additive_g(F9, zero_g, L_ID, F9.zero)
    rec = assert_agrees(inst)
    assert rec.predicted


def test_additive_g_frobenius_term():
    inst = fam.family_additive_g(
        F9, fam.trace_of_h(X9SQ), L_FROB, F9.generator)
    rec = assert_agrees(inst)
    assert rec.predicted  # l = x is coprime to x^2 - 1


def test_additive_g_trace_l_fails():
    inst = fam.family_additive_g(
        F9, fam.trace_of_h(X9SQ), L_TRACE, F9.generator)
    rec = assert_agrees(inst)
    assert not rec.predicted


def test_additive_g_rejects_anti_recipe():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_additive_g(F9, fam.anti_alternating(X9), L_ID, F9.zero)
    assert exc.value.reason == "recipe_not_invariant"


def test_additive_g_rejects_wide_coefficients():
    w = F9.from_coords([0, 1])
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_additive_g(F9, fam.trace_of_h(X9), LinPoly(F9, (w,)), F9.zero)
    assert exc.value.reason == "linearized_coeffs_outside_base"


# ---------------------------------------------------------------------------
# even_t


def test_even_t_zero_exponent_is_shift():
    inst = fam.family_even_t(F9, 0, KERNEL9[1], L_ID)
    rec = assert_agrees(inst)
    assert rec.predicted
    # f = 1 + L(x)
    for x in F9.elements():
        assert inst.evaluator(x) == F9.one + x


def test_even_t_agrees_both_ways():
    assert_agrees(fam.family_even_t(F9, 2, KERNEL9[1], L_ID))
    rec = assert_agrees(fam.family_even_t(F9, 2, KERNEL9[1], L_TRACE))
    assert not rec.predicted


def test_even_t_rejects_odd_t():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_even_t(F9, 3, KERNEL9[1], L_ID)
    assert exc.value.reason == "odd_t"


def test_even_t_rejects_bad_delta():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_even_t(F9, 2, F9.one, L_ID)
    assert exc.value.reason == "bad_delta"


def test_even_t_allows_intermediate_coefficients():
    # n = 4, k = 2: coefficients from F_{q^2} are allowed and the circulant
    # criterion decides
    mid = [x for x in F81.elements() if x.in_subfield(2)]
    delta = F81.frobenius_eigenspace(2, -1)[1]
    L = LinPoly(F81, (mid[4], F81.one))
    inst = fam.family_even_t(F81, 2, delta, L)
    assert_agrees(inst)


# ---------------------------------------------------------------------------
# trace_gamma


def test_trace_gamma_zero_beta_true():
    rec = assert_agrees(fam.family_trace_gamma(F9, 2, KERNEL9[1], F9.zero, F9.one, 0))
    assert rec.predicted


def test_trace_gamma_boundary_beta_equals_gamma():
    # q = 3, k = 1: Tr(beta/gamma) = 2*beta/gamma = -1 exactly when beta = gamma
    rec = assert_agrees(fam.family_trace_gamma(F9, 2, KERNEL9[1], F9.one, F9.one, 0))
    assert not rec.predicted


def test_trace_gamma_rejects_zero_gamma():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_trace_gamma(F9, 2, KERNEL9[1], F9.one, F9.zero, 0)
    assert exc.value.reason == "gamma_zero"


# ---------------------------------------------------------------------------
# alpha_beta


def test_alpha_beta_zero_parameters_reduce_to_l():
    inst = fam.family_alpha_beta(F9, 1, F9.zero, F9.zero, F9.zero, L_FROB)
    for x in F9.elements():
        assert inst.evaluator(x) == L_FROB.apply(x)
    assert_agrees(inst)


def test_alpha_beta_nonzero_instance():
    alpha, beta = KERNEL9[1], KERNEL9[2]
    rec = assert_agrees(fam.family_alpha_beta(F9, 1, F9.one, alpha, beta, L_ID))
    assert rec.predicted


def test_alpha_beta_rejects_bad_alpha():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_alpha_beta(F9, 1, F9.zero, F9.one, F9.zero, L_ID)
    assert exc.value.reason == "bad_alpha"


def test_alpha_beta_gamma_cross_check_raises(monkeypatch, cold_caches):
    # the linearized criterion disagreeing with gamma != 0 is a defect,
    # reported by an exception rather than an assert
    from ppforge.linearized import CriteriaDisagreeError

    # the check is cached per field: start from an empty cache, and let the
    # forged result leave with it
    cold_caches(F9)
    monkeypatch.setattr(fam, "is_permutation", lambda L: False)
    with pytest.raises(CriteriaDisagreeError):
        fam.family_alpha_beta_gamma(F9, 2, F9.one, KERNEL9[1], KERNEL9[1], F9.elem(2), 1)


def test_alpha_beta_gamma_corollary():
    alpha, beta = KERNEL9[1], KERNEL9[1]
    rec = assert_agrees(
        fam.family_alpha_beta_gamma(F9, 2, F9.one, alpha, beta, F9.elem(2), 1))
    assert rec.predicted
    rec = assert_agrees(
        fam.family_alpha_beta_gamma(F9, 2, F9.one, alpha, beta, F9.zero, 1))
    assert not rec.predicted


# ---------------------------------------------------------------------------
# anti_g


def test_anti_g_trivial():
    zero_anti = fam.anti_scaled(fam.trace_of_h(Poly.zero(F9)))
    rec = assert_agrees(fam.family_anti_g(F9, zero_anti, F9.zero, F9.zero, L_ID))
    assert rec.predicted


def test_anti_g_nonzero_beta():
    beta = KERNEL9[1]
    rec = assert_agrees(
        fam.family_anti_g(F9, fam.anti_alternating(X9SQ), F9.generator, beta, L_FROB))
    assert rec.predicted


def test_anti_g_non_pp_l():
    beta = KERNEL9[1]
    rec = assert_agrees(
        fam.family_anti_g(F9, fam.anti_alternating(X9SQ), F9.generator, beta, L_TRACE))
    assert not rec.predicted


def test_anti_g_rejects_bad_beta():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_anti_g(F9, fam.anti_alternating(X9), F9.zero, F9.one, L_ID)
    assert exc.value.reason == "bad_beta"


def test_anti_g_rejects_symmetric_recipe():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_anti_g(F9, fam.trace_of_h(X9), F9.zero, F9.zero, L_ID)
    assert exc.value.reason == "recipe_not_antisymmetric"


# ---------------------------------------------------------------------------
# n4k


def test_n4k_requires_degree_multiple_of_4():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_n4k(F9, "plain", F9.zero, F9.one)
    assert exc.value.reason == "n_not_multiple_of_4"


def test_n4k_zero_a_rejected():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_n4k(F81, "plain", F81.zero, F81.zero)
    assert exc.value.reason == "zero_a"


def test_n4k_plain_structure_k1():
    # k = 1: g(y) = y^(1+q^2)
    inst = fam.family_n4k(F81, "plain", F81.zero, F81.one)
    for y in F81.elements():
        w = y.frobenius() - y
        assert inst.evaluator(y) == w * w.frobenius(2) + y


def test_n4k_boundary():
    a = F81.elem(1)
    delta_eq = next(d for d in F81.elements() if d.trace() == a)
    rec = assert_agrees(fam.family_n4k(F81, "plain", delta_eq, a))
    assert not rec.predicted
    rec = assert_agrees(fam.family_n4k(F81, "plain", F81.zero, a))
    assert rec.predicted


def test_n4k_qtwist_boundary():
    a = F81.elem(1)
    delta_eq = next(d for d in F81.elements() if d.trace() == -a)
    rec = assert_agrees(fam.family_n4k(F81, "qtwist", delta_eq, a))
    assert not rec.predicted
    rec = assert_agrees(fam.family_n4k(F81, "qtwist", F81.zero, a))
    assert rec.predicted


# ---------------------------------------------------------------------------
# q6


def test_q6_requires_degree_six():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_q6(F9, "minus", X9, L_ID, F9.zero)
    assert exc.value.reason == "n_not_six"


def test_q6_refuses_a_recipe_h():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_q6(F64, "minus", fam.trace_of_h(Poly.x(F64)), LinPoly.identity(F64), F64.zero)
    assert exc.value.reason == "wrong_field"


def test_q6_zero_h_reduces_to_l():
    inst = fam.family_q6(F64, "minus", Poly.zero(F64),
                         LinPoly.identity(F64), F64.generator)
    for x in F64.elements()[:16]:
        assert inst.evaluator(x) == x
    assert_agrees(inst)


def test_q6_minus_examples():
    rec = assert_agrees(fam.family_q6(
        F64, "minus", Poly.x(F64), LinPoly.identity(F64), F64.generator))
    assert rec.predicted
    rec = assert_agrees(fam.family_q6(
        F64, "minus", Poly.x(F64), LinPoly.trace_map(F64), F64.generator))
    assert not rec.predicted


def test_q6_plus_agrees_at_q2():
    rec = assert_agrees(fam.family_q6(
        F64, "plus", Poly.x(F64), LinPoly.frobenius_term(F64, 1), F64.elem(5)))
    assert rec.predicted


# ---------------------------------------------------------------------------
# generic_L


def test_generic_l_reduces_to_l1_for_zero_h():
    a = next(x for x in F9.elements() if x and L_TRACE.apply(x).is_zero)
    inst = fam.family_generic_L(F9, L_TRACE, a, Poly.zero(F9), L_ID, F9.zero)
    for x in F9.elements():
        assert inst.evaluator(x) == x
    assert_agrees(inst)


def test_generic_l_examples():
    a = next(x for x in F9.elements() if x and L_TRACE.apply(x).is_zero)
    h = fam.trace_of_h(X9SQ)
    rec = assert_agrees(fam.family_generic_L(F9, L_TRACE, a, h, L_ID, F9.generator))
    assert rec.predicted
    rec = assert_agrees(fam.family_generic_L(F9, L_TRACE, a, h, L_TRACE, F9.generator))
    assert not rec.predicted


def test_generic_l_rejects_trivial_kernel():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_generic_L(F9, L_ID, F9.one, X9, L_ID, F9.zero)
    assert exc.value.reason == "trivial_kernel"


def test_generic_l_rejects_bad_kernel_element():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_generic_L(F9, L_TRACE, F9.one, X9, L_ID, F9.zero)
    assert exc.value.reason == "bad_kernel_element"


def test_generic_l_rejects_asymmetric_h():
    a = next(x for x in F9.elements() if x and L_TRACE.apply(x).is_zero)
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_generic_L(F9, L_TRACE, a, X9, L_ID, F9.zero)
    assert exc.value.reason == "h_contract"


def test_generic_l_decides_the_kernel_once_per_l(monkeypatch, cold_caches):
    # the kernel test is memoized per field and coefficient vector: a grid
    # runs it once per distinct L, also for an L whose points are skipped
    calls = []
    gcd = fam.gcd_criterion_is_pp

    def counting(L):
        calls.append(L.codes)
        return gcd(L)

    monkeypatch.setattr(fam, "gcd_criterion_is_pp", counting)
    cold_caches(F81)
    items = list(instantiate_grid("generic_L", [F81], fam.DEFAULT_GRIDS["generic_L"]))
    assert len(items) == 6318 and calls == [LinPoly.trace_map(F81).codes]
    calls.clear()
    cold_caches(F9)
    params = dict(fam.DEFAULT_GRIDS["generic_L"], L=["trace", "identity"], a="nonzero")
    items = list(instantiate_grid("generic_L", [F9], params))
    skipped = [item.reason for item in items if isinstance(item, SkippedInstance)]
    assert skipped.count("trivial_kernel") == len(items) // 2
    assert calls == [L_TRACE.codes, L_ID.codes]


# ---------------------------------------------------------------------------
# half_power


def test_half_power_square_product():
    rec = assert_agrees(fam.family_half_power(F9, 1, F9.one, F9.one, F9.zero))
    assert rec.predicted  # ab = 1 is a square


def test_half_power_nonsquare_product():
    g = F9.generator
    rec = assert_agrees(fam.family_half_power(F9, 1, F9.one, g, F9.elem(4)))
    assert not rec.predicted


def test_half_power_delta_independence():
    g = F9.generator
    verdicts = set()
    for d in F9.elements():
        rec = assert_agrees(fam.family_half_power(F9, 1, g, g, d))
        verdicts.add(rec.observed)
    assert len(verdicts) == 1


def test_half_power_rejects_zero_coefficients():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_half_power(F9, 1, F9.zero, F9.one, F9.zero)
    assert exc.value.reason == "zero_coefficient"


def test_half_power_rejects_even_characteristic():
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_half_power(F64, 1, F64.one, F64.one, F64.zero)
    assert exc.value.reason == "even_characteristic"


def test_half_power_k_above_n_wraps():
    rec = assert_agrees(fam.family_half_power(F9, 3, F9.elem(2), F9.elem(3), F9.one))
    assert rec.agree


# ---------------------------------------------------------------------------
# perturbation structure: for the additive families the non-linearized part
# must be kernel-valued and constant on the fibers of psi; the checker raises
# if either hypothesis fails and confirms the bijectivity equivalence


@pytest.mark.parametrize("inst,base", [
    (fam.family_additive_g(F9, fam.trace_of_h(X9SQ), L_FROB, F9.generator), L_FROB),
    (fam.family_even_t(F9, 2, KERNEL9[1], L_ID), L_ID),
    (fam.family_anti_g(F9, fam.anti_alternating(X9SQ), F9.generator,
                       KERNEL9[1], L_TRACE), L_TRACE),
    (fam.family_alpha_beta(F9, 2, F9.one, KERNEL9[1], KERNEL9[2], L_FROB), L_FROB),
    (fam.family_generic_L(
        F9, L_TRACE,
        next(x for x in F9.elements() if x and L_TRACE.apply(x).is_zero),
        fam.trace_of_h(X9SQ), L_ID, F9.one), L_ID),
    (fam.family_q6(F64, "minus", Poly.x(F64), LinPoly.identity(F64),
                   F64.generator), LinPoly.identity(F64)),
])
def test_additive_families_satisfy_perturbation_hypotheses(inst, base):
    from ppforge.agw import check_perturbed_bijection

    ctx = inst.ctx
    psibar, delta = inst.square_codes()[1]
    psibar_view = lambda x: ctx.elem(psibar[x.code])
    psi_view = lambda x: ctx.elem(ctx._add(psibar[x.code], delta))
    u = base.apply
    v = lambda x: inst.evaluator(x) - u(x)
    report = check_perturbed_bijection(ctx.elements(), psi_view, psibar_view, u, v)
    assert report.equivalence_holds
    assert report.base_bijective == check_iff(inst).observed


# ---------------------------------------------------------------------------
# grids


def test_instantiate_grid_empty():
    items = list(instantiate_grid("half_power", [F9],
                                  {"k": 1, "a": [], "b": "nonzero", "delta": "all"}))
    assert items == []


def test_instantiate_grid_counts_and_skips():
    params = {"g": [fam.trace_of_h(X9), fam.m_sum(X9, 2)],
              "L": ["identity"], "delta": "all"}
    items = list(instantiate_grid("additive_g", [F9], params))
    assert len(items) == 18
    skipped = [i for i in items if isinstance(i, SkippedInstance)]
    assert len(skipped) == 9
    assert all(s.reason == "bad_divisor" for s in skipped)


def test_instantiate_grid_deterministic():
    params = {"k": 1, "a": "nonzero", "b": "nonzero", "delta": [0, 1]}
    first = [i.describe_params() for i in instantiate_grid("half_power", [F9], params)]
    second = [i.describe_params() for i in instantiate_grid("half_power", [F9], params)]
    assert first == second
    assert len(first) == 8 * 8 * 2


def test_instantiate_grid_random_pp_token():
    params = {"g": [fam.trace_of_h(X9)], "L": ["random_pp:3"], "delta": [0]}
    items = list(instantiate_grid("additive_g", [F9], params))
    assert len(items) == 1
    assert items[0].params["L"] == random_linearized_pp(F9, 3)


def test_instantiate_grid_limit():
    params = {"k": 1, "a": "nonzero", "b": "nonzero", "delta": "all"}
    items = list(instantiate_grid("half_power", [F9], params, limit=10))
    assert len(items) == 10


def test_instantiate_grid_kernel_token():
    params = {"L": ["trace"], "a": "kernel_nonzero",
              "h": [fam.trace_of_h(X9SQ)], "L1": ["identity"], "delta": [0]}
    items = list(instantiate_grid("generic_L", [F9], params))
    assert len(items) == 2  # the trace kernel has two nonzero points in F_9
    for inst in items:
        assert_agrees(inst)


@pytest.mark.parametrize("a, extra", [(["kernel_nonzero"], []), ([["kernel_nonzero"]], []),
                                      ([["kernel_nonzero"], 2], [2])])
def test_instantiate_grid_kernel_token_anywhere_in_a(a, extra):
    # the token resolves against each concrete L: the trace's kernel, then
    # that of x^q - x, the base field F_3, which meets it only in 0
    shift = LinPoly(F9, [2, 1])
    params = {"L": ["trace", shift], "a": a,
              "h": [fam.trace_of_h(X9SQ)], "L1": ["identity"], "delta": [0]}
    got = [(item.params["L"], item.params["a"])
           for item in instantiate_grid("generic_L", [F9], params)]
    assert got == [(L, x) for L in (L_TRACE, shift)
                   for x in [*F9.zero_set(L.tabulate())[1:], *map(F9.elem, extra)]]


def test_every_family_is_registered_whole():
    # one registration fills every table, and the grid resolves every kind
    kinds = {Elem, LinPoly, GRecipe, Poly, Union[Poly, GRecipe], int, str}
    families = set(fam.FAMILY_BUILDERS)
    for table in (fam.COMPOSITIONS, fam.DEFAULT_GRIDS, fam.PARAM_ORDER, fam.PARAM_KINDS,
                  fam._PREDICTIONS):
        assert set(table) == families
    for family in families:
        assert tuple(fam.PARAM_KINDS[family]) == fam.PARAM_ORDER[family]
        assert set(fam.DEFAULT_GRIDS[family]) == set(fam.PARAM_ORDER[family])
        assert set(fam.PARAM_KINDS[family].values()) <= kinds
        assert fam.FAMILY_BUILDERS[family].__doc__ == fam._PREDICTIONS[family].__doc__


def test_instantiate_grid_rejects_unknown_family():
    with pytest.raises(ValueError):
        list(instantiate_grid("nope", [F9], {}))


def test_instantiate_grid_rejects_missing_param():
    with pytest.raises(ValueError):
        list(instantiate_grid("half_power", [F9], {"k": 1}))
