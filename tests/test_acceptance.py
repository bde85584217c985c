"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Grid fixtures are shared so the commuting-square audit
(criterion 10) sees exactly the instances the earlier criteria verified.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from ppforge import families as fam
from ppforge.agw import check_fiber_criterion, wrap_family_instance
from ppforge.cli import main as cli_main
from ppforge.families import SkippedInstance, instantiate_grid
from ppforge.gf import ResidueClass, make_field
from ppforge.linearized import (
    LinPoly,
    circulant_det_is_nonzero,
    gcd_criterion_is_pp,
)
from ppforge.oracle import check_bijective, check_iff
from ppforge.poly import Poly

F9 = make_field(3, 1, 2)
F25 = make_field(5, 1, 2)
F27 = make_field(3, 1, 3)
F64 = make_field(2, 1, 6)
F81 = make_field(3, 1, 4)


@contextmanager
def criterion(number: int, budget: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number:02d} FAIL ({elapsed:.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, (
        f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")
    print(f"\nACCEPTANCE {number:02d} PASS ({elapsed:.2f}s) {description}")


def run_all(items):
    """check_iff over non-skipped items; returns (records, instances, skipped)."""
    records, instances, skipped = [], [], []
    for item in items:
        if isinstance(item, SkippedInstance):
            skipped.append(item)
            continue
        instances.append(item)
        records.append(check_iff(item))
    return records, instances, skipped


def assert_full_agreement(records, label):
    bad = [r for r in records if not r.agree]
    assert not bad, f"{label}: {len(bad)} disagreements, first: {bad[0]}"


# ---------------------------------------------------------------------------
# shared grids


def five_invariant_recipes(ctx, h):
    return [
        fam.trace_of_h(h),
        fam.norm_power(h, 1),
        fam.m_sum(h, 2),  # no proper divisor at n = 2: tagged skip
        fam.product_of(fam.trace_of_h(h), fam.trace_of_h(h)),
        fam.sum_of(fam.trace_of_h(h), fam.norm_power(h, 1)),
    ]


def five_anti_recipes(h):
    return [
        fam.anti_m_sum(h, 1),                                     # d = 1
        fam.anti_alternating(h),                                  # d = n/2
        fam.anti_m_sum(h, 2),                                     # 1 < d < k: skip at n = 2
        fam.product_of(fam.trace_of_h(h), fam.anti_alternating(h)),
        fam.sum_of(fam.anti_alternating(h), fam.anti_m_sum(h, 1)),
    ]


@pytest.fixture(scope="module")
def grid_additive_g():
    items = []
    for ctx in (F9, F25):
        hs = [Poly.x(ctx), Poly.monomial(ctx, 2), Poly(ctx, [1, 1])]
        recipes = [r for h in hs for r in five_invariant_recipes(ctx, h)]
        items.extend(instantiate_grid(
            "additive_g", [ctx],
            {"g": recipes, "L": ["identity", "frob:1", "trace", "random_pp:2"],
             "delta": "all"}))
    return items


@pytest.fixture(scope="module")
def grid_even_t():
    return list(instantiate_grid(
        "even_t", [F9],
        {"t": [0, 2, 4], "delta": "sign_kernel",
         "L": ["identity", "frob:1", "trace"]}))


@pytest.fixture(scope="module")
def grid_trace_gamma():
    return list(instantiate_grid(
        "trace_gamma", [F9],
        {"t": [0, 2, 4], "delta": "sign_kernel", "beta": "base",
         "gamma": [1, 2], "s": [0, 1]}))


@pytest.fixture(scope="module")
def grid_alpha_beta():
    items = []
    for ctx in (F9, F25):
        items.extend(instantiate_grid(
            "alpha_beta", [ctx],
            {"t": [1, 2, 3], "delta": "base", "alpha": "sign_kernel",
             "beta": "sign_kernel", "L": ["identity", "frob:1", "trace"]}))
        items.extend(instantiate_grid(
            "alpha_beta_gamma", [ctx],
            {"t": [1, 2, 3], "delta": "base", "alpha": "sign_kernel",
             "beta": "sign_kernel", "gamma": "base", "s": [0, 1]}))
    return items


@pytest.fixture(scope="module")
def grid_anti_g():
    hs = [Poly.x(F9), Poly.monomial(F9, 2)]
    recipes = [r for h in hs for r in five_anti_recipes(h)]
    return list(instantiate_grid(
        "anti_g", [F9],
        {"g": recipes, "delta": "all", "beta": "sign_kernel",
         "L": ["identity", "frob:1", "trace"]}))


@pytest.fixture(scope="module")
def grid_n4k():
    return list(instantiate_grid(
        "n4k", [F81],
        {"variant": ["plain", "qtwist"], "delta": "all", "a": [1, 2]}))


@pytest.fixture(scope="module")
def grid_q6():
    deltas = [F64.elem(c) for c in range(8)]
    return list(instantiate_grid(
        "q6", [F64],
        {"variant": ["minus", "plus"],
         "h": [Poly.x(F64), Poly(F64, [0, 1, 1])],
         "L": ["identity", "trace", "frob:1"],
         "delta": deltas}))


@pytest.fixture(scope="module")
def grid_generic_l():
    return list(instantiate_grid(
        "generic_L", [F9],
        {"L": ["trace"], "a": "kernel_nonzero",
         "h": [fam.trace_of_h(Poly.monomial(F9, 2)), fam.norm_power(Poly.x(F9), 1)],
         "L1": ["identity", "frob:1", "trace"], "delta": "all"}))


@pytest.fixture(scope="module")
def grid_half_power():
    items = []
    for ctx in (F9, F25):
        items.extend(instantiate_grid(
            "half_power", [ctx],
            {"k": 1, "a": "nonzero", "b": "nonzero", "delta": "all"}))
    return items


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_linearized_criteria_equivalence():
    with criterion(1, 1.0, "gcd = circulant = brute force over all 27 "
                           "base-coefficient maps, q=3 n=3"):
        base_codes = [x.code for x in F27.subfield_elements()]
        checked = 0
        for codes in itertools.product(base_codes, repeat=3):
            L = LinPoly(F27, codes)
            gc = gcd_criterion_is_pp(L)
            cc = circulant_det_is_nonzero(L)
            bf = check_bijective(L.apply, F27).bijective
            assert gc == cc == bf, f"criteria disagree at {codes}"
            checked += 1
        assert checked == 27


def test_criterion_02_additive_g_families(grid_additive_g):
    with criterion(2, 10.0, "g(x^q - x + delta) + L(x) grids over q in {3,5}"):
        records, instances, skipped = run_all(grid_additive_g)
        assert len(instances) == (4 * 3 * 4 * 9) + (4 * 3 * 4 * 25)
        assert all(s.reason == "bad_divisor" for s in skipped)
        assert len(skipped) == 3 * 4 * 9 + 3 * 4 * 25
        assert_full_agreement(records, "additive_g")


def test_criterion_03_even_t_and_trace_gamma(grid_even_t, grid_trace_gamma):
    with criterion(3, 5.0, "(x^q - x + delta)^t + L and its beta*Tr + "
                           "gamma*x^(q^s) specialization, both boundary sides"):
        t_records, t_instances, t_skipped = run_all(grid_even_t)
        assert not t_skipped and len(t_instances) == 3 * 3 * 3
        assert_full_agreement(t_records, "even_t")

        records, instances, skipped = run_all(grid_trace_gamma)
        assert not skipped
        assert len(instances) == 3 * 3 * 3 * 2 * 2
        assert_full_agreement(records, "trace_gamma")
        predictions = {r.predicted for r in records}
        assert predictions == {True, False}, "grid must straddle the boundary"
        # the split is exactly Tr(beta/gamma) != -1
        for inst, rec in zip(instances, records):
            beta, gamma = inst.params["beta"], inst.params["gamma"]
            cond = bool((beta * gamma.inv()).trace() + inst.ctx.one)
            assert rec.predicted == cond == rec.observed


def test_criterion_04_alpha_beta_families(grid_alpha_beta):
    with criterion(4, 30.0, "alpha*(x^(q^k)+x+delta)^t + beta*Tr + L grids, "
                            "q in {3,5}"):
        records, instances, skipped = run_all(grid_alpha_beta)
        assert not skipped
        expected = (3 * 3 * 3 * 3 * 3 + 3 * 3 * 3 * 3 * 3 * 2
                    + 3 * 5 * 5 * 5 * 3 + 3 * 5 * 5 * 5 * 5 * 2)
        assert len(instances) == expected
        assert_full_agreement(records, "alpha_beta")


def test_criterion_05_anti_g_families(grid_anti_g):
    with criterion(5, 10.0, "g(x^q + x + delta) + beta*Tr + L with g^q = -g"):
        # contract first: every non-skipped recipe satisfies g^q = -g
        hs = [Poly.x(F9), Poly.monomial(F9, 2)]
        for h in hs:
            for recipe in five_anti_recipes(h):
                if recipe.kind == "anti_m_sum" and recipe.d == 2:
                    continue  # unsatisfiable at n = 2, covered as a skip below
                g = fam.build_g(recipe, F9)
                for x in F9.elements():
                    assert g(x).frobenius() == -g(x)
        records, instances, skipped = run_all(grid_anti_g)
        assert len(skipped) == 2 * 9 * 3 * 3  # the 1 < d < k recipe at n = 2
        assert all(s.reason == "bad_divisor" for s in skipped)
        assert len(instances) == 8 * 9 * 3 * 3
        assert_full_agreement(records, "anti_g")


def test_criterion_06_n4k_census_split(grid_n4k):
    with criterion(6, 5.0, "order-81 grids split exactly on Tr(delta) = +-a"):
        records, instances, skipped = run_all(grid_n4k)
        assert not skipped
        assert len(instances) == 2 * 81 * 2
        assert_full_agreement(records, "n4k")
        sides = {("plain", True): 0, ("plain", False): 0,
                 ("qtwist", True): 0, ("qtwist", False): 0}
        for inst, rec in zip(instances, records):
            variant = inst.params["variant"]
            delta, a = inst.params["delta"], inst.params["a"]
            boundary = delta.trace() != (a if variant == "plain" else -a)
            assert rec.predicted == boundary == rec.observed
            sides[(variant, rec.observed)] += 1
        assert all(count > 0 for count in sides.values())


def test_criterion_07_q6_families(grid_q6):
    with criterion(7, 30.0, "order-64 tower-degree-6 families; plus-variant "
                            "refutation at q=3 pinned"):
        records, instances, skipped = run_all(grid_q6)
        assert not skipped
        assert len(instances) == 2 * 2 * 3 * 8
        minus = [(i, r) for i, r in zip(instances, records)
                 if i.params["variant"] == "minus"]
        plus = [(i, r) for i, r in zip(instances, records)
                if i.params["variant"] == "plus"]
        assert_full_agreement([r for _, r in minus], "q6 minus")
        agree_plus = sum(r.agree for _, r in plus)
        print(f"\n  q6 plus variant at q=2: {agree_plus}/{len(plus)} agree")
        assert len(plus) == 48 and agree_plus == 48  # w_+ = w_- when q = 2

        # odd characteristic: the mixed-argument plus form is refuted at
        # 3^1:6 on every probed delta, always with the same witness, while
        # its commuting square stays sound (pinned finding, see README)
        f729 = make_field(3, 1, 6)
        g = f729.generator
        for dc in (f729.zero, g, g * g, g * g * g):
            inst = fam.family_q6(f729, "plus", Poly.x(f729),
                                 LinPoly.identity(f729), dc)
            rec = check_iff(inst)
            assert rec.predicted is True and rec.observed is False
            first, second = rec.verdict.collision
            assert (first.code, second.code) == (9, 27)
            assert (str(first), str(second)) == ("0,0,1,0,0,0", "0,0,0,1,0,0")
            assert rec.verdict.missed.code == 3
            assert check_fiber_criterion(wrap_family_instance(inst)).equivalence_holds


def test_criterion_08_generic_l_family(grid_generic_l):
    with criterion(8, 5.0, "a*h(L(x)+delta) + L1(x) with L = trace map"):
        records, instances, skipped = run_all(grid_generic_l)
        assert not skipped
        assert len(instances) == 2 * 2 * 3 * 9
        assert_full_agreement(records, "generic_L")


def test_criterion_09_half_power_families(grid_half_power):
    with criterion(9, 60.0, "(a*x^(q^k) - b*x + delta)^((q^n+1)/2) + a*x^(q^k) "
                            "+ b*x over q in {3,5}"):
        records, instances, skipped = run_all(grid_half_power)
        assert not skipped
        assert len(instances) == 8 * 8 * 9 + 24 * 24 * 25
        assert_full_agreement(records, "half_power")
        by_ab = {}
        for inst, rec in zip(instances, records):
            a, b = inst.params["a"], inst.params["b"]
            expected = (a * b).residue_class() == ResidueClass.D0
            assert rec.predicted == expected == rec.observed
            by_ab.setdefault((inst.ctx.label, a.code, b.code), set()).add(rec.observed)
        assert all(len(v) == 1 for v in by_ab.values()), \
            "verdict must not depend on delta"


def test_criterion_10_commuting_square_audit(
        grid_additive_g, grid_even_t, grid_trace_gamma, grid_alpha_beta,
        grid_anti_g, grid_n4k, grid_q6, grid_generic_l, grid_half_power):
    with criterion(10, 120.0, "fiber-criterion equivalence on every instance "
                              "from criteria 2-9"):
        grids = (grid_additive_g, grid_even_t, grid_trace_gamma,
                 grid_alpha_beta, grid_anti_g, grid_n4k, grid_q6,
                 grid_generic_l, grid_half_power)
        wrapped = 0
        for grid in grids:
            for item in grid:
                if isinstance(item, SkippedInstance):
                    continue
                report = check_fiber_criterion(wrap_family_instance(item))
                assert report.equivalence_holds, (
                    f"{item.family_id} {item.describe_params()}: {report}")
                wrapped += 1
        assert wrapped > 20000
        print(f"\n  audited {wrapped} commuting squares")


def test_criterion_11_census_determinism(tmp_path):
    with criterion(11, 60.0, "two consecutive census runs are byte-identical"):
        for family, field in (("half_power", "3^1:2"), ("n4k", "3^1:4")):
            first = tmp_path / f"{family}_1.csv"
            second = tmp_path / f"{family}_2.csv"
            assert cli_main(["census", family, field, "-o", str(first)]) == 0
            assert cli_main(["census", family, field, "-o", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
            assert first.read_bytes().count(b"\n") > 1
