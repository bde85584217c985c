"""Differential tests: every family's code map and fiber maps against a
reference written here with Elem arithmetic only, on random small fields
and random grid points; the Elem-edge scan against the code-list scan; and
the commuting-square audit against an Elem-keyed reference."""

import collections
import functools
import json
import random
import sys
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from ppforge import agw
from ppforge import families as fam
from ppforge.cli import main
from ppforge.agw import (
    AGWError,
    AGWInstance,
    FiberReport,
    HypothesisViolatedError,
    NotCommutingError,
    NotSurjectiveError,
    check_fiber_criterion,
    wrap_family_instance,
)
from ppforge.families import FamilyParameterError, RecipeContractError
from ppforge import gf
from ppforge.gf import code_table, make_field
from ppforge.linearized import LinPoly, random_linearized_pp
from ppforge.oracle import check_bijective, check_iff
from ppforge.poly import Poly

# (p, e, n): p in {2, 3, 5}, order at most 729
FIELDS = [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 1, 3), (2, 1, 4), (3, 1, 2),
          (5, 1, 2), (3, 1, 3), (2, 2, 2), (2, 1, 6), (2, 2, 3), (3, 1, 4),
          (3, 2, 2), (5, 1, 3), (2, 1, 8), (5, 1, 4), (3, 1, 6)]


def slow_pow(x, k):
    """x^k by square-and-multiply on elements, independent of the log path."""
    result, base = x.ctx.one, x
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def ref_frob(x, j):
    return slow_pow(x, x.ctx.q ** (j % x.ctx.n))


def ref_trace(x):
    acc = x.ctx.zero
    for j in range(x.ctx.n):
        acc = acc + ref_frob(x, j)
    return acc


def ref_lin(L, x):
    acc = x.ctx.zero
    for i, c in enumerate(L.coefficients):
        acc = acc + c * ref_frob(x, i)
    return acc


def ref_poly(h, x):
    acc = x.ctx.zero
    for c in reversed(h.coefficients):
        acc = acc * x + c
    return acc


def ref_g(recipe, ctx):
    """The recipe's map, built from its definition with element arithmetic."""
    kind, h, n, q = recipe.kind, recipe.h, ctx.n, ctx.q
    if kind == "trace_of_h":
        return lambda x: ref_trace(ref_poly(h, x))
    if kind == "norm_power":
        e = (1 if recipe.s is None else recipe.s) * ((ctx.order - 1) // (q - 1))
        return lambda x: slow_pow(ref_poly(h, x), e)
    if kind == "m_sum":
        d = recipe.d
        M = sum(q ** (i * d) for i in range(n // d))
        return lambda x: sum_of_elems(ctx, [slow_pow(ref_poly(h, x), M * q ** j)
                                            for j in range(d)])
    if kind == "anti_alternating":
        return lambda x: sum_of_elems(ctx, [ref_frob(ref_poly(h, x), 2 * i + 1)
                                            - ref_frob(ref_poly(h, x), 2 * i)
                                            for i in range(n // 2)])
    if kind == "anti_m_sum":
        d = recipe.d
        M = sum(q ** (2 * i * d) for i in range(n // (2 * d)))
        return lambda x: sum_of_elems(ctx, [
            slow_pow(ref_poly(h, x), M * q ** (2 * j))
            - slow_pow(ref_poly(h, x), M * q ** (2 * j + 1)) for j in range(d)])
    if kind == "anti_scaled":
        a = next(x for x in ctx.elements() if x and ref_frob(x, 1) == -x)
        inner = ref_g(recipe.parts[0], ctx)
        return lambda x: a * inner(x)
    parts = [ref_g(part, ctx) for part in recipe.parts]
    if kind == "product":
        def product(x):
            acc = ctx.one
            for g in parts:
                acc = acc * g(x)
            return acc
        return product
    return lambda x: sum_of_elems(ctx, [g(x) for g in parts])


def sum_of_elems(ctx, values):
    acc = ctx.zero
    for v in values:
        acc = acc + v
    return acc


def reference(inst):
    """The family's defining formula with element arithmetic."""
    ctx, P = inst.ctx, inst.params
    n = ctx.n
    family = inst.family_id
    if family == "additive_g":
        g = ref_g(P["g"], ctx)
        return lambda x: g(ref_frob(x, 1) - x + P["delta"]) + ref_lin(P["L"], x)
    if family == "even_t":
        return lambda x: (slow_pow(ref_frob(x, n // 2) - x + P["delta"], P["t"])
                          + ref_lin(P["L"], x))
    if family == "trace_gamma":
        return lambda x: (slow_pow(ref_frob(x, n // 2) - x + P["delta"], P["t"])
                          + P["beta"] * ref_trace(x) + P["gamma"] * ref_frob(x, P["s"]))
    if family in ("alpha_beta", "alpha_beta_gamma"):
        if family == "alpha_beta":
            lin = lambda x: ref_lin(P["L"], x)
        else:
            lin = lambda x: P["gamma"] * ref_frob(x, P["s"])
        return lambda x: (P["alpha"] * slow_pow(ref_frob(x, n // 2) + x + P["delta"], P["t"])
                          + P["beta"] * ref_trace(x) + lin(x))
    if family == "anti_g":
        g = ref_g(P["g"], ctx)
        return lambda x: (g(ref_frob(x, 1) + x + P["delta"]) + P["beta"] * ref_trace(x)
                          + ref_lin(P["L"], x))
    if family == "n4k":
        k = n // 4
        first = 0 if P["variant"] == "plain" else 1
        pairs = [(2 * i + first, 2 * i + first + 2 * k) for i in range(k)]

        def n4k(x):
            y = ref_frob(x, 1) - x + P["delta"]
            return sum_of_elems(ctx, [ref_frob(y, u) * ref_frob(y, v)
                                      for u, v in pairs]) + P["a"] * x
        return n4k
    if family == "q6":
        h, d = P["h"], P["delta"]

        def q6(x):
            wm = ref_frob(x, 2) - ref_frob(x, 1) + x + d
            wp = ref_frob(x, 2) + ref_frob(x, 1) + x + d
            ym = ref_poly(h, wm)
            if P["variant"] == "minus":
                head = ref_frob(ym, 4) + ref_frob(ym, 3) - ref_frob(ym, 1) - ym
            else:
                yp = ref_poly(h, wp)
                head = ref_frob(yp, 4) - ref_frob(yp, 3) + ref_frob(ym, 1) - ym
            return head + ref_lin(P["L"], x)
        return q6
    if family == "generic_L":
        h = P["h"]
        hf = ref_g(h, ctx) if isinstance(h, fam.GRecipe) else (lambda y: ref_poly(h, y))
        return lambda x: P["a"] * hf(ref_lin(P["L"], x) + P["delta"]) + ref_lin(P["L1"], x)
    if family == "half_power":
        half = (ctx.order + 1) // 2
        a, b, d = P["a"], P["b"], P["delta"]
        return lambda x: (slow_pow(a * ref_frob(x, P["k"]) - b * x + d, half)
                          + a * ref_frob(x, P["k"]) + b * x)
    raise AssertionError(family)


# ---------------------------------------------------------------------------
# random grid points


def pick(data, pool, label):
    pool = list(pool)
    assume(pool)
    return pool[data.draw(st.integers(0, len(pool) - 1), label=label)]


def draw_field(data, ok):
    return make_field(*pick(data, [f for f in FIELDS if ok(*f)], "field"))


def intermediate(ctx):
    return [x for x in ctx.elements() if x.in_subfield(ctx.n // 2)]


def base_lin(data, ctx):
    choices = [LinPoly.identity(ctx), LinPoly.trace_map(ctx), LinPoly.zero(ctx),
               LinPoly.frobenius_term(ctx, 1),
               random_linearized_pp(ctx, data.draw(st.integers(0, 50), label="seed")),
               LinPoly(ctx, [pick(data, ctx.subfield_elements(), f"c{i}")
                             for i in range(ctx.n)])]
    return pick(data, choices, "L")


def intermediate_lin(data, ctx):
    s = data.draw(st.integers(0, ctx.n - 1), label="s")
    choices = [LinPoly.identity(ctx), LinPoly.trace_map(ctx),
               LinPoly.frobenius_term(ctx, s, pick(data, intermediate(ctx), "c"))]
    return pick(data, choices, "L")


def polys(ctx):
    return [Poly.x(ctx), Poly.monomial(ctx, 2), Poly(ctx, [1, 1]), Poly(ctx, [0, 1, 1])]


def invariant_recipe(data, ctx):
    h = pick(data, polys(ctx), "h")
    choices = [fam.trace_of_h(h), fam.norm_power(h, 1), fam.norm_power(h, 2),
               fam.product_of(fam.trace_of_h(h), fam.norm_power(h, 1)),
               fam.sum_of(fam.trace_of_h(h), fam.norm_power(h, 1))]
    choices += [fam.m_sum(h, d) for d in range(2, ctx.n) if ctx.n % d == 0]
    return pick(data, choices, "g")


def anti_recipe(data, ctx):
    h = pick(data, polys(ctx), "h")
    choices = [fam.anti_alternating(h), fam.anti_scaled(fam.trace_of_h(h)),
               fam.product_of(fam.trace_of_h(h), fam.anti_alternating(h)),
               fam.sum_of(fam.anti_alternating(h), fam.anti_m_sum(h, 1))]
    choices += [fam.anti_m_sum(h, d) for d in range(1, ctx.n) if ctx.n % (2 * d) == 0]
    return pick(data, choices, "g")


def draw_params(data, family):
    if family == "additive_g":
        ctx = draw_field(data, lambda p, e, n: True)
        return ctx, {"g": invariant_recipe(data, ctx), "L": base_lin(data, ctx),
                     "delta": pick(data, ctx.elements(), "delta")}
    if family in ("even_t", "trace_gamma"):
        ctx = draw_field(data, lambda p, e, n: n % 2 == 0)
        params = {"t": data.draw(st.sampled_from([0, 2, 4, 6]), label="t"),
                  "delta": pick(data, ctx.frobenius_eigenspace(ctx.n // 2, -1), "delta")}
        if family == "even_t":
            params["L"] = intermediate_lin(data, ctx)
        else:
            params.update(beta=pick(data, intermediate(ctx), "beta"),
                          gamma=pick(data, ctx.subfield_elements()[1:], "gamma"),
                          s=data.draw(st.integers(0, 2 * ctx.n), label="s"))
        return ctx, params
    if family in ("alpha_beta", "alpha_beta_gamma"):
        ctx = draw_field(data, lambda p, e, n: p != 2 and n % 2 == 0)
        kernel = ctx.frobenius_eigenspace(ctx.n // 2, -1)
        params = {"t": data.draw(st.integers(0, 4), label="t"),
                  "delta": pick(data, intermediate(ctx), "delta"),
                  "alpha": pick(data, kernel, "alpha"), "beta": pick(data, kernel, "beta")}
        if family == "alpha_beta":
            params["L"] = intermediate_lin(data, ctx)
        else:
            params.update(gamma=pick(data, intermediate(ctx), "gamma"),
                          s=data.draw(st.integers(0, 2 * ctx.n), label="s"))
        return ctx, params
    if family == "anti_g":
        ctx = draw_field(data, lambda p, e, n: p != 2 and n % 2 == 0)
        return ctx, {"g": anti_recipe(data, ctx),
                     "delta": pick(data, ctx.elements(), "delta"),
                     "beta": pick(data, ctx.frobenius_eigenspace(1, -1), "beta"),
                     "L": base_lin(data, ctx)}
    if family == "n4k":
        ctx = draw_field(data, lambda p, e, n: n % 4 == 0)
        return ctx, {"variant": data.draw(st.sampled_from(["plain", "qtwist"])),
                     "delta": pick(data, ctx.elements(), "delta"),
                     "a": pick(data, ctx.subfield_elements()[1:], "a")}
    if family == "q6":
        ctx = draw_field(data, lambda p, e, n: n == 6)
        return ctx, {"variant": data.draw(st.sampled_from(["minus", "plus"])),
                     "h": pick(data, polys(ctx), "h"), "L": base_lin(data, ctx),
                     "delta": pick(data, ctx.elements(), "delta")}
    if family == "generic_L":
        ctx = draw_field(data, lambda p, e, n: n > 1)
        L = LinPoly.trace_map(ctx)
        h = pick(data, [invariant_recipe(data, ctx), Poly(ctx, [1]),
                        Poly(ctx, [ctx.subfield_elements()[-1]])], "h")
        return ctx, {"L": L,
                     "a": pick(data, [x for x in ctx.elements() if x and not L(x)], "a"),
                     "h": h, "L1": base_lin(data, ctx),
                     "delta": pick(data, ctx.elements(), "delta")}
    if family == "half_power":
        ctx = draw_field(data, lambda p, e, n: p != 2)
        return ctx, {"k": data.draw(st.integers(1, 2 * ctx.n), label="k"),
                     "a": pick(data, ctx.elements()[1:], "a"),
                     "b": pick(data, ctx.elements()[1:], "b"),
                     "delta": pick(data, ctx.elements(), "delta")}
    raise AssertionError(family)


@pytest.mark.parametrize("family", sorted(fam.FAMILY_BUILDERS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_code_map_matches_element_reference(family, data):
    ctx, params = draw_params(data, family)
    try:
        inst = fam.FAMILY_BUILDERS[family](ctx, **params)
    except (FamilyParameterError, RecipeContractError):
        assume(False)
    values, ref = inst.code_values(), reference(inst)
    for x in ctx.elements():
        assert values[x.code] == ref(x).code, f"{family} {inst.describe_params()} at x={x}"
    assert [inst.evaluator(x).code for x in ctx.elements()] == values
    edge = check_bijective(inst.evaluator, ctx)
    assert edge == check_iff(inst).verdict


def ref_outcome(family, ctx, P):
    """The skip reason, else the prediction, of a constructor's hypotheses
    and stated condition, checked in the constructor's order with element
    arithmetic (the checks that every grid point of these fields passes,
    such as the characteristic and the tower degree, are left out)."""
    k = ctx.n // 2
    fixed = lambda x, j: ref_frob(x, j) == x
    negated = lambda x, j: ref_frob(x, j) == -x
    permutes = lambda L: len({ref_lin(L, x) for x in ctx.elements()}) == ctx.order
    if family == "half_power":
        if P["k"] < 1:
            return "bad_k"
        if not P["a"] or not P["b"]:
            return "zero_coefficient"
        return any(y * y == P["a"] * P["b"] for y in ctx.elements())
    if family == "n4k":
        if not P["a"]:
            return "zero_a"
        if not fixed(P["a"], 1):
            return "a_outside_base"
        return ref_trace(P["delta"]) != (P["a"] if P["variant"] == "plain" else -P["a"])
    if P["t"] < 0:
        return "negative_t"
    if family in ("even_t", "trace_gamma") and P["t"] % 2:
        return "odd_t"
    if family == "trace_gamma":
        if P["s"] < 0:
            return "negative_s"
        if not negated(P["delta"], k):
            return "bad_delta"
        if not fixed(P["beta"], k):
            return "beta_outside_intermediate"
        if not P["gamma"]:
            return "gamma_zero"
        if not fixed(P["gamma"], 1):
            return "gamma_outside_base"
        gamma_inv = slow_pow(P["gamma"], ctx.order - 2)
        return ref_trace(P["beta"] * gamma_inv) + ctx.one != ctx.zero
    if family == "even_t":
        if not negated(P["delta"], k):
            return "bad_delta"
    else:  # alpha_beta
        if not fixed(P["delta"], k):
            return "delta_outside_intermediate"
        if not negated(P["alpha"], k):
            return "bad_alpha"
        if not negated(P["beta"], k):
            return "bad_beta"
    if not all(fixed(c, k) for c in P["L"].coefficients):
        return "linearized_coeffs_outside_intermediate"
    return permutes(P["L"])


# each parameter's element pools besides the whole field: the sets that make
# its hypothesis hold, so that passing and failing points are both drawn
OUTCOME_POOLS = {
    "half_power": {"a": (), "b": (), "delta": ()},
    "n4k": {"delta": (), "a": ("base",)},
    "trace_gamma": {"delta": ("anti",), "beta": ("fixed",), "gamma": ("base",)},
    "even_t": {"delta": ("anti",)},
    "alpha_beta": {"delta": ("fixed",), "alpha": ("anti",), "beta": ("anti",)},
}


@pytest.mark.parametrize("family, spec", [
    ("alpha_beta", (3, 1, 2)), ("alpha_beta", (3, 1, 4)),
    ("half_power", (3, 1, 2)), ("half_power", (5, 1, 2)),
    ("n4k", (2, 1, 4)), ("n4k", (2, 1, 8)), ("n4k", (3, 1, 4)),
    ("trace_gamma", (3, 1, 4)), ("even_t", (3, 1, 4)),
])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hypotheses_on_codes_match_element_reference(family, spec, data):
    ctx = make_field(*spec)
    k = ctx.n // 2
    pools = {"base": ctx.subfield_elements(), "fixed": ctx.frobenius_eigenspace(k, 1),
             "anti": ctx.frobenius_eigenspace(k, -1)}
    P = {name: data.draw(st.sampled_from(
             data.draw(st.sampled_from([ctx.elements()] + [pools[p] for p in names])))
             ) for name, names in OUTCOME_POOLS[family].items()}
    ints = st.integers(-1, 4)
    if family == "half_power":
        P["k"] = data.draw(ints)
    elif family == "n4k":
        P["variant"] = data.draw(st.sampled_from(["plain", "qtwist"]))
    else:
        P["t"] = data.draw(ints)
    if family == "trace_gamma":
        P["s"] = data.draw(ints)
    elif family in ("even_t", "alpha_beta"):
        coeffs = st.sampled_from(data.draw(st.sampled_from([ctx.elements(), pools["fixed"]])))
        P["L"] = LinPoly(ctx, data.draw(st.lists(coeffs, min_size=1, max_size=ctx.n)))
    try:
        outcome = fam.FAMILY_BUILDERS[family](ctx, **P).predicted_pp
    except FamilyParameterError as exc:
        outcome = exc.reason
    assert outcome == ref_outcome(family, ctx, P), P


def test_family_instances_stay_frozen():
    import dataclasses

    ctx = make_field(3, 1, 2)
    inst = fam.family_half_power(ctx, 1, ctx.one, ctx.one, ctx.zero)
    for name in ("family_id", "params", "predicted_pp", "evaluator"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, None)
    edge = inst.evaluator
    assert inst.evaluator is edge
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.evaluator = len
    # an evaluator passed in, as dataclasses.replace passes one, is kept
    assert dataclasses.replace(inst, evaluator=len).evaluator is len


def test_code_map_edge_interns_below_the_bound_and_makes_elements_above(monkeypatch):
    small = make_field(2, 1, 8)
    inst = fam.family_additive_g(small, fam.trace_of_h(Poly.x(small)),
                                 LinPoly(small, [small.one, small.one]), small.one)
    values = inst.code_values()
    assert all(inst.evaluator(x) is small.elem(values[x.code]) for x in small.elements())
    # above the interning bound the edge makes each element itself, not
    # through the field's interning _wrap
    ctx = make_field(2, 1, 17)
    inst = fam.family_additive_g(ctx, fam.trace_of_h(Poly.x(ctx)),
                                 LinPoly(ctx, [ctx.one, ctx.one]), ctx.one)
    values = inst.code_values()
    monkeypatch.setattr(gf.FieldCtx, "_wrap", None)
    for code in (0, 1, 2, 255, 256, 65535, 65536, 65537, ctx.order - 1):
        y = inst.evaluator(gf.Elem(ctx, code))
        assert type(y) is gf.Elem and y.ctx is ctx and y.code == values[code]


def test_fields_above_a_gather_chunk_build_no_reader():
    # a reader holds a tuple of every code of its table; above a gather
    # chunk value lists and squares read their tables a chunk at a time
    ctx = make_field(2, 1, 17)
    inst = fam.family_additive_g(ctx, fam.trace_of_h(Poly.x(ctx)),
                                 LinPoly(ctx, [ctx.one, ctx.one]), ctx.elem(3))
    values = inst.code_values()
    assert inst.code_values() == values  # the second request builds the view
    square = wrap_family_instance(inst)
    assert not any(key[0] in ("reader", "codes") for key in ctx._tables)
    (outer, inner), = fam.COMPOSITIONS["additive_g"](ctx, inst.params)[0]
    lin = inst.params["L"].tabulate()
    for x in random.Random(3).sample(range(ctx.order), 300):
        assert values[x] == ctx._add(outer[ctx._add(inner[x], 3)], lin[x])


def test_split_table_value_lists_above_a_gather_chunk():
    # 3^1:11 adds through the split tables with a middle digit, a chunk at a
    # time, against the Elem-only reference on a sample of points; the value
    # list is a code table, which keeps no int object per sum
    ctx = make_field(3, 1, 11)
    inst = fam.family_additive_g(ctx, fam.trace_of_h(Poly.x(ctx)), LinPoly.identity(ctx),
                                 ctx.elem(ctx.order - 5))
    values = inst.code_values()
    assert isinstance(values, array) and values.itemsize == 4 and len(values) == ctx.order
    ref = reference(inst)
    for x in [0, 1, ctx.order - 1] + random.Random(5).sample(range(ctx.order), 200):
        assert values[x] == ref(ctx.elem(x)).code


def test_half_power_tables_follow_field_k_a_and_b():
    # half_power keeps its linear tables in each field's cache by (k, a, b):
    # compiles interleaved across two fields with equal codes, and across k,
    # a and b, must each get their own tables
    F, G = make_field(3, 1, 4), make_field(5, 1, 2)
    points = [(F, 1, 1, 2, 0), (G, 1, 1, 2, 0), (F, 1, 1, 2, 5), (F, 2, 1, 2, 5),
              (G, 2, 1, 2, 3), (G, 1, 1, 2, 3), (F, 2, 2, 2, 5), (F, 2, 2, 1, 5),
              (F, 2, 2, 1, 0), (G, 1, 2, 1, 0), (F, 1, 2, 1, 0)]
    for ctx, k, a, b, delta in points:
        inst = fam.family_half_power(ctx, k, ctx.elem(a), ctx.elem(b), ctx.elem(delta))
        ref = reference(inst)
        assert inst.code_values() == [ref(x).code for x in ctx.elements()], \
            f"{ctx.label} {inst.describe_params()}"


def test_half_power_tables_are_the_fields_linear_maps():
    # a*x^(q^k) -+ b*x are the linear maps of (c, 0, ...) with a added at
    # k mod n, so the inner table of (a, b) is the lin table of (a, -b)
    for ctx, k, a, b in [(make_field(5, 1, 2), 1, 3, 2), (make_field(3, 1, 4), 2, 1, 2),
                         (make_field(5, 1, 2), 2, 1, 4), (make_field(3, 1, 3), 4, 2, 1)]:
        P = {"k": k, "a": ctx.elem(a), "b": ctx.elem(b), "delta": ctx.zero}
        [(_, inner)], lin, _ = fam.COMPOSITIONS["half_power"](ctx, P)

        def linear_map(c):
            coeffs = [c] + [0] * (ctx.n - 1)
            coeffs[k % ctx.n] = ctx._add(coeffs[k % ctx.n], a)
            return ctx.linear_map(coeffs)

        assert inner is linear_map(ctx._neg(b)) and lin is linear_map(b)
        [(_, other_inner)], _, _ = fam.COMPOSITIONS["half_power"](
            ctx, {**P, "b": ctx.elem(ctx._neg(b))})
        assert other_inner is lin


def ref_values(ctx, composition, delta):
    """sum(outer[inner[x] + delta]) + lin[x] for every code x, added by ctx._add."""
    terms, lin, _ = composition
    return [functools.reduce(ctx._add, [outer[ctx._add(inner[x], delta)]
                                        for outer, inner in terms], lin[x])
            for x in range(ctx.order)]


@pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 2), (5, 1, 2), (3, 1, 6)])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_values_read_shift_views_like_the_reference(spec, data, cold_caches):
    # XOR, add-table and split-table fields; each request is a composition of
    # one or two terms over a few outer tables (lists and code tables) and a delta
    # from a small pool, so (table, delta) pairs repeat and delta = 0 occurs.
    # Under a budget of 3q the cache evicts mid-sequence; a view entry holds
    # 2q codes, so under q - 1 and q the field records nothing
    ctx = cold_caches(make_field(*spec))  # entries charged under another example's budget
    q = ctx.order
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    outers = [[rng.randrange(q) for _ in range(q)] for _ in range(3)]
    outers.append(code_table(outers[0]))
    inners = [[rng.randrange(q) for _ in range(q)] for _ in range(2)]
    lin = [rng.randrange(q) for _ in range(q)]
    deltas = [0] + rng.sample(range(1, q), min(q - 1, 6))
    budget = data.draw(st.sampled_from([q - 1, q, 3 * q, gf._TABLE_CODES]), label="budget")
    requests = data.draw(st.lists(st.tuples(
        st.lists(st.tuples(st.integers(0, len(outers) - 1), st.integers(0, 1)),
                 min_size=1, max_size=2),
        st.sampled_from(deltas)), min_size=1, max_size=30), label="requests")
    with mock.patch.object(gf, "_TABLE_CODES", budget):
        for picks, delta in requests:
            composition = ([(outers[i], inners[j]) for i, j in picks], lin, None)
            assert (fam._values(ctx, fam._compiled(ctx, composition), delta)
                    == ref_values(ctx, composition, delta))
            assert ctx._charged <= budget


# an add-table, an XOR and a split-table field; each L sweeps the deltas over the
# same g, so the field builds views from the second L on
EVICTION_GRIDS = [("3^1:4", "all"), ("2^1:8", list(range(0, 256, 9))),
                  ("3^1:6", list(range(0, 729, 61)))]


@pytest.mark.parametrize("field, deltas", EVICTION_GRIDS)
def test_readers_evicted_mid_grid_change_no_output(field, deltas, tmp_path, monkeypatch,
                                                   cold_caches):
    # under a budget of 12 tables of the field, readers (with their add
    # rows), views and linear tables are evicted and built again mid-grid;
    # the value lists, census bytes and fiber reports equal those of a run
    # under a budget of 0, which keeps no table, view or reader, and whose
    # value lists equal the reference sum
    params = {"g": [{"kind": "trace_of_h", "h": {"mono": 1}}],
              "L": ["identity", "frob:1", "trace"], "delta": deltas}
    ctx = gf.parse_field_spec(field)

    def run(budget):
        cold_caches(ctx)
        monkeypatch.setattr(gf, "_TABLE_CODES", budget)
        grid = [inst for inst in fam.instantiate_grid("additive_g", [ctx], params)
                if isinstance(inst, fam.FamilyInstance)]
        values = [inst.code_values() for inst in grid]
        reports = [check_fiber_criterion(wrap_family_instance(inst)) for inst in grid]
        out_csv = tmp_path / f"census-{budget}.csv"
        assert main(["census", "additive_g", field, "-o", str(out_csv),
                     "--params", json.dumps(params)]) == 0
        assert ctx._charged <= budget
        return grid, values, reports, out_csv.read_bytes()

    grid, reference, reports, census = run(0)
    assert reference == [ref_values(ctx, fam.COMPOSITIONS["additive_g"](ctx, inst.params),
                                    inst.params["delta"].code) for inst in grid]
    evicted = collections.Counter()
    store = gf.FieldCtx._store

    def watched_store(self, key, value, charge):
        kept = set(self._tables)
        store(self, key, value, charge)
        evicted.update(key[0] for key in kept - self._tables.keys())

    monkeypatch.setattr(gf.FieldCtx, "_store", watched_store)
    assert run(12 * ctx.order)[1:] == (reference, reports, census)
    assert evicted["reader"] and evicted["view"] and evicted["lin"]


@pytest.mark.parametrize("spec", [(3, 1, 4), (2, 1, 8), (3, 1, 6)])
def test_a_reader_is_charged_at_least_what_it_holds(spec, monkeypatch, cold_caches):
    # tracemalloc sees every byte a reader adds; the first reader also
    # makes the field's list of code ints, a cache entry of its own, which
    # the second reads
    ctx = cold_caches(make_field(*spec))
    tables, charged, store = [ctx.linear_map([1]), ctx.linear_map([0, 1])], [], gf.FieldCtx._store

    def store_codes_only(self, key, value, charge):  # no reader is kept: only they are alive
        charged.append((key[0], charge))
        if key[0] == "codes":
            store(self, key, value, charge)

    monkeypatch.setattr(gf.FieldCtx, "_store", store_codes_only)
    held, readers = [], []
    tracemalloc.start()
    try:
        for table in tables:
            before = tracemalloc.get_traced_memory()[0]
            readers.append(ctx.reader(table))
            held.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert all(r[0] is table and list(r[1]) == list(table) for r, table in zip(readers, tables))
    (_, ints), (_, first), (_, second) = charged
    assert [key for key, _ in charged] == ["codes", "reader", "reader"]
    assert 4 * (ints + first) >= held[0]
    assert held[1] >= 8 * ctx.order and 4 * second >= held[1]


@pytest.mark.parametrize("spec", [(5, 1, 2), (3, 1, 6), (2, 1, 12), (3, 1, 8), (2, 1, 16)])
def test_the_code_ints_are_charged_every_int(spec, cold_caches):
    # the field's list of code ints is charged its own bytes and those of
    # each of its ints, which are counted without a getsizeof call apiece
    ctx = cold_caches(make_field(*spec))
    ctx.reader(ctx.linear_map([1]))
    ints, charge = ctx._tables[("codes",)]
    assert ints == list(range(ctx.order))
    assert charge == -(-(sys.getsizeof(ints) + sum(map(sys.getsizeof, ints))) // 4)


def test_a_rebuilt_table_never_reads_a_stale_view():
    # tables made and dropped one after another tend to reuse an address;
    # each is requested twice with the same delta, so a view or a reader
    # keyed by a freed table's id would be read by the next table at that
    # address
    ctx = make_field(3, 1, 2)
    rng = random.Random(5)
    for _ in range(200):
        outer, inner, lin = ([rng.randrange(ctx.order) for _ in range(ctx.order)]
                             for _ in range(3))
        composition = ([(outer, inner)], lin, None)
        expected = ref_values(ctx, composition, 4)
        assert fam._values(ctx, fam._compiled(ctx, composition), 4) == expected
        assert fam._values(ctx, fam._compiled(ctx, composition), 4) == expected
        del outer, inner, lin, composition


@pytest.mark.parametrize("family, spec", [("trace_gamma", (3, 1, 4)),
                                          ("alpha_beta_gamma", (3, 1, 4)),
                                          ("n4k", (2, 1, 8))])
def test_compiles_make_no_linpoly_once_the_tables_exist(family, spec, monkeypatch):
    # every linear table of a composition is cached per field and coefficient
    # vector, so compiling a grid a second time builds no LinPoly
    ctx = make_field(*spec)
    grid = [inst for inst in fam.instantiate_grid(family, [ctx], fam.DEFAULT_GRIDS[family])
            if isinstance(inst, fam.FamilyInstance)]
    made = []
    init = LinPoly.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    for compile_pass in range(2):
        if compile_pass:
            monkeypatch.setattr(LinPoly, "__init__", counting_init)
        for inst in grid:
            inst.code_values()
            inst.square_codes()
    assert grid and made == []
    LinPoly.identity(ctx)  # the count sees constructions
    assert len(made) == 1


@pytest.mark.parametrize("spec", [(2, 1, 8), (3, 1, 4), (5, 1, 2)])
def test_log_frobenius_is_the_q_power_map(spec):
    ctx = make_field(*spec)
    for x in ctx.elements():
        for j in range(ctx.n):
            y = x.frobenius(j)
            assert y == x ** (ctx.q ** j)
            assert y == slow_pow(x, ctx.q ** j)


def power_sum(y, terms):
    """sum(sign * y**e for e, sign in terms), in Elem arithmetic."""
    acc = y.ctx.zero
    for e, sign in terms:
        acc = acc + y ** e if sign == 1 else acc - y ** e
    return acc


def outer_tables(family, ctx, variant, h=None):
    P = {"variant": variant, "delta": ctx.zero, "a": ctx.one}
    if family == "q6":
        P = {"variant": variant, "h": h, "L": LinPoly.identity(ctx), "delta": ctx.zero}
    return [outer for outer, _ in fam.COMPOSITIONS[family](ctx, P)[0]]


# an XOR field, an add-table field and three split-table fields
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_power_sum_tables_match_elem_powers(data):
    # every multi-term power sum of the families and recipes, tabulated as
    # one linear map of one power, against the sum of its Elem powers
    ctx = make_field(*data.draw(st.sampled_from(
        [(2, 1, 8), (3, 1, 4), (3, 1, 6), (3, 1, 8), (5, 1, 4)]), label="field"))
    n, q = ctx.n, ctx.q
    h = Poly(ctx, data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=4), label="h"))
    hx = [ctx._wrap(y) for y in h.tabulate()]
    expected = {}  # table -> y -> its terms (e, sign), read at y

    if n % 4 == 0:
        k = n // 4
        for first, variant in enumerate(["plain", "qtwist"]):
            terms = [(q ** u + q ** (u + 2 * k), 1) for u in range(first, 2 * k, 2)]
            (outer,) = outer_tables("n4k", ctx, variant)
            expected[f"n4k {variant}"] = (outer, None, terms)
    if n == 6:
        (minus,) = outer_tables("q6", ctx, "minus", h)
        expected["q6 minus"] = (minus, hx, [(q ** 4, 1), (q ** 3, 1), (q, -1), (1, -1)])
        lead, trail = outer_tables("q6", ctx, "plus", h)
        expected["q6 plus lead"] = (lead, hx, [(q ** 4, 1), (q ** 3, -1)])
        expected["q6 plus trail"] = (trail, hx, [(q, 1), (1, -1)])
    d = data.draw(st.sampled_from([d for d in range(2, n) if n % d == 0]), label="d")
    M = sum(q ** (i * d) for i in range(n // d))
    expected["m_sum"] = (fam.g_codes(fam.m_sum(h, d), ctx), hx,
                         [(M * q ** j, 1) for j in range(d)])
    if ctx.p != 2:
        expected["anti_alternating"] = (fam.g_codes(fam.anti_alternating(h), ctx), hx,
                                        [(q ** j, 1 if j % 2 else -1) for j in range(n)])
        d = data.draw(st.sampled_from([d for d in range(1, n) if n % (2 * d) == 0]),
                      label="anti d")
        M = sum(q ** (2 * i * d) for i in range(n // (2 * d)))
        expected["anti_m_sum"] = (fam.g_codes(fam.anti_m_sum(h, d), ctx), hx,
                                  [(M * q ** (2 * j), 1) for j in range(d)]
                                  + [(M * q ** (2 * j + 1), -1) for j in range(d)])

    for name, (table, ys, terms) in expected.items():
        ys = ctx.elements() if ys is None else ys
        assert list(table) == [power_sum(y, terms).code for y in ys], f"{ctx.label} {name}"


# ---------------------------------------------------------------------------
# commuting squares: the fiber-map code tables against their formulas, and
# the integer-list audit against the Elem-keyed audit it replaced


def ref_fiber_maps(inst):
    """(psi, psibar) of the family's square by their defining formulas, or
    None for a family without fiber maps."""
    ctx, P, n = inst.ctx, inst.params, inst.ctx.n
    family, delta = inst.family_id, inst.params.get("delta")
    if family in ("additive_g", "n4k"):
        bar = lambda x: ref_frob(x, 1) - x
    elif family in ("even_t", "trace_gamma"):
        bar, delta = (lambda x: ref_frob(x, n // 2) - x), ctx.zero
    elif family in ("alpha_beta", "alpha_beta_gamma"):
        bar, delta = (lambda x: ref_frob(x, n // 2) + x), ctx.zero
    elif family == "anti_g":
        bar = lambda x: ref_frob(x, 1) + x
    elif family == "q6":
        if P["variant"] == "minus":
            bar = lambda x: ref_frob(x, 2) - ref_frob(x, 1) + x
        else:
            bar = lambda x: ref_frob(x, 2) + ref_frob(x, 1) + x
    elif family == "generic_L":
        bar = lambda x: ref_lin(P["L"], x)
    else:
        return None
    return (lambda x: bar(x) + delta), bar


def ref_audit(A, psi, psibar, f, h=None, S=None, Sbar=None):
    """FiberReport of the commuting-square audit on Elem-keyed dicts, as
    AGWInstance and check_fiber_criterion computed it before maps became
    integer lists; raises the errors that audit raised."""
    A = tuple(A)

    def table(domain, m):
        if isinstance(m, dict):
            if set(m) != set(domain):
                raise ValueError("table keys must match the domain exactly")
            return dict(m)
        return {x: m(x) for x in domain}

    def image(t, domain):
        return tuple(dict.fromkeys(t[x] for x in domain))

    psi, psibar, f = table(A, psi), table(A, psibar), table(A, f)
    S = tuple(S) if S is not None else image(psi, A)
    Sbar = tuple(Sbar) if Sbar is not None else image(psibar, A)
    if set(image(psi, A)) != set(S):
        raise NotSurjectiveError("psi does not cover S")
    if set(image(psibar, A)) != set(Sbar):
        raise NotSurjectiveError("psibar does not cover Sbar")
    if len(S) != len(Sbar):
        raise HypothesisViolatedError("cardinality", "#S != #Sbar")
    fibers = {}
    for x in A:
        fibers.setdefault(psi[x], []).append(x)
    if h is None:
        h = {}
        for s, fiber in fibers.items():
            values = {psibar[f[x]] for x in fiber}
            if len(values) != 1:
                raise NotCommutingError(
                    f"no induced map: psibar(f(.)) not constant on the fiber over {s!r}")
            h[s] = values.pop()
    else:
        h = table(S, h)
        for x in A:
            if psibar[f[x]] != h[psi[x]]:
                raise NotCommutingError(f"psibar(f({x!r})) != h(psi({x!r}))")
    f_image, h_image = set(f.values()), {h[s] for s in S}
    witness = None
    for s in S:
        seen = {}
        for x in fibers[s]:
            if f[x] in seen:
                witness = (s, seen[f[x]], x)
                break
            seen[f[x]] = x
        if witness:
            break
    return FiberReport(
        f_bijective=len(f_image) == len(A) and f_image == set(A),
        h_bijective=len(h_image) == len(S) and h_image == set(Sbar),
        fiber_injective=witness is None,
        fiber_witness=witness,
    )


def outcome(audit):
    """The report, or the error's type, hypothesis name and message."""
    try:
        return audit()
    except (AGWError, ValueError) as exc:
        return type(exc), getattr(exc, "name", None), str(exc)


@pytest.mark.parametrize("family", sorted(fam.FAMILY_BUILDERS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_family_square_matches_element_reference(family, data):
    ctx, params = draw_params(data, family)
    try:
        inst = fam.FAMILY_BUILDERS[family](ctx, **params)
    except (FamilyParameterError, RecipeContractError):
        assume(False)
    fiber, ref = inst.square_codes()[1], ref_fiber_maps(inst)
    A = ctx.elements()
    if ref is None:
        assert fiber is None
        ref = (lambda x: x, lambda x: x)
    else:
        psibar, delta = fiber
        maps = ([ctx._add(c, delta) for c in psibar], psibar)
        ref = ({x: ref[0](x) for x in A}, {x: ref[1](x) for x in A})
        for x in A:
            for codes, want in zip(maps, ref):
                assert codes[x.code] == want[x].code, f"{inst.describe_params()} at {x}"
    f = reference(inst)
    assert (outcome(lambda: check_fiber_criterion(wrap_family_instance(inst)))
            == outcome(lambda: ref_audit(A, ref[0], ref[1], f)))


SQUARE_FIELDS = [(2, 1, 2), (3, 1, 1), (2, 1, 3), (5, 1, 1), (3, 1, 2), (2, 1, 4)]


def draw_square(data):
    """A domain of field elements in a drawn order and maps on it: random
    maps (mostly not commuting), descending maps (the square commutes, h
    and the fibers drawn to be bijective, collapsing or neither) or the
    identity square; with S and h passed explicitly or left to the audit."""
    ctx = make_field(*pick(data, SQUARE_FIELDS, "field"))
    A = data.draw(st.permutations(ctx.elements()), label="A")
    n = len(A)

    def elem(pool, label):
        return pool[data.draw(st.integers(0, len(pool) - 1), label=label)]

    kind = data.draw(st.sampled_from(["random", "descending", "identity"]), label="kind")
    if kind == "identity":
        ident = {x: x for x in A}
        return A, ident, ident, ident, {}
    pool = A[:data.draw(st.integers(1, n), label="k")]
    psi = {x: elem(pool, "psi") for x in A}
    if kind == "random":
        psibar = {x: elem(pool, "psibar") for x in A}
        f = {x: elem(A, "f") for x in A}
    else:
        # psibar(x) = tau(psi(pi^-1(x))): its fiber over tau(s) is pi(psi^-1(s))
        S = list(dict.fromkeys(psi.values()))
        pi = dict(zip(A, data.draw(st.permutations(A), label="pi")))
        tau = dict(zip(S, data.draw(st.permutations(A), label="tau")))
        psibar = {pi[x]: tau[psi[x]] for x in A}
        f = {}
        for s in S:
            fiber = [x for x in A if psi[x] == s]
            target = elem(S, "h") if data.draw(st.booleans(), label="rehome") else s
            image = [pi[x] for x in A if psi[x] == target]
            f.update((x, elem(image, "f")) for x in fiber)
            if len(image) == len(fiber) and data.draw(st.booleans(), label="bijective"):
                f.update(zip(fiber, data.draw(st.permutations(image), label="onto")))
    extra = {}
    S = list(dict.fromkeys(psi.values()))
    how = data.draw(st.sampled_from(["none", "shuffled", "shuffled", "missing", "extra"]),
                    label="S")
    if how == "shuffled":
        extra["S"] = data.draw(st.permutations(S), label="order")
    elif how == "missing" and len(S) > 1:
        extra["S"] = S[1:]
    elif how == "extra" and len(S) < n:
        extra["S"] = S + [next(x for x in A if x not in S)]
    if data.draw(st.booleans(), label="explicit_h"):
        extra["h"] = {s: elem(A, "h_value") for s in extra.get("S", S)}
        if kind == "descending" and data.draw(st.booleans(), label="induced_h"):
            extra["h"] = {psi[x]: psibar[f[x]] for x in reversed(A)}
            extra["h"].update((s, A[0]) for s in extra.get("S", S) if s not in extra["h"])
    return A, psi, psibar, f, extra


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_audit_matches_element_reference(data):
    A, psi, psibar, f, extra = draw_square(data)
    assert (outcome(lambda: check_fiber_criterion(AGWInstance(A, psi, psibar, f, **extra)))
            == outcome(lambda: ref_audit(A, psi, psibar, f, **extra)))


# a field past a gather chunk, whose value lists are built a chunk at a time,
# and one with odd-dim split tables, each with the families some point on it
# satisfies
COMPILED_POINTS = [((2, 1, 17), "additive_g"), ((2, 1, 17), "generic_L"),
                   ((3, 1, 7), "additive_g"), ((3, 1, 7), "generic_L"),
                   ((3, 1, 7), "half_power")]


def draw_non_delta(data, family, ctx):
    """A point's parameters but delta, drawn as draw_params draws them."""
    if family == "additive_g":
        return {"g": invariant_recipe(data, ctx), "L": base_lin(data, ctx)}
    if family == "generic_L":
        L = LinPoly.trace_map(ctx)
        h = pick(data, [invariant_recipe(data, ctx), Poly(ctx, [1]),
                        Poly(ctx, [ctx.subfield_elements()[-1]])], "h")
        return {"L": L, "a": pick(data, ctx.zero_set(L.tabulate())[1:], "a"), "h": h,
                "L1": base_lin(data, ctx)}
    return {"k": data.draw(st.integers(1, 2 * ctx.n), label="k"),
            "a": ctx.elem(data.draw(st.integers(1, ctx.order - 1), label="a")),
            "b": ctx.elem(data.draw(st.integers(1, ctx.order - 1), label="b"))}


# an example past a gather chunk takes about half a second, and shrinking a
# failing one ran for minutes, so a failure is reported as it was drawn
@pytest.mark.parametrize("spec, family", COMPILED_POINTS)
@settings(max_examples=3, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_a_compiled_composition_matches_the_element_reference_at_every_delta(spec, family,
                                                                              data):
    # one point's composition is compiled once, as a grid compiles it, and
    # its value list and square at several deltas are compared with the
    # element reference: on 3^1:7 at every element, with the audit of the
    # whole square; past a gather chunk at a sample of elements that takes
    # both sides of each chunk boundary, with the fiber maps there and the
    # square's decision against its report
    ctx = make_field(*spec)
    params = draw_non_delta(data, family, ctx)
    deltas = data.draw(st.lists(st.sampled_from([0, 1, ctx.order - 1])
                                | st.integers(0, ctx.order - 1), min_size=2, max_size=3),
                       label="deltas")
    if ctx.order > gf._GATHER_CHUNK:
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        sample = sorted({0, 1, ctx.order - 1, *rng.sample(range(ctx.order), 150),
                         *(c + d for c in range(gf._GATHER_CHUNK, ctx.order, gf._GATHER_CHUNK)
                           for d in (-1, 0))})
    else:
        sample = range(ctx.order)
    calls, composition = [], fam.COMPOSITIONS[family]
    with mock.patch.dict(fam.COMPOSITIONS,
                         {family: lambda *args: calls.append(args) or composition(*args)}):
        compiled = fam._point_compositions(family, ctx)
        for delta in deltas:
            P = {**params, "delta": ctx.elem(delta)}
            try:
                inst = fam.FAMILY_BUILDERS[family](ctx, **P)
            except (FamilyParameterError, RecipeContractError):
                assume(False)
            point = compiled(tuple(P[name] for name in fam.PARAM_ORDER[family]))
            values, fiber = fam._values(ctx, point, delta), fam._fiber(point, delta)
            assert isinstance(values, array) == (ctx.order > gf._GATHER_CHUNK)
            ref, maps = reference(inst), ref_fiber_maps(inst)
            for x in sample:
                assert values[x] == ref(ctx.elem(x)).code, f"{inst.describe_params()} at {x}"
            assert (fiber is None) == (maps is None)
            if maps is not None:
                psibar, shift = fiber
                for x in sample:
                    assert (ctx._add(psibar[x], shift), psibar[x]) == tuple(
                        m(ctx.elem(x)).code for m in maps), f"{inst.describe_params()} at {x}"
            square = agw._wrap_codes(ctx, values, fiber)
            holds = agw._square_holds(ctx, values, fiber)
            if ctx.order > gf._GATHER_CHUNK:
                assert holds == check_fiber_criterion(square).equivalence_holds
            else:
                A = ctx.elements()
                maps = maps or (lambda x: x, lambda x: x)
                expected = ref_audit(A, *maps, lambda x: ctx.elem(values[x.code]))
                assert check_fiber_criterion(square) == expected
                assert holds == expected.equivalence_holds
    assert len(calls) == 1
