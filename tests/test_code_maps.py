"""Differential tests: every family's code map against a reference written
here with Elem arithmetic only, on random small fields and random grid
points; and the Elem-edge scan against the code-list scan."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ppforge import families as fam
from ppforge.families import FamilyParameterError, RecipeContractError
from ppforge.gf import make_field
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
    f, ref = inst.code_map(), reference(inst)
    for x in ctx.elements():
        assert f(x.code) == ref(x).code, f"{family} {inst.describe_params()} at x={x}"
    edge = check_bijective(inst.evaluator, ctx)
    assert edge == check_iff(inst).verdict


@pytest.mark.parametrize("spec", [(2, 1, 8), (3, 1, 4), (5, 1, 2)])
def test_log_frobenius_is_the_q_power_map(spec):
    ctx = make_field(*spec)
    for x in ctx.elements():
        for j in range(ctx.n):
            y = x.frobenius(j)
            assert y == x ** (ctx.q ** j)
            assert y == slow_pow(x, ctx.q ** j)
