"""The field's q-linear tables x -> sum(a_i * x^(q^i)) and the sets read off
them: the trace, the Frobenius eigenspaces, the element tokens of a grid and
the symmetry contract of a g recipe, each against its brute-force definition
on elements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppforge import families as fam
from ppforge import recipes
from ppforge.families import FamilyParameterError
from ppforge.gf import make_field
from ppforge.linearized import LinPoly
from ppforge.poly import Poly

# XOR addition, the add table, and the split tables (3^6 is above the table)
LINEAR_FIELDS = [(2, 1, 6), (3, 1, 4), (3, 1, 6)]
EIGEN_FIELDS = [(2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (3, 1, 6)]
EVEN_FIELDS = [(2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 1, 4), (5, 1, 2), (3, 1, 6)]


def brute_linear(ctx, coeffs, x):
    """sum(a_i * x^(q^i)) in Elem arithmetic."""
    acc = ctx.zero
    for i, a in enumerate(coeffs):
        acc = acc + ctx.elem(a) * x.frobenius(i)
    return acc


def coefficient_vectors(ctx, small=False):
    code = st.sampled_from([0, 1, ctx.p - 1]) if small else st.integers(0, ctx.order - 1)
    return st.lists(code, min_size=0, max_size=ctx.n)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_linear_map_matches_the_per_code_evaluator(data):
    ctx = make_field(*data.draw(st.sampled_from(LINEAR_FIELDS), label="field"))
    coeffs = data.draw(coefficient_vectors(ctx), label="coeffs")
    padded = tuple(coeffs) + (0,) * (ctx.n - len(coeffs))
    table = ctx.linear_map(coeffs)
    assert list(table) == [ctx._linear_code(padded, c) for c in range(ctx.order)]
    assert ctx.linear_map(padded) is table  # one cached table per padded vector
    assert LinPoly(ctx, coeffs).tabulate() is table
    for c in data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=8), label="points"):
        assert table[c] == brute_linear(ctx, padded, ctx.elem(c)).code


@pytest.mark.parametrize("spec", EIGEN_FIELDS)
def test_frobenius_eigenspace_matches_its_definition(spec):
    # k runs past n, so k = n and k = 2n (x^(q^k) = x) are covered
    ctx = make_field(*spec)
    for k in range(1, 2 * ctx.n + 1):
        for sign in (1, -1):
            want = tuple(x for x in ctx.elements()
                         if x.frobenius(k) == (x if sign == 1 else -x))
            assert ctx.frobenius_eigenspace(k, sign) == want, (k, sign)


def test_frobenius_eigenspace_makes_elements_only_for_members(monkeypatch):
    ctx = make_field(2, 1, 17)  # above the interning bound: every read makes an Elem
    made = []
    wrap = type(ctx)._wrap
    monkeypatch.setattr(type(ctx), "_wrap", lambda self, c: made.append(c) or wrap(self, c))
    fixed = ctx.frobenius_eigenspace(1, 1)
    assert [x.code for x in fixed] == list(ctx._subfield_codes) == made


@pytest.mark.parametrize("spec", EVEN_FIELDS)
def test_element_tokens_match_brute_force_filters(spec):
    ctx = make_field(*spec)
    k = ctx.n // 2
    intermediate = [x for x in ctx.elements() if x.frobenius(k) == x]
    assert fam._resolve_elem_token(ctx, "intermediate", "trace_gamma") == intermediate
    for family_id, power in (("even_t", k), ("anti_g", 1)):
        kernel = [x for x in ctx.elements() if x.frobenius(power) == -x]
        assert fam._resolve_elem_token(ctx, "sign_kernel", family_id) == kernel
        assert fam._resolve_elem_token(ctx, "sign_kernel_nonzero", family_id) == kernel[1:]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_nonzero_token_matches_brute_force(data):
    ctx = make_field(*data.draw(st.sampled_from([(2, 1, 4), (3, 1, 4), (3, 1, 6)]),
                                label="field"))
    vectors = data.draw(st.lists(coefficient_vectors(ctx, small=True), min_size=1,
                                 max_size=3), label="vectors")
    Ls = [LinPoly(ctx, v) for v in vectors] + [LinPoly.trace_map(ctx)]
    params = {"L": Ls, "a": "kernel_nonzero", "h": [Poly.monomial(ctx, 1)],
              "L1": ["identity"], "delta": "zero"}
    got = [(L, a) for L, a, *_ in fam._expand_params("generic_L", ctx, params, 0)]
    want = [(L, x) for L in Ls for x in ctx.elements()
            if x and brute_linear(ctx, L.codes, x).is_zero]
    assert got == want


def brute_contract_failure(ctx, table, sign):
    for x, y in enumerate(table):
        y = ctx.elem(y)
        if y.frobenius(1) != (y if sign == 1 else -y):
            return x
    return None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contract_check_names_the_first_failure(data):
    ctx = make_field(*data.draw(st.sampled_from([(3, 1, 2), (3, 1, 4), (2, 1, 4)]),
                                label="field"))
    sign = data.draw(st.sampled_from([1, -1]), label="sign")
    good = [x.code for x in ctx.frobenius_eigenspace(1, sign)]
    table = data.draw(st.lists(st.sampled_from(good), min_size=ctx.order,
                               max_size=ctx.order), label="table")
    for x in data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=3), label="bad"):
        table[x] = data.draw(st.integers(0, ctx.order - 1), label="value")
    assert recipes._check_contract(ctx, table, sign) == brute_contract_failure(ctx, table, sign)


def test_generic_L_with_a_non_invariant_h_names_the_first_failure():
    # h = x is not q-invariant: the first x outside F_q fails h(x)^q = h(x)
    ctx = make_field(3, 1, 4)
    L = LinPoly.trace_map(ctx)
    a = ctx.zero_set(L.tabulate())[1]
    first = next(x for x in ctx.elements() if x.frobenius() != x)
    with pytest.raises(FamilyParameterError) as exc:
        fam.family_generic_L(ctx, L, a, Poly.monomial(ctx, 1), LinPoly.identity(ctx),
                             ctx.zero)
    assert exc.value.reason == "h_contract"
    assert str(exc.value).endswith(f"at x={first}")


@pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 4), (3, 1, 6)])
def test_trace_reads_the_trace_map_table(spec, cold_caches):
    ctx = cold_caches(make_field(*spec))  # a private cache to mark an entry in
    table = LinPoly.trace_map(ctx).tabulate()
    assert ctx.linear_map((1,) * ctx.n) is table
    assert [x.trace().code for x in ctx.elements()] == list(table)
    trace_of_x = recipes.build_g(recipes.trace_of_h(Poly.monomial(ctx, 1)), ctx)
    assert list(trace_of_x.codes) == list(table)
    c = next(c for c, t in enumerate(table) if t)
    table[c] = 0  # the trace and trace_of_h now read the marked entry
    assert ctx.elem(c).trace() == ctx.zero
    assert recipes._tabulate_unverified(recipes.trace_of_h(Poly.monomial(ctx, 1)), ctx)[c] == 0
