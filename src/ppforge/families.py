"""Constructors for the permutation-polynomial families.

Each constructor validates its hypotheses and computes the predicted
verdict from the family's stated bijectivity condition alone; brute force
never feeds the prediction.  The map itself is declared once per family as
a composition of field tables, x -> sum(outer[inner[x] + delta]) + L(x),
over the field's tables (exp/log/add, the log-Frobenius, the trace) and
tables of the parameters (g, h, L), each built once per field.  The one
composition gives both the value list, the code of f(x) for every code x,
built in whole-table passes (``map`` over lists, no Python frame per
element), and the fiber maps of the family's commuting square: psibar is
the first inner table and psi is psibar plus the fiber delta.

Huge monomials such as x^((q^n+1)/2) are never materialized as coefficient
vectors: they are power maps on logs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .gf import CtxMismatchError, Elem, FieldCtx, ResidueClass
from .linearized import (
    CriteriaDisagreeError,
    LinPoly,
    format_linpoly,
    gcd_criterion_is_pp,
    is_permutation,
    parse_linpoly,
    random_linearized_pp,
)
from .poly import Poly, parse_poly
from .recipes import (  # the recipe names are part of this module's API
    FamilyError,
    FamilyParameterError,
    GRecipe,
    RecipeContractError,
    anti_alternating,
    anti_m_sum,
    anti_scaled,
    build_g,
    g_codes,
    m_sum,
    norm_power,
    product_of,
    recipe_sign,
    sum_of,
    symmetric_codes,
    trace_of_h,
)
from .recipes import _powers_of_h


@dataclass(frozen=True, eq=False, init=False)
class FamilyInstance:
    """A fully parameterized family member with its predicted verdict.

    The map itself is the family's composition (``COMPOSITIONS``), compiled
    from ``ctx`` and ``params`` as its value list by :meth:`code_values`
    when it is needed and not stored on the instance; ``evaluator`` is its
    ``Elem -> Elem`` edge, a :class:`CodeMapEdge` made when first read
    unless one is passed, and :meth:`square_codes` gives the value list and
    the fiber maps from one composition call.
    """

    family_id: str
    ctx: FieldCtx
    params: dict
    predicted_pp: bool
    evaluator: Callable[[Elem], Elem] = functools.cached_property(
        lambda self: CodeMapEdge(self.family_id, self.ctx, self.params))

    def __init__(self, family_id: str, ctx: FieldCtx, params: dict, predicted_pp: bool,
                 evaluator: Optional[Callable[[Elem], Elem]] = None):
        # written past the frozen __setattr__, which refuses every assignment;
        # a census never reads the evaluator, so it makes no edge
        fields = self.__dict__
        fields.update(family_id=family_id, ctx=ctx, params=params, predicted_pp=predicted_pp)
        if evaluator is not None:
            fields["evaluator"] = evaluator

    def code_values(self) -> list[int]:
        """The code of f(x) for every element code x, in code order."""
        return _compile(self.family_id, self.ctx, self.params)

    def square_codes(self) -> tuple[list[int], Optional[tuple[Sequence[int], int]]]:
        """The value list and (psibar, fiber delta) of the family's
        commuting square, from one composition call: psibar is the first
        term's inner table and psi = psibar + fiber delta; None in place of
        the pair for a family without fiber maps."""
        composition = COMPOSITIONS[self.family_id](self.ctx, self.params)
        terms, _, _, fiber_delta = composition
        fiber = None if fiber_delta is None else (terms[0][1], fiber_delta)
        return _values(self.ctx, composition), fiber

    def describe_params(self) -> str:
        return " ".join(f"{k}={describe_value(v)}" for k, v in self.params.items())


class CodeMapEdge:
    """The ``Elem -> Elem`` view of a family's code map, compiled on the
    first call and kept for the later ones."""

    __slots__ = ("family_id", "ctx", "params", "_values")

    def __init__(self, family_id: str, ctx: FieldCtx, params: dict):
        self.family_id = family_id
        self.ctx = ctx
        self.params = params
        self._values: Optional[list[int]] = None

    def __call__(self, x: Elem) -> Elem:
        ctx = self.ctx
        if x.ctx is not ctx:
            raise CtxMismatchError("argument from a different field")
        if self._values is None:
            self._values = _compile(self.family_id, ctx, self.params)
        return ctx._wrap(self._values[x.code])


@dataclass(frozen=True, eq=False)
class SkippedInstance:
    """A grid point whose hypotheses cannot be satisfied, with the reason."""

    family_id: str
    ctx: FieldCtx
    params: dict
    reason: str

    def describe_params(self) -> str:
        return " ".join(f"{k}={describe_value(v)}" for k, v in self.params.items())


def describe_value(v) -> str:
    if isinstance(v, Elem):  # most parameters of a grid are elements
        return str(v)
    if isinstance(v, GRecipe):
        return v.describe()
    if isinstance(v, LinPoly):
        return format_linpoly(v)
    return str(v)


def _require(cond: bool, reason: str, detail: str = "") -> None:
    if not cond:
        raise FamilyParameterError(reason, detail)


def _check_elem(ctx: FieldCtx, value, name: str) -> Elem:
    if not isinstance(value, Elem) or value.ctx is not ctx:
        raise FamilyParameterError("wrong_field", f"{name} must be an element of {ctx.label}")
    return value


def _negated_by(ctx: FieldCtx, x: Elem, k: int) -> bool:
    """x^(q^k) = -x, decided on codes."""
    return ctx._frob(x.code, k) == ctx._neg(x.code)


def _trace_code(ctx: FieldCtx, code: int) -> int:
    """The code of Tr(x), read from the field's all-ones linear table."""
    return ctx.linear_map((1,) * ctx.n)[code]


def _linpoly_fixed_by(L: LinPoly, k: int) -> bool:
    ctx = L.ctx
    return all(ctx._frob(c, k) == c for c in L.codes)


def _permutes(L: LinPoly) -> bool:
    """is_permutation(L), decided once per field and coefficient vector."""
    return L.ctx.derived(("permutes", L.codes), lambda: is_permutation(L))


def _gcd_permutes(L: LinPoly) -> bool:
    """gcd_criterion_is_pp(L), decided once per field and coefficient vector."""
    return L.ctx.derived(("gcd_permutes", L.codes), lambda: gcd_criterion_is_pp(L))


def _instance(family_id: str, ctx: FieldCtx, params: dict,
              predicted: bool) -> FamilyInstance:
    return FamilyInstance(family_id=family_id, ctx=ctx, params=params,
                          predicted_pp=predicted)


# ---------------------------------------------------------------------------
# family constructors


def family_additive_g(ctx: FieldCtx, g: GRecipe, L: LinPoly, delta: Elem) -> FamilyInstance:
    """f(x) = g(x^q - x + delta) + L(x); bijective iff L is."""
    delta = _check_elem(ctx, delta, "delta")
    _require(recipe_sign(g) == 1, "recipe_not_invariant", "needs g^q = g")
    _require(L.subfield_flag, "linearized_coeffs_outside_base")
    g_codes(g, ctx)  # tabulated and contract-checked once per field; raises if broken
    return _instance("additive_g", ctx, {"g": g, "L": L, "delta": delta}, _permutes(L))


def family_even_t(ctx: FieldCtx, t: int, delta: Elem, L: LinPoly) -> FamilyInstance:
    """f(x) = (x^(q^k) - x + delta)^t + L(x) on F_{q^2k}; bijective iff L is."""
    _require(ctx.n % 2 == 0, "n_not_even", f"n={ctx.n}")
    k = ctx.n // 2
    _require(t >= 0, "negative_t")
    _require(t % 2 == 0, "odd_t", f"t={t}")
    delta = _check_elem(ctx, delta, "delta")
    _require(_negated_by(ctx, delta, k), "bad_delta",
             "delta must satisfy delta^(q^k) = -delta")
    _require(_linpoly_fixed_by(L, k), "linearized_coeffs_outside_intermediate")
    return _instance("even_t", ctx, {"t": t, "delta": delta, "L": L}, _permutes(L))


def family_trace_gamma(ctx: FieldCtx, t: int, delta: Elem, beta: Elem,
                       gamma: Elem, s: int) -> FamilyInstance:
    """f(x) = (x^(q^k) - x + delta)^t + beta*Tr(x) + gamma*x^(q^s);
    bijective iff Tr(beta/gamma) + 1 != 0."""
    _require(ctx.n % 2 == 0, "n_not_even", f"n={ctx.n}")
    k = ctx.n // 2
    _require(t >= 0, "negative_t")
    _require(t % 2 == 0, "odd_t", f"t={t}")
    _require(s >= 0, "negative_s")
    delta = _check_elem(ctx, delta, "delta")
    beta = _check_elem(ctx, beta, "beta")
    gamma = _check_elem(ctx, gamma, "gamma")
    _require(_negated_by(ctx, delta, k), "bad_delta",
             "delta must satisfy delta^(q^k) = -delta")
    _require(beta.in_subfield(k), "beta_outside_intermediate")
    _require(not gamma.is_zero, "gamma_zero")
    _require(gamma.in_subfield(1), "gamma_outside_base")
    return _instance(
        "trace_gamma", ctx,
        {"t": t, "delta": delta, "beta": beta, "gamma": gamma, "s": s},
        ctx._add(_trace_code(ctx, ctx._mul(beta.code, ctx._inv(gamma.code))), 1) != 0,
    )


def _check_alpha_beta(ctx: FieldCtx, t: int, delta: Elem, alpha: Elem,
                      beta: Elem) -> tuple[Elem, Elem, Elem]:
    _require(ctx.p != 2, "even_characteristic")
    _require(ctx.n % 2 == 0, "n_not_even", f"n={ctx.n}")
    k = ctx.n // 2
    _require(t >= 0, "negative_t")
    delta = _check_elem(ctx, delta, "delta")
    alpha = _check_elem(ctx, alpha, "alpha")
    beta = _check_elem(ctx, beta, "beta")
    _require(delta.in_subfield(k), "delta_outside_intermediate")
    _require(_negated_by(ctx, alpha, k), "bad_alpha")
    _require(_negated_by(ctx, beta, k), "bad_beta")
    return delta, alpha, beta


def family_alpha_beta(ctx: FieldCtx, t: int, delta: Elem, alpha: Elem,
                      beta: Elem, L: LinPoly) -> FamilyInstance:
    """f(x) = alpha*(x^(q^k) + x + delta)^t + beta*Tr(x) + L(x), q odd;
    bijective iff L is."""
    delta, alpha, beta = _check_alpha_beta(ctx, t, delta, alpha, beta)
    _require(_linpoly_fixed_by(L, ctx.n // 2), "linearized_coeffs_outside_intermediate")
    return _instance(
        "alpha_beta", ctx,
        {"t": t, "delta": delta, "alpha": alpha, "beta": beta, "L": L},
        _permutes(L),
    )


def family_alpha_beta_gamma(ctx: FieldCtx, t: int, delta: Elem, alpha: Elem,
                            beta: Elem, gamma: Elem, s: int) -> FamilyInstance:
    """Specialization with L(x) = gamma*x^(q^s); bijective iff gamma != 0."""
    gamma = _check_elem(ctx, gamma, "gamma")
    _require(ctx.n % 2 == 0, "n_not_even", f"n={ctx.n}")
    _require(s >= 0, "negative_s")
    k = ctx.n // 2
    _require(gamma.in_subfield(k), "gamma_outside_intermediate")
    delta, alpha, beta = _check_alpha_beta(ctx, t, delta, alpha, beta)
    predicted = not gamma.is_zero
    if is_permutation(LinPoly.frobenius_term(ctx, s, gamma)) != predicted:
        raise CriteriaDisagreeError(
            f"gamma*x^(q^{s}) with gamma={gamma}: the linearized criterion "
            f"disagrees with gamma != 0")
    return _instance(
        "alpha_beta_gamma", ctx,
        {"t": t, "delta": delta, "alpha": alpha, "beta": beta, "gamma": gamma, "s": s},
        predicted,
    )


def family_anti_g(ctx: FieldCtx, g: GRecipe, delta: Elem, beta: Elem,
                  L: LinPoly) -> FamilyInstance:
    """f(x) = g(x^q + x + delta) + beta*Tr(x) + L(x) with g^q = -g and
    beta^q = -beta, q odd; bijective iff L is."""
    _require(ctx.p != 2, "even_characteristic")
    delta = _check_elem(ctx, delta, "delta")
    beta = _check_elem(ctx, beta, "beta")
    _require(recipe_sign(g) == -1, "recipe_not_antisymmetric", "needs g^q = -g")
    _require(_negated_by(ctx, beta, 1), "bad_beta")
    _require(L.subfield_flag, "linearized_coeffs_outside_base")
    g_codes(g, ctx)  # tabulated and contract-checked once per field; raises if broken
    return _instance(
        "anti_g", ctx, {"g": g, "delta": delta, "beta": beta, "L": L},
        _permutes(L),
    )


def family_n4k(ctx: FieldCtx, variant: str, delta: Elem, a: Elem) -> FamilyInstance:
    """Quadratic-monomial sums over F_{q^4k} shifted along x^q - x + delta.

    plain:  g(y) = sum of y^(q^2i + q^(2i+2k)) over even powers,
            f(x) = g(x^q - x + delta) + a*x, bijective iff Tr(delta) != a.
    qtwist: g raised to the q-th power as a polynomial, i.e. the same sum
            over odd powers y^(q^(2i+1) + q^(2i+1+2k)), applied to the same
            shift; bijective iff Tr(delta) != -a.
    """
    _require(ctx.n % 4 == 0, "n_not_multiple_of_4", f"n={ctx.n}")
    _require(variant in ("plain", "qtwist"), "unknown_variant", str(variant))
    delta = _check_elem(ctx, delta, "delta")
    a = _check_elem(ctx, a, "a")
    _require(not a.is_zero, "zero_a")
    _require(a.in_subfield(1), "a_outside_base")
    predicted = _trace_code(ctx, delta.code) != (a.code if variant == "plain"
                                                 else ctx._neg(a.code))
    return _instance("n4k", ctx, {"variant": variant, "delta": delta, "a": a}, predicted)


def family_q6(ctx: FieldCtx, variant: str, h: Poly, L: LinPoly,
              delta: Elem) -> FamilyInstance:
    """Degree-6 tower families built from h along x^(q^2) -+ x^q + x + delta.

    minus: f = h(w)^(q^4) + h(w)^(q^3) - h(w)^q - h(w) + L(x) with
    w = x^(q^2) - x^q + x + delta.  plus: the mixed-argument variant with
    w_+ = x^(q^2) + x^q + x + delta in the two leading terms and w_- in the
    trailing ones.  Both predict: bijective iff L is.
    """
    _require(ctx.n == 6, "n_not_six", f"n={ctx.n}")
    _require(variant in ("minus", "plus"), "unknown_variant", str(variant))
    delta = _check_elem(ctx, delta, "delta")
    if h.ctx is not ctx:
        raise FamilyParameterError("wrong_field", "h must live in the tower field")
    _require(L.subfield_flag, "linearized_coeffs_outside_base")
    return _instance(
        "q6", ctx, {"variant": variant, "h": h, "L": L, "delta": delta},
        _permutes(L),
    )


def family_generic_L(ctx: FieldCtx, L: LinPoly, a: Elem, h,
                     L1: LinPoly, delta: Elem) -> FamilyInstance:
    """f(x) = a*h(L(x) + delta) + L1(x) where L has a nontrivial kernel,
    L(a) = 0, and h^q = h; bijective iff L1 is."""
    delta = _check_elem(ctx, delta, "delta")
    a = _check_elem(ctx, a, "a")
    _require(L.subfield_flag, "linearized_coeffs_outside_base")
    _require(not _gcd_permutes(L), "trivial_kernel",
             "L must have a nonzero kernel")
    _require(not a.is_zero and L.apply(a).is_zero, "bad_kernel_element",
             "a must be a nonzero root of L")
    _require(L1.subfield_flag, "linearized_coeffs_outside_base")
    symmetric_codes(ctx, h)  # checked once per field; raises if h^q != h
    return _instance(
        "generic_L", ctx, {"L": L, "a": a, "h": h, "L1": L1, "delta": delta},
        _permutes(L1),
    )


def family_half_power(ctx: FieldCtx, k: int, a: Elem, b: Elem,
                      delta: Elem) -> FamilyInstance:
    """f(x) = (a*x^(q^k) - b*x + delta)^((q^n+1)/2) + a*x^(q^k) + b*x, q odd;
    bijective iff a*b is a nonzero square."""
    _require(ctx.p != 2, "even_characteristic")
    _require(k >= 1, "bad_k", "k must be positive")
    a = _check_elem(ctx, a, "a")
    b = _check_elem(ctx, b, "b")
    delta = _check_elem(ctx, delta, "delta")
    _require(not a.is_zero and not b.is_zero, "zero_coefficient")
    return _instance(
        "half_power", ctx, {"k": k, "a": a, "b": b, "delta": delta},
        ctx.residue_class_of_code(ctx._mul(a.code, b.code)) is ResidueClass.D0,
    )


# ---------------------------------------------------------------------------
# compositions: each family's map declared once, as field tables.
#
# A composition is the tuple (terms, delta, lin, fiber_delta) of the map
#     x -> sum(outer[inner[x] + delta] for outer, inner in terms) + lin[x]
# with every inner and lin F_p-linear.  Its value list is the code of f(x)
# for every code x (see _compile).  The first term's inner table is psibar of
# the family's commuting square and psi is psibar + fiber_delta; fiber_delta
# is None for a family without fiber maps.
#
# Tables that depend only on the field and on grid-wide parameters (g and h
# tables, powers) are built once per field, and every linear table once per
# field and coefficient vector, since a grid holds few distinct vectors;
# an outer table scaled by an instance's element is kept for the last scale
# only (see _scaled).  A value list is built by whole-table passes:
# `map` over the tables with the lookups, the add-table rows and the XOR as
# the mapped functions, so that on fields with XOR or an add table no Python
# frame runs per element.

Composition = tuple[Sequence[tuple[Sequence[int], Sequence[int]]], int,
                    Sequence[int], Optional[int]]


def _linear_part(ctx: FieldCtx, P: dict) -> Sequence[int]:
    """beta*Tr(x) + L(x) on every code, where L is gamma*x^(q^s) for the
    families that take gamma and s, and beta is 0 for those without it;
    built once per field and resulting coefficient vector."""
    if "gamma" in P:
        coeffs = [0] * ctx.n
        coeffs[P["s"] % ctx.n] = P["gamma"].code
    else:
        coeffs = P["L"].codes
    beta = P["beta"].code if "beta" in P else 0
    return ctx.linear_map([ctx._add(beta, c) for c in coeffs])


# (ctx, a, table, scaled table) of the last _scaled call
_last_scaled: Optional[tuple[FieldCtx, int, Sequence[int], list[int]]] = None


def _scaled(ctx: FieldCtx, a: int, table: Sequence[int]) -> list[int]:
    """y -> a*table[y]: an outer table scaled by an instance's element.
    Kept for the last (field, a, table) only, as _half_power_tables is: a
    grid varies the parameters after the scale fastest (beta and L after
    alpha, h, L1 and delta after a), so runs of consecutive points share
    it.  The table is held, so the identity test cannot match a later
    table at a reused address."""
    global _last_scaled
    last = _last_scaled
    if last is None or last[0] is not ctx or last[1] != a or last[2] is not table:
        last = _last_scaled = (ctx, a, table, list(map(ctx._mul_row(a).__getitem__, table)))
    return last[3]


def _additive_g(ctx: FieldCtx, P: dict) -> Composition:
    delta = P["delta"].code
    return ([(g_codes(P["g"], ctx), ctx.frob_shift(1, -1))], delta,
            P["L"].tabulate(), delta)


def _even_t(ctx: FieldCtx, P: dict) -> Composition:
    """even_t, and trace_gamma with L = beta*Tr(x) + gamma*x^(q^s)."""
    return ([(ctx.power_table(P["t"]), ctx.frob_shift(ctx.n // 2, -1))],
            P["delta"].code, _linear_part(ctx, P), 0)


def _alpha_beta(ctx: FieldCtx, P: dict) -> Composition:
    """alpha_beta, and alpha_beta_gamma with L = gamma*x^(q^s)."""
    outer = _scaled(ctx, P["alpha"].code, ctx.power_table(P["t"]))
    return ([(outer, ctx.frob_shift(ctx.n // 2, 1))], P["delta"].code,
            _linear_part(ctx, P), 0)


def _anti_g(ctx: FieldCtx, P: dict) -> Composition:
    delta = P["delta"].code
    return ([(g_codes(P["g"], ctx), ctx.frob_shift(1, 1))], delta,
            _linear_part(ctx, P), delta)


def _n4k(ctx: FieldCtx, P: dict) -> Composition:
    # g(y) = sum of y^(q^u) * y^(q^v) = y^(q^u + q^v) over the variant's pairs
    k, q, delta = ctx.n // 4, ctx.q, P["delta"].code
    first = 0 if P["variant"] == "plain" else 1
    g = ctx.power_sum_table([(q ** (2 * i + first) + q ** (2 * i + first + 2 * k), 1)
                             for i in range(k)])
    return ([(g, ctx.frob_shift(1, -1))], delta,
            ctx.linear_map([P["a"].code]), delta)


def _q6(ctx: FieldCtx, P: dict) -> Composition:
    """Outer tables w -> sum(sign * h(w)^e) on the shifts x^(q^2) -+ x^q + x;
    plus leads with its w_+ term, whose shift is its psibar."""
    q, h, delta = ctx.q, P["h"], P["delta"].code
    minus = ctx.linear_map([1, ctx.p - 1, 1])
    if P["variant"] == "minus":
        terms = [(_powers_of_h(ctx, h, [(q ** 4, 1), (q ** 3, 1), (q, -1), (1, -1)]), minus)]
    else:
        terms = [(_powers_of_h(ctx, h, [(q ** 4, 1), (q ** 3, -1)]),
                  ctx.linear_map([1, 1, 1])),
                 (_powers_of_h(ctx, h, [(q, 1), (1, -1)]), minus)]
    return terms, delta, P["L"].tabulate(), delta


def _generic_L(ctx: FieldCtx, P: dict) -> Composition:
    delta = P["delta"].code
    outer = _scaled(ctx, P["a"].code, symmetric_codes(ctx, P["h"]))
    return [(outer, P["L"].tabulate())], delta, P["L1"].tabulate(), delta


@functools.lru_cache(maxsize=1)
def _half_power_tables(ctx: FieldCtx, k: int, a: int,
                       b: int) -> tuple[Sequence[int], Sequence[int]]:
    """(a*x^(q^k) - b*x, a*x^(q^k) + b*x) on every code.  Kept for the last
    (field, k, a, b) only: grids vary delta fastest, so consecutive points
    share the tables, while a per-field cache would keep two tables for
    every (a, b) pair of a grid."""
    def table(c: int) -> Sequence[int]:
        return ctx.linear_table(lambda x: ctx._add(ctx._mul(a, ctx._frob(x, k)),
                                                   ctx._mul(c, x)))

    return table(ctx._neg(b)), table(b)


def _half_power(ctx: FieldCtx, P: dict) -> Composition:
    inner, lin = _half_power_tables(ctx, P["k"], P["a"].code, P["b"].code)
    return [(ctx.power_table((ctx.order + 1) // 2), inner)], P["delta"].code, lin, None


COMPOSITIONS: dict[str, Callable[[FieldCtx, dict], Composition]] = {
    "additive_g": _additive_g,
    "even_t": _even_t,
    "trace_gamma": _even_t,
    "alpha_beta": _alpha_beta,
    "alpha_beta_gamma": _alpha_beta,
    "anti_g": _anti_g,
    "n4k": _n4k,
    "q6": _q6,
    "generic_L": _generic_L,
    "half_power": _half_power,
}


def _compile(family_id: str, ctx: FieldCtx, params: dict) -> list[int]:
    """The value list of the family's composition."""
    return _values(ctx, COMPOSITIONS[family_id](ctx, params))


def _values(ctx: FieldCtx, composition: Composition) -> list[int]:
    """The value list of a composition: the code of f(x) for every code x."""
    terms, delta, lin, _ = composition
    shift, values = ctx._add_const(delta), lin
    for outer, inner in terms:
        values = ctx._add_codes(map(outer.__getitem__, map(shift, inner)), values)
    return list(values)


FAMILY_BUILDERS: dict[str, Callable[..., FamilyInstance]] = {
    "additive_g": family_additive_g,
    "even_t": family_even_t,
    "trace_gamma": family_trace_gamma,
    "alpha_beta": family_alpha_beta,
    "alpha_beta_gamma": family_alpha_beta_gamma,
    "anti_g": family_anti_g,
    "n4k": family_n4k,
    "q6": family_q6,
    "generic_L": family_generic_L,
    "half_power": family_half_power,
}

# a family's parameters, in its constructor's order after ctx: the CSV columns
PARAM_ORDER: dict[str, tuple[str, ...]] = {
    family_id: tuple(inspect.signature(builder).parameters)[1:]
    for family_id, builder in FAMILY_BUILDERS.items()
}

_PARAM_TYPES: dict[str, str] = {
    "g": "recipe", "L": "lin", "L1": "lin", "h": "poly_or_recipe",
    "delta": "elem", "alpha": "elem", "beta": "elem", "gamma": "elem",
    "a": "elem", "b": "elem",
    "t": "int", "s": "int", "k": "int",
    "variant": "str",
}

DEFAULT_GRIDS: dict[str, dict] = {
    "additive_g": {"g": [{"kind": "trace_of_h", "h": {"mono": 1}},
                         {"kind": "norm_power", "h": {"mono": 1}, "s": 1}],
                   "L": ["identity", "frob:1", "trace"], "delta": "all"},
    "even_t": {"t": [0, 2], "delta": "sign_kernel",
               "L": ["identity", "frob:1", "trace"]},
    "trace_gamma": {"t": [0, 2], "delta": "sign_kernel", "beta": "intermediate",
                    "gamma": "base_nonzero", "s": [0, 1]},
    "alpha_beta": {"t": [1, 2], "delta": "intermediate", "alpha": "sign_kernel",
                   "beta": "sign_kernel", "L": ["identity", "frob:1"]},
    "alpha_beta_gamma": {"t": [1, 2], "delta": "intermediate",
                         "alpha": "sign_kernel", "beta": "sign_kernel",
                         "gamma": "intermediate", "s": [0, 1]},
    "anti_g": {"g": [{"kind": "anti_alternating", "h": {"mono": 1}},
                     {"kind": "anti_m_sum", "h": {"mono": 1}, "d": 1}],
               "delta": "all", "beta": "sign_kernel",
               "L": ["identity", "frob:1", "trace"]},
    "n4k": {"variant": ["plain", "qtwist"], "delta": "all", "a": "base_nonzero"},
    "q6": {"variant": ["minus", "plus"], "h": [{"mono": 1}],
           "L": ["identity", "trace", "frob:1"], "delta": "base"},
    "generic_L": {"L": ["trace"], "a": "kernel_nonzero",
                  "h": [{"kind": "trace_of_h", "h": {"mono": 2}}],
                  "L1": ["identity", "frob:1", "trace"], "delta": "all"},
    "half_power": {"k": 1, "a": "nonzero", "b": "nonzero", "delta": "all"},
}


def _sign_kernel_power(family_id: str, ctx: FieldCtx) -> int:
    if family_id == "anti_g":
        return 1
    if ctx.n % 2 != 0:
        raise ValueError(f"'sign_kernel' needs an even tower degree, n={ctx.n}")
    return ctx.n // 2


def _resolve_elem_token(ctx: FieldCtx, token: str, family_id: str) -> list[Elem]:
    if token == "all":
        return list(ctx.elements())
    if token == "nonzero":
        return list(ctx.elements()[1:])
    if token == "zero":
        return [ctx.zero]
    if token == "base":
        return list(ctx.subfield_elements())
    if token == "base_nonzero":
        return list(ctx.subfield_elements()[1:])
    if token == "intermediate":
        if ctx.n % 2 != 0:
            raise ValueError("'intermediate' needs an even tower degree")
        return list(ctx.frobenius_eigenspace(ctx.n // 2, 1))
    if token == "sign_kernel":
        return list(ctx.frobenius_eigenspace(_sign_kernel_power(family_id, ctx), -1))
    if token == "sign_kernel_nonzero":
        return list(ctx.frobenius_eigenspace(_sign_kernel_power(family_id, ctx), -1)[1:])
    raise ValueError(f"unknown element token {token!r}")


def _resolve_elem(ctx: FieldCtx, value, family_id: str) -> list[Elem]:
    if isinstance(value, Elem):
        return [value]
    if isinstance(value, int):
        return [ctx.elem(value)]
    if isinstance(value, str):
        if value and all(c.isdigit() or c == "," for c in value):
            return [ctx.from_coords([int(c) for c in value.split(",")])]
        return _resolve_elem_token(ctx, value, family_id)
    return [e for v in value for e in _resolve_elem(ctx, v, family_id)]


def _resolve_lin(ctx: FieldCtx, value, seed: int) -> list[LinPoly]:
    if isinstance(value, LinPoly):
        return [value]
    if isinstance(value, str):
        if value == "identity":
            return [LinPoly.identity(ctx)]
        if value == "trace":
            return [LinPoly.trace_map(ctx)]
        if value.startswith("frob:"):
            return [LinPoly.frobenius_term(ctx, int(value.split(":", 1)[1]))]
        if value == "random_pp":
            return [random_linearized_pp(ctx, seed)]
        if value.startswith("random_pp:"):
            return [random_linearized_pp(ctx, int(value.split(":", 1)[1]))]
        return [parse_linpoly(ctx, value)]
    return [L for v in value for L in _resolve_lin(ctx, v, seed)]


def _poly_from_spec(ctx: FieldCtx, value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, str):
        return parse_poly(ctx, value)
    if isinstance(value, dict):
        if "mono" in value:
            return Poly.monomial(ctx, value["mono"], value.get("coeff", 1))
        if "codes" in value:
            return Poly(ctx, value["codes"])
        raise ValueError(f"cannot interpret polynomial spec {value!r}")
    if isinstance(value, (list, tuple)):
        return Poly(ctx, value)
    raise ValueError(f"cannot interpret polynomial spec {value!r}")


def _recipe_from_spec(ctx: FieldCtx, value) -> GRecipe:
    if isinstance(value, GRecipe):
        return value
    if isinstance(value, dict) and "kind" in value:
        parts = tuple(_recipe_from_spec(ctx, p) for p in value.get("parts", ()))
        h = _poly_from_spec(ctx, value["h"]) if "h" in value else None
        return GRecipe(value["kind"], h=h, d=value.get("d"),
                       s=value.get("s"), parts=parts)
    raise ValueError(f"cannot interpret recipe spec {value!r}")


def _resolve_recipe(ctx: FieldCtx, value) -> list[GRecipe]:
    if isinstance(value, (GRecipe, dict)):
        return [_recipe_from_spec(ctx, value)]
    return [r for v in value for r in _resolve_recipe(ctx, v)]


def _resolve_poly_or_recipe(ctx: FieldCtx, value) -> list:
    if isinstance(value, (GRecipe, Poly)):
        return [value]
    if isinstance(value, dict):
        if "kind" in value:
            return [_recipe_from_spec(ctx, value)]
        return [_poly_from_spec(ctx, value)]
    if isinstance(value, str):
        return [_poly_from_spec(ctx, value)]
    return [x for v in value for x in _resolve_poly_or_recipe(ctx, v)]


def _resolve_scalar(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _resolve_int(name: str, value) -> list[int]:
    """The integers of an int parameter's grid entry; JSON integers only,
    not floats, strings or booleans."""
    values = _resolve_scalar(value)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"parameter {name!r} takes integers, got {v!r}")
    return values


def _resolve_param(ctx: FieldCtx, family_id: str, name: str, value, seed: int) -> list:
    kind = _PARAM_TYPES[name]
    if kind == "elem":
        return _resolve_elem(ctx, value, family_id)
    if kind == "lin":
        return _resolve_lin(ctx, value, seed)
    if kind == "recipe":
        return _resolve_recipe(ctx, value)
    if kind == "poly_or_recipe":
        return _resolve_poly_or_recipe(ctx, value)
    if kind == "int":
        return _resolve_int(name, value)
    return _resolve_scalar(value)


def _expand_params(family_id: str, ctx: FieldCtx, params: dict,
                   seed: int) -> Iterator[dict]:
    order = PARAM_ORDER[family_id]
    missing = [name for name in order if name not in params]
    if missing:
        raise ValueError(f"missing parameters for {family_id}: {', '.join(missing)}")
    extra = [name for name in params if name not in order]
    if extra:
        raise ValueError(f"unknown parameters for {family_id}: {', '.join(extra)}")

    if family_id == "generic_L" and params.get("a") == "kernel_nonzero":
        # the kernel elements depend on the concrete L
        for L in _resolve_lin(ctx, params["L"], seed):
            kernel = ctx.zero_set(L.tabulate())[1:]
            yield from _expand_params(family_id, ctx, {**params, "L": L, "a": kernel}, seed)
        return

    lists = [_resolve_param(ctx, family_id, name, params[name], seed)
             for name in order]
    for combo in itertools.product(*lists):
        yield dict(zip(order, combo))


GridItem = Union[FamilyInstance, SkippedInstance]


def instantiate_grid(family_id: str, ctxs: Iterable[FieldCtx], params: dict,
                     seed: int = 0, limit: Optional[int] = None) -> Iterator[GridItem]:
    """Deterministic stream of family instances over the parameter grid.

    Grid points whose hypotheses cannot hold are not dropped: they are
    emitted as SkippedInstance records carrying the reason.
    """
    if family_id not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {family_id!r}")
    builder = FAMILY_BUILDERS[family_id]
    count = 0
    for ctx in ctxs:
        for concrete in _expand_params(family_id, ctx, dict(params), seed):
            if limit is not None and count >= limit:
                return
            count += 1
            try:
                yield builder(ctx, **concrete)
            except FamilyParameterError as exc:
                yield SkippedInstance(family_id, ctx, concrete, exc.reason)
            except RecipeContractError as exc:
                yield SkippedInstance(family_id, ctx, concrete, f"recipe_contract: {exc}")
