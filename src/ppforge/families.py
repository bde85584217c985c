"""The permutation-polynomial families.

Each family is declared once, by a prediction registered with `_family`
together with the family's composition.  The prediction validates the
hypotheses and computes the predicted verdict from the family's stated
bijectivity condition alone; brute force never feeds it.  Its signature
gives the family's parameters and their kinds.  The map is a composition
of field tables, x -> sum(outer[inner[x] + delta]) + L(x), over the field's
tables (exp/log/add, the log-Frobenius, the trace) and tables of the
parameters (g, h, L), each built once per field.  The one composition
gives both the value list, the code of f(x) for every code x, built in
whole-table passes (``map`` over lists, no Python frame per element), and
the fiber maps of the family's commuting square: psibar is the first inner
table and psi is psibar plus the fiber delta.

Huge monomials such as x^((q^n+1)/2) are never materialized as coefficient
vectors: they are power maps on logs.

A grid (`_grid_points`, and `instantiate_grid` over it) is the product of
its parameters' entries, each resolved by `_resolve_param`, the one place
that walks a list of values; the resolver of each kind of parameter reads
a single value.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .gf import _GATHER_CHUNK, CtxMismatchError, Elem, FieldCtx, ResidueClass, code_table, gather
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


def _describe_params(self) -> str:
    """A grid point's parameters as name=value pairs, in grid order."""
    return " ".join(f"{k}={describe_value(v)}" for k, v in self.params.items())


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
        # written past the frozen __setattr__, which refuses every assignment,
        # by one dict store a field; a census never reads the evaluator, so it
        # makes no edge
        fields = self.__dict__
        fields["family_id"] = family_id
        fields["ctx"] = ctx
        fields["params"] = params
        fields["predicted_pp"] = predicted_pp
        if evaluator is not None:
            fields["evaluator"] = evaluator

    def code_values(self) -> Sequence[int]:
        """The code of f(x) for every element code x, in code order: a list,
        and above a gather chunk a code table."""
        return _compile(self.family_id, self.ctx, self.params)

    def square_codes(self) -> tuple[Sequence[int], Optional[tuple[Sequence[int], int]]]:
        """The value list and (psibar, fiber delta) of the family's
        commuting square (see _square_codes)."""
        return _square_codes(self.family_id, self.ctx, self.params)

    describe_params = _describe_params


class CodeMapEdge:
    """The ``Elem -> Elem`` view of a family's code map, compiled on the
    first call and kept for the later ones."""

    __slots__ = ("family_id", "ctx", "params", "_values")

    def __init__(self, family_id: str, ctx: FieldCtx, params: dict):
        self.family_id = family_id
        self.ctx = ctx
        self.params = params
        self._values: Optional[Sequence[int]] = None

    def __call__(self, x: Elem) -> Elem:
        ctx = self.ctx
        if x.ctx is not ctx:
            raise CtxMismatchError("argument from a different field")
        if self._values is None:
            self._values = _compile(self.family_id, ctx, self.params)
        code = self._values[x.code]
        if ctx._elems is None:  # a field above the interning bound
            return Elem(ctx, code)
        return ctx._wrap(code)


class SkippedInstance(NamedTuple):
    """A grid point whose hypotheses cannot be satisfied, with the reason
    (an immutable named tuple)."""

    family_id: str
    ctx: FieldCtx
    params: dict
    reason: str

    describe_params = _describe_params


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


def _check_elem(ctx: FieldCtx, value, name: str) -> None:
    if not isinstance(value, Elem) or value.ctx is not ctx:
        raise FamilyParameterError("wrong_field", f"{name} must be an element of {ctx.label}")


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
# Every table of a composition is kept in the field's one bounded cache
# (FieldCtx.derived): the grid-wide ones (g and h tables, powers, the n4k and
# q6 sums of Frobenius powers, each one linear map of one power, y ->
# Lambda(y^e), kept without its ingredients), every linear table by its
# coefficient vector, and the ones of an instance's elements (an outer table
# scaled by a, half_power's tables by (k, a, b)).  A value list is
# built by whole-table passes: `map` over the tables with the lookups,
# the add-table rows and the XOR as the mapped functions, so that on fields
# with XOR or an add table no Python frame runs per element.  Grids sweep delta
# over the same few outer tables, so each term reads its outer table through
# the field's shift view y -> outer[y + delta] (see FieldCtx.shift_view) and
# adds delta on the fly only where the field has no view yet; the inner and
# lin tables, shared by a grid's points, are read through their cached
# readers (FieldCtx.reader).

Composition = tuple[Sequence[tuple[Sequence[int], Sequence[int]]], int,
                    Sequence[int], Optional[int]]


def _linear_part(ctx: FieldCtx, P: dict) -> Sequence[int]:
    """beta*Tr(x) + L(x) on every code, where L is gamma*x^(q^s) for the
    families that take gamma and s, and beta is 0 for those without it;
    built once per field and resulting coefficient vector, and read from
    the field's cache by the parameters before any vector is built."""
    beta = P["beta"].code if "beta" in P else 0
    if "gamma" in P:
        s, gamma = P["s"] % ctx.n, P["gamma"].code
        return ctx.derived(("linear_part", beta, s, gamma), lambda: ctx.linear_map(
            [ctx._add(beta, gamma if j == s else 0) for j in range(ctx.n)]))
    return ctx.derived(("linear_part", beta, P["L"].codes), lambda: ctx.linear_map(
        [ctx._add(beta, c) for c in P["L"].codes]))


def _scaled(ctx: FieldCtx, a: int, table: Sequence[int]) -> tuple[int, ...]:
    """y -> a*table[y]: an outer table scaled by an instance's element,
    kept in the field's cache by (a, table).  The entry holds the table,
    so its id in the key is not reused while the entry lives."""
    return ctx.derived(("scaled", a, id(table)), lambda: (
        table, gather(ctx._mul_row(a), table)))[1]


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
    # g(y) = sum of y^(q^u + q^(u+2k)) = Lambda(y^(1 + q^(2k))) with Lambda the
    # sum of x^(q^u), over u = 2i + first < 2k
    k, delta = ctx.n // 4, P["delta"].code
    first = 0 if P["variant"] == "plain" else 1
    g = ctx.derived(("n4k", first), lambda: code_table(ctx.linear_of_power(
        [0] * first + [1, 0] * k, 1 + ctx.q ** (2 * k))))
    return ([(g, ctx.frob_shift(1, -1))], delta,
            ctx.linear_map([P["a"].code]), delta)


def _q6(ctx: FieldCtx, P: dict) -> Composition:
    """Outer tables w -> Lambda(h(w)) on the shifts x^(q^2) -+ x^q + x; plus
    leads with its w_+ term, whose shift is its psibar."""
    h, delta = P["h"], P["delta"].code

    def build() -> list[tuple[Sequence[int], Sequence[int]]]:
        table, m1 = h.tabulate(), ctx.p - 1  # the code p - 1 is the element -1
        minus = ctx.linear_map([1, m1, 1])
        if P["variant"] == "minus":
            return [(ctx.linear_of_power([m1, m1, 0, 1, 1], h=table), minus)]
        return [(ctx.linear_of_power([0, 0, 0, m1, 1], h=table), ctx.linear_map([1, 1, 1])),
                (ctx.linear_of_power([m1, 1], h=table), minus)]

    # the terms depend on the variant and h only: built once per field and pair
    terms = ctx.derived(("q6", P["variant"], h.codes), build)
    return terms, delta, P["L"].tabulate(), delta


def _generic_L(ctx: FieldCtx, P: dict) -> Composition:
    delta = P["delta"].code
    outer = _scaled(ctx, P["a"].code, symmetric_codes(ctx, P["h"]))
    return [(outer, P["L"].tabulate())], delta, P["L1"].tabulate(), delta


def _half_power(ctx: FieldCtx, P: dict) -> Composition:
    """y^((q^n+1)/2), a*x^(q^k) - b*x and a*x^(q^k) + b*x, kept together by
    (k, a, b).  The two linear tables are the field's linear maps, so the
    inner table of (a, b) is the lin table of (a, -b)."""
    k, a, b = P["k"], P["a"].code, P["b"].code

    def table(c: int) -> Sequence[int]:
        coeffs = [c] + [0] * (ctx.n - 1)
        coeffs[k % ctx.n] = ctx._add(coeffs[k % ctx.n], a)
        return ctx.linear_map(coeffs)

    outer, inner, lin = ctx.derived(("half_power", k, a, b), lambda: (
        ctx.power_table((ctx.order + 1) // 2), table(ctx._neg(b)), table(b)))
    return [(outer, inner)], P["delta"].code, lin, None


def _compile(family_id: str, ctx: FieldCtx, params: dict) -> Sequence[int]:
    """The value list of the family's composition."""
    return _values(ctx, COMPOSITIONS[family_id](ctx, params))


def _square_codes(family_id: str, ctx: FieldCtx,
                  params: dict) -> tuple[Sequence[int], Optional[tuple[Sequence[int], int]]]:
    """The value list and (psibar, fiber delta) of the family's commuting
    square, from one composition call: psibar is the first term's inner
    table and psi = psibar + fiber delta; None in place of the pair for a
    family without fiber maps."""
    composition = COMPOSITIONS[family_id](ctx, params)
    terms, _, _, fiber_delta = composition
    fiber = None if fiber_delta is None else (terms[0][1], fiber_delta)
    return _values(ctx, composition), fiber


def _values(ctx: FieldCtx, composition: Composition) -> Sequence[int]:
    """The value list of a composition: the code of f(x) for every code x.
    Each table is read through its reader (FieldCtx.reader), so a point
    unpacks no table the grid's earlier points read; on add-table fields
    lin is added through its add rows, lin[x] + t = rows[x][t].  Above a
    gather chunk it is built a chunk of codes at a time into a code table
    (_chunked_values)."""
    terms, delta, lin, _ = composition
    if ctx.order > _GATHER_CHUNK:
        return _chunked_values(ctx, composition)
    _, lin_codes, _, lin_rows = ctx.reader(lin)
    values = None
    for outer, inner in terms:
        _, codes, read, _ = ctx.reader(inner)
        view = ctx.shift_view(outer, delta)
        term = gather(outer, ctx._shift(codes, delta)) if view is None else read(view)
        if values is not None:
            values = ctx._add_codes(term, values)
        elif lin_rows is not None:
            values = map(list.__getitem__, lin_rows, term)
        else:
            values = ctx._add_codes(term, lin_codes)
    return list(values)


def _chunked_values(ctx: FieldCtx, composition: Composition) -> Sequence[int]:
    """_values a chunk of codes at a time: each term reads its table
    through the shift view, or adds delta on the fly where the field has
    no view yet, one gather per term and chunk.  The chunks go into a code
    table, so no gathered tuple of the whole field is alive beside it and
    it keeps no int object of a sum (XOR and the split tables make a new
    int per sum): on 3^1:12 a list of the sums held 7 MB more."""
    terms, delta, lin, _ = composition
    # each term as (the table it reads, the shift still to add, its inner table)
    reads = []
    for outer, inner in terms:
        view = ctx.shift_view(outer, delta)
        reads.append((outer, delta, inner) if view is None else (view, 0, inner))
    values = code_table(())
    for lo in range(0, ctx.order, _GATHER_CHUNK):
        part = slice(lo, lo + _GATHER_CHUNK)
        chunk = lin[part]
        for table, b, inner in reads:
            chunk = ctx._add_codes(gather(table, ctx._shift(inner[part], b) if b
                                          else inner[part]), chunk)
        values.extend(chunk)
    return values


# ---------------------------------------------------------------------------
# families: each one prediction, registered once with its composition

FAMILY_BUILDERS: dict[str, Callable[..., FamilyInstance]] = {}
COMPOSITIONS: dict[str, Callable[[FieldCtx, dict], Composition]] = {}
# a family's parameters, in its prediction's order after ctx: the CSV columns
PARAM_ORDER: dict[str, tuple[str, ...]] = {}
# each parameter's kind, its annotation: Elem, LinPoly, GRecipe, Poly,
# Union[Poly, GRecipe], int or str
PARAM_KINDS: dict[str, dict[str, object]] = {}
# what a grid point calls: the prediction on the resolved parameters
_PREDICTIONS: dict[str, Callable[..., bool]] = {}


def _family(family_id: str, composition: Callable[[FieldCtx, dict], Composition]):
    """Register the decorated prediction predict(ctx, **params) -> bool,
    which checks the hypotheses and returns the predicted verdict, with
    the family's composition; return the public constructor, which takes
    the same arguments, checks that each element is in ctx and returns the
    FamilyInstance."""
    def register(predict: Callable[..., bool]) -> Callable[..., FamilyInstance]:
        signature = inspect.signature(predict, eval_str=True)
        kinds = {name: p.annotation for name, p in signature.parameters.items()
                 if name != "ctx"}
        elems = [name for name, kind in kinds.items() if kind is Elem]

        @functools.wraps(predict)
        def build(ctx: FieldCtx, *args, **kwargs) -> FamilyInstance:
            params = signature.bind(ctx, *args, **kwargs).arguments
            del params["ctx"]
            for name in elems:
                _check_elem(ctx, params[name], name)
            return FamilyInstance(family_id, ctx, params, predict(ctx, **params))

        FAMILY_BUILDERS[family_id], COMPOSITIONS[family_id] = build, composition
        PARAM_ORDER[family_id], PARAM_KINDS[family_id] = tuple(kinds), kinds
        _PREDICTIONS[family_id] = predict
        return build

    return register


@_family("additive_g", _additive_g)
def family_additive_g(ctx: FieldCtx, g: GRecipe, L: LinPoly, delta: Elem) -> bool:
    """f(x) = g(x^q - x + delta) + L(x); bijective iff L is."""
    _require(recipe_sign(g) == 1, "recipe_not_invariant", "needs g^q = g")
    _require(L.subfield_flag, "linearized_coeffs_outside_base")
    g_codes(g, ctx)  # tabulated and contract-checked once per field; raises if broken
    return _permutes(L)


@_family("even_t", _even_t)
def family_even_t(ctx: FieldCtx, t: int, delta: Elem, L: LinPoly) -> bool:
    """f(x) = (x^(q^k) - x + delta)^t + L(x) on F_{q^2k}; bijective iff L is."""
    _require(ctx.n % 2 == 0, "n_not_even", f"n={ctx.n}")
    k = ctx.n // 2
    _require(t >= 0, "negative_t")
    _require(t % 2 == 0, "odd_t", f"t={t}")
    _require(_negated_by(ctx, delta, k), "bad_delta",
             "delta must satisfy delta^(q^k) = -delta")
    _require(_linpoly_fixed_by(L, k), "linearized_coeffs_outside_intermediate")
    return _permutes(L)


@_family("trace_gamma", _even_t)
def family_trace_gamma(ctx: FieldCtx, t: int, delta: Elem, beta: Elem,
                       gamma: Elem, s: int) -> bool:
    """f(x) = (x^(q^k) - x + delta)^t + beta*Tr(x) + gamma*x^(q^s);
    bijective iff Tr(beta/gamma) + 1 != 0."""
    _require(ctx.n % 2 == 0, "n_not_even", f"n={ctx.n}")
    k = ctx.n // 2
    _require(t >= 0, "negative_t")
    _require(t % 2 == 0, "odd_t", f"t={t}")
    _require(s >= 0, "negative_s")
    _require(_negated_by(ctx, delta, k), "bad_delta",
             "delta must satisfy delta^(q^k) = -delta")
    _require(beta.in_subfield(k), "beta_outside_intermediate")
    _require(not gamma.is_zero, "gamma_zero")
    _require(gamma.in_subfield(1), "gamma_outside_base")
    return ctx._add(_trace_code(ctx, ctx._mul(beta.code, ctx._inv(gamma.code))), 1) != 0


def _check_alpha_beta(ctx: FieldCtx, t: int, delta: Elem, alpha: Elem, beta: Elem) -> None:
    _require(ctx.p != 2, "even_characteristic")
    _require(ctx.n % 2 == 0, "n_not_even", f"n={ctx.n}")
    k = ctx.n // 2
    _require(t >= 0, "negative_t")
    _require(delta.in_subfield(k), "delta_outside_intermediate")
    _require(_negated_by(ctx, alpha, k), "bad_alpha")
    _require(_negated_by(ctx, beta, k), "bad_beta")


@_family("alpha_beta", _alpha_beta)
def family_alpha_beta(ctx: FieldCtx, t: int, delta: Elem, alpha: Elem,
                      beta: Elem, L: LinPoly) -> bool:
    """f(x) = alpha*(x^(q^k) + x + delta)^t + beta*Tr(x) + L(x), q odd;
    bijective iff L is."""
    _check_alpha_beta(ctx, t, delta, alpha, beta)
    _require(_linpoly_fixed_by(L, ctx.n // 2), "linearized_coeffs_outside_intermediate")
    return _permutes(L)


@_family("alpha_beta_gamma", _alpha_beta)
def family_alpha_beta_gamma(ctx: FieldCtx, t: int, delta: Elem, alpha: Elem,
                            beta: Elem, gamma: Elem, s: int) -> bool:
    """Specialization with L(x) = gamma*x^(q^s); bijective iff gamma != 0."""
    _require(ctx.n % 2 == 0, "n_not_even", f"n={ctx.n}")
    _require(s >= 0, "negative_s")
    _require(gamma.in_subfield(ctx.n // 2), "gamma_outside_intermediate")
    _check_alpha_beta(ctx, t, delta, alpha, beta)
    predicted = not gamma.is_zero
    # checked once per field, s mod n and gamma
    permutes = ctx.derived(("permutes_frobenius_term", s % ctx.n, gamma.code),
                           lambda: is_permutation(LinPoly.frobenius_term(ctx, s, gamma)))
    if permutes != predicted:
        raise CriteriaDisagreeError(
            f"gamma*x^(q^{s}) with gamma={gamma}: the linearized criterion "
            f"disagrees with gamma != 0")
    return predicted


@_family("anti_g", _anti_g)
def family_anti_g(ctx: FieldCtx, g: GRecipe, delta: Elem, beta: Elem, L: LinPoly) -> bool:
    """f(x) = g(x^q + x + delta) + beta*Tr(x) + L(x) with g^q = -g and
    beta^q = -beta, q odd; bijective iff L is."""
    _require(ctx.p != 2, "even_characteristic")
    _require(recipe_sign(g) == -1, "recipe_not_antisymmetric", "needs g^q = -g")
    _require(_negated_by(ctx, beta, 1), "bad_beta")
    _require(L.subfield_flag, "linearized_coeffs_outside_base")
    g_codes(g, ctx)  # tabulated and contract-checked once per field; raises if broken
    return _permutes(L)


@_family("n4k", _n4k)
def family_n4k(ctx: FieldCtx, variant: str, delta: Elem, a: Elem) -> bool:
    """Quadratic-monomial sums over F_{q^4k} shifted along x^q - x + delta.

    plain:  g(y) = sum of y^(q^2i + q^(2i+2k)) over even powers,
            f(x) = g(x^q - x + delta) + a*x, bijective iff Tr(delta) != a.
    qtwist: g raised to the q-th power as a polynomial, i.e. the same sum
            over odd powers y^(q^(2i+1) + q^(2i+1+2k)), applied to the same
            shift; bijective iff Tr(delta) != -a.
    """
    _require(ctx.n % 4 == 0, "n_not_multiple_of_4", f"n={ctx.n}")
    _require(variant in ("plain", "qtwist"), "unknown_variant", str(variant))
    _require(not a.is_zero, "zero_a")
    _require(a.in_subfield(1), "a_outside_base")
    return _trace_code(ctx, delta.code) != (a.code if variant == "plain"
                                            else ctx._neg(a.code))


@_family("q6", _q6)
def family_q6(ctx: FieldCtx, variant: str, h: Poly, L: LinPoly, delta: Elem) -> bool:
    """Degree-6 tower families built from h along x^(q^2) -+ x^q + x + delta.

    minus: f = h(w)^(q^4) + h(w)^(q^3) - h(w)^q - h(w) + L(x) with
    w = x^(q^2) - x^q + x + delta.  plus: the mixed-argument variant with
    w_+ = x^(q^2) + x^q + x + delta in the two leading terms and w_- in the
    trailing ones.  Both predict: bijective iff L is.
    """
    _require(ctx.n == 6, "n_not_six", f"n={ctx.n}")
    _require(variant in ("minus", "plus"), "unknown_variant", str(variant))
    if not isinstance(h, Poly) or h.ctx is not ctx:
        raise FamilyParameterError("wrong_field", "h must be a polynomial over the tower field")
    _require(L.subfield_flag, "linearized_coeffs_outside_base")
    return _permutes(L)


@_family("generic_L", _generic_L)
def family_generic_L(ctx: FieldCtx, L: LinPoly, a: Elem, h: Union[Poly, GRecipe],
                     L1: LinPoly, delta: Elem) -> bool:
    """f(x) = a*h(L(x) + delta) + L1(x) where L has a nontrivial kernel,
    L(a) = 0, and h^q = h; bijective iff L1 is."""
    _require(L.subfield_flag, "linearized_coeffs_outside_base")
    _require(not _gcd_permutes(L), "trivial_kernel",
             "L must have a nonzero kernel")
    _require(not a.is_zero and L.apply(a).is_zero, "bad_kernel_element",
             "a must be a nonzero root of L")
    _require(L1.subfield_flag, "linearized_coeffs_outside_base")
    symmetric_codes(ctx, h)  # checked once per field; raises if h^q != h
    return _permutes(L1)


@_family("half_power", _half_power)
def family_half_power(ctx: FieldCtx, k: int, a: Elem, b: Elem, delta: Elem) -> bool:
    """f(x) = (a*x^(q^k) - b*x + delta)^((q^n+1)/2) + a*x^(q^k) + b*x, q odd;
    bijective iff a*b is a nonzero square."""
    _require(ctx.p != 2, "even_characteristic")
    _require(k >= 1, "bad_k", "k must be positive")
    _require(not a.is_zero and not b.is_zero, "zero_coefficient")
    return ctx.residue_class_of_code(ctx._mul(a.code, b.code)) is ResidueClass.D0


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


def _refused(name: str, takes: str, value) -> ValueError:
    return ValueError(f"parameter {name!r} takes {takes}, got {value!r}")


def _resolve_elem(ctx: FieldCtx, value, family_id: str, name: str,
                  kernel_of: Optional[LinPoly] = None) -> list[Elem]:
    """The elements one value of an element parameter names: an element, a
    code (a JSON integer, not a boolean), a coordinate string or a token;
    `kernel_nonzero` names the nonzero roots of kernel_of, the concrete L
    of a generic_L grid point, and is refused without one."""
    if isinstance(value, Elem):
        if value.ctx is not ctx:
            raise _refused(name, f"elements of {ctx.label}", value)
        return [value]
    if _is_int(value):
        return [ctx.elem(value)]
    if isinstance(value, str):
        if value and all(c.isdigit() or c == "," for c in value):
            return [ctx.from_coords([int(c) for c in value.split(",")])]
        if value == "kernel_nonzero":
            if kernel_of is None:
                raise _refused(name, "the token 'kernel_nonzero' only as generic_L's 'a'", value)
            return list(ctx.zero_set(kernel_of.tabulate())[1:])
        return _resolve_elem_token(ctx, value, family_id)
    raise _refused(name, "element codes, coordinate strings or tokens", value)


def _resolve_lin(ctx: FieldCtx, value, seed: int, name: str) -> LinPoly:
    """One value of a linearized parameter: a map, a name or a linearized
    polynomial string."""
    if isinstance(value, LinPoly):
        return value
    if isinstance(value, str):
        if value == "identity":
            return LinPoly.identity(ctx)
        if value == "trace":
            return LinPoly.trace_map(ctx)
        if value.startswith("frob:"):
            return LinPoly.frobenius_term(ctx, int(value.split(":", 1)[1]))
        if value == "random_pp":
            return random_linearized_pp(ctx, seed)
        if value.startswith("random_pp:"):
            return random_linearized_pp(ctx, int(value.split(":", 1)[1]))
        return parse_linpoly(ctx, value)
    raise _refused(name, "linearized-map names or strings", value)


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_codes(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_int, value))


def _poly_from_spec(ctx: FieldCtx, value, name: str) -> Poly:
    """A polynomial, a polynomial string, a coefficient-code list, or an
    object {"mono": degree, "coeff": code} or {"codes": [...]}."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, str):
        return parse_poly(ctx, value)
    if isinstance(value, dict):
        if "mono" in value:
            degree, coeff = value["mono"], value.get("coeff", 1)
            if (value.keys() <= {"mono", "coeff"} and _is_int(degree) and degree >= 0
                    and (_is_int(coeff) or isinstance(coeff, Elem))):
                if degree >= ctx.order:  # every map on the field has a degree below its order
                    raise _refused(name, f"monomial degrees below the field order {ctx.order}",
                                   value)
                return Poly.monomial(ctx, degree, coeff)
        elif value.keys() == {"codes"} and _is_codes(value["codes"]):
            return Poly(ctx, value["codes"])
    elif _is_codes(value):
        return Poly(ctx, value)
    raise _refused(name, "polynomial strings, coefficient-code lists or objects "
                         "{'mono': degree, 'coeff': code} or {'codes': [...]}", value)


def _recipe_from_spec(ctx: FieldCtx, value, name: str) -> GRecipe:
    """A recipe, or an object {"kind": ..., "h": <poly>, "d": int, "s": int,
    "parts": [<recipe>, ...]} with every field but the kind optional and no
    other keys."""
    if isinstance(value, GRecipe):
        return value
    if (isinstance(value, dict) and isinstance(value.get("kind"), str)
            and value.keys() <= {"kind", "h", "d", "s", "parts"}
            and all(value.get(field) is None or _is_int(value[field]) for field in ("d", "s"))
            and isinstance(value.get("parts", ()), (list, tuple))):
        parts = tuple(_recipe_from_spec(ctx, p, name) for p in value.get("parts", ()))
        h = _poly_from_spec(ctx, value["h"], name) if "h" in value else None
        return GRecipe(value["kind"], h=h, d=value.get("d"),
                       s=value.get("s"), parts=parts)
    raise _refused(name, "recipe objects with a string 'kind', integer 'd' and 's', "
                         "a list of 'parts', an 'h' and no other keys", value)


def _resolve_recipe(ctx: FieldCtx, value, name: str) -> GRecipe:
    """One value of a recipe parameter: a recipe or a recipe object."""
    if isinstance(value, (GRecipe, dict)):
        return _recipe_from_spec(ctx, value, name)
    raise _refused(name, "recipe objects", value)


def _resolve_poly_or_recipe(ctx: FieldCtx, value, name: str):
    """One value of a polynomial-or-recipe parameter: a polynomial, a
    recipe, a polynomial or recipe object, or a polynomial string."""
    if isinstance(value, (GRecipe, Poly)):
        return value
    if isinstance(value, dict) and "kind" in value:
        return _recipe_from_spec(ctx, value, name)
    if isinstance(value, (dict, str)):
        return _poly_from_spec(ctx, value, name)
    raise _refused(name, "polynomial or recipe objects or polynomial strings", value)


def _resolve_param(ctx: FieldCtx, family_id: str, name: str, value, seed: int,
                   nested: bool = True, kernel_of: Optional[LinPoly] = None) -> list:
    """The values of a parameter's grid entry: those of each item of a list
    in turn, else those of the single value.  Lists nest for element, map,
    recipe and polynomial parameters; an int or string parameter's list is
    one level deep, so a list inside it is a value (and no integer)."""
    kind = PARAM_KINDS[family_id][name]
    if nested and isinstance(value, (list, tuple)):
        deeper = kind not in (int, str)
        return [x for v in value
                for x in _resolve_param(ctx, family_id, name, v, seed, deeper, kernel_of)]
    if kind is Elem:
        return _resolve_elem(ctx, value, family_id, name, kernel_of)
    if kind is LinPoly:
        return [_resolve_lin(ctx, value, seed, name)]
    if kind is GRecipe:
        return [_resolve_recipe(ctx, value, name)]
    if kind is Poly:
        return [_poly_from_spec(ctx, value, name)]
    if kind == Union[Poly, GRecipe]:
        return [_resolve_poly_or_recipe(ctx, value, name)]
    if kind is int and not _is_int(value):  # floats, strings and booleans are refused
        raise ValueError(f"parameter {name!r} takes integers, got {value!r}")
    return [value]


def _names_kernel(value) -> bool:
    """The grid entry holds the token 'kernel_nonzero', at any depth."""
    if isinstance(value, (list, tuple)):
        return any(map(_names_kernel, value))
    return isinstance(value, str) and value == "kernel_nonzero"


def _expand_params(family_id: str, ctx: FieldCtx, params: dict,
                   seed: int) -> Iterator[dict]:
    order = PARAM_ORDER[family_id]
    missing = [name for name in order if name not in params]
    if missing:
        raise ValueError(f"missing parameters for {family_id}: {', '.join(missing)}")
    extra = [name for name in params if name not in order]
    if extra:
        raise ValueError(f"unknown parameters for {family_id}: {', '.join(extra)}")

    if family_id == "generic_L" and _names_kernel(params["a"]):
        # the kernel elements depend on the concrete L
        for L in _resolve_param(ctx, family_id, "L", params["L"], seed):
            a = _resolve_param(ctx, family_id, "a", params["a"], seed, kernel_of=L)
            yield from _expand_params(family_id, ctx, {**params, "L": L, "a": a}, seed)
        return

    lists = [_resolve_param(ctx, family_id, name, params[name], seed)
             for name in order]
    for combo in itertools.product(*lists):
        yield dict(zip(order, combo))


GridItem = Union[FamilyInstance, SkippedInstance]


def _grid_points(family_id: str, ctx: FieldCtx, params: dict,
                 seed: int) -> Iterator[tuple[dict, Optional[bool], Optional[str]]]:
    """The points of the parameter grid on ctx, in grid order: each as
    (params, predicted verdict, None), or as (params, None, reason) when
    its hypotheses cannot hold.  The one place a grid is expanded and its
    predictions made; no instance is built."""
    if family_id not in _PREDICTIONS:
        raise ValueError(f"unknown family {family_id!r}")
    predict = _PREDICTIONS[family_id]
    for concrete in _expand_params(family_id, ctx, dict(params), seed):
        try:
            predicted = predict(ctx, **concrete)
        except FamilyParameterError as exc:
            yield concrete, None, exc.reason
        except RecipeContractError as exc:
            yield concrete, None, f"recipe_contract: {exc}"
        else:
            yield concrete, predicted, None


def instantiate_grid(family_id: str, ctxs: Iterable[FieldCtx], params: dict,
                     seed: int = 0, limit: Optional[int] = None) -> Iterator[GridItem]:
    """Deterministic stream of family instances over the parameter grid
    on each field of ctxs in turn, at most limit of them: the points of
    _grid_points as FamilyInstance records.

    Grid points whose hypotheses cannot hold are not dropped: they are
    emitted as SkippedInstance records carrying the reason.
    """
    points = ((ctx, *point) for ctx in ctxs
              for point in _grid_points(family_id, ctx, params, seed))
    for ctx, concrete, predicted, reason in itertools.islice(points, limit):
        if reason is None:
            yield FamilyInstance(family_id, ctx, concrete, predicted)
        else:
            yield SkippedInstance(family_id, ctx, concrete, reason)
