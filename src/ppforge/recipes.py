"""Recipes for maps g with g(x)^q = +-g(x), tabulated on element codes.

A recipe (`GRecipe`) names a construction, such as the trace or a norm
power of a polynomial h, or a product or sum of other recipes.  Every
recipe of one h is x -> Lambda(h(x)^e) for a q-linear Lambda = sum(c_j *
x^(q^j)) and an exponent e, tabulated by `FieldCtx.linear_of_power`: the
trace is e = 1, a norm power is Lambda = x.  `build_g`
tabulates it on every element code and checks, in one pass, that the table
of y^q -+ y vanishes on every value; the families look the verified table up
through `g_codes`, which builds it once per (recipe, field).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .gf import CtxMismatchError, FieldCtx, TabulatedMap, code_table
from .poly import Poly


class FamilyError(Exception):
    """Base class for family construction failures."""


class FamilyParameterError(FamilyError):
    """A constructor precondition failed; .reason is a stable code."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason + (f": {detail}" if detail else ""))
        self.reason = reason


class RecipeContractError(FamilyError):
    """A g-recipe violated its symmetry contract g(x)^q = +-g(x)."""


# ---------------------------------------------------------------------------
# recipes for g with g^q = g (sign +1) or g^q = -g (sign -1)


@dataclass(frozen=True)
class GRecipe:
    """Recipe for a polynomial map whose values commute with Frobenius up to sign."""

    kind: str
    h: Optional[Poly] = None
    d: Optional[int] = None
    s: Optional[int] = None
    parts: tuple["GRecipe", ...] = ()

    def describe(self) -> str:
        args = []
        if self.h is not None:
            args.append(f"h={self.h}")
        if self.d is not None:
            args.append(f"d={self.d}")
        if self.s is not None:
            args.append(f"s={self.s}")
        if self.parts:
            args.append(",".join(p.describe() for p in self.parts))
        return f"{self.kind}[{','.join(args)}]"


def trace_of_h(h: Poly) -> GRecipe:
    return GRecipe("trace_of_h", h=h)


def norm_power(h: Poly, s: int = 1) -> GRecipe:
    return GRecipe("norm_power", h=h, s=s)


def m_sum(h: Poly, d: int) -> GRecipe:
    return GRecipe("m_sum", h=h, d=d)


def anti_alternating(h: Poly) -> GRecipe:
    return GRecipe("anti_alternating", h=h)


def anti_scaled(inner: GRecipe) -> GRecipe:
    return GRecipe("anti_scaled", parts=(inner,))


def anti_m_sum(h: Poly, d: int) -> GRecipe:
    return GRecipe("anti_m_sum", h=h, d=d)


def product_of(*parts: GRecipe) -> GRecipe:
    return GRecipe("product", parts=tuple(parts))


def sum_of(*parts: GRecipe) -> GRecipe:
    return GRecipe("sum", parts=tuple(parts))


_SIGNS = {
    "trace_of_h": 1,
    "norm_power": 1,
    "m_sum": 1,
    "anti_alternating": -1,
    "anti_scaled": -1,
    "anti_m_sum": -1,
}


def recipe_sign(recipe: GRecipe) -> int:
    """Expected symmetry: +1 for g^q = g, -1 for g^q = -g."""
    if recipe.kind in _SIGNS:
        return _SIGNS[recipe.kind]
    if recipe.kind == "product":
        sign = 1
        for part in recipe.parts:
            sign *= recipe_sign(part)
        return sign
    if recipe.kind == "sum":
        signs = {recipe_sign(part) for part in recipe.parts}
        if len(signs) != 1:
            raise FamilyParameterError("mixed_parity_sum",
                                       "summands disagree on g^q = +-g")
        return signs.pop()
    raise FamilyParameterError("unknown_recipe", recipe.kind)


def _need_h(recipe: GRecipe) -> Poly:
    if recipe.h is None:
        raise FamilyParameterError("missing_h", recipe.kind)
    return recipe.h


def h_codes(h: Poly, ctx: FieldCtx) -> Sequence[int]:
    if h.ctx is not ctx:
        raise CtxMismatchError("evaluation point from a different field")
    return h.tabulate()


def _power_sum(recipe: GRecipe, ctx: FieldCtx) -> tuple[list[int], int]:
    """(coefficients of Lambda, e) of a recipe x -> Lambda(h(x)^e), with
    Lambda(y) = sum(c_j * y^(q^j)); the code p - 1 is the element -1."""
    kind, n, q, minus = recipe.kind, ctx.n, ctx.q, ctx.p - 1
    if kind == "trace_of_h":
        ctx.linear_map([1] * n)  # kept: the field's trace, which Elem.trace reads too
        return [1] * n, 1
    if kind == "norm_power":
        s = recipe.s if recipe.s is not None else 1
        if s < 0:
            raise FamilyParameterError("negative_exponent", "s must be nonnegative")
        return [1], s * ((ctx.order - 1) // (q - 1))
    d = recipe.d
    if kind == "m_sum":
        if d is None or not (1 < d < n) or n % d != 0:
            raise FamilyParameterError("bad_divisor",
                                       f"need a proper divisor 1 < d < n, got d={d}, n={n}")
        return [1] * d, sum(q ** (i * d) for i in range(n // d))
    if kind == "anti_alternating":
        if n % 2 != 0:
            raise FamilyParameterError("bad_divisor", "needs even tower degree")
        return [minus, 1] * (n // 2), 1
    if d is None or d < 1 or n % (2 * d) != 0:  # anti_m_sum
        raise FamilyParameterError("bad_divisor", f"need n = 2*k*d, got d={d}, n={n}")
    return [1, minus] * d, sum(q ** (2 * i * d) for i in range(n // (2 * d)))


def _tabulate_unverified(recipe: GRecipe, ctx: FieldCtx) -> Sequence[int]:
    """The recipe's map on every element code."""
    kind = recipe.kind
    add, mul = ctx._add, ctx._mul

    if kind in ("anti_alternating", "anti_scaled", "anti_m_sum") and ctx.p == 2:
        raise FamilyParameterError("even_characteristic_anti",
                                   "antisymmetric recipes need odd q")

    if kind in ("trace_of_h", "norm_power", "m_sum", "anti_alternating", "anti_m_sum"):
        h = _need_h(recipe)
        coeffs, e = _power_sum(recipe, ctx)
        return ctx.linear_of_power(coeffs, e, h_codes(h, ctx))

    if kind == "anti_scaled":
        if len(recipe.parts) != 1:
            raise FamilyParameterError("missing_parts", "anti_scaled takes one part")
        if recipe_sign(recipe.parts[0]) != 1:
            raise FamilyParameterError("anti_scaled_needs_invariant_part")
        kernel = ctx.frobenius_eigenspace(1, -1)
        if len(kernel) < 2:
            raise FamilyParameterError("no_antisymmetric_scalar",
                                       "x^q = -x has only the zero solution")
        a = kernel[1].code  # smallest nonzero, canonical order
        return [mul(a, y) for y in _tabulate_unverified(recipe.parts[0], ctx)]

    if kind in ("product", "sum"):
        if len(recipe.parts) < 2:
            raise FamilyParameterError("missing_parts", f"{kind} takes two or more parts")
        if kind == "sum":
            recipe_sign(recipe)  # rejects mixed parity
        op = mul if kind == "product" else add
        tables = [_tabulate_unverified(part, ctx) for part in recipe.parts]
        out = tables[0]
        for table in tables[1:]:
            out = [op(u, v) for u, v in zip(out, table)]
        return out

    raise FamilyParameterError("unknown_recipe", kind)


def _check_contract(ctx: FieldCtx, table: Sequence[int], sign: int) -> Optional[int]:
    """First code x whose value fails g(x)^q = sign*g(x), or None: the first
    x at which the table of y^q - sign*y is nonzero on g(x), in one pass."""
    shift = ctx.frob_shift(1, -sign)
    return next(itertools.compress(range(len(table)), map(shift.__getitem__, table)), None)


def build_g(recipe: GRecipe, ctx: FieldCtx) -> TabulatedMap:
    """Tabulate the map and verify its symmetry contract on every element."""
    sign = recipe_sign(recipe)
    table = _tabulate_unverified(recipe, ctx)
    bad = _check_contract(ctx, table, sign)
    if bad is not None:
        raise RecipeContractError(
            f"{recipe.describe()} fails g(x)^q = {'+' if sign == 1 else '-'}g(x) "
            f"at x={ctx._wrap(bad)}")
    return TabulatedMap(ctx, code_table(table))


def g_codes(recipe: GRecipe, ctx: FieldCtx) -> Sequence[int]:
    """build_g's table, built once per (recipe, field)."""
    return ctx.derived(("g", recipe), lambda: build_g(recipe, ctx)).codes


def symmetric_codes(ctx: FieldCtx, h) -> Sequence[int]:
    """Normalize h (recipe or polynomial) to the table of a verified h^q = h
    map, built once per field."""
    if isinstance(h, GRecipe):
        if recipe_sign(h) != 1:
            raise FamilyParameterError("h_contract", "h must satisfy h^q = h")
        try:
            return g_codes(h, ctx)
        except RecipeContractError as exc:
            raise FamilyParameterError("h_contract", str(exc))
    if isinstance(h, Poly):
        def build() -> Sequence[int]:
            table = h_codes(h, ctx)
            bad = _check_contract(ctx, table, 1)
            if bad is not None:
                raise FamilyParameterError("h_contract",
                                           f"h(x)^q != h(x) at x={ctx._wrap(bad)}")
            return table

        return ctx.derived(("symmetric", h.codes), build)
    raise FamilyParameterError("h_contract", "h must be a GRecipe or Poly")
