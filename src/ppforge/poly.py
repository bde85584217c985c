"""Dense univariate polynomials over a field context.

Coefficients are stored constant term first with no trailing zeros; the
zero polynomial is the empty vector.  Division requires a nonzero divisor
and gcds are normalized monic, so the coprimality test used by the
linearized permutation criterion is exact equality with 1.
"""

from __future__ import annotations

from typing import Iterable

from .gf import (
    CtxMismatchError,
    Elem,
    FieldCtx,
    code_table,
)


class Poly:
    """Polynomial with coefficients in one field context."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable):
        codes = []
        for c in coeffs:
            if isinstance(c, Elem):
                if c.ctx is not ctx:
                    raise CtxMismatchError("coefficient from a different field")
                codes.append(c.code)
            else:
                code = int(c)
                if not 0 <= code < ctx.order:
                    raise ValueError(f"coefficient code {code} out of range")
                codes.append(code)
        while codes and codes[-1] == 0:
            codes.pop()
        self.ctx = ctx
        self.codes = tuple(codes)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (0, 1))

    @classmethod
    def monomial(cls, ctx: FieldCtx, degree: int, coeff=1) -> "Poly":
        code = coeff.code if isinstance(coeff, Elem) else int(coeff)
        return cls(ctx, (0,) * degree + (code,))

    # -- basics ----------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.codes) - 1

    @property
    def is_zero(self) -> bool:
        return not self.codes

    @property
    def coefficients(self) -> tuple[Elem, ...]:
        return tuple(self.ctx._wrap(c) for c in self.codes)

    def coeff(self, i: int) -> Elem:
        return self.ctx._wrap(self.codes[i] if i < len(self.codes) else 0)

    def _check(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise CtxMismatchError("polynomials belong to different field contexts")
        return other

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ctx is self.ctx
            and other.codes == self.codes
        )

    def __hash__(self):
        return hash((id(self.ctx), self.codes))

    def __bool__(self):
        return bool(self.codes)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        ctx = self.ctx
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx._add(out[i], c)
        return Poly(ctx, out)

    def __sub__(self, other):
        other = self._check(other)
        ctx = self.ctx
        n = max(len(self.codes), len(other.codes))
        out = [0] * n
        for i in range(n):
            ai = self.codes[i] if i < len(self.codes) else 0
            bi = other.codes[i] if i < len(other.codes) else 0
            out[i] = ctx._sub(ai, bi)
        return Poly(ctx, out)

    def __neg__(self):
        ctx = self.ctx
        return Poly(ctx, [ctx._neg(c) for c in self.codes])

    def __mul__(self, other):
        other = self._check(other)
        ctx = self.ctx
        if not self.codes or not other.codes:
            return Poly.zero(ctx)
        out = [0] * (len(self.codes) + len(other.codes) - 1)
        for i, a in enumerate(self.codes):
            if a:
                for j, b in enumerate(other.codes):
                    if b:
                        out[i + j] = ctx._add(out[i + j], ctx._mul(a, b))
        return Poly(ctx, out)

    def scale(self, c) -> "Poly":
        code = c.code if isinstance(c, Elem) else int(c)
        ctx = self.ctx
        return Poly(ctx, [ctx._mul(code, a) for a in self.codes])

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        rem = list(self.codes)
        dv = other.codes
        dd = len(dv) - 1
        inv_lead = ctx._inv(dv[-1])
        quot = [0] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and rem:
            coef = ctx._mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - dd
            quot[shift] = coef
            for i, m in enumerate(dv):
                rem[shift + i] = ctx._sub(rem[shift + i], ctx._mul(coef, m))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(ctx, quot), Poly(ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.codes[-1] == 1:
            return self
        return self.scale(self.ctx._inv(self.codes[-1]))

    def eval(self, x: Elem) -> Elem:
        """Horner evaluation."""
        if not isinstance(x, Elem):
            raise TypeError("evaluation point must be an Elem")
        if x.ctx is not self.ctx:
            raise CtxMismatchError("evaluation point from a different field")
        return self.ctx._wrap(self.eval_code(x.code))

    __call__ = eval

    def eval_code(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for c in reversed(self.codes):
            acc = ctx._add(ctx._mul(acc, x), c)
        return acc

    def tabulate(self):
        """The polynomial on every element code, built once per field and
        coefficient vector: the sum of c*x^i over the nonzero terms, each
        read in one pass over the log table and added as it is read."""
        ctx = self.ctx

        def build():
            values = code_table([0]) * ctx.order
            for i, c in enumerate(self.codes):
                if c:
                    values = code_table(ctx._add_codes(ctx._power_column(i, c), values))
            return values

        return ctx.derived(("poly", self.codes), build)

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self.ctx.label}, {self.codes})"

    def __str__(self):
        if self.is_zero:
            return "0"
        dim = self.ctx.dim
        parts = []
        for i in range(len(self.codes) - 1, -1, -1):
            c = self.codes[i]
            if c == 0:
                continue
            if dim == 1:
                cs = str(c)
            else:
                cs = "(" + ",".join(map(str, self.ctx._wrap(c).coords)) + ")"
            if i == 0:
                parts.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                parts.append(xs if cs == "1" else f"{cs}*{xs}")
        return " + ".join(parts)


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    f._check(g)
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# textual form: coefficients constant term first; commas separate the
# coefficients of a prime-field polynomial, while extension coefficients are
# semicolon-separated coordinate vectors.

def format_poly(f: Poly) -> str:
    if f.ctx.dim == 1:
        return ",".join(str(c) for c in f.codes)
    return ";".join(",".join(map(str, f.ctx._wrap(c).coords)) for c in f.codes)


def parse_poly(ctx: FieldCtx, text: str) -> Poly:
    text = text.strip()
    if not text:
        return Poly.zero(ctx)
    if ctx.dim == 1:
        return Poly(ctx, [int(part) % ctx.p for part in text.split(",")])
    coeffs = []
    for part in text.split(";"):
        coords = [int(c) for c in part.split(",")] if part else [0]
        coeffs.append(ctx.from_coords(coords))
    return Poly(ctx, coeffs)
