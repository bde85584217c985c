"""Linearized polynomials sum(a_i * x^(q^i)) and their permutation criteria.

Two exact criteria are provided: the Frobenius-twisted circulant
determinant, valid for arbitrary coefficients in F_{q^n}, and the
coprimality test gcd(l(x), x^n - 1) = 1 on the conventional associate,
valid only when all coefficients lie in the base field F_q.  The module
also carries a deterministic generator of linearized permutations.
"""

from __future__ import annotations

import random
from array import array
from typing import Iterable

from .gf import CtxMismatchError, Elem, FieldCtx
from .poly import Poly


class SubfieldCoefficientError(Exception):
    """Raised when an operation needs coefficients in the base field F_q."""


class CriteriaDisagreeError(Exception):
    """Two exact permutation criteria gave different answers for one map.

    That is a defect in the implementation, never a property of the input,
    so it is raised rather than reported as a verdict.
    """


class LinPoly:
    """q-polynomial stored as its length-n coefficient vector (a_0..a_{n-1})."""

    __slots__ = ("ctx", "codes", "subfield_flag")

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
        if len(codes) > ctx.n:
            raise ValueError(f"at most n = {ctx.n} coefficients allowed")
        codes.extend([0] * (ctx.n - len(codes)))
        self.ctx = ctx
        self.codes = tuple(codes)
        self.subfield_flag = all(ctx.is_subfield_code(c) for c in codes)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LinPoly":
        return cls(ctx, ())

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "LinPoly":
        return cls(ctx, (1,))

    @classmethod
    def frobenius_term(cls, ctx: FieldCtx, s: int, coeff=1) -> "LinPoly":
        """coeff * x^(q^s), with s reduced modulo n."""
        code = coeff.code if isinstance(coeff, Elem) else int(coeff)
        coeffs = [0] * ctx.n
        coeffs[s % ctx.n] = code
        return cls(ctx, coeffs)

    @classmethod
    def trace_map(cls, ctx: FieldCtx) -> "LinPoly":
        return cls(ctx, (1,) * ctx.n)

    # -- basics ----------------------------------------------------------------

    @property
    def coefficients(self) -> tuple[Elem, ...]:
        return tuple(self.ctx._wrap(c) for c in self.codes)

    @property
    def is_zero(self) -> bool:
        return not any(self.codes)

    def __eq__(self, other):
        return (
            isinstance(other, LinPoly)
            and other.ctx is self.ctx
            and other.codes == self.codes
        )

    def __hash__(self):
        return hash((id(self.ctx), self.codes))

    def __repr__(self):
        return f"LinPoly({self.ctx.label}, {self.codes})"

    def apply(self, x: Elem) -> Elem:
        """Evaluate sum(a_i * x^(q^i))."""
        if x.ctx is not self.ctx:
            raise CtxMismatchError("argument from a different field")
        return self.ctx._wrap(self.apply_code(x.code))

    __call__ = apply

    def apply_code(self, c: int) -> int:
        return self.ctx._linear_code(self.codes, c)

    def tabulate(self) -> array:
        """L on every element code: the field's cached table of its
        coefficient vector (see :meth:`FieldCtx.linear_map`)."""
        return self.ctx.linear_map(self.codes)

    def conventional(self) -> Poly:
        """The conventional associate sum(a_i * x^i)."""
        return Poly(self.ctx, self.codes)


def circulant_det_is_nonzero(L: LinPoly) -> bool:
    """Permutation test via the n x n twisted circulant matrix.

    Row i holds a_{(j-i) mod n}^(q^i) in column j; the map permutes
    F_{q^n} exactly when the determinant is nonzero, decided here by
    Gaussian elimination over the field.
    """
    ctx = L.ctx
    n = ctx.n
    a = L.codes
    mat = [
        [ctx._frob(a[(j - i) % n], i) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return False
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = ctx._inv(mat[col][col])
        for r in range(col + 1, n):
            factor = ctx._mul(mat[r][col], inv)
            if factor:
                row, top = mat[r], mat[col]
                for j in range(col, n):
                    row[j] = ctx._sub(row[j], ctx._mul(factor, top[j]))
    return True


def _x_n_minus_1(ctx: FieldCtx) -> Poly:
    codes = [0] * (ctx.n + 1)
    codes[0] = ctx._neg(1)
    codes[ctx.n] = 1
    return Poly(ctx, codes)


def gcd_criterion_is_pp(L: LinPoly) -> bool:
    """Permutation test gcd(l(x), x^n - 1) = 1 for base-field coefficients."""
    if not L.subfield_flag:
        raise SubfieldCoefficientError(
            "gcd criterion applies only to base-field coefficients")
    from .poly import gcd

    ctx = L.ctx
    g = gcd(L.conventional(), _x_n_minus_1(ctx))
    return g == Poly.one(ctx)


def is_permutation(L: LinPoly) -> bool:
    """Criterion dispatch: circulant always; gcd cross-checked when it applies."""
    circ = circulant_det_is_nonzero(L)
    if L.subfield_flag and gcd_criterion_is_pp(L) != circ:
        raise CriteriaDisagreeError(
            f"circulant criterion says {circ}, gcd criterion disagrees for {L!r}")
    return circ


def random_linearized_pp(ctx: FieldCtx, seed: int) -> LinPoly:
    """Deterministic sampler of a linearized permutation with F_q coefficients.

    Draws coefficient vectors until the gcd criterion passes; falls back to
    the identity map after 64 unsuccessful draws so the result is always a
    permutation.
    """
    rng = random.Random(seed)
    subfield = ctx.subfield_elements()
    for _ in range(64):
        candidate = LinPoly(ctx, [rng.choice(subfield) for _ in range(ctx.n)])
        if not candidate.is_zero and gcd_criterion_is_pp(candidate):
            return candidate
    return LinPoly.identity(ctx)


# ---------------------------------------------------------------------------
# textual form "lin:a0;a1;...;a_{n-1}", each a_i a comma-separated
# coordinate vector.

def format_linpoly(L: LinPoly) -> str:
    return "lin:" + ";".join(
        ",".join(map(str, L.ctx._wrap(c).coords)) for c in L.codes
    )


def parse_linpoly(ctx: FieldCtx, text: str) -> LinPoly:
    body = text.strip()
    if body.startswith("lin:"):
        body = body[len("lin:"):]
    if not body:
        return LinPoly.zero(ctx)
    coeffs = []
    for part in body.split(";"):
        coords = [int(c) for c in part.split(",")] if part else [0]
        coeffs.append(ctx.from_coords(coords))
    return LinPoly(ctx, coeffs)
