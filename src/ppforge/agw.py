"""Executable bijection criteria on commuting squares of finite maps.

The central fact checked here: given surjections psi: A -> S and
psibar: A -> Sbar with #S = #Sbar, and f: A -> A inducing h: S -> Sbar
(psibar . f = h . psi), f is bijective exactly when h is bijective and f
is injective on every fiber psi^-1(s).  The checkers below confirm that
equivalence, and its corollaries for maps perturbed by fiber-constant
kernel-valued terms, on concrete finite instances, reporting
counterexamples rather than bare booleans.

Maps are held as lists by position in A: a family's square as lists of
element codes, any other domain numbered once, at the API edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

_ADDITIVITY_EXHAUSTIVE_MAX = 256
_ADDITIVITY_SAMPLES = 10_000


class AGWError(Exception):
    """Base class for diagram construction and hypothesis errors."""


class NotSurjectiveError(AGWError):
    """A declared codomain is not fully covered."""


class NotCommutingError(AGWError):
    """The square psibar . f = h . psi fails (or no h can make it commute)."""


class HypothesisViolatedError(AGWError):
    """A named theorem hypothesis fails; .name identifies which."""

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"hypothesis '{name}' violated" + (f": {detail}" if detail else ""))
        self.name = name


MapLike = Union["FiniteMap", Callable, Mapping]


class FiniteMap:
    """A total map on an ordered finite domain: its values by position."""

    __slots__ = ("domain", "values", "_index")

    def __init__(self, domain: Sequence, table: Union[Mapping, Sequence]):
        self.domain = tuple(domain)
        if isinstance(table, Mapping):
            if set(table) != set(self.domain):
                raise ValueError("table keys must match the domain exactly")
            table = [table[x] for x in self.domain]
        elif len(table) != len(self.domain):
            raise ValueError("need one value per domain element")
        self.values = list(table)
        self._index: Optional[dict] = None

    @classmethod
    def from_callable(cls, domain: Sequence, fn: Callable) -> "FiniteMap":
        domain = tuple(domain)
        return cls(domain, [fn(x) for x in domain])

    @classmethod
    def ensure(cls, domain: Sequence, m: MapLike) -> "FiniteMap":
        domain = tuple(domain)
        if isinstance(m, FiniteMap):
            if m.domain == domain:
                return m
            m = dict(zip(m.domain, m.values))
        if callable(m):
            return cls.from_callable(domain, m)
        return cls(domain, m)

    def __call__(self, x):
        if self._index is None:
            self._index = {y: i for i, y in enumerate(self.domain)}
        return self.values[self._index[x]]

    def image(self) -> tuple:
        """The distinct values, in order of first appearance."""
        return tuple(dict.fromkeys(self.values))

    def is_bijective_onto(self, codomain: Sequence) -> bool:
        return _bijective_onto(self.values, codomain)


def _bijective_onto(values: Sequence, codomain) -> bool:
    image = set(values)
    return len(image) == len(values) and image == set(codomain)


def _descend(psi: Sequence, values: list) -> tuple[dict, Optional[object]]:
    """values as a map {s: value} on the fibers of psi, and the first fiber
    (in order of first appearance) on which values varies, or None."""
    h = dict(zip(psi, values))
    if list(map(h.__getitem__, psi)) == values:
        return h, None
    varies = {s for s, v in zip(psi, values) if h[s] != v}
    return h, next(s for s in h if s in varies)


def _fibers(psi: Sequence) -> dict:
    """The positions over each point, in order of first appearance."""
    fibers: dict = {}
    for x, s in enumerate(psi):
        fibers.setdefault(s, []).append(x)
    return fibers


def _fiber_collision(psi: Sequence, f: Sequence, S: Sequence) -> Optional[tuple]:
    """The first (s, x1, x2), x1 < x2 in the fiber over s and f[x1] == f[x2],
    in the order S and then domain order; None if f is fiber-injective."""
    if len(set(zip(psi, f))) == len(f):
        return None
    fibers = _fibers(psi)
    for s in S:
        seen: dict = {}
        for x in fibers[s]:
            first = seen.setdefault(f[x], x)
            if first != x:
                return s, first, x
    return None


class AGWInstance:
    """A validated commuting square over a finite ground set A.  When h is
    omitted it is induced fiberwise from f, checked well defined on every fiber."""

    def __init__(self, A: Sequence, psi: MapLike, psibar: MapLike,
                 f: MapLike, h: Optional[MapLike] = None,
                 S: Optional[Sequence] = None, Sbar: Optional[Sequence] = None):
        A = tuple(A)
        position = {x: i for i, x in enumerate(A)}
        f = [position.get(y, -1) for y in FiniteMap.ensure(A, f).values]
        if len(position) != len(A) or -1 in f:
            raise ValueError("A must hold distinct points and f must map A into A")
        self._build(A, f, FiniteMap.ensure(A, psi).values, FiniteMap.ensure(A, psibar).values,
                    S, Sbar, h, lambda s: s)

    @classmethod
    def from_codes(cls, A: Sequence, f: Sequence[int], psi: Sequence[int],
                   psibar: Sequence[int], point: Callable[[int], object]) -> "AGWInstance":
        """The square of code lists on A, A[c] having code c; point wraps a code."""
        inst = cls.__new__(cls)
        inst._build(tuple(A), f, psi, psibar, None, None, None, point)
        return inst

    def _build(self, A, f, psi, psibar, S, Sbar, h, point) -> None:
        self._S = list(dict.fromkeys(psi)) if S is None else tuple(S)
        self._Sbar = list(dict.fromkeys(psibar)) if Sbar is None else tuple(Sbar)
        if S is not None and set(self._S) != set(psi):
            raise NotSurjectiveError("psi does not cover S")
        if Sbar is not None and set(self._Sbar) != set(psibar):
            raise NotSurjectiveError("psibar does not cover Sbar")
        if len(self._S) != len(self._Sbar):
            raise HypothesisViolatedError("cardinality", "#S != #Sbar")
        self.A, self._f, self._psi, self._point = A, f, psi, point
        values = list(map(psibar.__getitem__, f))  # psibar(f(x)) by position
        if h is None:
            self._h, varies = _descend(psi, values)
            if varies is not None:
                raise NotCommutingError(
                    "no induced map: psibar(f(.)) not constant on the fiber over "
                    f"{point(varies)!r}")
            return
        self._h = dict(zip(self._S, FiniteMap.ensure(self._S, h).values))
        for x, s in enumerate(psi):
            if self._h[s] != values[x]:
                raise NotCommutingError(f"psibar(f({A[x]!r})) != h(psi({A[x]!r}))")

    @property
    def S(self) -> tuple:
        return tuple(map(self._point, self._S))

    @property
    def fibers(self) -> dict:
        """psi^-1(s) for every s, in order of first appearance."""
        return {self._point(s): [self.A[x] for x in fiber]
                for s, fiber in _fibers(self._psi).items()}


@dataclass(frozen=True)
class FiberReport:
    f_bijective: bool
    h_bijective: bool
    fiber_injective: bool
    fiber_witness: Optional[tuple] = None  # (s, x1, x2) collapsing inside a fiber

    @property
    def equivalence_holds(self) -> bool:
        return self.f_bijective == (self.h_bijective and self.fiber_injective)


def check_fiber_criterion(inst: AGWInstance) -> FiberReport:
    """Confirm: f bijective <=> h bijective and f injective on every fiber."""
    found = _fiber_collision(inst._psi, inst._f, inst._S)
    witness = found and (inst._point(found[0]), inst.A[found[1]], inst.A[found[2]])
    return FiberReport(
        f_bijective=_bijective_onto(inst._f, range(len(inst.A))),
        h_bijective=_bijective_onto(list(inst._h.values()), inst._Sbar),
        fiber_injective=witness is None,
        fiber_witness=witness,
    )


def _kernel_square(A: Sequence, psi: MapLike, psibar: MapLike, *maps: MapLike):
    """The maps on A, once #S = #Sbar and psibar is additive."""
    A = tuple(A)
    psi, psibar, *maps = (FiniteMap.ensure(A, m) for m in (psi, psibar) + maps)
    if len(psi.image()) != len(psibar.image()):
        raise HypothesisViolatedError("cardinality", "#S != #Sbar")
    _check_additive(A, psibar.values)
    return A, psi, psibar, maps


def _check_additive(A: tuple, psibar: list, seed: int = 0) -> None:
    """psibar(x + y) = psibar(x) + psibar(y), adding element codes in the field."""
    n, add = len(A), A[0].ctx._add
    codes, bar = [x.code for x in A], [y.code for y in psibar]
    position = {c: i for i, c in enumerate(codes)}
    if n <= _ADDITIVITY_EXHAUSTIVE_MAX:
        pairs = ((i, j) for i in range(n) for j in range(n))
    else:
        rng = random.Random(seed)
        pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(_ADDITIVITY_SAMPLES))
    for i, j in pairs:
        if bar[position[add(codes[i], codes[j])]] != add(bar[i], bar[j]):
            raise HypothesisViolatedError("additivity", f"at ({A[i]!r}, {A[j]!r})")


def _commuting(A, psi, psibar, f, h) -> AGWInstance:
    """The square of f; a given h that does not commute violates 'commutes'."""
    try:
        return AGWInstance(A, psi, psibar, f, h)
    except NotCommutingError as exc:
        if h is None:
            raise
        raise HypothesisViolatedError("commutes", str(exc)) from None


@dataclass(frozen=True)
class PerturbReport:
    perturbed_bijective: bool   # u + v
    base_bijective: bool        # u
    counterexample: Optional[tuple] = None

    @property
    def equivalence_holds(self) -> bool:
        return self.perturbed_bijective == self.base_bijective


def check_perturbed_bijection(A: Sequence, psi: MapLike, psibar: MapLike,
                              u: MapLike, v: MapLike,
                              h: Optional[MapLike] = None) -> PerturbReport:
    """u + v permutes A exactly when u does, given the kernel hypotheses.

    Requires psibar additive, psibar(v(x)) = 0 for every x, and v constant
    on each fiber of psi; violations raise HypothesisViolatedError naming
    the failed precondition.
    """
    A, psi, psibar, (u, v) = _kernel_square(A, psi, psibar, u, v)
    for x, y in zip(A, v.values):
        if psibar(y):
            raise HypothesisViolatedError("kernel_value", f"psibar(v({x!r})) != 0")
    varies = _descend(psi.values, v.values)[1]
    if varies is not None:
        raise HypothesisViolatedError("fiber_constant", f"v varies on the fiber over {varies!r}")
    f = [a + b for a, b in zip(u.values, v.values)]
    _commuting(A, psi, psibar, f, h)
    perturbed, base = _bijective_onto(f, A), u.is_bijective_onto(A)
    mismatch = ("verdict_mismatch", perturbed, base) if perturbed != base else None
    return PerturbReport(perturbed, base, mismatch)


@dataclass(frozen=True)
class ShiftReport:
    shifted_bijective: bool          # p = f + g(psi(.))
    h_bijective: bool
    base_fiber_injective: bool       # f injective on each fiber
    kernel_condition: bool           # psibar(g(psi(x))) = 0 everywhere
    base_bijective: Optional[bool] = None   # only when the kernel condition holds
    counterexample: Optional[tuple] = None

    @property
    def equivalence_holds(self) -> bool:
        return self.shifted_bijective == (self.h_bijective and self.base_fiber_injective)

    @property
    def reduction_holds(self) -> Optional[bool]:
        if not self.kernel_condition:
            return None
        return self.shifted_bijective == self.base_bijective


def check_fiber_shift(A: Sequence, psi: MapLike, psibar: MapLike,
                      f: MapLike, g_of_s: MapLike,
                      h: Optional[MapLike] = None) -> ShiftReport:
    """Criterion for p(x) = f(x) + g(psi(x)).

    h is the map induced by p on the fiber space (passed explicitly or
    derived); p permutes A exactly when h is bijective and f is injective
    on every fiber.  When additionally psibar(g(psi(x))) = 0 everywhere,
    p permutes A exactly when f does.
    """
    A, psi, psibar, (f,) = _kernel_square(A, psi, psibar, f)
    g = FiniteMap.ensure(psi.image(), g_of_s)
    p = [y + g(s) for y, s in zip(f.values, psi.values)]
    # p and f differ by g(psi(x)), constant on each fiber, so inside a fiber
    # they collide at the same points: the square of p shows where f does
    report = check_fiber_criterion(_commuting(A, psi, psibar, p, h))
    kernel = not any(psibar(y) for y in g.values)
    return ShiftReport(
        shifted_bijective=report.f_bijective,
        h_bijective=report.h_bijective,
        base_fiber_injective=report.fiber_injective,
        kernel_condition=kernel,
        base_bijective=f.is_bijective_onto(A) if kernel else None,
        counterexample=None if report.equivalence_holds
        else ("verdict_mismatch", report.fiber_witness),
    )


def wrap_family_instance(instance) -> AGWInstance:
    """Lift a family instance onto its commuting square.

    The maps are the instance's value list and its fiber-map code tables.
    Families without a natural fiber map fall back to the identity square,
    for which the fiber criterion still applies (trivially: h is the map
    itself and all fibers are singletons).
    """
    ctx = instance.ctx
    codes = range(ctx.order)
    fibers = instance.fiber_codes()
    psi, psibar = (codes, codes) if fibers is None else fibers
    return AGWInstance.from_codes(ctx.elements(), instance.code_values(),
                                  psi, psibar, ctx._wrap)
