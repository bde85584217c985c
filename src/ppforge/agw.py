"""Executable bijection criteria on commuting squares of finite maps.

The central fact checked here: given surjections psi: A -> S and
psibar: A -> Sbar with #S = #Sbar, and f: A -> A inducing h: S -> Sbar
(psibar . f = h . psi), f is bijective exactly when h is bijective and f
is injective on every fiber psi^-1(s).  The checkers below confirm that
equivalence, and its corollaries for maps perturbed by fiber-constant
kernel-valued terms, on concrete finite instances, reporting
counterexamples rather than bare booleans.
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
    """A total map on an ordered finite domain."""

    __slots__ = ("domain", "table")

    def __init__(self, domain: Sequence, table: Mapping):
        self.domain = tuple(domain)
        if set(table) != set(self.domain):
            raise ValueError("table keys must match the domain exactly")
        self.table = dict(table)

    @classmethod
    def from_callable(cls, domain: Sequence, fn: Callable) -> "FiniteMap":
        domain = tuple(domain)
        return cls(domain, {x: fn(x) for x in domain})

    @classmethod
    def ensure(cls, domain: Sequence, m: MapLike) -> "FiniteMap":
        if isinstance(m, FiniteMap):
            return m
        if callable(m):
            return cls.from_callable(domain, m)
        return cls(domain, m)

    def __call__(self, x):
        return self.table[x]

    def image(self) -> tuple:
        seen = set()
        out = []
        for x in self.domain:
            y = self.table[x]
            if y not in seen:
                seen.add(y)
                out.append(y)
        return tuple(out)

    def is_bijective_onto(self, codomain: Sequence) -> bool:
        image = {self.table[x] for x in self.domain}
        return len(image) == len(self.domain) and image == set(codomain)


def _fibers(A: Sequence, psi: FiniteMap) -> dict:
    fibers: dict = {}
    for x in A:
        fibers.setdefault(psi(x), []).append(x)
    return fibers


def _induce_h(fibers: dict, f: FiniteMap, psibar: FiniteMap) -> dict:
    """h(s) = psibar(f(x)) for x in the fiber over s, checked well-defined."""
    h = {}
    for s, fiber in fibers.items():
        values = {psibar(f(x)) for x in fiber}
        if len(values) != 1:
            raise NotCommutingError(
                f"no induced map: psibar(f(.)) not constant on the fiber over {s!r}")
        h[s] = values.pop()
    return h


class AGWInstance:
    """A validated commuting square over a finite ground set A.

    When h is omitted it is induced fiberwise from f, with well-definedness
    checked across every fiber.
    """

    def __init__(self, A: Sequence, psi: MapLike, psibar: MapLike,
                 f: MapLike, h: Optional[MapLike] = None,
                 S: Optional[Sequence] = None, Sbar: Optional[Sequence] = None):
        self.A = tuple(A)
        self.psi = FiniteMap.ensure(self.A, psi)
        self.psibar = FiniteMap.ensure(self.A, psibar)
        self.f = FiniteMap.ensure(self.A, f)

        self.S = tuple(S) if S is not None else self.psi.image()
        self.Sbar = tuple(Sbar) if Sbar is not None else self.psibar.image()
        if set(self.psi.image()) != set(self.S):
            raise NotSurjectiveError("psi does not cover S")
        if set(self.psibar.image()) != set(self.Sbar):
            raise NotSurjectiveError("psibar does not cover Sbar")
        if len(self.S) != len(self.Sbar):
            raise HypothesisViolatedError("cardinality", "#S != #Sbar")

        self.fibers = _fibers(self.A, self.psi)
        if h is None:
            self.h = FiniteMap(self.S, _induce_h(self.fibers, self.f, self.psibar))
        else:
            self.h = FiniteMap.ensure(self.S, h)
            for x in self.A:
                if self.psibar(self.f(x)) != self.h(self.psi(x)):
                    raise NotCommutingError(
                        f"psibar(f({x!r})) != h(psi({x!r}))")


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
    f_bij = inst.f.is_bijective_onto(inst.A)
    h_bij = inst.h.is_bijective_onto(inst.Sbar)
    witness = None
    for s in inst.S:
        fiber = inst.fibers[s]
        seen = {}
        for x in fiber:
            y = inst.f(x)
            if y in seen:
                witness = (s, seen[y], x)
                break
            seen[y] = x
        if witness:
            break
    return FiberReport(
        f_bijective=f_bij,
        h_bijective=h_bij,
        fiber_injective=witness is None,
        fiber_witness=witness,
    )


def _check_additive(A: Sequence, psibar: FiniteMap, seed: int = 0) -> None:
    if len(A) <= _ADDITIVITY_EXHAUSTIVE_MAX:
        pairs = ((x, y) for x in A for y in A)
    else:
        rng = random.Random(seed)
        pairs = ((rng.choice(A), rng.choice(A)) for _ in range(_ADDITIVITY_SAMPLES))
    table = psibar.table
    for x, y in pairs:
        if table[x + y] != table[x] + table[y]:
            raise HypothesisViolatedError("additivity", f"at ({x!r}, {y!r})")


def _check_fiber_constant(fibers: dict, v: FiniteMap) -> None:
    for s, fiber in fibers.items():
        first = v(fiber[0])
        for x in fiber[1:]:
            if v(x) != first:
                raise HypothesisViolatedError(
                    "fiber_constant", f"v varies on the fiber over {s!r}")


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
    A = tuple(A)
    psi = FiniteMap.ensure(A, psi)
    psibar = FiniteMap.ensure(A, psibar)
    u = FiniteMap.ensure(A, u)
    v = FiniteMap.ensure(A, v)

    S, Sbar = psi.image(), psibar.image()
    if len(S) != len(Sbar):
        raise HypothesisViolatedError("cardinality", "#S != #Sbar")
    _check_additive(A, psibar)
    zero = A[0] - A[0]
    for x in A:
        if psibar(v(x)) != zero:
            raise HypothesisViolatedError("kernel_value", f"psibar(v({x!r})) != 0")
    fibers = _fibers(A, psi)
    _check_fiber_constant(fibers, v)

    f = FiniteMap(A, {x: u(x) + v(x) for x in A})
    if h is not None:
        h = FiniteMap.ensure(S, h)
        for x in A:
            if psibar(f(x)) != h(psi(x)):
                raise HypothesisViolatedError("commutes", f"at {x!r}")
    else:
        _induce_h(fibers, f, psibar)  # well-definedness is the hypothesis

    perturbed = f.is_bijective_onto(A)
    base = u.is_bijective_onto(A)
    counterexample = None
    if perturbed != base:
        counterexample = ("verdict_mismatch", perturbed, base)
    return PerturbReport(perturbed, base, counterexample)


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
    A = tuple(A)
    psi = FiniteMap.ensure(A, psi)
    psibar = FiniteMap.ensure(A, psibar)
    f = FiniteMap.ensure(A, f)

    S, Sbar = psi.image(), psibar.image()
    if len(S) != len(Sbar):
        raise HypothesisViolatedError("cardinality", "#S != #Sbar")
    _check_additive(A, psibar)
    g_of_s = FiniteMap.ensure(S, g_of_s)

    p = FiniteMap(A, {x: f(x) + g_of_s(psi(x)) for x in A})
    fibers = _fibers(A, psi)
    if h is not None:
        h = FiniteMap.ensure(S, h)
        for x in A:
            if psibar(p(x)) != h(psi(x)):
                raise HypothesisViolatedError("commutes", f"at {x!r}")
    else:
        h = FiniteMap(S, _induce_h(fibers, p, psibar))

    shifted = p.is_bijective_onto(A)
    h_bij = h.is_bijective_onto(Sbar)
    witness = None
    for s in S:
        seen = {}
        for x in fibers[s]:
            y = f(x)
            if y in seen:
                witness = (s, seen[y], x)
                break
            seen[y] = x
        if witness:
            break

    zero = A[0] - A[0]
    kernel = all(psibar(g_of_s(psi(x))) == zero for x in A)
    base = f.is_bijective_onto(A) if kernel else None
    counterexample = None
    if shifted != (h_bij and witness is None):
        counterexample = ("verdict_mismatch", witness)
    return ShiftReport(
        shifted_bijective=shifted,
        h_bijective=h_bij,
        base_fiber_injective=witness is None,
        kernel_condition=kernel,
        base_bijective=base,
        counterexample=counterexample,
    )


def wrap_family_instance(instance) -> AGWInstance:
    """Lift a family instance onto its commuting square.

    The top map is the instance's code map, read back as elements.
    Families without a natural fiber map fall back to the identity square,
    for which the fiber criterion still applies (trivially: h is the map
    itself and all fibers are singletons).
    """
    A = instance.ctx.elements()
    f = instance.code_map()
    psi = instance.psi if instance.psi is not None else (lambda x: x)
    psibar = instance.psibar if instance.psibar is not None else (lambda x: x)
    return AGWInstance(A, psi, psibar, lambda x: A[f(x.code)])
