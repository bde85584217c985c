"""Executable bijection criteria on commuting squares of finite maps.

The central fact checked here: given surjections psi: A -> S and
psibar: A -> Sbar with #S = #Sbar, and f: A -> A inducing h: S -> Sbar
(psibar . f = h . psi), f is bijective exactly when h is bijective and f
is injective on every fiber psi^-1(s).  The checkers below confirm that
equivalence, and its corollaries for maps perturbed by fiber-constant
kernel-valued terms, on concrete finite instances, reporting
counterexamples rather than bare booleans.

Maps are held as lists or tuples by position in A: a family's square as
element codes, any other domain numbered once, at the API edge.  A square
is audited on f, g = psibar . f (one gather of psibar by f) and a fiber
table of psi (for every position, the position of the first point of its
fiber):

- the square commutes iff g agrees with g read at those first points;
- f is bijective iff it takes #A distinct values;
- h is bijective iff g takes #Sbar distinct values;
- the fibers are scanned for a collision only when f is not bijective.

A family's square takes f and (psibar, fiber delta) from one composition
call and the fiber table of psibar, built once per field and psibar table:
psi = psibar + delta has the same fibers, and S is Sbar shifted by delta,
point by point and in the same order.  A grid's square is decided from the
same counts (_square_holds), with no instance, report or witness; only a
square that fails is wrapped (_wrap_codes) and reported.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .gf import _GATHER_CHUNK, gather

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


class FiberTable:
    """The fibers of a map given by its values by position: ``rep[x]`` is
    the position of the first point of x's fiber and ``points`` are the
    distinct values in order of first appearance.  Built in one C-level
    pass: ``setdefault`` on a dict of each value's first position records a
    new value and returns the first position of a seen one.  ``rep`` is a
    tuple, which every square it serves gathers through without a copy."""

    __slots__ = ("values", "rep", "points", "_groups")

    def __init__(self, values: Sequence):
        first: dict = {}
        self.values = values
        self.rep = tuple(map(first.setdefault, values, range(len(values))))
        self.points = list(first)
        self._groups: Optional[dict] = None

    def first_varying(self, values: Sequence) -> Optional[int]:
        """The first position of the first fiber (in order of first
        appearance) on which values is not constant; None if there is none."""
        at_rep = gather(values, self.rep)
        if at_rep == tuple(values):
            return None
        return min(r for r, u, v in zip(self.rep, at_rep, values) if u != v)

    def groups(self) -> dict:
        """The positions over each point, in order of first appearance;
        grouped on first use and kept, so shared tables group once."""
        if self._groups is None:
            self._groups = {}
            for x, s in enumerate(self.values):
                self._groups.setdefault(s, []).append(x)
        return self._groups


def _fiber_collision(fibers: FiberTable, f: Sequence, order: Sequence) -> Optional[tuple]:
    """The first (s, x1, x2), x1 < x2 in the fiber over s and f[x1] == f[x2],
    in the order of the points and then domain order; None if f is
    fiber-injective."""
    if len(set(zip(fibers.rep, f))) == len(f):
        return None
    groups = fibers.groups()
    for s in order:
        seen: dict = {}
        for x in groups[s]:
            first = seen.setdefault(f[x], x)
            if first != x:
                return s, first, x
    return None


class AGWInstance:
    """A validated commuting square over a finite ground set A.  When h is
    omitted it is induced fiberwise from f, checked well defined on every fiber.

    The square is held as f and g = psibar . f by position, a fiber table
    with the fibers of psi (a family's square shares the table of its
    psibar) and a label naming the point of S over each point of the table;
    S and the fibers are labelled only when asked for.
    """

    def __init__(self, A: Sequence, psi: MapLike, psibar: MapLike,
                 f: MapLike, h: Optional[MapLike] = None,
                 S: Optional[Sequence] = None, Sbar: Optional[Sequence] = None):
        A = tuple(A)
        position = {x: i for i, x in enumerate(A)}
        f = [position.get(y, -1) for y in FiniteMap.ensure(A, f).values]
        if len(position) != len(A) or -1 in f:
            raise ValueError("A must hold distinct points and f must map A into A")
        psi = FiniteMap.ensure(A, psi).values
        psibar = FiniteMap.ensure(A, psibar).values
        if S is not None and set(S) != set(psi):
            raise NotSurjectiveError("psi does not cover S")
        if Sbar is None:
            Sbar = dict.fromkeys(psibar)
        elif set(Sbar) != set(psibar):
            raise NotSurjectiveError("psibar does not cover Sbar")
        fibers = FiberTable(psi)
        S = fibers.points if S is None else tuple(S)
        if len(S) != len(Sbar):
            raise HypothesisViolatedError("cardinality", "#S != #Sbar")
        self._build(A, f, gather(psibar, f), fibers, S, len(set(Sbar)),
                    lambda s: s, h)

    def _build(self, A, f, g, fibers, order, n_Sbar, label, h=None) -> None:
        """order: the fiber table's points in the order of S; n_Sbar: the
        number of points of Sbar; label(s): the point of S over which the
        table's point s lies.  A given h is a map on the table's points."""
        self.A, self._f, self._g, self._fibers = A, f, g, fibers
        self._order, self._n_Sbar, self._label = order, n_Sbar, label
        if h is None:
            r = fibers.first_varying(g)
            if r is not None:
                raise NotCommutingError(
                    "no induced map: psibar(f(.)) not constant on the fiber over "
                    f"{label(fibers.values[r])!r}")
            return
        h = dict(zip(order, FiniteMap.ensure(order, h).values))
        for x, s in enumerate(fibers.values):
            if h[s] != g[x]:
                raise NotCommutingError(f"psibar(f({A[x]!r})) != h(psi({A[x]!r}))")

    @property
    def S(self) -> tuple:
        return tuple(map(self._label, self._order))

    @property
    def fibers(self) -> dict:
        """psi^-1(s) for every s, in order of first appearance."""
        return {self._label(s): [self.A[x] for x in fiber]
                for s, fiber in self._fibers.groups().items()}


class FiberReport(NamedTuple):
    f_bijective: bool
    h_bijective: bool
    fiber_injective: bool
    fiber_witness: Optional[tuple] = None  # (s, x1, x2) collapsing inside a fiber

    @property
    def equivalence_holds(self) -> bool:
        return self.f_bijective == (self.h_bijective and self.fiber_injective)


def check_fiber_criterion(inst: AGWInstance) -> FiberReport:
    """Confirm: f bijective <=> h bijective and f injective on every fiber.

    g = psibar . f takes every value of h, and only those, so h is bijective
    exactly when g takes as many distinct values as S and Sbar have points;
    an injective f collides in no fiber, so the fibers are scanned only when
    f is not bijective."""
    f_bijective = len(set(inst._f)) == len(inst._f)
    found = None if f_bijective else _fiber_collision(inst._fibers, inst._f, inst._order)
    witness = found and (inst._label(found[0]), inst.A[found[1]], inst.A[found[2]])
    return FiberReport(
        f_bijective=f_bijective,
        h_bijective=len(set(inst._g)) == inst._n_Sbar == len(inst._fibers.points),
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
    """psibar(x + y) = psibar(x) + psibar(y), adding element codes in the field;
    a sum outside A violates it too.  An empty A has no pair to check."""
    if not A:
        return
    n, add = len(A), A[0].ctx._add
    codes, bar = [x.code for x in A], [y.code for y in psibar]
    position = {c: i for i, c in enumerate(codes)}
    if n <= _ADDITIVITY_EXHAUSTIVE_MAX:
        pairs = ((i, j) for i in range(n) for j in range(n))
    else:
        rng = random.Random(seed)
        pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(_ADDITIVITY_SAMPLES))
    for i, j in pairs:
        k = position.get(add(codes[i], codes[j]))
        if k is None:
            raise HypothesisViolatedError("additivity", f"{A[i]!r} + {A[j]!r} is not in A")
        if bar[k] != add(bar[i], bar[j]):
            raise HypothesisViolatedError("additivity", f"at ({A[i]!r}, {A[j]!r})")


def _commuting(A, psi, psibar, f, h) -> AGWInstance:
    """The square of f; a given h that does not commute violates 'commutes'."""
    try:
        return AGWInstance(A, psi, psibar, f, h)
    except NotCommutingError as exc:
        if h is None:
            raise
        raise HypothesisViolatedError("commutes", str(exc)) from None


class PerturbReport(NamedTuple):
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
    varies = FiberTable(psi.values).first_varying(v.values)
    if varies is not None:
        raise HypothesisViolatedError("fiber_constant",
                                      f"v varies on the fiber over {psi.values[varies]!r}")
    f = [a + b for a, b in zip(u.values, v.values)]
    _commuting(A, psi, psibar, f, h)
    perturbed, base = _bijective_onto(f, A), u.is_bijective_onto(A)
    mismatch = ("verdict_mismatch", perturbed, base) if perturbed != base else None
    return PerturbReport(perturbed, base, mismatch)


class ShiftReport(NamedTuple):
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
    """Lift a family instance onto its commuting square (see _wrap_codes).
    Families without a natural fiber map fall back to the identity square,
    for which the fiber criterion still applies (trivially: h is the map
    itself and all fibers are singletons).
    """
    return _wrap_codes(instance.ctx, *instance.square_codes())


def _square_tables(ctx, f: Sequence[int],
                   fiber: Optional[tuple[Sequence[int], int]]) -> tuple:
    """The fiber table, g = psibar . f and the fiber delta of the square of
    a value list f with its (psibar, fiber delta), or with None for the
    identity square.  The fiber table of psibar is built once per field and
    psibar table (the tables are the field's cached linear tables, and the
    fiber table holds its own, so the id key stays unique while the entry
    lives).  g is one gather: on fields of up to _GATHER_CHUNK elements
    through the code tuple of psibar's reader (FieldCtx.reader), whose ints
    are the field's own, and above that through psibar itself.
    """
    if fiber is None:
        key, psibar, delta = "identity", range(ctx.order), 0
    else:
        (psibar, delta), key = fiber, id(fiber[0])
    fibers = ctx.derived(("fibers", key), lambda: FiberTable(psibar))
    table = fibers.values if ctx.order > _GATHER_CHUNK else ctx.reader(fibers.values)[1]
    return fibers, gather(table, f), delta


def _wrap_codes(ctx, f: Sequence[int],
                fiber: Optional[tuple[Sequence[int], int]]) -> AGWInstance:
    """The commuting square of a value list f with its (psibar, fiber
    delta), or with None for the identity square (see _square_tables)."""
    fibers, g, delta = _square_tables(ctx, f, fiber)
    label = ctx._wrap if delta == 0 else (lambda s: ctx._wrap(ctx._add(s, delta)))
    inst = AGWInstance.__new__(AGWInstance)
    inst._build(ctx.elements(), f, g, fibers, fibers.points, len(fibers.points), label)
    return inst


def _square_holds(ctx, f: Sequence[int],
                  fiber: Optional[tuple[Sequence[int], int]]) -> bool:
    """Whether the square of f (as _wrap_codes wraps it) commutes and
    satisfies the fiber criterion: check_fiber_criterion(_wrap_codes(ctx,
    f, fiber)).equivalence_holds, False where the wrap raises
    NotCommutingError, decided from counts with no instance, report or
    witness.  An injective f collides in no fiber, so it holds exactly when
    h is bijective; a non-injective f holds when h is not bijective, and
    otherwise exactly when it collides in some fiber, that is when fewer
    than q^n (fiber, value) pairs are distinct."""
    fibers, g, _ = _square_tables(ctx, f, fiber)
    if gather(g, fibers.rep) != g:
        return False
    h_bijective = len(set(g)) == len(fibers.points)
    if len(set(f)) == len(f):
        return h_bijective
    return not h_bijective or len(set(zip(fibers.rep, f))) != len(f)
