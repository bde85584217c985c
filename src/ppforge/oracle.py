"""Ground truth: exhaustive bijection testing of maps on a finite field.

A map is scanned as the list of its values on the codes 0, 1, ...,
q^n - 1: bijective exactly when the list holds q^n distinct codes.  One
walk along the map's orbits decides this and gives a bijection's cycle
type (:func:`cycle_type`).  The witness of a non-bijection is a second
scan, in the canonical element order, so the reported first collision and
missed value are reproducible bit for bit; :func:`scan_codes` gives both,
and a caller that needs only the decision stops after the walk.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, NamedTuple, Optional, Sequence

from .gf import CtxMismatchError, Elem, FieldCtx

DEFAULT_CAP = 1 << 20


class FieldTooLargeError(Exception):
    """Raised when a scan would exceed the configured field-size cap."""


class Verdict(NamedTuple):
    """Outcome of an exhaustive bijection scan (an immutable named tuple)."""

    bijective: bool
    collision: Optional[tuple[Elem, Elem]] = None
    missed: Optional[Elem] = None
    cycle_type: Optional[tuple[int, ...]] = None


def _check_cap(ctx: FieldCtx, cap: int) -> None:
    if ctx.order > cap:
        raise FieldTooLargeError(f"field order {ctx.order} exceeds cap {cap}")


def cycle_type(codes: Sequence[int], ctx: FieldCtx) -> Optional[tuple[int, ...]]:
    """The sorted cycle lengths of the map x -> codes[x] when it is a
    bijection, else None.

    One walk follows x, codes[x], codes[codes[x]], ... from every point not
    yet seen and marks the points it passes.  For a bijection every walk
    closes at its start, and the walks are the cycles.  A walk that meets a
    marked point before it closes proves a repeated value, and the walk
    stops there.  The marks are a list of booleans, whose subscripts CPython
    specializes (a ``bytearray``'s it does not), at 8 bytes per element
    while the walk runs.

    Codes outside [0, q^n) that the walk meets are refused with ValueError:
    a code of q^n or more raises IndexError as an index of the marks, and a
    negative one would index them from the end, so one C-level ``min`` pass
    refuses those first.
    """
    if len(codes) != ctx.order:
        raise ValueError(f"expected {ctx.order} values, got {len(codes)}")
    if min(codes) < 0:
        raise ValueError(f"values must be codes in [0, {ctx.order})")
    seen = [False] * ctx.order
    lengths = []
    try:
        for start, c in enumerate(codes):
            if seen[start]:
                continue
            # the start itself is left unmarked: a later walk that reaches it
            # marks it and steps on to a marked point of its closed cycle
            length = 1
            while c != start:
                if seen[c]:
                    return None
                seen[c] = True
                c = codes[c]
                length += 1
            lengths.append(length)
    except IndexError:
        raise ValueError(f"values must be codes in [0, {ctx.order})") from None
    lengths.sort()
    return tuple(lengths)


def scan_codes(codes: Sequence[int], ctx: FieldCtx) -> Verdict:
    """Verdict on the map x -> codes[x]: the cycle type of a bijection
    (:func:`cycle_type`), and for a non-bijection the witness of a second
    scan in canonical order (:func:`_first_collision`).

    Codes outside [0, q^n) are refused with ValueError.  Every value is
    used as an index, of the walk's marks or of the canonical scan's, so
    each such code is refused by one of the two scans.
    """
    lengths = cycle_type(codes, ctx)
    if lengths is not None:
        return Verdict(True, None, None, lengths)
    try:
        return _first_collision(codes, ctx)
    except IndexError:
        raise ValueError(f"values must be codes in [0, {ctx.order})") from None


def _first_collision(codes: Sequence[int], ctx: FieldCtx) -> Verdict:
    """The verdict on a map known not to be bijective: the collision is the
    first repeated value in canonical order together with its first
    preimage, and the missed value is the smallest code not hit."""
    hit = [False] * ctx.order
    for x, y in enumerate(codes):
        if hit[y]:
            break
        hit[y] = True
    else:
        raise AssertionError("no repeated value in a map found not to be bijective")
    collision = (ctx._wrap(codes.index(y)), ctx._wrap(x))
    for y in itertools.islice(codes, x + 1, None):
        hit[y] = True
    return Verdict(False, collision, ctx._wrap(hit.index(False)))


def check_bijective(evaluator: Callable[[Elem], Elem], ctx: FieldCtx,
                    cap: int = DEFAULT_CAP) -> Verdict:
    """Scan every element once; report the first collision in canonical order.

    For bijections the cycle type (sorted multiset of cycle lengths) is
    included in the verdict.  Every value must be an element of ctx.
    """
    _check_cap(ctx, cap)
    codes = [y.code for y in map(evaluator, ctx.elements())
             if isinstance(y, Elem) and y.ctx is ctx]
    if len(codes) != ctx.order:
        raise CtxMismatchError(f"the map's values must be elements of {ctx.label}")
    return scan_codes(codes, ctx)


def format_cycle_type(cycle_type: tuple[int, ...]) -> str:
    """Compact census form, e.g. "1^3 2^1" for one transposition and 3 fixed points."""
    out = []
    i = 0
    while i < len(cycle_type):
        j = bisect.bisect_right(cycle_type, cycle_type[i], i)  # the type is sorted
        out.append(f"{cycle_type[i]}^{j - i}")
        i = j
    return " ".join(out)


class IffRecord(NamedTuple):
    """Agreement between a family's predicted verdict and the scan (an
    immutable named tuple)."""

    family_id: str
    predicted: bool
    observed: bool
    verdict: Verdict

    @property
    def agree(self) -> bool:
        return self.predicted == self.observed


def check_iff(instance, cap: int = DEFAULT_CAP) -> IffRecord:
    """Compare a family instance's predicted verdict with brute force: one
    scan over the instance's value list (its code map built by whole-table
    passes, see :meth:`FamilyInstance.code_values`), without calling its
    evaluator."""
    ctx = instance.ctx
    _check_cap(ctx, cap)
    verdict = scan_codes(instance.code_values(), ctx)
    # positional: a keyword call costs a per-point argument match
    return IffRecord(instance.family_id, instance.predicted_pp, verdict.bijective, verdict)
