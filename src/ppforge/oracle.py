"""Ground truth: exhaustive bijection testing of maps on a finite field.

A map is scanned as the list of its values on the codes 0, 1, ...,
q^n - 1: bijective exactly when the list holds q^n distinct codes.  Scans
follow the canonical element order, so the reported first collision and
the cycle decomposition are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .gf import Elem, FieldCtx

DEFAULT_CAP = 1 << 20


class FieldTooLargeError(Exception):
    """Raised when a scan would exceed the configured field-size cap."""


class NotBijectiveError(Exception):
    """Raised when a cycle decomposition is requested for a non-bijection."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive bijection scan."""

    bijective: bool
    collision: Optional[tuple[Elem, Elem]] = None
    missed: Optional[Elem] = None
    cycle_type: Optional[tuple[int, ...]] = None


def _check_cap(ctx: FieldCtx, cap: int) -> None:
    if ctx.order > cap:
        raise FieldTooLargeError(f"field order {ctx.order} exceeds cap {cap}")


def scan_codes(codes: Sequence[int], ctx: FieldCtx) -> Verdict:
    """Verdict on the map x -> codes[x], scanned in canonical order.

    The collision is the first repeated value together with its first
    preimage; the missed value is the smallest code not hit.  For a
    bijection the cycle type is included.
    """
    if len(codes) != ctx.order:
        raise ValueError(f"expected {ctx.order} values, got {len(codes)}")
    if min(codes) < 0 or max(codes) >= ctx.order:
        raise ValueError(f"values must be codes in [0, {ctx.order})")
    # no len(set(codes)) fast path: a set of 2^20 codes takes tens of MB, this 1 MB
    hit = bytearray(ctx.order)
    for x, y in enumerate(codes):
        if hit[y]:
            break
        hit[y] = 1
    else:
        return Verdict(bijective=True, cycle_type=_cycles_from_table(codes))
    collision = (ctx._wrap(codes.index(y)), ctx._wrap(x))
    for y in itertools.islice(codes, x + 1, None):
        hit[y] = 1
    return Verdict(bijective=False, collision=collision, missed=ctx._wrap(hit.index(0)))


def check_bijective(evaluator: Callable[[Elem], Elem], ctx: FieldCtx,
                    cap: int = DEFAULT_CAP) -> Verdict:
    """Scan every element once; report the first collision in canonical order.

    For bijections the cycle type (sorted multiset of cycle lengths) is
    included in the verdict.
    """
    _check_cap(ctx, cap)
    return scan_codes([evaluator(x).code for x in ctx.iter_elements()], ctx)


def _cycles_from_table(perm: Sequence[int]) -> tuple[int, ...]:
    # a permutation and its inverse have the same cycle lengths
    seen = bytearray(len(perm))
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        c = start
        while not seen[c]:
            seen[c] = 1
            c = perm[c]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def cycle_structure(evaluator: Callable[[Elem], Elem], ctx: FieldCtx,
                    cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """Cycle lengths of a bijective map, ascending."""
    verdict = check_bijective(evaluator, ctx, cap=cap)
    if not verdict.bijective:
        raise NotBijectiveError(f"map is not bijective: collision {verdict.collision}")
    return verdict.cycle_type


def format_cycle_type(cycle_type: tuple[int, ...]) -> str:
    """Compact census form, e.g. "1^3 2^1" for one transposition and 3 fixed points."""
    out = []
    i = 0
    while i < len(cycle_type):
        j = i
        while j < len(cycle_type) and cycle_type[j] == cycle_type[i]:
            j += 1
        out.append(f"{cycle_type[i]}^{j - i}")
        i = j
    return " ".join(out)


@dataclass(frozen=True)
class IffRecord:
    """Agreement between a family's predicted verdict and the scan."""

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
    return IffRecord(
        family_id=instance.family_id,
        predicted=instance.predicted_pp,
        observed=verdict.bijective,
        verdict=verdict,
    )
