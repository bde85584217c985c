"""Per-layer tracing: spans and counters around ppforge's public calls.

The benchmark's own wrappers record everything; ppforge is not edited. A
wrapper is installed by rebinding the public name everywhere ppforge holds
it (module globals and class attributes), so code that imported the name
directly calls the wrapper too. A name that no longer exists is recorded as
missing, and the metrics that depend on it are reported as absent.

A span is ``[name, start, end, parent, eval_s, error]``: ``parent`` indexes
the enclosing span (-1 at top level), ``eval_s`` is the time spent inside
family evaluators while the span was open, ``error`` the exception type
that ended it, if any. Per-element calls (family evaluators, ``Poly.eval``)
are too hot for spans: they are counted, and evaluators are also timed.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

_END = object()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.eval_s = 0.0
        self.missing: dict[str, str] = {}   # wrapped path -> reason
        self.results: Counter = Counter()   # outcomes seen by on-result hooks

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.eval_s, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                rec[4] = self.eval_s - rec[4]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed_evaluator(self, fn):
        counts = self.counts

        def evaluator(x):
            start = perf_counter()
            try:
                return fn(x)
            finally:
                self.eval_s += perf_counter() - start
                counts["eval"] += 1

        return evaluator

    def grid(self, fn, skipped_type):
        """Wrap instantiate_grid: one span per item drawn from its iterator;
        each instance's evaluator is replaced by a timed one."""

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            draw = self.span("families.grid", lambda: next(it, _END))
            while True:
                item = draw()
                if item is _END:
                    return
                if skipped_type is not None and isinstance(item, skipped_type):
                    self.counts["families.skipped"] += 1
                else:
                    self.counts["families.instances"] += 1
                    if dataclasses.is_dataclass(item) and hasattr(item, "evaluator"):
                        item = dataclasses.replace(
                            item, evaluator=self.timed_evaluator(item.evaluator))
                    else:
                        self.missing["evaluator"] = "grid items carry no evaluator field"
                yield item

        return wrapper

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, eval_s, error) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "eval_s": eval_s, "error": error}) + "\n")


# ---------------------------------------------------------------------------
# installation


def _resolve(path: str):
    """'pkg.module:Attr.attr' -> (owner, attribute name, object)."""
    module_name, _, dotted = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _rebind(original, replacement) -> None:
    """Replace every reference ppforge's modules and classes hold to original."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ppforge" or mod_name.startswith("ppforge.")):
            continue
        for holder in [module] + [v for v in vars(module).values()
                                  if isinstance(v, type) and v.__module__ == mod_name]:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)


def _skipped_type():
    try:
        return _resolve("ppforge.families:SkippedInstance")[2]
    except (ImportError, AttributeError):
        return None


# wrapped path -> how to wrap it
WRAPS = {
    "ppforge.gf:first_irreducible_coeffs": lambda t, fn: t.span("gf.modulus_search", fn),
    "ppforge.gf:make_field": lambda t, fn: t.span("gf.make_field", fn),
    "ppforge.gf:FieldCtx.__init__": lambda t, fn: t.counted("gf.fields_built", fn),
    "ppforge.gf:FieldCtx.frobenius_eigenspace": lambda t, fn: t.span("gf.eigenspace", fn),
    "ppforge.families:instantiate_grid": lambda t, fn: t.grid(fn, _skipped_type()),
    "ppforge.families:build_g": lambda t, fn: t.span("families.build_g", fn),
    "ppforge.linearized:is_permutation":
        lambda t, fn: t.span("linearized.is_permutation", fn),
    "ppforge.poly:Poly.eval": lambda t, fn: t.counted("poly.eval", fn),
    "ppforge.oracle:check_iff": lambda t, fn: t.span(
        "oracle.check_iff", fn,
        lambda r: t.results.update([f"oracle.{getattr(r, 'observed', None)}"])),
    "ppforge.agw:wrap_family_instance": lambda t, fn: t.span("agw.wrap", fn),
    "ppforge.agw:check_fiber_criterion": lambda t, fn: t.span(
        "agw.criterion", fn,
        lambda r: t.results.update([f"agw.{getattr(r, 'equivalence_holds', None)}"])),
    "ppforge.cli:main": lambda t, fn: t.span("cli.main", fn),
}

# per-layer metric -> (unit, wrapped paths it needs)
METRICS = {
    "gf.modulus_search_s": ("s", ["ppforge.gf:first_irreducible_coeffs"]),
    "gf.make_field_s": ("s", ["ppforge.gf:make_field"]),
    "gf.fields_built": ("count", ["ppforge.gf:FieldCtx.__init__"]),
    "gf.eigenspace_s": ("s", ["ppforge.gf:FieldCtx.frobenius_eigenspace"]),
    "gf.eigenspace_calls": ("count", ["ppforge.gf:FieldCtx.frobenius_eigenspace"]),
    "families.grid_s": ("s", ["ppforge.families:instantiate_grid"]),
    "families.instances": ("count", ["ppforge.families:instantiate_grid"]),
    "families.skipped": ("count", ["ppforge.families:instantiate_grid",
                                   "ppforge.families:SkippedInstance"]),
    "families.build_g_s": ("s", ["ppforge.families:build_g"]),
    "families.build_g_calls": ("count", ["ppforge.families:build_g"]),
    "linearized.is_permutation_s": ("s", ["ppforge.linearized:is_permutation"]),
    "linearized.is_permutation_calls": ("count", ["ppforge.linearized:is_permutation"]),
    "poly.eval_calls": ("count", ["ppforge.poly:Poly.eval"]),
    "eval.calls": ("count", ["ppforge.families:instantiate_grid", "evaluator"]),
    "eval.us_per_call": ("us", ["ppforge.families:instantiate_grid", "evaluator"]),
    "oracle.check_iff_s": ("s", ["ppforge.oracle:check_iff"]),
    "oracle.check_iff_calls": ("count", ["ppforge.oracle:check_iff"]),
    "oracle.scan_self_s": ("s", ["ppforge.oracle:check_iff",
                                 "ppforge.families:instantiate_grid", "evaluator"]),
    "oracle.instance_ms_p50": ("ms", ["ppforge.oracle:check_iff"]),
    "oracle.instance_ms_p99": ("ms", ["ppforge.oracle:check_iff"]),
    "oracle.bijective_share": ("ratio", ["ppforge.oracle:check_iff"]),
    "agw.wrap_s": ("s", ["ppforge.agw:wrap_family_instance"]),
    "agw.criterion_s": ("s", ["ppforge.agw:check_fiber_criterion"]),
    "agw.squares": ("count", ["ppforge.agw:wrap_family_instance"]),
    "agw.problems": ("count", ["ppforge.agw:wrap_family_instance",
                               "ppforge.agw:check_fiber_criterion"]),
    "cli.self_s": ("s", ["ppforge.cli:main"]),
}


def install(tracer: Tracer) -> None:
    """Wrap every name in WRAPS that exists; record the others as missing."""
    if _skipped_type() is None:
        tracer.missing["ppforge.families:SkippedInstance"] = "not found"
    for path, make in WRAPS.items():
        try:
            original = _resolve(path)[2]
        except (ImportError, AttributeError) as exc:
            tracer.missing[path] = f"not found: {exc}"
            continue
        _rebind(original, make(tracer, original))


# ---------------------------------------------------------------------------
# metrics


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _self_seconds(spans: list[list]) -> list[float]:
    """Each span's duration minus its child spans and minus the evaluator
    time spent directly inside it (which belongs to the "eval" layer)."""
    own = [rec[2] - rec[1] - rec[4] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1] - rec[4]
    return own


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric, as {"value", "unit"}; a metric whose wrapped
    name is missing has value None and an "absent" reason instead."""
    spans = tracer.spans
    own = _self_seconds(spans)
    by_name: dict[str, list] = defaultdict(list)
    for rec in spans:
        by_name[rec[0]].append(rec)

    def total(name):
        return sum(r[2] - r[1] for r in by_name[name])

    def self_total(name):
        return sum(own[i] for i, r in enumerate(spans) if r[0] == name)

    counts, results = tracer.counts, tracer.results
    check_ms = [(r[2] - r[1]) * 1e3 for r in by_name["oracle.check_iff"]]
    checks = len(check_ms)
    wraps = by_name["agw.wrap"]
    values = {
        "gf.modulus_search_s": total("gf.modulus_search"),
        "gf.make_field_s": total("gf.make_field"),
        "gf.fields_built": counts["gf.fields_built"],
        "gf.eigenspace_s": total("gf.eigenspace"),
        "gf.eigenspace_calls": len(by_name["gf.eigenspace"]),
        "families.grid_s": total("families.grid"),
        "families.instances": counts["families.instances"],
        "families.skipped": counts["families.skipped"],
        "families.build_g_s": total("families.build_g"),
        "families.build_g_calls": len(by_name["families.build_g"]),
        "linearized.is_permutation_s": total("linearized.is_permutation"),
        "linearized.is_permutation_calls": len(by_name["linearized.is_permutation"]),
        "poly.eval_calls": counts["poly.eval"],
        "eval.calls": counts["eval"],
        "eval.us_per_call": tracer.eval_s / counts["eval"] * 1e6 if counts["eval"] else 0.0,
        "oracle.check_iff_s": total("oracle.check_iff"),
        "oracle.check_iff_calls": checks,
        "oracle.scan_self_s": self_total("oracle.check_iff"),
        "oracle.instance_ms_p50": _quantile(check_ms, 0.50),
        "oracle.instance_ms_p99": _quantile(check_ms, 0.99),
        "oracle.bijective_share": results["oracle.True"] / checks if checks else 0.0,
        "agw.wrap_s": total("agw.wrap"),
        "agw.criterion_s": total("agw.criterion"),
        "agw.squares": sum(1 for r in wraps if r[5] is None),
        "agw.problems": sum(1 for r in wraps if r[5] is not None) + results["agw.False"],
        "cli.self_s": self_total("cli.main"),
    }
    out = {}
    for name, (unit, needs) in METRICS.items():
        gone = [tracer.missing[path] for path in needs if path in tracer.missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "absent": "; ".join(gone)}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out


def self_seconds_by_layer(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer, the span name's prefix."""
    out: dict[str, float] = defaultdict(float)
    for rec, own in zip(tracer.spans, _self_seconds(tracer.spans)):
        out[rec[0].split(".")[0]] += own
    out["eval"] = tracer.eval_s
    return dict(out)


def median_metrics(samples: list[dict[str, dict]]) -> dict[str, dict]:
    """Per-metric median over traced processes; absent stays absent."""
    out = {}
    for name in samples[0]:
        entries = [s[name] for s in samples]
        if any(e["value"] is None for e in entries):
            out[name] = next(e for e in entries if e["value"] is None)
        else:
            out[name] = {"value": statistics.median(e["value"] for e in entries),
                         "unit": entries[0]["unit"]}
    return out
