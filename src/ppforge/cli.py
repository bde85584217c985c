"""Command-line surface: field inspection, grid verification, census output
and the commuting-square audit.  `verify`, `census` and `agw-check` run
their grid through one loop into one report, checking each point by brute
force (an exhaustive check of its value list, with the witness of
`check_iff`'s scan for a disagreement) or by the fiber criterion of its
commuting square.

Exit codes: 0 when every checked instance agrees with brute force (for
`agw-check`, every square satisfies the fiber criterion), 1 when one does
not, 2 on usage or schema errors.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import io
import itertools
import json
import os
import sys
import time

from .agw import NotCommutingError, _square_holds, _wrap_codes, check_fiber_criterion
from .families import (
    DEFAULT_GRIDS,
    FAMILY_BUILDERS,
    PARAM_ORDER,
    FamilyInstance,
    SkippedInstance,
    _compile,
    _grid_points,
    _square_codes,
    describe_value,
)
from .gf import _GATHER_CHUNK, FieldError, field_spec_parts, parse_field_spec
from .oracle import (
    DEFAULT_CAP,
    FieldTooLargeError,
    IffRecord,
    cycle_type,
    format_cycle_type,
    scan_codes,
)

SCHEMA_VERSION = 1

# the cycle types a row writer keeps formatted, counted in cycles, so that its
# memory stays flat on a long grid however long each cycle type is
_CYCLE_TYPE_MEMO_CYCLES = 1 << 16
# field-info lists the base subfield's elements up to this many, and above
# it prints their count: on a prime field the base subfield is the field
_LISTED_SUBFIELD_MAX = 256


class SchemaError(Exception):
    """Malformed family spec document."""


class RunReport:
    """A checked grid: counts, the (instance, record) pair of every
    disagreement and every skipped grid point, in grid order."""

    def __init__(self, family_id: str, field_spec: str):
        self.family_id = family_id
        self.field_spec = field_spec
        self.agreements = 0
        self.disagreements: list = []
        self.skipped: list = []
        self.wall_time = 0.0

    @property
    def grid_size(self) -> int:
        return self.agreements + len(self.disagreements) + len(self.skipped)

    def add(self, item, record) -> None:
        """Fold one checked grid point in; record is None for a skipped one."""
        if record is None:
            self.skipped.append(item)
        elif record.agree:
            self.agreements += 1
        else:
            self.disagreements.append((item, record))

    def to_dict(self) -> dict:
        """The report as JSON data, its disagreements from check_iff records."""
        return {
            "schema_version": SCHEMA_VERSION,
            "family": self.family_id,
            "field": self.field_spec,
            "grid_size": self.grid_size,
            "agreements": self.agreements,
            "disagreements": [
                {"params": item.describe_params(),
                 "predicted": record.predicted,
                 "observed": record.observed,
                 "collision": None if record.verdict.collision is None
                 else [str(x) for x in record.verdict.collision],
                 "missed": None if record.verdict.missed is None else str(record.verdict.missed)}
                for item, record in self.disagreements],
            "skipped": [{"params": item.describe_params(), "reason": item.reason}
                        for item in self.skipped],
            "wall_time": self.wall_time,
        }


# one square's audit: agree when the fiber criterion holds, else the problem
# ("no_diagram" or "violated") and its detail
SquareRecord = collections.namedtuple("SquareRecord", "agree problem detail")


def _brute_force(family_id: str, ctx, params: dict, predicted: bool):
    """The cycle type of the point's value list, None for a non-bijection,
    with the IffRecord of a disagreement.  Each decision is exhaustive: a
    point predicted not to permute is first checked by counting its
    distinct values, so an agreeing one needs no walk; any other point is
    walked (oracle.cycle_type).  Only a disagreement is scanned as check_iff
    scans an instance's, for the witness its record carries: an agreeing
    point builds no Verdict."""
    values = _compile(family_id, ctx, params)
    # a value list holds the field's codes by construction, so fewer than q^n
    # distinct values is a repeat.  Above a gather chunk the value list is a
    # code table, whose set would raise the command's peak memory, so it is walked
    if predicted or ctx.order > _GATHER_CHUNK or len(set(values)) == ctx.order:
        lengths = cycle_type(values, ctx)
    else:
        lengths = None
    if (lengths is not None) == predicted:
        return lengths, None
    verdict = scan_codes(values, ctx)
    return lengths, IffRecord(family_id, predicted, verdict.bijective, verdict)


def _audit_square(family_id: str, ctx, params: dict, predicted: bool):
    """The fiber criterion on the point's commuting square, with the
    SquareRecord of a square without it.  The square is decided from its
    counts (agw._square_holds); only a square that fails is wrapped and
    reported (check_fiber_criterion), for its record and witness, so an
    agreeing square builds no AGWInstance or FiberReport."""
    f, fiber = _square_codes(family_id, ctx, params)
    if _square_holds(ctx, f, fiber):
        return None, None
    try:
        report = check_fiber_criterion(_wrap_codes(ctx, f, fiber))
    except NotCommutingError as exc:
        return None, SquareRecord(False, "no_diagram", str(exc))
    return report, None if report.equivalence_holds else SquareRecord(False, "violated", report)


def _load_spec(arg: str) -> dict:
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read spec file: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}")
    return _normalize_spec(doc)


def _normalize_spec(doc) -> dict:
    """A spec document checked, with the family's default grid for missing
    params."""
    if not isinstance(doc, dict):
        raise SchemaError("spec must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    # True and 1.0 equal 1 in Python, but only the JSON integer is version 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}")
    family = doc.get("family")
    if family not in FAMILY_BUILDERS:
        raise SchemaError(f"unknown or missing family {family!r}")
    if "field" not in doc:
        raise SchemaError("missing 'field'")
    if not isinstance(doc["field"], str):
        raise SchemaError(f"'field' must be a string, got {doc['field']!r}")
    params = doc.get("params", DEFAULT_GRIDS[family])
    if not isinstance(params, dict):
        raise SchemaError("'params' must be an object")
    return {"schema_version": SCHEMA_VERSION, "family": family,
            "field": doc["field"], "params": params}


def _resolve_cap(args) -> int:
    """The field-size cap: --cap, else PPFORGE_CAP (unset or empty means
    none), else DEFAULT_CAP.  Either setting must be a positive integer."""
    source, text = "--cap", getattr(args, "cap", None)
    if text is None:
        source, text = "PPFORGE_CAP", os.environ.get("PPFORGE_CAP") or None
    if text is None:
        return DEFAULT_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return cap


def _build_field(spec_text: str, cap: int):
    """Build the field a spec names, refusing it from the spec text alone,
    before any table is built, when its order p^(e*n) exceeds the cap."""
    p, e, n, _ = field_spec_parts(spec_text)
    d = e * n
    # p >= 2 and d >= cap.bit_length() already give p^d >= 2^d > cap
    if p >= 2 and (d >= cap.bit_length() or p ** d > cap):
        raise FieldTooLargeError(f"field order {p}^{d} exceeds cap {cap}")
    return parse_field_spec(spec_text)


def _run_grid(spec: dict, cap: int, seed: int, check, csv_path=None) -> RunReport:
    """Check every point of the grid (families._grid_points) with
    check(family_id, ctx, params, predicted), _brute_force or _audit_square,
    which returns what the point's CSV row shows (for _brute_force its
    cycle type, None for a non-bijection; for _audit_square, which writes
    no row, the report of a square that fails) and the record of a
    disagreement, None when the point agrees.  The report counts the
    agreements and keeps each disagreement as its FamilyInstance and record
    and each skip as its SkippedInstance: an agreeing point builds neither.
    With csv_path, a point's row (of a brute-force verdict) is written as
    soon as it is checked.  The cap is applied when the field is built, and
    the file is opened only once the field is built and the grid's
    parameters resolve."""
    start = time.perf_counter()
    family_id, ctx = spec["family"], _build_field(spec["field"], cap)
    report = RunReport(family_id=family_id, field_spec=spec["field"])
    points = _grid_points(family_id, ctx, spec["params"], seed)
    first = next(points, None)  # a malformed grid raises here, before any file is opened
    with (open(csv_path, "w", encoding="utf-8", newline="") if csv_path
          else contextlib.nullcontext()) as fh:
        write_row, write_skip = _row_writer(family_id, fh) if fh else (None, None)
        for params, predicted, reason in itertools.chain([] if first is None else [first],
                                                         points):
            if reason is not None:
                report.add(SkippedInstance(family_id, ctx, params, reason), None)
                if write_skip:
                    write_skip(params, reason)
                continue
            shown, record = check(family_id, ctx, params, predicted)
            if record is None:
                report.agreements += 1
            else:
                report.add(FamilyInstance(family_id, ctx, params, predicted), record)
            if write_row:
                write_row(params, predicted, shown)
    report.wall_time = time.perf_counter() - start
    return report


def _row_writer(family_id: str, out):
    """Write the CSV header to out; return the functions writing one row:
    write_row(params, predicted, cycle_type) and write_skip(params, reason),
    where cycle_type is the scan's, None for a non-bijection: an agreeing
    point's row needs no Verdict.

    Each row is one write of cells rendered once per grid.  A grid's rows
    share a few parameter objects, so each is rendered once, as its final
    cell, quoted by the csv module's own rules: the memo is keyed by id()
    and keeps the object, so no id is reused while the grid is written.  A
    row's parameter cells are read from the memo by one C-level map over
    the ids; only a row with an object not seen before renders it.  Cycle
    types are formatted once each while the memo has room."""
    names = PARAM_ORDER[family_id]
    buffer = io.StringIO()
    quoter = csv.writer(buffer, lineterminator="\n")

    def quote(text: str) -> str:
        if not text:  # the csv module quotes an empty field only when it is alone
            return ""
        buffer.seek(0)
        buffer.truncate()
        quoter.writerow((text,))
        return buffer.getvalue()[:-1]

    out.write(",".join(map(quote, names + ("predicted", "observed", "status", "cycle_type")))
              + "\n")
    cells: dict[int, str] = {}
    kept: list = []  # the objects whose ids key cells
    cycle_types: dict[tuple, str] = {}
    room = _CYCLE_TYPE_MEMO_CYCLES
    # the cells between the parameters and the cycle type, by (predicted, observed)
    verdicts = {(p, o): f",{'true' if p else 'false'},{'true' if o else 'false'},"
                        f"{'agree' if p == o else 'disagree'},"
                for p in (True, False) for o in (True, False)}

    def cell(value) -> str:
        text = cells.get(id(value))
        if text is None:
            kept.append(value)
            text = cells[id(value)] = quote(describe_value(value))
        return text

    def param_cells(params: dict) -> str:
        try:
            return ",".join(map(cells.__getitem__, map(id, map(params.__getitem__, names))))
        except KeyError:  # an object the memo does not hold yet
            return ",".join(map(cell, map(params.__getitem__, names)))

    def write_row(params: dict, predicted: bool, cycle_type) -> None:
        nonlocal room
        if cycle_type is None:
            text = ""
        else:
            text = cycle_types.get(cycle_type)
            if text is None:
                text = quote(format_cycle_type(cycle_type))
                if len(cycle_type) <= room:
                    room -= len(cycle_type)
                    cycle_types[cycle_type] = text
        out.write(param_cells(params) + verdicts[predicted, cycle_type is not None] + text + "\n")

    def write_skip(params: dict, reason: str) -> None:
        out.write(f"{param_cells(params)},,,{quote(f'skipped:{reason}')},\n")

    return write_row, write_skip


def _print_report(report: RunReport) -> None:
    print(f"family       {report.family_id}")
    print(f"field        {report.field_spec}")
    print(f"grid size    {report.grid_size}")
    print(f"agreements   {report.agreements}")
    print(f"disagreements {len(report.disagreements)}")
    print(f"skipped      {len(report.skipped)}")
    print(f"wall time    {report.wall_time:.2f}s")
    for item, record in report.disagreements:
        verdict = record.verdict
        witness = ""
        if verdict.collision is not None:
            witness = (f"; collision={'/'.join(map(str, verdict.collision))} "
                       f"missed={verdict.missed}")
        print(f"  DISAGREE predicted={record.predicted} observed={record.observed} "
              f"{item.describe_params()}{witness}")
    for reason, count in collections.Counter(item.reason for item in report.skipped).items():
        print(f"  skipped {count} x {reason}")


# ---------------------------------------------------------------------------
# subcommands


def do_field_info(args) -> int:
    ctx = _build_field(args.spec, _resolve_cap(args))
    print(f"field          {ctx.label}")
    print(f"p              {ctx.p}")
    print(f"e              {ctx.e}")
    print(f"n              {ctx.n}")
    print(f"q = p^e        {ctx.q}")
    print(f"order q^n      {ctx.order}")
    print(f"modulus        {ctx.modulus}")
    print(f"generator      {ctx.generator}")
    if ctx.p != 2:
        print(f"|D0|           {(ctx.order - 1) // 2}")
    else:
        print("|D0|           - (even characteristic)")
    if ctx.q <= _LISTED_SUBFIELD_MAX:
        print(f"base subfield  {' '.join(str(x) for x in ctx.subfield_elements())}")
    else:
        print(f"base subfield  {ctx.q} elements")
    return 0


def do_verify(args) -> int:
    spec = _load_spec(args.spec)
    report = _run_grid(spec, _resolve_cap(args), args.seed, _brute_force, args.csv)
    if args.json:
        doc = report.to_dict()
        doc["spec"] = spec
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_report(report)
    return 0 if not report.disagreements else 1


def do_census(args) -> int:
    doc = {"family": args.family, "field": args.field}
    if args.params:
        doc["params"] = json.loads(args.params)
        if not isinstance(doc["params"], dict):
            raise SchemaError("'--params' must be a JSON object")
    report = _run_grid(_normalize_spec(doc), _resolve_cap(args), args.seed, _brute_force,
                       args.output)
    print(f"wrote {report.grid_size} rows to {args.output} "
          f"({report.agreements} agree, {len(report.disagreements)} disagree, "
          f"{len(report.skipped)} skipped)")
    return 0 if not report.disagreements else 1


def do_agw_check(args) -> int:
    report = _run_grid(_load_spec(args.spec), _resolve_cap(args), args.seed, _audit_square)
    print(f"checked {report.grid_size} instances: {report.agreements} satisfy the fiber "
          f"criterion, {len(report.skipped)} skipped, {len(report.disagreements)} problems")
    for item, record in report.disagreements:
        print(f"  {record.problem}: {item.describe_params()} ({record.detail})")
    return 0 if not report.disagreements else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppforge",
        description="Construct permutation-polynomial families and verify their "
                    "predicted bijectivity conditions against brute force.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("field-info", help="describe a finite field")
    p_info.add_argument("spec", help="field spec, e.g. 3^1:2 or 2^2:3:mod=1,1,0,0,1,0,1")
    p_info.set_defaults(func=do_field_info)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", default=None,
                        help="field-size cap, a positive integer "
                             "(default 2^20, env PPFORGE_CAP)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for 'random_pp' grid entries")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a family grid against brute force")
    p_verify.add_argument("spec", help="family spec JSON (inline or a file path)")
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_verify.add_argument("--csv", metavar="PATH", help="write per-instance rows as CSV")
    p_verify.set_defaults(func=do_verify)

    p_census = sub.add_parser("census", parents=[common],
                              help="tabulate a family grid to CSV")
    p_census.add_argument("family", choices=sorted(FAMILY_BUILDERS))
    p_census.add_argument("field", help="field spec, e.g. 3^1:2")
    p_census.add_argument("-o", "--output", required=True, help="output CSV path")
    p_census.add_argument("--params", help="JSON object overriding the default grid")
    p_census.set_defaults(func=do_census)

    p_agw = sub.add_parser("agw-check", parents=[common],
                           help="audit a family grid through its commuting square")
    p_agw.add_argument("spec", help="family spec JSON (inline or a file path)")
    p_agw.set_defaults(func=do_agw_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (SchemaError, FieldError, FieldTooLargeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
