"""Command-line surface: field inspection, grid verification, census output.

Exit codes: 0 when every checked instance agrees with brute force, 1 when
a disagreement is found, 2 on usage or schema errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .agw import NotCommutingError, check_fiber_criterion, wrap_family_instance
from .families import (
    DEFAULT_GRIDS,
    FAMILY_BUILDERS,
    PARAM_ORDER,
    SkippedInstance,
    describe_value,
    instantiate_grid,
)
from .gf import FieldError, field_spec_parts, parse_field_spec
from .oracle import DEFAULT_CAP, FieldTooLargeError, check_iff, format_cycle_type

SCHEMA_VERSION = 1

# the cycle types a row writer keeps formatted, counted in cycles, so that its
# memory stays flat on a long grid however long each cycle type is
_CYCLE_TYPE_MEMO_CYCLES = 1 << 16


class SchemaError(Exception):
    """Malformed family spec document."""


@dataclass
class RunReport:
    family_id: str
    field_spec: str
    grid_size: int = 0
    agreements: int = 0
    disagreements: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, item, record) -> None:
        """Fold one checked grid point in; record is None for a skipped one."""
        self.grid_size += 1
        if record is None:
            self.skipped.append({"params": item.describe_params(), "reason": item.reason})
        elif record.agree:
            self.agreements += 1
        else:
            verdict = record.verdict
            self.disagreements.append(
                {"params": item.describe_params(),
                 "predicted": record.predicted,
                 "observed": record.observed,
                 "collision": None if verdict.collision is None
                 else [str(x) for x in verdict.collision],
                 "missed": None if verdict.missed is None else str(verdict.missed)})

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "family": self.family_id,
            "field": self.field_spec,
            "grid_size": self.grid_size,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "skipped": self.skipped,
            "wall_time": self.wall_time,
        }


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
    if not isinstance(doc, dict):
        raise SchemaError("spec must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}")
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


def _run_grid(spec: dict, cap: int, seed: int, csv_path=None) -> RunReport:
    """Check every grid point, folding each into the report and, with
    csv_path, writing its row as soon as it is checked.  The file is opened
    only once the field is built and the grid's parameters resolve."""
    start = time.perf_counter()
    ctx = _build_field(spec["field"], cap)
    report = RunReport(family_id=spec["family"], field_spec=spec["field"])
    items = instantiate_grid(spec["family"], [ctx], spec["params"], seed=seed)
    first = next(items, None)  # a malformed grid raises here, before any file is opened
    with (open(csv_path, "w", encoding="utf-8", newline="") if csv_path
          else contextlib.nullcontext()) as fh:
        write_row = _row_writer(spec["family"], fh) if fh else None
        for item in itertools.chain([] if first is None else [first], items):
            record = None if isinstance(item, SkippedInstance) else check_iff(item, cap=cap)
            report.add(item, record)
            if write_row:
                write_row(item, record)
    report.wall_time = time.perf_counter() - start
    return report


def _row_writer(family_id: str, out):
    """Write the CSV header to out; return the function writing one row.

    Each row is one write of cells rendered once per grid.  A grid's rows
    share a few parameter objects, so each is rendered once, as its final
    cell, quoted by the csv module's own rules: the cache is keyed by id()
    and keeps the object, so no id is reused while the grid is written.
    Cycle types are formatted once each while the memo has room."""
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
    cells: dict[int, tuple] = {}
    cycle_types: dict[tuple, str] = {}
    room = _CYCLE_TYPE_MEMO_CYCLES
    # the cells between the parameters and the cycle type, by (predicted, observed)
    verdicts = {(p, o): f",{'true' if p else 'false'},{'true' if o else 'false'},"
                        f"{'agree' if p == o else 'disagree'},"
                for p in (True, False) for o in (True, False)}

    def cell(value) -> str:
        entry = cells.get(id(value))
        if entry is None:
            entry = cells[id(value)] = (value, quote(describe_value(value)))
        return entry[1]

    def write_row(item, record) -> None:
        nonlocal room
        params = item.params
        row = ",".join([cell(params[name]) for name in names])
        if record is None:
            out.write(f"{row},,,{quote(f'skipped:{item.reason}')},\n")
            return
        cycle_type = record.verdict.cycle_type
        if cycle_type is None:
            text = ""
        else:
            text = cycle_types.get(cycle_type)
            if text is None:
                text = quote(format_cycle_type(cycle_type))
                if len(cycle_type) <= room:
                    room -= len(cycle_type)
                    cycle_types[cycle_type] = text
        out.write(row + verdicts[record.predicted, record.observed] + text + "\n")

    return write_row


def _print_report(report: RunReport) -> None:
    print(f"family       {report.family_id}")
    print(f"field        {report.field_spec}")
    print(f"grid size    {report.grid_size}")
    print(f"agreements   {report.agreements}")
    print(f"disagreements {len(report.disagreements)}")
    print(f"skipped      {len(report.skipped)}")
    print(f"wall time    {report.wall_time:.2f}s")
    for dis in report.disagreements:
        witness = ""
        if dis["collision"]:
            witness = f"; collision={'/'.join(dis['collision'])} missed={dis['missed']}"
        print(f"  DISAGREE predicted={dis['predicted']} observed={dis['observed']} "
              f"{dis['params']}{witness}")
    reasons: dict[str, int] = {}
    for sk in report.skipped:
        reasons[sk["reason"]] = reasons.get(sk["reason"], 0) + 1
    for reason, count in reasons.items():
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
    print(f"base subfield  {' '.join(str(x) for x in ctx.subfield_elements())}")
    return 0


def do_verify(args) -> int:
    spec = _load_spec(args.spec)
    report = _run_grid(spec, _resolve_cap(args), args.seed, args.csv)
    if args.json:
        doc = report.to_dict()
        doc["spec"] = spec
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_report(report)
    return 0 if not report.disagreements else 1


def do_census(args) -> int:
    spec = {"schema_version": SCHEMA_VERSION, "family": args.family,
            "field": args.field, "params": DEFAULT_GRIDS[args.family]}
    if args.params:
        loaded = json.loads(args.params)
        if not isinstance(loaded, dict):
            raise SchemaError("'--params' must be a JSON object")
        spec["params"] = loaded
    report = _run_grid(spec, _resolve_cap(args), args.seed, args.output)
    print(f"wrote {report.grid_size} rows to {args.output} "
          f"({report.agreements} agree, {len(report.disagreements)} disagree, "
          f"{len(report.skipped)} skipped)")
    return 0 if not report.disagreements else 1


def do_agw_check(args) -> int:
    spec = _load_spec(args.spec)
    cap = _resolve_cap(args)
    ctx = _build_field(spec["field"], cap)
    checked = ok = skipped = 0
    broken = []
    for item in instantiate_grid(spec["family"], [ctx], spec["params"], seed=args.seed):
        checked += 1
        if isinstance(item, SkippedInstance):
            skipped += 1
            continue
        try:
            report = check_fiber_criterion(wrap_family_instance(item))
        except NotCommutingError as exc:
            broken.append((item, "no_diagram", str(exc)))
            continue
        if report.equivalence_holds:
            ok += 1
        else:
            broken.append((item, "violated", report))
    print(f"checked {checked} instances: {ok} satisfy the fiber criterion, "
          f"{skipped} skipped, {len(broken)} problems")
    for item, status, info in broken:
        print(f"  {status}: {item.describe_params()} ({info})")
    return 0 if not broken else 1


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
