"""Write the pinned reference outputs in reference/ from this checkout.

    python3 bench/make_reference.py

Runs every workload once at the reference seed and records each call's exit
code, its CSV rows (gzip-compressed, byte for byte) or its agw-check counts.
Every 'disagree' row becomes a pinned, expected row: read the list this
prints before committing the result.
"""

from __future__ import annotations

import csv
import gzip
import json
import sys
import tempfile
from pathlib import Path

from run import AGW_SUMMARY, REFERENCE, ROOT, read_lines, run_child, status_of
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    expected = {}
    for workload, calls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
            report = run_child(workload, REFERENCE_SEED, Path(tmp), False,
                               f"reference-{workload}", 600.0)
            for call, result in zip(calls, report["calls"]):
                entry = {"rc": result["rc"]}
                if call.writes_csv:
                    data = (Path(tmp) / f"{call.name}.csv").read_bytes()
                    entry["csv"] = f"{call.name}.csv.gz"
                    (REFERENCE / entry["csv"]).write_bytes(gzip.compress(data, mtime=0))
                    lines = read_lines(data)
                    column = next(csv.reader([lines[0]])).index("status")
                    entry["rows"] = len(lines) - 1
                    entry["pinned"] = [line for line in lines[1:]
                                       if status_of(line, column) == "disagree"]
                else:
                    match = AGW_SUMMARY.search(result["stdout"])
                    if match is None:
                        print(f"{call.name}: no agw-check summary in {result['stdout']!r}",
                              file=sys.stderr)
                        return 1
                    entry.update(zip(("checked", "ok", "skipped", "problems"),
                                     map(int, match.groups())))
                expected[call.name] = entry
                print(f"{call.name}: " + ", ".join(
                    f"{k}={v}" for k, v in entry.items() if k != "pinned"))
                for line in entry.get("pinned", []):
                    print(f"  pinned: {line}", end="")
    with open(REFERENCE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
