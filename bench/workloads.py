"""The benchmark's workloads: the ppforge CLI calls each one makes.

Every call runs in-process through ``ppforge.cli.main`` with no ``--threads``
and no ``--cap``. ``{csv}`` in an argv is replaced by the path the call
writes its per-instance rows to; calls without it are ``agw-check`` audits,
which print counts only.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

# The seed the reference rows were written at; it is the CLI's default.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Call:
    name: str                # key into reference/expected.json and the reference CSV stem
    argv: tuple[str, ...]
    field: str               # the field spec the call names
    seeded: bool = False     # rows depend on --seed (a 'random_pp' grid entry)

    @property
    def writes_csv(self) -> bool:
        return "{csv}" in self.argv


def _spec(family: str, field: str, params: dict | None = None) -> str:
    doc = {"family": family, "field": field}
    if params is not None:
        doc["params"] = params
    return json.dumps(doc, sort_keys=True)


def _name(command: str, family: str, field: str) -> str:
    return f"{command}-{family}-{field.replace('^', '_').replace(':', '_')}"


def _census(family: str, field: str) -> Call:
    return Call(_name("census", family, field),
                ("census", family, field, "-o", "{csv}"), field)


def _verify(family: str, field: str, params: dict | None = None,
            seeded: bool = False) -> Call:
    return Call(_name("verify", family, field),
                ("verify", _spec(family, field, params), "--csv", "{csv}"),
                field, seeded)


def _agw(family: str, field: str) -> Call:
    return Call(_name("agw", family, field), ("agw-check", _spec(family, field)), field)


WORKLOADS: dict[str, tuple[Call, ...]] = {
    # 17,828 grid points, about 0.73 M evaluations on orders 25 to 256. No
    # recipes and almost no field set-up: per-instance overhead (constructors,
    # oracle bookkeeping, cycle types, CSV rows) dominates.
    "census_small": (
        _census("half_power", "5^1:2"),
        _census("alpha_beta", "3^1:4"),
        _census("n4k", "2^1:8"),
    ),
    # 65 instances on orders 729 to 6561. Odd p above the 512-element add
    # table takes the slow add path; build_g scans the field per grid point;
    # the 3^8 trace table is built lazily; set-up is the modulus search for
    # 2^12 and 3^8. The q6 grid holds the 3 pinned 'plus' refutations.
    "verify_large": (
        _verify("even_t", "2^1:12",
                {"t": [0, 2], "delta": "base",
                 "L": ["identity", "frob:1", "trace", "random_pp"]},
                seeded=True),
        _verify("q6", "3^1:6"),
        _verify("anti_g", "3^1:6",
                {"g": [{"kind": "anti_alternating", "h": {"mono": 1}}],
                 "delta": "base", "beta": "sign_kernel",
                 "L": ["identity", "frob:1", "trace"]}),
        _verify("n4k", "3^1:8",
                {"variant": ["plain", "qtwist"], "delta": [0],
                 "a": "base_nonzero"}),
    ),
    # 1,646 commuting squares. The same evaluators as census_small (the n4k
    # 2^1:8 grid is identical) but audited through the square, so the oracle
    # is bypassed and FiniteMap and fiber work dominates.
    "agw_audit": (
        _agw("n4k", "2^1:8"),
        _agw("additive_g", "3^1:4"),
        _agw("trace_gamma", "3^1:4"),
    ),
}


def fields(calls: tuple[Call, ...]) -> tuple[str, ...]:
    """Fields a workload builds cold during set-up, in first-use order."""
    return tuple(dict.fromkeys(call.field for call in calls))


def field_order(spec: str) -> int:
    """Order p^(e*n) of a "p^e:n" field spec."""
    match = re.match(r"(\d+)\^(\d+):(\d+)", spec)
    if match is None:
        raise ValueError(f"not a field spec: {spec!r}")
    p, e, n = map(int, match.groups())
    return p ** (e * n)
