"""The Frobenius automorphism as a second witness for census rows.

sigma(x) = x^p is an automorphism of every field and conjugates each family:
sigma . f . sigma^-1 is the same family with every parameter element
replaced by its sigma-image (the maps L used here have coefficients in F_p,
which sigma fixes).  Conjugation keeps bijectivity and the cycle type, and
every family's condition is invariant under sigma, so a row and the row of
its parameters' sigma-image agree on predicted, observed and cycle type.
Neither side reads a pinned byte: a cache that hands one grid point the
table of another breaks the agreement.
"""

import csv
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ppforge import families as fam
from ppforge import gf
from ppforge.cli import main


def census_rows(tmp_path, family, field, params=None) -> list[dict]:
    out_csv = tmp_path / "census.csv"
    args = ["census", family, field, "-o", str(out_csv)]
    if params is not None:
        args += ["--params", json.dumps(params)]
    assert main(args) == 0
    with open(out_csv, newline="") as fh:
        return list(csv.DictReader(fh))


def sigma_pairs(family, ctx, rows) -> int:
    """Check every row against the row of its sigma-image; the pairs checked."""
    names = fam.PARAM_ORDER[family]
    elems = [name for name in names if fam._PARAM_TYPES[name] == "elem"]

    def sigma(cell: str) -> str:
        return str(ctx.from_coords([int(c) for c in cell.split(",")]) ** ctx.p)

    def verdict(row):
        return row["predicted"], row["observed"], row["status"], row["cycle_type"]

    by_params = {tuple(row[name] for name in names): verdict(row) for row in rows}
    for row in rows:
        image = dict(row, **{name: sigma(row[name]) for name in elems})
        assert by_params[tuple(image[name] for name in names)] == verdict(row), (row, image)
    return len(rows)


@pytest.mark.parametrize("family, field, pairs", [
    ("half_power", "5^1:2", 14400),
    ("alpha_beta", "3^1:4", 2916),
    ("n4k", "2^1:8", 512),
])
def test_default_grid_rows_agree_with_their_frobenius_images(family, field, pairs, tmp_path):
    ctx = gf.parse_field_spec(field)
    assert sigma_pairs(family, ctx, census_rows(tmp_path, family, field)) == pairs


MAPS = ["identity", "frob:1", "trace"]


@pytest.mark.parametrize("family, field", [("alpha_beta", "3^1:4"), ("additive_g", "3^1:4"),
                                           ("half_power", "5^1:2")])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_random_grid_rows_agree_with_their_frobenius_images(family, field, data, tmp_path,
                                                            cold_caches):
    # each element parameter takes a few elements of its default token's set,
    # closed under sigma so that every image row is in the grid; the field's
    # cache starts cold under a budget of a few tables or the default one
    ctx = cold_caches(gf.parse_field_spec(field))
    params = dict(fam.DEFAULT_GRIDS[family])
    for name in fam.PARAM_ORDER[family]:
        if fam._PARAM_TYPES[name] == "elem":
            pool = fam._resolve_elem(ctx, params[name], family, name)
            drawn = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2), label=name)
            params[name] = sorted({(x ** ctx.p ** i).code for x in drawn for i in range(ctx.dim)})
    if "L" in params:
        params["L"] = data.draw(st.lists(st.sampled_from(MAPS), min_size=1, unique=True),
                                label="L")
    budget = data.draw(st.sampled_from([2 * ctx.order, 5 * ctx.order, gf._TABLE_CODES]),
                       label="budget")
    with mock.patch.object(gf, "_TABLE_CODES", budget):
        rows = census_rows(tmp_path, family, field, params)
    assert sigma_pairs(family, ctx, rows) == len(rows) > 0
