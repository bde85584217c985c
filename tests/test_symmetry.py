"""The Frobenius automorphism as a second witness for census rows.

sigma(x) = x^p is an automorphism of every field and conjugates each family:
sigma . f . sigma^-1 is the same family with every parameter element
replaced by its sigma-image (the maps L used here have coefficients in F_p,
which sigma fixes).  Conjugation keeps bijectivity and the cycle type, and
every family's condition is invariant under sigma, so a row and the row of
its parameters' sigma-image agree on predicted, observed and cycle type.
Neither side reads a pinned byte: a cache that hands one grid point the
table of another breaks the agreement.

A second relation holds within a row's own family: translating x by e moves
delta along the first inner table psi, so the observed verdict is constant
on each coset delta + Im(psi) (see coset_classes).
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


def census_rows(tmp_path, family, field, params=None, code=0) -> list[dict]:
    """The census rows of a grid whose run exits with code."""
    out_csv = tmp_path / "census.csv"
    args = ["census", family, field, "-o", str(out_csv)]
    if params is not None:
        args += ["--params", json.dumps(params)]
    assert main(args) == code
    with open(out_csv, newline="") as fh:
        return list(csv.DictReader(fh))


def sigma_pairs(family, ctx, rows) -> int:
    """Check every row against the row of its sigma-image; the pairs checked."""
    names = fam.PARAM_ORDER[family]
    elems = [name for name in names if fam.PARAM_KINDS[family][name] is gf.Elem]

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
    # the census_small grids
    ("half_power", "5^1:2", 14400),
    ("alpha_beta", "3^1:4", 2916),
    ("n4k", "2^1:8", 512),
    # the grids whose census bytes test_cli pins
    ("additive_g", "3^1:2", 54),
    ("even_t", "3^1:2", 18),
    ("trace_gamma", "3^1:2", 72),
    ("alpha_beta", "3^1:2", 108),
    ("alpha_beta_gamma", "3^1:2", 324),
    ("anti_g", "3^1:2", 162),
    ("n4k", "2^1:4", 32),
    ("q6", "2^1:6", 12),
    ("generic_L", "3^1:2", 54),
    ("half_power", "3^1:2", 576),
    # the other default grids on 3^1:4
    ("additive_g", "3^1:4", 486),
    ("trace_gamma", "3^1:4", 648),
    ("anti_g", "3^1:4", 1458),
    ("n4k", "3^1:4", 324),
    ("generic_L", "3^1:4", 6318),
])
def test_default_grid_rows_agree_with_their_frobenius_images(family, field, pairs, tmp_path):
    ctx = gf.parse_field_spec(field)
    assert sigma_pairs(family, ctx, census_rows(tmp_path, family, field)) == pairs


def test_q6_rows_agree_with_their_frobenius_images_through_its_refutations(tmp_path):
    # the census exits 1 on the plus variant's 3 pinned refutations
    rows = census_rows(tmp_path, "q6", "3^1:6", code=1)
    assert sum(row["status"] == "disagree" for row in rows) == 3
    assert sigma_pairs("q6", gf.parse_field_spec("3^1:6"), rows) == 18


# the grids bench/workloads.py checks with `verify --csv` in verify_large; the
# even_t L include a seeded random_pp, whose coefficients sigma may move, but
# every delta of that grid is in F_2, so each row is its own image
@pytest.mark.parametrize("family, field, params, pairs", [
    ("even_t", "2^1:12", {"t": [0, 2], "delta": "base",
                          "L": ["identity", "frob:1", "trace", "random_pp"]}, 16),
    ("anti_g", "3^1:6", {"g": [{"kind": "anti_alternating", "h": {"mono": 1}}],
                         "delta": "base", "beta": "sign_kernel",
                         "L": ["identity", "frob:1", "trace"]}, 27),
    ("n4k", "3^1:8", {"variant": ["plain", "qtwist"], "delta": [0], "a": "base_nonzero"}, 4),
], ids=["even_t-2^1:12", "anti_g-3^1:6", "n4k-3^1:8"])
def test_verify_large_rows_agree_with_their_frobenius_images(family, field, params, pairs,
                                                             tmp_path):
    ctx = gf.parse_field_spec(field)
    assert sigma_pairs(family, ctx, census_rows(tmp_path, family, field, params)) == pairs


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
        if fam.PARAM_KINDS[family][name] is gf.Elem:
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


def coset_classes(family, ctx, rows, cold) -> tuple[int, int]:
    """Check that rows sharing every parameter but delta agree on observed
    over each coset delta + Im(psi); the instances and the cosets checked.

    For a composition with one term and a linear part L, the map at
    delta + psi(e) is x -> f_delta(x + e) - L(e), so it permutes exactly
    when f_delta does.  Cycle types may differ.  psi is the term's inner
    table, built in an empty cache (cold) for each setting of the other
    parameters of a grid expanded afresh in the order of the rows."""
    names = [name for name in fam.PARAM_ORDER[family] if name != "delta"]
    images, verdicts, instances = {}, {}, 0
    for row, item in zip(rows, fam.instantiate_grid(family, [ctx], fam.DEFAULT_GRIDS[family]),
                         strict=True):
        if isinstance(item, fam.SkippedInstance):
            continue
        others = tuple(row[name] for name in names)
        if others not in images:
            terms = fam.COMPOSITIONS[family](cold(ctx), item.params)[0]
            images[others] = frozenset(terms[0][1]) if len(terms) == 1 else None
        if images[others] is None:  # q6 plus: two inner tables
            continue
        coset = min(ctx._add(item.params["delta"].code, y) for y in images[others])
        verdicts.setdefault((others, coset), set()).add(row["observed"])
        instances += 1
    assert [key for key, observed in verdicts.items() if len(observed) > 1] == []
    return instances, len(verdicts)


# every family on its pinned census field, and larger grids; the q6 3^1:6
# census exits 1 on its plus refutations, which coset_classes leaves out
@pytest.mark.parametrize("family, field, instances, cosets, code", [
    ("additive_g", "3^1:2", 54, 18, 0),
    ("even_t", "3^1:2", 18, 6, 0),
    ("trace_gamma", "3^1:2", 72, 24, 0),
    ("alpha_beta", "3^1:2", 108, 36, 0),
    ("alpha_beta_gamma", "3^1:2", 324, 108, 0),
    ("anti_g", "3^1:2", 162, 54, 0),
    ("n4k", "2^1:4", 32, 4, 0),
    ("q6", "2^1:6", 6, 3, 0),
    ("generic_L", "3^1:2", 54, 18, 0),
    ("half_power", "3^1:2", 576, 128, 0),
    ("additive_g", "3^1:4", 486, 18, 0),
    ("anti_g", "3^1:4", 1458, 54, 0),
    ("n4k", "3^1:4", 324, 12, 0),
    ("alpha_beta", "3^1:4", 2916, 324, 0),
    ("n4k", "2^1:8", 512, 4, 0),
    ("half_power", "5^1:2", 14400, 1152, 0),
    ("q6", "3^1:6", 9, 3, 1),
])
def test_observed_is_constant_on_each_coset_of_the_inner_image(family, field, instances,
                                                                cosets, code, tmp_path,
                                                                cold_caches):
    ctx = cold_caches(gf.parse_field_spec(field))
    rows = census_rows(tmp_path, family, field, code=code)
    assert coset_classes(family, ctx, rows, cold_caches) == (instances, cosets)
