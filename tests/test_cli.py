import csv
import hashlib
import json
from array import array

import pytest

from ppforge import families as fam
from ppforge.cli import main
from ppforge.gf import make_field, parse_field_spec

HALF_POWER_SPEC = json.dumps({
    "schema_version": 1,
    "family": "half_power",
    "field": "3^1:2",
    "params": {"k": 1, "a": "nonzero", "b": "nonzero", "delta": "all"},
})


def test_field_info(capsys):
    assert main(["field-info", "3^1:2"]) == 0
    out = capsys.readouterr().out
    assert "order q^n      9" in out
    assert "x^2 + 1" in out
    assert "|D0|           4" in out
    assert "generator" in out


def test_field_info_lists_a_small_base_field_in_full(capsys):
    assert main(["field-info", "3^1:2"]) == 0
    assert capsys.readouterr().out == (
        "field          3^1:2\n"
        "p              3\n"
        "e              1\n"
        "n              2\n"
        "q = p^e        3\n"
        "order q^n      9\n"
        "modulus        x^2 + 1\n"
        "generator      1,1\n"
        "|D0|           4\n"
        "base subfield  0,0 1,0 2,0\n")


def test_field_info_counts_a_large_base_field(run_python):
    # on a prime field the base subfield is the field: a million codes on
    # one line took 6 s and 100 MB more than the field itself
    proc = run_python("from ppforge.cli import main; raise SystemExit(main(['field-info', "
                      "'1048573^1:1']))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "base subfield  1048573 elements"
    assert len(proc.stdout) < 400


def test_field_info_nonprime(capsys):
    assert main(["field-info", "4^1:1"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_field_info_order_64(capsys):
    assert main(["field-info", "2^2:3"]) == 0
    out = capsys.readouterr().out
    assert "order q^n      64" in out


def test_field_info_parse_error_position(capsys):
    assert main(["field-info", "3^1:x"]) == 2
    assert "position" in capsys.readouterr().err


def test_verify_half_power_grid(capsys):
    assert main(["verify", HALF_POWER_SPEC]) == 0
    out = capsys.readouterr().out
    assert "grid size    576" in out
    assert "agreements   576" in out


def test_verify_json_output_round_trips(capsys):
    assert main(["verify", HALF_POWER_SPEC, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreements"] == 576
    assert doc["disagreements"] == []
    assert doc["spec"]["family"] == "half_power"
    # the embedded spec is itself a valid input
    assert main(["verify", json.dumps(doc["spec"])]) == 0


def test_verify_malformed_json(capsys):
    assert main(["verify", "{not json"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_unknown_family(capsys):
    assert main(["verify", '{"family": "nope", "field": "3^1:2"}']) == 2
    assert "unknown" in capsys.readouterr().err


def test_verify_reports_skips_without_failing(capsys):
    spec = json.dumps({
        "family": "additive_g",
        "field": "3^1:2",
        "params": {"g": [{"kind": "m_sum", "h": {"mono": 1}, "d": 2},
                         {"kind": "trace_of_h", "h": {"mono": 1}}],
                   "L": ["identity"], "delta": "all"},
    })
    assert main(["verify", spec]) == 0
    out = capsys.readouterr().out
    assert "skipped      9" in out
    assert "bad_divisor" in out


def test_verify_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    assert main(["verify", HALF_POWER_SPEC, "--csv", str(out_csv)]) == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "k,a,b,delta,predicted,observed,status,cycle_type"
    assert len(rows) == 577


def test_census_default_grid(tmp_path, capsys):
    out_csv = tmp_path / "census.csv"
    assert main(["census", "n4k", "3^1:4", "-o", str(out_csv)]) == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "variant,delta,a,predicted,observed,status,cycle_type"
    assert len(rows) == 1 + 324
    assert all(",agree," in row or row.startswith("variant") for row in rows)


# sha256 of every family's default-grid census on a small field where the
# grid resolves: refactors must keep the CSV bytes
CENSUS_DIGESTS = {
    ("additive_g", "3^1:2"): "741041a00bca565828e445b1e5aab0bf5208254b093345998a12f25a0ae5cc42",
    ("even_t", "3^1:2"): "41046a41bc254818b9fe19cd1777d688f1b9af80e7369d26cd57935eed947def",
    ("trace_gamma", "3^1:2"): "a5323ec42b6001e54b1538f7ae479d666b94c7f5361bf4176a52c457204a1b9b",
    ("alpha_beta", "3^1:2"): "c3cde010ec2c5137e4fa0f5835113eca5f2e1963b91995edfdbc3464f0f111ef",
    ("alpha_beta_gamma", "3^1:2"):
        "d23a368669cbc8bdb976b0bfc8a5653964ac3cd711d9330f3a484f5e653c299f",
    ("anti_g", "3^1:2"): "ba0acf709e2ab5cb5b7ba84432a38a43d719874890e5a9e07c79698fe43587b8",
    ("n4k", "2^1:4"): "df66b7713789086af2b22f41c9aef9c9d5d3f9caae83f682c0c142cb6da1292b",
    ("q6", "2^1:6"): "df0086f4ceff004a2e88a3f842a453b038cf9ab6216bda7afe31da1783fb5c6b",
    ("generic_L", "3^1:2"): "e2f2609172ed0ad9d5570550191dad469fc8fa3655c79a5352e28fed9fdce3d8",
    ("half_power", "3^1:2"): "31f2f14a9c4cfc52cddcd7c002d91e0312a38a78b608a8f569904f9caf46b247",
}


@pytest.mark.parametrize("family, field", list(CENSUS_DIGESTS))
def test_census_default_grid_bytes(family, field, tmp_path):
    out_csv = tmp_path / "census.csv"
    assert main(["census", family, field, "-o", str(out_csv)]) == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == CENSUS_DIGESTS[family, field]


def test_census_bytes_on_an_odd_dim_field(tmp_path):
    # 3^1:7 is past the add table with an odd dim, so its codes add a middle
    # digit between the high and the low halves; the additive_g default grid,
    # narrowed to deltas with low, middle, high and all digits set (36 rows),
    # against the bytes written when it still added by Zech logarithms
    params = dict(fam.DEFAULT_GRIDS["additive_g"], delta=[0, 1, 27, 40, 81, 2186])
    out_csv = tmp_path / "census.csv"
    assert main(["census", "additive_g", "3^1:7", "--params", json.dumps(params),
                 "-o", str(out_csv)]) == 0
    assert (hashlib.sha256(out_csv.read_bytes()).hexdigest()
            == "986fe5ef43b332bde1c8b7437058e2e9e0b366ef58d66177493c3d71f9926f43")


# sha256 of agw-check's stdout on every family's default grid, on small
# fields where the grid resolves (alpha_beta_gamma and half_power only on
# 3^1:2: their 3^1:4 grids hold 26,244 and 518,400 squares), and on q6 3^1:6,
# whose plus variant is the refuted one: a faster audit must print the same
AGW_DIGESTS = {
    ("additive_g", "3^1:2"): "9f9f610aeb7d77c1f7e988777c0a5d7057ba89b7bcb7ec3d54967f9f519db138",
    ("additive_g", "3^1:4"): "70a10996b121eb235cf0b62e6ad99951dd8de707bf8ca651c7703ed8e30b1005",
    ("even_t", "3^1:2"): "70db13fabb969549ef6b18501bb87ab83fdba522f0ce9d4aa411a41447ed3709",
    ("even_t", "3^1:4"): "9f9f610aeb7d77c1f7e988777c0a5d7057ba89b7bcb7ec3d54967f9f519db138",
    ("trace_gamma", "3^1:2"): "4c4accbf1230e5462dcef0f684d3738f089c70e860f3e4bbe16bf54786e9a115",
    ("trace_gamma", "3^1:4"): "5903aef555efe2c5123748e5416de5f02667e80cb86b2ff5f79bd78d8ff5cfc2",
    ("alpha_beta", "3^1:2"): "e2f4e5810ee5aba6ba158bb6e5cbf93f08e5408ed745feebf1ce0ee10c8d3894",
    ("alpha_beta", "3^1:4"): "8b51b512bdd1eeb053802a4a9d433e1136c9afeb5396d4c8496315b118c81d0a",
    ("alpha_beta_gamma", "3^1:2"):
        "14819b981e8d18c876d3754e44ebe9850dccbcd26afe636104477a5cd2850505",
    ("anti_g", "3^1:2"): "f0c610b6ad5f2ce69111ebccfa8e9ba3f1dbcc413e94117ded05162d55660b9b",
    ("anti_g", "3^1:4"): "577da71c40c99b1b6081c06fd7871da805bc5717fc2c106f020a0de379070fcc",
    ("n4k", "2^1:4"): "1151b62fd0929032318e21dd71485bb465d26cf49f445b174c7be23e1260de2f",
    ("n4k", "3^1:4"): "14819b981e8d18c876d3754e44ebe9850dccbcd26afe636104477a5cd2850505",
    ("q6", "2^1:6"): "d9d9a6c37862f0c610c482c7243cda1b27c2551de61ef1a46f8023fedcac9151",
    ("q6", "3^1:6"): "70db13fabb969549ef6b18501bb87ab83fdba522f0ce9d4aa411a41447ed3709",
    ("generic_L", "3^1:2"): "9f9f610aeb7d77c1f7e988777c0a5d7057ba89b7bcb7ec3d54967f9f519db138",
    ("generic_L", "3^1:4"): "8351a5c98ca2bcaa24011a1021686449e411c8dfbac263ac9e77687e524371b7",
    ("half_power", "3^1:2"): "3c061a1b2fd595f52205c796afdf9c7e79e694c5b5664522eddaacb5674d3b51",
}


@pytest.mark.parametrize("family, field", list(AGW_DIGESTS))
def test_agw_check_default_grid_output(family, field, capsys):
    assert main(["agw-check", json.dumps({"family": family, "field": field})]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == AGW_DIGESTS[family, field], out


# sha256 of `verify --csv` on grids with skipped points, whose rows carry the
# quoted parameters and a `skipped:<reason>` status: a faster row writer must
# write them as before.  No recipe kind can fail its contract, so no grid
# yields a `recipe_contract: ...` row.
SKIPPED_ROW_DIGESTS = {
    "zero_coefficient": (
        {"family": "half_power", "field": "3^1:2",
         "params": {"k": 1, "a": "all", "b": "nonzero", "delta": "all"}},
        "2403e33631ce4892a58ec115fb9d4afdd701c3cde0e0b5e9de161b59814d3ebc"),
    "bad_divisor": (
        {"family": "additive_g", "field": "3^1:2",
         "params": {"g": [{"kind": "m_sum", "h": {"mono": 1}, "d": 2},
                          {"kind": "trace_of_h", "h": {"mono": 1}}],
                    "L": ["identity"], "delta": "all"}},
        "3cc4e6bc5b8ab4fc8230b15b76fdd92715a70e587441036b02935619b5f16df3"),
}


# every default grid on its pinned census field, and the grids with skips
ENTRY_POINT_GRIDS = [(family, field, fam.DEFAULT_GRIDS[family])
                     for family, field in CENSUS_DIGESTS] + [
    (spec["family"], spec["field"], spec["params"]) for spec, _ in SKIPPED_ROW_DIGESTS.values()]


@pytest.mark.parametrize("family, field, params", ENTRY_POINT_GRIDS)
def test_constructor_agrees_with_the_grid(family, field, params):
    # the grid calls the prediction on its resolved parameters; the public
    # constructor binds them and checks the elements first; instantiate_grid
    # gives the points of _grid_points, which the command line checks
    ctx, build = parse_field_spec(field), fam.FAMILY_BUILDERS[family]
    items = list(fam.instantiate_grid(family, [ctx], params))
    points = list(fam._grid_points(family, ctx, params, 0))
    assert len(items) == len(points)
    for item, (point, predicted, reason) in zip(items, points):
        assert item.params == dict(zip(fam.PARAM_ORDER[family], point)) and item.ctx is ctx
        if isinstance(item, fam.SkippedInstance):
            assert (predicted, reason) == (None, item.reason)
            with pytest.raises(fam.FamilyParameterError) as raised:
                build(ctx, **item.params)
            assert raised.value.reason == item.reason
        else:
            assert (predicted, reason) == (item.predicted_pp, None)
            assert build(ctx, **item.params).predicted_pp == item.predicted_pp


@pytest.mark.parametrize("reason", list(SKIPPED_ROW_DIGESTS))
def test_skipped_rows_bytes(reason, tmp_path, capsys):
    spec, digest = SKIPPED_ROW_DIGESTS[reason]
    out_csv = tmp_path / "rows.csv"
    assert main(["verify", json.dumps(spec), "--csv", str(out_csv)]) == 0
    assert f",,,skipped:{reason},\n" in out_csv.read_text()
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest


def test_census_split_matches_residue_classes(tmp_path):
    out_csv = tmp_path / "hp.csv"
    assert main(["census", "half_power", "3^1:2", "-o", str(out_csv)]) == 0
    import csv

    from ppforge.gf import ResidueClass, make_field
    f9 = make_field(3, 1, 2)
    with open(out_csv) as fh:
        for row in csv.DictReader(fh):
            a = f9.from_coords([int(c) for c in row["a"].split(",")])
            b = f9.from_coords([int(c) for c in row["b"].split(",")])
            expected = (a * b).residue_class() == ResidueClass.D0
            assert row["predicted"] == str(expected).lower()
            assert row["status"] == "agree"


def test_census_empty_grid(tmp_path, capsys):
    out_csv = tmp_path / "empty.csv"
    assert main(["census", "half_power", "3^1:2", "-o", str(out_csv),
                 "--params", '{"k": 1, "a": [], "b": "nonzero", "delta": "all"}']) == 0
    rows = out_csv.read_text().splitlines()
    assert rows == ["k,a,b,delta,predicted,observed,status,cycle_type"]


def test_census_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["census", "half_power", "3^1:2", "-o", str(a)]) == 0
    assert main(["census", "half_power", "3^1:2", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_to_a_directory_is_an_error(tmp_path, capsys):
    assert main(["census", "n4k", "2^1:8", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_agw_check(capsys):
    spec = json.dumps({
        "family": "even_t",
        "field": "3^1:2",
        "params": {"t": [0, 2], "delta": "sign_kernel",
                   "L": ["identity", "trace"]},
    })
    assert main(["agw-check", spec]) == 0
    out = capsys.readouterr().out
    assert "12 satisfy the fiber criterion" in out


def test_cap_flag(capsys):
    assert main(["verify", HALF_POWER_SPEC, "--cap", "4"]) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("PPFORGE_CAP", "4")
    assert main(["verify", HALF_POWER_SPEC]) == 2
    assert main(["field-info", "3^1:2"]) == 2
    assert "exceeds cap 4" in capsys.readouterr().err
    monkeypatch.setenv("PPFORGE_CAP", "1000")
    assert main(["verify", HALF_POWER_SPEC]) == 0


def test_oversized_field_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    import ppforge.gf

    def fail(*args, **kwargs):
        raise RuntimeError("make_field must not run for an oversized field")

    monkeypatch.setattr(ppforge.gf, "make_field", fail)
    spec = json.dumps({"family": "half_power", "field": "2^1:24"})
    assert main(["verify", spec]) == 2
    assert "exceeds cap" in capsys.readouterr().err
    assert main(["agw-check", spec]) == 2
    assert "exceeds cap" in capsys.readouterr().err
    assert main(["field-info", "2^1:24"]) == 2
    assert "exceeds cap" in capsys.readouterr().err
    assert main(["field-info", "3^1:100000000000"]) == 2
    assert "exceeds cap" in capsys.readouterr().err
    out_csv = tmp_path / "rows.csv"
    assert main(["census", "n4k", "2^1:24", "-o", str(out_csv)]) == 2
    assert "exceeds cap" in capsys.readouterr().err
    # a huge tower degree is refused without computing p^(e*n)
    assert main(["census", "n4k", "3^1:100000000000", "-o", str(out_csv)]) == 2
    assert not out_csv.exists()


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_cap_must_be_a_positive_integer(value, tmp_path, capsys, monkeypatch):
    out_csv = tmp_path / "rows.csv"
    census = ["census", "n4k", "2^1:8", "-o", str(out_csv)]
    assert main(census + ["--cap", value]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --cap must be a positive integer, got {value!r}\n"
    monkeypatch.setenv("PPFORGE_CAP", value)
    for argv in (census, ["verify", HALF_POWER_SPEC], ["field-info", "3^1:2"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: PPFORGE_CAP must be a positive integer, got {value!r}\n"
    assert not out_csv.exists()


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_seed_flag_feeds_random_pp(capsys):
    spec = json.dumps({
        "family": "additive_g",
        "field": "3^1:2",
        "params": {"g": [{"kind": "trace_of_h", "h": {"mono": 2}}],
                   "L": ["random_pp"], "delta": "all"},
    })
    assert main(["verify", spec, "--seed", "5"]) == 0


Q6_PLUS_SPEC = json.dumps({
    "family": "q6",
    "field": "3^1:6",
    "params": {"variant": ["plus"], "h": [{"mono": 1}], "L": ["identity"], "delta": [0]},
})
Q6_COLLISION = ["0,0,1,0,0,0", "0,0,0,1,0,0"]
Q6_MISSED = "0,1,0,0,0,0"


def test_verify_reports_the_witness_of_a_disagreement(capsys):
    # the pinned q6 'plus' refutation at 3^1:6: predicted bijective, it is not
    assert main(["verify", Q6_PLUS_SPEC, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    [dis] = doc["disagreements"]
    assert dis["predicted"] is True and dis["observed"] is False
    assert dis["collision"] == Q6_COLLISION
    assert dis["missed"] == Q6_MISSED
    assert main(["verify", Q6_PLUS_SPEC]) == 1
    [line] = [line for line in capsys.readouterr().out.splitlines() if "DISAGREE" in line]
    assert line.endswith(f"; collision={'/'.join(Q6_COLLISION)} missed={Q6_MISSED}")


def test_grid_points_are_not_kept_once_written(tmp_path, cold_caches):
    # the half_power 3^1:2 grid repeated 20 times over k = 1 reads the same
    # tables as the grid itself, so a point kept once its row is written
    # (an instance, a record, a row) would raise the peak by at least an
    # object per point, some 16 bytes each, over the 10,944 extra points
    import tracemalloc

    ctx = parse_field_spec("3^1:2")
    out_csv = tmp_path / "rows.csv"
    peaks = []
    for repeats in (1, 1, 20):  # the first run warms what a process builds once
        spec = json.dumps({"family": "half_power", "field": "3^1:2",
                           "params": {"k": [1] * repeats, "a": "nonzero", "b": "nonzero",
                                      "delta": "all"}})
        cold_caches(ctx)
        tracemalloc.start()
        try:
            assert main(["verify", spec, "--csv", str(out_csv)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert out_csv.read_text().count("\n") == 1 + 576 * repeats
    assert peaks[2] - peaks[1] < 10 * 576 * 19


def test_only_disagreements_build_instances(tmp_path, capsys, monkeypatch):
    # an agreeing point is scanned and written without a FamilyInstance or
    # a record: the half_power 5^1:2 census builds none, and verify of the
    # q6 3^1:6 grid one for each of its 3 disagreements
    import ppforge.cli

    built, records = [], []
    init, record = fam.FamilyInstance.__init__, ppforge.cli.IffRecord
    monkeypatch.setattr(fam.FamilyInstance, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    monkeypatch.setattr(ppforge.cli, "IffRecord",
                        lambda *args: records.append(args) or record(*args))
    assert main(["census", "half_power", "5^1:2", "-o", str(tmp_path / "census.csv")]) == 0
    assert built == [] and records == []
    assert main(["verify", json.dumps({"family": "q6", "field": "3^1:6"}), "--json"]) == 1
    _, report = capsys.readouterr().out.split("\n", 1)  # the census line, then the JSON
    disagreements = json.loads(report)["disagreements"]
    assert len(disagreements) == len(records) == 3
    assert [inst.describe_params() for inst in built] == [d["params"] for d in disagreements]


def test_only_disagreements_get_witnesses(tmp_path, capsys, monkeypatch):
    # an agreeing point gets no Verdict and no canonical scan: the half_power
    # 5^1:2 census (7,200 non-bijections) runs neither, and verify of the q6
    # 3^1:6 grid one of each for each of its 3 disagreements
    import ppforge.cli
    import ppforge.oracle

    scans, collisions = [], []
    scan_codes, first_collision = ppforge.cli.scan_codes, ppforge.oracle._first_collision
    monkeypatch.setattr(ppforge.cli, "scan_codes",
                        lambda *args: scans.append(args) or scan_codes(*args))
    monkeypatch.setattr(ppforge.oracle, "_first_collision",
                        lambda *args: collisions.append(args) or first_collision(*args))
    assert main(["census", "half_power", "5^1:2", "-o", str(tmp_path / "census.csv")]) == 0
    assert scans == [] and collisions == []
    assert main(["verify", json.dumps({"family": "q6", "field": "3^1:6"}), "--json"]) == 1
    _, report = capsys.readouterr().out.split("\n", 1)  # the census line, then the JSON
    disagreements = json.loads(report)["disagreements"]
    assert len(scans) == len(collisions) == len(disagreements) == 3
    assert all(d["collision"] == Q6_COLLISION and d["missed"] == Q6_MISSED
               for d in disagreements)


# grids whose points, their predictions negated, disagree with brute force in
# both ways; the q6 'plus' refutations then agree
NEGATED_GRIDS = [
    ("half_power", "5^1:2", {"k": 1, "a": [1, 7], "b": "nonzero", "delta": [0, 6]}),
    ("n4k", "2^1:8", {"variant": ["plain", "qtwist"], "delta": [0, 1, 2, 3, 8, 9],
                      "a": "base_nonzero"}),
    ("q6", "3^1:6", fam.DEFAULT_GRIDS["q6"]),
]


@pytest.mark.parametrize("family, field, params", NEGATED_GRIDS)
def test_negated_predictions_disagree_as_check_iff_does(family, field, params, tmp_path,
                                                        capsys, monkeypatch):
    # a point predicted not to permute that does (its distinct values
    # counted, then walked) and one predicted to permute that does not (its
    # witness from the canonical scan) are reported as check_iff reports them
    from ppforge.oracle import check_iff, format_cycle_type

    predict = fam._PREDICTIONS[family]
    monkeypatch.setitem(fam._PREDICTIONS, family,
                        lambda ctx, *point: not predict(ctx, *point))
    ctx = parse_field_spec(field)
    checked = [(inst, check_iff(inst)) for inst in fam.instantiate_grid(family, [ctx], params)]
    outcomes = [(record.predicted, record.observed) for _, record in checked]
    assert (False, True) in outcomes and (True, False) in outcomes
    agreeing = [inst.params["variant"] for inst, record in checked if record.agree]
    assert agreeing == (["plus"] * 3 if family == "q6" else [])

    out_csv = tmp_path / "rows.csv"
    spec = json.dumps({"family": family, "field": field, "params": params})
    assert main(["verify", spec, "--json", "--csv", str(out_csv)]) == 1
    assert json.loads(capsys.readouterr().out)["disagreements"] == [
        {"params": inst.describe_params(), "predicted": record.predicted,
         "observed": record.observed,
         "collision": None if record.verdict.collision is None
         else [str(x) for x in record.verdict.collision],
         "missed": None if record.verdict.missed is None else str(record.verdict.missed)}
        for inst, record in checked if not record.agree]
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    names = fam.PARAM_ORDER[family]
    assert rows == [
        [fam.describe_value(inst.params[name]) for name in names]
        + [str(record.predicted).lower(), str(record.observed).lower(),
           "agree" if record.agree else "disagree",
           "" if record.verdict.cycle_type is None
           else format_cycle_type(record.verdict.cycle_type)]
        for inst, record in checked]


def test_malformed_grid_leaves_no_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    assert main(["census", "half_power", "3^1:2", "-o", str(out_csv),
                 "--params", '{"k": 1}']) == 2
    assert "missing parameters" in capsys.readouterr().err
    assert not out_csv.exists()


def test_report_keeps_a_zero_missed_value():
    from ppforge.cli import RunReport
    from ppforge.families import family_half_power
    from ppforge.gf import make_field, parse_field_spec
    from ppforge.oracle import IffRecord, Verdict

    f9 = make_field(3, 1, 2)
    inst = family_half_power(f9, 1, f9.one, f9.one, f9.zero)
    verdict = Verdict(bijective=False, collision=(f9.elem(1), f9.elem(2)), missed=f9.zero)
    report = RunReport("half_power", "3^1:2")
    report.add(inst, IffRecord("half_power", True, False, verdict))
    [dis] = json.loads(json.dumps(report.to_dict()))["disagreements"]
    assert dis["collision"] == ["1,0", "2,0"] and dis["missed"] == "0,0"


def test_census_shares_scaled_tables_and_makes_no_edges(tmp_path, monkeypatch, cold_caches):
    # alpha_beta's outer table scaled by alpha is kept in the field's cache
    # by (alpha, power table): its 3^1:4 grid asks for it at 2,916 points
    # and 162 values of (t, delta, alpha), and builds it once for each of
    # the 18 values of (t, alpha); no census reads an evaluator
    from ppforge.gf import FieldCtx, parse_field_spec

    scales, edges = [], []
    mul_row, edge_init = FieldCtx._mul_row, fam.CodeMapEdge.__init__
    cold_caches(parse_field_spec("3^1:4"))
    monkeypatch.setattr(FieldCtx, "_mul_row",
                        lambda self, a: scales.append(a) or mul_row(self, a))
    monkeypatch.setattr(fam.CodeMapEdge, "__init__",
                        lambda self, *args: edges.append(args) or edge_init(self, *args))
    out_csv = tmp_path / "census.csv"
    assert main(["census", "alpha_beta", "3^1:4", "-o", str(out_csv)]) == 0
    assert out_csv.read_text().count("\n") == 1 + 2916
    assert len(scales) == 18
    for family, field in [("n4k", "2^1:8"), ("half_power", "3^1:2"), ("generic_L", "3^1:2")]:
        assert main(["census", family, field, "-o", str(out_csv)]) == 0
    assert edges == []


@pytest.mark.parametrize("family, field, combinations, digest", [
    ("half_power", "5^1:2", 576,
     "abd73a415ac4d6e6957bc53c0ea80cf38d10c1130aabcd447dfb79a15e972171"),
    ("alpha_beta", "3^1:4", 324,
     "dcdae2da203dfad6836a88b73dd0f51816df55e562512aedef454fac6eaa5a4c"),
    ("n4k", "2^1:8", 2, "9ae1d1868114bf7984000218ab8597fe5daf7d934aec3caee434e75a5870a693"),
])
def test_a_census_compiles_each_combination_of_non_delta_values_once(
        family, field, combinations, digest, tmp_path, monkeypatch):
    # the grid sweeps delta over every combination of the other parameters'
    # values: 14,400, 2,916 and 512 points.  Each combination's composition
    # is compiled by its first point and kept in the field's cache, so a
    # second census of the same grid, whose maps resolve to the same
    # objects, compiles none
    calls = []
    composition = fam.COMPOSITIONS[family]
    monkeypatch.setitem(fam.COMPOSITIONS, family,
                        lambda *args: calls.append(args) or composition(*args))
    out_csv = tmp_path / "census.csv"
    for expected in (combinations, 0):
        calls.clear()
        assert main(["census", family, field, "-o", str(out_csv)]) == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest
        assert len(calls) == expected
        assert all("delta" not in P for _, P in calls)


@pytest.mark.parametrize("memo_cycles", [0, 1 << 16])
def test_cycle_types_are_formatted_once_while_the_memo_has_room(memo_cycles, tmp_path,
                                                               monkeypatch):
    import ppforge.cli

    formatted = []
    format_cycle_type = ppforge.cli.format_cycle_type
    monkeypatch.setattr(ppforge.cli, "_CYCLE_TYPE_MEMO_CYCLES", memo_cycles)
    monkeypatch.setattr(ppforge.cli, "format_cycle_type",
                        lambda c: formatted.append(c) or format_cycle_type(c))
    out_csv = tmp_path / "census.csv"
    assert main(["census", "half_power", "3^1:2", "-o", str(out_csv)]) == 0
    digest = CENSUS_DIGESTS["half_power", "3^1:2"]
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest
    with open(out_csv, newline="") as fh:
        bijective = sum(row["observed"] == "true" for row in csv.DictReader(fh))
    if memo_cycles:
        assert len(formatted) == len(set(formatted)) < bijective
    else:  # no room: every bijective row formats its own
        assert len(formatted) == bijective


def test_verify_refuses_a_field_that_is_not_a_string(capsys):
    assert main(["verify", '{"family": "n4k", "field": 9}']) == 2
    assert capsys.readouterr().err == "error: 'field' must be a string, got 9\n"
    assert main(["agw-check", '{"family": "n4k", "field": null}']) == 2
    assert capsys.readouterr().err.startswith("error: 'field' must be a string")


@pytest.mark.parametrize("version, shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'"),
                                             (2, "2")], ids=["true", "float", "string", "2"])
def test_verify_refuses_a_schema_version_that_is_not_the_integer_1(version, shown, capsys):
    spec = json.dumps({"schema_version": version, "family": "n4k", "field": "3^1:2"})
    assert main(["verify", spec]) == 2
    assert capsys.readouterr().err == f"error: unsupported schema_version {shown}\n"
    assert main(["agw-check", spec]) == 2
    assert capsys.readouterr().err == f"error: unsupported schema_version {shown}\n"


@pytest.mark.parametrize("t", [["x"], [2.0], [True], "2", {"t": 2}, [[2]]])
def test_verify_refuses_a_non_integer_t(t, tmp_path, capsys):
    spec = json.dumps({"family": "even_t", "field": "3^1:2",
                       "params": {"t": t, "delta": "sign_kernel", "L": ["identity"]}})
    out_csv = tmp_path / "rows.csv"
    assert main(["verify", spec, "--csv", str(out_csv)]) == 2
    assert capsys.readouterr().err.startswith("error: parameter 't' takes integers, got ")
    assert not out_csv.exists()


def test_element_entries_flatten_nested_lists(capsys):
    # an element entry's lists flatten at any depth ("t": [[2]] is refused above)
    spec = {"family": "even_t", "field": "3^1:2",
            "params": {"t": [0], "delta": [[0, 1], 2], "L": ["identity"]}}
    assert main(["verify", json.dumps(spec), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["grid_size"], doc["agreements"]) == (3, 1)
    assert [sk["params"].split()[1] for sk in doc["skipped"]] == ["delta=1,0", "delta=2,0"]


@pytest.mark.parametrize("family, params", [
    ("half_power", {"k": "1", "a": "nonzero", "b": "nonzero", "delta": "all"}),
    ("half_power", {"k": [1, 1.5], "a": "nonzero", "b": "nonzero", "delta": "all"}),
    ("trace_gamma", {"t": [0], "delta": "sign_kernel", "beta": "intermediate",
                     "gamma": "base_nonzero", "s": [False]}),
])
def test_census_refuses_non_integer_k_and_s(family, params, tmp_path, capsys):
    out_csv = tmp_path / "census.csv"
    assert main(["census", family, "3^1:2", "-o", str(out_csv),
                 "--params", json.dumps(params)]) == 2
    assert "takes integers" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("family, field, views, digest", [
    ("half_power", "5^1:2", 24, "abd73a415ac4d6e6957bc53c0ea80cf38d10c1130aabcd447dfb79a15e972171"),
    ("alpha_beta", "3^1:4", 144, "dcdae2da203dfad6836a88b73dd0f51816df55e562512aedef454fac6eaa5a4c"),
    ("n4k", "2^1:8", 0, "9ae1d1868114bf7984000218ab8597fe5daf7d934aec3caee434e75a5870a693"),
])
def test_census_builds_a_shift_view_on_the_second_request(family, field, views, digest,
                                                          tmp_path, monkeypatch, cold_caches):
    # half_power asks for its one outer table at every delta 576 times, and
    # alpha_beta for each of its 18 scaled tables 18 times at each of 9
    # deltas, so each pair with delta != 0 gets a view; n4k asks for each
    # (table, delta) once, and a view built then would be read by nothing
    from ppforge.gf import FieldCtx, parse_field_spec

    built = []
    shifted = FieldCtx._shifted
    cold_caches(parse_field_spec(field))
    monkeypatch.setattr(FieldCtx, "_shifted",
                        lambda self, table, b: built.append(b) or shifted(self, table, b))
    out_csv = tmp_path / "census.csv"
    assert main(["census", family, field, "-o", str(out_csv)]) == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest
    assert len(built) == views and 0 not in built


def test_value_lists_gather_through_sequences_before_a_view_exists(tmp_path, monkeypatch,
                                                                   cold_caches):
    # n4k on 2^1:8 reads each (table, delta) once, so every nonzero delta is
    # added by _shift; the gather behind each value list reads what it
    # returns in one itemgetter call, never through the chunked path that
    # an iterator index takes
    from ppforge.gf import FieldCtx

    shifted, read, chunked = [], [], []
    gather, shift = fam.gather, FieldCtx._shift

    def counted_shift(self, codes, b):
        shifted.append(shift(self, codes, b))
        return shifted[-1]

    def counted_gather(table, index):
        if not isinstance(index, (list, tuple, array, range)):
            chunked.append(index)
        elif any(index is codes for codes in shifted):
            read.append(index)
        return gather(table, index)

    monkeypatch.setattr(FieldCtx, "_shift", counted_shift)
    monkeypatch.setattr(fam, "gather", counted_gather)
    cold_caches(parse_field_spec("2^1:8"))
    assert main(["census", "n4k", "2^1:8", "-o", str(tmp_path / "census.csv")]) == 0
    assert len(read) > 100
    assert chunked == []


def test_a_field_above_the_view_budget_keeps_no_views(capsys, monkeypatch, cold_caches):
    # delta = 1 is asked for twice with each outer table; a view entry is
    # charged its table and its view, 2^15 codes, past the budget, so the
    # field records nothing
    import ppforge.gf as gf

    ctx = cold_caches(gf.make_field(2, 1, 14))
    monkeypatch.setattr(gf, "_TABLE_CODES", 2 * ctx.order - 1)
    spec = json.dumps({"family": "even_t", "field": "2^1:14",
                       "params": {"t": [0, 2], "delta": "base", "L": ["identity", "frob:1"]}})
    assert main(["verify", spec]) == 0
    assert "grid size    8" in capsys.readouterr().out
    assert ctx._tables and not any(key[0] == "view" for key in ctx._tables)


@pytest.mark.parametrize("tables", [0, 1, 5])
def test_the_table_cache_never_charges_past_its_budget(tables, tmp_path, monkeypatch,
                                                       cold_caches):
    # a census over 30 maps L and every delta under a budget of a few tables
    # of the field: evicted tables are built again, so the rows keep their
    # bytes, and after every store the kept entries' charges add up to the
    # field's total, which stays within the budget
    import ppforge.gf as gf

    ctx = gf.parse_field_spec("3^1:4")
    params = json.dumps({"g": [{"kind": "trace_of_h", "h": {"mono": 1}}],
                         "L": [f"random_pp:{i}" for i in range(30)], "delta": "all"})
    out_csv = tmp_path / "census.csv"
    assert main(["census", "additive_g", "3^1:4", "-o", str(out_csv), "--params", params]) == 0
    expected = out_csv.read_bytes()

    budget, charged = tables * ctx.order, []
    store = gf.FieldCtx._store

    def checked_store(self, key, value, charge):
        store(self, key, value, charge)
        if self is ctx:
            charged.append(self._charged)
            assert self._charged == sum(entry[1] for entry in self._tables.values())

    cold_caches(ctx)
    monkeypatch.setattr(gf, "_TABLE_CODES", budget)
    monkeypatch.setattr(gf.FieldCtx, "_store", checked_store)
    assert main(["census", "additive_g", "3^1:4", "-o", str(out_csv), "--params", params]) == 0
    assert out_csv.read_bytes() == expected
    assert charged and max(charged) <= budget


def test_a_census_over_many_maps_keeps_its_memory_flat(tmp_path, monkeypatch, cold_caches):
    # every distinct L is a table of the field's order; under a budget of a
    # few tables a census over 200 of them peaks within a margin of one over
    # 20, less than half of what the 180 more tables would hold
    import tracemalloc

    import ppforge.gf as gf

    ctx = gf.parse_field_spec("3^1:6")
    monkeypatch.setattr(gf, "_TABLE_CODES", 8 * ctx.order)
    peaks = []
    for maps in (20, 200):
        params = json.dumps({"g": [{"kind": "trace_of_h", "h": {"mono": 1}}],
                             "L": [f"random_pp:{i}" for i in range(maps)], "delta": [0]})
        cold_caches(ctx)
        tracemalloc.start()
        try:
            assert main(["census", "additive_g", "3^1:6", "-o", str(tmp_path / "census.csv"),
                         "--params", params]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    table_bytes = ctx.order * gf.code_table([0]).itemsize
    assert peaks[1] - peaks[0] < 90 * table_bytes


def test_alpha_beta_gamma_checks_each_gamma_and_s_once(tmp_path, monkeypatch):
    # the default 3^1:4 grid has 26,244 points over 9 gammas and 2 s
    checked = []
    is_permutation = fam.is_permutation
    monkeypatch.setattr(fam, "is_permutation",
                        lambda L: checked.append(L) or is_permutation(L))
    out_csv = tmp_path / "census.csv"
    assert main(["census", "alpha_beta_gamma", "3^1:4", "-o", str(out_csv)]) == 0
    assert out_csv.read_text().count("\n") == 1 + 26244
    assert len(checked) <= 18


MALFORMED_GRID_VALUES = [
    ("even_t", "3^1:2", {"t": [0], "delta": 1.5, "L": ["identity"]}, "delta"),
    ("even_t", "3^1:2", {"t": [0], "delta": None, "L": ["identity"]}, "delta"),
    ("even_t", "3^1:2", {"t": [0], "delta": True, "L": ["identity"]}, "delta"),
    ("even_t", "3^1:2", {"t": [0], "delta": [0, False], "L": ["identity"]}, "delta"),
    ("even_t", "3^1:2", {"t": [0], "delta": "sign_kernel", "L": 5}, "L"),
    ("even_t", "3^1:2", {"t": [0], "delta": "sign_kernel", "L": None}, "L"),
    ("even_t", "3^1:2", {"t": [0], "delta": "sign_kernel", "L": [1.5]}, "L"),
    ("additive_g", "3^1:2", {"g": 5, "L": ["identity"], "delta": "all"}, "g"),
    ("q6", "3^1:6", {"variant": ["minus"], "h": 5, "L": ["identity"], "delta": "base"}, "h"),
    ("q6", "2^1:6", {"variant": ["minus"], "h": {"mono": "x"}, "L": ["identity"],
                     "delta": "base"}, "h"),
    ("q6", "2^1:6", {"variant": ["minus"], "h": {"codes": 5}, "L": ["identity"],
                     "delta": "base"}, "h"),
    ("additive_g", "3^1:2", {"g": [{"kind": "norm_power", "h": {"mono": 1}, "s": "x"}],
                             "L": ["identity"], "delta": "all"}, "g"),
    ("additive_g", "3^1:2", {"g": [{"kind": "sum", "parts": 5}],
                             "L": ["identity"], "delta": "all"}, "g"),
    ("additive_g", "3^1:2", {"g": [{"kind": "m_sum", "h": {"mono": 1}, "d": 2.5}],
                             "L": ["identity"], "delta": "all"}, "g"),
    ("q6", "3^1:6", {"variant": ["minus"], "h": [{"mono": 1, "cofe": 2}], "L": ["identity"],
                     "delta": "base"}, "h"),
    ("additive_g", "3^1:4", {"g": [{"kind": "m_sum", "h": {"mono": 1}, "dd": 2}],
                             "L": ["identity"], "delta": "all"}, "g"),
    ("q6", "2^1:6", {"variant": ["minus"], "h": {"mono": 64}, "L": ["identity"],
                     "delta": "base"}, "h"),
    # q6 takes polynomials only: a recipe h once died in family_q6 with exit 1
    ("q6", "3^1:6", {"variant": ["minus"], "h": [{"kind": "trace_of_h", "h": {"mono": 1}}],
                     "L": ["identity"], "delta": [0]}, "h"),
    # 'kernel_nonzero' names the kernel of generic_L's L, and only its 'a' takes it
    ("n4k", "2^1:4", {"variant": ["plain"], "delta": [0], "a": "kernel_nonzero"}, "a"),
    ("generic_L", "3^1:2", {"L": ["trace"], "a": "kernel_nonzero",
                            "h": [{"kind": "trace_of_h", "h": {"mono": 2}}],
                            "L1": ["identity"], "delta": [["kernel_nonzero"]]}, "delta"),
]


@pytest.mark.parametrize("family, field, params, name", MALFORMED_GRID_VALUES)
def test_verify_refuses_malformed_grid_values(family, field, params, name, tmp_path,
                                              capsys, monkeypatch):
    # the grid calls the family's prediction on every point it builds
    built = []
    monkeypatch.setitem(fam._PREDICTIONS, family,
                        lambda *args, **kwargs: built.append(args))
    spec = json.dumps({"family": family, "field": field, "params": params})
    out_csv = tmp_path / "rows.csv"
    assert main(["verify", spec, "--csv", str(out_csv)]) == 2
    assert capsys.readouterr().err.startswith(f"error: parameter {name!r} takes ")
    assert not out_csv.exists() and built == []
    # the patch is what the grid calls: a well-formed grid on the field reaches it
    next(fam.instantiate_grid(family, [parse_field_spec(field)], fam.DEFAULT_GRIDS[family]))
    assert built


@pytest.mark.parametrize("family, field, params, name", MALFORMED_GRID_VALUES)
def test_census_refuses_malformed_grid_values(family, field, params, name, tmp_path, capsys):
    out_csv = tmp_path / "census.csv"
    assert main(["census", family, field, "-o", str(out_csv),
                 "--params", json.dumps(params)]) == 2
    assert capsys.readouterr().err.startswith(f"error: parameter {name!r} takes ")
    assert not out_csv.exists()
