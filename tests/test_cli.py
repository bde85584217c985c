import csv
import hashlib
import json

import pytest

from ppforge.cli import main
from ppforge.gf import make_field

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


def test_verify_csv_memoizes_only_the_printed_labels(tmp_path, capsys):
    ctx = make_field(3, 1, 8)
    ctx._labels.clear()
    spec = json.dumps({"family": "n4k", "field": "3^1:8",
                       "params": {"variant": ["plain", "qtwist"], "delta": [0],
                                  "a": "base_nonzero"}})
    out_csv = tmp_path / "rows.csv"
    assert main(["verify", spec, "--csv", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    printed = {ctx.from_coords([int(c) for c in row[name].split(",")]).code
               for row in rows for name in ("delta", "a")}
    assert printed == {0, 1, 2}
    assert set(ctx._labels) == printed


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


def test_grid_points_are_not_kept_once_written(tmp_path, monkeypatch):
    import weakref

    import ppforge.cli

    out_csv = tmp_path / "rows.csv"
    refs, alive = [], []
    check_iff = ppforge.cli.check_iff

    def spy(item, cap):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(item))
        return check_iff(item, cap=cap)

    monkeypatch.setattr(ppforge.cli, "check_iff", spy)
    assert main(["verify", HALF_POWER_SPEC, "--csv", str(out_csv)]) == 0
    assert len(refs) == 576 and max(alive) <= 2
    assert out_csv.read_text().count("\n") == 577


def test_malformed_grid_leaves_no_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    assert main(["census", "half_power", "3^1:2", "-o", str(out_csv),
                 "--params", '{"k": 1}']) == 2
    assert "missing parameters" in capsys.readouterr().err
    assert not out_csv.exists()


def test_report_keeps_a_zero_missed_value():
    from ppforge.cli import RunReport
    from ppforge.families import family_half_power
    from ppforge.gf import make_field
    from ppforge.oracle import IffRecord, Verdict

    f9 = make_field(3, 1, 2)
    inst = family_half_power(f9, 1, f9.one, f9.one, f9.zero)
    verdict = Verdict(bijective=False, collision=(f9.elem(1), f9.elem(2)), missed=f9.zero)
    report = RunReport("half_power", "3^1:2")
    report.add(inst, IffRecord("half_power", True, False, verdict))
    [dis] = json.loads(json.dumps(report.to_dict()))["disagreements"]
    assert dis["collision"] == ["1,0", "2,0"] and dis["missed"] == "0,0"


def test_census_shares_scaled_tables_and_makes_no_edges(tmp_path, monkeypatch):
    # alpha_beta's outer table scaled by alpha is kept for the last scale:
    # its 3^1:4 grid varies (t, delta, alpha) through 162 values, each held
    # by 18 consecutive points; no census reads an evaluator
    import ppforge.families as fam
    from ppforge.gf import FieldCtx

    scales, edges = [], []
    mul_row, edge_init = FieldCtx._mul_row, fam.CodeMapEdge.__init__
    monkeypatch.setattr(fam, "_last_scaled", None)
    monkeypatch.setattr(FieldCtx, "_mul_row",
                        lambda self, a: scales.append(a) or mul_row(self, a))
    monkeypatch.setattr(fam.CodeMapEdge, "__init__",
                        lambda self, *args: edges.append(args) or edge_init(self, *args))
    out_csv = tmp_path / "census.csv"
    assert main(["census", "alpha_beta", "3^1:4", "-o", str(out_csv)]) == 0
    assert out_csv.read_text().count("\n") == 1 + 2916
    assert len(scales) == 162
    for family, field in [("n4k", "2^1:8"), ("half_power", "3^1:2"), ("generic_L", "3^1:2")]:
        assert main(["census", family, field, "-o", str(out_csv)]) == 0
    assert edges == []


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


@pytest.mark.parametrize("t", [["x"], [2.0], [True], "2", {"t": 2}])
def test_verify_refuses_a_non_integer_t(t, tmp_path, capsys):
    spec = json.dumps({"family": "even_t", "field": "3^1:2",
                       "params": {"t": t, "delta": "sign_kernel", "L": ["identity"]}})
    out_csv = tmp_path / "rows.csv"
    assert main(["verify", spec, "--csv", str(out_csv)]) == 2
    assert capsys.readouterr().err.startswith("error: parameter 't' takes integers, got ")
    assert not out_csv.exists()


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
