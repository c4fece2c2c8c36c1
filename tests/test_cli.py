import csv
import hashlib
import io
import itertools
import json

import pytest

from constagalois import derive_params, make_field
from constagalois.cli import build_parser, main, parse_phi
from exhaustive import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return [json.loads(line) for line in out.strip().splitlines()]


def test_cmd_params(capsys):
    (record,) = run_json(capsys, "params", "--p", "5", "--e", "2",
                         "--n", "26", "--lambda", "-1")
    assert record["r"] == 2 and record["nprime"] == 26 and record["nu"] == 0
    assert record["d"] == 2 and record["theta"] == "g^12"
    assert record["big_field"] == "GF(5^4)"


def test_cmd_cosets_reproduces_length26_table(capsys):
    (record,) = run_json(capsys, "cosets", "--p", "5", "--e", "2",
                         "--n", "26", "--lambda", "-1")
    assert record["cosets"] == [
        [1, 25], [3, 23], [5, 21], [7, 19], [9, 17], [11, 15], [13],
        [27, 51], [29, 49], [31, 47], [33, 45], [35, 43], [37, 41], [39]]


def test_cmd_cosets_with_orbits(capsys):
    (record,) = run_json(capsys, "cosets", "--p", "5", "--e", "2",
                         "--n", "26", "--lambda", "-1", "--s", "-1")
    assert sorted(map(sorted, record["orbits"])) == [
        [1, 27], [3, 29], [5, 31], [7, 33], [9, 35], [11, 37], [13, 39]]


def test_cmd_factor(capsys):
    records = run_json(capsys, "factor", "--p", "2", "--e", "2",
                       "--n", "2", "--lambda", "g^2")
    assert len(records) == 1
    assert records[0]["coeffs"] == ["g^1", "1"]  # X + theta with theta = g


def test_cmd_code_and_round_trip(capsys):
    (record,) = run_json(capsys, "code", "--p", "3", "--e", "2", "--n", "4",
                         "--lambda", "-1", "--phi", "1:0,3:0,5:1,7:1")
    assert record["dim"] == 2 and record["min_weight"] == 3
    params = derive_params(3, 2, 4, -1)
    phi = parse_phi(params, ",".join(f"{k}:{v}" for k, v in record["phi"].items()))
    gen = parse_poly(record["generator"], params.field)
    from constagalois import build_code
    rebuilt = build_code(params, phi)
    assert rebuilt.generator == gen
    assert rebuilt.to_json(with_weight=True) == record


def test_cmd_dual(capsys):
    (record,) = run_json(capsys, "dual", "--p", "3", "--e", "2", "--n", "4",
                         "--lambda", "-1", "--phi", "1:0,3:0,5:1,7:1", "--h", "0")
    assert record["dim"] == 2
    assert record["phi"] == {"1": 0, "3": 0, "5": 1, "7": 1}  # self-dual


def test_cmd_check_selfdual_length12(capsys):
    base = ["check", "--p", "3", "--e", "4", "--n", "12", "--lambda", "g^20",
            "--phi", "1:1,5:2,9:1,13:2"]
    (record,) = run_json(capsys, *base, "--h", "1")
    assert record == {"selfdual": True, "h": 1, "failed_clause": None,
                      "iso_witness": 5}
    (record,) = run_json(capsys, *base, "--h", "2")
    assert record["selfdual"] is False and record["failed_clause"] == "order"
    assert record["iso_witness"] == 5


def test_cmd_exist_no_selfdual_cyclic(capsys):
    (record,) = run_json(capsys, "exist", "--p", "7", "--e", "1",
                         "--n", "7", "--lambda", "1", "--h", "0")
    assert record["galois"]["exists"] is False
    assert record["euclidean"]["exists"] is False
    # exhaustive confirmation: one coset, odd cap, phi + phi = 7 impossible
    params = derive_params(7, 1, 7, 1)
    cap = params.p ** params.nu
    assert all(2 * v != cap for v in range(cap + 1))


def test_cmd_exist_verdicts_length2(capsys):
    (record,) = run_json(capsys, "exist", "--p", "2", "--e", "2",
                         "--n", "2", "--lambda", "g^2", "--h", "1")
    assert record["galois"]["exists"] is True
    assert record["hermitian"]["exists"] is True
    assert record["euclidean"]["exists"] is False
    (record,) = run_json(capsys, "exist", "--p", "2", "--e", "2",
                         "--n", "2", "--lambda", "1", "--h", "0")
    assert record["euclidean"]["exists"] is True


def test_cmd_search_census_row(capsys):
    rows = run_json(capsys, "search", "--p-list", "3", "--e-list", "2",
                    "--n-min", "4", "--n-max", "4", "--orders", "2",
                    "--h-list", "0,1", "--with-weights")
    assert len(rows) == 2
    for row in rows:
        assert row["selfdual"] is True
        assert row["dim"] == 2 and row["d_min"] == 3
        assert row["lambda"] == "g^4"  # -1 in GF(9)
        assert row["iso_witness"] is not None


def test_search_csv_column_order(capsys):
    code, out, err = run_cli(capsys, "--format", "csv", "search",
                             "--p-list", "3", "--e-list", "1",
                             "--n-min", "2", "--n-max", "3")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "p,e,n,lambda,r,nprime,nu,h,phi,dim,d_min,selfdual,iso_witness"
    # the output flags are also accepted after the subcommand
    code2, out2, err2 = run_cli(capsys, "search", "--p-list", "3",
                                "--e-list", "1", "--n-min", "2",
                                "--n-max", "3", "--format", "csv")
    assert code2 == 0 and out2 == out


def test_byte_identical_repeat_invocations(capsys):
    argv = ["cosets", "--p", "5", "--e", "2", "--n", "26", "--lambda", "-1",
            "--s", "-5"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_cmd_verify_ok(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--e", "2", "--n", "4",
                             "--lambda", "-1", "--phi", "1:0,3:0,5:1,7:1",
                             "--h", "1")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert record["checks"]["dual_matches_oracle_set"] is True
    assert record["checks"]["selfdual_matches_oracle"] is True


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "params", "--p", "5", "--e", "2",
                             "--n", "26", "--lambda", "0")
    assert code == 1
    assert "lambda must be a unit" in err


def test_usage_error_exit_code(capsys):
    assert main(["cosets", "--p", "5"]) == 2
    capsys.readouterr()


def test_internal_error_is_one_line_with_exit_code_3(capsys, monkeypatch):
    import constagalois.cli as cli_module

    def broken(params, coset):
        raise AssertionError("coset not Galois-stable")

    monkeypatch.setattr(cli_module, "coset_poly", broken)
    code, out, err = run_cli(capsys, "factor", "--p", "5", "--e", "2",
                             "--n", "26", "--lambda", "-1")
    assert code == 3
    assert out == ""
    assert err == "internal error: coset not Galois-stable\n"


def test_bare_internal_assertion_still_names_itself(capsys, monkeypatch):
    import constagalois.cli as cli_module

    def broken(*args):
        raise AssertionError

    monkeypatch.setattr(cli_module, "q_cosets", broken)
    code, out, err = run_cli(capsys, "cosets", "--p", "3", "--e", "1",
                             "--n", "4", "--lambda", "1")
    assert (code, out, err) == (3, "", "internal error: assertion failed\n")


def test_empty_records_empty_output(capsys):
    code, out, err = run_cli(capsys, "search", "--p-list", "2", "--e-list", "1",
                             "--n-min", "2", "--n-max", "2", "--orders", "7")
    assert code == 0 and out == ""


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=5\ne=2\nn=26\nlambda=-1\n# comment\n")
    (record,) = run_json(capsys, "--config", str(cfg), "params")
    (record2,) = run_json(capsys, "params", "--p", "5", "--e", "2",
                          "--n", "26", "--lambda", "-1")
    assert record == record2


def test_explicit_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=5\ne=2\nn=26\nlambda=-1\n")
    (record,) = run_json(capsys, "--config", str(cfg), "params", "--n", "13")
    assert record["n"] == 13 and record["p"] == 5


def test_explicit_flags_override_config_in_every_spelling(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\ne=2\nn=8\nlambda=1\nformat=csv\n")
    # "--n=4" and the abbreviation "--lam" are the flags --n and --lambda
    (record,) = run_json(capsys, "--config", str(cfg), "params", "--n=4",
                         "--lam", "-1", "--format=json")
    assert record["n"] == 4 and record["lambda"] == "g^4" and record["p"] == 3
    (record,) = run_json(capsys, "--format", "json", "--config", str(cfg), "params")
    assert record["n"] == 8 and record["lambda"] == "1"


def test_config_values_convert_through_their_flags(tmp_path, capsys):
    search = ["search", "--p-list", "3", "--e-list", "2", "--n-min", "4",
              "--n-max", "4", "--orders", "2"]
    for text, d_min in (("false", None), ("true", 3)):
        cfg = tmp_path / f"{text}.cfg"
        cfg.write_text(f"with-weights = {text}\nh-list = 0\n")
        (row,) = run_json(capsys, "--config", str(cfg), *search)
        assert row["d_min"] == d_min, text
    for line in ("with-weights = no", "n-max = four", "format = xml"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), *search)
        assert code == 2 and out == "" and err.startswith("usage error: "), line


def test_search_grid_lists_are_sets(capsys):
    search = ["search", "--e-list", "1", "--n-min", "1", "--n-max", "6"]
    once = run_json(capsys, *search, "--p-list", "3,5", "--h-list", "0")
    assert run_json(capsys, *search, "--p-list", "5,3,3", "--h-list", "0,0") == once
    assert run_json(capsys, *search, "--p-list", "3,5", "--e-list", "1,1",
                    "--h-list", "0") == once


def test_search_zero_limits_are_limits(capsys):
    search = ["search", "--p-list", "3", "--e-list", "1", "--n-max", "6"]
    code, out, err = run_cli(capsys, *search, "--max-cosets", "0")
    assert (code, out) == (0, "")
    code, out, err = run_cli(capsys, *search, "--max-multiplicity", "0")
    assert (code, out) == (0, "")
    # p^nu <= 1 keeps n = 1, 2, 4, 5 (nu = 1 at n = 3, 6): 4 lengths x 2 orders x 2 h
    assert len(run_json(capsys, *search, "--max-multiplicity", "1")) == 4 * 2 * 2


def test_missing_required_key_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "params", "--p", "5", "--e", "2", "--n", "26")
    assert code == 2
    assert "lambda" in err


def test_text_format(capsys):
    code, out, err = run_cli(capsys, "--format", "text", "exist", "--p", "3",
                             "--e", "2", "--n", "4", "--lambda", "-1")
    assert code == 0 and "exists" in out


def test_zero_code_weight_is_null(capsys):
    (record,) = run_json(capsys, "code", "--p", "3", "--e", "2", "--n", "4",
                         "--lambda", "-1", "--phi", "1:0,3:0,5:0,7:0")
    assert record["dim"] == 0 and record["min_weight"] is None


def test_enum_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "10")
    (record,) = run_json(capsys, "code", "--p", "3", "--e", "2", "--n", "4",
                         "--lambda", "-1", "--phi", "1:0,3:0,5:1,7:1")
    assert record["min_weight"] is None  # 81 words exceed the cap of 10
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "100")
    (record,) = run_json(capsys, "code", "--p", "3", "--e", "2", "--n", "4",
                         "--lambda", "-1", "--phi", "1:0,3:0,5:1,7:1")
    assert record["min_weight"] == 3


def test_bad_enum_cap_env_var_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "abc")
    code, out, err = run_cli(capsys, "code", "--p", "3", "--e", "2", "--n", "4",
                             "--lambda", "-1", "--phi", "1:0,3:0,5:1,7:1")
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "CONSTAGALOIS_ENUM_CAP" in err


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\ne=2\nn=4\nlambda=-1\nformat=csv\n")
    search = ["search", "--p-list", "3", "--e-list", "2", "--n-min", "4",
              "--n-max", "4", "--format", "csv"]
    sequence = [
        search + ["--orders", "2", "--with-weights"],
        search,                                    # --orders and --with-weights omitted
        ["--config", str(cfg), "params"],
        ["params", "--p", "3", "--e", "2", "--n", "4", "--lambda", "-1"],
        ["--cap", "10", "code", "--p", "3", "--e", "2", "--n", "4",
         "--lambda", "-1", "--phi", "1:0,3:0,5:1,7:1"],
        ["code", "--p", "3", "--e", "2", "--n", "4", "--lambda", "-1",
         "--phi", "1:0,3:0,5:1,7:1"],              # --cap omitted
        ["search", "--p-list", "3"],               # argparse error: SystemExit(2)
        ["--format", "text", "exist", "--p", "3", "--e", "2", "--n", "4",
         "--lambda", "-1", "--h", "1"],
        ["cosets", "--p", "5"],                    # usage error from main
        search + ["--orders", "2", "--with-weights"],
    ]
    reused = [run_cli(capsys, *argv) for argv in sequence]
    assert build_parser() is build_parser()
    for argv, got in zip(sequence, reused):
        build_parser.cache_clear()
        assert run_cli(capsys, *argv) == got, argv
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 2, 0, 2, 0]
    assert reused[1][1] != reused[0][1] and reused[4][1] != reused[5][1]


def test_repeated_phi_rep_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "code", "--p", "3", "--e", "2", "--n", "4",
                             "--lambda", "-1", "--phi", "1:0,3:0,5:1,7:1,7:0")
    assert (code, out) == (1, "")
    assert err == "error: phi rep 7 given twice\n"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\ne=2\nn=4\nlambda=-1\nwith_weight = true\nfoo = 1\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "params")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: unknown config key foo, with-weight")
    # a key of another subcommand (h, with-weights) still serves this one
    cfg.write_text("p=3\ne=2\nn=4\nlambda=-1\nh = 1\nwith-weights = true\n")
    assert run_cli(capsys, "--config", str(cfg), "params")[0] == 0


def test_search_int_lists_parse_as_flags(tmp_path, capsys):
    search = ["search", "--p-list", "3", "--e-list", "1", "--n-max", "2"]
    for flag in ("--p-list", "--e-list", "--orders", "--h-list"):
        code, out, err = run_cli(capsys, *search, flag, "a")
        assert (code, out) == (2, ""), flag
        assert f"argument {flag}:" in err, flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("orders = a\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), *search)
    assert (code, out) == (2, "") and err.startswith("usage error: ")
    # an empty --orders or --h-list restricts nothing
    full = run_cli(capsys, *search)
    assert full[0] == 0 and full[1]
    assert run_cli(capsys, *search, "--orders", "", "--h-list", "") == full
    cfg.write_text("orders =\nh-list =\n")
    assert run_cli(capsys, "--config", str(cfg), *search) == full


def _parse_text_row(line):
    return dict(cell.split("=", 1) for cell in line.split("  "))


def test_search_rows_follow_lambda_text_not_order(capsys):
    # over GF(13), lambda's text order (1, g^1, g^2, g^3, g^4, g^6) differs
    # from r order (1, 12, 6, 4, 3, 2)
    search = ["search", "--p-list", "13", "--e-list", "1", "--n-max", "6"]
    rows = run_json(capsys, *search)
    by_r = [row["lambda"] for row in sorted(rows, key=lambda row: row["r"])]
    assert by_r != sorted(by_r)
    # the rule rows were once sorted by after they were all built
    key = lambda row: (row["p"], row["e"], row["n"], row["lambda"], row["h"])
    assert [key(row) for row in rows] == sorted(map(key, rows))
    assert len(set(map(key, rows))) == len(rows) == 6 * 6 * 2
    code, out, _ = run_cli(capsys, *search, "--format", "csv")
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(out)))
    code, out, _ = run_cli(capsys, *search, "--format", "text")
    assert code == 0
    text_rows = [_parse_text_row(line) for line in out.splitlines()]
    for other in (csv_rows, text_rows):
        assert [(r["n"], r["lambda"], r["h"]) for r in other] == [
            (str(r["n"]), r["lambda"], str(r["h"])) for r in rows]


def test_full_census_digest(capsys):
    code, out, err = run_cli(capsys, "search", "--p-list", "2,3,5,7,11,13",
                             "--e-list", "1,2,3", "--n-max", "60", "--format", "csv")
    assert code == 0, err
    assert out.count("\n") == 26400 + 1
    assert hashlib.md5(out.encode()).hexdigest() == "300a752ff46b747b89075f15367a9043"
