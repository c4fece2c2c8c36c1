import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

import pytest

from constagalois import cli, derive_params, existence, make_field
from constagalois.cli import build_parser, cmd_search, main, parse_phi
from exhaustive import (census_instances, parse_poly, reference_galois_verdict,
                        reference_lines, reference_search_output)


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


def test_search_weighs_each_shown_witness_once_per_instance(capsys, monkeypatch):
    # at (2, 2, 6, g^1) the code 1:1 is the Galois witness of h = 1 and the
    # iso witness shown at h = 0 and h = 2: one kernel run serves all three
    from constagalois import codes, cosets
    kernel, weight = codes._packed_min_weight, cosets.CosetFunction.weight
    weighed, dims = [], []

    def counted_kernel(code):
        weighed.append(code.phi)  # a coset function is keyed on its params too
        return kernel(code)

    def counted_weight(phi):
        dims.append(phi)
        return weight(phi)

    monkeypatch.setattr(codes, "_packed_min_weight", counted_kernel)
    monkeypatch.setattr(cosets.CosetFunction, "weight", counted_weight)
    code, out, err = run_cli(capsys, "search", "--p-list", "2", "--e-list", "1,2,3",
                             "--n-max", "12", "--with-weights", "--format", "csv")
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    shown = {(row["p"], row["e"], row["n"], row["lambda"], row["phi"])
             for row in rows if row["phi"]}
    assert len(weighed) == len(set(weighed)) == len(shown)
    assert [row["h"] for row in rows if row["phi"] == "1:1"
            and (row["e"], row["n"], row["lambda"]) == ("2", "6", "g^1")] == ["0", "1", "2"]
    # dim is written as n/2: the only weights taken are the built codes' own
    assert dims == weighed
    assert all(int(row["dim"]) * 2 == int(row["n"]) for row in rows if row["phi"])


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


@pytest.mark.parametrize("e,n", [(2, 1), (1, 3)])
def test_extension_field_of_a_prime_above_maxsize_is_a_domain_error(capsys, e, n):
    # GF(p^2) is the base field for e = 2 and the splitting field for n = 3
    code, out, err = run_cli(capsys, "params", "--p", "62864142619960717084721153",
                             "--e", str(e), "--n", str(n), "--lambda", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "sys.maxsize" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("flag, value, message", [
    ("--p-list", "3,4", "not a prime"),
    ("--e-list", "1,0", "degree must be positive"),
    ("--n-min", "0", "length must be positive"),
    ("--h-list", "0,2", "h must lie in [0, e]"),
])
def test_search_errors_come_before_any_output(capsys, flag, value, message):
    # csv would lead with its header; the rows of p = 3 would come first
    argv = {"--p-list": "3", "--e-list": "1", "--n-min": "1", "--n-max": "4"}
    argv[flag] = value
    code, out, err = run_cli(capsys, "search", *itertools.chain(*argv.items()),
                             "--format", "csv")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("p_list, n_min, fmt", [
    ("3", "0", "csv"), ("3", "-2", "text"), ("3,5", "0", "csv"),
])
def test_search_length_is_checked_where_no_lambda_is_kept(capsys, p_list, n_min, fmt):
    # --orders 4 keeps no lambda of GF(3), whose rows would still split
    # every length; GF(5) keeps one
    code, out, err = run_cli(capsys, "search", "--p-list", p_list, "--e-list", "1",
                             "--n-min", n_min, "--n-max", "3", "--orders", "4",
                             "--format", fmt)
    assert (code, out, err) == (1, "", "error: length must be positive\n")


def _cells(line):
    """A json search line's cells in column order."""
    return tuple(json.loads(line).values())


def test_search_is_lazy():
    args = build_parser().parse_args(["search", "--p-list", "2", "--e-list", "1",
                                      "--n-max", "1000000"])
    start = time.process_time()
    first = _cells(next(iter(cmd_search(args)))[0])
    assert time.process_time() - start < 0.5
    assert first[:3] == (2, 1, 1)


CENSUS_PE = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3)]


@pytest.mark.parametrize("orders", [None, "1,2,3,4,6,7,9,12,13,14,16,28"])
def test_search_lambda_orders_are_the_divisors_of_q_minus_1(orders):
    # one lambda per divisor r of q - 1, found here by trial division
    argv = ["search", "--p-list", "2,3,5,7,11,13", "--e-list", "1,2,3",
            "--n-max", "1", "--h-list", "0"]
    if orders:
        argv += ["--orders", orders]
    seen = {}
    for block in cmd_search(build_parser().parse_args(argv)):
        for row in map(_cells, block):
            seen.setdefault(row[:2], []).append(row[4])  # (p, e) -> r
    wanted = set(map(int, orders.split(","))) if orders else None
    for p, e in CENSUS_PE:
        q = p ** e
        divisors = [r for r in range(1, q) if (q - 1) % r == 0
                    and (wanted is None or r in wanted)]
        assert sorted(seen[p, e]) == divisors


def test_search_lambda_orders_of_a_large_field_within_a_cpu_limit(capsys):
    # GF(101^4): trial division over r < q took about 10 s of CPU here
    def over(signum, frame):
        raise TimeoutError("search over GF(101^4) ran past 1 s of CPU")

    previous = signal.signal(signal.SIGPROF, over)
    signal.setitimer(signal.ITIMER_PROF, 1.0)
    try:
        code, out, err = run_cli(capsys, "search", "--p-list", "101", "--e-list", "4",
                                 "--n-max", "1", "--orders", "2", "--format", "csv")
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["lambda"], row["r"]) for row in rows] == [("[100,0,0,0]", "2")] * 5


def test_search_of_a_huge_odd_length_within_a_cpu_limit():
    # every row of n = 10^9 + 7 is written from integers (n' is odd), and
    # the first length is checked at n = 1; deriving the first printed
    # instance walked the powers of q mod n'r, past 20 s of CPU
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    argv = [sys.executable, "-m", "constagalois.cli", "search", "--p-list", "2,3",
            "--e-list", "1", "--n-min", "1000000007", "--n-max", "1000000007",
            "--format", "csv"]

    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (1, 1))

    child = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                           preexec_fn=limit_cpu, env=dict(os.environ, PYTHONPATH=src))
    assert (child.returncode, child.stderr) == (0, "")
    lines = child.stdout.splitlines()
    assert lines[0].startswith("p,e,n,lambda,r,nprime,nu,h,")
    assert lines[1:] == [f"{p},1,1000000007,{lam},{r},1000000007,0,{h},,,,false,"
                         for p, lam, r in ((2, "1", 1), (3, "1", 1), (3, "g^1", 2))
                         for h in (0, 1)]


def test_splitting_field_of_a_prime_near_2_61_within_cpu_and_memory_limits():
    # p = 2^61 - 1 < sys.maxsize: the modulus walk and the generator search
    # hold no range(p), and the search by direction rules out the p - 1
    # multiples of X and the constants as two failed directions; a tuple
    # of range(p) ended in a MemoryError under this address-space limit
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    p = 2 ** 61 - 1
    argv = [sys.executable, "-m", "constagalois.cli", "params", "--p", str(p),
            "--e", "2", "--n", "1", "--lambda", "1"]

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (2, 2))
        resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))

    child = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                           preexec_fn=limit, env=dict(os.environ, PYTHONPATH=src))
    assert (child.returncode, child.stderr) == (0, "")
    record = json.loads(child.stdout)
    assert (record["q"], record["d"], record["big_field"]) == (p * p, 1, f"GF({p}^2)")
    assert record["theta"] == "g^0"


def test_internal_error_mid_search_follows_the_rows_before_it(capsys, monkeypatch):
    import constagalois.cli as cli_module
    families = cli_module.selfdual_families

    def broken(params):
        if params.n == 4:
            raise AssertionError("witness fails")
        return families(params)

    monkeypatch.setattr(cli_module, "selfdual_families", broken)
    # n = 4, r = 2 has n' and r even, so it reaches the record; the
    # lengths before it have n' odd and no family, so they make no call
    code, out, err = run_cli(capsys, "search", "--p-list", "3", "--e-list", "1",
                             "--n-max", "4", "--format", "csv")
    assert (code, err) == (3, "internal error: witness fails\n")
    # the header and the blocks of n = 1, 2, 3: two orders, two h each
    assert ([line.split(",")[2] for line in out.splitlines()[1:]]
            == ["1"] * 4 + ["2"] * 4 + ["3"] * 4)


def test_closed_pipe_ends_without_a_traceback():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    argv = [sys.executable, "-m", "constagalois.cli", "search",
            "--p-list", "2,3,5,7,11,13", "--e-list", "1,2,3", "--n-max", "60",
            "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=src)) as child:
        assert child.stdout.readline().startswith(b"p,e,n,")
        child.stdout.close()  # the reader goes, as `| head -1` does
        err = child.stderr.read()
    assert child.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err


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


# each subcommand's required flags, with a value, in the order main checks them
_PARAMS_ARGV = ["--p", "3", "--e", "2", "--n", "4", "--lambda", "-1"]
_PHI_ARGV = [*_PARAMS_ARGV, "--phi", "1:0,3:0,5:1,7:1"]
REQUIRED_ARGV = {
    "params": _PARAMS_ARGV, "cosets": _PARAMS_ARGV, "factor": _PARAMS_ARGV,
    "code": _PHI_ARGV, "dual": _PHI_ARGV, "check": _PHI_ARGV,
    "exist": _PARAMS_ARGV, "verify": _PARAMS_ARGV,
    "search": ["--p-list", "3", "--e-list", "1", "--n-max", "4"],
}


def test_each_missing_required_flag_is_one_usage_error(capsys):
    parser = build_parser()
    assert set(REQUIRED_ARGV) == set(parser.exact_flags)
    for name, flags in REQUIRED_ARGV.items():
        required = [action.option_strings[0] for action in parser.exact_flags[name][2]]
        assert required == flags[::2], name
        assert run_cli(capsys, name, *flags)[0] == 0, name
        for i in range(0, len(flags), 2):
            argv = [name, *flags[:i], *flags[i + 2:]]
            message = f"usage error: {flags[i]} is required (flag or config file)\n"
            assert run_cli(capsys, *argv) == (2, "", message), argv


def test_config_file_alone_supplies_search_required_flags(tmp_path, capsys):
    cfg = tmp_path / "search.cfg"
    cfg.write_text("p-list = 3\ne-list = 1\nn-max = 4\n")
    flags = run_cli(capsys, "search", *REQUIRED_ARGV["search"], "--format", "csv")
    assert flags[0] == 0 and flags[1]
    assert run_cli(capsys, "--config", str(cfg), "search", "--format", "csv") == flags
    cfg.write_text("p-list = 3\ne-list = 1\n")
    assert run_cli(capsys, "--config", str(cfg), "search") == (
        2, "", "usage error: --n-max is required (flag or config file)\n")


def test_help_says_which_flags_are_required(capsys):
    # argparse requires no flag, so its usage line marks none; the help says
    code, out, _ = run_cli(capsys, "search", "-h")
    assert code == 0
    lines = [" ".join(line.split()) for line in out.splitlines()]
    for flag, help_text in (("--p-list P_LIST", "comma-separated primes"),
                            ("--e-list E_LIST", "comma-separated degrees"),
                            ("--n-max N_MAX", "largest length")):
        assert f"{flag} {help_text} (required)" in lines, flag
    assert sum("(required)" in line for line in lines) == 3
    for name, flags in REQUIRED_ARGV.items():
        for action in build_parser().exact_flags[name][1].values():
            required = action.option_strings[0] in flags[::2]
            assert (action.help or "").endswith(" (required)") == required, (name, action)


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


@pytest.mark.parametrize("argv", [
    ("code", "--p", "3", "--e", "1", "--n", "4", "--lambda", "-1",
     "--phi", "1:1,5:0", "--cap", "-1"),
    ("search", "--p-list", "3", "--e-list", "1", "--n-max", "4",
     "--with-weights", "--cap", "-5", "--format", "csv"),
    ("--cap", "-1", "params", "--p", "3", "--e", "1", "--n", "4", "--lambda", "-1"),
])
def test_negative_cap_flag_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: negative enumeration cap") and err.count("\n") == 1


def test_negative_enum_cap_env_var_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "-3")
    code, out, err = run_cli(capsys, "search", "--p-list", "3", "--e-list", "1",
                             "--n-max", "4", "--with-weights")
    assert code == 2 and out == ""
    assert err == "usage error: negative enumeration cap -3\n"
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "0")
    (record,) = run_json(capsys, "code", "--p", "3", "--e", "1", "--n", "4",
                         "--lambda", "-1", "--phi", "1:1,5:0")
    assert record["min_weight"] is None  # a cap of 0 refuses every nonzero code


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


def test_phi_missing_a_rep_names_the_smallest_one(capsys):
    # GF(3), n = 4, lambda = -1: the reps of 1 + rZ are 1 and 5
    for phi in ("1:1,3:0", "1:1"):
        code, out, err = run_cli(capsys, "code", "--p", "3", "--e", "1", "--n", "4",
                                 "--lambda", "-1", "--phi", phi)
        assert (code, out) == (1, ""), phi
        assert err == "error: phi has no value for coset rep 5 of 1 + rZ\n", phi


def test_phi_key_outside_the_reps_names_the_smallest_one(capsys):
    code, out, err = run_cli(capsys, "code", "--p", "3", "--e", "1", "--n", "4",
                             "--lambda", "-1", "--phi", "7:0,1:1,5:0,3:0")
    assert (code, out) == (1, "")
    assert err == "error: phi rep 3 is not a coset rep of 1 + rZ\n"


def test_non_integer_phi_entry_is_named(capsys):
    # a rep or value that is not an int is a bad entry, as a missing colon is
    for entry in ("1:x", "x:1", "1:1:1", "1"):
        code, out, err = run_cli(capsys, "code", "--p", "3", "--e", "1", "--n", "4",
                                 "--lambda", "-1", "--phi", f"{entry},5:1")
        assert (code, out) == (1, ""), entry
        assert err == f"error: bad phi entry {entry!r}, expected rep:value\n"


def test_malformed_lambda_names_its_text_and_the_grammar(capsys):
    # not int()'s message: the lambda text and the three ways to write one
    for e, text in ((1, "g^x"), (2, "g^x"), (2, "[1,x]"), (2, "[]"), (2, "[1,]"), (1, "x")):
        code, out, err = run_cli(capsys, "exist", "--p", "3", "--e", str(e), "--n", "4",
                                 "--lambda", text)
        assert (code, out) == (1, ""), text
        assert err == (f"error: bad field element {text!r}, expected an integer, "
                       "g^K or [c0,...]\n")


def test_lambda_vector_longer_than_e_names_its_text_and_the_field(capsys):
    # not a bare "too many coefficients": the vector, the field and its e
    for e, text, field, takes in ((2, "[1,2,3]", "GF(3^2)", "2 coefficients"),
                                  (1, "[1,2]", "GF(3)", "1 coefficient")):
        code, out, err = run_cli(capsys, "params", "--p", "3", "--e", str(e), "--n", "4",
                                 "--lambda", text)
        assert (code, out) == (1, ""), text
        assert err == f"error: bad field element {text!r}, {field} takes at most {takes}\n"


def test_non_integer_config_value_names_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for line, message in (("p=x", "config --p takes an integer, not 'x'"),
                          ("n-max = four", "config --n-max takes an integer, not 'four'"),
                          ("orders=a", "config --orders takes comma-separated integers, not 'a'")):
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "search", "--p-list", "3",
                                 "--e-list", "1", "--n-max", "2")
        assert (code, out) == (2, ""), line
        assert err == f"usage error: {message}\n"


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


CENSUS_ARGV = ["search", "--p-list", "2,3,5,7,11,13", "--e-list", "1,2,3", "--n-max", "60"]


@pytest.mark.parametrize("fmt, digest", [("json", "26fc365a79f4e132f4fb6637aced1f2b"),
                                         ("text", "7bd3f0ec6f7e5d37ee9da1887ae54ab4")])
def test_full_census_digest_in_the_other_formats(capsys, fmt, digest):
    code, out, err = run_cli(capsys, *CENSUS_ARGV, "--format", fmt)
    assert code == 0, err
    assert out.count("\n") == 26400
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_search_builds_one_galois_witness_per_action(capsys, monkeypatch):
    # -p^h and -p^h' act alike on q-cosets when one <q>-orbit mod n'r holds
    # both, so the census builds one witness per such orbit of its rows
    actions = 0
    for params in census_instances():
        period, q = params.period, params.q
        orbits = set()
        for h in range(params.e + 1):
            if reference_galois_verdict(params, h).exists:
                t = -(params.p ** h)
                orbits.add(frozenset(t * q ** j % period for j in range(params.d)))
        actions += len(orbits)
    assert actions == 839
    existence.selfdual_families.cache_clear()
    built = spy_galois_witnesses(monkeypatch)
    code, _, err = run_cli(capsys, *CENSUS_ARGV, "--format", "csv")
    assert code == 0, err
    assert len(built) == actions


def spy_galois_witnesses(monkeypatch):
    """The list that every later -p^h witness build appends its (params, t) to."""
    built = []
    witness = existence._witness

    def counting(params, t):
        if t < 0:  # the iso family's multipliers s are positive
            built.append((params, t))
        return witness(params, t)

    monkeypatch.setattr(existence, "_witness", counting)
    return built


def record_values(record):
    """A self-duality record as plain values: labels, s, and the values of
    each witness."""
    def values(phi):
        return None if phi is None else phi.values()

    (label, phi, s), galois = record
    return ((label, values(phi), s), galois and tuple(
        (v.exists, v.matched_condition, values(v.witness_phi)) for v in galois))


def test_search_builds_each_instance_record_once_per_process(capsys, monkeypatch):
    # a second census in one process reads every verdict off the records;
    # each record is built whole when it is made, so it hashes, and no
    # read writes to it
    existence.selfdual_families.cache_clear()
    built = spy_galois_witnesses(monkeypatch)
    code, first, err = run_cli(capsys, *CENSUS_ARGV, "--format", "csv")
    assert code == 0, err
    assert len(built) == 839
    records = {params: existence.selfdual_families(params) for params in census_instances()}
    assert len(records) == 8040
    snapshot = {params: (hash(record), record_values(record))
                for params, record in records.items()}
    built.clear()
    code, second, err = run_cli(capsys, *CENSUS_ARGV, "--format", "csv")
    assert code == 0, err
    assert built == [] and second == first
    for params, record in records.items():
        assert existence.selfdual_families(params) is record, params
        assert (hash(record), record_values(record)) == snapshot[params], params


def spy_derive_params(monkeypatch):
    """The list that every later derive_params call of the CLI appends its
    arguments to."""
    calls = []

    def counting(*args):
        calls.append(args)
        return derive_params(*args)

    monkeypatch.setattr(cli, "derive_params", counting)
    return calls


def test_search_derives_no_params_for_instances_with_no_possible_family(capsys,
                                                                        monkeypatch):
    # 2 670 of the 8 040 instances pass family_possible; the others are
    # written from integers, and each (p, e) checks its first length
    calls = spy_derive_params(monkeypatch)
    code, out, err = run_cli(capsys, *CENSUS_ARGV, "--format", "csv")
    assert code == 0, err
    assert hashlib.md5(out.encode()).hexdigest() == "300a752ff46b747b89075f15367a9043"
    assert len(calls) == 2670 + 18


def test_search_with_max_cosets_derives_every_instance(capsys, monkeypatch):
    # --max-cosets counts the cosets of each instance, so each gets params
    calls = spy_derive_params(monkeypatch)
    code, _, err = run_cli(capsys, *CENSUS_ARGV, "--max-cosets", "4", "--format", "csv")
    assert code == 0, err
    assert len(calls) == 8040 + 18


# a lambda printed [c0,...] (a quoted csv cell), weights with a number and an
# empty d_min, every filter, and instances with no witness, with only an iso
# witness and with Galois witnesses
SEARCH_GRID = [
    ["search", "--p-list", "101", "--e-list", "4", "--n-max", "4", "--orders", "2"],
    ["search", "--p-list", "2,3", "--e-list", "1,2", "--n-max", "8",
     "--with-weights", "--cap", "60"],
    ["search", "--p-list", "3,5,7", "--e-list", "1,2,3", "--n-min", "2", "--n-max", "12",
     "--h-list", "0,1", "--max-cosets", "6", "--max-multiplicity", "3"],
    ["search", "--p-list", "2,3,5,7,11,13", "--e-list", "1,2", "--n-max", "20"],
]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_search_lines_match_the_row_by_row_writers(capsys, fmt):
    for argv in SEARCH_GRID:
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == reference_search_output(argv + ["--format", fmt])


# commas, quotes and line breaks in cells, nested dicts and lists, None,
# both bools, ints, and a later record that lacks keys and adds one
EMIT_RECORDS = [
    {"p": 3, "lambda": "[1,2]", "note": 'say "hi"', "lines": "a\nb",
     "params": {"p": 3, "q": [1, 2], "lambda": "g^2"}, "cosets": [[1, 3], [5]],
     "ok": True, "selfdual": False, "witness": None},
    {"p": 5, "lambda": "g^2", "params": {}, "cosets": [], "ok": False,
     "witness": None, "extra": 7},
]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_emit_writes_dict_records_as_the_stdlib_writers(fmt):
    assert cli.emit(EMIT_RECORDS, fmt) == reference_lines(EMIT_RECORDS, fmt)[:-1]
    assert cli.emit(EMIT_RECORDS[:1], fmt) == reference_lines(EMIT_RECORDS[:1], fmt)[:-1]
    assert cli.emit([], fmt) == ""


def test_emit_quotes_a_lone_carriage_return_in_csv():
    # csv.writer quotes it from Python 3.13 on; the CLI never writes one
    assert cli.emit([{"a": "x\ry", "b": 1}], "csv") == 'a,b\n"x\ry",1'


def test_unknown_format_is_refused():
    for call in (lambda: cli.emit([{"a": 1}], "xml"),
                 lambda: cli.row_split("xml", ["a", "h"], "h")):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            call()


def test_format_choices_are_the_row_styles(capsys, tmp_path):
    # --format takes the keys of cli._ROW_STYLES, in the order json, csv,
    # text that help and error text have always named them in
    assert list(cli._ROW_STYLES) == ["json", "csv", "text"]
    params = ["--p", "3", "--e", "1", "--n", "2", "--lambda", "1"]
    for argv in (["--format", "xml", "params"], ["params", "--format", "xml"]):
        code, _, err = run_cli(capsys, *argv, *params)
        assert code == 2
        assert "invalid choice: 'xml' (choose from 'json', 'csv', 'text')" in err
    assert "[--format {json,csv,text}]" in build_parser().format_help()
    config = tmp_path / "bad.cfg"
    config.write_text("format=xml\n")
    code, _, err = run_cli(capsys, "--config", str(config), "params", *params)
    assert (code, err) == (2, "usage error: config --format takes one of "
                              "['json', 'csv', 'text'], not 'xml'\n")


def test_search_grid_covers_every_kind_of_row(capsys):
    rows = []
    for argv in SEARCH_GRID:
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        rows += csv.DictReader(io.StringIO(out))
        if "--orders" in argv:
            assert ',"[100,0,0,0]",' in out
    d_mins = {row["d_min"] for row in rows if row["phi"]}
    assert "" in d_mins and any(d.isdigit() for d in d_mins)
    witnesses = {}  # instance -> the (phi shown, selfdual) of its rows
    for row in rows:
        key = (row["p"], row["e"], row["n"], row["lambda"])
        witnesses.setdefault(key, set()).add((bool(row["phi"]), row["selfdual"]))
    kinds = {"galois" if (True, "true") in seen else "iso" if (True, "false") in seen
             else "none" for seen in witnesses.values()}
    assert kinds == {"none", "iso", "galois"}
    assert {(False, "false")} in witnesses.values()
    assert {(True, "false")} in witnesses.values()


def test_search_writes_each_head_and_tail_once(capsys, monkeypatch):
    # one head per instance, one tail per distinct witness of an instance,
    # one tail shared by the instances with no witness: never one per row
    heads, tails = [], []
    split = cli.row_split

    def counted(write, calls):
        def counting_write(cells):
            calls.append(cells)
            return write(cells)
        return counting_write

    def counting(*args):
        cell, prefix, suffix = split(*args)
        return cell, counted(prefix, heads), counted(suffix, tails)

    monkeypatch.setattr(cli, "row_split", counting)
    code, out, err = run_cli(capsys, *CENSUS_ARGV, "--format", "csv")
    assert code == 0, err
    instances = {}
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        key = (row["p"], row["e"], row["n"], row["lambda"])
        if row["phi"]:
            instances.setdefault(key, set()).add((row["phi"], row["selfdual"]))
        else:
            instances.setdefault(key, set())
    assert len(heads) == len(instances) == 8040
    assert len(tails) == 1 + sum(map(len, instances.values()))
    assert len(heads) + len(tails) < len(rows) // 2


# each subcommand's flags and the kind of value each takes, as README
# lists them; every subcommand also takes the global flags
_PARAMS_FLAGS = {"--p": "int", "--e": "int", "--n": "int", "--lambda": "text"}
_PHI_H_FLAGS = {**_PARAMS_FLAGS, "--phi": "text", "--h": "int"}
SUBCOMMAND_FLAGS = {
    "params": _PARAMS_FLAGS,
    "cosets": {**_PARAMS_FLAGS, "--s": "int"},
    "factor": _PARAMS_FLAGS,
    "code": {**_PARAMS_FLAGS, "--phi": "text"},
    "dual": _PHI_H_FLAGS,
    "check": _PHI_H_FLAGS,
    "exist": {**_PARAMS_FLAGS, "--h": "int"},
    "search": {"--p-list": "ints", "--e-list": "ints", "--n-min": "int", "--n-max": "int",
               "--orders": "ints", "--h-list": "ints", "--max-cosets": "int",
               "--max-multiplicity": "int", "--with-weights": "flag"},
    "verify": _PHI_H_FLAGS,
}
GLOBAL_FLAGS = {"--format": "format", "--cap": "int", "--config": "text"}
SEARCH_REQUIRED = ["--p-list", "--e-list", "--n-max"]
GOOD_VALUES = {"int": ["3", "0", "-2", "12", "-0"], "ints": ["2,3", "5", "", "1, 2,"],
               "text": ["-1", "g^2", "[1,2]", "1:0,3:1", "a b", ""],
               "format": ["json", "csv", "text"]}
# values argparse may refuse, or read only by its own rules
ODD_VALUES = ["x", "-x", "--", "-", "-1.5", "1.5", "a,b", "xml", "=3", "-h", "--p", "+4"]


def seeded_argvs(count, seed=41):
    """Command lines over every subcommand: exact flags in any order and
    repeated, and every spelling or slip the exact pass leaves to argparse."""
    rng = random.Random(seed)
    for _ in range(count):
        name = rng.choice(list(SUBCOMMAND_FLAGS))
        flags = {**SUBCOMMAND_FLAGS[name], **GLOBAL_FLAGS}
        argv = [] if rng.random() > 0.05 else rng.choice(
            [["--format", "csv"], ["--cap", "9"], ["--config", "x.cfg"], ["--form", "csv"]])
        argv.append(name if rng.random() > 0.02 else rng.choice(["frobnicate", "sea", ""]))
        chosen = [flag for flag in SEARCH_REQUIRED if name == "search" and rng.random() < 0.9]
        chosen += rng.choices(list(flags), k=rng.randint(0, 4))  # repeats allowed
        rng.shuffle(chosen)
        for flag in chosen:
            kind, slip = flags[flag], rng.random()
            value = rng.choice(GOOD_VALUES.get(kind, [""]) if rng.random() < 0.8
                               else ODD_VALUES)
            if slip < 0.04:
                flag = flag[:-1]  # an abbreviation, or "--" for --p
            elif slip < 0.06:
                flag = "--bogus"
            if kind == "flag":
                argv += [flag] if rng.random() < 0.9 else [flag, value]
            elif slip > 0.97:
                argv.append(f"{flag}={value}")
            elif slip > 0.95:
                argv.append(flag)  # its value missing, or the next flag read as it
            else:
                argv += [flag, value]
        if rng.random() < 0.02:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(["-h", "--help", "--"]))
        yield argv


def perfbench_argvs():
    """Census and weights command lines, shaped as perfbench/ops.py builds
    them: every census (p, e) over three windows, and every weights (p, e)
    at two lengths and every lambda order."""
    for p, e in CENSUS_PE:
        for lo, hi in ((1, 30), (11, 40), (41, 60)):
            yield ["search", "--p-list", str(p), "--e-list", str(e),
                   "--n-min", str(lo), "--n-max", str(hi), "--format", "csv"]
    for p in (2, 3, 5, 7):
        for e in (1, 2):
            for n in (1, 24):
                for r in (r for r in range(1, p ** e) if (p ** e - 1) % r == 0):
                    yield ["search", "--p-list", str(p), "--e-list", str(e),
                           "--n-min", str(n), "--n-max", str(n), "--orders", str(r),
                           "--with-weights", "--cap", "4096", "--format", "csv"]


def argparse_vars(parser, argv):
    """vars() of what argparse reads from argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_exact_pass_reads_what_argparse_reads_or_declines():
    from golden.regen import CASES

    parser = build_parser()
    for source, argvs in (("golden", [argv for _, argv in CASES]),
                          ("perfbench", list(perfbench_argvs())),
                          ("seeded", list(seeded_argvs(2000)))):
        answered = 0
        for argv in argvs:
            fast = cli.parse_exact(parser, argv)
            if fast is not None:  # so argparse answers too, and reads the same
                assert vars(fast) == argparse_vars(parser, argv), argv
                answered += 1
            elif source == "perfbench":
                pytest.fail(f"the exact pass declined {argv}")
        assert answered > len(argvs) // 4, (source, answered, len(argvs))
    assert answered < len(argvs) * 3 // 4, answered  # and declines many seeded argvs


def test_exact_flags_skip_argparse_and_other_spellings_do_not(capsys, monkeypatch):
    parser, calls = build_parser(), []
    parse = parser.parse_known_args

    def spy(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", spy)
    weights = ["search", "--p-list", "3", "--e-list", "2", "--n-min", "4", "--n-max", "4",
               "--orders", "2", "--with-weights", "--cap", "4096", "--format", "csv"]
    code, out, err = run_cli(capsys, *weights)
    assert (code, err, len(calls)) == (0, "", 0)
    abbreviated = ["--p-l" if token == "--p-list" else token for token in weights]
    assert run_cli(capsys, *abbreviated) == (code, out, err)
    assert len(calls) == 1
