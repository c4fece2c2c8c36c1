#!/usr/bin/env python3
"""Record or check the golden CLI corpus in ``corpus.json``.

Each case is one ``constagalois`` invocation, run in-process through
``cli.main`` with this directory as the working directory (so the
``--config`` cases find their files) and ``CONSTAGALOIS_ENUM_CAP``
unset.  The corpus stores its argv, exit code and exact stdout.

    python tests/golden/regen.py           # compare; exit 1 on any difference
    python tests/golden/regen.py --write   # record the CASES not yet in corpus.json

``--write`` appends a record for each ``CASES`` entry whose name is not
in the corpus and leaves the recorded ones byte-identical; to re-record
a case whose output is meant to change, delete its entry first.  The
check fails on a differing record and on a ``CASES`` entry with no
record.

Run from the repository root (``src/`` is put on the path); standard
library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.json")

# The four worked examples of the acceptance suite.
EX1 = ["--p", "2", "--e", "2", "--n", "2", "--lambda", "g^2"]        # GF(4), n = 2
EX2 = ["--p", "3", "--e", "4", "--n", "12", "--lambda", "g^20"]      # GF(81), n = 12
EX3 = ["--p", "3", "--e", "2", "--n", "4", "--lambda", "-1"]         # GF(9), n = 4
EX4 = ["--p", "5", "--e", "2", "--n", "26", "--lambda", "-1"]        # GF(25), n = 26
# GF(65537): q > 2^16, so no dlog table; theta comes from theta^n = lambda
GF65537 = ["--p", "65537", "--e", "1", "--n", "2", "--lambda", "-1"]
GF65537_N4 = ["--p", "65537", "--e", "1", "--n", "4", "--lambda", "-1"]
PHI2 = "1:1,5:2,9:1,13:2"
PHI3 = "1:0,3:0,5:1,7:1"
PHI_GF8_N14 = "0:1,1:2,2:0,3:1,4:0,5:2,6:1"  # nu = 1: multiplicities up to 2
PHI4 = "1:0,3:0,5:0,7:0,9:1,11:0,13:0,27:1,29:1,31:1,33:0,35:1,37:1,39:1"

CASES = [
    ("params_ex4", ["params", *EX4]),
    ("params_ex2_text", ["--format", "text", "params", *EX2]),
    ("params_ex1_csv", ["params", *EX1, "--format", "csv"]),
    ("params_vector_lambda", ["params", "--p", "3", "--e", "2", "--n", "8",
                              "--lambda", "[1,2]"]),
    ("cosets_big_field_vector_lambda", ["cosets", "--p", "257", "--e", "2",
                                        "--n", "3", "--lambda", "[0,1]"]),
    ("cosets_ex4_s_minus5", ["cosets", *EX4, "--s", "-5"]),
    ("cosets_ex4_s_minus1_csv", ["cosets", *EX4, "--s", "-1", "--format", "csv"]),
    ("factor_ex1", ["factor", *EX1]),
    ("factor_ex2_text", ["factor", *EX2, "--format", "text"]),
    ("code_ex1", ["code", *EX1, "--phi", "1:1"]),
    ("code_ex3_csv", ["code", *EX3, "--phi", PHI3, "--format", "csv"]),
    ("code_ex2_over_cap", ["code", *EX2, "--phi", PHI2, "--cap", "100"]),
    ("dual_ex2_h1", ["dual", *EX2, "--phi", PHI2, "--h", "1"]),
    ("dual_ex3_h1_text", ["dual", *EX3, "--phi", PHI3, "--h", "1", "--format", "text"]),
    ("check_ex2_h1", ["check", *EX2, "--phi", PHI2, "--h", "1"]),
    ("check_ex2_h2", ["check", *EX2, "--phi", PHI2, "--h", "2"]),
    ("check_ex4_h1", ["check", *EX4, "--phi", PHI4, "--h", "1"]),
    ("exist_ex1_h1", ["exist", *EX1, "--h", "1"]),
    ("exist_ex2_h3", ["exist", *EX2, "--h", "3"]),
    ("exist_ex4_text", ["exist", *EX4, "--format", "text"]),
    ("exist_p7_negacyclic", ["exist", "--p", "7", "--e", "1", "--n", "8",
                             "--lambda", "-1"]),
    ("search_small_json", ["search", "--p-list", "2,3", "--e-list", "1,2",
                           "--n-max", "8"]),
    ("search_csv", ["search", "--p-list", "3,5,7", "--e-list", "1,2",
                    "--n-max", "20", "--format", "csv"]),
    ("search_text_max_multiplicity", ["search", "--p-list", "2,3", "--e-list", "2",
                                      "--n-min", "4", "--n-max", "12",
                                      "--max-multiplicity", "3", "--format", "text"]),
    ("search_weights_gf9", ["search", "--p-list", "3", "--e-list", "2",
                            "--n-max", "12", "--with-weights", "--cap", "4096",
                            "--format", "csv"]),
    ("search_gf2197", ["search", "--p-list", "13", "--e-list", "3",
                       "--n-max", "26", "--orders", "1,2,4,6,12",
                       "--h-list", "0,1,3", "--max-cosets", "12",
                       "--with-weights", "--format", "csv"]),
    ("verify_ex3_h0", ["verify", *EX3, "--phi", PHI3, "--h", "0"]),
    ("verify_ex1_h1", ["verify", *EX1, "--phi", "1:1", "--h", "1"]),
    ("verify_ex4_cosets", ["verify", *EX4]),
    ("config_params", ["--config", "example.cfg", "params"]),
    ("config_flag_wins", ["--config", "example.cfg", "exist", "--n", "8"]),
    ("error_missing_p", ["params", "--e", "2", "--n", "4", "--lambda", "-1"]),
    ("error_bad_phi", ["code", *EX3, "--phi", "1:0,3:0"]),
    ("error_h_range", ["exist", *EX3, "--h", "5"]),
    ("error_zero_lambda", ["params", "--p", "3", "--e", "2", "--n", "4",
                           "--lambda", "0"]),
    ("error_unknown_command", ["frobnicate"]),
    ("error_repeated_phi_rep", ["code", *EX3, "--phi", PHI3 + ",7:0"]),
    ("error_unknown_config_key", ["--config", "unknown_key.cfg", "params"]),
    ("params_gf65537_no_dlog", ["params", *GF65537]),
    ("factor_gf65537_no_dlog", ["factor", *GF65537_N4]),
    ("code_gf65537_no_dlog", ["code", *GF65537_N4, "--phi", "1:1,3:0,5:1,7:0"]),
    # e >= 3 with h != e - h, so a dual read off its source code must take
    # the Frobenius power p^(e-h), not p^h; the second has repeated roots
    ("dual_ex2_h3", ["dual", *EX2, "--phi", PHI2, "--h", "3"]),
    ("dual_gf8_repeated_root_h1", ["dual", "--p", "2", "--e", "3", "--n", "14",
                                   "--lambda", "1", "--phi", PHI_GF8_N14, "--h", "1"]),
    # coset polynomials over a prime field: sectioning GF(10007^2) -> GF(10007)
    ("factor_gf10007_prime_section", ["factor", "--p", "10007", "--e", "1",
                                      "--n", "3", "--lambda", "1"]),
    # GF(2^29): factoring 2^29 - 1 = 233 * 1103 * 2089 takes Brent's rho, and
    # the packed ring's Frobenius matrix is built for the generator search
    ("params_gf2e29_nu1", ["params", "--p", "2", "--e", "29", "--n", "2",
                           "--lambda", "1"]),
    # p = 13 * 2^82 + 1, above the Miller-Rabin bound PSI_13, so primality
    # takes the strong Lucas half of Baillie-PSW; the prime field's elements
    # are walked lazily (a tuple of range(p) overflows)
    ("params_prime_above_psi13", ["params", "--p", "62864142619960717084721153",
                                  "--e", "1", "--n", "2", "--lambda", "-1"]),
    # GF(101^4): the lambda orders come from the factored group order
    # 101^4 - 1, not from trial division over every r < q
    ("search_gf101e4_order2", ["search", "--p-list", "101", "--e-list", "4",
                               "--n-max", "1", "--orders", "2", "--format", "csv"]),
    # --max-cosets 0 drops every instance, so no row ever reaches a verdict:
    # an h outside [0, e] is still refused up front, not answered with no rows
    # n'r = 64 and d = 8: 32 multipliers s = 1 mod 2 in four q-cosets, so
    # the smallest witness is the least member of the first passing coset
    ("check_p3_n32_multiplier_actions", ["check", "--p", "3", "--e", "2", "--n", "32",
                                         "--lambda", "-1", "--phi", PHI3, "--h", "1"]),
    ("error_search_h_range_all_filtered", ["search", "--p-list", "2", "--e-list", "1",
                                           "--n-max", "3", "--h-list", "5",
                                           "--max-cosets", "0", "--format", "csv"]),
    # packed splitting fields GF(7^6) and GF(2^12) with e > 1 and d > 1: a
    # coset's roots step by the q-power Frobenius, a power e != 1 of x -> x^p
    ("factor_gf7e6_packed_frobenius", ["factor", "--p", "7", "--e", "2", "--n", "19",
                                       "--lambda", "-1"]),
    ("factor_gf2e12_packed_frobenius_csv", ["factor", "--p", "2", "--e", "3",
                                            "--n", "45", "--lambda", "1",
                                            "--format", "csv"]),
    # a negative cap is a usage error before the header or any row
    ("error_search_negative_cap", ["search", "--p-list", "3", "--e-list", "1",
                                   "--n-max", "4", "--with-weights", "--cap", "-5",
                                   "--format", "csv"]),
    # characteristic 2 with weights: at (2, 2, 6, g^1) the Galois witness of
    # h = 1 is the iso witness shown at h = 0 and h = 2, so one code is
    # shown on three rows of one instance
    ("search_weights_char2_csv", ["search", "--p-list", "2", "--e-list", "1,2,3",
                                  "--n-max", "12", "--with-weights", "--format", "csv"]),
    # p above sys.maxsize: GF(p^2), as the base field and as the splitting
    # field, is refused with a domain error (the modulus walk takes range(p)
    # as a tuple)
    ("error_prime_above_maxsize_e2", ["params", "--p", "62864142619960717084721153",
                                      "--e", "2", "--n", "1", "--lambda", "1"]),
    ("error_prime_above_maxsize_splitting", ["params", "--p", "62864142619960717084721153",
                                             "--e", "1", "--n", "3", "--lambda", "1"]),
    # --orders 3 keeps no lambda of GF(3), yet the rows would split every
    # length: a length below 1 is refused before the csv header
    ("error_search_length_no_lambda_kept", ["search", "--p-list", "3", "--e-list", "1",
                                            "--n-min", "0", "--n-max", "3",
                                            "--orders", "3", "--format", "csv"]),
    # a phi value, or a config value, that is not an integer is a domain or
    # usage error that names the entry or the flag
    ("error_phi_value_not_int", ["code", "--p", "3", "--e", "1", "--n", "4",
                                 "--lambda", "-1", "--phi", "1:x,5:1"]),
    ("error_config_value_not_int", ["--config", "non_int.cfg", "params"]),
    ("error_config_list_not_ints", ["--config", "non_int_list.cfg", "search",
                                    "--p-list", "3", "--e-list", "1", "--n-max", "2"]),
    # a lambda that is not an integer, g^K or [c0,...] is a domain error
    ("error_lambda_power_not_int", ["exist", "--p", "3", "--e", "1", "--n", "4",
                                    "--lambda", "g^x"]),
    ("error_lambda_vector_not_ints", ["params", "--p", "3", "--e", "2", "--n", "4",
                                      "--lambda", "[1,x]"]),
    # spellings that only argparse reads: an "=" value, an abbreviated flag
    # and a global flag before the subcommand
    ("search_format_equals_csv", ["search", "--p-list", "3", "--e-list", "1,2",
                                  "--n-max", "6", "--format=csv"]),
    ("search_abbreviated_flag", ["search", "--p-l", "2,3", "--e-list", "1",
                                 "--n-max", "6", "--format", "csv"]),
    ("search_global_format_first", ["--format", "csv", "search", "--p-list", "5",
                                    "--e-list", "1", "--n-max", "6"]),
    # a lambda vector with more coefficients than e is a domain error
    ("error_lambda_vector_too_long", ["params", "--p", "3", "--e", "2", "--n", "4",
                                      "--lambda", "[1,2,3]"]),
    # both filters beside the instances that cannot have a self-dual family:
    # --max-cosets counts the cosets of every instance, --max-multiplicity
    # compares p^nu
    ("search_max_cosets_csv", ["search", "--p-list", "2,3,5,7", "--e-list", "1,2",
                               "--n-max", "16", "--max-cosets", "3", "--format", "csv"]),
    ("search_max_multiplicity_json", ["search", "--p-list", "2,3,5,7", "--e-list", "1,2",
                                      "--n-max", "16", "--max-multiplicity", "1",
                                      "--format", "json"]),
    # one exist case per label the cases above never print: (ii) for
    # p = 1 mod 4, (iii) for p = 3 mod 4 with e even, (i) with lambda = 1,
    # an instance the integer gate rules out (n' odd), and one that passes
    # the gate (n' = r = 4) with no label
    ("exist_p5_e2_label_ii", ["exist", "--p", "5", "--e", "2", "--n", "4",
                              "--lambda", "-1", "--h", "1"]),
    ("exist_p3_e2_label_iii", ["exist", "--p", "3", "--e", "2", "--n", "4",
                               "--lambda", "-1", "--h", "0"]),
    ("exist_p2_e2_cyclic_label_i", ["exist", "--p", "2", "--e", "2", "--n", "4",
                                    "--lambda", "1", "--h", "1"]),
    ("exist_p3_n3_gate_rules_out", ["exist", "--p", "3", "--e", "1", "--n", "3",
                                    "--lambda", "-1", "--h", "0"]),
    ("exist_p5_r4_past_gate_no_label", ["exist", "--p", "5", "--e", "1", "--n", "4",
                                        "--lambda", "g^1", "--h", "0"]),
    # --orders 3 keeps no lambda of GF(3), so no row reaches a verdict and
    # an h outside [0, e] is not checked: the header alone
    ("search_no_lambda_kept_h_out_of_range", ["search", "--p-list", "3", "--e-list", "1",
                                              "--n-max", "3", "--orders", "3",
                                              "--h-list", "5", "--format", "csv"]),
    # n = 10^9 + 7 is odd and prime, so every row is written from integers
    # and the first length is checked at n = 1, with no splitting degree
    ("search_huge_odd_length", ["search", "--p-list", "2,3", "--e-list", "1",
                                "--n-min", "1000000007", "--n-max", "1000000007",
                                "--format", "csv"]),
]


def run_case(argv):
    """(exit code, stdout) of one in-process CLI run, from this directory."""
    from constagalois import cli

    saved_cwd = os.getcwd()
    saved_cap = os.environ.pop("CONSTAGALOIS_ENUM_CAP", None)
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(HERE)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(saved_cwd)
        if saved_cap is not None:
            os.environ["CONSTAGALOIS_ENUM_CAP"] = saved_cap
    return code, out.getvalue()


def load_corpus():
    with open(CORPUS) as handle:
        return json.load(handle)


def main(argv) -> int:
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
    records = load_corpus()
    recorded = {record["name"] for record in records}
    missing = [(name, case_argv) for name, case_argv in CASES if name not in recorded]
    if "--write" in argv:
        for name, case_argv in missing:
            code, out = run_case(case_argv)
            records.append({"name": name, "argv": case_argv, "exit": code,
                            "stdout": out})
        with open(CORPUS, "w") as handle:
            json.dump(records, handle, indent=1)
            handle.write("\n")
        print(f"recorded {len(missing)} new cases, {len(records)} in {CORPUS}")
        return 0
    bad = 0
    for record in records:
        code, out = run_case(record["argv"])
        if (code, out) != (record["exit"], record["stdout"]):
            bad += 1
            print(f"DIFFERS: {record['name']}")
    for name, _ in missing:
        print(f"NOT RECORDED: {name}")
    print(f"{bad} of the {len(records)} recorded cases differ, "
          f"{len(missing)} cases not recorded")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
