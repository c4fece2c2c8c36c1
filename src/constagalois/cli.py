"""Command-line front end.

Subcommands mirror the library: params, cosets, factor, code, dual,
check, exist, search, verify.  Output is JSON Lines by default, CSV or
plain text on request; identical invocations produce byte-identical
output because every canonical choice (modulus, generator, theta) is
deterministic.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import List, Optional, Set

from .codes import ConstaCode, _enum_cap, build_code, coset_poly, min_weight
from .cosets import CodeParams, CosetFunction, derive_params, q_cosets, s_orbits
from .duality import galois_dual, is_galois_selfdual, is_iso_galois_selfdual
from .existence import (duadic_exists, euclidean_selfdual_exists,
                        galois_selfdual_exists, hermitian_selfdual_exists,
                        iso_selfdual_exists, iso_selfdual_family)
from .gf import format_element, make_field
from .oracle import brute_dual, brute_equal_codes, dual_basis, naive_cosets, spans_equal
from .polyring import format_poly, poly_to_json

CSV_COLUMNS = ["p", "e", "n", "lambda", "r", "nprime", "nu", "h",
               "phi", "dim", "d_min", "selfdual", "iso_witness"]


# ---------------------------------------------------------------------------
# input grammar
# ---------------------------------------------------------------------------

def parse_phi(params: CodeParams, text: str, residue: int = 1) -> CosetFunction:
    """Parse "rep:value,rep:value,..." into a coset function."""
    assignment = {}
    for chunk in text.split(","):
        rep, _, value = chunk.partition(":")
        if not _:
            raise ValueError(f"bad phi entry {chunk!r}, expected rep:value")
        key = int(rep)
        if key in assignment:
            raise ValueError(f"phi rep {key} given twice")
        assignment[key] = int(value)
    return CosetFunction(params, assignment, residue)


def parse_int_set(text: str) -> Set[int]:
    return {int(x) for x in text.split(",") if x.strip()}


def load_config(path: str) -> dict:
    """Flat key=value file; keys are the long flag names."""
    values = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if not _:
                raise ValueError(f"bad config line {line!r}, expected key=value")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def params_from_args(args) -> CodeParams:
    for flag in ("p", "e", "n", "lam"):
        if getattr(args, flag, None) is None:
            name = "lambda" if flag == "lam" else flag
            raise UsageError(f"--{name} is required (flag or config file)")
    return derive_params(args.p, args.e, args.n, args.lam)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def emit(records: List[dict], fmt: str, columns: Optional[List[str]] = None) -> str:
    if fmt == "json":
        return "\n".join(json.dumps(r) for r in records)
    if fmt == "csv":
        cols = columns or (list(records[0].keys()) if records else [])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([_csv_cell(r.get(c)) for c in cols] for r in records)
        return buf.getvalue().rstrip("\n")
    if fmt == "text":
        return "\n".join("  ".join(f"{k}={_csv_cell(v)}" for k, v in r.items())
                         for r in records)
    raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return value


def phi_text(phi: Optional[CosetFunction]) -> str:
    if phi is None:
        return ""
    return ",".join(f"{k}:{v}" for k, v in phi.assignment.items())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_params(args) -> List[dict]:
    params = params_from_args(args)
    record = params.to_json()
    record["big_field"] = repr(params.big_field)
    record["theta"] = f"g^{params.theta_dlog}"
    return [record]


def cmd_cosets(args) -> List[dict]:
    params = params_from_args(args)
    record = {
        "params": params.to_json(),
        "cosets": [list(Q.members) for Q in q_cosets(params, 1)],
    }
    if args.s is not None:
        orbits = s_orbits(params, int(args.s))
        record["s"] = int(args.s)
        record["orbits"] = [[Q.rep for Q in orbit] for orbit in orbits]
    return [record]


def cmd_factor(args) -> List[dict]:
    params = params_from_args(args)
    records = []
    for Q in q_cosets(params, 1):
        poly = coset_poly(params, Q)
        records.append({
            "rep": Q.rep,
            "members": list(Q.members),
            "poly": format_poly(poly),
            "coeffs": poly_to_json(poly),
        })
    return records


def _code_from_args(args) -> ConstaCode:
    """The code of --phi under the params flags (code, dual, check)."""
    params = params_from_args(args)
    if not args.phi:
        raise UsageError("--phi is required (flag or config file)")
    return build_code(params, parse_phi(params, args.phi))


def cmd_code(args) -> List[dict]:
    return [_code_from_args(args).to_json(cap=args.cap, with_weight=True)]


def cmd_dual(args) -> List[dict]:
    dual = galois_dual(_code_from_args(args), args.h)
    record = dual.to_json(cap=args.cap, with_weight=True)
    record["h"] = args.h
    record["lambda_power"] = format_element(dual.unit)
    return [record]


def cmd_check(args) -> List[dict]:
    code = _code_from_args(args)
    cert = is_galois_selfdual(code, args.h)
    cert = cert._replace(iso_witness=is_iso_galois_selfdual(code, args.h))
    return [cert.to_json()]


def cmd_exist(args) -> List[dict]:
    params = params_from_args(args)
    record = {
        "params": params.to_json(),
        "h": args.h,
        "galois": galois_selfdual_exists(params, args.h).to_json(),
        "iso": iso_selfdual_exists(params, args.h).to_json(),
        "euclidean": euclidean_selfdual_exists(params).to_json(),
        "hermitian": hermitian_selfdual_exists(params).to_json(),
        "duadic": duadic_exists(params).to_json(),
    }
    return [record]


def cmd_search(args) -> List[dict]:
    """Census rows in output order: (p, e, n, lambda text, h)."""
    wanted, h_set = args.orders or None, args.h_list or None  # empty: no restriction
    max_cosets, max_mult = args.max_cosets, args.max_multiplicity
    rows = []
    for p in sorted(args.p_list):
        for e in sorted(args.e_list):
            q = p ** e
            field = make_field(p, e)
            # one lambda per order r | q - 1: g^((q-1)/r), in the order of its text
            powers = (field.generator ** ((q - 1) // r) for r in range(1, q)
                      if (q - 1) % r == 0 and (wanted is None or r in wanted))
            lams = sorted({format_element(lam): lam for lam in powers}.items())
            hs = range(e + 1) if h_set is None else sorted(h_set)
            for n in range(args.n_min, args.n_max + 1):
                for lam_text, lam in lams:
                    params = derive_params(p, e, n, lam)
                    if max_cosets is not None and len(q_cosets(params, 1)) > max_cosets:
                        continue
                    if max_mult is not None and params.mult_cap > max_mult:
                        continue
                    head = {"p": p, "e": e, "n": n, "lambda": lam_text, "r": params.r,
                            "nprime": params.nprime, "nu": params.nu}
                    _, iso_phi, iso_witness = iso_selfdual_family(params)
                    for h in hs:
                        verdict = galois_selfdual_exists(params, h)
                        phi = verdict.witness_phi or iso_phi
                        d_min = None
                        if phi is not None and args.with_weights:
                            try:
                                d_min = min_weight(build_code(params, phi), args.cap)
                            except ValueError:
                                pass
                        rows.append({**head, "h": h, "phi": phi_text(phi),
                                     "dim": phi.weight() if phi else None,
                                     "d_min": d_min, "selfdual": verdict.exists,
                                     "iso_witness": iso_witness})
    return rows


def cmd_verify(args) -> List[dict]:
    params = params_from_args(args)
    checks = {}
    checks["cosets_match_naive"] = (
        [list(Q.members) for Q in q_cosets(params, 1)]
        == [list(t) for t in naive_cosets(params, 1)])
    if args.phi:
        code = _code_from_args(args)
        dual = galois_dual(code, args.h)
        closed_rows = dual.generator_rows()
        brute_rows = dual_basis(code, args.h)
        checks["dual_matches_oracle_span"] = spans_equal(
            params.field, closed_rows, brute_rows)
        if params.q ** params.n <= args.cap:
            words = brute_dual(code, args.h, args.cap)
            checks["dual_matches_oracle_set"] = brute_equal_codes(words, dual, args.cap)
            cert = is_galois_selfdual(code, args.h)
            checks["selfdual_matches_oracle"] = (
                cert.selfdual == brute_equal_codes(words, code, args.cap))
    record = {"params": params.to_json(), "h": args.h, "checks": checks,
              "ok": all(checks.values())}
    return [record]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


_PARAMS_FLAGS = (  # not argparse-required so --config files can supply them
    ("--p", dict(type=int, help="characteristic prime")),
    ("--e", dict(type=int, help="extension degree, q = p^e")),
    ("--n", dict(type=int, help="code length")),
    ("--lambda", dict(dest="lam", help='unit: "1", "-1", "g^K", or "[c0,...,c_{e-1}]"')),
)
_H_FLAG = ("--h", dict(type=int, default=0))


def _make_parser(config: dict) -> argparse.ArgumentParser:
    """The CLI parser with the values of a config file (``load_config``
    keys) as defaults, so an explicit flag wins in any spelling."""
    parser = argparse.ArgumentParser(
        prog="constagalois",
        description="constacyclic codes over GF(p^e) under Galois inner products")
    known = _add_flags(parser, config, (
        ("--config", dict(help="flat key=value file with default flags")),
        ("--format", dict(choices=["json", "csv", "text"], default="json")),
        ("--cap", dict(type=int, default=None,
                       help="codeword enumeration cap (default 2^20, or "
                            "CONSTAGALOIS_ENUM_CAP)"))))
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags, params=True):
        sub = subs.add_parser(name, help=help)
        known.update(_add_flags(sub, config, (_PARAMS_FLAGS if params else ()) + flags))
        # duplicated on each subcommand (SUPPRESS keeps the global defaults)
        sub.add_argument("--format", choices=["json", "csv", "text"],
                         default=argparse.SUPPRESS)
        sub.add_argument("--cap", type=int, default=argparse.SUPPRESS)
        sub.add_argument("--config", default=argparse.SUPPRESS)
        sub.set_defaults(func=func)

    command("params", cmd_params, "derived parameters incl. theta")
    command("cosets", cmd_cosets, "q-coset table and optional s-orbits",
            ("--s", dict(type=int, default=None, help="multiplier for orbits")))
    command("factor", cmd_factor, "irreducible factor for every coset")
    command("code", cmd_code, "build the code of a coset function",
            ("--phi", dict(help='coset function "rep:val,..."')))
    command("dual", cmd_dual, "the p^h-dual code", ("--phi", {}), _H_FLAG)
    command("check", cmd_check, "self-duality certificate", ("--phi", {}), _H_FLAG)
    command("exist", cmd_exist, "existence predicates", _H_FLAG)
    command("search", cmd_search, "grid census of self-dual families",
            ("--p-list", dict(required=True, type=parse_int_set,
                              help="comma-separated primes")),
            ("--e-list", dict(required=True, type=parse_int_set,
                              help="comma-separated degrees")),
            ("--n-min", dict(type=int, default=1)),
            ("--n-max", dict(type=int, required=True)),
            ("--orders", dict(default=None, type=parse_int_set,
                              help="restrict lambda orders")),
            ("--h-list", dict(default=None, type=parse_int_set,
                              help="restrict h values")),
            ("--max-cosets", dict(type=int, default=None)),
            ("--max-multiplicity", dict(type=int, default=None,
                                        help="skip instances with p^nu above this")),
            ("--with-weights", dict(action="store_true",
                                    help="compute exact minimum weights (enumerative)")),
            params=False)
    command("verify", cmd_verify, "cross-check closed forms vs oracle",
            ("--phi", dict(default=None)), _H_FLAG)
    unknown = sorted(key.replace("_", "-") for key in set(config) - known)
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}")
    return parser


def _add_flags(parser, config: dict, flags) -> Set[str]:
    """Add each (flag, options) pair; the flag's config value becomes its
    default, converted as its action converts a command-line value.
    Returns the config keys of the flags."""
    keys = set()
    for flag, options in flags:
        action = parser.add_argument(flag, **options)
        key = flag[2:].replace("-", "_")
        keys.add(key)
        text = config.get(key)
        if text is None:
            continue
        if action.nargs == 0:  # store_true
            if text not in ("true", "false"):
                raise ValueError(f"config {flag} takes true or false, not {text!r}")
            value = text == "true"
        else:
            value = action.type(text) if action.type else text
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"config {flag} takes one of {action.choices}, not {text!r}")
        parser.set_defaults(**{action.dest: value})
    return keys


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    return _make_parser({})


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            args = _make_parser(load_config(args.config)).parse_args(argv)
        if args.cap is None:
            args.cap = _enum_cap(None)
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        records = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # a broken invariant of the library itself
        detail = " ".join(str(exc).split()) or "assertion failed"
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
    columns = CSV_COLUMNS if args.command == "search" else None
    out = emit(records, args.format, columns)
    if out:
        print(out)
    if args.command == "verify" and not all(r["ok"] for r in records):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
