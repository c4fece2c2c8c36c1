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
from typing import List, Optional

from .codes import _enum_cap, build_code, coset_poly, min_weight
from .cosets import CodeParams, CosetFunction, derive_params, q_cosets, s_orbits
from .duality import galois_dual, is_galois_selfdual, is_iso_galois_selfdual
from .existence import (duadic_exists, euclidean_selfdual_exists,
                        galois_selfdual_exists, hermitian_selfdual_exists,
                        iso_selfdual_exists, iso_selfdual_family)
from .gf import format_element, make_field
from .oracle import brute_dual, dual_basis, naive_cosets, spans_equal
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
        assignment[int(rep)] = int(value)
    return CosetFunction(params, assignment, residue)


def parse_int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip()]


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
    return derive_params(int(args.p), int(args.e), int(args.n), args.lam)


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
        for r in records:
            writer.writerow([_csv_cell(r.get(c)) for c in cols])
        return buf.getvalue().rstrip("\n")
    if fmt == "text":
        lines = []
        for r in records:
            lines.append("  ".join(f"{k}={_csv_cell(v)}" for k, v in r.items()))
        return "\n".join(lines)
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


def cmd_code(args) -> List[dict]:
    params = params_from_args(args)
    if not args.phi:
        raise UsageError("--phi is required (flag or config file)")
    phi = parse_phi(params, args.phi)
    code = build_code(params, phi)
    return [code.to_json(cap=args.cap, with_weight=True)]


def cmd_dual(args) -> List[dict]:
    params = params_from_args(args)
    if not args.phi:
        raise UsageError("--phi is required (flag or config file)")
    phi = parse_phi(params, args.phi)
    code = build_code(params, phi)
    dual = galois_dual(code, args.h)
    record = dual.to_json(cap=args.cap, with_weight=True)
    record["h"] = args.h
    record["lambda_power"] = format_element(dual.unit)
    return [record]


def cmd_check(args) -> List[dict]:
    params = params_from_args(args)
    if not args.phi:
        raise UsageError("--phi is required (flag or config file)")
    phi = parse_phi(params, args.phi)
    code = build_code(params, phi)
    cert = is_galois_selfdual(code, args.h)
    cert.iso_witness = is_iso_galois_selfdual(code, args.h)
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


def _divisors(k: int) -> List[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def cmd_search(args) -> List[dict]:
    ps = parse_int_list(args.p_list)
    es = parse_int_list(args.e_list)
    wanted = set(parse_int_list(args.orders)) if args.orders else None
    h_list = parse_int_list(args.h_list) if args.h_list else None
    rows = []
    for p in sorted(ps):
        for e in sorted(es):
            q = p ** e
            field = make_field(p, e)
            # one lambda per order r: g^((q-1)/r)
            lams = [field.generator ** ((q - 1) // r) for r in _divisors(q - 1)
                    if wanted is None or r in wanted]
            hs = range(e + 1) if h_list is None else h_list
            for n in range(args.n_min, args.n_max + 1):
                for lam in lams:
                    params = derive_params(p, e, n, lam)
                    if args.max_cosets and len(q_cosets(params, 1)) > args.max_cosets:
                        continue
                    if args.max_multiplicity and p ** params.nu > args.max_multiplicity:
                        continue
                    for h in hs:
                        rows.append(_search_row(params, h, args))
    rows.sort(key=lambda r: (r["p"], r["e"], r["n"], r["lambda"], r["h"]))
    return rows


def _search_row(params: CodeParams, h: int, args) -> dict:
    verdict = galois_selfdual_exists(params, h)
    iso = iso_selfdual_exists(params, h)
    _, _, iso_witness = iso_selfdual_family(params)
    phi = verdict.witness_phi or iso.witness_phi
    dim = phi.weight() if phi else None
    d_min = None
    if phi is not None and args.with_weights:
        try:
            d_min = min_weight(build_code(params, phi), args.cap)
        except ValueError:
            d_min = None
    return {
        "p": params.p, "e": params.e, "n": params.n,
        "lambda": format_element(params.lam), "r": params.r,
        "nprime": params.nprime, "nu": params.nu, "h": h,
        "phi": phi_text(phi), "dim": dim, "d_min": d_min,
        "selfdual": verdict.exists, "iso_witness": iso_witness,
    }


def cmd_verify(args) -> List[dict]:
    params = params_from_args(args)
    checks = {}
    checks["cosets_match_naive"] = (
        [list(Q.members) for Q in q_cosets(params, 1)]
        == [list(t) for t in naive_cosets(params, 1)])
    if args.phi:
        phi = parse_phi(params, args.phi)
        code = build_code(params, phi)
        dual = galois_dual(code, args.h)
        closed_rows = dual.generator_rows()
        brute_rows = dual_basis(code, args.h)
        checks["dual_matches_oracle_span"] = spans_equal(
            params.field, closed_rows, brute_rows)
        if params.q ** params.n <= args.cap:
            words = brute_dual(code, args.h, args.cap)
            checks["dual_matches_oracle_set"] = (
                words == set(dual.codewords(args.cap)))
            cert = is_galois_selfdual(code, args.h)
            checks["selfdual_matches_oracle"] = (
                cert.selfdual == (words == set(code.codewords(args.cap))))
    record = {"params": params.to_json(), "h": args.h, "checks": checks,
              "ok": all(checks.values())}
    return [record]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


def _add_params_flags(sub):
    # not argparse-required so --config files can supply them
    sub.add_argument("--p", type=int, help="characteristic prime")
    sub.add_argument("--e", type=int, help="extension degree, q = p^e")
    sub.add_argument("--n", type=int, help="code length")
    sub.add_argument("--lambda", dest="lam",
                     help='unit: "1", "-1", "g^K", or "[c0,...,c_{e-1}]"')


def _add_output_flags(sub):
    # duplicated on each subcommand (SUPPRESS keeps the global defaults)
    sub.add_argument("--format", choices=["json", "csv", "text"],
                     default=argparse.SUPPRESS)
    sub.add_argument("--cap", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--config", default=argparse.SUPPRESS)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="constagalois",
        description="constacyclic codes over GF(p^e) under Galois inner products")
    parser.add_argument("--config", help="flat key=value file with default flags")
    parser.add_argument("--format", choices=["json", "csv", "text"], default="json")
    parser.add_argument("--cap", type=int, default=None,
                        help="codeword enumeration cap (default 2^20, or "
                             "CONSTAGALOIS_ENUM_CAP)")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("params", help="derived parameters incl. theta")
    _add_params_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_params)

    sub = subs.add_parser("cosets", help="q-coset table and optional s-orbits")
    _add_params_flags(sub)
    sub.add_argument("--s", type=int, default=None, help="multiplier for orbits")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_cosets)

    sub = subs.add_parser("factor", help="irreducible factor for every coset")
    _add_params_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_factor)

    sub = subs.add_parser("code", help="build the code of a coset function")
    _add_params_flags(sub)
    sub.add_argument("--phi", help='coset function "rep:val,..."')
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_code)

    sub = subs.add_parser("dual", help="the p^h-dual code")
    _add_params_flags(sub)
    sub.add_argument("--phi")
    sub.add_argument("--h", type=int, default=0)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_dual)

    sub = subs.add_parser("check", help="self-duality certificate")
    _add_params_flags(sub)
    sub.add_argument("--phi")
    sub.add_argument("--h", type=int, default=0)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_check)

    sub = subs.add_parser("exist", help="existence predicates")
    _add_params_flags(sub)
    sub.add_argument("--h", type=int, default=0)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_exist)

    sub = subs.add_parser("search", help="grid census of self-dual families")
    sub.add_argument("--p-list", required=True, help="comma-separated primes")
    sub.add_argument("--e-list", required=True, help="comma-separated degrees")
    sub.add_argument("--n-min", type=int, default=1)
    sub.add_argument("--n-max", type=int, required=True)
    sub.add_argument("--orders", default=None, help="restrict lambda orders")
    sub.add_argument("--h-list", default=None, help="restrict h values")
    sub.add_argument("--max-cosets", type=int, default=None)
    sub.add_argument("--max-multiplicity", type=int, default=None,
                     help="skip instances with p^nu above this")
    sub.add_argument("--with-weights", action="store_true",
                     help="compute exact minimum weights (enumerative)")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_search)

    sub = subs.add_parser("verify", help="cross-check closed forms vs oracle")
    _add_params_flags(sub)
    sub.add_argument("--phi", default=None)
    sub.add_argument("--h", type=int, default=0)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_verify)

    return parser


_INT_KEYS = {"p", "e", "n", "h", "s", "cap", "n_min", "n_max",
             "max_cosets", "max_multiplicity"}


def _apply_config(args, argv: List[str]) -> None:
    """Fill parsed args from the config file; explicit flags win."""
    config = load_config(args.config)
    for key, value in config.items():
        dest = "lam" if key == "lambda" else key
        if not hasattr(args, dest) or f"--{key.replace('_', '-')}" in argv:
            continue
        setattr(args, dest, int(value) if dest in _INT_KEYS else value)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            _apply_config(args, argv)
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
    columns = CSV_COLUMNS if args.command == "search" else None
    out = emit(records, args.format, columns)
    if out:
        print(out)
    if args.command == "verify" and not all(r["ok"] for r in records):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
