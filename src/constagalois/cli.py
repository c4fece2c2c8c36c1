"""Command-line front end.

Subcommands mirror the library: params, cosets, factor, code, dual,
check, exist, search, verify.  Output is JSON Lines by default, CSV or
plain text on request; identical invocations produce byte-identical
output because every canonical choice (modulus, generator, theta) is
deterministic.  ``search`` streams its rows, one (p, e, n) block at a
time, after checking all of its input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterator, List, Optional, Set

from .codes import ConstaCode, _enum_cap, build_code, coset_poly, min_weight
from .cosets import CodeParams, CosetFunction, derive_params, q_cosets, s_orbits
from .duality import _galois_h, galois_dual, is_galois_selfdual, is_iso_galois_selfdual
from .existence import (duadic_exists, euclidean_selfdual_exists, family_possible,
                        galois_selfdual_exists, hermitian_selfdual_exists,
                        iso_selfdual_exists, selfdual_families)
from .gf import format_element, make_field
from .numtheory import p_split
from .oracle import brute_dual, brute_equal_codes, dual_basis, naive_cosets, spans_equal
from .polyring import format_poly, poly_to_json

CSV_COLUMNS = ["p", "e", "n", "lambda", "r", "nprime", "nu", "h",
               "phi", "dim", "d_min", "selfdual", "iso_witness"]


# ---------------------------------------------------------------------------
# input grammar
# ---------------------------------------------------------------------------

def parse_phi(params: CodeParams, text: str) -> CosetFunction:
    """Parse "rep:value,rep:value,..." into a coset function on 1 + rZ."""
    assignment = {}
    for chunk in text.split(","):
        rep, _, value = chunk.partition(":")
        try:
            key, value = int(rep), int(value)
        except ValueError:  # also an entry with no colon, whose value is ""
            raise ValueError(f"bad phi entry {chunk!r}, expected rep:value") from None
        if key in assignment:
            raise ValueError(f"phi rep {key} given twice")
        assignment[key] = value
    return CosetFunction(params, assignment)


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
    return derive_params(args.p, args.e, args.n, args.lam)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _text(value) -> str:
    """A value's csv or text: None is empty, a bool, dict or list its JSON."""
    if isinstance(value, str):  # most cells, and every column name
        return value
    if value is None:
        return ""
    if isinstance(value, bool):  # as JSON spells it, without a json.dumps per cell
        return "true" if value else "false"
    return json.dumps(value) if isinstance(value, (dict, list)) else str(value)


def _csv_value(value) -> str:
    """A csv cell's text, quoted as csv quotes a cell with a comma, a quote
    or a line break in it."""
    text = _text(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# format -> (opening, separator, closing, a column's label, a value's text);
# csv labels no cell: its rows sit under a header of the column names
_ROW_STYLES = {
    "json": ("{", ", ", "}", lambda column: json.dumps(column) + ": ", json.dumps),
    "csv": ("", ",", "", None, _csv_value),
    "text": ("", "  ", "", lambda column: column + "=", _text),
}


def _style(fmt: str):
    """The style of ``fmt`` that every line of every command is written in."""
    style = _ROW_STYLES.get(fmt)
    if style is None:
        raise ValueError(f"unknown format {fmt!r}")
    return style


def _header(fmt: str, columns: List[str]) -> List[str]:
    """The lines that lead rows of ``columns``: csv's header of the column
    names, none in json and text, whose cells carry their own label."""
    _, sep, _, label, value_text = _style(fmt)
    return [] if label else [sep.join(map(value_text, columns))]


# search's header in each format, written once
_SEARCH_HEADERS = {fmt: _header(fmt, CSV_COLUMNS) for fmt in _ROW_STYLES}


def emit(records: list, fmt: str) -> str:
    """The records as text, one line each, with no final newline.

    A record is a dict, or a str: a line already written in ``fmt``
    (search rows, see :func:`row_split`).  Dicts in csv lead with a header
    of the first record's keys, each row a record's values under them.
    """
    opening, sep, closing, label, value_text = _style(fmt)
    if not records or isinstance(records[0], str):
        return "\n".join(records)
    columns = list(records[0])
    lines = _header(fmt, columns)
    for r in records:
        cells = ([label(k) + value_text(v) for k, v in r.items()] if label
                 else [value_text(r.get(c)) for c in columns])
        lines.append(opening + sep.join(cells) + closing)
    return "\n".join(lines)


def row_split(fmt: str, columns: List[str], middle: str):
    """How ``fmt`` writes a row of ``columns``, split around the int cell
    of column ``middle``: the functions (cell, prefix, suffix).

    ``cell(column, value)`` is one cell's text; ``prefix(cells)`` is the
    row's text up to the middle value, from the cell texts before it, and
    ``suffix(cells)`` the rest, from the cell texts after it.  A row is
    ``prefix + str(value) + suffix``, each part written once however many
    rows share it; the line reads as ``emit`` writes the row's dict.
    """
    opening, sep, closing, label, value_text = _style(fmt)
    labels = {column: label(column) if label else "" for column in columns}
    before = sep + labels[middle]

    def cell(column: str, value) -> str:
        if type(value) is int:  # every format writes an int as its digits
            return labels[column] + str(value)
        return labels[column] + value_text(value)

    def prefix(cells: List[str]) -> str:
        return opening + sep.join(cells) + before

    def suffix(cells: List[str]) -> str:
        return sep + sep.join(cells) + closing

    return cell, prefix, suffix


def phi_text(phi: Optional[CosetFunction]) -> str:
    """phi as rep:value pairs in rep order, the text ``parse_phi`` reads."""
    if phi is None:
        return ""
    cosets = phi.params.cosets_on(phi.residue)
    return ",".join([f"{Q.rep}:{v}" for Q, v in zip(cosets, phi.values())])


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
        orbits = s_orbits(params, args.s)
        record["s"] = args.s
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
    """The code of --phi under the params flags (code, dual, check, verify)."""
    params = params_from_args(args)
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


def cmd_search(args) -> Iterator[List[str]]:
    """Census rows in output order, (p, e, n, lambda text, h), each a line
    in ``args.format`` with the cells of CSV_COLUMNS, one list per
    (p, e, n) that has rows; in csv the header leads, a list of its own,
    also when no row follows.

    All input is checked here, so an error comes before the first row:
    every field, the first length of each (p, e), derived at n = 1 (or at
    n_min below 1), and every h of each (p, e) that has rows.  The rows
    themselves are generated lazily.
    """
    wanted, h_set = args.orders or None, args.h_list or None  # empty: no restriction
    lengths = range(args.n_min, args.n_max + 1)
    blocks = []
    for p in sorted(args.p_list):
        for e in sorted(args.e_list):
            q = p ** e
            field = make_field(p, e)
            # one lambda per order r | q - 1: g^((q-1)/r), in the order of its text;
            # the orders are the divisors of q - 1, read off its factorisation
            orders = [1]
            for f in field.group_factors:
                orders = [r * f ** k for r in orders
                          for k in range(p_split(f, q - 1)[0] + 1)]
            powers = ((field.generator ** ((q - 1) // r), r) for r in orders
                      if wanted is None or r in wanted)
            lams = sorted((format_element(lam), lam, r) for lam, r in powers)
            hs = range(e + 1) if h_set is None else sorted(h_set)
            if lengths:
                # derive_params is the one check of a length; at n = 1 it
                # costs the same for every n_min
                derive_params(p, e, min(args.n_min, 1), field.one)
                if lams:
                    for h in hs:
                        _galois_h(e, h)
            blocks.append((p, e, lams, hs))
    return _search_rows(args, blocks, lengths)


def _search_rows(args, blocks, lengths) -> Iterator[List[str]]:
    """The lines of :func:`cmd_search`, csv's header first.  Each
    instance's head (p, e, n, lambda, r, n', nu) is written once, each
    lambda's cell once, and the tail after h (phi, dim, d_min, selfdual,
    iso_witness) once per distinct witness of the instance; the instances
    with no witness share one tail.  An instance that
    :func:`family_possible` rules out gets that tail from its integers,
    with no params, unless --max-cosets must count its cosets."""
    max_cosets, max_mult = args.max_cosets, args.max_multiplicity
    cell, prefix, suffix = row_split(args.format, CSV_COLUMNS, "h")
    if header := _SEARCH_HEADERS[args.format]:
        yield header

    def tail(params, phi, selfdual, iso_witness, weights):
        # a witness code equals its dual up to a weight-preserving map, so its
        # dim is n/2; weights maps the instance's shown witnesses to d_min
        if args.with_weights and phi not in weights:
            try:
                weights[phi] = min_weight(build_code(params, phi), args.cap)
            except ValueError:
                weights[phi] = None
        return suffix([cell("phi", phi_text(phi)), cell("dim", params.n // 2),
                       cell("d_min", weights.get(phi)), cell("selfdual", selfdual),
                       cell("iso_witness", iso_witness)])

    no_witness = suffix([cell("phi", ""), cell("dim", None), cell("d_min", None),
                         cell("selfdual", False), cell("iso_witness", None)])
    for p, e, lams, hs in blocks:
        pe_cells = [cell("p", p), cell("e", e)]
        # lambda = g^((q-1)/r) has order r
        lam_cells = [(lam, r, [cell("lambda", text), cell("r", r)]) for text, lam, r in lams]
        for n in lengths:
            nu, nprime = p_split(p, n)  # the params' nu and n', as for every lambda
            if max_mult is not None and p ** nu > max_mult:
                continue
            pen_cells = [*pe_cells, cell("n", n)]
            n_cells = [cell("nprime", nprime), cell("nu", nu)]
            rows = []
            for lam, r, lam_r_cells in lam_cells:
                head = prefix([*pen_cells, *lam_r_cells, *n_cells])
                if max_cosets is None and not family_possible(p, nprime, nu, r):
                    rows += [f"{head}{h}{no_witness}" for h in hs]
                    continue
                params = derive_params(p, e, n, lam)
                if max_cosets is not None and len(q_cosets(params, 1)) > max_cosets:
                    continue
                (_, iso_phi, iso_witness), galois = selfdual_families(params)
                # a Galois witness -> the row's text after h; h of one action
                # share a witness, and every h without one (None) shows the iso witness
                tails, weights = {}, {}
                for h in hs:
                    phi = None if galois is None else galois[h].witness_phi
                    text = tails.get(phi)
                    if text is None:
                        shown = iso_phi if phi is None else phi
                        text = tails[phi] = (no_witness if shown is None else
                                             tail(params, shown, phi is not None, iso_witness,
                                                  weights))
                    rows.append(f"{head}{h}{text}")
            if rows:
                yield rows


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

_GLOBAL_FLAGS = (
    ("--config", dict(help="flat key=value file with default flags")),
    ("--format", dict(choices=list(_ROW_STYLES), default="json")),
    ("--cap", dict(type=int, default=None,
                   help="codeword enumeration cap (default 2^20, or CONSTAGALOIS_ENUM_CAP)")),
)
_PARAMS_FLAGS = (
    ("--p", dict(type=int, help="characteristic prime")),
    ("--e", dict(type=int, help="extension degree, q = p^e")),
    ("--n", dict(type=int, help="code length")),
    ("--lambda", dict(dest="lam", help='unit: "1", "-1", "g^K", or "[c0,...,c_{e-1}]"')),
)
_PHI_FLAG = ("--phi", dict(help='coset function "rep:val,..."'))
_H_FLAG = ("--h", dict(type=int, default=0))


def _make_parser(config: dict) -> argparse.ArgumentParser:
    """The CLI parser with the values of a config file (``load_config``
    keys) as defaults, so an explicit flag wins in any spelling.

    ``parser.exact_flags`` is the table :func:`parse_exact` and ``main``
    read: each subcommand's name -> (the namespace argparse starts it
    from, its option strings -> actions, the actions of its required
    flags), built from the actions ``add_argument`` returns.  argparse
    requires no flag, so a config file can supply any; ``main`` checks
    the required ones once, after the config file."""
    parser = argparse.ArgumentParser(
        prog="constagalois",
        description="constacyclic codes over GF(p^e) under Galois inner products")
    top = _add_flags(parser, config, _GLOBAL_FLAGS)
    known = {_config_key(action) for action in top}
    subs = parser.add_subparsers(dest="command", required=True)
    parser.exact_flags = {}

    def command(name, func, help, required, *flags):
        sub = subs.add_parser(name, help=help)
        marked = [(flag, {**options, "help": options["help"] + " (required)"})
                  for flag, options in required]
        actions = _add_flags(sub, config, marked + list(flags))
        known.update(map(_config_key, actions))
        # the global flags again, so they may follow the subcommand;
        # SUPPRESS keeps the global defaults
        actions += [sub.add_argument(flag, **{**options, "default": argparse.SUPPRESS})
                    for flag, options in _GLOBAL_FLAGS]
        sub.set_defaults(func=func)
        start = {action.dest: action.default for action in top + actions
                 if action.default is not argparse.SUPPRESS}
        start.update(command=name, func=func)
        parser.exact_flags[name] = (
            start, {flag: action for action in actions for flag in action.option_strings},
            actions[:len(required)])

    phi_params = _PARAMS_FLAGS + (_PHI_FLAG,)
    command("params", cmd_params, "derived parameters incl. theta", _PARAMS_FLAGS)
    command("cosets", cmd_cosets, "q-coset table and optional s-orbits", _PARAMS_FLAGS,
            ("--s", dict(type=int, default=None, help="multiplier for orbits")))
    command("factor", cmd_factor, "irreducible factor for every coset", _PARAMS_FLAGS)
    command("code", cmd_code, "build the code of a coset function", phi_params)
    command("dual", cmd_dual, "the p^h-dual code", phi_params, _H_FLAG)
    command("check", cmd_check, "self-duality certificate", phi_params, _H_FLAG)
    command("exist", cmd_exist, "existence predicates", _PARAMS_FLAGS, _H_FLAG)
    command("search", cmd_search, "grid census of self-dual families",
            (("--p-list", dict(type=parse_int_set, help="comma-separated primes")),
             ("--e-list", dict(type=parse_int_set, help="comma-separated degrees")),
             ("--n-max", dict(type=int, help="largest length"))),
            ("--n-min", dict(type=int, default=1)),
            ("--orders", dict(default=None, type=parse_int_set,
                              help="restrict lambda orders")),
            ("--h-list", dict(default=None, type=parse_int_set,
                              help="restrict h values")),
            ("--max-cosets", dict(type=int, default=None)),
            ("--max-multiplicity", dict(type=int, default=None,
                                        help="skip instances with p^nu above this")),
            ("--with-weights", dict(action="store_true",
                                    help="compute exact minimum weights (enumerative)")))
    command("verify", cmd_verify, "cross-check closed forms vs oracle", _PARAMS_FLAGS,
            _PHI_FLAG, _H_FLAG)
    unknown = sorted(key.replace("_", "-") for key in set(config) - known)
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}")
    return parser


# what a config value of each flag type must be
_VALUE_KINDS = {int: "an integer", parse_int_set: "comma-separated integers"}


def _config_key(action) -> str:
    """The config file key of a flag: its long name with "_" for "-"."""
    return action.option_strings[0][2:].replace("-", "_")


def _convert(action, text: str):
    """The value of a flag given as ``text``, converted as argparse
    converts it: by the action's type, then checked against its choices.
    A ValueError says what the flag takes."""
    try:
        value = action.type(text) if action.type else text
    except ValueError:
        raise ValueError(f"takes {_VALUE_KINDS[action.type]}, not {text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"takes one of {action.choices}, not {text!r}")
    return value


def _add_flags(parser, config: dict, flags) -> list:
    """Add each (flag, options) pair; the flag's config value becomes its
    default, converted as its action converts a command-line value.
    Returns the actions of the flags."""
    actions = []
    for flag, options in flags:
        action = parser.add_argument(flag, **options)
        actions.append(action)
        text = config.get(_config_key(action))
        if text is None:
            continue
        if action.nargs == 0:  # store_true
            if text not in ("true", "false"):
                raise ValueError(f"config {flag} takes true or false, not {text!r}")
            value = text == "true"
        else:
            try:
                value = _convert(action, text)
            except ValueError as exc:
                raise ValueError(f"config {flag} {exc}") from None
        parser.set_defaults(**{action.dest: value})
    return actions


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    return _make_parser({})


def parse_exact(parser: argparse.ArgumentParser,
                argv: List[str]) -> Optional[argparse.Namespace]:
    """The namespace ``parser.parse_args(argv)`` gives, read in one pass,
    or None where argparse must read argv.

    The pass answers only when argv is a subcommand followed by that
    subcommand's flags, each spelled exactly; a flag that takes a value
    is followed by one that does not start with "-", or is "-" and
    digits.  It declines everything else (an abbreviation, a
    ``--flag=value``, "--", -h and --help, a flag before the
    subcommand, a missing value, a value its type or choices refuse), so
    help and argparse's usage errors come from argparse alone."""
    entry = parser.exact_flags.get(argv[0]) if argv else None
    if entry is None:
        return None
    start, flags, _ = entry
    values = dict(start)
    tokens = iter(argv[1:])
    for token in tokens:
        action = flags.get(token)
        if action is None:
            return None
        if action.nargs == 0:  # store_true
            values[action.dest] = action.const
        else:
            text = next(tokens, None)
            if text is None or (text[:1] == "-" and not (text[1:].isdigit()
                                                        and text.isascii())):
                return None
            try:
                values[action.dest] = _convert(action, text)
            except ValueError:
                return None
    return argparse.Namespace(**values)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parse_exact(parser, argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if args.config:
            args = _make_parser(load_config(args.config)).parse_args(argv)
        args.cap = _enum_cap(args.cap)
        for action in parser.exact_flags[args.command][2]:
            if getattr(args, action.dest) is None:
                raise ValueError(f"{action.option_strings[0]} is required "
                                 "(flag or config file)")
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        records = args.func(args)
        # search streams its lines a block at a time; the rest give one list
        for block in records if args.command == "search" else [records]:
            out = emit(block, args.format)
            if out:
                print(out)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # a broken invariant of the library itself
        detail = " ".join(str(exc).split()) or "assertion failed"
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader has gone (``| head``): send what is still buffered to
        # devnull, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if args.command == "verify" and not all(r["ok"] for r in records):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
