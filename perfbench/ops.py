"""Run one op against the library's public API and return its output text.

Library functions are looked up on their modules at call time, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json

from constagalois import cli, codes, cosets, duality, oracle

from workloads import WEIGHTS_CAP, Op


class OpFailed(Exception):
    """The library answered, but not with a usable result."""


def _search(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise OpFailed(f"search exited {status}")
    return buf.getvalue()


def _code(p, e, n, lam, phi):
    params = cosets.derive_params(p, e, n, lam)
    return codes.build_code(params, cosets.CosetFunction(params, dict(phi)))


def run_census(p, e, lo, hi) -> str:
    return _search(["search", "--p-list", str(p), "--e-list", str(e),
                    "--n-min", str(lo), "--n-max", str(hi), "--format", "csv"])


def run_weights(p, e, n, r) -> str:
    return _search(["search", "--p-list", str(p), "--e-list", str(e),
                    "--n-min", str(n), "--n-max", str(n), "--orders", str(r),
                    "--with-weights", "--cap", str(WEIGHTS_CAP), "--format", "csv"])


def run_construct(p, e, n, lam, phi) -> str:
    code = _code(p, e, n, lam, phi)
    record = {"code": code.to_json(),
              "duals": [duality.galois_dual(code, h).to_json() for h in range(e + 1)]}
    return json.dumps(record, sort_keys=True)


def run_verify(p, e, n, lam, phi, h) -> str:
    code = _code(p, e, n, lam, phi)
    closed = duality.galois_dual(code, h).generator_rows()
    brute = oracle.dual_basis(code, h)
    record = {"p": p, "e": e, "n": n, "lambda": lam, "h": h, "dim": code.dim,
              "closed_rows": len(closed), "oracle_rows": len(brute),
              "spans_equal": oracle.spans_equal(code.params.field, closed, brute)}
    return json.dumps(record, sort_keys=True)


_RUNNERS = {"census": run_census, "weights": run_weights,
            "construct": run_construct, "verify": run_verify}


def run_op(op: Op) -> str:
    kind, args = op
    return _RUNNERS[kind](*args)
