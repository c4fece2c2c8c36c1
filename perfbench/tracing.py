"""Spans around the library's public functions, recorded from outside.

The tracer rebinds each traced name in every ``constagalois`` module that
holds it (``cli`` imports ``min_weight`` and ``coset_poly`` by name, the
package re-exports most functions), so calls made through any alias are
seen.  Class methods are rebound on the class.  ``uninstall`` puts every
original back.  Nothing in ``src/`` is edited.

Each wrapped call becomes a span: name, start, end, parent span and op
id; the benchmark wraps each whole op the same way, as an ``op`` span.
Spans live in flat arrays while the workload runs and are written out
once at the end.  Element-level ``FieldElement`` arithmetic is too
hot to span; ``kernels.py`` measures it instead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PACKAGE = "constagalois"
OP_SPAN = "op"

# Layers are the library's modules; a span's layer is its name's prefix.
LAYERS = ("gf", "polyring", "cosets", "codes", "duality", "existence",
          "oracle", "cli")


def _new_object(tracer: "Tracer", name: str, args, result, span: int) -> None:
    """make_field / derive_params / coset_poly return interned objects, so a
    result never returned before is a cold construction."""
    if id(result) in tracer.seen[name]:
        tracer.counts[name + ".repeats"] += 1
    else:
        tracer.seen[name].add(id(result))
        tracer.keep.append(result)  # pin it so its id is never reused
        tracer.counts[name + ".new"] += 1
        tracer.cold_spans[name].append(span)


def _distinct_code(tracer: "Tracer", name: str, args, result, span: int) -> None:
    code = args[0]
    params = code.params
    key = (params.p, params.e, params.n, params.lam.coeffs, code.phi.residue,
           tuple(code.phi.assignment.items()))
    tracer.seen[name].add(key)


def _words(tracer: "Tracer", name: str, args, result, span: int) -> None:
    tracer.counts[name + ".words"] += len(result)


def _cells(tracer: "Tracer", name: str, args, result, span: int) -> None:
    matrix = args[0]
    tracer.counts[name + ".cells"] += matrix.rows * matrix.cols


def _bytes(tracer: "Tracer", name: str, args, result, span: int) -> None:
    tracer.counts[name + ".bytes"] += len(result.encode())


# (span name, module, attribute, observer).  "Class.method" attributes are
# rebound on the class; plain names in every library module holding them.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("gf.make_field", "constagalois.gf", "make_field", _new_object),
    ("gf.mult_order", "constagalois.gf", "mult_order", None),
    ("polyring.Poly.mul", "constagalois.polyring", "Poly.__mul__", None),
    ("cosets.derive_params", "constagalois.cosets", "derive_params", _new_object),
    ("cosets.s_orbits", "constagalois.cosets", "s_orbits", None),
    ("cosets.CosetFunction.act", "constagalois.cosets", "CosetFunction.act", None),
    ("cosets.CodeParams.theta_pow", "constagalois.cosets", "CodeParams.theta_pow", None),
    ("codes.coset_poly", "constagalois.codes", "coset_poly", _new_object),
    ("codes.cf_poly", "constagalois.codes", "cf_poly", None),
    ("codes.min_weight", "constagalois.codes", "min_weight", _distinct_code),
    ("codes.enumerate_codewords", "constagalois.codes", "enumerate_codewords", _words),
    ("duality.galois_dual", "constagalois.duality", "galois_dual", None),
    ("duality.iso_witness_for", "constagalois.duality", "iso_witness_for", None),
    ("existence.galois_selfdual_exists", "constagalois.existence",
     "galois_selfdual_exists", None),
    ("existence.iso_selfdual_exists", "constagalois.existence",
     "iso_selfdual_exists", None),
    # every public oracle entry point, so a bypass shows as zero calls
    ("oracle.Matrix.rref", "constagalois.oracle", "Matrix.rref", _cells),
    ("oracle.Matrix.rank", "constagalois.oracle", "Matrix.rank", None),
    ("oracle.Matrix.kernel_basis", "constagalois.oracle", "Matrix.kernel_basis", None),
    ("oracle.span", "constagalois.oracle", "span", None),
    ("oracle.generator_matrix", "constagalois.oracle", "generator_matrix", None),
    ("oracle.dual_basis_of_rows", "constagalois.oracle", "dual_basis_of_rows", None),
    ("oracle.dual_basis", "constagalois.oracle", "dual_basis", None),
    ("oracle.brute_dual", "constagalois.oracle", "brute_dual", None),
    ("oracle.brute_equal_codes", "constagalois.oracle", "brute_equal_codes", None),
    ("oracle.spans_equal", "constagalois.oracle", "spans_equal", None),
    ("oracle.naive_cosets", "constagalois.oracle", "naive_cosets", None),
    ("cli.main", "constagalois.cli", "main", None),
    ("cli.emit", "constagalois.cli", "emit", _bytes),
)


class Tracer:
    """In-memory span recorder plus the rebinding of traced names."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack = [-1]
        self.counts: Dict[str, int] = defaultdict(int)
        self.seen: Dict[str, set] = defaultdict(set)
        self.cold_spans: Dict[str, List[int]] = defaultdict(list)
        self.keep: list = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        nid = self._intern(name)
        stack, name_id, parent, op = self._stack, self.name_id, self.parent, self.op
        start, end, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if observe is not None:
                observe(self, name, args, result, span)
            return result

        return traced

    # -- rebinding -----------------------------------------------------------

    @staticmethod
    def _library_modules() -> List[object]:
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self) -> None:
        for name, module_name, attr, observe in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(name, original, observe))
                self._installed.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, observe)
            for holder in self._library_modules():
                for alias, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, alias, wrapper)
                        self._installed.append((holder, alias, original))

    def uninstall(self) -> None:
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    # -- results -------------------------------------------------------------

    def span_names(self) -> List[str]:
        return [self.names[i] for i in self.name_id]

    def write(self, path: str) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\top\tstart_s\tend_s\n")
            base = self.start[0] if self.start else 0.0
            for i, nid in enumerate(self.name_id):
                out.write(f"{i}\t{self.names[nid]}\t{self.parent[i]}\t{self.op[i]}\t"
                          f"{self.start[i] - base:.9f}\t{self.end[i] - base:.9f}\n")


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    kids: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        intervals = kids.get(i)
        if intervals:
            intervals.sort()
            cur_s = cur_e = None
            for a, b in intervals:
                a, b = max(a, s), min(b, e)
                if b <= a:
                    continue
                if cur_e is None or a > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = a, b
                else:
                    cur_e = max(cur_e, b)
            if cur_e is not None:
                covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-name calls and self time, per-layer self time, and the counts
    the observers gathered.  Self times of every span sum to the op spans'
    total duration, so ``trace.wall_s`` = the layers' self_s plus
    ``trace.other_self_s``."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names = tracer.span_names()
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    wall = 0.0
    for i, name in enumerate(names):
        calls[name] += 1
        self_s[name] += selfs[i]
        if name == OP_SPAN:
            wall += tracer.end[i] - tracer.start[i]
    out: Dict[str, float] = {}
    for name, _, _, _ in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(layer + "."))
        out[f"{layer}.calls"] = sum(v for k, v in calls.items()
                                    if k.startswith(layer + "."))
    out["trace.other_self_s"] = self_s.get(OP_SPAN, 0.0)
    out["trace.wall_s"] = wall

    def ratio(num, den):
        return num / den if den else 0.0

    mf = tracer.counts
    out["gf.make_field.new_fields"] = mf["gf.make_field.new"]
    out["gf.make_field.cold_s"] = sum(tracer.end[i] - tracer.start[i]
                                      for i in tracer.cold_spans["gf.make_field"])
    out["cosets.derive_params.repeat_ratio"] = ratio(
        mf["cosets.derive_params.repeats"], calls.get("cosets.derive_params", 0))
    out["codes.coset_poly.repeat_ratio"] = ratio(
        mf["codes.coset_poly.repeats"], calls.get("codes.coset_poly", 0))
    out["codes.min_weight.distinct_ratio"] = ratio(
        len(tracer.seen["codes.min_weight"]), calls.get("codes.min_weight", 0))
    words = mf["codes.enumerate_codewords.words"]
    out["codes.enumerate_codewords.words"] = words
    out["codes.enumerate_codewords.us_per_word"] = ratio(
        out["codes.enumerate_codewords.self_s"] * 1e6, words)
    out["oracle.Matrix.rref.cells"] = mf["oracle.Matrix.rref.cells"]
    out["cli.emit.bytes"] = mf["cli.emit.bytes"]
    return out
