"""Benchmark entry point: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload census --seed 1 --seconds 16 --trace 0

Run from the repository root.  Workloads: census, weights, construct,
verify, or ``all`` for the four in turn.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are the same figures for people.  Exit status is 0
when every op passed its check and 1 otherwise; 2 on a usage error.

The library is loaded from ``src/`` next to this directory.  Every
workload run is a fresh interpreter (``worker.py``), as every CLI
invocation is.  See README.md in this directory for the metric
definitions and the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

import speed
from tracing import LAYERS
from workloads import DEFAULT_SEED, PREFIX_OPS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# fresh interpreters timed for setup_s (after one untimed warm-up that may
# compile bytecode), with SETUP_KERNELS timings of the reference kernel
# before and after each; the median is reported
SETUP_RUNS = 5
SETUP_KERNELS = 41
IMPORTTIME_RUNS = 3
SETUP_STATEMENT = "import constagalois, constagalois.cli"

TIME_BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# (name, unit); BENCHMARK.json lists the same names
PER_LAYER = (
    ("setup.import_sympy_s", "s"),
    ("setup.import_constagalois_self_s", "s"),
    ("gf.self_s", "s"),
    ("gf.make_field.calls", "count"),
    ("gf.make_field.new_fields", "count"),
    ("gf.make_field.cold_s", "s"),
    ("gf.mult_order.calls", "count"),
    ("gf.mult_order.self_s", "s"),
    ("gf.kernel.mul_gf9_ns", "ns"),
    ("gf.kernel.add_gf9_ns", "ns"),
    ("gf.kernel.inverse_gf9_ns", "ns"),
    ("gf.kernel.mul_gf5e24_ns", "ns"),
    ("gf.kernel.frobenius_gf5e24_ns", "ns"),
    ("polyring.self_s", "s"),
    ("polyring.Poly.mul.calls", "count"),
    ("polyring.Poly.mul.self_s", "s"),
    ("polyring.kernel.mul_deg12_gf25_us", "us"),
    ("cosets.self_s", "s"),
    ("cosets.derive_params.calls", "count"),
    ("cosets.derive_params.self_s", "s"),
    ("cosets.derive_params.repeat_ratio", "ratio"),
    ("cosets.s_orbits.calls", "count"),
    ("cosets.s_orbits.self_s", "s"),
    ("cosets.CosetFunction.act.calls", "count"),
    ("cosets.CosetFunction.act.self_s", "s"),
    ("cosets.CodeParams.theta_pow.calls", "count"),
    ("cosets.CodeParams.theta_pow.self_s", "s"),
    ("codes.self_s", "s"),
    ("codes.coset_poly.calls", "count"),
    ("codes.coset_poly.self_s", "s"),
    ("codes.coset_poly.repeat_ratio", "ratio"),
    ("codes.cf_poly.self_s", "s"),
    ("codes.min_weight.calls", "count"),
    ("codes.min_weight.distinct_ratio", "ratio"),
    ("codes.enumerate_codewords.words", "count"),
    ("codes.enumerate_codewords.self_s", "s"),
    ("codes.enumerate_codewords.us_per_word", "us"),
    ("codes.kernel.enumerate_q9_k4_s", "s"),
    ("duality.self_s", "s"),
    ("duality.galois_dual.calls", "count"),
    ("duality.galois_dual.self_s", "s"),
    ("duality.iso_witness_for.calls", "count"),
    ("duality.iso_witness_for.self_s", "s"),
    ("existence.self_s", "s"),
    ("existence.galois_selfdual_exists.self_s", "s"),
    ("existence.iso_selfdual_exists.self_s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.calls", "count"),
    ("oracle.Matrix.rref.calls", "count"),
    ("oracle.Matrix.rref.cells", "count"),
    ("oracle.Matrix.rref.self_s", "s"),
    ("oracle.dual_basis.self_s", "s"),
    ("oracle.spans_equal.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.emit.bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.other_self_s", "s"),
)

# calls that must not happen on a workload, by the reason it was chosen
BYPASSES = {
    "census": ("codes.coset_poly.calls", "codes.enumerate_codewords.calls",
               "polyring.Poly.mul.calls", "oracle.calls"),
    "weights": ("oracle.calls",),
    "construct": ("codes.min_weight.calls",),
    "verify": ("codes.min_weight.calls",),
}


class BenchError(Exception):
    pass


class Clock:
    """The run's overall deadline, shared by every child process."""

    def __init__(self, budget: float):
        self.deadline = time.monotonic() + budget

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(argv, clock: Clock) -> subprocess.CompletedProcess:
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=_env(),
                              cwd=ROOT, timeout=clock.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(argv[1:4])}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"child exited {proc.returncode}: {' '.join(argv[1:4])}")
    return proc


def _worker(mode: str, workload: str, seed: int, clock: Clock, **extra) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
            "--workload", workload, "--seed", str(seed)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    lines = _child(argv, clock).stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing ({mode} {workload})")
    return json.loads(lines[-1])


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(clock: Clock) -> tuple:
    """Median set-up time at the reference speed, and the median wall time.
    An interpreter's set-up time is its CPU time; the reference kernel is
    timed before and after every interpreter, and the median of all those
    timings scales the median."""
    argv = [sys.executable, "-c", SETUP_STATEMENT]
    _child(argv, clock)
    wall, cpu, kernel = [], [], [speed.time_kernel() for _ in range(SETUP_KERNELS)]
    for _ in range(SETUP_RUNS):
        t0, c0 = time.perf_counter(), _children_cpu_s()
        _child(argv, clock)
        wall.append(time.perf_counter() - t0)
        cpu.append(_children_cpu_s() - c0)
        kernel += [speed.time_kernel() for _ in range(SETUP_KERNELS)]
    scale = speed.REF_S / statistics.median(kernel)
    return statistics.median(cpu) * scale, statistics.median(wall)


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def measure_imports(clock: Clock) -> dict:
    """From ``-X importtime``: sympy's cumulative import time and the sum of
    the self times of the library's own modules."""
    sympy, own = [], []
    for _ in range(IMPORTTIME_RUNS):
        err = _child([sys.executable, "-X", "importtime", "-c", SETUP_STATEMENT], clock).stderr
        sympy_us = own_us = 0
        for self_us, cumulative_us, _, module in _IMPORTTIME.findall(err):
            if module == "sympy":
                sympy_us = int(cumulative_us)
            if module == "constagalois" or module.startswith("constagalois."):
                own_us += int(self_us)
        sympy.append(sympy_us / 1e6)
        own.append(own_us / 1e6)
    return {"setup.import_sympy_s": statistics.median(sympy),
            "setup.import_constagalois_self_s": statistics.median(own)}


def _result(workload, worker, metrics, lines):
    failed = worker["failed"]
    pinned = worker.get("pinned_ok")
    correct = failed == 0 and pinned is not False
    head = f"{workload}: {worker['attempted']} ops, {failed} failed"
    if pinned is not None:
        head += f", pinned output digest {'ok' if pinned else 'MISMATCH'}"
    lines = [head] + [f"  FAILED {failure}" for failure in worker["failures"]] + lines
    return {"correct": correct, "attempted": worker["attempted"], "failed": failed,
            "metrics": metrics, "lines": lines}


def _op_metrics(lat) -> dict:
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3}


def end_to_end(workload: str, seed: int, seconds: float, clock: Clock) -> dict:
    setup_s, setup_wall_s = measure_setup(clock)
    worker = _worker("timed", workload, seed, clock, seconds=seconds)
    values = {"setup_s": setup_s, "peak_rss_mb": worker["peak_rss_mb"]}
    values.update(_op_metrics(worker["scaled_s"]))
    wall = dict(_op_metrics(worker["latencies_s"]), setup_s=setup_wall_s)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [f"  {name:<12} {values[name]:>12.4f} {unit}"
             + (f"   (wall {wall[name]:.4f})" if name in wall else "")
             for name, unit in END_TO_END]
    lat = worker["scaled_s"]
    above = sum(1 for x in lat if x > values["op_p90_ms"] / 1e3)
    lines[3] += f"   ({len(lat)} samples, {above} above p90)"
    kernel_ms = [x * 1e3 for x in worker["kernel_s"]]
    lines.append(f"  reference kernel {statistics.median(kernel_ms):.4f} ms median over "
                 f"{len(kernel_ms)} timings (range {min(kernel_ms):.4f}-{max(kernel_ms):.4f}); "
                 f"{speed.REF_S * 1e3:.4f} ms is the reference speed")
    fail_ratio = worker["failed"] / worker["attempted"]
    lines.append(f"  {'fail_ratio':<12} {fail_ratio:>12.4f} failed/attempted")
    lines.append(f"  timed phase {worker['elapsed_s']:.2f} s, closed loop, one client, one process")
    return _result(workload, worker, metrics, lines)


def per_layer(workload: str, seed: int, clock: Clock) -> dict:
    values = measure_imports(clock)
    count = PREFIX_OPS[workload]
    base = _worker("fixed", workload, seed, clock, ops=count)
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"trace-{workload}-seed{seed}.tsv.gz")
    worker = _worker("traced", workload, seed, clock, ops=count, spans=spans)
    layers = worker["layers"]
    values.update(layers)
    values["trace.overhead_ratio"] = layers["trace.wall_s"] / base["wall_s"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    lines = [f"  {name:<42} {values[name]:>14.6g} {unit}" for name, unit in PER_LAYER]
    layer_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    other = layers["trace.other_self_s"]
    lines.append(f"  accounting: layer self times {layer_sum:.6f} s + trace.other_self_s "
                 f"{other:.6f} s = {layer_sum + other:.6f} s; traced wall "
                 f"{layers['trace.wall_s']:.6f} s over {count} ops")
    bypass = ", ".join(f"{name} = {layers[name]}" for name in BYPASSES[workload])
    holds = not any(layers[name] for name in BYPASSES[workload])
    lines.append(f"  bypass: {'holds' if holds else 'BROKEN'} ({bypass})")
    lines.append(f"  spans written to {os.path.relpath(spans, ROOT)}")
    return _result(workload, worker, metrics, lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="constagalois benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "constagalois", "__init__.py")):
        print(f"error: no library at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    clock = Clock(TIME_BUDGET_S * len(chosen))
    results = {}
    try:
        for workload in chosen:
            if args.trace:
                results[workload] = per_layer(workload, args.seed, clock)
            else:
                results[workload] = end_to_end(workload, args.seed, args.seconds, clock)
            print("\n".join(results[workload]["lines"]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
