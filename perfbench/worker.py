"""One workload process: run ops in a closed loop, then check them.

Started by ``run.py`` as a fresh interpreter, so the library's interned
fields and parameters start empty, as they do for every CLI invocation.
One client, one thread: the next op starts when the previous returns.
Prints one JSON object on stdout.

Modes:
  timed   run round(--seconds / UNIT_SECONDS) units, at least one
          (end-to-end metrics)
  fixed   run the first --ops ops untraced (the base of the trace overhead)
  traced  run the first --ops ops with every library layer wrapped in spans
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import ops  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# SHA-256 of the outputs over DEFAULT_SEED's op prefix (PREFIX_OPS), each
# followed by a newline.  The outputs are byte-identical across runs, so a
# mismatch means the library's answers changed.
PINNED = {
    "census": "e67f6407f5a1cb182560d110cd0e37795eac669ebe0e8f63a8c9586640bc8af0",
    "weights": "af08cfb1ba90fa4ebf594481a806a8a5fa2dfeee9c95ee6e8d18386842f33cf1",
    "construct": "dc780771a79817cfe49e93c20d9452779b8837fb6f53ea5e12741e6f636c3372",
    "verify": "afaf5e33f9625a1c543bf5a95ed3fd16dbab309699fab678415506a3ffcbe5cc",
}


def _run_one(op):
    """(output, error, wall seconds, CPU seconds) for one op; an exception is
    a failed op."""
    t0, c0 = time.perf_counter(), speed.cpu_time()
    try:
        out, err = ops.run_op(op), None
    except Exception as exc:  # the loop must go on; the op counts as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0, speed.cpu_time() - c0


def _check_all(op_list, outputs, errors):
    failures = []
    for i, (op, out, err) in enumerate(zip(op_list, outputs, errors)):
        if err is None:
            try:
                checks.check_op(op, out)
            except checks.CheckFailed as exc:
                err = f"check: {exc}"
            except Exception as exc:  # a malformed output must not stop the run
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"op {i} {op[0]}{op[1][:4]}: {err}")
    return failures


def _digest(workload, seed, outputs):
    """Digest of the outputs over the op prefix, computing any the run skipped."""
    need = workloads.PREFIX_OPS[workload]
    head = list(outputs[:need])
    if len(head) < need:
        for op in workloads.first_ops(workload, seed, need)[len(head):]:
            out, err, *_ = _run_one(op)
            head.append(err if out is None else out)
    sha = hashlib.sha256()
    for out in head:
        sha.update(((out or "") + "\n").encode())
    return sha.hexdigest()


def _finish(workload, seed, op_list, outputs, errors, result):
    failures = _check_all(op_list, outputs, errors)
    digest = _digest(workload, seed, outputs)
    result.update(attempted=len(op_list), failed=len(failures), failures=failures[:10],
                  digest=digest)
    if seed == workloads.DEFAULT_SEED:
        result["pinned_ok"] = digest == PINNED[workload]
    return result


def timed(workload, seed, seconds):
    count = max(1, round(seconds / workloads.UNIT_SECONDS[workload]))
    op_list, outputs, errors, latencies, cpu, ends = [], [], [], [], [], []
    gauge = speed.Gauge()
    gauge.tick()
    start = time.perf_counter()
    for unit in itertools.islice(workloads.units(workload, seed), count):
        for op in unit:
            out, err, dt, cpu_dt = _run_one(op)
            ends.append(time.perf_counter())
            gauge.tick()
            op_list.append(op)
            outputs.append(out)
            errors.append(err)
            latencies.append(dt)
            cpu.append(cpu_dt)
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"elapsed_s": elapsed, "latencies_s": latencies,
              "scaled_s": gauge.scale(ends, cpu), "kernel_s": gauge.took,
              "peak_rss_mb": peak_rss_mb}
    return _finish(workload, seed, op_list, outputs, errors, result)


def fixed(workload, seed, count):
    wall = 0.0
    for op in workloads.first_ops(workload, seed, count):
        wall += _run_one(op)[2]
    return {"wall_s": wall}


def traced(workload, seed, count, spans_path):
    import kernels
    import tracing

    op_list = workloads.first_ops(workload, seed, count)
    outputs, errors = [], []
    tracer = tracing.Tracer()
    traced_op = tracer.wrap(tracing.OP_SPAN, _run_one)
    tracer.install()
    try:
        for i, op in enumerate(op_list):
            tracer.op_id = i
            out, err, *_ = traced_op(op)
            outputs.append(out)
            errors.append(err)
    finally:
        tracer.uninstall()
    result = {"layers": tracing.layer_metrics(tracer)}
    _finish(workload, seed, op_list, outputs, errors, result)
    result["layers"].update(kernels.run_kernels())
    if spans_path:
        tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["timed", "fixed", "traced"], required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--spans", default="", help="write the traced spans here (.tsv.gz)")
    args = ap.parse_args(argv)
    if args.mode == "timed":
        result = timed(args.workload, args.seed, args.seconds)
    elif args.mode == "fixed":
        result = fixed(args.workload, args.seed, args.ops)
    else:
        result = traced(args.workload, args.seed, args.ops, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
