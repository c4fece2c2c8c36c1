"""Tests of the benchmark itself: span arithmetic, rebinding, op streams,
checks.  Run with ``python3 -m pytest perfbench -q`` from the repository
root."""

import contextlib
import csv
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import constagalois  # noqa: E402
from constagalois import cli, codes, polyring  # noqa: E402

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    #  0: root      [0, 10]
    #  1:   a       [1, 4]    child of 0
    #  2:     a1    [2, 3]    child of 1
    #  3:   b       [3, 6]    child of 0, overlaps a
    #  4:   c       [8, 12]   child of 0, sticks out of the root
    #  5: other     [20, 21]  a second root
    start = [0.0, 1.0, 2.0, 3.0, 8.0, 20.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0, 21.0]
    parent = [-1, 0, 1, 0, 0, -1]
    assert tracing.self_times(start, end, parent) == [
        10 - (5 + 2),  # children cover [1, 6] and [8, 10]
        3 - 1,
        1,
        3,
        4,
        1,
    ]


def test_self_times_of_nested_spans_add_up_to_the_root():
    start = [0.0, 0.5, 0.6, 2.0, 2.5]
    end = [4.0, 1.5, 1.0, 3.0, 2.75]
    parent = [-1, 0, 1, 0, 3]
    assert sum(tracing.self_times(start, end, parent)) == pytest.approx(4.0)


def _run_code_subcommand():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["code", "--p", "3", "--e", "2", "--n", "4", "--lambda", "-1",
                           "--phi", "1:0,3:0,5:1,7:1"])
    assert status == 0
    return buf.getvalue()


def test_wrapping_reaches_aliased_imports_and_is_undone():
    originals = {
        "cli.min_weight": cli.min_weight,
        "cli.coset_poly": cli.coset_poly,
        "codes.min_weight": codes.min_weight,
        "package.min_weight": constagalois.min_weight,
        "cli.main": cli.main,
        "Poly.__mul__": polyring.Poly.__dict__["__mul__"],
    }
    assert cli.min_weight is codes.min_weight
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.min_weight is not originals["cli.min_weight"]
        assert cli.coset_poly is not originals["cli.coset_poly"]
        assert cli.min_weight is codes.min_weight is constagalois.min_weight
        expected = _run_code_subcommand()
    finally:
        tracer.uninstall()
    names = set(tracer.span_names())
    assert {"codes.min_weight", "codes.coset_poly", "polyring.Poly.mul",
            "cli.emit"} <= names
    assert cli.min_weight is originals["cli.min_weight"]
    assert cli.coset_poly is originals["cli.coset_poly"]
    assert codes.min_weight is originals["codes.min_weight"]
    assert constagalois.min_weight is originals["package.min_weight"]
    assert cli.main is originals["cli.main"]
    assert polyring.Poly.__dict__["__mul__"] is originals["Poly.__mul__"]
    # nothing is traced once the originals are back
    count = len(tracer.start)
    assert _run_code_subcommand() == expected
    assert len(tracer.start) == count


def test_layer_self_times_account_for_the_traced_wall():
    tracer = tracing.Tracer()
    tracer.install()
    traced_op = tracer.wrap(tracing.OP_SPAN, ops.run_op)
    try:
        for i, op in enumerate(workloads.first_ops("construct", 3, 4)):
            tracer.op_id = i
            traced_op(op)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total + metrics["trace.other_self_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["codes.min_weight.calls"] == 0
    assert metrics["duality.galois_dual.calls"] > 0


def test_gauge_scales_each_op_by_the_kernel_timings_around_it():
    # the host runs at the reference speed for 30 s, then at half of it
    gauge = speed.Gauge()
    span = 3 * speed.HALF_WINDOW
    gauge.at = [float(i) for i in range(2 * span)]
    gauge.took = [speed.REF_S] * span + [2 * speed.REF_S] * span
    assert gauge.scale([0.5, 2.0 * span - 0.5], [0.010, 0.010]) == pytest.approx([0.010, 0.005])


def test_gauge_times_the_kernel_at_the_first_tick():
    gauge = speed.Gauge()
    gauge.tick()
    gauge.tick()
    assert len(gauge.took) == 1 and gauge.took[0] > 0
    assert gauge.scale([gauge.at[0]], [speed.REF_S]) == pytest.approx([speed.REF_S ** 2 / gauge.took[0]])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_fixes_the_op_list(workload):
    count = 40
    assert workloads.first_ops(workload, 5, count) == workloads.first_ops(workload, 5, count)
    assert workloads.first_ops(workload, 5, count) != workloads.first_ops(workload, 6, count)


def test_every_census_unit_covers_each_length_once_per_pass():
    unit = next(workloads.units("census", 9))
    covered = {}
    for _, (p, e, lo, hi) in unit:
        for n in range(lo, hi + 1):
            covered[(p, e, n)] = covered.get((p, e, n), 0) + 1
    assert set(covered.values()) == {len(workloads.CENSUS_OFFSETS)}
    assert len(covered) == len(workloads.CENSUS_PE) * workloads.CENSUS_N_MAX


def test_every_weights_unit_holds_each_length_and_order_once():
    unit = next(workloads.units("weights", 9))
    assert len(set(unit)) == len(unit)
    assert sorted(unit) == sorted(next(workloads.units("weights", 10)))


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_census_check_rejects_a_broken_witness():
    op = ("census", (3, 2, 1, 12))
    text = ops.run_op(op)
    checks.check_op(op, text)
    rows = list(csv.DictReader(io.StringIO(text)))
    row = next(r for r in rows if r["selfdual"] == "true")
    rep, value = row["phi"].split(",")[0].split(":")
    cap = 3 ** int(row["nu"])
    row["phi"] = ",".join([f"{rep}:{(int(value) + 1) % (cap + 1)}"] + row["phi"].split(",")[1:])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    with pytest.raises(checks.CheckFailed):
        checks.check_op(op, out.getvalue())


def test_construct_check_rejects_a_wrong_dual():
    op = workloads.first_ops("construct", 2, 8)[0]
    text = ops.run_op(op)
    checks.check_op(op, text)
    record = json.loads(text)
    dual = record["duals"][-1]
    dual["generator"][0] = "0" if dual["generator"][0] != "0" else "1"
    with pytest.raises(checks.CheckFailed):
        checks.check_op(op, json.dumps(record))
