"""Tests of the benchmark itself: oracle, tracer and metric names.

    python3 -m pytest perfbench -q
"""

import io
import json
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import oracle
import run
from tracing import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((Path(run.__file__).parent / "predictions.json").read_text())


def cli_output(argv):
    cli = run.import_package().cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_seq_row_matches_the_printed_reference_row():
    # n = 15 of the paper's table: c - m = 9 and y = 2**9 - 15**4.
    assert oracle.seq_row(15, True) == ["15", "9", "5", "4", "14", "-16", "9", "-1", "-50113"]


@pytest.mark.parametrize("exact_y", [False, True])
def test_check_seq_accepts_real_output_and_rejects_a_mutated_row(exact_y):
    start, stop = 400, 460
    rc, out, _ = cli_output(run.seq_argv(start, stop, exact_y))
    samples = [start + 7, start + 30]
    oracle.check_seq(rc, out, start, stop, exact_y, samples)

    lines = out.splitlines()
    fields = lines[1 + 30].split(",")
    fields[5] = str(int(fields[5]) + 1)  # x at n = 430
    lines[1 + 30] = ",".join(fields)
    with pytest.raises(oracle.OracleError, match="n = 430"):
        oracle.check_seq(rc, "\n".join(lines), start, stop, exact_y, samples)
    with pytest.raises(oracle.OracleError, match="rows"):
        oracle.check_seq(rc, "\n".join(lines[:-1]), start, stop, exact_y, [])
    with pytest.raises(oracle.OracleError, match="header"):
        oracle.check_seq(rc, out.replace("y_sign", "ysign", 1), start, stop, exact_y, [])


def test_probe_is_the_known_defect_or_complete():
    start, stop = run.PROBE
    rc, out, err = cli_output(run.seq_argv(start, stop, True))
    samples = [start, run.Y_DIGIT_CAP_N - 1]
    clean = oracle.check_seq_probe(rc, out, err, start, stop, samples)
    if not clean:
        assert rc == 2 and len(out.splitlines()) - 1 == run.Y_DIGIT_CAP_N - start
        short = "\n".join(out.splitlines()[:-1])
        with pytest.raises(oracle.OracleError, match="digit cap"):
            oracle.check_seq_probe(rc, short, err, start, stop, samples)
    with pytest.raises(oracle.OracleError):
        oracle.check_seq_probe(1, out, "Traceback", start, stop, samples)


@pytest.fixture(scope="module")
def verify_all_1000():
    return cli_output(["verify", "--suite", "all", "--limit", "1000", "--format", "json"])[:2]


def test_check_verify_accepts_real_output(verify_all_1000):
    rc, out = verify_all_1000
    oracle.check_verify(rc, out, "all", 1000)
    with pytest.raises(oracle.OracleError, match="exited"):
        oracle.check_verify(1, out, "all", 1000)


def test_check_verify_rejects_an_extra_erratum(verify_all_1000):
    rc, out = verify_all_1000
    reports = json.loads(out)
    extra = {"item": "x(14)", "printed": -16, "computed": -15, "note": ""}
    reports[0]["errata"].append(extra)
    with pytest.raises(oracle.OracleError, match="errata"):
        oracle.check_verify(rc, json.dumps(reports), "all", 1000)


@pytest.mark.parametrize("claim", ["theorem1", "theorem2"])
def test_check_verify_rejects_a_shifted_run(verify_all_1000, claim):
    rc, out = verify_all_1000
    reports = json.loads(out)
    rep = next(r for r in reports if r["claim_id"] == claim)
    runs = rep["data"]["runs"]
    runs[1][0] += 1
    runs[0][1] += 1
    with pytest.raises(oracle.OracleError, match=f"{claim} runs"):
        oracle.check_verify(rc, json.dumps(reports), "all", 1000)


def test_expected_runs_follow_the_paper():
    assert oracle.expected_y_runs(2000) == [
        [1, 4, 1], [5, 335, -1], [336, 337, 1], [338, 350, -1],
        [351, 364, 1], [365, 368, -1], [369, 2000, 1],
    ]
    zeros = [a for a, b, s in oracle.expected_x_runs(2000) for a in range(a, b + 1) if s == 0]
    assert zeros == [436, 451, 529, 545, 546]


def test_tracer_self_time_excludes_children_and_restores():
    mod = types.SimpleNamespace()
    mod.leaf = lambda: sum(range(20000))
    mod.inner = lambda: [mod.leaf() for _ in range(3)]
    mod.outer = lambda: [mod.inner(), mod.hot(), mod.count()]
    mod.hot = lambda: sum(range(20000))
    mod.count = lambda: None
    originals = dict(vars(mod))
    tracer = Tracer()
    for name in ("outer", "inner", "leaf"):
        tracer.span(mod, name, name)
    tracer.timed(mod, "hot", "hot")
    tracer.counted([mod], "count", "count")
    mod.outer()
    agg = tracer.end_trace()
    tracer.restore()
    assert vars(mod) == originals
    assert agg["calls"] == {"hot": 1, "count": 1}
    total, own = tracer.span_totals(0)
    assert [s[1] for s in tracer.spans] == ["outer", "inner", "leaf", "leaf", "leaf"]
    assert own["inner"] == pytest.approx(total["inner"] - total["leaf"])
    covered = total["inner"] + agg["seconds"]["hot"]
    assert own["outer"] == pytest.approx(total["outer"] - covered)
    assert 0 < own["outer"] < total["outer"]


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    ops = [
        {"round": i // 2, "wall": 1.0 + i, "cpu": 1.0, "rss_mb": 20.0, "items": 10, "cal": (0.1, 0.2)}
        for i in range(4)
    ]
    values = run.end_to_end(run.scaled_rounds(ops), ["clean", "defect"], [0.1, 0.2])
    assert set(values) == set(declared)


def test_traced_run_prints_every_per_layer_metric_and_repeats_counts():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER
    run.OUT_DIR.mkdir(exist_ok=True)
    first = run.run_workload("seq-exact-y", 3, 0, 1, io.StringIO())[1]
    second = run.run_workload("seq-exact-y", 3, 0, 1, io.StringIO())[1]
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(declared)
    for name in run.COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["sequences.y_value_calls"]["value"] == 1000


def test_workloads_and_predictions_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(PREDICTIONS["workloads"])
    assert [p["metric"] for p in PREDICTIONS["layers"]] == list(run.PER_LAYER)
    metrics = set(run.END_TO_END)
    for pred in PREDICTIONS["layers"]:
        assert set(pred["moves"]) <= metrics
        assert set(pred["on"]) | set(pred["no_change_on"]) <= set(names)
