"""Benchmark of the ineqscan command line, one child process per operation.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`.  A closed loop runs one child at a time until
`--seconds` have passed, checks every output with `oracle.py`, and prints
as its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  The line before it holds the run's metadata and raw samples.
`--workload all` runs every workload in turn and ends with a JSON list.

`--trace 0` gives the end-to-end metrics, measured untraced.  `--trace 1`
runs the same operations in-process, alternating plain and traced rounds,
and gives the per-layer metrics; its spans are written to
`.perfbench/trace-<workload>-<seed>.json`.  Expected layer effects and the
known exact-y defect, which keeps `ok_ratio` at 0.5 on seq-exact-y, are
described in `predictions.json`.
"""

import argparse
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "verifier.partition_x_s": "s",
    "verifier.partition_y_s": "s",
    "verifier.check_theorem1.self_s": "s",
    "verifier.check_theorem2.self_s": "s",
    "verifier.check_range_bounds_s": "s",
    "verifier.check_gap_s": "s",
    "verifier.check_sign_criteria_s": "s",
    "verifier.check_negative_x_bound_s": "s",
    "verifier.check_positive_tail_s": "s",
    "analytic.check_bounds_x_s": "s",
    "analytic.check_bounds_Y_s": "s",
    "analytic.check_sign_consistency_s": "s",
    "analytic.check_roots_s": "s",
    "sequences.scan_n_per_s": "1/s",
    "sequences.row_calls": "count",
    "sequences.row_s": "s",
    "sequences.y_value_calls": "count",
    "sequences.y_value_s": "s",
    "exactarith.cmp_calls": "count",
    "exactarith.cmp_ns_large_n": "ns",
    "exactarith.cmp_ns_small_n": "ns",
    "intervals.d_bounds_calls": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}
# Per-layer metrics that must repeat exactly between runs of one seed.
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]

SEQ_SAMPLES = 32
CMP_LARGE_SPAN = 10_000
CMP_SMALL_TOP = 420  # the last big-int fallback of the comparison is at n = 401
# First n whose exact y has more than 4300 digits, and a 1000-row probe
# window that ends 500 rows past it.
Y_DIGIT_CAP_N = 21_735
PROBE = (Y_DIGIT_CAP_N - 499, Y_DIGIT_CAP_N + 500)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how to judge it."""

    argv: list
    items: int  # n covered (verify) or rows written (seq)
    # (rc, stdout, stderr) -> True when clean, False for the known
    # defect; raises oracle.OracleError otherwise.
    check: Callable[[int, str, str], bool]
    timed: bool = True


def verify_op(suite, limit):
    def check(rc, out, err):
        oracle.check_verify(rc, out, suite, limit)
        return True

    argv = ["verify", "--suite", suite, "--limit", str(limit), "--format", "json"]
    return Op(argv, limit, check)


def seq_argv(start, stop, exact_y):
    return ["seq", "--from", str(start), "--to", str(stop), "--format", "csv"] + [
        "--exact-y"
    ] * exact_y


def seq_op(rng, start, stop, exact_y):
    samples = [rng.randint(start, stop) for _ in range(SEQ_SAMPLES)]

    def check(rc, out, err):
        oracle.check_seq(rc, out, start, stop, exact_y, samples)
        return True

    return Op(seq_argv(start, stop, exact_y), stop - start + 1, check)


def probe_op(rng):
    start, stop = PROBE
    samples = [rng.randint(start, Y_DIGIT_CAP_N - 1) for _ in range(SEQ_SAMPLES)]

    def check(rc, out, err):
        return oracle.check_seq_probe(rc, out, err, start, stop, samples)

    return Op(seq_argv(start, stop, True), stop - start + 1, check, timed=False)


# Each workload draws one round of operations from the seeded generator
# and names the n range its standalone layer measures cover.


def verify_all(rng):
    limit = rng.randint(100_000, 101_000)
    return [verify_op("all", limit)], (1, limit)


def signs_1e6(rng):
    limit = rng.randint(10**6, 10**6 + 1000)
    return [verify_op("theorem1", limit), verify_op("theorem2", limit)], (1, limit)


def seq_csv(rng):
    start = rng.randint(1, 1000)
    stop = start + 199_999
    return [seq_op(rng, start, stop, False)], (start, stop)


def seq_exact_y(rng):
    start = rng.randint(19_000, 20_700)
    stop = start + 999
    return [seq_op(rng, start, stop, True), probe_op(rng)], (start, stop)


WORKLOADS = {
    "verify-all": verify_all,
    "signs-1e6": signs_1e6,
    "seq-csv": seq_csv,
    "seq-exact-y": seq_exact_y,
}


def child_cmd(*args):
    # -E drops PYTHON* variables, PYTHONINTMAXSTRDIGITS included, so the
    # child keeps the interpreter's default int -> str digit cap; -s keeps
    # user site-packages out.  The child runs in src/, which -c puts first
    # on sys.path.
    return [sys.executable, "-E", "-s", *args]


def spawn(cmd):
    """Run one child to exit; return its costs and output.

    Output goes to files, not pipes, so the child never waits for this
    process to drain it.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as out_file, tempfile.TemporaryFile(
        dir=OUT_DIR
    ) as err_file:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=SRC, stdout=out_file, stderr=err_file)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out_file.seek(0)
        err_file.seek(0)
        out, err = out_file.read(), err_file.read()
    return {
        "rc": proc.returncode,
        "out": out.decode(errors="replace"),
        "err": err.decode(errors="replace"),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
    }


# Runs the CLI as `python -m ineqscan.cli` does, then appends the process's
# own peak RSS to stderr.  wait4's ru_maxrss cannot serve: a child takes
# over its parent's RSS high-water mark at exec, and this process holds
# whole outputs, so small children would report this process's peak.
HWM_TAG = "\nperfbench-vmhwm-kb:"
LAUNCH_CLI = f"""
import atexit, os, runpy, sys
def report():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    os.write(2, {HWM_TAG!r}.encode() + kb.encode())
atexit.register(report)
sys.argv[0] = "ineqscan"
runpy.run_module("ineqscan.cli", run_name="__main__", alter_sys=True)
"""


def run_cli(argv):
    """spawn() for one CLI operation, with its peak RSS split off stderr."""
    res = spawn(child_cmd("-c", LAUNCH_CLI, *argv))
    res["err"], _, kb = res["err"].rpartition(HWM_TAG)
    res["rss_mb"] = int(kb) / 1024
    return res


SETUP = "import ineqscan.cli as cli; cli.build_parser()"

# The box this benchmark was tuned on (2 shared cores) changes speed by up
# to 1.6x, each core on its own, for seconds at a time, so raw medians of
# one run spread by 15-30% between runs.  A fixed pure-Python kernel,
# independent of ineqscan, runs in a child of its own before the first
# timed operation and after each; each operation is scaled by CAL_REF_S
# over the mean kernel time just before and after it.  Interpreter-bound
# work slows the most and C-level int -> str the least, so seq-exact-y,
# which is mostly the latter, gets a kernel of its own.  Raw times are
# kept in the metadata line.
_MIXED = """
d, s = {}, 0
for n in range(1, 80001):
    s += (2 * n - 1) // 3 - ((2 * n).bit_length() + 1) * (n & 31)
    if n % 7 == 0:
        d[n % 1000] = s
for n in range(3000, 3300):
    s ^= (1 << (n // 2)) - n ** (n // 40)
digits = [str(3 ** (n // 3)) for n in range(20000, 20040)]
rows = [",".join(map(str, (n, n // 3, n * 7, n % 11))) for n in range(25000)]
"""
_DIGITS = """
digits = [str(3 ** (n // 3)) for n in range(25000, 25260)]
"""
CALIBRATION = {
    name: f"import time\nt = time.perf_counter()\n{code}\nprint(time.perf_counter() - t)\n"
    for name, code in (
        ("verify-all", _MIXED),
        ("signs-1e6", _MIXED),
        ("seq-csv", _MIXED),
        ("seq-exact-y", _DIGITS),
    )
}
# Each kernel takes about this long on that box at full speed.  Only ratios
# to it are reported, so it sets the scale and nothing else.
CAL_REF_S = 0.1


def checked_spawn(what, code):
    res = spawn(child_cmd("-c", code))
    if res["rc"] != 0:
        raise RuntimeError(f"{what} exited {res['rc']}: {res['err'][-200:]}")
    return res


def calibration(workload):
    return float(checked_spawn("calibration", CALIBRATION[workload])["out"])


def setup_time():
    """Fresh interpreter to `ineqscan.cli` imported and its parser built."""
    return checked_spawn("setup", SETUP)["wall"]


def judge(op, rc, out, err, log):
    """'clean', 'defect' (the known exact-y defect) or 'failed'."""
    try:
        return "clean" if op.check(rc, out, err) else "defect"
    except oracle.OracleError as exc:
        print(f"oracle: {' '.join(op.argv)}: {exc}", file=log)
        return "failed"


def scaled_rounds(ops):
    """Per round: wall and CPU time summed over its timed operations, each
    scaled by the calibration around it; peak RSS; items covered."""
    rounds = {}
    for op in ops:
        scale = CAL_REF_S / statistics.fmean(op["cal"])
        r = rounds.setdefault(op["round"], {"wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "items": 0})
        r["wall"] += op["wall"] * scale
        r["cpu"] += op["cpu"] * scale
        r["rss_mb"] = max(r["rss_mb"], op["rss_mb"])
        r["items"] += op["items"]
    return list(rounds.values())


def end_to_end(rounds, outcomes, setup):
    """End-to-end metrics of one run: medians over rounds and set-ups."""
    med = statistics.median
    return {
        "wall_s": med(r["wall"] for r in rounds),
        "cpu_s": med(r["cpu"] for r in rounds),
        "items_per_s": med(r["items"] / r["wall"] for r in rounds),
        "peak_rss_mb": med(r["rss_mb"] for r in rounds),
        "ok_ratio": outcomes.count("clean") / len(outcomes),
        "setup_s": med(setup),
    }


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    pct = 100 * (n - 10) // n
    return {"percentile": pct, "value": sorted(values)[n - 11], "samples": n}


def measure(workload, seed, seconds, log):
    """Untraced closed loop; return (outcomes, metrics, raw samples)."""
    rng = random.Random(seed)
    setup_time()  # compiles the bytecode cache, which users pay once
    timed, outcomes, setup = [], [], []
    cal = calibration(workload)
    deadline = perf_counter() + seconds
    round_no = 0
    while not round_no or perf_counter() < deadline:
        ops, _ = WORKLOADS[workload](rng)
        for op in ops:
            if op.timed:
                setup.append(setup_time())
            res = run_cli(op.argv)
            outcomes.append(judge(op, res["rc"], res["out"], res["err"], log))
            if op.timed:
                before, cal = cal, calibration(workload)
                timed.append(
                    {
                        "round": round_no,
                        "wall": res["wall"],
                        "cpu": res["cpu"],
                        "rss_mb": res["rss_mb"],
                        "items": op.items,
                        "cal": (before, cal),
                    }
                )
        round_no += 1
    rounds = scaled_rounds(timed)
    raw = {"setup_s": setup, "timed": timed, "wall_s_tail": tail([r["wall"] for r in rounds])}
    return outcomes, end_to_end(rounds, outcomes, setup), raw


def per_call_ns(fn, triples, passes):
    """Median over passes of the time per call of fn(*triple), in ns."""
    times = []
    for _ in range(passes):
        t0 = perf_counter()
        for e, n, k in triples:
            fn(e, n, k)
        times.append((perf_counter() - t0) / len(triples) * 1e9)
    return statistics.median(times)


def cmp_triples(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        m = math.isqrt(2 * n)
        c = 2 * n - 2 * ((2 * n - 1) // 3) + 2
        out.append((c - m, n, m - 1))
    return out


def instrument(tracer, pkg):
    """Wrap each layer's public functions with the tracer's wrappers."""
    tracer.span(pkg.cli, "main", "cli.main")
    for module in (pkg.verifier, pkg.analytic):
        short = module.__name__.rsplit(".", 1)[-1]
        for attr in dir(module):
            if attr.startswith(("check_", "partition_")):
                tracer.span(module, attr, f"{short}.{attr}")
    tracer.timed(pkg.sequences, "row", "sequences.row")
    tracer.timed(pkg.sequences, "y_value", "sequences.y_value")
    tracer.timed(pkg.intervals, "d_bounds", "intervals.d_bounds")
    cmp = pkg.exactarith.cmp_pow2_vs_pow
    binders = [
        mod
        for mod in (pkg.exactarith, pkg.sequences, pkg.intervals, pkg.verifier, pkg.analytic)
        if getattr(mod, "cmp_pow2_vs_pow", None) is cmp
    ]
    tracer.counted(binders, "cmp_pow2_vs_pow", "exactarith.cmp")


# Per-layer metrics read straight off span totals: "<span name>_s".
SPAN_TOTALS = [
    "verifier.partition_x",
    "verifier.partition_y",
    "verifier.check_range_bounds",
    "verifier.check_gap",
    "verifier.check_sign_criteria",
    "verifier.check_negative_x_bound",
    "verifier.check_positive_tail",
    "analytic.check_bounds_x",
    "analytic.check_bounds_Y",
    "analytic.check_sign_consistency",
    "analytic.check_roots",
]


def layer_values(tracer, agg, out_bytes):
    """Per-layer metrics of one traced round."""
    total, own = tracer.span_totals(agg["trace_id"])
    calls, secs = agg["calls"], agg["seconds"]
    values = {f"{span}_s": total[span] for span in SPAN_TOTALS}
    values.update(
        {
            "verifier.check_theorem1.self_s": own["verifier.check_theorem1"],
            "verifier.check_theorem2.self_s": own["verifier.check_theorem2"],
            "sequences.row_calls": calls.get("sequences.row", 0),
            "sequences.row_s": secs.get("sequences.row", 0.0),
            "sequences.y_value_calls": calls.get("sequences.y_value", 0),
            "sequences.y_value_s": secs.get("sequences.y_value", 0.0),
            "exactarith.cmp_calls": calls.get("exactarith.cmp", 0),
            "intervals.d_bounds_calls": calls.get("intervals.d_bounds", 0),
            "cli.self_s": own["cli.main"],
            "cli.out_bytes": out_bytes,
        }
    )
    return values


def run_in_process(cli, ops):
    """Run ops through cli.main; return (wall, [(op, rc, out, err)])."""
    results = []
    t0 = perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
        results.append((op, rc, out.getvalue(), err.getvalue()))
    return perf_counter() - t0, results


def import_package():
    """Import ineqscan from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ineqscan.analytic
    import ineqscan.cli
    import ineqscan.exactarith
    import ineqscan.intervals
    import ineqscan.sequences
    import ineqscan.verifier

    if Path(ineqscan.__file__).resolve().parent != SRC / "ineqscan":
        raise RuntimeError(f"imported ineqscan from {ineqscan.__file__}, not {SRC}")
    return ineqscan


def standalone_values(pkg, lo, hi):
    """Layer measures taken outside the CLI, over the workload's n range."""
    scans = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in pkg.sequences.scan(lo, hi):
            pass
        scans.append((hi - lo + 1) / (perf_counter() - t0))
    cmp = pkg.exactarith.cmp_pow2_vs_pow
    large = cmp_triples(max(1, hi - CMP_LARGE_SPAN + 1), hi)
    small = cmp_triples(1, CMP_SMALL_TOP) * 25
    return {
        "sequences.scan_n_per_s": statistics.median(scans),
        "exactarith.cmp_ns_large_n": per_call_ns(cmp, large, 5),
        "exactarith.cmp_ns_small_n": per_call_ns(cmp, small, 5),
    }


def measure_traced(workload, seed, seconds, log):
    """Plain and traced in-process rounds, alternating; per-layer metrics."""
    pkg = import_package()
    ops, (lo, hi) = WORKLOADS[workload](random.Random(seed))
    ops = [op for op in ops if op.timed]
    tracer = Tracer()
    outcomes, plain, traced, layers = [], [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        wall, results = run_in_process(pkg.cli, ops)
        plain.append(wall)
        instrument(tracer, pkg)
        try:
            wall, traced_results = run_in_process(pkg.cli, ops)
        finally:
            tracer.restore()
        traced.append(wall)
        out_bytes = sum(len(out.encode()) for _, _, out, _ in traced_results)
        layers.append(layer_values(tracer, tracer.end_trace(), out_bytes))
        for op, rc, out, err in results + traced_results:
            outcomes.append(judge(op, rc, out, err, log))
    repeat = all(layer[c] == layers[0][c] for layer in layers for c in COUNTS)
    if not repeat:
        print("trace: counts differ between traced rounds", file=log)
        outcomes.append("failed")
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values.update({c: layers[0][c] for c in COUNTS})
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values.update(standalone_values(pkg, lo, hi))
    trace_file = OUT_DIR / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps(tracer.to_json()))
    raw = {
        "plain_s": plain,
        "traced_s": traced,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return outcomes, values, raw


def git_commit():
    """HEAD of the checkout's git metadata, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_workload(workload, seed, seconds, trace, log):
    """One workload's metadata and result objects."""
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_before": loadavg(),
    }
    measure_fn = measure_traced if trace else measure
    outcomes, values, meta["samples"] = measure_fn(workload, seed, seconds, log)
    meta["loadavg_after"] = loadavg()
    meta["outcomes"] = {k: outcomes.count(k) for k in ("clean", "defect", "failed")}
    units = PER_LAYER if trace else END_TO_END
    failed = outcomes.count("failed")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return meta, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ineqscan" / "cli.py").is_file():
        print(f"error: no ineqscan sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        meta, result = run_workload(workload, args.seed, args.seconds, args.trace, sys.stderr)
        print(json.dumps({"meta": meta}))
        for name, metric in result["metrics"].items():
            print(f"{workload}  {name} = {metric['value']!r} {metric['unit']}", file=sys.stderr)
        results.append(result)
    if len(results) > 1:
        print(json.dumps([{"workload": w, **r} for w, r in zip(workloads, results)]))
    else:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
