"""Acceptance gate: one test per shipped claim, at the stated
tolerances and runtime budgets.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s,
or by running this file directly, which needs no install and no
PYTHONPATH) and then asserts.  The checks here deliberately re-verify
through the public surface rather than reaching into module internals,
so this file doubles as a usage tour.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # Run as a script: import the package from this checkout's src/,
    # which pytest otherwise puts on the path (pyproject.toml).
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ineqscan import analytic, cli, sequences, verifier


def _criterion(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_reference_table():
    t0 = time.perf_counter()
    rep = verifier.check_reference_table()
    dt = time.perf_counter() - t0
    ok = (
        rep.status == verifier.KNOWN_ERRATUM
        and rep.counterexamples == []
        and [(e.item, e.printed, e.computed) for e in rep.errata]
        == [("x(15)", -21, -16), ("x(16)", -20, -15)]
        and rep.data["cells_confirmed"] == 46
        and dt < 0.010
    )
    _criterion(
        1,
        "reference table",
        ok,
        f"46/48 cells exact, x(15)/x(16) flagged as misprints, {dt * 1000:.2f} ms",
    )


def test_criterion_02_interval_table():
    t0 = time.perf_counter()
    rep = verifier.check_interval_table()
    dt = time.perf_counter() - t0
    ok = (
        rep.status == verifier.KNOWN_ERRATUM
        and rep.counterexamples == []
        and rep.data["links"] == 41
        and [(e.item, e.printed, e.computed) for e in rep.errata]
        == [("interval 41 m", 32, 33)]
        and dt < 0.010
    )
    _criterion(
        2,
        "interval chain",
        ok,
        f"41 links, 40 exact + final m misprint (32 vs 33), {dt * 1000:.2f} ms",
    )


def test_criterion_03_first_sign_classification():
    t0 = time.perf_counter()
    rep = verifier.check_theorem1(5000)
    part = verifier.partition_x(5000)
    dt = time.perf_counter() - t0
    ok = (
        rep.status == verifier.CONFIRMED
        and part.support_of(0) == [436, 451, 529, 545, 546]
        and part.runs_of(-1) == [(1, 435), (450, 450), (513, 528)]
        and dt < 0.1
    )
    _criterion(
        3,
        "x sign classification",
        ok,
        f"zero and negative sets exact on [1, 5000], {dt * 1000:.1f} ms",
    )


def test_criterion_04_second_sign_classification():
    t0 = time.perf_counter()
    part = verifier.partition_y(5000)
    # belt and braces: recompute every sign from the exact big-integer
    # difference, not just from the comparator the partition used
    direct = {}
    for n in range(1, 5001):
        yv = sequences.y_value(n)
        direct[n] = (yv > 0) - (yv < 0)
    rep = verifier.check_theorem2(part)
    dt = time.perf_counter() - t0
    agree = all(
        direct[n] == s for a, b, s in part.runs for n in range(a, b + 1)
    )
    ok = (
        rep.status == verifier.CONFIRMED
        and agree
        and part.runs_of(-1) == [(5, 335), (338, 350), (365, 368)]
        and part.runs_of(0) == []
        and dt < 10.0
    )
    _criterion(
        4,
        "y sign classification",
        ok,
        f"negative runs exact, no zeros, big-int cross-check on [1, 5000], {dt:.2f} s",
    )


def test_criterion_05_gap_lower_bounds():
    t0 = time.perf_counter()
    rep = verifier.check_gap(10**6)
    dt = time.perf_counter() - t0
    ok = (
        rep.status == verifier.CONFIRMED
        and rep.data["min_gap"] == 2
        and rep.data["min_gap_at"] == [2]
        and rep.data["min_gap_from_10"] >= 5
        and dt < 1.0
    )
    _criterion(
        5,
        "gap lower bounds",
        ok,
        f"min(c-m)=2 only at n=2, c-m>=5 from n=10, over [1, 10^6] in {dt:.2f} s",
    )


def test_criterion_06_implication_lemmas():
    part = verifier.partition_y(5000)
    reports = [
        verifier.check_range_bounds(5000),
        verifier.check_sign_criteria(part),
        verifier.check_negative_x_bound(part),
        verifier.check_positive_tail(part),
    ]
    ok = all(
        rep.status == verifier.CONFIRMED and rep.counterexamples == []
        for rep in reports
    )
    _criterion(
        6,
        "implication lemmas",
        ok,
        "range bounds, both sign criteria, negative-x bound, positive tail: "
        "zero counterexamples on [1, 5000]",
    )


def test_criterion_07_root_brackets():
    t0 = time.perf_counter()
    reports = analytic.check_roots()
    dt = time.perf_counter() - t0
    expected = {
        "roots/x-lower": (560, 561),
        "roots/x-upper": (384, 385),
        "roots/y-lower": (379, 380),
        "roots/y-upper": (324, 325),
    }
    ok = dt < 0.1
    for rep in reports:
        ok = (
            ok
            and rep.counterexamples == []
            and tuple(rep.data["bracket"]) == expected[rep.claim_id]
            and rep.data["width"] <= 1e-9
            and len(rep.data["flips"]) == 1
            and rep.data["scan_hi"] == 10**4
        )
    _criterion(
        7,
        "root brackets",
        ok,
        "unique roots in (560,561), (384,385), (379,380), (324,325), "
        f"width <= 1e-9, single grid sign change to 10^4, {dt * 1000:.1f} ms",
    )


def test_criterion_08_envelope_sandwich():
    t0 = time.perf_counter()
    rep_x = analytic.check_bounds_x(10**5)
    rep_y = analytic.check_bounds_Y(10**5)
    dt = time.perf_counter() - t0
    ok = (
        rep_x.status == verifier.CONFIRMED
        and rep_y.status == verifier.CONFIRMED
        and rep_x.data["min_lower_margin"] > 0
        and rep_x.data["min_upper_margin"] > 0
        and rep_y.data["min_lower_margin"] > 0
        and rep_y.data["min_upper_margin"] > 0
        and dt < 1.0
    )
    _criterion(
        8,
        "envelope sandwich",
        ok,
        f"strict lower/upper envelopes around x and Y on [1, 10^5], {dt:.2f} s",
    )


def test_criterion_09_derivative_checks():
    worst_first = worst_second = 0.0
    ratio = (1e5 / 5.0) ** (1.0 / 19.0)
    ok = True
    for coeffs in analytic.NAMED_INSTANCES.values():
        for i in range(20):
            t = 5.0 * ratio**i
            h = 1e-4 * t
            fd1 = (
                analytic.F_eval(coeffs, t + h) - analytic.F_eval(coeffs, t - h)
            ) / (2.0 * h)
            d1 = analytic.F_prime(coeffs, t)
            err1 = abs(d1 - fd1) / max(1.0, abs(d1))
            worst_first = max(worst_first, err1)
            fd2 = (
                analytic.F_prime(coeffs, t + h) - analytic.F_prime(coeffs, t - h)
            ) / (2.0 * h)
            d2 = analytic.F_second(coeffs, t)
            err2 = abs(d2 - fd2) / max(1.0, abs(d2))
            worst_second = max(worst_second, err2)
    ok = ok and worst_first <= 1e-5 and worst_second <= 1e-4
    slope_dev = max(
        abs(analytic.F_prime(c_, 1e9) - 2.0 / 3.0)
        for c_ in analytic.NAMED_INSTANCES.values()
    )
    ok = ok and slope_dev < 1e-3
    _criterion(
        9,
        "derivative checks",
        ok,
        f"worst FD error {worst_first:.2e} (first), {worst_second:.2e} (second); "
        f"slope at 10^9 within {slope_dev:.2e} of 2/3",
    )


def test_criterion_10_printed_approximations():
    rep = analytic.check_approximations()
    ok = rep.status == verifier.CONFIRMED
    # spot assertions at the stated tolerances; the -2.4 value is a
    # one-decimal print, so it carries the one-decimal tolerance, same
    # as -238.7 (print-precision policy; see README errata section)
    checks = (
        ("Y(325)", analytic.Y_real(325), -5.26, 0.02),
        ("Y(337)", analytic.Y_real(337), 1.48, 0.02),
        ("Y(338)", analytic.Y_real(338), -8.02, 0.02),
        ("Y(353)", analytic.Y_real(353), 0.41, 0.02),
        ("Y(365)", analytic.Y_real(365), -2.4, 0.1),
        ("Y(371)", analytic.Y_real(371), 1.08, 0.02),
        ("d(364)", analytic.d_real(364), -238.7, 0.1),
        ("delta_d(371)", analytic.d_real(374) - analytic.d_real(371), -0.3, 0.05),
    )
    for label, value, printed, tol in checks:
        ok = ok and abs(value - printed) <= tol
    for n in range(371, 389):
        step_y = analytic.Y_real(n + 3) - analytic.Y_real(n)
        step_d = analytic.d_real(n + 3) - analytic.d_real(n)
        ok = ok and abs(step_y - (2.0 + step_d)) <= 1e-12
    _criterion(
        10,
        "printed approximations",
        ok,
        "8 decimal values match at print precision (Y(365) at one-decimal "
        "tolerance 0.1); increment identity holds to 1e-12",
    )


def test_criterion_11_float_exact_consistency():
    rep = analytic.check_sign_consistency(verifier.partition_y(5000))
    min_abs = rep.data["min_abs_Y"]
    ok = (
        rep.status == verifier.CONFIRMED
        and rep.counterexamples == []
        and min_abs > 1e-6
    )
    _criterion(
        11,
        "float/exact sign consistency",
        ok,
        f"signs agree on [1, 5000]; min |Y| = {min_abs:.6f} at "
        f"n = {rep.data['min_abs_Y_at']}",
    )


def test_criterion_12_cli_verify_gate():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc_plain = cli.main(
            ["verify", "--suite", "all", "--limit", "5000", "--format", "json"]
        )
    reports = json.loads(buf.getvalue())
    errata = [e["item"] for rep in reports for e in rep["errata"]]
    with contextlib.redirect_stdout(io.StringIO()):
        rc_strict = cli.main(
            ["verify", "--suite", "all", "--limit", "5000", "--strict"]
        )
    ok = (
        rc_plain == 0
        and rc_strict == 1
        and len(reports) == 17
        and sorted(errata)
        == sorted(["x(15)", "x(16)", "interval 41 m", "y-lower root bracket"])
        and not any(rep["status"] == "DISCREPANCY" for rep in reports)
    )
    _criterion(
        12,
        "cli verify gate",
        ok,
        f"exit 0 with exactly 4 documented errata and no discrepancy; "
        f"--strict exits {rc_strict}",
    )


def main():
    """Run all criteria in order without pytest; exit 1 on any failure."""
    tests = [
        test_criterion_01_reference_table,
        test_criterion_02_interval_table,
        test_criterion_03_first_sign_classification,
        test_criterion_04_second_sign_classification,
        test_criterion_05_gap_lower_bounds,
        test_criterion_06_implication_lemmas,
        test_criterion_07_root_brackets,
        test_criterion_08_envelope_sandwich,
        test_criterion_09_derivative_checks,
        test_criterion_10_printed_approximations,
        test_criterion_11_float_exact_consistency,
        test_criterion_12_cli_verify_gate,
    ]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError:
            failures += 1
    if failures:
        print(f"{failures} criteria failed")
        return 1
    print("all 12 criteria passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
