"""Tests for the envelope family and its root isolation.

Closed-form derivatives are validated against central finite
differences, the envelope sandwich against the exact integer data, the
bisection brackets against values recomputed with an independent
script (those appear here rounded to 12 places), and the integer tail
certificate positive_beyond against F, F' and F'' at 80 digits.
"""

import decimal
import json
import math
import re
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ineqscan import analytic, sequences, verifier
from ineqscan.exactarith import cmp_pow2_vs_pow

INSTANCES = list(analytic.NAMED_INSTANCES.items())

# independently recomputed roots, one per instance
GOLDEN_ROOTS = {
    "x-lower": 560.498909203801,
    "x-upper": 384.187364675570,
    "y-lower": 379.631824493874,
    "y-upper": 324.379005479161,
}


def unit_bracket(name):
    """The integer bracket (k, k + 1) around the golden root."""
    k = math.floor(GOLDEN_ROOTS[name])
    return k, k + 1


EXACT = decimal.Context(prec=80)
LN2 = EXACT.ln(2)


def exact_terms(coeffs, u):
    """F(u), F'(u) and F''(u) to 80 digits, u an int, float or Decimal."""
    a, b, c = coeffs
    with decimal.localcontext(EXACT):
        u = Decimal(u)
        s, root2 = (2 * u).sqrt(), Decimal(2).sqrt()
        lg = u.ln() / LN2
        f = 2 * u / 3 + a - b * s + c * lg - s * lg
        f1 = Decimal(2) / 3 - b / s + c / (u * LN2) - lg / s - s / (u * LN2)
        f2 = (u.sqrt() * (b + lg) * LN2 - 2 * root2 * c) / (2 * root2 * u * u * LN2)
    return f, f1, f2


class TestEvaluation:
    def test_anchor_values(self):
        assert analytic.F_eval(analytic.X_LOWER, 1.0) == pytest.approx(
            2.0 / 3.0 - 1.0 - 2.0 * math.sqrt(2.0), abs=1e-15
        )
        assert analytic.F_eval(analytic.X_UPPER, 1.0) == pytest.approx(
            2.0 / 3.0 + 1.0 - math.sqrt(2.0), abs=1e-15
        )
        # at x = 2 the sqrt(2x) factor is exactly 2
        assert analytic.F_eval(analytic.Y_LOWER, 2.0) == pytest.approx(
            4.0 / 3.0 + 2.0 - 2.0 + 1.0 - 2.0, abs=1e-15
        )

    def test_domain_errors(self):
        for _, coeffs in INSTANCES:
            for fn in (analytic.F_eval, analytic.F_prime, analytic.F_second):
                with pytest.raises(ValueError):
                    fn(coeffs, 0.0)
                with pytest.raises(ValueError):
                    fn(coeffs, -3.0)

    def test_grows_linearly_at_infinity(self):
        for _, coeffs in INSTANCES:
            assert analytic.F_eval(coeffs, 1e9) > 6e8  # (2/3) x dominates


class TestDerivatives:
    @staticmethod
    def _log_spaced(lo, hi, count):
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return [lo * ratio**i for i in range(count)]

    def test_first_derivative_matches_finite_differences(self):
        for _, coeffs in INSTANCES:
            for t in self._log_spaced(5.0, 1e5, 20):
                h = 1e-4 * t
                fd = (
                    analytic.F_eval(coeffs, t + h) - analytic.F_eval(coeffs, t - h)
                ) / (2.0 * h)
                exact = analytic.F_prime(coeffs, t)
                assert abs(exact - fd) <= 1e-5 * max(1.0, abs(exact))

    def test_second_derivative_matches_finite_differences(self):
        for _, coeffs in INSTANCES:
            for t in self._log_spaced(5.0, 1e5, 20):
                h = 1e-4 * t
                fd = (
                    analytic.F_prime(coeffs, t + h) - analytic.F_prime(coeffs, t - h)
                ) / (2.0 * h)
                exact = analytic.F_second(coeffs, t)
                assert abs(exact - fd) <= 1e-4 * max(1.0, abs(exact))

    def test_slope_settles_at_two_thirds(self):
        for _, coeffs in INSTANCES:
            assert abs(analytic.F_prime(coeffs, 1e9) - 2.0 / 3.0) < 1e-3

    def test_convex_beyond_threshold(self):
        for _, coeffs in INSTANCES:
            threshold = max(2.0, math.exp(2.0 * coeffs.c) / 2**coeffs.b)
            t = threshold + 1e-9
            while t < 1e6:
                assert analytic.F_second(coeffs, t) > 0, (coeffs, t)
                t *= 3.7

    def test_concave_region_exists_when_constant_is_large(self):
        # y-upper has the largest c and a genuinely concave stretch
        assert analytic.F_second(analytic.Y_UPPER, 5.0) < 0
        assert analytic.F_second(analytic.Y_UPPER, 30.0) > 0


class TestRootIsolation:
    def test_bisection_shrinks_to_tolerance(self):
        for name, coeffs in INSTANCES:
            lo, hi = unit_bracket(name)
            out = analytic.isolate_root(coeffs, float(lo), float(hi), 1e-9)
            assert out.width <= 1e-9
            assert out.lo < GOLDEN_ROOTS[name] < out.hi
            flo = analytic.F_eval(coeffs, out.lo)
            fhi = analytic.F_eval(coeffs, out.hi)
            assert flo != 0 and fhi != 0 and (flo < 0) != (fhi < 0)

    def test_brackets_nest_as_tolerance_shrinks(self):
        for name, coeffs in INSTANCES:
            lo, hi = unit_bracket(name)
            coarse = analytic.isolate_root(coeffs, float(lo), float(hi), 1e-3)
            fine = analytic.isolate_root(coeffs, float(lo), float(hi), 1e-9)
            assert coarse.lo <= fine.lo < fine.hi <= coarse.hi

    def test_endpoint_signs_honest(self):
        # bisected from the printed brackets, the y-lower misprint included
        for name, coeffs in INSTANCES:
            lo, hi = analytic.ROOT_BRACKETS[name]
            out = analytic.isolate_root(coeffs, float(lo), float(hi))
            flo = analytic.F_eval(coeffs, out.lo)
            fhi = analytic.F_eval(coeffs, out.hi)
            assert flo != 0 and fhi != 0 and (flo < 0) != (fhi < 0)
            assert out.lo < GOLDEN_ROOTS[name] < out.hi

    def test_rejects_bad_brackets(self):
        with pytest.raises(ValueError):
            analytic.isolate_root(analytic.X_LOWER, 10.0, 20.0)  # same sign
        with pytest.raises(ValueError):
            analytic.isolate_root(analytic.X_LOWER, 561.0, 560.0)
        with pytest.raises(ValueError):
            analytic.isolate_root(analytic.X_LOWER, 560.0, 561.0, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_tolerance(self, tol):
        # NaN passes a plain "tol <= 0" guard and would skip the bisection
        with pytest.raises(ValueError):
            analytic.isolate_root(analytic.X_LOWER, 560.0, 561.0, tol=tol)
        with pytest.raises(ValueError):
            analytic.check_roots(tol)

    def test_check_roots_reports(self):
        reports = analytic.check_roots()
        assert [rep.claim_id for rep in reports] == [
            "roots/x-lower",
            "roots/x-upper",
            "roots/y-lower",
            "roots/y-upper",
        ]
        by_name = {rep.claim_id.split("/")[1]: rep for rep in reports}
        for name, rep in by_name.items():
            assert rep.counterexamples == []
            assert rep.data["bracket"] == list(unit_bracket(name))
            assert rep.data["width"] <= 1e-9
            assert abs(rep.data["root_lo"] - GOLDEN_ROOTS[name]) < 1e-8
        assert by_name["y-lower"].status == verifier.KNOWN_ERRATUM
        assert by_name["y-lower"].errata[0].printed == (379, 389)
        for name in ("x-lower", "x-upper", "y-upper"):
            assert by_name[name].status == verifier.CONFIRMED

    def test_scan_through_the_dip_is_a_discrepancy(self, monkeypatch):
        # from t = 1 the y-upper grid also crosses the dip near the
        # origin, so the scan sees two sign changes and brackets nothing
        monkeypatch.setitem(analytic.ROOT_SCAN_START, "y-upper", 1)
        (rep,) = [r for r in analytic.check_roots() if r.claim_id == "roots/y-upper"]
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == ["2 sign changes at [9, 325]"]
        assert rep.details == "expected one sign change on [1, 10000]"
        assert rep.errata == []
        assert "bracket" not in rep.data


class TestSurrogates:
    def test_d_real_formula(self):
        for n in (1, 2, 5, 364, 5000):
            mm = sequences.m(n)
            assert analytic.d_real(n) == pytest.approx(
                -mm - (mm - 1) * math.log2(n), abs=1e-12
            )

    def test_known_decimal_values(self):
        assert analytic.d_real(364) == pytest.approx(-238.694866, abs=1e-6)
        assert analytic.Y_real(365) == pytest.approx(-2.305569, abs=1e-6)
        assert analytic.Y_real(337) == pytest.approx(1.481485, abs=1e-6)
        assert analytic.Y_real(338) == pytest.approx(-8.021986, abs=1e-6)

    def test_sign_consistency_report(self):
        rep = analytic.check_sign_consistency(5000)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["min_abs_Y_at"] == 333
        assert rep.data["min_abs_Y"] == pytest.approx(0.105081, abs=1e-6)
        assert rep.data["min_abs_Y"] > 1e-6


class TestSandwich:
    def test_bounds_confirmed_at_ten_thousand(self):
        rep = analytic.check_bounds_x(10**4)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["min_lower_margin"] > 0
        rep = analytic.check_bounds_Y(10**4)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["min_upper_margin"] > 0

    @pytest.mark.parametrize("limit", [600, 5000, 10**5])
    def test_y_lower_margin_ties_at_two_thirds(self, limit):
        # Y - F = c - 2n/3 - 2 = 2/3 where 2n = m*m and n % 3 == 2, so the
        # reported n is one of those ties, picked by float rounding
        rep = analytic.check_bounds_Y(limit)
        assert abs(rep.data["min_lower_margin"] - 2 / 3) < 1e-9
        n = int(re.search(r"smallest lower margin \S+ at n = (\d+)", rep.details)[1])
        assert math.isqrt(2 * n) ** 2 == 2 * n
        assert n % 3 == 2

    def test_pointwise_spot_checks(self):
        for n in (1, 2, 16, 365, 546, 9999):
            xx = sequences.x(n)
            assert analytic.F_eval(analytic.X_LOWER, n) < xx
            assert xx < analytic.F_eval(analytic.X_UPPER, n)
            yy = analytic.Y_real(n)
            assert analytic.F_eval(analytic.Y_LOWER, n) < yy
            assert yy < analytic.F_eval(analytic.Y_UPPER, n)


class TestApproximations:
    def test_report_confirmed(self):
        rep = analytic.check_approximations()
        assert rep.status == verifier.CONFIRMED
        assert rep.counterexamples == []

    def test_each_entry_within_its_tolerance(self):
        for label, value_at, n, printed, tol in analytic.APPROXIMATIONS:
            value = value_at(n)
            assert abs(value - printed) <= tol, label

    def test_one_decimal_entry_really_needs_loose_tolerance(self):
        # the -2.4 print is 0.094 away from the computed value, so the
        # two-decimal tolerance would be wrong for it; this pins the
        # distinction so nobody tightens it back by accident
        value = analytic.Y_real(365)
        assert abs(value - (-2.4)) > 0.02
        assert abs(value - (-2.4)) <= 0.1

    def test_increment_identity(self):
        for n in range(371, 389):
            step_y = analytic.Y_real(n + 3) - analytic.Y_real(n)
            step_d = analytic.d_real(n + 3) - analytic.d_real(n)
            assert abs(step_y - (2.0 + step_d)) <= 1e-12
        assert analytic.d_real(374) - analytic.d_real(371) == pytest.approx(
            26.0 * math.log2(371.0 / 374.0), abs=1e-12
        )


class TestClosedFormAnchors:
    def test_upper_instance_at_small_arguments(self):
        assert analytic.F_eval(analytic.X_UPPER, 4.0) == pytest.approx(
            8.0 / 3.0 + 3.0 - 6.0 * math.sqrt(2.0), abs=1e-12
        )
        assert analytic.F_eval(analytic.X_UPPER, 4.0) < 0.0
        expected = (
            11.0
            - math.sqrt(18.0)
            + 2.0 * math.log2(9.0)
            - math.sqrt(18.0) * math.log2(9.0)
        )
        assert analytic.F_eval(analytic.Y_UPPER, 9.0) == pytest.approx(
            expected, abs=1e-12
        )
        assert analytic.F_eval(analytic.Y_UPPER, 9.0) < 0.0

    def test_signs_flip_across_each_root(self):
        assert analytic.F_eval(analytic.X_LOWER, 561.0) > 0.0
        assert analytic.F_eval(analytic.X_UPPER, 384.0) < 0.0
        assert analytic.F_eval(analytic.Y_LOWER, 380.0) > 0.0
        assert analytic.F_eval(analytic.Y_UPPER, 324.0) < 0.0

    def test_wide_brackets_land_on_the_same_roots(self):
        # starting from a bracket thousands wide must converge into the
        # unit interval each root is known to occupy
        for coeffs, lo, unit in (
            (analytic.X_LOWER, 1.0, 560.0),
            (analytic.X_UPPER, 4.0, 384.0),
            (analytic.Y_LOWER, 4.0, 379.0),
            (analytic.Y_UPPER, 9.0, 324.0),
        ):
            br = analytic.isolate_root(coeffs, lo, 1.0e4)
            assert unit < br.lo <= br.hi < unit + 1.0

    def test_convex_beyond_scan_start(self):
        for t in (5.0, 10.0, 100.0, 5000.0):
            assert analytic.F_second(analytic.X_UPPER, t) > 0.0
        for t in (10.0, 15.0, 30.0, 100.0, 5000.0):
            assert analytic.F_second(analytic.Y_UPPER, t) > 0.0

    def test_d_surrogate_shape(self):
        assert analytic.d_real(1) == pytest.approx(-1.0, abs=1e-15)
        for n in range(1, 1000):
            assert analytic.d_real(n + 1) < analytic.d_real(n)

    def test_sign_consistency_degenerate_limit_serializes(self):
        # below n = 5 there is nothing to take a minimum over; the report
        # must still be valid JSON (no float infinities)
        rep = analytic.check_sign_consistency(1)
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["data"]["min_abs_Y"] is None
        assert rep.status == verifier.CONFIRMED


# ---------------------------------------------------------------------------
# Rewritten checks against the plain per-n loops they replaced
# ---------------------------------------------------------------------------


def _reference_margins(claim_id, what, lower, upper, limit, values):
    counterexamples = []
    min_low = min_up = math.inf
    min_low_at = min_up_at = None
    for n, value in values:
        low = value - analytic.F_eval(lower, n)
        up = analytic.F_eval(upper, n) - value
        if low <= 0 or up <= 0:
            counterexamples.append(n)
        if low < min_low:
            min_low, min_low_at = low, n
        if up < min_up:
            min_up, min_up_at = up, n
    if counterexamples:
        base = f"envelopes not strict around {what} at {len(counterexamples)} value"
        base += "" if len(counterexamples) == 1 else "s"
    else:
        base = f"both envelopes strict around {what}"
    details = (
        f"{base}; smallest lower margin {min_low:.6f} at n = {min_low_at}, "
        f"smallest upper margin {min_up:.6f} at n = {min_up_at}"
    )
    if min(min_low, min_up) < analytic.MARGIN_FLOOR:
        details += "; warning: a margin sits inside float noise"
    return verifier.make_report(
        claim_id,
        1,
        limit,
        details,
        counterexamples=counterexamples,
        data={"min_lower_margin": min_low, "min_upper_margin": min_up},
    )


def reference_bounds_x(limit):
    values = [(n, xx) for n, _, _, _, _, xx, _, _ in sequences.scan(1, limit)]
    return _reference_margins(
        "analytic/x-bounds",
        "x",
        analytic.X_LOWER,
        analytic.X_UPPER,
        limit,
        values,
    )


def reference_bounds_Y(limit):
    values = [
        (n, (cc - mm) - (mm - 1) * math.log2(n))
        for n, _, mm, _, cc, _, _, _ in sequences.scan(1, limit)
    ]
    return _reference_margins(
        "analytic/Y-bounds",
        "the y surrogate",
        analytic.Y_LOWER,
        analytic.Y_UPPER,
        limit,
        values,
    )


def reference_sign_consistency(limit):
    counterexamples = []
    min_abs, min_abs_at = math.inf, None
    for n, _, mm, _, cc, _, _, _ in sequences.scan(1, limit):
        yy = (cc - mm) - (mm - 1) * math.log2(n)
        if n >= 5 and abs(yy) < min_abs:
            min_abs, min_abs_at = abs(yy), n
        if abs(yy) <= 1e-6:
            counterexamples.append(n)
            continue
        if (1 if yy > 0 else -1) != cmp_pow2_vs_pow(cc - mm, n, mm - 1):
            counterexamples.append(n)
    if counterexamples:
        details = (
            "float surrogate sign differs from the exact sign at "
            f"{len(counterexamples)} value" + ("" if len(counterexamples) == 1 else "s")
        )
    else:
        details = "float surrogate sign matches the exact sign everywhere"
    if min_abs_at is None:
        min_abs = None
    else:
        details += f"; smallest |Y| over [5, {limit}] is {min_abs:.6f} at n = {min_abs_at}"
    return verifier.make_report(
        "analytic/sign-consistency",
        1,
        limit,
        details,
        counterexamples=counterexamples,
        data={"min_abs_Y": min_abs, "min_abs_Y_at": min_abs_at},
    )


REFERENCE_CHECKS = (
    (analytic.check_bounds_x, reference_bounds_x),
    (analytic.check_bounds_Y, reference_bounds_Y),
    (analytic.check_sign_consistency, reference_sign_consistency),
)


class TestRewrittenChecksAgainstPerN:
    @pytest.mark.parametrize("limit", [1, 2, 9, 10, 11, 12, 20, 547, 5000])
    def test_spot_limits(self, limit):
        for check, reference in REFERENCE_CHECKS:
            assert check(limit).to_dict() == reference(limit).to_dict()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=20000))
    def test_any_limit(self, limit):
        for check, reference in REFERENCE_CHECKS:
            assert check(limit).to_dict() == reference(limit).to_dict()

    def test_invalid_limit(self):
        for check, _ in REFERENCE_CHECKS:
            with pytest.raises(ValueError):
                check(0)

    def test_surrogate_at_the_printed_points(self):
        # Y_real is computed as (c - m) - (m - 1) log2(n); at the printed
        # points and across the increment identity it agrees bit for bit
        # with c + d_real(n)
        printed = [
            n for _, value_at, n, _, _ in analytic.APPROXIMATIONS if value_at is analytic.Y_real
        ]
        for n in printed + list(range(371, 392)):
            assert analytic.Y_real(n) == sequences.c(n) + analytic.d_real(n)


class TestCandidateRoute:
    """The three range checks settle each chain link from a few candidate
    n; the per-n references above are the oracle."""

    def test_every_limit_to_600(self):
        # every printed link and every boundary of y's sign runs ends in
        # this range, so each clipped last link is compared too
        for limit in range(1, 601):
            for check, reference in REFERENCE_CHECKS:
                assert check(limit).to_dict() == reference(limit).to_dict(), limit

    def test_at_ten_to_the_fifth(self):
        for check, reference in REFERENCE_CHECKS:
            assert check(10**5).to_dict() == reference(10**5).to_dict()

    def test_links_at_one_billion(self, monkeypatch):
        # past the per-n prefix no n is stepped: F_eval runs at most six
        # times per link, Y at most three times per piece of a sign run
        limit = 10**9
        links = sum(1 for _ in sequences.chain_links(1, limit))
        # built beforehand, so scan's callers inside partition_y are not seen
        part = verifier.partition_y(limit)
        monkeypatch.setattr(verifier, "partition_y", lambda limit: part)
        runs = len(part.runs)
        prefix = analytic.PER_N_BELOW
        calls = {"F_eval": 0, "_Y": 0}
        scanned = []

        def counting(name):
            inner = getattr(analytic, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        scan = sequences.scan

        def recording_scan(lo, hi):
            scanned.append((lo, hi))
            return scan(lo, hi)

        for name in calls:
            monkeypatch.setattr(analytic, name, counting(name))
        monkeypatch.setattr(sequences, "scan", recording_scan)
        for check in (analytic.check_bounds_x, analytic.check_bounds_Y):
            calls["F_eval"] = 0
            assert check(limit).status == verifier.CONFIRMED
            assert calls["F_eval"] <= 6 * links + 2 * prefix, check.__name__
        calls["_Y"] = 0
        assert analytic.check_sign_consistency(limit).status == verifier.CONFIRMED
        assert calls["_Y"] <= 3 * (links + runs) + prefix
        assert scanned == []

    @pytest.mark.parametrize("limit", [17, 100, 600, 2000])
    def test_instance_outside_the_proved_class_is_walked_per_n(self, monkeypatch, limit):
        # c = 40 breaks the monotonicity the candidate route rests on: the
        # check must step every n and still equal the per-n reference
        mutant = analytic.FCoeffs(1, 1, 40)
        calls = 0
        f_eval = analytic.F_eval

        def counting_f_eval(coeffs, t):
            nonlocal calls
            calls += 1
            return f_eval(coeffs, t)

        for name, check, reference in (
            ("X_UPPER", analytic.check_bounds_x, reference_bounds_x),
            ("Y_UPPER", analytic.check_bounds_Y, reference_bounds_Y),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(analytic, name, mutant)
                expected = reference(limit).to_dict()
                patch.setattr(analytic, "F_eval", counting_f_eval)
                calls = 0
                assert check(limit).to_dict() == expected, name
                assert calls == 2 * limit, name

    def test_tied_margins_keep_the_first_n(self, monkeypatch):
        # with whole-number envelopes the x margins are integers and tie
        # often (floor keeps them monotone on each residue class, since x
        # steps by exactly 2 every three n); the smallest margin must be
        # reported at its first n
        f_eval = analytic.F_eval
        monkeypatch.setattr(
            analytic, "F_eval", lambda coeffs, t: float(math.floor(f_eval(coeffs, t)))
        )
        for limit in range(1, 601):
            rep = analytic.check_bounds_x(limit)
            assert rep.to_dict() == reference_bounds_x(limit).to_dict(), limit

    @pytest.mark.parametrize("favoured", [0, 1, 2])
    def test_period_three_term_in_the_envelopes(self, monkeypatch, favoured):
        # a term that depends only on n mod 3 keeps every margin monotone
        # on each residue class, so the candidate route must stay exact;
        # raising the margins off one class moves the link minima onto
        # that class, the third candidate on some links
        f_eval = analytic.F_eval

        def shifted(coeffs, t):
            if int(t) % 3 == favoured:
                return f_eval(coeffs, t)
            lower = coeffs in (analytic.X_LOWER, analytic.Y_LOWER)
            return f_eval(coeffs, t) + (-3.0 if lower else 3.0)

        monkeypatch.setattr(analytic, "F_eval", shifted)
        for limit in [*range(1, 601, 7), 5000]:
            for check, reference in REFERENCE_CHECKS[:2]:
                assert check(limit).to_dict() == reference(limit).to_dict(), limit

    def test_flipped_run_is_stepped_per_n(self, monkeypatch):
        # the float sign disagrees with a flipped run at every n of it,
        # so every n of the run must be listed, not only the candidates
        part = verifier.partition_y(5000)
        a, b, sign = part.runs[-1]
        flipped = part._replace(runs=part.runs[:-1] + ((a, b, -sign),))
        monkeypatch.setattr(verifier, "partition_y", lambda limit: flipped)
        rep = analytic.check_sign_consistency(5000)
        assert rep.counterexamples == list(range(a, b + 1))
        assert rep.details.startswith(
            f"float surrogate sign differs from the exact sign at {b - a + 1} values;"
        )


class TestSandwichThroughSharedLoop:
    """An envelope that dips below the data must surface as a
    discrepancy, with the counterexamples of the plain per-n loop."""

    def test_x_upper_below_the_data(self, monkeypatch):
        monkeypatch.setattr(analytic, "X_UPPER", analytic.FCoeffs(-4, 1, 1))
        rep = analytic.check_bounds_x(2000)
        assert rep.status == verifier.DISCREPANCY
        assert rep.data["min_upper_margin"] <= 0
        assert rep.to_dict() == reference_bounds_x(2000).to_dict()
        assert rep.details.startswith(
            f"envelopes not strict around x at {len(rep.counterexamples)} values;"
        )

    def test_y_upper_below_the_data(self, monkeypatch):
        monkeypatch.setattr(analytic, "Y_UPPER", analytic.FCoeffs(0, 1, 2))
        rep = analytic.check_bounds_Y(2000)
        assert rep.status == verifier.DISCREPANCY
        assert rep.data["min_upper_margin"] <= 0
        assert rep.to_dict() == reference_bounds_Y(2000).to_dict()
        assert "both envelopes strict" not in rep.details


class TestRootRegistry:
    KEY = ("root-bracket", "bracket", "y-lower")

    @staticmethod
    def _y_lower():
        (rep,) = [r for r in analytic.check_roots(1e-6) if r.claim_id == "roots/y-lower"]
        return rep

    def test_untouched_registry(self):
        rep = self._y_lower()
        assert rep.status == verifier.KNOWN_ERRATUM
        assert rep.counterexamples == []
        assert rep.errata == [
            verifier.Erratum(
                "y-lower root bracket",
                (379, 389),
                (379, 380),
                verifier.KNOWN_ERRATA[self.KEY][3],
            )
        ]

    def test_wrong_correction_is_a_discrepancy(self, monkeypatch):
        label, printed, _, note = verifier.KNOWN_ERRATA[self.KEY]
        monkeypatch.setitem(
            verifier.KNOWN_ERRATA, self.KEY, (label, printed, (378, 379), note)
        )
        rep = self._y_lower()
        assert rep.status == verifier.DISCREPANCY
        assert rep.errata == []
        assert rep.counterexamples == ["y-lower"]

    def test_published_bracket_stays_published(self):
        # the roots table keeps the printed y-lower bracket verbatim;
        # correcting it there would hide the misprint from every report
        label, printed, computed, _ = verifier.KNOWN_ERRATA[self.KEY]
        assert printed == analytic.ROOT_BRACKETS["y-lower"]
        assert computed == (379, 380)

    def test_drifted_printed_bracket_is_a_discrepancy(self, monkeypatch):
        # a printed bracket no erratum explains is a counterexample
        monkeypatch.setitem(analytic.ROOT_BRACKETS, "x-lower", (559, 560))
        (rep,) = [r for r in analytic.check_roots(1e-6) if r.claim_id == "roots/x-lower"]
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == ["x-lower"]
        assert rep.errata == []
        assert rep.data["bracket"] == [560, 561]


# ---------------------------------------------------------------------------
# The integer tail certificate, and the root scan it stops
# ---------------------------------------------------------------------------


class TestPositiveBeyond:
    """positive_beyond(coeffs, t) proves F(u) > 0 on [t, oo) in integers;
    exact_terms is the oracle."""

    # each instance's float root lies in (first - 1, first)
    FIRST_PROVED = {"x-lower": 561, "x-upper": 385, "y-lower": 380, "y-upper": 325}

    def test_named_instances_against_the_exact_reference(self):
        for name, coeffs in INSTANCES:
            first = self.FIRST_PROVED[name]
            proved = [t for t in range(1, 1301) if analytic.positive_beyond(coeffs, t)]
            assert proved == list(range(first, 1301)), name
            for t in proved:
                assert all(v > 0 for v in exact_terms(coeffs, t)), (name, t)
            assert exact_terms(coeffs, first - 1)[0] < 0, name

    def test_decides_both_edges_of_a_family(self):
        # For each (b, c, t), a is set twice.  The largest a with
        # F(t) <= 0 must be refused.  The least a with F(t) above the
        # slack of the bounds, (c + s)/Q + (b + log2 t + 1)/K, must be
        # proved wherever s F'(t) - 2c/(s ln 2), the part of s F'(t) the
        # bounds keep, exceeds 3 - 2/ln 2 + 1/Q + 1/K, the slack of
        # 1/ln 2 < 3/2 and of the bounds.  A looser bound on log2 t fails
        # the second at some t where F(t) is within s/Q of the slack.
        q, k = Decimal(analytic.LOG_SCALE), Decimal(analytic.SQRT_SCALE)
        proved = 0
        for t in range(3, 401):
            with decimal.localcontext(EXACT):
                s, lg = Decimal(2 * t).sqrt(), Decimal(t).ln() / LN2
            for b in range(4):
                for c in range(3):
                    if (t << b) < 9**c:
                        continue
                    g, g1, _ = exact_terms((0, b, c), t)
                    below = analytic.FCoeffs(math.floor(-g), b, c)
                    assert not analytic.positive_beyond(below, t), (below, t)
                    with decimal.localcontext(EXACT):
                        kept = s * g1 - 2 * c / (s * LN2)
                        if kept <= 3 - 2 / LN2 + 1 / q + 1 / k:
                            continue
                        slack = (c + s) / q + (b + lg + 1) / k
                    above = analytic.FCoeffs(math.floor(slack - g) + 1, b, c)
                    assert analytic.positive_beyond(above, t), (above, t)
                    proved += 1
        assert proved > 2500

    @pytest.mark.parametrize(
        "a, b, t",
        [(3401, 281, 393615), (101468, 361, 248494), (-19404, 269, 428732)],
    )
    def test_refuses_just_below_zero(self, a, b, t):
        # F(t) < 0 by less than 2e-4 while F'(t) > 0: found by a search
        # for the points where bounding sqrt(2t) above by r/K instead of
        # (r + 1)/K claims a positive F(t)
        coeffs = analytic.FCoeffs(a, b, 0)
        f, f1, _ = exact_terms(coeffs, t)
        assert -2e-4 < f < 0 < f1
        assert not analytic.positive_beyond(coeffs, t)

    def test_convexity_guard(self):
        # proved only where 2**b t >= 9**c, which gives F'' > 0 on [t, oo)
        # through e**2 < 9; here F(t) > 0 and F'(t) > 0 on the whole range,
        # so only the guard refuses below 729 (7**c would let 343 on:
        # sqrt(3) ln 7 > 2 sqrt(2) makes that bound sound at integer t >= 3,
        # but it is not the one the docstring proves)
        coeffs = analytic.FCoeffs(100, 0, 3)
        for t in range(343, 730):
            f, f1, _ = exact_terms(coeffs, t)
            assert f > 0 and f1 > 0
            assert analytic.positive_beyond(coeffs, t) == (t >= 729), t
        for bad in ((100, -1, 0), (100, 0, -1)):
            assert not analytic.positive_beyond(analytic.FCoeffs(*bad), 10**4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-60, 60),
        st.integers(0, 8),
        st.integers(0, 4),
        st.integers(1, 4000),
        st.lists(st.floats(0, 1), max_size=5),
    )
    def test_true_means_positive_on_the_whole_tail(self, a, b, c, t, weights):
        coeffs = analytic.FCoeffs(a, b, c)
        assume(analytic.positive_beyond(coeffs, t))
        for w in (0.0, 1.0, *weights):
            u = t + Decimal(w) * (10**6 - t)
            assert exact_terms(coeffs, u)[0] > 0, u


def reference_check_roots(tol=1e-9):
    """check_roots as it was before positive_beyond: the float grid is
    walked to ROOT_SCAN_HI for every instance."""
    reports = []
    for name, coeffs in analytic.NAMED_INSTANCES.items():
        start = analytic.ROOT_SCAN_START[name]
        hi = analytic.ROOT_SCAN_HI
        flips = []
        prev = analytic.F_eval(coeffs, start)
        for t in range(start + 1, hi + 1):
            cur = analytic.F_eval(coeffs, t)
            if (cur < 0) != (prev < 0):
                flips.append(t)
            prev = cur
        data = {"flips": flips, "scan_start": start, "scan_hi": hi}
        if len(flips) != 1:
            errata, counterexamples = [], [f"{len(flips)} sign changes at {flips}"]
            details = f"expected one sign change on [{start}, {hi}]"
        else:
            bracket = (flips[0] - 1, flips[0])
            _, errata, counterexamples = verifier.compare_printed(
                "root-bracket", [("bracket", name, bracket, analytic.ROOT_BRACKETS[name])]
            )
            refined = analytic.isolate_root(coeffs, float(bracket[0]), float(bracket[1]), tol)
            data.update(
                {
                    "bracket": list(bracket),
                    "root_lo": refined.lo,
                    "root_hi": refined.hi,
                    "width": refined.width,
                }
            )
            details = (
                f"one sign change on [{start}, {hi}]; root inside "
                f"({bracket[0]}, {bracket[1]}), bisected to "
                f"[{refined.lo:.12f}, {refined.hi:.12f}]"
            )
        reports.append(
            verifier.make_report(
                f"roots/{name}",
                start,
                hi,
                details,
                counterexamples=counterexamples,
                errata=errata,
                data=data,
            )
        )
    return reports


def same_reports(tol=1e-9):
    """The reports of check_roots, asserted equal to the plain grid's."""
    fast = [rep.to_dict() for rep in analytic.check_roots(tol)]
    assert fast == [rep.to_dict() for rep in reference_check_roots(tol)]
    return fast


class TestRootScan:
    """check_roots stops each grid walk where positive_beyond proves the
    tail; the plain walk to ROOT_SCAN_HI is the oracle."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_matches_the_plain_grid_from_the_scan_starts(self, tol):
        reports = same_reports(tol)
        assert [rep["data"]["flips"] for rep in reports] == [[561], [385], [380], [325]]

    def test_matches_the_plain_grid_from_one(self, monkeypatch):
        # from t = 1 three instances cross their dip near the origin first
        for name in analytic.ROOT_SCAN_START:
            monkeypatch.setitem(analytic.ROOT_SCAN_START, name, 1)
        reports = same_reports()
        flips = [rep["data"]["flips"] for rep in reports]
        assert flips == [[561], [2, 385], [3, 380], [9, 325]]
        x_upper = reports[1]
        assert x_upper["status"] == verifier.DISCREPANCY
        assert x_upper["counterexamples"] == ["2 sign changes at [2, 385]"]
        assert x_upper["details"] == "expected one sign change on [1, 10000]"

    def test_a_refused_positive_flip_scans_on(self, monkeypatch):
        # F turns positive at t = 2, where the predicate must refuse (its
        # convexity needs t > 2); F dips again at 5 and turns positive for
        # good at 232
        coeffs = analytic.FCoeffs(-1, 0, 2)
        monkeypatch.setitem(analytic.NAMED_INSTANCES, "x-upper", coeffs)
        monkeypatch.setitem(analytic.ROOT_SCAN_START, "x-upper", 1)
        assert analytic.F_eval(coeffs, 1) < 0 < analytic.F_eval(coeffs, 2)
        assert not analytic.positive_beyond(coeffs, 2)
        (rep,) = [r for r in same_reports() if r["claim_id"] == "roots/x-upper"]
        assert rep["counterexamples"] == ["3 sign changes at [2, 5, 232]"]

    def test_scan_stops_at_the_first_positive_grid_point(self, monkeypatch):
        # F_eval runs at each grid point from the start through the first
        # positive one, then in the bisection: 2 endpoints and 30 halvings
        # of a unit bracket down to 1e-9
        calls = {}
        phase = ["scan"]
        f_eval, isolate = analytic.F_eval, analytic.isolate_root

        def counting_f_eval(coeffs, t):
            key = (coeffs, phase[0])
            calls[key] = calls.get(key, 0) + 1
            return f_eval(coeffs, t)

        def bisecting(*args):
            phase[0] = "bisect"
            try:
                return isolate(*args)
            finally:
                phase[0] = "scan"

        monkeypatch.setattr(analytic, "F_eval", counting_f_eval)
        monkeypatch.setattr(analytic, "isolate_root", bisecting)
        analytic.check_roots()
        for name, coeffs in INSTANCES:
            first = TestPositiveBeyond.FIRST_PROVED[name]
            assert calls[coeffs, "scan"] <= first - analytic.ROOT_SCAN_START[name] + 1
            assert calls[coeffs, "bisect"] <= 32
