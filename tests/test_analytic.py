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
import random
import re
from decimal import Decimal
from functools import cache
from itertools import pairwise

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ineqscan import analytic, sequences, verifier
from reference import (
    float_noise,
    link_walk_bounds_x,
    link_walk_bounds_Y,
    reference_bounds_x,
    reference_bounds_Y,
    reference_check_roots,
    reference_sign_consistency,
)

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
            out = analytic.isolate_root(coeffs, float(lo), float(hi))
            assert out.width <= 1e-9
            assert out.lo < GOLDEN_ROOTS[name] < out.hi
            flo = analytic.F_eval(coeffs, out.lo)
            fhi = analytic.F_eval(coeffs, out.hi)
            assert flo != 0 and fhi != 0 and (flo < 0) != (fhi < 0)

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
        rep = analytic.check_sign_consistency(verifier.partition_y(5000))
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
        # Y - F = c - 2n/3 - 2 = 2/3 where 2n = m*m and n % 3 == 2; the
        # reported n is the first of those ties, 2, whatever the limit
        rep = analytic.check_bounds_Y(limit)
        assert rep.data["min_lower_margin"] == 2 / 3
        n = int(re.search(r"smallest lower margin \S+ at n = (\d+)", rep.details)[1])
        assert n == 2
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


def identity_points():
    """Every n < 5000, 2**k - 1 ... 2**k + 2 for 13 <= k < 50, both ends of
    the m-blocks of a spread of m, and 1500 seeded draws below 10**15."""
    points = set(range(1, 5000))
    points.update(2**k + d for k in range(13, 50) for d in (-1, 0, 1, 2))
    for mm in {int(10 ** (e / 4)) for e in range(8, 31)}:
        points.update(((mm * mm + 1) // 2, mm * mm // 2 + mm))
    draw = random.Random(1)
    points.update(draw.randrange(1, 10**15) for _ in range(1500))
    return sorted(points)


@cache
def exact_margins(n):
    """The four envelope margins at n to 80 digits, keyed by instance, each
    as (margin from F, margin from its identity).  F is built from the
    coefficients of analytic.NAMED_INSTANCES, so a changed constant shows."""
    mm, rr, rho = sequences.m(n), sequences.r(n), n % 3
    xx = sequences.x(n)
    with decimal.localcontext(EXACT):
        s = Decimal(2 * n).sqrt()
        lg = Decimal(n).ln() / LN2
        yy = sequences.c(n) - mm - (mm - 1) * lg
        f = {
            name: 2 * Decimal(n) / 3 + a - b * s + c * lg - s * lg
            for name, (a, b, c) in analytic.NAMED_INSTANCES.items()
        }
        third = Decimal(rho) / 3
        return {
            "x-lower": (xx - f["x-lower"], third + (rr + 1) * (s - mm) + s * (lg - rr + 1)),
            "x-upper": (
                f["x-upper"] - xx,
                (1 - third) + (1 + lg) * (1 - (s - mm)) + mm * (rr - lg),
            ),
            "y-lower": (yy - f["y-lower"], (2 - 2 * third) + (1 + lg) * (s - mm)),
            "y-upper": (f["y-upper"] - yy, 2 * third + (1 + lg) * (1 - (s - mm))),
        }


# the bound each margin keeps; only the y-lower margin meets it, at its ties
MARGIN_BOUNDS = {
    "x-lower": 0,
    "x-upper": EXACT.divide(1, 3),
    "y-lower": EXACT.divide(2, 3),
    "y-upper": 0,
}
IDENTITY_TOL = Decimal("1e-60")

# data.certificate's (margin, identity, bound) of each instance, byte for
# byte as verify prints them
CERTIFIED = {
    "x-lower": ("x - F(x-lower)", "rho/3 + (r + 1)(s - m) + s(L - r + 1)", "> 0"),
    "x-upper": ("F(x-upper) - x", "(1 - rho/3) + (1 + L)(1 - (s - m)) + m(r - L)", "> 1/3"),
    "y-lower": ("Y - F(y-lower)", "(2 - 2 rho/3) + (1 + L)(s - m)", ">= 2/3"),
    "y-upper": ("F(y-upper) - Y", "2 rho/3 + (1 + L)(1 - (s - m))", "> 0"),
}


def y_lower_tie(n):
    """Where the y-lower identity gives exactly 2/3: s = m and rho = 2."""
    return math.isqrt(2 * n) ** 2 == 2 * n and n % 3 == 2


class TestEnvelopeIdentities:
    """The margins of check_bounds_x and check_bounds_Y in closed form
    (the analytic module docstring), checked at 80 digits: with
    s = sqrt(2n), L = log2(n) and rho = n mod 3 each is a sum of terms
    whose signs follow from 0 <= s - m < 1 and 2**(r - 1) < n <= 2**r,
    which is the claim of both checks, and on each residue class of a
    chain link the lower margins rise and the upper ones fall, which the
    candidate rules and the link walk of tests/reference.py rest on.
    analytic.identity_margin evaluates the identities in floats."""

    def test_identities(self):
        for n in identity_points():
            for name, (margin, identity) in exact_margins(n).items():
                assert abs(margin - identity) < IDENTITY_TOL, (name, n)

    def test_bounds(self):
        for n in identity_points():
            for name, (margin, _) in exact_margins(n).items():
                bound = MARGIN_BOUNDS[name]
                if name == "y-lower" and y_lower_tie(n):
                    assert abs(margin - bound) < IDENTITY_TOL, (name, n)
                else:
                    assert margin - bound > IDENTITY_TOL, (name, n)

    def test_identity_margin_in_floats(self):
        # every term is >= 0 and none cancels, so the float sum stays
        # within IDENTITY_ERROR of the 80-digit identity, relatively
        for n in identity_points():
            for name, (_, identity) in exact_margins(n).items():
                error = abs(Decimal(analytic.identity_margin(name, n)) - identity) / identity
                assert error < analytic.IDENTITY_ERROR, (name, n)

    def test_certificate_states_the_identities(self):
        for check, names in (
            (analytic.check_bounds_x, ("x-lower", "x-upper")),
            (analytic.check_bounds_Y, ("y-lower", "y-upper")),
        ):
            cert = check(10**7).data["certificate"]
            assert cert["terms"] == "s = sqrt(2n), L = log2(n), rho = n mod 3, m = m(n), r = r(n)"
            for side, name in zip(("lower", "upper"), names):
                margin, identity, bound = CERTIFIED[name]
                assert cert[side] == {
                    "margin": margin,
                    "identity": identity,
                    "bound": bound,
                    "facts": ["0 <= s - m < 1", "2**(r - 1) < n <= 2**r"],
                }

    def test_y_lower_ties_below_5000(self):
        ties = [
            n
            for n in range(1, 5000)
            if abs(exact_margins(n)["y-lower"][0] - MARGIN_BOUNDS["y-lower"]) < IDENTITY_TOL
        ]
        assert ties == [n for n in range(1, 5000) if y_lower_tie(n)]
        assert ties[:5] == [2, 8, 32, 50, 98]

    def test_monotone_on_each_residue_class_of_a_link(self):
        # the lower margins rise and the upper ones fall, strictly, on
        # every residue class of every chain link in [2, 5000]
        for a, b, _, _ in sequences.chain_links(2, 5000):
            for first in range(a, min(a + 3, b + 1)):
                cls = [exact_margins(n) for n in range(first, b + 1, 3)]
                for name in analytic.NAMED_INSTANCES:
                    margins = [point[name][0] for point in cls]
                    if name.endswith("-upper"):
                        margins.reverse()
                    assert all(u < v for u, v in pairwise(margins)), (name, first)


# the variables of the degree argument: n = 3q + rho, rho fixed on a class
FREE = {"q", "m", "r", "s", "L"}


def free_in(factor):
    """The free variables a linear factor of analytic reads, n as q."""
    names = {name for name, k in analytic._factor(factor).items() if k}
    return {"q" if name == "n" else name for name in names} & FREE


class TestExactIdentities:
    """check_bounds_x and check_bounds_Y tie the named coefficients to the
    identities exactly, in ints, on analytic._off_identity's grid of 96
    points, which settles each identity for every n when both sides have
    degree <= 1 in each of q, m, r, s and L; no float takes part."""

    @pytest.mark.parametrize(
        "text, form",
        [
            ("rho/3", {"rho": 1}),
            ("2 rho/3", {"rho": 2}),
            ("2 - 2 rho/3", {"1": 6, "rho": -2}),
            ("1 - (s - m)", {"1": 3, "s": -3, "m": 3}),
            ("L - r + 1", {"L": 3, "r": -3, "1": 3}),
            ("2 n/3", {"n": 2}),
            ("1/3", {"1": 1}),
        ],
    )
    def test_factor(self, text, form):
        # 3 times the factor, by name
        assert {k: v for k, v in analytic._factor(text).items() if v} == form

    def test_premise_from_the_data(self):
        for name, (_, terms, _) in analytic.IDENTITIES.items():
            for _, f, g in terms:
                assert not free_in(f) & free_in(g), (name, f, g)
        products = [(f, g) for _, f, g in analytic.ENVELOPE if free_in(f) and free_in(g)]
        assert products == [("s", "L")]
        # the value sides: z and c are affine in q on each class mod 3
        for rho in (0, 1, 2):
            for seq in (sequences.z, sequences.c):
                steps = {seq(3 * q + 3 + rho) - seq(3 * q + rho) for q in range(1, 100)}
                assert len(steps) == 1, (seq.__name__, rho)

    def test_named_instances_hold(self):
        for check in (analytic.check_bounds_x, analytic.check_bounds_Y):
            for limit in (1, 2, 2112, 10**7):
                rep = check(limit)
                assert rep.status == verifier.CONFIRMED, (check.__name__, limit)
                assert rep.details.startswith("both envelopes strict around "), limit

    @pytest.mark.parametrize(
        "variable, point",
        [
            ("q", (6, 1, 1, 1, 1)),
            ("rho", (3, 1, 1, 1, 1)),
            ("m", (3, 2, 1, 1, 1)),
            ("r", (3, 1, 2, 1, 1)),
            ("s", (3, 1, 1, 2, 1)),
            ("L", (3, 1, 1, 1, 2)),
        ],
    )
    def test_each_variable_takes_both_values(self, monkeypatch, variable, point):
        # (v - 1) added to the x-lower identity is 0 where v = 1, so the
        # grid must reach v = 2 (or rho = 0) to see it
        unpatched = analytic.check_bounds_x(10**5)
        margin, terms, bound = analytic.IDENTITIES["x-lower"]
        added = (*terms, (1, f"{variable} - 1", "1"))
        monkeypatch.setitem(analytic.IDENTITIES, "x-lower", (margin, added, bound))
        rep = analytic.check_bounds_x(10**5)
        assert rep.counterexamples == ["x-lower"]
        assert rep.details.startswith(f"x-lower off its identity at (n, m, r, s, L) = {point};")
        assert rep.data["min_lower_margin"] == unpatched.data["min_lower_margin"]

    @pytest.mark.parametrize("limit", [10**5, 10**7])
    def test_no_float_decides_the_claims(self, monkeypatch, limit):
        checks = (analytic.check_bounds_x, analytic.check_bounds_Y)
        unpatched = [check(limit) for check in checks]

        def refused(*args):
            raise AssertionError("F_eval called")

        monkeypatch.setattr(analytic, "F_eval", refused)
        for check, rep in zip(checks, unpatched):
            assert rep.status == verifier.CONFIRMED
            assert check(limit) == rep, check.__name__


def link_of(n):
    """The chain link [a, b] that holds n: where m's block and r's meet."""
    lo, hi = sequences.m_block(sequences.m(n))
    rr = sequences.r(n)
    return range(max(lo, (1 << rr >> 1) + 1), min(hi, 1 << rr) + 1)


def float_margins(n):
    """The four envelope margins at n as F_eval gives them, as the
    references of tests/reference.py take them."""
    mm, rr = sequences.m(n), sequences.r(n)
    values = {"x": sequences.z(n) - (rr + 1) * mm, "y": analytic._Y(n, mm)}
    margins = {}
    for name, coeffs in analytic.NAMED_INSTANCES.items():
        value, envelope = values[name[0]], analytic.F_eval(coeffs, n)
        margins[name] = value - envelope if name.endswith("-lower") else envelope - value
    return margins


class TestFloatNoise:
    """reference.float_noise(limit) bounds the float error of every margin
    F_eval gives on [1, limit]; assert_same_minima allows it between a
    report's least margins and a reference's."""

    def test_bound_covers_the_float_error(self):
        # the candidates of the links on both sides of each power of two
        # to 2**23, of the link at 10**7, and of the link of 6472801,
        # where the error comes nearest the bound below 10**7 (by 11x);
        # the bound is taken at n itself, the least limit that reads n
        centres = [2**k + d for k in range(1, 24) for d in (-1, 1)] + [10**7, 6472801]
        points = set()
        for centre in centres:
            link = link_of(centre)
            points.update((*link[:3], *link[-3:]))
        worst = 0.0
        for n in sorted(points):
            exact = exact_margins(n)
            for name, margin in float_margins(n).items():
                error = abs(Decimal(margin) - exact[name][0])
                assert error < float_noise(n), (name, n)
                worst = max(worst, float(error) / float_noise(n))
        assert worst > 0.05  # the bound is not vacuous: 0.09 at 6472801
        assert float_noise(10**7) == pytest.approx(3.593e-8, rel=1e-3)


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
        rep = analytic.check_sign_consistency(verifier.partition_y(1))
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["data"]["min_abs_Y"] is None
        assert rep.status == verifier.CONFIRMED


# ---------------------------------------------------------------------------
# Rewritten checks against the plain per-n loops they replaced
# ---------------------------------------------------------------------------


def sign_consistency(limit):
    """check_sign_consistency on y's partition of [1, limit]."""
    return analytic.check_sign_consistency(verifier.partition_y(limit))


def minima(rep):
    """((least lower margin, its n), (least upper margin, its n)) of an
    envelope report."""
    at = [int(n) for n in re.findall(r"at n = (\d+)", rep.details)]
    return (rep.data["min_lower_margin"], at[0]), (rep.data["min_upper_margin"], at[1])


def assert_same_minima(rep, ref, limit):
    """An envelope report against a reference's at the same limit: the
    same claim, range, status, counterexamples and errata, and each least
    margin at the same n and within float_noise(limit), the float error
    of the reference's margins.  The y-lower margin is the exception: it
    is 2/3 at every tie where 2n is a square and n = 2 (mod 3), the
    report names the first, n = 2 (n = 1 at limit 1), and a reference
    names whichever tie float rounding puts lowest."""
    got, want = rep.to_dict(), ref.to_dict()
    for key in ("claim_id", "range", "status", "counterexamples", "errata"):
        assert got[key] == want[key], (key, limit)
    for side, (value, n), (ref_value, ref_n) in zip(("lower", "upper"), minima(rep), minima(ref)):
        assert abs(value - ref_value) <= float_noise(limit), (rep.claim_id, side, limit)
        if (rep.claim_id, side) == ("analytic/Y-bounds", "lower"):
            assert n == min(limit, 2), limit
        else:
            assert n == ref_n, (rep.claim_id, side, limit)


ENVELOPE_CHECKS = (
    (analytic.check_bounds_x, reference_bounds_x, link_walk_bounds_x),
    (analytic.check_bounds_Y, reference_bounds_Y, link_walk_bounds_Y),
)


def assert_matches_per_n(limit):
    """The three range checks of analytic against the per-n references."""
    for check, reference, _ in ENVELOPE_CHECKS:
        assert_same_minima(check(limit), reference(limit), limit)
    assert sign_consistency(limit).to_dict() == reference_sign_consistency(limit).to_dict(), limit


class TestRewrittenChecksAgainstPerN:
    @pytest.mark.parametrize("limit", [1, 2, 9, 10, 11, 12, 20, 547, 5000])
    def test_spot_limits(self, limit):
        assert_matches_per_n(limit)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=20000))
    def test_any_limit(self, limit):
        assert_matches_per_n(limit)

    def test_surrogate_at_the_printed_points(self):
        # Y_real is computed as (c - m) - (m - 1) log2(n); at the printed
        # points and across the increment identity it agrees bit for bit
        # with c + d_real(n)
        printed = [
            n for _, value_at, n, _, _ in analytic.APPROXIMATIONS if value_at is analytic.Y_real
        ]
        for n in printed + list(range(371, 392)):
            assert analytic.Y_real(n) == sequences.c(n) + analytic.d_real(n)


def walk_limits():
    """1 to 299, 2**k - 1 ... 2**k + 1 for k <= 23, the last n of the
    m-blocks 4 to 63 and of every 313th from 4471 down and the n after
    each, 10**4 ... 10**7 and 40 seeded draws below 10**7."""
    draw = random.Random(38)
    limits = {*range(1, 300), *(10**e for e in range(4, 8))}
    limits.update(2**k + d for k in range(2, 24) for d in (-1, 0, 1))
    ms = [*range(4, 64), *range(4471, 63, -313)]
    limits.update(sequences.m_block(mm)[1] + d for mm in ms for d in (0, 1))
    limits.update(draw.randrange(300, 10**7) for _ in range(40))
    return sorted(limits)


class TestCandidateRoute:
    """The two envelope checks take their least margins from the
    identities at a few candidate n (at most 120 for x and 40 for Y),
    and check_sign_consistency reads Y at every n to 2112; the per-n
    references and the link walk of tests/reference.py are the oracles.
    The link walk, with F_eval patched, is checked against the per-n
    references here too."""

    def test_every_limit_to_600(self):
        # every printed link and every boundary of y's sign runs ends in
        # this range, so each clipped last link is compared too
        for limit in range(1, 601):
            assert_matches_per_n(limit)

    def test_at_ten_to_the_fifth(self):
        assert_matches_per_n(10**5)

    def test_against_the_link_walk(self):
        for limit in walk_limits():
            for check, _, walk in ENVELOPE_CHECKS:
                assert_same_minima(check(limit), walk(limit), limit)

    def test_x_lower_window_holds_twenty(self):
        # the least x-lower margin sits among the first three n of an
        # r-block on every walked limit, so the walk is tested by what it
        # adds: n = 20 is a candidate only through the link m = 6 that
        # starts at 18, the second link of the r-block (16, 32], whose
        # first gives 17 to 19
        assert sequences.m_block(6)[0] == 18 and sequences.r(18) == 5
        for limit in range(20, 40):
            assert 20 in analytic._x_lower_points(limit), limit

    def test_x_upper_walk_holds_five(self):
        # n = 5 is a candidate only through the link [5, 7] of m = 3, which
        # the walk of the r-block (4, 8] takes after its top link [8, 8]
        assert sequences.m_block(3) == (5, 7) and sequences.r_block(3) == (5, 8)
        for limit in range(8, 40):
            assert 5 in analytic._x_upper_points(limit), limit

    def test_minima_at_ten_to_the_seventh_to_80_digits(self):
        # the y-upper margin from F_eval cancels terms near 10**6 and is
        # off from the 7th digit there; the identities are not
        limit = 10**7
        (x_low, x_up), (y_low, y_up) = (minima(check(limit)) for check, _, _ in ENVELOPE_CHECKS)
        found = {"x-lower": x_low, "x-upper": x_up, "y-lower": y_low, "y-upper": y_up}
        assert {name: n for name, (_, n) in found.items()} == {
            "x-lower": 8388609,
            "x-upper": 8388605,
            "y-lower": 2,
            "y-upper": 9994920,
        }
        for name, (value, n) in found.items():
            exact = exact_margins(n)[name][0]
            assert abs(Decimal(value) - exact) / exact < Decimal("1e-12"), name
        assert y_up[0] == pytest.approx(0.00271223036146583435, rel=1e-14)

    @staticmethod
    def assert_settled_from_candidates(monkeypatch, limit):
        # each candidate takes one identity_margin, at most 120 of them for
        # the x report and 40 for the Y report, no F_eval is taken, and no
        # sign of y is decided here
        part = verifier.partition_y(limit)
        calls = {"F_eval": 0, "identity_margin": 0}
        decided = []
        f_eval, identity_margin, y_sign = (
            analytic.F_eval,
            analytic.identity_margin,
            sequences.y_sign,
        )

        def counting(name, f):
            def counted(*args):
                calls[name] += 1
                return f(*args)

            return counted

        def recording_y_sign(n):
            decided.append(n)
            return y_sign(n)

        monkeypatch.setattr(analytic, "F_eval", counting("F_eval", f_eval))
        monkeypatch.setattr(
            analytic, "identity_margin", counting("identity_margin", identity_margin)
        )
        monkeypatch.setattr(sequences, "y_sign", recording_y_sign)
        for check, cap in ((analytic.check_bounds_x, 120), (analytic.check_bounds_Y, 40)):
            calls.update(F_eval=0, identity_margin=0)
            rep = check(limit)
            assert rep.status == verifier.CONFIRMED
            assert calls["F_eval"] == 0 < calls["identity_margin"] <= cap, check.__name__
        assert analytic.check_sign_consistency(part).status == verifier.CONFIRMED
        assert decided == []

    @pytest.mark.parametrize("limit", [10**5, 10**6, 10**7])
    def test_candidates_stay_flat(self, monkeypatch, limit):
        self.assert_settled_from_candidates(monkeypatch, limit)

    def test_links_at_one_billion(self, monkeypatch):
        # past MARGINS_TOP a report lists [1, 10**7] and makes the same
        # identity_margin calls as at 10**7, and no F_eval call
        self.assert_settled_from_candidates(monkeypatch, 10**9)
        calls = []
        for name in ("F_eval", "identity_margin"):

            def recorded(*args, f=getattr(analytic, name), name=name):
                calls.append((name, args))
                return f(*args)

            monkeypatch.setattr(analytic, name, recorded)
        for check in (analytic.check_bounds_x, analytic.check_bounds_Y):
            made = {}
            for limit in (10**7, 10**9):
                calls.clear()
                rep = check(limit)
                assert (rep.lo, rep.hi) == (1, 10**7)
                made[limit] = list(calls)
            assert made[10**9] == made[10**7], check.__name__

    def test_links_from_n_one(self, monkeypatch):
        # the small links take candidates too: by the margin identities
        # (TestEnvelopeIdentities) each margin is monotone on every residue
        # class of a link from n = 2 on, and the one link before is [1, 1]
        self.assert_settled_from_candidates(monkeypatch, 600)

    def test_tied_margins_keep_the_first_n(self, monkeypatch):
        # with whole-number envelopes the x margins are integers and tie
        # often (floor keeps them monotone on each residue class, since x
        # steps by exactly 2 every three n); the link walk must report the
        # smallest margin at its first n
        f_eval = analytic.F_eval
        monkeypatch.setattr(
            analytic, "F_eval", lambda coeffs, t: float(math.floor(f_eval(coeffs, t)))
        )
        for limit in range(1, 601):
            assert link_walk_bounds_x(limit).to_dict() == reference_bounds_x(limit).to_dict(), limit

    @pytest.mark.parametrize("favoured", [0, 1, 2])
    def test_period_three_term_in_the_envelopes(self, monkeypatch, favoured):
        # a term that depends only on n mod 3 keeps every margin monotone
        # on each residue class, so the link walk must stay exact; raising
        # the margins off one class moves the link minima onto that class,
        # the third candidate on some links
        f_eval = analytic.F_eval

        def shifted(coeffs, t):
            if int(t) % 3 == favoured:
                return f_eval(coeffs, t)
            lower = coeffs in (analytic.X_LOWER, analytic.Y_LOWER)
            return f_eval(coeffs, t) + (-3.0 if lower else 3.0)

        monkeypatch.setattr(analytic, "F_eval", shifted)
        for limit in [*range(1, 601, 7), 5000]:
            for _, reference, walk in ENVELOPE_CHECKS:
                assert walk(limit).to_dict() == reference(limit).to_dict(), limit

    def test_flipped_run_is_stepped_per_n(self, monkeypatch):
        # the float sign disagrees with a flipped run at every n of it,
        # so every n of the run to 2112 is listed; past it the band
        # settles y > 0 and the run's sign is not read
        part = verifier.partition_y(5000)
        a, b, sign = part.runs[-1]
        assert (a, b, sign) == (369, 5000, 1)
        flipped = part._replace(runs=part.runs[:-1] + ((a, b, -sign),))
        rep = analytic.check_sign_consistency(flipped)
        assert rep.counterexamples == list(range(369, 2113))
        assert rep.details.startswith(
            "float surrogate sign differs from the exact sign at 1744 values;"
        )

    def test_float_floor_on_both_signs(self, monkeypatch):
        # |Y| at 1e-6 is too close to zero to trust on either sign: 421
        # starts the positive link [421, 449] and 335 ends the negative
        # piece [313, 335]; just past the floor, at the first n of
        # [450, 480] and next to 335, the sign is trusted
        patched = {421: 1e-6, 450: 1.0000001e-6, 335: -1e-6, 334: -1.0000001e-6}
        y = analytic._Y
        monkeypatch.setattr(analytic, "_Y", lambda n, mm: patched.get(n, y(n, mm)))
        rep = analytic.check_sign_consistency(verifier.partition_y(1000))
        assert rep.counterexamples == [335, 421]
        assert (rep.data["min_abs_Y"], rep.data["min_abs_Y_at"]) == (1e-6, 335)

    def test_zero_run_is_stepped_per_n(self, monkeypatch):
        # sign 0 fails the test at every candidate, so the run is stepped
        # and each of its n is listed
        part = verifier.partition_y(1000)
        assert part.runs[-1] == (369, 1000, 1)
        zeroed = ((369, 399, 1), (400, 420, 0), (421, 1000, 1))
        zeroed_part = part._replace(runs=part.runs[:-1] + zeroed)
        rep = analytic.check_sign_consistency(zeroed_part)
        assert rep.counterexamples == list(range(400, 421))


def envelope_reports(limit):
    """The to_dict() of both envelope reports at limit."""
    return [check(limit).to_dict() for check, _, _ in ENVELOPE_CHECKS]


class TestMarginsTop:
    """Both envelope reports list their least margins on [1, min(L,
    MARGINS_TOP)]: past 10**7 each is its report at 10**7, and no float is
    taken past it."""

    at_the_top = staticmethod(cache(lambda: envelope_reports(analytic.MARGINS_TOP)))

    def test_the_top(self):
        assert analytic.MARGINS_TOP == 10**7
        for rep in self.at_the_top():
            assert rep["range"] == [1, 10**7]
            assert rep["status"] == verifier.CONFIRMED

    # limits where a float would mislead: F_eval's y-upper margin at
    # n = 213795874512 rounds to 0.0, while the identity's is 2.95e-5, and
    # 10**400 overflows a float
    @pytest.mark.parametrize(
        "limit", [10**7 + 1, 213796208950, 10**12, 2**60, 10**100, 10**400]
    )
    def test_reports_past_the_top_are_those_at_it(self, limit):
        assert envelope_reports(limit) == self.at_the_top()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=10**7 + 1, max_value=10**500))
    def test_any_limit_past_the_top(self, limit):
        assert envelope_reports(limit) == self.at_the_top()


class TestCandidateRules:
    """The facts the docstrings of analytic's candidate rules prove,
    checked where they are cheap to check."""

    def test_x_bounds_monotone_on_r_blocks(self):
        # s(L - r + 1) rises on each r-block, and 1/3 + (s - 1)(r - L)
        # falls on it from n = 2 on
        for rr in range(1, 15):
            block = range((1 << rr >> 1) + 1, (1 << rr) + 1)
            s = [math.sqrt(2 * n) for n in block]
            lg = [math.log2(n) for n in block]
            lower = [si * (li - rr + 1) for si, li in zip(s, lg)]
            upper = [(si - 1) * (rr - li) for si, li in zip(s, lg)]
            assert all(u < v for u, v in pairwise(lower)), rr
            assert all(u > v for u, v in pairwise(upper)), rr

    def test_x_bounds_below_the_margins(self):
        for n in range(2, 5000):
            s, lg, rr = math.sqrt(2 * n), math.log2(n), sequences.r(n)
            assert analytic.identity_margin("x-lower", n) >= s * (lg - rr + 1) - 1e-12, n
            assert analytic.identity_margin("x-upper", n) > 1 / 3 + (s - 1) * (rr - lg), n

    def test_y_upper_above_its_block_bound(self):
        # the margin exceeds log2(m)/(m + 1) on each m-block
        for n in range(2, 2 * 10**5 + 1):
            mm = sequences.m(n)
            assert analytic.identity_margin("y-upper", n) > math.log2(mm) / (mm + 1), n

    def test_y_upper_block_bound_falls_from_four(self):
        bounds = [math.log2(mm) / (mm + 1) for mm in range(3, 10**6 + 1)]
        assert bounds[0] < bounds[1]
        assert all(u > v for u, v in pairwise(bounds[1:]))


class TestSignWalk:
    """check_sign_consistency reads Y at every n to BAND_BASE = 2112 and
    takes the rest from y's band, where Y >= 23."""

    def test_across_the_band(self):
        # each side of 2112, the ends of the m-blocks 64 and 65, and powers
        # of two, against the reference that reads every n to the limit
        base = verifier.BAND_BASE
        limits = {
            *range(base - 1, base + 3),
            *(e + d for mm in (64, 65) for e in sequences.m_block(mm) for d in (-1, 0, 1)),
            *(2**k + d for k in range(11, 18) for d in (-1, 1)),
            10**5,
            10**6,
        }
        for limit in sorted(limits):
            expected = reference_sign_consistency(limit).to_dict()
            assert sign_consistency(limit).to_dict() == expected, limit

    @pytest.mark.parametrize("limit", [10**7, 10**100])
    def test_reads_no_n_past_the_base(self, monkeypatch, limit):
        base = verifier.BAND_BASE
        at_base = sign_consistency(base)
        part = verifier.partition_y(limit)
        read = []
        y = analytic._Y

        def recording_y(n, mm):
            read.append(n)
            return y(n, mm)

        monkeypatch.setattr(analytic, "_Y", recording_y)
        rep = analytic.check_sign_consistency(part)
        assert read == list(range(1, base + 1))
        assert (rep.lo, rep.hi) == (1, limit)
        assert rep.details == at_base.details.replace(f"[5, {base}]", f"[5, {limit}]")
        assert rep._replace(hi=base, details=at_base.details) == at_base


class TestSandwichThroughSharedLoop:
    """A named envelope that its identity no longer describes is a
    discrepancy that names the instance and the first grid point where
    the identity fails; the least margins still come from the
    identities."""

    @staticmethod
    def assert_flagged(monkeypatch, check, attr, coeffs, limit=2000):
        unpatched = check(limit)
        monkeypatch.setattr(analytic, attr, coeffs)
        rep = check(limit)
        name = attr.lower().replace("_", "-")
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == [name]
        assert rep.details.startswith(
            f"{name} off its identity at (n, m, r, s, L) = (3, 1, 1, 1, 1); smallest lower margin "
        )
        assert rep.data == unpatched.data

    def test_x_upper_below_the_data(self, monkeypatch):
        # F(x-upper) 5 lower: below x wherever the margin was under 5
        self.assert_flagged(
            monkeypatch, analytic.check_bounds_x, "X_UPPER", analytic.FCoeffs(-4, 1, 1)
        )
        assert reference_bounds_x(2000).status == verifier.DISCREPANCY

    def test_y_upper_below_the_data(self, monkeypatch):
        self.assert_flagged(
            monkeypatch, analytic.check_bounds_Y, "Y_UPPER", analytic.FCoeffs(0, 1, 2)
        )
        assert reference_bounds_Y(2000).status == verifier.DISCREPANCY

    @pytest.mark.parametrize(
        "check, attr",
        [
            (analytic.check_bounds_x, "X_LOWER"),
            (analytic.check_bounds_x, "X_UPPER"),
            (analytic.check_bounds_Y, "Y_LOWER"),
            (analytic.check_bounds_Y, "Y_UPPER"),
        ],
        ids=["x-lower", "x-upper", "y-lower", "y-upper"],
    )
    def test_raised_envelope_is_off_its_identity(self, monkeypatch, check, attr):
        # a, b and c raised by 1 in turn; a raised by 1 keeps every margin
        # of an upper envelope > 0, so a per-n walk would pass it
        for i in range(3):
            coeffs = list(getattr(analytic, attr))
            coeffs[i] += 1
            with monkeypatch.context() as patch:
                self.assert_flagged(patch, check, attr, analytic.FCoeffs(*coeffs), limit=10**5)

    def test_both_sides_off(self, monkeypatch):
        monkeypatch.setattr(analytic, "X_LOWER", analytic.FCoeffs(0, 2, 0))
        monkeypatch.setattr(analytic, "X_UPPER", analytic.FCoeffs(1, 1, 2))
        rep = analytic.check_bounds_x(100)
        assert rep.counterexamples == ["x-lower", "x-upper"]
        assert rep.details.startswith(
            "x-lower off its identity at (n, m, r, s, L) = (3, 1, 1, 1, 1); "
            "x-upper off its identity at (n, m, r, s, L) = (3, 1, 1, 1, 1); "
        )


class TestRootRegistry:
    KEY = ("root-bracket", "bracket", "y-lower")

    @staticmethod
    def _y_lower():
        (rep,) = [r for r in analytic.check_roots() if r.claim_id == "roots/y-lower"]
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
        wrong = verifier.KNOWN_ERRATA[self.KEY]._replace(computed=(378, 379))
        monkeypatch.setitem(verifier.KNOWN_ERRATA, self.KEY, wrong)
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
        (rep,) = [r for r in analytic.check_roots() if r.claim_id == "roots/x-lower"]
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
        [(-113351, 368, 987939), (414293, 747, 1028889), (352109, 715, 1128104)],
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


def same_reports():
    """The reports of check_roots, asserted equal to the plain grid's."""
    fast = [rep.to_dict() for rep in analytic.check_roots()]
    assert fast == [rep.to_dict() for rep in reference_check_roots()]
    return fast


class TestRootScan:
    """check_roots stops each grid walk where positive_beyond proves the
    tail; the plain walk to ROOT_SCAN_HI is the oracle."""

    def test_matches_the_plain_grid_from_the_scan_starts(self):
        reports = same_reports()
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
