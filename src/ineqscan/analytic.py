"""Real-valued envelopes, root isolation, and floating-point checks.

The exact scans in the verifier settle every claim on a finite range.
This module covers the complementary real-analysis side: a two-parameter
family of smooth envelope functions that sandwich the integer data,
their first two derivatives, bisection brackets for the envelope roots,
and spot checks of the published decimal approximations.

The envelope checks, the surrogates and the bisection are ordinary
floating point.  That is safe on the range the command line allows
(n <= 10**7): the margins there stay far above double-precision error,
and any comparison that lands inside float noise is reported instead of
trusted.  Past it the margins shrink toward float error, which is why
that range is capped.  One piece is exact: positive_beyond proves, in
integers only, that an envelope stays positive on a whole real tail
[t, oo), and check_roots stops its float grid walk at the first positive
t where it holds, just past each root, instead of walking on to
ROOT_SCAN_HI.

The range checks walk sequences.chain_links.  On a link m and r are
fixed, and every margin they report is monotone up to a term that
depends only on n mod 3, so each link is settled from at most three n
at either end; the links below PER_N_BELOW, and any link whose
candidates fail, are stepped per n (see _check_envelopes and
check_sign_consistency).  The exact sign of y comes from the runs of
verifier.partition_y, the one place that decides it, and never from a
per-n comparison here.  The real surrogate Y = (c - m) - (m - 1) log2(n)
is written once, in _Y.  Reports go through verifier.make_report, and
the root brackets are compared with the printed ones, erratum lookups
included, through verifier.compare_printed.
"""

import math
from operator import itemgetter
from typing import NamedTuple

# partition_y is called through the module, so a wrapper set on
# verifier.partition_y (a tracer or a test double) sees every call.
from . import sequences, verifier
from .verifier import VerificationReport, compare_printed, make_report, plural

LOG2 = math.log(2.0)

# Margins tighter than this are inside double-precision noise and are
# flagged in the report details rather than trusted silently.
MARGIN_FLOOR = 1e-9


class FCoeffs(NamedTuple):
    """Coefficients (a, b, c) of one envelope instance.

    The envelope family is

        F(t) = (2/3) t + a - b sqrt(2 t) + c log2(t) - sqrt(2 t) log2(t)

    whose members differ only in the three constants.
    """

    a: int
    b: int
    c: int


X_LOWER = FCoeffs(-1, 2, 0)
X_UPPER = FCoeffs(1, 1, 1)
Y_LOWER = FCoeffs(2, 1, 1)
Y_UPPER = FCoeffs(5, 1, 2)

NAMED_INSTANCES = {
    "x-lower": X_LOWER,
    "x-upper": X_UPPER,
    "y-lower": Y_LOWER,
    "y-upper": Y_UPPER,
}

# The root scan walks the integer grid from each instance's start point
# to ROOT_SCAN_HI.  Three of the envelopes dip through zero once more near
# the origin; starting past that dip leaves exactly one sign change in the
# scanned window.
ROOT_SCAN_START = {
    "x-lower": 1,
    "x-upper": 4,
    "y-lower": 4,
    "y-upper": 9,
}
ROOT_SCAN_HI = 10000

# Unit-width integer brackets around the main root of each instance, as
# printed.  The y-lower bracket is a documented misprint of (379, 380);
# see verifier.KNOWN_ERRATA.
ROOT_BRACKETS = {
    "x-lower": (560, 561),
    "x-upper": (384, 385),
    "y-lower": (379, 389),
    "y-upper": (324, 325),
}


def F_eval(coeffs: FCoeffs, t: float) -> float:
    """Evaluate the envelope instance at t > 0."""
    if t <= 0:
        raise ValueError("envelope functions are defined for t > 0 only")
    s = math.sqrt(2.0 * t)
    lg = math.log2(t)
    return (2.0 / 3.0) * t + coeffs.a - coeffs.b * s + coeffs.c * lg - s * lg


def F_prime(coeffs: FCoeffs, t: float) -> float:
    """First derivative of the envelope instance at t > 0.

    Tends to 2/3 as t grows, which is why every instance is eventually
    increasing and has a last root.
    """
    if t <= 0:
        raise ValueError("envelope functions are defined for t > 0 only")
    s = math.sqrt(2.0 * t)
    return (
        2.0 / 3.0
        - coeffs.b / s
        + coeffs.c / (t * LOG2)
        - math.log(t) / (s * LOG2)
        - s / (t * LOG2)
    )


def F_second(coeffs: FCoeffs, t: float) -> float:
    """Second derivative of the envelope instance at t > 0.

    Positive exactly when sqrt(t) * ln(2**b * t) exceeds 2 sqrt(2) c, so
    each instance is convex beyond max(2, exp(2 c) / 2**b).
    positive_beyond decides the integer form of that condition,
    2**b t >= 9**c with t > 2.
    """
    if t <= 0:
        raise ValueError("envelope functions are defined for t > 0 only")
    num = math.sqrt(t) * (coeffs.b * LOG2 + math.log(t)) - 2.0 * math.sqrt(2.0) * coeffs.c
    return num / (2.0 * math.sqrt(2.0) * t * t * LOG2)


# Scales of the integer bounds in positive_beyond: log2 t is bounded to
# within 1/LOG_SCALE and sqrt(2 t) to within 1/SQRT_SCALE.
LOG_SCALE = 1 << 12
SQRT_SCALE = 1 << 20


def positive_beyond(coeffs: FCoeffs, t: int) -> bool:
    """Whether F(u) > 0 is proved for every real u >= t, in integers only.

    True only when three facts hold, so that F(u) >= F(t) + F'(t)(u - t) > 0:

    1. F'' > 0 on [t, oo): t > 2, b >= 0, c >= 0 and 2**b t >= 9**c.  As
       e**2 < 9 this gives ln(2**b u) > 2c for u >= t, and with sqrt(u) >
       sqrt(2) that is sqrt(u) ln(2**b u) > 2 sqrt(2) c, F_second's
       condition (for c = 0, ln(2**b u) > 0 is enough).
    2. F(t) > 0.  With Q = LOG_SCALE, p = bitlen(t**Q) - 1 gives
       p <= Q log2 t < p + 1; with K = SQRT_SCALE, r = isqrt(2 t K**2)
       gives r <= K sqrt(2 t) < r + 1.  As c >= 0 and b + log2 t > 0,
       F(t) > 2t/3 + a + c p/Q - (b + (p + 1)/Q)(r + 1)/K, which is
       required to be > 0, multiplied out by 3QK.
    3. F'(t) > 0.  With s = sqrt(2 t), s F'(t) = 2s/3 - b - log2 t
       + 2(c/s - 1)/ln 2.  Dropping c >= 0 and taking ln 2 > 2/3 (the
       first three terms of ln 2 = sum 1/(k 2**k)) gives s F'(t) >
       2r/(3K) - b - (p + 1)/Q - 3, required to be > 0, multiplied by 3QK.

    False says only that these bounds do not settle it.
    """
    a, b, c = coeffs
    if t <= 2 or b < 0 or c < 0 or (t << b) < 9**c:
        return False
    q, k = LOG_SCALE, SQRT_SCALE
    p = (t**q).bit_length() - 1
    r = math.isqrt(2 * t * k * k)
    value = 2 * t * q * k + 3 * a * q * k + 3 * c * p * k - 3 * (b * q + p + 1) * (r + 1)
    slope = 2 * r * q - 3 * k * ((b + 3) * q + p + 1)
    return value > 0 and slope > 0


class RootBracket(NamedTuple):
    """A bisection outcome: the root lies strictly inside (lo, hi)."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


def require_tol(tol: float) -> None:
    """Raise ValueError unless tol is a finite positive number.

    NaN passes "tol <= 0" and would skip the bisection loop unnoticed.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")


def isolate_root(coeffs: FCoeffs, lo: float, hi: float, tol: float = 1e-9) -> RootBracket:
    """Shrink a sign-changing bracket to width <= tol by bisection.

    The endpoints must evaluate to nonzero values of opposite sign.
    Stops early if float resolution is exhausted before tol is reached.
    """
    require_tol(tol)
    if not lo < hi:
        raise ValueError("need lo < hi")
    flo = F_eval(coeffs, lo)
    fhi = F_eval(coeffs, hi)
    if flo == 0 or fhi == 0 or (flo < 0) == (fhi < 0):
        raise ValueError("endpoints must straddle a sign change")
    neg_left = flo < 0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        if (F_eval(coeffs, mid) < 0) == neg_left:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def d_real(n: int) -> float:
    """The real-valued drift -m(n) - (m(n) - 1) * log2(n).

    Adding c(n) gives the sign surrogate for y: the drift collects the
    parts of that surrogate that do not depend on c.
    """
    mm = sequences.m(n)
    return -mm - (mm - 1) * math.log2(n)


def delta_d(n: int) -> float:
    """The three-step increment d_real(n + 3) - d_real(n)."""
    return d_real(n + 3) - d_real(n)


def _Y(n: int, m: int) -> float:
    """(c(n) - m) - (m - 1) * log2(n), the exponent gap between the two
    exact terms of y, given m = m(n), which a range check takes from the
    chain link."""
    return sequences.c(n) - m - (m - 1) * math.log2(n)


def Y_real(n: int) -> float:
    """The real surrogate (c - m) - (m - 1) log2(n) whose sign matches
    y(n) wherever it is not within float noise of zero.

    It equals c(n) + d_real(n) up to float rounding.
    """
    return _Y(n, sequences.m(n))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

# Chain links that start below this n are stepped one n at a time; every
# later link is settled from a few candidate n.  It keeps the candidate
# route clear of the small n where the monotonicity arguments below do
# not hold (y-upper needs n >= 2, the three-step rise of Y needs n >= 10).
PER_N_BELOW = 16


def _margins_monotone(coeffs: FCoeffs) -> bool:
    """Whether s * ln(2**b * n) > max(0, 2c - 2), s = sqrt(2n), holds at
    n = PER_N_BELOW for this instance: the condition under which
    _check_envelopes settles a link from candidate n.  The left side
    increases with n once it is positive, so it then holds from there on."""
    n = PER_N_BELOW
    return math.sqrt(2 * n) * (coeffs.b * LOG2 + math.log(n)) > max(0, 2 * coeffs.c - 2)


def _check_envelopes(claim_id, what, lower, upper, limit, value):
    """One claim that the lower envelope stays strictly below, and the
    upper strictly above, value(n, r, m) for every n in [1, limit]; the
    smallest margin on each side is reported.

    Each chain link (a, b, r, m) is settled from at most six n.  On a link
    r and m are fixed, and z(n) = (2n - 1)//3 and c(n) = 2*(n//3) + 4 are
    2n/3 plus a term that depends only on n mod 3.  So on each residue
    class mod 3 of a link, x = z - (r + 1)m is 2n/3 plus a constant, and
    Y = (c - m) - (m - 1) log2(n) is 2n/3 - (m - 1) log2(n) plus a
    constant.  With s = sqrt(2n), an instance (a, b, c) gives
    G(n) = 2n/3 - F(n) = -a + b s - c log2(n) + s log2(n), whose derivative
    is (s (b ln 2 + ln n + 2) - 2c) / (s**2 ln 2).  As m <= s, the
    derivative of G(n) - (m - 1) log2(n) is at least
    (s ln(2**b n) + 2 - 2c) / (s**2 ln 2), the smaller of the two, so both
    are positive where s ln(2**b n) > 2c - 2.  _margins_monotone checks
    that at n = PER_N_BELOW; the four named instances meet it from n = 2
    on (y-upper, b = 1 and c = 2, is the tightest: 2 ln 4 > 2).  Then on
    each residue class of a link value - F_lower increases and
    F_upper - value decreases: the lower margin is least among the first
    three n of the link and the upper margin among the last three.

    A link from PER_N_BELOW on is therefore settled by its lower margins
    at those first three n and its upper margins at the last three,
    provided both instances pass _margins_monotone.  Every other link,
    and a link with a candidate margin <= 0, is stepped per n, so the
    counterexample list stays exact.  Candidates are folded in increasing
    n by min, which keeps the first of equal values, so the minima and
    their n are those of a walk over every n, as long as float error stays
    below the three-step change of a margin (above 0.01 up to n = 10**7,
    against float errors near 1e-9).
    """
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    blockwise = _margins_monotone(lower) and _margins_monotone(upper)

    def margins(rr, mm, firsts, lasts):
        lows = [(value(n, rr, mm) - F_eval(lower, n), n) for n in firsts]
        ups = [(F_eval(upper, n) - value(n, rr, mm), n) for n in lasts]
        return lows, ups

    counterexamples = []
    best_low = best_up = (math.inf, None)
    for a, b, rr, mm in sequences.chain_links(1, limit):
        link = range(a, b + 1)
        lows = ups = None
        if blockwise and a >= PER_N_BELOW:
            lows, ups = margins(rr, mm, link[:3], link[-3:])
        if lows is None or not all(margin > 0 for margin, _ in lows + ups):
            lows, ups = margins(rr, mm, link, link)
        counterexamples.extend(sorted({n for margin, n in lows + ups if margin <= 0}))
        best_low = min((best_low, *lows), key=itemgetter(0))
        best_up = min((best_up, *ups), key=itemgetter(0))
    (min_low, min_low_at), (min_up, min_up_at) = best_low, best_up
    if counterexamples:
        claim = (
            f"envelopes not strict around {what} at "
            f"{plural(len(counterexamples), 'value')}"
        )
    else:
        claim = f"both envelopes strict around {what}"
    details = (
        f"{claim}; smallest lower margin {min_low:.6f} at n = {min_low_at}, "
        f"smallest upper margin {min_up:.6f} at n = {min_up_at}"
    )
    if min(min_low, min_up) < MARGIN_FLOOR:
        details += "; warning: a margin sits inside float noise"
    return make_report(
        claim_id,
        1,
        limit,
        details,
        counterexamples=counterexamples,
        data={"min_lower_margin": min_low, "min_upper_margin": min_up},
    )


def check_bounds_x(limit: int) -> VerificationReport:
    """The x-lower envelope stays strictly below x(n) and the x-upper
    envelope strictly above it, for every n in [1, limit]."""
    return _check_envelopes(
        "analytic/x-bounds",
        "x",
        X_LOWER,
        X_UPPER,
        limit,
        lambda n, rr, mm: sequences.z(n) - (rr + 1) * mm,
    )


def check_bounds_Y(limit: int) -> VerificationReport:
    """The y-lower envelope stays strictly below Y_real(n) and the
    y-upper envelope strictly above it, for every n in [1, limit].

    In real arithmetic the lower margin ties at exactly 2/3 wherever 2n
    is a perfect square and n = 2 (mod 3): there sqrt(2n) = m, so
    Y - F = c - 2n/3 - 2, and c = 2(n - 2)/3 + 4.  The n reported for the
    smallest lower margin is whichever of those ties float rounding puts
    lowest (98, 1682 and 27848 at limits 600, 5000 and 10**5), not a
    property of the envelope; the error budget has to settle it."""
    return _check_envelopes(
        "analytic/Y-bounds",
        "the y surrogate",
        Y_LOWER,
        Y_UPPER,
        limit,
        lambda n, rr, mm: _Y(n, mm),
    )


def check_sign_consistency(limit: int) -> VerificationReport:
    """sign(Y_real(n)) agrees with the exact sign of y(n) on [1, limit].

    Walked run by run: for each run (a, b, sign) of verifier.partition_y,
    the chain links clipped to [a, b], so that the sign and m are fixed
    on each piece.  With s = sqrt(2n) and m <= s,
    Y(n + 3) - Y(n) = 2 - (m - 1) log2(1 + 3/n) is at least
    2 - 3(s - 1)/(n ln 2), which is positive from n = 10 on (1.50 is
    subtracted at n = 10, less after).  So Y increases on each residue
    class mod 3 of a piece: a positive piece is settled by Y at its
    first three n and a negative one by Y at its last three, and the
    same n hold the piece's least |Y|.  A piece is stepped per n instead
    when it starts below PER_N_BELOW, when its run has sign 0, or when a
    candidate has |Y| <= 1e-6 or the wrong sign, so the counterexample
    list stays exact.  Candidates are folded in increasing n by min,
    which keeps the first of equal values, as a walk over every n would.

    Any |Y_real| at or below 1e-6 would be too close to zero to trust
    the float sign and is reported as a counterexample; none occur (the
    smallest magnitude from n = 5 on is about 0.105).  The reported
    minimum is taken over [5, limit], past the few tiny starting values
    whose magnitudes are artifacts of m(n) - 1 being 0 or 1.
    """
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    counterexamples = []
    best = (math.inf, None)
    for a, b, sign in verifier.partition_y(limit).runs:
        for lo, hi, _, mm in sequences.chain_links(a, b):
            piece = range(lo, hi + 1)
            ys = None
            if lo >= PER_N_BELOW and sign != 0:
                ys = [(_Y(n, mm), n) for n in (piece[:3] if sign > 0 else piece[-3:])]
            if ys is None or not all(sign * y > 1e-6 for y, _ in ys):
                ys = [(_Y(n, mm), n) for n in piece]
            counterexamples.extend(
                n for y, n in ys if abs(y) <= 1e-6 or (1 if y > 0 else -1) != sign
            )
            best = min(
                (best, *((abs(y), n) for y, n in ys if n >= 5)), key=itemgetter(0)
            )
    min_abs, min_abs_at = best
    if counterexamples:
        details = (
            "float surrogate sign differs from the exact sign at "
            f"{plural(len(counterexamples), 'value')}"
        )
    else:
        details = "float surrogate sign matches the exact sign everywhere"
    if min_abs_at is None:
        min_abs = None
    else:
        details += f"; smallest |Y| over [5, {limit}] is {min_abs:.6f} at n = {min_abs_at}"
    return make_report(
        "analytic/sign-consistency",
        1,
        limit,
        details,
        counterexamples=counterexamples,
        data={"min_abs_Y": min_abs, "min_abs_Y_at": min_abs_at},
    )


# Published decimal approximations.  Tolerance follows print precision:
# two-decimal prints get 0.02, one-decimal prints get 0.1, and the
# one-decimal increment value gets 0.05 since its magnitude is itself
# only 0.3.  The -2.4 entry is a coarse one-decimal print of -2.3056;
# it is a rounding artifact of the source, not a misprint.
APPROXIMATIONS = (
    ("Y(325)", Y_real, 325, -5.26, 0.02),
    ("Y(337)", Y_real, 337, 1.48, 0.02),
    ("Y(338)", Y_real, 338, -8.02, 0.02),
    ("Y(353)", Y_real, 353, 0.41, 0.02),
    ("Y(365)", Y_real, 365, -2.4, 0.1),
    ("Y(371)", Y_real, 371, 1.08, 0.02),
    ("d(364)", d_real, 364, -238.7, 0.1),
    ("delta_d(371)", delta_d, 371, -0.3, 0.05),
)


def check_approximations() -> VerificationReport:
    """Recompute the published decimal values at print precision, and
    confirm the three-step increment identity Y(n+3) - Y(n) = 2 +
    (d(n+3) - d(n)) on [371, 388] together with the increments
    d(n+3) - d(n) growing on [368, 388].
    """
    counterexamples = []
    computed = {}
    for label, value_at, n, printed, tol in APPROXIMATIONS:
        value = value_at(n)
        computed[label] = value
        if abs(value - printed) > tol:
            counterexamples.append(label)
    increments = {n: delta_d(n) for n in range(368, 389)}
    for n in range(371, 389):
        if abs(Y_real(n + 3) - Y_real(n) - (2.0 + increments[n])) > 1e-12:
            counterexamples.append(f"increment identity at n = {n}")
    for n in range(369, 389):
        if not increments[n] > increments[n - 1]:
            counterexamples.append(f"increment not growing at n = {n}")
    details = (
        f"{len(APPROXIMATIONS)} published decimals match at print precision "
        "(the -2.4 entry is a one-decimal print of -2.3056, checked at "
        "one-decimal tolerance); increment identity exact to 1e-12 and "
        "increments strictly growing on [368, 388]"
    )
    return make_report(
        "analytic/approximations",
        325,
        391,
        details,
        counterexamples=counterexamples,
        data=computed,
    )


def check_roots(tol: float = 1e-9) -> list[VerificationReport]:
    """Isolate the main root of each envelope instance.

    For each instance: find the sign changes of F on the integer grid
    [ROOT_SCAN_START, ROOT_SCAN_HI] and require exactly one, compare the
    unit bracket with the printed one, then bisect down to tol.  The
    printed y-lower bracket is a documented misprint.

    The grid is walked in floats from the start, and the walk stops at the
    first t where F turns positive and positive_beyond(coeffs, t) holds.
    That predicate proves, in integers only, F(u) > 0 for every real
    u >= t from three facts: F'' > 0 on [t, oo) (t > 2, b, c >= 0 and
    2**b t >= 9**c, as e**2 < 9), F(t) > 0 and F'(t) > 0.  The last two
    bound log2 t by p/Q <= log2 t < (p + 1)/Q with p = bitlen(t**Q) - 1,
    sqrt(2 t) by r/K <= sqrt(2 t) < (r + 1)/K with r = isqrt(2 t K**2),
    and 1/ln 2 by 3/2, and compare the multiplied-out bounds as integers.
    So F has no zero past t, and "one sign change" holds for every real
    past the root, not only on the grid.  Anywhere the predicate refuses,
    the walk goes on toward ROOT_SCAN_HI.  The four named instances stop
    at 561, 385, 380 and 325, just past their roots.
    """
    require_tol(tol)
    reports = []
    for name, coeffs in NAMED_INSTANCES.items():
        start = ROOT_SCAN_START[name]
        flips = []
        prev = F_eval(coeffs, start)
        for t in range(start + 1, ROOT_SCAN_HI + 1):
            cur = F_eval(coeffs, t)
            if (cur < 0) != (prev < 0):
                flips.append(t)
                if prev < 0 and positive_beyond(coeffs, t):
                    break
            prev = cur
        data = {"flips": flips, "scan_start": start, "scan_hi": ROOT_SCAN_HI}
        if len(flips) != 1:
            errata, counterexamples = [], [f"{len(flips)} sign changes at {flips}"]
            details = f"expected one sign change on [{start}, {ROOT_SCAN_HI}]"
        else:
            bracket = (flips[0] - 1, flips[0])
            _, errata, counterexamples = compare_printed(
                "root-bracket", [("bracket", name, bracket, ROOT_BRACKETS[name])]
            )
            refined = isolate_root(coeffs, float(bracket[0]), float(bracket[1]), tol)
            data.update(
                {
                    "bracket": list(bracket),
                    "root_lo": refined.lo,
                    "root_hi": refined.hi,
                    "width": refined.width,
                }
            )
            details = (
                f"one sign change on [{start}, {ROOT_SCAN_HI}]; root inside "
                f"({bracket[0]}, {bracket[1]}), bisected to "
                f"[{refined.lo:.12f}, {refined.hi:.12f}]"
            )
        reports.append(
            make_report(
                f"roots/{name}",
                start,
                ROOT_SCAN_HI,
                details,
                counterexamples=counterexamples,
                errata=errata,
                data=data,
            )
        )
    return reports
