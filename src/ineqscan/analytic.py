"""Real-valued envelopes, root isolation, and floating-point checks.

The exact scans in the verifier settle every claim on a finite range.
This module covers the complementary real-analysis side: a two-parameter
family of smooth envelope functions that sandwich the integer data,
their first two derivatives, bisection brackets for the envelope roots,
and spot checks of the published decimal approximations.

With s = sqrt(2n), L = log2(n) and rho = n mod 3, the margins of the
four named envelopes around x and Y are exactly

    x - F(x-lower) = rho/3 + (r + 1)(s - m) + s(L - r + 1)          > 0
    F(x-upper) - x = (1 - rho/3) + (1 + L)(1 - (s - m)) + m(r - L)  > 1/3
    Y - F(y-lower) = (2 - 2 rho/3) + (1 + L)(s - m)                 >= 2/3
    F(y-upper) - Y = 2 rho/3 + (1 + L)(1 - (s - m))                 > 0

each bound resting only on 0 <= s - m < 1 and 2**(r - 1) < n <= 2**r,
which hold at every n by the definitions of m and r.  So every envelope
is strict at every n, and check_bounds_x and check_bounds_Y claim that
from the identities, in data.certificate, without a scan.  What they
compute is the least margin on each side over [1, min(limit,
MARGINS_TOP)], the range the report lists: the minimum of
identity_margin over a few candidate n that a monotonicity argument
picks (_x_lower_points, _x_upper_points, _y_lower_points,
_y_upper_points), at most about 210 per check however many chain links
there are.  identity_margin sums the terms of an identity, each to a
few units of roundoff, so the minima are right to about 14 digits.  At
each candidate the margin is also taken from F_eval and the named
coefficients; one that is <= 0, or off the identity by more than
float_noise of the range, its float error bound, is a counterexample,
so a changed coefficient still fails.  The y-lower margin is 2/3
exactly where 2n is a square and rho = 2; its least n, 2, is the one
reported.

check_sign_consistency reads Y at every n to verifier.band_top, 2112
once y's band holds, past which Y >= 23.  The exact sign of y comes from
the runs of verifier.partition_y, the one place that decides it, which
check_sign_consistency takes as its argument, and never from a per-n
comparison here.  The real surrogate Y = (c - m) - (m - 1) log2(n) is
written once, in _Y.  One piece of the root isolation is exact:
positive_beyond proves, in integers only, that an envelope stays
positive on a whole real tail [t, oo), and check_roots stops its float
grid walk at the first positive t where it holds, just past each root.
Reports go through verifier.make_report, and the root brackets are
compared with the printed ones, erratum lookups included, through
verifier.compare_printed.
"""

import math
from collections import namedtuple

from . import sequences
from .verifier import (
    SignPartition,
    VerificationReport,
    band_top,
    compare_printed,
    make_report,
    plural,
    signed_links,
)

LOG2 = math.log(2.0)

# The width isolate_root bisects a root bracket down to.
ROOT_TOL = 1e-9


class FCoeffs(namedtuple("FCoeffs", "a b c")):
    """Coefficients (a, b, c) of one envelope instance.

    The envelope family is

        F(t) = (2/3) t + a - b sqrt(2 t) + c log2(t) - sqrt(2 t) log2(t)

    whose members differ only in the three constants.
    """

    __slots__ = ()


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
# within 1/LOG_SCALE and sqrt(2 t) to within 1/SQRT_SCALE.  2**8 is the
# coarsest power of two that still proves all four named instances at
# their first positive grid point (2**7 misses y-upper at 325).
LOG_SCALE = 1 << 8
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


class RootBracket(namedtuple("RootBracket", "lo hi")):
    """A bisection outcome: the root lies strictly inside (lo, hi)."""

    __slots__ = ()

    @property
    def width(self) -> float:
        return self.hi - self.lo


def isolate_root(coeffs: FCoeffs, lo: float, hi: float) -> RootBracket:
    """Shrink a sign-changing bracket to width <= ROOT_TOL by bisection.

    The endpoints must evaluate to nonzero values of opposite sign.
    Stops early if float resolution is exhausted before ROOT_TOL is
    reached.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    flo = F_eval(coeffs, lo)
    fhi = F_eval(coeffs, hi)
    if flo == 0 or fhi == 0 or (flo < 0) == (fhi < 0):
        raise ValueError("endpoints must straddle a sign change")
    neg_left = flo < 0
    while hi - lo > ROOT_TOL:
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


def float_noise(limit: int) -> float:
    """A bound on the float error of every envelope margin F_eval gives
    on [1, limit], the tolerance of the envelope checks' guard:

        2**-48 (L + sqrt(2L)(log2 L + 2) + 6),  L = limit.

    A margin at n is v - F or F - v.  F is F_eval's sum of (2/3)n, a,
    b s, c log2 n and s log2 n, with s = sqrt(2n).  v is x, an int (exact
    as n < 2**53, and |x| <= 2n/3 + (r + 1)m), or _Y's c - m, exact, less
    (m - 1) log2 n.  With unit roundoff u = 2**-53, sqrt correctly
    rounded and log2 within an ulp (2u), each term is off by at most 5u
    of its size (s log2 n, the worst, takes u + 2u + u and second-order
    terms), and each of the at most six additions and subtractions
    rounds once, by u of its result (Higham, Accuracy and Stability of
    Numerical Algorithms, SIAM 2002, ch. 1).  For the named instances
    |a| <= 5 and 0 <= b, c <= 2, and m <= s, r < log2 n + 1,
    c <= 2n/3 + 4 and log2 n <= s.  So for n <= L the terms of F, those
    of v and every partial sum are at most G = 2L/3 + 5 +
    sqrt(2L)(log2 L + 4) in size, and the margin itself at most 2G, and
    a margin is off by at most 5u G + 5u G + u(5G + 2G) = 17u G.  That is
    below 32u (L + sqrt(2L)(log2 L + 2) + 6), the bound: term by term it
    is larger only in 68 sqrt(2L) against 64 sqrt(2L), and
    4 sqrt(2L) <= 20L.

    The bound is 3.6e-8 at 10**7, where the least margin is 2.7e-3, and
    3.6e-6 at 10**9, where it is 3.5e-4.  Against the margins at 80
    digits, the float error at the first and last three n of the chain
    links near each power of two to 2**23 stays more than 10 times below
    the bound at n (2.1e-9 at n = 6472801, where the bound is 2.3e-8).
    """
    return 2.0**-48 * (limit + math.sqrt(2 * limit) * (math.log2(limit) + 2) + 6)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


# The margin identities of the module docstring, one per named instance:
# (margin, identity, the bound it keeps).  Each bound rests on the
# IDENTITY_FACTS alone, so it holds at every n.
IDENTITIES = {
    "x-lower": ("x - F(x-lower)", "rho/3 + (r + 1)(s - m) + s(L - r + 1)", "> 0"),
    "x-upper": ("F(x-upper) - x", "(1 - rho/3) + (1 + L)(1 - (s - m)) + m(r - L)", "> 1/3"),
    "y-lower": ("Y - F(y-lower)", "(2 - 2 rho/3) + (1 + L)(s - m)", ">= 2/3"),
    "y-upper": ("F(y-upper) - Y", "2 rho/3 + (1 + L)(1 - (s - m))", "> 0"),
}
IDENTITY_TERMS = "s = sqrt(2n), L = log2(n), rho = n mod 3, m = m(n), r = r(n)"
IDENTITY_FACTS = ["0 <= s - m < 1", "2**(r - 1) < n <= 2**r"]

# The relative error of identity_margin.  A candidate window takes every
# n whose bound is at most the least margin so far times
# 1 + 4 IDENTITY_ERROR, which covers that error and the 8 units of
# roundoff of the bound, so no n it leaves out can reach the least margin.
IDENTITY_ERROR = 2**-48


def identity_margin(name: str, n: int) -> float:
    """The margin of the named instance at n, from its identity (the
    module docstring), term by term: s - m = (2n - m**2)/(s + m),
    1 - (s - m) = ((m + 1)**2 - 2n)/(s + m + 1), L - r + 1 = log2(2n/2**r)
    and r - L = -log2(n/2**r) by _log2_ratio, and 1 + L = log2(2n).  So
    no term cancels, each is within 8 units of roundoff of its value, and
    as every term is >= 0 the sum is within IDENTITY_ERROR of the margin,
    relatively."""
    mm, rr, rho = sequences.m(n), sequences.r(n), n % 3
    s = math.sqrt(2 * n)
    if name.endswith("-lower"):
        below = (2 * n - mm * mm) / (s + mm)
        if name == "x-lower":
            return rho / 3 + (rr + 1) * below + s * _log2_ratio(2 * n, 1 << rr)
        return (6 - 2 * rho) / 3 + math.log2(2 * n) * below
    above = ((mm + 1) ** 2 - 2 * n) / (s + mm + 1)
    if name == "x-upper":
        return (3 - rho) / 3 + math.log2(2 * n) * above - mm * _log2_ratio(n, 1 << rr)
    return 2 * rho / 3 + math.log2(2 * n) * above


def _log2_ratio(p, q):
    """log2(p/q) for ints p, q > 0, as log1p((p - q)/q)/ln 2: to a few
    units of roundoff relative to itself, also where p/q is near 1."""
    return math.log1p((p - q) / q) / LOG2


def _add(points, name, ns):
    """Put identity_margin(name, n) in points for each n of ns not in it."""
    for n in ns:
        if n not in points:
            points[n] = identity_margin(name, n)


def _first(lo, hi, holds):
    """The least n in [lo, hi] where holds(n), or hi + 1 if none; holds
    is false and then true on [lo, hi]."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _r_blocks(limit):
    """(lo, hi, r) of each r-block (2**(r - 1), 2**r] that meets
    [1, limit], clipped to it; r = 0 gives [1, 1]."""
    return [
        ((1 << rr >> 1) + 1, min(1 << rr, limit), rr) for rr in range((limit - 1).bit_length() + 1)
    ]


def _x_lower_points(limit):
    """{n: margin} at candidates that hold the least x-lower margin on
    [1, limit].

    On a chain link, where m and r are fixed, and on one residue class
    mod 3, rho is fixed and the margin rises: its derivative in n is
    (r + 1)/s + (L - r + 1)/s + s/(n ln 2) > 0.  So a link's least margin
    is at one of its first three n.  The margin is at least
    s(L - r + 1), as rho/3 and (r + 1)(s - m) are >= 0, and that bound
    rises on each r-block.  So with the first three n of every r-block as
    seeds, only a prefix of each r-block, where the bound is at most the
    least margin so far, can hold a smaller margin, and the candidates
    there are the first three n of each link that starts in it."""
    points = {}
    blocks = _r_blocks(limit)
    for lo, hi, _ in blocks:
        _add(points, "x-lower", range(lo, min(lo + 2, hi) + 1))
    for lo, hi, rr in blocks:
        cut, top = min(points.values()) * (1 + 4 * IDENTITY_ERROR), 1 << rr
        # the last n where s(L - r + 1) <= cut, as L - r + 1 = log2(2n/2**r)
        end = _first(lo, hi, lambda n: math.sqrt(2 * n) * _log2_ratio(2 * n, top) > cut) - 1
        if end < lo:
            continue
        for mm in range(sequences.m(lo) + 1, sequences.m(end) + 1):
            a = sequences.m_block(mm)[0]
            _add(points, "x-lower", range(a, min(a + 2, hi) + 1))
    return points


def _x_upper_points(limit):
    """{n: margin} at candidates that hold the least x-upper margin on
    [1, limit].

    On a chain link and one residue class mod 3 the margin falls from
    n = 2 on: its derivative is (1 - s)/(n ln 2) - (1 + L)/s < 0.  So a
    link's least margin is at one of its last three n.  The margin is
    more than 1/3 + (s - 1)(r - L), as 1 - rho/3 >= 1/3, (1 + L)(1 - (s -
    m)) > 0, m > s - 1 and r - L >= 0, and that bound falls on each r-block from
    n = 2 on: its derivative (r - L)/s - (s - 1)/(n ln 2) is < 0, as
    (r - L) ln 2 < 1 <= 2 - sqrt(2/n) = s(s - 1)/n.  So with the last
    three n of every r-block (those up to each power of two <= limit, and
    up to limit) as seeds, only a top window of each r-block, where the
    bound is below the least margin so far, can hold a smaller margin,
    and the candidates there are the last three n of each link that ends
    in it."""
    points = {}
    blocks = _r_blocks(limit)
    for lo, hi, _ in blocks:
        _add(points, "x-upper", range(max(hi - 2, 1), hi + 1))
    for lo, hi, rr in blocks:
        cut, top = min(points.values()) * (1 + 4 * IDENTITY_ERROR), 1 << rr
        # the first n where 1/3 + (s - 1)(r - L) <= cut, as r - L = -log2(n/2**r)
        excess = cut - 1 / 3
        start = _first(lo, hi, lambda n: (1 - math.sqrt(2 * n)) * _log2_ratio(n, top) <= excess)
        if start > hi:
            continue
        ends = [sequences.m_block(mm)[1] for mm in range(sequences.m(start), sequences.m(hi))]
        for end in ends + [hi]:
            _add(points, "x-upper", range(max(end - 2, 1), end + 1))
    return points


def _y_lower_points(limit):
    """{n: margin} at the n of the least y-lower margin on [1, limit].

    The margin (2 - 2 rho/3) + (1 + L)(s - m) is at least 2/3, with
    equality exactly where rho = 2 and s = m: at the ties n = 2, 8, 32,
    50, 98, ..., where 2n is a square and n = 2 (mod 3).  The least of
    them is n = 2, and at n = 1 the margin is 4/3 + sqrt(2) - 1.  So the
    least margin is 2/3 at n = 2 once limit >= 2, the first n that
    reaches it, and at n = 1 for limit 1."""
    n = min(limit, 2)
    return {n: identity_margin("y-lower", n)}


def _y_upper_points(limit):
    """{n: margin} at candidates that hold the least y-upper margin on
    [1, limit].

    The margin 2 rho/3 + (1 + L)(1 - (s - m)) does not read r, and on
    each m-block and residue class mod 3 it falls from n = 2 on: its
    derivative is (1 - (s - m))/(n ln 2) - (1 + L)/s < 0.  So an m-block's
    least margin is at one of its last three n, or of those up to limit
    in the block that holds limit.  Every m-block with m < 64 gives its
    last three.  Past them rho >= 1 gives a margin above 2/3, more than
    the 0.375 at n = 2046, the n with rho = 0 that ends the block m = 63.
    In a whole block [a, b] the n with rho = 0 among the last three has
    2n = (m + 1)**2 - d, with d in 1..6 fixed by m mod 6 (1, 4, 3, 4, 1,
    6 for m = 0, ..., 5), and its margin is, with k = m + 1 and
    s = sqrt(k**2 - d),

        (1 + L)(k - s) = 2 log2(s) d / (k + s),

    which falls as k grows with d fixed: with dk/ds = s/k its derivative
    in s has the sign of k - s ln(s), and s ln(s) > 1.3 s > k once s >= 4.
    So of the whole blocks with m >= 64 the last of each class mod 6 is
    enough, with the last three n up to limit."""
    points = {}
    m_limit = sequences.m(limit)
    for mm in range(1, min(64, m_limit + 1)):
        end = min(sequences.m_block(mm)[1], limit)
        _add(points, "y-upper", range(max(end - 2, 1), end + 1))
    whole = m_limit if sequences.m_block(m_limit)[1] == limit else m_limit - 1
    for mm in range(max(64, whole - 6 + 1), whole + 1):
        end = sequences.m_block(mm)[1]
        _add(points, "y-upper", range(end - 2, end + 1))
    _add(points, "y-upper", range(max(limit - 2, 1), limit + 1))
    return points


# The envelope reports list their least margins on [1, min(limit,
# MARGINS_TOP)]; their claim for every n rests on the identities alone
# (data.certificate).  The candidate rules are tested up to here against
# the link walk and at 80 digits, and the F_eval guard is sound here.
# Past it F_eval's margin can round to 0.0 where the identity's is
# positive (the y-upper margin at n = 213795874512 is 2.95e-5), and past
# about 2**100 float64 no longer orders the x-upper candidates, whose
# margins differ from 1/3 by O(2**(-r/2)).
MARGINS_TOP = 10**7


def _check_envelopes(claim_id, what, value, lower, upper, limit):
    """One claim that the lower envelope stays strictly below, and the
    upper strictly above, value(n) for every n: the two identities of the
    named instances, lower and upper (name, coefficients, candidates),
    stated in data.certificate.  The least margin of each side on
    [1, top], top = min(limit, MARGINS_TOP), the report's range, is the
    least identity_margin over the side's candidates, the first n of a
    tie.  At every candidate the margin is also taken from F_eval and the
    coefficients: one <= 0, or off the identity by more than
    float_noise(top) plus IDENTITY_ERROR of the margin, the identity's
    own error, is a counterexample."""
    sequences.require_positive(limit, "limit")
    top = min(limit, MARGINS_TOP)
    tol = float_noise(top)
    counterexamples, least, certificate = set(), [], {"terms": IDENTITY_TERMS}
    for side, sign, (name, coeffs, candidates) in (("lower", 1, lower), ("upper", -1, upper)):
        points = candidates(top)
        for n, margin in points.items():
            f_margin = sign * (value(n) - F_eval(coeffs, n))
            if not (f_margin > 0 and abs(f_margin - margin) <= tol + margin * IDENTITY_ERROR):
                counterexamples.add(n)
        least.append(min((margin, n) for n, margin in points.items()))
        margin_of, identity, bound = IDENTITIES[name]
        certificate[side] = {
            "margin": margin_of,
            "identity": identity,
            "bound": bound,
            "facts": IDENTITY_FACTS,
        }
    (min_low, min_low_at), (min_up, min_up_at) = least
    if counterexamples:
        claim = (
            f"envelope margins off their identities around {what} at "
            f"{plural(len(counterexamples), 'candidate')}"
        )
    else:
        claim = f"both envelopes strict around {what}"
    details = (
        f"{claim}; smallest lower margin {min_low:.6f} at n = {min_low_at}, "
        f"smallest upper margin {min_up:.6f} at n = {min_up_at}"
    )
    return make_report(
        claim_id,
        1,
        top,
        details,
        counterexamples=sorted(counterexamples),
        data={"min_lower_margin": min_low, "min_upper_margin": min_up, "certificate": certificate},
    )


def check_bounds_x(limit: int) -> VerificationReport:
    """The x-lower envelope stays strictly below x(n) and the x-upper
    envelope strictly above it, for every n; the least margins are those
    on [1, min(limit, MARGINS_TOP)]."""
    return _check_envelopes(
        "analytic/x-bounds",
        "x",
        sequences.x,
        ("x-lower", X_LOWER, _x_lower_points),
        ("x-upper", X_UPPER, _x_upper_points),
        limit,
    )


def check_bounds_Y(limit: int) -> VerificationReport:
    """The y-lower envelope stays strictly below Y_real(n) and the
    y-upper envelope strictly above it, for every n; the least margins
    are those on [1, min(limit, MARGINS_TOP)].  The least lower margin is
    2/3 at n = 2 once limit >= 2, the first of the ties where 2n is a
    square and n = 2 (mod 3) (see _y_lower_points)."""
    return _check_envelopes(
        "analytic/Y-bounds",
        "the y surrogate",
        Y_real,
        ("y-lower", Y_LOWER, _y_lower_points),
        ("y-upper", Y_UPPER, _y_upper_points),
        limit,
    )


def check_sign_consistency(part: SignPartition) -> VerificationReport:
    """sign(Y_real(n)) agrees with the exact sign of y(n) on
    [1, part.limit].

    Y is read at every n of verifier.signed_links(part), whose pieces fix
    the sign and m, to band_top("y", part.limit): 2112, a link's end,
    once the band holds.  Past it the band gives y > 0 and, as
    log2 n < bitlen(n) <= 2k on each block, Y >= c(a) - m - 2k(m - 1)
    >= (m + 5)/3 >= 23, so no counterexample or least |Y| lies there.

    An n is a counterexample unless sign * Y_real(n) > 1e-6: of the wrong
    sign, or too close to zero to trust.  None occur; the least |Y| from
    n = 5 on is about 0.105, and it is reported over [5, limit], past the
    starting values where m(n) - 1 is 0 or 1.  The floor holds with room
    to spare: log2 is within an ulp and the product and the difference
    round once each, so with u = 2**-53 the float Y is off by at most
    about 3u(m - 1) log2 n + u|Y| (Higham, Accuracy and Stability of
    Numerical Algorithms, SIAM 2002, ch. 1): below 1e-12 on [1, 2112],
    where m <= 64, log2 n < 11.05 and |Y| < 700.
    """
    counterexamples = []
    best = (math.inf, None)
    limit = part.limit
    top = band_top("y", limit)
    for lo, hi, _, mm, sign in signed_links(part):
        if lo > top:
            break
        ys = [(_Y(n, mm), n) for n in range(lo, hi + 1)]
        counterexamples.extend(n for y, n in ys if not sign * y > 1e-6)
        best = min((best, *((abs(y), n) for y, n in ys if n >= 5)))
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


def check_roots() -> list[VerificationReport]:
    """Isolate the main root of each envelope instance.

    For each instance: find the sign changes of F on the integer grid
    [ROOT_SCAN_START, ROOT_SCAN_HI] and require exactly one, compare the
    unit bracket with the printed one, then bisect down to ROOT_TOL.  The
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
            refined = isolate_root(coeffs, float(bracket[0]), float(bracket[1]))
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
