"""Real-valued envelopes, root isolation, and floating-point checks.

The exact scans in the verifier settle every claim on a finite range.
This module covers the complementary real-analysis side: a two-parameter
family of smooth envelope functions that sandwich the integer data,
their first two derivatives, bisection brackets for the envelope roots,
and spot checks of the published decimal approximations.

With s = sqrt(2n), L = log2(n) and rho = n mod 3, the margin of each
named envelope around x or Y, such as x - F(x-lower), is exactly a sum
of terms, its identity in IDENTITIES, with a bound that rests only on
0 <= s - m < 1 and 2**(r - 1) < n <= 2**r, true at every n.  So every
envelope is strict at every n, and check_bounds_x and check_bounds_Y
claim that from the identities, in data.certificate, without a scan.
The certificate's text and an exact check, _off_identity on a grid of 96
points, are both built from that data.  What the checks compute is the
least margin on each side over [1, min(limit, MARGINS_TOP)], the range
the report lists: the minimum of identity_margin, right to about 14
digits, over at most about 110 candidate n however many chain links
there are.  One walk, _walk, picks them: it takes blocks of n in an
order where a lower bound of the margin does not fall, and stops where
that bound passes the least margin so far; _x_lower_points,
_x_upper_points and _y_upper_points each give it their blocks.  The
y-lower margin is 2/3 exactly where 2n is a square and rho = 2; its
least n, 2, is the one reported (_y_lower_points).

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
from collections import Counter, namedtuple
from itertools import chain, product

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
    """The real-valued drift -m(n) - (m(n) - 1) * log2(n), the part of the
    sign surrogate for y that does not depend on c(n)."""
    mm = sequences.m(n)
    return -mm - (mm - 1) * math.log2(n)


def delta_d(n: int) -> float:
    """The three-step increment d_real(n + 3) - d_real(n)."""
    return d_real(n + 3) - d_real(n)


def _Y(n: int, m: int, lg=None) -> float:
    """(c(n) - m) - (m - 1) * log2(n), the exponent gap between the two
    exact terms of y, given m = m(n), which a range check takes from the
    chain link; exact with an int lg given for log2(n)."""
    return sequences.c(n) - m - (m - 1) * (math.log2(n) if lg is None else lg)


def Y_real(n: int) -> float:
    """The real surrogate (c - m) - (m - 1) log2(n) whose sign matches
    y(n) wherever it is not within float noise of zero; c(n) + d_real(n)
    up to float rounding."""
    return _Y(n, sequences.m(n))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


# The margin identities, one per named instance: (margin, terms, bound).
# A term (k, f, g) is k f g, f and g linear factors that _factor reads.
# Each bound rests on the IDENTITY_FACTS alone, so it holds at every n.
IDENTITIES = {
    "x-lower": (
        "x - F(x-lower)", ((1, "rho/3", "1"), (1, "r + 1", "s - m"), (1, "s", "L - r + 1")), "> 0"
    ),
    "x-upper": (
        "F(x-upper) - x",
        ((1, "1 - rho/3", "1"), (1, "1 + L", "1 - (s - m)"), (1, "m", "r - L")),
        "> 1/3",
    ),
    "y-lower": ("Y - F(y-lower)", ((1, "2 - 2 rho/3", "1"), (1, "1 + L", "s - m")), ">= 2/3"),
    "y-upper": ("F(y-upper) - Y", ((1, "2 rho/3", "1"), (1, "1 + L", "1 - (s - m)")), "> 0"),
}
IDENTITY_TERMS = "s = sqrt(2n), L = log2(n), rho = n mod 3, m = m(n), r = r(n)"
IDENTITY_FACTS = ["0 <= s - m < 1", "2**(r - 1) < n <= 2**r"]

# The envelope family in the same terms: F = 2n/3 + a - b s + c L - s L,
# with a, b and c those of an instance.
ENVELOPE = ((1, "2 n/3", "1"), (1, "a", "1"), (-1, "b", "s"), (1, "c", "L"), (-1, "s", "L"))


def identity_text(terms) -> str:
    """The terms of an identity as data.certificate states them."""
    return " + ".join(
        ("" if k == 1 else f"{k}")
        + "".join(f"({f})" if " + " in f or " - " in f else f for f in factors if f != "1")
        for k, *factors in terms
    )


def _factor(text):
    """3 times the linear factor text, a sum of k, x, k x, x/3, k x/3 (k an
    int, x a name) and parenthesized factors, as {name: coefficient}, "1"
    the constant: "1 - (s - m)" gives {"1": 3, "s": -3, "m": 3}."""
    form, signs, sign, last = {}, [1], 1, None
    for token in text.replace("(", "( ").replace(")", " )").replace("/3", " /3").split():
        if token in ("+", "-"):
            sign, last = (signs[-1] if token == "+" else -signs[-1]), None
        elif token in ("(", ")"):
            signs = signs + [sign] if token == "(" else signs[:-1]
        elif token == "/3":
            form[last] -= 2 * k
        else:
            if token.isdigit() or last != "1":
                k = sign * (int(token) if token.isdigit() else 1)
            else:  # k x: the int k before scales x
                form["1"] -= 3 * k
            last = "1" if token.isdigit() else token
            form[last] = form.get(last, 0) + 3 * k
    return form


def _off_identity(terms, coeffs, sign, value):
    """The first point (n, m, r, s, L) of the grid where the margin
    sign (value - F), F the instance of coeffs, is not the identity of
    terms, or None; value(n, m, r, L) is x or Y with m, r and L given.
    Both sides are compared times 9, as ints.  The grid is n = 3q + rho
    for rho in {0, 1, 2} and q in {1, 2}, and m, r, s, L in {1, 2}: 96
    points.  On a class rho, with m, r, s and L free, each side has degree
    <= 1 in each of q, m, r, s and L: z and c are affine in q,
    x = z - (r + 1) m, Y = c - m - (m - 1) L, F's only product is s L, and
    no identity term multiplies two factors that share a variable.  Such a
    polynomial that vanishes where each variable is 1 or 2 is zero, by
    induction on the variables: as p0 + t p1 in the last one,
    p0 + p1 = p0 + 2 p1 = 0 on the grid of the others.  So the sides agree
    at q = n // 3, m = m(n), r = r(n), s = sqrt(2n), L = log2(n), any n."""
    nine = Counter()
    for k, f, g in [(sign * k, f, g) for k, f, g in ENVELOPE] + list(terms):
        for u, cu in _factor(f).items():
            for v, cv in _factor(g).items():
                nine[min(u, v), max(u, v)] += k * cu * cv
    products = [(k, u, v) for (u, v), k in nine.items() if k]
    constants = dict(zip("1abc", (1, *coeffs)))
    for rho, q, mm, rr, s, lg in product((0, 1, 2), (1, 2), (1, 2), (1, 2), (1, 2), (1, 2)):
        n = 3 * q + rho
        at = constants | {"n": n, "q": q, "rho": n % 3, "m": mm, "r": rr, "s": s, "L": lg}
        if 9 * sign * value(n, mm, rr, lg) != sum(k * at[u] * at[v] for k, u, v in products):
            return n, mm, rr, s, lg
    return None


# The relative error of identity_margin.  _walk takes every block whose
# bound is at most the least margin so far times 1 + 4 IDENTITY_ERROR,
# which covers that error and the 8 units of roundoff of the bound, so no
# n it leaves out can reach the least margin.
IDENTITY_ERROR = 2**-48


def identity_margin(name: str, n: int) -> float:
    """The margin of the named instance at n, from its identity in
    IDENTITIES, term by term: s - m = (2n - m**2)/(s + m),
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


def _walk(points, name, blocks):
    """Put identity_margin(name, n) in points for the n of each block
    (ns, bound) in turn, up to the first block whose bound exceeds the
    least margin in points times 1 + 4 IDENTITY_ERROR, and return points.
    bound is a lower bound of the margin on its block that does not fall
    from one block to the next, so no block from there on holds a smaller
    margin.  With points empty the first block is always taken."""
    least = min(points.values(), default=math.inf)
    for ns, bound in blocks:
        if bound > least * (1 + 4 * IDENTITY_ERROR):
            break
        for n in ns:
            if n not in points:
                points[n] = identity_margin(name, n)
        least = min(points.values())
    return points


def _r_blocks(limit):
    """(lo, hi, r) of each r-block sequences.r_block(r) that meets
    [1, limit], clipped to it, from the top block down."""
    for rr in range(sequences.r(limit), -1, -1):
        lo, hi = sequences.r_block(rr)
        yield lo, min(hi, limit), rr


def _x_lower_points(limit):
    """{n: margin} at candidates that hold the least x-lower margin on
    [1, limit].

    On a chain link, where m and r are fixed, and on one residue class
    mod 3, rho is fixed and the margin rises: its derivative in n is
    (r + 1)/s + (L - r + 1)/s + s/(n ln 2) > 0.  So a link's least margin
    is at one of its first three n.  The margin is at least
    s(L - r + 1), as rho/3 and (r + 1)(s - m) are >= 0, and that bound
    rises on each r-block.  So each r-block, from the top block down,
    walks its links upward: a link's first three n, with the bound at its
    first n."""
    points = {}
    for lo, hi, rr in _r_blocks(limit):
        above = range(sequences.m(lo) + 1, sequences.m(hi) + 1)
        starts = chain([lo], (sequences.m_block(mm)[0] for mm in above))
        links = (
            (range(a, min(a + 2, hi) + 1), math.sqrt(2 * a) * _log2_ratio(2 * a, 1 << rr))
            for a in starts
        )
        _walk(points, "x-lower", links)
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
    (r - L) ln 2 < 1 <= 2 - sqrt(2/n) = s(s - 1)/n.  So each r-block, from
    the top block down, walks its links downward from its top: a link's
    last three n, with the bound at its last n."""
    points = {}
    for lo, hi, rr in _r_blocks(limit):
        below = range(sequences.m(hi) - 1, sequences.m(lo) - 1, -1)
        ends = chain([hi], (sequences.m_block(mm)[1] for mm in below))
        links = (
            (range(max(b - 2, 1), b + 1), 1 / 3 + (1 - math.sqrt(2 * b)) * _log2_ratio(b, 1 << rr))
            for b in ends
        )
        _walk(points, "x-upper", links)
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
    least margin is at one of its last three n up to limit.  On the
    block, 2n >= m**2 gives 1 + L >= 2 log2(m), and (m + 1)**2 - 2n >= 1
    with s < m + 1 gives 1 - (s - m) > 1/(2(m + 1)), so the margin is
    more than log2(m)/(m + 1).  That bound falls as m grows from 4 on, as
    its derivative has the sign of 1 + 1/m - ln(m).  So n <= 7, the
    blocks m <= 3, are always candidates, and then the m-blocks walk down
    from m(limit) to 4."""

    def block(mm):
        end = min(sequences.m_block(mm)[1], limit)
        return range(end - 2, end + 1), math.log2(mm) / (mm + 1)

    blocks = map(block, range(sequences.m(limit), 3, -1))
    return _walk({}, "y-upper", chain([(range(1, min(limit, 7) + 1), 0)], blocks))


# The envelope reports list their least margins on [1, min(limit,
# MARGINS_TOP)]; their claim for every n rests on the identities alone
# (data.certificate).  The candidate rules are tested up to here against
# the link walk and at 80 digits, and past about 2**100 float64 no longer
# orders the x-upper candidates, whose margins differ from 1/3 by
# O(2**(-r/2)).
MARGINS_TOP = 10**7


def _check_envelopes(claim_id, what, value, lower, upper, limit):
    """One claim that the lower envelope stays strictly below, and the
    upper strictly above, value for every n: the identities of the named
    instances lower and upper (name, coefficients, candidates), checked by
    _off_identity, an instance off its identity a counterexample, and
    stated in data.certificate.  The least margin of each side on [1, top],
    top = min(limit, MARGINS_TOP), the report's range, is the least
    identity_margin over the side's candidates, the first n of a tie."""
    sequences.require_positive(limit, "limit")
    top = min(limit, MARGINS_TOP)
    off, least, certificate = {}, [], {"terms": IDENTITY_TERMS}
    for side, sign, (name, coeffs, candidates) in (("lower", 1, lower), ("upper", -1, upper)):
        margin_of, terms, bound = IDENTITIES[name]
        point = _off_identity(terms, coeffs, sign, value)
        if point:
            off[name] = f"{name} off its identity at (n, m, r, s, L) = {point}"
        least.append(min((margin, n) for n, margin in candidates(top).items()))
        certificate[side] = {
            "margin": margin_of,
            "identity": identity_text(terms),
            "bound": bound,
            "facts": IDENTITY_FACTS,
        }
    (min_low, min_low_at), (min_up, min_up_at) = least
    claim = "; ".join(off.values()) or f"both envelopes strict around {what}"
    details = (
        f"{claim}; smallest lower margin {min_low:.6f} at n = {min_low_at}, "
        f"smallest upper margin {min_up:.6f} at n = {min_up_at}"
    )
    data = {"min_lower_margin": min_low, "min_upper_margin": min_up, "certificate": certificate}
    return make_report(claim_id, 1, top, details, counterexamples=list(off), data=data)


def check_bounds_x(limit: int) -> VerificationReport:
    """The x-lower envelope stays strictly below x(n) and the x-upper
    envelope strictly above it, for every n; the least margins are those
    on [1, min(limit, MARGINS_TOP)]."""
    return _check_envelopes(
        "analytic/x-bounds",
        "x",
        lambda n, mm, rr, lg: sequences.z(n) - (rr + 1) * mm,
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
        lambda n, mm, rr, lg: _Y(n, mm, lg),
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
    first t where F turns positive and positive_beyond(coeffs, t) proves,
    in integers only, F(u) > 0 for every real u >= t.  So "one sign
    change" holds for every real past the root, not only on the grid.
    Anywhere the predicate refuses, the walk goes on toward ROOT_SCAN_HI.
    The four named instances stop at 561, 385, 380 and 325, just past
    their roots.
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
