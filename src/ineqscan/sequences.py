"""The base integer sequences, as total functions of a positive integer.

Definitions, for n >= 1:

    z(n)   largest integer with 3*z(n) < 2n            (equals (2n-1)//3)
    m(n)   largest integer with m(n)**2 <= 2n          (integer square root)
    r(n)   least r >= 0 with n <= 2**r
    c(n)   2n - 2*z(n) + 2
    x(n)   z(n) - (r(n) + 1)*m(n)
    y(n)   2**(c(n) - m(n)) - n**(m(n) - 1)

y(n) splits into pow2_term(n) = 2**(c(n)-m(n)) and npow_term(n) =
n**(m(n)-1).  Both terms grow to thousands of digits quickly, so the
sign of y is decided by exact comparison of the terms rather than by
subtracting them; ask for y_value only when you really need the digits.
The gap c(n) - m(n) is at least 2 for every n (exactly 2 only at n = 2),
which keeps the pow2_term exponent positive.

The scalar functions compute one value from scratch.  Ranges go through
the interval chain instead: chain_links(lo, hi) yields the maximal links
on which m and r are both constant, one math.isqrt and one bit_length
per link; scan steps n inside each link, taking m, r and (r + 1)*m from
it, and yields (n, z, m, r, c, x).  rows walks the same links and
steps the same way, adding c - m and the sign of y, and yields whole
rows as plain tuples.  It settles y's sign once per link where
positive_link certifies y > 0 on all of it, and compares the two terms
of y exactly for each n of the other links, all of them below n = 421.
row(n) is one step of rows, so a SequenceRow and a row of a range scan
come from the same code.  rows serves seq and row only.  The range
checks read the sign of y from the runs of verifier.partition_y, which
applies the same certificate and calls y_sign for the few n whose link
it leaves open.  bound_signs gives the exact signs of y's two endpoint
bounds on a constant-m block, which is all verifier.check_range_bounds
needs; no other module compares the two terms of y.
"""

import math
from typing import Iterator, NamedTuple

from .exactarith import cmp_pow2_vs_pow


class SequenceRow(NamedTuple):
    """Every sequence value at a single n, mutually consistent."""

    n: int
    z: int
    m: int
    r: int
    c: int
    x: int
    c_minus_m: int
    y_sign: int


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError("n must be a positive integer")


def z(n: int) -> int:
    """Largest integer with 3*z < 2n."""
    _require_positive(n)
    return (2 * n - 1) // 3


def m(n: int) -> int:
    """Largest integer whose square is at most 2n."""
    _require_positive(n)
    return math.isqrt(2 * n)


def r(n: int) -> int:
    """Least non-negative r with n <= 2**r; 0 for n = 1."""
    _require_positive(n)
    return (n - 1).bit_length()


def c(n: int) -> int:
    """2n - 2*z(n) + 2, which is 2*(n // 3) + 4 in closed form:
    non-decreasing, steps by 2 at multiples of 3."""
    _require_positive(n)
    return 2 * n - 2 * z(n) + 2


def x(n: int) -> int:
    """z(n) - (r(n) + 1)*m(n)."""
    _require_positive(n)
    return z(n) - (r(n) + 1) * m(n)


def pow2_term(n: int) -> int:
    """2**(c(n) - m(n)), the power-of-two side of y(n)."""
    _require_positive(n)
    return 1 << (c(n) - m(n))


def npow_term(n: int) -> int:
    """n**(m(n) - 1), the n-power side of y(n)."""
    _require_positive(n)
    return n ** (m(n) - 1)


def y_sign(n: int) -> int:
    """Exact sign of y(n), computed without forming the difference."""
    _require_positive(n)
    return cmp_pow2_vs_pow(c(n) - m(n), n, m(n) - 1)


def y_value(n: int) -> int:
    """The exact integer y(n) = pow2_term(n) - npow_term(n).

    This builds both terms in full; for n in the thousands the result
    already has hundreds of digits.  Prefer y_sign for large scans.
    """
    _require_positive(n)
    return pow2_term(n) - npow_term(n)


def row(n: int) -> SequenceRow:
    """All sequence values at n bundled into one record."""
    _require_positive(n)
    return SequenceRow(*next(rows(n, n)))


def chain_links(lo: int, hi: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (a, b, r, m) for each link of the interval chain that meets
    [lo, hi], clipped to [lo, hi].

    A link is a maximal run of n on which m and r are both constant: it
    ends at the end of m's block, floor(m*m/2) + m, or of r's block,
    2**r, whichever comes first.  The links are consecutive and cover
    [lo, hi]; each costs O(1) integer operations, and there are at most
    about sqrt(2 * hi) of them.  An empty range yields nothing.
    """
    if lo < 1:
        raise ValueError("lo must be a positive integer")
    a = lo
    while a <= hi:
        mm = math.isqrt(2 * a)
        rr = (a - 1).bit_length()
        b = min(mm * mm // 2 + mm, 1 << rr, hi)
        yield a, b, rr, mm
        a = b + 1


def scan(lo: int, hi: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """Yield (n, z, m, r, c, x) for each n in [lo, hi].

    The stepper for range scans: it walks chain_links(lo, hi) and steps n
    inside each link, where m, r and (r + 1)*m are the link's constants,
    so x is z minus a constant.  An empty range yields nothing.
    """
    for a, b, rr, mm in chain_links(lo, hi):
        k = (rr + 1) * mm
        for n in range(a, b + 1):
            nn = 2 * n
            zz = (nn - 1) // 3
            yield n, zz, mm, rr, nn - 2 * zz + 2, zz - k


def positive_link(lo: int, hi: int, mm: int) -> bool:
    """True when one bit-length comparison certifies y > 0 on all of
    [lo, hi], a run of n on which m(n) = mm throughout, such as a link of
    chain_links or a piece of one.

    The certificate is mm >= 2 and c(lo) - mm >= bitlen(hi) * (mm - 1):
    c does not decrease, so 2**(c(n) - mm) >= 2**(c(lo) - mm), and every
    n <= hi has n**(mm - 1) < 2**(bitlen(hi) * (mm - 1)).  It is the
    fast path of the exact y-sign comparison applied to the whole run.
    False leaves the run undecided, not negative.
    """
    return mm >= 2 and c(lo) - mm >= hi.bit_length() * (mm - 1)


def bound_signs(a: int, b: int, mm: int) -> tuple[int, int]:
    """Exact signs of y's endpoint bounds on [a, b], a run of n with
    m(n) = mm throughout: high = 2**(c(b) - mm) - a**(mm - 1), then
    low = 2**(c(a) - mm) - b**(mm - 1).  Neither bound is built."""
    return (
        cmp_pow2_vs_pow(c(b) - mm, a, mm - 1),
        cmp_pow2_vs_pow(c(a) - mm, b, mm - 1),
    )


def rows(lo: int, hi: int) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
    """Yield (n, z, m, r, c, x, c_minus_m, y_sign) for each n in [lo, hi],
    in SequenceRow field order, as plain tuples.

    Walks chain_links(lo, hi) and steps n inside each link as scan does,
    with m, r and (r + 1)*m as the link's constants.  y_sign is 1 for
    every n of a link that positive_link certifies, and otherwise the
    exact comparison of 2**(c - m) with n**(m - 1), as in y_sign(n).  An
    empty range yields nothing.
    """
    for a, b, rr, mm in chain_links(lo, hi):
        k = (rr + 1) * mm
        settled = positive_link(a, b, mm)
        for n in range(a, b + 1):
            nn = 2 * n
            zz = (nn - 1) // 3
            cc = nn - 2 * zz + 2
            yield n, zz, mm, rr, cc, zz - k, cc - mm, (
                1 if settled else cmp_pow2_vs_pow(cc - mm, n, mm - 1)
            )
