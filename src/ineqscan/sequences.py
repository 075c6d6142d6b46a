"""The base integer sequences, as total functions of a positive integer.

Definitions, for n >= 1:

    z(n)   largest integer with 3*z(n) < 2n            (equals (2n-1)//3)
    m(n)   largest integer with m(n)**2 <= 2n          (integer square root)
    r(n)   least r >= 0 with n <= 2**r
    c(n)   2n - 2*z(n) + 2                             (equals 2*(n//3) + 4)
    x(n)   z(n) - (r(n) + 1)*m(n)
    y(n)   2**(c(n) - m(n)) - n**(m(n) - 1)

y(n) splits into pow2_term(n) = 2**(c(n)-m(n)) and npow_term(n) =
n**(m(n)-1).  Both terms grow to thousands of digits quickly, so the
sign of y is decided by exact comparison of the terms rather than by
subtracting them; ask for y_value only when you really need the digits.
The gap c(n) - m(n) is at least 2 for every n (exactly 2 only at n = 2),
which keeps the pow2_term exponent positive.

The scalar functions compute one value from scratch.  Each checks n with
require_positive, itself or in its first call, before any work.
y_sign(n) is the one exact comparison of y's two terms at a single n.
Ranges go through the interval chain instead: chain_links(lo, hi) yields
the maximal links on which m and r are both constant, one math.isqrt and
one bit_length per link, and m_block(m) the first and last n with
m(n) = m.  A range check cuts a link where z or c passes v, at z_last(v)
or c_last(v), the last n with z(n) <= v or c(n) <= v.  positive_link
certifies y > 0 on a whole link from one bit-length comparison, and
verifier.partition_y, the source of y's sign for every range check,
calls y_sign for each n of the links it leaves open, all of them below
n = 421.  bound_signs gives the exact signs of y's two endpoint bounds
on a constant-m block, all that verifier.check_range_bounds needs on
the 64 blocks to n = 2112; no other module compares the two terms of y.

scan_pieces, the stepper, serves seq.  It yields one piece per chain
link, clipped to the range: (ns, m, r, signs), where ns is the link's
range of n, m and r are its ints, and signs is the int 1 on a link that
positive_link certifies and the list of y_sign(n) on the others, all
below n = 421.  seq writes the pieces past n = 546 as rows of fixed
width, in parts that may span links, from z and c at the first n of each
part and m and r at the first n of each link; any other piece goes by
its piece_rows: plain tuples in SequenceRow order, with z(n) and c(n)
computed a row at a time.  scan yields every piece's piece_rows; seq
--exact-y reads those, and row(n) is one row of scan.
"""

import math
from itertools import chain, repeat
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


def require_positive(value: int, name: str = "n") -> None:
    """The one positive-integer argument check: ValueError, naming the
    argument, unless value >= 1."""
    if value < 1:
        raise ValueError(f"{name} must be a positive integer")


def z(n: int) -> int:
    """Largest integer with 3*z < 2n."""
    require_positive(n)
    return (2 * n - 1) // 3


def m(n: int) -> int:
    """Largest integer whose square is at most 2n."""
    require_positive(n)
    return math.isqrt(2 * n)


def r(n: int) -> int:
    """Least non-negative r with n <= 2**r; 0 for n = 1."""
    require_positive(n)
    return (n - 1).bit_length()


def c(n: int) -> int:
    """2n - 2*z(n) + 2 by definition, computed in its closed form
    2*(n // 3) + 4: non-decreasing, steps by 2 at multiples of 3."""
    require_positive(n)
    return 2 * (n // 3) + 4


def z_last(v: int) -> int:
    """z does not decrease: z(n) <= v exactly for n <= z_last(v)."""
    return (3 * v + 3) // 2


def c_last(v: int) -> int:
    """c does not decrease: c(n) <= v exactly for n <= c_last(v)."""
    return 3 * ((v - 4) // 2) + 2


def m_block(mm: int) -> tuple[int, int]:
    """The first and last n with m(n) = mm, for mm >= 1."""
    return (mm * mm + 1) // 2, mm * mm // 2 + mm


def x(n: int) -> int:
    """z(n) - (r(n) + 1)*m(n)."""
    return z(n) - (r(n) + 1) * m(n)


def pow2_term(n: int) -> int:
    """2**(c(n) - m(n)), the power-of-two side of y(n)."""
    return 1 << (c(n) - m(n))


def npow_term(n: int) -> int:
    """n**(m(n) - 1), the n-power side of y(n)."""
    return n ** (m(n) - 1)


def y_sign(n: int) -> int:
    """Exact sign of y(n), computed without forming the difference: the
    one comparison of y's two terms at a single n."""
    mm = m(n)
    return cmp_pow2_vs_pow(c(n) - mm, n, mm - 1)


def y_value(n: int) -> int:
    """The exact integer y(n) = pow2_term(n) - npow_term(n).

    This builds both terms in full; for n in the thousands the result
    already has hundreds of digits.  Prefer y_sign for large scans.
    """
    return pow2_term(n) - npow_term(n)


def row(n: int) -> SequenceRow:
    """All sequence values at n bundled into one record."""
    require_positive(n)
    return SequenceRow(*next(scan(n, n)))


def chain_links(lo: int, hi: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (a, b, r, m) for each link of the interval chain that meets
    [lo, hi], clipped to [lo, hi].

    A link is a maximal run of n on which m and r are both constant: it
    ends at the end of m's block, floor(m*m/2) + m, or of r's block,
    2**r, whichever comes first.  The links are consecutive and cover
    [lo, hi]; each costs O(1) integer operations, and there are at most
    about sqrt(2 * hi) of them.  An empty range yields nothing.
    """
    require_positive(lo, "lo")
    a = lo
    while a <= hi:
        mm = math.isqrt(2 * a)
        rr = (a - 1).bit_length()
        # m_block(mm)[1], inline: a call per link makes the walk that every
        # range check takes 25-55% slower (14167 links to 10**8)
        b = min(mm * mm // 2 + mm, 1 << rr, hi)
        yield a, b, rr, mm
        a = b + 1


def link_count(hi: int) -> int:
    """The number of links chain_links(1, hi) yields, in O(log hi): one
    for each m-block that meets [1, hi], m(hi) of them, and one more for
    each power of two below hi that does not end an m-block, as each
    such 2**r splits its block in two."""
    require_positive(hi, "hi")
    powers = (1 << rr for rr in range((hi - 1).bit_length()))
    return math.isqrt(2 * hi) + sum(m_block(math.isqrt(2 * p))[1] != p for p in powers)


def positive_link(lo: int, hi: int, mm: int) -> bool:
    """True when one bit-length comparison certifies y > 0 on all of
    [lo, hi], a run of n on which m(n) = mm throughout, such as a link of
    chain_links.

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


def scan_pieces(lo: int, hi: int) -> Iterator[tuple]:
    """Yield one piece per chain link that meets [lo, hi], clipped to
    [lo, hi], in order.

    A piece is a tuple (ns, m, r, signs): ns is the link's range of n, m
    and r are its constant ints, and signs is the int 1 on a link that
    positive_link certifies and otherwise the list of y_sign(n), which
    only the links below n = 421 need, so memory stays flat on links of
    millions of n.  An empty range yields nothing.
    """
    for a, b, rr, mm in chain_links(lo, hi):
        ns = range(a, b + 1)
        yield ns, mm, rr, 1 if positive_link(a, b, mm) else list(map(y_sign, ns))


def piece_rows(piece: tuple) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
    """The rows of one piece of scan_pieces as plain tuples, in
    SequenceRow field order, lazily: z(n) and c(n) at each row, and
    x = z - (r + 1)*m and c - m from them and the link's m and r."""
    ns, mm, rr, ys = piece
    off = (rr + 1) * mm
    for n, sign in zip(ns, repeat(ys) if isinstance(ys, int) else ys):
        zz, cc = z(n), c(n)
        yield n, zz, mm, rr, cc, zz - off, cc - mm, sign


def scan(lo: int, hi: int) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
    """(n, z, m, r, c, x, c_minus_m, y_sign) for each n in [lo, hi], lazily:
    the piece_rows of each piece of scan_pieces(lo, hi).  An empty range
    yields nothing.
    """
    return chain.from_iterable(map(piece_rows, scan_pieces(lo, hi)))
