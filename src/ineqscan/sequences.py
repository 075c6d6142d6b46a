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

scan_pieces, the stepper, serves seq.  It cuts each link into pieces
of at most PIECE rows and yields one (ns, m, r, signs) per piece: ns is
a range, m and r are the link's ints, and signs is the int 1 on a link
that positive_link certifies and the list of y_sign(n) on the others.
seq writes the pieces past n = 546 as rows of fixed width, in parts
that may span pieces and links, from z and c at the first n of each
part and m and r at the first n of each link; any other piece goes by
its piece_rows: plain tuples in SequenceRow order, where z, c, x and
c - m, which each rise by 2 every 3 rows of a link, are filled out from
their first three values by a step-2 range per residue of n mod 3.
scan yields every piece's piece_rows; seq --exact-y reads those, and
row(n) is one row of scan.
"""

import math
from itertools import chain, repeat
from typing import Iterator, NamedTuple

from .exactarith import cmp_pow2_vs_pow

# The most rows in one piece of scan_pieces, and in one part of seq's
# fixed-width text, which may span pieces and links: it keeps a piece's
# lists and a part's text small on links of millions of n, while the
# fixed work of a part (a template row and a few strided slices) stays
# rare.
PIECE = 1024


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


def scan_pieces(lo: int, hi: int) -> Iterator[tuple]:
    """Yield one piece per cut of each chain link that meets [lo, hi], in
    order; a piece holds at most PIECE rows.

    A piece is a tuple (ns, m, r, signs): ns is a range, m and r are the
    link's constant ints, and signs is the int 1 on a link that
    positive_link certifies and otherwise the list of y_sign(n).  The
    cap on a piece keeps memory flat on links of millions of n.  An empty
    range yields nothing.
    """
    for a, b, rr, mm in chain_links(lo, hi):
        settled = positive_link(a, b, mm)
        for s in range(a, b + 1, PIECE):
            ns = range(s, min(s + PIECE, b + 1))
            yield ns, mm, rr, 1 if settled else list(map(y_sign, ns))


def _rising(first3, size):
    """A column of size values that rises by 2 every 3 rows, as z, c, x
    and c - m do inside a link, from its first (up to) three values: each
    third of the rows is a step-2 range, written in by slice assignment."""
    col = [0] * size
    for i, v in enumerate(first3):
        col[i::3] = range(v, v + 2 * len(range(i, size, 3)), 2)
    return col


def piece_rows(piece: tuple) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
    """The rows of one piece of scan_pieces as plain tuples, in
    SequenceRow field order: z, c, x = z - (r + 1)*m and c - m, each
    filled out by _rising from its first (up to) three values."""
    ns, mm, rr, ys = piece
    cols = ((z, 0), (c, 0), (z, (rr + 1) * mm), (c, mm))
    zs, cs, xs, gaps = (_rising([f(n) - off for n in ns[:3]], len(ns)) for f, off in cols)
    signs = repeat(ys) if isinstance(ys, int) else ys
    return zip(ns, zs, repeat(mm), repeat(rr), cs, xs, gaps, signs)


def scan(lo: int, hi: int) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
    """(n, z, m, r, c, x, c_minus_m, y_sign) for each n in [lo, hi], lazily:
    the piece_rows of each piece of scan_pieces(lo, hi).  An empty range
    yields nothing.
    """
    return chain.from_iterable(map(piece_rows, scan_pieces(lo, hi)))
