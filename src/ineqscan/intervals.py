"""The lemma-level block functions and the printed interval table.

m(n) is constant on blocks pinned down by its defining square inequality
(d_bounds) and r(n) on blocks of consecutive powers of two (e_bounds).
Intersecting the two block structures (f_bounds) gives maximal intervals
on which x(n) is non-decreasing and moves in lockstep with z(n).
Chaining these intervals from n = 1 tiles the positive integers; the
first 41 links of the chain reach 577.  The walker over the chain is
sequences.chain_links, which the stepper and every blockwise check use;
d_bounds, e_bounds and f_bounds describe the block around one given n.
interval_table is a generator: it yields the links one at a time, each
in full, as the table is printed.
"""

from collections import namedtuple
from collections.abc import Iterator

from . import sequences


class IntervalRecord(namedtuple("IntervalRecord", "index lo hi r_const m_const x_lo x_hi")):
    """One link of the interval chain.

    Attributes:
        index: 1-based position in the chain.
        lo, hi: the interval [lo, hi], inclusive.
        r_const: the constant value of r on the interval.
        m_const: the constant value of m on the interval.
        x_lo, x_hi: x at the endpoints; x is non-decreasing inside, so
            these are also the minimum and maximum of x on the interval.
    """

    __slots__ = ()


def d_bounds(n: int) -> tuple[int, int]:
    """Smallest and largest n' with m(n') == m(n): sequences.m_block."""
    return sequences.m_block(sequences.m(n))


def e_bounds(n: int) -> tuple[int, int]:
    """Smallest and largest n' with r(n') == r(n): sequences.r_block."""
    return sequences.r_block(sequences.r(n))


def f_bounds(n: int) -> tuple[int, int]:
    """The maximal interval around n on which both m and r are constant:
    the intersection of d_bounds(n) and e_bounds(n)."""
    d1, d2 = d_bounds(n)
    e1, e2 = e_bounds(n)
    return max(d1, e1), min(d2, e2)


def interval_table(n_max: int) -> Iterator[IntervalRecord]:
    """The interval chain from 1, one record per link, while links start
    at or below n_max.

    Each emitted interval is reported in full, so the last hi may exceed
    n_max; the chain stops as soon as the next link would start beyond
    n_max.  Records are consecutive and disjoint and cover [1, n_max].
    They are yielded one at a time from sequences.chain_links run up to
    the end of n_max's own link, so memory stays flat.  n_max is checked
    on the call, before the first record is asked for.
    """
    sequences.require_positive(n_max, "n_max")
    links = sequences.chain_links(1, f_bounds(n_max)[1])
    return (
        IntervalRecord(index, lo, hi, rr, mm, sequences.x(lo), sequences.x(hi))
        for index, (lo, hi, rr, mm) in enumerate(links, start=1)
    )
