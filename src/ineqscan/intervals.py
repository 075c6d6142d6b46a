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

from collections.abc import Iterator

from . import sequences


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


def interval_table(n_max: int) -> Iterator[tuple]:
    """The interval chain from 1, one row per link, while links start at
    or below n_max.

    A row is the plain tuple (index, lo, hi, r, m, x_lo, x_hi), in the
    order of the csv columns: index the 1-based position in the chain,
    [lo, hi] the interval, inclusive, r and m their constant values on it,
    and x_lo, x_hi the value of x at its ends, also its least and greatest
    there as x is non-decreasing inside.  Each emitted interval is
    reported in full, so the last hi may exceed n_max; the chain stops as
    soon as the next link would start beyond n_max.  Rows are consecutive
    and disjoint and cover [1, n_max].  They are yielded one at a time
    from sequences.chain_links run up to the end of n_max's own link, so
    memory stays flat.  n_max is checked on the call, before the first row
    is asked for.
    """
    sequences.require_positive(n_max, "n_max")
    links = sequences.chain_links(1, f_bounds(n_max)[1])
    return (
        (index, lo, hi, rr, mm, sequences.x(lo), sequences.x(hi))
        for index, (lo, hi, rr, mm) in enumerate(links, start=1)
    )
