"""Tests for the constant-(r, m) interval machinery.

The chain of 41 intervals frozen below was recomputed by an independent
walk (compute the three bound pairs directly from their definitions,
follow hi + 1) and is the computed truth, including m = 33 in the last
link where a published copy shows 32.
"""

import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ineqscan import intervals, sequences

# (index, lo, hi, r, m, x_lo, x_hi)
GOLDEN_CHAIN = [
    (1, 1, 1, 0, 1, -1, -1),
    (2, 2, 2, 1, 2, -3, -3),
    (3, 3, 4, 2, 2, -5, -4),
    (4, 5, 7, 3, 3, -9, -8),
    (5, 8, 8, 3, 4, -11, -11),
    (6, 9, 12, 4, 4, -15, -13),
    (7, 13, 16, 4, 5, -17, -15),
    (8, 17, 17, 5, 5, -19, -19),
    (9, 18, 24, 5, 6, -25, -21),
    (10, 25, 31, 5, 7, -26, -22),
    (11, 32, 32, 5, 8, -27, -27),
    (12, 33, 40, 6, 8, -35, -30),
    (13, 41, 49, 6, 9, -36, -31),
    (14, 50, 60, 6, 10, -37, -31),
    (15, 61, 64, 6, 11, -37, -35),
    (16, 65, 71, 7, 11, -45, -41),
    (17, 72, 84, 7, 12, -49, -41),
    (18, 85, 97, 7, 13, -48, -40),
    (19, 98, 112, 7, 14, -47, -38),
    (20, 113, 127, 7, 15, -45, -36),
    (21, 128, 128, 7, 16, -43, -43),
    (22, 129, 144, 8, 16, -59, -49),
    (23, 145, 161, 8, 17, -57, -46),
    (24, 162, 180, 8, 18, -55, -43),
    (25, 181, 199, 8, 19, -51, -39),
    (26, 200, 220, 8, 20, -47, -34),
    (27, 221, 241, 8, 21, -42, -29),
    (28, 242, 256, 8, 22, -37, -28),
    (29, 257, 264, 9, 22, -49, -45),
    (30, 265, 287, 9, 23, -54, -39),
    (31, 288, 312, 9, 24, -49, -33),
    (32, 313, 337, 9, 25, -42, -26),
    (33, 338, 364, 9, 26, -35, -18),
    (34, 365, 391, 9, 27, -27, -10),
    (35, 392, 420, 9, 28, -19, -1),
    (36, 421, 449, 9, 29, -10, 9),
    (37, 450, 480, 9, 30, -1, 19),
    (38, 481, 511, 9, 31, 10, 30),
    (39, 512, 512, 9, 32, 21, 21),
    (40, 513, 544, 10, 32, -11, 10),
    (41, 545, 577, 10, 33, 0, 21),
]


class TestBounds:
    def test_d_bounds_examples(self):
        assert intervals.d_bounds(1) == (1, 1)
        assert intervals.d_bounds(2) == (2, 4)
        assert intervals.d_bounds(5) == (5, 7)
        assert intervals.d_bounds(8) == (8, 12)
        assert intervals.d_bounds(520) == (512, 544)
        assert intervals.d_bounds(545) == (545, 577)

    def test_d_bounds_is_constant_m_block(self):
        for n in range(1, 3000):
            lo, hi = intervals.d_bounds(n)
            assert lo <= n <= hi
            assert sequences.m(lo) == sequences.m(n) == sequences.m(hi)
            if lo > 1:
                assert sequences.m(lo - 1) == sequences.m(lo) - 1
            assert sequences.m(hi + 1) == sequences.m(hi) + 1

    def test_d_blocks_tile_the_line(self):
        n = 1
        while n < 3000:
            lo, hi = intervals.d_bounds(n)
            assert lo == n
            n = hi + 1

    def test_e_bounds_examples(self):
        assert intervals.e_bounds(1) == (1, 1)
        assert intervals.e_bounds(2) == (2, 2)
        assert intervals.e_bounds(3) == (3, 4)
        assert intervals.e_bounds(17) == (17, 32)
        assert intervals.e_bounds(100) == (65, 128)

    def test_e_bounds_is_constant_r_block(self):
        for n in range(1, 3000):
            lo, hi = intervals.e_bounds(n)
            assert lo <= n <= hi
            assert sequences.r(lo) == sequences.r(n) == sequences.r(hi)
            assert sequences.r(hi + 1) == sequences.r(hi) + 1
            assert (lo, hi) == sequences.r_block(sequences.r(n))

    def test_f_bounds_is_intersection(self):
        for n in range(1, 3000):
            dlo, dhi = intervals.d_bounds(n)
            elo, ehi = intervals.e_bounds(n)
            assert intervals.f_bounds(n) == (max(dlo, elo), min(dhi, ehi))

    def test_domain_errors(self):
        for fn in (intervals.d_bounds, intervals.e_bounds, intervals.f_bounds):
            with pytest.raises(ValueError):
                fn(0)
        with pytest.raises(ValueError, match="^n_max must be a positive integer$"):
            intervals.interval_table(0)


class TestChain:
    def test_small_prefix(self):
        recs = intervals.interval_table(8)
        assert [(t.lo, t.hi) for t in recs] == [(1, 1), (2, 2), (3, 4), (5, 7), (8, 8)]

    def test_golden_chain(self):
        recs = list(intervals.interval_table(545))
        assert len(recs) == 41
        got = [
            (t.index, t.lo, t.hi, t.r_const, t.m_const, t.x_lo, t.x_hi)
            for t in recs
        ]
        assert got == GOLDEN_CHAIN

    def test_links_are_maximal_constancy_runs(self):
        for rec in intervals.interval_table(545):
            assert sequences.r(rec.lo) == rec.r_const == sequences.r(rec.hi)
            assert sequences.m(rec.lo) == rec.m_const == sequences.m(rec.hi)
            nxt = rec.hi + 1
            assert (sequences.r(nxt), sequences.m(nxt)) != (rec.r_const, rec.m_const)

    def test_links_tile_without_gaps(self):
        recs = list(intervals.interval_table(2000))
        assert recs[0].lo == 1
        for prev, cur in zip(recs, recs[1:]):
            assert cur.lo == prev.hi + 1
        assert recs[-1].hi >= 2000
        assert recs[-1].lo <= 2000

    def test_streams_in_constant_memory(self):
        # about 44,700 links; a list of their records alone peaks near 13 MB
        links = 0
        tracemalloc.start()
        try:
            for rec in intervals.interval_table(10**9):
                links += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert links == rec.index == sum(1 for _ in sequences.chain_links(1, rec.hi))
        assert rec.lo <= 10**9 <= rec.hi

    def test_x_endpoints_and_monotonicity(self):
        for rec in intervals.interval_table(600):
            assert rec.x_lo == sequences.x(rec.lo)
            assert rec.x_hi == sequences.x(rec.hi)
            assert rec.x_lo <= rec.x_hi
            prev = None
            for n in range(rec.lo, rec.hi + 1):
                xx = sequences.x(n)
                assert rec.x_lo <= xx <= rec.x_hi
                if prev is not None:
                    assert xx >= prev
                prev = xx

    def test_x_shift_identity_inside_link(self):
        # with r and m pinned, x moves exactly with z
        for rec in intervals.interval_table(600):
            x_lo = sequences.x(rec.lo)
            for n in range(rec.lo, rec.hi + 1):
                assert sequences.x(n) == x_lo + sequences.z(n) - sequences.z(rec.lo)

    def test_every_n_lands_in_its_f_block(self):
        recs = intervals.interval_table(600)
        for rec in recs:
            for n in range(rec.lo, min(rec.hi, 600) + 1):
                assert intervals.f_bounds(n) == (rec.lo, rec.hi)


class TestChainWalker:
    def test_links_are_consecutive_and_cover_the_range(self):
        for limit in (1, 2, 8, 577, 1000, 12345, 10**5):
            links = list(sequences.chain_links(1, limit))
            assert links[0][0] == 1
            assert links[-1][1] == limit
            for (_, hi, _, _), (lo, _, _, _) in zip(links, links[1:]):
                assert lo == hi + 1
            for lo, hi, _, _ in links:
                assert lo <= hi

    def test_m_and_r_constant_on_each_link(self):
        for lo, hi, rr, mm in sequences.chain_links(1, 10**5):
            for n in {lo, (lo + hi) // 2, hi}:
                assert sequences.m(n) == mm
                assert sequences.r(n) == rr

    def test_links_are_f_blocks_clipped_at_the_limit(self):
        limit = 50000
        for lo, hi, _, _ in sequences.chain_links(1, limit):
            f1, f2 = intervals.f_bounds(lo)
            assert (f1, min(f2, limit)) == (lo, hi)

    def test_far_out_links_spot_checked(self):
        limit = 10**9
        for lo, hi, rr, mm in sequences.chain_links(1, limit):
            if lo > limit - 10**6:
                for n in (lo, hi):
                    assert (sequences.m(n), sequences.r(n)) == (mm, rr)
                if hi < limit:
                    assert intervals.f_bounds(lo) == (lo, hi)

    def test_empty_below_one(self):
        assert list(sequences.chain_links(1, 0)) == []

    @given(st.integers(1, 10**15), st.integers(0, 10**4))
    @example(lo=1, width=10**4)
    @example(lo=2**40 - 3, width=10)  # a link ends where r steps
    @example(lo=44721358**2 // 2 - 3, width=10)  # and where m steps
    def test_links_from_any_start(self, lo, width):
        hi = min(lo + width, 10**15)
        links = list(sequences.chain_links(lo, hi))
        assert links[0][0] == lo
        assert links[-1][1] == hi
        for (_, b, _, _), (a, _, _, _) in zip(links, links[1:]):
            assert a == b + 1
        for a, b, rr, mm in links:
            f1, f2 = intervals.f_bounds(a)
            assert (max(f1, lo), min(f2, hi)) == (a, b)
            for n in (a, b):
                assert (sequences.m(n), sequences.r(n)) == (mm, rr)

    def test_start_below_one_and_empty_range(self):
        for lo in (0, -7):
            with pytest.raises(ValueError, match="^lo must be a positive integer$"):
                list(sequences.chain_links(lo, 5))
        assert list(sequences.chain_links(10, 9)) == []
        assert list(sequences.chain_links(10**12, 1)) == []


class TestBlockAnchors:
    def test_d_width_follows_parity(self):
        # block width is m for even m, m - 1 for odd m
        for n in range(1, 2001):
            d1, d2 = intervals.d_bounds(n)
            t = sequences.m(n)
            assert d2 - d1 == (t if t % 2 == 0 else t - 1)

    def test_d_bounds_spot(self):
        assert intervals.d_bounds(13) == (13, 17)

    def test_degenerate_blocks_at_odd_powers_of_two(self):
        # at n = 2**k with k odd, both constraints pinch to a single point
        for k in (1, 3, 5, 7, 9, 11):
            n = 1 << k
            assert intervals.f_bounds(n) == (n, n)

    def test_three_groupings_induce_one_partition(self):
        # grouping by block start, by block end, and by the (m, r) pair
        # must slice [1, 600] into exactly the same pieces
        by_lo: dict[int, set[int]] = {}
        by_hi: dict[int, set[int]] = {}
        by_pair: dict[tuple[int, int], set[int]] = {}
        for n in range(1, 601):
            f1, f2 = intervals.f_bounds(n)
            by_lo.setdefault(f1, set()).add(n)
            by_hi.setdefault(f2, set()).add(n)
            by_pair.setdefault((sequences.m(n), sequences.r(n)), set()).add(n)
        blocks_lo = {frozenset(s) for s in by_lo.values()}
        blocks_hi = {frozenset(s) for s in by_hi.values()}
        blocks_pair = {frozenset(s) for s in by_pair.values()}
        assert blocks_lo == blocks_hi == blocks_pair
