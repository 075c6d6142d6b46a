"""Tests for the integer sequence definitions.

The golden rows below were produced by an independent brute-force
implementation (bounded linear search for each quantity, big-int
subtraction for y) and frozen here; the library must reproduce them
from its closed forms.  Note the x values at n = 15 and 16 are the
correct ones, which differ from a published table; the verifier, not
this module, is where that mismatch is surfaced.
"""

import math
from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineqscan import sequences, verifier

# n: (z, m, r, c, x, c_minus_m, y)
GOLDEN_ROWS = {
    1: (0, 1, 0, 4, -1, 3, 7),
    2: (1, 2, 1, 4, -3, 2, 2),
    3: (1, 2, 2, 6, -5, 4, 13),
    4: (2, 2, 2, 6, -4, 4, 12),
    5: (3, 3, 3, 6, -9, 3, -17),
    6: (3, 3, 3, 8, -9, 5, -4),
    7: (4, 3, 3, 8, -8, 5, -17),
    8: (5, 4, 3, 8, -11, 4, -496),
    9: (5, 4, 4, 10, -15, 6, -665),
    10: (6, 4, 4, 10, -14, 6, -936),
    11: (7, 4, 4, 10, -13, 6, -1267),
    12: (7, 4, 4, 12, -13, 8, -1472),
    13: (8, 5, 4, 12, -17, 7, -28433),
    14: (9, 5, 4, 12, -16, 7, -38288),
    15: (9, 5, 4, 14, -16, 9, -50113),
    16: (10, 5, 4, 14, -15, 9, -65024),
}


class TestGoldenRows:
    def test_all_columns(self):
        for n, (zz, mm, rr, cc, xx, cm, yy) in GOLDEN_ROWS.items():
            assert sequences.z(n) == zz, n
            assert sequences.m(n) == mm, n
            assert sequences.r(n) == rr, n
            assert sequences.c(n) == cc, n
            assert sequences.x(n) == xx, n
            assert sequences.c(n) - sequences.m(n) == cm, n
            assert sequences.y_value(n) == yy, n
            assert sequences.y_sign(n) == (yy > 0) - (yy < 0), n

    def test_row_bundles_match_scalars(self):
        for n in range(1, 200):
            rw = sequences.row(n)
            assert rw.n == n
            assert rw.z == sequences.z(n)
            assert rw.m == sequences.m(n)
            assert rw.r == sequences.r(n)
            assert rw.c == sequences.c(n)
            assert rw.x == sequences.x(n)
            assert rw.c_minus_m == rw.c - rw.m
            assert rw.y_sign == sequences.y_sign(n)


class TestDefiningProperties:
    def test_z_is_largest_with_3z_less_than_2n(self):
        for n in range(1, 3000):
            zz = sequences.z(n)
            assert 3 * zz < 2 * n <= 3 * (zz + 1)

    def test_m_is_integer_square_root_of_2n(self):
        for n in range(1, 3000):
            mm = sequences.m(n)
            assert mm * mm <= 2 * n < (mm + 1) * (mm + 1)

    def test_r_is_least_power_exponent_covering_n(self):
        for n in range(1, 3000):
            rr = sequences.r(n)
            assert n <= 1 << rr
            if rr > 0:
                assert n > 1 << (rr - 1)
        assert sequences.r(1) == 0

    def test_c_recurrence_steps_by_two_every_three(self):
        for n in range(1, 3000):
            assert sequences.c(n + 3) == sequences.c(n) + 2

    def test_c_values_even_and_nondecreasing(self):
        prev = None
        for n in range(1, 3000):
            cc = sequences.c(n)
            assert cc % 2 == 0
            if prev is not None:
                assert cc >= prev
            prev = cc

    def test_c_closed_form(self):
        # the block routes of the range-bound and sign-criteria checks
        # rest on this identity
        for n in range(1, 10**5 + 1):
            assert sequences.c(n) == 2 * (n // 3) + 4, n

    def test_y_value_sign_agrees_with_y_sign(self):
        for n in range(1, 5000):
            yv = sequences.y_value(n)
            assert sequences.y_sign(n) == (yv > 0) - (yv < 0), n

    def test_y_terms(self):
        for n in range(1, 500):
            assert sequences.y_value(n) == sequences.pow2_term(n) - sequences.npow_term(n)

    def test_npow_term_strictly_increasing_within_m_block(self):
        # the n-power term strictly increases while m stays constant,
        # which is what the block-wise range bounds lean on
        prev = None
        for n in range(1, 2000):
            b = sequences.npow_term(n)
            if prev is not None and sequences.m(n) == sequences.m(n - 1):
                assert b > prev, n
            prev = b

    def test_domain_errors(self):
        for fn in (
            sequences.z,
            sequences.m,
            sequences.r,
            sequences.c,
            sequences.x,
            sequences.y_sign,
            sequences.y_value,
            sequences.row,
        ):
            with pytest.raises(ValueError):
                fn(0)
            with pytest.raises(ValueError):
                fn(-7)


class TestScan:
    def test_matches_scalar_functions_prefix(self):
        rows = list(sequences.scan(1, 2000))
        assert len(rows) == 2000
        for n, zz, mm, rr, cc, xx in rows:
            assert zz == sequences.z(n)
            assert mm == sequences.m(n)
            assert rr == sequences.r(n)
            assert cc == sequences.c(n)
            assert xx == sequences.x(n)

    def test_arbitrary_window(self):
        rows = list(sequences.scan(950, 1050))
        assert [t[0] for t in rows] == list(range(950, 1050 + 1))
        for n, zz, mm, rr, cc, xx in rows:
            assert (zz, mm, rr, cc, xx) == (
                sequences.z(n),
                sequences.m(n),
                sequences.r(n),
                sequences.c(n),
                sequences.x(n),
            )

    def test_empty_and_invalid_windows(self):
        assert list(sequences.scan(10, 9)) == []
        with pytest.raises(ValueError):
            list(sequences.scan(0, 5))

    def test_defining_inequalities_at_scale(self):
        # one pass over a million values checking the inequalities that
        # define every column; the incremental stepping must never drift
        count = 0
        for n, zz, mm, rr, cc, xx in sequences.scan(1, 10**6):
            nn = n + n
            assert 3 * zz < nn <= 3 * zz + 3
            assert mm * mm <= nn < (mm + 1) * (mm + 1)
            assert cc == nn - 2 * zz + 2
            assert xx == zz - (rr + 1) * mm
            count += 1
        assert count == 10**6

    def test_r_column_at_scale_spot(self):
        for n, _, _, rr, _, _ in sequences.scan(10**6 - 100, 10**6):
            assert n <= 1 << rr and n > 1 << (rr - 1)


class TestRows:
    """rows(lo, hi), the stepper behind seq, against the scalar functions."""

    @staticmethod
    def scalar_rows(lo, hi):
        return [
            (
                n,
                sequences.z(n),
                sequences.m(n),
                sequences.r(n),
                sequences.c(n),
                sequences.x(n),
                sequences.c(n) - sequences.m(n),
                sequences.y_sign(n),
            )
            for n in range(lo, hi + 1)
        ]

    def test_prefix(self):
        assert list(sequences.rows(1, 5000)) == self.scalar_rows(1, 5000)

    def test_windows_around_m_thresholds(self):
        # m steps where 2n reaches k*k, and a link of the chain also ends
        # where r steps, at 2**j; start the stepper on either side
        mids = [k * k // 2 for k in (99, 1000, 2**20, 2**20 + 1, 10**9 + 7, 2**64)]
        mids += [2**j for j in range(2, 65)]
        for mid in mids:
            for lo in (mid - 3, mid, mid + 1):
                assert list(sequences.rows(lo, mid + 5)) == self.scalar_rows(lo, mid + 5)

    def test_empty_and_invalid_windows(self):
        assert list(sequences.rows(10, 9)) == []
        with pytest.raises(ValueError):
            list(sequences.rows(0, 5))

    # rows settles y's sign per link with positive_link and compares per n
    # elsewhere; a window that starts or ends inside a link hands the
    # certificate a clipped link, whose c(lo) and bitlen(hi) differ from
    # the whole link's
    @pytest.mark.parametrize("width", [0, 1, 50])
    def test_every_short_window_to_600(self, width):
        for lo in range(1, 601):
            assert list(sequences.rows(lo, lo + width)) == self.scalar_rows(lo, lo + width)

    def test_windows_at_link_ends(self):
        ends = [b for _, b, _, _ in sequences.chain_links(1, 2000)][:60]
        assert len(ends) == 60
        for b in ends:
            for lo in (b - 1, b, b + 1):
                lo = max(lo, 1)
                assert list(sequences.rows(lo, lo + 80)) == self.scalar_rows(lo, lo + 80)

    def test_first_six_columns_are_scan(self):
        for j in range(1, 41):
            for lo in (2**j - 1, 2**j, 2**j + 1):
                got = [rec[:6] for rec in sequences.rows(lo, lo + 300)]
                assert got == list(sequences.scan(lo, lo + 300))

    def test_compares_only_the_uncertified_n(self, monkeypatch):
        # below n = 421 some links are left to the per-n comparison, as in
        # partition_y; from there on every link is certified as a whole
        per_n = verifier.partition_y(200000).per_n
        calls = 0
        cmp = sequences.cmp_pow2_vs_pow

        def counting_cmp(*args):
            nonlocal calls
            calls += 1
            return cmp(*args)

        monkeypatch.setattr(sequences, "cmp_pow2_vs_pow", counting_cmp)
        for _ in sequences.rows(1, 200000):
            pass
        assert calls == per_n == 417


def sign(v):
    return (v > 0) - (v < 0)


class TestBoundSigns:
    """bound_signs against the endpoint bounds of y, built in full."""

    @staticmethod
    def built_bounds(a, b, mm):
        high = (1 << (sequences.c(b) - mm)) - a ** (mm - 1)
        low = (1 << (sequences.c(a) - mm)) - b ** (mm - 1)
        return high, low

    def test_every_block_whole_and_clipped_to_3000(self):
        # the blocks come from m itself, not from chain_links; a clip keeps
        # one end of its block, as a limit or a run start inside it does
        blocks = 0
        for mm, ns in groupby(range(1, 3001), key=sequences.m):
            ns = list(ns)
            a, b = ns[0], ns[-1]
            blocks += 1
            for lo, hi in [(a, e) for e in ns] + [(s, b) for s in ns]:
                high, low = self.built_bounds(lo, hi, mm)
                assert sequences.bound_signs(lo, hi, mm) == (sign(high), sign(low))
        assert blocks == 77

    def test_one_point_block_at_n_one(self):
        # m = 1 only at n = 1, so the m = 1 block is [1, 1], where both
        # bounds are y(1) and there is no step to decrease across
        assert [n for n in range(1, 3001) if sequences.m(n) == 1] == [1]
        assert self.built_bounds(1, 1, 1) == (sequences.y_value(1),) * 2 == (7, 7)
        assert sequences.bound_signs(1, 1, 1) == (1, 1)


class TestMonotonicity:
    def test_index_columns_never_decrease(self):
        prev = None
        for n, zz, mm, rr, cc, _ in sequences.scan(1, 3000):
            if prev is not None:
                assert zz >= prev[0]
                assert mm >= prev[1]
                assert rr >= prev[2]
                assert cc >= prev[3]
            prev = (zz, mm, rr, cc)

    def test_npow_term_strictly_increasing_globally(self):
        # not just within one m block: the jumps at block boundaries
        # only ever go up
        prev = None
        for n in range(1, 3001):
            cur = sequences.npow_term(n)
            if prev is not None:
                assert cur > prev
            prev = cur

    def test_named_anchors(self):
        assert sequences.z(451) == 300
        assert sequences.m(545) == 33
        assert sequences.c(9) == 10
        assert sequences.x(436) == 0
        assert sequences.y_sign(337) == 1
        assert sequences.row(404).y_sign == 1


@given(st.integers(min_value=1, max_value=10**12))
def test_m_matches_isqrt_everywhere(n):
    assert sequences.m(n) == math.isqrt(2 * n)


@given(st.integers(min_value=1, max_value=10**9))
def test_x_closed_form(n):
    assert sequences.x(n) == sequences.z(n) - (sequences.r(n) + 1) * sequences.m(n)


@given(st.integers(min_value=1, max_value=10**40))
def test_c_closed_form_everywhere(n):
    assert sequences.c(n) == 2 * (n // 3) + 4
