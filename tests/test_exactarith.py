"""Tests for the exact integer kernel.

The kernel is the root of trust for everything else, so it gets the
dual-route treatment: the power comparison is checked against a plain
big-int comparison written here, which the library itself never uses.

The integer square root and the exact powers come from the standard
library (math.isqrt and the built-in **).  TestIsqrt and TestNatPow pin
them where the package uses them, in sequences.m, sequences.scan and
sequences.npow_term, against independent routes: counting, repeated
multiplication and the defining inequalities.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqscan import sequences
from ineqscan.exactarith import EQ, GT, LT, cmp_pow2_vs_pow


def scan_m(lo, hi):
    """The m column of sequences.scan over [lo, hi]."""
    return [rec[2] for rec in sequences.scan(lo, hi)]


class TestIsqrt:
    """m(n), the largest s with s*s <= 2n, both from sequences.m and as
    stepped by sequences.scan."""

    def test_small_values_brute_force(self):
        # oracle: largest s with s*s <= 2n, found by counting up
        expected = []
        for n in range(1, 2000):
            s = 0
            while (s + 1) * (s + 1) <= 2 * n:
                s += 1
            assert sequences.m(n) == s
            expected.append(s)
        assert scan_m(1, 1999) == expected

    def test_known_values(self):
        assert sequences.m(1) == 1
        assert sequences.m(2) == 2
        assert sequences.m(544) == 32  # 2*544 = 1088 < 1089 = 33*33
        assert sequences.m(545) == 33  # 33*33 = 1089 <= 1090 < 1156 = 34*34
        assert sequences.m(577) == 33
        assert sequences.m(578) == 34
        assert sequences.m(5 * 10**17) == 10**9
        assert sequences.m(5 * 10**17 - 1) == 10**9 - 1

    def test_defining_inequality_dense(self):
        for n, mm in zip(range(10**6, 10**6 + 5000), scan_m(10**6, 10**6 + 4999)):
            assert mm == sequences.m(n)
            assert mm * mm <= 2 * n < (mm + 1) * (mm + 1)

    def test_perfect_square_boundaries(self):
        # m's block for s runs from ceil(s*s/2) to floor(s*s/2) + s
        for s in (2, 3, 10, 315, 2**40 + 1, 10**30):
            lo, hi = (s * s + 1) // 2, s * s // 2 + s
            assert sequences.m(lo - 1) == s - 1
            assert sequences.m(lo) == s
            assert sequences.m(hi) == s
            assert sequences.m(hi + 1) == s + 1
            assert scan_m(lo - 1, lo) == [s - 1, s]
            assert scan_m(hi, hi + 1) == [s, s + 1]

    def test_negative_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                sequences.m(n)
            with pytest.raises(ValueError):
                scan_m(n, 5)

    @given(st.integers(min_value=1, max_value=10**30))
    def test_matches_math_isqrt(self, n):
        # scan started anywhere steps m exactly
        assert scan_m(n, n + 40) == [math.isqrt(2 * k) for k in range(n, n + 41)]

    @given(st.integers(min_value=1, max_value=10**40))
    @settings(max_examples=200)
    def test_matches_math_isqrt_huge(self, n):
        mm = sequences.m(n)
        assert mm * mm <= 2 * n < (mm + 1) * (mm + 1)


class TestNatPow:
    """npow_term(n) = n**(m(n) - 1) and the powers the comparison builds."""

    def test_known_values(self):
        assert sequences.npow_term(1) == 1  # 1**0
        assert sequences.npow_term(2) == 2  # 2**1
        assert sequences.npow_term(8) == 512  # 8**3
        assert sequences.npow_term(15) == 50625  # 15**4
        assert sequences.npow_term(16) == 65536  # 16**4

    def test_against_repeated_multiplication(self):
        for n in range(1, 300):
            acc = 1
            for _ in range(math.isqrt(2 * n) - 1):
                acc *= n
            assert sequences.npow_term(n) == acc, n

    def test_negative_rejected(self):
        for fn in (sequences.npow_term, sequences.pow2_term):
            with pytest.raises(ValueError):
                fn(0)
            with pytest.raises(ValueError):
                fn(-2)

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=5),
    )
    def test_homomorphism(self, e, n, k, j):
        # raising both sides to the j-th power keeps their order
        assert cmp_pow2_vs_pow(j * e, n, j * k) == cmp_pow2_vs_pow(e, n, k)

    @given(st.integers(min_value=1, max_value=10**5))
    def test_matches_builtin(self, n):
        assert sequences.npow_term(n) == n ** (math.isqrt(2 * n) - 1)


class TestCmp:
    def _direct(self, e, n, k):
        left = 1 << e
        right = n**k
        return (left > right) - (left < right)

    def test_known_values(self):
        assert cmp_pow2_vs_pow(3, 1, 0) == GT  # 8 vs 1
        assert cmp_pow2_vs_pow(0, 1, 5) == EQ  # 1 vs 1
        assert cmp_pow2_vs_pow(2, 2, 2) == EQ  # 4 vs 4
        assert cmp_pow2_vs_pow(9, 15, 4) == LT  # 512 vs 50625
        assert cmp_pow2_vs_pow(16, 15, 4) == GT  # 65536 vs 50625
        assert cmp_pow2_vs_pow(10, 32, 2) == EQ  # 1024 vs 1024

    def test_small_grid_against_direct(self):
        for e in range(40):
            for n in range(1, 20):
                for k in range(8):
                    assert cmp_pow2_vs_pow(e, n, k) == self._direct(e, n, k), (e, n, k)

    def test_fast_path_agrees_with_exact_path(self):
        # the exponent triples the sequences actually produce
        for n, _, mm, _, cc, _, _, _ in sequences.scan(1, 5000):
            e, k = cc - mm, mm - 1
            assert cmp_pow2_vs_pow(e, n, k) == self._direct(e, n, k), n

    @given(
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=64),
        st.sampled_from([-1, 0, 1]),
        st.integers(min_value=0, max_value=60),
    )
    def test_near_powers_of_two_against_direct(self, e, bits, offset, k):
        # n = 2**bits exactly, where the LT shortcut must not fire, and
        # its two neighbours
        n = max(1, (1 << bits) + offset)
        assert cmp_pow2_vs_pow(e, n, k) == self._direct(e, n, k)

    def test_power_of_two_base_edge(self):
        # n = 2**(bits-1) defeats the cheap LT shortcut; the slow path
        # must take over and still answer exactly
        assert cmp_pow2_vs_pow(10, 32, 2) == EQ
        assert cmp_pow2_vs_pow(9, 32, 2) == LT
        assert cmp_pow2_vs_pow(11, 32, 2) == GT
        assert cmp_pow2_vs_pow(15, 8, 5) == EQ
        assert cmp_pow2_vs_pow(14, 8, 5) == LT

    def test_zero_exponents(self):
        assert cmp_pow2_vs_pow(0, 7, 0) == EQ  # 1 vs 1
        assert cmp_pow2_vs_pow(1, 7, 0) == GT
        assert cmp_pow2_vs_pow(0, 7, 1) == LT

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cmp_pow2_vs_pow(-1, 3, 2)
        with pytest.raises(ValueError):
            cmp_pow2_vs_pow(3, 0, 2)
        with pytest.raises(ValueError):
            cmp_pow2_vs_pow(3, 3, -2)

    @given(
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=0, max_value=60),
    )
    def test_random_against_direct(self, e, n, k):
        assert cmp_pow2_vs_pow(e, n, k) == self._direct(e, n, k)

    def test_mid_size_anchor(self):
        # 2**9 = 512 against 16**4 = 65536
        assert cmp_pow2_vs_pow(9, 16, 4) == LT


def test_isqrt_invariant_full_sweep():
    # every 2n up to a million satisfies m*m <= 2n < (m+1)*(m+1)
    for n in range(1, 5 * 10**5 + 1):
        mm = sequences.m(n)
        assert mm * mm <= 2 * n < (mm + 1) * (mm + 1)
