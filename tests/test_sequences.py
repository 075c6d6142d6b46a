"""Tests for the integer sequence definitions.

The golden rows below were produced by an independent brute-force
implementation (bounded linear search for each quantity, big-int
subtraction for y) and frozen here; the library must reproduce them
from its closed forms.  Note the x values at n = 15 and 16 are the
correct ones, which differ from a published table; the verifier, not
this module, is where that mismatch is surfaced.
"""

import ast
import math
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ineqscan import sequences, verifier
from reference import rows

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
        # c is computed in closed form, and the block routes of the
        # range-bound and sign-criteria checks rest on it: compare it
        # with the definition
        for n in range(1, 10**5 + 1):
            assert sequences.c(n) == 2 * n - 2 * sequences.z(n) + 2, n

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
            sequences.pow2_term,
            sequences.npow_term,
            sequences.y_sign,
            sequences.y_value,
            sequences.row,
        ):
            for n in (0, -7):
                with pytest.raises(ValueError, match="^n must be a positive integer$"):
                    fn(n)


class TestCuts:
    """z_last, c_last and m_block against the per-n rows of the reference:
    each names where a non-decreasing column of the rows crosses a value."""

    TOP = 600

    @pytest.mark.parametrize("column, last", [(1, sequences.z_last), (4, sequences.c_last)])
    def test_last_n_at_or_below_each_value(self, column, last):
        table = list(rows(self.TOP))
        # from values no n reaches (z(1) = 0, c(1) = 4) to the last one
        # whose every qualifying n lies in the table
        for v in range(table[0][column] - 5, table[-1][column]):
            qualifying = [row[0] for row in table if row[column] <= v]
            assert qualifying == list(range(1, last(v) + 1)), v
        assert sequences.z_last(-1) < 1 and sequences.c_last(3) < 1

    def test_m_block_is_the_run_of_each_m(self):
        table = list(rows(self.TOP))
        for mm in range(1, table[-1][2]):
            a, b = sequences.m_block(mm)
            assert [row[0] for row in table if row[2] == mm] == list(range(a, b + 1)), mm


@given(st.integers(min_value=-5, max_value=10**15))
def test_last_n_at_scale(v):
    for column, last in ((sequences.z, sequences.z_last), (sequences.c, sequences.c_last)):
        n = last(v)
        # n qualifies or is below 1, and the next n (at least 1) does not
        assert n < 1 or column(n) <= v
        assert column(max(n + 1, 1)) > v


@given(st.integers(min_value=1, max_value=10**8))
def test_m_block_at_scale(mm):
    a, b = sequences.m_block(mm)
    assert sequences.m(a) == sequences.m(b) == mm
    assert a == 1 or sequences.m(a - 1) == mm - 1
    assert sequences.m(b + 1) == mm + 1


class TestScan:
    """scan(lo, hi), the one stepper, behind seq, row and partition_y's
    fallback: each column against its scalar function and the
    inequalities that define it."""

    def test_matches_scalar_functions_prefix(self):
        rows = list(sequences.scan(1, 2000))
        assert len(rows) == 2000
        for n, zz, mm, rr, cc, xx, _, _ in rows:
            assert zz == sequences.z(n)
            assert mm == sequences.m(n)
            assert rr == sequences.r(n)
            assert cc == sequences.c(n)
            assert xx == sequences.x(n)

    def test_arbitrary_window(self):
        rows = list(sequences.scan(950, 1050))
        assert [t[0] for t in rows] == list(range(950, 1050 + 1))
        for n, zz, mm, rr, cc, xx, _, _ in rows:
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
        for n, zz, mm, rr, cc, xx, cm, ys in sequences.scan(1, 10**6):
            nn = n + n
            assert 3 * zz < nn <= 3 * zz + 3
            assert mm * mm <= nn < (mm + 1) * (mm + 1)
            assert cc == nn - 2 * zz + 2
            assert xx == zz - (rr + 1) * mm
            assert cm == cc - mm
            assert ys in (-1, 1)
            count += 1
        assert count == 10**6

    def test_r_column_at_scale_spot(self):
        for n, _, _, rr, _, _, _, _ in sequences.scan(10**6 - 100, 10**6):
            assert n <= 1 << rr and n > 1 << (rr - 1)


class TestRows:
    """scan's whole rows, y's sign included, against the scalar
    functions."""

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
        assert list(sequences.scan(1, 5000)) == self.scalar_rows(1, 5000)

    def test_windows_around_m_thresholds(self):
        # m steps where 2n reaches k*k, and a link of the chain also ends
        # where r steps, at 2**j; start the stepper on either side
        mids = [k * k // 2 for k in (99, 1000, 2**20, 2**20 + 1, 10**9 + 7, 2**64)]
        mids += [2**j for j in range(2, 65)]
        for mid in mids:
            for lo in (mid - 3, mid, mid + 1):
                assert list(sequences.scan(lo, mid + 5)) == self.scalar_rows(lo, mid + 5)

    def test_empty_and_invalid_windows(self):
        # a window that ends before it starts is empty wherever it lies,
        # at a link end too; a start below 1 is refused even then
        ends = [b for _, b, _, _ in sequences.chain_links(1, 2000)][:20]
        for lo in [2**40, 10**12 + 1] + [b + 1 for b in ends]:
            assert list(sequences.scan(lo, lo - 1)) == []
        for lo, hi in ((0, -1), (0, 0), (-3, 5)):
            with pytest.raises(ValueError):
                list(sequences.scan(lo, hi))

    # scan settles y's sign per link with positive_link and compares per n
    # elsewhere; a window that starts or ends inside a link hands the
    # certificate a clipped link, whose c(lo) and bitlen(hi) differ from
    # the whole link's
    @pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 5, 50])
    def test_every_short_window_to_600(self, width):
        for lo in range(1, 601):
            assert list(sequences.scan(lo, lo + width)) == self.scalar_rows(lo, lo + width)

    # windows of 1023 to 1025 rows, about seq's part size, inside one link
    # of 44721 n around 10**9: a piece clipped at both ends, from each
    # residue of n mod 3
    @pytest.mark.parametrize("rows", [1023, 1024, 1025])
    def test_piece_sized_windows_in_one_long_link(self, rows):
        for lo in (10**9, 10**9 + 1, 10**9 + 2):
            hi = lo + rows - 1
            assert len(list(sequences.chain_links(lo, hi))) == 1
            assert list(sequences.scan(lo, hi)) == self.scalar_rows(lo, hi)

    def test_windows_at_link_ends(self):
        ends = [b for _, b, _, _ in sequences.chain_links(1, 2000)][:60]
        assert len(ends) == 60
        for b in ends:
            for lo in (b - 1, b, b + 1):
                lo = max(lo, 1)
                assert list(sequences.scan(lo, lo + 80)) == self.scalar_rows(lo, lo + 80)

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
        for _ in sequences.scan(1, 200000):
            pass
        assert calls == per_n == 417


class TestScanPieces:
    """scan_pieces: its pieces are the chain links, clipped to the range,
    with their types and constants, and the rows piece_rows, and so scan,
    expands them to."""

    # [392, 421] holds the last links left to the per-n comparison and
    # the first certified one; around 10**12 one link of more than a
    # million n is clipped at both ends into a single piece
    @pytest.mark.parametrize(
        "lo, hi", [(1, 3000), (392, 421), (10**12 - 5000, 10**12 + 5000)]
    )
    def test_pieces_tile_the_range_in_link_pieces(self, lo, hi):
        pieces = list(sequences.scan_pieces(lo, hi))
        links = list(sequences.chain_links(lo, hi))
        assert [(ns.start, ns[-1], rr, mm) for ns, mm, rr, _ in pieces] == links
        flat = []
        for ns, mm, rr, ys in pieces:
            assert type(ns) is range and ns.step == 1
            assert type(mm) is int and type(rr) is int
            if sequences.positive_link(ns.start, ns[-1], mm):
                assert type(ys) is int and ys == 1
            else:
                assert type(ys) is list and len(ys) == len(ns)
            signs = [ys] * len(ns) if type(ys) is int else ys
            z, c, x = sequences.z, sequences.c, sequences.x
            rows = [(n, z(n), mm, rr, c(n), x(n), c(n) - mm, y) for n, y in zip(ns, signs)]
            assert list(sequences.piece_rows((ns, mm, rr, ys))) == rows
            flat.extend(rows)
        assert list(sequences.scan(lo, hi)) == flat


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
        for n, zz, mm, rr, cc, _, _, _ in sequences.scan(1, 3000):
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
    assert sequences.c(n) == 2 * n - 2 * sequences.z(n) + 2


# seq's digit patterns rest on these: digit place d of z and c has period
# 15 * 10**d in n, and x and c - m read z's and c's at n - 3q
@given(st.integers(1, 10**30), st.integers(0, 25), st.integers(0, 10**30))
def test_z_and_c_period_and_shift(n, d, q):
    for f in (sequences.z, sequences.c):
        assert f(n + 15 * 10**d) == f(n) + 10 ** (d + 1)
        assert f(n + 3 * q) - 2 * q == f(n)


def owners(predicate, sources):
    """(module, enclosing function) of every node of sources, a dict of
    module name to source text, that predicate holds for; the function is
    None at module level."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                found.append((module, owner))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if inner else owner)

    for module, text in sources.items():
        visit(ast.parse(text), module, None)
    return found


PACKAGE = {
    path.stem: path.read_text()
    for path in sorted(Path(sequences.__file__).parent.glob("*.py"))
}


def is_floor_div_by_3(node):
    if isinstance(node, ast.BinOp):
        op, right = node.op, node.right
    elif isinstance(node, ast.AugAssign):
        op, right = node.op, node.value
    else:
        return False
    return isinstance(op, ast.FloorDiv) and isinstance(right, ast.Constant) and right.value == 3


def states_positive_integer(node):
    return isinstance(node, ast.Constant) and "must be a positive integer" in str(node.value)


class TestEachFactStatedOnce:
    """z and c are each written once, in their own functions, and so is
    the positive-integer argument check; exactarith's base check, with its
    own contract, is the one other."""

    def test_floor_division_by_3_only_in_z_and_c(self):
        assert owners(is_floor_div_by_3, PACKAGE) == [("sequences", "z"), ("sequences", "c")]

    def test_positive_integer_message_only_in_require_positive(self):
        assert owners(states_positive_integer, PACKAGE) == [
            ("exactarith", "cmp_pow2_vs_pow"),
            ("sequences", "require_positive"),
        ]

    def test_each_form_is_found(self):
        source = (
            "def f(n):\n"
            "    n //= 3\n"
            "    if n < 1:\n"
            "        raise ValueError(f'{n} must be a positive integer')\n"
            "    return [(2 * k - 1) // 3 for k in (n // 2, n / 3, n % 3)]\n"
            "c3 = [2 * (n // 3) + 4 for n in ns]\n"
        )
        assert owners(is_floor_div_by_3, {"m": source}) == [("m", "f"), ("m", "f"), ("m", None)]
        assert owners(states_positive_integer, {"m": source}) == [("m", "f")]
