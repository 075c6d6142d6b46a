"""Tests for the claim verifier.

The sign partitions here were independently recomputed by big-integer
subtraction over the full ranges; the runs below are frozen from that
run.  The report-shape tests pin the contract the CLI and the
acceptance gate rely on: status is derived from the evidence lists and
never set freely.
"""

import ast
import functools
import inspect
import json
import random
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqscan import analytic, cli, exactarith, sequences, verifier
from ineqscan.exactarith import cmp_pow2_vs_pow
from reference import (
    per_n_runs,
    per_n_x_counterexamples,
    per_n_y_counterexamples,
    reference_gap,
    reference_links,
    reference_negative_x_bound,
    reference_partition_x,
    reference_partition_y,
    reference_range_bounds,
    reference_sign_criteria,
    row,
)

REFERENCE_TOP = 10**5


def on_y_runs(check):
    """check, which reads y's sign runs, as a function of the limit: it
    gets y's partition of [1, limit]."""
    return functools.wraps(check)(lambda limit: check(verifier.partition_y(limit)))


# Every public check or partition of verifier and analytic that takes a
# limit, and every check that reads y's sign runs, through partition_y.
PUBLIC = [
    getattr(module, name)
    for module in (verifier, analytic)
    for name in dir(module)
    if name.startswith(("check_", "partition_"))
]
LIMIT_TAKERS = [f for f in PUBLIC if "limit" in inspect.signature(f).parameters] + [
    on_y_runs(f) for f in PUBLIC if "part" in inspect.signature(f).parameters
]

# The seq piece stepper and its rows, which the claim checks never read.
STEPPER_NAMES = {"row", "SequenceRow", "scan", "scan_pieces", "piece_rows"}


def names_read(module):
    """Every name the module's source imports, or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found += [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            found += [*(node.module or "").split("."), *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
    return found

X_RUNS_600 = (
    (1, 435, -1),
    (436, 436, 0),
    (437, 449, 1),
    (450, 450, -1),
    (451, 451, 0),
    (452, 512, 1),
    (513, 528, -1),
    (529, 529, 0),
    (530, 544, 1),
    (545, 546, 0),
    (547, 600, 1),
)

Y_RUNS_5000 = (
    (1, 4, 1),
    (5, 335, -1),
    (336, 337, 1),
    (338, 350, -1),
    (351, 364, 1),
    (365, 368, -1),
    (369, 5000, 1),
)


class TestPartitions:
    def test_x_partition_matches_golden(self):
        assert verifier.partition_x(600).runs == X_RUNS_600

    def test_y_partition_matches_golden(self):
        assert verifier.partition_y(5000).runs == Y_RUNS_5000

    def test_x_partition_beyond_stays_positive(self):
        part = verifier.partition_x(5000)
        assert part.runs[-1] == (547, 5000, 1)

    def test_partition_invariants(self):
        for part in (verifier.partition_x(700), verifier.partition_y(700)):
            assert part.runs[0][0] == 1
            assert part.runs[-1][1] == part.limit
            for (a1, b1, s1), (a2, b2, s2) in zip(part.runs, part.runs[1:]):
                assert a2 == b1 + 1
                assert s1 != s2
            for a, b, s in part.runs:
                assert a <= b

    def test_partition_agrees_with_pointwise_signs(self):
        part = verifier.partition_x(300)
        for a, b, s in part.runs:
            for n in range(a, b + 1):
                xx = sequences.x(n)
                assert (xx > 0) - (xx < 0) == s
        part = verifier.partition_y(300)
        for a, b, s in part.runs:
            for n in range(a, b + 1):
                assert sequences.y_sign(n) == s

    def test_runs_of_and_support(self):
        part = verifier.partition_x(600)
        assert part.runs_of(0) == [(436, 436), (451, 451), (529, 529), (545, 546)]
        assert part.support_of(0) == [436, 451, 529, 545, 546]
        assert part.runs_of(-1) == [(1, 435), (450, 450), (513, 528)]

    @pytest.mark.parametrize("limit", [0, -5])
    @pytest.mark.parametrize("check", LIMIT_TAKERS, ids=lambda f: f.__name__)
    def test_nonpositive_limit_is_refused(self, check, limit):
        # every public check that takes a limit, and both partitions
        with pytest.raises(ValueError, match="^limit must be a positive integer$"):
            check(limit)


class TestReportShape:
    def test_status_follows_evidence(self):
        rep = verifier.make_report("demo", 1, 10, "clean")
        assert rep.status == verifier.CONFIRMED
        rep = verifier.make_report(
            "demo", 1, 10, "typo",
            errata=[verifier.Erratum("it", 1, 2, "why")],
        )
        assert rep.status == verifier.KNOWN_ERRATUM
        rep = verifier.make_report(
            "demo", 1, 10, "broken",
            counterexamples=[7],
            errata=[verifier.Erratum("it", 1, 2, "why")],
        )
        assert rep.status == verifier.DISCREPANCY

    def test_reports_are_immutable(self):
        rep = verifier.make_report("demo", 1, 10, "broken", counterexamples=[7])
        assert rep.status == verifier.DISCREPANCY
        with pytest.raises(AttributeError):
            rep.status = verifier.CONFIRMED
        assert rep.status == verifier.DISCREPANCY

    def test_to_dict_round_trips_through_json(self):
        rep = verifier.check_reference_table()
        blob = json.dumps(rep.to_dict())
        back = json.loads(blob)
        assert back["claim_id"] == "reference-table"
        assert back["status"] == "KNOWN_ERRATUM"
        assert [e["item"] for e in back["errata"]] == ["x(15)", "x(16)"]
        assert back["range"] == [1, 16]
        assert back["counterexamples"] == []

    def test_serializers_cover_all_reports(self):
        reports = [
            verifier.check_reference_table(),
            verifier.check_theorem1(600),
        ]
        text = verifier.reports_to_text(reports)
        assert "[KNOWN_ERRATUM] reference-table" in text
        assert "[CONFIRMED] theorem1" in text
        assert "summary: 2 claims" in text
        text = verifier.reports_to_text(reports[:1])
        assert text.splitlines()[-1].startswith("summary: 1 claim; ")
        parsed = json.loads(verifier.reports_to_json(reports))
        assert len(parsed) == 2
        csv_text = verifier.reports_to_csv(reports)
        lines = csv_text.split("\n")
        assert lines[0] == "claim_id,lo,hi,status,details,counterexamples,errata"
        assert len(lines) == 3


class TestGoldenTableChecks:
    def test_reference_table_exact_errata(self):
        rep = verifier.check_reference_table()
        assert rep.status == verifier.KNOWN_ERRATUM
        assert rep.counterexamples == []
        assert [(e.item, e.printed, e.computed) for e in rep.errata] == [
            ("x(15)", -21, -16),
            ("x(16)", -20, -15),
        ]
        assert rep.data["cells_confirmed"] == 46

    def test_interval_table_exact_errata(self):
        rep = verifier.check_interval_table()
        assert rep.status == verifier.KNOWN_ERRATUM
        assert rep.counterexamples == []
        assert [(e.item, e.printed, e.computed) for e in rep.errata] == [
            ("interval 41 m", 32, 33),
        ]
        assert rep.data["links"] == 41
        assert rep.data["fields_confirmed"] == 245

    def test_wrong_reference_cell_is_a_counterexample(self, monkeypatch):
        table = dict(verifier.REFERENCE_TABLE)
        table[3] = (-5, 4, 14)
        monkeypatch.setattr(verifier, "REFERENCE_TABLE", table)
        rep = verifier.check_reference_table()
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == [3]
        assert [e.item for e in rep.errata] == ["x(15)", "x(16)"]
        assert rep.data["cells_confirmed"] == 45

    def test_erratum_with_another_correction_is_a_counterexample(
        self, monkeypatch
    ):
        # the registry explains x(15) only if the recomputed value is the
        # documented correction; a different correction leaves it bare
        key = ("reference-table", "x", 15)
        registry = dict(verifier.KNOWN_ERRATA)
        registry[key] = registry[key]._replace(computed=-17)
        monkeypatch.setattr(verifier, "KNOWN_ERRATA", registry)
        rep = verifier.check_reference_table()
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == [15]
        assert [e.item for e in rep.errata] == ["x(16)"]
        assert rep.data["cells_confirmed"] == 46

    def test_extra_printed_link_lists_each_bad_field(self, monkeypatch):
        # the recomputed link 42 is (578, 612, 10, 34, 11, 33): the two
        # x fields disagree, so the link is listed once for each
        monkeypatch.setattr(
            verifier,
            "INTERVAL_TABLE",
            verifier.INTERVAL_TABLE + ((578, 612, 10, 34, 0, 0),),
        )
        rep = verifier.check_interval_table()
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == [42, 42]
        assert [e.item for e in rep.errata] == ["interval 41 m"]
        assert rep.data == {"fields_confirmed": 249, "links": 42}

    def test_link_count_mismatch_comes_first(self, monkeypatch):
        # without printed link 40 the chain up to 545 still has 41 links;
        # printed row 40 is then link 41, so four of its fields disagree
        table = verifier.INTERVAL_TABLE
        monkeypatch.setattr(verifier, "INTERVAL_TABLE", table[:39] + table[40:])
        rep = verifier.check_interval_table()
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == [41, 40, 40, 40, 40]
        assert rep.errata == []
        assert rep.data == {"fields_confirmed": 236, "links": 41}

    def test_printed_tables_stay_printed(self):
        # the embedded data must keep the misprints; correcting them in
        # place would defeat the whole point of the erratum reports
        assert verifier.REFERENCE_TABLE[15][0] == -21
        assert verifier.REFERENCE_TABLE[16][0] == -20
        assert verifier.INTERVAL_TABLE[40][3] == 32


class TestTheoremChecks:
    def test_theorem1_confirmed(self):
        rep = verifier.check_theorem1(5000)
        assert rep.status == verifier.CONFIRMED
        assert rep.counterexamples == []
        assert "436, 451, 529, 545, 546" in rep.details

    def test_theorem2_confirmed_and_notes_narrative(self):
        rep = verifier.check_theorem2(verifier.partition_y(5000))
        assert rep.status == verifier.CONFIRMED
        assert rep.counterexamples == []
        assert "[338, 350]" in rep.details
        assert "narrative" in rep.details

    def test_printed_runs_are_the_frozen_partitions(self):
        x_runs = verifier.printed_runs(
            600, verifier.X_ZERO_SET, verifier.X_NEGATIVE_RUNS
        )
        y_runs = verifier.printed_runs(5000, (), verifier.Y_NEGATIVE_RUNS)
        assert tuple(map(tuple, x_runs)) == X_RUNS_600
        assert tuple(map(tuple, y_runs)) == Y_RUNS_5000


class TestLemmaChecks:
    def test_gap_at_hundred_thousand(self):
        rep = verifier.check_gap(10**5)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["min_gap"] == 2
        assert rep.data["min_gap_at"] == [2]
        assert rep.data["min_gap_from_10"] == 6

    @pytest.mark.parametrize("limit", range(1, 11))
    def test_gap_text_below_ten(self, limit):
        # below 10 no n >= 10 is in range: the text says so, not "is None"
        rep = verifier.check_gap(limit)
        assert rep.status == verifier.CONFIRMED
        if limit < 10:
            assert rep.details.endswith("; no n >= 10 is in range")
            assert rep.data["min_gap_from_10"] is None
        else:
            assert rep.details.endswith("; min gap over n >= 10 is 6")
            assert rep.data["min_gap_from_10"] == 6

    def test_range_bounds(self):
        rep = verifier.check_range_bounds(5000)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["blocks"] == 100
        assert rep.data["decided_negative"] == 20
        assert rep.data["decided_positive"] == 74

    def test_zero_bound_decides_no_block(self, monkeypatch):
        # a bound equal to 0 leaves room for y = 0, so it fixes no sign;
        # low is 0 on the block [2, 4], no high up to 10**9 is.  Only the
        # blocks m = 1 to 64, to BAND_BASE, read their bounds: the band
        # decides the 36 blocks past it positive
        assert sequences.bound_signs(2, 4, 2) == (1, 0)
        monkeypatch.setattr(sequences, "bound_signs", lambda a, b, mm: (0, 0))
        rep = verifier.check_range_bounds(verifier.BAND_BASE)
        assert rep.data == {"blocks": 64, "decided_negative": 0, "decided_positive": 0}
        rep = verifier.check_range_bounds(5000)
        assert rep.data == {"blocks": 100, "decided_negative": 0, "decided_positive": 36}

    def test_sign_criteria(self):
        rep = verifier.check_sign_criteria(verifier.partition_y(5000))
        assert rep.status == verifier.CONFIRMED
        assert rep.data["applies_negative"] == 297
        assert rep.data["applies_positive"] == 4608

    def test_negative_x_bound(self):
        rep = verifier.check_negative_x_bound(verifier.partition_y(5000))
        assert rep.status == verifier.CONFIRMED
        assert rep.data["applicable"] == 348

    def test_positive_tail(self):
        rep = verifier.check_positive_tail(verifier.partition_y(5000))
        assert rep.status == verifier.CONFIRMED
        assert rep.lo == 404
        rep = verifier.check_positive_tail(verifier.partition_y(100))
        assert rep.status == verifier.CONFIRMED
        assert (rep.lo, rep.hi) == (1, 100)
        assert rep.details == "no n >= 404 is in range"


class TestLemmaAnchors:
    """Hand-checked rows where each criterion visibly fires."""

    def test_negative_criterion_fires_at_320(self):
        row = sequences.row(320)
        assert row.c == 216
        assert row.c <= row.r * (row.m - 1) + 1  # 216 <= 217
        assert row.y_sign == -1

    def test_positive_criterion_fires_at_387(self):
        row = sequences.row(387)
        assert row.c == 262
        assert row.c > row.r * (row.m - 1) + row.m  # 262 > 261
        assert row.y_sign == 1

    def test_x_bound_at_368(self):
        row = sequences.row(368)
        assert row.y_sign == -1
        assert row.x == -25
        assert row.x <= -row.r - 3 <= -6  # -25 <= -12 <= -6


# ---------------------------------------------------------------------------
# Blockwise partitions against the plain per-n route
# ---------------------------------------------------------------------------


def truncated(runs, limit):
    return tuple((a, min(b, limit), s) for a, b, s in runs if a <= limit)


def assert_blockwise_matches_reference(limit):
    ref_x, ref_y = per_n_runs(REFERENCE_TOP)
    assert verifier.partition_x(limit).runs == truncated(ref_x, limit)
    assert verifier.partition_y(limit).runs == truncated(ref_y, limit)


class TestBlockwiseAgainstPerN:
    def test_at_every_link_end_and_past_it(self):
        for _, hi, _, _ in sequences.chain_links(1, REFERENCE_TOP - 1):
            assert_blockwise_matches_reference(hi)
            assert_blockwise_matches_reference(hi + 1)

    @given(st.integers(min_value=1, max_value=REFERENCE_TOP))
    def test_any_limit(self, limit):
        assert_blockwise_matches_reference(limit)

    def test_at_one_million(self):
        ref_x, ref_y = per_n_runs(10**6)
        assert verifier.partition_x(10**6).runs == ref_x
        assert verifier.partition_y(10**6).runs == ref_y

    def test_blocks_and_per_n_cover_the_range(self):
        for limit in (1, 420, 5000, REFERENCE_TOP):
            part = verifier.partition_x(limit)
            assert part.per_n == 0
            assert part.blocks == sum(1 for _ in sequences.chain_links(1, limit))
            part = verifier.partition_y(limit)
            settled = [
                hi - lo + 1
                for lo, hi, _, mm in sequences.chain_links(1, limit)
                if mm >= 2
                and sequences.c(lo) - mm >= hi.bit_length() * (mm - 1)
            ]
            assert part.blocks == len(settled)
            assert part.per_n + sum(settled) == limit


# ---------------------------------------------------------------------------
# The band past BAND_BASE against the walk over every link
# ---------------------------------------------------------------------------

BASE = verifier.BAND_BASE
LINK_TOP = 2**30 + 1  # the reference walk the sweeps below are cut from


def cut_reference(part, limit, starts):
    """part, a reference partition of [1, top], cut to [1, limit] for
    420 < limit <= top, where starts are the first n of the links to top:
    every link that starts past n = 420 is certified whole, clipped or
    not, so the cut drops one block for each link that starts past
    limit, and per_n stays."""
    assert 420 < limit <= part.limit
    dropped = len(starts) - bisect_right(starts, limit)
    return part._replace(
        limit=limit, runs=truncated(part.runs, limit), blocks=part.blocks - dropped
    )


def m_block_ends(top):
    """The last n of each m-block up to top, one below it and one past it."""
    ends = (sequences.m_block(mm)[1] for mm in range(1, sequences.m(top) + 1))
    return [n for end in ends for n in (end - 1, end, end + 1) if 1 <= n <= top]


class TestBand:
    """Past BAND_BASE = m_block(64)[1] every m-block satisfies the block
    predicate, so both partitions stop walking links there."""

    EXPECTED = {
        "x": {
            "base": [1, 2112],
            "k0": 7,
            "band": "every m-block [a, b] with m >= 2**(k0 - 1) = 64 has "
            "m >= 6k + 4 for k = bitlen(m), so z(a) > (2k + 1)m >= (r(b) + 1)m "
            "and x > 0 on it",
        },
        "y": {
            "base": [1, 2112],
            "k0": 7,
            "band": "every m-block [a, b] with m >= 2**(k0 - 1) = 64 has "
            "m >= 6k + 3 for k = bitlen(m), so c(a) - m >= 2k(m - 1) >= "
            "bitlen(b)(m - 1) and y > 0 on it",
        },
    }

    def test_certificate(self):
        assert BASE == sequences.m_block(64)[1] == 2112
        for seq, expected in self.EXPECTED.items():
            assert verifier.band_certificate(seq, BASE - 1) is None
            assert verifier.band_top(seq, BASE - 1) == BASE - 1
            for limit in (BASE, BASE + 1, 10**100):
                assert verifier.band_certificate(seq, limit) == expected
                assert verifier.band_top(seq, limit) == BASE
        assert verifier.check_theorem1(BASE - 1).data["certificate"] is None
        rep = verifier.check_theorem1(BASE)
        assert rep.data["certificate"] == self.EXPECTED["x"]
        rep = verifier.check_theorem2(verifier.partition_y(10**6))
        assert rep.data["certificate"] == self.EXPECTED["y"]

    def test_base_case_is_checked_at_run_time(self, monkeypatch):
        # 2**5 = 32 < 6*6 + 3: the induction has no base at k0 = 6
        part = verifier.partition_y(BASE)
        monkeypatch.setattr(verifier, "BAND_K0", 6)
        for seq in ("x", "y"):
            with pytest.raises(ArithmeticError, match="base case"):
                verifier.band_certificate(seq, BASE)
        assert verifier.band_certificate("x", BASE - 1) is None
        # each walk that reads the band asks band_top for it, and so checks
        # the base
        for check, arg in [
            (verifier.partition_x, BASE),
            (verifier.partition_y, BASE),
            (verifier.check_gap, BASE),
            (verifier.check_range_bounds, BASE),
            (verifier.check_sign_criteria, part),
            (analytic.check_sign_consistency, part),
        ]:
            with pytest.raises(ArithmeticError, match="base case"):
                check(arg)

    def test_whole_blocks_below_and_in_the_band(self):
        # the whole-block tests fail last at m = 28 for y ([392, 420]) and
        # at m = 33 for x ([545, 577]); from m = 64 on the block predicate
        # holds and gives both
        y_fails, x_fails = [], []
        for mm in range(2, 20000):
            a, b = sequences.m_block(mm)
            k = mm.bit_length()
            y_whole = sequences.c(a) - mm >= b.bit_length() * (mm - 1)
            x_whole = sequences.z(a) > (sequences.r(b) + 1) * mm
            if not y_whole:
                y_fails.append(mm)
            if not x_whole:
                x_fails.append(mm)
            if mm >= 64:
                assert mm >= 6 * k + 4 and sequences.c(a) - mm >= 2 * k * (mm - 1), mm
                assert sequences.z(a) > (2 * k + 1) * mm, mm
                # the strict form the lemma checks read, and what it gives:
                # the positive sign criterion on the whole block
                assert 3 * (sequences.c(a) - mm - 2 * k * (mm - 1)) >= mm + 5, mm
                assert sequences.c(a) > sequences.r(b) * (mm - 1) + mm, mm
        assert y_fails[-1] == 28 and x_fails[-1] == 33

    def test_no_link_is_walked_past_the_base(self, monkeypatch):
        walks = []
        chain_links = sequences.chain_links

        def recording_links(lo, hi):
            walks.append((lo, hi))
            return chain_links(lo, hi)

        monkeypatch.setattr(sequences, "chain_links", recording_links)
        tails = {verifier.partition_x: 547, verifier.partition_y: 369}
        for partition, tail_start in tails.items():
            assert partition(10**100).runs[-1] == (tail_start, 10**100, 1)
        assert walks == [(1, BASE), (1, BASE)]

    def test_no_lemma_check_walks_past_the_base(self, monkeypatch):
        # the three lemma checks read y's band past BAND_BASE: their
        # reports at 10**100 are those at BAND_BASE but for the range and
        # the band's counts, and they read no link or block past it but the
        # one link at BASE + 1 that ends the sign-criteria walk
        top = 10**100
        part, base_part = verifier.partition_y(top), verifier.partition_y(BASE)
        base = [
            verifier.check_gap(BASE),
            verifier.check_range_bounds(BASE),
            verifier.check_sign_criteria(base_part),
        ]
        links, blocks = [], []
        chain_links, m_block = sequences.chain_links, sequences.m_block

        def recording_links(lo, hi):
            for link in chain_links(lo, hi):
                links.append(link)
                yield link

        def recording_block(mm):
            blocks.append(mm)
            return m_block(mm)

        monkeypatch.setattr(sequences, "chain_links", recording_links)
        monkeypatch.setattr(sequences, "m_block", recording_block)
        reps = [
            verifier.check_gap(top),
            verifier.check_range_bounds(top),
            verifier.check_sign_criteria(part),
        ]
        assert [lo for lo, *_ in links if lo > BASE] == [BASE + 1]
        assert max(blocks) == 64
        past = {
            "blocks": sequences.m(top) - 64,
            "decided_positive": sequences.m(top) - 64,
            "applies_positive": top - BASE,
        }
        for rep, at_base in zip(reps, base):
            assert rep.status == verifier.CONFIRMED
            assert (rep.lo, rep.hi) == (1, top)
            assert rep.data == {
                key: value + past[key] if key in past else value
                for key, value in at_base.data.items()
            }


class TestBandAgainstLinkWalk:
    """Both partitions, blocks and per_n included, against the walk over
    every link that tests/reference.py keeps."""

    def test_references_against_the_per_n_signs(self):
        ref_x, ref_y = per_n_runs(REFERENCE_TOP)
        assert reference_partition_x(REFERENCE_TOP).runs == ref_x
        assert reference_partition_y(REFERENCE_TOP).runs == ref_y

    def test_every_limit_to_600(self):
        for limit in range(1, 601):
            assert verifier.partition_x(limit) == reference_partition_x(limit), limit
            assert verifier.partition_y(limit) == reference_partition_y(limit), limit

    def test_at_m_block_ends_powers_of_two_and_spot_limits(self):
        ref_x, ref_y = reference_partition_x(LINK_TOP), reference_partition_y(LINK_TOP)
        starts = [lo for lo, *_ in reference_links(LINK_TOP)]
        rng = random.Random(30)
        limits = {
            *(n for n in m_block_ends(20000) if n > 600),
            *rng.sample([n for n in m_block_ends(LINK_TOP) if n > 20000], 1000),
            *(n for k in range(10, 31) for n in (2**k - 1, 2**k, 2**k + 1)),
            BASE + 1, 2200, 10**5, 10**6, 3 * 10**7 + 1, 10**9,
            *(rng.randrange(601, 10**7) for _ in range(20)),
        }
        for limit in sorted(limits):
            assert verifier.partition_x(limit) == cut_reference(ref_x, limit, starts), limit
            assert verifier.partition_y(limit) == cut_reference(ref_y, limit, starts), limit

    def test_link_count_at_every_m_block_end(self):
        # past BAND_BASE the blocks of both partitions come from link_count
        starts = [lo for lo, *_ in reference_links(LINK_TOP)]
        limits = m_block_ends(LINK_TOP) + [2**k + d for k in range(31) for d in (-1, 0, 1)]
        for limit in limits:
            if limit >= 1:
                assert sequences.link_count(limit) == bisect_right(starts, limit), limit


class TestConstantsAreChecked:
    """A wrong classification constant must surface as a discrepancy
    whose counterexamples are exactly those of the per-n comparison."""

    LIMIT = 5000

    def test_wrong_x_zero_set(self, monkeypatch):
        monkeypatch.setattr(
            verifier, "X_ZERO_SET", frozenset({436, 451, 529, 545, 547})
        )
        rep = verifier.check_theorem1(self.LIMIT)
        ref_x, _ = per_n_runs(self.LIMIT)
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == per_n_x_counterexamples(ref_x)
        assert rep.counterexamples == [546, 547]

    def test_wrong_x_negative_runs(self, monkeypatch):
        monkeypatch.setattr(
            verifier, "X_NEGATIVE_RUNS", ((1, 430), (450, 451), (513, 4000))
        )
        rep = verifier.check_theorem1(self.LIMIT)
        ref_x, _ = per_n_runs(self.LIMIT)
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == per_n_x_counterexamples(ref_x)
        assert rep.counterexamples[:6] == [431, 432, 433, 434, 435, 530]
        assert rep.counterexamples[-1] == 4000

    def test_wrong_y_negative_runs(self, monkeypatch):
        monkeypatch.setattr(
            verifier, "Y_NEGATIVE_RUNS", ((5, 330), (338, 352), (365, 368))
        )
        rep = verifier.check_theorem2(verifier.partition_y(self.LIMIT))
        _, ref_y = per_n_runs(self.LIMIT)
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == per_n_y_counterexamples(ref_y)
        assert rep.counterexamples == [331, 332, 333, 334, 335, 351, 352]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("X_ZERO_SET", frozenset({436, 451, 529, 545, 547})),
            ("X_NEGATIVE_RUNS", ((1, 430), (450, 451), (513, 4000))),
            ("Y_NEGATIVE_RUNS", ((5, 330), (338, 352), (365, 368))),
        ],
    )
    def test_wrong_constant_at_every_limit_to_600(self, monkeypatch, name, value):
        # the printed runs are clipped at the limit, which may fall inside
        # a zero, a negative run or a stretch between them
        monkeypatch.setattr(verifier, name, value)
        ref_x, ref_y = per_n_runs(REFERENCE_TOP)
        for limit in range(1, 601):
            theorem1 = verifier.check_theorem1(limit)
            theorem2 = verifier.check_theorem2(verifier.partition_y(limit))
            assert theorem1.counterexamples == per_n_x_counterexamples(
                truncated(ref_x, limit)
            )
            assert theorem2.counterexamples == per_n_y_counterexamples(
                truncated(ref_y, limit)
            )

    def test_tail_started_too_early(self, monkeypatch):
        monkeypatch.setattr(verifier, "POSITIVE_TAIL_START", 335)
        rep = verifier.check_positive_tail(verifier.partition_y(self.LIMIT))
        _, ref_y = per_n_runs(self.LIMIT)
        per_n = [
            n for a, b, s in ref_y for n in range(max(a, 335), b + 1) if s != 1
        ]
        assert rep.status == verifier.DISCREPANCY
        assert rep.counterexamples == per_n
        assert per_n[:2] == [335, 338] and per_n[-1] == 368


class TestReach:
    def test_theorems_at_one_billion_decide_few_n_singly(self, monkeypatch):
        calls = 0

        def counting_cmp(*args):
            nonlocal calls
            calls += 1
            return cmp_pow2_vs_pow(*args)

        monkeypatch.setattr(sequences, "cmp_pow2_vs_pow", counting_cmp)
        t1 = verifier.check_theorem1(10**9)
        t2 = verifier.check_theorem2(verifier.partition_y(10**9))
        assert t1.status == t2.status == verifier.CONFIRMED
        assert t1.data["per_n"] == 0
        assert t2.data["per_n"] <= 420
        assert calls == t2.data["per_n"]

    def test_negative_x_bound_at_one_billion(self):
        rep = verifier.check_negative_x_bound(verifier.partition_y(10**9))
        assert rep.status == verifier.CONFIRMED
        assert rep.data["applicable"] == 348

    def test_range_bounds_at_one_billion_compares_block_ends(self, monkeypatch):
        # the blocks to BAND_BASE come from m_block, one per m, and no
        # chain link is read
        walks = []
        chain_links = sequences.chain_links

        def recording_links(lo, hi):
            walks.append((lo, hi))
            return chain_links(lo, hi)

        calls = 0

        def counting_cmp(*args):
            nonlocal calls
            calls += 1
            return cmp_pow2_vs_pow(*args)

        monkeypatch.setattr(sequences, "chain_links", recording_links)
        monkeypatch.setattr(sequences, "cmp_pow2_vs_pow", counting_cmp)
        rep = verifier.check_range_bounds(10**9)
        assert rep.status == verifier.CONFIRMED
        assert rep.data == {
            "blocks": 44721,
            "decided_negative": 20,
            "decided_positive": 44695,
        }
        assert walks == []
        assert calls == 2 * 64  # the blocks to BAND_BASE; the band decides the rest

    def test_sign_criteria_at_one_billion_visits_no_n(self, monkeypatch):
        # partition_y's fallback decides its few open n with y_sign; with
        # the partition built beforehand, the check itself decides none
        part = verifier.partition_y(10**9)
        calls = 0
        y_sign = sequences.y_sign

        def counting_y_sign(n):
            nonlocal calls
            calls += 1
            return y_sign(n)

        monkeypatch.setattr(sequences, "y_sign", counting_y_sign)
        rep = verifier.check_sign_criteria(part)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["applies_negative"] == 297
        assert rep.data["applies_positive"] == 999999608
        assert calls == 0

    def test_reports_carry_block_counts(self):
        part = verifier.partition_y(5000)
        for rep in (
            verifier.check_theorem1(5000),
            verifier.check_theorem2(part),
            verifier.check_positive_tail(part),
        ):
            assert rep.data["blocks"] > 0
            assert rep.data["per_n"] >= 0
        rep = verifier.check_positive_tail(verifier.partition_y(100))
        assert rep.data == {"blocks": 0, "per_n": 0}


# ---------------------------------------------------------------------------
# Rewritten checks against the plain per-n loops they replaced
# ---------------------------------------------------------------------------


REFERENCE_CHECKS = (
    (verifier.check_gap, reference_gap),
    (on_y_runs(verifier.check_sign_criteria), reference_sign_criteria),
    (on_y_runs(verifier.check_negative_x_bound), reference_negative_x_bound),
)

SPOT_LIMITS = (1, 2, 9, 10, 11, 12, 20, 547, 5000, REFERENCE_TOP)


class TestRewrittenChecksAgainstPerN:
    @pytest.mark.parametrize("limit", SPOT_LIMITS)
    def test_spot_limits(self, limit):
        for check, reference in REFERENCE_CHECKS + (
            (verifier.check_range_bounds, reference_range_bounds),
        ):
            assert check(limit).to_dict() == reference(limit).to_dict()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=20000))
    def test_any_limit(self, limit):
        for check, reference in REFERENCE_CHECKS:
            assert check(limit).to_dict() == reference(limit).to_dict()

    def test_block_routes_at_every_limit_to_600(self):
        # every printed link end and every boundary of y's sign runs
        # falls in this range
        for limit in range(1, 601):
            for check, reference in REFERENCE_CHECKS + (
                (verifier.check_range_bounds, reference_range_bounds),
            ):
                assert check(limit).to_dict() == reference(limit).to_dict(), limit

    # the reference builds every y exactly, so the range stays short
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=3000))
    def test_range_bounds_any_limit(self, limit):
        assert (
            verifier.check_range_bounds(limit).to_dict()
            == reference_range_bounds(limit).to_dict()
        )

    def test_gap_at_one_million(self):
        assert verifier.check_gap(10**6).to_dict() == reference_gap(10**6).to_dict()

    def test_lemmas_across_the_band(self):
        # each side of BAND_BASE = 2112, the ends of the m-blocks 64 and 65,
        # powers of two, and 10**6; every y is built up to 2**16 + 1 only,
        # as the exact reference costs about limit**2
        limits = {
            *range(BASE - 1, BASE + 3),
            *(e + d for mm in (64, 65) for e in sequences.m_block(mm) for d in (-1, 0, 1)),
            *(2**k + d for k in range(11, 21) for d in (-1, 1)),
            10**6,
        }
        for limit in sorted(limits):
            for check, reference in REFERENCE_CHECKS:
                assert check(limit).to_dict() == reference(limit).to_dict(), limit
            range_bounds = reference_range_bounds(limit, every_y=limit <= 2**16 + 1)
            assert verifier.check_range_bounds(limit).to_dict() == range_bounds.to_dict(), limit

    # m of the i-th link raised by raises[i % len(raises)]: gaps drop
    # below 5 from n = 10 on, to 2 and below 2, and at n = 2 (the link of
    # index 1) below 2 or, with (3, 0), not at all
    @pytest.mark.parametrize(
        "raises", [(1,), (2,), (4,), (7,), (0, 1, 2, 3), (0, 2, 4), (3, 0)]
    )
    def test_gap_counterexamples_on_raised_links(self, monkeypatch, raises):
        # c_last reads c's closed form, so the fault goes in through m
        chain_links = sequences.chain_links

        def raised_links(lo, hi):
            for i, (a, b, rr, mm) in enumerate(chain_links(lo, hi)):
                yield a, b, rr, mm + raises[i % len(raises)]

        monkeypatch.setattr(sequences, "chain_links", raised_links)
        found = set()
        for limit in (1, 2, 3, 9, 10, 12, 13, 600, 2000):
            gaps = [
                (n, row(n)[4] - mm)
                for a, b, _, mm in raised_links(1, limit)
                for n in range(a, b + 1)
            ]
            rep = verifier.check_gap(limit)
            assert rep.to_dict() == reference_gap(limit, gaps).to_dict(), limit
            # each n once, in increasing order
            assert rep.counterexamples == sorted(set(rep.counterexamples)), limit
            found.update(rep.counterexamples)
        assert found, "the raised links must hold counterexamples"


class TestDetailsFollowCounterexamples:
    def test_zero_run_is_named(self):
        part = verifier.partition_y(1000)
        zeroed = part._replace(
            runs=part.runs[:1] + ((5, 5, 0), (6, 335, -1)) + part.runs[2:]
        )
        rep = verifier.check_theorem2(zeroed)
        assert rep.counterexamples == [5]
        assert rep.details.startswith("zero runs [5, 5]; negative runs [6, 335], ")

    def test_confirmed_details_keep_their_claims(self):
        rep = verifier.check_sign_criteria(verifier.partition_y(600))
        assert "; no contradictions" in rep.details
        rep = verifier.check_range_bounds(600)
        assert "endpoint bounds enclose every y" in rep.details
        assert rep.details.endswith("y strictly decreases whenever m and c both repeat")


SIGN_READERS = (
    verifier.check_sign_criteria,
    verifier.check_negative_x_bound,
    analytic.check_sign_consistency,
)


# Phrases a report may carry only when it lists no counterexample.
CLAIMS_OF_SUCCESS = (
    "no contradictions",
    "float surrogate sign matches the exact sign everywhere",
    "y > 0 at every n",
    "endpoint bounds enclose every y",
    "y strictly decreases whenever",
)


# Faulty y runs: all negative on [1, L], and a y <= 0 run that starts
# inside the link [392, 420], before its cut at 403.
FAULTY_Y_RUNS = [
    ((1, 5, -1),),
    ((1, 30, -1),),
    ((1, 600, -1),),
    ((1, 3000, -1),),
    ((1, 394, 1), (395, 3000, -1)),
]


class TestOneSignSource:
    """The range checks that need the sign of y read it from the runs of
    the verifier.partition_y they are given and compare no powers
    themselves."""

    def test_flipped_run_is_a_discrepancy(self):
        part = verifier.partition_y(5000)
        a, b, sign = part.runs[-1]  # the positive tail, [369, 5000]
        flipped = part._replace(runs=part.runs[:-1] + ((a, b, -sign),))
        for check in SIGN_READERS + (verifier.check_positive_tail,):
            rep = check(flipped)
            assert rep.status == verifier.DISCREPANCY, check.__name__
            assert all(a <= n <= b for n in rep.counterexamples)
            # the details follow the counterexamples, not the claim
            assert not any(phrase in rep.details for phrase in CLAIMS_OF_SUCCESS)
        rep = verifier.check_sign_criteria(flipped)
        assert rep.details.endswith(f"; {len(rep.counterexamples)} contradictions")
        rep = verifier.check_positive_tail(flipped)
        assert rep.details == f"y <= 0 at {5000 - 404 + 1} values in [404, 5000]"

    def test_run_boundary_inside_a_link_is_cut_exactly(self):
        # a negative run [1000, 1010] strictly inside the link [968, 1012]:
        # the checks must cut the link at both run ends, so exactly the n of
        # that run disagree, and the criteria still count every n once
        part = verifier.partition_y(5000)
        assert part.runs[-1] == (369, 5000, 1)
        assert (968, 1012, 10, 44) in sequences.chain_links(900, 1100)
        split = ((369, 999, 1), (1000, 1010, -1), (1011, 5000, 1))
        split_part = part._replace(runs=part.runs[:-1] + split)
        positive = [
            n
            for n in range(1000, 1011)
            if sequences.c(n) > sequences.r(n) * (sequences.m(n) - 1) + sequences.m(n)
        ]
        assert positive == list(range(1000, 1011))
        rep = verifier.check_sign_criteria(split_part)
        assert rep.counterexamples == positive
        assert (rep.data["applies_negative"], rep.data["applies_positive"]) == (297, 4608)
        rep = analytic.check_sign_consistency(split_part)
        assert rep.counterexamples == list(range(1000, 1011))

    # On the true runs x <= -r - 3 holds at every n, so no cut is tested
    # there; FAULTY_Y_RUNS reach the cuts
    @pytest.mark.parametrize("runs", FAULTY_Y_RUNS)
    def test_negative_x_bound_cut_on_faulty_runs(self, runs):
        limit = runs[-1][1]
        part = verifier.SignPartition(limit, runs)
        stepped = [n for a, b, s in runs if s <= 0 for n in range(a, b + 1)]
        expected = [
            n for n in stepped if not sequences.x(n) <= -sequences.r(n) - 3 <= -6
        ]
        rep = verifier.check_negative_x_bound(part)
        assert (rep.data["applicable"], rep.counterexamples) == (len(stepped), expected)
        assert 0 < len(expected) < len(stepped) or limit == 5

    def test_negative_x_bound_cut_at_an_odd_threshold(self, monkeypatch):
        # on the true chain below 2 * 10**5 no link with r >= 3 holds the
        # cut z_last(v) of an odd v = K - r - 3, so faulty runs alone never
        # reach one; with m raised by 2 on every link, the link
        # [513, 544] (r = 10, m = 34) has v = 361 and its cut at 543
        chain_links = sequences.chain_links

        def raised_links(lo, hi):
            for a, b, rr, mm in chain_links(lo, hi):
                yield a, b, rr, mm + 2

        monkeypatch.setattr(sequences, "chain_links", raised_links)
        part = verifier.SignPartition(600, ((1, 600, -1),))
        assert (513, 544, 10, 34) in raised_links(1, 600)
        assert sequences.z_last(11 * 34 - 13) == 543
        expected = [
            n
            for a, b, rr, mm in raised_links(1, 600)
            for n in range(a, b + 1)
            if not sequences.z(n) - (rr + 1) * mm <= -rr - 3 <= -6
        ]
        rep = verifier.check_negative_x_bound(part)
        assert (rep.data["applicable"], rep.counterexamples) == (600, expected)
        assert 543 not in expected and 544 in expected

    def test_y_sign_decides_only_the_partition_fallback(self, monkeypatch, capsys):
        # through the CLI, every lemma check reads one partition_y, whose
        # fallback is the one caller of y_sign: it decides each n of the
        # links that the certificate leaves open, once in the run
        limit = 10**6
        open_n = [
            n
            for lo, hi, _, mm in sequences.chain_links(1, limit)
            if not (mm >= 2 and sequences.c(lo) - mm >= hi.bit_length() * (mm - 1))
            for n in range(lo, hi + 1)
        ]
        per_n = verifier.partition_y(limit).per_n
        decided = []
        parts = 0
        y_sign, partition_y = sequences.y_sign, verifier.partition_y

        def recording_y_sign(n):
            decided.append(n)
            return y_sign(n)

        def counting_partition(limit):
            nonlocal parts
            parts += 1
            return partition_y(limit)

        monkeypatch.setattr(sequences, "y_sign", recording_y_sign)
        monkeypatch.setattr(verifier, "partition_y", counting_partition)
        argv = ["verify", "--suite", "lemmas", "--limit", str(limit), "--format", "json"]
        assert cli.main(argv) == 0
        assert '"status": "CONFIRMED"' in capsys.readouterr().out
        assert parts == 1
        assert len(decided) == per_n
        assert decided == open_n

    def test_checks_read_no_stepper_and_one_function_compares_at_an_n(self):
        # verifier and analytic reach the sequences through the scalar
        # definitions, chain_links, positive_link and bound_signs only; in
        # sequences, y_sign is the one comparison of y's terms at an n
        for module in (verifier, analytic):
            assert STEPPER_NAMES.intersection(names_read(module)) == set(), module.__name__
        tree = ast.parse(Path(sequences.__file__).read_text())
        comparers = {
            getattr(stmt, "name", "<module>")
            for stmt in tree.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id == "cmp_pow2_vs_pow"
            or isinstance(node, ast.Attribute) and node.attr == "cmp_pow2_vs_pow"
        }
        assert comparers == {"y_sign", "bound_signs"}

    def test_compares_only_in_the_partition_fallback(self, monkeypatch):
        limit = 10**5
        per_n = verifier.partition_y(limit).per_n
        calls = 0

        def counting_cmp(*args):
            nonlocal calls
            calls += 1
            return cmp_pow2_vs_pow(*args)

        monkeypatch.setattr(sequences, "cmp_pow2_vs_pow", counting_cmp)
        monkeypatch.setattr(exactarith, "cmp_pow2_vs_pow", counting_cmp)
        for check in SIGN_READERS:
            calls = 0
            assert check(verifier.partition_y(limit)).status == verifier.CONFIRMED
            assert calls == per_n, check.__name__


class TestSignedLinks:
    """signed_links is the one walk of y's runs link by link; the
    reference is the nested loop each sign check wrote for itself."""

    @staticmethod
    def nested_loop(part, skip_positive):
        pieces = []
        for a, b, sign in part.runs:
            if skip_positive and sign > 0:
                continue
            for lo, hi, rr, mm in sequences.chain_links(a, b):
                pieces.append((lo, hi, rr, mm, sign))
        return pieces

    @pytest.mark.parametrize(
        "part",
        [verifier.partition_y(limit) for limit in (1, 4, 5, 404, 600, 2112, 2113, 5000, 10**5)]
        + [verifier.SignPartition(runs[-1][1], runs) for runs in FAULTY_Y_RUNS],
        ids=lambda part: f"{part.limit}-{len(part.runs)}runs",
    )
    def test_pieces_match_the_nested_loop(self, part):
        pieces = list(verifier.signed_links(part))
        assert pieces == self.nested_loop(part, False)
        assert list(verifier.signed_links(part, (-1, 0))) == self.nested_loop(part, True)
        # the pieces tile [1, limit]
        assert [lo for lo, *_ in pieces] == [1] + [hi + 1 for _, hi, *_ in pieces[:-1]]
        assert pieces[-1][1] == part.limit

    def test_negative_runs_walk_no_link_past_368(self, monkeypatch):
        part = verifier.partition_y(10**9)
        walks = []
        chain_links = sequences.chain_links

        def recording_links(lo, hi):
            walks.append((lo, hi))
            return chain_links(lo, hi)

        monkeypatch.setattr(sequences, "chain_links", recording_links)
        pieces = list(verifier.signed_links(part, (-1, 0)))
        assert walks == [(a, b) for a, b, sign in part.runs if sign <= 0]
        assert max(hi for _, hi in walks) == 368
        assert sum(hi - lo + 1 for lo, hi, *_ in pieces) == 348


class TestRegistry:
    def test_erratum_for_matches_the_documented_correction(self):
        err = verifier.erratum_for("reference-table", "x", 15, -16)
        assert err == verifier.Erratum(
            "x(15)", -21, -16, verifier.KNOWN_ERRATA[("reference-table", "x", 15)][3]
        )
        assert verifier.erratum_for("reference-table", "x", 15, -17) is None
        assert verifier.erratum_for("reference-table", "x", 14, -16) is None

    def test_each_misprint_is_a_cell_of_its_printed_table(self):
        # every table keeps its printed values verbatim, so the registry's
        # printed value is the cell itself
        columns = ("x", "c_minus_m", "y")
        fields = ("lo", "hi", "r", "m", "x_lo", "x_hi")
        printed_cell = {
            "reference-table": lambda col, key: verifier.REFERENCE_TABLE[key][
                columns.index(col)
            ],
            "interval-table": lambda col, key: verifier.INTERVAL_TABLE[key - 1][
                fields.index(col)
            ],
            "root-bracket": lambda col, key: analytic.ROOT_BRACKETS[key],
        }
        cells = {
            (claim, col, key): printed_cell[claim](col, key)
            for claim, col, key in verifier.KNOWN_ERRATA
        }
        assert cells == {
            ("reference-table", "x", 15): -21,
            ("reference-table", "x", 16): -20,
            ("interval-table", "m", 41): 32,
            ("root-bracket", "bracket", "y-lower"): (379, 389),
        }
        for cell, printed in cells.items():
            assert verifier.KNOWN_ERRATA[cell].printed == printed
