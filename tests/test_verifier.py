"""Tests for the claim verifier.

The sign partitions here were independently recomputed by big-integer
subtraction over the full ranges; the runs below are frozen from that
run.  The report-shape tests pin the contract the CLI and the
acceptance gate rely on: status is derived from the evidence lists and
never set freely.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqscan import analytic, exactarith, intervals, sequences, verifier
from ineqscan.exactarith import cmp_pow2_vs_pow

REFERENCE_TOP = 10**5

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

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            verifier.partition_x(0)
        with pytest.raises(ValueError):
            verifier.partition_y(-3)


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
        rep = verifier.check_theorem2(5000)
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

    def test_range_bounds(self):
        rep = verifier.check_range_bounds(5000)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["blocks"] == 100
        assert rep.data["decided_negative"] == 20
        assert rep.data["decided_positive"] == 74

    def test_zero_bound_decides_no_block(self, monkeypatch):
        # a bound equal to 0 leaves room for y = 0, so it fixes no sign;
        # low is 0 on the block [2, 4], no high up to 10**9 is
        assert sequences.bound_signs(2, 4, 2) == (1, 0)
        monkeypatch.setattr(sequences, "bound_signs", lambda a, b, mm: (0, 0))
        rep = verifier.check_range_bounds(5000)
        assert rep.data == {"blocks": 100, "decided_negative": 0, "decided_positive": 0}

    def test_sign_criteria(self):
        rep = verifier.check_sign_criteria(5000)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["applies_negative"] == 297
        assert rep.data["applies_positive"] == 4608

    def test_negative_x_bound(self):
        rep = verifier.check_negative_x_bound(5000)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["applicable"] == 348

    def test_positive_tail(self):
        rep = verifier.check_positive_tail(5000)
        assert rep.status == verifier.CONFIRMED
        assert rep.lo == 404
        rep = verifier.check_positive_tail(100)
        assert rep.status == verifier.CONFIRMED
        assert "nothing scanned" in rep.details


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


def _push(runs, n, sign):
    if runs and runs[-1][2] == sign:
        runs[-1][1] = n
    else:
        runs.append([n, n, sign])


def per_n_runs(limit):
    """The per-n route: the sign of x and of y at every n of [1, limit],
    folded into runs.  This is the oracle for the blockwise partitions."""
    xs, ys = [], []
    for n, _, mm, _, cc, xx in sequences.scan(1, limit):
        _push(xs, n, (xx > 0) - (xx < 0))
        _push(ys, n, cmp_pow2_vs_pow(cc - mm, n, mm - 1))
    return tuple(map(tuple, xs)), tuple(map(tuple, ys))


@lru_cache(maxsize=None)
def reference_runs():
    return per_n_runs(REFERENCE_TOP)


def truncated(runs, limit):
    return tuple((a, min(b, limit), s) for a, b, s in runs if a <= limit)


def expected_x_sign(n):
    """Sign of x(n) by the printed classification, read at n alone; a
    zero wins over a negative run that also holds n."""
    if n in verifier.X_ZERO_SET:
        return 0
    if any(a <= n <= b for a, b in verifier.X_NEGATIVE_RUNS):
        return -1
    return 1


def expected_y_sign(n):
    """Sign of y(n) by the printed classification, read at n alone."""
    if any(a <= n <= b for a, b in verifier.Y_NEGATIVE_RUNS):
        return -1
    return 1


def per_n_x_counterexamples(runs):
    """Theorem 1's comparison, one n at a time."""
    return [
        n
        for a, b, s in runs
        for n in range(a, b + 1)
        if expected_x_sign(n) != s
    ]


def per_n_y_counterexamples(runs):
    """Theorem 2's comparison, one n at a time; y = 0 never holds."""
    return [
        n
        for a, b, s in runs
        for n in range(a, b + 1)
        if s == 0 or expected_y_sign(n) != s
    ]


def assert_blockwise_matches_reference(limit):
    ref_x, ref_y = reference_runs()
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
        rep = verifier.check_theorem2(self.LIMIT)
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
        ref_x, ref_y = reference_runs()
        for limit in range(1, 601):
            theorem1 = verifier.check_theorem1(limit)
            theorem2 = verifier.check_theorem2(limit)
            assert theorem1.counterexamples == per_n_x_counterexamples(
                truncated(ref_x, limit)
            )
            assert theorem2.counterexamples == per_n_y_counterexamples(
                truncated(ref_y, limit)
            )

    def test_tail_started_too_early(self, monkeypatch):
        monkeypatch.setattr(verifier, "POSITIVE_TAIL_START", 335)
        rep = verifier.check_positive_tail(self.LIMIT)
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
        t2 = verifier.check_theorem2(10**9)
        assert t1.status == t2.status == verifier.CONFIRMED
        assert t1.data["per_n"] == 0
        assert t2.data["per_n"] <= 420
        assert calls == t2.data["per_n"]

    def test_negative_x_bound_at_one_billion(self):
        rep = verifier.check_negative_x_bound(10**9)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["applicable"] == 348

    def test_range_bounds_at_one_billion_compares_block_ends(self, monkeypatch):
        spans = []
        scan = sequences.scan

        def recording_scan(lo, hi):
            spans.append((lo, hi))
            return scan(lo, hi)

        calls = 0

        def counting_cmp(*args):
            nonlocal calls
            calls += 1
            return cmp_pow2_vs_pow(*args)

        monkeypatch.setattr(sequences, "scan", recording_scan)
        monkeypatch.setattr(sequences, "cmp_pow2_vs_pow", counting_cmp)
        rep = verifier.check_range_bounds(10**9)
        assert rep.status == verifier.CONFIRMED
        assert rep.data == {
            "blocks": 44721,
            "decided_negative": 20,
            "decided_positive": 44695,
        }
        assert spans == []
        assert calls == 2 * rep.data["blocks"]

    def test_sign_criteria_at_one_billion_visits_no_n(self, monkeypatch):
        calls = 0
        scan = sequences.scan

        def counting_scan(lo, hi):
            nonlocal calls
            calls += hi - lo + 1
            return scan(lo, hi)

        monkeypatch.setattr(sequences, "scan", counting_scan)
        rep = verifier.check_sign_criteria(10**9)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["applies_negative"] == 297
        assert rep.data["applies_positive"] == 999999608
        assert calls == 0

    def test_reports_carry_block_counts(self):
        for rep in (
            verifier.check_theorem1(5000),
            verifier.check_theorem2(5000),
            verifier.check_positive_tail(5000),
        ):
            assert rep.data["blocks"] > 0
            assert rep.data["per_n"] >= 0
        rep = verifier.check_positive_tail(100)
        assert rep.data == {"blocks": 0, "per_n": 0}


# ---------------------------------------------------------------------------
# Rewritten checks against the plain per-n loops they replaced
# ---------------------------------------------------------------------------


def reference_gap(limit):
    """check_gap as an independent stepper: c steps by 2 at every third n,
    m past each square threshold, every n visited."""
    counterexamples = []
    mm, threshold, cc, trip = 1, 4, 4, 0
    min_gap, min_gap_at, min_gap_from_10 = None, [], None
    for n in range(1, limit + 1):
        while threshold <= 2 * n:
            mm += 1
            threshold = (mm + 1) * (mm + 1)
        trip += 1
        if trip == 3:
            trip = 0
            cc += 2
        gap = cc - mm
        if min_gap is None or gap < min_gap:
            min_gap, min_gap_at = gap, [n]
        elif gap == min_gap:
            min_gap_at.append(n)
        if n >= 10:
            if min_gap_from_10 is None or gap < min_gap_from_10:
                min_gap_from_10 = gap
            if gap < 5:
                counterexamples.append(n)
        if gap < 2 or (gap == 2 and n != 2):
            counterexamples.append(n)
    return verifier.make_report(
        "lemmas/gap",
        1,
        limit,
        f"min gap {min_gap} attained exactly at {min_gap_at}; "
        f"min gap over n >= 10 is {min_gap_from_10}",
        counterexamples=counterexamples,
        data={
            "min_gap": min_gap,
            "min_gap_at": min_gap_at,
            "min_gap_from_10": min_gap_from_10,
        },
    )


def reference_sign_criteria(limit):
    counterexamples = []
    applies_negative = applies_positive = 0
    for n, _, mm, rr, cc, _ in sequences.scan(1, limit):
        threshold = rr * (mm - 1)
        if cc <= threshold + 1:
            applies_negative += 1
            if cmp_pow2_vs_pow(cc - mm, n, mm - 1) != -1:
                counterexamples.append(n)
        elif cc > threshold + mm:
            applies_positive += 1
            if cmp_pow2_vs_pow(cc - mm, n, mm - 1) != 1:
                counterexamples.append(n)
    verdict = f"{len(counterexamples)} contradiction" + (
        "" if len(counterexamples) == 1 else "s"
    )
    return verifier.make_report(
        "lemmas/sign-criteria",
        1,
        limit,
        f"negative criterion applies to {applies_negative} values, "
        f"positive criterion to {applies_positive}; "
        + (verdict if counterexamples else "no contradictions"),
        counterexamples=counterexamples,
        data={
            "applies_negative": applies_negative,
            "applies_positive": applies_positive,
        },
    )


def reference_negative_x_bound(limit):
    counterexamples = []
    applicable = 0
    for n, _, mm, rr, cc, xx in sequences.scan(1, limit):
        if cmp_pow2_vs_pow(cc - mm, n, mm - 1) <= 0:
            applicable += 1
            if not (xx <= -rr - 3 <= -6):
                counterexamples.append(n)
    return verifier.make_report(
        "lemmas/negative-x-bound",
        1,
        limit,
        f"bound checked at {applicable} values with y <= 0",
        counterexamples=counterexamples,
        data={"applicable": applicable},
    )


def reference_range_bounds(limit):
    """check_range_bounds as a walk over intervals.d_bounds blocks, with
    the endpoint enclosure of each block built from the scalar terms and
    every y from sequences.y_value."""
    counterexamples = []
    blocks = decided_negative = decided_positive = 0
    lo = 1
    while lo <= limit:
        d1, d2 = intervals.d_bounds(lo)
        hi = min(d2, limit)
        low = sequences.pow2_term(d1) - sequences.npow_term(hi)
        high = sequences.pow2_term(hi) - sequences.npow_term(d1)
        blocks += 1
        decided_negative += high < 0
        decided_positive += low > 0
        prev_c = prev_y = None
        for n in range(d1, hi + 1):
            cc, yv = sequences.c(n), sequences.y_value(n)
            if not low <= yv <= high:
                counterexamples.append(n)
            if high < 0 and not yv < 0:
                counterexamples.append(n)
            if low > 0 and not yv > 0:
                counterexamples.append(n)
            if prev_c == cc and not yv < prev_y:
                counterexamples.append(n)
            prev_c, prev_y = cc, yv
        lo = d2 + 1
    decided = (
        f"{decided_negative} blocks decided negative and "
        f"{decided_positive} decided positive by their bounds alone"
    )
    count = len(counterexamples)
    if count:
        details = (
            f"{blocks} constant-m blocks; {count} counterexample"
            f"{'' if count == 1 else 's'} to the enclosure, the block sign or "
            f"the decrease; {decided}"
        )
    else:
        details = (
            f"{blocks} constant-m blocks; endpoint bounds enclose every y; "
            f"{decided}; y strictly decreases whenever m and c both repeat"
        )
    return verifier.make_report(
        "lemmas/range-bounds",
        1,
        limit,
        details,
        counterexamples=counterexamples,
        data={
            "blocks": blocks,
            "decided_negative": decided_negative,
            "decided_positive": decided_positive,
        },
    )


REFERENCE_CHECKS = (
    (verifier.check_gap, reference_gap),
    (verifier.check_sign_criteria, reference_sign_criteria),
    (verifier.check_negative_x_bound, reference_negative_x_bound),
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
            for check, reference in (
                (verifier.check_range_bounds, reference_range_bounds),
                (verifier.check_sign_criteria, reference_sign_criteria),
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

    def test_gap_settles_links_as_a_whole(self, monkeypatch):
        # far past the scanned start, the gap check visits no n singly
        calls = 0
        scan = sequences.scan

        def counting_scan(lo, hi):
            nonlocal calls
            calls += hi - lo + 1
            return scan(lo, hi)

        monkeypatch.setattr(sequences, "scan", counting_scan)
        rep = verifier.check_gap(10**12)
        assert rep.status == verifier.CONFIRMED
        assert rep.data["min_gap_from_10"] == 6
        assert calls == 12


class TestDetailsFollowCounterexamples:
    def test_zero_run_is_named(self, monkeypatch):
        part = verifier.partition_y(1000)
        zeroed = part._replace(
            runs=part.runs[:1] + ((5, 5, 0), (6, 335, -1)) + part.runs[2:]
        )
        monkeypatch.setattr(verifier, "partition_y", lambda limit: zeroed)
        rep = verifier.check_theorem2(1000)
        assert rep.counterexamples == [5]
        assert rep.details.startswith("zero runs [5, 5]; negative runs [6, 335], ")

    def test_confirmed_details_keep_their_claims(self):
        assert "; no contradictions" in verifier.check_sign_criteria(600).details
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


class TestOneSignSource:
    """The range checks that need the sign of y read it from the runs of
    verifier.partition_y and compare no powers themselves."""

    def test_flipped_run_is_a_discrepancy(self, monkeypatch):
        part = verifier.partition_y(5000)
        a, b, sign = part.runs[-1]  # the positive tail, [369, 5000]
        flipped = part._replace(runs=part.runs[:-1] + ((a, b, -sign),))
        monkeypatch.setattr(verifier, "partition_y", lambda limit: flipped)
        for check in SIGN_READERS + (verifier.check_positive_tail,):
            rep = check(5000)
            assert rep.status == verifier.DISCREPANCY, check.__name__
            assert all(a <= n <= b for n in rep.counterexamples)
            # the details follow the counterexamples, not the claim
            assert not any(phrase in rep.details for phrase in CLAIMS_OF_SUCCESS)
        rep = verifier.check_sign_criteria(5000)
        assert rep.details.endswith(f"; {len(rep.counterexamples)} contradictions")
        rep = verifier.check_positive_tail(5000)
        assert rep.details == f"y <= 0 at {5000 - 404 + 1} values in [404, 5000]"

    def test_run_boundary_inside_a_link_is_cut_exactly(self, monkeypatch):
        # a negative run [1000, 1010] strictly inside the link [968, 1012]:
        # the checks must cut the link at both run ends, so exactly the n of
        # that run disagree, and the criteria still count every n once
        part = verifier.partition_y(5000)
        assert part.runs[-1] == (369, 5000, 1)
        assert (968, 1012, 10, 44) in sequences.chain_links(900, 1100)
        split = ((369, 999, 1), (1000, 1010, -1), (1011, 5000, 1))
        split_part = part._replace(runs=part.runs[:-1] + split)
        monkeypatch.setattr(verifier, "partition_y", lambda limit: split_part)
        positive = [
            n
            for n in range(1000, 1011)
            if sequences.c(n) > sequences.r(n) * (sequences.m(n) - 1) + sequences.m(n)
        ]
        assert positive == list(range(1000, 1011))
        rep = verifier.check_sign_criteria(5000)
        assert rep.counterexamples == positive
        assert (rep.data["applies_negative"], rep.data["applies_positive"]) == (297, 4608)
        rep = analytic.check_sign_consistency(5000)
        assert rep.counterexamples == list(range(1000, 1011))

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
            assert check(limit).status == verifier.CONFIRMED
            assert calls == per_n, check.__name__


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
