"""Mutation checks: every registered mutant must make its tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each entry of MUTANTS is (name, file, old text, new text, test
selectors), the selectors one string separated by spaces.  For each one
the script copies src/, tests/ and pyproject.toml to a fresh temporary
directory, replaces the one exact occurrence of the old text in the
file, and runs `python -m pytest -x -q` on the selectors there.
pytest's `pythonpath = ["src"]` then imports the mutated copy; a conftest
written into the copy records `ineqscan.__file__`, and the script checks
that every passing run imported it from the copy.  The mutant is killed
when the run fails, for any reason, or outlasts TIMEOUT.  Before any
mutant, every selector must pass on an unmutated copy, so a kill means
the mutation and nothing else.

The script exits 1 if an old text is missing or occurs more than once,
if a selector fails on the unmutated copy, or if a mutant of MUTANTS
survives.  KNOWN_SURVIVORS lists mutants the tests do not catch, with
the reason as a sixth field.  Their old texts must be present, but they
are not run.

Stdlib only.  The name keeps pytest from collecting this file.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEQ = "src/ineqscan/sequences.py"
VER = "src/ineqscan/verifier.py"
ANA = "src/ineqscan/analytic.py"
CLI = "src/ineqscan/cli.py"
EXA = "src/ineqscan/exactarith.py"
INT = "src/ineqscan/intervals.py"

T_SEQ = "tests/test_sequences.py"
T_VER = "tests/test_verifier.py"
T_ANA = "tests/test_analytic.py"
T_CLI = "tests/test_cli.py"
T_EXA = "tests/test_exactarith.py"
T_INT = "tests/test_intervals.py"

TIMEOUT = 300.0  # seconds per pytest run; one that outlasts it is a kill

MUTANTS = [
    (
        "bound_signs: c(a) and c(b) swapped",
        SEQ,
        "cmp_pow2_vs_pow(c(b) - mm, a, mm - 1),\n        cmp_pow2_vs_pow(c(a) - mm, b, mm - 1),",
        "cmp_pow2_vs_pow(c(a) - mm, a, mm - 1),\n        cmp_pow2_vs_pow(c(b) - mm, b, mm - 1),",
        f"{T_SEQ}::TestBoundSigns",
    ),
    (
        "bound_signs: high with a and b swapped",
        SEQ,
        "cmp_pow2_vs_pow(c(b) - mm, a, mm - 1),",
        "cmp_pow2_vs_pow(c(b) - mm, b, mm - 1),",
        f"{T_SEQ}::TestBoundSigns",
    ),
    (
        "bound_signs: low with a and b swapped",
        SEQ,
        "cmp_pow2_vs_pow(c(a) - mm, b, mm - 1),",
        "cmp_pow2_vs_pow(c(a) - mm, a, mm - 1),",
        f"{T_SEQ}::TestBoundSigns",
    ),
    (
        "check_range_bounds: high < 0 made <= 0",
        VER,
        "decided_negative += high < 0",
        "decided_negative += high <= 0",
        f"{T_VER}::TestLemmaChecks",
    ),
    (
        "check_range_bounds: low > 0 made >= 0",
        VER,
        "decided_positive += low > 0",
        "decided_positive += low >= 0",
        f"{T_VER}::TestLemmaChecks",
    ),
    (
        "positive_link: c(hi) for c(lo)",
        SEQ,
        "return mm >= 2 and c(lo) - mm >= hi.bit_length() * (mm - 1)",
        "return mm >= 2 and c(hi) - mm >= hi.bit_length() * (mm - 1)",
        f"{T_SEQ}::TestRows",
    ),
    (
        "positive_link: bitlen(hi) - 1 for bitlen(hi)",
        SEQ,
        "return mm >= 2 and c(lo) - mm >= hi.bit_length() * (mm - 1)",
        "return mm >= 2 and c(lo) - mm >= (hi.bit_length() - 1) * (mm - 1)",
        f"{T_SEQ}::TestRows",
    ),
    (
        "positive_link: the m >= 2 guard dropped",
        SEQ,
        "return mm >= 2 and c(lo) - mm >= hi.bit_length() * (mm - 1)",
        "return c(lo) - mm >= hi.bit_length() * (mm - 1)",
        f"{T_SEQ}::TestRows",
    ),
    (
        # partition_y's whole links admit no wrong sign; scan's clipped ones do
        "positive_link: certificate relaxed by one bit",
        SEQ,
        "return mm >= 2 and c(lo) - mm >= hi.bit_length() * (mm - 1)",
        "return mm >= 2 and c(lo) - mm + 1 >= hi.bit_length() * (mm - 1)",
        f"{T_SEQ}::TestRows",
    ),
    (
        "scan: every link settled positive",
        SEQ,
        "1 if positive_link(a, b, mm) else",
        "1 if True else",
        f"{T_SEQ}::TestRows",
    ),
    (
        # the signs stay right; only the count of comparisons grows
        "scan: no link settled, every n compared",
        SEQ,
        "1 if positive_link(a, b, mm) else",
        "1 if False else",
        f"{T_SEQ}::TestRows",
    ),
    (
        "BAND_BASE: a base that ends before 577",
        VER,
        "BAND_BASE = sequences.m_block(1 << (BAND_K0 - 1))[1]",
        "BAND_BASE = sequences.m_block(32)[1]",
        f"{T_VER}::TestBandAgainstLinkWalk::test_every_limit_to_600",
    ),
    (
        "BAND_K0: 6 for 7",
        VER,
        "BAND_K0 = 7",
        "BAND_K0 = 6",
        f"{T_VER}::TestBand::test_certificate",
    ),
    (
        "BAND_PREDICATE: m >= 6k + 2 for 6k + 3 on y",
        VER,
        '"y": (3, ',
        '"y": (2, ',
        f"{T_VER}::TestBand::test_certificate",
    ),
    (
        "link_count: the power-of-two splits ignored",
        SEQ,
        "return math.isqrt(2 * hi) + sum(m_block(math.isqrt(2 * p))[1] != p for p in powers)",
        "return math.isqrt(2 * hi)",
        f"{T_VER}::TestBandAgainstLinkWalk::test_at_m_block_ends_powers_of_two_and_spot_limits",
    ),
    (
        "partition_y: fallback sign fixed at 1",
        VER,
        "_append_run(runs, n, n, sequences.y_sign(n))",
        "_append_run(runs, n, n, 1)",
        f"{T_VER}::TestPartitions",
    ),
    (
        # flips y's sign at n = 2 and at 351 to 353, on the open link [338, 364]
        "y_sign: 2**(c - m - 1) for 2**(c - m)",
        SEQ,
        "return cmp_pow2_vs_pow(c(n) - mm, n, mm - 1)",
        "return cmp_pow2_vs_pow(c(n) - mm - 1, n, mm - 1)",
        f"{T_VER}::TestPartitions::test_y_partition_matches_golden",
    ),
    (
        "check_reference_table: the c - m cell read as c - r",
        VER,
        "sequences.c(n) - sequences.m(n), sequences.y_value(n)",
        "sequences.c(n) - sequences.r(n), sequences.y_value(n)",
        f"{T_VER}::TestGoldenTableChecks::test_reference_table_exact_errata",
    ),
    (
        "c: (n + 1) // 3 for n // 3",
        SEQ,
        "return 2 * (n // 3) + 4",
        "return 2 * ((n + 1) // 3) + 4",
        f"{T_SEQ}::TestDefiningProperties::test_c_closed_form",
    ),
    (
        "require_positive: value < 0",
        SEQ,
        "if value < 1:",
        "if value < 0:",
        f"{T_SEQ}::TestDefiningProperties::test_domain_errors",
    ),
    (
        # partition_x cuts each link at z_last(K - 1) and z_last(K), and
        # check_negative_x_bound at z_last(K - r - 3)
        "z_last: one n late when v is even",
        SEQ,
        "return (3 * v + 3) // 2",
        "return (3 * v + 4) // 2",
        f"{T_VER}::TestPartitions::test_x_partition_matches_golden",
    ),
    (
        "z_last: one n early when v is odd",
        SEQ,
        "return (3 * v + 3) // 2",
        "return (3 * v + 2) // 2",
        f"{T_VER}::TestPartitions::test_x_partition_matches_golden "
        f"{T_VER}::TestOneSignSource::test_negative_x_bound_cut_at_an_odd_threshold",
    ),
    (
        "c_last: one n late",
        SEQ,
        "return 3 * ((v - 4) // 2) + 2",
        "return 3 * ((v - 4) // 2) + 3",
        f"{T_VER}::TestLemmaChecks::test_sign_criteria",
    ),
    (
        "c_last: one n early",
        SEQ,
        "return 3 * ((v - 4) // 2) + 2",
        "return 3 * ((v - 4) // 2) + 1",
        f"{T_VER}::TestRewrittenChecksAgainstPerN::test_block_routes_at_every_limit_to_600",
    ),
    (
        "m_block: the first n one early on odd m",
        SEQ,
        "return (mm * mm + 1) // 2, mm * mm // 2 + mm",
        "return mm * mm // 2, mm * mm // 2 + mm",
        f"{T_SEQ}::TestCuts::test_m_block_is_the_run_of_each_m",
    ),
    (
        "m_block: the last n one late",
        SEQ,
        "return (mm * mm + 1) // 2, mm * mm // 2 + mm",
        "return (mm * mm + 1) // 2, mm * mm // 2 + mm + 1",
        f"{T_INT}::TestBounds::test_d_bounds_examples",
    ),
    (
        "printed_runs: a negative run wins over a zero",
        VER,
        "0 if a in zeros else -1 if negative else 1",
        "-1 if negative else 0 if a in zeros else 1",
        f"{T_VER}::TestConstantsAreChecked",
    ),
    (
        "check_negative_x_bound: -r - 3 <= -6 taken from r >= 2",
        VER,
        "if rr >= 3 else 0",
        "if rr >= 2 else 0",
        f"{T_VER}::TestOneSignSource::test_negative_x_bound_cut_on_faulty_runs",
    ),
    (
        "check_negative_x_bound: counterexamples from one past the cut",
        VER,
        "range(max(lo, holds_to + 1), hi + 1)",
        "range(max(lo, holds_to + 2), hi + 1)",
        f"{T_VER}::TestOneSignSource::test_negative_x_bound_cut_on_faulty_runs",
    ),
    (
        "signed_links: the sign filter drops the first sign asked for",
        VER,
        "if sign in signs:",
        "if sign in signs[1:]:",
        f"{T_VER}::TestReach::test_negative_x_bound_at_one_billion",
    ),
    (
        # not run against check_negative_x_bound at 10**9: it would list
        # every n of the positive tail, about 10**9 ints, as counterexamples
        "signed_links: no sign filter",
        VER,
        "if sign in signs:",
        "if True:",
        f"{T_VER}::TestSignedLinks::test_negative_runs_walk_no_link_past_368",
    ),
    (
        "check_positive_tail: tail read from one past its start",
        VER,
        "_mismatches(part.runs, [(start, limit, 1)])",
        "_mismatches(part.runs, [(start + 1, limit, 1)])",
        f"{T_VER}::TestOneSignSource",
    ),
    (
        "APPROXIMATIONS: delta_d over two steps",
        ANA,
        "return d_real(n + 3) - d_real(n)",
        "return d_real(n + 2) - d_real(n)",
        f"{T_ANA}::TestApproximations",
    ),
    (
        "check_roots: the scan stops at any positive flip without the predicate",
        ANA,
        "if prev < 0 and positive_beyond(coeffs, t):",
        "if prev < 0:",
        f"{T_ANA}::TestRootScan",
    ),
    (
        # the reports stay the same; only the F_eval calls grow
        "check_roots: the walk goes on past a proved tail",
        ANA,
        "positive_beyond(coeffs, t):\n                    break",
        "positive_beyond(coeffs, t):\n                    pass",
        f"{T_ANA}::TestRootScan::test_scan_stops_at_the_first_positive_grid_point",
    ),
    (
        # from t = 1 the scan also crosses y-upper's dip near the origin
        "ROOTS: y-upper's scan start 9 made 1",
        ANA,
        '"y-upper": (9, (324, 325)),',
        '"y-upper": (1, (324, 325)),',
        f"{T_ANA}::TestRootIsolation::test_check_roots_reports",
    ),
    (
        "isolate_root: the pair returned as (hi, lo)",
        ANA,
        "    return lo, hi\n",
        "    return hi, lo\n",
        f"{T_ANA}::TestRootIsolation::test_bisection_shrinks_to_tolerance",
    ),
    (
        "check_roots: width written as lo - hi",
        ANA,
        "width=hi - lo)",
        "width=lo - hi)",
        f"{T_ANA}::TestRootIsolation::test_check_roots_reports",
    ),
    (
        "positive_beyond: bitlen(t**Q) for bitlen(t**Q) - 1",
        ANA,
        "p = (t**q).bit_length() - 1",
        "p = (t**q).bit_length()",
        f"{T_ANA}::TestPositiveBeyond",
    ),
    (
        # the bounds then miss y-upper's first positive grid point, 325
        "LOG_SCALE: 2**7 for 2**8",
        ANA,
        "LOG_SCALE = 1 << 8",
        "LOG_SCALE = 1 << 7",
        f"{T_ANA}::TestPositiveBeyond::test_named_instances_against_the_exact_reference",
    ),
    (
        "positive_beyond: r for r + 1 in the sqrt upper bound",
        ANA,
        "- 3 * (b * q + p + 1) * (r + 1)",
        "- 3 * (b * q + p + 1) * r",
        f"{T_ANA}::TestPositiveBeyond",
    ),
    (
        # sound at integer t >= 3 as well, since sqrt(3) ln 7 > 2 sqrt(2);
        # test_convexity_guard pins the guard the docstring proves
        "positive_beyond: 7**c for 9**c in the convexity guard",
        ANA,
        "(t << b) < 9**c",
        "(t << b) < 7**c",
        f"{T_ANA}::TestPositiveBeyond",
    ),
    (
        "_with_exact_y: P multiplied by one power of two too many",
        CLI,
        "p = ctx.multiply(p, 1 << (gap - e))",
        "p = ctx.multiply(p, 1 << (gap - e + 1))",
        f"{T_CLI}::TestSeq",
    ),
    (
        "_with_exact_y: P not recomputed when e falls",
        CLI,
        "            else:\n                p = ctx.power(2, gap)",
        "            elif e is None:\n                p = ctx.power(2, gap)",
        f"{T_CLI}::TestSeq",
    ),
    (
        "_with_exact_y: its lazy rows, each with its y, made a list",
        CLI,
        "_line_texts, _with_exact_y(sequences.scan(start, stop)))",
        "_line_texts, list(_with_exact_y(sequences.scan(start, stop))))",
        f"{T_CLI}::TestStreamedOutput::test_blocks_hold_little",
    ),
    (
        "scan_pieces: a piece one row short of its link",
        SEQ,
        "ns = range(a, b + 1)",
        "ns = range(a, b)",
        f"{T_SEQ}::TestScanPieces::test_pieces_tile_the_range_in_link_pieces",
    ),
    (
        "piece_rows: x's offset taken as r*m",
        SEQ,
        "off = (rr + 1) * mm",
        "off = rr * mm",
        f"{T_SEQ}::TestRows",
    ),
    (
        "piece_rows: c taken at n + 1",
        SEQ,
        "zz, cc = z(n), c(n)",
        "zz, cc = z(n), c(n + 1)",
        f"{T_SEQ}::TestRows {T_SEQ}::TestScanPieces",
    ),
    (
        "cmd_verify: --limit 0 let through to the checks",
        CLI,
        "if limit < 1:",
        "if limit < 0:",
        f"{T_CLI}::TestVerify::test_low_limit_exits_2",
    ),
    (
        "cmd_verify: --limit 0 taken for no --limit",
        CLI,
        "limit = DEFAULT_LIMIT if args.limit is None else args.limit",
        "limit = args.limit or DEFAULT_LIMIT",
        f"{T_CLI}::TestVerify::test_low_limit_exits_2",
    ),
    (
        "_line_texts: every row formatted at once, every y with them",
        CLI,
        "return map(line.__mod__, rows)",
        'return ["".join(map(line.__mod__, rows))]',
        f"{T_CLI}::TestStreamedOutput::test_blocks_hold_little",
    ),
    (
        "_digits: a place's period taken 10 times too short",
        CLI,
        "period = unit * p\n",
        "period = unit * p // 10\n",
        f"{T_CLI}::TestDigitPatterns",
    ),
    (
        "_piece_texts: x's and c - m's shift 3q read as 2q",
        CLI,
        "j = lo - 3 * (off >> 1)",
        "j = lo - 2 * (off >> 1)",
        f"{T_CLI}::TestStreamedOutput::test_seq_matches_row_by_row_emitter[990-1010-False-csv]",
    ),
    (
        "_piece_texts: the odd part e of an offset dropped",
        CLI,
        "pats[off & 1]",
        "pats[0]",
        f"{T_CLI}::TestStreamedOutput::test_seq_matches_row_by_row_emitter[2995-3010-False-json]",
    ),
    (
        "_piece_texts: a width cut one n late",
        CLI,
        "col[1](10 ** sizes[cell] - 1) + 1",
        "col[1](10 ** sizes[cell] - 1) + 2",
        f"{T_CLI}::TestStreamedOutput::test_seq_matches_row_by_row_emitter[14984-15004-False-csv]",
    ),
    (
        "_piece_texts: a thousand run starting one row late",
        CLI,
        "last(1000 * high + off - 1) + 1, high - 1, high)",
        "last(1000 * high + off - 1) + 2, high - 1, high)",
        f"{T_CLI}::TestStreamedOutput::test_seq_matches_row_by_row_emitter[14984-15004-False-json]",
    ),
    (
        "_piece_texts: a piece with x < 0 written in fixed width",
        CLI,
        "sequences.x(s) < 0:",
        "sequences.x(s) < -1:",
        f"{T_CLI}::TestStreamedOutput::test_seq_matches_row_by_row_emitter[400-600-False-csv]",
    ),
    (
        "_piece_texts: m's cell not rewritten at a link start inside a part",
        CLI,
        "restamp(ends[2] - 1, lo, mm, m2)",
        "pass",
        f"{T_CLI}::TestStreamedOutput::test_seq_matches_row_by_row_emitter[2040-2060-False-csv]",
    ),
    (
        "_piece_texts: x's offset taken from the part's first link",
        CLI,
        "xk = fill(5, zcol, (rr + 1) * mm,",
        "xk = fill(5, zcol, (cells[3] + 1) * cells[2],",
        f"{T_CLI}::TestStreamedOutput::test_seq_matches_row_by_row_emitter[4087-4107-False-csv]",
    ),
    (
        "_piece_texts: a part runs across x's width drop",
        CLI,
        "and xl <= xs < xh",
        "and xs < xh",
        f"{T_CLI}::TestStreamedOutput::test_seq_matches_row_by_row_emitter[790-810-False-csv]",
    ),
    (
        "_piece_texts: a part's bytearray held beside its text at the yield",
        CLI,
        'buf = buf.decode("ascii")  # a paused generator holds only the text\n        yield buf\n',
        'yield buf.decode("ascii")\n',
        f"{T_CLI}::TestStreamedOutput::test_blocks_hold_little",
    ),
    (
        "cmp_pow2_vs_pow: GT fast path one bit loose",
        EXA,
        "if e >= bits * k:",
        "if e >= bits * k - 1:",
        f"{T_EXA}::TestCmp::test_small_grid_against_direct",
    ),
    (
        "cmp_pow2_vs_pow: LT fast path one bit loose",
        EXA,
        "if e <= (bits - 1) * k and",
        "if e <= (bits - 1) * k + 1 and",
        f"{T_EXA}::TestCmp::test_small_grid_against_direct",
    ),
    (
        "cmp_pow2_vs_pow: the power-of-two guard of the LT fast path dropped",
        EXA,
        " and n != 1 << (bits - 1)",
        "",
        f"{T_EXA}::TestCmp::test_power_of_two_base_edge",
    ),
    (
        "check_gap: a gap of 5 from n = 10 counted as below 5",
        VER,
        "(gap < 5 and n >= 10)",
        "(gap <= 5 and n >= 10)",
        f"{T_VER}::TestRewrittenChecksAgainstPerN::test_gap_counterexamples_on_raised_links",
    ),
    (
        "check_gap: the below-5 claim read from n = 9",
        VER,
        "(gap < 5 and n >= 10)",
        "(gap < 5 and n >= 9)",
        f"{T_VER}::TestRewrittenChecksAgainstPerN::test_gap_counterexamples_on_raised_links",
    ),
    (
        "check_gap: n = 2 excused at a gap below 2",
        VER,
        "gap < 2 or (gap == 2 and n != 2)",
        "(gap <= 2 and n != 2)",
        f"{T_VER}::TestRewrittenChecksAgainstPerN::test_gap_counterexamples_on_raised_links",
    ),
    (
        "check_gap: a gap one above the least counted as a tie",
        VER,
        "if gap == min_gap:",
        "if gap <= min_gap + 1:",
        f"{T_VER}::TestRewrittenChecksAgainstPerN::test_gap_counterexamples_on_raised_links",
    ),
    (
        "check_range_bounds: the band's blocks counted one too many",
        VER,
        "decided_positive += blocks - walked",
        "decided_positive += blocks - walked + 1",
        f"{T_VER}::TestRewrittenChecksAgainstPerN::test_lemmas_across_the_band",
    ),
    (
        # the walk still ends at BAND_BASE, the end of its link
        "check_sign_criteria: L - 2111 for L - 2112 past the band",
        VER,
        'top = band_top("y", part.limit)',
        'top = band_top("y", part.limit) - 1',
        f"{T_VER}::TestRewrittenChecksAgainstPerN::test_lemmas_across_the_band",
    ),
    (
        "band_top: the band taken without band_certificate",
        VER,
        "return BAND_BASE if band_certificate(seq, limit) else limit",
        "return min(limit, BAND_BASE)",
        f"{T_VER}::TestBand::test_base_case_is_checked_at_run_time",
    ),
    (
        "erratum_for: the computed value ignored",
        VER,
        "return entry if entry is not None and entry.computed == computed else None",
        "return entry",
        f"{T_VER}::TestRegistry::test_erratum_for_matches_the_documented_correction",
    ),
    (
        "NAMED_INSTANCES: y-upper's c raised to 40",
        ANA,
        '"y-upper": (5, 1, 2),',
        '"y-upper": (5, 1, 40),',
        f"{T_ANA}::TestEnvelopeIdentities",
    ),
    (
        "_check_envelopes: the upper instance's coefficients read on both sides",
        ANA,
        "point = _off_identity(terms, NAMED_INSTANCES[name], sign, value)",
        "point = _off_identity(terms, NAMED_INSTANCES[upper[0]], sign, value)",
        f"{T_ANA}::TestExactIdentities::test_named_instances_hold",
    ),
    (
        "interval_table: x_hi yielded before x_lo",
        INT,
        "(index, lo, hi, rr, mm, sequences.x(lo), sequences.x(hi))",
        "(index, lo, hi, rr, mm, sequences.x(hi), sequences.x(lo))",
        f"{T_INT}::TestChain::test_golden_chain",
    ),
    (
        "check_sign_consistency: the counterexample test made >= 1e-6",
        ANA,
        "if not sign * y > 1e-6)",
        "if not sign * y >= 1e-6)",
        f"{T_ANA}::TestCandidateRoute::test_float_floor_on_both_signs",
    ),
    (
        "check_sign_consistency: the sign walk stops at 2111",
        ANA,
        "for n in range(lo, hi + 1)]",
        "for n in range(lo, min(hi, top - 1) + 1)]",
        f"{T_ANA}::TestSignWalk::test_reads_no_n_past_the_base",
    ),
    (
        "check_sign_consistency: the minimum of |Y| taken from n >= 4",
        ANA,
        "if n >= 5)))",
        "if n >= 4)))",
        f"{T_ANA}::TestCandidateRoute::test_every_limit_to_600",
    ),
    (
        "identity_margin: rho/3 for (1 - rho/3) in x-upper",
        ANA,
        "return (3 - rho) / 3 + math.log2(2 * n) * above",
        "return rho / 3 + math.log2(2 * n) * above",
        f"{T_ANA}::TestEnvelopeIdentities::test_identity_margin_in_floats",
    ),
    (
        "identity_margin: s + m + 1 for s + m",
        ANA,
        "below = (2 * n - mm * mm) / (s + mm)",
        "below = (2 * n - mm * mm) / (s + mm + 1)",
        f"{T_ANA}::TestEnvelopeIdentities::test_identity_margin_in_floats",
    ),
    (
        "_walk: stops after the first block",
        ANA,
        "        least = min(points.values())\n    return points",
        "        least = min(points.values())\n        break\n    return points",
        f"{T_ANA}::TestCandidateRoute::test_x_upper_walk_holds_five",
    ),
    (
        "_walk: never stops",
        ANA,
        "        if bound > least * (1 + 4 * IDENTITY_ERROR):",
        "        if False:",
        f"{T_ANA}::TestCandidateRoute::test_candidates_stay_flat",
    ),
    (
        "_y_upper_points: the n <= 7 not taken",
        ANA,
        "chain([(range(1, min(limit, 7) + 1), 0)], blocks)",
        "blocks",
        f"{T_ANA}::TestCandidateRoute::test_every_limit_to_600",
    ),
    (
        "_x_upper_points: the walk starts below hi",
        ANA,
        "ends = chain([hi],",
        "ends = chain([hi - 1],",
        f"{T_ANA}::TestCandidateRoute::test_against_the_link_walk",
    ),
    (
        "_x_lower_points: a link's candidates cut to its first n",
        ANA,
        "(range(a, min(a + 2, hi) + 1),",
        "(range(a, a + 1),",
        f"{T_ANA}::TestCandidateRoute::test_x_lower_window_holds_twenty",
    ),
    (
        "_y_lower_points: the tie at the largest n",
        ANA,
        "n = min(limit, 2)",
        "n = max((k * k // 2 for k in range(2, math.isqrt(2 * limit) + 1, 2) "
        "if k * k // 2 % 3 == 2), default=1)",
        f"{T_ANA}::TestSandwich::test_y_lower_margin_ties_at_two_thirds",
    ),
    (
        "IDENTITIES: the coefficient of m(r - L) in x-upper raised by 1",
        ANA,
        '(1, "m", "r - L")',
        '(2, "m", "r - L")',
        f"{T_ANA}::TestExactIdentities::test_named_instances_hold",
    ),
    (
        "IDENTITIES: the term s(L - r + 1) of x-lower dropped",
        ANA,
        ', (1, "s", "L - r + 1")),',
        "),",
        f"{T_ANA}::TestExactIdentities::test_named_instances_hold",
    ),
    (
        "_off_identity: the grid cut to L = 1",
        ANA,
        "(1, 2), (1, 2)):",
        "(1, 2), (1,)):",
        f"{T_ANA}::TestExactIdentities::test_each_variable_takes_both_values",
    ),
    (
        "_off_identity: rho taken as (2n - 1) mod 3",
        ANA,
        '"rho": n % 3',
        '"rho": (2 * n - 1) % 3',
        f"{T_ANA}::TestExactIdentities::test_named_instances_hold",
    ),
    (
        "_check_envelopes: the report range not clipped to MARGINS_TOP",
        ANA,
        "top = min(limit, MARGINS_TOP)\n",
        "top = limit\n",
        f"{T_ANA}::TestMarginsTop",
    ),
    (
        "DEFAULT_LIMIT: one below the band's base",
        CLI,
        "DEFAULT_LIMIT = 10**5",
        "DEFAULT_LIMIT = 2111",
        f"{T_CLI}::TestSuiteTable::test_default_run_certifies_both_theorems",
    ),
    (
        "_parse_args: an int value left as a string",
        CLI,
        "value = int(value)",
        "int(value)",
        f"{T_CLI}::TestParser::test_reads_argv_as_argparse_did",
    ),
    (
        "_parse_args: a choice not checked",
        CLI,
        "elif value not in kind:",
        "elif False:",
        f"{T_CLI}::TestParser::test_reads_argv_as_argparse_did",
    ),
    (
        "_parse_args: the =value split dropped",
        CLI,
        'flag, eq, value = tok.partition("=")',
        'flag, eq, value = tok, "", ""',
        f"{T_CLI}::TestParser::test_reads_argv_as_argparse_did",
    ),
    (
        "f_bounds: the r block left out",
        INT,
        "return max(d1, e1), min(d2, e2)",
        "return d1, d2",
        f"{T_INT}::TestBounds::test_f_bounds_is_intersection",
    ),
]

KNOWN_SURVIVORS = [
    (
        "_with_exact_y: P recomputed by one power at every rise of e",
        CLI,
        "p = ctx.multiply(p, 1 << (gap - e))",
        "p = ctx.power(2, gap)",
        f"{T_CLI}::TestSeq",
        "equivalent: P is 2**e either way, so only the time of seq --exact-y "
        "changes, which the benchmark measures and no test does",
    ),
]

# Written into each copy: records which ineqscan the tests imported.
ORIGIN_CONFTEST = '''\
import os
import sys


def pytest_sessionfinish(session):
    mod = sys.modules.get("ineqscan")
    with open(os.environ["MUTANT_ORIGIN"], "w") as fh:
        fh.write(getattr(mod, "__file__", None) or "")
'''


def make_copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "conftest.py").write_text(ORIGIN_CONFTEST)


def mutated(root: Path, file: str, old: str, new: str) -> str:
    """The text of root/file with its one occurrence of old made new."""
    text = (root / file).read_text()
    count = text.count(old)
    if count != 1:
        raise LookupError(f"{file}: old text found {count} times, not once: {old!r}")
    return text.replace(old, new)


def run_pytest(copy: Path, selectors: list) -> tuple:
    """Run pytest -x -q in copy; return (outcome, seconds, output tail).
    outcome is "passed", "failed" or "timeout"."""
    origin = copy / "origin.txt"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["MUTANT_ORIGIN"] = str(origin)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selectors]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=copy,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", time.monotonic() - t0, ""
    seconds = time.monotonic() - t0
    tail = "\n".join(out.strip().splitlines()[-3:])
    if proc.returncode != 0:
        return "failed", seconds, tail
    imported = origin.read_text() if origin.exists() else ""
    if not imported or not Path(imported).resolve().is_relative_to(copy.resolve()):
        raise RuntimeError(f"the tests imported ineqscan from {imported!r}, not from {copy}")
    return "passed", seconds, tail


def main() -> int:
    missing = 0
    for name, file, old, new, *_ in MUTANTS + KNOWN_SURVIVORS:
        try:
            mutated(ROOT, file, old, new)
        except LookupError as err:
            print(f"MISSING  {name}: {err}")
            missing += 1
    if missing:
        return 1
    t0 = time.monotonic()
    survived = 0
    with tempfile.TemporaryDirectory(prefix="ineqscan-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        make_copy(base)
        selectors = sorted({sel for e in MUTANTS for sel in e[4].split()})
        outcome, seconds, tail = run_pytest(base, selectors)
        print(f"baseline {outcome} in {seconds:.1f} s ({len(selectors)} selectors)")
        if outcome != "passed":
            print(tail)
            return 1
        for i, (name, file, old, new, selector) in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant-{i}"
            make_copy(copy)
            (copy / file).write_text(mutated(copy, file, old, new))
            outcome, seconds, _ = run_pytest(copy, selector.split())
            killed = outcome != "passed"
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {name} ({outcome} in {seconds:.1f} s)")
            shutil.rmtree(copy)
    for name, *_, reason in KNOWN_SURVIVORS:
        print(f"not run  {name}: known survivor, {reason}")
    print(
        f"{len(MUTANTS)} registered mutants, {survived} survived, "
        f"{time.monotonic() - t0:.0f} s in all"
    )
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
