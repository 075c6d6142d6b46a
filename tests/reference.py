"""The per-n specification: each claim of ineqscan stated one n at a time.

Every fast route (blockwise partitions, cut points, the envelope minima
from a few candidate n, the streamed emitters, the root scan that stops
early) is checked against a route here.  The routes on integer data read one row
source: row(n) computes (n, z, m, r, c, x, c - m, y sign) straight from
README's definitions with math.isqrt, // and bit_length, and takes y's
sign from exactarith.cmp_pow2_vs_pow, which test_exactarith checks
against plain big-int comparison.  rows(limit) yields row(n) on
[1, limit] from a table kept once per session: one array('i') per
column, built on demand up to the largest limit asked for, through
TABLE_TOP.

reference_partition_x and reference_partition_y are the per-link walks
the partitions made over every link before the band: O(links), so they
reach 10**9, and test_verifier checks them against per_n_runs.
link_walk_bounds_x and link_walk_bounds_Y are the per-link walk the
envelope checks made before their identities, O(links) as well, and
test_analytic checks them against the per-n references.
build_parser is the argparse tree the command line was read by before
cli.COMMANDS, and test_cli checks cli's parser against it.

Nothing here imports sequences, intervals or cli, nor any partition_*,
check_*, scan* or chain_links: the code under test (test_reference
holds it to that).  It takes verifier's report plumbing and printed
constants and analytic's envelope definitions.  Only what depends on n
and limit alone is cached; a constant a test may patch is read at call
time.  The name keeps pytest from collecting this file.
"""

import argparse
import json
import math
import re
import sys
from array import array
from contextlib import contextmanager
from functools import cache
from itertools import chain, count, groupby
from operator import itemgetter

from ineqscan import analytic, verifier
from ineqscan.exactarith import cmp_pow2_vs_pow

TABLE_TOP = 10**6  # rows kept for the session; rows past it are recomputed
CHUNK = 1 << 12  # rows built at a time as tuples, while the table grows

# Every column of row(n) but n, for n = 1, 2, ..., as exactly sized arrays
# of 4-byte ints: 28 bytes a row.
_columns = [array("i") for _ in range(7)]


def row(n):
    """(n, z, m, r, c, x, c - m, sign of y) at n, from the definitions."""
    z = (2 * n - 1) // 3
    m = math.isqrt(2 * n)
    r = (n - 1).bit_length()
    c = 2 * n - 2 * z + 2
    return n, z, m, r, c, z - (r + 1) * m, c - m, cmp_pow2_vs_pow(c - m, n, m - 1)


def y(n):
    """The exact y(n) = 2**(c - m) - n**(m - 1)."""
    _, _, m, _, _, _, gap, _ = row(n)
    return (1 << gap) - n ** (m - 1)


def _grow_table(top):
    """Extend the columns through row(top): each is resized once, exactly,
    and filled a chunk of rows at a time."""
    have = len(_columns[0])
    if top <= have:
        return
    for i, column in enumerate(_columns):
        _columns[i] = column + array("i", [0]) * (top - have)
    for start in range(have + 1, top + 1, CHUNK):
        stop = min(start + CHUNK, top + 1)
        _, *values = zip(*map(row, range(start, stop)))
        for column, chunk in zip(_columns, values):
            column[start - 1 : stop - 1] = array("i", chunk)


def rows(limit):
    """row(n) for each n in [1, limit], in order."""
    kept = min(limit, TABLE_TOP)
    _grow_table(kept)
    return chain(
        zip(range(1, kept + 1), *_columns), map(row, range(TABLE_TOP + 1, limit + 1))
    )


def _push(runs, a, b, sign):
    """Extend runs by [a, b] with sign, merging a repeated sign; an empty
    [a, b] adds nothing."""
    if a > b:
        return
    if runs and runs[-1][2] == sign:
        runs[-1][1] = b
    else:
        runs.append([a, b, sign])


@cache
def per_n_runs(limit):
    """The signs of x and of y at every n of [1, limit], each folded into
    (start, end, sign) runs: the oracle for the blockwise partitions."""
    xs, ys = [], []
    for n, _, _, _, _, xx, _, ysign in rows(limit):
        _push(xs, n, n, (xx > 0) - (xx < 0))
        _push(ys, n, n, ysign)
    return tuple(map(tuple, xs)), tuple(map(tuple, ys))


@cache
def reference_links(limit):
    """(lo, hi, r, m) of each maximal run of n in [1, limit] on which m
    and r are both constant, the last clipped to limit.  m and r come
    from row(lo); the run ends at the last n of that m, (m*m + 2m) // 2
    (as 2n < (m + 1)**2), or of that r, 2**r, whichever comes first."""
    links = []
    lo = 1
    while lo <= limit:
        _, _, mm, rr, *_ = row(lo)
        hi = min((mm * mm + 2 * mm) // 2, 1 << rr, limit)
        links.append((lo, hi, rr, mm))
        lo = hi + 1
    return tuple(links)


def reference_partition_x(limit):
    """partition_x as a walk over every link: on a link x = z - K with
    K = (r + 1)m and z = (2n - 1) // 3 rising, so x < 0 exactly while
    2n <= 3K and x <= 0 while 2n <= 3K + 3.  blocks counts the links."""
    runs = []
    links = reference_links(limit)
    for lo, hi, rr, mm in links:
        k = (rr + 1) * mm
        neg_end, zero_end = 3 * k // 2, (3 * k + 3) // 2
        _push(runs, lo, min(hi, neg_end), -1)
        _push(runs, max(lo, neg_end + 1), min(hi, zero_end), 0)
        _push(runs, max(lo, zero_end + 1), hi, 1)
    return verifier.SignPartition(limit, tuple(map(tuple, runs)), blocks=len(links))


def reference_partition_y(limit):
    """partition_y as a walk over every link: positive as a whole when
    m >= 2 and c(lo) - m >= bitlen(hi)(m - 1), else y's sign at each n."""
    runs = []
    blocks = per_n = 0
    for lo, hi, _, mm in reference_links(limit):
        if mm >= 2 and row(lo)[4] - mm >= hi.bit_length() * (mm - 1):
            blocks += 1
            _push(runs, lo, hi, 1)
            continue
        per_n += hi - lo + 1
        for n in range(lo, hi + 1):
            _push(runs, n, n, row(n)[7])
    return verifier.SignPartition(limit, tuple(map(tuple, runs)), blocks=blocks, per_n=per_n)


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
    return [n for a, b, s in runs for n in range(a, b + 1) if expected_x_sign(n) != s]


def per_n_y_counterexamples(runs):
    """Theorem 2's comparison, one n at a time; y = 0 never holds."""
    return [
        n for a, b, s in runs for n in range(a, b + 1) if s == 0 or expected_y_sign(n) != s
    ]


def reference_gap(limit, gaps=None):
    """check_gap: the gap c - m read at every n, from rows(limit) or else
    from gaps, the (n, gap) pairs for n = 1 to limit."""
    if gaps is None:
        gaps = ((n, gap) for n, _, _, _, _, _, gap, _ in rows(limit))
    counterexamples, min_gap_at = [], []
    min_gap = min_gap_from_10 = None
    for n, gap in gaps:
        if min_gap is None or gap < min_gap:
            min_gap, min_gap_at = gap, [n]
        elif gap == min_gap:
            min_gap_at.append(n)
        if n >= 10 and (min_gap_from_10 is None or gap < min_gap_from_10):
            min_gap_from_10 = gap
        # each n that breaks either claim, once
        if (n >= 10 and gap < 5) or gap < 2 or (gap == 2 and n != 2):
            counterexamples.append(n)
    if min_gap_from_10 is None:
        tail = "no n >= 10 is in range"
    else:
        tail = f"min gap over n >= 10 is {min_gap_from_10}"
    details = f"min gap {min_gap} attained exactly at {min_gap_at}; {tail}"
    data = {"min_gap": min_gap, "min_gap_at": min_gap_at, "min_gap_from_10": min_gap_from_10}
    return verifier.make_report(
        "lemmas/gap", 1, limit, details, counterexamples=counterexamples, data=data
    )


def reference_sign_criteria(limit):
    """check_sign_criteria: both criteria tested at every n."""
    counterexamples = []
    applies_negative = applies_positive = 0
    for n, _, mm, rr, cc, _, _, ysign in rows(limit):
        threshold = rr * (mm - 1)
        if cc <= threshold + 1:
            applies_negative += 1
            if ysign != -1:
                counterexamples.append(n)
        elif cc > threshold + mm:
            applies_positive += 1
            if ysign != 1:
                counterexamples.append(n)
    verdict = verifier.plural(len(counterexamples), "contradiction")
    details = (
        f"negative criterion applies to {applies_negative} values, "
        f"positive criterion to {applies_positive}; "
        + (verdict if counterexamples else "no contradictions")
    )
    data = {"applies_negative": applies_negative, "applies_positive": applies_positive}
    return verifier.make_report(
        "lemmas/sign-criteria", 1, limit, details, counterexamples=counterexamples, data=data
    )


def reference_negative_x_bound(limit):
    """check_negative_x_bound: x <= -r - 3 <= -6 tested at every n with y <= 0."""
    held = [(n, xx <= -rr - 3 <= -6) for n, _, _, rr, _, xx, _, s in rows(limit) if s <= 0]
    return verifier.make_report(
        "lemmas/negative-x-bound",
        1,
        limit,
        f"bound checked at {len(held)} values with y <= 0",
        counterexamples=[n for n, ok in held if not ok],
        data={"applicable": len(held)},
    )


def reference_range_bounds(limit, every_y=True):
    """check_range_bounds: the endpoint bounds of each constant-m block
    built in full, and, with every_y, compared with every y of the block,
    built too.  That costs about limit**2 (0.5 s at 2**16, 2 s at 2**17),
    so longer limits read the bounds alone."""
    counterexamples = []
    blocks = decided_negative = decided_positive = 0
    for mm, block in groupby(rows(limit), key=itemgetter(2)):
        block = list(block)
        (a, _, _, _, ca, _, _, _), (b, _, _, _, cb, _, _, _) = block[0], block[-1]
        low = (1 << (ca - mm)) - b ** (mm - 1)
        high = (1 << (cb - mm)) - a ** (mm - 1)
        blocks += 1
        decided_negative += high < 0
        decided_positive += low > 0
        prev_c = prev_y = None
        for n, _, _, _, cc, _, _, _ in block if every_y else ():
            yv = y(n)
            if not low <= yv <= high:
                counterexamples.append(n)
            if high < 0 and not yv < 0:
                counterexamples.append(n)
            if low > 0 and not yv > 0:
                counterexamples.append(n)
            if prev_c == cc and not yv < prev_y:
                counterexamples.append(n)
            prev_c, prev_y = cc, yv
    decided = (
        f"{decided_negative} blocks decided negative and "
        f"{decided_positive} decided positive by their bounds alone"
    )
    if counterexamples:
        details = (
            f"{blocks} constant-m blocks; "
            f"{verifier.plural(len(counterexamples), 'counterexample')} to the "
            f"enclosure, the block sign or the decrease; {decided}"
        )
    else:
        details = (
            f"{blocks} constant-m blocks; endpoint bounds enclose every y; "
            f"{decided}; y strictly decreases whenever m and c both repeat"
        )
    data = {
        "blocks": blocks,
        "decided_negative": decided_negative,
        "decided_positive": decided_positive,
    }
    return verifier.make_report(
        "lemmas/range-bounds", 1, limit, details, counterexamples=counterexamples, data=data
    )


def _Y(n, mm, gap):
    """The float surrogate of y's sign, (c - m) - (m - 1) log2 n."""
    return gap - (mm - 1) * math.log2(n)


def float_noise(limit):
    """A bound on the float error of every envelope margin F_eval gives on
    [1, limit], which the comparisons with the references allow:

        2**-48 (L + sqrt(2L)(log2 L + 2) + 6),  L = limit.

    A margin v - F or F - v at n <= L sums the five terms of F_eval and
    those of v (x is exact; Y's c - m is exact, less (m - 1) log2 n).
    With unit roundoff u = 2**-53, sqrt correctly rounded and log2 within
    an ulp, each term is within 5u of itself and each of at most six
    additions rounds once, by u of its result (Higham, Accuracy and
    Stability of Numerical Algorithms, SIAM 2002, ch. 1).  Terms, partial
    sums and margin are at most 2G, G = 2L/3 + 5 + sqrt(2L)(log2 L + 4),
    for the named instances, so a margin is off by at most 17u G, below
    the bound.  TestFloatNoise checks it against 80-digit margins."""
    return 2.0**-48 * (limit + math.sqrt(2 * limit) * (math.log2(limit) + 2) + 6)


def _margins_report(claim_id, what, limit, counterexamples, low, up):
    """An envelope report from its counterexamples and the least
    (margin, n) on each side."""
    (min_low, min_low_at), (min_up, min_up_at) = low, up
    if counterexamples:
        base = f"envelopes not strict around {what} at "
        base += verifier.plural(len(counterexamples), "value")
    else:
        base = f"both envelopes strict around {what}"
    details = (
        f"{base}; smallest lower margin {min_low:.6f} at n = {min_low_at}, "
        f"smallest upper margin {min_up:.6f} at n = {min_up_at}"
    )
    data = {"min_lower_margin": min_low, "min_upper_margin": min_up}
    return verifier.make_report(
        claim_id, 1, limit, details, counterexamples=counterexamples, data=data
    )


def _reference_margins(claim_id, what, lower, upper, limit, values):
    """Both envelope margins of a value at every (n, value), from F_eval;
    lower and upper name the two instances in analytic.NAMED_INSTANCES."""
    lower, upper = analytic.NAMED_INSTANCES[lower], analytic.NAMED_INSTANCES[upper]
    counterexamples = []
    low = up = (math.inf, None)
    for n, value in values:
        n_low = (value - analytic.F_eval(lower, n), n)
        n_up = (analytic.F_eval(upper, n) - value, n)
        if n_low[0] <= 0 or n_up[0] <= 0:
            counterexamples.append(n)
        low, up = min(low, n_low), min(up, n_up)
    return _margins_report(claim_id, what, limit, counterexamples, low, up)


def reference_bounds_x(limit):
    """check_bounds_x: both envelopes of x evaluated at every n."""
    values = ((n, xx) for n, _, _, _, _, xx, _, _ in rows(limit))
    return _reference_margins(
        "analytic/x-bounds", "x", "x-lower", "x-upper", limit, values
    )


def reference_bounds_Y(limit):
    """check_bounds_Y: both envelopes of Y evaluated at every n."""
    values = ((n, _Y(n, mm, gap)) for n, _, mm, _, _, _, gap, _ in rows(limit))
    return _reference_margins(
        "analytic/Y-bounds", "the y surrogate", "y-lower", "y-upper", limit, values
    )


def _link_walk(claim_id, what, lower, upper, limit, value):
    """An envelope check as a walk over every chain link, from F_eval's
    margins at a few n of each: O(links) where the per-n references are
    O(limit), so it reaches 10**7 in a fraction of a second.

    On each residue class mod 3 of a link the lower margins rise and the
    upper ones fall, from n = 2 on (tests/test_analytic.py,
    TestEnvelopeIdentities), so a link's least lower margin is at one of
    its first three n and its least upper margin at one of its last
    three.  A link with a margin <= 0 there is stepped per n, so the
    counterexamples are those of the per-n walk.  The least (margin, n)
    keeps the first n of a tie.  lower and upper name the two instances
    in analytic.NAMED_INSTANCES."""
    lower, upper = analytic.NAMED_INSTANCES[lower], analytic.NAMED_INSTANCES[upper]
    counterexamples = []
    low = up = (math.inf, None)

    def margins(firsts, lasts):
        lows = [(value(n) - analytic.F_eval(lower, n), n) for n in firsts]
        ups = [(analytic.F_eval(upper, n) - value(n), n) for n in lasts]
        return lows, ups

    for a, b, _, _ in reference_links(limit):
        link = range(a, b + 1)
        lows, ups = margins(link[:3], link[-3:])
        if not all(margin > 0 for margin, _ in lows + ups):
            lows, ups = margins(link, link)
        counterexamples.extend(sorted({n for margin, n in lows + ups if margin <= 0}))
        low, up = min((low, *lows)), min((up, *ups))
    return _margins_report(claim_id, what, limit, counterexamples, low, up)


def link_walk_bounds_x(limit):
    """check_bounds_x by _link_walk."""
    return _link_walk(
        "analytic/x-bounds", "x", "x-lower", "x-upper", limit, lambda n: row(n)[5]
    )


def link_walk_bounds_Y(limit):
    """check_bounds_Y by _link_walk."""

    def value(n):
        _, _, mm, _, _, _, gap, _ = row(n)
        return _Y(n, mm, gap)

    return _link_walk(
        "analytic/Y-bounds", "the y surrogate", "y-lower", "y-upper", limit, value
    )


def reference_sign_consistency(limit):
    """check_sign_consistency: the float sign of Y against y's at every n."""
    counterexamples = []
    min_abs, min_abs_at = math.inf, None
    for n, _, mm, _, _, _, gap, ysign in rows(limit):
        yy = _Y(n, mm, gap)
        if n >= 5 and abs(yy) < min_abs:
            min_abs, min_abs_at = abs(yy), n
        if abs(yy) <= 1e-6 or (1 if yy > 0 else -1) != ysign:
            counterexamples.append(n)
    if counterexamples:
        details = "float surrogate sign differs from the exact sign at "
        details += verifier.plural(len(counterexamples), "value")
    else:
        details = "float surrogate sign matches the exact sign everywhere"
    if min_abs_at is None:
        min_abs = None
    else:
        details += f"; smallest |Y| over [5, {limit}] is {min_abs:.6f} at n = {min_abs_at}"
    data = {"min_abs_Y": min_abs, "min_abs_Y_at": min_abs_at}
    return verifier.make_report(
        "analytic/sign-consistency", 1, limit, details, counterexamples=counterexamples, data=data
    )


def reference_check_roots():
    """check_roots with each float grid walked to ROOT_SCAN_HI, and no
    tail certificate."""
    reports = []
    hi = analytic.ROOT_SCAN_HI
    for name, (start, printed) in analytic.ROOTS.items():
        coeffs = analytic.NAMED_INSTANCES[name]
        signs = [analytic.F_eval(coeffs, t) < 0 for t in range(start, hi + 1)]
        flips = [start + i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
        data = {"flips": flips, "scan_start": start, "scan_hi": hi}
        errata = []
        if len(flips) != 1:
            counterexamples = [f"{len(flips)} sign changes at {flips}"]
            details = f"expected one sign change on [{start}, {hi}]"
        else:
            lo_t, hi_t = bracket = (flips[0] - 1, flips[0])
            _, errata, counterexamples = verifier.compare_printed(
                "root-bracket", [("bracket", name, bracket, printed)]
            )
            root_lo, root_hi = analytic.isolate_root(coeffs, float(lo_t), float(hi_t))
            data.update(
                bracket=[lo_t, hi_t], root_lo=root_lo, root_hi=root_hi, width=root_hi - root_lo
            )
            details = (
                f"one sign change on [{start}, {hi}]; root inside ({lo_t}, {hi_t}), "
                f"bisected to [{root_lo:.12f}, {root_hi:.12f}]"
            )
        reports.append(
            verifier.make_report(
                f"roots/{name}",
                start,
                hi,
                details,
                counterexamples=counterexamples,
                errata=errata,
                data=data,
            )
        )
    return reports


@contextmanager
def unlimited_int_digits():
    """Printing or parsing a big y needs the int <-> str digit cap lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def reference_table(records, columns, fmt):
    """Print dict records the way seq and intervals did before they
    streamed: the whole table built first, then printed."""
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    lines = [columns] + [[str(rec[col]) for col in columns] for rec in records]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in lines)
    widths = [max(map(len, cells)) for cells in zip(*lines)]
    return "".join("  ".join(map(str.rjust, line, widths)) + "\n" for line in lines)


@cache
def y_text(n):
    """str(y(n)), kept for the session: csv and text print the same exact
    y, and str() of an int is quadratic in its digits on Python 3.10 and
    3.11, about 0.2 s for the 105,000 digits of y near n = 525300."""
    with unlimited_int_digits():
        return str(y(n))


def reference_seq(start, stop, exact_y, fmt):
    """seq output from one row(n) per n, kept as dicts, each y as its kept
    text.  JSON writes an int as its str(), so json prints y's text where
    json.dumps put it as a string, without the quotes."""
    columns = ["n", "z", "m", "r", "c", "x", "c_minus_m", "y_sign"] + ["y"] * exact_y
    records = [
        dict(zip(columns, row(n) + ((y_text(n),) if exact_y else ())))
        for n in range(start, stop + 1)
    ]
    text = reference_table(records, columns, fmt)
    if fmt == "json" and exact_y:
        text = re.sub(r'("y": )"(-?[0-9]+)"', r"\1\2", text)
    return text


def reference_intervals(limit, fmt):
    """intervals output: each maximal run of n with constant m and r that
    starts at or below limit, in full, with x at its two ends."""
    columns = ["index", "lo", "hi", "r", "m", "x_lo", "x_hi"]
    records = []
    links = groupby(map(row, count(1)), key=itemgetter(2, 3))
    for index, (_, link) in enumerate(links, start=1):
        link = list(link)
        (lo, _, mm, rr, _, x_lo, _, _), (hi, _, _, _, _, x_hi, _, _) = link[0], link[-1]
        if lo > limit:
            break
        records.append(dict(zip(columns, (index, lo, hi, rr, mm, x_lo, x_hi))))
    return reference_table(records, columns, fmt)


# The argparse tree of the command line before cli.COMMANDS, the oracle of
# cli's parser.  It names the suites and the command functions itself, as
# this module does not import cli; test_cli holds SUITES to cli.SUITES and
# each func to the name of cli's.
SUITES = ("table", "intervals", "theorem1", "theorem2", "lemmas", "analytic")
cmd_seq, cmd_intervals = "cmd_seq", "cmd_intervals"
cmd_verify, cmd_roots = "cmd_verify", "cmd_roots"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ineqscan",
        description="Exact scans and envelope checks for the sign "
        "classification of two integer sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print the sequences over a range")
    p_seq.add_argument("--from", dest="start", type=int, default=1, metavar="N")
    p_seq.add_argument("--to", dest="stop", type=int, default=16, metavar="N")
    p_seq.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p_seq.add_argument(
        "--exact-y",
        action="store_true",
        help="include the exact y column (big integers)",
    )
    p_seq.set_defaults(func=cmd_seq)

    p_int = sub.add_parser("intervals", help="print the interval chain")
    p_int.add_argument("--limit", type=int, default=600, metavar="N")
    p_int.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p_int.set_defaults(func=cmd_intervals)

    p_ver = sub.add_parser("verify", help="run claim checks")
    p_ver.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
    )
    p_ver.add_argument("--limit", type=int, default=None, metavar="N")
    p_ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_ver.add_argument(
        "--strict",
        action="store_true",
        help="treat documented errata as failures",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_roots = sub.add_parser("roots", help="isolate the envelope roots")
    p_roots.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_roots.add_argument("--strict", action="store_true")
    p_roots.set_defaults(func=cmd_roots)

    return parser
