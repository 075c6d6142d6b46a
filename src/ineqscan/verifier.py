"""Exhaustive exact verification of the library's claims.

This module carries the published reference values as embedded golden
tables, recomputes everything from the definitions, and reports the
outcome per claim.  Reference data is never silently corrected: a
printed value that contradicts the definitions is surfaced as a known
erratum entry carrying both the printed and the computed value, together
with a one-line justification.

Report statuses:

    CONFIRMED       computed values match the claim exactly
    KNOWN_ERRATUM   the only mismatches are the documented misprints
    DISCREPANCY     an undocumented mismatch; counterexamples listed

Any DISCREPANCY is a bug, either in the code or in the golden data, and
fails the test suite.  A report's status is DISCREPANCY exactly when its
counterexample list is non-empty, and its details state a claim as holding
only when that list is empty; otherwise they give the count.

This module compares no powers and builds no term of y itself: y's sign
runs come from sequences.positive_link and sequences.y_sign, the signs
of y's endpoint bounds from sequences.bound_signs, and the exact y of
the reference table from sequences.y_value.  It solves for no cut: each
n where z or c crosses a threshold on a link, and each constant-m block,
comes from sequences.z_last, c_last and m_block.

Both partitions, check_gap, check_range_bounds, check_sign_criteria and
analytic.check_sign_consistency walk [1, band_top(seq, limit)]: to
BAND_BASE = 2112 once limit reaches it, as an integer induction over
m-blocks, the band, settles the rest, which theorem1 and theorem2 carry
as data.certificate.  The checks that read y's sign runs (check_theorem2,
check_positive_tail, check_sign_criteria, check_negative_x_bound and
analytic.check_sign_consistency) take partition_y's SignPartition as
their argument, so a caller builds it once for all of them; the last
three walk its runs link by link through signed_links alone.
"""

from collections import namedtuple

from . import intervals, sequences

# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

CONFIRMED = "CONFIRMED"
KNOWN_ERRATUM = "KNOWN_ERRATUM"
DISCREPANCY = "DISCREPANCY"


class Erratum(namedtuple("Erratum", "item printed computed note")):
    """One documented misprint in the reference data."""

    __slots__ = ()


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "claim_id lo hi status details counterexamples errata data",
    )
):
    """Outcome of one claim check over an inclusive range [lo, hi].

    Built by make_report and immutable, so its status stays the one its
    evidence gives."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "range": [self.lo, self.hi],
            "status": self.status,
            "details": self.details,
            "counterexamples": list(self.counterexamples),
            "errata": [e._asdict() for e in self.errata],
            "data": self.data,
        }


def plural(count: int, noun: str) -> str:
    """The count followed by the noun, with an s unless the count is 1."""
    return f"{count} {noun}{'' if count == 1 else 's'}"


def make_report(claim_id, lo, hi, details, counterexamples=(), errata=(), data=None):
    """Build a report with the status derived from its evidence."""
    counterexamples = list(counterexamples)
    errata = list(errata)
    if counterexamples:
        status = DISCREPANCY
    elif errata:
        status = KNOWN_ERRATUM
    else:
        status = CONFIRMED
    return VerificationReport(
        claim_id=claim_id,
        lo=lo,
        hi=hi,
        status=status,
        details=details,
        counterexamples=counterexamples,
        errata=errata,
        data=dict(data or {}),
    )


class SignPartition(namedtuple("SignPartition", "limit runs blocks per_n", defaults=(0, 0))):
    """Decomposition of [1, limit] into maximal runs of constant sign.

    Attributes:
        limit: upper end of the scanned range.
        runs: ordered tuple of (start, end, sign) with sign in {-1, 0, 1};
            runs are consecutive, disjoint, cover [1, limit], and adjacent
            runs carry different signs.
        blocks: chain links whose signs were settled as a whole.
        per_n: values of n whose sign was decided one at a time; together
            with the blocks they cover [1, limit] exactly once.

    Partitions compare as tuples, blocks and per_n included; compare runs
    to ask whether two routes agree on the signs.
    """

    __slots__ = ()

    def runs_of(self, sign: int) -> list[tuple[int, int]]:
        """The (start, end) pairs whose run has the given sign."""
        return [(a, b) for a, b, s in self.runs if s == sign]

    def support_of(self, sign: int) -> list[int]:
        """Every n in [1, limit] at which the sign occurs."""
        out: list[int] = []
        for a, b in self.runs_of(sign):
            out.extend(range(a, b + 1))
        return out


def _append_run(runs: list, a: int, b: int, sign: int) -> None:
    """Extend runs by [a, b] with the given sign, merging into the last
    run when the sign repeats; an empty [a, b] adds nothing."""
    if a > b:
        return
    if runs and runs[-1][2] == sign:
        runs[-1][1] = b
    else:
        runs.append([a, b, sign])


# The m-band.  Take an m-block [a, b] = sequences.m_block(m) and let
# k = bitlen(m); then bitlen(b) and bitlen(b - 1) are at most 2k, and
# c(a) >= m**2/3 + 8/3 and z(a) >= (m**2 - 3)/3.  So m >= 6k + 3 gives
# c(a) - m - 2k(m - 1) >= (m + 5)/3 > 0: the gap c - m exceeds 2k(m - 1)
# >= bitlen(b)(m - 1), which is positive_link on the block and on every
# link or block clipped from it, and c > r(m - 1) + m, the positive sign
# criterion.  m >= 6k + 4 gives z(a) > (2k + 1)m >= (r(b) + 1)m, so x > 0
# on the block.  Both hold for every m >= 2**(BAND_K0 - 1): 2**(k - 1) >=
# 6k + j at k = BAND_K0 is the base case, and 2**k >= 12k + 2j >=
# 6(k + 1) + j the step.  So past BAND_BASE, the end of that m's block,
# x and y are positive at every n.
BAND_K0 = 7
BAND_BASE = sequences.m_block(1 << (BAND_K0 - 1))[1]
# For x and for y: j of the block predicate m >= 6k + j, and what it gives.
BAND_PREDICATE = {
    "x": (4, "z(a) > (2k + 1)m >= (r(b) + 1)m and x > 0"),
    "y": (3, "c(a) - m >= 2k(m - 1) >= bitlen(b)(m - 1) and y > 0"),
}


def band_certificate(seq: str, limit: int) -> dict | None:
    """The proof that seq, "x" or "y", is positive at every n past
    BAND_BASE, once [1, limit] holds [1, BAND_BASE], the range its
    partition walks link by link; None for a smaller limit.

    It holds the base range, BAND_K0 and the band inequality.  The base
    case 2**(BAND_K0 - 1) >= 6*BAND_K0 + j is checked here, when a run
    needs it, and a failing one raises, so it is part of what the run
    attests.
    """
    if limit < BAND_BASE:
        return None
    j, gives = BAND_PREDICATE[seq]
    k0 = BAND_K0
    if 2 ** (k0 - 1) < 6 * k0 + j:
        raise ArithmeticError(f"the band's base case fails: 2**{k0 - 1} < {6 * k0 + j}")
    return {
        "base": [1, BAND_BASE],
        "k0": k0,
        "band": (
            f"every m-block [a, b] with m >= 2**(k0 - 1) = {1 << (k0 - 1)} has "
            f"m >= 6k + {j} for k = bitlen(m), so {gives} on it"
        ),
    }


def band_top(seq: str, limit: int) -> int:
    """The top of a walk over [1, limit] that reads seq's band: BAND_BASE
    when band_certificate(seq, limit) holds, and limit otherwise."""
    return BAND_BASE if band_certificate(seq, limit) else limit


def partition_x(limit: int) -> SignPartition:
    """Exact sign runs of x over [1, limit], one chain link at a time up
    to BAND_BASE, and one positive run past it, by the band.

    On a link r and m are constant, so x(n) = z(n) - K with K = (r+1)*m:
    x < 0 exactly for n <= z_last(K - 1), x = 0 up to z_last(K), and
    x > 0 above that.  Every link is settled in O(1), and blocks counts
    them all, from sequences.link_count: O(log limit) past BAND_BASE.
    """
    sequences.require_positive(limit, "limit")
    top = band_top("x", limit)
    runs: list = []
    for lo, hi, rr, mm in sequences.chain_links(1, top):
        k = (rr + 1) * mm
        neg_end, zero_end = sequences.z_last(k - 1), sequences.z_last(k)
        _append_run(runs, lo, min(hi, neg_end), -1)
        _append_run(runs, max(lo, neg_end + 1), min(hi, zero_end), 0)
        _append_run(runs, max(lo, zero_end + 1), hi, 1)
    _append_run(runs, top + 1, limit, 1)
    return SignPartition(limit, tuple(map(tuple, runs)), blocks=sequences.link_count(limit))


def partition_y(limit: int) -> SignPartition:
    """Exact sign runs of y over [1, limit], one chain link at a time up
    to BAND_BASE, and one positive run past it, by the band.

    A link [lo, hi] is positive throughout when sequences.positive_link
    certifies it, by the bit-length fast path of the exact y-sign
    comparison applied to the whole link.  Every other link, and n = 1,
    is decided one n at a time by sequences.y_sign, the exact comparison
    of y's two terms; all of them end by n = 420.  Past BAND_BASE the
    band certifies every link, so blocks adds their count,
    sequences.link_count(limit) - link_count(BAND_BASE), and per_n stays
    that of the walk.  These runs are the one source of y's sign for
    every check in this package.
    """
    sequences.require_positive(limit, "limit")
    top = band_top("y", limit)
    runs: list = []
    blocks = per_n = 0
    for lo, hi, _, mm in sequences.chain_links(1, top):
        if sequences.positive_link(lo, hi, mm):
            blocks += 1
            _append_run(runs, lo, hi, 1)
            continue
        per_n += hi - lo + 1
        for n in range(lo, hi + 1):
            _append_run(runs, n, n, sequences.y_sign(n))
    blocks += sequences.link_count(limit) - sequences.link_count(top)
    _append_run(runs, top + 1, limit, 1)
    return SignPartition(limit, tuple(map(tuple, runs)), blocks=blocks, per_n=per_n)


def signed_links(part: SignPartition, signs=(-1, 0, 1)):
    """The pieces (lo, hi, r, m, sign) of part, y's partition_y: each run
    (a, b, sign) with sign in signs, and only those, cut by
    chain_links(a, b).  r and m are functions of n, so a clipped link
    keeps its link's r, m and cut points (z_last, c_last), and on it the
    sign of y is fixed as well."""
    for a, b, sign in part.runs:
        if sign in signs:
            for lo, hi, rr, mm in sequences.chain_links(a, b):
                yield lo, hi, rr, mm, sign


# ---------------------------------------------------------------------------
# Golden reference data, embedded verbatim from the published tables
# ---------------------------------------------------------------------------

# Hand-computed reference values (x, c - m, y) for n = 1..16, as printed.
# Two of the printed x entries are documented misprints; see KNOWN_ERRATA.
REFERENCE_TABLE = {
    1: (-1, 3, 7),
    2: (-3, 2, 2),
    3: (-5, 4, 13),
    4: (-4, 4, 12),
    5: (-9, 3, -17),
    6: (-9, 5, -4),
    7: (-8, 5, -17),
    8: (-11, 4, -496),
    9: (-15, 6, -665),
    10: (-14, 6, -936),
    11: (-13, 6, -1267),
    12: (-13, 8, -1472),
    13: (-17, 7, -28433),
    14: (-16, 7, -38288),
    15: (-21, 9, -50113),
    16: (-20, 9, -65024),
}

# The 41 printed links of the interval chain: (lo, hi, r, m, x_lo, x_hi).
# The m entry of link 41 is a documented misprint; see KNOWN_ERRATA.
INTERVAL_TABLE = (
    (1, 1, 0, 1, -1, -1),
    (2, 2, 1, 2, -3, -3),
    (3, 4, 2, 2, -5, -4),
    (5, 7, 3, 3, -9, -8),
    (8, 8, 3, 4, -11, -11),
    (9, 12, 4, 4, -15, -13),
    (13, 16, 4, 5, -17, -15),
    (17, 17, 5, 5, -19, -19),
    (18, 24, 5, 6, -25, -21),
    (25, 31, 5, 7, -26, -22),
    (32, 32, 5, 8, -27, -27),
    (33, 40, 6, 8, -35, -30),
    (41, 49, 6, 9, -36, -31),
    (50, 60, 6, 10, -37, -31),
    (61, 64, 6, 11, -37, -35),
    (65, 71, 7, 11, -45, -41),
    (72, 84, 7, 12, -49, -41),
    (85, 97, 7, 13, -48, -40),
    (98, 112, 7, 14, -47, -38),
    (113, 127, 7, 15, -45, -36),
    (128, 128, 7, 16, -43, -43),
    (129, 144, 8, 16, -59, -49),
    (145, 161, 8, 17, -57, -46),
    (162, 180, 8, 18, -55, -43),
    (181, 199, 8, 19, -51, -39),
    (200, 220, 8, 20, -47, -34),
    (221, 241, 8, 21, -42, -29),
    (242, 256, 8, 22, -37, -28),
    (257, 264, 9, 22, -49, -45),
    (265, 287, 9, 23, -54, -39),
    (288, 312, 9, 24, -49, -33),
    (313, 337, 9, 25, -42, -26),
    (338, 364, 9, 26, -35, -18),
    (365, 391, 9, 27, -27, -10),
    (392, 420, 9, 28, -19, -1),
    (421, 449, 9, 29, -10, 9),
    (450, 480, 9, 30, -1, 19),
    (481, 511, 9, 31, 10, 30),
    (512, 512, 9, 32, 21, 21),
    (513, 544, 10, 32, -11, 10),
    (545, 577, 10, 32, 0, 21),
)

# Sign classification of x: zero exactly on the five listed n, negative
# exactly on the listed runs, positive everywhere else.
X_ZERO_SET = frozenset({436, 451, 529, 545, 546})
X_NEGATIVE_RUNS = ((1, 435), (450, 450), (513, 528))

# Sign classification of y: never zero, negative exactly on the listed
# runs, positive everywhere else.
Y_NEGATIVE_RUNS = ((5, 335), (338, 350), (365, 368))

# The narrative accompanying the y classification asserts, in one step,
# the opposite sign on [338, 350] from the classification itself.  The
# scan decides: the classification (negative there) is what holds.  The
# note is attached to the theorem2 report without guessing which wording
# was intended.
NARRATIVE_NOTE_338_350 = (
    "note: one step of the reference narrative asserts y > 0 on [338, 350], "
    "contradicting the classification it accompanies; the exhaustive scan "
    "confirms the classification (negative on [338, 350])"
)

# Documented misprints in the reference data, keyed by
# (claim, field, item key); a report carries the Erratum when the
# recomputed value is its computed field.
KNOWN_ERRATA = {
    ("reference-table", "x", 15): Erratum(
        "x(15)",
        -21,
        -16,
        "definitions give z=9, r=4, m=5, so x = 9 - 5*5 = -16; the printed "
        "-21 also contradicts the printed interval row for [13, 16] "
        "(x between -17 and -15)",
    ),
    ("reference-table", "x", 16): Erratum(
        "x(16)",
        -20,
        -15,
        "definitions give z=10, r=4, m=5, so x = 10 - 5*5 = -15; same "
        "interval-row contradiction as x(15)",
    ),
    ("interval-table", "m", 41): Erratum(
        "interval 41 m",
        32,
        33,
        "isqrt(2*545) = 33 since 33*33 = 1089 <= 1090 < 1156; the printed "
        "x range 0..21 for this row is itself only consistent with m = 33",
    ),
    ("root-bracket", "bracket", "y-lower"): Erratum(
        "y-lower root bracket",
        (379, 389),
        (379, 380),
        "the printed endpoint evaluations (negative at 379, positive at 380) "
        "pin the root inside (379, 380); the printed 389 is a digit slip",
    ),
}


def erratum_for(claim: str, column: str, key, computed) -> Erratum | None:
    """Return the documented erratum for this cell if the computed value
    matches the documented correction; None otherwise."""
    entry = KNOWN_ERRATA.get((claim, column, key))
    return entry if entry is not None and entry.computed == computed else None


# ---------------------------------------------------------------------------
# Claim checks
# ---------------------------------------------------------------------------


def compare_printed(claim: str, cells) -> tuple[int, list, list]:
    """Compare recomputed cells with the printed ones.

    Each cell is (column, key, computed, printed).  Returns the number of
    cells that match, the documented errata that explain a mismatch, and
    the key of every other mismatched cell, once per cell, in cell order.
    """
    matched = 0
    errata, counterexamples = [], []
    for column, key, computed, printed in cells:
        if computed == printed:
            matched += 1
        elif (erratum := erratum_for(claim, column, key, computed)) is not None:
            errata.append(erratum)
        else:
            counterexamples.append(key)
    return matched, errata, counterexamples


def check_reference_table() -> VerificationReport:
    """Recompute (x, c - m, y) for n = 1..16 against the printed table."""
    cells = []
    for n in range(1, 17):
        values = (sequences.x(n), sequences.c(n) - sequences.m(n), sequences.y_value(n))
        cells.extend(zip(("x", "c_minus_m", "y"), [n] * 3, values, REFERENCE_TABLE[n]))
    confirmed, errata, counterexamples = compare_printed("reference-table", cells)
    details = (
        "48 cells recomputed from the definitions; "
        f"{confirmed} match the printed values exactly; "
        + plural(len(errata), "documented misprint")
    )
    return make_report(
        "reference-table",
        1,
        16,
        details,
        counterexamples=counterexamples,
        errata=errata,
        data={"cells_confirmed": confirmed},
    )


def check_interval_table() -> VerificationReport:
    """Recompute the 41-link interval chain against the printed rows."""
    computed = list(intervals.interval_table(INTERVAL_TABLE[-1][0]))
    cells = [
        (column, rec.index, value, printed_value)
        for rec, printed in zip(computed, INTERVAL_TABLE)
        for column, value, printed_value in zip(
            ("lo", "hi", "r", "m", "x_lo", "x_hi"), rec[1:], printed
        )
    ]
    confirmed, errata, counterexamples = compare_printed("interval-table", cells)
    if len(computed) != len(INTERVAL_TABLE):
        counterexamples.insert(0, len(computed))
    details = (
        f"{len(computed)} chain links recomputed; "
        f"{confirmed} of {6 * len(INTERVAL_TABLE)} printed fields match; "
        + plural(len(errata), "documented misprint")
    )
    return make_report(
        "interval-table",
        1,
        INTERVAL_TABLE[-1][1],
        details,
        counterexamples=counterexamples,
        errata=errata,
        data={"fields_confirmed": confirmed, "links": len(computed)},
    )


def _runs_repr(runs: list[tuple[int, int]]) -> str:
    return ", ".join(f"[{a}, {b}]" for a, b in runs) if runs else "(none)"


def printed_runs(limit: int, zeros, negative_runs) -> list:
    """Runs of a printed sign classification over [1, limit]: zero on
    zeros, negative on negative_runs except at a zero, positive
    everywhere else.  The sign can change only where a zero or one of
    the (a, b) negative runs starts or ends, so it is read once per
    stretch between those cuts."""
    pieces = [*((n, n) for n in zeros), *negative_runs]
    cuts = sorted({1, *(n for a, b in pieces for n in (a, b + 1) if 1 < n <= limit)})
    runs: list = []
    for a, b in zip(cuts, cuts[1:] + [limit + 1]):
        negative = any(lo <= a <= hi for lo, hi in negative_runs)
        _append_run(runs, a, b - 1, 0 if a in zeros else -1 if negative else 1)
    return runs


def _mismatches(actual, expected) -> list[int]:
    """Every n, in increasing order, at which a run of actual and a run of
    expected overlap with different signs.

    Both are iterables of (start, end, sign) runs in increasing order;
    the runs of actual cover a range that holds every run of expected,
    so expected is read to its end.  One merge, holding one run of each
    at a time."""
    out: list[int] = []
    actual, expected = iter(actual), iter(expected)
    run1, run2 = next(actual, None), next(expected, None)
    while run1 is not None and run2 is not None:
        a1, b1, s1 = run1
        a2, b2, s2 = run2
        if s1 != s2:
            out.extend(range(max(a1, a2), min(b1, b2) + 1))
        if b1 <= b2:
            run1 = next(actual, None)
        if b2 <= b1:
            run2 = next(expected, None)
    return out


def _theorem_report(
    claim_id: str, seq: str, part: SignPartition, printed: list, zeros_text: str, *notes: str
) -> VerificationReport:
    """Compare the runs of part, seq's partition, with the printed runs;
    every n where they disagree is a counterexample.  The details open
    with zeros_text, and data.certificate is seq's band_certificate."""
    negative, positive = (_runs_repr(part.runs_of(sign)) for sign in (-1, 1))
    details = "; ".join(
        [zeros_text, f"negative runs {negative}", f"positive runs {positive}", *notes]
    )
    return make_report(
        claim_id,
        1,
        part.limit,
        details,
        counterexamples=_mismatches(part.runs, printed),
        data={
            "runs": [list(run) for run in part.runs],
            "blocks": part.blocks,
            "per_n": part.per_n,
            "certificate": band_certificate(seq, part.limit),
        },
    )


def check_theorem1(limit: int) -> VerificationReport:
    """Theorem 1: x is zero exactly on {436, 451, 529, 545, 546},
    negative exactly on [1, 435], {450} and [513, 528], positive
    everywhere else.

    Checked on [1, limit] by comparing the sign runs of partition_x,
    which settles each chain link to BAND_BASE in O(1) from the exact
    cut points of x on it, and the rest by the band, with the runs of
    the classification; no n is visited one at a time.  Counterexamples
    are every n where the two disagree.  From limit = BAND_BASE on,
    data.certificate carries the band, which extends the claim to every
    n."""
    part = partition_x(limit)
    return _theorem_report(
        "theorem1",
        "x",
        part,
        printed_runs(limit, X_ZERO_SET, X_NEGATIVE_RUNS),
        f"zero set {{{', '.join(str(n) for n in part.support_of(0))}}}",
    )


def check_theorem2(part: SignPartition) -> VerificationReport:
    """Theorem 2: y is never zero, negative exactly on [5, 335],
    [338, 350] and [365, 368], positive everywhere else.

    Checked on [1, part.limit] by comparing the runs of part, y's
    partition_y, with the runs of the classification.  partition_y
    certifies a chain link positive as a whole when
    c(lo) - m >= bitlen(hi) * (m - 1), falls back to the exact per-n
    comparison on every other link, and past BAND_BASE reads the band;
    data.blocks and data.per_n count the two kinds.  The classification
    has no zero, so any n with y = 0 is a counterexample.  From
    part.limit = BAND_BASE on, data.certificate carries the band, which
    extends the claim to every n."""
    zeros = part.runs_of(0)
    return _theorem_report(
        "theorem2",
        "y",
        part,
        printed_runs(part.limit, (), Y_NEGATIVE_RUNS),
        f"zero runs {_runs_repr(zeros)}" if zeros else "no zeros",
        NARRATIVE_NOTE_338_350,
    )


def check_gap(limit: int) -> VerificationReport:
    """The gap c(n) - m(n) is at least 2 with equality only at n = 2,
    and at least 5 for every n >= 10.

    Read at each n to BAND_BASE, m from its chain link.  Past it the band
    puts every gap above 2k(m - 1) >= 882, which changes nothing."""
    sequences.require_positive(limit, "limit")
    top = band_top("y", limit)
    counterexamples, min_gap_at = [], []
    min_gap = min_gap_from_10 = None
    for lo, hi, _, mm in sequences.chain_links(1, top):
        for n in range(lo, hi + 1):
            gap = sequences.c(n) - mm
            if min_gap is None or gap < min_gap:
                min_gap, min_gap_at = gap, []
            if gap == min_gap:
                min_gap_at.append(n)
            if n >= 10:
                min_gap_from_10 = gap if n == 10 else min(min_gap_from_10, gap)
            if gap < 2 or (gap == 2 and n != 2) or (gap < 5 and n >= 10):
                counterexamples.append(n)
    details = f"min gap {min_gap} attained exactly at {min_gap_at}; " + (
        "no n >= 10 is in range"
        if min_gap_from_10 is None
        else f"min gap over n >= 10 is {min_gap_from_10}"
    )
    return make_report(
        "lemmas/gap",
        1,
        limit,
        details,
        counterexamples=counterexamples,
        data={
            "min_gap": min_gap,
            "min_gap_at": min_gap_at,
            "min_gap_from_10": min_gap_from_10,
        },
    )


def check_range_bounds(limit: int) -> VerificationReport:
    """Within each constant-m block, the endpoint bound pair encloses
    every y, a one-signed bound decides the whole block, and y strictly
    decreases across steps that keep both m and c.

    The blocks are sequences.m_block(m) for m = 1 to m(limit), the last
    clipped to limit.  On a block [a, b] c does not decrease and, for
    m >= 2, n**(m-1) strictly increases, so low = 2**(c(a)-m) - b**(m-1)
    and high = 2**(c(b)-m) - a**(m-1) enclose y, high < 0 decides the
    block negative, low > 0 decides it positive, and y strictly decreases
    wherever c repeats.  m = 1 only at n = 1, a block of one point: there
    a = b, both bounds equal y(1), and there is no step to decrease
    across.  No block can hold a counterexample, so each block to
    BAND_BASE, m = 1 to 64, is settled by sequences.bound_signs, the signs
    of high and low alone, and each one past it positive by the band."""
    sequences.require_positive(limit, "limit")
    top = band_top("y", limit)
    blocks, walked = sequences.m(limit), sequences.m(top)
    decided_negative = decided_positive = 0
    for mm in range(1, walked + 1):
        a, b = sequences.m_block(mm)
        high, low = sequences.bound_signs(a, min(b, limit), mm)
        decided_negative += high < 0
        decided_positive += low > 0
    decided_positive += blocks - walked  # low > 0 on each block of the band
    details = (
        f"{blocks} constant-m blocks; endpoint bounds enclose every y; "
        f"{decided_negative} blocks decided negative and "
        f"{decided_positive} decided positive by their bounds alone; "
        "y strictly decreases whenever m and c both repeat"
    )
    return make_report(
        "lemmas/range-bounds",
        1,
        limit,
        details,
        data={
            "blocks": blocks,
            "decided_negative": decided_negative,
            "decided_positive": decided_positive,
        },
    )


def check_sign_criteria(part: SignPartition) -> VerificationReport:
    """The two threshold criteria on c: with s = r(n) and t = m(n),
    c <= s(t-1) + 1 forces y < 0 and c > s(t-1) + t forces y > 0.

    Checked piece by piece of signed_links(part), to BAND_BASE at most, a
    link's end.  On a piece T = r*(m-1) is fixed and c does not decrease:
    the negative criterion holds exactly up to c_last(T + 1) and the
    positive one exactly past c_last(T + m).  A piece where a criterion
    holds against its run's sign is a list of counterexamples.  Past
    BAND_BASE the band gives both y > 0 and the positive criterion."""
    top = band_top("y", part.limit)
    counterexamples = []
    applies_negative = applies_positive = 0
    for lo, hi, rr, mm, sign in signed_links(part):
        if lo > top:
            break
        threshold = rr * (mm - 1)
        neg_end = min(hi, sequences.c_last(threshold + 1))
        if lo <= neg_end:
            applies_negative += neg_end - lo + 1
            if sign != -1:
                counterexamples.extend(range(lo, neg_end + 1))
        pos_start = max(lo, sequences.c_last(threshold + mm) + 1)
        if pos_start <= hi:
            applies_positive += hi - pos_start + 1
            if sign != 1:
                counterexamples.extend(range(pos_start, hi + 1))
    applies_positive += part.limit - top
    verdict = "no contradictions"
    if counterexamples:
        verdict = plural(len(counterexamples), "contradiction")
    details = (
        f"negative criterion applies to {applies_negative} values, "
        f"positive criterion to {applies_positive}; {verdict}"
    )
    return make_report(
        "lemmas/sign-criteria",
        1,
        part.limit,
        details,
        counterexamples=counterexamples,
        data={
            "applies_negative": applies_negative,
            "applies_positive": applies_positive,
        },
    )


def check_negative_x_bound(part: SignPartition) -> VerificationReport:
    """Wherever y(n) <= 0, x(n) is at most -r(n) - 3, which is itself
    at most -6.  Vacuous below n = 5 where y is positive.

    Checked on [1, part.limit], piece by piece of
    signed_links(part, (-1, 0)), so the positive runs are never walked.
    On a piece x = z - K with K = (r+1)*m, so x <= -r - 3 holds exactly
    up to z_last(K - r - 3), and -r - 3 <= -6 exactly when r >= 3.
    Every n of a piece is applicable and the rest of it past that prefix
    is counterexamples.  No n is visited one at a time: O(links)."""
    counterexamples = []
    applicable = 0
    for lo, hi, rr, mm, _ in signed_links(part, (-1, 0)):
        applicable += hi - lo + 1
        holds_to = sequences.z_last((rr + 1) * mm - rr - 3) if rr >= 3 else 0
        counterexamples.extend(range(max(lo, holds_to + 1), hi + 1))
    details = f"bound checked at {applicable} values with y <= 0"
    return make_report(
        "lemmas/negative-x-bound",
        1,
        part.limit,
        details,
        counterexamples=counterexamples,
        data={"applicable": applicable},
    )


POSITIVE_TAIL_START = 404


def check_positive_tail(part: SignPartition) -> VerificationReport:
    """y(n) > 0 for every n >= 404.  Checked on [404, part.limit] by
    reading the runs of part, y's partition_y, there: chain links
    certified positive as a whole, the rest decided per n (data.blocks
    and data.per_n count the two).  Below 404 the report covers
    [1, part.limit] and says that no n of the claim is in range."""
    limit = part.limit
    start = POSITIVE_TAIL_START
    if limit < start:
        return make_report(
            "lemmas/positive-tail",
            1,
            limit,
            f"no n >= {start} is in range",
            data={"blocks": 0, "per_n": 0},
        )
    counterexamples = _mismatches(part.runs, [(start, limit, 1)])
    if counterexamples:
        details = (
            f"y <= 0 at {plural(len(counterexamples), 'value')} "
            f"in [{start}, {limit}]"
        )
    else:
        details = f"y > 0 at every n in [{start}, {limit}]"
    return make_report(
        "lemmas/positive-tail",
        start,
        limit,
        details,
        counterexamples=counterexamples,
        data={"blocks": part.blocks, "per_n": part.per_n},
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def reports_to_json(reports: list[VerificationReport]) -> str:
    """Deterministic JSON array of report dicts."""
    import json  # only json output pays its import

    return json.dumps([rep.to_dict() for rep in reports], indent=2)


def reports_to_text(reports: list[VerificationReport]) -> str:
    """Human-readable report listing with a one-line summary."""
    lines = []
    width = max((len(rep.claim_id) for rep in reports), default=0)
    for rep in reports:
        lines.append(
            f"[{rep.status}] {rep.claim_id.ljust(width)}  "
            f"[{rep.lo}, {rep.hi}]  {rep.details}"
        )
        for err in rep.errata:
            lines.append(
                f"    erratum {err.item}: printed {err.printed}, "
                f"computed {err.computed} ({err.note})"
            )
        if rep.counterexamples:
            shown = ", ".join(str(n) for n in rep.counterexamples[:10])
            suffix = ", ..." if len(rep.counterexamples) > 10 else ""
            lines.append(f"    counterexamples: {shown}{suffix}")
    confirmed = sum(1 for rep in reports if rep.status == CONFIRMED)
    errata_count = sum(len(rep.errata) for rep in reports)
    discrepancies = sum(1 for rep in reports if rep.status == DISCREPANCY)
    lines.append(
        f"summary: {plural(len(reports), 'claim')}; {confirmed} confirmed; "
        f"{errata_count} documented erratum entr"
        f"{'ies' if errata_count != 1 else 'y'}; "
        f"{discrepancies} discrepanc{'ies' if discrepancies != 1 else 'y'}"
    )
    return "\n".join(lines)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    """Flat CSV form of the reports (details and lists quoted)."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["claim_id", "lo", "hi", "status", "details", "counterexamples", "errata"]
    )
    for rep in reports:
        writer.writerow(
            [
                rep.claim_id,
                rep.lo,
                rep.hi,
                rep.status,
                rep.details,
                ";".join(str(n) for n in rep.counterexamples),
                ";".join(e.item for e in rep.errata),
            ]
        )
    return buf.getvalue().rstrip("\n")
