"""Command line front end.

Subcommands:

    seq         print the integer sequences over a range of n
    intervals   print the constant-(r, m) interval chain
    verify      run claim checks and report their status
    roots       isolate the envelope roots by bisection

seq writes the pieces of sequences.scan_pieces as fixed-width rows in
bytearrays, a digit place per strided slice (_piece_texts); one part of
rows may span pieces and chain links.  seq --exact-y and intervals
format a row tuple at a time (_line_texts).  The text
format is the csv text of either, split into cells.

Each verify suite is one row of SUITES: its module, its checks and its
cap, if any.  A command imports only the modules it runs: seq imports
sequences alone, and verify imports analytic only for its suite.
A report covers [1, --limit]; every suite that reads --limit refuses one
below 1 and defaults to DEFAULT_LIMIT, so a verify run without one runs
every suite at one limit.  table and intervals check the printed tables
at their fixed range and ignore --limit.  --suite all runs every row.  A
verify run builds y's sign partition at most once and hands it to every
check that reads it.

Exit codes: 0 when every requested check is clean (documented errata do
not count against a run unless --strict is given), 1 when a check found
a discrepancy (or, with --strict, an erratum) or when stdout was closed
before the output ended, 2 for usage errors.
"""

import argparse
import functools
import importlib
import itertools
import os
import sys
from typing import Callable, NamedTuple

from . import sequences


class Suite(NamedTuple):
    """The module of a suite's checks, run(module, limit, y_runs) ->
    reports, where y_runs(limit) is y's sign partition on [1, limit],
    and (largest --limit, why)."""

    module: str
    run: Callable
    cap: tuple | None = None


# The --limit of every suite when none is given.  From BAND_BASE on the
# theorem reports carry the band certificate that extends them to every n.
DEFAULT_LIMIT = 10**5

# In report order.  A suite's module is imported when the suite runs, and
# its checks are looked up through it at call time, so a wrapper set
# there (a tracer or a test double) sees the call.
SUITES = {
    "table": Suite("verifier", lambda ver, *_: [ver.check_reference_table()]),
    "intervals": Suite("verifier", lambda ver, *_: [ver.check_interval_table()]),
    "theorem1": Suite("verifier", lambda ver, limit, _: [ver.check_theorem1(limit)]),
    "theorem2": Suite(
        "verifier", lambda ver, limit, y_runs: [ver.check_theorem2(y_runs(limit))]
    ),
    "lemmas": Suite(
        "verifier",
        lambda ver, limit, y_runs: [
            ver.check_gap(limit),
            ver.check_range_bounds(limit),
            ver.check_sign_criteria(y_runs(limit)),
            ver.check_negative_x_bound(y_runs(limit)),
            ver.check_positive_tail(y_runs(limit)),
        ],
    ),
    "analytic": Suite(
        "analytic",
        lambda ana, limit, y_runs: [
            ana.check_bounds_x(limit),
            ana.check_bounds_Y(limit),
            ana.check_sign_consistency(y_runs(limit)),
            ana.check_approximations(),
            *ana.check_roots(),
        ],
        cap=(
            10**7,
            "its envelopes hold for every n by their identities, but the least "
            "margins it reports are run and tested up to there",
        ),
    ),
}


# Text tables keep every row before they print any (about 0.7 GB at this
# many seq rows), so longer ones are refused before a row is built.
TEXT_MAX_ROWS = 10**6

# --exact-y builds y(n), about 2n/3 bits, in full for each row: one row
# takes 0.7 s and 37 MB at n = 3 * 10**7, and would take 83 GB at 10**12.
EXACT_Y_MAX_N = 10**8


def _refuse_long_text(fmt, rows):
    """Refuse a text table of more rows, or of a bound on them, than TEXT_MAX_ROWS."""
    if fmt == "text" and rows > TEXT_MAX_ROWS:
        raise ValueError(
            f"--format text holds every row in memory and takes at most "
            f"{TEXT_MAX_ROWS} rows, not {rows}; "
            "--format csv|json stream any range"
        )


def _row_parts(columns, fmt):
    """(seps, end) of a row: the text before each column's cell, and
    after the last.  csv's, which text splits into cells, or json's,
    which give the bytes of json.dumps(list_of_dicts, indent=2), a row at
    a time, since JSON writes an int as str() does.  Every json row opens
    with ",", which the first row's "[" replaces."""
    if fmt != "json":
        return [""] + [","] * (len(columns) - 1), "\n"
    import json  # only json output pays its import

    names = [json.dumps(col) + ": " for col in columns]
    return [",\n  {\n    " + names[0]] + [",\n    " + nm for nm in names[1:]], "\n  }"


def _line_texts(rows, seps, end):
    """The text of each row tuple, a row at a time, so a big cell
    (--exact-y's y) is held only while its row is written."""
    line = "".join(sep + "%s" for sep in seps) + end
    return map(line.__mod__, rows)


@functools.cache
def _digits(f, last, unit, place, e):
    """(P, digits): digits[j] is digit `place` of f(j) - e in ASCII, for j
    from 0 to P + PIECE or more, where P = unit * 10**place is its period,
    as z(j + 15 * 10**d) = z(j) + 10**(d + 1), c's likewise, and n's with
    10 for 15.  A run of one digit ends at a last(), so it is one bytes
    product.  Built on first use, so only seq pays for it."""
    p = 10**place
    period = unit * p
    runs, j = bytearray(), period  # one period from P on, as z and c take j >= 1
    while j < 2 * period:
        v = (f(j) - e) // p
        stop = min(last((v + 1) * p + e - 1) + 1, 2 * period)
        runs += b"%d" % (v % 10) * (stop - j)
        j = stop
    return period, bytes(runs * (sequences.PIECE // period + 2))


def _piece_texts(pieces, seps, end):
    """The csv or json text of the pieces of sequences.scan_pieces, with
    no string built per cell or per row.

    The pieces on certified links with x >= 0 (every piece past n = 546)
    go in parts of at most PIECE rows of one width.  A part runs across
    pieces and chain links.  It is cut where n, z or c gains a digit,
    where x or c - m gains one inside a link, and where a link starts
    with m, r, x or c - m of another width (x falls from 103 to 93 at
    n = 800).  A part is one bytearray: its first row repeated, then
    each of the last three digit places of each rising column as a
    strided slice from _digits.  A rising column holds f(n) - offset, f
    being n (int), z or c, and last(v) is the last n with f(n) <= v.  n,
    z and c, with offset 0, take one slice per place for the whole part.
    x, with offset (r + 1)*m, and c - m, with offset m, take one per
    link, as their offset 2q + e changes from link to link: they read
    the digits of f - e at n - 3q, as z(n) - 2q = z(n - 3q) and
    c(n) - 2q = c(n - 3q).  Where a column's thousands change, and where
    m or r changes at a link start, the digits that change are rewritten
    from that row to the end of the part.  The other pieces, all below
    n = 547, go a row at a time by _line_texts.
    """
    # each rising column: f, last, and for e = 0 and 1 the _digits of its
    # last three places, copied to bytearrays, as a bytearray goes into a
    # strided slice without a conversion
    columns = []
    for f, last, unit in (
        (int, int, 10),
        (sequences.z, sequences.z_last, 15),
        (sequences.c, sequences.c_last, 15),
    ):
        pats = [[_digits(f, last, unit, place, e) for place in range(3)] for e in (0, 1)]
        columns.append((f, last, [[(p, bytearray(d)) for p, d in places] for places in pats]))
    ncol, zcol, ccol = columns
    rising = ((0, ncol), (1, zcol), (4, ccol))  # with their cells
    z, c = sequences.z, sequences.c
    runs = [bytearray(b"%d" % d) * sequences.PIECE for d in range(10)]
    pieces = iter(pieces)
    piece = next(pieces, None)
    while piece is not None:
        ns, mm, rr, ys = piece
        s = ns.start
        if not isinstance(ys, int) or sequences.x(s) < 0:
            yield "".join(_line_texts(sequences.piece_rows(piece), seps, end))
            piece = next(pieces, None)
            continue
        zs, cs = z(s), c(s)
        cells = [s, zs, mm, rr, cs, zs - (rr + 1) * mm, cs - mm, ys]
        texts = [sep + str(v) for sep, v in zip(seps, cells)]
        ends = list(itertools.accumulate(map(len, texts)))
        sizes = [len(text) - len(sep) for text, sep in zip(texts, seps)]
        # the part ends within PIECE rows, before n, z or c gains a digit, ...
        t = min(s + sequences.PIECE, *(col[1](10 ** sizes[cell] - 1) + 1 for cell, col in rising))
        (ml, mh), (rl, rh), (xl, xh), (gl, gh) = (
            (10 ** (k - 1) if k > 1 else 0, 10**k) for k in sizes[2:4] + sizes[5:7]
        )
        links = []  # (a, b, m, r, x, c - m): the part's rows [a, b) of a link, and x, c - m at a
        xs, gaps = cells[5:7]
        while True:
            ns, mm, rr, ys = piece
            # ... before x or c - m gains a digit inside a link, ...
            b = min(
                ns.stop,
                t,
                sequences.z_last(xh + (rr + 1) * mm - 1) + 1,
                sequences.c_last(gh + mm - 1) + 1,
            )
            if links and links[-1][2:4] == (mm, rr):
                links[-1] = (links[-1][0], b, *links[-1][2:])
            else:
                links.append((ns.start, b, mm, rr, xs, gaps))
            if b < ns.stop:
                piece = (range(b, ns.stop), mm, rr, ys)
                break
            piece = next(pieces, None)
            if b == t or piece is None:
                break
            # ... and where a piece goes by rows or starts a link in other widths
            ns, mm, rr, ys = piece
            xs, gaps = z(b) - (rr + 1) * mm, c(b) - mm
            if not (
                isinstance(ys, int)
                and ml <= mm < mh
                and rl <= rr < rh
                and xl <= xs < xh
                and gl <= gaps < gh
            ):
                break
        line = "".join(texts) + end
        width = len(line)
        buf = bytearray(line, "ascii") * (b - s)

        def restamp(tail, n, old, new):
            """From row n on, rewrite the digits of new, a number with as
            many as old, up to the first that differs from old's, in the
            field that ends at byte tail of a row."""
            at = (n - s) * width + tail
            while old != new:
                buf[at::width] = runs[new % 10][: b - n]
                old, new, at = old // 10, new // 10, at - 1

        def fill(cell, col, off, lo, hi, value, high):
            """Write f(n) - off, which is value at lo, in cell on the rows
            [lo, hi), where the row before lo (or lo itself, at the part's
            start) has thousands high; return the thousands at hi - 1."""
            f, last, pats = col
            at, stop, k = (lo - s) * width + ends[cell] - 1, (hi - s) * width, hi - lo
            j = lo - 3 * (off >> 1)
            for period, digits in pats[off & 1][: sizes[cell]]:
                i = j % period
                buf[at:stop:width] = digits[i : i + k]
                at -= 1
            first, top = value // 1000, (f(hi - 1) - off) // 1000
            if first != high:
                restamp(ends[cell] - 4, lo, high, first)
            for high in range(first + 1, top + 1):
                restamp(ends[cell] - 4, last(1000 * high + off - 1) + 1, high - 1, high)
            return top

        for cell, col in rising:
            fill(cell, col, 0, s, b, cells[cell], cells[cell] // 1000)
        _, _, mm, rr, _, xs, gaps, _ = cells
        xk, gk = xs // 1000, gaps // 1000  # the thousands of x and c - m so far
        for lo, hi, m2, r2, xs, gaps in links:
            if m2 != mm:
                restamp(ends[2] - 1, lo, mm, m2)
            if r2 != rr:
                restamp(ends[3] - 1, lo, rr, r2)
            mm, rr = m2, r2
            xk = fill(5, zcol, (rr + 1) * mm, lo, hi, xs, xk)
            gk = fill(6, ccol, mm, lo, hi, gaps, gk)
        buf = buf.decode("ascii")  # a paused generator holds only the text
        yield buf


def _emit_table(columns, fmt, texts):
    """Write a table to stdout as csv, json or text.

    texts(seps, end) gives the table's text in str of one row or more,
    with the parts of _row_parts around each cell: _line_texts, or
    _piece_texts's ASCII-decoded bytearrays, over a lazy source, so any
    text stream takes them.  csv and json write the strings as
    they come, so memory stays flat however long the range.  text splits
    csv's strings into cells, none of which holds a comma, and sizes each
    column to its widest cell, so it keeps every row (as strings) before
    writing any: it is meant for ranges a person reads.
    """
    out = sys.stdout
    text = texts(*_row_parts(columns, fmt))
    if fmt == "text":
        cells = [tuple(ln.split(",")) for chunk in text for ln in chunk.splitlines()]
        widths = [
            max([len(col)] + [len(row[i]) for row in cells])
            for i, col in enumerate(columns)
        ]
        line = "  ".join(f"%{w}s" for w in widths) + "\n"
        out.write(line % tuple(columns))
        out.writelines(line % row for row in cells)
        return
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        out.writelines(text)
        return
    first = next(text, None)
    if first is None:
        out.write("[]\n")
        return
    out.write("[" + first[1:])
    out.writelines(text)
    out.write("\n]\n")


def _with_exact_y(rows):
    """Append y(n), as an exact Decimal, to each row of sequences.scan,
    a row at a time, so only one y is held at a time.

    y = 2**e - q with e = c - m and q = n**(m - 1), and q has a small
    share of y's bits (about a fifth at n = 20000, less further out).
    So 2**e is kept as a Decimal P from row to row: multiplied by
    2**(e' - e) when e rises (by 2 at each multiple of 3 inside a link),
    and recomputed by one power when e falls (by 1 at each m step).  Each
    row then converts only q = 2**e - y from binary, where str(y) of the
    int would convert all of y, at a cost quadratic in its digits.

    Exact: every operand is an integer with exponent 0, the precision
    and exponent range are the largest the module allows, and Inexact
    and Rounded trap, so a result that could not be held exactly raises
    instead of rounding.  str() of an integral Decimal with exponent 0
    is the same text, sign included, as str() of the int.  The value is
    still sequences.y_value(n), called once per row: P - (2**e - y) = y.
    """
    import decimal  # only --exact-y pays its import and memory

    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
    )
    e = p = None
    for row in rows:
        gap = row[6]  # c - m
        y = sequences.y_value(row[0])
        if gap != e:
            if e is not None and gap > e:
                p = ctx.multiply(p, 1 << (gap - e))
            else:
                p = ctx.power(2, gap)
            e = gap
        yield row + (ctx.subtract(p, (1 << e) - y),)


def cmd_seq(args):
    """Print the sequences over [--from, --to]: the pieces of
    sequences.scan_pieces, in parts of fixed-width rows that may span
    pieces and links, by _piece_texts, or with --exact-y a row of
    sequences.scan at a time, with y(n) appended as an exact Decimal by
    _with_exact_y and formatted by _line_texts.  y's text is that of the
    int, so no big int is converted to str and the interpreter's digit
    cap never applies.  A text range longer than TEXT_MAX_ROWS, and
    --exact-y past EXACT_Y_MAX_N, are refused before any row is built."""
    start, stop = args.start, args.stop
    if start < 1 or stop < start:
        raise ValueError("need 1 <= --from <= --to")
    _refuse_long_text(args.format, stop - start + 1)
    if args.exact_y and stop > EXACT_Y_MAX_N:
        raise ValueError(f"--exact-y takes --to <= {EXACT_Y_MAX_N}, not {stop}")
    columns = list(sequences.SequenceRow._fields)
    if args.exact_y:
        columns.append("y")
        texts = functools.partial(_line_texts, _with_exact_y(sequences.scan(start, stop)))
    else:
        texts = functools.partial(_piece_texts, sequences.scan_pieces(start, stop))
    _emit_table(columns, args.format, texts)
    return 0


def cmd_intervals(args):
    from . import intervals

    if args.limit < 1:
        raise ValueError("need --limit >= 1")
    # a row per m-block, at most one more per power of 2
    _refuse_long_text(args.format, sequences.m(args.limit) + args.limit.bit_length())
    columns = ["index", "lo", "hi", "r", "m", "x_lo", "x_hi"]
    texts = functools.partial(_line_texts, intervals.interval_table(args.limit))
    _emit_table(columns, args.format, texts)
    return 0


def _emit_reports(reports, args):
    """Print the reports in --format; return the exit code, 1 when one is a
    discrepancy, or with --strict a documented erratum, and 0 otherwise."""
    from . import verifier

    emit = {"json": verifier.reports_to_json, "csv": verifier.reports_to_csv}
    print(emit.get(args.format, verifier.reports_to_text)(reports))
    statuses = {rep.status for rep in reports}
    strict_fail = args.strict and verifier.KNOWN_ERRATUM in statuses
    return int(verifier.DISCREPANCY in statuses or strict_fail)


def cmd_verify(args):
    from . import verifier

    parts = SUITES.values() if args.suite == "all" else [SUITES[args.suite]]
    limit = DEFAULT_LIMIT if args.limit is None else args.limit
    if args.suite in ("table", "intervals"):
        if args.limit is not None:
            print(
                f"note: suite {args.suite!r} checks the printed tables at their "
                "fixed range; --limit is ignored",
                file=sys.stderr,
            )
    elif limit < 1:
        raise ValueError("need --limit >= 1")
    else:
        cap, reason = min((p.cap for p in parts if p.cap), default=(limit, None))
        if limit > cap:
            raise ValueError(
                f"suite {args.suite!r} takes --limit <= {cap}: {reason}; "
                "--suite theorem1|theorem2|lemmas take any --limit"
            )
    # Looked up through the module, so a wrapper there sees each build.
    y_runs = functools.cache(lambda limit: verifier.partition_y(limit))
    reports = [
        rep
        for p in parts
        for rep in p.run(importlib.import_module(f"{__package__}.{p.module}"), limit, y_runs)
    ]
    return _emit_reports(reports, args)


def cmd_roots(args):
    from . import analytic

    return _emit_reports(analytic.check_roots(), args)


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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (as with `| head`).  Point stdout at devnull
        # so the flush at exit cannot fail again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
