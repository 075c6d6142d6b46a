"""Command line front end.

Subcommands:

    seq         print the integer sequences over a range of n
    intervals   print the constant-(r, m) interval chain
    verify      run claim checks and report their status
    roots       isolate the envelope roots by bisection

Each verify suite is one row of SUITES: its checks, its smallest and
default --limit and its cap, if any.  --suite all runs every row.

Exit codes: 0 when every requested check is clean (documented errata do
not count against a run unless --strict is given), 1 when a check found
a discrepancy (or, with --strict, an erratum) or when stdout was closed
before the output ended, 2 for usage errors.
"""

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from . import analytic, intervals, sequences, verifier

class Suite(NamedTuple):
    """The smallest --limit that attests the claims and the --limit used
    when none is given (both None where the printed tables fix the range
    and --limit is ignored), run(limit, tol) -> reports, and (largest
    --limit, why)."""

    minimum: int | None
    default: int | None
    run: Callable
    cap: tuple | None = None


# x's sign structure ends at n = 546, so the first theorem needs to see
# past it; the y-side claims need the start of the all-positive tail.
_X_SETTLED = max(verifier.X_ZERO_SET) + 1
_Y_SETTLED = verifier.POSITIVE_TAIL_START

# In report order.  Checks are looked up through their module at call
# time, so a wrapper set there (a tracer or a test double) sees the call.
SUITES = {
    "table": Suite(None, None, lambda limit, _: [verifier.check_reference_table()]),
    "intervals": Suite(None, None, lambda limit, _: [verifier.check_interval_table()]),
    "theorem1": Suite(_X_SETTLED, 600, lambda limit, _: [verifier.check_theorem1(limit)]),
    "theorem2": Suite(_Y_SETTLED, 1000, lambda limit, _: [verifier.check_theorem2(limit)]),
    "lemmas": Suite(
        _Y_SETTLED,
        5000,
        lambda limit, _: [
            verifier.check_gap(limit),
            verifier.check_range_bounds(limit),
            verifier.check_sign_criteria(limit),
            verifier.check_negative_x_bound(limit),
            verifier.check_positive_tail(limit),
        ],
    ),
    "analytic": Suite(
        1,
        100000,
        lambda limit, tol: [
            analytic.check_bounds_x(limit),
            analytic.check_bounds_Y(limit),
            analytic.check_sign_consistency(limit),
            analytic.check_approximations(),
            *analytic.check_roots(tol),
        ],
        cap=(
            10**7,
            "its float envelope scan compares margins that shrink toward float "
            "error as n grows (about 1e-3 at 2**29 + 1, and a float 0.0 for a true "
            "6e-6 at 2**45 + 1), so the cap waits for an error budget",
        ),
    ),
}
# The suites --limit takes up to 10**12: those with a range and no cap.
_UNCAPPED = "|".join(k for k, v in SUITES.items() if v.default and not v.cap)


def _emit_table(columns, records, fmt):
    """Write records, tuples of ints in column order, to stdout as csv,
    json or text.

    csv and json are written as the records arrive, so memory stays flat
    however long the range.  text sizes each column to its widest cell,
    so it keeps every row (as strings) before writing any: it is meant
    for ranges a person reads.
    """
    out = sys.stdout
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        line = ",".join(["%s"] * len(columns)) + "\n"
        out.writelines(line % rec for rec in records)
    elif fmt == "json":
        # The bytes of json.dumps(list_of_dicts, indent=2), a record at a
        # time: JSON writes an int as str() does.
        fields = ",\n    ".join(f"{json.dumps(col)}: %s" for col in columns)
        obj = "{\n    " + fields + "\n  }"
        sep = "[\n  "
        for rec in records:
            out.write(sep + obj % rec)
            sep = ",\n  "
        out.write("[]\n" if sep == "[\n  " else "\n]\n")
    else:
        cells = [tuple(map(str, rec)) for rec in records]
        widths = [
            max([len(col)] + [len(row[i]) for row in cells])
            for i, col in enumerate(columns)
        ]
        line = "  ".join(f"%{w}s" for w in widths) + "\n"
        out.write(line % tuple(columns))
        out.writelines(line % row for row in cells)


def _with_exact_y(records):
    """Append y(n) to each record of sequences.rows, as an exact Decimal.

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
    for rec in records:
        y = sequences.y_value(rec[0])
        if rec[6] != e:  # rec[6] is c - m
            if e is not None and rec[6] > e:
                p = ctx.multiply(p, 1 << (rec[6] - e))
            else:
                p = ctx.power(2, rec[6])
            e = rec[6]
        yield rec + (ctx.subtract(p, (1 << e) - y),)


def cmd_seq(args):
    """Print sequences.rows over [--from, --to]; with --exact-y, add y(n)
    as an exact Decimal built by _with_exact_y, whose text is that of the
    int, so no big int is converted to str and the interpreter's digit
    cap never applies."""
    start, stop = args.start, args.stop
    if start < 1 or stop < start:
        raise ValueError("need 1 <= --from <= --to")
    columns = ["n", "z", "m", "r", "c", "x", "c_minus_m", "y_sign"]
    records = sequences.rows(start, stop)
    if args.exact_y:
        columns.append("y")
        records = _with_exact_y(records)
    _emit_table(columns, records, args.format)
    return 0


def cmd_intervals(args):
    columns = ["index", "lo", "hi", "r", "m", "x_lo", "x_hi"]
    _emit_table(columns, intervals.interval_table(args.limit), args.format)
    return 0


def _emit_reports(reports, fmt):
    if fmt == "json":
        print(verifier.reports_to_json(reports))
    elif fmt == "csv":
        print(verifier.reports_to_csv(reports))
    else:
        print(verifier.reports_to_text(reports))


def _reports_rc(reports, strict):
    if any(rep.status == verifier.DISCREPANCY for rep in reports):
        return 1
    if strict and any(rep.errata for rep in reports):
        return 1
    return 0


def cmd_verify(args):
    # Refuse a bad --tol before any check runs, not after the whole suite.
    analytic.require_tol(args.tol)
    parts = SUITES.values() if args.suite == "all" else [SUITES[args.suite]]
    if args.limit is not None:
        minimum = max((p.minimum for p in parts if p.minimum), default=None)
        if minimum is not None and args.limit < minimum:
            print(
                f"error: suite {args.suite!r} needs --limit >= {minimum} "
                "to attest its claims",
                file=sys.stderr,
            )
            return 2
        cap, reason = min((p.cap for p in parts if p.cap), default=(None, None))
        if cap is not None and args.limit > cap:
            print(
                f"error: suite {args.suite!r} takes --limit <= {cap}: {reason}; "
                f"--suite {_UNCAPPED} reach 10**12",
                file=sys.stderr,
            )
            return 2
        if all(p.default is None for p in parts):
            print(
                f"note: suite {args.suite!r} checks the printed tables at their "
                "fixed range; --limit is ignored",
                file=sys.stderr,
            )
    reports = [rep for p in parts for rep in p.run(args.limit or p.default, args.tol)]
    _emit_reports(reports, args.format)
    return _reports_rc(reports, args.strict)


def cmd_roots(args):
    reports = analytic.check_roots(args.tol)
    _emit_reports(reports, args.format)
    return _reports_rc(reports, args.strict)


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
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.set_defaults(func=cmd_verify)

    p_roots = sub.add_parser("roots", help="isolate the envelope roots")
    p_roots.add_argument("--tol", type=float, default=1e-9)
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
