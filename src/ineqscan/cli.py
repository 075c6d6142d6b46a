"""Command line front end.

Subcommands:

    seq         print the integer sequences over a range of n
    intervals   print the constant-(r, m) interval chain
    verify      run claim checks and report their status
    roots       isolate the envelope roots by bisection

Exit codes: 0 when every requested check is clean (documented errata do
not count against a run unless --strict is given), 1 when a check found
a discrepancy (or, with --strict, an erratum), 2 for usage errors.
"""

import argparse
import json
import sys
from contextlib import contextmanager

from . import analytic, intervals, sequences, verifier

# Smallest --limit each verify suite accepts.  The interesting sign
# structure ends at n = 546, so the first theorem needs to see past it;
# the y-side claims need the start of the all-positive tail at 404.
SUITE_MIN = {
    "table": 1,
    "intervals": 1,
    "theorem1": 547,
    "theorem2": 404,
    "lemmas": 404,
    "analytic": 1,
    "all": 547,
}

# Suites whose range is fixed by the printed tables; --limit does not apply.
FIXED_RANGE_SUITES = ("table", "intervals")

# Scan range used when --limit is not given.
SUITE_DEFAULT = {
    "theorem1": 600,
    "theorem2": 1000,
    "lemmas": 5000,
    "analytic": 100000,
}


def _seq_rows(start, stop, exact_y):
    rows = []
    for n in range(start, stop + 1):
        rw = sequences.row(n)
        rec = {
            "n": rw.n,
            "z": rw.z,
            "m": rw.m,
            "r": rw.r,
            "c": rw.c,
            "x": rw.x,
            "c_minus_m": rw.c_minus_m,
            "y_sign": rw.y_sign,
        }
        if exact_y:
            rec["y"] = sequences.y_value(n)
        rows.append(rec)
    return rows


def _print_table(rows, columns):
    widths = [
        max(len(col), max((len(str(row[col])) for row in rows), default=0))
        for col in columns
    ]
    print("  ".join(col.rjust(w) for col, w in zip(columns, widths)))
    for row in rows:
        print("  ".join(str(row[col]).rjust(w) for col, w in zip(columns, widths)))


@contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int -> str digit cap (Python 3.11+) for the
    block and restore it afterwards: exact y outgrows the default 4300
    digits from n = 21735 on."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def cmd_seq(args):
    start, stop = args.start, args.stop
    if start < 1 or stop < start:
        raise ValueError("need 1 <= --from <= --to")
    rows = _seq_rows(start, stop, args.exact_y)
    columns = ["n", "z", "m", "r", "c", "x", "c_minus_m", "y_sign"]
    if args.exact_y:
        columns.append("y")
    with _unlimited_int_digits():
        if args.format == "csv":
            print(",".join(columns))
            for row in rows:
                print(",".join(str(row[col]) for col in columns))
        elif args.format == "json":
            print(json.dumps(rows, indent=2))
        else:
            _print_table(rows, columns)
    return 0


def cmd_intervals(args):
    records = intervals.interval_table(args.limit)
    columns = ["index", "lo", "hi", "r", "m", "x_lo", "x_hi"]
    rows = [
        {
            "index": rec.index,
            "lo": rec.lo,
            "hi": rec.hi,
            "r": rec.r_const,
            "m": rec.m_const,
            "x_lo": rec.x_lo,
            "x_hi": rec.x_hi,
        }
        for rec in records
    ]
    if args.format == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row[col]) for col in columns))
    elif args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        _print_table(rows, columns)
    return 0


def _suite_reports(suite, limit, tol):
    reports = []
    if suite in ("table", "all"):
        reports.append(verifier.check_reference_table())
    if suite in ("intervals", "all"):
        reports.append(verifier.check_interval_table())
    if suite in ("theorem1", "all"):
        reports.append(verifier.check_theorem1(limit or SUITE_DEFAULT["theorem1"]))
    if suite in ("theorem2", "all"):
        reports.append(verifier.check_theorem2(limit or SUITE_DEFAULT["theorem2"]))
    if suite in ("lemmas", "all"):
        span = limit or SUITE_DEFAULT["lemmas"]
        reports.append(verifier.check_gap(span))
        reports.append(verifier.check_range_bounds(span))
        reports.append(verifier.check_sign_criteria(span))
        reports.append(verifier.check_negative_x_bound(span))
        reports.append(verifier.check_positive_tail(span))
    if suite in ("analytic", "all"):
        span = limit or SUITE_DEFAULT["analytic"]
        reports.append(analytic.check_bounds_x(span))
        reports.append(analytic.check_bounds_Y(span))
        reports.append(analytic.check_sign_consistency(span))
        reports.append(analytic.check_approximations())
        reports.extend(analytic.check_roots(tol))
    return reports


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
    if args.limit is not None and args.limit < SUITE_MIN[args.suite]:
        print(
            f"error: suite {args.suite!r} needs --limit >= "
            f"{SUITE_MIN[args.suite]} to attest its claims",
            file=sys.stderr,
        )
        return 2
    if args.limit is not None and args.suite in FIXED_RANGE_SUITES:
        print(
            f"note: suite {args.suite!r} checks the printed tables at their "
            "fixed range; --limit is ignored",
            file=sys.stderr,
        )
    reports = _suite_reports(args.suite, args.limit, args.tol)
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
        choices=("table", "intervals", "theorem1", "theorem2", "lemmas", "analytic", "all"),
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
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
