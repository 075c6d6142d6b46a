"""Command line front end.

Subcommands:

    seq         print the integer sequences over a range of n
    intervals   print the constant-(r, m) interval chain
    verify      run claim checks and report their status
    roots       isolate the envelope roots by bisection

seq writes the pieces of sequences.scan_pieces, one per chain link, as
fixed-width rows in bytearrays, a digit place per strided slice
(_piece_texts); one part of at most PIECE rows may span links.  seq
--exact-y and intervals format a row tuple at a time (_line_texts).  The
text format is the csv text of either, split into cells.

Each verify suite is one row of SUITES: its module and its checks.  A
command imports only the modules it runs: seq imports sequences alone,
and verify imports analytic only for its suite.  verify takes any
--limit >= 1, DEFAULT_LIMIT when none is given, for every suite, and
each report's range says what it lists: the envelope reports [1, min(L,
analytic.MARGINS_TOP)], the printed tables, decimals and root scans
their own fixed range, and every other report [1, L].  --suite all runs
every row at one limit.  A verify run builds y's sign partition at most
once and hands it to every check that reads it.

argv is read by one table, COMMANDS: each command's function, help line
and options, each option a flag, an int or a tuple of choices.
_parse_args reads it as argparse would, unique prefixes included, and
builds -h from it.  argparse is not used: its import, with the gettext
and locale that building a parser loads, would take about 4 ms of each
command's start.

Exit codes: 0 when every requested check is clean (documented errata do
not count against a run unless --strict is given), 1 when a check found
a discrepancy (or, with --strict, an erratum) or when stdout was closed
before the output ended, 2 for usage errors.
"""

import functools
import importlib
import itertools
import os
import sys
import types

from . import sequences


# The --limit of every suite when none is given.  From BAND_BASE on the
# theorem reports carry the band certificate that extends them to every n.
DEFAULT_LIMIT = 10**5

# In report order, each suite a pair (module, run) with run(module, limit,
# y_runs) -> reports, where y_runs(limit) is y's sign partition on [1,
# limit].  A suite's module is imported when the suite runs, and its
# checks are looked up through it at call time, so a wrapper set there (a
# tracer or a test double) sees the call.
SUITES = {
    "table": ("verifier", lambda ver, *_: [ver.check_reference_table()]),
    "intervals": ("verifier", lambda ver, *_: [ver.check_interval_table()]),
    "theorem1": ("verifier", lambda ver, limit, _: [ver.check_theorem1(limit)]),
    "theorem2": ("verifier", lambda ver, limit, y_runs: [ver.check_theorem2(y_runs(limit))]),
    "lemmas": (
        "verifier",
        lambda ver, limit, y_runs: [
            ver.check_gap(limit),
            ver.check_range_bounds(limit),
            ver.check_sign_criteria(y_runs(limit)),
            ver.check_negative_x_bound(y_runs(limit)),
            ver.check_positive_tail(y_runs(limit)),
        ],
    ),
    "analytic": (
        "analytic",
        lambda ana, limit, y_runs: [
            ana.check_bounds_x(limit),
            ana.check_bounds_Y(limit),
            ana.check_sign_consistency(y_runs(limit)),
            ana.check_approximations(),
            *ana.check_roots(),
        ],
    ),
}


# Text tables keep every row before they print any (about 0.7 GB at this
# many seq rows), so longer ones are refused before a row is built.
TEXT_MAX_ROWS = 10**6

# The most rows in one part of seq's fixed-width text, which may span
# chain links: it keeps a part's text small on links of millions of n,
# while the fixed work of a part (a template row and a few strided
# slices) stays rare.
PIECE = 1024

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
    a time, since JSON writes an int as str() does, and a column name, an
    ASCII identifier, as '"%s"' does.  Every json row opens with ",", which
    the first row's "[" replaces."""
    if fmt != "json":
        return [""] + [","] * (len(columns) - 1), "\n"
    names = ['"%s": ' % col for col in columns]
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
    return period, bytes(runs * (PIECE // period + 2))


def _piece_texts(pieces, seps, end):
    """The csv or json text of the pieces of sequences.scan_pieces, with
    no string built per cell or per row.

    A piece is one chain link.  The pieces on certified links with
    x >= 0 (every piece past n = 546) go in parts of at most PIECE rows
    of one width.  A part runs across links, and a link longer than
    PIECE rows across parts.  It is cut where n, z or c gains a digit,
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
    runs = [bytearray(b"%d" % d) * PIECE for d in range(10)]
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
        t = min(s + PIECE, *(col[1](10 ** sizes[cell] - 1) + 1 for cell, col in rising))
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
    sequences.scan_pieces, one per chain link, in parts of fixed-width
    rows that may span links, by _piece_texts, or with --exact-y a row of
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
    if limit < 1:
        raise ValueError("need --limit >= 1")
    # Looked up through the module, so a wrapper there sees each build.
    y_runs = functools.cache(lambda limit: verifier.partition_y(limit))
    reports = [
        rep
        for module, run in parts
        for rep in run(importlib.import_module(f"{__package__}.{module}"), limit, y_runs)
    ]
    return _emit_reports(reports, args)


def cmd_roots(args):
    from . import analytic

    return _emit_reports(analytic.check_roots(), args)


DESCRIPTION = (
    "Exact scans and envelope checks for the sign classification of two integer sequences."
)

# The commands, in help order: (function, help, options).  Each option maps
# its flag to (dest, kind, default, help), where kind is bool for a flag,
# int, or the tuple of the values it takes.
COMMANDS = {
    "seq": (
        cmd_seq,
        "print the sequences over a range",
        {
            "--from": ("start", int, 1, ""),
            "--to": ("stop", int, 16, ""),
            "--format": ("format", ("csv", "json", "text"), "text", ""),
            "--exact-y": ("exact_y", bool, False, "include the exact y column (big integers)"),
        },
    ),
    "intervals": (
        cmd_intervals,
        "print the interval chain",
        {
            "--limit": ("limit", int, 600, ""),
            "--format": ("format", ("csv", "json", "text"), "text", ""),
        },
    ),
    "verify": (
        cmd_verify,
        "run claim checks",
        {
            "--suite": ("suite", (*SUITES, "all"), "all", ""),
            "--limit": ("limit", int, None, ""),
            "--format": ("format", ("text", "json", "csv"), "text", ""),
            "--strict": ("strict", bool, False, "treat documented errata as failures"),
        },
    ),
    "roots": (
        cmd_roots,
        "isolate the envelope roots",
        {
            "--format": ("format", ("text", "json", "csv"), "text", ""),
            "--strict": ("strict", bool, False, "treat documented errata as failures"),
        },
    ),
}


def _metavar(kind):
    """What follows an option's flag in usage and help."""
    return "" if kind is bool else " N" if kind is int else " {%s}" % ",".join(kind)


def _usage(command):
    """The usage line of a command, or of the top level for None."""
    if command is None:
        return "usage: ineqscan [-h] {%s} ..." % ",".join(COMMANDS)
    opts = COMMANDS[command][2].items()
    return f"usage: ineqscan {command} [-h]" + "".join(
        f" [{flag}{_metavar(kind)}]" for flag, (_, kind, _, _) in opts
    )


def _help(command):
    """The -h text of a command, or of the top level for None."""
    if command is None:
        about, rows = DESCRIPTION, [(name, cmd[1]) for name, cmd in COMMANDS.items()]
    else:
        _, about, opts = COMMANDS[command]
        rows = [(flag + _metavar(kind), hint) for flag, (_, kind, _, hint) in opts.items()]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, hint in rows if hint)  # a row without one may be wider
    lines = [f"  {left:{width}}  {hint}".rstrip() for left, hint in rows]
    return "\n".join([_usage(command), "", about, "", *lines, ""])


def _refuse(command, message):
    """Print the usage line and the error to stderr, and exit 2."""
    prog = "ineqscan" if command is None else f"ineqscan {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _invalid_choice(value, choices):
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _parse_args(argv=None):
    """The namespace of argv (sys.argv[1:] by default): its command, the
    command's func, and a value for each of its options.  An option is
    `--opt value`, `--opt=value`, or either with a unique prefix of --opt;
    a later one overrides an earlier.  -h or --help prints help and exits
    0; a refusal names the option and the value, and exits 2."""
    tokens = iter(sys.argv[1:] if argv is None else argv)
    command, opts, values, strays = None, {}, {}, []
    for tok in tokens:
        if tok[:1] != "-" or tok in ("-", "--"):
            if command is not None:
                strays.append(tok)
            elif tok in COMMANDS:
                command, opts = tok, COMMANDS[tok][2]
                values = {dest: default for dest, _, default, _ in opts.values()}
            else:
                _refuse(None, "argument command: " + _invalid_choice(tok, COMMANDS))
            continue
        flag, eq, value = tok.partition("=")
        names = [name for name in ("-h", "--help", *opts) if name.startswith(flag)]
        if flag in names:
            names = [flag]
        if len(names) > 1:
            _refuse(command, f"ambiguous option: {flag} could match {', '.join(names)}")
        if not names:
            strays.append(tok)
            continue
        flag = names[0]
        dest, kind, _, _ = opts.get(flag, ("help", bool, None, None))  # -h, --help
        if eq and kind is bool:
            _refuse(command, f"argument {flag}: ignored explicit argument {value!r}")
        if dest == "help":
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        if kind is bool:
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not value[1:2].isdigit():
                _refuse(command, f"argument {flag}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _refuse(command, f"argument {flag}: invalid int value: {value!r}")
        elif value not in kind:
            _refuse(command, f"argument {flag}: " + _invalid_choice(value, kind))
        values[dest] = value
    if command is None:
        _refuse(None, "the following arguments are required: command")
    if strays:
        _refuse(None, f"unrecognized arguments: {' '.join(strays)}")
    return types.SimpleNamespace(command=command, func=COMMANDS[command][0], **values)


def build_parser():
    """The parser main uses: its parse_args(argv) reads argv by COMMANDS."""
    return types.SimpleNamespace(parse_args=_parse_args)


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
