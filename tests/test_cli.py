"""End-to-end tests of the command line front end.

Everything runs in-process through cli.main so exit codes and exact
stdout bytes can be asserted without spawning subprocesses; only the
closed-pipe test needs a real child process and a real pipe, and the
four import tests a fresh interpreter.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqscan import analytic, cli, sequences, verifier
from reference import reference_intervals, reference_seq, unlimited_int_digits, y

# computed rows for the default seq range, including the exact y column
SEQ_ROWS_1_16 = [
    (1, 0, 1, 0, 4, -1, 3, 1, 7),
    (2, 1, 2, 1, 4, -3, 2, 1, 2),
    (3, 1, 2, 2, 6, -5, 4, 1, 13),
    (4, 2, 2, 2, 6, -4, 4, 1, 12),
    (5, 3, 3, 3, 6, -9, 3, -1, -17),
    (6, 3, 3, 3, 8, -9, 5, -1, -4),
    (7, 4, 3, 3, 8, -8, 5, -1, -17),
    (8, 5, 4, 3, 8, -11, 4, -1, -496),
    (9, 5, 4, 4, 10, -15, 6, -1, -665),
    (10, 6, 4, 4, 10, -14, 6, -1, -936),
    (11, 7, 4, 4, 10, -13, 6, -1, -1267),
    (12, 7, 4, 4, 12, -13, 8, -1, -1472),
    (13, 8, 5, 4, 12, -17, 7, -1, -28433),
    (14, 9, 5, 4, 12, -16, 7, -1, -38288),
    (15, 9, 5, 4, 14, -16, 9, -1, -50113),
    (16, 10, 5, 4, 14, -15, 9, -1, -65024),
]


# The n at which each column of seq first reaches 10**4 and 10**5; below
# n = power / 2 and up to 2 * power, no column crosses power elsewhere.
DIGIT_STEPS = {
    10**4: {"n": 10000, "c": 14994, "z": 15001, "c_minus_m": 15255, "x": 19753},
    10**5: {"n": 100000, "c": 149994, "z": 150001, "c_minus_m": 150819, "x": 166417},
}


# Link starts where seq's fixed-width parts must cut or rewrite a cell:
# x falls from 103 to 93 at the first n of m's block 40, and m gains a
# digit at the first n of its block 100, so a part is cut at each; r
# steps at 2**k + 1, inside an m-block and, for 12 <= k <= 17, with every
# column keeping its width, so a part runs across each and rewrites r.
LINK_STEPS = {"x": 800, "m": 5000, "r": [2**k + 1 for k in range(12, 18)]}


def printed_y(out):
    """(n, y) as printed by seq --format csv --exact-y, both kept as text."""
    return [(f[0], f[-1]) for f in (ln.split(",") for ln in out.split("\n")[1:-1])]


def expected_y(start, stop):
    with unlimited_int_digits():
        return [(str(n), str(y(n))) for n in range(start, stop + 1)]


class TestStreamedOutput:
    # 2040..2060 crosses m's step at 2n = 64*64 (n = 2048) and r's at
    # n = 2**11 + 1; y(21735) is the first y with more than 4300 digits;
    # 124997..125003 crosses m's step at n = 500*500/2, where c - m falls.
    # The csv and json text of a value past 999 is its thousands and its
    # last three digits, so each column's step from 999 to 1000 has a
    # window: n at 1000, c at 1494, z at 1501, c - m at 1578 and x at
    # 3002.  seq cuts a part where a column gains a digit, so each
    # column's steps to 10**4 and 10**5 have a window too.  525300..525330
    # holds the start of the first link longer than PIECE rows, at 525313.
    # A part runs across links, so each link step of LINK_STEPS has a
    # window too.
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("exact_y", [False, True])
    @pytest.mark.parametrize(
        "start, stop",
        [
            (1, 1),
            (1, 16),
            (13, 16),
            (400, 600),
            (990, 1010),
            (1490, 1510),
            (1570, 1585),
            (2995, 3010),
            (2040, 2060),
            (21730, 21740),
            (124997, 125003),
            (525300, 525330),
        ]
        + [(n - 10, n + 10) for n in DIGIT_STEPS[10**4].values()]
        + [(n - 10, n + 10) for n in DIGIT_STEPS[10**5].values()]
        + [(n - 10, n + 10) for n in (LINK_STEPS["x"], LINK_STEPS["m"], *LINK_STEPS["r"])],
    )
    def test_seq_matches_row_by_row_emitter(self, capsys, fmt, exact_y, start, stop):
        argv = ["seq", "--from", str(start), "--to", str(stop), "--format", fmt]
        assert cli.main(argv + ["--exact-y"] * exact_y) == 0
        assert capsys.readouterr().out == reference_seq(start, stop, exact_y, fmt)

    def test_columns_step_past_999_in_their_windows(self):
        # each window above holds the step of its column from 999 to 1000
        steps = {"n": 1000, "c": 1494, "z": 1501, "c_minus_m": 1578, "x": 3002}
        for name, n in steps.items():
            before, at = (getattr(sequences.row(k), name) for k in (n - 1, n))
            assert before <= 999 < 1000 <= at, name
        links = sequences.chain_links(1, 525313 + cli.PIECE)
        assert [a for a, b, _, _ in links if b - a + 1 > cli.PIECE] == [525313]

    @pytest.mark.parametrize("power", DIGIT_STEPS)
    def test_columns_gain_a_digit_in_their_windows(self, power):
        # each column crosses power once, at its window's centre
        rows = list(sequences.scan(power // 2, 2 * power - 1))
        for name, n in DIGIT_STEPS[power].items():
            values = [row[sequences.SequenceRow._fields.index(name)] for row in rows]
            crossings = [k for k, (a, b) in enumerate(zip(values, values[1:])) if a < power <= b]
            assert crossings == [n - power // 2 - 1], name

    def test_link_steps_in_their_windows(self):
        # each link step of LINK_STEPS is the first n of a link, at its
        # window's centre, where the column named changes as described
        row = sequences.row
        starts = {a for a, _, _, _ in sequences.chain_links(1, 2**17 + 1)}
        n = LINK_STEPS["x"]
        assert n == sequences.m_block(40)[0] and n in starts
        assert (row(n - 1).x, row(n).x) == (103, 93)
        n = LINK_STEPS["m"]
        assert n == sequences.m_block(100)[0] and n in starts
        assert (row(n - 1).m, row(n).m) == (99, 100)
        for k, n in zip(range(12, 18), LINK_STEPS["r"]):
            before, at = row(n - 1), row(n)
            assert n in starts and (before.r, at.r) == (k, k + 1) and before.m == at.m
            for name in ("n", "z", "r", "c", "x", "c_minus_m"):
                assert len(str(getattr(before, name))) == len(str(getattr(at, name))), (k, name)

    def test_parts_run_across_pieces(self):
        # over [600, 200599] the 608 pieces, one per chain link, go in 208
        # fixed-width parts
        seps, end = cli._row_parts(list(sequences.SequenceRow._fields), "csv")
        pieces = sum(1 for _ in sequences.scan_pieces(600, 200599))
        parts = sum(1 for _ in cli._piece_texts(sequences.scan_pieces(600, 200599), seps, end))
        assert parts < pieces

    # a window can span a width cut, a thousand step and a part's end
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2 * 10**6), st.integers(0, 2100))
    def test_seq_matches_row_by_row_emitter_on_any_window(self, start, width):
        argv = ["seq", "--from", str(start), "--to", str(start + width), "--format"]
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli.main(argv + [fmt]) == 0
            assert buf.getvalue() == reference_seq(start, start + width, False, fmt)

    def test_seq_compares_y_terms_only_on_open_links(self, monkeypatch, capsys):
        # a link that positive_link certifies prints y's sign without a
        # comparison; each n of the others takes one y_sign call
        open_n = sum(
            b - a + 1
            for a, b, _, mm in sequences.chain_links(1, 5000)
            if not sequences.positive_link(a, b, mm)
        )
        calls = 0
        y_sign = sequences.y_sign

        def counting(n):
            nonlocal calls
            calls += 1
            return y_sign(n)

        monkeypatch.setattr(sequences, "y_sign", counting)
        assert cli.main(["seq", "--from", "1", "--to", "5000", "--format", "csv"]) == 0
        assert capsys.readouterr().out == reference_seq(1, 5000, False, "csv")
        assert calls == open_n == verifier.partition_y(5000).per_n

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_intervals_match_table_emitter(self, capsys, fmt):
        assert cli.main(["intervals", "--limit", "600", "--format", fmt]) == 0
        assert capsys.readouterr().out == reference_intervals(600, fmt)

    @staticmethod
    def traced_peak(monkeypatch, argv):
        """The peak of memory traced while cli.main runs argv into devnull,
        after one untraced run, so that work done once per process (json's
        import, the cached digit patterns) stays out of it."""
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            assert cli.main(argv) == 0
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_seq_streams_in_constant_memory(self, monkeypatch, fmt):
        # 100k rows held as dicts took tens of MB
        argv = ["seq", "--from", "1", "--to", "100000", "--format", fmt]
        assert self.traced_peak(monkeypatch, argv) < 2 * 2**20

    # One guard per way the output could hold too much: every y at once
    # (about 2 MB here, where one at a time peaks near 0.1 MiB), the
    # interval table formatted all at once, and a part's bytearray held
    # beside its text while seq's writer waits at its yield.  A part's
    # text is the largest a part holds; on the 10**12 windows the peak is
    # 0.223-0.232 MiB in csv and 0.596-0.609 MiB in json (Python 3.10 and
    # 3.11), and 0.306-0.308 and 0.778-0.785 MiB with the bytearray held,
    # so each bound lies between the two.
    @pytest.mark.parametrize(
        "argv, limit_mb",
        [
            (["seq", "--from", "60000", "--to", "60399", "--exact-y", "--format", "csv"], 1),
            (["seq", "--from", "60000", "--to", "60399", "--exact-y", "--format", "json"], 1),
            (["seq", "--from", str(10**12), "--to", str(10**12 + 20000), "--format", "csv"], 0.27),
            (["intervals", "--limit", str(10**9), "--format", "csv"], 1),
            (["seq", "--from", str(10**12), "--to", str(10**12 + 20000), "--format", "json"], 0.69),
        ],
    )
    def test_blocks_hold_little(self, monkeypatch, argv, limit_mb):
        assert self.traced_peak(monkeypatch, argv) < limit_mb * 2**20

    def test_closed_pipe_exits_quietly(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["seq", "--to", "1000000", "--format", "csv"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "ineqscan.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            head = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert head == [b"n,z,m,r,c,x,c_minus_m,y_sign\n", b"1,0,1,0,4,-1,3,1\n"]
        assert err == b""
        assert proc.returncode == 1


class TestDigitPatterns:
    """cli._digits, read as the seq writer reads it: at n, and for x and
    c - m, whose offset is 2q + e, at n - 3q."""

    # (f, last, unit, shifts q): n is read unshifted
    COLUMNS = [
        (int, int, 10, [0]),
        (sequences.z, sequences.z_last, 15, [0, 1, 7, 12345]),
        (sequences.c, sequences.c_last, 15, [0, 1, 7, 12345]),
    ]

    @pytest.mark.parametrize("f, last, unit, shifts", COLUMNS)
    @pytest.mark.parametrize("place", [0, 1, 2])
    @pytest.mark.parametrize("e", [0, 1])
    def test_each_row_of_two_periods_reads_its_digit(self, f, last, unit, shifts, place, e):
        period, digits = cli._digits(f, last, unit, place, e)
        assert period == unit * 10**place
        assert len(digits) >= period + cli.PIECE
        for q in shifts:
            lo = 3 * q + 1 + 12345  # any n from which n - 3q >= 1
            want = bytes(
                48 + (f(n) - 2 * q - e) // 10**place % 10
                for n in range(lo, lo + 2 * period + cli.PIECE)
            )
            # each read of a part, PIECE rows from any of two periods of n
            for n in range(lo, lo + 2 * period):
                j = (n - 3 * q) % period
                assert digits[j : j + cli.PIECE] == want[n - lo : n - lo + cli.PIECE]


class TestSeq:
    def test_csv_exact_bytes(self, capsys):
        assert cli.main(["seq", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.split("\n")
        assert lines[0] == "n,z,m,r,c,x,c_minus_m,y_sign"
        assert len(lines) == 18 and lines[-1] == ""
        for row, line in zip(SEQ_ROWS_1_16, lines[1:17]):
            assert line == ",".join(str(v) for v in row[:8])

    def test_exact_y_column(self, capsys):
        assert cli.main(["seq", "--format", "csv", "--exact-y"]) == 0
        out = capsys.readouterr().out
        lines = out.split("\n")
        assert lines[0] == "n,z,m,r,c,x,c_minus_m,y_sign,y"
        for row, line in zip(SEQ_ROWS_1_16, lines[1:17]):
            assert line == ",".join(str(v) for v in row)

    def test_default_format_is_text(self, capsys):
        assert cli.main(["seq", "--to", "2"]) == 0
        out = capsys.readouterr().out
        assert "," not in out.split("\n")[0]
        assert out.split("\n")[0].split() == [
            "n", "z", "m", "r", "c", "x", "c_minus_m", "y_sign",
        ]

    def test_subrange(self, capsys):
        assert cli.main(["seq", "--from", "13", "--to", "16", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[1].startswith("13,")
        assert lines[4].startswith("16,")

    def test_zero_x_row(self, capsys):
        assert cli.main(["seq", "--from", "436", "--to", "436", "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        fields = out[1].split(",")
        assert fields[0] == "436"
        assert fields[5] == "0"  # the x column

    def test_json_is_byte_stable(self, capsys):
        assert cli.main(["seq", "--format", "json", "--exact-y"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["seq", "--format", "json", "--exact-y"]) == 0
        second = capsys.readouterr().out
        assert first == second
        rows = json.loads(first)
        assert rows[14]["x"] == -16 and rows[14]["y"] == -50113

    def test_text_format(self, capsys):
        assert cli.main(["seq", "--format", "text", "--to", "3"]) == 0
        out = capsys.readouterr().out
        header = out.split("\n")[0].split()
        assert header == ["n", "z", "m", "r", "c", "x", "c_minus_m", "y_sign"]

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_exact_y_past_the_digit_cap(self, capsys, fmt):
        # y(21735) is the first y with more than 4300 decimal digits
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        argv = ["seq", "--from", "21730", "--to", "21740", "--exact-y"]
        assert cli.main(argv + ["--format", fmt]) == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
        out = capsys.readouterr().out
        with unlimited_int_digits():
            if fmt == "json":
                got = [(row["n"], row["y"]) for row in json.loads(out)]
            elif fmt == "csv":
                lines = out.strip().split("\n")[1:]
                got = [(int(f[0]), int(f[-1])) for f in (ln.split(",") for ln in lines)]
            else:
                lines = out.strip().split("\n")[1:]
                got = [(int(f[0]), int(f[-1])) for f in (ln.split() for ln in lines)]
            assert got == [(n, y(n)) for n in range(21730, 21741)]
            assert len(str(abs(y(21735)))) > 4300

    # The y column carries 2**(c - m) from row to row: all of [1, 600]
    # (y <= 0 up to 368), m's steps at n = k*k//2 (c - m falls by 1, or
    # rises by 1 where the step is a multiple of 3), windows starting at
    # each residue mod 3 (c - m rises by 2 at multiples of 3), r's steps
    # at 2**r and one window at 10**6.
    @pytest.mark.parametrize(
        "start, stop",
        [(1, 600)]
        + [(k * k // 2 - 3, k * k // 2 + 3) for k in (37, 66, 99, 150, 301, 500, 700)]
        + [(3000 + i, 3010 + i) for i in range(3)]
        + [(2**r - 3, 2**r + 3) for r in range(11, 18)]
        + [(10**6, 10**6 + 2)],
    )
    def test_exact_y_column_is_str_of_y_value(self, capsys, start, stop):
        argv = ["seq", "--from", str(start), "--to", str(stop), "--format", "csv"]
        assert cli.main(argv + ["--exact-y"]) == 0
        assert printed_y(capsys.readouterr().out) == expected_y(start, stop)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2 * 10**5), st.integers(0, 40))
    def test_exact_y_column_on_any_window(self, start, width):
        buf = io.StringIO()
        argv = ["seq", "--from", str(start), "--to", str(start + width), "--exact-y"]
        with redirect_stdout(buf):
            assert cli.main(argv + ["--format", "csv"]) == 0
        assert printed_y(buf.getvalue()) == expected_y(start, start + width)

    # sha256 of the csv bytes, recorded once: every row of the first
    # 200000 (the benchmark's window, y <= 0 up to n = 368) and 20000 rows
    # around 10**12, where every chain link is certified positive whole
    @pytest.mark.parametrize(
        "start, stop, digest",
        [
            (1, 200000, "62c2e4bf7512b7fe11d03be39e0020def96fa58f943764e99d7240239ba1d3c6"),
            (
                999999990000,
                1000000009999,
                "8dc0004c0d314281dd43a2a7a1aef33869b639593ba9272547decb85e0daede7",
            ),
        ],
    )
    def test_csv_matches_golden_digest(self, start, stop, digest):
        buf = io.StringIO()
        argv = ["seq", "--from", str(start), "--to", str(stop), "--format", "csv"]
        with redirect_stdout(buf):
            assert cli.main(argv) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    # the same windows as json: the pieces are written with other
    # separators, whose first row opens with "[" instead of ","
    @pytest.mark.parametrize(
        "start, stop, digest",
        [
            (1, 200000, "7fabc2bd67dacb822ba27eaebb3720379ab73cafb12ec4ea993d9a3640a1ffc5"),
            (
                999999990000,
                1000000009999,
                "927d590c90e590924f241a7f98d340d33d4b4338332da53d2b8082ac9c19ecec",
            ),
        ],
    )
    def test_json_matches_golden_digest(self, start, stop, digest):
        buf = io.StringIO()
        argv = ["seq", "--from", str(start), "--to", str(stop), "--format", "json"]
        with redirect_stdout(buf):
            assert cli.main(argv) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("exact_y", [False, True])
    def test_long_text_range_is_refused_before_any_row(
        self, capsys, monkeypatch, exact_y
    ):
        def no_rows(lo, hi):
            raise AssertionError("a row was built")

        monkeypatch.setattr(sequences, "scan_pieces", no_rows)
        monkeypatch.setattr(sequences, "scan", no_rows)
        argv = ["seq", "--from", "5", "--to", str(5 + cli.TEXT_MAX_ROWS)]
        assert cli.main(argv + ["--exact-y"] * exact_y) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "--format csv|json" in err
        assert str(cli.TEXT_MAX_ROWS) in err

    def test_text_limit_is_inclusive(self, capsys, monkeypatch):
        assert cli.TEXT_MAX_ROWS == 10**6
        monkeypatch.setattr(cli, "TEXT_MAX_ROWS", 4)
        assert cli.main(["seq", "--from", "13", "--to", "16"]) == 0
        assert capsys.readouterr().out == reference_seq(13, 16, False, "text")
        assert cli.main(["seq", "--from", "13", "--to", "17"]) == 2
        assert capsys.readouterr().out == ""
        # csv and json stream, so the limit does not apply to them
        for fmt in ("csv", "json"):
            assert cli.main(["seq", "--from", "13", "--to", "17", "--format", fmt]) == 0
            assert capsys.readouterr().out == reference_seq(13, 17, False, fmt)

    def test_exact_y_past_its_bound_is_refused_before_any_row(self, capsys, monkeypatch):
        assert cli.EXACT_Y_MAX_N == 10**8
        monkeypatch.setattr(cli, "EXACT_Y_MAX_N", 20)
        argv = ["seq", "--from", "17", "--format", "csv", "--to"]
        assert cli.main(argv + ["20", "--exact-y"]) == 0
        assert capsys.readouterr().out == reference_seq(17, 20, True, "csv")
        # without --exact-y the bound does not apply
        assert cli.main(argv + ["21"]) == 0
        assert capsys.readouterr().out == reference_seq(17, 21, False, "csv")

        def never(*args):
            raise AssertionError("a row or a y was built")

        for name in ("scan_pieces", "scan", "y_value"):
            monkeypatch.setattr(sequences, name, never)
        assert cli.main(argv + ["21", "--exact-y"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --exact-y takes --to <= 20, not 21\n"

    def test_bad_range_exits_2(self, capsys):
        assert cli.main(["seq", "--from", "0", "--to", "5"]) == 2
        assert cli.main(["seq", "--from", "9", "--to", "3"]) == 2
        err = capsys.readouterr().err
        assert "error" in err


class TestIntervals:
    def test_csv_links(self, capsys):
        assert cli.main(["intervals", "--limit", "545", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "index,lo,hi,r,m,x_lo,x_hi"
        assert len(lines) == 42
        assert lines[1] == "1,1,1,0,1,-1,-1"
        assert lines[41] == "41,545,577,10,33,0,21"

    def test_json(self, capsys):
        assert cli.main(["intervals", "--limit", "8", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["lo"] for r in rows] == [1, 2, 3, 5, 8]

    def test_bad_limit_exits_2(self, capsys):
        for limit in ("0", "-5"):
            assert cli.main(["intervals", "--limit", limit]) == 2
            assert capsys.readouterr() == ("", "error: need --limit >= 1\n")

    def test_long_text_table_is_refused_before_any_link(self, capsys, monkeypatch):
        # at most isqrt(2 * limit) m-blocks, and one more link per power of
        # two: 447250 rows bound 10**11's 447248, and 1414253 pass the
        # limit at 10**12, so only text at 10**12 is refused
        class Walked(Exception):
            pass

        def no_links(lo, hi):
            raise Walked

        monkeypatch.setattr(sequences, "chain_links", no_links)
        assert cli.main(["intervals", "--limit", str(10**12)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "--format csv|json" in err
        assert str(cli.TEXT_MAX_ROWS) in err
        for argv in (
            ["intervals", "--limit", str(10**11)],
            ["intervals", "--limit", str(10**12), "--format", "csv"],
        ):
            with pytest.raises(Walked):
                cli.main(argv)

    def test_text_limit_applies_to_the_bound(self, capsys, monkeypatch):
        # the table to 10 has 6 links; its bound is isqrt(20) + bitlen(10) = 8
        monkeypatch.setattr(cli, "TEXT_MAX_ROWS", 8)
        assert cli.main(["intervals", "--limit", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6
        assert cli.main(["intervals", "--limit", "13"]) == 2
        assert capsys.readouterr().out == ""
        assert cli.main(["intervals", "--limit", "13", "--format", "csv"]) == 0


# The reports that list a fixed range whatever the --limit: the printed
# tables, the printed decimals and the root scans.
FIXED_RANGES = {
    "reference-table": [1, 16],
    "interval-table": [1, 577],
    "analytic/approximations": [325, 391],
    **{
        f"roots/{name}": [start, analytic.ROOT_SCAN_HI]
        for name, start in analytic.ROOT_SCAN_START.items()
    },
}


class TestVerify:
    def test_all_at_5000_is_clean(self, capsys):
        assert cli.main(["verify", "--suite", "all", "--limit", "5000"]) == 0
        out = capsys.readouterr().out
        assert "0 discrepancies" in out
        assert "4 documented erratum entries" in out

    def test_all_strict_flags_errata(self, capsys):
        rc = cli.main(["verify", "--suite", "all", "--limit", "5000", "--strict"])
        capsys.readouterr()
        assert rc == 1

    def test_json_structure(self, capsys):
        assert (
            cli.main(
                ["verify", "--suite", "all", "--limit", "5000", "--format", "json"]
            )
            == 0
        )
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 17
        by_claim = {rep["claim_id"]: rep for rep in reports}
        errata = [e for rep in reports for e in rep["errata"]]
        assert len(errata) == 4
        assert {e["item"] for e in errata} == {
            "x(15)",
            "x(16)",
            "interval 41 m",
            "y-lower root bracket",
        }
        assert by_claim["theorem1"]["status"] == "CONFIRMED"
        assert by_claim["theorem2"]["status"] == "CONFIRMED"
        assert all(rep["counterexamples"] == [] for rep in reports)

    def test_single_suites(self, capsys):
        for suite in ("table", "intervals", "analytic"):
            assert cli.main(["verify", "--suite", suite]) == 0
            capsys.readouterr()

    def test_theorem_suites_with_defaults(self, capsys):
        assert cli.main(["verify", "--suite", "theorem1"]) == 0
        assert cli.main(["verify", "--suite", "theorem2"]) == 0
        assert cli.main(["verify", "--suite", "lemmas"]) == 0
        capsys.readouterr()

    def test_table_suites_list_their_printed_range(self, capsys):
        # --limit is read by every suite alike; the tables list their
        # printed range whatever it is, and nothing goes to stderr
        for suite in ("table", "intervals"):
            assert cli.main(["verify", "--suite", suite]) == 0
            plain = capsys.readouterr()
            assert plain.err == ""
            assert cli.main(["verify", "--suite", suite, "--limit", "5000"]) == 0
            assert capsys.readouterr() == (plain.out, "")

    def test_theorem2_at_one_billion(self, capsys):
        assert cli.main(["verify", "--suite", "theorem2", "--limit", "1000000000"]) == 0
        assert "[CONFIRMED] theorem2  [1, 1000000000]" in capsys.readouterr().out

    def test_json_counts_blocks(self, capsys):
        argv = ["verify", "--suite", "theorem2", "--limit", "5000", "--format", "json"]
        assert cli.main(argv) == 0
        (rep,) = json.loads(capsys.readouterr().out)
        assert set(rep["data"]) == {"runs", "blocks", "per_n", "certificate"}
        assert rep["data"]["certificate"]["base"] == [1, verifier.BAND_BASE]

    def test_low_limit_exits_2(self, monkeypatch, capsys):
        # every suite that reads --limit refuses one below 1 before any
        # check runs; a 0 taken for "no --limit" would run at 100000
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before --limit was refused")

        for module in (verifier, analytic):
            for name in dir(module):
                if name.startswith(("check_", "partition_")):
                    monkeypatch.setattr(module, name, must_not_run)
        for suite in (*cli.SUITES, "all"):
            for limit in ("0", "-3"):
                argv = ["verify", "--suite", suite, "--limit", limit]
                assert cli.main(argv) == 2, argv
                assert capsys.readouterr() == ("", "error: need --limit >= 1\n"), argv

    @staticmethod
    def verify_json(capsys, suite, limit):
        argv = ["verify", "--suite", suite, "--limit", str(limit), "--format", "json"]
        assert cli.main(argv) == 0
        return {rep["claim_id"]: rep for rep in json.loads(capsys.readouterr().out)}

    @pytest.mark.parametrize("suite", [*cli.SUITES, "all"])
    @pytest.mark.parametrize(
        "limit",
        [1, 2, 5, 9, 10, 335, 336, 403, 404, 546, 547, 2111, 2112, 10**7 + 1, 10**100],
    )
    def test_every_suite_runs_at_any_limit(self, capsys, suite, limit):
        # any limit >= 1 runs; the envelope reports list [1, min(L, 10**7)],
        # the same reports past it as at 10**7, the printed tables,
        # decimals and root scans their own fixed range, and every other
        # report ends at L; from the band's base 2112 on the theorem
        # reports carry the certificate
        reports = self.verify_json(capsys, suite, limit)
        assert reports
        assert verifier.DISCREPANCY not in {rep["status"] for rep in reports.values()}
        top = analytic.MARGINS_TOP
        at_top = self.verify_json(capsys, suite, top) if limit > top else reports
        for claim, rep in reports.items():
            if claim in ("analytic/x-bounds", "analytic/Y-bounds"):
                assert rep["range"] == [1, min(limit, top)], claim
                assert rep == at_top[claim], claim
            elif claim in FIXED_RANGES:
                assert rep["range"] == FIXED_RANGES[claim], claim
            else:
                assert rep["range"][1] == limit, claim
            if claim in ("theorem1", "theorem2"):
                assert rep["range"] == [1, limit]
                certified = rep["data"]["certificate"] is not None
                assert certified == (limit >= verifier.BAND_BASE), claim

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("limit", [5, 403])
    def test_positive_tail_below_its_start(self, capsys, fmt, limit):
        # below 404 the tail report covers [1, L] and says no n of its
        # claim is in range; no report prints a range with lo > hi
        argv = ["verify", "--suite", "all", "--limit", str(limit), "--format", fmt]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            reports = {rep["claim_id"]: rep for rep in json.loads(out)}
            ranges = {claim: tuple(rep["range"]) for claim, rep in reports.items()}
            details = reports["lemmas/positive-tail"]["details"]
        else:
            rows = {row["claim_id"]: row for row in csv.DictReader(io.StringIO(out))}
            ranges = {claim: (int(row["lo"]), int(row["hi"])) for claim, row in rows.items()}
            details = rows["lemmas/positive-tail"]["details"]
        assert ranges["lemmas/positive-tail"] == (1, limit)
        assert details == "no n >= 404 is in range"
        assert all(lo <= hi for lo, hi in ranges.values()), ranges

    @pytest.mark.parametrize(
        "suite, limit, err",
        [
            ("theorem1", "0", "error: need --limit >= 1\n"),
        ],
    )
    def test_refusal_text(self, capsys, suite, limit, err):
        assert cli.main(["verify", "--suite", suite, "--limit", limit]) == 2
        assert capsys.readouterr() == ("", err)

    def test_lemmas_at_one_billion(self, capsys):
        argv = ["verify", "--suite", "lemmas", "--limit", "1000000000", "--format", "json"]
        assert cli.main(argv) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 5
        for rep in reports:
            assert rep["status"] == "CONFIRMED", rep["claim_id"]
            assert rep["range"][1] == 10**9

    def test_lemmas_at_a_googol(self, capsys):
        # past n = 2112 the band settles every lemma, so any limit is cheap
        argv = ["verify", "--suite", "lemmas", "--limit", str(10**100), "--format", "json"]
        assert cli.main(argv) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [rep["status"] for rep in reports] == ["CONFIRMED"] * 5
        assert {rep["range"][1] for rep in reports} == {10**100}

    def test_csv_format(self, capsys):
        assert cli.main(["verify", "--suite", "table", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("claim_id,lo,hi,status")
        assert len(lines) == 2


LEMMA_CHECKS = [
    "check_gap",
    "check_range_bounds",
    "check_sign_criteria",
    "check_negative_x_bound",
    "check_positive_tail",
]


def all_suite_calls(limit=100000):
    """Every check verify --suite all runs, in report order, with the
    arguments it gets: the --limit given, else 100000."""
    return [
        ("verifier", "check_reference_table"),
        ("verifier", "check_interval_table"),
        ("verifier", "check_theorem1", limit),
        ("verifier", "check_theorem2", limit),
        *(("verifier", name, limit) for name in LEMMA_CHECKS),
        ("analytic", "check_bounds_x", limit),
        ("analytic", "check_bounds_Y", limit),
        ("analytic", "check_sign_consistency", limit),
        ("analytic", "check_approximations"),
        ("analytic", "check_roots"),
    ]


def limit_of(arg):
    """The limit a check was run at: a SignPartition's, or arg itself."""
    return arg.limit if isinstance(arg, verifier.SignPartition) else arg


class TestSuiteTable:
    """verify looks each check up through its module when it runs, so a
    wrapper set on the module sees every call, with the limit the suite
    passes; a check that reads y's sign runs gets y's partition on
    [1, limit], recorded here by its limit."""

    @pytest.fixture
    def calls(self, monkeypatch):
        recorded = []
        for module in (verifier, analytic):
            short = module.__name__.rsplit(".", 1)[-1]
            for name in dir(module):
                if name.startswith("check_"):
                    check = getattr(module, name)

                    def wrapper(*args, _check=check, _name=(short, name)):
                        recorded.append((*_name, *map(limit_of, args)))
                        return _check(*args)

                    monkeypatch.setattr(module, name, wrapper)
        return recorded

    @pytest.fixture
    def y_builds(self, monkeypatch):
        built = []
        partition_y = verifier.partition_y

        def spy(limit):
            built.append(limit)
            return partition_y(limit)

        monkeypatch.setattr(verifier, "partition_y", spy)
        return built

    @pytest.mark.parametrize(
        "argv, limits",
        [
            ([], [100000]),
            (["--suite", "all", "--limit", "547"], [547]),
            (["--suite", "lemmas"], [100000]),
            (["--suite", "theorem1"], []),
            (["--suite", "theorem2", "--limit", "10000"], [10000]),
            (["--suite", "analytic", "--limit", "600"], [600]),
        ],
    )
    def test_y_partition_built_once_per_limit(self, y_builds, capsys, argv, limits):
        assert cli.main(["verify", *argv]) == 0
        capsys.readouterr()
        assert y_builds == limits

    def test_default_run_certifies_both_theorems(self, y_builds, capsys):
        # without --limit every suite runs at 100000, past the band's base
        # 2112, so both theorem reports carry the certificate that extends
        # them to every n, from one partition of y
        assert cli.main(["verify", "--format", "json"]) == 0
        by_claim = {rep["claim_id"]: rep for rep in json.loads(capsys.readouterr().out)}
        for claim in ("theorem1", "theorem2"):
            assert by_claim[claim]["range"] == [1, 100000], claim
            assert by_claim[claim]["data"]["certificate"]["base"] == [1, verifier.BAND_BASE]
        assert y_builds == [100000]

    def test_all_runs_every_check_in_report_order_at_its_default(self, calls, capsys):
        assert cli.main(["verify"]) == 0
        capsys.readouterr()
        assert calls == all_suite_calls()

    def test_all_passes_the_given_limit(self, calls, capsys):
        argv = ["verify", "--suite", "all", "--limit", "100"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == all_suite_calls(limit=100)

    @pytest.mark.parametrize("argv, limit", [([], 100000), (["--limit", "404"], 404)])
    def test_lemmas_runs_exactly_the_lemma_checks(self, calls, capsys, argv, limit):
        assert cli.main(["verify", "--suite", "lemmas", *argv]) == 0
        capsys.readouterr()
        assert calls == [("verifier", name, limit) for name in LEMMA_CHECKS]


def readme_suites():
    """The suite names of README's suite table, the first cell of each
    row below its "| Suite | Claims |" header."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Suite | Claims |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    return [line.split("|")[1].strip().strip("`") for line in table.splitlines()]


def test_readme_suite_table_matches_suites():
    assert readme_suites() == [*cli.SUITES, "all"]


@pytest.mark.parametrize(
    "suite, limit",
    [
        ("theorem1", 10**6),
        ("theorem2", 10**6),
        ("lemmas", 10**9),
        ("table", None),
        ("intervals", None),
    ],
)
def test_integer_suites_match_golden_bytes(capsys, suite, limit):
    # tests/golden holds the JSON these suites print, recorded once; it
    # holds no floats, so a changed byte is a change of behaviour: mend the
    # code, never regenerate the files to match it.  table and intervals
    # run at their fixed range and pin how errata serialize.
    argv = ["verify", "--suite", suite, "--format", "json"]
    name = suite
    if limit is not None:
        argv += ["--limit", str(limit)]
        name += f"-{limit}"
    assert cli.main(argv) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_cli_import_loads_no_dataclasses():
    # every record is a NamedTuple; dataclasses would cost each CLI process
    # most of the package's import time.  -S keeps site .pth hooks out.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import ineqscan.cli, ineqscan.intervals; "
        "assert 'dataclasses' not in sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_commands_import_only_what_they_run():
    # seq reads sequences alone, and verify imports analytic only for a
    # suite that runs it.  -S keeps site .pth hooks out.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"""
import io, sys
sys.path.insert(0, {src!r})
from ineqscan import cli
sys.stdout = io.StringIO()
loaded = lambda: sorted(k for k in sys.modules if k.startswith("ineqscan."))
assert cli.main("seq --to 2".split()) == 0
assert loaded() == ["ineqscan.cli", "ineqscan.exactarith", "ineqscan.sequences"], loaded()
for suite in ("theorem1", "theorem2", "lemmas"):
    assert cli.main(["verify", "--suite", suite, "--limit", "5000"]) == 0
    assert "ineqscan.analytic" not in sys.modules, suite
assert "ineqscan.verifier" in sys.modules
assert cli.main("verify --suite analytic --limit 5000".split()) == 0
assert "ineqscan.analytic" in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_decimal_loads_only_for_exact_y():
    # --exact-y alone imports decimal; every other command keeps its
    # start-up time and memory.  fractions, which imports decimal on
    # Python 3.10 and 3.11, stays out as well: the root scan's tail
    # certificate is plain ints.  -S keeps site .pth hooks out.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"""
import io, sys
sys.path.insert(0, {src!r})
from ineqscan import cli
sys.stdout = io.StringIO()
for argv in (
    "verify --suite all --limit 5000 --format json",
    "seq --to 100 --format csv",
    "intervals --limit 600",
    "roots",
):
    assert cli.main(argv.split()) == 0, argv
assert "decimal" not in sys.modules
assert "fractions" not in sys.modules
assert cli.main("seq --to 20 --exact-y".split()) == 0
assert "decimal" in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_json_loads_only_for_json_output():
    # json output alone imports json, which costs a fresh interpreter
    # about 3 ms; seq and intervals in csv or text, and verify and roots
    # in text or csv, keep it out.  -S keeps site .pth hooks out.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"""
import io, sys
sys.path.insert(0, {src!r})
from ineqscan import cli
sys.stdout = io.StringIO()
for argv in (
    "seq --to 5 --format csv",
    "seq --from 1000 --to 3000 --format text",
    "intervals --limit 600 --format csv",
    "intervals --limit 600",
    "verify --suite all --limit 5000",
    "verify --suite lemmas --format csv",
    "roots --format csv",
):
    assert cli.main(argv.split()) == 0, argv
assert "json" not in sys.modules
assert cli.main("seq --to 5 --format json".split()) == 0
assert "json" in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


def assert_refused(argv, capsys):
    """argparse refuses argv: exit 2, nothing on stdout, the option named."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --tol" in err


class TestRoots:
    def test_default_run(self, capsys):
        assert cli.main(["roots"]) == 0
        out = capsys.readouterr().out
        assert "roots/x-lower" in out
        assert "(560, 561)" in out

    def test_strict_flags_bracket_erratum(self, capsys):
        assert cli.main(["roots", "--strict"]) == 1
        capsys.readouterr()

    def test_json_roots(self, capsys):
        assert cli.main(["roots", "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 4
        for rep in reports:
            assert rep["data"]["width"] <= analytic.ROOT_TOL
        # the one erratum, key order included; floats elsewhere in this
        # output keep it out of tests/golden
        (rep,) = [rep for rep in reports if rep["claim_id"] == "roots/y-lower"]
        item, _, _, note = verifier.KNOWN_ERRATA[("root-bracket", "bracket", "y-lower")]
        expected = {"item": item, "printed": [379, 389], "computed": [379, 380], "note": note}
        assert [list(e.items()) for e in rep["errata"]] == [list(expected.items())]

    # Roots are bisected to analytic.ROOT_TOL: --tol is no option of roots
    # or verify, whatever its value, and argparse refuses it with exit 2.
    def test_bad_tol_exits_2(self, capsys):
        assert_refused(["roots", "--tol", "1e-6"], capsys)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, capsys, tol):
        assert_refused(["roots", "--tol", tol], capsys)

    @pytest.mark.parametrize("suite", ["all", "lemmas", "table"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1e-6"])
    def test_verify_refuses_bad_tol_before_any_check(
        self, monkeypatch, capsys, suite, tol
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before --tol was refused")

        for name in ("check_reference_table", "check_gap"):
            monkeypatch.setattr(verifier, name, must_not_run)
        assert_refused(["verify", "--suite", suite, "--tol", tol], capsys)
