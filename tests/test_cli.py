"""End-to-end tests of the command line front end.

Everything runs in-process through cli.main so exit codes and exact
stdout bytes can be asserted without spawning subprocesses; only the
closed-pipe test needs a real child process and a real pipe, and the
two import tests a fresh interpreter.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqscan import analytic, cli, intervals, sequences, verifier

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


@contextmanager
def unlimited_int_digits():
    """Parsing the output back needs the int <-> str digit cap lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def exact_y(n):
    c = 2 * n - 2 * ((2 * n - 1) // 3) + 2
    m = math.isqrt(2 * n)
    return 2 ** (c - m) - n ** (m - 1)


def printed_y(out):
    """(n, y) as printed by seq --format csv --exact-y, both kept as text."""
    return [(f[0], f[-1]) for f in (ln.split(",") for ln in out.split("\n")[1:-1])]


def expected_y(start, stop):
    with unlimited_int_digits():
        return [(str(n), str(sequences.y_value(n))) for n in range(start, stop + 1)]


def reference_table(rows, columns, fmt):
    """Print dict rows the way seq and intervals did before they
    streamed: the whole table built first, then printed."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(str(row[col]) for col in columns) for row in rows]
    elif fmt == "json":
        lines = [json.dumps(rows, indent=2)]
    else:
        widths = [
            max(len(col), max((len(str(row[col])) for row in rows), default=0))
            for col in columns
        ]
        lines = ["  ".join(col.rjust(w) for col, w in zip(columns, widths))]
        lines += [
            "  ".join(str(row[col]).rjust(w) for col, w in zip(columns, widths))
            for row in rows
        ]
    return "\n".join(lines) + "\n"


def reference_seq(start, stop, exact_y, fmt):
    """seq output from one sequences.row() per n, kept as dicts."""
    columns = ["n", "z", "m", "r", "c", "x", "c_minus_m", "y_sign"]
    rows = []
    for n in range(start, stop + 1):
        rw = sequences.row(n)
        rec = {col: getattr(rw, col) for col in columns}
        if exact_y:
            rec["y"] = sequences.y_value(n)
        rows.append(rec)
    with unlimited_int_digits():
        return reference_table(rows, columns + ["y"] * exact_y, fmt)


def reference_intervals(limit, fmt):
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
        for rec in intervals.interval_table(limit)
    ]
    return reference_table(rows, columns, fmt)


class TestStreamedOutput:
    # 2040..2060 crosses m's step at 2n = 64*64 (n = 2048) and r's at
    # n = 2**11 + 1; y(21735) is the first y with more than 4300 digits;
    # 124997..125003 crosses m's step at n = 500*500/2, where c - m falls
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("exact_y", [False, True])
    @pytest.mark.parametrize(
        "start, stop",
        [
            (1, 1),
            (1, 16),
            (13, 16),
            (400, 600),
            (2040, 2060),
            (21730, 21740),
            (124997, 125003),
        ],
    )
    def test_seq_matches_row_by_row_emitter(self, capsys, fmt, exact_y, start, stop):
        argv = ["seq", "--from", str(start), "--to", str(stop), "--format", fmt]
        assert cli.main(argv + ["--exact-y"] * exact_y) == 0
        assert capsys.readouterr().out == reference_seq(start, stop, exact_y, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_intervals_match_table_emitter(self, capsys, fmt):
        assert cli.main(["intervals", "--limit", "600", "--format", fmt]) == 0
        assert capsys.readouterr().out == reference_intervals(600, fmt)

    @staticmethod
    def traced_peak(monkeypatch, argv):
        """The peak of memory traced while cli.main runs argv into devnull."""
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
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

    # One guard per way a block could hold too much: every y of a block
    # at once (about 2 MB here, where one at a time peaks near 0.4 MB), a
    # chain link of over a million n in one block instead of pieces of
    # PIECE rows (3.4 MB on this window, against about 0.5 MB), and the
    # interval table in large chunks (2.6 MB with 4096 links a block).
    # A json block's text, written as one string, is the largest a block
    # holds: about 0.7 MB at 10**12 with pieces of PIECE rows.
    @pytest.mark.parametrize(
        "argv, limit_mb",
        [
            (["seq", "--from", "60000", "--to", "60399", "--exact-y", "--format", "csv"], 1),
            (["seq", "--from", "60000", "--to", "60399", "--exact-y", "--format", "json"], 1),
            (["seq", "--from", str(10**12), "--to", str(10**12 + 20000), "--format", "csv"], 1.5),
            (["intervals", "--limit", str(10**9), "--format", "csv"], 1),
            (["seq", "--from", str(10**12), "--to", str(10**12 + 20000), "--format", "json"], 1.5),
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
            assert got == [(n, exact_y(n)) for n in range(21730, 21741)]
            assert len(str(abs(exact_y(21735)))) > 4300

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

    # the same windows as json: the blocks are written through another
    # row template, whose first row opens with "[" instead of ","
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

        monkeypatch.setattr(sequences, "scan", no_rows)
        monkeypatch.setattr(sequences, "scan_columns", no_rows)
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
        assert cli.main(["intervals", "--limit", "0"]) == 2
        capsys.readouterr()

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

    def test_limit_ignored_note(self, capsys):
        for suite in ("table", "intervals"):
            assert cli.main(["verify", "--suite", suite]) == 0
            plain = capsys.readouterr()
            assert plain.err == ""
            for limit in ("5000", "0", "-3"):
                assert cli.main(["verify", "--suite", suite, "--limit", limit]) == 0
                noted = capsys.readouterr()
                assert noted.out == plain.out
                assert noted.err.count("\n") == 1
                assert "--limit is ignored" in noted.err
        assert cli.main(["verify", "--suite", "theorem1", "--limit", "600"]) == 0
        assert capsys.readouterr().err == ""

    def test_theorem2_at_one_billion(self, capsys):
        assert cli.main(["verify", "--suite", "theorem2", "--limit", "1000000000"]) == 0
        assert "[CONFIRMED] theorem2  [1, 1000000000]" in capsys.readouterr().out

    def test_json_counts_blocks(self, capsys):
        argv = ["verify", "--suite", "theorem2", "--limit", "5000", "--format", "json"]
        assert cli.main(argv) == 0
        (rep,) = json.loads(capsys.readouterr().out)
        assert set(rep["data"]) == {"runs", "blocks", "per_n"}

    def test_low_limit_exits_2(self, capsys):
        assert cli.main(["verify", "--suite", "theorem1", "--limit", "100"]) == 2
        err = capsys.readouterr().err
        assert "547" in err
        assert cli.main(["verify", "--suite", "theorem2", "--limit", "100"]) == 2
        assert cli.main(["verify", "--suite", "all", "--limit", "546"]) == 2
        capsys.readouterr()
        assert cli.main(["verify", "--suite", "all", "--limit", "0"]) == 2
        assert "547" in capsys.readouterr().err

    def test_all_suite_capped_by_envelope_scan(self, capsys):
        argv = ["verify", "--suite", "all", "--limit", str(10**7 + 1)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "10000000" in err and "float envelope scan" in err
        assert "--suite theorem1|theorem2|lemmas" in err

    def test_lemmas_at_one_billion(self, capsys):
        argv = ["verify", "--suite", "lemmas", "--limit", "1000000000", "--format", "json"]
        assert cli.main(argv) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 5
        for rep in reports:
            assert rep["status"] == "CONFIRMED", rep["claim_id"]
            assert rep["range"][1] == 10**9

    def test_analytic_suite_capped(self, capsys):
        argv = ["verify", "--suite", "analytic", "--limit", str(10**7 + 1)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "10000000" in err and "float envelope scan" in err
        assert "range-bound" not in err

    def test_minimum_limits_accepted(self, capsys):
        assert cli.main(["verify", "--suite", "theorem1", "--limit", "547"]) == 0
        assert cli.main(["verify", "--suite", "lemmas", "--limit", "404"]) == 0
        capsys.readouterr()

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


def all_suite_calls(limit=None, tol=1e-9):
    """Every check verify --suite all runs, in report order, with the
    arguments it gets: the --limit given, else its suite's default."""
    return [
        ("verifier", "check_reference_table"),
        ("verifier", "check_interval_table"),
        ("verifier", "check_theorem1", limit or 600),
        ("verifier", "check_theorem2", limit or 1000),
        *(("verifier", name, limit or 5000) for name in LEMMA_CHECKS),
        ("analytic", "check_bounds_x", limit or 100000),
        ("analytic", "check_bounds_Y", limit or 100000),
        ("analytic", "check_sign_consistency", limit or 100000),
        ("analytic", "check_approximations"),
        ("analytic", "check_roots", tol),
    ]


class TestSuiteTable:
    """verify looks each check up through its module when it runs, so a
    wrapper set on the module sees every call, with the limit the suite
    passes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        recorded = []
        for module in (verifier, analytic):
            short = module.__name__.rsplit(".", 1)[-1]
            for name in dir(module):
                if name.startswith("check_"):
                    check = getattr(module, name)

                    def wrapper(*args, _check=check, _name=(short, name)):
                        recorded.append((*_name, *args))
                        return _check(*args)

                    monkeypatch.setattr(module, name, wrapper)
        return recorded

    def test_all_runs_every_check_in_report_order_at_its_default(self, calls, capsys):
        assert cli.main(["verify"]) == 0
        capsys.readouterr()
        assert calls == all_suite_calls()

    def test_all_passes_the_given_limit_and_tol(self, calls, capsys):
        argv = ["verify", "--suite", "all", "--limit", "547", "--tol", "1e-6"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == all_suite_calls(limit=547, tol=1e-6)

    @pytest.mark.parametrize("argv, limit", [([], 5000), (["--limit", "404"], 404)])
    def test_lemmas_runs_exactly_the_lemma_checks(self, calls, capsys, argv, limit):
        assert cli.main(["verify", "--suite", "lemmas", *argv]) == 0
        capsys.readouterr()
        assert calls == [("verifier", name, limit) for name in LEMMA_CHECKS]


def readme_suites():
    """The rows of README's suite table: name -> (minimum, default, cap),
    with None for a cell that is not a number ("none", "fixed range")."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        name, limits = cells[0], cells[2:]
        if len(limits) == 3 and name.startswith("`") and (
            limits[0].isdigit() or limits[0] == "none"
        ):
            rows[name.strip("`")] = tuple(int(c) if c.isdigit() else None for c in limits)
    return rows


def test_readme_suite_table_matches_suites():
    rows = readme_suites()
    assert list(rows) == [*cli.SUITES, "all"]
    for name, suite in cli.SUITES.items():
        cap = suite.cap and suite.cap[0]
        assert rows[name] == (suite.minimum, suite.default, cap), name
    minimum = max(suite.minimum or 0 for suite in cli.SUITES.values())
    cap = min(suite.cap[0] for suite in cli.SUITES.values() if suite.cap)
    assert rows["all"] == (minimum, None, cap)


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
        assert cli.main(["roots", "--format", "json", "--tol", "1e-6"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 4
        for rep in reports:
            assert rep["data"]["width"] <= 1e-6
        # the one erratum, key order included; floats elsewhere in this
        # output keep it out of tests/golden
        (rep,) = [rep for rep in reports if rep["claim_id"] == "roots/y-lower"]
        item, _, _, note = verifier.KNOWN_ERRATA[("root-bracket", "bracket", "y-lower")]
        expected = {"item": item, "printed": [379, 389], "computed": [379, 380], "note": note}
        assert [list(e.items()) for e in rep["errata"]] == [list(expected.items())]

    def test_bad_tol_exits_2(self, capsys):
        assert cli.main(["roots", "--tol", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, capsys, tol):
        assert cli.main(["roots", "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be a finite positive number" in err

    @pytest.mark.parametrize("suite", ["all", "lemmas", "table"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_verify_refuses_bad_tol_before_any_check(
        self, monkeypatch, capsys, suite, tol
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before --tol was refused")

        for name in ("check_reference_table", "check_gap"):
            monkeypatch.setattr(verifier, name, must_not_run)
        assert cli.main(["verify", "--suite", suite, "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tol must be a finite positive number\n"
