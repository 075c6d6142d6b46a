"""Mutation checks: every registered mutant must make its tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each entry of MUTANTS is (name, file, old text, new text, test selector).
For each one the script copies src/, tests/ and pyproject.toml to a fresh
temporary directory, replaces the one exact occurrence of the old text
in the file, and runs `python -m pytest -x -q` on the selector there.
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

T_SEQ = "tests/test_sequences.py"
T_VER = "tests/test_verifier.py"
T_ANA = "tests/test_analytic.py"
T_CLI = "tests/test_cli.py"

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
        "settled = positive_link(a, b, mm)",
        "settled = True",
        f"{T_SEQ}::TestRows",
    ),
    (
        # the signs stay right; only the count of comparisons grows
        "scan: no link settled, every n compared",
        SEQ,
        "settled = positive_link(a, b, mm)",
        "settled = False",
        f"{T_SEQ}::TestRows",
    ),
    (
        "partition_y: fallback sign fixed at 1",
        VER,
        "_append_run(runs, n, n, sign)",
        "_append_run(runs, n, n, 1)",
        f"{T_VER}::TestPartitions",
    ),
    (
        "partition_x: negative cut one too late",
        VER,
        "neg_end, zero_end = k3 // 2, (k3 + 3) // 2",
        "neg_end, zero_end = k3 // 2 + 1, (k3 + 3) // 2",
        f"{T_VER}::TestPartitions",
    ),
    (
        "printed_runs: a negative run wins over a zero",
        VER,
        "0 if a in zeros else -1 if negative else 1",
        "-1 if negative else 0 if a in zeros else 1",
        f"{T_VER}::TestConstantsAreChecked",
    ),
    (
        "check_sign_criteria: negative cut one too late",
        VER,
        "neg_end = min(hi, 3 * ((threshold - 3) // 2) + 2)",
        "neg_end = min(hi, 3 * ((threshold - 3) // 2) + 3)",
        f"{T_VER}::TestRewrittenChecksAgainstPerN::test_block_routes_at_every_limit_to_600",
    ),
    (
        "check_negative_x_bound: cut one later on odd 3*(K - r - 3) + 3",
        VER,
        "- rr - 3) + 3) // 2 if rr >= 3",
        "- rr - 3) + 4) // 2 if rr >= 3",
        f"{T_VER}::TestOneSignSource::test_negative_x_bound_cut_on_faulty_runs",
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
        "positive_beyond: bitlen(t**Q) for bitlen(t**Q) - 1",
        ANA,
        "p = (t**q).bit_length() - 1",
        "p = (t**q).bit_length()",
        f"{T_ANA}::TestPositiveBeyond",
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
        "                else:\n                    p = ctx.power(2, gap)",
        "                elif e is None:\n                    p = ctx.power(2, gap)",
        f"{T_CLI}::TestSeq",
    ),
    (
        "_with_exact_y: the lazy y column made a list",
        CLI,
        "yield block + (column(block[0], block[6]),)",
        "yield block + (list(column(block[0], block[6])),)",
        f"{T_CLI}::TestStreamedOutput::test_blocks_hold_little",
    ),
    (
        "scan_columns: a piece ends one row short",
        SEQ,
        "ns = range(s, min(s + PIECE, b + 1))",
        "ns = range(s, min(s + PIECE - 1, b + 1))",
        f"{T_CLI}::TestSeq::test_csv_matches_golden_digest",
    ),
    (
        "scan_columns: a piece ends one row long",
        SEQ,
        "ns = range(s, min(s + PIECE, b + 1))",
        "ns = range(s, min(s + PIECE + 1, b + 1))",
        f"{T_CLI}::TestSeq::test_csv_matches_golden_digest",
    ),
    (
        "_rising: each third of a column rises by 1, not 2",
        SEQ,
        "col[i::3] = range(v, v + 2 * len(range(i, size, 3)), 2)",
        "col[i::3] = range(v, v + len(range(i, size, 3)))",
        f"{T_SEQ}::TestRows",
    ),
    (
        "scan_columns: c's first three values taken at n + 1",
        SEQ,
        "c3 = [2 * (n // 3) + 4 for n in ns[:3]]",
        "c3 = [2 * ((n + 1) // 3) + 4 for n in ns[:3]]",
        f"{T_SEQ}::TestRows",
    ),
    (
        "_block_text: a lazy column formatted with the rest, every y of a block at once",
        CLI,
        "    if isinstance(cols[-1], Iterator):",
        "    if False:",
        f"{T_CLI}::TestStreamedOutput::test_blocks_hold_little",
    ),
    (
        "scan_columns: the piece cap removed, one block per link",
        SEQ,
        "for s in range(a, b + 1, PIECE):\n            ns = range(s, min(s + PIECE, b + 1))",
        "for s in (a,):\n            ns = range(a, b + 1)",
        f"{T_CLI}::TestStreamedOutput::test_blocks_hold_little",
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
        selectors = sorted({e[4] for e in MUTANTS})
        outcome, seconds, tail = run_pytest(base, selectors)
        print(f"baseline {outcome} in {seconds:.1f} s ({len(selectors)} selectors)")
        if outcome != "passed":
            print(tail)
            return 1
        for i, (name, file, old, new, selector) in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant-{i}"
            make_copy(copy)
            (copy / file).write_text(mutated(copy, file, old, new))
            outcome, seconds, _ = run_pytest(copy, [selector])
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
