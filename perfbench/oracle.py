"""Output oracle for the benchmark, written without importing ineqscan.

Every expectation here comes from the paper's statements or from the
sequence definitions, recomputed with a few lines of stdlib code, so a
defect in the package cannot hide itself by also breaking its own check.
Each check raises OracleError on a mismatch.
"""

import json
import math
import sys
from contextlib import contextmanager

DOCUMENTED_ERRATA = sorted(["x(15)", "x(16)", "interval 41 m", "y-lower root bracket"])
X_ZERO_SET = (436, 451, 529, 545, 546)
X_NEGATIVE_RUNS = ((1, 435), (450, 450), (513, 528))
Y_NEGATIVE_RUNS = ((5, 335), (338, 350), (365, 368))
# Every sign change of x and y happens below this n; past it both are positive.
LAST_SIGN_CHANGE = 547
SEQ_COLUMNS = ["n", "z", "m", "r", "c", "x", "c_minus_m", "y_sign"]
# CPython's default cap on int -> str conversion (3.11+); the seq probe
# window is placed where y first outgrows it.
DEFAULT_INT_DIGITS = 4300


class OracleError(Exception):
    """The program's output disagrees with the oracle."""


def _sign_runs(sign_of, limit):
    runs = []
    for n in range(1, LAST_SIGN_CHANGE + 1):
        s = sign_of(n)
        if runs and runs[-1][2] == s:
            runs[-1][1] = n
        else:
            runs.append([n, n, s])
    runs[-1][1] = limit
    return runs


def _in_runs(n, runs):
    return any(a <= n <= b for a, b in runs)


def expected_x_runs(limit):
    """Theorem 1: zero on the zero set, negative on its runs, else positive."""
    return _sign_runs(
        lambda n: 0 if n in X_ZERO_SET else -1 if _in_runs(n, X_NEGATIVE_RUNS) else 1,
        limit,
    )


def expected_y_runs(limit):
    """Theorem 2: negative exactly on its three runs, positive elsewhere."""
    return _sign_runs(lambda n: -1 if _in_runs(n, Y_NEGATIVE_RUNS) else 1, limit)


def check_verify(rc, out, suite, limit):
    """Check `verify --suite <suite> --limit <limit> --format json` output."""
    if rc != 0:
        raise OracleError(f"verify exited {rc}")
    try:
        reports = json.loads(out)
    except json.JSONDecodeError as exc:
        raise OracleError(f"verify output is not JSON: {exc}") from None
    by_id = {}
    errata = []
    for rep in reports:
        if rep["status"] not in ("CONFIRMED", "KNOWN_ERRATUM"):
            raise OracleError(f"{rep['claim_id']}: status {rep['status']}")
        if rep["claim_id"] in by_id:
            raise OracleError(f"{rep['claim_id']} reported twice")
        by_id[rep["claim_id"]] = rep
        errata.extend(e["item"] for e in rep["errata"])
    want_errata = DOCUMENTED_ERRATA if suite == "all" else []
    if sorted(errata) != want_errata:
        raise OracleError(f"errata {sorted(errata)}, expected {want_errata}")
    claims = {"theorem1": expected_x_runs, "theorem2": expected_y_runs}
    for claim, expected in claims.items():
        if suite not in (claim, "all"):
            continue
        rep = by_id.get(claim)
        if rep is None:
            raise OracleError(f"no {claim} report")
        if rep["range"] != [1, limit]:
            raise OracleError(f"{claim} range {rep['range']}, expected [1, {limit}]")
        if rep["data"]["runs"] != expected(limit):
            raise OracleError(f"{claim} runs differ from the paper's classification")


def seq_row(n, exact_y):
    """The CSV fields of `seq` at n, from the definitions."""
    z = (2 * n - 1) // 3
    m = math.isqrt(2 * n)
    r = (n - 1).bit_length()
    c = 2 * n - 2 * z + 2
    y = 2 ** (c - m) - n ** (m - 1)
    fields = [n, z, m, r, c, z - (r + 1) * m, c - m, (y > 0) - (y < 0)]
    if exact_y:
        fields.append(y)
    return [str(v) for v in fields]


@contextmanager
def _no_digit_limit():
    """Lift the int <-> str digit cap of this process for the block."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def _check_seq_body(out, start, exact_y, samples):
    """Check header, consecutive n and the sampled rows; return the row count."""
    lines = out.splitlines()
    header = SEQ_COLUMNS + ["y"] * exact_y
    if not lines or lines[0] != ",".join(header):
        raise OracleError(f"seq header {lines[:1]}")
    rows = lines[1:]
    for i, line in enumerate(rows):
        if not line.startswith(f"{start + i},"):
            raise OracleError(f"seq row {i + 1} is not n = {start + i}: {line[:40]!r}")
    with _no_digit_limit():
        for n in sorted({start, start + len(rows) - 1, *samples}):
            if start <= n < start + len(rows):
                got = rows[n - start].split(",")
                if got != seq_row(n, exact_y):
                    raise OracleError(f"seq row n = {n} differs: {rows[n - start][:60]!r}")
    return len(rows)


def check_seq(rc, out, start, stop, exact_y, samples):
    """Check `seq --from start --to stop --format csv` output."""
    if rc != 0:
        raise OracleError(f"seq exited {rc}")
    count = _check_seq_body(out, start, exact_y, samples)
    if count != stop - start + 1:
        raise OracleError(f"seq wrote {count} rows, expected {stop - start + 1}")


def y_digits(n):
    """Decimal digits of |y(n)|."""
    with _no_digit_limit():
        return len(seq_row(n, True)[-1].lstrip("-"))


def check_seq_probe(rc, out, err, start, stop, samples):
    """Check an exact-y window that crosses the default digit cap.

    Returns True for complete, correct output.  Returns False for the
    known defect: exit 2 with the int -> str error, after a correct prefix
    that stops exactly at the first y too long to print.  Anything else
    raises OracleError.
    """
    if rc == 0:
        check_seq(rc, out, start, stop, True, samples)
        return True
    if rc != 2 or "integer string conversion" not in err:
        raise OracleError(f"probe exited {rc}: {err.strip()[-120:]!r}")
    count = _check_seq_body(out, start, True, samples)
    stopped_at = start + count
    if not y_digits(stopped_at - 1) <= DEFAULT_INT_DIGITS < y_digits(stopped_at):
        raise OracleError(f"probe stopped at n = {stopped_at}, not at the digit cap")
    return False
