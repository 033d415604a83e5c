#!/usr/bin/env python3
"""Print the exit code and stdout/stderr hashes of a fixed list of CLI calls.

Each call runs in process through ``laguerre_ladder.cli.main``; the output
is one line per call: exit code, sha256 of its stdout, sha256 of its stderr,
and the call.  The calls cover exit codes 0, 1 (injected defects) and 2
(invalid input, including a plane suite whose --order is too small for its
round trip), the JSON report and the CSV formats, the largest
quadrature rule (order 200), evaluation at x = 0 and a table of a
negative-parameter carrier, and the benchmark's
plane round trip: a jmax-8 mode file to a 96 x 64 field, with and without
``--apply J3``, decomposed again, one field with a misplaced sample,
one with a short row and one with a cell that is not a number,
``--apply Jplus`` on a single mode at large j (999,983, and
9,007,199,254,740,880 just under the 2**53 label bound, where j + 1 is
prime), a mode whose power is beyond the float range (exit 2), a mode
file with a power column and one trailing comma, one whose label cell
is padded with U+001F, which ``float`` refuses (exit 2), and one with a
form feed inside a row and a bad cell on the next (exit 2 naming line 3).
Run it on two checkouts and diff the outputs to confirm that a change
leaves every command's output byte-identical:

    python scripts/cli_fingerprint.py

``lines()`` yields the same lines to a caller; tests/test_fingerprint.py
compares those that do not depend on the CPU with tests/cli_fingerprint.txt.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from laguerre_ladder.cli import main as cli_main


def _mode_file_text(jmax: int = 4) -> str:
    """A fixed mode file: every mode through jmax with a seeded amplitude."""
    lines = ["j,m,re,im"]
    for j in range(jmax + 1):
        for m in range(-j, j + 1):
            scale = 1.0 + j * j + m * m
            re, im = (1.0 + j - 0.3 * m) / scale, (0.5 * m - 0.1 * j) / scale
            lines.append(f"{j},{m},{re!r},{im!r}")
    return "\n".join(lines) + "\n"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _with_row(field_text: str, index: int, edit) -> str:
    """The field with line `index` (0 is the header) cut into cells and rejoined by edit."""
    lines = field_text.splitlines()
    lines[index] = ",".join(edit(*lines[index].split(",")))
    return "\n".join(lines) + "\n"


def _misplace_one_sample(field_text: str) -> str:
    """The field with one angular coordinate moved off its node."""
    return _with_row(field_text, 10, lambda r, phi, re, im: (r, "0.125", re, im))


def _short_row(field_text: str) -> str:
    """The field with one row missing its last cell."""
    return _with_row(field_text, 10, lambda r, phi, re, im: (r, phi, re))


def _bad_cell(field_text: str) -> str:
    """The field with one cell, in a later row, that is not a number."""
    return _with_row(field_text, 4000, lambda r, phi, re, im: (r, phi, "not-a-number", im))


def lines() -> Iterator[str]:
    """One line per call: exit code, stdout and stderr hashes, the call."""
    with tempfile.TemporaryDirectory() as tmp:
        modes, modes8 = Path(tmp) / "modes.csv", Path(tmp) / "modes8.csv"
        large_j, large_amp = Path(tmp) / "large-j.csv", Path(tmp) / "large-amplitude.csv"
        largest_j = Path(tmp) / "largest-j.csv"
        extra_cell, padded_label = Path(tmp) / "extra-cell.csv", Path(tmp) / "padded-label.csv"
        form_feed = Path(tmp) / "form-feed.csv"
        field, field96, field96_j3, misplaced, short_row, bad_cell = (
            Path(tmp) / name
            for name in ("field.csv", "field96.csv", "field96-j3.csv", "misplaced.csv",
                         "short-row.csv", "bad-cell.csv")
        )
        modes.write_text(_mode_file_text(), encoding="utf-8")
        modes8.write_text(_mode_file_text(8), encoding="utf-8")
        large_j.write_text("j,m,re,im\n999983,0,1.0,0.0\n", encoding="utf-8")
        largest_j.write_text("j,m,re,im\n9007199254740880,0,1.0,0.0\n", encoding="utf-8")
        large_amp.write_text("j,m,re,im\n1,0,1e200,0\n", encoding="utf-8")
        extra_cell.write_text(
            "j,m,re,im,power\n0,0,1.5,-0.25,2.3125\n1,-1,0.5,0.5,0.5,\n1,1,-0.75,0,0.5625\n",
            encoding="utf-8",
        )
        padded_label.write_text("j,m,re,im\n\x1f1,0,1.0,0.0\n", encoding="utf-8")
        form_feed.write_text("j,m,re,im\n0,0,1,0\x0c\n1,0,x,0\n", encoding="utf-8")
        # decompose reads the output of these three
        to_field = ["modes", "--input", str(modes), "--to-field"]
        to_field96 = ["modes", "--input", str(modes8), "--to-field",
                      "--radial-order", "96", "--angular", "64"]
        to_field96_j3 = to_field96 + ["--apply", "J3"]
        calls = [
            ["verify", "--suite", "all"],
            ["verify", "--suite", "all", "--defect", "jplus-sign"],
            # Every algebra check is exact: no BLAS sum reaches these reports.
            ["verify", "--suite", "algebra"],
            ["verify", "--suite", "algebra", "--defect", "jplus-sign"],
            ["verify", "--suite", "algebra", "--nmax", "4", "--defect", "jplus-sign"],
            ["verify", "--suite", "so32", "--defect", "jplus-sign"],
            # The Killing Casimir on every state n, p <= 20.
            ["verify", "--suite", "so32", "--nmax", "20"],
            ["verify", "--suite", "exact", "--nmax", "0", "--alpha-max", "0"],
            # The round trip's seed modes reach j = 8, past --jmax 6: exit 2.
            ["verify", "--suite", "plane", "--jmax", "6", "--order", "8"],
            ["gram", "--alpha", "2"],
            ["gram", "--alpha", "-3", "--nmax", "20", "--order", "128"],
            ["gram", "--alpha", "0", "--nmax", "40", "--order", "200"],  # largest rule
            ["table", "--family", "M", "--n", "40", "--alpha", "20",
             "--xmax", "240", "--points", "200"],
            to_field,
            ["decompose", "--input", str(field), "--jmax", "4"],
            ["modes", "--input", str(modes), "--apply", "Jplus"],
            ["modes", "--input", str(modes), "--apply", "Jminus", "--to-field"],
            ["decompose", "--input", str(field), "--jmax", "4", "--min-power", "nan"],
            ["eval", "--family", "M", "--n", "1", "--alpha", "-5", "--x", "1"],
            ["eval", "--family", "M", "--n", "5", "--alpha", "-3", "--x", "0.7"],
            ["eval", "--family", "M", "--n", "3", "--alpha", "0", "--x", "0"],  # coefficient(0)
            # A negative parameter: the core is a Laurent polynomial.
            ["table", "--family", "M", "--n", "6", "--alpha", "-4",
             "--xmax", "30", "--points", "50"],
            # The benchmark's round trip: jmax 8 on a 96 x 64 grid.
            to_field96,
            to_field96_j3,
            ["decompose", "--input", str(field96), "--jmax", "8"],
            ["decompose", "--input", str(field96_j3), "--jmax", "8"],
            ["decompose", "--input", str(misplaced), "--jmax", "8"],
            # The reader's error paths: each exits 2 naming the first bad line.
            ["decompose", "--input", str(short_row), "--jmax", "8"],
            ["decompose", "--input", str(bad_cell), "--jmax", "8"],
            ["modes", "--input", str(large_j), "--apply", "Jplus"],
            ["modes", "--input", str(largest_j), "--apply", "Jplus"],  # j + 1 prime
            ["modes", "--input", str(large_amp)],  # |1e200|**2 overflows: exit 2
            # A mode file as modes writes it, one row with a trailing comma.
            ["modes", "--input", str(extra_cell)],
            # float() refuses a label cell padded with U+001F: exit 2 naming line 2.
            ["modes", "--input", str(padded_label)],
            # A form feed stays inside its row: exit 2 naming line 3.
            ["modes", "--input", str(form_feed)],
        ]
        for argv in calls:
            code, stdout, stderr = _run(argv)
            if argv is to_field:
                field.write_text(stdout, encoding="utf-8")
            if argv is to_field96:
                field96.write_text(stdout, encoding="utf-8")
                misplaced.write_text(_misplace_one_sample(stdout), encoding="utf-8")
                short_row.write_text(_short_row(stdout), encoding="utf-8")
                bad_cell.write_text(_bad_cell(stdout), encoding="utf-8")
            if argv is to_field96_j3:
                field96_j3.write_text(stdout, encoding="utf-8")
            shown = " ".join(a.replace(tmp, "TMP") for a in argv)
            yield f"{code} {_sha(stdout)} {_sha(stderr)} {shown}"


def main() -> None:
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
