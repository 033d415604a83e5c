#!/usr/bin/env python3
"""Print the exit code and stdout/stderr hashes of a fixed list of CLI calls.

Each call runs in process through ``laguerre_ladder.cli.main``; the output
is one line per call: exit code, sha256 of its stdout, sha256 of its stderr,
and the call.  The calls cover exit codes 0, 1 (injected defects) and 2
(invalid input), the JSON report and the CSV formats.  Run it on two
checkouts and diff the outputs to confirm that a change leaves every
command's output byte-identical:

    python scripts/cli_fingerprint.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

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


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        modes = Path(tmp) / "modes.csv"
        field = Path(tmp) / "field.csv"
        modes.write_text(_mode_file_text(), encoding="utf-8")
        to_field = ["modes", "--input", str(modes), "--to-field"]  # decompose reads its output
        calls = [
            ["verify", "--suite", "all"],
            ["verify", "--suite", "all", "--defect", "jplus-sign"],
            ["verify", "--suite", "algebra", "--nmax", "4", "--defect", "jplus-sign"],
            ["gram", "--alpha", "2"],
            ["gram", "--alpha", "-3", "--nmax", "20", "--order", "128"],
            ["table", "--family", "M", "--n", "40", "--alpha", "20",
             "--xmax", "240", "--points", "200"],
            to_field,
            ["decompose", "--input", str(field), "--jmax", "4"],
            ["modes", "--input", str(modes), "--apply", "Jplus"],
            ["modes", "--input", str(modes), "--apply", "Jminus", "--to-field"],
            ["decompose", "--input", str(field), "--jmax", "4", "--min-power", "nan"],
            ["eval", "--family", "M", "--n", "1", "--alpha", "-5", "--x", "1"],
            ["eval", "--family", "M", "--n", "5", "--alpha", "-3", "--x", "0.7"],
        ]
        for argv in calls:
            code, stdout, stderr = _run(argv)
            if argv is to_field:
                field.write_text(stdout, encoding="utf-8")
            shown = " ".join(a.replace(tmp, "TMP") for a in argv)
            print(f"{code} {_sha(stdout)} {_sha(stderr)} {shown}")


if __name__ == "__main__":
    main()
