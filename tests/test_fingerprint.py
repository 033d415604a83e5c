"""The CPU-independent half of the CLI fingerprint, pinned.

``scripts/cli_fingerprint.py`` hashes the output of a fixed list of CLI
calls.  ``cli_fingerprint.txt`` holds the lines that stay the same when
OpenBLAS and numpy take an older CPU's code paths; a change that alters one
of them updates the file and says why.
"""

import importlib.util
import platform
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_fingerprint.py"
GOLDEN = Path(__file__).with_name("cli_fingerprint.txt")


def _call(line: str) -> str:
    """The call a fingerprint line names, after its exit code and two hashes."""
    return line.split(" ", 3)[3]


def test_cpu_independent_fingerprint_lines_are_pinned():
    spec = importlib.util.spec_from_file_location("cli_fingerprint", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    by_call = {_call(line): line for line in script.lines()}

    text = GOLDEN.read_text(encoding="utf-8").splitlines()
    libc = next(line.removeprefix("# libc: ") for line in text if line.startswith("# libc: "))
    golden = [line for line in text if not line.startswith("#")]
    assert len(golden) == 23
    assert [by_call.get(_call(line)) for line in golden] == golden, (
        f"pinned under {libc}, running under {' '.join(platform.libc_ver())}"
    )
