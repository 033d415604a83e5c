"""Command-line front end.

Subcommands: eval (pointwise values), table (CSV tabulation), verify (the
identity suites as a JSON report), gram (orthonormality matrix dump),
decompose (sampled field to mode amplitudes) and modes (operate on a mode
file, optionally sampling it back to a field).

Exit codes: 0 success / all identities pass, 1 verification failure,
2 usage or input error, including non-finite input cells and point
options.  Output is deterministic: identical invocations produce
byte-identical streams.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__, opalgebra, plane, quadrature, verify
from .basis import carrier_L, carrier_M, evaluate
from .opalgebra import OperatorName
from .plane import Field2D, ModeCoefficients, ModeIndex, PolarGrid


# The most points one table may have: a bound checked before any allocation.
MAX_TABLE_POINTS = 10**6


def _fmt(value: float) -> str:
    return f"{value + 0.0:.17g}"  # +0.0 folds negative zero


def _carrier_for_alpha(n: int, alpha: int):
    if n < 0:
        raise ValueError(f"n must be non-negative (got n={n})")
    if n + alpha < 0:
        raise ValueError(f"n + alpha must be non-negative (got n={n}, alpha={alpha})")
    return carrier_M(n, n + alpha)


# Built once per process and reused by every `main` call: parsing leaves the
# parser unchanged as long as every default is immutable (an `append` option
# with a list default would accumulate across calls).
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laguerre-ladder",
        description="Evaluate, tabulate and machine-verify the half-line "
        "ladder-operator basis and its plane modes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one basis function at given points")
    p_eval.add_argument("--family", required=True, choices=("M", "scriptM", "L", "Z"))
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--alpha", type=int)
    p_eval.add_argument("--p", type=int)
    p_eval.add_argument("--j", type=Fraction)
    p_eval.add_argument("--m", type=Fraction)
    p_eval.add_argument("--x", type=float, action="append")
    p_eval.add_argument("--r", type=float)
    p_eval.add_argument("--phi", type=float)

    p_table = sub.add_parser("table", help="tabulate one basis function as CSV")
    p_table.add_argument("--family", required=True, choices=("M", "scriptM", "L"))
    p_table.add_argument("--n", type=int)
    p_table.add_argument("--alpha", type=int)
    p_table.add_argument("--p", type=int)
    p_table.add_argument("--j", type=Fraction)
    p_table.add_argument("--m", type=Fraction)
    p_table.add_argument("--xmin", type=float, default=0.0)
    p_table.add_argument("--xmax", type=float, required=True)
    p_table.add_argument("--points", type=int, default=101)

    p_verify = sub.add_parser("verify", help="run identity suites, print JSON report")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=verify.SUITE_NAMES + ("all",),
    )
    p_verify.add_argument("--nmax", type=int, default=12)
    p_verify.add_argument("--alpha-max", type=int, default=10)
    p_verify.add_argument("--order", type=int, default=64)
    p_verify.add_argument("--jmax", type=int, default=6)
    p_verify.add_argument("--angular", type=int, default=64)
    p_verify.add_argument(
        "--defect",
        choices=opalgebra.DEFECTS,
        help="inject a known-bad matrix element (self-test of the suites)",
    )

    p_gram = sub.add_parser("gram", help="dump the orthonormality Gram matrix as CSV")
    p_gram.add_argument("--alpha", type=int, required=True)
    p_gram.add_argument("--nmax", type=int, default=12)
    p_gram.add_argument("--order", type=int, default=64)

    p_dec = sub.add_parser("decompose", help="mode amplitudes of a sampled field")
    p_dec.add_argument("--input", required=True, help="field CSV (r,phi,re,im); - for stdin")
    p_dec.add_argument("--jmax", type=int, required=True)
    p_dec.add_argument("--min-power", type=float, default=1e-12)

    p_modes = sub.add_parser("modes", help="transform a mode file or sample it to a field")
    p_modes.add_argument("--input", required=True, help="mode CSV (j,m,re,im[,power]); - for stdin")
    p_modes.add_argument("--apply", choices=("Jplus", "Jminus", "J3"))
    p_modes.add_argument("--to-field", action="store_true")
    p_modes.add_argument("--radial-order", type=int, default=64)
    p_modes.add_argument("--angular", type=int, default=64)
    return parser


# ---------------------------------------------------------------------------
# leaf commands
# ---------------------------------------------------------------------------


def _require_finite(args) -> None:
    """Reject inf/nan float options by name; float() accepts them."""
    for name in ("x", "r", "phi", "xmin", "xmax", "min_power"):
        value = getattr(args, name, None)
        for v in value if isinstance(value, list) else [value]:
            if v is not None and not math.isfinite(v):
                flag = name.replace("_", "-")
                raise ValueError(f"--{flag} must be finite (got {v!r})")


def _require(args, names: list[str]) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")


def _eval_carrier_from_args(args):
    if args.family == "M":
        _require(args, ["n", "alpha"])
        return _carrier_for_alpha(args.n, args.alpha)
    if args.family == "scriptM":
        _require(args, ["n", "p"])
        return carrier_M(args.n, args.p)
    _require(args, ["j", "m"])
    return carrier_L(args.j, args.m)


def cmd_eval(args) -> int:
    if args.family == "Z":
        _require(args, ["j", "m", "r", "phi"])
        if args.j.denominator != 1 or args.m.denominator != 1:
            raise ValueError("plane modes need integer j and m")
        value = plane.eval_Z(ModeIndex(int(args.j), int(args.m)), args.r, args.phi)
        print(f"{_fmt(value.real)},{_fmt(value.imag)}")
        return 0
    carrier = _eval_carrier_from_args(args)
    _require(args, ["x"])
    for x in args.x:
        print(_fmt(evaluate(carrier, x)))
    return 0


def cmd_table(args) -> int:
    carrier = _eval_carrier_from_args(args)
    if args.points < 2 or args.xmax <= args.xmin or args.xmin < 0:
        raise ValueError("table needs xmin >= 0 < xmax and at least two points")
    if args.points > MAX_TABLE_POINTS:
        raise ValueError(f"--points must be at most {MAX_TABLE_POINTS} (got {args.points})")
    print("x,value")
    for x in np.linspace(args.xmin, args.xmax, args.points):
        print(f"{_fmt(float(x))},{_fmt(evaluate(carrier, float(x)))}")
    return 0


def _require_non_negative(args, names: tuple[str, ...]) -> None:
    """Reject a negative size option by name."""
    for name in names:
        if getattr(args, name) < 0:
            flag = name.replace("_", "-")
            raise ValueError(f"--{flag} must be non-negative (got {getattr(args, name)})")


def cmd_verify(args) -> int:
    _require_non_negative(args, ("nmax", "alpha_max", "jmax"))
    names = list(verify.SUITE_NAMES) if args.suite == "all" else [args.suite]
    with opalgebra.injected_defect(args.defect):
        report = verify.run_suites(
            names,
            nmax=args.nmax,
            alpha_max=args.alpha_max,
            order=args.order,
            jmax=args.jmax,
            angular=args.angular,
        )
    out = {"version": __version__, **report}
    print(json.dumps(out, indent=2, allow_nan=False))
    if not report["all_pass"]:
        for suite, checks in report["suites"].items():
            for name, check in checks.items():
                if not check["pass"]:
                    at = " at " + json.dumps(check["witness"]) if "witness" in check else ""
                    print(f"FAILED {suite}/{name}{at}", file=sys.stderr)
        return 1
    return 0


def cmd_gram(args) -> int:
    rule = quadrature.gauss_laguerre(args.order)
    gram = quadrature.gram_matrix(args.alpha, args.nmax, rule)
    for row in gram:
        print(",".join(_fmt(float(v)) for v in row))
    return 0


def _read_lines(path: str) -> list[str]:
    """The input's lines, split at "\n" alone and each without a trailing "\r".

    A form feed, vertical tab or U+2028 inside a row stays in that row
    (``str.splitlines`` would break there and shift every later line
    number).  Files are newline-translated on reading, stdin is not.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # after the last newline, or an empty input
    if "\r" in text:
        lines = [line.removesuffix("\r") for line in lines]
    return lines


def _parse_csv(lines: list[str], header: list[str], min_fields: int) -> np.ndarray:
    """The sample rows as a (rows, min_fields) float table.

    Blank lines are skipped and cells past min_fields ignored.  The rows go
    through numpy's CSV reader, whose bits are those of ``float`` on each
    cell.  A file it refuses (a short row, a cell that is not a number) or
    that holds a non-finite cell is read again line by line, which names
    its first bad line.
    """
    if not lines:
        raise ValueError("line 1: empty input, expected a header row")
    got = [c.strip() for c in lines[0].split(",")]
    if got[: len(header)] != header:
        raise ValueError(f"line 1: expected header {','.join(header)!r}, got {lines[0]!r}")
    body = list(filter(str.strip, lines[1:]))
    table = None
    # numpy warns on an empty body, and reads a cell padded with U+001C..U+001F
    # as its number where float() refuses it: both go line by line.
    if body and not any(map("".join(body).__contains__, "\x1c\x1d\x1e\x1f")):
        try:
            table = np.loadtxt(
                body, delimiter=",", comments=None, usecols=range(min_fields), ndmin=2
            )
        except ValueError:  # a short row, or a cell that is not a number
            pass
    if table is None or not np.isfinite(table).all():
        table = np.array(_checked_rows(lines, min_fields)).reshape(-1, min_fields)
    return table


def _checked_rows(lines: list[str], min_fields: int) -> list[list[float]]:
    """The sample rows one line at a time; raises naming the first bad line."""
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) < min_fields:
            raise ValueError(f"line {lineno}: expected at least {min_fields} fields")
        try:
            row = list(map(float, cells[:min_fields]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: non-finite value in {line.strip()!r}")
        rows.append(row)
    return rows


def _field_from_rows(table: np.ndarray) -> Field2D:
    if not len(table):
        raise ValueError("field file has no sample rows")
    r, phi = table[:, 0], table[:, 1]
    next_r = np.flatnonzero(r != r[0])
    q = int(next_r[0]) if next_r.size else len(table)
    if len(table) % q:
        raise ValueError("rows do not form a radial-major grid")
    r_count = len(table) // q
    grid = PolarGrid.build(r_count, q)
    radial = np.array(grid.radial_nodes)[:, None]
    angular = np.array(grid.angular_nodes)
    # Same comparisons as one sample at a time; the first bad sample in
    # row-major order is reported, radial before angular.
    bad_r = (np.abs(r.reshape(r_count, q) - radial) > 1e-8 * (1.0 + radial)).ravel()
    bad_phi = (np.abs(phi.reshape(r_count, q) - angular) > 1e-8).ravel()
    bad = np.flatnonzero(bad_r | bad_phi)
    if bad.size:
        k = int(bad[0])
        if bad_r[k]:
            raise ValueError(
                f"radial sample {float(r[k])!r} does not sit on the order-{r_count} grid"
            )
        raise ValueError(f"angular sample {float(phi[k])!r} does not sit on the grid")
    # Filled part by part: re + 1j*im would turn a -0.0 real part into +0.0.
    values = np.empty((r_count, q), dtype=complex)
    values.real = table[:, 2].reshape(r_count, q)
    values.imag = table[:, 3].reshape(r_count, q)
    return Field2D(grid=grid, values=values)


def cmd_decompose(args) -> int:
    _require_non_negative(args, ("jmax",))
    rows = _parse_csv(_read_lines(args.input), ["r", "phi", "re", "im"], 4)
    field = _field_from_rows(rows)
    coeffs = plane.decompose(field, args.jmax)
    rows = _mode_rows(coeffs, args.min_power)
    try:
        captured = coeffs.power()
    except OverflowError:
        raise ValueError("the captured power is beyond the float range") from None
    print("\n".join(["j,m,re,im,power", *rows]))
    print(f"captured power: {_fmt(captured)}", file=sys.stderr)
    return 0


def _mode_rows(coeffs: ModeCoefficients, min_power: float = -math.inf) -> list[str]:
    """The CSV rows j,m,re,im,power of the modes whose power |amp|**2 exceeds min_power.

    All rows are formed before any is printed, so a power beyond the float
    range exits naming its mode, with nothing on stdout.
    """
    rows = []
    for idx, amp in coeffs.sorted_items():
        try:
            power = abs(amp) ** 2
        except OverflowError:
            raise ValueError(
                f"mode (j={idx.j}, m={idx.m}): the power of the amplitude {amp!r} "
                "is beyond the float range"
            ) from None
        if power > min_power:
            rows.append(f"{idx.j},{idx.m},{_fmt(amp.real)},{_fmt(amp.imag)},{_fmt(power)}")
    return rows


def _is_integer_text(cell: str) -> bool:
    """Whether a cell, as written, is an integer.

    Reading it as a float first may round a non-integer onto an integer
    (2.0000000000000001 reads as 2.0).  ``Decimal`` holds the written value
    exactly without expanding its exponent, so 1e-999999999 costs nothing.
    """
    try:
        value = Decimal(cell)
    except ArithmeticError:  # an exponent beyond Decimal's range
        return False
    return value == value.to_integral_value()


def _require_integer_labels(lines: list[str]) -> None:
    """Raise naming the first row whose j or m cell is not an integer.

    Runs on lines that ``_parse_csv`` accepted, so every row has its cells.
    """
    for lineno, line in enumerate(lines[1:], start=2):
        labels = line.split(",")[:2]
        if line.strip() and not all(map(_is_integer_text, labels)):
            j, m = (cell.strip() for cell in labels)
            raise ValueError(f"line {lineno}: mode labels must be integers (got j={j}, m={m})")


def _modes_from_rows(table: np.ndarray) -> ModeCoefficients:
    coeffs: dict[ModeIndex, complex] = {}
    for j, m, re, im in table.tolist():
        idx = ModeIndex(int(j), int(m))
        # Cells are read as floats, which hold every integer only below 2**53.
        if max(abs(idx.j), abs(idx.m)) >= 2**53:
            raise ValueError(
                f"mode label (j={idx.j}, m={idx.m}) is not below 2**53, so reading it may round it"
            )
        if idx in coeffs:
            raise ValueError(f"duplicate mode label (j={idx.j}, m={idx.m})")
        coeffs[idx] = complex(re, im)
    jmax = max((idx.j for idx in coeffs), default=0)
    return ModeCoefficients(coeffs=coeffs, jmax=jmax)


def cmd_modes(args) -> int:
    lines = _read_lines(args.input)
    rows = _parse_csv(lines, ["j", "m", "re", "im"], 4)
    _require_integer_labels(lines)
    coeffs = _modes_from_rows(rows)
    if args.apply:
        coeffs = plane.apply_mode_operator(OperatorName[args.apply], coeffs)
    if args.to_field:
        grid = PolarGrid.build(args.radial_order, args.angular)
        grid.require_support(coeffs.jmax)
        field = plane.reconstruct(coeffs, grid)
        # One template per file, each formatted angle baked in: joining it
        # with a row's formatted r puts r before every sample, and one %
        # formats the row's re, im pairs (as _fmt does: + 0.0 folds negative
        # zero of each part).  One write per radial row keeps peak memory at
        # a row's text, not the whole file's.
        template = ["", *(f",{_fmt(phi)},%.17g,%.17g\n" for phi in grid.angular_nodes)]
        pairs = np.stack((field.values.real, field.values.imag), axis=-1) + 0.0
        out = sys.stdout
        out.write("r,phi,re,im\n")
        for r, row in zip(grid.radial_nodes, pairs):
            out.write(_fmt(r).join(template) % tuple(row.ravel().tolist()))
        return 0
    print("\n".join(["j,m,re,im,power", *_mode_rows(coeffs)]))
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "table": cmd_table,
    "verify": cmd_verify,
    "gram": cmd_gram,
    "decompose": cmd_decompose,
    "modes": cmd_modes,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _require_finite(args)
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
