"""Field files and plane synthesis/analysis against one-at-a-time references.

The references below are the straightforward forms: one formatted line per
sample, one Python complex per cell, one radial sample per mode.  The
library batches each of these; its output must match them bit for bit.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre_ladder import cli, plane
from laguerre_ladder.basis import weightless_values
from laguerre_ladder.cli import main
from laguerre_ladder.exactpoly import LaurentPoly
from laguerre_ladder.opalgebra import OperatorName
from laguerre_ladder.plane import Field2D, ModeCoefficients, ModeIndex, PolarGrid
from laguerre_ladder.quadrature import node_values


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _mode_file(tmp_path, jmax=8):
    lines = ["j,m,re,im"]
    for j in range(jmax + 1):
        for m in range(-j, j + 1):
            scale = 1.0 + j * j + m * m
            re, im = (1.0 + j - 0.3 * m) / scale, (0.5 * m - 0.1 * j) / scale
            lines.append(f"{j},{m},{re!r},{im!r}")
    path = tmp_path / "modes.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# -- references ------------------------------------------------------------------


def reference_reconstruct(coeffs, grid):
    values = np.zeros((grid.rule.order, grid.angular_count), dtype=complex)
    phis = np.array(grid.angular_nodes)
    damp = np.exp(-np.array(grid.radial_x) / 2)
    for idx, amp in coeffs.sorted_items():
        radial = weightless_values(plane.radial_carrier(idx), grid.radial_x) * damp
        values += amp * np.outer(radial, np.exp(1j * idx.m * phis))
    return values


def reference_decompose(fld, jmax):
    grid = fld.grid
    q = grid.angular_count
    phis = np.array(grid.angular_nodes)
    x = np.array(grid.radial_x)
    w = np.array(grid.radial_weights) * np.exp(x / 2)
    # The angular sums are one product with the (angle x m) phase matrix.
    ms = np.arange(-jmax, jmax + 1)
    fourier = fld.values @ np.exp(-1j * np.outer(phis, ms)) / q
    coeffs = {}
    for idx in plane.modes_up_to(jmax):
        radial = weightless_values(plane.radial_carrier(idx), grid.radial_x)
        coeffs[idx] = complex(np.dot(w * radial, fourier[:, idx.m + jmax]))
    return coeffs


def reference_field_text(values, grid):
    lines = ["r,phi,re,im"]
    for k, r in enumerate(grid.radial_nodes):
        for i, phi in enumerate(grid.angular_nodes):
            v = values[k, i]
            lines.append(f"{cli._fmt(r)},{cli._fmt(phi)},{cli._fmt(v.real)},{cli._fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def _hex(values):
    return [(float(z.real).hex(), float(z.imag).hex()) for z in np.ravel(values)]


# -- writer and synthesis ----------------------------------------------------------


@pytest.mark.parametrize("apply", [None, "J3"])
def test_to_field_matches_reference_writer(tmp_path, capsys, apply):
    # An m = 0 mode with a real amplitude has exactly zero imaginary parts.
    m0_real = tmp_path / "m0-real.csv"
    m0_real.write_text("j,m,re,im\n0,0,1.5,0\n2,0,-0.75,-0\n")
    for path in (_mode_file(tmp_path), m0_real):
        argv = ["modes", "--input", str(path), "--to-field",
                "--radial-order", "96", "--angular", "64"]
        if apply:
            argv += ["--apply", apply]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")

        table = cli._parse_csv(path.read_text().splitlines(), ["j", "m", "re", "im"], 4)
        coeffs = cli._modes_from_rows(table)
        if apply:
            coeffs = plane.apply_mode_operator(OperatorName[apply], coeffs)
        grid = PolarGrid.build(96, 64)
        values = plane.reconstruct(coeffs, grid).values
        assert path != m0_real or not values.imag.any()
        # The text against per-value _fmt of the field reconstructed in
        # process, which holds whatever numpy's dispatch makes of the sums.
        assert out == reference_field_text(values, grid)
        assert _hex(values) == _hex(reference_reconstruct(coeffs, grid))


def test_to_field_prints_negative_zero_as_zero(tmp_path, capsys, monkeypatch):
    grid = PolarGrid.build(3, 4)
    values = np.full((3, 4), complex(-0.0, -0.0))
    assert np.signbit(values.real).all() and np.signbit(values.imag).all()
    monkeypatch.setattr(plane, "reconstruct", lambda coeffs, grid: Field2D(grid=grid, values=values))
    path = tmp_path / "modes.csv"
    path.write_text("j,m,re,im\n0,0,1,0\n")
    code, out, err = run(capsys, "modes", "--input", str(path), "--to-field",
                         "--radial-order", "3", "--angular", "4")
    assert (code, err) == (0, "")
    assert cli._fmt(-0.0) == "0"
    assert out == reference_field_text(values, grid)
    assert all(line.endswith(",0,0") for line in out.splitlines()[1:])


def test_reconstruct_and_decompose_match_references():
    grid = PolarGrid.build(96, 64)
    amps = {idx: complex(1 + idx.j - 0.3 * idx.m, 0.5 * idx.m) for idx in plane.modes_up_to(8)}
    coeffs = ModeCoefficients(coeffs=amps, jmax=8)
    fld = plane.reconstruct(coeffs, grid)
    assert _hex(fld.values) == _hex(reference_reconstruct(coeffs, grid))

    got = plane.decompose(fld, 8).coeffs
    want = reference_decompose(fld, 8)
    assert list(got) == [idx for idx in want if want[idx]]
    assert _hex(list(got.values())) == _hex([want[idx] for idx in got])


def test_radial_samples_match_per_mode_values():
    grid = PolarGrid.build(96, 64)
    modes = plane.modes_up_to(8)
    got = plane.radial_samples(modes, grid)
    for idx, values in zip(modes, got):
        assert values is node_values(plane.radial_carrier(idx), grid.rule)
        want = weightless_values(plane.radial_carrier(idx), grid.radial_x)
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in want.tolist()]


def test_second_decompose_evaluates_no_polynomial(monkeypatch):
    grid = PolarGrid.build(96, 64)
    coeffs = ModeCoefficients(coeffs={idx: 1.0 for idx in plane.modes_up_to(8)}, jmax=8)
    fld = plane.reconstruct(coeffs, grid)
    first = plane.decompose(fld, 8)

    calls = []
    eval_float = LaurentPoly.eval_float
    monkeypatch.setattr(
        LaurentPoly, "eval_float", lambda poly, x: calls.append(x) or eval_float(poly, x)
    )
    second = plane.decompose(Field2D(grid=PolarGrid.build(96, 64), values=fld.values), 8)
    assert calls == []
    assert second.coeffs == first.coeffs


def test_opposite_m_modes_share_one_radial_sample():
    grid = PolarGrid.build(16, 16)
    samples = plane.radial_samples([ModeIndex(3, 2), ModeIndex(3, -2), ModeIndex(3, 0)], grid)
    assert samples[0] is samples[1]
    assert samples[0] is not samples[2]


# -- reader ------------------------------------------------------------------------

FIELD_HEADER = ["r", "phi", "re", "im"]


def _assert_reads_as_line_by_line(lines, header=FIELD_HEADER):
    """_parse_csv equals the line-by-line reader bit for bit, or raises its message."""
    try:
        want = np.array(cli._checked_rows(lines, 4)).reshape(-1, 4)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            cli._parse_csv(lines, header, 4)
        assert str(raised.value) == str(exc)
        return
    got = cli._parse_csv(lines, header, 4)
    assert got.dtype == want.dtype and got.shape == want.shape
    # tobytes compares every bit, the sign of each zero included.
    assert got.tobytes() == want.tobytes()


def _field_lines(tmp_path, capsys, radial=4, angular=4):
    path = tmp_path / "modes.csv"
    path.write_text("j,m,re,im\n1,1,1,0\n")
    code, out, _ = run(
        capsys, "modes", "--input", str(path), "--to-field",
        "--radial-order", str(radial), "--angular", str(angular),
    )
    assert code == 0
    return out.splitlines()


def _set_cell(lines, row, column, value):
    """Replace one cell of sample row `row` (0-based, after the header)."""
    cells = lines[row + 1].split(",")
    cells[column] = value
    lines[row + 1] = ",".join(cells)


def _big_field_lines(tmp_path, capsys):
    """A 96 x 64 field (6,144 rows, several reader blocks) with ±0.0 cells."""
    lines = _field_lines(tmp_path, capsys, 96, 64)
    lines[5] = lines[5].rsplit(",", 2)[0] + ",-0,0"
    lines[300] = lines[300].rsplit(",", 2)[0] + ",0,-0.0"
    return lines


def test_reader_matches_line_by_line_on_written_fields(tmp_path, capsys):
    _assert_reads_as_line_by_line(_big_field_lines(tmp_path, capsys))
    _assert_reads_as_line_by_line(_field_lines(tmp_path, capsys, 5, 8))
    modes = _mode_file(tmp_path).read_text().splitlines()
    _assert_reads_as_line_by_line(modes, ["j", "m", "re", "im"])


def test_reader_matches_line_by_line_with_blank_lines(tmp_path, capsys):
    lines = _big_field_lines(tmp_path, capsys)
    for k in (1, 200, 256, 257, 258, 4000, len(lines)):
        lines.insert(k, " " * (k % 3))
    _assert_reads_as_line_by_line(lines)


@pytest.mark.parametrize("char", ["\x0c", "\x0b", "\u2028"])
def test_a_line_break_character_inside_a_row_keeps_the_line_numbers(tmp_path, capsys, char):
    # str.splitlines would break the row there and name line 4.
    path = tmp_path / "modes.csv"
    path.write_text(f"j,m,re,im\n0,0,1,0{char}\n1,0,x,0\n", encoding="utf-8")
    code, out, err = run(capsys, "modes", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 3: could not convert string to float: 'x'\n"


def test_stdin_crlf_and_empty_inputs_read_as_files(tmp_path, capsys, monkeypatch):
    text = "j,m,re,im\r\n0,0,1,0\r\n1,1,0.5,0\r\n"
    path = tmp_path / "modes.csv"
    path.write_bytes(text.encode())
    from_file = run(capsys, "modes", "--input", str(path))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "modes", "--input", "-") == from_file
    assert from_file[0] == 0
    path.write_text("")
    assert run(capsys, "modes", "--input", str(path)) == (
        2, "", "error: line 1: empty input, expected a header row\n"
    )


def test_reader_matches_line_by_line_with_crlf_endings(tmp_path, capsys):
    text = "\r\n".join(_big_field_lines(tmp_path, capsys)) + "\r\n"
    _assert_reads_as_line_by_line(text.splitlines())
    # Split on "\n" alone, every line keeps its "\r".
    _assert_reads_as_line_by_line(text.split("\n"))


def test_reader_matches_line_by_line_with_spaced_cells(tmp_path, capsys):
    lines = _big_field_lines(tmp_path, capsys)
    for k in (1, 2, 300, 3000):
        lines[k] = ",".join(f" {cell}\t" for cell in lines[k].split(","))
    _assert_reads_as_line_by_line(lines)


def test_reader_ignores_extra_cells_as_line_by_line(tmp_path, capsys):
    lines = _big_field_lines(tmp_path, capsys)
    lines[700] += ",extra,cells"
    lines[6000] += ","
    _assert_reads_as_line_by_line(lines)
    assert cli._parse_csv(lines, FIELD_HEADER, 4).shape == (6144, 4)


def test_reader_reads_rows_with_extra_cells_by_blocks(tmp_path, capsys, monkeypatch):
    lines = _big_field_lines(tmp_path, capsys)
    want = cli._parse_csv(lines, FIELD_HEADER, 4)
    trailing = [lines[0], *(line + "," for line in lines[1:])]
    ragged = [lines[0], *(line + ",x" * (k % 3) for k, line in enumerate(lines[1:]))]

    def line_by_line(*args):
        raise AssertionError("the line-by-line reader ran")

    monkeypatch.setattr(cli, "_checked_rows", line_by_line)
    for extra in (trailing, ragged):
        assert cli._parse_csv(extra, FIELD_HEADER, 4).tobytes() == want.tobytes()


@pytest.mark.parametrize("body", [[], [""], ["  ", ""]])
def test_reader_matches_line_by_line_on_empty_body(body):
    _assert_reads_as_line_by_line(["r,phi,re,im", *body])
    assert cli._parse_csv(["r,phi,re,im", *body], FIELD_HEADER, 4).shape == (0, 4)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-nan", "1e999", "not-a-number", ""])
@pytest.mark.parametrize("row", [3, 1000])
def test_reader_names_bad_cells_as_line_by_line(tmp_path, capsys, cell, row):
    lines = _big_field_lines(tmp_path, capsys)
    _set_cell(lines, row, 2, cell)
    _assert_reads_as_line_by_line(lines)
    with pytest.raises(ValueError, match=f"^line {row + 2}: "):
        cli._parse_csv(lines, FIELD_HEADER, 4)


@pytest.mark.parametrize("first, second", [(3, 5), (5, 3)])
def test_reader_refuses_misaligned_rows_with_the_right_cell_total(first, second):
    # 3 + 5 cells make two rows' worth, but not one row of each column.
    cells = ["0.5", "0.25", "1", "0", "7", "8"]
    rows = [",".join(cells[:first]), ",".join(cells[:second])]
    lines = ["r,phi,re,im", *rows, "0.5,0.25,1,0"]
    _assert_reads_as_line_by_line(lines)
    short = 2 if first == 3 else 3
    with pytest.raises(ValueError, match=f"^line {short}: expected at least 4 fields$"):
        cli._parse_csv(lines, FIELD_HEADER, 4)


# Padding around a cell, or a blank line.
_SPACE = st.sampled_from(["", " ", "\t", " \t "])
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: "%.17g" % v),
    st.builds(
        "{}{}e{:+d}".format,
        st.sampled_from(["", "-", "+"]),
        st.from_regex(r"[0-9]{1,25}(\.[0-9]{0,25})?", fullmatch=True),
        st.integers(-400, 400),
    ),
)
_CELL = st.builds("{}{}{}".format, _SPACE, _NUMBER, _SPACE)
# Four cells, then up to two extra ones.
_ROW = st.builds(
    list.__add__,
    st.lists(_CELL, min_size=4, max_size=4),
    st.lists(_CELL | st.sampled_from(["", "x"]), max_size=2),
)
# Cells that only float() reads (1_0 and the non-ASCII digits), that only
# numpy's parser reads (U+001C..U+001F padding, which the line reader keeps
# inside its row), or that neither reads.
_DISAGREEMENT = [
    "1_0", "\u0661\u0662", "\uff11.5", "\x1c1.5", "1.5\x1d", "\x1e1.5", "\x1f1.5", "1.5\x1f",
    "#", "1#x",
]


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.one_of(_ROW, _ROW, _SPACE), max_size=6),
    odd=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 3), st.sampled_from(_DISAGREEMENT)),
)
def test_reader_matches_line_by_line_on_generated_bodies(lines, odd):
    rows = [line for line in lines if isinstance(line, list)]
    if odd and rows:
        k, column, cell = odd
        rows[k % len(rows)][column] = cell
    body = [line if isinstance(line, str) else ",".join(line) for line in lines]
    _assert_reads_as_line_by_line(["r,phi,re,im", *body])


@pytest.mark.parametrize("cell", _DISAGREEMENT)
@pytest.mark.parametrize("column", range(4))
def test_reader_matches_line_by_line_on_each_disagreement_cell(cell, column):
    cells = ["0.5", "0.25", "1", "0"]
    cells[column] = cell
    _assert_reads_as_line_by_line(["r,phi,re,im", ",".join(cells), "1,2,3,4"])


def _decompose_lines(tmp_path, capsys, lines):
    path = tmp_path / "field.csv"
    path.write_text("\n".join(lines) + "\n")
    return run(capsys, "decompose", "--input", str(path), "--jmax", "1")


def test_reader_names_misplaced_radial_sample(tmp_path, capsys):
    lines = _field_lines(tmp_path, capsys)
    _set_cell(lines, 9, 0, "2.5")
    code, out, err = _decompose_lines(tmp_path, capsys, lines)
    assert (code, out) == (2, "")
    assert err == "error: radial sample 2.5 does not sit on the order-4 grid\n"


def test_reader_names_misplaced_angular_sample(tmp_path, capsys):
    lines = _field_lines(tmp_path, capsys)
    _set_cell(lines, 6, 1, "0.125")
    code, out, err = _decompose_lines(tmp_path, capsys, lines)
    assert (code, out) == (2, "")
    assert err == "error: angular sample 0.125 does not sit on the grid\n"


@pytest.mark.parametrize(
    "radial_row, angular_row, message",
    [
        (9, 6, "angular sample 0.125 does not sit on the grid"),
        (6, 9, "radial sample 2.5 does not sit on the order-4 grid"),
        (9, 9, "radial sample 2.5 does not sit on the order-4 grid"),
    ],
)
def test_reader_reports_first_bad_sample_in_row_major_order(
    tmp_path, capsys, radial_row, angular_row, message
):
    lines = _field_lines(tmp_path, capsys)
    _set_cell(lines, radial_row, 0, "2.5")
    _set_cell(lines, angular_row, 1, "0.125")
    code, out, err = _decompose_lines(tmp_path, capsys, lines)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_reader_rejects_ragged_grid(tmp_path, capsys):
    lines = _field_lines(tmp_path, capsys)
    code, out, err = _decompose_lines(tmp_path, capsys, lines[:-1])
    assert (code, out) == (2, "")
    assert err == "error: rows do not form a radial-major grid\n"


def test_reader_keeps_negative_zero_parts():
    grid = PolarGrid.build(2, 1)
    rows = [[r, grid.angular_nodes[0], -0.0, -0.0] for r in grid.radial_nodes]
    fld = cli._field_from_rows(np.array(rows))
    assert isinstance(fld, Field2D)
    for z in fld.values.ravel():
        assert math.copysign(1.0, z.real) == -1.0
        assert math.copysign(1.0, z.imag) == -1.0


# -- amplitudes and powers beyond the float range ---------------------------------------


def _one_mode(tmp_path, amplitude, name="modes.csv"):
    path = tmp_path / name
    path.write_text(f"j,m,re,im\n1,0,{amplitude},0\n")
    return path


def test_mode_power_beyond_the_float_range_names_the_mode(tmp_path, capsys):
    # |1e200|**2 overflows; nothing, not even the header, reaches stdout.
    path = _one_mode(tmp_path, "1e200")
    code, out, err = run(capsys, "modes", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: mode (j=1, m=0): the power of the amplitude (1e+200+0j) is beyond the float range"
    ]


def test_decompose_power_beyond_the_float_range_names_the_mode(tmp_path, capsys):
    # The field of a 1e200 mode is finite, and so is each amplitude of it.
    code, field, _ = run(capsys, "modes", "--input", str(_one_mode(tmp_path, "1e200")),
                         "--to-field")
    assert code == 0
    path = tmp_path / "field.csv"
    path.write_text(field)
    code, out, err = run(capsys, "decompose", "--input", str(path), "--jmax", "1")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: mode (j=0, m=0): the power of the amplitude")


@pytest.mark.parametrize("to_field", [[], ["--to-field"]])
def test_raised_amplitude_beyond_the_float_range_names_the_mode(tmp_path, capsys, to_field):
    # sqrt(2) * 1.7e308 is inf: no inf row, and no field of inf and NaN samples.
    path = _one_mode(tmp_path, "1.7e308")
    with np.errstate(all="raise"):
        code, out, err = run(capsys, "modes", "--input", str(path), "--apply", "Jplus", *to_field)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: mode (j=1, m=1) has a non-finite amplitude (inf+0j)"]


def test_field_sum_beyond_the_float_range_names_the_grid_node(tmp_path, capsys):
    # Each amplitude is finite; their sum on the grid is not.
    path = tmp_path / "modes.csv"
    path.write_text("j,m,re,im\n0,0,1.7e308,0\n1,0,1.7e308,0\n2,0,1.7e308,0\n")
    code, out, err = run(capsys, "modes", "--input", str(path), "--to-field")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the sample at the grid node r=")
    assert err.rstrip().endswith("is not finite")


def test_non_finite_samples_and_amplitudes_are_refused():
    grid = PolarGrid.build(4, 4)
    values = np.zeros((4, 4), dtype=complex)
    values[1, 2] = complex(math.nan, 0)
    r, phi = grid.radial_nodes[1], grid.angular_nodes[2]
    with pytest.raises(ValueError, match=f"grid node r={r!r}, phi={phi!r} is not finite"):
        Field2D(grid=grid, values=values)
    with pytest.raises(ValueError, match=r"mode \(j=2, m=1\) has a non-finite amplitude"):
        ModeCoefficients(coeffs={ModeIndex(2, 1): complex(math.inf, 0)}, jmax=2)


def test_captured_power_beyond_the_float_range_is_refused(tmp_path, capsys):
    # Each power is about 1e308, their sum is not a float.
    path = tmp_path / "modes.csv"
    path.write_text("j,m,re,im\n0,0,1e154,0\n1,0,1e154,0\n")
    code, field, _ = run(capsys, "modes", "--input", str(path), "--to-field")
    assert code == 0
    path.write_text(field)
    code, out, err = run(capsys, "decompose", "--input", str(path), "--jmax", "1")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: the captured power is beyond the float range"]
