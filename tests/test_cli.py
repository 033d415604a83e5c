import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laguerre_ladder import cli, opalgebra
from laguerre_ladder.cli import main
from laguerre_ladder.opalgebra import OperatorName


M_LABELS = ["--family", "M", "--n", "2", "--alpha", "1"]
Z_LABELS = ["--family", "Z", "--j", "1", "--m", "1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval -------------------------------------------------------------------------


def test_eval_ground_value(capsys):
    code, out, _ = run(capsys, "eval", "--family", "M", "--n", "0", "--alpha", "0", "--x", "0")
    assert code == 0
    assert out.strip() == "1"


def test_eval_plane_mode(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "Z", "--j", "1", "--m", "1", "--r", "1", "--phi", "0"
    )
    assert code == 0
    re, im = map(float, out.strip().split(","))
    # sqrt((j+m)!/(j-m)!) x^(-m) exp(-x/2) at x = 1 times the extended
    # polynomial x^2/2 collapses to exp(-1/2)/sqrt(2)
    assert re == pytest.approx(math.exp(-0.5) / math.sqrt(2), rel=1e-14)
    assert im == 0.0


@pytest.mark.parametrize("r", ["1e3", "1.4e154", "1e200"])
def test_eval_plane_mode_far_out_underflows_to_zero(capsys, r):
    # From r = 1.4e154 on, r * r overflows; the value has underflowed long before.
    code, out, err = run(capsys, "eval", *Z_LABELS, "--r", r, "--phi", "0")
    assert (code, out, err) == (0, "0,0\n", "")


def test_eval_invalid_labels(capsys):
    code, _, err = run(
        capsys, "eval", "--family", "M", "--n", "1", "--alpha", "-5", "--x", "1"
    )
    assert code == 2
    assert "n + alpha must be non-negative" in err


def test_eval_multiple_points(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "scriptM", "--n", "1", "--p", "1",
        "--x", "0", "--x", "1",
    )
    assert code == 0
    values = [float(v) for v in out.split()]
    assert values[0] == 1.0
    assert values[1] == 0.0


def test_eval_missing_option(capsys):
    code, _, err = run(capsys, "eval", "--family", "M", "--n", "1", "--x", "1")
    assert code == 2
    assert "--alpha" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["eval", *M_LABELS, "--x", "inf"], "--x"),
        (["eval", *M_LABELS, "--x", "1", "--x", "nan"], "--x"),
        (["eval", *Z_LABELS, "--r", "inf", "--phi", "0"], "--r"),
        (["eval", *Z_LABELS, "--r", "1", "--phi=-inf"], "--phi"),
        (["table", *M_LABELS, "--xmin", "nan", "--xmax", "2"], "--xmin"),
        (["table", *M_LABELS, "--xmax", "inf"], "--xmax"),
        (["decompose", "--input", "field.csv", "--jmax", "4", "--min-power", "nan"],
         "--min-power"),
    ],
)
def test_non_finite_point_option_names_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {flag} must be finite")


# -- table ------------------------------------------------------------------------


def test_table_rows(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "M", "--n", "1", "--alpha", "0",
        "--xmax", "2", "--points", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert lines[1] == "0,1"
    assert lines[2] == "1,0"
    assert float(lines[3].split(",")[1]) == pytest.approx(-math.exp(-1.0), rel=1e-15)


def test_table_points_bounded_before_allocation(capsys):
    # 10**20 points would need about an exabyte; the bound rejects it first.
    code, out, err = run(capsys, "table", *M_LABELS, "--xmax", "2", "--points", str(10**20))
    assert code == 2
    assert out == ""
    assert err == "error: --points must be at most 1000000 (got 100000000000000000000)\n"


# -- verify -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--suite", "algebra", "--nmax", "-1"], "--nmax"),
        (["--suite", "exact", "--nmax", "0", "--alpha-max", "-1"], "--alpha-max"),
        (["--suite", "plane", "--jmax", "-1"], "--jmax"),
    ],
)
def test_verify_rejects_negative_sizes(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be non-negative (got -1)\n"


@pytest.mark.parametrize("suite", ["so32", "all"])
def test_verify_so32_refuses_a_one_state_window(capsys, suite):
    # Killing-Casimir constancy compares each state with (0, 0): at --nmax 0
    # there is nothing to compare, so the suite refuses before running.
    code, out, err = run(capsys, "verify", "--suite", suite, "--nmax", "0")
    assert code == 2
    assert out == ""
    assert err == "error: the so32 suite needs nmax at least 1 (got 0)\n"
    code, out, _ = run(capsys, "verify", "--suite", "so32", "--nmax", "1")
    assert code == 0
    checks = json.loads(out)["suites"]["so32"]
    assert checks["killing-casimir-constancy"]["cases"] == 3
    assert checks["killing-casimir-value"]["cases"] == 4


def test_verify_exact_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "exact", "--nmax", "8")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    for check in report["suites"]["exact"].values():
        assert check["mode"] == "exact"
        assert check["max_residual"] == 0.0


def test_verify_algebra_reports_casimirs(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--nmax", "6")
    assert code == 0
    checks = json.loads(out)["suites"]["algebra"]
    for name in ("casimir-boson", "casimir-su2", "casimir-su11", "casimir-r", "casimir-s"):
        assert checks[name]["pass"] is True


def test_verify_so32_names_value(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "so32")
    assert code == 0
    checks = json.loads(out)["suites"]["so32"]
    assert all(c["mode"] == "exact" and c["max_residual"] == 0.0 for c in checks.values())
    assert checks["killing-casimir-value"]["eigenvalue"] == -1.25
    assert checks["killing-casimir-value"]["reference"] == -1.25


def test_verify_so32_defect_names_pair_and_state(capsys):
    # The defect patches the label action, not the table: the constants still
    # close, and the Killing Casimir, taken through the label action, names
    # the state the defect breaks.
    code, out, err = run(capsys, "verify", "--suite", "so32", "--defect", "jplus-sign")
    assert code == 1
    checks = json.loads(out)["suites"]["so32"]
    assert checks["commutator-closure"] == {
        "mode": "exact", "max_residual": 0.0, "tolerance": 0.0, "pass": True, "cases": 45
    }
    witnesses = {name: c["witness"] for name, c in checks.items() if not c["pass"]}
    assert witnesses == {
        "killing-casimir-constancy": {"states": [[0, 0], [1, 2]]},
        "killing-casimir-value": {"state": [1, 2]},
    }
    assert err.splitlines() == [
        f"FAILED so32/{name} at {json.dumps(witness)}" for name, witness in witnesses.items()
    ]


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_verify_defect_report_is_strict_json(capsys, monkeypatch):
    # The Killing checks are skipped once closure fails; they measured nothing.
    # R+ = a+**3 is no quadratic, so the generators no longer close.
    monkeypatch.setitem(opalgebra._BILINEARS, OperatorName.Rplus, {(3, 0, 0, 0): 1})
    code, out, _ = run(capsys, "verify", "--suite", "so32")
    assert code == 1
    checks = json.loads(out, parse_constant=_reject_constant)["suites"]["so32"]
    assert checks["commutator-closure"]["witness"] == {"pair": "[J+,K+]"}
    for name in ("killing-su2-block", "killing-casimir-constancy", "killing-casimir-value"):
        assert checks[name]["max_residual"] is None
        assert checks[name]["pass"] is False
        assert checks[name]["skipped_reason"] == "closure failed at [J+,K+]"


def test_verify_check_of_nothing_fails(capsys):
    # At nmax 0 and alpha-max 0 these three loops are empty.
    code, out, err = run(capsys, "verify", "--suite", "exact", "--nmax", "0", "--alpha-max", "0")
    assert code == 1
    checks = json.loads(out)["suites"]["exact"]
    empty = {"ladder-raise-residual", "ladder-lower-residual", "three-term-recurrence"}
    assert {name for name, c in checks.items() if not c["pass"]} == empty
    assert all(checks[name]["cases"] == 0 for name in empty)
    assert "FAILED exact/three-term-recurrence" in err.splitlines()


def test_verify_label_diff_defect_names_form_and_state(capsys):
    code, out, err = run(capsys, "verify", "--suite", "algebra", "--defect", "jplus-sign")
    assert code == 1
    check = json.loads(out)["suites"]["algebra"]["label-diff-consistency"]
    assert check["mode"] == "exact"
    assert check["pass"] is False
    assert check["cases"] == 726
    assert check["witness"] == {"op": "J+", "state": [1, 2]}
    line = 'FAILED algebra/label-diff-consistency at {"op": "J+", "state": [1, 2]}'
    assert line in err.splitlines()


def test_verify_defect_fails_and_names_identity(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "algebra", "--nmax", "4", "--defect", "jplus-sign"
    )
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    failing = [n for n, c in report["suites"]["algebra"].items() if not c["pass"]]
    assert failing == ["label-diff-consistency"]
    assert "FAILED algebra/label-diff-consistency" in err


def test_verify_defect_report_pins_failing_checks(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--defect", "jplus-sign")
    assert code == 1
    checks = json.loads(out)["suites"]["algebra"]
    failing = {name: check["max_residual"] for name, check in checks.items() if not check["pass"]}
    # The relations and Casimirs are identities of the table, which the
    # defect does not touch; only the check that applies the label action
    # to states fails, with the flipped sign's residual 2.
    assert failing == {"label-diff-consistency": 2.0}
    scoped = {name for name, check in checks.items() if check.get("scope") == "all n, p"}
    assert scoped == set(checks) - {"label-diff-consistency"}


def test_verify_defect_names_each_failing_algebra_witness(capsys):
    # The defect flips the J+ element out of the state (1, 2).
    code, out, err = run(capsys, "verify", "--suite", "algebra", "--defect", "jplus-sign")
    assert code == 1
    witnesses = {
        name: check["witness"]
        for name, check in json.loads(out)["suites"]["algebra"].items()
        if not check["pass"]
    }
    assert witnesses == {"label-diff-consistency": {"op": "J+", "state": [1, 2]}}
    assert err.splitlines() == [
        'FAILED algebra/label-diff-consistency at {"op": "J+", "state": [1, 2]}'
    ]


def test_verify_all_defect_names_every_failing_per_state_check(capsys):
    # Across the suites, the per-state checks of the label action fail, each
    # at the state (1, 2) that the defect breaks.
    code, out, err = run(capsys, "verify", "--suite", "all", "--defect", "jplus-sign")
    assert code == 1
    witnesses = {
        f"{suite}/{name}": check["witness"]
        for suite, checks in json.loads(out)["suites"].items()
        for name, check in checks.items()
        if not check["pass"]
    }
    assert witnesses == {
        "algebra/label-diff-consistency": {"op": "J+", "state": [1, 2]},
        "so32/killing-casimir-constancy": {"states": [[0, 0], [1, 2]]},
        "so32/killing-casimir-value": {"state": [1, 2]},
    }
    assert err.splitlines() == [
        f"FAILED {name} at {json.dumps(witness)}" for name, witness in witnesses.items()
    ]


def test_verify_plane_order_error_names_the_option_and_the_seed(capsys):
    # The round trip seeds modes through min(jmax + 2, 8): j = 8 needs nine nodes.
    code, out, err = run(capsys, "verify", "--suite", "plane", "--jmax", "6", "--order", "8")
    assert code == 2
    assert out == ""
    assert err == (
        "error: --order 8 is too small for the plane round trip: its seed modes "
        "reach j=8 and need --order at least 9\n"
    )
    assert run(capsys, "verify", "--suite", "plane", "--jmax", "6", "--order", "9")[0] == 0


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "quadrature", "--nmax", "6", "--order", "32")
    _, second, _ = run(capsys, "verify", "--suite", "quadrature", "--nmax", "6", "--order", "32")
    assert first == second


# -- gram ------------------------------------------------------------------------


def test_gram_csv(capsys):
    code, out, _ = run(capsys, "gram", "--alpha", "2", "--nmax", "3", "--order", "16")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)
    for i, row in enumerate(rows):
        for k, cell in enumerate(row):
            assert float(cell) == pytest.approx(float(i == k), abs=1e-11)


# -- decompose / modes pipeline ------------------------------------------------------


def _write_single_mode_field(tmp_path, capsys, j, m, radial=16, angular=16):
    path = tmp_path / "modes.csv"
    path.write_text(f"j,m,re,im\n{j},{m},1,0\n")
    code, out, _ = run(
        capsys, "modes", "--input", str(path), "--to-field",
        "--radial-order", str(radial), "--angular", str(angular),
    )
    assert code == 0
    field = tmp_path / "field.csv"
    field.write_text(out)
    return field


def test_decompose_single_mode(tmp_path, capsys):
    field = _write_single_mode_field(tmp_path, capsys, 2, 1)
    code, out, err = run(capsys, "decompose", "--input", str(field), "--jmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,m,re,im,power"
    assert len(lines) == 2
    j, m, re, im, power = lines[1].split(",")
    assert (j, m) == ("2", "1")
    assert float(power) == pytest.approx(1.0, abs=1e-10)
    assert "captured power" in err


def test_decompose_jmax_zero(tmp_path, capsys):
    field = _write_single_mode_field(tmp_path, capsys, 0, 0)
    code, out, _ = run(capsys, "decompose", "--input", str(field), "--jmax", "0")
    assert code == 0
    j, m, re, im, power = out.strip().splitlines()[1].split(",")
    assert (j, m) == ("0", "0")
    assert float(re) == pytest.approx(1.0, abs=1e-10)


def test_decompose_bad_cell_names_line(tmp_path, capsys):
    field = _write_single_mode_field(tmp_path, capsys, 1, 0)
    lines = field.read_text().splitlines()
    lines[6] = lines[6].replace(lines[6].split(",")[2], "not-a-number", 1)
    field.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "decompose", "--input", str(field), "--jmax", "2")
    assert code == 2
    assert "line 7" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_decompose_non_finite_cell_names_line(tmp_path, capsys, cell):
    field = _write_single_mode_field(tmp_path, capsys, 1, 0)
    lines = field.read_text().splitlines()
    r, phi, re, im = lines[5].split(",")
    lines[5] = ",".join((r, phi, cell, im))
    field.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "decompose", "--input", str(field), "--jmax", "2")
    assert code == 2
    assert out == ""
    assert "line 6" in err


def test_decompose_rejects_a_negative_jmax(tmp_path, capsys):
    field = _write_single_mode_field(tmp_path, capsys, 1, 0)
    code, out, err = run(capsys, "decompose", "--input", str(field), "--jmax", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --jmax must be non-negative (got -1)\n"


def test_decompose_insufficient_grid(tmp_path, capsys):
    field = _write_single_mode_field(tmp_path, capsys, 1, 0, radial=16, angular=16)
    code, _, err = run(capsys, "decompose", "--input", str(field), "--jmax", "10")
    assert code == 2
    assert "angular" in err or "radial" in err


def test_modes_apply_raising(tmp_path, capsys):
    path = tmp_path / "modes.csv"
    path.write_text("j,m,re,im\n1,0,1,0\n")
    code, out, _ = run(capsys, "modes", "--input", str(path), "--apply", "Jplus")
    assert code == 0
    j, m, re, im, power = out.strip().splitlines()[1].split(",")
    assert (j, m) == ("1", "1")
    assert float(re) == pytest.approx(math.sqrt(2), rel=1e-15)


@pytest.mark.parametrize(
    "rows, named",
    [
        ("2,1,1,0\n1,0,1,0\n2,1,0.5,0\n", "duplicate mode label (j=2, m=1)"),
        # 2**53 + 1 reads as the float 2**53.
        ("9007199254740993,0,1,0\n", "(j=9007199254740992, m=0) is not below 2**53"),
        # Non-integers that read as integer floats: the labels are checked as text.
        ("1,0,1,0\n2.0000000000000001,0,1,0\n",
         "line 3: mode labels must be integers (got j=2.0000000000000001, m=0)"),
        ("2251799813685248.1,0,1,0\n", "(got j=2251799813685248.1, m=0)"),
        ("0,-1e-999999999,1,0\n", "(got j=0, m=-1e-999999999)"),
        # An exponent beyond Decimal's range is rejected, never expanded.
        ("0,1e-99999999999999999999999,1,0\n", "(got j=0, m=1e-99999999999999999999999)"),
    ],
)
def test_modes_ambiguous_labels_exit_2(tmp_path, capsys, rows, named):
    path = tmp_path / "modes.csv"
    path.write_text("j,m,re,im\n" + rows)
    code, out, err = run(capsys, "modes", "--input", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert named in err


@pytest.mark.parametrize("label", ["2", "2.0", "2e0", " 2 ", "+2"])
def test_modes_integer_labels_in_any_spelling(tmp_path, capsys, label):
    path = tmp_path / "modes.csv"
    path.write_text(f"j,m,re,im\n{label},-0,1,0\n")
    code, out, err = run(capsys, "modes", "--input", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "2,0,1,0,1"


def test_modes_bad_header(tmp_path, capsys):
    path = tmp_path / "modes.csv"
    path.write_text("a,b,c,d\n1,0,1,0\n")
    code, _, err = run(capsys, "modes", "--input", str(path))
    assert code == 2
    assert "line 1" in err


# -- parser reuse ------------------------------------------------------------------


def test_parser_is_built_once_across_calls(capsys):
    cli._build_parser.cache_clear()
    for _ in range(3):
        run(capsys, "eval", *M_LABELS, "--x", "1")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_repeated_append_option_does_not_accumulate(capsys):
    for _ in range(2):
        code, out, _ = run(capsys, "eval", *M_LABELS, "--x", "1", "--x", "2")
        assert code == 0
        assert len(out.splitlines()) == 2


def test_call_after_usage_error_matches_fresh_process(capsys):
    argv = ["table", *M_LABELS, "--xmax", "3", "--points", "5"]
    with pytest.raises(SystemExit) as exc:
        main(["table", "--family", "Q", "--xmax", "3"])  # argparse rejects the choice
    assert exc.value.code == 2
    assert run(capsys, "eval", *M_LABELS, "--x", "-1")[0] == 2  # rejected by the command
    code, out, err = run(capsys, *argv)

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    fresh = subprocess.run(
        [sys.executable, "-m", "laguerre_ladder", *argv], capture_output=True, text=True, env=env
    )
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
