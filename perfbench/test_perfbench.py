"""Tests of the benchmark's own output checks and failure accounting.

Run from the checkout root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from run import child_env  # noqa: E402
from workloads import (  # noqa: E402
    CHECK,
    EXCEPTION,
    EXIT,
    OK,
    Context,
    PlaneRoundTrip,
    Tabulate,
    Tally,
    VerifyCold,
    summarize,
    tail_percentile,
)


def make_ctx(tmp_path: Path, seed: int = 1) -> Context:
    return Context(ROOT, tmp_path, seed, child_env(), deadline=perf_counter() + 170)


def run_ops(workload, indices) -> Tally:
    tally = Tally()
    for i in indices:
        tally.add(*workload.op(i))
        workload.check(i, tally)
    return tally


def assert_failed_not_timed(tally: Tally, failed: int) -> None:
    assert tally.failed == failed
    summary = summarize({"tally": tally, "busy_s": 1.0, "slowdown": 2.0, "peak_rss_mb": 1.0})
    assert len(tally.ok_latencies()) == tally.attempted - failed
    assert summary["raw_ops_per_s"] == tally.attempted - failed
    assert summary["ops_per_s"] == 2 * (tally.attempted - failed)
    assert summary["failed_frac"] == failed / tally.attempted


def test_verify_defect_op_is_a_failed_op(tmp_path):
    tally = run_ops(VerifyCold(make_ctx(tmp_path), ("--defect", "jplus-sign")), [0])
    assert tally.status == [EXIT]
    assert_failed_not_timed(tally, 1)


def test_verify_output_differing_from_first_op_fails_its_check(tmp_path):
    workload = VerifyCold(make_ctx(tmp_path))
    good = json.dumps({"all_pass": True, "suites": {}}).encode()
    tally = Tally()
    for i, output in enumerate([good, good + b" ", json.dumps({"all_pass": False}).encode(), good]):
        tally.add(1.0, OK)
        workload.output = output
        workload.check(i, tally)
    assert tally.status == [OK, CHECK, CHECK, OK]
    assert_failed_not_timed(tally, 2)


def test_plane_round_trips_pass_including_applied_operators(tmp_path):
    workload = PlaneRoundTrip(make_ctx(tmp_path, seed=3))
    assert [workload._trip(i)[1] is not None for i in range(3)] == [False, False, True]
    tally = run_ops(workload, range(3))
    assert tally.status == [OK] * 3, tally.notes


def corrupt_field(path: Path, row: int, edit) -> None:
    lines = path.read_text().splitlines()
    r, phi, re, im = lines[row].split(",")
    lines[row] = ",".join(edit(r, phi, re, im))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "edit, status",
    [
        # A plausible but wrong sample: decompose succeeds, the amplitudes do not match.
        (lambda r, phi, re, im: (r, phi, repr(float(re) + 0.5), im), CHECK),
        # An unparsable cell: decompose exits 2.
        (lambda r, phi, re, im: (r, phi, "x", im), EXIT),
    ],
)
def test_corrupted_field_row_fails_the_decompose_op(tmp_path, edit, status):
    workload = PlaneRoundTrip(make_ctx(tmp_path))
    tally = run_ops(workload, [0])
    seconds, first, _ = workload.to_field(1)
    corrupt_field(workload.field_path, 100, edit)  # a near-origin sample, where weights are large
    more, second, note = workload.decompose(1)
    assert first == OK
    tally.add(seconds + more, second, note)
    workload.check(1, tally)
    assert tally.status == [OK, status]
    assert_failed_not_timed(tally, 1)


def test_edge_slice_crash_is_a_failed_op(tmp_path):
    workload = Tabulate(make_ctx(tmp_path))
    assert not any(r["edge"] for r in workload.requests)
    # x**(alpha/2) overflows a double for alpha >= 230 at any edge xmax (>= 500).
    crash = next(r for r in workload.edge_requests if r["alpha"] >= 230)
    normal = workload.requests[0]
    workload.requests = [normal, crash]
    tally = run_ops(workload, [0, 1])
    assert tally.status == [OK, EXCEPTION]
    assert "OverflowError" in tally.notes[1]
    assert_failed_not_timed(tally, 1)


def test_edge_probe_reports_the_overflow(tmp_path):
    workload = Tabulate(make_ctx(tmp_path))
    crash = next(r for r in workload.edge_requests if r["alpha"] >= 230)
    workload.edge_requests = [crash]
    probe = workload.extras(Tally())
    assert probe["edge_probe_ops"] == 1 and probe["edge_probe_failed"] == 1
    assert "OverflowError" in probe["edge_probe_failures"][0]


def test_table_check_catches_a_wrong_value(tmp_path):
    workload = Tabulate(make_ctx(tmp_path))
    i = next(i for i, r in enumerate(workload.requests) if r["n"] >= 10)
    request = workload.requests[i]
    assert workload.op(i)[1] == OK
    text = workload.table
    assert workloads.table_error(text, request, [0, 57, 123, 199]) == ""
    lines = text.splitlines()
    x, value = lines[58].split(",")
    lines[58] = f"{x},{float(value) * (1 + 1e-9) + 1e-11!r}"
    assert "row 57" in workloads.table_error("\n".join(lines), request, [57])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile([1.0] * 10) is None
    tail = tail_percentile([i / 1000 for i in range(1, 101)])
    assert tail["level"] == "p90" and tail["samples"] == 100
    assert tail["value_ms"] == pytest.approx(90.0)
    tail = tail_percentile([i / 1000 for i in range(1, 38)])
    assert tail["level"] == "p72" and tail["value_ms"] == pytest.approx(27.0)  # 10 of 37 beyond


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tabulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_children_run_verify_suites_in_turn(monkeypatch):
    monkeypatch.setenv("LAGUERRE_LADDER_WORKERS", "4")
    assert "LAGUERRE_LADDER_WORKERS" not in child_env()
