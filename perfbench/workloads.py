"""The benchmark's three workloads: seeded inputs, closed-loop ops, checks.

Each workload is one client in a closed loop: it sends its next request only
after the previous one returned, so there is no queue and no wait time to
report.  Inputs are generated from the seed before timing starts.  Each op's
output is checked right after the op, outside its timed interval, and then
dropped, so what the benchmark keeps does not grow with the op count and the
peak resident memory is the program's.

An op fails on a nonzero exit, on an exception escaping ``cli.main``, or on a
failed output check.  Failed ops count against ``attempted`` and are never
part of the latency or throughput figures.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import mpmath
import numpy as np
from reference import DUTY, Speedometer

HERE = Path(__file__).resolve().parent

OK, EXIT, EXCEPTION, CHECK = "ok", "exit", "exception", "check"


@dataclass
class Context:
    """Where a run executes: checkout paths, scratch directory, child env."""

    root: Path
    tmp: Path
    seed: int
    env: dict
    deadline: float  # perf_counter value by which the timed loop must end


class Tally:
    """Outcome and latency of every timed op of one run."""

    def __init__(self):
        self.latency: list[float] = []
        self.status: list[str] = []
        self.notes: dict[int, str] = {}

    def add(self, seconds: float, status: str, note: str = "") -> None:
        if note:
            self.notes[len(self.status)] = note
        self.latency.append(seconds)
        self.status.append(status)

    def fail_check(self, i: int, note: str) -> None:
        """Mark an op whose output check failed; earlier failures stand."""
        if self.status[i] == OK:
            self.status[i] = CHECK
            self.notes[i] = note

    @property
    def attempted(self) -> int:
        return len(self.status)

    @property
    def failed(self) -> int:
        return sum(s != OK for s in self.status)

    @property
    def bad_outputs(self) -> int:
        return self.status.count(CHECK)

    def ok_latencies(self) -> list[float]:
        return [t for t, s in zip(self.latency, self.status) if s == OK]


def call_cli(cli, argv: list[str], stdout) -> tuple[float, str, str]:
    """One in-process op: ``cli.main(argv)`` with stdout sent to ``stdout``.

    ``cli`` is the module, looked up at call time so a traced run reaches
    the wrapped ``main``.  Returns (seconds, status, note).
    """
    err = io.StringIO()
    status, note = OK, ""
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            status, note = EXIT, f"exit {rc}: {err.getvalue().strip()[:200]}"
    except SystemExit as exc:
        status, note = EXIT, f"exit {exc.code}"
    except Exception as exc:  # noqa: BLE001 - an escaping exception is a failed op
        status, note = EXCEPTION, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, status, note


# ---------------------------------------------------------------------------
# verify-cold: a fresh interpreter per op running the full verify gate
# ---------------------------------------------------------------------------


class VerifyCold:
    """``python -m laguerre_ladder verify --suite all`` at the CLI defaults."""

    name = "verify-cold"
    trace_ops = 2
    in_process = False
    reference_duty = 0.2

    def __init__(self, ctx: Context, extra_args: tuple[str, ...] = ()):
        self.ctx = ctx
        self.args = ["verify", "--suite", "all", *extra_args]
        self.output = b""
        self.first_output: bytes | None = None
        self.child_rss_mb: list[float] = []
        self.tracer = None

    def warm_up(self) -> None:
        """Nothing to warm: paying cold caches is the point of this workload."""

    def op(self, i: int) -> tuple[float, str, str]:
        ctx = self.ctx
        out_path = ctx.tmp / f"verify-{i}.out"
        err_path = ctx.tmp / f"verify-{i}.err"
        trace_path = ctx.tmp / f"verify-{i}.trace.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "laguerre_ladder", *self.args]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_path), *self.args]
        status, note = OK, ""
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ctx.env, cwd=ctx.root)
            # wait4 gives this child's own peak RSS; the timer bounds the wait.
            watchdog = threading.Timer(max(1.0, ctx.deadline - start), proc.kill)
            watchdog.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(wait_status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
            seconds = perf_counter() - start
        self.child_rss_mb.append(usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            status, note = EXIT, f"exit {proc.returncode}: {err_path.read_text()[-200:].strip()}"
        self.output = out_path.read_bytes()
        if self.tracer is not None:
            self.tracer.count("cli.bytes_out", len(self.output))
            if trace_path.exists():
                self.tracer.absorb(json.loads(trace_path.read_text()), i)
        return seconds, status, note

    def peak_rss_mb(self) -> float:
        return max(self.child_rss_mb)

    def check(self, i: int, tally: Tally) -> None:
        out = self.output
        if self.first_output is None:
            self.first_output = out
        try:
            report = json.loads(out)
        except ValueError:
            tally.fail_check(i, "stdout is not JSON")
            return
        if report.get("all_pass") is not True:
            tally.fail_check(i, "all_pass is not true")
        elif out != self.first_output:
            tally.fail_check(i, "stdout differs from the run's first op")

    def extras(self, tally: Tally) -> dict:
        return {}


# ---------------------------------------------------------------------------
# plane-roundtrip: modes --to-field, then decompose of that field
# ---------------------------------------------------------------------------

PLANE_JMAX = 8
PLANE_RADIAL = 96
PLANE_ANGULAR = 64
PLANE_TOL = 1e-10  # the bound suite_plane uses for the round trip
PLANE_FILES = 8
PLANE_OPERATORS = ("Jplus", "Jminus", "J3")


def seeded_modes(rng: random.Random) -> dict[tuple[int, int], complex]:
    """About 70% of the modes through PLANE_JMAX, amplitudes of size >= 0.05.

    The floor keeps every present mode far above decompose's min-power cut.
    """
    modes = {}
    for j in range(PLANE_JMAX + 1):
        for m in range(-j, j + 1):
            if rng.random() < 0.7:
                amp = 0j
                while abs(amp) < 0.05:
                    amp = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                modes[(j, m)] = amp
    return modes


def apply_spin(op: str | None, modes: dict) -> dict:
    """Textbook spin action on amplitudes (Condon-Shortley phases)."""
    if op is None:
        return dict(modes)
    out: dict[tuple[int, int], complex] = {}
    for (j, m), amp in modes.items():
        if op == "J3":
            target, elem = (j, m), m
        elif op == "Jplus":
            target, elem = (j, m + 1), math.sqrt((j - m) * (j + m + 1))
        else:
            target, elem = (j, m - 1), math.sqrt((j + m) * (j - m + 1))
        if elem:
            out[target] = out.get(target, 0j) + amp * elem
    return out


def amplitude_error(text: str, expected: dict) -> str:
    """Why decompose output disagrees with the expected amplitudes, or ''."""
    lines = text.splitlines()
    if not lines or lines[0] != "j,m,re,im,power":
        return "missing header"
    got: dict[tuple[int, int], complex] = {}
    for line in lines[1:]:
        j, m, re, im, _ = line.split(",")
        got[(int(j), int(m))] = complex(float(re), float(im))
    for key in set(got) | set(expected):
        diff = abs(got.get(key, 0j) - expected.get(key, 0j))
        if not diff <= PLANE_TOL:
            return f"mode {key}: amplitude off by {diff:.3g}"
    return ""


class PlaneRoundTrip:
    """Round trips in process: ``modes --to-field``, then ``decompose`` of it.

    An op is one round trip, two CLI calls.  Timed as separate ops, the two
    calls (about 0.4 s and 0.5 s) made a two-cluster latency distribution
    whose median jumped between the clusters from run to run.  Every third
    round trip first applies a seeded spin operator.  Every call builds a
    Gauss-Laguerre rule of the same order.
    """

    name = "plane-roundtrip"
    trace_ops = 12
    in_process = True
    reference_duty = DUTY
    schedule_length = 4000

    def __init__(self, ctx: Context):
        from laguerre_ladder import cli

        self.cli = cli
        self.ctx = ctx
        self.tracer = None
        rng = random.Random(ctx.seed)
        self.modes = []
        for k in range(PLANE_FILES):
            modes = seeded_modes(rng)
            path = ctx.tmp / f"modes-{k}.csv"
            rows = [f"{j},{m},{a.real!r},{a.imag!r}" for (j, m), a in sorted(modes.items())]
            path.write_text("j,m,re,im\n" + "\n".join(rows) + "\n")
            self.modes.append(modes)
        self.trips = [
            (rng.randrange(PLANE_FILES), rng.choice(PLANE_OPERATORS) if t % 3 == 2 else None)
            for t in range(self.schedule_length)
        ]
        self.field_path = ctx.tmp / "field.csv"
        self.decomposed: str | None = None  # the last op's output, if it got that far

    def _trip(self, i: int) -> tuple[int, str | None]:
        return self.trips[i % self.schedule_length]

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int) -> tuple[float, str, str]:
        self.decomposed = None
        seconds, status, note = self.to_field(i)
        if status != OK:
            return seconds, status, note
        more, status, note = self.decompose(i)
        return seconds + more, status, note

    def to_field(self, i: int) -> tuple[float, str, str]:
        file_index, operator = self._trip(i)
        argv = ["modes", "--input", str(self.ctx.tmp / f"modes-{file_index}.csv"), "--to-field"]
        argv += ["--radial-order", str(PLANE_RADIAL), "--angular", str(PLANE_ANGULAR)]
        if operator:
            argv += ["--apply", operator]
        with open(self.field_path, "w", encoding="utf-8") as out:
            result = call_cli(self.cli, argv, out)
            if self.tracer is not None:
                self.tracer.count("cli.bytes_out", out.tell())
        return result

    def decompose(self, i: int) -> tuple[float, str, str]:
        argv = ["decompose", "--input", str(self.field_path), "--jmax", str(PLANE_JMAX)]
        out = io.StringIO()
        result = call_cli(self.cli, argv, out)
        self.decomposed = out.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.bytes_out", len(self.decomposed))
        return result

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self, i: int, tally: Tally) -> None:
        if tally.status[i] != OK:
            return
        file_index, operator = self._trip(i)
        error = amplitude_error(self.decomposed, apply_spin(operator, self.modes[file_index]))
        if error:
            tally.fail_check(i, error)

    def extras(self, tally: Tally) -> dict:
        return {}


# ---------------------------------------------------------------------------
# tabulate: 200-point tables of high-degree carriers
# ---------------------------------------------------------------------------

TABLE_POINTS = 200
TABLE_ROWS_CHECKED = 8
# Carriers are L2-normalised, so their values are at most about 1 and an
# absolute tolerance is a tolerance relative to the table's peak.
TABLE_TOL = 1e-12
# Requests from the large-parameter edge, where the library overflows today
# (ROADMAP item 4a), are not in the timed mix: a timed op must not fail, and
# a failure count that scales with throughput differs between runs.  A fixed
# set of them is run once after the timed loop, so the defect still shows in
# every record, as a count that depends on the seed only.
EDGE_PROBES = 20


def table_request(rng: random.Random, edge: bool, n: int | None = None) -> dict:
    """A seeded ``table`` request; ``n`` is drawn from [0, 40] unless given."""
    if n is None:
        n = rng.randint(0, 40)
    if edge:
        alpha = rng.randint(150, 250)
        xmax = rng.randint(4 * n + 2 * alpha + 40, 1500)
    else:
        alpha = rng.randint(0, 20)
        xmax = 4 * n + 2 * alpha + 40
    if rng.random() < 0.5:
        labels = ["--family", "M", "--n", str(n), "--alpha", str(alpha)]
    else:
        # The same carrier under its spin labels: n = j + m, n + alpha = j - m.
        # "--m=-5/2": argparse would read a separate "-5/2" as an option.
        j, m = Fraction(2 * n + alpha, 2), Fraction(-alpha, 2)
        labels = ["--family", "L", f"--j={j}", f"--m={m}"]
    argv = ["table", *labels, "--xmax", str(xmax), "--points", str(TABLE_POINTS)]
    return {"n": n, "alpha": alpha, "xmax": xmax, "edge": edge, "argv": argv}


def carrier_reference(n: int, alpha: int, x: float) -> float:
    """sqrt(n!/(n+alpha)!) x^(alpha/2) e^(-x/2) L_n^alpha(x) in mpmath."""
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        norm = mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(n + alpha))
        value = norm * xm ** (mpmath.mpf(alpha) / 2) * mpmath.exp(-xm / 2)
        return float(value * mpmath.laguerre(n, alpha, xm))


def table_error(text: str, request: dict, rows: list[int]) -> str:
    """Why a table disagrees with the mpmath reference on the given rows, or ''."""
    lines = text.splitlines()
    if len(lines) != TABLE_POINTS + 1 or lines[0] != "x,value":
        return f"expected header and {TABLE_POINTS} rows, got {len(lines)} lines"
    grid = np.linspace(0.0, float(request["xmax"]), TABLE_POINTS)
    for r in rows:
        x_text, v_text = lines[r + 1].split(",")
        x, value = float(x_text), float(v_text)
        if x != float(grid[r]):
            return f"row {r}: x={x_text} is not the grid point"
        ref = carrier_reference(request["n"], request["alpha"], x)
        if not abs(value - ref) <= TABLE_TOL:
            return f"row {r}: value {v_text} differs from reference {ref!r}"
    return ""


class Tabulate:
    """``table`` requests for M carriers and their spin-labelled twins."""

    name = "tabulate"
    # Three passes over the requests, about as many ops as an untraced run
    # makes, so the traced share of warm ``laguerre`` calls is like its share.
    trace_ops = 615
    in_process = True
    reference_duty = DUTY
    # The requests repeat after this many, so the library's unbounded
    # ``laguerre`` cache stops growing within the first seconds of a run and
    # the peak memory does not rise with throughput.  Each degree 0..40 comes
    # repeats_per_degree times: an op's cost grows about twentyfold from
    # n = 0 to n = 40, so freely drawn degrees would make the mean op cost,
    # and with it ops_per_s, differ from seed to seed.
    repeats_per_degree = 5
    schedule_length = 41 * repeats_per_degree

    def __init__(self, ctx: Context):
        from laguerre_ladder import cli

        self.cli = cli
        self.ctx = ctx
        self.tracer = None
        rng = random.Random(ctx.seed)
        degrees = [n for n in range(41) for _ in range(self.repeats_per_degree)]
        rng.shuffle(degrees)
        self.requests = [table_request(rng, False, n) for n in degrees]
        self.edge_requests = [table_request(rng, True) for _ in range(EDGE_PROBES)]
        self.table = ""  # the last op's output

    def _request(self, i: int) -> dict:
        return self.requests[i % self.schedule_length]

    def warm_up(self) -> None:
        call_cli(self.cli, self._request(0)["argv"], io.StringIO())

    def op(self, i: int) -> tuple[float, str, str]:
        out = io.StringIO()
        result = call_cli(self.cli, self._request(i)["argv"], out)
        self.table = out.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.bytes_out", len(self.table))
        return result

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self, i: int, tally: Tally) -> None:
        if tally.status[i] != OK:
            return
        rows = random.Random(f"{self.ctx.seed}-{i}").sample(range(TABLE_POINTS), TABLE_ROWS_CHECKED)
        error = table_error(self.table, self._request(i), rows)
        if error:
            tally.fail_check(i, error)

    def extras(self, tally: Tally) -> dict:
        """Outcome of the edge probe, run after the timed loop; not traced."""
        if self.tracer is not None:
            return {}
        notes = []
        for k, request in enumerate(self.edge_requests):
            out = io.StringIO()
            _, status, note = call_cli(self.cli, request["argv"], out)
            if status == OK:
                rows = random.Random(f"{self.ctx.seed}-edge-{k}").sample(range(TABLE_POINTS), TABLE_ROWS_CHECKED)
                note = table_error(out.getvalue(), request, rows)
                status = CHECK if note else OK
            if status != OK:
                notes.append(f"{status}: {note}")
        return {
            "edge_probe_ops": len(self.edge_requests),
            "edge_probe_failed": len(notes),
            "edge_probe_failures": notes[:5],
        }


WORKLOADS = {w.name: w for w in (VerifyCold, PlaneRoundTrip, Tabulate)}


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run the closed loop, checking each op's output as it ends.

    Untraced runs make ops until ``seconds`` of op time have passed; traced
    runs make the workload's fixed number of ops so their counts repeat
    exactly.  After each op the reference loop runs for a twentieth of the
    op's time, and then the op's output is checked; both are outside every
    op.
    """
    workload.tracer = tracer
    workload.warm_up()
    tally = Tally()
    speed = Speedometer(workload.reference_duty)
    busy = 0.0
    while True:
        if tracer is not None:
            tracer.begin_op(tally.attempted)
        taken, status, note = workload.op(tally.attempted)
        if tracer is not None:
            tracer.end_op()
        tally.add(taken, status, note)
        busy += taken
        speed.sample(taken)
        workload.check(tally.attempted - 1, tally)
        done = tally.attempted >= workload.trace_ops if tracer is not None else busy >= seconds
        if done or perf_counter() >= workload.ctx.deadline:
            break
    return {
        "tally": tally,
        "busy_s": busy,
        "slowdown": speed.slowdown(),
        "reference_samples": speed.count,
        "peak_rss_mb": workload.peak_rss_mb(),
        "extras": workload.extras(tally),
    }


def tail_percentile(latencies: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    level = math.floor(100 * (n - 10) / n)
    ordered = sorted(latencies)
    index = max(math.ceil(level * n / 100) - 1, 0)
    return {"value_ms": 1000 * ordered[index], "level": f"p{level}", "samples": n}


def summarize(result: dict) -> dict:
    """Run figures; ``ops_per_s`` is scaled to the reference speed."""
    tally: Tally = result["tally"]
    ok = tally.ok_latencies()
    raw = len(ok) / result["busy_s"]
    return {
        "ops_per_s": raw * result["slowdown"],
        "raw_ops_per_s": raw,
        "op_p50_ms": 1000 * median(ok) if ok else None,
        "op_tail_ms": tail_percentile(ok),
        "failed_frac": tally.failed / tally.attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
