"""laguerre-ladder benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are named in BENCHMARK.json.  With ``--trace 0`` the run measures
the end-to-end metrics for ``S`` seconds; with ``--trace 1`` it wraps the
eight library modules and reports the per-layer metrics over a fixed number
of ops.  The last stdout line is the result object; the line before it is a
fuller record (environment, tail latency, failure share, CPU steal) that
``compare.py`` reads.  Everything the run writes stays under ``.bench_run/``
in the checkout; the run's input files are deleted when it ends.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from reference import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 9
RUN_LIMIT_S = 150  # the timed loop stops by then, leaving room to finish
# Set to more than 1, it spreads verify's suites over threads, which the
# tracer's single span stack cannot follow; the workloads use the default.
WORKERS_ENV = "LAGUERRE_LADDER_WORKERS"


class Terminated(BaseException):
    """Raised by the SIGTERM handler."""


def _terminate(*_) -> None:
    raise Terminated


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def pin_to_one_cpu() -> tuple[int, int]:
    """Run this process and every child on one CPU; return (cpu, CPUs before).

    The host's speed drifts per CPU, with no correlation between CPUs, and
    the reference loop scales a figure only if it ran on the CPU the
    measured work ran on.  The verify child is a separate process, so left
    free it often ran on the other CPU: its ten-run spread was 0.22 free
    and 0.07 pinned, on a 2-vCPU host.  Pinned before numpy loads, so BLAS
    sizes its thread pool to the one CPU.
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu, len(allowed)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)  # verify runs its suites in turn, as by default
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def measure_setup(env: dict) -> tuple[list[float], float]:
    """Seconds from spawning an interpreter to ``import laguerre_ladder`` done.

    Returns the spawn times and the host slowdown the reference loop saw
    between them.
    """
    times = []
    speed = Speedometer()
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import laguerre_ladder"], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
        speed.sample(times[-1])
    return times, speed.slowdown()


def cpu_ticks() -> tuple[int, int]:
    """(steal, busy) jiffies of the whole machine, from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, idle, iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return steal, user + nice + system + irq + softirq + steal


def blas_threads() -> int | str:
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(pattern):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def environment(nproc: int, cpu_pinned: int) -> dict:
    import mpmath
    import numpy

    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    else:  # an exported checkout: identify the code under test by its sources
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": nproc,
        "cpu_pinned": cpu_pinned,
        "blas_threads": blas_threads(),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    cpu_pinned, nproc = pin_to_one_cpu()
    # On SIGTERM unwind through the finally blocks, which stop the verify
    # child and delete the run's input files.  Not SystemExit: an op would
    # count that as a failed CLI call and carry on.
    signal.signal(signal.SIGTERM, _terminate)
    os.environ.pop(WORKERS_ENV, None)

    if not (SRC / "laguerre_ladder" / "__init__.py").is_file():
        return fail(f"no laguerre_ladder sources under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    if not compileall.compile_dir(str(SRC), quiet=1):
        return fail("sources do not compile")
    import laguerre_ladder

    if Path(laguerre_ladder.__file__).resolve().parent != SRC / "laguerre_ladder":
        return fail(f"imported laguerre_ladder from {laguerre_ladder.__file__}, not {SRC}")

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, Context, measure, summarize

    run_dir = ROOT / ".bench_run"
    tmp = run_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        setup, setup_slowdown = ([], None) if args.trace else measure_setup(env)
        ctx = Context(ROOT, tmp, args.seed, env, deadline=started + RUN_LIMIT_S)
        workload = WORKLOADS[args.workload](ctx)
        tracer = None
        if args.trace:
            tracer = Tracer()
            if workload.in_process:
                tracer.install()
        steal0, busy0 = cpu_ticks()
        result = measure(workload, args.seconds, tracer)
        steal1, busy1 = cpu_ticks()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tally = result["tally"]
    summary = summarize(result)
    if summary["op_p50_ms"] is None:
        for i, note in sorted(tally.notes.items())[:5]:
            print(f"op {i}: {tally.status[i]}: {note}", file=sys.stderr)
        return fail("no op succeeded")

    if args.trace:
        computed = layer_metrics(tracer, list(range(tally.attempted)))
        computed["traced.ops_per_s"] = summary["ops_per_s"]
        trace_path = run_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
    else:
        computed = {k: summary[k] for k in ("ops_per_s", "peak_rss_mb")}
        computed["setup_s"] = median(setup) / setup_slowdown
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        return fail(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    steal, busy = steal1 - steal0, busy1 - busy0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "raw_ops_per_s": summary["raw_ops_per_s"],
        "raw_setup_s": median(setup) if setup else None,
        "slowdown": {"ops": result["slowdown"], "setup": setup_slowdown,
                     "reference_samples": result["reference_samples"]},
        "op_p50_ms": summary["op_p50_ms"],
        "op_tail_ms": summary["op_tail_ms"],
        "failed_frac": summary["failed_frac"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "bad_outputs": tally.bad_outputs,
        "failures": {str(i): f"{tally.status[i]}: {n}" for i, n in sorted(tally.notes.items())[:10]},
        "wait_s": "0 by construction: one closed-loop client, no queue",
        "op_time_s": result["busy_s"],
        "setup_samples_s": setup,
        "cpu_steal": {"ticks": steal, "busy_ticks": busy, "share": steal / busy if busy else 0.0},
        "environment": environment(nproc, cpu_pinned),
        **result["extras"],
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": tally.bad_outputs == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(143)
