"""Run the benchmark over several seeds in one or two checkouts, keeping each stdout.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --out DIR [--seeds 1-10] [--trace 0|1] CHECKOUT [CHECKOUT]

Every workload of this checkout's BENCHMARK.json runs once per seed in each
CHECKOUT (the root of a checkout of the program holding the same
``perfbench/``: this one or another), with this file's command and
``run_seconds``, so both sides run the same benchmark for the same time.
Given two checkouts, parent first, the two runs of one workload and seed are
made back to back, and the side that runs first alternates from seed to
seed, so that drift in the host's speed falls on both sides alike.  The first
checkout's runs go to DIR/a, the second's to DIR/b, as
DIR/<x>/<workload>-seed<N>-trace<T>.out; each such directory is a set for
``compare.py``.  Runs are sequential, as the benchmark assumes it has the
machine to itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args()
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    sides = [(checkout.resolve(), args.out.resolve() / name) for checkout, name in zip(args.checkouts, "ab")]
    for _, out_dir in sides:
        out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for k, seed in enumerate(args.seeds):
        for workload in spec["workloads"]:
            for checkout, out_dir in sides[::-1] if k % 2 else sides:
                out = out_dir / f"{workload['name']}-seed{seed}-trace{args.trace}.out"
                cmd = [*spec["command"], "--workload", workload["name"], "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                with open(out, "w", encoding="utf-8") as handle:
                    rc = subprocess.run(cmd, cwd=checkout, stdout=handle).returncode
                print(f"{out_dir.name}/{out.name}: exit {rc}", flush=True)
                status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
