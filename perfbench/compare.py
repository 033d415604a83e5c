"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage: python3 perfbench/compare.py SET_A [SET_B]

A set is a directory of files, or one file, holding the stdout of runs of
``perfbench/run.py`` (``sweep.py`` writes such a directory).  For every
end-to-end metric and workload it prints each set's median and quartiles and
the spread (quartile distance over median).  With two sets, B is the change
and A the parent, and each pair is marked:

* within bound   B's median is no worse than A's by more than the metric's
                 bound, and both spreads are within the bound; or the spread
                 is wider but every B run reads better than every A run
* unresolved     the spread is wider than the bound and the runs overlap
* exceeds bound  B's median is worse than A's by more than the bound

Unscaled throughput and set-up time, median and tail latency, and failure
share are in the run record but not in BENCHMARK.json; they have no bound
and are printed for reference.
Traced runs add the tracing overhead (traced over untraced ops/s) per
workload, and, for seeds present in both sets, whether every count metric
repeated exactly.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = {"count/op", "bytes/op"}


def load(path: Path) -> list[dict]:
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.startswith('{"record"'):
                records.append(json.loads(line)["record"])
    return records


def series(records: list[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for r in records:
        if r["trace"] != trace:
            continue
        for name, metric in r["metrics"].items():
            out[(name, r["workload"])].append(metric["value"])
        if trace == 0:
            for name in ("raw_ops_per_s", "raw_setup_s", "op_p50_ms"):
                out[(name, r["workload"])].append(r[name])
            if r["op_tail_ms"] is not None:
                out[("op_tail_ms", r["workload"])].append(r["op_tail_ms"]["value_ms"])
            out[("failed_frac", r["workload"])].append(r["failed_frac"])
    return out


def stats(values: list[float]) -> tuple[float, float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    _, med_a, _, spread_a = stats(a)
    _, med_b, _, spread_b = stats(b)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (med_b - med_a) / med_a
    if max(spread_a, spread_b) > bound:
        b_better = min(b) > max(a) if better == "higher" else max(b) < min(a)
        return "within bound" if b_better else "unresolved"
    return "within bound" if worse_by <= bound else "exceeds bound"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(Path(p)) for p in argv]
    if not all(sets):
        print("error: a set holds no run records", file=sys.stderr)
        return 2
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    e2e += [
        ("raw_ops_per_s", "1/s", "higher", None),
        ("raw_setup_s", "s", "lower", None),
        ("op_p50_ms", "ms", "lower", None),
        ("op_tail_ms", "ms", "lower", None),
        ("failed_frac", "1", "lower", None),
    ]
    untraced = [series(s, 0) for s in sets]

    header = f"{'metric':13} {'unit':5} {'workload':16}"
    for label in "AB"[: len(sets)]:
        header += f" | {label}: {'q1':>10} {'median':>10} {'q3':>10} {'spread':>6} {'n':>2}"
    print(header + (" | verdict" if len(sets) == 2 else ""))
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, unit, better, bound in e2e:
            cols = [s.get((name, workload), []) for s in untraced]
            if not any(cols):
                continue
            line = f"{name:13} {unit:5} {workload:16}"
            for values in cols:
                if values:
                    q1, q2, q3, spread = stats(values)
                    line += f" | {q1:13.5g} {q2:10.5g} {q3:10.5g} {spread:6.3f} {len(values):2}"
                else:
                    line += " | " + "-" * 47
            if len(sets) == 2 and all(cols):
                line += " | " + (verdict(cols[0], cols[1], bound, better) if bound else "no bound")
            print(line)

    for label, records, plain in zip("AB", sets, untraced):
        traced = series(records, 1)
        for workload in [w["name"] for w in spec["workloads"]]:
            t = traced.get(("traced.ops_per_s", workload))
            u = plain.get(("ops_per_s", workload))
            if t and u:
                print(f"set {label} {workload}: tracing overhead {median(t) / median(u):.3f} "
                      f"(traced ops/s {median(t):.4g} over untraced {median(u):.4g})")

    if len(sets) == 2:
        counts = {m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS}
        by_run = [
            {(r["workload"], r["seed"]): r["metrics"] for r in s if r["trace"] == 1} for s in sets
        ]
        for key in sorted(set(by_run[0]) & set(by_run[1])):
            a, b = by_run[0][key], by_run[1][key]
            differing = [n for n in sorted(counts) if a[n]["value"] != b[n]["value"]]
            state = "repeat exactly" if not differing else f"differ: {', '.join(differing)}"
            print(f"counts {key[0]} seed {key[1]}: {state}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
