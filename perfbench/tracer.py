"""Span tracer for the traced benchmark run.

Wraps the public functions of the eight laguerre_ladder modules (the layers)
from outside the library: every module namespace that holds a traced
function, including the ones that imported it by name, gets the wrapper, and
methods are wrapped on their class.  Nothing in the library changes.

Hot functions are aggregated per (op, span name): calls, inclusive time,
time covered by child spans, and inclusive time of the outermost call when
the function recurses.  Coarse spans (one to a few per op) are additionally
kept as individual records (name, start, end, parent, op).  Everything stays
in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# Span name -> (module, attribute) bindings to wrap.  Attributes of the form
# "Class.method" are wrapped on the class.
TRACED = {
    "exactpoly.laguerre": [("exactpoly", "laguerre")],
    "exactpoly.residual": [
        ("exactpoly", "de_residual"),
        ("exactpoly", "alpha_ladder_check"),
        ("exactpoly", "three_term_residual"),
    ],
    "exactpoly.eval": [("exactpoly", "LaurentPoly.eval_float"), ("exactpoly", "LaurentPoly.eval_exact")],
    "basis.carrier": [("basis", "carrier_M"), ("basis", "carrier_L")],
    "basis.evaluate": [("basis", "evaluate")],
    "basis.evaluate_derivative": [("basis", "evaluate_derivative")],
    "basis.derived_core": [("basis", "derived_core")],
    "radicals.sqrtsum_mul": [("radicals", "SqrtSum.__mul__")],
    "radicals.squarefree_split": [("radicals", "squarefree_split")],
    "radicals.float_sqrt": [("radicals", "float_sqrt")],
    "opalgebra.apply_exact": [("opalgebra", "apply_exact")],
    "opalgebra.commutator": [("opalgebra", "commutator_exact"), ("opalgebra", "commutator_label")],
    "opalgebra.apply_label": [("opalgebra", "apply_label")],
    "opalgebra.apply_diff": [("opalgebra", "apply_diff")],
    "opalgebra.casimir": [("opalgebra", "casimir_eigenvalue")],
    "opalgebra.structure_constants": [("opalgebra", "derive_structure_constants")],
    "opalgebra.killing_casimir": [("opalgebra", "killing_casimir")],
    "quadrature.gauss_laguerre": [("quadrature", "gauss_laguerre")],
    "quadrature.gram_matrix": [("quadrature", "gram_matrix")],
    "quadrature.inner_product": [
        ("quadrature", "inner_product"),
        ("quadrature", "weighted_inner_product"),
    ],
    "quadrature.projection": [("quadrature", "projection_convergence")],
    "plane.grid_build": [("plane", "PolarGrid.build")],
    "plane.reconstruct": [("plane", "reconstruct")],
    "plane.decompose": [("plane", "decompose")],
    "plane.mode_ops": [
        ("plane", "apply_mode_operator"),
        ("plane", "mode_commutator"),
        ("plane", "mode_casimir"),
    ],
    "plane.gram_2d": [("plane", "gram_2d")],
    "verify.exact": [("verify", "suite_exact")],
    "verify.algebra": [("verify", "suite_algebra")],
    "verify.label_diff_consistency": [("verify", "label_diff_consistency")],
    "verify.quadrature": [("verify", "suite_quadrature")],
    "verify.plane": [("verify", "suite_plane")],
    "verify.so32": [("verify", "suite_so32")],
    "cli.main": [("cli", "main")],
}

# Spans with few calls per op, kept as individual records.
KEPT = {
    "cli.main",
    "verify.exact",
    "verify.algebra",
    "verify.label_diff_consistency",
    "verify.quadrature",
    "verify.plane",
    "verify.so32",
    "opalgebra.structure_constants",
    "opalgebra.killing_casimir",
    "quadrature.gauss_laguerre",
    "quadrature.gram_matrix",
    "quadrature.projection",
    "plane.grid_build",
    "plane.reconstruct",
    "plane.decompose",
    "plane.gram_2d",
}

# A nested call to the same span name (eval_float -> eval_exact,
# carrier_L -> carrier_M) is the same unit of work, not a new span.
MERGED = {"exactpoly.eval", "basis.carrier"}


def _horner_steps(args, kwargs, result):
    poly, x = args
    coeffs = poly._coeffs
    if not coeffs or x == 0:
        return {}
    return {"exactpoly.eval.horner_steps": max(coeffs) - min(coeffs) + 1}


def _commutator_states(args, kwargs, result):
    vec = args[2]  # exact dict or LabelVector
    return {"opalgebra.commutator.states": len(getattr(vec, "terms", vec))}


def _rule_nodes(args, kwargs, result):
    return {"quadrature.gauss_laguerre.nodes": result.order}


def _samples_synthesized(args, kwargs, result):
    return {"plane.samples": result.values.size}


def _samples_analysed(args, kwargs, result):
    return {"plane.samples": args[0].values.size}


def _carrier_key(args, kwargs, result):
    return tuple(result.label)


def _core_key(args, kwargs, result):
    half_power, core = args[0], args[1]
    return half_power, tuple(core.items())


def _rule_key(args, kwargs, result):
    return result.order


COUNTERS = {
    "exactpoly.eval": _horner_steps,
    "opalgebra.commutator": _commutator_states,
    "quadrature.gauss_laguerre": _rule_nodes,
    "plane.reconstruct": _samples_synthesized,
    "plane.decompose": _samples_analysed,
}

REPEAT_KEYS = {
    "basis.carrier": _carrier_key,
    "basis.derived_core": _core_key,
    "quadrature.gauss_laguerre": _rule_key,
}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.op = None  # None while warming up: recorded, not reported
        self._stack: list[list] = []  # [name, child seconds]
        self._active: dict[str, int] = defaultdict(int)
        # (op, name) -> [calls, inclusive s, child s, outermost inclusive s]
        self.stats: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counts: dict[tuple, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._laguerre = None
        self._misses_at_start = 0

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        if self._laguerre is not None:
            self._misses_at_start = self._laguerre.cache_info().misses

    def end_op(self) -> None:
        if self._laguerre is not None:
            misses = self._laguerre.cache_info().misses - self._misses_at_start
            self.count("exactpoly.laguerre.misses", misses)
        self.op = None

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.op, name)] += amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, func):
        stack, active, stats = self._stack, self._active, self.stats
        keep = name in KEPT
        merged = name in MERGED
        counter = COUNTERS.get(name)
        key_of = REPEAT_KEYS.get(name)
        seen = self._seen[name]

        def traced(*args, **kwargs):
            if merged and stack and stack[-1][0] == name:
                return func(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spent = end - start
                if stack:
                    stack[-1][1] += spent
                record = stats[(self.op, name)]
                record[0] += 1
                record[1] += spent
                record[2] += frame[1]
                if not active[name]:
                    record[3] += spent
                if keep:
                    parent = stack[-1][0] if stack else None
                    self.spans.append((name, start, end, parent, self.op))
            if counter is not None:
                for counted, amount in counter(args, kwargs, result).items():
                    self.counts[(self.op, counted)] += amount
            if key_of is not None:
                key = key_of(args, kwargs, result)
                if key in seen:
                    self.counts[(self.op, name + ".repeats")] += 1
                else:
                    seen.add(key)
            return result

        traced.__wrapped__ = func
        for attr in ("cache_info", "cache_clear"):
            if hasattr(func, attr):
                setattr(traced, attr, getattr(func, attr))
        return traced

    def count_rows(self, func):
        """Counter-only wrapper for the CSV parser: rows read, no span."""

        def counted(*args, **kwargs):
            rows = func(*args, **kwargs)
            self.count("cli.rows_in", len(rows))
            return rows

        counted.__wrapped__ = func
        return counted

    def install(self) -> None:
        """Wrap every traced binding in the loaded laguerre_ladder modules."""
        package = "laguerre_ladder"
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name, bindings in TRACED.items():
            for module_name, attr in bindings:
                module = sys.modules[f"{package}.{module_name}"]
                if "." in attr:
                    self._wrap_method(name, getattr(module, attr.split(".")[0]), attr.split(".")[1])
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                if name == "exactpoly.laguerre":
                    self._laguerre = original
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        cli = sys.modules[f"{package}.cli"]
        cli._parse_csv = self.count_rows(cli._parse_csv)

    def _wrap_method(self, name: str, cls, method: str) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, staticmethod):
            setattr(cls, method, staticmethod(self.wrap(name, raw.__func__)))
            return
        wrapper = self.wrap(name, raw)
        # Aliases such as __rmul__ = __mul__ are the same function.
        for attr, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, attr, wrapper)

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        return {
            "stats": [[op, name, *vals] for (op, name), vals in self.stats.items()],
            "counts": [[op, name, val] for (op, name), val in self.counts.items()],
            "spans": [list(s) for s in self.spans],
        }

    def absorb(self, exported: dict, op) -> None:
        """Merge another process's export, re-labelled as the given op."""
        for _, name, *vals in exported["stats"]:
            record = self.stats[(op, name)]
            for i, v in enumerate(vals):
                record[i] += v
        for _, name, val in exported["counts"]:
            self.counts[(op, name)] += val
        for name, start, end, parent, _ in exported["spans"]:
            self.spans.append((name, start, end, parent, op))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)


def layer_metrics(tracer: Tracer, ops: list) -> dict[str, float]:
    """Per-op layer figures over the given (timed) ops."""
    wanted = set(ops)
    n = len(ops)
    calls: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    outer: dict[str, float] = defaultdict(float)
    for (op, name), (c, inclusive, child, outermost) in tracer.stats.items():
        if op in wanted:
            calls[name] += c
            incl[name] += inclusive
            self_s[name] += inclusive - child
            outer[name] += outermost
    counts: dict[str, float] = defaultdict(float)
    for (op, name), val in tracer.counts.items():
        if op in wanted:
            counts[name] += val

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["exactpoly.laguerre.calls"] = calls["exactpoly.laguerre"] / n
    m["exactpoly.laguerre.misses"] = counts["exactpoly.laguerre.misses"] / n
    m["exactpoly.laguerre.self_s"] = self_s["exactpoly.laguerre"] / n
    m["exactpoly.residual.calls"] = calls["exactpoly.residual"] / n
    m["exactpoly.residual.self_s"] = self_s["exactpoly.residual"] / n
    m["exactpoly.eval.calls"] = calls["exactpoly.eval"] / n
    m["exactpoly.eval.horner_steps"] = counts["exactpoly.eval.horner_steps"] / n
    m["exactpoly.eval.self_s"] = self_s["exactpoly.eval"] / n
    m["exactpoly.eval.us_per_call"] = 1e6 * ratio(self_s["exactpoly.eval"], calls["exactpoly.eval"])
    for name in ("basis.carrier", "basis.evaluate", "basis.evaluate_derivative", "basis.derived_core"):
        m[f"{name}.calls"] = calls[name] / n
    for name in ("basis.carrier", "basis.derived_core"):
        m[f"{name}.repeat_ratio"] = ratio(counts[name + ".repeats"], calls[name])
    for name in ("basis.evaluate", "basis.evaluate_derivative", "basis.derived_core"):
        m[f"{name}.self_s"] = self_s[name] / n
    m["radicals.sqrtsum_mul.calls"] = calls["radicals.sqrtsum_mul"] / n
    m["radicals.squarefree_split.calls"] = calls["radicals.squarefree_split"] / n
    m["radicals.float_sqrt.calls"] = calls["radicals.float_sqrt"] / n
    m["radicals.self_s"] = sum(v for k, v in self_s.items() if k.startswith("radicals.")) / n
    m["opalgebra.apply_exact.calls"] = calls["opalgebra.apply_exact"] / n
    m["opalgebra.commutator.calls"] = calls["opalgebra.commutator"] / n
    m["opalgebra.commutator.self_s"] = self_s["opalgebra.commutator"] / n
    m["opalgebra.commutator.us_per_state"] = 1e6 * ratio(
        outer["opalgebra.commutator"], counts["opalgebra.commutator.states"]
    )
    m["opalgebra.apply_label.calls"] = calls["opalgebra.apply_label"] / n
    for name in ("opalgebra.apply_diff", "opalgebra.casimir"):
        m[f"{name}.calls"] = calls[name] / n
        m[f"{name}.self_s"] = self_s[name] / n
    m["opalgebra.structure_constants.s"] = outer["opalgebra.structure_constants"] / n
    m["opalgebra.killing_casimir.s"] = outer["opalgebra.killing_casimir"] / n
    m["quadrature.gauss_laguerre.calls"] = calls["quadrature.gauss_laguerre"] / n
    m["quadrature.gauss_laguerre.nodes"] = counts["quadrature.gauss_laguerre.nodes"] / n
    m["quadrature.gauss_laguerre.repeat_ratio"] = ratio(
        counts["quadrature.gauss_laguerre.repeats"], calls["quadrature.gauss_laguerre"]
    )
    m["quadrature.gauss_laguerre.self_s"] = self_s["quadrature.gauss_laguerre"] / n
    m["quadrature.gram_matrix.s"] = outer["quadrature.gram_matrix"] / n
    m["quadrature.inner_product.calls"] = calls["quadrature.inner_product"] / n
    m["quadrature.projection.s"] = outer["quadrature.projection"] / n
    for name in ("plane.grid_build", "plane.reconstruct", "plane.decompose", "plane.mode_ops"):
        m[f"{name}.calls"] = calls[name] / n
        m[f"{name}.self_s"] = self_s[name] / n
    m["plane.samples"] = counts["plane.samples"] / n
    m["plane.gram_2d.s"] = outer["plane.gram_2d"] / n
    for suite in ("exact", "algebra", "label_diff_consistency", "quadrature", "plane", "so32"):
        m[f"verify.{suite}.s"] = outer[f"verify.{suite}"] / n
    m["cli.main.calls"] = calls["cli.main"] / n
    m["cli.self_s"] = self_s["cli.main"] / n
    m["cli.rows_in"] = counts["cli.rows_in"] / n
    m["cli.bytes_out"] = counts["cli.bytes_out"] / n
    return m
