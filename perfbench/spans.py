"""Spans around calls into the engine's public functions, and the per-layer
metrics read from them.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
wrapper in every ``artifact`` module that holds a reference to it, so the
engine's own calls between layers are recorded too; nothing under ``src/``
changes.  A span keeps its name, start, end, parent span, the benchmark
operation it belongs to and a few attributes read from the call's
arguments or result.  Spans stay in memory until ``dump``.

A layer's self time is its span's duration minus the spans of other layers
directly below it; nested calls of the same function count as the layer's
own time.  ``mpmath.quad`` spans are probes: they count quadrature calls and
are not subtracted.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

_GAP = 1e-4  # eval_function's switch to its limit along a ray
_PROBES = {"mpmath.quad"}


def _eval_attrs(tracer, f, s, t=1.0):
    first = id(f) not in tracer.seen_functions
    tracer.seen_functions[id(f)] = f  # keeps f alive, so its id is never reused
    gap = min(abs(s - 1.0), abs(t - 1.0), abs(s * t - 1.0))
    return {"first": first, "limit": bool(gap < _GAP)}


def _derive_attrs(tracer, m, operator):
    case = f"{operator}-{m}"
    cold = case not in tracer.seen_cases
    tracer.seen_cases.add(case)
    return {"case": case, "cold": cold}


def _gb_attrs(tracer, h, theta, series_order=8, support_cap=40):
    axes = {axis for idx in h.coeffs for axis, r in enumerate(idx) if r}
    first = series_order not in tracer.seen_gb_orders
    tracer.seen_gb_orders.add(series_order)
    return {"cross": len(axes) > 1, "order": series_order, "first": first}


# (module, attribute, span name, attributes from the call, attributes from the result)
LAYERS = (
    ("artifact.symbol_engine", "resolvent_b", "resolvent_b",
     lambda tr, kappa, symbols: {"kappa": kappa}, lambda r: {"terms": len(r.terms)}),
    ("artifact.cosphere_integrator", "sphere_average", "sphere_average",
     None, lambda r: {"terms": len(r.terms)}),
    ("artifact.modular_function_engine", "extract_signature", "extract_signature", None, None),
    ("artifact.modular_function_engine", "integrate_dim2", "integrate_dim2", None, None),
    ("artifact.modular_function_engine", "integrate_dim_m", "integrate_dim_m", None, None),
    ("artifact.modular_function_engine", "derive_curvature", "derive_curvature",
     _derive_attrs, None),
    ("artifact.modular_function_engine", "CurvatureReport.to_json", "render", None, None),
    ("artifact.modular_function_engine", "CurvatureReport.to_text", "render", None, None),
    ("artifact.modular_function_engine", "eval_function", "eval_function", _eval_attrs, None),
    ("artifact.numeric_oracle", "quad_r_integral", "quad_r_integral", None, None),
    ("artifact.numeric_oracle", "matrix_rearrangement_check", "matrix_check", None, None),
    ("artifact.numeric_oracle", "gauss_bonnet_residual", "gauss_bonnet", _gb_attrs, None),
    ("artifact.theta_algebra", "exp_element", "exp_element", None, None),
    ("artifact.theta_algebra", "deformed_product", "deformed_product",
     None, lambda r: {"support": len(r.coeffs)}),
    ("mpmath", "quad", "mpmath.quad", None, None),
)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: List[dict] = []
        self.op: Optional[int] = None
        self.workload: Optional[str] = None
        self.seen_functions: Dict[int, object] = {}
        self.seen_cases: set = set()
        self.seen_gb_orders: set = set()
        self._stack: List[int] = []
        self._modules: List[str] = []
        self._patches: list = []

    def _open(self, name: str, attrs: dict) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "workload": self.workload, "attrs": attrs,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, attrs: Optional[dict] = None, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        rec = self._open(name, dict(attrs or {}))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(tracer, *args, **kwargs) if before else {}
            rec = tracer._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after:
                attrs.update(after(result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function of LAYERS wherever an artifact module holds it."""
        for module_name in {layer[0] for layer in LAYERS}:
            importlib.import_module(module_name)
        modules = sorted(key for key in sys.modules if key.startswith("artifact"))
        if modules != self._modules:
            self._modules = modules
            self._patches = list(self._find_patches())
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._patches:
            setattr(holder, key, original)

    def _find_patches(self):
        for module_name, attr, name, before, after in LAYERS:
            module = sys.modules[module_name]
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name)
            wrapper = self._wrap(name, original, before, after)
            holders = [owner] + [sys.modules[key] for key in self._modules
                                 if sys.modules[key] is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        yield holder, key, original, wrapper

    def merge(self, spans: List[dict]) -> None:
        """Append spans recorded by a child process under the current op."""
        offset = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=rec["id"] + offset, op=self.op, workload=self.workload)
            if rec["parent"] is not None:
                rec["parent"] += offset
            self.spans.append(rec)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load(path) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# --------------------------------------------------------------------------
# per-layer metrics


class SpanTree:
    def __init__(self, spans: List[dict]):
        self.spans = spans
        self.by_id = {rec["id"]: rec for rec in spans}
        self.children: Dict[int, List[dict]] = {}
        for rec in spans:
            if rec["parent"] is not None:
                self.children.setdefault(rec["parent"], []).append(rec)

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def outermost(self, name: str, **attrs) -> List[dict]:
        """Spans of this name with no ancestor of the same name."""
        out = []
        for rec in self.spans:
            if rec["name"] != name or any(rec["attrs"].get(k) != v for k, v in attrs.items()):
                continue
            parent = rec["parent"]
            while parent is not None and self.by_id[parent]["name"] != name:
                parent = self.by_id[parent]["parent"]
            if parent is None:
                out.append(rec)
        return out

    def self_time(self, rec: dict) -> float:
        total = self.duration(rec)
        todo = list(self.children.get(rec["id"], ()))
        while todo:
            child = todo.pop()
            if child["name"] == rec["name"]:
                todo.extend(self.children.get(child["id"], ()))
            elif child["name"] not in _PROBES:
                total -= self.duration(child)
        return total

    def descendants(self, rec: dict, name: str) -> List[dict]:
        out, todo = [], list(self.children.get(rec["id"], ()))
        while todo:
            child = todo.pop()
            if child["name"] == name:
                out.append(child)
            todo.extend(self.children.get(child["id"], ()))
        return out


def _median(values, scale=1.0) -> Optional[float]:
    values = list(values)
    return statistics.median(values) * scale if values else None


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Every per-layer metric the spans can give; absent when no span fed it.

    Times are self times, except the whole-call times of a CLI command, a
    derivation, a matrix check and a Gauss-Bonnet call, which stay
    comparable when an implementation moves work between layers."""
    tree = SpanTree(spans)
    dur, self_t = tree.duration, tree.self_time
    out: Dict[str, Optional[float]] = {}

    out["cli.import_s"] = _median(dur(r) for r in tree.outermost("cli.import"))
    for command in ("derive", "eval", "table", "gauss-bonnet"):
        key = f"cli.{command.replace('-', '_')}_s"
        out[key] = _median(dur(r) for r in tree.outermost("cli.main", command=command))

    # the derivation layers are read on dim-2 kdelta, the case every workload
    # derives, so that a median never mixes cases of different cost
    derives = [r for r in tree.outermost("derive_curvature") if r["attrs"]["case"] == "kdelta-2"]
    cold = [r for r in derives if r["attrs"]["cold"]]

    def below(name):
        return [tree.descendants(r, name) for r in cold]

    b2 = [[s for s in group if s["attrs"]["kappa"] == 2] for group in below("resolvent_b")]
    out["symbol_engine.resolvent_b_ms"] = _median(
        (sum(self_t(s) for s in group) for group in below("resolvent_b")), 1e3)
    out["symbol_engine.b2_terms"] = _median(s["attrs"]["terms"] for group in b2 for s in group)
    averages = below("sphere_average")
    out["cosphere_integrator.sphere_average_ms"] = _median(
        (sum(self_t(s) for s in group) for group in averages), 1e3)
    out["cosphere_integrator.terms_out"] = _median(
        s["attrs"]["terms"] for group in averages for s in group)
    out["modular_function_engine.integrate_ms"] = _median(
        (sum(self_t(s) for name in ("extract_signature", "integrate_dim2", "integrate_dim_m")
             for s in tree.descendants(r, name)) for r in cold), 1e3)
    out["modular_function_engine.derive_cold_ms"] = _median((dur(r) for r in cold), 1e3)
    out["modular_function_engine.derive_warm_ms"] = _median(
        (dur(r) for r in derives if not r["attrs"]["cold"]), 1e3)
    out["modular_function_engine.render_ms"] = _median(
        (self_t(r) for r in tree.outermost("render")), 1e3)
    evals = tree.outermost("eval_function")
    out["modular_function_engine.eval_regular_us"] = _median(
        (self_t(r) for r in evals if not r["attrs"]["first"] and not r["attrs"]["limit"]), 1e6)
    out["modular_function_engine.eval_limit_us"] = _median(
        (self_t(r) for r in evals if not r["attrs"]["first"] and r["attrs"]["limit"]), 1e6)
    out["modular_function_engine.eval_first_ms"] = _median(
        (self_t(r) for r in evals if r["attrs"]["first"]), 1e3)

    out["numeric_oracle.quad_ms"] = _median(
        (self_t(r) for r in tree.outermost("quad_r_integral")), 1e3)
    checks = tree.outermost("matrix_check")
    out["numeric_oracle.matrix_check_s"] = _median(dur(r) for r in checks)
    out["numeric_oracle.matrix_quad_calls"] = _median(
        len(tree.descendants(r, "mpmath.quad")) for r in checks)
    gbs = tree.outermost("gauss_bonnet")
    warm_line = [r for r in gbs if not r["attrs"]["first"] and not r["attrs"]["cross"]
                 and r["attrs"]["order"] == 8]
    out["numeric_oracle.gb_line_ms"] = _median((dur(r) for r in warm_line), 1e3)
    out["numeric_oracle.gb_cross_s"] = _median(
        dur(r) for r in gbs if r["attrs"]["cross"] and not r["attrs"]["first"])
    first_line = [r for r in gbs if r["attrs"]["first"] and not r["attrs"]["cross"]
                  and r["attrs"]["order"] == 8]
    if first_line and warm_line:
        warm = statistics.median(dur(r) for r in warm_line)
        out["numeric_oracle.gb_first_call_s"] = _median(dur(r) - warm for r in first_line)

    out["theta_algebra.exp_element_ms"] = _median(
        (self_t(r) for r in tree.outermost("exp_element")), 1e3)
    products = tree.outermost("deformed_product")
    out["theta_algebra.deformed_product_us"] = _median((self_t(r) for r in products), 1e6)
    if products:
        out["theta_algebra.support_modes"] = max(r["attrs"]["support"] for r in products)
    return {k: v for k, v in out.items() if v is not None}
