"""Per-layer tracing from outside the library.

The tracer wraps public functions and operators of each berkline module and
records one span per call: name, start, end, parent span and op id.  Spans
stay in memory (flat integer arrays) until the run ends; ``layer_metrics``
then derives call counts, self times and the few ratios the benchmark
reports.  Self time is a span's duration minus the durations of its child
spans, so the self times of one op add up to the duration of its root span.

A wrapped module-level function is rebound in every berkline namespace that
holds it (``fsderiv.eval_seminorm`` as well as ``points.eval_seminorm`` and
``berkline.eval_seminorm``); otherwise internal calls would escape the trace.
Methods and operators are replaced on their class.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from fractions import Fraction

ONE_TERMS = ((Fraction(0), Fraction(1)),)
BACKENDS = {1: "padic", 2: "puiseux-q"}

# (layer, name, owner, attribute): owner is "module" for a module-level
# function of the layer's module, otherwise the class name in that module.
TARGETS = [
    ("field", "puiseux_mul", "PuiseuxScalar", "__mul__"),
    ("field", "puiseux_add", "PuiseuxScalar", "__add__"),
    ("field", "puiseux_inv", "PuiseuxScalar", "inv"),
    ("field", "puiseux_eq", "PuiseuxScalar", "__eq__"),
    ("field", "puiseux_hash", "PuiseuxScalar", "__hash__"),
    ("field", "padic_mul", "PadicScalar", "__mul__"),
    ("field", "padic_add", "PadicScalar", "__add__"),
    ("field", "scalar_abs", "PadicScalar", "abs"),
    ("field", "scalar_abs", "PuiseuxScalar", "abs"),
    ("points", "taylor_shift", "module", "taylor_shift"),
    ("points", "eval_seminorm", "module", "eval_seminorm"),
    ("points", "poly_mul", "Poly", "__mul__"),
    ("points", "poly_add", "Poly", "__add__"),
    ("points", "poly_derivative", "Poly", "derivative"),
    ("points", "poly_gcd", "module", "poly_gcd"),
    ("points", "coprime_certificate", "module", "coprime_certificate"),
    ("points", "point_eq", "DiskPoint", "__eq__"),
    ("points", "point_eq", "ProjPoint", "__eq__"),
    ("points", "point_hash", "DiskPoint", "__hash__"),
    ("points", "point_hash", "ProjPoint", "__hash__"),
    ("points", "to_affine", "ProjPoint", "to_affine"),
    ("fsderiv", "series_map", "module", "series_map"),
    ("fsderiv", "fs_derivative", "module", "fs_derivative"),
    ("fsderiv", "fs_derivative_proj", "module", "fs_derivative_proj"),
    ("fsderiv", "apply_map", "module", "apply_map"),
    ("fsderiv", "compose", "module", "compose"),
    ("fsderiv", "pgl_apply", "module", "pgl_apply"),
    ("fsderiv", "pgl_point", "module", "pgl_point"),
    ("fsderiv", "wronskian_minors", "module", "wronskian_minors"),
    ("tropic", "from_series", "module", "from_series"),
    ("tropic", "segments", "TropicalPolygon", "segments"),
    ("tropic", "theta", "TropicalPolygon", "theta"),
    ("tropic", "count_zeros_annulus", "module", "count_zeros_annulus"),
    ("tropic", "monomial_pieces", "module", "monomial_pieces"),
    ("curves", "dck_tree", "module", "dck_tree"),
    ("curves", "d_tree", "module", "d_tree"),
    ("curves", "classify", "module", "classify"),
    ("curves", "total_genus", "module", "total_genus"),
    ("zalcman", "gromov_select", "module", "gromov_select"),
    ("zalcman", "gromov_conditions", "module", "gromov_conditions"),
    ("documents", "load_document", "module", "load_document"),
    ("cli", "build_parser", "module", "build_parser"),
    ("cli", "main", "module", "main"),
]

# Spans of these calls also record the backend, for a median per backend.
BACKEND_OF = {
    "points.eval_seminorm": lambda args: args[0].spec,
    "fsderiv.series_map": lambda args: args[0][0].spec,
    "fsderiv.fs_derivative": lambda args: args[0].spec,
    "fsderiv.fs_derivative_proj": lambda args: args[0].spec,
    "fsderiv.apply_map": lambda args: args[0].spec,
    "fsderiv.compose": lambda args: args[0].spec,
    "fsderiv.pgl_apply": lambda args: args[1].spec,
    "fsderiv.pgl_point": lambda args: getattr(args[1], "spec", None) or args[1].point.spec,
    "fsderiv.wronskian_minors": lambda args: args[0].spec,
}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    seen = set()
    for layer, name, _, _ in TARGETS:
        full = f"{layer}.{name}"
        if full in seen:
            continue
        seen.add(full)
        out.append((f"{full}.calls", "count"))
        out.append((f"{full}.self_ms", "ms"))
    out.append(("field.frac_share", "ratio"))
    out.append(("points.coprime_certificate.hit_ratio", "ratio"))
    out.append(("points.taylor_shift.repeat_ratio", "ratio"))
    for full in BACKEND_OF:
        for backend in BACKENDS.values():
            out.append((f"{full}.{backend}.call_p50_us", "us"))
    out.append(("trace_overhead", "ratio"))
    return out


def _scalar_key(c):
    # structural identity of a scalar, read without calling wrapped code
    num = getattr(c, "num", None)
    return (num, c.den) if num is not None else c.value


class Tracer:
    """Spans of wrapped calls, grouped by op."""

    def __init__(self) -> None:
        self.names: list[str] = ["op"]
        self.name_ids: dict[str, int] = {"op": 0}
        self.span_name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.backend = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.frac = [0, 0]  # puiseux add/mul calls with a fraction operand, all calls
        self.cert_hits = 0
        self.shift_repeats = 0
        self.shift_seen: set = set()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name_id: int, backend: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.backend.append(backend)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def run_op(self, op_id: int, fn, arg):
        """Run ``fn(arg)`` as op ``op_id`` under a root span."""
        self.op_id = op_id
        self.shift_seen = set()
        idx = self._open(0, 0)
        t0 = time.perf_counter_ns()
        try:
            return fn(arg)
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self.op_id = -1

    def _wrap(self, full: str, fn):
        name_id = self.name_ids.setdefault(full, len(self.names))
        if name_id == len(self.names):
            self.names.append(full)
        backend_of = BACKEND_OF.get(full)
        before = {
            "field.puiseux_mul": self._count_frac,
            "field.puiseux_add": self._count_frac,
            "points.taylor_shift": self._count_shift,
        }.get(full)
        after = self._count_cert if full == "points.coprime_certificate" else None
        clock = time.perf_counter_ns
        stack = self.stack
        start, end = self.start, self.end
        open_span = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            backend = 0
            if backend_of is not None:
                backend = 1 if backend_of(args).backend == "padic" else 2
            idx = open_span(name_id, backend)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_frac(self, args) -> None:
        a, b = args[0], args[1]
        self.frac[1] += 1
        if a.den != ONE_TERMS or getattr(b, "den", ONE_TERMS) != ONE_TERMS:
            self.frac[0] += 1

    def _count_shift(self, args) -> None:
        p, a = args[0], args[1]
        key = (tuple((n, _scalar_key(c)) for n, c in p.terms), _scalar_key(a))
        if key in self.shift_seen:
            self.shift_repeats += 1
        else:
            self.shift_seen.add(key)

    def _count_cert(self, result) -> None:
        if result is True:
            self.cert_hits += 1

    # -- installation ---------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every target of the (freshly imported) berkline package."""
        namespaces = [m for n, m in sys.modules.items() if n == "berkline" or n.startswith("berkline.")]
        for layer, name, owner, attr in TARGETS:
            module = getattr(lib, layer)
            full = f"{layer}.{name}"
            if owner == "module":
                original = getattr(module, attr)
                wrapper = self._wrap(full, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._installed.append((ns, key, value))
                            setattr(ns, key, wrapper)
            else:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._installed.append((cls, attr, original))
                setattr(cls, attr, self._wrap(full, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- derived metrics ------------------------------------------------------

    def self_times(self) -> list[int]:
        n = len(self.span_name)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def bookkeeping_errors(self, self_ns: list[int]) -> list[str]:
        """Check that every span nests in its parent inside one op and that
        the self times of each op sum to the duration of its root span."""
        errors = []
        root_dur: dict[int, int] = {}
        self_sum: dict[int, int] = {}
        start, end, parent, op = self.start, self.end, self.parent, self.op
        for i in range(len(self.span_name)):
            p = parent[i]
            if op[i] < 0:
                errors.append(f"span {i} ({self.names[self.span_name[i]]}) outside any op")
                continue
            if p < 0:
                root_dur[op[i]] = end[i] - start[i]
            elif op[p] != op[i] or start[i] < start[p] or end[i] > end[p]:
                errors.append(f"span {i} does not nest in its parent {p}")
            self_sum[op[i]] = self_sum.get(op[i], 0) + self_ns[i]
        for k, total in self_sum.items():
            if total != root_dur.get(k):
                errors.append(f"op {k}: self times sum to {total} ns, root span {root_dur.get(k)} ns")
        return errors[:5]

    def root_total_ns(self) -> int:
        return sum(self.end[i] - self.start[i] for i in range(len(self.span_name)) if self.parent[i] < 0)

    def layer_metrics(self, self_ns: list[int], untraced_ns: int) -> dict[str, tuple[float, str]]:
        calls = [0] * len(self.names)
        self_total = [0] * len(self.names)
        per_backend: dict[tuple[int, int], list[int]] = {}
        for i in range(len(self.span_name)):
            k = self.span_name[i]
            calls[k] += 1
            self_total[k] += self_ns[i]
            b = self.backend[i]
            if b:
                per_backend.setdefault((k, b), []).append(self.end[i] - self.start[i])
        out: dict[str, tuple[float, str]] = {}
        for name, unit in layer_metric_names():
            out[name] = (0.0, unit)
        for k, full in enumerate(self.names):
            if k == 0:
                continue
            out[f"{full}.calls"] = (calls[k], "count")
            out[f"{full}.self_ms"] = (self_total[k] / 1e6, "ms")
        for (k, b), durations in per_backend.items():
            out[f"{self.names[k]}.{BACKENDS[b]}.call_p50_us"] = (statistics.median(durations) / 1e3, "us")
        mixed, total = self.frac
        out["field.frac_share"] = (mixed / total if total else 0.0, "ratio")
        cert_calls = calls[self.name_ids["points.coprime_certificate"]]
        out["points.coprime_certificate.hit_ratio"] = (self.cert_hits / cert_calls if cert_calls else 0.0, "ratio")
        shift_calls = calls[self.name_ids["points.taylor_shift"]]
        out["points.taylor_shift.repeat_ratio"] = (
            self.shift_repeats / shift_calls if shift_calls else 0.0,
            "ratio",
        )
        out["trace_overhead"] = (self.root_total_ns() / untraced_ns if untraced_ns else 0.0, "ratio")
        return out
