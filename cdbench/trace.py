"""Layer tracing from outside the program: timing wrappers on module bindings.

A wrapper replaces every binding of a function in every loaded cliffdunkl
module (`cdt_engine` does `from .dunkl_rank1 import eval_kernel_ab`, so
patching `dunkl_rank1` alone would miss the engine's calls), or the attribute
of a class for methods.  Each call records a span (name, start, end, parent
span, operation id) in memory; the spans are written out when the run ends.
A layer's self time is its span's duration minus the durations of its child
spans; calls are single-threaded, so children never overlap.

A private stage that a refactor removed (`_partial_transform`, `_assemble`)
is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PKG = "cliffdunkl"


def contract_counts(values_shape, out_shape, split: int):
    """Reference flops and bytes of one `_partial_transform` call, from shapes.

    Model: the complex sum-factorised contraction as the engine states it,
    one complex GEMM per axis (8 flops per complex multiply-add), q-block
    axes once and p-block axes once per real/imaginary part (r = 0, 1).
    Bytes count each step's complex input, output and kernel matrix once
    (16 bytes per value), ignoring cache reuse.  The count is a fixed
    reference: a faster algorithm keeps the same count, so the derived
    GFLOP/s reads as an effective rate.
    """
    flops = 0
    nbytes = 0

    def contract(shape, j):
        nonlocal flops, nbytes
        n, m = shape[j], out_shape[j]
        size = int(np.prod(shape))
        rest = size // n
        flops += 8 * rest * n * m
        nbytes += 16 * (size + rest * m + n * m)
        shape[j] = m

    d = len(out_shape)
    shape = list(values_shape)
    for j in range(split, d):
        contract(shape, j)
    for _ in range(2):
        part = list(shape)
        for j in range(split):
            contract(part, j)
    return flops, nbytes


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = -1  # -1: set-up, not inside a counted operation
        self.op_kinds = {}
        self.counting = False  # counters only accumulate in the timed phase
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.paused = False
        self.absent = []
        self._restore = []
        self.jacobi_cache = None
        self._jacobi_start = None

    # -- wrappers ---------------------------------------------------------

    def _wrap_span(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(rec)
            if tracer.counting:
                tracer.calls[name] += 1
                if before is not None:
                    before(tracer, args, kwargs)
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                rec[1] = start - tracer.t0
                rec[2] = end - tracer.t0
                if tracer.counting and after is not None:
                    after(tracer, args, kwargs)

        return wrapper

    def _wrap_counter(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.counting and not tracer.paused:
                count(tracer, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module_name, attr, make):
        """Wrap `module.attr` (or `module.Class.method`) at every binding."""
        mod = sys.modules.get(f"{PKG}.{module_name}")
        owner = mod
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, parts[-1], None) if owner is not None else None
        if fn is None:
            self.absent.append(f"{module_name}.{attr}")
            return False
        wrapper = make(fn)
        if len(parts) > 1:  # a method: the class attribute is the one binding
            self._restore.append((owner, parts[-1], fn))
            setattr(owner, parts[-1], wrapper)
            return True
        for name, m in list(sys.modules.items()):
            if m is None or not (name == PKG or name.startswith(PKG + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._restore.append((m, key, fn))
                    setattr(m, key, wrapper)
        return True

    def install(self):
        def span(name, **hooks):
            return lambda fn: self._wrap_span(name, fn, **hooks)

        def counter(count):
            return lambda fn: self._wrap_counter(fn, count)

        targets = [
            # entry points: structure for the trace file and for self times
            ("cdt_engine", "forward", span("cdt_engine.forward")),
            ("cdt_engine", "inverse", span("cdt_engine.inverse")),
            ("cdt_engine", "translate_spectral", span("cdt_engine.translate_spectral")),
            ("cdt_engine", "translate_explicit", span("cdt_engine.translate_explicit")),
            ("cdt_engine", "convolve", span("cdt_engine.convolve")),
            # stages
            ("cdt_engine", "_partial_transform",
             span("cdt_engine.contract", before=_count_contract)),
            ("cdt_engine", "_assemble", span("cdt_engine.assemble")),
            ("cdt_engine", "AnalyticField.sample", span("cdt_engine.sample")),
            ("cdt_engine", "SampledField.__post_init__", span("cdt_engine.freeze")),
            ("cdt_engine", "build_plan", span("cdt_engine.build_plan")),
            ("cdt_engine", "run_claims_ledger", span("cdt_engine.ledger")),
            ("dunkl_rank1", "eval_kernel_ab", span("dunkl_rank1.kernel_eval")),
            ("dunkl_rank1", "kernel_ab_series", counter(_count_points("kernel_points_series"))),
            ("dunkl_rank1", "kernel_ab_integral", counter(_count_points("kernel_points_integral"))),
            ("dunkl_rank1", "mehta_constant", span("dunkl_rank1.mehta_constant")),
            ("dunkl_rank1", "psi_rule", span("dunkl_rank1.psi_rule")),
            ("dunkl_rank1", "hermite_basis", span("dunkl_rank1.hermite_basis")),
            ("field_expr", "eval_expr", span("field_expr.eval")),
            ("field_expr", "parse_expr", span("field_expr.parse")),
            ("field_io", "load_field", span("field_io.load", before=_count_file("bytes_read"))),
            ("field_io", "save_field", span("field_io.save", after=_count_file("bytes_written"))),
            ("quadrature", "build_grid", span("quadrature.build_grid")),
            ("quadrature", "gauss_from_recurrence", span("quadrature.gauss_rule")),
            ("clifford_core", "MultiVector.__mul__", span("clifford_core.product")),
            ("miyachi", "check_growth", span("miyachi.check_growth")),
            ("miyachi", "check_log", span("miyachi.check_log")),
            ("miyachi", "verdict", span("miyachi.verdict")),
            ("cli", "main", span("cli.main")),
        ]
        jacobi = getattr(sys.modules.get(f"{PKG}.quadrature"), "jacobi_rule", None)
        if hasattr(jacobi, "cache_info"):
            self.jacobi_cache = jacobi
        else:
            self.absent.append("quadrature.jacobi_rule cache")
        for module_name, attr, make in targets:
            self._replace(module_name, attr, make)

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- phases and operations -------------------------------------------

    def start_timed(self):
        self.counting = True
        if self.jacobi_cache is not None:
            self._jacobi_start = self.jacobi_cache.cache_info()

    def stop_timed(self):
        self.counting = False
        if self.jacobi_cache is not None:
            end = self.jacobi_cache.cache_info()
            self.counters["jacobi_hits"] = end.hits - self._jacobi_start.hits
            self.counters["jacobi_misses"] = end.misses - self._jacobi_start.misses

    def run_op(self, op_id, kind, fn):
        """Run fn() as operation `op_id`, inside a root span named op.<kind>."""
        if op_id >= 0:
            self.op_kinds[op_id] = kind
        prev, self.op = self.op, op_id
        try:
            return self._wrap_span(f"op.{kind}", fn)()
        finally:
            self.op = prev

    # -- results ----------------------------------------------------------

    def self_times(self):
        """{span name: (calls, total self seconds)} over every recorded span,
        and the timed-phase self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(lambda: [0, 0.0])
        timed = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = (end - start) - child[i]
            total[name][0] += 1
            total[name][1] += own
            if op >= 0:
                timed[name] += own
        return total, timed

    def calls_per_kind(self, span_name):
        """Mean calls of `span_name` per timed operation, by operation kind."""
        per_op = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if name == span_name and op >= 0:
                per_op[op] += 1
        by_kind = defaultdict(list)
        for op, kind in self.op_kinds.items():
            by_kind[kind].append(per_op[op])
        return {k: sum(v) / len(v) for k, v in sorted(by_kind.items())}

    def layer_metrics(self, n_ops: int, roof: dict) -> dict:
        total, timed = self.self_times()

        def per_call_ms(span):
            calls, secs = total.get(span, (0, 0.0))
            return 1e3 * secs / calls if calls else 0.0

        def per_op(value):
            return value / n_ops

        contract_s = timed.get("cdt_engine.contract", 0.0)
        flops = self.counters["contract_flops"]
        hits, misses = self.counters["jacobi_hits"], self.counters["jacobi_misses"]
        m = {
            "cdt_engine.contract_ms": (per_call_ms("cdt_engine.contract"), "ms/call"),
            "cdt_engine.contract_flops": (per_op(flops), "flop/op"),
            "cdt_engine.contract_bytes": (per_op(self.counters["contract_bytes"]), "B/op"),
            "cdt_engine.contract_gflops": (flops / contract_s / 1e9 if contract_s else 0.0, "GFLOP/s"),
            "cdt_engine.assemble_ms": (per_call_ms("cdt_engine.assemble"), "ms/call"),
            "cdt_engine.sample_ms": (per_call_ms("cdt_engine.sample"), "ms/call"),
            "cdt_engine.freeze_ms": (per_call_ms("cdt_engine.freeze"), "ms/call"),
            "cdt_engine.build_plan_ms": (per_call_ms("cdt_engine.build_plan"), "ms/call"),
            "cdt_engine.ledger_ms": (per_call_ms("cdt_engine.ledger"), "ms/call"),
            "dunkl_rank1.kernel_eval_ms": (per_call_ms("dunkl_rank1.kernel_eval"), "ms/call"),
            "dunkl_rank1.kernel_points_series": (per_op(self.counters["kernel_points_series"]), "1/op"),
            "dunkl_rank1.kernel_points_integral": (per_op(self.counters["kernel_points_integral"]), "1/op"),
            "dunkl_rank1.mehta_constant_calls": (per_op(self.calls["dunkl_rank1.mehta_constant"]), "1/op"),
            "dunkl_rank1.mehta_constant_ms": (per_call_ms("dunkl_rank1.mehta_constant"), "ms/call"),
            "dunkl_rank1.psi_rule_ms": (per_call_ms("dunkl_rank1.psi_rule"), "ms/call"),
            "dunkl_rank1.hermite_basis_ms": (per_call_ms("dunkl_rank1.hermite_basis"), "ms/call"),
            "field_expr.eval_calls": (per_op(self.calls["field_expr.eval"]), "1/op"),
            "field_expr.eval_ms": (per_call_ms("field_expr.eval"), "ms/call"),
            "field_expr.parse_ms": (per_call_ms("field_expr.parse"), "ms/call"),
            "field_io.load_ms": (per_call_ms("field_io.load"), "ms/call"),
            "field_io.save_ms": (per_call_ms("field_io.save"), "ms/call"),
            "field_io.bytes_read": (per_op(self.counters["bytes_read"]), "B/op"),
            "field_io.bytes_written": (per_op(self.counters["bytes_written"]), "B/op"),
            "quadrature.build_grid_calls": (per_op(self.calls["quadrature.build_grid"]), "1/op"),
            "quadrature.build_grid_ms": (per_call_ms("quadrature.build_grid"), "ms/call"),
            "quadrature.gauss_rule_ms": (per_call_ms("quadrature.gauss_rule"), "ms/call"),
            "quadrature.jacobi_rule_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "clifford_core.product_ms": (per_call_ms("clifford_core.product"), "ms/call"),
            "miyachi.check_growth_ms": (per_call_ms("miyachi.check_growth"), "ms/call"),
            "miyachi.check_log_ms": (per_call_ms("miyachi.check_log"), "ms/call"),
            "miyachi.verdict_self_ms": (per_call_ms("miyachi.verdict"), "ms/call"),
            "cli.self_ms": (per_call_ms("cli.main"), "ms/call"),
            "roofline.gemm_gflops": (roof["gemm_gflops"], "GFLOP/s"),
            "roofline.copy_gbps": (roof["copy_gbps"], "GB/s"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "ops": {str(k): v for k, v in self.op_kinds.items()},
            "absent": self.absent,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def _count_contract(tracer, args, kwargs):
    values = args[0] if args else kwargs["values"]
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    inverse = args[2] if len(args) > 2 else kwargs.get("inverse", False)
    out = plan.grid_x.shape if inverse else plan.grid_y.shape
    flops, nbytes = contract_counts(values.shape, out, plan.ms.split)
    tracer.counters["contract_flops"] += flops
    tracer.counters["contract_bytes"] += nbytes


def _count_points(key):
    def count(tracer, args, kwargs):
        t = args[1] if len(args) > 1 else kwargs["t"]
        tracer.counters[key] += np.size(t)

    return count


def _count_file(key):
    def count(tracer, args, kwargs):
        path = args[-1] if args else kwargs["path"]
        tracer.counters[key] += os.path.getsize(path)

    return count


def roofline(gemm_shape, copy_bytes: int, reps: int = 5) -> dict:
    """GEMM rate at the workload's contraction shape and streaming bandwidth.

    GEMM: complex (M x n) @ (n x m), 8 flops per complex multiply-add.
    Bandwidth: an in-place negation of a float64 array of `copy_bytes`
    (each element read and written once, so 2 * copy_bytes move per pass).
    Both report the median of `reps` passes after one untimed pass.
    """
    M, n, m = gemm_shape
    rng = np.random.default_rng(0)
    A = rng.standard_normal((M, n)) + 1j * rng.standard_normal((M, n))
    B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))

    def median_time(fn):
        fn()
        ts = []
        for _ in range(reps):
            t = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t)
        return statistics.median(ts)

    t_gemm = median_time(lambda: A @ B)
    del A, B
    buf = np.ones(copy_bytes // 8)
    t_copy = median_time(lambda: np.negative(buf, out=buf))
    del buf
    return {
        "gemm_gflops": 8.0 * M * n * m / t_gemm / 1e9,
        "copy_gbps": 2.0 * copy_bytes / t_copy / 1e9,
    }
