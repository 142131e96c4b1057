"""Run one cliffdunkl benchmark workload and print its metrics.

    python3 cdbench/run.py --workload d2_mixed --seed 1 --seconds 30 --trace 0

Run from the repository root (any checkout with `src/cliffdunkl`).  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  Lines before it starting with `#` are
a human-readable breakdown.  `--smoke` runs one set-up and one round.
See cdbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time

T_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 5
COPY_BYTES = 448 << 20  # >= 4x the 105 MiB last-level cache of the reference machine


def _import_program():
    """Import cliffdunkl from this checkout's src/ and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "cliffdunkl", "__init__.py")):
        sys.exit(f"cdbench: no src/cliffdunkl under {ROOT}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import cliffdunkl
    import cliffdunkl.cli  # noqa: F401  (loads every module the tracer patches)

    if os.path.dirname(os.path.dirname(os.path.abspath(cliffdunkl.__file__))) != SRC:
        sys.exit(f"cdbench: imported cliffdunkl from {cliffdunkl.__file__}, not {SRC}")
    return cliffdunkl


def _lru_caches():
    """Every functools cache in the program, so each set-up can start cold."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("cliffdunkl"):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


class Recorder:
    """Times operations, counts attempts and failures, collects check results."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counting = False
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.samples = []  # (round index, kind, seconds, ok) of counted operations
        self.round_index = 0
        self.checks = {}  # name -> [n, n_failed, worst]
        self.notes = {}

    def op(self, kind, fn, ok=None):
        """Run one operation; its result, or None if it raised or `ok` rejects it."""
        op_id = self.next_op
        self.next_op += 1
        if self.tracer is None:
            call = fn
        else:  # warm-up operations trace as set-up (op -1)
            call = functools.partial(self.tracer.run_op, op_id if self.counting else -1, kind, fn)
        t = time.perf_counter()
        try:
            result = call()
            good = ok is None or ok(result)
        except Exception as exc:  # a failed operation is data; the run goes on
            result, good = None, False
            print(f"# {kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        dt = time.perf_counter() - t
        if self.counting:
            self.attempted += 1
            self.failed += not good
            self.samples.append((self.round_index, kind, dt, good))
        return result if good else None

    def check(self, name, ok, value):
        entry = self.checks.setdefault(name, [0, 0, None])
        entry[0] += 1
        entry[1] += not ok
        if not ok:
            print(f"# check {name} failed: {value!r}", file=sys.stderr)
        value = float(value)
        entry[2] = value if entry[2] is None else max(entry[2], value)

    def note(self, name, value):
        self.notes[name] = value


def _round_stats(samples):
    """Median over rounds of (total op seconds, mean round-trip seconds).

    A CLI round trip is a `transform` and an `inverse` command, so only the
    `transform` counts a round trip while both add their time.
    """
    rounds = {}
    for r, kind, dt, good in samples:
        tot = rounds.setdefault(r, [0.0, 0.0, 0])
        tot[0] += dt
        if kind.startswith("roundtrip") or kind in ("transform", "inverse"):
            tot[1] += dt
            tot[2] += kind != "inverse"
    totals = [v[0] for v in rounds.values()]
    rts = [v[1] / v[2] for v in rounds.values() if v[2]]
    return statistics.median(totals), statistics.median(rts)


def _breakdown(samples):
    by_kind = {}
    for _, kind, dt, good in samples:
        if good:
            by_kind.setdefault(kind, []).append(dt)
    for kind, ts in sorted(by_kind.items()):
        ts = sorted(ts)
        line = f"# {kind}: n={len(ts)} median={1e3 * statistics.median(ts):.3f} ms"
        if len(ts) >= 100:  # p90 leaves >= 10 samples beyond it
            line += f" p90={1e3 * ts[int(0.9 * len(ts))]:.3f} ms"
        print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("d2_mixed", "d34_roundtrip", "cli_session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one set-up and one round")
    args = ap.parse_args(argv)

    _import_program()
    import_s = time.perf_counter() - T_START
    import numpy as np

    from cdbench import trace as trace_mod
    from cdbench import workloads

    caches = _lru_caches()
    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.make(args.workload, workdir)
    tracer = trace_mod.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rec = Recorder(tracer)
    ss = np.random.SeedSequence(args.seed)
    rng_params, rng_warm, rng_run = (np.random.default_rng(s) for s in ss.spawn(3))
    params = wl.params(rng_params)

    try:
        build_s = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            for cache in caches:
                cache.cache_clear()
            t = time.perf_counter()
            state = wl.setup(params)
            build_s.append(time.perf_counter() - t)
        warm_s = 0.0
        if not args.smoke:
            t = time.perf_counter()
            wl.round(state, rng_warm, rec)
            warm_s = time.perf_counter() - t
        setup_s = import_s + statistics.median(build_s) + warm_s

        rec.counting = True
        if tracer is not None:
            tracer.start_timed()
        t0 = time.perf_counter()
        while True:
            wl.round(state, rng_run, rec)
            rec.round_index += 1
            if args.smoke or time.perf_counter() - t0 >= args.seconds:
                break
        wall_s = time.perf_counter() - t0
        rec.counting = False
        if tracer is not None:
            tracer.stop_timed()
            tracer.paused = True
        wl.finish(state, rec)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    round_s, roundtrip_s = _round_stats(rec.samples)
    correct = bool(rec.checks) and all(n_bad == 0 for _, n_bad, _ in rec.checks.values())

    print(f"# workload {args.workload} seed {args.seed}: {rec.round_index} rounds in "
          f"{wall_s:.2f} s, BLAS threads {BLAS_THREADS}, trace {args.trace}")
    print(f"# setup: import {import_s:.3f} s, set-up median {statistics.median(build_s):.3f} s "
          f"of {len(build_s)}, warm-up round {warm_s:.3f} s")
    _breakdown(rec.samples)
    for name, (n, n_bad, worst) in sorted(rec.checks.items()):
        print(f"# check {name}: {n - n_bad}/{n} pass, worst {worst:.3g}")
    for name, value in rec.notes.items():
        print(f"# note {name}: {value}")

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "round_ms": {"value": 1e3 * round_s, "unit": "ms"},
            "roundtrip_ms": {"value": 1e3 * roundtrip_s, "unit": "ms"},
        }
    else:
        print(f"# traced round_ms {1e3 * round_s:.3f}; absent stages: {tracer.absent or 'none'}")
        trace_path = os.path.join(out_dir, f"trace-{args.workload}.json")
        tracer.write(trace_path)
        print(f"# trace written to {os.path.relpath(trace_path, ROOT)} ({len(tracer.spans)} spans)")
        for span in ("dunkl_rank1.mehta_constant", "field_expr.eval", "quadrature.build_grid"):
            per_kind = tracer.calls_per_kind(span)
            print(f"# {span} calls per operation: "
                  + ", ".join(f"{k} {v:g}" for k, v in per_kind.items() if v))
        roof = trace_mod.roofline(wl.gemm_shape, COPY_BYTES)
        print(f"# roofline: complex GEMM {wl.gemm_shape}, copy array {COPY_BYTES >> 20} MiB")
        metrics = tracer.layer_metrics(rec.attempted, roof)

    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
