"""The three workloads: seeded inputs, timed operations, oracle checks.

Every workload is a closed loop with one caller.  A round is a fixed list of
operations; a run repeats whole rounds, so the share of failed operations is
the same in every run.  `params(rng)` draws what stays fixed for a run (the
multiplicities), `setup(params)` builds what the run reuses, and
`round(state, rng, rec)` draws fresh inputs, runs the operations through
`rec.op(kind, fn)` and checks each result through `rec.check`.  `finish`
runs the checks that need a whole run's results.

The program is reached only through `cliffdunkl.<module>.<name>` looked up
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np

import cliffdunkl
import cliffdunkl.cli
import cliffdunkl.quadrature

from . import oracles


def _units(sig):
    mv = cliffdunkl.MultiVector
    check = cliffdunkl.validate_imaginary
    return check(mv.blade(sig, "e1"), "e1"), check(mv.blade(sig, "e2"), "e2")


def _coords(grid):
    return tuple(np.meshgrid(*(ax.nodes for ax in grid.axes), indexing="ij"))


def _weights(grid):
    w = np.ones(())
    for ax in grid.axes:
        w = np.multiply.outer(w, np.asarray(ax.weights) * np.asarray(ax.wk))
    return w


def _grid_arrays(grid):
    return {"coords": _coords(grid), "w": _weights(grid)}


class PolyGaussian:
    """Per blade, a seeded quadratic polynomial times exp(-s|x|^2).

    Plain numpy; the program sees it only as a vectorized callable (or as
    expression text for the CLI), and the checks evaluate it directly.
    """

    def __init__(self, rng, d: int, blades, s_range):
        self.d = d
        self.s = round(float(rng.uniform(*s_range)), 6)
        self.pairs = [(j, k) for j in range(d) for k in range(j, d)]
        n_terms = 1 + d + len(self.pairs)
        self.coef = {m: np.round(rng.uniform(-1.0, 1.0, n_terms), 6) for m in blades}

    def blade_fn(self, mask):
        c = self.coef[mask]
        d, pairs, s = self.d, self.pairs, self.s

        def fn(*X):
            poly = c[0] + sum(c[1 + j] * X[j] for j in range(d))
            poly = poly + sum(c[1 + d + i] * X[j] * X[k] for i, (j, k) in enumerate(pairs))
            return poly * np.exp(-s * sum(x * x for x in X))

        return fn

    def values(self, coords, n_blades: int, shift=None):
        """Samples at coords (minus `shift`), shape (*grid, n_blades)."""
        X = coords if shift is None else tuple(x - z for x, z in zip(coords, shift))
        out = np.zeros(np.shape(X[0]) + (n_blades,))
        for m in self.coef:
            out[..., m] = self.blade_fn(m)(*X)
        return out

    def field(self, sig, ms):
        return cliffdunkl.AnalyticField(sig, ms, {m: self.blade_fn(m) for m in self.coef})

    def expressions(self, labels):
        """Expression text per blade label for a field file."""
        names = [f"x{j + 1}" for j in range(self.d)]
        gauss = f"exp(-{self.s!r}*({'+'.join(n + '^2' for n in names)}))"
        out = {}
        for m, c in self.coef.items():
            terms = [repr(float(c[0]))]
            terms += [f"{float(c[1 + j])!r}*{names[j]}" for j in range(self.d)]
            terms += [f"{float(c[1 + self.d + i])!r}*{names[j]}*{names[k]}"
                      for i, (j, k) in enumerate(self.pairs)]
            out[labels[m]] = f"({'+'.join(terms)})*{gauss}"
        return out


def _gaussian(sig, ms, a: float):
    return cliffdunkl.AnalyticField(
        sig, ms, {0: lambda *X: np.exp(-a * sum(x * x for x in X))})


# -- d2_mixed ---------------------------------------------------------------

EXPLICIT_STRIDE = 3


class D2Mixed:
    """Cl(0,2), 96^2 nodes (order 48, L = 8), four blades.

    Four plans: seeded kappa > 0 and kappa = 0 (the quaternion Fourier case),
    each in raw and mehta normalization.  A round is one cycle per plan:
    a forward -> inverse round trip of a fresh field, one translate_spectral
    at a seeded z, and one convolve of two seeded scalar Gaussians.
    """

    gemm_shape = (96 * 4, 96, 96)

    def params(self, rng):
        return {"kappa": tuple(np.round(rng.uniform(0.2, 1.5, 2), 6))}

    def setup(self, params):
        sig = cliffdunkl.Signature(0, 2)
        a, b = _units(sig)
        plans = []
        for kappa, tag in ((params["kappa"], "k"), ((0.0, 0.0), "k0")):
            ms = cliffdunkl.MultiplicitySplit(kappa, 1)
            for norm in ("raw", "mehta"):
                plan = cliffdunkl.build_plan(sig, ms, a, b, L_x=8.0, L_y=8.0,
                                             order=48, normalization=norm)
                plans.append({"plan": plan, "ms": ms, "label": f"{tag}_{norm}", "ratios": [],
                              "x": _grid_arrays(plan.grid_x), "y": _grid_arrays(plan.grid_y)})
        return {"sig": sig, "plans": plans, "last_translate": None, "last_convolve": None}

    def round(self, state, rng, rec):
        sig = state["sig"]
        for p in state["plans"]:
            plan, ms, X, Y = p["plan"], p["ms"], p["x"], p["y"]
            classical = ms.kappa == (0.0, 0.0)
            gen = PolyGaussian(rng, 2, range(4), (0.5, 0.85))
            f = gen.field(sig, ms)
            fwd = {}

            def roundtrip():
                fwd["F"] = cliffdunkl.cdt_engine.forward(f, plan)
                return cliffdunkl.cdt_engine.inverse(fwd["F"], plan)

            back = rec.op(f"roundtrip_{p['label']}", roundtrip)
            want = gen.values(X["coords"], 4)
            if back is not None:
                rec.check("roundtrip_d2", *oracles.check_roundtrip(back.values, want, X["w"], 2))
                rec.check("roundtrip_scale_d2", *oracles.check_scale(back.values, want, X["w"], 2))
                p["ratios"].append(oracles.plancherel_ratio(fwd["F"].values, Y["w"], want, X["w"]))

            z = tuple(np.round(rng.uniform(-1.5, 1.5, 2), 6))
            moved = rec.op(f"translate_{p['label']}", lambda: cliffdunkl.cdt_engine.translate_spectral(f, z, plan))
            if moved is not None:
                if classical:
                    rec.check("translate_shift_k0", *oracles.check_shift(
                        moved.values, gen.values(X["coords"], 4, shift=z), X["w"]))
                else:
                    state["last_translate"] = (p, gen, z, moved.values)

            a, b = (float(v) for v in np.round(rng.uniform(0.5, 1.5, 2), 6))
            g1, g2 = _gaussian(sig, ms, a), _gaussian(sig, ms, b)
            conv = rec.op(f"convolve_{p['label']}", lambda: cliffdunkl.cdt_engine.convolve(g1, g2, plan))
            if conv is not None:
                if classical:
                    rec.check("convolve_closed_form_k0", *oracles.check_gaussian_convolution(
                        conv.values, a, b, X["coords"]))
                else:
                    rec.check("convolve_shape", *oracles.check_convolution_shape(
                        conv.values, a, b, X["coords"], X["w"]))
                    state["last_convolve"] = (p, g1, g2, conv.values)

    def finish(self, state, rec):
        for p in state["plans"]:
            if p["ratios"]:
                rec.check("plancherel_constancy_d2", *oracles.check_constancy(p["ratios"], 2))
        if state["last_translate"] is not None:
            # translate_explicit calls the field (2 order)^d times per blade, so
            # it is sampled on every EXPLICIT_STRIDE-th node per axis only
            p, gen, z, spectral = state["last_translate"]
            expl = cliffdunkl.cdt_engine.translate_explicit(gen.field(state["sig"], p["ms"]), z, p["ms"])
            sub = (slice(None, None, EXPLICIT_STRIDE),) * 2
            X = tuple(x[sub] for x in p["x"]["coords"])
            got = np.zeros(spectral[sub].shape)
            for m, fn in expl.blades.items():
                got[..., m] = fn(*X)
            rec.check("translate_explicit_vs_spectral", *oracles.check_explicit(
                spectral[sub], got, p["x"]["w"][sub]))
        if state["last_convolve"] is not None:
            p, g1, g2, fg = state["last_convolve"]
            gf = cliffdunkl.cdt_engine.convolve(g2, g1, p["plan"]).values
            rec.check("convolve_symmetric", *oracles.check_symmetric(fg, gf))


# -- d34_roundtrip ----------------------------------------------------------


class D34Roundtrip:
    """Round trips in Cl(0,3), 64^3 nodes x 8 blades (order 32, L_x = 6,
    L_y = 10), and in Cl(0,4), 24^4 nodes x 16 blades (order 12, L = 5),
    with seeded multiplicities.  d = 3 fields are seeded quadratic
    polynomials times a Gaussian; d = 4 fields are seeded blade constants
    times exp(-|x|^2/2).
    """

    gemm_shape = (64 * 64 * 8, 64, 64)

    def params(self, rng):
        return {"kappa3": tuple(np.round(rng.uniform(0.1, 1.2, 3), 6)),
                "kappa4": tuple(np.round(rng.uniform(0.1, 1.2, 4), 6))}

    def setup(self, params):
        cases = []
        for d, kappa, order, Lx, Ly in ((3, params["kappa3"], 32, 6.0, 10.0),
                                        (4, params["kappa4"], 12, 5.0, 5.0)):
            sig = cliffdunkl.Signature(0, d)
            a, b = _units(sig)
            ms = cliffdunkl.MultiplicitySplit(kappa, d // 2)
            plan = cliffdunkl.build_plan(sig, ms, a, b, L_x=Lx, L_y=Ly, order=order)
            cases.append({"d": d, "sig": sig, "ms": ms, "plan": plan, "ratios": [],
                          "x": _grid_arrays(plan.grid_x), "y": _grid_arrays(plan.grid_y)})
        return {"cases": cases}

    def _field(self, case, rng):
        d, nb = case["d"], case["sig"].n_blades
        if d == 3:
            return PolyGaussian(rng, 3, range(nb), (0.5, 1.0))
        gen = PolyGaussian(rng, 4, range(nb), (0.5, 0.5))
        for m in gen.coef:  # constants only: C_A exp(-|x|^2/2)
            gen.coef[m][1:] = 0.0
        return gen

    def round(self, state, rng, rec):
        for case in state["cases"]:
            d, plan, X, Y = case["d"], case["plan"], case["x"], case["y"]
            gen = self._field(case, rng)
            f = gen.field(case["sig"], case["ms"])
            fwd = {}

            def roundtrip():
                fwd["F"] = cliffdunkl.cdt_engine.forward(f, plan)
                return cliffdunkl.cdt_engine.inverse(fwd["F"], plan)

            back = rec.op(f"roundtrip_d{d}", roundtrip)
            if back is None:
                continue
            want = gen.values(X["coords"], case["sig"].n_blades)
            rec.check(f"roundtrip_d{d}", *oracles.check_roundtrip(back.values, want, X["w"], d))
            rec.check(f"roundtrip_scale_d{d}", *oracles.check_scale(back.values, want, X["w"], d))
            case["ratios"].append(oracles.plancherel_ratio(fwd["F"].values, Y["w"], want, X["w"]))

    def finish(self, state, rec):
        for case in state["cases"]:
            if case["ratios"]:
                rec.check(f"plancherel_constancy_d{case['d']}",
                          *oracles.check_constancy(case["ratios"], case["d"]))


# -- cli_session ------------------------------------------------------------


LABELS_D2 = {0: "1", 1: "e1", 2: "e2", 3: "e12"}
DEFAULT_GRID = (6.0, 1, 48)  # the CLI's default -6:6:1:48 for the x side
OUT_GRID = "-9:9:1:48"  # y side wide enough for exp(-|y|^2/(4 s)), s <= 1.2
KERNEL_FAIL = (100.0, 5.0)  # kappa >= 86 with |t| > 4: math.gamma(2 kappa) overflows


class CliSession:
    """In-process `cliffdunkl` commands on field files the benchmark writes.

    A round: `verify` with the shipped ledger defaults, `transform` then
    `inverse` through files, `translate --method explicit`, `miyachi` in the
    boundary case, and `kernel` at two seeded (kappa, t) (one per kernel
    route) plus once at the fixed (kappa, t) = (100, 5), which fails today.
    """

    gemm_shape = (96 * 4, 96, 96)

    def __init__(self, workdir):
        self.workdir = workdir

    def params(self, rng):
        return {"kappa": tuple(np.round(rng.uniform(0.2, 1.2, 2), 6))}

    def setup(self, params):
        kappa = params["kappa"]
        L, panels, order = DEFAULT_GRID
        grid = cliffdunkl.quadrature.build_grid(kappa, L, panels=panels, order=order)
        os.makedirs(self.workdir, exist_ok=True)
        return {"kappa": kappa, "x": _grid_arrays(grid)}

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, kappa, blades):
        doc = {"signature": [0, 2], "kappa": list(kappa), "split": 1, "blades": blades}
        with open(self._path(name), "w") as fh:
            json.dump(doc, fh)
        return self._path(name)

    @staticmethod
    def _main(argv):
        """cli.main in-process; (exit code, stdout text, stderr text)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cliffdunkl.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _cmd(self, rec, kind, argv, ok_codes=(0,)):
        def ok(res):
            if res[0] not in ok_codes:
                print(f"# {kind} exited {res[0]}: {res[2].strip()}", file=sys.stderr)
            return res[0] in ok_codes

        res = rec.op(kind, lambda: self._main(argv), ok=ok)
        return res[1] if res is not None else None

    def _sampled(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        g = doc["grid"]
        L, panels, order = DEFAULT_GRID
        if g["L"] != [L, L] or g["panels"] != panels or g["order"] != order:
            return None
        first = np.asarray(next(iter(doc["blades"].values())))
        vals = np.zeros(first.shape + (4,))
        inv = {v: k for k, v in LABELS_D2.items()}
        for label, arr in doc["blades"].items():
            vals[..., inv[label]] = np.asarray(arr)
        return vals

    def round(self, state, rng, rec):
        kappa, X = state["kappa"], state["x"]

        reports = self._path("reports.json")
        if self._cmd(rec, "verify", ["verify", "--out", reports], ok_codes=(0, 5)) is not None:
            with open(reports) as fh:
                ok, failing, contested = oracles.check_ledger(json.load(fh))
            rec.check("verify_claims", ok, len(failing))
            rec.note("verify_contested", contested)

        gen = PolyGaussian(rng, 2, range(4), (0.6, 1.2))
        f_path = self._write("f.json", kappa, gen.expressions(LABELS_D2))
        F_path, back_path = self._path("F.json"), self._path("back.json")
        done = self._cmd(rec, "transform", ["transform", "--field", f_path,
                                            "--out-grid", OUT_GRID, "--out", F_path])
        if done is not None and self._cmd(
                rec, "inverse", ["inverse", "--field", F_path, "--in-grid", OUT_GRID,
                                 "--out", back_path]) is not None:
            back = self._sampled(back_path)
            want = gen.values(X["coords"], 4)
            err = oracles.rel_l2(back, want, X["w"]) if back is not None else math.inf
            rec.check("file_roundtrip", err <= oracles.FILE_ROUNDTRIP_TOL, err)

        c = round(float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1), 6)
        s = round(float(rng.uniform(0.5, 1.2)), 6)
        z = tuple(float(v) for v in np.round(rng.uniform(-1.2, 1.2, 2), 6))
        g_path = self._write("g.json", kappa, {"1": f"{c!r}*exp(-{s!r}*(x1^2+x2^2))"})
        t_path = self._path("t.json")
        if self._cmd(rec, "translate_explicit",
                     ["translate", "--field", g_path, "--z", f"{z[0]!r},{z[1]!r}",
                      "--method", "explicit", "--out", t_path]) is not None:
            got = self._sampled(t_path)
            ok, err = (oracles.check_gaussian_translate(got[..., 0], c, s, z, kappa, X["coords"])
                       if got is not None else (False, math.inf))
            rec.check("translate_explicit_closed_form", ok, err)

        alpha = round(float(rng.uniform(0.6, 1.2)), 6)
        C = {"1": round(float(rng.uniform(-2.0, 2.0)), 6), "e12": round(float(rng.uniform(-2.0, 2.0)), 6)}
        m_path = self._write("m.json", kappa, {
            k: f"{v!r}*exp(-{alpha!r}*(x1^2+x2^2))" for k, v in C.items()})
        out = self._cmd(rec, "miyachi", ["miyachi", "--field", m_path, "--alpha", repr(alpha),
                                         "--beta", repr(0.25 / alpha), "--lambda", "100",
                                         "--exponent", "inf"])
        if out is not None:
            rec.check("miyachi_constant", *oracles.check_miyachi(json.loads(out), C))

        k_series = round(float(rng.uniform(0.05, 30.0)), 6)
        t_series = round(float(rng.uniform(-4.0, 4.0)), 6)
        k_integral = round(float(rng.uniform(0.05, 30.0)), 6)
        t_integral = round(float(rng.uniform(4.5, 30.0)) * (1 if rng.random() < 0.5 else -1), 6)
        for kind, (kap, t) in (("kernel", (k_series, t_series)),
                               ("kernel", (k_integral, t_integral)),
                               ("kernel_large_kappa", KERNEL_FAIL)):
            out = self._cmd(rec, kind, ["kernel", "--kappa", repr(kap), "--t", repr(t)])
            if out is not None:
                lines = dict(line.split(" = ") for line in out.strip().splitlines())
                rec.check("kernel_mpmath", *oracles.check_kernel(
                    float(lines["A"]), float(lines["B"]), kap, t))

    def finish(self, state, rec):
        pass


def make(name, workdir):
    if name == "d2_mixed":
        return D2Mixed()
    if name == "d34_roundtrip":
        return D34Roundtrip()
    if name == "cli_session":
        return CliSession(workdir)
    raise KeyError(name)

