"""Acceptance checklist: nine end-to-end criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Each
criterion states its own tolerance; the asserted closed-form constants
that disagree with measurement are deliberately not part of this list,
they live in the claims ledger (`cliffdunkl verify`).
"""

import json
import math
import random

import numpy as np
import pytest
from scipy.special import gamma

from cliffdunkl.clifford_core import (
    MultiVector,
    Signature,
    modulus,
    structure_tensor,
    validate_imaginary,
)
from cliffdunkl.dunkl_rank1 import (
    MultiplicitySplit,
    eval_kernel_ab,
    kernel_coefficients,
)
from cliffdunkl.quadrature import build_grid, integrate
from cliffdunkl.cdt_engine import (
    AnalyticField,
    SampledField,
    build_plan,
    forward,
    inverse,
    plancherel_ratio,
    rel_l2_error,
    translate_explicit,
    translate_spectral,
)
from cliffdunkl.cdt_engine import _coords, _eigen_fit, _sample_on
from cliffdunkl.miyachi import MiyachiConfig, check_log, verdict
from cliffdunkl.field_io import load_field, save_field
from cliffdunkl.field_expr import (
    DepthExceeded,
    ExprSyntaxError,
    UnknownCoordinate,
    compile_expr,
    parse_expr,
)

from conftest import gaussian_field


def _report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _sampled(f, grid):
    return SampledField(f.sig, f.ms, grid, _sample_on(f, grid, f.sig, f.ms))


def test_criterion_1_gaussian_image_shape(sig02, ms_std, unit_a, unit_b):
    # forward(e^{-delta|x|^2}) must be a scalar multiple of e^{-|y|^2/(4 delta)}
    # wherever the image is >= 1e-8 of its peak; the multiple itself is a
    # ledger matter, not checked here
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.5, L_y=6.5)
    worst = 0.0
    for delta in (0.5, 1.0):
        F = forward(gaussian_field(sig02, ms_std, delta=delta), plan)
        y1, y2 = _coords(plan.grid_y)
        ref = np.exp(-(y1**2 + y2**2) / (4.0 * delta))
        scal = F.values[..., 0]
        peak_at = np.argmax(np.abs(scal))
        const = scal.flat[peak_at] / ref.flat[peak_at]
        mask = np.abs(scal) >= 1e-8 * np.abs(scal.flat[peak_at])
        dev = float(np.max(np.abs(scal[mask] / (const * ref[mask]) - 1.0)))
        spill = float(np.max(np.abs(F.values[..., 1:]))) / np.abs(scal.flat[peak_at])
        worst = max(worst, dev, spill)
    _report(1, "gaussian image shape", worst <= 1e-6,
            f"max pointwise deviation {worst:.2e}, tol 1e-6")


def test_criterion_2_inversion_roundtrip(sig02, ms_std, unit_a, unit_b):
    g = lambda x1, x2: np.exp(-(x1**2 + x2**2))
    fields = {
        "scalar": AnalyticField(sig02, ms_std, {
            0: lambda x1, x2: (1.0 + x1 * x1 + 0.5 * x2) * g(x1, x2),
        }),
        "quaternion": AnalyticField(sig02, ms_std, {
            0: lambda x1, x2: (1.0 + x1 * x1) * g(x1, x2),
            1: lambda x1, x2: x1 * g(x1, x2),
            2: lambda x1, x2: (0.5 + x2 * x2) * g(x1, x2),
            3: lambda x1, x2: 0.7 * g(x1, x2),
        }),
    }
    worst = 0.0
    for mode in ("raw", "mehta"):
        plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=9.0,
                          normalization=mode)
        for f in fields.values():
            back = inverse(forward(f, plan), plan)
            worst = max(worst, rel_l2_error(back, _sampled(f, plan.grid_x)))
    _report(2, "inversion round-trip", worst <= 1e-5,
            f"worst relative L2 error {worst:.2e}, tol 1e-5")


def test_criterion_3_plancherel_constancy(sig02, ms_std, plan_std, unit_a, unit_b):
    g = lambda x1, x2: np.exp(-(x1**2 + x2**2))
    fields = [
        AnalyticField(sig02, ms_std, {0: g}),
        AnalyticField(sig02, ms_std, {0: lambda x1, x2: x1 * x1 * g(x1, x2)}),
        AnalyticField(sig02, ms_std, {0: lambda x1, x2: np.exp(-0.7 * (x1**2 + x2**2))}),
        AnalyticField(sig02, ms_std, {1: lambda x1, x2: x2 * g(x1, x2), 2: g}),
        AnalyticField(sig02, ms_std, {0: lambda x1, x2: np.cos(x1) * g(x1, x2),
                                      3: lambda x1, x2: x1 * x2 * g(x1, x2)}),
    ]
    ratios = [plancherel_ratio(f, plan_std)[0] for f in fields]
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    ms0 = MultiplicitySplit((0.0, 0.0), 1)
    plan0 = build_plan(sig02, ms0, unit_a, unit_b, L_x=7.0, L_y=7.0)
    r0 = plancherel_ratio(AnalyticField(sig02, ms0, {0: g}), plan0)[0]
    dev0 = abs(r0 / (2.0 * math.pi) ** 2 - 1.0)
    ok = spread <= 1e-6 and dev0 <= 1e-6
    _report(3, "plancherel constancy", ok,
            f"spread over 5 fields {spread:.2e}, kappa=0 vs (2pi)^2 {dev0:.2e}, tol 1e-6")


def test_criterion_4_eigenfunction_structure(plan_std):
    lams, worst = [], 0.0
    for lv in range(5):
        for lu in range(5 - lv):
            fit = _eigen_fit((lv,), (lu,), plan_std)
            lams.append(fit["lambda"])
            worst = max(worst, fit["shape_residual"], fit["unit_residual"])
    spread = (max(lams) - min(lams)) / abs(np.mean(lams))
    ok = worst <= 1e-6 and spread <= 1e-6
    _report(4, "hermite eigenfunctions", ok,
            f"{len(lams)} pairs l(v)+l(u)<=4, worst residual {worst:.2e}, "
            f"lambda spread {spread:.2e}, tol 1e-6")


def test_criterion_5_kernel_bound_and_reduction():
    rng = np.random.default_rng(7)
    ts = rng.uniform(-25.0, 25.0, 10_000)
    sup = 0.0
    origin_exact = True
    for kappa in (0.0, 0.25, 0.5, 1.0, 2.0):
        table = kernel_coefficients(kappa, t_max=26.0)
        A, B = eval_kernel_ab(table, ts)
        sup = max(sup, float(np.max(A * A + B * B)))
        A0, B0 = eval_kernel_ab(table, 0.0)
        origin_exact = origin_exact and float(A0) == 1.0 and float(B0) == 0.0
    A, B = eval_kernel_ab(kernel_coefficients(0.0, t_max=26.0), ts)
    k0dev = max(float(np.max(np.abs(A - np.cos(ts)))),
                float(np.max(np.abs(B + np.sin(ts)))))
    ok = sup <= 1.0 + 1e-12 and origin_exact and k0dev <= 1e-14
    _report(5, "kernel bound", ok,
            f"sup A^2+B^2 = 1 + {sup - 1.0:.1e} over 1e4 t x 5 kappa, "
            f"E(0)=1 exact: {origin_exact}, kappa=0 vs cos/-sin {k0dev:.1e}")


def test_criterion_6_translation_equivalence(sig02, unit_a, unit_b):
    sig1 = Signature(0, 1)
    e1 = validate_imaginary(MultiVector.blade(sig1, "e1"), "e1")
    worst = 0.0
    for kap in (0.0, 0.5):
        ms1 = MultiplicitySplit((kap,), 0)
        plan1 = build_plan(sig1, ms1, e1, e1, L_x=7.0, L_y=9.0)
        for fn in (lambda x1: np.exp(-x1**2), lambda x1: x1 * np.exp(-x1**2)):
            f = AnalyticField(sig1, ms1, {0: fn})
            spec = translate_spectral(f, (0.7,), plan1)
            expl = _sampled(translate_explicit(f, (0.7,), ms1), plan1.grid_x)
            worst = max(worst, rel_l2_error(spec, expl))
    g = lambda x1, x2: np.exp(-(x1**2 + x2**2))
    for kap in ((0.5, 0.5), (0.0, 0.5)):
        ms2 = MultiplicitySplit(kap, 1)
        plan2 = build_plan(sig02, ms2, unit_a, unit_b, L_x=6.5, L_y=9.0)
        for blades in ({0: g}, {0: lambda x1, x2: x1 * g(x1, x2)}):
            f = AnalyticField(sig02, ms2, blades)
            spec = translate_spectral(f, (0.6, -0.4), plan2)
            expl = _sampled(translate_explicit(f, (0.6, -0.4), ms2), plan2.grid_x)
            worst = max(worst, rel_l2_error(spec, expl))
    ms2 = MultiplicitySplit((0.5, 0.5), 1)
    plan2 = build_plan(sig02, ms2, unit_a, unit_b, L_x=6.5, L_y=9.0)
    f = AnalyticField(sig02, ms2, {0: g})
    tau0 = rel_l2_error(translate_spectral(f, (0.0, 0.0), plan2), _sampled(f, plan2.grid_x))
    ok = worst <= 1e-5 and tau0 <= 1e-5
    _report(6, "translation equivalence", ok,
            f"explicit vs spectral worst {worst:.2e} over d=1,2 and kappa in {{0, 0.5}}, "
            f"tau_0 identity {tau0:.2e}, tol 1e-5")


def test_criterion_7_classical_reductions(sig02, unit_a, unit_b):
    # kappa = 0 against midpoint Riemann sums: scalar Fourier pair, then a
    # full quaternion-valued input through the two-sided e1/e2 transform
    ms0 = MultiplicitySplit((0.0, 0.0), 1)
    g = lambda x1, x2: np.exp(-(x1**2 + x2**2))
    profiles = {
        0: lambda x1, x2: (1.0 + x1 * x1) * g(x1, x2),
        1: lambda x1, x2: x1 * g(x1, x2),
        2: lambda x1, x2: (0.5 + x2 * x2) * g(x1, x2),
        3: lambda x1, x2: 0.5 * g(x1, x2),
    }
    plan = build_plan(sig02, ms0, unit_a, unit_b, L_x=6.0, L_y=6.0)
    L, N = 7.0, 600
    xs = -L + (2.0 * L / N) * (np.arange(N) + 0.5)
    dx = 2.0 * L / N
    fx = np.zeros((N, N, sig02.n_blades))
    for m, fn in profiles.items():
        fx[..., m] = fn(xs[:, None], xs[None, :])
    worst = {"scalar": 0.0, "quaternion": 0.0}
    for name, masks in (("scalar", (0,)), ("quaternion", (0, 1, 2, 3))):
        values = fx[..., :len(masks)]
        F = forward(AnalyticField(sig02, ms0, {m: profiles[m] for m in masks}), plan)
        for j1, j2 in ((30, 61), (5, 90), (48, 48), (70, 23)):
            y1 = plan.grid_y.axes[0].nodes[j1]
            y2 = plan.grid_y.axes[1].nodes[j2]
            c1, s1 = np.cos(xs * y1), np.sin(xs * y1)
            c2, s2 = np.cos(xs * y2), np.sin(xs * y2)
            S = {}
            for nm, (w1, w2) in {"cc": (c1, c2), "sc": (s1, c2),
                                 "cs": (c1, s2), "ss": (s1, s2)}.items():
                coeff = dx * dx * np.einsum("ijk,i,j->k", values, w1, w2)
                full = np.zeros(sig02.n_blades)
                full[:coeff.size] = coeff
                S[nm] = MultiVector(sig02, full)
            want = (S["cc"] - unit_a.value * S["sc"] - S["cs"] * unit_b.value
                    + unit_a.value * S["ss"] * unit_b.value)
            worst[name] = max(worst[name], float(np.max(np.abs(F.values[j1, j2] - want.coeff))))
    ok = max(worst.values()) <= 1e-8
    _report(7, "kappa=0 reductions", ok,
            f"Fourier oracle {worst['scalar']:.2e}, two-sided QFT {worst['quaternion']:.2e}, tol 1e-8")


def test_criterion_8_miyachi_trichotomy(sig02, ms_std, unit_a, unit_b):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0)
    # (a) alpha beta = 1: the log condition on the transform of e^{-|x|^2}
    # grows without bound
    F = forward(gaussian_field(sig02, ms_std), plan)
    rep = check_log(F, 1.0, 1.0, (2.0, 3.0, 4.0, 5.0))
    a_ok = rep.status == "growing" and all(
        b > a for a, b in zip(rep.values, rep.values[1:]))
    # (b) alpha beta = 1/4: 2 e^{-|x|^2} survives and the fitted constant is 2
    two = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: 2.0 * np.exp(-(x1**2 + x2**2)),
    })
    v = verdict(two, MiyachiConfig(1.0, 0.25, 3.0, exponent=math.inf), plan)
    b_ok = (v.case == "boundary"
            and (v.condition1.status, v.condition2.status) == ("finite", "finite")
            and v.residual is not None and v.residual <= 1e-4
            and v.lambda_check is True and modulus(v.C) <= 3.0)
    # (c) alpha beta = 0.1 < 1/4: x1^2 e^{-|x|^2/(4 delta)}, delta = 0.2,
    # passes both conditions
    poly = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: x1 * x1 * np.exp(-1.25 * (x1**2 + x2**2)),
    })
    w = verdict(poly, MiyachiConfig(1.0, 0.1, 1.0), plan)
    c_ok = (w.case == "subcritical"
            and (w.condition1.status, w.condition2.status) == ("finite", "finite"))
    ok = a_ok and b_ok and c_ok
    _report(8, "miyachi trichotomy", ok,
            f"vanishing grows: {a_ok}, boundary fit residual "
            f"{v.residual:.1e} with |C| = {modulus(v.C):.6f} <= 3: {b_ok}, "
            f"subcritical passes: {c_ok}")


def test_criterion_9_algebra_and_property_suites(tmp_path):
    # exact associativity/anticommutation on integer coefficients up to d = 6
    rng = np.random.default_rng(20240817)
    assoc_ok = True
    for p, q in ((0, 2), (1, 1), (3, 0), (2, 1), (1, 3), (3, 3)):
        sig = Signature(p, q)
        eta = [1.0] * p + [-1.0] * q
        for i in range(sig.d):
            ei = MultiVector.blade(sig, 1 << i)
            assoc_ok = assoc_ok and (ei * ei == MultiVector.scalar(sig, eta[i]))
            for j in range(i + 1, sig.d):
                ej = MultiVector.blade(sig, 1 << j)
                assoc_ok = assoc_ok and (ei * ej == -(ej * ei))
        for _ in range(20):
            a, b, c = (MultiVector(sig, rng.integers(-4, 5, sig.n_blades).astype(float))
                       for _ in range(3))
            assoc_ok = assoc_ok and ((a * b) * c == a * (b * c))
    # parser fuzz: structured errors only
    fuzz = random.Random(20240817)
    alphabet = "x123456789+-*/^()exp. eE"
    allowed = (ExprSyntaxError, UnknownCoordinate, DepthExceeded)
    parsed = crashes = 0
    for _ in range(100_000):
        text = "".join(fuzz.choice(alphabet) for _ in range(fuzz.randint(1, 40)))
        try:
            parse_expr(text, 3)
            parsed += 1
        except allowed:
            pass
        except Exception:
            crashes += 1
    fuzz_ok = crashes == 0 and parsed > 0
    # JSON round-trip preserves every bit of awkward floats
    sig = Signature(0, 2)
    ms = MultiplicitySplit((0.1 + 0.2, 1.0 / 3.0), 1)
    f = AnalyticField(sig, ms, {0: compile_expr("exp(-(x1^2+x2^2))", 2)})
    path = tmp_path / "f.json"
    save_field(f, path)
    first = path.read_bytes()
    save_field(load_field(path), path)
    json_ok = path.read_bytes() == first
    loaded = load_field(path)
    json_ok = json_ok and loaded.ms.kappa == ms.kappa
    # quadrature calibration: integral of e^{-x^2} |x|^(2 kappa)
    quad_dev = 0.0
    for kappa in (0.0, 0.3, 0.7, 1.2):
        grid = build_grid(MultiplicitySplit((kappa,), 0), 8.0, panels=8, order=16)
        got = integrate(np.exp(-grid.nodes()[:, 0] ** 2), grid)
        quad_dev = max(quad_dev, abs(got - gamma(kappa + 0.5)))
    ok = assoc_ok and fuzz_ok and json_ok and quad_dev <= 1e-10
    _report(9, "algebra and property suites", ok,
            f"exact algebra d<=6: {assoc_ok}, fuzz 1e5 inputs crashes={crashes}, "
            f"JSON bit-exact: {json_ok}, calibration {quad_dev:.1e} <= 1e-10")
