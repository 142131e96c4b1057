"""Self-tests of the benchmark: every check accepts the program's real output
and rejects a wrong answer; the tracer and the entry point behave.

Run with `PYTHONPATH=src python -m pytest -q cdbench`.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cliffdunkl
from cdbench import oracles, trace, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KAPPA = (0.3, 0.7)


@pytest.fixture(scope="module")
def sig():
    return cliffdunkl.Signature(0, 2)


def _plan(sig, kappa, normalization="raw"):
    a, b = workloads._units(sig)
    ms = cliffdunkl.MultiplicitySplit(kappa, 1)
    return cliffdunkl.build_plan(sig, ms, a, b, L_x=8.0, L_y=8.0, normalization=normalization), ms


@pytest.fixture(scope="module")
def plan_k(sig):
    return _plan(sig, KAPPA)


@pytest.fixture(scope="module")
def plan_0(sig):
    return _plan(sig, (0.0, 0.0))


def _field(seed=0):
    return workloads.PolyGaussian(np.random.default_rng(seed), 2, range(4), (0.5, 0.85))


def test_roundtrip_checks_accept_real_and_reject_scaled(sig, plan_k):
    plan, ms = plan_k
    gen = _field()
    X = workloads._grid_arrays(plan.grid_x)
    back = cliffdunkl.inverse(cliffdunkl.forward(gen.field(sig, ms), plan), plan).values
    want = gen.values(X["coords"], 4)
    assert oracles.check_roundtrip(back, want, X["w"], 2)[0]
    assert oracles.check_scale(back, want, X["w"], 2)[0]
    scaled = back * (1.0 + 1e-3)
    assert not oracles.check_roundtrip(scaled, want, X["w"], 2)[0]
    assert not oracles.check_scale(scaled, want, X["w"], 2)[0]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_scale_check_rejects_scaled_at_every_d(d):
    want = np.random.default_rng(d).standard_normal((6,) * d + (4,))
    w = np.ones((6,) * d)
    assert oracles.check_scale(want, want, w, d)[0]
    assert not oracles.check_scale(want * (1.0 + 1e-3), want, w, d)[0]


def test_plancherel_constancy(sig, plan_k):
    plan, ms = plan_k
    X, Y = workloads._grid_arrays(plan.grid_x), workloads._grid_arrays(plan.grid_y)
    ratios = []
    for seed in range(3):
        gen = _field(seed)
        F = cliffdunkl.forward(gen.field(sig, ms), plan).values
        ratios.append(oracles.plancherel_ratio(F, Y["w"], gen.values(X["coords"], 4), X["w"]))
    assert oracles.check_constancy(ratios, 2)[0]
    assert not oracles.check_constancy(ratios[:-1] + [ratios[-1] * (1 + 1e-3)], 2)[0]


def test_translation_by_minus_z_is_rejected(sig, plan_k, plan_0):
    z = (0.6, -0.4)
    gen = _field(1)
    plan, ms = plan_0
    X = workloads._grid_arrays(plan.grid_x)
    moved = cliffdunkl.translate_spectral(gen.field(sig, ms), z, plan).values
    assert oracles.check_shift(moved, gen.values(X["coords"], 4, shift=z), X["w"])[0]
    minus = tuple(-v for v in z)
    assert not oracles.check_shift(moved, gen.values(X["coords"], 4, shift=minus), X["w"])[0]

    plan, ms = plan_k
    X = workloads._grid_arrays(plan.grid_x)
    f = gen.field(sig, ms)
    spectral = cliffdunkl.translate_spectral(f, z, plan).values
    sub = (slice(None, None, workloads.EXPLICIT_STRIDE),) * 2
    Xs = tuple(x[sub] for x in X["coords"])
    for zz, expect in ((z, True), (minus, False)):
        expl = cliffdunkl.translate_explicit(f, zz, ms)
        got = np.zeros(spectral[sub].shape)
        for m, fn in expl.blades.items():
            got[..., m] = fn(*Xs)
        ok, err = oracles.check_explicit(spectral[sub], got, X["w"][sub])
        assert ok is expect, err


def test_convolution_checks(sig, plan_k, plan_0):
    a, b = 0.7, 1.3
    plan, ms = plan_0
    X = workloads._grid_arrays(plan.grid_x)
    conv = cliffdunkl.convolve(workloads._gaussian(sig, ms, a), workloads._gaussian(sig, ms, b), plan).values
    assert oracles.check_gaussian_convolution(conv, a, b, X["coords"])[0]
    off = conv * cliffdunkl.mehta_constant((0.0,))
    assert not oracles.check_gaussian_convolution(off, a, b, X["coords"])[0]

    plan, ms = plan_k
    X = workloads._grid_arrays(plan.grid_x)
    g1, g2 = workloads._gaussian(sig, ms, a), workloads._gaussian(sig, ms, b)
    fg = cliffdunkl.convolve(g1, g2, plan).values
    assert oracles.check_convolution_shape(fg, a, b, X["coords"], X["w"])[0]
    assert not oracles.check_convolution_shape(fg, a, 2 * b, X["coords"], X["w"])[0]
    assert oracles.check_symmetric(fg, cliffdunkl.convolve(g2, g1, plan).values)[0]
    assert not oracles.check_symmetric(fg, fg * (1 + 1e-6))[0]


def test_explicit_translation_closed_form(sig):
    z, s, c = (0.6, -0.4), 0.8, -1.3
    ms = cliffdunkl.MultiplicitySplit(KAPPA, 1)
    g = cliffdunkl.AnalyticField(sig, ms, {0: lambda x1, x2: c * np.exp(-s * (x1 * x1 + x2 * x2))})
    grid = cliffdunkl.build_grid(KAPPA, 6.0, panels=1, order=12)
    X = workloads._coords(grid)
    got = cliffdunkl.translate_explicit(g, z, ms).sample(grid)[..., 0]
    assert oracles.check_gaussian_translate(got, c, s, z, KAPPA, X)[0]
    assert not oracles.check_gaussian_translate(got, c, s, (-z[0], -z[1]), KAPPA, X)[0]


@pytest.mark.parametrize("kappa,t", [(0.3, 2.5), (7.5, -13.0), (29.0, 28.0)])
def test_kernel_check_rejects_wrong_bessel_order(kappa, t):
    table = cliffdunkl.kernel_coefficients(kappa, t_max=abs(t) + 1.0)
    A, B = cliffdunkl.eval_kernel_ab(table, t)
    assert oracles.check_kernel(A, B, kappa, t)[0]
    wrong_A = oracles.normalized_bessel(kappa + 0.5, t)
    assert not oracles.check_kernel(wrong_A, B, kappa, t)[0]


def test_kernel_reference_at_large_kappa():
    # the value the CLI cannot produce today (kappa = 100, t = 5)
    A, _ = oracles.kernel_ab_reference(100.0, 5.0)
    assert abs(A - 0.939687297) < 1e-9


def test_miyachi_check(sig, plan_k):
    plan, ms = plan_k
    alpha = 0.8
    C = {"1": 1.7, "e12": -0.4}
    f = cliffdunkl.AnalyticField(sig, ms, {k: (lambda v: lambda x1, x2: v * np.exp(-alpha * (x1 * x1 + x2 * x2)))(v)
                                           for k, v in C.items()})
    cfg = cliffdunkl.MiyachiConfig(alpha=alpha, beta=0.25 / alpha, lam=100.0, exponent=float("inf"))
    a, b = workloads._units(sig)
    p = cliffdunkl.build_plan(sig, ms, a, b, L_x=6.0, L_y=5.0)
    doc = cliffdunkl.verdict(f, cfg, p).to_dict()
    assert oracles.check_miyachi(doc, C)[0]
    assert not oracles.check_miyachi(doc, {"1": 1.7 * (1 + 1e-6), "e12": -0.4})[0]


def test_ledger_gate():
    reports = [
        {"claim": "inversion-roundtrip-scalar-raw", "status": "pass", "ratio": None},
        {"claim": "plancherel-constant", "status": "flagged", "ratio": 0.0034},
        {"claim": "eigenvalue-v0-u0", "status": "flagged", "ratio": 0.058},
    ]
    ok, failing, contested = oracles.check_ledger(reports)
    assert ok and not failing and set(contested) == {"plancherel-constant", "eigenvalue-v0-u0"}
    reports.append({"claim": "eigenvalue-oracle-v0-u0", "status": "flagged", "ratio": 1.1})
    ok, failing, _ = oracles.check_ledger(reports)
    assert not ok and failing == ["eigenvalue-oracle-v0-u0"]


def test_contract_counts_small_shape():
    # one q-axis 2 -> 3 on a (2, 2, 1) array, then the p-axis 2 -> 3 twice
    flops, nbytes = trace.contract_counts((2, 2, 1), (3, 3), 1)
    assert flops == 8 * 2 * 2 * 3 + 2 * 8 * 3 * 2 * 3
    assert nbytes == 16 * (4 + 6 + 6) + 2 * 16 * (6 + 9 + 6)


def test_tracer_wraps_every_binding_and_restores(sig, plan_k):
    plan, ms = plan_k
    original = cliffdunkl.dunkl_rank1.eval_kernel_ab
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert cliffdunkl.cdt_engine.eval_kernel_ab is cliffdunkl.dunkl_rank1.eval_kernel_ab
        assert cliffdunkl.cdt_engine.eval_kernel_ab is not original
        tracer.start_timed()
        tracer.run_op(0, "translate", lambda: cliffdunkl.translate_spectral(_field().field(sig, ms), (0.9, -0.7), plan))
        tracer.stop_timed()
        assert not tracer._replace("cdt_engine", "_no_such_stage", lambda fn: fn)
    finally:
        tracer.uninstall()
    assert cliffdunkl.cdt_engine.eval_kernel_ab is original
    assert "cdt_engine._no_such_stage" in tracer.absent
    m = tracer.layer_metrics(1, {"gemm_gflops": 1.0, "copy_gbps": 1.0})
    assert m["cdt_engine.contract_ms"]["value"] > 0
    assert m["dunkl_rank1.kernel_points_integral"]["value"] > 0
    assert m["dunkl_rank1.mehta_constant_calls"]["value"] == 2  # raw: one inverse, one in translate
    names = {x["name"] for x in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]}
    assert set(m) == names


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "cdbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_mode_prints_every_end_to_end_metric():
    res = _run(ROOT, "--workload", "d2_mixed", "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] == 12
    names = {x["name"] for x in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]}
    assert set(out["metrics"]) == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "cdbench"), tmp_path / "cdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    res = _run(str(tmp_path), "--workload", "d2_mixed", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
