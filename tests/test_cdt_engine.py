"""Transform engine: Gaussian images, inversion, Plancherel, eigenfunctions,
translation, convolution, and the claims ledger.

Constants are checked against quadrature-independent oracles (closed forms,
Riemann sums on uniform grids, literal multivector loops); the asserted
block constants are exercised only through ClaimReport statuses, which are
allowed to flag.
"""

import hashlib
import itertools
import json
import math
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from cliffdunkl.clifford_core import (
    MultiVector,
    Signature,
    structure_tensor,
    validate_imaginary,
)
from cliffdunkl.dunkl_rank1 import (
    ArgumentOutOfRadius,
    MultiplicitySplit,
    eval_kernel_ab,
    mehta_constant,
)
from cliffdunkl.cdt_engine import (
    AnalyticField,
    ClaimReport,
    PlanMismatch,
    SampledField,
    ZeroNormField,
    build_plan,
    convolve,
    eigencheck,
    forward,
    inverse,
    plancherel_ratio,
    rel_l2_error,
    reports_to_json,
    run_claims_ledger,
    translate_explicit,
    translate_spectral,
)
from cliffdunkl.cdt_engine import _Work, _fold, _unfold
from cliffdunkl import cdt_engine, dunkl_rank1, quadrature
from cliffdunkl.quadrature import build_grid

from conftest import gaussian_field
from oracles import assembly_matrix, eval_kernel_block, reports_from_json, translate_at_order


def _unit(sig, spec):
    mv = None
    for lab, c in spec:
        t = c * MultiVector.blade(sig, lab)
        mv = t if mv is None else mv + t
    return validate_imaginary(mv, "+".join(lab for lab, _ in spec))


def _sampled(f, grid, sig, ms):
    return SampledField(sig, ms, grid, f.sample(grid))


def _scalar_sampled(grid, sig, ms, values):
    out = np.zeros(grid.shape + (sig.n_blades,))
    out[..., 0] = values
    return SampledField(sig, ms, grid, out)


@pytest.fixture(scope="module")
def ms00(sig02):
    return MultiplicitySplit((0.0, 0.0), 1)


@pytest.fixture(scope="module")
def plan00(sig02, ms00, unit_a, unit_b):
    return build_plan(sig02, ms00, unit_a, unit_b, L_x=6.0, L_y=6.0)


# -- kernel tables ----------------------------------------------------------


@pytest.mark.parametrize("kappa,L_x,L_y,panels,order", [
    ((0.3, 0.7), 8.0, 8.0, 1, 48),  # the ledger's grid
    ((0.4, 1.1), 6.0, 10.0, 1, 32),  # L_x != L_y
    ((0.05, 2.5), 5.0, 7.0, 3, 11),  # three panels
    ((0.0, 1e-17), 6.0, 9.0, 2, 16),  # kappa = 0 and a zero-limit kappa
])
def test_plan_kernels_match_a_full_quadrant_evaluation(sig02, unit_a, unit_b,
                                                      kappa, L_x, L_y, panels, order):
    # the plan evaluates the triangle of t = x_i x_k L_y / L_x and mirrors
    # it; the quadrant x_i y_k differs from that t by rounding only
    plan = build_plan(sig02, MultiplicitySplit(kappa, 1), unit_a, unit_b,
                      L_x=L_x, L_y=L_y, panels=panels, order=order)
    sides = zip(plan.tables, plan.grid_x.axes, plan.grid_y.axes, plan.fwd_mats, plan.inv_mats)
    for table, ax, ay, fwd, inv in sides:
        n = len(ax) // 2
        A, B = eval_kernel_ab(table, np.outer(ax.nodes[n:], ay.nodes[n:]))
        wx, wy = (ax.weights * ax.wk)[n:, None], (ay.weights * ay.wk)[n:, None]
        for got, want in ((fwd, np.stack((wx * A, wx * B))), (inv, np.stack((wy * A.T, wy * B.T)))):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("L_y", [None, 8.0])
def test_one_grid_plan_kernels_are_exactly_symmetric(sig02, ms_std, unit_a, unit_b, L_y):
    # fwd = (w A, w B) and inv = (w A^T, w B^T) with one w and symmetric
    # A and B: one grid stores the one array for both
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=L_y, panels=2, order=9)
    assert plan.grid_y.axes == plan.grid_x.axes
    for fwd, inv in zip(plan.fwd_mats, plan.inv_mats):
        assert inv is fwd


@pytest.mark.parametrize("L_y,panels,order", [(None, 1, 48), (10.0, 3, 7)])
def test_plan_tabulates_one_triangle_per_axis(monkeypatch, sig02, ms_std, unit_a, unit_b,
                                              L_y, panels, order):
    sizes = []
    tabulate = dunkl_rank1.kernel_ab_integral

    def counted(kappa, t, order):
        sizes.append(np.size(t))
        return tabulate(kappa, t, order)

    monkeypatch.setattr(dunkl_rank1, "kernel_ab_integral", counted)
    build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=L_y, panels=panels, order=order)
    n = panels * order
    assert sizes == [n * (n + 1) // 2] * 2


# -- shared axis tables -------------------------------------------------------


def _mats(plan):
    return plan.fwd_mats + plan.inv_mats


@pytest.mark.parametrize("d", [2, 3])
def test_shared_tables_equal_a_cold_build(d):
    sig, ms, a, b = _cl0(d)
    first = build_plan(sig, ms, a, b, L_x=6.0, L_y=8.0, panels=2, order=9)
    again = build_plan(sig, ms, a, b, L_x=6.0, L_y=8.0, panels=2, order=9)
    cdt_engine._axis_mats.cache_clear()
    cold = build_plan(sig, ms, a, b, L_x=6.0, L_y=8.0, panels=2, order=9)
    for shared, mine, want in zip(_mats(first), _mats(again), _mats(cold)):
        assert mine is shared and want is not shared
        assert not mine.flags.writeable and np.array_equal(mine, want)


def test_raw_and_mehta_plans_hold_the_same_arrays(sig02, ms_std, unit_a, unit_b):
    raw = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=7.0, order=16)
    mehta = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=7.0, order=16, normalization="mehta")
    assert all(r is m for r, m in zip(_mats(raw), _mats(mehta)))


def test_equal_axes_tabulate_once(monkeypatch, sig02, unit_a, unit_b):
    sizes = []
    tabulate = dunkl_rank1.kernel_ab_integral

    def counted(kappa, t, order):
        sizes.append(np.size(t))
        return tabulate(kappa, t, order)

    monkeypatch.setattr(dunkl_rank1, "kernel_ab_integral", counted)
    plan = build_plan(sig02, MultiplicitySplit((0.5, 0.5), 1), unit_a, unit_b, L_x=6.0, order=16)
    assert sizes == [16 * 17 // 2]
    assert plan.fwd_mats[0] is plan.fwd_mats[1] and plan.inv_mats[0] is plan.inv_mats[1]


def test_the_shared_tables_hold_at_most_32_mib():
    # 128 positive nodes is the largest shared axis, 129 is tabulated for its plan alone
    sig, ms = Signature(0, 1), MultiplicitySplit((0.5,), 1)
    a = validate_imaginary(MultiVector.blade(sig, "e1"), "e1")
    cache = cdt_engine._axis_mats
    build_plan(sig, ms, a, a, L_x=4.0, panels=3, order=43)
    assert cache.cache_info().currsize == 0
    one = build_plan(sig, ms, a, a, L_x=4.0, panels=2, order=64)
    two = build_plan(sig, ms, a, a, L_x=4.0, L_y=5.0, panels=2, order=64)
    assert cache.cache_info().currsize == 2

    def entry(plan):  # the bytes of the distinct arrays
        return sum(M.nbytes for M in {id(M): M for M in _mats(plan)}.values())

    assert entry(one) == 256 << 10  # one grid: inv is fwd
    assert entry(two) == 512 << 10  # L_x != L_y, the worst case
    assert cache.cache_info().maxsize * entry(two) <= 32 << 20


def test_a_cold_axis_table_builds_no_axis(sig02, ms_std, unit_a, unit_b):
    # the tables come from the plan's own axes: no call of `build_axis`, not even a cache hit
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=8.0, order=16)
    cdt_engine._axis_mats.cache_clear()
    before = quadrature.build_axis.cache_info()
    for ax, ay, fwd, inv in zip(plan.grid_x.axes, plan.grid_y.axes, plan.fwd_mats, plan.inv_mats):
        cold = cdt_engine._axis_mats(ax, ay)
        assert cold[0] is not fwd and np.array_equal(cold[0], fwd) and np.array_equal(cold[1], inv)
    assert quadrature.build_axis.cache_info() == before


@pytest.mark.parametrize("kappa,L,error", [
    ((0.3, 0.7), 20.0, ArgumentOutOfRadius),  # L_x L_y = 400 beyond the kernel radius
    ((600.0, 0.7), 6.0, OverflowError),  # the x^(2 kappa) weights overflow
])
def test_a_failed_build_caches_nothing(sig02, unit_a, unit_b, kappa, L, error):
    for _ in range(2):
        with pytest.raises(error):
            build_plan(sig02, MultiplicitySplit(kappa, 1), unit_a, unit_b, L_x=L, order=8)
        with pytest.raises(error):
            ax = quadrature.build_axis(kappa[0], L, 1, 8)
            cdt_engine._axis_mats(ax, ax)
    assert cdt_engine._axis_mats.cache_info().currsize == 0


# -- linearity and operator structure --------------------------------------


def test_forward_is_linear(sig02, ms_std, plan_std):
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: np.exp(-(x1**2 + x2**2)),
        2: lambda x1, x2: x1 * np.exp(-(x1**2 + x2**2)),
    })
    g = AnalyticField(sig02, ms_std, {
        1: lambda x1, x2: np.exp(-2.0 * (x1**2 + x2**2)),
        3: lambda x1, x2: x2 * np.exp(-(x1**2 + x2**2)),
    })
    vf = f.sample(plan_std.grid_x)
    vg = g.sample(plan_std.grid_x)
    combo = SampledField(sig02, ms_std, plan_std.grid_x, 2.0 * vf - 0.25 * vg)
    got = forward(combo, plan_std).values
    want = 2.0 * forward(f, plan_std).values - 0.25 * forward(g, plan_std).values
    assert np.max(np.abs(got - want)) <= 1e-12


def test_transform_matches_multivector_loop(sig02, ms_std, unit_a, unit_b):
    # literal sum_x w(x) E_p(x1,-a y1) f(x) E_q(x2,-b y2), multivector
    # arithmetic throughout; same nodes, so machine agreement
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=5.0, L_y=5.0, order=16)
    f = AnalyticField(sig02, ms_std, {
        m: (lambda m: lambda x1, x2: (0.4 + 0.2 * m + x1) * np.exp(-(x1**2 + x2**2)))(m)
        for m in range(4)
    })
    F = forward(f, plan)
    vals = f.sample(plan.grid_x)
    w = plan.grid_x.total_weights().reshape(plan.grid_x.shape)
    n1, n2 = plan.grid_x.shape
    for j1, j2 in ((3, 11), (20, 26), (31, 2)):
        y1 = plan.grid_y.axes[0].nodes[j1]
        y2 = plan.grid_y.axes[1].nodes[j2]
        acc = np.zeros(sig02.n_blades)
        for i1 in range(n1):
            Ep = eval_kernel_block(plan.tables[:1], (plan.grid_x.axes[0].nodes[i1],), (y1,), plan.a)
            for i2 in range(n2):
                Eq = eval_kernel_block(plan.tables[1:], (plan.grid_x.axes[1].nodes[i2],), (y2,), plan.b)
                acc += w[i1, i2] * (Ep * MultiVector(sig02, vals[i1, i2]) * Eq).coeff
        assert np.max(np.abs(acc - F.values[j1, j2])) <= 1e-12


def _assert_blade_matrices_match_loop(sig, a, b):
    assert np.array_equal(cdt_engine._blade_matrices(sig, a, b), assembly_matrix(sig, a, b)), (a, b)


@pytest.mark.parametrize("p,q", [(p, d - p) for d in range(1, 5) for p in range(d + 1)
                                 if (p, d) != (1, 1)])  # Cl(1,0) has no root of -1
def test_blade_matrices_equal_the_multivector_loop(p, q):
    # bit for bit, every pair of blade units that square to -1
    sig = Signature(p, q)
    blades = [MultiVector.blade(sig, mask) for mask in range(sig.n_blades)]
    units = [u for u in blades if u * u == MultiVector.scalar(sig, -1.0)]
    assert units
    for a, b in itertools.product(units, repeat=2):
        _assert_blade_matrices_match_loop(sig, a, b)


@pytest.mark.parametrize("a,b", [
    ([("e1", 0.6), ("e2", 0.8)], [("e12", 0.6), ("e123", 0.8)]),
    ([("e12", 0.6), ("e123", 0.8)], [("e1", 0.6), ("e2", 0.8)]),
    ([("e1", 0.6), ("e2", 0.8)], [("e12", 0.6), ("e13", 0.8)]),
])
def test_blade_matrices_equal_the_multivector_loop_off_the_blades(a, b):
    # 0.6 e12 + 0.8 e123 squares to 0.28 - 0.96 e3 in Cl(0,3); the matrices
    # are products all the same, so it is compared with the true root
    # 0.6 e12 + 0.8 e13 beside it
    sig = Signature(0, 3)
    a, b = (sum((c * MultiVector.blade(sig, lab) for lab, c in u), 0.0) for u in (a, b))
    _assert_blade_matrices_match_loop(sig, a, b)


@pytest.mark.parametrize("q,split", [(3, 1), (3, 2), (4, 2)])
@pytest.mark.parametrize("transform", ["two", "inverse"])
def test_multi_axis_blocks_match_multivector_loop(q, split, transform):
    # several coordinates per block, so powers u^k with k >= 2 (the sign
    # (-1)^floor(k/2)) occur; literal sums in multivector arithmetic on the
    # plan's own nodes, including the inverse with conjugated kernels
    sig = Signature(0, q)
    ms = MultiplicitySplit((0.3, 0.7, 0.5, 0.2)[:q], split)
    a = _unit(sig, [("e1", 0.6), ("e12", 0.8)])
    b = _unit(sig, [("e23", 1.0)])
    plan = build_plan(sig, ms, a, b, L_x=4.0, L_y=3.5, order=3)
    coef = np.random.default_rng(q + split).uniform(-1.0, 1.0, (sig.n_blades, q))
    f = AnalyticField(sig, ms, {
        m: (lambda c: lambda *X: math.prod(cj + xj for cj, xj in zip(c, X))
            * np.exp(-sum(x * x for x in X)))(coef[m])
        for m in range(sig.n_blades)
    })
    src, dst = (plan.grid_y, plan.grid_x) if transform == "inverse" else (plan.grid_x, plan.grid_y)
    if transform == "inverse":
        got = inverse(f, plan)
        c = mehta_constant(ms.kappa_p) * mehta_constant(ms.kappa_q)
        scale = c * c
    else:
        got = forward(f, plan)
        scale = 1.0
    vals = f.sample(src)
    w = src.total_weights().reshape(src.shape)
    rng = np.random.default_rng(7)
    for out_idx in (tuple(rng.integers(0, n) for n in dst.shape) for _ in range(3)):
        yv = [ax.nodes[i] for ax, i in zip(dst.axes, out_idx)]

        def block(lo, hi, unit, idx):
            xv = [src.axes[j].nodes[i] for j, i in zip(range(lo, hi), idx)]
            return eval_kernel_block(plan.tables[lo:hi], xv, yv[lo:hi], unit,
                                     conj=transform == "inverse")

        eps = {i: block(0, split, plan.a, i) for i in np.ndindex(*src.shape[:split])}
        eqs = {i: block(split, q, plan.b, i) for i in np.ndindex(*src.shape[split:])}
        acc = np.zeros(sig.n_blades)
        for idx in np.ndindex(*src.shape):
            Ep, Eq = eps[idx[:split]], eqs[idx[split:]]
            acc += w[idx] * (Ep * MultiVector(sig, vals[idx]) * Eq).coeff
        assert np.max(np.abs(scale * acc - got.values[out_idx])) <= 1e-12


# -- Gaussian images --------------------------------------------------------


@pytest.mark.parametrize("delta", [0.5, 1.0])
@pytest.mark.parametrize("mode", ["raw", "mehta"])
def test_gaussian_maps_to_gaussian(sig02, ms_std, unit_a, unit_b, delta, mode):
    # e^{-delta |x|^2} -> const e^{-|y|^2/(4 delta)}; the raw constant carries
    # the inverse normalization factor, the mehta constant drops it
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.5, L_y=6.5, normalization=mode)
    F = forward(gaussian_field(sig02, ms_std, delta=delta), plan)
    cp = mehta_constant(ms_std.kappa_p)
    cq = mehta_constant(ms_std.kappa_q)
    const = (2.0 * delta) ** -(ms_std.gamma + ms_std.d / 2.0)
    if mode == "raw":
        const /= cp * cq
    y1, y2 = plan.grid_y.coords()
    want = _scalar_sampled(plan.grid_y, sig02, ms_std,
                           const * np.exp(-(y1**2 + y2**2) / (4.0 * delta)))
    assert rel_l2_error(F, want) <= 1e-12


def test_mehta_mode_fixes_the_bi_gaussian(sig02, ms_std, unit_a, unit_b):
    # delta = 1/2: e^{-|x|^2/2} is invariant under the normalized transform
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.5, L_y=8.5,
                      normalization="mehta")
    F = forward(gaussian_field(sig02, ms_std, delta=0.5), plan)
    y1, y2 = plan.grid_y.coords()
    want = _scalar_sampled(plan.grid_y, sig02, ms_std, np.exp(-(y1**2 + y2**2) / 2.0))
    assert rel_l2_error(F, want) <= 1e-12


def test_kappa_zero_gaussian_is_classical(sig02, ms00, plan00):
    # kappa = 0 collapses to the plane-wave transform: integral of
    # e^{-|x|^2} e^{-i x.y} dx = pi e^{-|y|^2/4}
    F = forward(gaussian_field(sig02, ms00), plan00)
    y1, y2 = plan00.grid_y.coords()
    want = _scalar_sampled(plan00.grid_y, sig02, ms00,
                           np.pi * np.exp(-(y1**2 + y2**2) / 4.0))
    assert rel_l2_error(F, want) <= 1e-12


def test_kappa_zero_matches_riemann_fourier_sums(sig02, ms00, unit_a, unit_b):
    # four real integrals (cc, sc, cs, ss) by midpoint sums on a uniform
    # grid: a quadrature-independent oracle for the kappa = 0 reduction.
    # The same expansion must hold for non-pure units: only the span{1, u}
    # algebra enters, so coefficients sit along 1, a, b, ab.
    pairs = [
        (_unit(sig02, [("e1", 1.0)]), _unit(sig02, [("e2", 1.0)])),
        (_unit(sig02, [("e1", 0.6), ("e12", 0.8)]),
         _unit(sig02, [("e2", 0.8), ("e12", 0.6)])),
    ]
    f = AnalyticField(sig02, ms00, {
        0: lambda x1, x2: (1.0 + x1 * x1) * np.exp(-(x1**2 + x2**2)),
    })
    L, N = 7.0, 600
    xs = -L + (2.0 * L / N) * (np.arange(N) + 0.5)
    dx = 2.0 * L / N
    fx = (1.0 + xs[:, None] ** 2) * np.exp(-(xs[:, None] ** 2 + xs[None, :] ** 2))
    one = MultiVector.scalar(sig02, 1.0)
    for ua, ub in pairs:
        plan = build_plan(sig02, ms00, ua, ub, L_x=6.0, L_y=6.0)
        F = forward(f, plan)
        for j1, j2 in ((30, 61), (5, 90), (48, 48)):
            y1 = plan.grid_y.axes[0].nodes[j1]
            y2 = plan.grid_y.axes[1].nodes[j2]
            c1, s1 = np.cos(xs * y1), np.sin(xs * y1)
            c2, s2 = np.cos(xs * y2), np.sin(xs * y2)
            cc = dx * dx * np.einsum("ij,i,j->", fx, c1, c2)
            sc = dx * dx * np.einsum("ij,i,j->", fx, s1, c2)
            cs = dx * dx * np.einsum("ij,i,j->", fx, c1, s2)
            ss = dx * dx * np.einsum("ij,i,j->", fx, s1, s2)
            want = cc * one + (-sc) * ua.value + (-cs) * ub.value + ss * (ua.value * ub.value)
            assert np.max(np.abs(F.values[j1, j2] - want.coeff)) <= 1e-8


# -- inversion --------------------------------------------------------------


@pytest.mark.parametrize("mode", ["raw", "mehta"])
@pytest.mark.parametrize("blades", [(0,), (0, 1, 2, 3)])
def test_roundtrip_recovers_the_field(sig02, ms_std, unit_a, unit_b, mode, blades):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=9.0,
                      normalization=mode)
    if blades == (0,):
        f = AnalyticField(sig02, ms_std, {
            0: lambda x1, x2: (1.0 + x1 * x1) * np.exp(-(x1**2 + x2**2)),
        })
    else:
        f = gaussian_field(sig02, ms_std, blades=blades)
    ref = _sampled(f, plan.grid_x, sig02, ms_std)
    assert rel_l2_error(inverse(forward(f, plan), plan), ref) <= 1e-6


def test_roundtrip_error_drops_with_order(sig02, ms_std, unit_a, unit_b):
    f = gaussian_field(sig02, ms_std)
    errs = []
    for order in (12, 24, 48):
        plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=9.0, order=order)
        ref = _sampled(f, plan.grid_x, sig02, ms_std)
        errs.append(rel_l2_error(inverse(forward(f, plan), plan), ref))
    assert errs[2] <= 1e-6
    assert errs[2] < errs[0]


# -- Plancherel --------------------------------------------------------------


def test_plancherel_ratio_is_field_independent(sig02, ms_std, plan_std):
    fields = [
        gaussian_field(sig02, ms_std),
        gaussian_field(sig02, ms_std, delta=0.5),
        gaussian_field(sig02, ms_std, blades=(0, 1, 2, 3)),
        AnalyticField(sig02, ms_std, {
            0: lambda x1, x2: (1.0 + x1 * x1) * np.exp(-(x1**2 + x2**2)),
        }),
        AnalyticField(sig02, ms_std, {
            3: lambda x1, x2: x2 * np.exp(-(x1**2 + x2**2)),
        }),
    ]
    ratios = [plancherel_ratio(f, plan_std).measured_value for f in fields]
    assert (max(ratios) - min(ratios)) / ratios[0] <= 1e-10


def test_plancherel_raw_constant_and_flag(sig02, ms_std, plan_std):
    # measured constant is c_p^-2 c_q^-2; the asserted one differs, so the
    # report must flag while keeping the measurement
    report = plancherel_ratio(gaussian_field(sig02, ms_std), plan_std)
    cp = mehta_constant(ms_std.kappa_p)
    cq = mehta_constant(ms_std.kappa_q)
    assert abs(report.measured_value * (cp * cq) ** 2 - 1.0) <= 1e-10
    assert report.claim == "plancherel-constant"
    assert report.status == "flagged"


def test_plancherel_mehta_is_unitary(sig02, ms_std, plan_std_mehta):
    ratio = plancherel_ratio(gaussian_field(sig02, ms_std), plan_std_mehta).measured_value
    assert abs(ratio - 1.0) <= 1e-10


def test_plancherel_kappa_zero_gives_two_pi_squared(sig02, ms00, unit_a, unit_b):
    # wider box: the image Gaussian decays like e^{-|y|^2/4}
    plan = build_plan(sig02, ms00, unit_a, unit_b, L_x=7.0, L_y=7.0)
    ratio = plancherel_ratio(gaussian_field(sig02, ms00), plan).measured_value
    assert abs(ratio / (2.0 * np.pi) ** 2 - 1.0) <= 1e-9


def test_plancherel_rejects_zero_field(sig02, ms_std, plan_std):
    zero = AnalyticField(sig02, ms_std, {0: lambda x1, x2: 0.0 * x1})
    with pytest.raises(ZeroNormField):
        plancherel_ratio(zero, plan_std)


# -- Hermite eigenfunctions ------------------------------------------------


@pytest.mark.parametrize("v,u", [((0,), (0,)), ((1,), (0,)), ((0,), (2,))])
def test_eigencheck_raw_eigenvalue(ms_std, plan_std, v, u):
    # measured lambda = c_p^-1 c_q^-1 in raw mode, independent of the level;
    # it disagrees with the asserted block constant, hence flagged
    report = eigencheck(v, u, plan_std)
    lam = 1.0 / (mehta_constant(ms_std.kappa_p) * mehta_constant(ms_std.kappa_q))
    assert abs(report.measured_value / lam - 1.0) <= 1e-9
    assert report.status == "flagged"
    assert report.claim == f"eigenvalue-v{v[0]}-u{u[0]}"


def test_eigencheck_mehta_eigenvalue_is_one(plan_std_mehta):
    report = eigencheck((1,), (1,), plan_std_mehta)
    assert abs(report.measured_value - 1.0) <= 1e-9
    # a fit whose eigenvalue is the asserted one passes, unless its shape
    # or its unit residual exceeds rtol
    fit = {"lambda": report.paper_value, "shape_residual": 0.0, "unit_residual": 0.0}
    assert cdt_engine._eigen_report((1,), (1,), fit, plan_std_mehta).status == "pass"
    for key in ("shape_residual", "unit_residual"):
        bad = dict(fit, **{key: 2.0 * plan_std_mehta.rtol})
        assert cdt_engine._eigen_report((1,), (1,), bad, plan_std_mehta).status == "flagged"


def test_eigencheck_rejects_bad_indices(plan_std):
    with pytest.raises(ValueError):
        eigencheck((5,), (4,), plan_std)  # level > 8
    with pytest.raises(ValueError):
        eigencheck((1, 1), (0,), plan_std)  # wrong block lengths
    with pytest.raises(ValueError, match=">= 0"):
        eigencheck((-1,), (0,), plan_std)  # negative index, once read as h_0


# -- translation --------------------------------------------------------------


def test_translation_by_zero_is_identity(sig02, ms_std, plan_std):
    f = gaussian_field(sig02, ms_std)
    ref = _sampled(f, plan_std.grid_x, sig02, ms_std)
    got = translate_spectral(f, (0.0, 0.0), plan_std)
    assert rel_l2_error(got, ref) <= 1e-6


def test_translation_spectral_matches_explicit_rank_one(sig02):
    # d = 1, q-block only: the spectral operator against the literal
    # one-dimensional integral formula
    sig = Signature(0, 1)
    ms = MultiplicitySplit((0.5,), 0)
    e1 = _unit(sig, [("e1", 1.0)])
    plan = build_plan(sig, ms, e1, e1, L_x=7.0, L_y=9.0)
    f = AnalyticField(sig, ms, {0: lambda x1: np.exp(-x1**2)})
    spec = translate_spectral(f, (0.7,), plan)
    expl = _sampled(translate_explicit(f, (0.7,), ms), plan.grid_x, sig, ms)
    assert rel_l2_error(spec, expl) <= 1e-7


@pytest.mark.parametrize("kappa", [(0.5, 0.5), (0.0, 0.5)])
def test_translation_spectral_matches_explicit_d2(sig02, unit_a, unit_b, kappa):
    ms = MultiplicitySplit(kappa, 1)
    plan = build_plan(sig02, ms, unit_a, unit_b, L_x=6.5, L_y=9.0)
    f = gaussian_field(sig02, ms)
    spec = translate_spectral(f, (0.6, -0.4), plan)
    expl = _sampled(translate_explicit(f, (0.6, -0.4), ms), plan.grid_x, sig02, ms)
    assert rel_l2_error(spec, expl) <= 1e-7


def test_translation_kappa_zero_is_the_classical_shift(sig02, ms00, unit_a, unit_b):
    plan = build_plan(sig02, ms00, unit_a, unit_b, L_x=6.5, L_y=9.0)
    f = gaussian_field(sig02, ms00)
    got = translate_spectral(f, (0.6, -0.4), plan)
    x1, x2 = plan.grid_x.coords()
    want = _scalar_sampled(plan.grid_x, sig02, ms00,
                           np.exp(-((x1 - 0.6) ** 2 + (x2 + 0.4) ** 2)))
    assert rel_l2_error(got, want) <= 1e-7


def test_translated_gaussian_closed_form(sig02, ms_std, unit_a, unit_b):
    # tau_z e^{-|x|^2} = e^{-|x|^2 - |z|^2} prod_j E_kj(2 x_j z_j) with the
    # real one-dimensional kernel E_k(t) = 0F1(k+1/2; t^2/4)
    #                                    + t/(2k+1) 0F1(k+3/2; t^2/4);
    # in particular the result stays scalar-valued
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=9.0)
    z = (0.6, -0.4)
    tau = translate_spectral(gaussian_field(sig02, ms_std), z, plan)

    def e_real(kap, s):
        A = mpmath.hyp0f1(kap + 0.5, (s * s) / 4.0)
        B = s / (2.0 * kap + 1.0) * mpmath.hyp0f1(kap + 1.5, (s * s) / 4.0)
        return float(A + B)

    x1, x2 = plan.grid_x.coords()
    E1 = np.vectorize(lambda s: e_real(ms_std.kappa[0], s))(2.0 * x1 * z[0])
    E2 = np.vectorize(lambda s: e_real(ms_std.kappa[1], s))(2.0 * x2 * z[1])
    want = np.exp(-(x1**2 + x2**2) - (z[0] ** 2 + z[1] ** 2)) * E1 * E2
    assert np.max(np.abs(tau.values[..., 0] - want)) <= 1e-7
    assert np.max(np.abs(tau.values[..., 1:])) <= 1e-12


def test_translation_is_an_l2_contraction(sig02, ms_std, unit_a, unit_b):
    # the spectral multiplier has modulus <= 1, so mehta-normalized
    # translation cannot grow the weighted norm
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.5, L_y=9.0,
                      normalization="mehta")
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: (1.0 + x2 * x2) * np.exp(-(x1**2 + x2**2)),
    })
    base = _sampled(f, plan.grid_x, sig02, ms_std).norm2()
    moved = translate_spectral(f, (0.6, -0.4), plan).norm2()
    assert moved <= base * (1.0 + 1e-6)


def test_translation_rejects_out_of_radius_z(sig02, ms_std, unit_a, unit_b):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=4.0, L_y=4.0)
    with pytest.raises(ArgumentOutOfRadius):
        translate_spectral(gaussian_field(sig02, ms_std), (5.0, 0.0), plan)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_translation_rejects_a_non_finite_z(sig02, ms_std, plan_std, bad):
    f = gaussian_field(sig02, ms_std)
    with pytest.raises(ValueError, match="finite"):
        translate_spectral(f, (bad, 0.0), plan_std)
    with pytest.raises(ValueError, match="finite"):
        translate_explicit(f, (0.0, bad), ms_std)


def test_translate_explicit_needs_an_analytic_field(sig02, ms_std, plan_std):
    f = _sampled(gaussian_field(sig02, ms_std), plan_std.grid_x, sig02, ms_std)
    with pytest.raises(TypeError):
        translate_explicit(f, (0.1, 0.1), ms_std)
    with pytest.raises(ValueError):
        translate_explicit(gaussian_field(sig02, ms_std), (0.1,), ms_std)
    with pytest.raises(PlanMismatch, match="multiplicities"):
        translate_explicit(gaussian_field(sig02, ms_std), (0.1, 0.1), MultiplicitySplit((0.5, 0.5), 1))


# -- convolution --------------------------------------------------------------


def test_convolution_matches_the_literal_double_integral(sig02, ms_std, unit_a, unit_b):
    # sum over z nodes of w(z) f(z) (tau_z g)(x), multivector product per
    # node: the defining formula, evaluated without the Fubini rearrangement
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=5.0, L_y=5.0, order=12)
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: np.exp(-(x1**2 + x2**2)),
        3: lambda x1, x2: 0.5 * x1 * np.exp(-(x1**2 + x2**2)),
    })
    g = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: np.exp(-1.3 * (x1**2 + x2**2)),
        1: lambda x1, x2: 0.3 * x2 * np.exp(-1.3 * (x1**2 + x2**2)),
    })
    got = convolve(f, g, plan)
    S = structure_tensor(sig02)
    fs = f.sample(plan.grid_x)
    w = plan.grid_x.total_weights().reshape(plan.grid_x.shape)
    acc = np.zeros(plan.grid_x.shape + (sig02.n_blades,))
    n1, n2 = plan.grid_x.shape
    for i1 in range(n1):
        for i2 in range(n2):
            z = (plan.grid_x.axes[0].nodes[i1], plan.grid_x.axes[1].nodes[i2])
            tg = translate_spectral(g, z, plan)
            acc += w[i1, i2] * np.einsum("i,...j,ijk->...k", fs[i1, i2], tg.values, S)
    ref = SampledField(sig02, ms_std, plan.grid_x, acc)
    assert rel_l2_error(got, ref) <= 1e-12


def test_convolution_kappa_zero_closed_form(sig02, ms00, unit_a, unit_b):
    # classical limit: e^{-|x|^2} * e^{-|x|^2} = (pi/2) e^{-|x|^2/2}
    plan = build_plan(sig02, ms00, unit_a, unit_b, L_x=7.0, L_y=7.0)
    g = gaussian_field(sig02, ms00)
    got = convolve(g, g, plan)
    x1, x2 = plan.grid_x.coords()
    want = _scalar_sampled(plan.grid_x, sig02, ms00,
                           (np.pi / 2.0) * np.exp(-(x1**2 + x2**2) / 2.0))
    assert rel_l2_error(got, want) <= 1e-9


def test_convolution_is_bilinear_in_the_left_slot(sig02, ms_std, unit_a, unit_b):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=5.0, L_y=5.0, order=12)
    f1 = gaussian_field(sig02, ms_std)
    f2 = gaussian_field(sig02, ms_std, delta=0.7, blades=(1,))
    g = gaussian_field(sig02, ms_std, delta=1.3)
    v1 = f1.sample(plan.grid_x)
    v2 = f2.sample(plan.grid_x)
    combo = SampledField(sig02, ms_std, plan.grid_x, 1.5 * v1 - 2.0 * v2)
    got = convolve(combo, g, plan).values
    want = 1.5 * convolve(f1, g, plan).values - 2.0 * convolve(f2, g, plan).values
    assert np.max(np.abs(got - want)) <= 1e-12


# -- constants ------------------------------------------------------------------


def test_mehta_plan_evaluates_its_constant_at_most_once(sig02, ms_std, unit_a, unit_b,
                                                       monkeypatch):
    import cliffdunkl.cdt_engine as engine

    calls = []
    real = engine.mehta_constant
    monkeypatch.setattr(engine, "mehta_constant", lambda k: calls.append(k) or real(k))
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=5.0, L_y=5.0, order=12,
                      normalization="mehta")
    assert calls == []  # lazy: a plan that is never used never evaluates it
    f = gaussian_field(sig02, ms_std)
    for _ in range(2):
        inverse(forward(f, plan), plan)
        translate_spectral(f, (0.3, -0.2), plan)
        convolve(f, f, plan)
    assert len(calls) <= 1


def test_forward_only_raw_plan_never_evaluates_the_mehta_constant(sig02, unit_a, unit_b):
    # mehta_constant underflows at kappa = 200 (OverflowError); a raw
    # forward transform does not need it
    ms = MultiplicitySplit((200.0, 0.5), 1)
    plan = build_plan(sig02, ms, unit_a, unit_b, L_x=4.0, L_y=4.0, order=8)
    F = forward(gaussian_field(sig02, ms), plan)
    assert np.all(np.isfinite(F.values))


def test_underflowing_constants_raise_instead_of_nan(sig02, unit_a, unit_b):
    # raw inverse: (c_p c_q)^2 underflows to 0 although c_p, c_q are normal
    ms = MultiplicitySplit((100.0, 0.5), 1)
    plan = build_plan(sig02, ms, unit_a, unit_b, L_x=4.0, L_y=4.0, order=8)
    F = forward(gaussian_field(sig02, ms), plan)
    with pytest.raises(OverflowError, match="underflows"):
        inverse(F, plan)
    # mehta plan: c_p itself underflows
    ms = MultiplicitySplit((200.0, 0.5), 1)
    plan = build_plan(sig02, ms, unit_a, unit_b, L_x=4.0, L_y=4.0, order=8,
                      normalization="mehta")
    with pytest.raises(OverflowError, match="underflows"):
        forward(gaussian_field(sig02, ms), plan)


def test_overflowing_block_constant_is_named(sig02, unit_a, unit_b):
    # c_p^-2 at kappa = 100 exceeds the float range: the error names the
    # constant and kappa instead of "(34, 'Numerical result out of range')"
    ms = MultiplicitySplit((100.0, 0.5), 1)
    plan = build_plan(sig02, ms, unit_a, unit_b, L_x=4.0, L_y=4.0, order=8)
    with pytest.raises(OverflowError, match=r"block constant .* kappa = \(100.0, 0.5\)"):
        eigencheck((0,), (0,), plan)
    # at kappa = 60 the constant is finite but its square, the Plancherel
    # constant, is not; both are checked before any transform runs
    ms = MultiplicitySplit((60.0, 0.5), 1)
    plan = build_plan(sig02, ms, unit_a, unit_b, L_x=4.0, L_y=4.0, order=8)
    with pytest.raises(OverflowError, match=r"squared block constant .* kappa = \(60.0, 0.5\)"):
        plancherel_ratio(gaussian_field(sig02, ms), plan)


def test_ledger_stops_on_the_constant_before_any_transform():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="underflows"):
            run_claims_ledger({"kappa": (100.0, 0.5)})


# -- reports and the ledger ---------------------------------------------------


def test_claim_report_json_roundtrip_is_bit_exact(sig02, ms_std, plan_std):
    rep = plancherel_ratio(gaussian_field(sig02, ms_std), plan_std)
    synthetic = ClaimReport.make("adversarial", 1e-300, 0.1 + 0.2, "dimensionless", plan_std)
    text = reports_to_json([rep, synthetic])
    back = reports_from_json(text)
    assert back == [rep, synthetic]
    assert reports_to_json(back) == text
    # shortest-repr floats survive the round trip exactly
    parsed = json.loads(text)
    assert parsed[1]["paper_value"] == 1e-300
    assert parsed[1]["measured_value"] == 0.1 + 0.2


def test_claim_report_pass_and_flag_rules(plan_std):
    assert plan_std.rtol == 1e-6
    ok = ClaimReport.make("c", 2.0, 2.0 + 1e-9, "u", plan_std)
    assert ok.status == "pass" and abs(ok.ratio - 1.0) <= 1e-6
    bad = ClaimReport.make("c", 2.0, 2.1, "u", plan_std)
    assert bad.status == "flagged"
    zero = ClaimReport.make("c", 0.0, 5e-7, "u", plan_std)
    assert zero.status == "pass" and zero.ratio is None


def test_default_ledger_flags_exactly_the_asserted_constants():
    reports = run_claims_ledger()
    assert len(reports) == 28
    flagged = {r.claim for r in reports if r.status != "pass"}
    assert flagged == {
        "gaussian-constant-raw",
        "plancherel-constant",
        "eigenvalue-v0-u0",
        "eigenvalue-v1-u0",
        "eigenvalue-v0-u2",
        "eigenvalue-v2-u1",
    }
    # every measured-vs-oracle cross-check agrees
    by_name = {r.claim: r for r in reports}
    for name in ("gaussian-constant-raw-oracle", "plancherel-vs-gaussian-oracle",
                 "eigenvalue-oracle-v0-u0", "eigenvalue-oracle-v2-u1"):
        assert by_name[name].status == "pass"
    assert by_name["plancherel-constant"].measured_value == pytest.approx(
        by_name["plancherel-vs-gaussian-oracle"].paper_value, rel=1e-12)


def test_each_ledger_claim_records_the_plan_that_measured_it():
    # rtol = 1e-7 lies below the round-trip and tau_0 errors (1.5e-7 to
    # 6.4e-7) that the default 1e-6 passes, so it moves their statuses
    default, tight = run_claims_ledger(), run_claims_ledger({"rtol": 1e-7})
    assert [r.claim for r in tight] == [r.claim for r in default]
    assert any(r.status != d.status for r, d in zip(tight, default))
    sides = {"L_x": [8.0, 8.0], "L_y": [8.0, 8.0], "panels": 1, "order": 48}
    for reports, rtol in ((default, 1e-6), (tight, 1e-7)):
        for r in reports:
            mode = "mehta" if r.claim.endswith("-mehta") else "raw"
            assert r.grid == dict(sides, nodes_per_axis=[96, 96], normalization=mode), r.claim
            assert (r.sig, r.kappa) == (str(Signature(0, 2)), (0.3, 0.7)), r.claim
            ok = (abs(r.measured_value) <= rtol if r.paper_value == 0.0
                  else abs(r.measured_value / r.paper_value - 1.0) <= rtol)
            # an eigenvalue claim is also flagged by the residuals of its fit
            assert r.status == ("pass" if ok else "flagged") or (
                r.claim.startswith("eigenvalue-v") and r.status == "flagged"), r.claim
    assert sum(r.grid["normalization"] == "mehta" for r in default) == 4


def test_ledger_accepts_config_overrides():
    reports = run_claims_ledger({"kappa": (0.0, 0.0), "order": 24, "L_x": 6.0, "L_y": 6.0})
    names = {r.claim for r in reports}
    # the explicit/spectral comparison needs kappa > 0 everywhere
    assert "translation-explicit-vs-spectral" not in names
    assert "translation-zero-identity" in names


# -- field plumbing and errors ------------------------------------------------


def test_fields_validate_their_inputs(sig02, ms_std, plan_std):
    with pytest.raises(ValueError):
        AnalyticField(sig02, ms_std, {})
    with pytest.raises(TypeError):
        AnalyticField(sig02, ms_std, {0: 3.0})
    with pytest.raises(ValueError):
        AnalyticField(sig02, ms_std, {"e9": lambda x1, x2: x1})
    with pytest.raises(ValueError, match="out of range"):
        AnalyticField(sig02, ms_std, {4: lambda x1, x2: x1})
    with pytest.raises(PlanMismatch, match="multiplicities for d=2"):
        AnalyticField(sig02, MultiplicitySplit((0.3, 0.7, 0.5), 1), {0: lambda x1, x2: x1})
    with pytest.raises(ValueError):
        SampledField(sig02, ms_std, plan_std.grid_x, np.zeros((3, 3, 4)))
    bad = AnalyticField(sig02, ms_std, {0: lambda x1, x2: np.full_like(x1, np.inf)})
    with pytest.raises(ValueError):
        bad.sample(plan_std.grid_x)


def test_plan_rejects_mismatched_pieces(sig02, ms_std, unit_a, unit_b):
    with pytest.raises(PlanMismatch):
        build_plan(sig02, MultiplicitySplit((0.3,), 0), unit_a, unit_b, L_x=4.0)
    sig3 = Signature(0, 3)
    u3 = _unit(sig3, [("e1", 1.0)])
    with pytest.raises(PlanMismatch):
        build_plan(sig02, ms_std, u3, unit_b, L_x=4.0)
    with pytest.raises(ValueError):
        build_plan(sig02, ms_std, unit_a, unit_b, L_x=4.0, normalization="unitary")
    with pytest.raises(ArgumentOutOfRadius):
        build_plan(sig02, ms_std, unit_a, unit_b, L_x=18.0, L_y=18.0)  # 324 > KERNEL_RADIUS_CAP


def test_transform_rejects_foreign_fields(sig02, ms_std, unit_a, unit_b, plan_std):
    other_ms = MultiplicitySplit((0.5, 0.5), 1)
    with pytest.raises(PlanMismatch):
        forward(gaussian_field(sig02, other_ms), plan_std)
    small = build_plan(sig02, ms_std, unit_a, unit_b, L_x=4.0, L_y=4.0, order=8)
    sampled = _sampled(gaussian_field(sig02, ms_std), small.grid_x, sig02, ms_std)
    with pytest.raises(PlanMismatch):
        forward(sampled, plan_std)
    foreign = SampledField(sig02, other_ms, plan_std.grid_x, np.zeros(plan_std.grid_x.shape + (4,)))
    with pytest.raises(PlanMismatch, match="multiplicities differ"):
        forward(foreign, plan_std)
    with pytest.raises(TypeError):
        forward(lambda x: x, plan_std)


def test_rel_l2_error_needs_a_reference_scale(sig02, ms_std, plan_std):
    zero = _scalar_sampled(plan_std.grid_x, sig02, ms_std,
                           np.zeros(plan_std.grid_x.shape))
    f = _sampled(gaussian_field(sig02, ms_std), plan_std.grid_x, sig02, ms_std)
    with pytest.raises(ZeroNormField):
        rel_l2_error(f, zero)
    with pytest.raises(PlanMismatch, match="different grids"):
        rel_l2_error(f, _sampled(gaussian_field(sig02, ms_std), build_grid(ms_std, 4.0, order=8), sig02, ms_std))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_norms_raise_instead_of_nan(sig02, ms_std, plan_std):
    # every sample is finite, but the squared norms overflow; both measures
    # used to come back NaN
    big = _scalar_sampled(plan_std.grid_x, sig02, ms_std, np.full(plan_std.grid_x.shape, 1e308))
    with pytest.raises(OverflowError, match="relative L2 error is nan"):
        rel_l2_error(SampledField(sig02, ms_std, big.grid, -big.values), big)
    with pytest.raises(OverflowError, match="Plancherel ratio is nan"):
        plancherel_ratio(big, plan_std)


# -- the fold core, sampling and result ownership ------------------------------


def _orthant_rows(n2: int, eps: int) -> np.ndarray:
    n = n2 // 2
    return np.arange(n, n2) if eps == 0 else np.arange(n - 1, -1, -1)


def _literal_fold(v: np.ndarray, d: int) -> np.ndarray:
    """X[sigma] = sum over orthants eps of (-1)^(sigma.eps) v[orthant eps]."""
    combos = list(itertools.product((0, 1), repeat=d))
    out = []
    for sigma in combos:
        acc = 0.0
        for eps in combos:
            rows = np.ix_(*(_orthant_rows(n2, e) for n2, e in zip(v.shape[:d], eps)))
            acc = acc + (-1.0) ** np.dot(sigma, eps) * v[rows]
        out.append(acc)
    return np.stack(out)


def _literal_unfold(X: np.ndarray, d: int) -> np.ndarray:
    combos = list(itertools.product((0, 1), repeat=d))
    full = tuple(2 * n for n in X.shape[1:d + 1])
    out = np.zeros(full + X.shape[d + 1:])
    for eps in combos:
        rows = np.ix_(*(_orthant_rows(n2, e) for n2, e in zip(full, eps)))
        out[rows] = sum((-1.0) ** np.dot(sigma, eps) * X[c] for c, sigma in enumerate(combos))
    return out


def _layouts(v: np.ndarray) -> dict:
    """The same values as a C-contiguous array, a blade-first view and a
    view with every stride negative."""
    return {
        "c": v,
        "blade-first": np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -1, 0)), 0, -1),
        "reversed": np.flip(np.flip(v).copy()),
    }


@pytest.mark.parametrize("shape", [(6, 2), (4, 6, 4), (2, 4, 6, 8), (4, 2, 6, 4, 16)])
def test_fold_and_unfold_match_the_literal_orthant_sums(shape):
    d = len(shape) - 1
    v = np.random.default_rng(len(shape)).standard_normal(shape)
    want = _literal_fold(v, d)
    blades = tuple(range(shape[-1])), shape[-1]  # the support and the blade count
    for name, view in _layouts(v).items():
        np.testing.assert_array_equal(view, v)
        X = _fold(view, d, _Work(2, v.size))
        assert X.shape == want.shape, name
        np.testing.assert_allclose(X, want, rtol=0, atol=1e-13, err_msg=name)
        np.testing.assert_allclose(_unfold(X, d, _Work(2, X.size), *blades), 2.0**d * v,
                                   rtol=0, atol=1e-13, err_msg=name)
    H = np.random.default_rng(7).standard_normal(want.shape)
    np.testing.assert_allclose(_unfold(H, d, _Work(2, H.size), *blades), _literal_unfold(H, d),
                               rtol=0, atol=1e-13)


def test_sample_matches_per_node_evaluation(sig02, ms_std):
    f = AnalyticField(sig02, ms_std, {
        "1": lambda x1, x2: np.exp(-x1 * x1) * x2,
        "e12": lambda x1, x2: 2.5,  # a scalar body broadcasts over the grid
    })
    grid = build_grid(ms_std, 3.0, panels=1, order=4)
    got = f.sample(grid)
    assert got.shape == grid.shape + (4,)
    for i, x1 in enumerate(grid.axes[0].nodes):
        for j, x2 in enumerate(grid.axes[1].nodes):
            assert got[i, j, 0] == pytest.approx(math.exp(-x1 * x1) * x2, rel=1e-15, abs=0)
            assert got[i, j, 3] == 2.5
    assert not got[..., 1:3].any()  # missing blades are zero


def _engine_results(sig02, ms_std, plan_std):
    f = AnalyticField(sig02, ms_std, {0: lambda x1, x2: np.exp(-x1 * x1 - x2 * x2),
                                      3: lambda x1, x2: x1 * np.exp(-x1 * x1 - x2 * x2)})
    F = forward(f, plan_std)
    return F, {
        "forward": F,
        "inverse": inverse(F, plan_std),
        "translate_spectral": translate_spectral(F, (0.3, -0.2), plan_std),
        "convolve": convolve(F, F, plan_std),
    }


def test_engine_results_are_read_only_and_own_their_memory(sig02, ms_std, plan_std):
    F, results = _engine_results(sig02, ms_std, plan_std)
    _, again = _engine_results(sig02, ms_std, plan_std)
    for name, res in results.items():
        vals = res.values
        assert not vals.flags.writeable and vals.flags.c_contiguous, name
        with pytest.raises(ValueError):
            vals[0, 0, 0] = 1.0
        # adopted without a copy, but never holding a larger buffer alive
        assert vals.base is None or vals.base.nbytes == vals.nbytes, name
        assert name == "forward" or not np.shares_memory(vals, F.values), name
        assert not np.shares_memory(vals, again[name].values), name
    for r1, r2 in itertools.combinations(results.values(), 2):
        assert not np.shares_memory(r1.values, r2.values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sampled_field_refuses_non_finite_values(sig02, ms_std, plan_std, bad):
    arr = np.zeros(plan_std.grid_x.shape + (4,))
    arr[3, 1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SampledField(sig02, ms_std, plan_std.grid_x, arr)


def test_array_holding_dataclasses_compare_and_hash_by_identity(sig02, ms_std, unit_a, unit_b):
    # the generated __eq__ and __hash__ reached the arrays: == raised
    # ValueError and hash() TypeError
    p1, p2 = (build_plan(sig02, ms_std, unit_a, unit_b, L_x=4.0, order=8) for _ in range(2))
    ax = p1.grid_x.axes[0]
    fresh = quadrature.build_axis.__wrapped__(ax.kappa, ax.L, ax.panels, ax.order)  # equal values, uncached
    assert np.array_equal(fresh.nodes, ax.nodes) and np.array_equal(fresh.weights, ax.weights)
    F = forward(gaussian_field(sig02, ms_std), p1)
    for one, other in ((p1, p2), (p1.grid_x, p2.grid_x), (ax, fresh),
                       (F, forward(gaussian_field(sig02, ms_std), p1)),
                       (gaussian_field(sig02, ms_std), gaussian_field(sig02, ms_std))):
        assert one == one and one != other
        assert {one: 1, other: 2}[one] == 1
    assert cdt_engine._same_grid(p1.grid_x, p2.grid_x)  # the value comparison stays


def test_sampled_field_copies_the_callers_array(sig02, ms_std, plan_std):
    arr = np.ones(plan_std.grid_x.shape + (4,))
    fld = SampledField(sig02, ms_std, plan_std.grid_x, arr)
    arr[...] = 7.0
    assert np.all(fld.values == 1.0)
    assert arr.flags.writeable
    # a blade-first sample is stored C-contiguous, like every other field
    sample = gaussian_field(sig02, ms_std, blades=[0, 3]).sample(plan_std.grid_x)
    assert not sample.flags.c_contiguous
    assert SampledField(sig02, ms_std, plan_std.grid_x, sample).values.flags.c_contiguous


@pytest.mark.parametrize("p, q, kappa, order", [(0, 3, (0.3, 0.7, 0.5), 16),
                                                (0, 2, (0.3, 0.7), 64)], ids=["d3", "d2"])
def test_transform_memory_stays_within_two_work_buffers(p, q, kappa, order):
    # NODE_CAP bounds a field; these multiples of it bound each operation.
    # forward of an analytic field holds the samples plus two work buffers,
    # inverse of a sampled field the two buffers only; translation adds its
    # delta_z classes (1/2^d of a field) and convolution f's classes and the
    # two class-product arrays; the slack covers the plan-sized half
    # matrices, which broadcast over the classes, and arrays of a few kB
    sig = Signature(p, q)
    ms = MultiplicitySplit(kappa, 1)
    a = validate_imaginary(MultiVector.blade(sig, "e1"), "e1")
    b = validate_imaginary(MultiVector.blade(sig, "e2"), "e2")
    plan = build_plan(sig, ms, a, b, L_x=5.0, L_y=5.0, order=order)
    f = gaussian_field(sig, ms, blades=range(sig.n_blades))
    F = forward(f, plan)
    field_bytes = F.values.nbytes
    slack = 128 * 1024
    for run, budget in ((lambda: forward(f, plan), 3), (lambda: inverse(F, plan), 2),
                        (lambda: translate_spectral(f, (0.4, -0.3, 0.2)[:sig.d], plan), 4),
                        (lambda: convolve(f, f, plan), 6)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * field_bytes + slack, (peak, field_bytes)


@pytest.mark.parametrize("kappa", [1e-17, 1e-300])
def test_float_zero_kappa_transforms_like_kappa_zero(sig02, unit_a, unit_b, kappa):
    # kappa - 1 == -1 in float64: the kernel is the kappa = 0 kernel and
    # explicit translation is the plain shift
    f = AnalyticField(sig02, MultiplicitySplit((kappa, 0.5), 1),
                      {0: lambda x1, x2: (1.0 + x1) * np.exp(-x1 * x1 - 0.5 * x2 * x2)})
    outs = []
    for k in (kappa, 0.0):
        ms = MultiplicitySplit((k, 0.5), 1)
        fk = AnalyticField(sig02, ms, f.blades)
        plan = build_plan(sig02, ms, unit_a, unit_b, L_x=6.0, L_y=6.0, order=24,
                          normalization="mehta")
        F = forward(fk, plan)
        back = inverse(F, plan)
        assert rel_l2_error(back, _sampled(fk, plan.grid_x, sig02, ms)) < 1e-3
        moved = translate_at_order(fk, (0.6, -0.4), ms, 24)
        outs.append((F.values, back.values, moved.sample(plan.grid_x)))
    for got, want in zip(*outs):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # kappa_1 -> 0 leaves the classical shift on axis 1 exactly
    X1 = np.array([0.3, -1.2, 0.6])
    moved = translate_explicit(AnalyticField(sig02, MultiplicitySplit((kappa, kappa), 1),
                                             {0: lambda x1, x2: x1 + 0.0 * x2}), (0.6, -0.4),
                               MultiplicitySplit((kappa, kappa), 1))
    np.testing.assert_array_equal(moved.blades[0](X1, np.zeros(3)), X1 - 0.6)


@pytest.mark.parametrize("rtol", [float("nan"), float("inf"), 0.0, -1e-6])
def test_plan_and_ledger_reject_a_bad_rtol(sig02, ms_std, unit_a, unit_b, rtol):
    with pytest.raises(ValueError, match="rtol"):
        build_plan(sig02, ms_std, unit_a, unit_b, L_x=4.0, rtol=rtol)
    with pytest.raises(ValueError, match="rtol"):
        run_claims_ledger({"rtol": rtol})


# -- concurrent sampling -------------------------------------------------------
#
# Fields of 2^20 values or more sample their blades on the calling thread and
# threads started for the call; the tests force that path on small grids by
# lowering the threshold and dealing the blades out to two shares.


def _force_pool(monkeypatch):
    monkeypatch.setattr(cdt_engine, "_PARALLEL_MIN", 1)
    monkeypatch.setattr(cdt_engine, "_usable_cpus", lambda: 2)


@pytest.fixture
def pooled(monkeypatch):
    _force_pool(monkeypatch)


def _cl0(d):
    sig = Signature(0, d)
    ms = MultiplicitySplit((0.3, 0.7, 0.5, 0.2)[:d], d // 2)
    a, b = (validate_imaginary(MultiVector.blade(sig, e), e) for e in ("e1", "e2"))
    return sig, ms, a, b


def _seeded_bodies(d, masks, seed, threads):
    """Per mask, a seeded quadratic times a Gaussian that records the name
    of the thread it runs on."""
    rng = np.random.default_rng(seed)
    bodies = {}
    for mask in masks:
        c, s = rng.uniform(-1.0, 1.0, 1 + 2 * d), rng.uniform(0.4, 1.0)

        def body(*X, c=c, s=s):
            threads.append(threading.current_thread().name)
            poly = c[0] + sum(c[1 + j] * X[j] + c[1 + d + j] * X[j] * X[j] for j in range(d))
            return poly * np.exp(-s * sum(x * x for x in X))

        bodies[mask] = body
    return bodies


def _all_transforms(d, threads):
    sig, ms, a, b = _cl0(d)
    plan = build_plan(sig, ms, a, b, L_x=4.0, L_y=4.0, order={2: 8, 3: 4, 4: 3}[d])
    masks = [m for m in range(sig.n_blades) if m % 3 != 1]  # some blades absent
    f = AnalyticField(sig, ms, _seeded_bodies(d, masks, d, threads))
    g = AnalyticField(sig, ms, _seeded_bodies(d, masks[::-1], 10 + d, threads))
    F = forward(f, plan)
    return {
        "forward": F.values,
        "inverse-forward": inverse(F, plan).values,
        "translate_spectral": translate_spectral(f, (0.3, -0.2, 0.1, 0.4)[:d], plan).values,
        "convolve": convolve(f, g, plan).values,
    }


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pool_path_is_bit_identical_to_the_serial_path(d, monkeypatch):
    serial_threads, pool_threads = [], []
    serial = _all_transforms(d, serial_threads)
    _force_pool(monkeypatch)
    pool = _all_transforms(d, pool_threads)
    for name, want in serial.items():
        assert pool[name].tobytes() == want.tobytes(), name
    assert set(serial_threads) == {threading.current_thread().name}
    assert any(t.startswith("cliffdunkl") for t in pool_threads)


def test_pool_path_calls_every_body_once(pooled):
    sig, ms, _, _ = _cl0(3)
    grid = build_grid(ms, 3.0, panels=1, order=3)
    calls = []
    f = AnalyticField(sig, ms, {m: (lambda *X, m=m: calls.append(m) or X[0] * m)
                                for m in range(sig.n_blades)})
    for _ in range(3):
        calls.clear()
        f.sample(grid)
        assert sorted(calls) == list(range(sig.n_blades))


def test_no_sampling_thread_outlives_the_call(pooled, monkeypatch):
    # every thread lingers after its last item, as on a loaded machine: only
    # joining the threads inside the call leaves none of them behind
    class Lingering(threading.Thread):
        def run(self):
            super().run()
            time.sleep(0.2)

    monkeypatch.setattr(threading, "Thread", Lingering)
    sig, ms, _, _ = _cl0(3)
    grid = build_grid(ms, 3.0, panels=1, order=4)
    where = []
    f = AnalyticField(sig, ms, _seeded_bodies(3, range(8), 7, where))
    for _ in range(3):
        f.sample(grid)
        assert not [t.name for t in threading.enumerate() if t.name.startswith("cliffdunkl")]
    assert any(t.startswith("cliffdunkl") for t in where)


def _sample_error(body):
    """The message of the ValueError that sampling raises with `body` at
    blade e1, and the threads that body ran on."""
    sig, ms, _, _ = _cl0(2)
    grid = build_grid(ms, 3.0, panels=1, order=3)
    where = []

    def e1(*X):  # the second of three blades: dealt to the pool's share
        where.append(threading.current_thread().name)
        return body(*X)

    f = AnalyticField(sig, ms, {0: lambda *X: X[0] * X[1], 1: e1, 3: lambda *X: 1.0})
    with pytest.raises(ValueError) as info:
        f.sample(grid)
    return str(info.value), where


@pytest.mark.parametrize("body", [
    lambda x1, x2: np.zeros(5),
    lambda x1, x2: np.full_like(x1 * x2, np.inf),
    lambda x1, x2: np.exp(1j * x1),
], ids=["broadcast", "non-finite", "complex"])
def test_errors_on_pool_threads_reach_the_caller_unchanged(body, monkeypatch):
    serial, _ = _sample_error(body)
    _force_pool(monkeypatch)
    pooled, where = _sample_error(body)
    assert pooled == serial
    assert where and where[0].startswith("cliffdunkl")


def test_a_body_that_samples_a_large_field_completes(pooled):
    # the worker's share samples a large field again, on threads of its own
    sig, ms, _, _ = _cl0(2)
    grid = build_grid(ms, 3.0, panels=1, order=4)
    inner = gaussian_field(sig, ms, blades=range(4))
    f = AnalyticField(sig, ms, {m: (lambda *X, m=m: inner.sample(grid)[..., m])
                                for m in range(4)})
    got = []
    worker = threading.Thread(target=lambda: got.append(f.sample(grid)), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "nested sampling deadlocked"
    np.testing.assert_array_equal(got[0], inner.sample(grid))


def test_concurrent_callers_get_serial_results(pooled):
    sig, ms, _, _ = _cl0(3)
    grid = build_grid(ms, 3.0, panels=1, order=4)
    f = AnalyticField(sig, ms, _seeded_bodies(3, range(8), 5, []))
    want = f.sample(grid).tobytes()
    got, start = [], threading.Barrier(8)

    def call():
        start.wait()
        got.extend(f.sample(grid).tobytes() for _ in range(5))

    callers = [threading.Thread(target=call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(got) == 40 and all(g == want for g in got)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sampling_in_a_forked_child_matches_the_parent(pooled):
    sig, ms, _, _ = _cl0(3)
    grid = build_grid(ms, 3.0, panels=1, order=4)
    f = gaussian_field(sig, ms, blades=range(8))
    want = hashlib.sha256(f.sample(grid).tobytes()).hexdigest()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports its digest and leaves without running pytest's exit
        status = 1
        try:
            os.write(wfd, hashlib.sha256(f.sample(grid).tobytes()).hexdigest().encode())
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    got = None
    try:
        ready = select.select([rfd], [], [], 60)[0]
        got = os.read(rfd, 64).decode() if ready else None
    finally:
        os.close(rfd)
        if got is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    assert got is not None, "the forked child hung while sampling"
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert got == want


def test_small_fields_start_no_thread_and_never_import_the_pool():
    code = textwrap.dedent("""
        import sys, threading
        import numpy as np
        import cliffdunkl.cli
        from cliffdunkl import (AnalyticField, MultiVector, MultiplicitySplit, Signature,
                                build_plan, forward, inverse, run_claims_ledger,
                                validate_imaginary)
        sig, ms = Signature(0, 2), MultiplicitySplit((0.3, 0.7), 1)
        a, b = (validate_imaginary(MultiVector.blade(sig, e), e) for e in ("e1", "e2"))
        plan = build_plan(sig, ms, a, b, L_x=8.0, order=48)
        f = AnalyticField(sig, ms, {m: lambda x1, x2: np.exp(-x1 * x1 - x2 * x2)
                                    for m in range(4)})
        inverse(forward(f, plan), plan)
        run_claims_ledger()
        print("concurrent.futures" in sys.modules, threading.active_count())
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]


# -- GEMM row blocks -------------------------------------------------------------
#
# Products of more than `_BLAS_SERIAL` multiply-adds run as row blocks on the
# engine's own threads (`_matmul`), so BLAS never wakes a worker that keeps
# spinning after the call.  The tests lower the bound on small plans, so that
# the blocks take every shape a large plan gives them.


def _blocked_outputs(d, order, masks):
    """forward, inverse of it, translate_spectral and convolve of seeded fields."""
    sig, ms, a, b = _cl0(d)
    plan = build_plan(sig, ms, a, b, L_x=4.0, L_y=4.0, order=order)
    f = AnalyticField(sig, ms, _seeded_bodies(d, masks, d, []))
    g = AnalyticField(sig, ms, _seeded_bodies(d, masks[::-1], 10 + d, []))
    F = forward(f, plan)
    return [F.values, inverse(F, plan).values,
            translate_spectral(f, (0.3, -0.2, 0.1, 0.4)[:d], plan).values, convolve(f, g, plan).values]


def test_gemm_row_blocks_give_the_bits_of_whole_products(monkeypatch):
    # odd orders leave ragged edges: 81 or 125 half-grid points per blade
    blocks = []
    each = cdt_engine._each

    def spy(fn, items, shared):
        items = list(items)
        if items and isinstance(items[0], slice):
            blocks.append([s.stop - s.start for s in items])
        each(fn, items, shared)

    for d, order in ((2, 9), (3, 5), (4, 3)):
        nb = 2**d
        for masks in ([0], [0, 3], list(range(nb))):
            monkeypatch.undo()
            want = _blocked_outputs(d, order, masks)
            _force_pool(monkeypatch)
            monkeypatch.setattr(cdt_engine, "_each", spy)
            for bound in (8 * nb * nb, 8 * nb * nb + 100, 2**11, 2**14):
                monkeypatch.setattr(cdt_engine, "_BLAS_SERIAL", bound)
                got = _blocked_outputs(d, order, masks)
                for name, x, y in zip(("forward", "inverse", "translate_spectral", "convolve"), got, want):
                    assert x.tobytes() == y.tobytes(), (d, masks, bound, name)
    assert any(cut[0] == 8 for cut in blocks)  # the smallest blocks
    assert any(cut[-1] < cut[0] for cut in blocks)  # a remainder block
    assert any(cut[-1] == 9 for cut in blocks)  # a single last row joins the 8 before it
    assert all(size % 8 == 0 for cut in blocks for size in cut[:-1])


@pytest.mark.parametrize("bound", [2**12, 2**15])
def test_gemm_row_blocks_keep_the_pinned_memory_multiples(bound, monkeypatch):
    # the blocks' threads take views of the work buffers and write into them
    _force_pool(monkeypatch)
    monkeypatch.setattr(cdt_engine, "_BLAS_SERIAL", bound)
    test_transform_memory_stays_within_two_work_buffers(0, 3, (0.3, 0.7, 0.5), 16)


def _openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(cdt_engine._usable_cpus() < 2, reason="BLAS starts no worker on one CPU")
@pytest.mark.skipif(not _openblas(), reason="the spin after a threaded GEMM is OpenBLAS's")
def test_no_blas_worker_spins_after_an_operation():
    # OpenBLAS's worker busy-waits for 0.1-0.2 s after a GEMM it shared, so
    # this process used 48-52 ms of CPU time in a 50 ms sleep after each of
    # these operations when BLAS ran their GEMMs whole
    sig, ms, a, b = _cl0(3)
    plan = build_plan(sig, ms, a, b, L_x=5.0, L_y=5.0, order=32)
    f = gaussian_field(sig, ms, blades=range(sig.n_blades))
    assert plan.grid_x.n_nodes * sig.n_blades > 2**20
    held = {}
    ops = {"forward": lambda: held.setdefault("F", forward(f, plan)),
           "inverse": lambda: inverse(held["F"], plan),
           "translate_spectral": lambda: translate_spectral(f, (0.4, -0.3, 0.2), plan),
           "convolve": lambda: convolve(f, f, plan)}
    time.sleep(0.5)  # outlasts a worker that set-up woke
    for name, run in ops.items():
        run()
        cpu = time.process_time()
        time.sleep(0.05)
        assert time.process_time() - cpu < 0.01, name
