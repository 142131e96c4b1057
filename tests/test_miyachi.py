"""Trichotomy checker: classification, both ladder conditions against
closed-form oracles, and the end-to-end verdicts for the three regimes.
"""

import json
import math

import numpy as np
import pytest

from cliffdunkl.cdt_engine import AnalyticField, SampledField, build_plan, forward
from cliffdunkl.clifford_core import modulus
from cliffdunkl.dunkl_rank1 import MultiplicitySplit, mehta_constant
from cliffdunkl.miyachi import (
    MiyachiConfig,
    check_growth,
    check_log,
    classify,
    verdict,
    verdict_to_json,
)

from conftest import gaussian_field


def _weighted_volume(kappa, L):
    # integral of prod |x_j|^(2 k_j) over [-L, L]^d
    out = 1.0
    for k in kappa:
        out *= 2.0 * L ** (2.0 * k + 1.0) / (2.0 * k + 1.0)
    return out


# -- classification -----------------------------------------------------------


@pytest.mark.parametrize("alpha,beta,case", [
    (1.0, 1.0, "vanishing"),
    (1.0, 0.25, "boundary"),
    (0.5, 0.5, "boundary"),
    (1.0, 0.1, "subcritical"),
    (2.0, 0.125 + 1e-13, "boundary"),  # inside the classification tolerance
    (2.0, 0.2, "vanishing"),
])
def test_classify(alpha, beta, case):
    assert classify(alpha, beta) == case


def test_classify_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        classify(0.0, 1.0)
    with pytest.raises(ValueError):
        classify(1.0, -0.2)
    for alpha, beta in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive"):
            classify(alpha, beta)


def test_config_validation():
    cfg = MiyachiConfig(1.0, 0.25, 3.0, exponent=math.inf)
    assert cfg.ladder == (2.0, 3.0, 4.0, 5.0)
    with pytest.raises(ValueError):
        MiyachiConfig(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MiyachiConfig(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        MiyachiConfig(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        MiyachiConfig(1.0, 1.0, 1.0, exponent=0.5)
    with pytest.raises(ValueError):
        MiyachiConfig(1.0, 1.0, 1.0, exponent=math.nan)
    with pytest.raises(ValueError):
        MiyachiConfig(1.0, 1.0, 1.0, ladder=(2.0, 3.0))
    with pytest.raises(ValueError):
        MiyachiConfig(1.0, 1.0, 1.0, ladder=(2.0, 2.0, 3.0))
    for params in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
        with pytest.raises(ValueError, match="positive"):
            MiyachiConfig(*params)
    for ladder in ((1.0, 2.0, math.nan), (1.0, 2.0, math.inf), (0.0, 1.0, 2.0)):
        with pytest.raises(ValueError, match="finite and positive"):
            MiyachiConfig(1.0, 1.0, 1.0, ladder=ladder)


# -- growth condition ---------------------------------------------------------


def test_growth_same_rate_gaussian_grows_like_the_volume(sig02, ms_std):
    # |e^{alpha|x|^2} e^{-alpha|x|^2}|^2 = 1: I(L) is the weighted box volume
    f = gaussian_field(sig02, ms_std)
    rep = check_growth(f, 1.0, 2.0, (2.0, 3.0, 4.0, 5.0))
    assert rep.status == "growing"
    assert rep.name == "growth"
    for L, val in zip(rep.ladder, rep.values):
        assert val == pytest.approx(_weighted_volume(ms_std.kappa, L), rel=1e-10)


def test_growth_strictly_tighter_gaussian_is_finite(sig02, ms_std):
    # rate alpha + 1/2: the exponentials leave e^{-|x|^2}, so I(L) converges
    # to prod Gamma(k_j + 1/2)
    f = gaussian_field(sig02, ms_std, delta=1.5)
    rep = check_growth(f, 1.0, 2.0, (2.0, 3.0, 4.0, 5.0))
    assert rep.status == "finite"
    want = math.gamma(0.8) * math.gamma(1.2)
    assert rep.values[-1] == pytest.approx(want, rel=1e-8)
    assert "L^n" in rep.note


def test_growth_polynomial_times_tight_gaussian_is_finite(sig02, ms_std):
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: x1 * np.exp(-2.0 * (x1**2 + x2**2)),
    })
    rep = check_growth(f, 1.0, 2.0, (2.0, 3.0, 4.0, 5.0))
    assert rep.status == "finite"


def test_growth_zero_field_is_finite_with_zero_ladder(sig02, ms_std):
    f = AnalyticField(sig02, ms_std, {0: lambda x1, x2: 0.0 * x1})
    rep = check_growth(f, 1.0, 2.0, (2.0, 3.0, 4.0, 5.0))
    assert rep.status == "finite"
    assert rep.values == (0.0, 0.0, 0.0, 0.0)


def test_growth_sup_norm_branch(sig02, ms_std):
    # n = inf: sup over the box of 2 e^{(alpha - alpha)|x|^2} is exactly 2
    f = gaussian_field(sig02, ms_std)
    two = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: 2.0 * np.exp(-(x1**2 + x2**2)),
    })
    rep = check_growth(two, 1.0, math.inf, (2.0, 3.0, 4.0, 5.0))
    assert rep.status == "finite"
    assert "sup" in rep.note
    for val in rep.values:
        assert val == pytest.approx(2.0, rel=1e-12)
    wide = check_growth(gaussian_field(sig02, ms_std, delta=0.5), 1.0, math.inf,
                        (2.0, 3.0, 4.0, 5.0))
    assert wide.status == "growing"


@pytest.mark.parametrize("n", [2.0, math.inf])
def test_growth_overflowing_ladder_reports_growing(sig02, ms_std, n):
    # e^{2|x|^2} pushes the log integrand past the exp() guard: the rung
    # values saturate to inf, which must still read as growth
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: np.exp(np.minimum(2.0 * (x1**2 + x2**2), 700.0)),
    })
    rep = check_growth(f, 1.0, n, (12.0, 14.0, 16.0, 18.0))
    assert rep.status == "growing"
    assert math.isinf(rep.values[-1])


def test_growth_and_verdict_need_an_analytic_field(sig02, ms_std, unit_a, unit_b):
    # the growth condition samples f on every rung's grid; a sampled field
    # used to fail on the first rung as if it lived on a foreign grid
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=5.0, L_y=5.0, order=8)
    f = forward(gaussian_field(sig02, ms_std), plan)  # any SampledField
    with pytest.raises(TypeError, match="needs an analytic field"):
        check_growth(f, 1.0, 2.0, (2.0, 3.0, 4.0, 5.0))
    with pytest.raises(TypeError, match="needs an analytic field"):
        verdict(f, MiyachiConfig(1.0, 0.25, 3.0), plan)


def test_growth_rejects_bad_exponent(sig02, ms_std):
    with pytest.raises(ValueError):
        check_growth(gaussian_field(sig02, ms_std), 1.0, 0.5, (2.0, 3.0, 4.0))


@pytest.mark.parametrize("ladder", [(2.0, 3.0), (3.0, 2.0, 4.0), (2.0, 2.0, 3.0),
                                    (1.0, 2.0, math.nan)])
def test_checkers_refuse_the_ladders_the_config_refuses(sig02, ms_std, unit_a, unit_b, ladder):
    # too short a ladder used to reach `_decide` and raise IndexError there;
    # an unsorted one returned a verdict
    f = gaussian_field(sig02, ms_std)
    F = forward(f, build_plan(sig02, ms_std, unit_a, unit_b, L_x=4.0, L_y=5.0, order=8))
    with pytest.raises(ValueError, match="ladder"):
        MiyachiConfig(1.0, 1.0, 1.0, ladder=ladder)
    with pytest.raises(ValueError, match="ladder"):
        check_growth(f, 0.5, 2.0, ladder)
    with pytest.raises(ValueError, match="ladder"):
        check_log(F, 0.3, 1.0, ladder)


@pytest.mark.parametrize("alpha,beta,lam", [
    (math.nan, 0.3, 1.0), (0.0, 0.3, 1.0), (-0.5, 0.3, 1.0),
    (0.5, math.nan, 1.0), (0.5, -0.3, 1.0), (0.5, 0.3, math.nan),
])
def test_checkers_refuse_the_parameters_the_config_refuses(sig02, ms_std, unit_a, unit_b,
                                                           alpha, beta, lam):
    # a NaN rate read "finite" in check_growth and "growing" in check_log
    f = gaussian_field(sig02, ms_std)
    F = forward(f, build_plan(sig02, ms_std, unit_a, unit_b, L_x=4.0, L_y=5.0, order=8))
    ladder = (2.0, 3.0, 4.0)
    with pytest.raises(ValueError, match="must be positive"):
        MiyachiConfig(alpha, beta, lam, ladder=ladder)
    if alpha > 0.0:
        with pytest.raises(ValueError, match="beta and lambda must be positive"):
            check_log(F, beta, lam, ladder)
    else:
        with pytest.raises(ValueError, match="alpha must be positive"):
            check_growth(f, alpha, 2.0, ladder)


# -- log-plus condition -------------------------------------------------------


def _forward_per_rung(f, sig, ms, a, b, ladder, mode="raw"):
    out = []
    for L in ladder:
        plan = build_plan(sig, ms, a, b, L_x=8.0, L_y=float(L), normalization=mode)
        out.append(forward(f, plan))
    return out


def test_log_condition_below_the_critical_rate_is_finite(sig02, ms_std, unit_a, unit_b):
    # F ~ e^{-|y|^2/4}; beta = 0.2 < 1/4 caps the integrand inside a fixed
    # ball, so every rung past the first sees the same mass
    ladder = (2.0, 3.0, 4.0, 5.0)
    fields = _forward_per_rung(gaussian_field(sig02, ms_std), sig02, ms_std,
                               unit_a, unit_b, ladder)
    rep = check_log(fields, 0.2, 1.0, ladder)
    assert rep.status == "finite"
    assert rep.name == "log-plus"
    assert rep.values[0] > 0.0
    # the integrand's support never leaves the first rung; the residual
    # drift is quadrature noise from the log+ kink moving between nodes
    assert rep.values[-1] == pytest.approx(rep.values[1], rel=1e-2)


def test_log_condition_above_the_critical_rate_grows(sig02, ms_std, unit_a, unit_b):
    ladder = (2.0, 3.0, 4.0, 5.0)
    fields = _forward_per_rung(gaussian_field(sig02, ms_std), sig02, ms_std,
                               unit_a, unit_b, ladder)
    rep = check_log(fields, 0.3, 1.0, ladder)
    assert rep.status == "growing"
    assert all(b > a for a, b in zip(rep.values, rep.values[1:]))


def test_log_condition_zero_transform(sig02, ms_std, unit_a, unit_b):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0)
    zero = SampledField(sig02, ms_std, plan.grid_y,
                        np.zeros(plan.grid_y.shape + (sig02.n_blades,)))
    rep = check_log(zero, 0.3, 1.0, (2.0, 3.0, 4.0, 5.0))
    assert rep.status == "finite"
    assert rep.values == (0.0, 0.0, 0.0, 0.0)
    # stalled, then resumed on the last rung: not a decaying tail
    F = forward(gaussian_field(sig02, ms_std), plan)
    rep = check_log([zero, zero, zero, F], 0.3, 1.0, (2.0, 3.0, 4.0, 5.0))
    assert rep.values[:3] == (0.0, 0.0, 0.0) and rep.values[3] > 0.0
    assert rep.status == "growing"


def test_log_condition_is_scale_equivariant(sig02, ms_std, unit_a, unit_b):
    # J(s F, s lambda) = J(F, lambda) up to float rounding in the logs
    ladder = (2.0, 3.0, 4.0, 5.0)
    fields = _forward_per_rung(gaussian_field(sig02, ms_std), sig02, ms_std,
                               unit_a, unit_b, ladder)
    base = check_log(fields, 0.3, 1.0, ladder)
    s = 37.5
    scaled = [SampledField(F.sig, F.ms, F.grid, s * F.values) for F in fields]
    got = check_log(scaled, 0.3, s, ladder)
    for v_got, v_base in zip(got.values, base.values):
        assert v_got == pytest.approx(v_base, rel=1e-12)


def test_log_condition_single_field_masks_the_smaller_rungs(sig02, ms_std, unit_a, unit_b):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0)
    F = forward(gaussian_field(sig02, ms_std), plan)
    ladder = (2.0, 3.0, 4.0, 5.0)
    rep = check_log(F, 0.3, 1.0, ladder)
    assert all(b > a for a, b in zip(rep.values, rep.values[1:]))
    # the last rung covers the whole grid, so masking changes nothing there
    full = check_log([F] * 4, 0.3, 1.0, (4.97, 4.98, 4.99, 5.0))
    assert rep.values[-1] == full.values[-1]
    with pytest.raises(ValueError):
        check_log(F, 0.3, 1.0, (2.0, 3.0, 4.0, 6.0))  # grid stops at 5
    with pytest.raises(ValueError):
        check_log([F, F], 0.3, 1.0, ladder)
    with pytest.raises(ValueError):
        check_log(F, 0.3, 0.0, ladder)


# -- verdicts -----------------------------------------------------------------


def test_verdict_vanishing_case_flags_growth(sig02, ms_std, unit_a, unit_b):
    # alpha beta = 1 > 1/4: a genuine Gaussian cannot satisfy both
    # conditions, and this one fails both
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0)
    cfg = MiyachiConfig(1.0, 1.0, 1.0)
    v = verdict(gaussian_field(sig02, ms_std), cfg, plan)
    assert v.case == "vanishing"
    assert v.condition1.status == "growing"
    assert v.condition2.status == "growing"
    assert all(b > a for a, b in zip(v.condition2.values, v.condition2.values[1:]))
    assert v.C is None and v.residual is None and v.lambda_check is None


@pytest.mark.parametrize("rate,growing", [(0.5, "first"), (1.0, "second"), (2.0, "second")])
def test_verdict_vanishing_exactly_one_condition_grows(sig02, ms_std, unit_a, unit_b, rate, growing):
    # alpha = 1, beta = 0.3: for e^{-rate |x|^2} the sup condition fails
    # below rate = alpha, the log condition fails from rate = alpha upward;
    # never both ways at once
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0)
    cfg = MiyachiConfig(1.0, 0.3, 1.0, exponent=math.inf)
    v = verdict(gaussian_field(sig02, ms_std, delta=rate), cfg, plan)
    assert v.case == "vanishing"
    statuses = (v.condition1.status, v.condition2.status)
    assert statuses.count("growing") == 1
    want = ("growing", "finite") if growing == "first" else ("finite", "growing")
    assert statuses == want


def test_verdict_boundary_case_fits_the_gaussian_constant(sig02, ms_std, unit_a, unit_b):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0)
    cfg = MiyachiConfig(1.0, 0.25, 3.0, exponent=math.inf)
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: 2.0 * np.exp(-(x1**2 + x2**2)),
    })
    v = verdict(f, cfg, plan)
    assert v.case == "boundary"
    assert v.condition1.status == "finite"
    assert v.condition2.status == "finite"
    assert v.C.coeff[0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(v.C.coeff[1:])) <= 1e-13
    assert v.residual <= 1e-12
    assert v.lambda_check is True
    assert modulus(v.C) <= cfg.lam


def test_verdict_boundary_case_can_fail_the_lambda_bound(sig02, ms_std, unit_a, unit_b):
    # mehta scaling keeps the transform small enough for the log condition
    # while |C| = 2 exceeds lambda = 1
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0,
                      normalization="mehta")
    cfg = MiyachiConfig(1.0, 0.25, 1.0, exponent=math.inf)
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: 2.0 * np.exp(-(x1**2 + x2**2)),
    })
    v = verdict(f, cfg, plan)
    assert v.case == "boundary"
    assert (v.condition1.status, v.condition2.status) == ("finite", "finite")
    assert v.C.coeff[0] == pytest.approx(2.0, abs=1e-12)
    assert v.lambda_check is False


def test_verdict_subcritical_case_admits_polynomial_gaussians(sig02, ms_std, unit_a, unit_b):
    # delta = 0.2: f = (1 + e12) x1^2 e^{-|x|^2/(4 delta)} passes both
    # conditions for alpha = 1, beta = 0.1
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0)
    cfg = MiyachiConfig(1.0, 0.1, 1.0)
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: x1 * x1 * np.exp(-1.25 * (x1**2 + x2**2)),
        3: lambda x1, x2: x1 * x1 * np.exp(-1.25 * (x1**2 + x2**2)),
    })
    v = verdict(f, cfg, plan)
    assert v.case == "subcritical"
    assert v.condition1.status == "finite"
    assert v.condition2.status == "finite"
    assert v.C is None


def test_verdict_json_schema(sig02, ms_std, unit_a, unit_b):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=8.0, L_y=5.0)
    cfg = MiyachiConfig(1.0, 0.25, 3.0, exponent=math.inf)
    f = AnalyticField(sig02, ms_std, {
        0: lambda x1, x2: 2.0 * np.exp(-(x1**2 + x2**2)),
    })
    doc = json.loads(verdict_to_json(verdict(f, cfg, plan)))
    assert set(doc) == {"case", "condition1", "condition2", "ladder", "C",
                        "residual", "lambda_check"}
    assert doc["case"] == "boundary"
    assert [r["L"] for r in doc["ladder"]] == list(cfg.ladder)
    assert set(doc["ladder"][0]) == {"L", "I", "J"}
    assert set(doc["C"]) == {"1", "e1", "e2", "e12"}
    assert doc["C"]["1"] == pytest.approx(2.0, abs=1e-12)
    # non-boundary verdicts carry no fit
    doc2 = json.loads(verdict_to_json(verdict(f, MiyachiConfig(1.0, 1.0, 1.0), plan)))
    assert doc2["C"] is None and doc2["residual"] is None


def test_verdict_rungs_respect_the_mehta_invariance(sig02, ms_std, unit_a, unit_b):
    # the raw and mehta transforms differ by a constant, which the log
    # condition absorbs into lambda: scaled verdict agrees
    ladder = (2.0, 3.0, 4.0, 5.0)
    f = gaussian_field(sig02, ms_std)
    raw = _forward_per_rung(f, sig02, ms_std, unit_a, unit_b, ladder, "raw")
    meh = _forward_per_rung(f, sig02, ms_std, unit_a, unit_b, ladder, "mehta")
    c = mehta_constant(ms_std.kappa_p) * mehta_constant(ms_std.kappa_q)
    a = check_log(raw, 0.3, 1.0, ladder)
    b = check_log(meh, 0.3, c, ladder)
    for va, vb in zip(a.values, b.values):
        assert vb == pytest.approx(va, rel=1e-10)
