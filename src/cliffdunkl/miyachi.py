"""Numerical checker for the Gaussian-decay trichotomy of the transform.

For alpha, beta > 0 the product alpha*beta against 1/4 separates three
regimes for fields satisfying both

    (1)  e^{alpha |x|^2} f  in  L^n(dmu)          (growth condition)
    (2)  integral log+ ( |F(y)| e^{beta |y|^2} / lambda ) dy  <  infinity,

with F the transform of f: above 1/4 only f = 0 survives, at 1/4 exactly
the Gaussians C e^{-alpha |x|^2} with |C| <= lambda, below it a family of
polynomial-times-Gaussian fields.  Both integrals are probed on a ladder
of boxes [-L, L]^d; "finite" means the increments die off geometrically,
a numerical proxy the raw ladder values let the caller second-guess.

Condition (1) is stated for a sum space L^n + L^m; membership of a sum
space is not decidable from samples, so the checker tests the single-space
(sufficient) condition and says so in the report.  The boundary case needs
n = infinity (the constant e^{alpha|x|^2} f is essentially bounded but in
no finite L^n), which `exponent` accepts as math.inf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cdt_engine import AnalyticField, PlanMismatch, SampledField, TransformPlan, build_plan, fit_profile, forward
from .clifford_core import MultiVector, blade_label, modulus
from .quadrature import build_grid

BOUNDARY_TOL = 1e-12  # |alpha*beta - 1/4| below this is the boundary case
DECAY_RATIO = 0.5  # increments must drop by this factor to count as finite
LOG_GUARD = 700.0  # exp() overflows near 709; stay in log space beyond this


def _ladder(rungs) -> tuple:
    """The rungs as floats, refused unless finite, positive, strictly
    increasing and at least 3 (`_decide` compares the last two increments)."""
    ladder = tuple(float(L) for L in rungs)
    if not all(0.0 < L < math.inf for L in ladder):
        raise ValueError(f"ladder rungs must be finite and positive, got {ladder}")
    if len(ladder) < 3 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly increasing with >= 3 rungs")
    return ladder


@dataclass(frozen=True)
class MiyachiConfig:
    alpha: float
    beta: float
    lam: float
    exponent: float = 2.0
    ladder: tuple = (2.0, 3.0, 4.0, 5.0)

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):  # NaN fails too
            raise ValueError("alpha and beta must be positive and finite")
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if not self.exponent >= 1.0:
            raise ValueError("exponent must be in [1, inf]")
        object.__setattr__(self, "ladder", _ladder(self.ladder))


@dataclass(frozen=True)
class ConditionReport:
    name: str
    status: str  # "finite" | "growing"
    ladder: tuple
    values: tuple
    note: str = ""


@dataclass(frozen=True)
class MiyachiVerdict:
    case: str
    condition1: ConditionReport
    condition2: ConditionReport
    C: MultiVector | None
    residual: float | None
    lambda_check: bool | None

    def to_dict(self) -> dict:
        rungs = [
            {"L": L, "I": _json_number(i_val), "J": _json_number(j_val)}
            for L, i_val, j_val in zip(
                self.condition1.ladder, self.condition1.values, self.condition2.values
            )
        ]
        c_map = None
        if self.C is not None:
            c_map = {
                blade_label(mask): float(c)
                for mask, c in enumerate(self.C.coeff)
            }
        return {
            "case": self.case,
            "condition1": self.condition1.status,
            "condition2": self.condition2.status,
            "ladder": rungs,
            "C": c_map,
            "residual": self.residual,
            "lambda_check": self.lambda_check,
        }


def _json_number(value: float) -> float | None:
    """The value, or None (JSON null) where it overflowed: JSON has no infinity."""
    return value if math.isfinite(value) else None


def verdict_to_json(v: MiyachiVerdict) -> str:
    return json.dumps(v.to_dict(), indent=2, allow_nan=False)


def classify(alpha: float, beta: float) -> str:
    """vanishing / boundary / subcritical by alpha*beta against 1/4."""
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):  # NaN fails too
        raise ValueError("alpha and beta must be positive and finite")
    prod = alpha * beta
    if abs(prod - 0.25) <= BOUNDARY_TOL:
        return "boundary"
    return "vanishing" if prod > 0.25 else "subcritical"


def _decide(values) -> str:
    """finite iff the ladder increments die off geometrically."""
    vals = [float(v) for v in values]
    if not all(map(math.isfinite, vals)):
        return "growing"  # an overflowed rung can only mean blow-up
    incs = [b - a for a, b in zip(vals, vals[1:])]
    scale = max(abs(vals[-1]), 1.0)
    if abs(incs[-1]) <= 1e-12 * scale:
        return "finite"
    if abs(incs[-2]) <= 1e-12 * scale:
        return "growing"  # stalled then resumed; not a decaying tail
    return "finite" if incs[-1] <= DECAY_RATIO * incs[-2] else "growing"


def _log_modulus(values: np.ndarray) -> np.ndarray:
    """log of the pointwise modulus, -inf where the field vanishes.

    Scaled by the largest component first: the modulus itself may overflow
    a square even when its log is representable.
    """
    amax = np.max(np.abs(values), axis=-1)
    safe = np.where(amax > 0.0, amax, 1.0)
    mod2 = np.sum((values / safe[..., None]) ** 2, axis=-1)
    with np.errstate(divide="ignore"):
        return np.log(safe) + 0.5 * np.log(mod2)


def check_growth(f, alpha: float, n: float, ladder, *, panels: int = 1, order: int = 32) -> ConditionReport:
    """I(L) = integral over [-L,L]^d of |e^{alpha|x|^2} f|^n dmu, per rung.

    Computed in log space (the integrand overflows long before the ladder
    stops); n = inf switches to the essential sup over the box.  f is
    sampled on every rung's grid, so it must be an AnalyticField.
    """
    if not isinstance(f, AnalyticField):
        raise TypeError("the growth condition samples f on every rung, so it needs an analytic field")
    if not 0.0 < alpha < math.inf:  # NaN fails too
        raise ValueError("alpha must be positive and finite")
    if not n >= 1.0:
        raise ValueError("exponent must be in [1, inf]")
    ladder = _ladder(ladder)
    values = []
    for L in ladder:
        grid = build_grid(f.ms, L, panels=panels, order=order)
        vals = f.sample(grid)
        xs = grid.coords()
        expo = alpha * sum(x * x for x in xs) + _log_modulus(vals)
        if math.isinf(n):
            values.append(float(np.max(expo)))
            continue
        logw = np.log(grid.total_weights())
        terms = (logw + n * expo).ravel()
        terms = terms[np.isfinite(terms)]
        if terms.size == 0:
            values.append(0.0)
            continue
        m = float(terms.max())
        log_i = m + math.log(float(np.sum(np.exp(terms - m))))
        values.append(math.exp(log_i) if log_i <= LOG_GUARD else math.inf)
    status = _decide(values)
    note = "single-space L^n proxy for the L^n + L^m condition"
    if math.isinf(n):
        values = [math.exp(v) if v <= LOG_GUARD else math.inf for v in values]
        note = "essential sup over the box (n = inf)"
    return ConditionReport("growth", status, ladder, tuple(values), note)


def check_log(F, beta: float, lam: float, ladder) -> ConditionReport:
    """J(L) = integral over [-L,L]^d of log+(|F(y)| e^{beta|y|^2}/lambda) dy.

    Unweighted Lebesgue measure.  F holds one SampledField per rung, each
    with a grid covering its rung; nodes outside the rung are left out.
    """
    if not (0.0 < beta < math.inf and 0.0 < lam < math.inf):  # NaN fails too
        raise ValueError("beta and lambda must be positive and finite")
    ladder = _ladder(ladder)
    fields = list(F)
    if len(fields) != len(ladder):
        raise ValueError(f"need one field per rung, got {len(fields)}")
    values = []
    for L, field in zip(ladder, fields):
        grid = field.grid
        if any(ax.L < L - 1e-12 for ax in grid.axes):
            raise ValueError(f"the field grid of rung L = {L!r} does not cover it")
        ys = grid.coords()
        inside = np.ones(grid.shape, dtype=bool)
        for y in ys:
            inside &= np.abs(y) <= L + 1e-12
        logarg = _log_modulus(field.values) + beta * sum(y * y for y in ys) - math.log(lam)
        integrand = np.where(inside, np.maximum(logarg, 0.0), 0.0)
        qw = grid.quad_weights()
        values.append(float(np.sum(qw * integrand)))
    return ConditionReport("log-plus", _decide(values), ladder, tuple(values))


def verdict(f, config: MiyachiConfig, plan: TransformPlan) -> MiyachiVerdict:
    """Classify, probe both conditions, and in the boundary case fit the
    Gaussian constant.

    The transform is evaluated per rung on output grids scaled to the rung
    (the input grid comes from the plan, which also serves the rung its y
    grid is).  The fit weights nodes by e^{-alpha|x|^2} so the tail cannot
    dominate, and C is reported with its residual and the |C| <= lambda check.
    """
    case = classify(config.alpha, config.beta)
    L_x, panels, order = plan.grid_x.spec
    cond1 = check_growth(f, config.alpha, config.exponent, config.ladder,
                         panels=panels, order=order)
    if (f.sig, f.ms) != (plan.sig, plan.ms):
        raise PlanMismatch("field signature/multiplicities differ from plan")
    vals = f.sample(plan.grid_x)  # once: every rung shares the plan's x grid
    sampled = SampledField(f.sig, f.ms, plan.grid_x, vals)
    rung_fields = []
    for L in config.ladder:
        rung = ((L,) * plan.sig.d, panels, order)
        rung_plan = plan if plan.grid_y.spec == rung else build_plan(
            plan.sig, plan.ms, plan.a, plan.b,
            L_x=L_x, L_y=float(L), panels=panels, order=order,
            normalization=plan.normalization,
        )
        rung_fields.append(forward(sampled, rung_plan))
    cond2 = check_log(rung_fields, config.beta, config.lam, config.ladder)
    C = residual = lam_ok = None
    if case == "boundary" and cond1.status == "finite" and cond2.status == "finite":
        g = np.exp(-config.alpha * sum(x * x for x in plan.grid_x.coords()))
        coeff, residual = fit_profile(vals, g, g)  # weight g: the far tail cannot dominate
        C = MultiVector(f.sig, coeff)
        lam_ok = bool(modulus(C) <= config.lam)
    return MiyachiVerdict(case, cond1, cond2, C, residual, lam_ok)
