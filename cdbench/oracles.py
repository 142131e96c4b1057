"""Reference computations made apart from cliffdunkl, and the checks built on them.

Nothing here imports cliffdunkl.  The checks take plain arrays: sampled
values, the grid's node coordinates and its quadrature weights (the grid
itself is an input of the operation under test, not an output).  Each check
returns (ok, measured) so the caller can both gate on it and report it.

References used:
  * the exact classical shift f(x - z) and the Gaussian convolution
    (pi/(a+b))^(d/2) exp(-ab|x|^2/(a+b)) at kappa = 0;
  * the rank-one Dunkl translation of a Gaussian,
        tau_z exp(-s x^2) = exp(-s (x^2 + z^2)) E_kappa(2 s x, z),
    with E_kappa(x, y) = j_(kappa-1/2)(i xy) + xy/(2 kappa+1) j_(kappa+1/2)(i xy)
    written through modified Bessel functions (scipy);
  * the kernel components A(t) = j_(kappa-1/2)(t), B(t) = -t/(2 kappa+1)
    j_(kappa+1/2)(t), normalized Bessel functions j_a(t) = Gamma(a+1)
    (t/2)^(-a) J_a(t), evaluated in mpmath at 30 digits.
"""

from __future__ import annotations

import math
import re

import mpmath
import numpy as np
from scipy import special

# Tolerances, stated once.  Measured values at the defining commit are in
# cdbench/README.md; each tolerance sits well above them and well below the
# error of the wrong answers the self-tests feed in.
ROUNDTRIP_TOL = {2: 1e-5, 3: 1e-6, 4: 2e-3}  # relative weighted L2 error
ROUNDTRIP_SCALE_TOL = {2: 1e-6, 3: 1e-7, 4: 1e-4}  # |<back,f>/<f,f> - 1|
PLANCHEREL_SPREAD_TOL = {2: 1e-6, 3: 1e-6, 4: 1e-3}  # (max - min) / median
SHIFT_TOL = 1e-5  # kappa = 0 spectral translation vs f(x - z)
GAUSS_CONV_TOL = 1e-9  # kappa = 0 convolution vs closed form, max-norm relative
CONV_SHAPE_TOL = 1e-6  # kappa > 0 convolution vs fitted c exp(-ab|x|^2/(a+b))
CONV_SYMMETRY_TOL = 1e-9  # kappa > 0 scalar convolution f*g vs g*f
EXPLICIT_TOL = 1e-5  # spectral vs explicit translation, relative weighted L2
GAUSS_TRANSLATE_TOL = 1e-10  # explicit translation vs closed form, max-norm relative
FILE_ROUNDTRIP_TOL = 1e-5  # CLI transform -> inverse through files
MIYACHI_C_TOL = 1e-8  # recovered Gaussian constant, relative
KERNEL_TOL = 1e-11  # |A - A_ref|, |B - B_ref|; both are bounded by 1

# Asserted constants that the ledger measures and reports but that disagree
# with quadrature; these are recorded, not gated.
CONTESTED = re.compile(r"^(gaussian-constant-(raw|mehta)|plancherel-constant|eigenvalue-v.*)$")


def weighted_dot(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """sum over nodes and blades of w * u * v; w has the grid shape."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim == w.ndim + 1:
        w = w[..., None]
    return float(np.sum(w * u * v))


def rel_l2(got, want, w) -> float:
    diff = np.asarray(got, dtype=float) - np.asarray(want, dtype=float)
    return math.sqrt(weighted_dot(diff, diff, w) / weighted_dot(want, want, w))


def check_roundtrip(got, want, w, d: int):
    """Relative L2 error of a round trip within ROUNDTRIP_TOL[d]."""
    err = rel_l2(got, want, w)
    return err <= ROUNDTRIP_TOL[d], err


def check_scale(got, want, w, d: int):
    """The projection of a round trip on its input is 1 within
    ROUNDTRIP_SCALE_TOL[d].

    This catches a constant scale error that the L2 tolerance at d = 4 (an
    accuracy limit of the order-12 grid) would let through.
    """
    dev = abs(weighted_dot(got, want, w) / weighted_dot(want, want, w) - 1.0)
    return dev <= ROUNDTRIP_SCALE_TOL[d], dev


def plancherel_ratio(F, wy, f, wx) -> float:
    return weighted_dot(F, F, wy) / weighted_dot(f, f, wx)


def check_constancy(ratios, d: int):
    """Plancherel ratios of the fields of one plan agree to a relative spread."""
    ratios = [float(r) for r in ratios]
    spread = (max(ratios) - min(ratios)) / float(np.median(ratios))
    return spread <= PLANCHEREL_SPREAD_TOL[d], spread


def check_shift(got, fn_values_shifted, w):
    """kappa = 0: the translation equals the exact shift f(x - z)."""
    err = rel_l2(got, fn_values_shifted, w)
    return err <= SHIFT_TOL, err


def gaussian_convolution(a: float, b: float, coords) -> np.ndarray:
    """(exp(-a|.|^2) * exp(-b|.|^2))(x) for the classical convolution."""
    d = len(coords)
    r2 = sum(x * x for x in coords)
    return (math.pi / (a + b)) ** (d / 2.0) * np.exp(-a * b * r2 / (a + b))


def check_gaussian_convolution(values, a: float, b: float, coords):
    """kappa = 0: scalar blade matches the closed form, other blades vanish."""
    want = gaussian_convolution(a, b, coords)
    scale = float(np.max(np.abs(want)))
    err = max(
        float(np.max(np.abs(values[..., 0] - want))),
        float(np.max(np.abs(values[..., 1:]))) if values.shape[-1] > 1 else 0.0,
    ) / scale
    return err <= GAUSS_CONV_TOL, err


def check_convolution_shape(values, a: float, b: float, coords, w):
    """kappa > 0: a scalar Gaussian convolution is c exp(-ab|x|^2/(a+b)).

    The constant c depends on the normalization conventions; the shape and
    the vanishing of the non-scalar blades do not.
    """
    g = np.exp(-a * b * sum(x * x for x in coords) / (a + b))
    c = weighted_dot(values[..., 0], g, w) / weighted_dot(g, g, w)
    want = np.zeros_like(values)
    want[..., 0] = c * g
    err = rel_l2(values, want, w)
    return err <= CONV_SHAPE_TOL and c > 0.0, err


def check_symmetric(fg, gf):
    err = float(np.max(np.abs(fg - gf))) / float(np.max(np.abs(fg)))
    return err <= CONV_SYMMETRY_TOL, err


def check_explicit(spectral, explicit, w):
    err = rel_l2(spectral, explicit, w)
    return err <= EXPLICIT_TOL, err


def dunkl_kernel_real(kappa: float, t) -> np.ndarray:
    """E_kappa(x, y) at real t = x y, through exponentially scaled I_a."""
    t = np.asarray(t, dtype=float)
    if kappa == 0.0:
        return np.exp(t)
    at = np.abs(t)
    safe = np.where(at > 0.0, at, 1.0)
    a = kappa - 0.5
    # Gamma(a+1) (t/2)^-a I_a(t), as exp(t + log(...)) to keep large t finite
    even = np.exp(at + special.gammaln(a + 1.0) - a * np.log(safe / 2.0)) * special.ive(a, safe)
    odd = np.exp(at + special.gammaln(a + 2.0) - (a + 1.0) * np.log(safe / 2.0)) * special.ive(a + 1.0, safe)
    out = even + t / (2.0 * kappa + 1.0) * odd
    return np.where(at > 0.0, out, 1.0)


def gaussian_translate(s: float, z, kappa, coords) -> np.ndarray:
    """tau_z exp(-s|x|^2) for the product reflection group, coordinate by coordinate."""
    out = np.ones(np.shape(coords[0]))
    for x, zj, kj in zip(coords, z, kappa):
        out = out * np.exp(-s * (x * x + zj * zj)) * dunkl_kernel_real(kj, 2.0 * s * x * zj)
    return out


def check_gaussian_translate(got, c: float, s: float, z, kappa, coords):
    want = c * gaussian_translate(s, z, kappa, coords)
    err = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    return err <= GAUSS_TRANSLATE_TOL, err


def normalized_bessel(a: float, t: float) -> float:
    """j_a(t) = Gamma(a+1) (t/2)^(-a) J_a(t), even in t, j_a(0) = 1."""
    with mpmath.workdps(30):
        at = abs(mpmath.mpf(t))
        if at == 0:
            return 1.0
        a = mpmath.mpf(a)
        return float(mpmath.gamma(a + 1) * (at / 2) ** (-a) * mpmath.besselj(a, at))


def kernel_ab_reference(kappa: float, t: float):
    """(A, B) of E(x, -u y) = A + u B at t = x y, from normalized Bessel functions."""
    A = normalized_bessel(kappa - 0.5, t)
    B = -t / (2.0 * kappa + 1.0) * normalized_bessel(kappa + 0.5, t)
    return A, B


def check_kernel(A: float, B: float, kappa: float, t: float):
    A_ref, B_ref = kernel_ab_reference(kappa, t)
    err = max(abs(A - A_ref), abs(B - B_ref))
    return err <= KERNEL_TOL, err


def check_miyachi(doc: dict, C_want: dict):
    """Boundary case, both conditions finite, |C| <= lambda, C recovered."""
    if doc.get("case") != "boundary" or doc.get("C") is None:
        return False, math.inf
    if doc.get("condition1") != "finite" or doc.get("condition2") != "finite":
        return False, math.inf
    if doc.get("lambda_check") is not True:
        return False, math.inf
    got = doc["C"]
    scale = max(abs(v) for v in C_want.values())
    err = max(abs(float(got.get(k, 0.0)) - C_want.get(k, 0.0)) for k in set(got) | set(C_want))
    return err / scale <= MIYACHI_C_TOL, err / scale


def check_ledger(reports: list):
    """Every identity, oracle and kernel-bound claim passes.

    Returns (ok, failing claim names, {contested claim: ratio}).
    """
    failing = [r["claim"] for r in reports
               if not CONTESTED.match(r["claim"]) and r["status"] != "pass"]
    contested = {r["claim"]: r["ratio"] for r in reports if CONTESTED.match(r["claim"])}
    return not failing and bool(reports), failing, contested
