"""Rank-one (Z2) Dunkl machinery: kernel, Mehta constants, generalized
Hermite recurrences and the translation density psi_kappa.

The one-dimensional Dunkl operator T f = f' + kappa (f(x) - f(-x))/x acts
on monomials as T x^n = n x^(n-1) for even n and (n + 2 kappa) x^(n-1) for
odd n.  The kernel E(x, y) = sum_n c_n (x y)^n is the unique solution of
T_x E = y E with E(0, y) = 1, which pins the coefficient recurrence
c_n = c_(n-1) / (n + 2 kappa [n odd]).

Splitting E(x, -u y) = A(t) + u B(t) (t = x y, u any square root of -1)
gives the even/odd series implemented here.  Away from small |t| the
alternating series cancels catastrophically in float64 (the error floor is
eps * e^|t|), so evaluation switches to the equivalent integral form

    A(t) = (1/m0) int_{-1}^{1} cos(t s) (1 - s^2)^(kappa-1) ds,
    B(t) = -(1/m0) int_{-1}^{1} s sin(t s) (1 - s^2)^(kappa-1) ds,

m0 = B(1/2, kappa), evaluated with the package's Gauss-Jacobi rules; the
two routes agree to ~1e-13 where both are valid, which is tested.  The
integral form also keeps A^2 + B^2 <= 1 structurally (Cauchy-Schwarz with
respect to the probability measure (1-s^2)^(kappa-1) ds / m0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import build_axis, jacobi_rule, stieltjes

__all__ = [
    "MultiplicitySplit",
    "KernelTable",
    "TruncationTooLarge",
    "ArgumentOutOfRadius",
    "QuadratureDisagreement",
    "kernel_coefficients",
    "eval_kernel_ab",
    "kernel_ab_series",
    "kernel_ab_integral",
    "mehta_constant",
    "hermite_basis",
    "eval_orthonormal",
    "psi_rule",
    "SERIES_RADIUS",
    "kernel_rule_order",
]

COEFF_CAP = 400
SERIES_RADIUS = 4.0  # series error floor eps*e^|t| stays below ~1e-13 here


class TruncationTooLarge(ValueError):
    pass


class ArgumentOutOfRadius(ValueError):
    pass


class QuadratureDisagreement(ArithmeticError):
    pass


@dataclass(frozen=True)
class MultiplicitySplit:
    """Nonnegative multiplicities kappa_1..kappa_d with a block split point.

    The first `split` coordinates form the p-block (left kernel), the rest
    the q-block (right kernel).  The split usually equals the signature's p
    but is independent of it.
    """

    kappa: tuple
    split: int

    def __init__(self, kappa, split: int):
        kappa = tuple(float(k) for k in kappa)
        if not all(0.0 <= k < math.inf for k in kappa):
            raise ValueError(f"multiplicities must be finite and nonnegative, got {kappa}")
        if not 0 <= split <= len(kappa):
            raise ValueError(f"split {split} outside 0..{len(kappa)}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "split", split)

    @property
    def d(self) -> int:
        return len(self.kappa)

    @property
    def kappa_p(self) -> tuple:
        return self.kappa[: self.split]

    @property
    def kappa_q(self) -> tuple:
        return self.kappa[self.split:]

    @property
    def gamma_p(self) -> float:
        return float(sum(self.kappa_p))

    @property
    def gamma_q(self) -> float:
        return float(sum(self.kappa_q))

    @property
    def gamma(self) -> float:
        return self.gamma_p + self.gamma_q


@dataclass(frozen=True)
class KernelTable:
    """Truncated kernel series for one coordinate: E = sum c_n (xy)^n."""

    kappa: float
    coeffs: np.ndarray
    N: int
    t_max: float


def kernel_coefficients(kappa: float, t_max: float = 30.0) -> KernelTable:
    """Coefficients c_0..c_N with the tail |c_N t_max^N| below 1e-16."""
    if not 0.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and nonnegative")
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be finite and positive")
    coeffs = [1.0]
    scale = 1.0  # c_n * t_max^n
    quiet = 0
    n = 0
    while quiet < 2:
        n += 1
        if n > COEFF_CAP:
            raise TruncationTooLarge(f"needs more than {COEFF_CAP} coefficients")
        divisor = n + (2.0 * kappa if n % 2 == 1 else 0.0)
        coeffs.append(coeffs[-1] / divisor)
        scale = scale * t_max / divisor
        quiet = quiet + 1 if scale < 1e-16 else 0
    arr = np.array(coeffs)
    arr.flags.writeable = False
    return KernelTable(kappa=float(kappa), coeffs=arr, N=n, t_max=float(t_max))


def _kahan_poly(coeff_signed: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Compensated sum of coeff[k] * powers[k] in fixed ascending order."""
    s = np.zeros_like(powers[0])
    c = np.zeros_like(s)
    for a, p in zip(coeff_signed, powers):
        y = a * p - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


@lru_cache(maxsize=256)
def _series_terms(kappa: float) -> int:
    """Degree a table keeps for |t| <= SERIES_RADIUS (tail below 1e-16)."""
    return kernel_coefficients(kappa, t_max=SERIES_RADIUS).N


def kernel_ab_series(table: KernelTable, t) -> tuple:
    """(A, B) by compensated ascending-degree summation of the series.

    Within SERIES_RADIUS only the degrees that radius needs are summed;
    beyond it the whole table is.
    """
    t = np.asarray(t, dtype=float)
    N = table.N
    if t.size and np.max(np.abs(t)) <= SERIES_RADIUS:
        N = min(N, _series_terms(table.kappa))
    n_even = (N // 2) + 1
    n_odd = (N + 1) // 2
    t2 = t * t
    even_pows = np.empty((n_even,) + t.shape)
    even_pows[0] = 1.0
    for m in range(1, n_even):
        even_pows[m] = even_pows[m - 1] * t2
    even_coeff = table.coeffs[0 : 2 * n_even : 2] * np.where(np.arange(n_even) % 2, -1.0, 1.0)
    A = _kahan_poly(even_coeff, even_pows)
    odd_pows = even_pows[:n_odd] * t
    odd_coeff = table.coeffs[1 : 2 * n_odd : 2] * np.where(np.arange(n_odd) % 2, 1.0, -1.0)
    B = _kahan_poly(odd_coeff, odd_pows)
    return A, B


def zero_limit(kappa: float) -> bool:
    """True when kappa - 1 rounds to -1 (kappa = 0, or 0 < kappa <= 2^-54).

    The Jacobi weight (1 - s^2)^(kappa-1) / m0 is then, to float precision,
    its kappa -> 0 limit (delta_{-1} + delta_{+1}) / 2: the kernel is
    (A, B) = (cos t, -sin t), psi_kappa is delta_{+1} and translation is
    the plain shift x - z.  No Jacobi rule exists for such a kappa.
    """
    return kappa - 1.0 == -1.0


def kernel_rule_order(t_max: float) -> int:
    """Gauss-Jacobi order resolving cos(t s) on (-1,1) up to |t| = t_max."""
    return max(48, int(0.62 * t_max) + 32)


def kernel_ab_integral(kappa: float, t, order: int | None = None) -> tuple:
    """(A, B) from the cosine/sine integral representation; kappa > 0."""
    t = np.asarray(t, dtype=float)
    if zero_limit(kappa):
        return np.cos(t), -np.sin(t)
    if order is None:
        tmax = float(np.max(np.abs(t))) if t.size else 1.0
        order = kernel_rule_order(tmax)
    rule = jacobi_rule(kappa, order)
    phase = np.multiply.outer(t, rule.nodes)
    m0 = rule.mass
    A = np.cos(phase) @ rule.weights / m0
    B = -(np.sin(phase) @ (rule.weights * rule.nodes)) / m0
    return A, B


def eval_kernel_ab(table: KernelTable, t) -> tuple:
    """(A(t), B(t)) with E(x, -u y) = A + u B, E(x, +u y) = A - u B, t = x y.

    kappa = 0 (and any `zero_limit` kappa) short-circuits to (cos t, -sin t).
    Otherwise the compensated series is used for |t| <= SERIES_RADIUS and
    the integral representation beyond it (see module docstring for the
    error analysis).
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(np.abs(t_arr) > table.t_max):
        raise ArgumentOutOfRadius(f"|t| exceeds validity radius {table.t_max}")
    if zero_limit(table.kappa):
        A, B = np.cos(t_arr), -np.sin(t_arr)
    else:
        A = np.empty_like(t_arr)
        B = np.empty_like(t_arr)
        near = np.abs(t_arr) <= SERIES_RADIUS
        if np.any(near):
            A[near], B[near] = kernel_ab_series(table, t_arr[near])
        if np.any(~near):
            order = kernel_rule_order(table.t_max)
            A[~near], B[~near] = kernel_ab_integral(table.kappa, t_arr[~near], order)
    if scalar:
        return float(A[0]), float(B[0])
    return A, B


def _mehta_factor_quadrature(kappa: float) -> float:
    # e^(-s^2/2) |s|^(2 kappa) tail at L=13 is ~1e-36; unit panels suffice
    axis = build_axis(kappa, L=13.0, panels=13, order=16)
    return float(np.sum(axis.weights * axis.wk * np.exp(-0.5 * axis.nodes**2)))


def mehta_factor_gamma(kappa: float) -> float:
    """Closed form of int e^(-s^2/2) |s|^(2 kappa) ds (cross-check only)."""
    return 2.0 ** (kappa + 0.5) * math.gamma(kappa + 0.5)


def mehta_constant(kappa_block) -> float:
    """c_k = (int e^(-|x|^2/2) w_k dx)^(-1) over the block's coordinates.

    Computed by quadrature per coordinate and cross-checked against the
    gamma closed form at 1e-10 relative.
    """
    total = 1.0
    for k in kappa_block:
        k = float(k)
        if k < 0.0:
            raise ValueError("multiplicities must be nonnegative")
        q = _mehta_factor_quadrature(k)
        g = mehta_factor_gamma(k)
        if abs(q / g - 1.0) > 1e-10:
            raise QuadratureDisagreement(
                f"kappa={k}: quadrature {q!r} vs gamma form {g!r}"
            )
        total *= q
    return 1.0 / total


# -- generalized Hermite family ---------------------------------------------

HERMITE_N_CAP = 64


@lru_cache(maxsize=64)
def hermite_basis(kappa: float, n_max: int):
    """Monic recurrence (alpha, beta) for the weight |s|^(2 kappa) e^(-s^2).

    Built by the discretized Stieltjes procedure on the `build_axis` grid of
    (-14, 14) (unit panels of 60 nodes), whose inner panel absorbs the
    |s|^(2 kappa) factor exactly.  Returns read-only arrays of length
    n_max + 1.
    """
    if not 0 <= n_max <= HERMITE_N_CAP:
        raise ValueError(f"n_max must be within 0..{HERMITE_N_CAP}")
    axis = build_axis(kappa, 14.0, panels=14, order=60)
    weights = axis.weights * axis.wk * np.exp(-axis.nodes**2)
    alpha, beta = stieltjes(axis.nodes, weights, n_max + 1)
    alpha.flags.writeable = False
    beta.flags.writeable = False
    return alpha, beta


def eval_orthonormal(alpha: np.ndarray, beta: np.ndarray, n: int, s) -> np.ndarray:
    """Orthonormal polynomial p_n at s from the monic recurrence."""
    s = np.asarray(s, dtype=float)
    p_prev = np.zeros_like(s)
    p = np.full_like(s, 1.0 / math.sqrt(beta[0]))
    for k in range(n):
        p_next = ((s - alpha[k]) * p - math.sqrt(beta[k]) * p_prev) / math.sqrt(beta[k + 1])
        p_prev, p = p, p_next
    return p


def psi_rule(kappa: float, order: int = 48):
    """Nodes and weights integrating f against the translation density
    psi_kappa(t) = Gamma(kappa+1/2)/(sqrt(pi) Gamma(kappa)) (1+t)(1-t^2)^(kappa-1),
    whose total mass is exactly 1.  A `zero_limit` kappa gets its limit
    delta_{+1}: the node pair (-1, +1) with weights (0, 1)."""
    if kappa <= 0.0:
        raise ValueError("psi density needs kappa > 0")
    if zero_limit(kappa):
        return np.array([-1.0, 1.0]), np.array([0.0, 1.0])
    rule = jacobi_rule(kappa, order)
    # log space: Gamma(kappa + 1/2) alone overflows from kappa ~ 171 on
    const = math.exp(math.lgamma(kappa + 0.5) - math.lgamma(kappa) - 0.5 * math.log(math.pi))
    w = const * rule.weights * (1.0 + rule.nodes)
    return rule.nodes, w
