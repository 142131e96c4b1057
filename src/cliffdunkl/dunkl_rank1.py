"""Rank-one (Z2) Dunkl machinery and its d-fold products.

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

from .clifford_core import ImaginaryUnit, MultiVector
from .quadrature import build_axis, jacobi_rule, legendre_rule, power_rule, stieltjes

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
    "eval_kernel_block",
    "weight",
    "mehta_constant",
    "hermite_basis",
    "eval_orthonormal",
    "eval_h",
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


def kernel_coefficients(kappa: float, tol: float = 1e-16, t_max: float = 30.0) -> KernelTable:
    """Coefficients c_0..c_N with the tail |c_N t_max^N| below tol."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if tol <= 0.0 or t_max <= 0.0:
        raise ValueError("tol and t_max must be positive")
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
        quiet = quiet + 1 if scale < tol else 0
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


def eval_kernel_block(
    tables, x_block, y_block, unit: ImaginaryUnit, conj: bool = False
) -> MultiVector:
    """prod_j (A_j + u B_j) over a coordinate block, embedded in span{1, u}.

    The factors commute (they live in the plane span{1, u}), so the product
    is complex arithmetic with u playing i; conj=True selects the inverse
    kernel E(x, +u y) = A - u B.
    """
    x_block = np.atleast_1d(np.asarray(x_block, dtype=float))
    y_block = np.atleast_1d(np.asarray(y_block, dtype=float))
    if len(tables) != x_block.size or x_block.size != y_block.size:
        raise ValueError("block length mismatch")
    z = complex(1.0, 0.0)
    for table, xj, yj in zip(tables, x_block, y_block):
        A, B = eval_kernel_ab(table, xj * yj)
        z *= complex(A, -B if conj else B)
    sig = unit.sig
    return MultiVector.scalar(sig, z.real) + z.imag * unit.value


def weight(ms: MultiplicitySplit, x) -> np.ndarray | float:
    """w_k(x) = prod_j |x_j|^(2 kappa_j), vectorized over rows of x."""
    x = np.asarray(x, dtype=float)
    scalar_in = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != ms.d:
        raise ValueError(f"expected {ms.d} coordinates, got {pts.shape[-1]}")
    out = np.ones(pts.shape[0])
    for j, k in enumerate(ms.kappa):
        if k > 0.0:
            out *= np.abs(pts[:, j]) ** (2.0 * k)
    return float(out[0]) if scalar_in else out


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

    Built by the discretized Stieltjes procedure on a composite quadrature
    whose inner panel absorbs the |s|^(2 kappa) factor exactly.  Returns
    read-only arrays of length n_max + 1.
    """
    if not 0 <= n_max <= HERMITE_N_CAP:
        raise ValueError(f"n_max must be within 0..{HERMITE_N_CAP}")
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    xs = []
    ws = []
    L, order = 14.0, 60
    for lo in range(int(L)):
        if lo == 0 and kappa > 0.0:
            n, w = power_rule(2.0 * kappa, 0.0, 1.0, order)
        else:
            t, w0 = legendre_rule(order)
            n = lo + 0.5 * (t + 1.0)
            w = 0.5 * w0 * n ** (2.0 * kappa)
        xs.append(n)
        ws.append(w * np.exp(-n * n))
    pos = np.concatenate(xs)
    wpos = np.concatenate(ws)
    nodes = np.concatenate([-pos[::-1], pos])
    weights = np.concatenate([wpos[::-1], wpos])
    alpha, beta = stieltjes(nodes, weights, n_max + 1)
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


def eval_h(v, x, ms: MultiplicitySplit) -> np.ndarray:
    """Generalized Hermite function h_v(x) = prod_j p_(v_j)(x_j) e^(-x_j^2/2).

    Orthonormal against w_k(x) dx; x is one point or an (n, d) array.
    """
    v = tuple(int(n) for n in v)
    x = np.asarray(x, dtype=float)
    scalar_in = x.ndim == 1
    pts = np.atleast_2d(x)
    if len(v) != ms.d or pts.shape[-1] != ms.d:
        raise ValueError("index/coordinate length mismatch")
    out = np.ones(pts.shape[0])
    for j, (nj, kj) in enumerate(zip(v, ms.kappa)):
        if not 0 <= nj <= HERMITE_N_CAP:
            raise ValueError(f"index {nj} outside 0..{HERMITE_N_CAP}")
        alpha, beta = hermite_basis(kj, HERMITE_N_CAP)
        s = pts[:, j]
        out *= eval_orthonormal(alpha, beta, nj, s) * np.exp(-0.5 * s * s)
    return float(out[0]) if scalar_in else out


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
