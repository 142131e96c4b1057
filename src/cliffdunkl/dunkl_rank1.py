"""Rank-one (Z2) Dunkl machinery: kernel, Mehta constants, generalized
Hermite recurrences and the translation density psi_kappa.

The one-dimensional Dunkl operator T f = f' + kappa (f(x) - f(-x))/x acts
on monomials as T x^n = n x^(n-1) for even n and (n + 2 kappa) x^(n-1) for
odd n.  The kernel E(x, y) = sum_n c_n (x y)^n is the unique solution of
T_x E = y E with E(0, y) = 1, which pins the coefficient recurrence
c_n = c_(n-1) / (n + 2 kappa [n odd]).

Splitting E(x, -u y) = A(t) + u B(t) (t = x y, u any square root of -1),
the kernel is evaluated from Poisson's integral (Rosler, LNM 1817),

    A(t) = 1 - (1/m0) int_{-1}^{1} 2 sin^2(t s / 2) (1 - s^2)^(kappa-1) ds,
    B(t) = -(1/m0) int_{-1}^{1} s sin(t s) (1 - s^2)^(kappa-1) ds,

m0 = B(1/2, kappa), with the package's Gauss-Jacobi rules, summed over half
the rule: the weight is symmetric and both integrands are even in s.  The
power series above cancels catastrophically in float64 (its error floor is
eps * e^|t|), so it only serves the tests as an oracle.  Writing
cos(t s) = 1 - 2 sin^2(t s / 2) makes E(0) = (1, 0) exact, where the
cosine sum would round A(0) to 1 + O(eps).  The integral form also keeps
A^2 + B^2 <= 1 structurally (Cauchy-Schwarz with respect to the
probability measure (1-s^2)^(kappa-1) ds / m0).  It is tested against
mpmath and scipy up to |t| = KERNEL_RADIUS_CAP, which is the radius a
kernel table accepts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import jacobi_rule

__all__ = [
    "MultiplicitySplit",
    "KernelTable",
    "ArgumentOutOfRadius",
    "KERNEL_RADIUS_CAP",
    "kernel_coefficients",
    "eval_kernel_ab",
    "kernel_ab_integral",
    "mehta_constant",
    "hermite_basis",
    "eval_orthonormal",
    "psi_rule",
    "kernel_rule_order",
]

KERNEL_RADIUS_CAP = 300.0  # max |x y| a kernel table accepts; tested to there against mpmath
_KERNEL_BLOCK = 1 << 14  # arguments per block of kernel_ab_integral: the triangle of a 180 x 180 quadrant


class ArgumentOutOfRadius(ValueError):
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
    """Validated radius record for one coordinate's kernel: multiplicity
    kappa, arguments |t| <= t_max."""

    kappa: float
    t_max: float


def kernel_coefficients(kappa: float, t_max: float = 30.0) -> KernelTable:
    """The kernel record for kappa on |t| <= t_max.

    Raises ArgumentOutOfRadius beyond KERNEL_RADIUS_CAP, the range the
    kernel is tested to.
    """
    if not 0.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and nonnegative")
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    if t_max > KERNEL_RADIUS_CAP:
        raise ArgumentOutOfRadius(
            f"kernel argument |t| up to {t_max:g} exceeds the radius {KERNEL_RADIUS_CAP:g}"
        )
    return KernelTable(kappa=float(kappa), t_max=float(t_max))


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


def kernel_ab_integral(kappa: float, t, order: int) -> tuple:
    """(A, B) from the integral representation with an `order`-node
    Gauss-Jacobi rule; a `zero_limit` kappa gives (cos t, -sin t).  Each
    mirrored node pair folds into one node (s+ - s-)/2 with weight w+ + w-
    (an odd order's zero node adds nothing; m0 sums the full rule).  The
    arguments are summed in blocks of _KERNEL_BLOCK.  Raises OverflowError,
    naming kappa, when the rule's recurrence leaves the float range."""
    t = np.asarray(t, dtype=float)
    if zero_limit(kappa):
        return np.cos(t), -np.sin(t)
    try:
        nodes, weights = jacobi_rule(kappa - 1.0, kappa - 1.0, order)
    except OverflowError as exc:
        raise OverflowError(f"kernel rule for kappa = {kappa!r}: {exc}") from None
    m0 = float(weights.sum())
    s = 0.5 * (nodes[::-1] - nodes)[:order // 2]  # ascending nodes: pair j is (order - 1 - j, j)
    w = (weights[::-1] + weights)[:order // 2]
    A, B = np.empty(t.shape), np.empty(t.shape)
    for start in range(0, t.size, _KERNEL_BLOCK):
        rows = slice(start, start + _KERNEL_BLOCK)
        phase = np.multiply.outer(t.reshape(-1)[rows], s)
        half = np.multiply(phase, 0.5)  # in place from here: two (block, order // 2) arrays
        np.sin(half, out=half)
        half *= half
        A.reshape(-1)[rows] = 1.0 - half @ (2.0 * w) / m0
        B.reshape(-1)[rows] = np.sin(phase, out=phase) @ -(w * s) / m0
        del phase, half  # before the next block's arrays exist
    return A, B


def eval_kernel_ab(table: KernelTable, t) -> tuple:
    """(A(t), B(t)) with E(x, -u y) = A + u B, E(x, +u y) = A - u B, t = x y.

    Raises ArgumentOutOfRadius for |t| beyond the table's t_max, or NaN.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) <= table.t_max):  # False for NaN
        raise ArgumentOutOfRadius(f"|t| exceeds validity radius {table.t_max} or is not a finite number")
    A, B = kernel_ab_integral(table.kappa, t, kernel_rule_order(table.t_max))
    if t.ndim == 0:
        return float(A), float(B)
    return A, B


def mehta_constant(kappa_block) -> float:
    """c_k = (int e^(-|x|^2/2) w_k dx)^(-1) over the block's coordinates,
    in closed form: prod_j 1 / (2^(k_j+1/2) Gamma(k_j+1/2)).

    Raises OverflowError when c_k is not a normal float (a block whose
    multiplicities add up to about 150 or more): a zero or subnormal
    constant would turn into NaN or a division by zero downstream.
    """
    total = 1.0
    for k in kappa_block:
        k = float(k)
        if not 0.0 <= k < math.inf:
            raise ValueError("multiplicities must be finite and nonnegative")
        try:
            total *= 2.0 ** (k + 0.5) * math.gamma(k + 0.5)
        except OverflowError:
            total = math.inf
    c = 1.0 / total
    if not c >= sys.float_info.min:
        raise OverflowError(f"Mehta constant of kappa = {tuple(kappa_block)} underflows ({c!r})")
    return c


# -- generalized Hermite family ---------------------------------------------

HERMITE_N_CAP = 64  # highest degree served; bounds the work, the recurrence is exact


def hermite_basis(kappa: float, n_max: int):
    """Monic recurrence (alpha, beta) for the weight |s|^(2 kappa) e^(-s^2),
    in closed form (Rosenblum, "Generalized Hermite polynomials and the
    Bose-like oscillator calculus", 1994):

        alpha_n = 0,  beta_0 = Gamma(kappa + 1/2),
        beta_n = (n + 2 kappa [n odd]) / 2.

    Returns arrays of length n_max + 1.  Raises OverflowError once
    Gamma(kappa + 1/2), the total mass, is not a finite float (kappa
    about 171 and up).
    """
    if not 0 <= n_max <= HERMITE_N_CAP:
        raise ValueError(f"n_max must be within 0..{HERMITE_N_CAP}")
    if not 0.0 <= kappa < math.inf:
        raise ValueError("kappa must be finite and nonnegative")
    try:
        mass = math.gamma(kappa + 0.5)
    except OverflowError:
        raise OverflowError(f"Hermite weight mass Gamma(kappa + 1/2) overflows for kappa = {kappa!r}") from None
    n = np.arange(n_max + 1)
    beta = (n + 2.0 * kappa * (n % 2)) / 2.0
    beta[0] = mass
    return np.zeros(n_max + 1), beta


def eval_orthonormal(alpha: np.ndarray, beta: np.ndarray, n: int, s) -> np.ndarray:
    """Orthonormal polynomial p_n at s from the monic recurrence."""
    s = np.asarray(s, dtype=float)
    p_prev = np.zeros_like(s)
    p = np.full_like(s, 1.0 / math.sqrt(beta[0]))
    for k in range(n):
        p_next = ((s - alpha[k]) * p - math.sqrt(beta[k]) * p_prev) / math.sqrt(beta[k + 1])
        p_prev, p = p, p_next
    return p


def psi_rule(kappa: float, order: int):
    """Nodes and weights integrating f against the translation density
    psi_kappa(t) = Gamma(kappa+1/2)/(sqrt(pi) Gamma(kappa)) (1+t)(1-t^2)^(kappa-1),
    whose total mass is exactly 1.  The nodes are exactly antisymmetric,
    t == -t[::-1]: each mirrored pair of the Gauss-Jacobi rule folds into
    +-(t+ - t-)/2, and its base weights into their mean, before the factor
    (1 + t).  A `zero_limit` kappa gets its limit delta_{+1}: the node pair
    (-1, +1) with weights (0, 1).  Raises OverflowError, naming kappa, when
    the rule's recurrence leaves the float range."""
    if kappa <= 0.0:
        raise ValueError("psi density needs kappa > 0")
    if zero_limit(kappa):
        return np.array([-1.0, 1.0]), np.array([0.0, 1.0])
    try:
        nodes, weights = jacobi_rule(kappa - 1.0, kappa - 1.0, order)
    except OverflowError as exc:
        raise OverflowError(f"psi rule for kappa = {kappa!r}: {exc}") from None
    # log space: Gamma(kappa + 1/2) alone overflows from kappa ~ 171 on
    const = math.exp(math.lgamma(kappa + 0.5) - math.lgamma(kappa) - 0.5 * math.log(math.pi))
    t = 0.5 * (nodes - nodes[::-1])
    return t, const * (0.5 * (weights + weights[::-1])) * (1.0 + t)
