"""Rank-one (Z2) Dunkl machinery: kernel, Mehta constants, generalized
Hermite recurrences and Roesler's translation with its density psi_kappa.

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

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import NodeCountExceeded, jacobi_rule

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
    "roesler_translate",
    "kernel_rule_order",
]

KERNEL_RADIUS_CAP = 300.0  # max |x y| a kernel table accepts; tested to there against mpmath
_KERNEL_BLOCK = 1 << 14  # arguments per block of kernel_ab_integral: the triangle of a 180 x 180 quadrant
_EXPLICIT_CHUNK = 1 << 15  # field values per call in roesler_translate
_EXPLICIT_CAP = 1 << 30  # field values one explicit pass may cost, points x prod_j branches
_PSI_ORDERS = (8, 12, 16, 24, 32, 48, 64)  # the rungs each axis of the adaptive roesler_translate climbs
_PSI_RTOL = 1e-14  # agreement of an axis's next rung with its current one, relative max norm
_PROBE_STRIDE = 16  # every k-th key joins the order probe, with all of its points


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


# -- Roesler's translation --------------------------------------------------


def psi_rule(kappa: float, order: int):
    """Nodes and weights integrating f against the translation density
    psi_kappa(t) = Gamma(kappa+1/2)/(sqrt(pi) Gamma(kappa)) (1+t)(1-t^2)^(kappa-1),
    whose total mass is exactly 1.  The nodes are exactly antisymmetric,
    t == -t[::-1]: each mirrored pair of the Gauss-Jacobi rule folds into
    +-(t+ - t-)/2, and its base weights into their mean, before the factor
    (1 + t).  Raises ValueError for a `zero_limit` kappa, which has no
    Jacobi rule (translation is then the plain shift), and OverflowError,
    naming kappa, when the rule's recurrence leaves the float range."""
    if kappa <= 0.0 or zero_limit(kappa):
        raise ValueError(f"psi density needs kappa > 2^-54, got {kappa!r}")
    try:
        nodes, weights = jacobi_rule(kappa - 1.0, kappa - 1.0, order)
    except OverflowError as exc:
        raise OverflowError(f"psi rule for kappa = {kappa!r}: {exc}") from None
    # log space: Gamma(kappa + 1/2) alone overflows from kappa ~ 171 on
    const = math.exp(math.lgamma(kappa + 0.5) - math.lgamma(kappa) - 0.5 * math.log(math.pi))
    t = 0.5 * (nodes - nodes[::-1])
    return t, const * (0.5 * (weights + weights[::-1])) * (1.0 + t)


def _branch_table(x: np.ndarray, zj: float, rule) -> tuple:
    """(coordinates, coefficients), each (len(x), branches): x - z with 1 at
    kappa_j = 0.  Else each psi node (t, w) is taken at sign(x) t, which is
    the node w[::-1] weighs for x < 0 (the nodes are antisymmetric), and
    gives +-Omega with w (1 +- (x-z)/Omega)/2, Omega = sqrt(x^2 + z^2 -
    2 |x| z t), both w/2 in the limit Omega = 0.  So the coordinates depend
    on |x| alone: x and -x get bit-identical ones."""
    if rule is None:
        return (x - zj)[:, None], np.ones((x.size, 1))
    t, w = rule
    a = np.abs(x)
    om = np.sqrt(np.maximum((a * a)[:, None] + zj * zj - (2.0 * zj * a)[:, None] * t, 0.0))
    ratio = np.divide((x - zj)[:, None], om, out=np.zeros_like(om), where=om > 0.0)
    w = np.where((x < 0.0)[:, None], w[::-1], w)
    return np.hstack((om, -om)), 0.5 * np.hstack((w * (1.0 + ratio), w * (1.0 - ratio)))


def _psi_rules(kappa, orders) -> list:
    """One psi rule per axis, of that axis's order of `orders`, None for an exact shift."""
    return [None if zero_limit(k) else psi_rule(k, o) for k, o in zip(kappa, orders)]


def _admit(points: int, kappa, orders) -> None:
    """Refuse an explicit pass over `points` at the per-axis psi `orders`
    that costs more than `_EXPLICIT_CAP` field values: points x prod_j w_j,
    w_j = 2 orders[j] on a Roesler axis and 1 on a shift axis.  Raises
    NodeCountExceeded, naming the one order or, if they differ, all."""
    cost = points * math.prod(1 if zero_limit(k) else 2 * o for k, o in zip(kappa, orders))
    if cost > _EXPLICIT_CAP:
        at = f"order {orders[0]}" if len(set(orders)) == 1 else f"orders {tuple(orders)}"
        raise NodeCountExceeded(f"explicit translation of {points} points at psi {at} costs {cost} "
                                f"field values, over the cap {_EXPLICIT_CAP}; use --method spectral")


def _mirror_classes(pts: list, kappa) -> tuple:
    """(order, starts): the flattened points `pts` grouped by their key,
    |x_j| on a Roesler axis and x_j on a shift axis, bit for bit, at any psi
    order.  `order` sorts the points by key, and key k holds the points
    order[starts[k]:starts[k + 1]].  Points of one key, up to 2^d mirror
    images of each other, share every field argument (`_branch_table`).
    """
    bits = np.stack([x if zero_limit(k) else np.abs(x) for x, k in zip(pts, kappa)]).view(np.int64)
    order = np.lexsort(bits[::-1])
    bits = bits[:, order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(bits[:, 1:] != bits[:, :-1], axis=0)
    return order, np.append(np.flatnonzero(first), order.size)


def _explicit_pass(fn, pts: list, z: np.ndarray, rules: list, classes: tuple) -> np.ndarray:
    """tau_z fn at the flattened points `pts`, one psi rule per axis, with
    the points' `classes` from `_mirror_classes`.

    The field is called on the keys of those classes only, at most
    `_EXPLICIT_CHUNK` values per call (`_explicit_chunk`).  Each point
    accumulates as it would alone, the per-row contraction with its own
    coefficients in the same branch order, so its value is bit-identical
    whichever other points share the call.
    """
    widths = [1 if r is None else 2 * len(r[0]) for r in rules]
    step = max(1, _EXPLICIT_CHUNK // max(widths))
    order, starts = classes
    out = np.empty(pts[0].size)
    for k in range(0, starts.size - 1, step):
        bounds = starts[k:k + step + 1]
        idx = order[bounds[0]:bounds[-1]]
        out[idx] = _explicit_chunk(fn, [x[idx] for x in pts], z, rules, widths, bounds - bounds[0])
    return out


def _explicit_chunk(fn, pts: list, z: np.ndarray, rules: list, widths: list, bounds) -> np.ndarray:
    """tau_z fn at the points `pts`, sorted by key: key k holds the points
    bounds[k]:bounds[k + 1].

    The field sees one row per key.  The axis with the most branches rides
    along as a trailing array axis, and Python loops over the other axes'
    branches.  That axis tabulates its coefficients per key at the sign of
    the key's first point, and again at the other sign for the keys whose
    points take both; on a mirrored grid every key does, and both tables
    line up with the field values, so neither is gathered.  Every other
    axis tabulates per distinct coordinate, a shift axis with coefficient
    1.  Each point reads its own rows.
    """
    inner = int(np.argmax(widths))
    outer = [j for j in range(len(pts)) if j != inner]
    heads, n_keys = bounds[:-1], bounds.size - 1
    rows = np.repeat(np.arange(n_keys), np.diff(bounds))
    neg = pts[inner] < 0.0
    flip = neg != neg[heads][rows]
    both = np.unique(rows[flip])
    irow = rows.copy()
    irow[flip] = n_keys + np.searchsorted(both, rows[flip])
    head_x = pts[inner][heads]
    args, coef = _branch_table(head_x, z[inner], rules[inner])
    flipped = _branch_table(-head_x[both], z[inner], rules[inner])[1] if both.size else None
    tables = {}
    for j in outer:
        _, first, at = np.unique(pts[j].view(np.int64), return_index=True, return_inverse=True)
        a, c = _branch_table(pts[j][first], z[j], rules[j])
        tables[j] = (a, at[heads], c, at)
    call, sums, acc = [args] * len(pts), np.empty(n_keys + both.size), np.zeros(rows.size)
    for branch in itertools.product(*(range(widths[j]) for j in outer)):
        c = None
        for j, b in zip(outer, branch):
            a, head_at, cj, at = tables[j]
            call[j] = a[head_at, b:b + 1]
            c = cj[at, b] if c is None else c * cj[at, b]
        vals = np.broadcast_to(np.asarray(fn(*call), dtype=float), args.shape)
        np.einsum("ij,ij->i", vals, coef, out=sums[:n_keys])
        if both.size:
            np.einsum("ij,ij->i", vals if both.size == n_keys else vals[both], flipped, out=sums[n_keys:])
        del vals  # freed before the next field call, which may reuse its memory
        t = sums[irow]
        if c is not None:
            t *= c
        acc += t
    return acc


def _subset(classes: tuple, chosen: np.ndarray) -> tuple:
    """The classes whose keys `chosen` marks, as `_mirror_classes` gives them."""
    order, sizes = classes[0], np.diff(classes[1])
    return order[np.repeat(chosen, sizes)], np.append(0, np.cumsum(sizes[chosen]))


def _psi_order(fn, pts: list, z: np.ndarray, kappa, classes: tuple, stride: int = _PROBE_STRIDE) -> tuple:
    """(orders, estimate, probed): one psi order per axis for tau_z fn at
    `pts`, the error estimate, and what the probe evaluated.

    The probe takes every `stride`-th of the points' `classes`, with all of
    its points, plus the classes of the largest |x_j| on each axis (where
    |x_j z_j|, and so the integrand's variation, peaks), and keeps the key
    order, so its classes are runs of the chosen class sizes.  It starts at
    the first order of `_PSI_ORDERS` on every axis.  Each round first
    admits (`_admit`) the final pass over all the points at the current
    orders, the lowest the probe can still return, and then runs the probe
    once per open Roesler axis below the last order, that axis one rung up
    and the others held.  An axis whose result agrees with the base to
    `_PSI_RTOL` in relative max norm closes at its current order; the other
    open axes step up together, and their result is the new base.  An axis
    at the last order closes there.  The estimate is the largest of the
    axes' last differences.  `probed` is the probe's mask over the keys of
    `classes`, its points and their values at the returned orders, which
    are the final pass's bits for them.  No points, or exact shifts only:
    the first order on every axis, 0.0, and no probe.
    """
    n, at = pts[0].size, [_PSI_ORDERS[0]] * len(kappa)
    order, sizes = classes[0], np.diff(classes[1])
    chosen = np.zeros(sizes.size, dtype=bool)
    axes = [j for j, k in enumerate(kappa) if not zero_limit(k)]
    if n == 0 or not axes:
        return tuple(at), 0.0, (chosen, [], [])
    key = np.repeat(np.arange(sizes.size), sizes)  # of each sorted point
    chosen[::stride] = True
    chosen[[key[np.argmax(np.abs(x[order]))] for x in pts]] = True
    idx, starts = _subset(classes, chosen)
    probe = [x[idx] for x in pts]
    probe_classes = np.arange(idx.size), starts
    rung, est, base = dict(zip(_PSI_ORDERS, _PSI_ORDERS[1:])), {}, None  # rung: each order's next one
    while True:
        _admit(n, kappa, at)
        if base is None:
            base = _explicit_pass(fn, probe, z, _psi_rules(kappa, at), probe_classes)
        axes, up = [j for j in axes if at[j] < _PSI_ORDERS[-1]], {}
        for j in axes:
            rules = _psi_rules(kappa, at[:j] + [rung[at[j]]] + at[j + 1:])  # axis j one rung up
            up[j] = _explicit_pass(fn, probe, z, rules, probe_classes)
            diff, scale = np.max(np.abs(up[j] - base)), np.max(np.abs(up[j]))
            est[j] = float(diff / scale) if scale > 0.0 else (0.0 if diff == 0.0 else math.inf)
        if not (axes := [j for j in axes if est[j] > _PSI_RTOL]):
            return tuple(at), max(est.values(), default=0.0), (chosen, idx, base)
        for j in axes:
            at[j] = rung[at[j]]
        base = up[axes[0]] if len(axes) == 1 else None


def roesler_translate(fn, X, z: np.ndarray, kappa) -> np.ndarray:
    """Rank-one (Roesler) translation tau_z fn at the points X, a tuple of
    d broadcastable coordinate arrays, in their broadcast shape; z holds d
    finite floats.  A kappa_j > 0 coordinate applies

        (tau f)(x) = 1/2 int f(+Omega) (1 + (x-z)/Omega) psi(t) dt
                   + 1/2 int f(-Omega) (1 - (x-z)/Omega) psi(t) dt

    with the Gauss-Jacobi rule `psi_rule`; a `zero_limit` kappa_j is the
    exact shift x_j - z_j.  So tau f sums fn over the product of the axes'
    branch tables, weighted by the product of their coefficients, and fn
    is evaluated once per mirror class of points, grouped once per call
    (`_mirror_classes`).  A probe picks the psi order per call and per axis
    from 8, 12, 16, 24, 32, 48 and 64 (`_psi_order`); the integrand is
    entire in t for an entire field, so the rule converges spectrally.  A
    pass that would cost more than 2^30 field values, points x prod_j
    (2 order_j on a Roesler axis), raises NodeCountExceeded (`_admit`), as
    early as the probe can tell.  Raises ValueError for other than d
    coordinate arrays, or a coordinate that is not finite.

    Roesler's translation is the product of the rank-one ones, so at d >= 2
    a field whose `split` (`field_expr.compile_expr`) lists the terms
    c_t prod_j f_tj(x_j) translates one axis at a time (`_split_translate`),
    at sum_t sum_j X_j.size x 2 order field values, and keeps the pass
    above where a factor raises an ArithmeticError or the sum is not finite.
    """
    X = [np.asarray(x, dtype=float) for x in X]
    if len(X) != len(kappa):
        raise ValueError(f"need {len(kappa)} coordinate arrays, got {len(X)}")
    if not all(np.isfinite(x).all() for x in X):
        raise ValueError("coordinates must be finite")
    split = getattr(fn, "split", None) if len(kappa) >= 2 else None
    out = None if split is None else _split_translate(split, X, z, kappa)
    return _translate(fn, X, z, kappa) if out is None else out


def _translate(fn, X: list, z: np.ndarray, kappa, stride: int = _PROBE_STRIDE) -> np.ndarray:
    """The pass of `roesler_translate` over every point, probing every
    `stride`-th mirror class (`_psi_order`).  The final pass runs the
    classes the probe left out; the probed ones keep the probe's values."""
    X = np.broadcast_arrays(*X)
    pts = [x.ravel() for x in X]
    _admit(pts[0].size, kappa, (_PSI_ORDERS[0],) * len(kappa))  # before the grouping sorts them
    classes = _mirror_classes(pts, kappa)
    orders, _, (chosen, done, values) = _psi_order(fn, pts, z, kappa, classes, stride)
    out = np.empty(pts[0].size)
    if not chosen.all():
        out = _explicit_pass(fn, pts, z, _psi_rules(kappa, orders), _subset(classes, ~chosen))
    out[done] = values
    return out.reshape(X[0].shape)


def _split_translate(split: list, X: list, z: np.ndarray, kappa):
    """sum_t c_t prod_j tau_zj f_tj(X_j) in the points' broadcast shape,
    each distinct factor translated once on its own coordinate array and
    broadcast along its axis, or None where a factor raises an
    ArithmeticError or the sum is not finite.  A factor's probe takes every
    mirror class: a one-axis pass costs 2 order field values per point, so
    the full probe is cheap, while every 16th class of a short axis is too
    few to trust (4 of the 48 classes of the default grid's axis let order
    8 through at 5.6e-14 from order 64, for exp(-0.7 x^2))."""
    shape = np.broadcast_shapes(*(x.shape for x in X))
    factors = dict.fromkeys((j, fj) for _, fs in split for j, fj in enumerate(fs) if fj is not None)
    try:
        for j, fj in factors:
            factors[j, fj] = _translate(fj, [X[j]], z[j:j + 1], kappa[j:j + 1], stride=1)
    except ArithmeticError:
        return None
    out = np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, fs in split:
            out += math.prod((factors[j, fj] for j, fj in enumerate(fs) if fj is not None), start=c)
    return out if np.isfinite(out).all() else None
