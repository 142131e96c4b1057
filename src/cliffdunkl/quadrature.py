"""Weighted quadrature for the product measures w_k(x) dx = prod |x_j|^(2 k_j) dx.

One cached Gauss-Jacobi rule, `jacobi_rule(a, b, order)` for the weight
(1 - t)^a (1 + t)^b on (-1, 1), serves every quadrature in the package:

* (kappa - 1, kappa - 1): the psi density and the kernel integral
  representation,
* (0, 2 kappa), mapped to [0, h]: the x^(2 kappa) dx rule of the innermost
  panel of every axis, so the |x|^(2 kappa) singularity at 0 never meets
  a plain Gauss-Legendre rule,
* (0, 0): the Gauss-Legendre panels elsewhere.

Its recurrence coefficients are the classical closed forms, and the nodes
and weights come from one Golub-Welsch eigen-solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "RecurrenceBreakdown",
    "NodeCountExceeded",
    "gauss_from_recurrence",
    "jacobi_recurrence",
    "jacobi_rule",
    "power_rule",
    "Grid1D",
    "TensorGrid",
    "build_axis",
    "build_grid",
    "parse_grid_spec",
    "NODE_CAP",
]

# values per grid (nodes x 2^d blades) and (panels x order)^2 per axis; an operation on full-blade
# fields holds at most 6 such fields of 128 MiB (test_transform_memory_stays_within_two_work_buffers)
NODE_CAP = 1 << 24


class RecurrenceBreakdown(ArithmeticError):
    pass


class NodeCountExceeded(RuntimeError):
    pass


def gauss_from_recurrence(alpha, beta, order: int):
    """Gauss nodes/weights from monic three-term recurrence coefficients.

    alpha[k], beta[k] define p_{k+1} = (x - alpha[k]) p_k - beta[k] p_{k-1},
    with beta[0] = total mass of the measure.  Nodes are the eigenvalues of
    the symmetric Jacobi matrix, weights beta[0] times the squared first
    eigenvector components.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if order < 1 or len(alpha) < order or len(beta) < order:
        raise ValueError("need at least `order` recurrence coefficients")
    if beta[0] <= 0.0 or np.any(beta[1:order] <= 0.0):
        raise RecurrenceBreakdown("nonpositive recurrence norm")
    J = np.diag(alpha[:order])
    if order > 1:
        off = np.sqrt(beta[1:order])
        J += np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(J)
    weights = beta[0] * vectors[0, :] ** 2
    return nodes, weights


def jacobi_recurrence(n: int, a: float, b: float):
    """Monic recurrence coefficients for the weight (1-t)^a (1+t)^b on (-1,1).
    Raises OverflowError, naming a and b, when one leaves the float range."""
    if a <= -1.0 or b <= -1.0:
        raise ValueError("Jacobi exponents must exceed -1")
    if n < 1:
        raise ValueError("need n >= 1")
    alpha = np.zeros(n)
    beta = np.zeros(n)
    try:
        # total mass 2^(a+b+1) B(a+1, b+1), in log space: the gamma factors
        # overflow on their own once a + b + 2 > 171
        beta[0] = math.exp(
            (a + b + 1.0) * math.log(2.0)
            + math.lgamma(a + 1.0)
            + math.lgamma(b + 1.0)
            - math.lgamma(a + b + 2.0)
        )
        alpha[0] = (b - a) / (a + b + 2.0)
        for k in range(n):
            s = 2.0 * k + a + b
            if k >= 1:
                alpha[k] = (b * b - a * a) / (s * (s + 2.0))
            if k == 1:
                # cancelled form; the generic one is 0/0 when a + b = -1
                beta[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
            elif k >= 2:
                beta[k] = (
                    4.0 * k * (k + a) * (k + b) * (k + a + b)
                    / (s * s * (s + 1.0) * (s - 1.0))
                )
    except OverflowError:  # a Python-float exp, lgamma or power
        beta[0] = math.inf
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all() and (beta > 0.0).all()):
        raise OverflowError(f"Jacobi recurrence leaves the float range for a = {a!r}, b = {b!r}")
    return alpha, beta


@lru_cache(maxsize=256)
def jacobi_rule(a: float, b: float, order: int):
    """Gauss-Jacobi nodes/weights on (-1, 1) for the weight (1-t)^a (1+t)^b;
    read-only arrays."""
    alpha, beta = jacobi_recurrence(order, a, b)
    nodes, weights = gauss_from_recurrence(alpha, beta, order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def power_rule(two_kappa: float, hi: float, order: int):
    """Gauss rule for the measure x^(two_kappa) dx on [0, hi]: the Jacobi
    (0, two_kappa) rule mapped from (-1, 1), so the singular factor at 0
    is integrated exactly.  Returns fresh arrays."""
    if two_kappa < 0.0:
        raise ValueError("exponent must be nonnegative")
    if not hi > 0.0:
        raise ValueError("need hi > 0")
    t, w = jacobi_rule(0.0, two_kappa, order)
    half = hi / 2.0
    return half * (t + 1.0), half ** (two_kappa + 1.0) * w


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Panelled quadrature for one coordinate on (-L, L).

    `weights` are plain dx quadrature weights; the |x|^(2 kappa) factor is
    cached separately in `wk` and applied at integration time, so
    weights[i] * wk[i] integrates against |x|^(2 kappa) dx.
    """

    kappa: float
    L: float
    panels: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    wk: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


@lru_cache(maxsize=128)  # NODE_CAP admits 8192 nodes per axis, 3 arrays of 64 KiB: at most 24 MiB
def build_axis(kappa: float, L: float, panels: int, order: int) -> Grid1D:
    """Uniform panels per side, split at 0; singular inner panel gets the
    x^(2 kappa)-weighted Gauss rule (exposed as effective dx weights).

    Raises OverflowError, naming kappa and L, when a weight factor is not
    a finite float: the inner panel's x^(2 kappa) rule or |L|^(2 kappa)
    itself overflows once 2 kappa ln L nears 709 (kappa = 200 at L = 6),
    and the rule's Jacobi recurrence from kappa = 517 on.
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if L <= 0.0 or panels < 1 or order < 1:
        raise ValueError("need L > 0, panels >= 1, order >= 1")
    h = L / panels
    xs = []
    ws = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(panels):
                lo, hi = i * h, (i + 1) * h
                if i == 0 and kappa > 0.0:
                    n, w = power_rule(2.0 * kappa, hi, order)
                    w = w / n ** (2.0 * kappa)
                else:
                    t, w0 = jacobi_rule(0.0, 0.0, order)
                    n = lo + (hi - lo) / 2.0 * (t + 1.0)
                    w = (hi - lo) / 2.0 * w0
                xs.append(n)
                ws.append(w)
            pos = np.concatenate(xs)
            wpos = np.concatenate(ws)
            nodes = np.concatenate([-pos[::-1], pos])
            weights = np.concatenate([wpos[::-1], wpos])
            wk = np.abs(nodes) ** (2.0 * kappa) if kappa > 0.0 else np.ones_like(nodes)
        if not (np.isfinite(weights).all() and np.isfinite(wk).all()):
            raise OverflowError("a weight is not a finite float")
    except OverflowError as exc:  # also from the inner panel's rule or its scale
        raise OverflowError(f"quadrature weights overflow for kappa = {kappa!r} on (-{L!r}, {L!r})") from exc
    for arr in (nodes, weights, wk):
        arr.flags.writeable = False
    return Grid1D(
        kappa=kappa, L=L, panels=panels, order=order,
        nodes=nodes, weights=weights, wk=wk,
    )


@dataclass(frozen=True, eq=False)
class TensorGrid:
    """Tensor product of per-coordinate grids that share panels and order."""

    axes: tuple[Grid1D, ...]

    def __post_init__(self):
        if len({(ax.panels, ax.order) for ax in self.axes}) > 1:
            raise ValueError("grid axes must share panels and order")

    @property
    def spec(self) -> tuple:
        """(L per axis, panels, order), as `build_grid` takes them."""
        return tuple(ax.L for ax in self.axes), self.axes[0].panels, self.axes[0].order

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape)) if self.axes else 1

    def coords(self) -> tuple:
        """Open coordinates: axis j's nodes as an array of shape (1, ..., n_j, ..., 1)."""
        return np.ix_(*(ax.nodes for ax in self.axes))

    def quad_weights(self) -> np.ndarray:
        """Plain dx quadrature weight per node, an array of `shape`."""
        return reduce(np.multiply.outer, [ax.weights for ax in self.axes], np.ones(()))

    def total_weights(self) -> np.ndarray:
        """Quadrature weight times cached w_k per node, an array of `shape`."""
        return reduce(np.multiply.outer, [ax.weights * ax.wk for ax in self.axes], np.ones(()))


def build_grid(ms, L, panels: int = 4, order: int = 12) -> TensorGrid:
    """TensorGrid for a multiplicity vector (or anything with a .kappa).

    L may be a scalar (broadcast) or one half-width per coordinate.  Before
    any eigen-solve, NodeCountExceeded refuses more than NODE_CAP values per
    axis, (panels x order)^2, which bounds a plan's kernel quadrant and a
    rule's order x order Jacobi matrix; then per grid, nodes times 2^d blades.
    That is the one memory rule: on full-blade fields, forward, inverse,
    translate_spectral and convolve hold at most 3, 2, 4 and 6 fields of
    the grid's size; fields with fewer blades hold less.  The axes come
    from `build_axis`'s cache.
    """
    kappas = tuple(getattr(ms, "kappa", ms))
    d = len(kappas)
    if panels < 1 or order < 1:
        raise ValueError("need L > 0, panels >= 1, order >= 1")
    half = panels * order  # positive nodes per axis
    if half * half > NODE_CAP:
        raise NodeCountExceeded(f"{half} x {half} values per axis, (panels x order)^2, exceeds cap {NODE_CAP}")
    n_nodes = (2 * half) ** d
    n_values = n_nodes * 2**d
    if n_values > NODE_CAP:
        raise NodeCountExceeded(f"{n_nodes} nodes x {2**d} blades = {n_values} values exceeds cap {NODE_CAP}")
    Ls = np.broadcast_to(np.asarray(L, dtype=float), (d,))
    axes = tuple(
        build_axis(kappas[j], float(Ls[j]), panels, order) for j in range(d)
    )
    return TensorGrid(axes=axes)


def parse_grid_spec(text: str, d: int):
    """Parse "-L:L:panels:order", one spec or d of them ";"-separated, into
    (L per coordinate, panels, order); the specs share panels and order.
    Messages read after the name of the flag that gave `text`."""
    parts = text.split(";")
    if len(parts) not in (1, d):
        raise ValueError(f"wants 1 or {d} specs, got {len(parts)}")
    Ls, shapes = [], set()
    for part in parts:
        pieces = part.strip().split(":")
        if len(pieces) != 4:
            raise ValueError(f"spec {part!r} is not -L:L:panels:order")
        lo, hi = float(pieces[0]), float(pieces[1])
        if not (lo == -hi and 0.0 < hi < math.inf):
            raise ValueError(f"spec {part!r} must be symmetric about 0 and finite")
        panels, order = int(pieces[2]), int(pieces[3])
        if panels < 1 or order < 1:
            raise ValueError(f"spec {part!r} needs panels >= 1 and order >= 1")
        Ls.append(hi)
        shapes.add((panels, order))
    if len(shapes) > 1:
        raise ValueError("must use one panels and order on every axis")
    return tuple(Ls * (d // len(Ls))), panels, order  # one spec broadcasts
