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
from functools import lru_cache

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
    "node_count",
    "integrate",
    "parse_grid_spec",
    "NODE_CAP",
]

NODE_CAP = 1 << 24  # nodes per grid; `build_plan` also caps nodes x blades


class RecurrenceBreakdown(ArithmeticError):
    pass


class NodeCountExceeded(ValueError):
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
    """Monic recurrence coefficients for the weight (1-t)^a (1+t)^b on (-1,1)."""
    if a <= -1.0 or b <= -1.0:
        raise ValueError("Jacobi exponents must exceed -1")
    if n < 1:
        raise ValueError("need n >= 1")
    alpha = np.zeros(n)
    beta = np.zeros(n)
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


@dataclass(frozen=True)
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


def build_axis(kappa: float, L: float, panels: int, order: int) -> Grid1D:
    """Uniform panels per side, split at 0; singular inner panel gets the
    x^(2 kappa)-weighted Gauss rule (exposed as effective dx weights).

    Raises OverflowError when a weight factor is not a finite float: the
    inner panel's x^(2 kappa) rule or |L|^(2 kappa) itself overflows
    once 2 kappa ln L nears 709 (kappa = 200 at L = 6).
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if L <= 0.0 or panels < 1 or order < 1:
        raise ValueError("need L > 0, panels >= 1, order >= 1")
    h = L / panels
    xs = []
    ws = []
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
        raise OverflowError(
            f"quadrature weights overflow for kappa = {kappa!r} on (-{L!r}, {L!r})"
        )
    for arr in (nodes, weights, wk):
        arr.flags.writeable = False
    return Grid1D(
        kappa=kappa, L=L, panels=panels, order=order,
        nodes=nodes, weights=weights, wk=wk,
    )


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of per-coordinate grids, nodes in lexicographic order."""

    axes: tuple[Grid1D, ...]

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape)) if self.axes else 1

    def nodes(self) -> np.ndarray:
        """(n_nodes, d) coordinate matrix, lexicographic in the axis order."""
        if not self.axes:
            return np.zeros((1, 0))
        mesh = np.meshgrid(*(ax.nodes for ax in self.axes), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def quad_weights(self) -> np.ndarray:
        """Plain dx quadrature weight per node."""
        return self._outer(tuple(ax.weights for ax in self.axes))

    def total_weights(self) -> np.ndarray:
        """quadrature weight times cached w_k, per node."""
        return self._outer(
            tuple(ax.weights * ax.wk for ax in self.axes)
        )

    @staticmethod
    def _outer(factors) -> np.ndarray:
        out = np.ones(1)
        for f in factors:
            out = np.multiply.outer(out, f)
        return out.ravel()


def node_count(d: int, panels: int, order: int) -> int:
    """(2 panels order)^d, the node count of a d-axis `build_grid`, from
    the spec alone, so oversized grids are refused before any eigen-solve."""
    if panels < 1 or order < 1:
        raise ValueError("need L > 0, panels >= 1, order >= 1")
    return (2 * panels * order) ** d


def build_grid(ms, L, panels: int = 4, order: int = 12) -> TensorGrid:
    """TensorGrid for a multiplicity vector (or anything with a .kappa).

    L may be a scalar (broadcast) or one half-width per coordinate.
    """
    kappas = tuple(getattr(ms, "kappa", ms))
    d = len(kappas)
    n_nodes = node_count(d, panels, order)
    if n_nodes > NODE_CAP:
        raise NodeCountExceeded(f"{n_nodes} nodes exceeds cap {NODE_CAP}")
    Ls = np.broadcast_to(np.asarray(L, dtype=float), (d,))
    axes = tuple(
        build_axis(kappas[j], float(Ls[j]), panels, order) for j in range(d)
    )
    return TensorGrid(axes=axes)


def integrate(values, grid: TensorGrid):
    """sum values * (quadrature weight * cached w_k) in fixed node order.

    The first axis of `values` runs over grid nodes; extra axes (e.g. blade
    coefficients) ride along.
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape[0] != grid.n_nodes:
        raise ValueError(f"expected {grid.n_nodes} values, got {arr.shape[0]}")
    return np.einsum("n,n...->...", grid.total_weights(), arr)


def parse_grid_spec(text: str):
    """Parse "-L:L:panels:order" (one per coordinate, ";"-separated).

    Returns a list of (L, panels, order) triples; a single spec broadcasts.
    """
    specs = []
    for part in text.split(";"):
        pieces = part.strip().split(":")
        if len(pieces) != 4:
            raise ValueError(f"grid spec {part!r} is not -L:L:panels:order")
        lo, hi = float(pieces[0]), float(pieces[1])
        if not (lo == -hi and hi > 0.0):
            raise ValueError(f"grid spec {part!r} must be symmetric about 0")
        panels, order = int(pieces[2]), int(pieces[3])
        if panels < 1 or order < 1:
            raise ValueError(f"grid spec {part!r} needs panels >= 1 and order >= 1")
        specs.append((hi, panels, order))
    return specs
