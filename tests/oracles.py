"""Pointwise references for the tests: the kernel as a multivector, the
weight w_k and the generalized Hermite functions, each evaluated one
point (or one row of points) at a time, apart from the engine's tables."""

import numpy as np

from cliffdunkl.clifford_core import ImaginaryUnit, MultiVector
from cliffdunkl.dunkl_rank1 import (
    HERMITE_N_CAP,
    MultiplicitySplit,
    eval_kernel_ab,
    eval_orthonormal,
    hermite_basis,
)


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
    return MultiVector.scalar(unit.sig, z.real) + z.imag * unit.value


def weight(ms: MultiplicitySplit, x):
    """w_k(x) = prod_j |x_j|^(2 kappa_j), vectorized over rows of x."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[-1] != ms.d:
        raise ValueError(f"expected {ms.d} coordinates, got {pts.shape[-1]}")
    out = np.ones(pts.shape[0])
    for j, k in enumerate(ms.kappa):
        if k > 0.0:
            out *= np.abs(pts[:, j]) ** (2.0 * k)
    return float(out[0]) if x.ndim == 1 else out


def eval_h(v, x, ms: MultiplicitySplit):
    """Generalized Hermite function h_v(x) = prod_j p_(v_j)(x_j) e^(-x_j^2/2),
    orthonormal against w_k(x) dx; x is one point or an (n, d) array."""
    v = tuple(int(n) for n in v)
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if len(v) != ms.d or pts.shape[-1] != ms.d:
        raise ValueError("index/coordinate length mismatch")
    out = np.ones(pts.shape[0])
    for j, (nj, kj) in enumerate(zip(v, ms.kappa)):
        alpha, beta = hermite_basis(kj, HERMITE_N_CAP)
        s = pts[:, j]
        out *= eval_orthonormal(alpha, beta, nj, s) * np.exp(-0.5 * s * s)
    return float(out[0]) if x.ndim == 1 else out
