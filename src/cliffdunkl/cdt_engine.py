"""Two-sided Clifford Dunkl transform engine.

The transform of a multivector field f on R^d (coordinates split into a
p-block and a q-block) is

    F(y) = integral  E_p(x1, -a y1) f(x) E_q(x2, -b y2) dmu(x),

where a, b are multivector square roots of -1 and dmu carries the
|x_j|^(2 kappa_j) weights.  Per coordinate E = A + u B, A even and B odd
in x_j y_j, u = a on the p-block and b on the q-block.

Precondition: every grid axis is mirrored bit for bit (nodes equal
-nodes[::-1], weights and |x|^(2 kappa) factors symmetric), as `build_axis`
builds it.  Folding each axis into the even and odd parts of the samples
on its positive half, the even part meets only A and the odd part only B:
one real half-size matrix per axis and parity, and the parity is kept.  A
parity class sigma in {0,1}^d collects one u per odd axis, and a^2 = b^2
= -1 turns that into a sign table:

    a^|sigma_p| f b^|sigma_q| = sign(sigma) a^s f b^r,
    s = |sigma_p| mod 2,  r = |sigma_q| mod 2,
    sign(sigma) = (-1)^(floor(|sigma_p|/2) + floor(|sigma_q|/2)).

So a transform is, per class, one real GEMM per axis and the blade matrix
sign(sigma) cmat[s, r] (coefficients of a^s e_A b^r).  The fold takes a
constant number of passes at any d: gather the 2^d mirrored orthants into
one stack, then mix them into the 2^d classes with the +-1 Hadamard matrix
(-1)^(sigma . epsilon) in a single GEMM; the unfold is the same GEMM and a
scatter back onto the full axes.  Every stage, from the gather to the
scatter, writes into one of two work buffers that the stages take in turn,
and the last one is the result.  `inverse` differs from `forward` in its
constants and in the class sign (-1)^|sigma| of its kernel A - uB.
Translation and convolution are scalar operators (each unit enters every
path an even number of times), and translation by z is convolution with
delta_z, so both take class products between the contractions of one
pipeline (`_scalar_operator`).  `translate_explicit` instead applies
Roesler's formula blade by blade at the points a blade is called on
(`dunkl_rank1.roesler_translate`): one field evaluation per mirror class
of points, at psi orders a probe picks per axis.  A blade expression
that is a sum of products of one-coordinate factors translates one
factor at a time, each along its own axis, as Roesler's translation is
the product of the rank-one ones.

A field's support is the k blades that may be nonzero: an analytic field's
blade keys, the planes of a caller's array that hold a nonzero value, or
the nonzero columns of the blade map that made an engine result.  Every
stage carries only those: the fold and contractions, the rows of cmat in
the blade step and of the structure tensor in the class products.  So work
and work buffers scale with k; a partial result is scattered into zeros.

Analytic fields are sampled one blade body per blade.  From 2^20 sampled
values on, the bodies are dealt out to the calling thread and to usable
CPUs - 1 threads started for the call and joined before it returns
(`_each`).  numpy releases the GIL in its ufunc loops, so the bodies run on
every core, each writing its own slice of the blade-first samples, and the
result is bit-identical to the serial loop.  The same threads run the
orthant gather and scatter of fields that large, and every GEMM too large
for BLAS to keep on one thread (`_matmul`): in row blocks small enough that
BLAS never wakes a worker of its own, which would keep spinning on a core
after the call and slow down whatever runs next, blade bodies included.

Normalization: `raw` implements the integral above literally; `mehta`
multiplies the forward transform by c_{k_p} c_{k_q} (and adjusts the
inverse), which makes the transform unitary and fixes the Gaussian
e^{-|x|^2/2}.  Measured constants for both modes are compared against
their asserted values by `run_claims_ledger`; disagreements are reported,
never patched over.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .clifford_core import (
    ImaginaryUnit,
    MultiVector,
    Signature,
    blade_label,
    parse_blade,
    structure_tensor,
    validate_imaginary,
)
from .dunkl_rank1 import (
    ArgumentOutOfRadius,
    MultiplicitySplit,
    eval_kernel_ab,
    eval_orthonormal,
    hermite_basis,
    kernel_coefficients,
    mehta_constant,
    roesler_translate,
)
from .quadrature import Grid1D, TensorGrid, build_grid

_PARALLEL_MIN = 1 << 20  # values from which sampling, gather and scatter share their items out to threads
# m*n*k of the largest 2-D product `_matmul` hands to BLAS in one piece.  With numpy 2.4.6 on
# OpenBLAS 0.3.31 (2 CPUs), products of up to 10^6 multiply-adds ran on the calling thread;
# from 1,007,616 on they woke BLAS's own worker, which then busy-waits on the other CPU for
# 0.1-0.2 s after the call.  2^19 leaves a 1.9x margin.
_BLAS_SERIAL = 1 << 19
# beside NODE_CAP's memory rule: `_axis_mats` keeps the tables of the 64 latest axis pairs of up
# to 128 positive nodes, 2 x 2 x 128^2 floats (512 KiB) each, so at most 32 MiB outlives the plans
_SHARED_AXIS_MAX = 128
_SHARED_AXES = 64


class PlanMismatch(ValueError):
    """Field and plan disagree on signature, multiplicities, or grid."""


class ZeroNormField(ValueError):
    pass


# -- concurrent work: blade bodies, orthants, GEMM row blocks ---------------


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _each(fn, items, shared: bool) -> None:
    """fn(item) for every item: blade bodies, orthants or GEMM row blocks,
    each writing its own part of one output.

    If `shared`, the items are dealt out in turn to n shares, n the usable
    CPUs: the calling thread runs the first, and n - 1 threads started for
    the call and joined before it returns run the others.  An error raised
    in the calling thread's share wins, then the other shares' in order.
    Otherwise it is the plain loop on the calling thread.
    """
    items = list(items)
    n = min(_usable_cpus() if shared else 1, len(items))
    if n < 2:
        for item in items:
            fn(item)
        return
    errors = [None] * n

    def share(k):
        try:
            for item in items[k::n]:
                fn(item)
        except BaseException as exc:  # raised in the caller, after the join
            errors[k] = exc

    threads = [threading.Thread(target=share, args=(k,), name=f"cliffdunkl-{k}") for k in range(1, n)]
    for thread in threads:
        thread.start()
    share(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.matmul(a, b, out=out), bit for bit, for 2-D products (m, k) @ (k, n)
    batched over any leading axes.

    A product of more than `_BLAS_SERIAL` multiply-adds is cut into blocks
    of rows of at most that many, dealt out by `_each`, so that BLAS runs
    each block on the thread that calls it.  The threads take only views of
    a, b and out.  The sums of a row are those of the whole product as long
    as blocks start at multiples of 8 rows, because OpenBLAS sums a ragged
    edge of fewer rows in another order, and none is a single row, which
    numpy hands to gemv instead.  So a last block of one row takes in the 8
    rows before it (at most 9/8 of the bound, still far below BLAS's own
    threshold), and where 8 rows exceed the bound BLAS gets the product whole.
    """
    per_row = a.shape[-1] * b.shape[-1]
    rows = _BLAS_SERIAL // per_row // 8 * 8
    m = a.shape[-2]
    if m * per_row <= _BLAS_SERIAL or not rows:
        return np.matmul(a, b, out=out)
    starts = list(range(0, m, rows))
    if starts[-1] == m - 1:
        starts[-1] -= 8
    blocks = [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [m]) if hi > lo]
    _each(lambda rs: np.matmul(a[..., rs, :], b, out=out[..., rs, :]), blocks, True)
    return out


# -- fields ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnalyticField:
    """Field given per blade as a callable (or expression) over x1..xd.

    `blades` maps a blade label (or mask) to a function of d coordinate
    arrays.  The arrays are open (`TensorGrid.coords`): x_j has shape (1, ..., n_j,
    ..., 1), so a body must be elementwise numpy that broadcasts them, as
    expression fields and `translate_explicit` output are.  Its result is
    broadcast to the grid; one that does not broadcast, or that is not real
    (complex, str, object), raises ValueError.

    Each body is called once per `sample`.  On grids of `_PARALLEL_MIN`
    (2^20) values or more, nodes times blades, the bodies run concurrently
    on the calling thread and threads started for the call and joined
    before it returns, so a body must not mutate shared state.  Threads
    started the same way run the engine's large contractions, so no BLAS
    worker is left spinning on a core that the next bodies need.  Each
    plane is checked for non-finite values as its body writes it.  The blade
    keys are the field's support: the engine's work scales with their number.
    """

    sig: Signature
    ms: MultiplicitySplit
    blades: Mapping

    def __post_init__(self):
        if self.ms.d != self.sig.d:
            raise PlanMismatch(f"{self.ms.d} multiplicities for d={self.sig.d}")
        norm = {}
        for key, fn in self.blades.items():
            mask = key if isinstance(key, int) else parse_blade(key, self.sig.d)
            if not 0 <= mask < self.sig.n_blades:
                raise ValueError(f"blade mask {mask} out of range")
            if not callable(fn):
                raise TypeError(f"blade {key!r} body is not callable")
            norm[mask] = fn
        if not norm:
            raise ValueError("field needs at least one blade")
        object.__setattr__(self, "blades", norm)
        object.__setattr__(self, "_support", tuple(sorted(norm)))

    def sample(self, grid: TensorGrid) -> np.ndarray:
        """Values (*grid.shape, 2^d), a view of a blade-first array, so that
        every blade is written contiguously."""
        coords = grid.coords()
        out = np.zeros((self.sig.n_blades,) + grid.shape)
        nonfinite, finite = [], np.empty(out.shape, dtype=bool)  # allocated here, not on the threads

        def put(mask):
            try:
                value = np.asarray(self.blades[mask](*coords))
                if value.dtype.kind in "biuf":  # bool, integer or real floating
                    out[mask] = value
                    if not np.isfinite(out[mask], out=finite[mask]).all():  # while the plane is in cache
                        nonfinite.append(mask)
                    return
            except ValueError as exc:
                raise ValueError(
                    f"blade {blade_label(mask)} body does not broadcast open coordinates "
                    f"{tuple(x.shape for x in coords)} to the grid {grid.shape}: {exc}"
                ) from exc
            raise ValueError(f"blade {blade_label(mask)} body returned {value.dtype} values; "
                             "a field takes real numbers")

        _each(put, self.blades, out.size >= _PARALLEL_MIN)
        if nonfinite:  # after the join, so that a body's own error wins
            raise ValueError("field evaluated to a non-finite value on the grid")
        return np.moveaxis(out, 0, -1)


class _Owned(NamedTuple):
    """A fresh engine result and its support, which `SampledField` keeps as they are."""

    array: np.ndarray
    support: tuple


@dataclass(frozen=True, eq=False)
class SampledField:
    """One multivector per grid node, stored as (*grid.shape, 2^d) floats.

    Its support, which the engine's work scales with, is found once: the
    planes of a caller's array holding a nonzero value (-0.0 is zero, and
    an all-zero array keeps the scalar), or what the engine passes along.
    """

    sig: Signature
    ms: MultiplicitySplit
    grid: TensorGrid
    values: np.ndarray

    def __post_init__(self):
        # a caller's array is copied, checked and scanned; an engine result nobody else holds is adopted
        vals, support = self.values if isinstance(self.values, _Owned) else (self.values, None)
        if support is None:
            vals = np.array(vals, dtype=float, order="C")
            if not np.isfinite(vals).all():
                raise ValueError("field values hold a non-finite number")
            support = tuple(np.flatnonzero(vals.any(axis=tuple(range(vals.ndim - 1)))).tolist()) or (0,)
        want = self.grid.shape + (self.sig.n_blades,)
        if vals.shape != want:
            raise ValueError(f"values shape {vals.shape}, grid wants {want}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_support", support)

    def norm2(self) -> float:
        """Weighted L^2 norm squared: integral of the modulus squared."""
        w = self.grid.total_weights()
        return float(np.sum(w[..., None] * self.values**2))


def _same_grid(g1: TensorGrid, g2: TensorGrid) -> bool:
    return g1.shape == g2.shape and all(
        np.array_equal(a1.nodes, a2.nodes) for a1, a2 in zip(g1.axes, g2.axes)
    )


def _sample_on(f, grid: TensorGrid, sig: Signature, ms: MultiplicitySplit) -> np.ndarray:
    if isinstance(f, SampledField):
        if f.sig != sig or f.ms != ms:
            raise PlanMismatch("field signature/multiplicities differ from plan")
        if not _same_grid(f.grid, grid):
            raise PlanMismatch("sampled field lives on a different grid")
        return np.asarray(f.values, dtype=float)
    if isinstance(f, AnalyticField):
        if f.sig != sig or f.ms != ms:
            raise PlanMismatch("field signature/multiplicities differ from plan")
        return f.sample(grid)
    raise TypeError(f"not a field: {type(f).__name__}")


def rel_l2_error(got: SampledField, want: SampledField) -> float:
    """Weighted relative L^2 distance, using `want` as the reference scale.

    Raises OverflowError when the distance is not finite, as when a field
    or its square overflows.
    """
    if not _same_grid(got.grid, want.grid):
        raise PlanMismatch("fields live on different grids")
    ref = want.norm2()
    if ref == 0.0:
        raise ZeroNormField("reference field has zero norm")
    w = want.grid.total_weights()
    diff = float(np.sum(w[..., None] * (got.values - want.values) ** 2))
    err = math.sqrt(diff / ref)
    if not math.isfinite(err):
        raise OverflowError(f"relative L2 error is {err!r}: a field or its square norm overflows")
    return err


# -- plans ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransformPlan:
    """Immutable discretization: grids, per-coordinate kernels, units, mode.

    `fwd_mats[j]` stacks axis j's (even, odd) half matrices, positive x
    nodes to positive y nodes: w(x) A(x y) and w(x) B(x y).  `inv_mats[j]`
    holds y to x, w(y) A^T and w(y) B^T: `fwd_mats[j]` itself on one grid.
    Plans hold arrays, so they compare and hash by identity.
    """

    sig: Signature
    ms: MultiplicitySplit
    a: ImaginaryUnit
    b: ImaginaryUnit
    grid_x: TensorGrid
    grid_y: TensorGrid
    tables: tuple
    fwd_mats: tuple
    inv_mats: tuple
    normalization: str
    rtol: float
    cmat: np.ndarray  # blade matrices, see `_blade_matrices`

    @cached_property
    def mode_scale(self) -> float:
        """Factor applied to the raw forward integral, computed on first use."""
        return mehta_constant(self.ms.kappa) if self.normalization == "mehta" else 1.0


def _c_squared(plan: TransformPlan) -> float:
    """(c_{k_p} c_{k_q})^2, the constant of the unnormalized inverse.

    Raises OverflowError when it underflows to a subnormal or zero.
    """
    if plan.normalization == "mehta":
        c2 = plan.mode_scale**2
    else:
        c2 = (mehta_constant(plan.ms.kappa_p) * mehta_constant(plan.ms.kappa_q)) ** 2
    if not c2 >= sys.float_info.min:
        raise OverflowError(f"(c_p c_q)^2 underflows for kappa = {plan.ms.kappa} ({c2!r})")
    return c2


def _blade_matrices(sig: Signature, a: MultiVector, b: MultiVector) -> np.ndarray:
    """Blade reassembly matrices [s, r, A, :], the coefficients of
    a^s e_A b^r, read-only.

    Each is the product L_a^s R_b^r of the multiplication matrices
    L_a[A, k] = sum_i a_i S[i, A, k] (row A holds a e_A) and
    R_b[A, k] = sum_i b_i S[A, i, k] (e_A b), S the structure tensor.
    """
    S = structure_tensor(sig)
    one = np.eye(sig.n_blades)
    La = (one, np.einsum("i,iak->ak", a.coeff, S))
    Rb = (one, np.einsum("i,aik->ak", b.coeff, S))
    out = np.array([[La[s] @ Rb[r] for r in (0, 1)] for s in (0, 1)])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=_SHARED_AXES)
def _axis_mats(ax: Grid1D, ay: Grid1D) -> tuple:
    """`TransformPlan`'s half matrices (fwd, inv) of the x axis `ax` and the
    y axis `ay`, read-only; inv is fwd when `ay is ax`.  The kernel is
    tabulated on the triangle of the positive quadrant, where
    t = x_i x_k L_y / L_x is symmetric; parity gives the rest.
    """
    table = kernel_coefficients(ax.kappa, t_max=ax.L * ay.L)
    n = len(ax) // 2  # positive nodes of either axis
    upper = np.less_equal.outer(np.arange(n), np.arange(n))
    pos = ax.nodes[n:]
    AB = np.empty((2, n, n))
    AB[0][upper], AB[1][upper] = eval_kernel_ab(table, np.outer(pos, pos)[upper] * (ay.L / ax.L))
    AB = np.where(upper, AB, AB.transpose(0, 2, 1))
    fwd = AB * (ax.weights * ax.wk)[n:, None]
    inv = fwd if ay is ax else AB.transpose(0, 2, 1) * (ay.weights * ay.wk)[n:, None]
    for M in (fwd, inv):
        M.flags.writeable = False
    return fwd, inv


def build_plan(
    sig: Signature,
    ms: MultiplicitySplit,
    a: ImaginaryUnit,
    b: ImaginaryUnit,
    *,
    L_x,
    L_y=None,
    panels: int = 1,
    order: int = 48,
    normalization: str = "raw",
    rtol: float = 1e-6,
) -> TransformPlan:
    """Discretize both sides and tabulate each axis's kernels once per process.

    L_x / L_y are half-widths per coordinate (scalars broadcast); without
    L_y both sides share one grid.  `build_grid` admits the grids: NODE_CAP
    bounds the values of each grid and, as (panels x order)^2, the kernel
    quadrant of each axis (positive x nodes times positive y nodes).  Before
    tabulating, the plan refuses coordinates with L_x * L_y beyond the
    kernel radius (ArgumentOutOfRadius from `kernel_coefficients`).

    Grids share cached axes (`build_axis`), and plans share the read-only
    half matrices of each axis pair (`_axis_mats`).  Pairs of up to
    `_SHARED_AXIS_MAX` positive nodes stay cached; larger ones are
    tabulated for the plan alone, so a dropped plan frees them.
    """
    if sig.d != ms.d:
        raise PlanMismatch(f"{ms.d} multiplicities for d={sig.d}")
    for unit in (a, b):
        if unit.sig != sig:
            raise PlanMismatch(f"unit {unit.label} has signature {unit.sig}")
    if normalization not in ("raw", "mehta"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ValueError(f"rtol must be finite and positive, got {rtol!r}")
    grid_x = build_grid(ms, L_x, panels=panels, order=order)
    grid_y = grid_x if L_y is None else build_grid(ms, L_y, panels=panels, order=order)
    axes = tuple(zip(grid_x.axes, grid_y.axes))
    tables = tuple(kernel_coefficients(k, t_max=ax.L * ay.L) for k, (ax, ay) in zip(ms.kappa, axes))
    tabulate = _axis_mats if panels * order <= _SHARED_AXIS_MAX else _axis_mats.__wrapped__
    mats = [tabulate(ax, ay) for ax, ay in axes]
    return TransformPlan(
        sig=sig,
        ms=ms,
        a=a,
        b=b,
        grid_x=grid_x,
        grid_y=grid_y,
        tables=tables,
        fwd_mats=tuple(fwd for fwd, _ in mats),
        inv_mats=tuple(inv for _, inv in mats),
        normalization=normalization,
        rtol=rtol,
        cmat=_blade_matrices(sig, a.value, b.value),
    )


# -- the parity contraction core ---------------------------------------------
#
# A class stack is (C, *half, k): C = 2^d parity classes in C order over
# (sigma_1, ..., sigma_d), then the positive half of every axis, then the
# blade axis (or any other trailing axis).  An orthant stack has the same
# shape with the 2^d mirrored orthants epsilon in place of the classes
# (epsilon_j = 1: the negative half of axis j, reversed so that it lines up
# with the positive half).  The Sylvester-Hadamard matrix
# H[sigma, epsilon] = (-1)^(sigma . epsilon) maps one to the other, and
# H H = 2^d I.  A transform runs in two flat work buffers, each stage
# reading the one the stage before wrote: gather, H, one GEMM per axis and
# the blade GEMM, H, scatter.


class _Work:
    """Two flat buffers that the stages of a pipeline write in turn, of
    `last` (default `size`) floats for the last stage and `size` otherwise.

    A pipeline of n stages ends in bufs[(n - 1) % 2]: a partial transform
    takes d + 2 stages, a transform d + 5 and a scalar operator 2d + 6.
    That buffer is allocated first, so the other, released when the
    pipeline returns, lies above it next to the top of the heap, where
    malloc can hand it back.  Allocated the other way round, the released
    buffers left holes that raised the peak RSS of the d34_roundtrip
    benchmark by 16-23 MiB in about half of its runs (glibc malloc).
    """

    def __init__(self, stages: int, size: int, last: int | None = None):
        first, second = np.empty(size if last is None else last), np.empty(size)
        self.bufs, self.turn = ((first, second) if stages % 2 else (second, first)), 0

    def next(self, shape) -> np.ndarray:
        """The buffer the previous call did not return, as `shape`."""
        buf = self.bufs[self.turn]
        self.turn ^= 1
        return buf[:math.prod(shape)].reshape(shape)


def _blades_at(support: tuple):
    """Index of the sorted blades `support` on a last axis: a slice (a view) if consecutive."""
    lo, hi = support[0], support[-1] + 1
    return slice(lo, hi) if hi - lo == len(support) else list(support)


@lru_cache(maxsize=None)
def _parity_classes(d: int, split: int) -> tuple:
    """Per class: the parity bits (C, d), s, r and sign(sigma)."""
    bits = np.array(list(itertools.product((0, 1), repeat=d)), dtype=int)
    kp, kq = bits[:, :split].sum(axis=1), bits[:, split:].sum(axis=1)
    return bits, kp % 2, kq % 2, (-1.0) ** (kp // 2 + kq // 2)


@lru_cache(maxsize=None)
def _hadamard(d: int) -> np.ndarray:
    bits = _parity_classes(d, 0)[0]
    H = (-1.0) ** (bits @ bits.T)
    H.flags.writeable = False
    return H


@lru_cache(maxsize=None)
def _orthants(full: tuple) -> tuple:
    """Per orthant epsilon, the index of its samples in a (*full, ...) array."""
    halves = [(slice(n // 2, None), slice(n // 2 - 1, None, -1)) for n in full]
    return tuple(itertools.product(*halves))


def _fold(values: np.ndarray, d: int, work: _Work) -> np.ndarray:
    """Samples (*grid, k) on mirrored axes (any strides) -> class stack.
    Per axis, bit 0 holds f(x) + f(-x) and bit 1 holds f(x) - f(-x): 2^d
    times the parity components, which is what the half matrices
    integrate against."""
    full = values.shape[:d]
    Y = work.next((2**d,) + tuple(n // 2 for n in full) + values.shape[d:])
    orthants = _orthants(full)

    def gather(e):
        Y[e] = values[orthants[e]]

    _each(gather, range(2**d), values.size >= _PARALLEL_MIN)
    return _mix(Y, d, work)


def _mix(Y: np.ndarray, d: int, work: _Work) -> np.ndarray:
    """H Y over the leading axis, as (columns, 2^d) @ H^T so that `_matmul`
    cuts the long axis: numpy hands BLAS the product H Y of each block."""
    X = work.next(Y.shape)
    _matmul(Y.reshape(2**d, -1).T, _hadamard(d).T, X.reshape(2**d, -1).T)
    return X


def _unfold(X: np.ndarray, d: int, work: _Work, support: tuple, nb: int) -> np.ndarray:
    """Class stack of parity components (C, *half, k) -> values (*grid, nb)
    of the k blades `support`, zero off it."""
    Y = _mix(X, d, work)
    cols = slice(None) if len(support) == nb else _blades_at(support)
    out = work.next(tuple(2 * n for n in X.shape[1:d + 1]) + (nb,))
    if cols != slice(None):
        out.fill(0.0)
    orthants = _orthants(out.shape[:d])

    def scatter(e):
        out[orthants[e] + (cols,)] = Y[e]

    _each(scatter, range(2**d), Y.size >= _PARALLEL_MIN)
    return out


def _contract(X: np.ndarray, plan: TransformPlan, inverse: bool, blades,
              work: _Work) -> np.ndarray:
    """Contract every axis of a class stack with each class's even or odd
    half matrix, x to y (y to x if `inverse`), then the blade axis with the
    (C, k, k') matrices `blades`.  Each step is one batched GEMM that
    contracts the leading axis and appends the output axis, so nothing is
    transposed; without a blade step the result is blade-first, (C, k, *half).

    Class bit j has stride 2^(d-1-j) in C order, so axis j splits the
    class axis as (2^j, 2, 2^(d-1-j)) and its (even, odd) pair (2, n, m)
    broadcasts over the rest as M[:, None]; no matrix is copied per class.
    """
    d, mats = plan.ms.d, plan.inv_mats if inverse else plan.fwd_mats
    steps = [((2**j, 2, 2**(d - 1 - j)), M[:, None]) for j, M in enumerate(mats)]
    C, shape = X.shape[0], list(X.shape[1:])
    for classes, M in steps if blades is None else steps + [((C,), blades)]:
        lhs = X.reshape(classes + (M.shape[-2], -1)).swapaxes(-1, -2)
        X = _matmul(lhs, M, work.next(lhs.shape[:-1] + M.shape[-1:]))
        shape = shape[1:] + [M.shape[-1]]
    return X.reshape([C] + shape)


def _partial_transform(values: np.ndarray, plan: TransformPlan, inverse: bool,
                       blades=None, work: _Work | None = None) -> np.ndarray:
    """`_contract` of the folded samples (*grid, k)."""
    work = work or _Work(plan.ms.d + 2, values.size)
    return _contract(_fold(values, plan.ms.d, work), plan, inverse, blades, work)


def _reach(M: np.ndarray, support: tuple, nb: int) -> tuple:
    """Blade maps M (..., 2^d, 2^d) at the rows `support` and the columns they reach; those columns."""
    if len(support) == nb:
        return M, support
    M = M[..., list(support), :]
    out = tuple(np.flatnonzero(M.reshape(-1, nb).any(axis=0)).tolist())
    return M[..., list(out)], out


def _transform(values: np.ndarray, support: tuple, plan: TransformPlan, inverse: bool,
               const: float) -> tuple:
    """const * sum over classes sigma of sign(sigma) a^s (class) b^r, and the support it reaches."""
    d, nb = plan.ms.d, plan.sig.n_blades
    _, s, r, sign = _parity_classes(d, plan.ms.split)
    sign = sign * (-1.0) ** (s + r) if inverse else sign  # kernel A - uB: -B on every odd axis
    cmat, out = _reach(plan.cmat[s, r], support, nb)
    blades = (const * sign)[:, None, None] * cmat
    work = _Work(d + 5, values.size // nb * max(len(support), len(out)), values.size)
    X = _partial_transform(values[..., _blades_at(support)], plan, inverse, blades, work)
    return _unfold(X, d, work, out, nb), out


def _scalar_operator(Phi: np.ndarray, left: tuple, values: np.ndarray, right: tuple,
                     plan: TransformPlan) -> tuple:
    """Phi * g (*grid_x, 2^d) and its support, for the y-side class stack Phi
    (C, k', *half) of a left factor with support `left` and g's samples.

    y class tau collects (-1)^|alpha or beta| Phi_alpha Gamma_beta over
    alpha xor beta = tau, Gamma g's classes and the sign what the units leave;
    one GEMM against the supports' rows of the structure tensor takes the blade
    products.  The inverse contractions follow, and c^2 2^d (2^d turns parity
    components into fold sums) times the class sign (-1)^|tau| of A - uB.
    """
    d, nb = plan.ms.d, plan.sig.n_blades
    S, out = _reach(structure_tensor(plan.sig)[list(left)], right, nb)
    work = _Work(2 * d + 6, values.size // nb * max(len(right), len(out)), values.size)
    Gam = _partial_transform(values[..., _blades_at(right)], plan, False, work=work)
    del values  # dead once folded: frees a field before the class products
    (C, kr), half, kl, k = Gam.shape[:2], Gam.shape[2:], len(left), len(out)
    Phi, Gam, S = Phi.reshape(C, kl, 1, -1), Gam.reshape(C, 1, kr, -1), S.reshape(kl * kr, k)
    bits = _parity_classes(d, plan.ms.split)[0]
    odd = (bits[:, None] | bits[None, :]).sum(axis=-1) % 2
    H = work.next((C,) + half + (k,))
    Q, term = np.empty((2, kl, kr, Gam.shape[-1]))
    for tau in range(C):
        Q.fill(0.0)
        for al in range(C):
            np.multiply(Phi[al], Gam[al ^ tau], out=term)
            (np.subtract if odd[al, al ^ tau] else np.add)(Q, term, out=Q)
        _matmul(Q.reshape(kl * kr, -1).T, S, H[tau].reshape(-1, k))
    scale = (-1.0) ** bits.sum(axis=1)[:, None, None] * np.eye(k) * (_c_squared(plan) * 2.0**d)
    return _unfold(_contract(H, plan, True, scale, work), d, work, out, nb), out


def _result(plan: TransformPlan, grid: TensorGrid, values: np.ndarray, support: tuple) -> SampledField:
    """An engine result, adopted without the defensive copy or a scan."""
    return SampledField(plan.sig, plan.ms, grid, _Owned(values, support))


def forward(f, plan: TransformPlan) -> SampledField:
    """Two-sided transform: kernel E_p on the left, E_q on the right."""
    values = _sample_on(f, plan.grid_x, plan.sig, plan.ms)
    return _result(plan, plan.grid_y, *_transform(values, f._support, plan, False, plan.mode_scale))


def inverse(F, plan: TransformPlan) -> SampledField:
    """Inverse transform: conjugated kernels, y-side weights.

    Raw mode carries the constant c_{k_p}^2 c_{k_q}^2; mehta mode carries
    c_{k_p} c_{k_q} so that inverse(forward(f)) = f in either mode.
    """
    values = _sample_on(F, plan.grid_y, plan.sig, plan.ms)
    return _result(plan, plan.grid_x, *_transform(values, F._support, plan, True,
                                                  _c_squared(plan) / plan.mode_scale))


# -- claims ---------------------------------------------------------------


@dataclass(frozen=True)
class ClaimReport:
    """One measured identity or constant, compared against its assertion.

    `status` is "pass" when the measurement agrees within the rtol of the
    plan that measured it (|measured/paper - 1| <= rtol, or |measured| <=
    rtol when the asserted value is 0); otherwise "flagged", keeping the
    measured value.
    """

    claim: str
    paper_value: float
    measured_value: float
    ratio: float | None
    status: str
    grid: dict
    sig: str
    kappa: tuple
    units: str

    @classmethod
    def make(cls, claim, paper, measured, units, plan: TransformPlan) -> "ClaimReport":
        """The report of a claim measured with `plan`, which gives the
        tolerance and the recorded grids, signature and kappa."""
        paper = float(paper)
        measured = float(measured)
        if paper == 0.0:
            ratio = None
            ok = abs(measured) <= plan.rtol
        else:
            ratio = measured / paper
            ok = abs(ratio - 1.0) <= plan.rtol
        L_x, panels, order = plan.grid_x.spec
        return cls(
            claim=claim,
            paper_value=paper,
            measured_value=measured,
            ratio=ratio,
            status="pass" if ok else "flagged",
            grid={
                "L_x": list(L_x),
                "L_y": list(plan.grid_y.spec[0]),
                "panels": panels,
                "order": order,
                "nodes_per_axis": list(plan.grid_x.shape),
                "normalization": plan.normalization,
            },
            sig=str(plan.sig),
            kappa=tuple(float(k) for k in plan.ms.kappa),
            units=units,
        )


def reports_to_json(reports) -> str:
    return json.dumps([vars(r) for r in reports], indent=2)  # the fields are plain values: no deep copy


def _block_constant(ms: MultiplicitySplit) -> float:
    """The asserted eigenvalue factor c_p^-2 c_q^-2 2^(g_p+p/2) 2^(g_q+q/2).

    Raises OverflowError when it is not a finite float (c_p c_q below about
    1e-154, as for kappa = (100, 0.5)).
    """
    cp = mehta_constant(ms.kappa_p)
    cq = mehta_constant(ms.kappa_q)
    p = ms.split
    q = ms.d - ms.split
    try:
        value = (
            cp ** (-2.0)
            * cq ** (-2.0)
            * 2.0 ** (ms.gamma_p + p / 2.0)
            * 2.0 ** (ms.gamma_q + q / 2.0)
        )
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(
            f"block constant c_p^-2 c_q^-2 2^(gamma+d/2) overflows for kappa = {ms.kappa}"
        )
    return value


def plancherel_ratio(f, plan: TransformPlan) -> ClaimReport:
    """The ClaimReport of |forward(f)|^2 / |f|^2 in the weighted norms.

    The asserted constant is stated for the unnormalized transform; for a
    mehta-mode plan it is rescaled by (c_p c_q)^2 before comparison.
    Raises OverflowError when the ratio is not finite, as when a field or
    its square norm overflows.
    """
    block, scale = _block_constant(plan.ms), plan.mode_scale  # before any transform
    paper = (block * block) * (scale * scale)
    if not math.isfinite(paper):
        raise OverflowError(f"squared block constant overflows for kappa = {plan.ms.kappa}")
    values = _sample_on(f, plan.grid_x, plan.sig, plan.ms)
    fin = SampledField(plan.sig, plan.ms, plan.grid_x, values)
    n_in = fin.norm2()
    if n_in == 0.0:
        raise ZeroNormField("cannot form a Plancherel ratio for the zero field")
    ratio = forward(fin, plan).norm2() / n_in
    if not math.isfinite(ratio):
        raise OverflowError(f"Plancherel ratio is {ratio!r}: the field or its image overflows")
    return ClaimReport.make("plancherel-constant", paper, ratio, "dimensionless", plan)


# -- Hermite eigenfunctions -----------------------------------------------


def _hermite_product_grid(grid: TensorGrid, v: tuple) -> np.ndarray:
    out = np.ones(())
    for ax, nj in zip(grid.axes, v):
        col = eval_orthonormal(*hermite_basis(ax.kappa, max(nj, 1)), nj, ax.nodes)
        out = np.multiply.outer(out, col * np.exp(-0.5 * ax.nodes**2))
    return out


def fit_profile(values: np.ndarray, g: np.ndarray, w: np.ndarray) -> tuple:
    """Weighted least-squares fit values ~ g C with one coefficient vector C
    (values (*shape, k), profile g and weights w (*shape)): C and the
    relative weighted residual."""
    C = np.einsum("n,nk->k", (w * g).ravel(), values.reshape(-1, values.shape[-1]))
    C = C / float(np.sum(w * g * g))
    resid2 = float(np.sum(w[..., None] * (values - g[..., None] * C) ** 2))
    total2 = float(np.sum(w[..., None] * values**2))
    return C, math.sqrt(resid2 / total2) if total2 > 0.0 else 0.0


def eigen_indices(v, u, ms: MultiplicitySplit) -> tuple:
    """(v, u) as tuples of ints, one index per coordinate of each block,
    every index >= 0 and l(v) + l(u) <= 8, the levels eigencheck is
    specified for.  Raises ValueError otherwise."""
    v = tuple(int(n) for n in v)
    u = tuple(int(n) for n in u)
    if len(v) != ms.split or len(u) != ms.d - ms.split:
        raise ValueError(f"v wants {ms.split} indices and u wants {ms.d - ms.split}")
    if any(n < 0 for n in v + u):
        raise ValueError(f"Hermite indices must be >= 0, got v={list(v)} u={list(u)}")
    if sum(v + u) > 8:
        raise ValueError("eigencheck is specified for l(v)+l(u) <= 8")
    return v, u


def _levels(v, u) -> str:
    """The claim-name suffix of Hermite indices v and u, as "v1-u0.2"."""
    return f"v{'.'.join(map(str, v))}-u{'.'.join(map(str, u))}"


def eigen_fit(v: tuple, u: tuple, plan: TransformPlan) -> dict:
    """Forward a Hermite product and fit F(y) = h(y) * C, C a constant:
    C, its factor "lambda" along (-a)^l(v) (-b)^l(u), and the relative
    "shape_residual" and "unit_residual" of the two fits."""
    v, u = eigen_indices(v, u, plan.ms)
    hx = _hermite_product_grid(plan.grid_x, v + u)
    vals = np.zeros(plan.grid_x.shape + (plan.sig.n_blades,))
    vals[..., 0] = hx
    F = forward(SampledField(plan.sig, plan.ms, plan.grid_x, vals), plan)
    hy = _hermite_product_grid(plan.grid_y, v + u)
    w = plan.grid_y.total_weights()
    C, shape_residual = fit_profile(F.values, hy, w)
    # C should be lam * (-a)^l(v) * (-b)^l(u) with lam real positive
    unit = (-plan.a.value) ** sum(v) * (-plan.b.value) ** sum(u)
    lam = float(np.dot(C, unit.coeff) / np.dot(unit.coeff, unit.coeff))
    unit_residual = float(np.linalg.norm(C - lam * unit.coeff) / np.linalg.norm(C))
    return {
        "lambda": lam,
        "C": MultiVector(plan.sig, C),
        "shape_residual": shape_residual,
        "unit_residual": unit_residual,
    }


def eigencheck(v, u, plan: TransformPlan) -> ClaimReport:
    """Check that forward(h_v h_u) = lam (-a)^l(v) (-b)^l(u) h_v h_u.

    The measured lam is compared against the asserted block constant
    (scaled by the plan's mode factor); a shape-fit failure flags the
    report regardless of the eigenvalue.  Indices `eigen_indices` refuses
    raise ValueError.
    """
    return _eigen_report(v, u, eigen_fit(v, u, plan), plan)


def _eigen_report(v, u, fit: dict, plan: TransformPlan) -> ClaimReport:
    """The eigenvalue ClaimReport of an `eigen_fit` result."""
    paper = _block_constant(plan.ms) * plan.mode_scale
    report = ClaimReport.make(
        f"eigenvalue-{_levels(v, u)}",
        paper,
        fit["lambda"],
        "dimensionless",
        plan,
    )
    if fit["shape_residual"] > plan.rtol or fit["unit_residual"] > plan.rtol:
        report = replace(report, status="flagged")
    return report


# -- translation and convolution ------------------------------------------


def _shift(z, d: int) -> np.ndarray:
    """The translation vector z as d finite floats."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != d:
        raise ValueError(f"need {d} translation components")
    if not np.isfinite(z).all():
        raise ValueError(f"translation components must be finite, got {z.tolist()}")
    return z


def translate_spectral(f, z, plan: TransformPlan) -> SampledField:
    """tau_z f = inverse of E_p(z1,-a y1) forward(f)(y) E_q(z2,-b y2).

    Mode factors cancel between forward and inverse, so the operator is
    normalization-independent.  It is also scalar: per axis, the forward,
    profile and inverse factors carry an even power of the unit.  So
    tau_z f is the convolution delta_z * f, with delta_z's class sigma the
    scalar prod_j (A_j if sigma_j = 0 else B_j)(z_j y_j) on the y grid.
    tau_0 is the identity up to round-trip error.
    """
    z, delta = _shift(z, plan.ms.d), np.ones((1, 1))
    for j, (table, ay) in enumerate(zip(plan.tables, plan.grid_y.axes)):
        if abs(z[j]) * ay.L > table.t_max:
            raise ArgumentOutOfRadius(
                f"|z_{j + 1}| * L_y exceeds the kernel radius {table.t_max:g}"
            )
        AB = np.stack(eval_kernel_ab(table, z[j] * ay.nodes[len(ay) // 2:]))
        delta = (delta[:, None, :, None] * AB[None, :, None, :]).reshape(2 * len(delta), -1)
    return _result(plan, plan.grid_x, *_scalar_operator(
        delta[:, None], (0,), _sample_on(f, plan.grid_x, plan.sig, plan.ms), f._support, plan))


def translate_explicit(f: AnalyticField, z, ms: MultiplicitySplit) -> AnalyticField:
    """Rank-one (Roesler) translation of an analytic field: each blade is
    `dunkl_rank1.roesler_translate` of f's.  Raises TypeError for a field
    that is not analytic, PlanMismatch for other multiplicities than `ms`,
    and ValueError for a z that is not d finite numbers (`_shift`); its
    blades raise ValueError for points that are not d finite coordinate
    arrays.

    A blade body that carries a `split` (`field_expr.compile_expr`)
    translates one axis at a time at d >= 2, inside `roesler_translate`.
    """
    if not isinstance(f, AnalyticField):
        raise TypeError("explicit translation needs an analytic field")
    if f.ms != ms:
        raise PlanMismatch("field multiplicities differ")
    z = _shift(z, ms.d)
    blades = {mask: lambda *X, fn=fn: roesler_translate(fn, X, z, ms.kappa) for mask, fn in f.blades.items()}
    return AnalyticField(f.sig, ms, blades)


def convolve(f, g, plan: TransformPlan) -> SampledField:
    """(f * g)(x) = integral f(z) tau_z g(x) dmu(z), tau_z spectral.

    tau_z is scalar, so swapping the z and y integrations leaves pointwise
    products of the contracted classes of f and g (`_scalar_operator`).
    The result depends neither on the units nor on the normalization mode.
    """
    Phi = _partial_transform(_sample_on(f, plan.grid_x, plan.sig, plan.ms)[..., _blades_at(f._support)], plan, False)
    return _result(plan, plan.grid_x, *_scalar_operator(
        Phi, f._support, _sample_on(g, plan.grid_x, plan.sig, plan.ms), g._support, plan))


# -- the claims ledger ----------------------------------------------------


def _gaussian_field(sig, ms, delta: float) -> AnalyticField:
    def body(*X):
        s = sum(x * x for x in X)
        return np.exp(-delta * s)

    return AnalyticField(sig, ms, {0: body})


LEDGER_DEFAULTS = {
    "p": 0,
    "q": 2,
    "kappa": (0.3, 0.7),
    "split": 1,
    "a": "e1",
    "b": "e2",
    "L_x": 8.0,
    "L_y": 8.0,
    "panels": 1,
    "order": 48,
    "rtol": 1e-6,
    "delta": 1.0,
    "z": (0.6, -0.4),
}


def _is_number(value) -> bool:
    """An int or a float, but not a bool: JSON true and false are no numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _like(value, default) -> bool:
    """Whether a ledger setting has its default's kind: numbers for a tuple,
    a number for a float, else the default's own type (no bool for an int)."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(map(_is_number, value))
    if isinstance(default, float):
        return _is_number(value)
    return type(value) is type(default)


def run_claims_ledger(config: dict | None = None) -> list:
    """Measure every asserted identity/constant and report, never abort.

    Identity claims (round trips, equivalences, bounds) carry an asserted
    value of 0 or 1; constants are compared in both normalization modes.
    A flagged constant is data, not a failure.

    `config` overrides keys of LEDGER_DEFAULTS; a value of another kind
    than its default raises TypeError (`_like`).  The ledger's fields are
    two-dimensional with one coordinate per block, so a config with
    another key, p + q != 2 or split != 1 raises ValueError, as does a
    delta that is not finite and positive.
    """
    config = {} if config is None else config
    if not isinstance(config, Mapping):
        raise ValueError(f"ledger config must be a mapping, got {type(config).__name__}")
    unknown = sorted(set(config) - set(LEDGER_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown ledger settings {unknown}")
    unlike = sorted(key for key, value in config.items() if not _like(value, LEDGER_DEFAULTS[key]))
    if unlike:
        raise TypeError(f"ledger settings {unlike} differ in kind from their defaults")
    cfg = {**LEDGER_DEFAULTS, **config}
    sig = Signature(cfg["p"], cfg["q"])
    ms = MultiplicitySplit(cfg["kappa"], cfg["split"])
    if (sig.d, ms.d, ms.split) != (2, 2, 1):
        raise ValueError("the ledger needs p + q = 2, two multiplicities and split = 1")
    a = validate_imaginary(MultiVector.blade(sig, cfg["a"]), str(cfg["a"]))
    b = validate_imaginary(MultiVector.blade(sig, cfg["b"]), str(cfg["b"]))
    delta = float(cfg["delta"])
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    raw = build_plan(
        sig, ms, a, b,
        L_x=cfg["L_x"], L_y=cfg["L_y"],
        panels=cfg["panels"], order=cfg["order"],
        normalization="raw", rtol=float(cfg["rtol"]),
    )
    # the modes differ only in the scale applied after the contractions
    plans = {"raw": raw, "mehta": replace(raw, normalization="mehta")}
    _c_squared(plans["raw"])  # an underflowing (c_p c_q)^2 stops the ledger before any transform
    reports = []

    def add(claim, paper, measured, units, plan=raw):
        reports.append(ClaimReport.make(claim, paper, measured, units, plan))

    gauss = _gaussian_field(sig, ms, delta)
    cp, cq = mehta_constant(ms.kappa_p), mehta_constant(ms.kappa_q)

    # Gaussian image: shape e^{-|y|^2/(4 delta)}, constant (2 delta)^-(gamma+d/2).
    # The asserted constant is compared against the literal integral (raw) and
    # the c_p c_q-normalized transform (mehta); only one of the two can match.
    try:
        asserted = (2.0 * delta) ** -(ms.gamma + ms.d / 2.0)
    except OverflowError:
        raise OverflowError(f"Gaussian image constant overflows for delta = {delta!r}") from None
    consts = {}
    for mode in ("raw", "mehta"):
        F = forward(gauss, plans[mode])
        ys = plans[mode].grid_y.coords()
        target = np.exp(-sum(y * y for y in ys) / (4.0 * delta))
        w = plans[mode].grid_y.total_weights()
        norms = float(np.sum(w * target * target)), F.norm2()
        if 0.0 in norms:
            raise ZeroNormField(f"the Gaussian image vanishes on the y grid for delta = {delta!r}")
        const = float(np.sum(w * target * F.values[..., 0]) / norms[0])
        consts[mode] = const
        off = F.values.copy()
        off[..., 0] -= const * target
        shape_err = math.sqrt(float(np.sum(w[..., None] * off**2)) / norms[1])
        add(f"gaussian-constant-{mode}", asserted, const, "dimensionless", plans[mode])
        add(f"gaussian-shape-{mode}", 0.0, shape_err, "relative L2 error", plans[mode])
    add("gaussian-constant-raw-oracle", asserted / (cp * cq), consts["raw"],
        "dimensionless")

    # Inversion round trip, both modes, scalar and full multivector fields
    poly = AnalyticField(
        sig, ms,
        {0: lambda x1, x2: (1.0 + x1 * x1) * np.exp(-(x1 * x1 + x2 * x2))},
    )
    quat = AnalyticField(
        sig, ms, dict.fromkeys(range(sig.n_blades), lambda x1, x2: x1 * np.exp(-(x1**2 + x2**2))),
    )
    for mode in ("raw", "mehta"):
        for name, test in (("scalar", poly), ("multivector", quat)):
            ref = SampledField(sig, ms, plans[mode].grid_x, test.sample(plans[mode].grid_x))
            back = inverse(forward(ref, plans[mode]), plans[mode])
            add(
                f"inversion-roundtrip-{name}-{mode}",
                0.0,
                rel_l2_error(back, ref),
                "relative L2 error",
                plans[mode],
            )

    # Plancherel: constancy across fields, asserted constant, classical limit
    fields = [
        gauss,
        poly,
        quat,
        _gaussian_field(sig, ms, 0.5),
        AnalyticField(sig, ms, {3: lambda x1, x2: x2 * np.exp(-(x1**2 + x2**2))}),
    ]
    measured = [plancherel_ratio(fld, plans["raw"]) for fld in fields]
    ratios = [report.measured_value for report in measured]
    spread = (max(ratios) - min(ratios)) / ratios[0]
    add("plancherel-constancy", 0.0, spread, "relative spread")
    reports.append(measured[0])  # the Gaussian's, against the asserted constant
    add("plancherel-vs-gaussian-oracle", cp**-2 * cq**-2, ratios[0], "dimensionless")

    # Eigenfunctions: shape residual and eigenvalue, raw mode
    lam_oracle = cp**-1 * cq**-1
    for v, u in (((0,), (0,)), ((1,), (0,)), ((0,), (2,)), ((2,), (1,))):
        fit = eigen_fit(v, u, plans["raw"])
        add(
            f"eigen-shape-{_levels(v, u)}",
            0.0,
            max(fit["shape_residual"], fit["unit_residual"]),
            "relative residual",
        )
        reports.append(_eigen_report(v, u, fit, plans["raw"]))
        add(
            f"eigenvalue-oracle-{_levels(v, u)}",
            lam_oracle,
            fit["lambda"],
            "dimensionless",
        )

    # Translation: tau_0 identity and explicit/spectral agreement
    z = tuple(float(t) for t in cfg["z"])
    ref = SampledField(sig, ms, plans["raw"].grid_x, gauss.sample(plans["raw"].grid_x))
    add(
        "translation-zero-identity",
        0.0,
        rel_l2_error(translate_spectral(ref, (0.0,) * ms.d, plans["raw"]), ref),
        "relative L2 error",
    )
    if all(k > 0.0 for k in ms.kappa):
        spec = translate_spectral(ref, z, plans["raw"])
        expl = translate_explicit(gauss, z, ms)
        expl_s = SampledField(sig, ms, plans["raw"].grid_x, expl.sample(plans["raw"].grid_x))
        add(
            "translation-explicit-vs-spectral",
            0.0,
            rel_l2_error(expl_s, spec),
            "relative L2 error",
        )

    # Kernel bound sweep: sup_t sqrt(A^2+B^2) per coordinate, asserted <= 1
    for j, table in enumerate(raw.tables):
        half = np.linspace(0.0, 0.95 * table.t_max, 2001)  # t >= 0 of a symmetric 4001-point sweep
        A, B = eval_kernel_ab(table, half)
        A, B = np.concatenate((A[:0:-1], A)), np.concatenate((-B[:0:-1], B))  # A even, B odd in t, bit for bit
        add(f"kernel-bound-x{j + 1}", 1.0, float(np.sqrt(A * A + B * B).max()), "sup of modulus")

    return reports
