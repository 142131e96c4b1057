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
and the last one is the result.  `forward`, `forward_left`,
`forward_right` and `inverse` differ only in that matrix, the kernel
conjugation (B -> -B) and constants.  Translation and convolution are
scalar operators (each unit enters every path an even number of times),
and translation by z is convolution with delta_z, so both take class
products between the contractions of one pipeline (`_scalar_operator`).

Analytic fields are sampled one blade body per blade.  From 2^20 sampled
values on, the bodies are dealt out to the calling thread and to usable
CPUs - 1 threads started for the call and joined before it returns
(`_each`).  numpy releases the GIL in its ufunc loops, so the bodies run on
every core, each writing its own slice of the blade-first samples, and the
result is bit-identical to the serial loop.  The GEMMs already use every
core through BLAS.

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
from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import Mapping, NamedTuple

import numpy as np

from .clifford_core import (
    ImaginaryUnit,
    MultiVector,
    Signature,
    blade_label,
    parse_blade,
    structure_tensor,
)
from .dunkl_rank1 import (
    ArgumentOutOfRadius,
    MultiplicitySplit,
    eval_kernel_ab,
    eval_orthonormal,
    hermite_basis,
    kernel_coefficients,
    mehta_constant,
    psi_rule,
    zero_limit,
)
from .quadrature import NODE_CAP, NodeCountExceeded, TensorGrid, build_grid, node_count

CONVOLVE_BUDGET = 1 << 20  # kernel evaluations per output node (= y-grid size)
_EXPLICIT_CHUNK = 1 << 15  # field values per call in translate_explicit
_PSI_ORDERS = (8, 16, 32, 64)  # psi orders the adaptive translate_explicit tries, in turn
_PSI_RTOL = 1e-14  # agreement of two successive orders, relative max norm
_PROBE_STRIDE = 16  # every k-th requested point joins the order probe
_PARALLEL_MIN = 1 << 20  # values from which `_each` shares its items out to threads


class PlanMismatch(ValueError):
    """Field and plan disagree on signature, multiplicities, or grid."""


class ZeroNormField(ValueError):
    pass


class NodeBudgetExceeded(RuntimeError):
    pass


# -- concurrent blade bodies -----------------------------------------------


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _each(fn, items, size: int) -> None:
    """fn(item) for every item, where `size` counts the values the calls
    compute together.

    From `_PARALLEL_MIN` values on, the items are dealt out in turn to n
    shares, n the usable CPUs: the calling thread runs the first, and n - 1
    threads started for the call and joined before it returns run the
    others.  An error raised in the calling thread's share wins, then the
    other shares' in order.  Below the threshold it is the plain loop, and
    concurrent.futures is never imported.
    """
    items = list(items)
    n = min(_usable_cpus() if size >= _PARALLEL_MIN else 1, len(items))
    if n < 2:
        for item in items:
            fn(item)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n - 1, thread_name_prefix="cliffdunkl") as pool:
        futures = [pool.submit(_each, fn, items[k::n], 0) for k in range(1, n)]
        for item in items[::n]:
            fn(item)
    for fut in futures:
        fut.result()


# -- fields ---------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticField:
    """Field given per blade as a callable (or expression) over x1..xd.

    `blades` maps a blade label (or mask) to a function of d coordinate
    arrays.  The arrays are open (`_coords`): x_j has shape (1, ..., n_j,
    ..., 1), so a body must be elementwise numpy that broadcasts them, as
    expression fields and `translate_explicit` output are.  Its result is
    broadcast to the grid; one that does not broadcast, or that is not real
    (complex, str, object), raises ValueError.

    Each body is called once per `sample`.  On grids of `_PARALLEL_MIN`
    (2^20) values or more, nodes times blades, the bodies run concurrently
    on the calling thread and threads started for the call and joined
    before it returns, so a body must not mutate shared state.
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

    def sample(self, grid: TensorGrid) -> np.ndarray:
        """Values (*grid.shape, 2^d), a view of a blade-first array, so that
        every blade is written contiguously."""
        coords = _coords(grid)
        out = np.zeros((self.sig.n_blades,) + grid.shape)

        def put(mask):
            try:
                value = np.asarray(self.blades[mask](*coords))
                if value.dtype.kind in "biuf":  # bool, integer or real floating
                    out[mask] = value
                    return
            except ValueError as exc:
                raise ValueError(
                    f"blade {blade_label(mask)} body does not broadcast open coordinates "
                    f"{tuple(x.shape for x in coords)} to the grid {grid.shape}: {exc}"
                ) from exc
            raise ValueError(f"blade {blade_label(mask)} body returned {value.dtype} values; "
                             "a field takes real numbers")

        _each(put, self.blades, out.size)
        if not np.isfinite(out).all():
            raise ValueError("field evaluated to a non-finite value on the grid")
        return np.moveaxis(out, 0, -1)


class _Owned(NamedTuple):
    """A freshly computed array that `SampledField` may keep without a copy."""

    array: np.ndarray


@dataclass(frozen=True)
class SampledField:
    """One multivector per grid node, stored as (*grid.shape, 2^d) floats."""

    sig: Signature
    ms: MultiplicitySplit
    grid: TensorGrid
    values: np.ndarray

    def __post_init__(self):
        vals = self.values
        # a caller's array is copied and checked; an engine result nobody else holds is adopted
        if isinstance(vals, _Owned):
            vals = vals.array
        else:
            vals = np.array(vals, dtype=float, order="C")
            if not np.isfinite(vals).all():
                raise ValueError("field values hold a non-finite number")
        want = self.grid.shape + (self.sig.n_blades,)
        if vals.shape != want:
            raise ValueError(f"values shape {vals.shape}, grid wants {want}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def norm2(self) -> float:
        """Weighted L^2 norm squared: integral of the modulus squared."""
        w = self.grid.total_weights().reshape(self.grid.shape)
        return float(np.sum(w[..., None] * self.values**2))


def _coords(grid: TensorGrid) -> tuple:
    """Open coordinates: axis j's nodes as an array of shape (1, ..., n_j, ..., 1)."""
    return np.ix_(*(ax.nodes for ax in grid.axes))


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
    w = want.grid.total_weights().reshape(want.grid.shape)
    diff = float(np.sum(w[..., None] * (got.values - want.values) ** 2))
    err = math.sqrt(diff / ref)
    if not math.isfinite(err):
        raise OverflowError(f"relative L2 error is {err!r}: a field or its square norm overflows")
    return err


# -- plans ----------------------------------------------------------------


@dataclass(frozen=True)
class TransformPlan:
    """Immutable discretization: grids, per-coordinate kernels, units, mode.

    `fwd_mats[j]` stacks axis j's (even, odd) half matrices, positive x
    nodes to positive y nodes: w(x) A(x y) and w(x) B(x y).  `inv_mats[j]`
    holds the inverse's, y to x: w(y) A(x y) and -w(y) B(x y).
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
    cmats: Mapping  # order -> blade matrices, see `_blade_matrices`

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


def _blade_matrices(sig: Signature, a: MultiVector, b: MultiVector) -> dict:
    """Blade reassembly matrices [s, r, A, :] of each order of the kernel
    factors: the coefficients of a^s e_A b^r ("two"), a^s b^r e_A ("left")
    and e_A a^s b^r ("right").

    They are products of the multiplication matrices L_u[A, k] = sum_i
    u_i S[i, A, k] (row A holds u e_A) and R_u[A, k] = sum_i u_i S[A, i, k]
    (e_A u), S the structure tensor: L_a^s R_b^r, L_b^r L_a^s and
    R_a^s R_b^r.
    """
    S = structure_tensor(sig)
    one = np.eye(sig.n_blades)
    La, Lb = ((one, np.einsum("i,iak->ak", u.coeff, S)) for u in (a, b))
    Ra, Rb = ((one, np.einsum("i,aik->ak", u.coeff, S)) for u in (a, b))
    out = {
        "two": np.array([[La[s] @ Rb[r] for r in (0, 1)] for s in (0, 1)]),
        "left": np.array([[Lb[r] @ La[s] for r in (0, 1)] for s in (0, 1)]),
        "right": np.array([[Ra[s] @ Rb[r] for r in (0, 1)] for s in (0, 1)]),
    }
    for mats in out.values():
        mats.flags.writeable = False
    return out


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
    """Discretize both sides and tabulate the kernels once.

    L_x / L_y are half-widths per coordinate (scalars broadcast).  The plan
    refuses coordinates with L_x * L_y beyond the kernel radius
    (ArgumentOutOfRadius from `kernel_coefficients`) and grids holding more
    than NODE_CAP values, nodes times blades (NodeCountExceeded).  Kernels
    are tabulated on the positive quadrant of each axis; parity gives the
    rest.
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
    d = ms.d
    Lx = np.broadcast_to(np.asarray(L_x, dtype=float), (d,))
    Ly = Lx if L_y is None else np.broadcast_to(np.asarray(L_y, dtype=float), (d,))
    tables = tuple(kernel_coefficients(ms.kappa[j], t_max=float(Lx[j] * Ly[j])) for j in range(d))
    n_nodes = node_count(d, panels, order)  # on both sides
    n_values = n_nodes * sig.n_blades
    if n_values > NODE_CAP:
        raise NodeCountExceeded(
            f"{n_nodes} nodes x {sig.n_blades} blades = {n_values} values "
            f"exceeds cap {NODE_CAP}"
        )
    grid_x = build_grid(ms, Lx, panels=panels, order=order)
    grid_y = build_grid(ms, Ly, panels=panels, order=order)
    mats = []
    for table, ax, ay in zip(tables, grid_x.axes, grid_y.axes):
        n, m = len(ax) // 2, len(ay) // 2
        A, B = eval_kernel_ab(table, np.outer(ax.nodes[n:], ay.nodes[m:]).ravel())
        A, B = A.reshape(n, m), B.reshape(n, m)
        wx, wy = (ax.weights * ax.wk)[n:, None], (ay.weights * ay.wk)[m:, None]
        pair = np.stack((wx * A, wx * B)), np.stack((wy * A.T, -wy * B.T))
        for M in pair:
            M.flags.writeable = False
        mats.append(pair)
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
        cmats=_blade_matrices(sig, a.value, b.value),
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
    """Two flat buffers of `size` floats that the stages of a pipeline
    write in turn.

    A pipeline of n stages ends in bufs[(n - 1) % 2]: a partial transform
    takes d + 2 stages, a transform d + 5 and a scalar operator 2d + 6.
    That buffer is allocated first, so the other, released when the
    pipeline returns, lies above it next to the top of the heap, where
    malloc can hand it back.  Allocated the other way round, the released
    buffers left holes that raised the peak RSS of the d34_roundtrip
    benchmark by 16-23 MiB in about half of its runs (glibc malloc).
    """

    def __init__(self, stages: int, size: int):
        first, second = np.empty(size), np.empty(size)
        self.bufs, self.turn = ((first, second) if stages % 2 else (second, first)), 0

    def next(self, shape) -> np.ndarray:
        """The buffer the previous call did not return, as `shape`."""
        buf = self.bufs[self.turn]
        self.turn ^= 1
        return buf.reshape(shape)


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
    for e, index in enumerate(_orthants(full)):
        Y[e] = values[index]
    X = work.next(Y.shape)
    np.matmul(_hadamard(d), Y.reshape(2**d, -1), out=X.reshape(2**d, -1))
    return X


def _unfold(X: np.ndarray, d: int, work: _Work) -> np.ndarray:
    """Class stack of parity components -> values (*grid, k)."""
    Y = work.next(X.shape)
    np.matmul(_hadamard(d), X.reshape(2**d, -1), out=Y.reshape(2**d, -1))
    out = work.next(tuple(2 * n for n in X.shape[1:d + 1]) + X.shape[d + 1:])
    for e, index in enumerate(_orthants(out.shape[:d])):
        out[index] = Y[e]
    return out


def _contract(X: np.ndarray, plan: TransformPlan, inverse: bool, blades,
              work: _Work) -> np.ndarray:
    """Contract every axis of a class stack with each class's even or odd
    half matrix, x to y (y to x if `inverse`), then the blade axis with the
    (C, k, k') matrices `blades`.  Each step is one batched GEMM that
    contracts the leading axis and appends the output axis, so nothing is
    transposed; without a blade step the result is blade-first, (C, k, *half).
    """
    bits = _parity_classes(plan.ms.d, plan.ms.split)[0]
    mats = plan.inv_mats if inverse else plan.fwd_mats
    steps = [mats[j][bits[:, j]] for j in range(plan.ms.d)]
    C, shape = X.shape[0], list(X.shape[1:])
    for M in steps if blades is None else steps + [blades]:
        lhs = X.reshape(C, M.shape[-2], -1).transpose(0, 2, 1)
        X = np.matmul(lhs, M, out=work.next(lhs.shape[:2] + M.shape[-1:]))
        shape = shape[1:] + [M.shape[-1]]
    return X.reshape([C] + shape)


def _partial_transform(values: np.ndarray, plan: TransformPlan, inverse: bool,
                       blades=None, work: _Work | None = None) -> np.ndarray:
    """`_contract` of the folded samples (*grid, k)."""
    work = work or _Work(plan.ms.d + 2, values.size)
    return _contract(_fold(values, plan.ms.d, work), plan, inverse, blades, work)


def _transform(values: np.ndarray, plan: TransformPlan, inverse: bool, cmat,
               const: float) -> np.ndarray:
    """const * sum over classes sigma of sign(sigma) a^s (class) b^r."""
    _, s, r, sign = _parity_classes(plan.ms.d, plan.ms.split)
    blades = (const * sign)[:, None, None] * cmat[s, r]
    work = _Work(plan.ms.d + 5, values.size)
    return _unfold(_partial_transform(values, plan, inverse, blades, work), plan.ms.d, work)


def _scalar_operator(Phi: np.ndarray, values: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Phi * g as values (*grid_x, k), for the y-side class stack Phi
    (C, k', *half) of a left factor in the first k' blades and g's samples.

    y class tau collects (-1)^|alpha or beta| Phi_alpha Gamma_beta over
    alpha xor beta = tau, Gamma g's classes and the sign what the units and
    the inverse's conjugation leave; one GEMM against the structure tensor
    takes the blade products.  The inverse contractions and c^2 2^d follow
    (2^d turns parity components into the fold sums the matrices expect).
    """
    d, nb = plan.ms.d, plan.sig.n_blades
    work = _Work(2 * d + 6, values.size)
    Gam = _partial_transform(values, plan, False, work=work)
    del values  # dead once folded: frees a field before the class products
    (C, kl), half = Phi.shape[:2], Gam.shape[2:]
    Phi, Gam = Phi.reshape(C, kl, 1, -1), Gam.reshape(C, 1, nb, -1)
    S = structure_tensor(plan.sig)[:kl].reshape(kl * nb, nb)
    bits = _parity_classes(d, plan.ms.split)[0]
    odd = (bits[:, None] | bits[None, :]).sum(axis=-1) % 2
    H = work.next((C,) + half + (nb,))
    Q, term = np.empty((2, kl, nb, Gam.shape[-1]))
    for tau in range(C):
        Q.fill(0.0)
        for al in range(C):
            np.multiply(Phi[al], Gam[al ^ tau], out=term)
            (np.subtract if odd[al, al ^ tau] else np.add)(Q, term, out=Q)
        np.matmul(Q.reshape(kl * nb, -1).T, S, out=H[tau].reshape(-1, nb))
    scale = np.eye(nb) * (_c_squared(plan) * 2.0**d)
    return _unfold(_contract(H, plan, True, scale[None], work), d, work)


def _result(plan: TransformPlan, grid: TensorGrid, values: np.ndarray) -> SampledField:
    """An engine result, adopted without the defensive copy."""
    return SampledField(plan.sig, plan.ms, grid, _Owned(values))


def _forward(f, plan: TransformPlan, cmat: np.ndarray) -> SampledField:
    values = _sample_on(f, plan.grid_x, plan.sig, plan.ms)
    return _result(plan, plan.grid_y, _transform(values, plan, False, cmat, plan.mode_scale))


def forward(f, plan: TransformPlan) -> SampledField:
    """Two-sided transform: kernel E_p on the left, E_q on the right."""
    return _forward(f, plan, plan.cmats["two"])


def forward_left(f, plan: TransformPlan) -> SampledField:
    """Both kernel factors to the left of f (order E_p E_q f)."""
    return _forward(f, plan, plan.cmats["left"])


def forward_right(f, plan: TransformPlan) -> SampledField:
    """Both kernel factors to the right of f (order f E_p E_q)."""
    return _forward(f, plan, plan.cmats["right"])


def inverse(F, plan: TransformPlan) -> SampledField:
    """Inverse transform: conjugated kernels, y-side weights.

    Raw mode carries the constant c_{k_p}^2 c_{k_q}^2; mehta mode carries
    c_{k_p} c_{k_q} so that inverse(forward(f)) = f in either mode.
    """
    values = _sample_on(F, plan.grid_y, plan.sig, plan.ms)
    out = _transform(values, plan, True, plan.cmats["two"], _c_squared(plan) / plan.mode_scale)
    return _result(plan, plan.grid_x, out)


# -- claims ---------------------------------------------------------------


@dataclass(frozen=True)
class ClaimReport:
    """One measured identity or constant, compared against its assertion.

    `status` is "pass" when the measurement agrees within tolerance
    (|measured/paper - 1| <= tol, or |measured| <= tol when the asserted
    value is 0); otherwise "flagged", keeping the measured value.
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
    def make(cls, claim, paper, measured, tol, grid, sig, kappa, units) -> "ClaimReport":
        paper = float(paper)
        measured = float(measured)
        if paper == 0.0:
            ratio = None
            ok = abs(measured) <= tol
        else:
            ratio = measured / paper
            ok = abs(ratio - 1.0) <= tol
        return cls(
            claim=claim,
            paper_value=paper,
            measured_value=measured,
            ratio=ratio,
            status="pass" if ok else "flagged",
            grid=dict(grid),
            sig=str(sig),
            kappa=tuple(float(k) for k in kappa),
            units=units,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def _grid_meta(plan: TransformPlan) -> dict:
    return {
        "L_x": [ax.L for ax in plan.grid_x.axes],
        "L_y": [ax.L for ax in plan.grid_y.axes],
        "panels": plan.grid_x.axes[0].panels,
        "order": plan.grid_x.axes[0].order,
        "nodes_per_axis": list(plan.grid_x.shape),
        "normalization": plan.normalization,
    }


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


def plancherel_ratio(f, plan: TransformPlan) -> tuple:
    """|forward(f)|^2 / |f|^2 in the weighted norms, with a ClaimReport.

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
    report = ClaimReport.make(
        "plancherel-constant",
        paper,
        ratio,
        plan.rtol,
        _grid_meta(plan),
        plan.sig,
        plan.ms.kappa,
        "dimensionless",
    )
    return ratio, report


# -- Hermite eigenfunctions -----------------------------------------------


def _hermite_product_grid(grid: TensorGrid, v: tuple) -> np.ndarray:
    out = np.ones(())
    for ax, nj in zip(grid.axes, v):
        col = eval_orthonormal(*hermite_basis(ax.kappa, max(nj, 1)), nj, ax.nodes)
        out = np.multiply.outer(out, col * np.exp(-0.5 * ax.nodes**2))
    return out


def _fit_profile(values: np.ndarray, g: np.ndarray, w: np.ndarray) -> tuple:
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


def _eigen_fit(v: tuple, u: tuple, plan: TransformPlan) -> dict:
    """Forward a Hermite product and fit F(y) = h(y) * C, C a constant."""
    v, u = eigen_indices(v, u, plan.ms)
    hx = _hermite_product_grid(plan.grid_x, v + u)
    vals = np.zeros(plan.grid_x.shape + (plan.sig.n_blades,))
    vals[..., 0] = hx
    F = forward(SampledField(plan.sig, plan.ms, plan.grid_x, vals), plan)
    hy = _hermite_product_grid(plan.grid_y, v + u)
    w = plan.grid_y.total_weights().reshape(plan.grid_y.shape)
    C, shape_residual = _fit_profile(F.values, hy, w)
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
    return _eigen_report(v, u, _eigen_fit(v, u, plan), plan)


def _eigen_report(v, u, fit: dict, plan: TransformPlan) -> ClaimReport:
    """The eigenvalue ClaimReport of an `_eigen_fit` result."""
    paper = _block_constant(plan.ms) * plan.mode_scale
    report = ClaimReport.make(
        f"eigenvalue-v{'.'.join(map(str, v))}-u{'.'.join(map(str, u))}",
        paper,
        fit["lambda"],
        plan.rtol,
        _grid_meta(plan),
        plan.sig,
        plan.ms.kappa,
        "dimensionless",
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
    values = _scalar_operator(delta[:, None], _sample_on(f, plan.grid_x, plan.sig, plan.ms), plan)
    return _result(plan, plan.grid_x, values)


def _branch_table(x: np.ndarray, zj: float, rule) -> tuple:
    """(coordinates, coefficients), each (len(x), branches): x - z with 1 at
    kappa_j = 0, else +-Omega with w (1 +- (x-z)/Omega)/2 per psi node (t, w),
    Omega = sqrt(x^2 + z^2 - 2 x z t), both w/2 in the limit Omega = 0."""
    if rule is None:
        return (x - zj)[:, None], np.ones((x.size, 1))
    t, w = rule
    om = np.sqrt(np.maximum((x * x)[:, None] + zj * zj - (2.0 * zj * x)[:, None] * t, 0.0))
    ratio = np.divide((x - zj)[:, None], om, out=np.zeros_like(om), where=om > 0.0)
    return np.hstack((om, -om)), 0.5 * np.hstack((w * (1.0 + ratio), w * (1.0 - ratio)))


def _psi_rules(kappa, order: int) -> list:
    """One psi rule of `order` nodes per axis, None for an exact shift."""
    return [None if zero_limit(k) else psi_rule(k, order) for k in kappa]


def _explicit_pass(fn, pts: list, z: np.ndarray, rules: list) -> np.ndarray:
    """tau_z fn at the flattened points `pts`, one psi rule per axis.

    The axis with the most branches rides along as a trailing array axis;
    Python loops over the other axes' branches only, one field call of at
    most `_EXPLICIT_CHUNK` values each, and accumulates in place.
    """
    widths = [1 if r is None else 2 * len(r[0]) for r in rules]
    inner = int(np.argmax(widths))
    outer = [j for j in range(len(pts)) if j != inner]
    step = max(1, _EXPLICIT_CHUNK // widths[inner])
    out = np.empty(pts[0].size)
    coef, term = np.empty(min(step, out.size)), np.empty(min(step, out.size))
    for lo in range(0, out.size, step):
        tabs = [_branch_table(x[lo:lo + step], z[j], rules[j]) for j, x in enumerate(pts)]
        args, acc = [c for c, _ in tabs], out[lo:lo + step]
        m = acc.size
        acc.fill(0.0)
        for branch in itertools.product(*(range(widths[j]) for j in outer)):
            c = None
            for j, b in zip(outer, branch):
                args[j], col = tabs[j][0][:, b:b + 1], tabs[j][1][:, b]
                c = col if c is None else np.multiply(c, col, out=coef[:m])
            vals = np.broadcast_to(np.asarray(fn(*args), dtype=float), tabs[inner][0].shape)
            t = np.einsum("ij,ij->i", vals, tabs[inner][1], out=term[:m])
            if c is not None:
                t *= c
            acc += t
    return out


def _psi_order(fn, pts: list, z: np.ndarray, kappa) -> tuple:
    """(order, estimate): the psi order for tau_z fn at `pts`, and the error
    estimate behind it.

    A probe of every `_PROBE_STRIDE`-th point, plus the point of largest
    |x_j| on each axis (where |x_j z_j|, and so the integrand's variation,
    peaks), runs at the orders of `_PSI_ORDERS` in turn until two successive
    results agree to `_PSI_RTOL` in relative max norm; the lower order of
    that pair is returned with their difference.  Without agreement the
    last order is returned with the last difference.  Exact shifts on every
    axis, or no points, need no probe: (first order, 0.0).
    """
    if pts[0].size == 0 or all(zero_limit(k) for k in kappa):
        return _PSI_ORDERS[0], 0.0
    idx = np.unique(np.concatenate(
        [np.arange(0, pts[0].size, _PROBE_STRIDE)] + [[np.argmax(np.abs(x))] for x in pts]))
    probe = [x[idx] for x in pts]
    prev = _explicit_pass(fn, probe, z, _psi_rules(kappa, _PSI_ORDERS[0]))
    for low, high in zip(_PSI_ORDERS, _PSI_ORDERS[1:]):
        cur = _explicit_pass(fn, probe, z, _psi_rules(kappa, high))
        diff, scale = np.max(np.abs(cur - prev)), np.max(np.abs(cur))
        est = float(diff / scale) if scale > 0.0 else (0.0 if diff == 0.0 else math.inf)
        if est <= _PSI_RTOL:
            return low, est
        prev = cur
    return high, est


def translate_explicit(f: AnalyticField, z, ms: MultiplicitySplit, *,
                       order: int | None = None) -> AnalyticField:
    """Rank-one (Roesler) translation of an analytic field, blade by blade.

    A kappa_j > 0 coordinate applies the one-dimensional formula

        (tau f)(x) = 1/2 int f(+Omega) (1 + (x-z)/Omega) psi(t) dt
                   + 1/2 int f(-Omega) (1 - (x-z)/Omega) psi(t) dt

    with a Gauss-Jacobi rule for psi_kappa; a kappa_j = 0 coordinate (or
    one too small to tell from 0, see `zero_limit`) is the exact shift
    x_j - z_j.  Coordinates enter separately, so tau f sums the field over
    the product of the axes' branch tables, weighted by the product of the
    branch coefficients, in chunks of at most `_EXPLICIT_CHUNK` field values.

    The psi order is chosen per call of a returned blade callable: a probe
    of the requested points runs at orders 8, 16, 32 and 64 until two
    successive orders agree to 1e-14 (relative, max norm), and every point
    then runs at the lower order of that pair, or at 64 if no pair agrees.
    The integrand is entire in t for an entire field, so the rule converges
    spectrally.  `order` fixes the psi order instead, for every call.
    """
    if not isinstance(f, AnalyticField):
        raise TypeError("explicit translation needs an analytic field")
    if f.ms != ms:
        raise PlanMismatch("field multiplicities differ")
    z = _shift(z, ms.d)
    fixed = None if order is None else _psi_rules(ms.kappa, order)

    def translated(*X, fn):
        X = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in X))
        pts = [x.ravel() for x in X]
        rules = fixed
        if rules is None:
            rules = _psi_rules(ms.kappa, _psi_order(fn, pts, z, ms.kappa)[0])
        return _explicit_pass(fn, pts, z, rules).reshape(X[0].shape)

    blades = {mask: partial(translated, fn=fn) for mask, fn in f.blades.items()}
    return AnalyticField(f.sig, ms, blades)


def convolve(f, g, plan: TransformPlan) -> SampledField:
    """(f * g)(x) = integral f(z) tau_z g(x) dmu(z), tau_z spectral.

    tau_z is scalar, so swapping the z and y integrations leaves pointwise
    products of the contracted classes of f and g (`_scalar_operator`).
    The result depends neither on the units nor on the normalization mode.
    CONVOLVE_BUDGET caps the kernel evaluations per output node (= the
    y-grid size).
    """
    if plan.grid_y.n_nodes > CONVOLVE_BUDGET:
        raise NodeBudgetExceeded(
            f"{plan.grid_y.n_nodes} kernel evaluations per output node "
            f"exceeds {CONVOLVE_BUDGET}"
        )
    Phi = _partial_transform(_sample_on(f, plan.grid_x, plan.sig, plan.ms), plan, False)
    values = _scalar_operator(Phi, _sample_on(g, plan.grid_x, plan.sig, plan.ms), plan)
    return _result(plan, plan.grid_x, values)


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


def run_claims_ledger(config: dict | None = None) -> list:
    """Measure every asserted identity/constant and report, never abort.

    Identity claims (round trips, equivalences, bounds) carry an asserted
    value of 0 or 1; constants are compared in both normalization modes.
    A flagged constant is data, not a failure.

    `config` overrides keys of LEDGER_DEFAULTS.  The ledger's fields are
    two-dimensional with one coordinate per block, so a config with
    another key, p + q != 2 or split != 1 raises ValueError.
    """
    from .clifford_core import validate_imaginary

    config = {} if config is None else config
    if not isinstance(config, Mapping):
        raise ValueError(f"ledger config must be a mapping, got {type(config).__name__}")
    unknown = sorted(set(config) - set(LEDGER_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown ledger settings {unknown}")
    cfg = {**LEDGER_DEFAULTS, **config}
    sig = Signature(int(cfg["p"]), int(cfg["q"]))
    ms = MultiplicitySplit(cfg["kappa"], int(cfg["split"]))
    if (sig.d, ms.d, ms.split) != (2, 2, 1):
        raise ValueError("the ledger needs p + q = 2, two multiplicities and split = 1")
    a = validate_imaginary(MultiVector.blade(sig, cfg["a"]), str(cfg["a"]))
    b = validate_imaginary(MultiVector.blade(sig, cfg["b"]), str(cfg["b"]))
    tol = float(cfg["rtol"])
    raw = build_plan(
        sig, ms, a, b,
        L_x=cfg["L_x"], L_y=cfg["L_y"],
        panels=int(cfg["panels"]), order=int(cfg["order"]),
        normalization="raw", rtol=tol,
    )
    # the modes differ only in the scale applied after the contractions
    plans = {"raw": raw, "mehta": replace(raw, normalization="mehta")}
    _c_squared(plans["raw"])  # an underflowing (c_p c_q)^2 stops the ledger before any transform
    meta = _grid_meta(plans["raw"])
    reports = []

    def add(claim, paper, measured, units, grid=None):
        reports.append(
            ClaimReport.make(
                claim, paper, measured, tol, grid or meta, sig, ms.kappa, units
            )
        )

    delta = float(cfg["delta"])
    gauss = _gaussian_field(sig, ms, delta)
    cp, cq = mehta_constant(ms.kappa_p), mehta_constant(ms.kappa_q)

    # Gaussian image: shape e^{-|y|^2/(4 delta)}, constant (2 delta)^-(gamma+d/2).
    # The asserted constant is compared against the literal integral (raw) and
    # the c_p c_q-normalized transform (mehta); only one of the two can match.
    asserted = (2.0 * delta) ** -(ms.gamma + ms.d / 2.0)
    consts = {}
    for mode in ("raw", "mehta"):
        F = forward(gauss, plans[mode])
        ys = _coords(plans[mode].grid_y)
        target = np.exp(-sum(y * y for y in ys) / (4.0 * delta))
        w = plans[mode].grid_y.total_weights().reshape(plans[mode].grid_y.shape)
        const = float(np.sum(w * target * F.values[..., 0]) / np.sum(w * target * target))
        consts[mode] = const
        off = F.values.copy()
        off[..., 0] -= const * target
        shape_err = math.sqrt(float(np.sum(w[..., None] * off**2)) / F.norm2())
        add(f"gaussian-constant-{mode}", asserted, const, "dimensionless",
            _grid_meta(plans[mode]))
        add(f"gaussian-shape-{mode}", 0.0, shape_err, "relative L2 error",
            _grid_meta(plans[mode]))
    add("gaussian-constant-raw-oracle", asserted / (cp * cq), consts["raw"],
        "dimensionless")

    # Inversion round trip, both modes, scalar and full multivector fields
    poly = AnalyticField(
        sig, ms,
        {0: lambda x1, x2: (1.0 + x1 * x1) * np.exp(-(x1 * x1 + x2 * x2))},
    )
    quat = AnalyticField(
        sig, ms,
        {
            0: lambda x1, x2: x1 * np.exp(-(x1**2 + x2**2)),
            1: lambda x1, x2: x1 * np.exp(-(x1**2 + x2**2)),
            2: lambda x1, x2: x1 * np.exp(-(x1**2 + x2**2)),
            3: lambda x1, x2: x1 * np.exp(-(x1**2 + x2**2)),
        },
    )
    for mode in ("raw", "mehta"):
        for name, test in (("scalar", poly), ("multivector", quat)):
            ref = SampledField(
                sig, ms, plans[mode].grid_x, _sample_on(test, plans[mode].grid_x, sig, ms)
            )
            back = inverse(forward(test, plans[mode]), plans[mode])
            add(
                f"inversion-roundtrip-{name}-{mode}",
                0.0,
                rel_l2_error(back, ref),
                "relative L2 error",
                _grid_meta(plans[mode]),
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
    ratios = [ratio for ratio, _ in measured]
    spread = (max(ratios) - min(ratios)) / ratios[0]
    add("plancherel-constancy", 0.0, spread, "relative spread")
    reports.append(measured[0][1])  # the Gaussian's, against the asserted constant
    add("plancherel-vs-gaussian-oracle", cp**-2 * cq**-2, ratios[0], "dimensionless")

    # Eigenfunctions: shape residual and eigenvalue, raw mode
    lam_oracle = cp**-1 * cq**-1
    for v, u in (((0,), (0,)), ((1,), (0,)), ((0,), (2,)), ((2,), (1,))):
        fit = _eigen_fit(v, u, plans["raw"])
        add(
            f"eigen-shape-v{'.'.join(map(str, v))}-u{'.'.join(map(str, u))}",
            0.0,
            max(fit["shape_residual"], fit["unit_residual"]),
            "relative residual",
        )
        reports.append(_eigen_report(v, u, fit, plans["raw"]))
        add(
            f"eigenvalue-oracle-v{'.'.join(map(str, v))}-u{'.'.join(map(str, u))}",
            lam_oracle,
            fit["lambda"],
            "dimensionless",
        )

    # Translation: tau_0 identity and explicit/spectral agreement
    z = tuple(float(t) for t in cfg["z"])
    ref = SampledField(sig, ms, plans["raw"].grid_x, _sample_on(gauss, plans["raw"].grid_x, sig, ms))
    add(
        "translation-zero-identity",
        0.0,
        rel_l2_error(translate_spectral(gauss, (0.0,) * ms.d, plans["raw"]), ref),
        "relative L2 error",
    )
    if all(k > 0.0 for k in ms.kappa):
        spec = translate_spectral(gauss, z, plans["raw"])
        expl = translate_explicit(gauss, z, ms)
        expl_s = SampledField(
            sig, ms, plans["raw"].grid_x, _sample_on(expl, plans["raw"].grid_x, sig, ms)
        )
        add(
            "translation-explicit-vs-spectral",
            0.0,
            rel_l2_error(expl_s, spec),
            "relative L2 error",
        )

    # Kernel bound sweep: sup_t sqrt(A^2+B^2) per coordinate, asserted <= 1
    for j, kap in enumerate(ms.kappa):
        t = np.linspace(-0.95 * plans["raw"].tables[j].t_max, 0.95 * plans["raw"].tables[j].t_max, 4001)
        A, B = eval_kernel_ab(plans["raw"].tables[j], t)
        add(f"kernel-bound-x{j + 1}", 1.0, float(np.sqrt(A * A + B * B).max()), "sup of modulus")

    return reports
