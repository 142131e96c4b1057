"""References for the tests, computed apart from the library's routes:
the kernel's defining power series, the Mehta integral by quadrature, the
kernel as a multivector, the weight w_k, the generalized Hermite
functions, each evaluated one point (or one row of points) at a time,
field sampling on dense coordinate arrays, the transform of a Hermite
expansion from the eigenvalues alone, the blade reassembly matrices from
one multivector product per blade, and the principal reverse and grade
projection of Cl(p,q).  Also two tools the tests read back with: a
printer of expression ASTs, and a reader of ClaimReport JSON."""

import json
import math

import numpy as np

from cliffdunkl.cdt_engine import ClaimReport
from cliffdunkl.clifford_core import ImaginaryUnit, MultiVector
from cliffdunkl.dunkl_rank1 import (
    HERMITE_N_CAP,
    MultiplicitySplit,
    eval_kernel_ab,
    eval_orthonormal,
    hermite_basis,
)
from cliffdunkl.field_expr import Add, Const, Coord, Div, Exp, Mul, Neg, Pow, Sub
from cliffdunkl.quadrature import build_axis

COEFF_CAP = 400
SERIES_RADIUS = 4.0  # series error floor eps*e^|t| stays below ~1e-13 here


def series_coefficients(kappa: float, t_max: float = SERIES_RADIUS) -> np.ndarray:
    """c_0..c_N of E = sum c_n t^n, c_n = c_(n-1) / (n + 2 kappa [n odd]),
    with the tail |c_N t_max^N| below 1e-16."""
    coeffs = [1.0]
    scale = 1.0  # c_n * t_max^n
    quiet = 0
    while quiet < 2:
        n = len(coeffs)
        if n > COEFF_CAP:
            raise ValueError(f"the series needs more than {COEFF_CAP} coefficients")
        divisor = n + (2.0 * kappa if n % 2 == 1 else 0.0)
        coeffs.append(coeffs[-1] / divisor)
        scale = scale * t_max / divisor
        quiet = quiet + 1 if scale < 1e-16 else 0
    return np.array(coeffs)


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


def kernel_ab_series(kappa: float, t) -> tuple:
    """(A, B) of E(x, -u y) = A + u B by compensated ascending-degree
    summation of the series, for |t| <= SERIES_RADIUS."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > SERIES_RADIUS):
        raise ValueError(f"the series oracle is trusted for |t| <= {SERIES_RADIUS} only")
    c = series_coefficients(kappa)
    N = len(c) - 1
    n_even = (N // 2) + 1
    n_odd = (N + 1) // 2
    t2 = t * t
    even_pows = np.empty((n_even,) + t.shape)
    even_pows[0] = 1.0
    for m in range(1, n_even):
        even_pows[m] = even_pows[m - 1] * t2
    even_coeff = c[0 : 2 * n_even : 2] * np.where(np.arange(n_even) % 2, -1.0, 1.0)
    A = _kahan_poly(even_coeff, even_pows)
    odd_pows = even_pows[:n_odd] * t
    odd_coeff = c[1 : 2 * n_odd : 2] * np.where(np.arange(n_odd) % 2, 1.0, -1.0)
    B = _kahan_poly(odd_coeff, odd_pows)
    return A, B


def mehta_factor_quadrature(kappa: float) -> float:
    """int e^(-s^2/2) |s|^(2 kappa) ds by panelled quadrature, the inverse
    of the one-coordinate Mehta constant; accurate for small kappa only
    (the peak at sqrt(2 kappa) outgrows the panels from kappa ~ 45)."""
    # e^(-s^2/2) |s|^(2 kappa) tail at L=13 is ~1e-36; unit panels suffice
    axis = build_axis(kappa, L=13.0, panels=13, order=16)
    return float(np.sum(axis.weights * axis.wk * np.exp(-0.5 * axis.nodes**2)))


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


def sample_dense(field, grid) -> np.ndarray:
    """(*grid.shape, 2^d) samples of an AnalyticField, each blade body
    called on the dense `meshgrid` of the grid's nodes: every coordinate
    array has the full grid shape."""
    X = np.meshgrid(*(ax.nodes for ax in grid.axes), indexing="ij")
    out = np.zeros(grid.shape + (field.sig.n_blades,))
    for mask, fn in field.blades.items():
        out[..., mask] = fn(*X)
    return out


def hermite_image(terms: dict, ms: MultiplicitySplit, a: ImaginaryUnit, b: ImaginaryUnit,
                  ordering: str = "two", normalization: str = "raw") -> dict:
    """The forward transform of f = sum of M h_v(x_p) h_u(x_q) over the
    terms {(v, u): M}, as terms of the same kind of sum, with no kernel.

    The generalized Hermite functions are eigenfunctions of the Dunkl
    transform (Roesler, Comm. Math. Phys. 192, 1998), so the raw transform
    maps the term to c_p^-1 c_q^-1 (-a)^l(v) M (-b)^l(u) h_v(y_p) h_u(y_q),
    l the degree.  "left" puts both unit powers before M, "right" after it;
    "mehta" drops c_p^-1 c_q^-1, here the Mehta integrals by quadrature.
    """
    scale = 1.0
    if normalization == "raw":
        scale = float(np.prod([mehta_factor_quadrature(k) for k in ms.kappa]))
    out = {}
    for (v, u), M in terms.items():
        ua, ub = (-a.value) ** sum(v), (-b.value) ** sum(u)
        unit = {"two": ua * M * ub, "left": ua * ub * M, "right": M * ua * ub}[ordering]
        out[(v, u)] = scale * unit
    return out


def assembly_matrix(sig, a: MultiVector, b: MultiVector, order: str) -> np.ndarray:
    """[s, r, A, :] = coefficients of a^s e_A b^r ("two"), a^s b^r e_A
    ("left") or e_A a^s b^r ("right"), one blade at a time in multivector
    arithmetic, products taken left to right."""
    one = MultiVector.scalar(sig, 1.0)
    apow = (one, a)
    bpow = (one, b)
    out = np.empty((2, 2, sig.n_blades, sig.n_blades))
    for s in range(2):
        for r in range(2):
            for mask in range(sig.n_blades):
                blade = MultiVector.blade(sig, mask)
                if order == "two":
                    m = apow[s] * blade * bpow[r]
                elif order == "left":
                    m = apow[s] * bpow[r] * blade
                else:
                    m = blade * apow[s] * bpow[r]
                out[s, r, mask] = m.coeff
    return out


def principal_reverse(m: MultiVector) -> MultiVector:
    """The bar involution (a sign per negative-square generator of the
    blade) followed by the grade-wise reversal (-1)^(k(k-1)/2)."""
    signs = [(-1.0) ** ((A & m.sig.neg_mask).bit_count() + A.bit_count() * (A.bit_count() - 1) // 2)
             for A in range(m.sig.n_blades)]
    return MultiVector(m.sig, m.coeff * np.array(signs))


def grade(m: MultiVector, k: int) -> MultiVector:
    """The grade-k part of m: its blades of k generators."""
    keep = np.array([A.bit_count() == k for A in range(m.sig.n_blades)])
    return MultiVector(m.sig, np.where(keep, m.coeff, 0.0))


def hermite_sum(terms: dict, ms: MultiplicitySplit, grid) -> np.ndarray:
    """(*grid.shape, 2^d) values of sum M h_v(x_p) h_u(x_q) at the grid's
    nodes, each term an outer product of `eval_h` on every axis alone."""
    products = []
    for v, u in terms:
        prod = np.ones(())
        for n, kappa, ax in zip(v + u, ms.kappa, grid.axes):
            one = MultiplicitySplit((kappa,), 1)
            prod = np.multiply.outer(prod, eval_h((n,), ax.nodes[:, None], one))
        products.append(prod)
    coeffs = np.stack([M.coeff for M in terms.values()])
    return np.tensordot(np.stack(products), coeffs, axes=(0, 0))


# binding levels: expr=1, term=2, factor=3, atom=4
_LEVELS = {Add: 1, Sub: 1, Mul: 2, Div: 2, Pow: 3, Neg: 4, Const: 4, Coord: 4, Exp: 4}


def _render(node, need: int) -> str:
    level = _LEVELS[type(node)]
    if isinstance(node, Const):
        if not (node.value >= 0.0 and math.isfinite(node.value)):
            raise ValueError("literals must be finite and nonnegative; wrap in Neg")
        s = repr(float(node.value))
    elif isinstance(node, Coord):
        s = f"x{node.j}"
    elif isinstance(node, Add):
        s = f"{_render(node.left, 1)}+{_render(node.right, 2)}"
    elif isinstance(node, Sub):
        s = f"{_render(node.left, 1)}-{_render(node.right, 2)}"
    elif isinstance(node, Mul):
        s = f"{_render(node.left, 2)}*{_render(node.right, 3)}"
    elif isinstance(node, Div):
        s = f"{_render(node.left, 2)}/{_render(node.right, 3)}"
    elif isinstance(node, Pow):
        s = f"{_render(node.base, 4)}^{node.n}"
    elif isinstance(node, Exp):
        s = f"exp({_render(node.arg, 1)})"
    elif isinstance(node, Neg):
        s = f"-{_render(node.arg, 4)}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({s})" if level < need else s


def to_string(ast) -> str:
    """Canonical text of an expression AST with minimal parentheses; for
    every AST the parser can produce, parse_expr(to_string(ast)) == ast."""
    return _render(ast, 1)


def reports_from_json(text: str) -> list:
    """The ClaimReports of `reports_to_json` text, with grid a dict and
    kappa a tuple as `ClaimReport.make` stores them."""
    return [ClaimReport(**{**d, "grid": dict(d["grid"]), "kappa": tuple(d["kappa"])})
            for d in json.loads(text)]
