"""Explicit (Roesler) translation: the chunked branch-table evaluation in
`translate_explicit` against the nested-closure formulation it replaced,
kept here as the reference implementation, plus closed forms."""

import math

import numpy as np
import pytest
from scipy.special import hyp0f1

from cliffdunkl.cdt_engine import _EXPLICIT_CHUNK, AnalyticField, translate_explicit
from cliffdunkl.clifford_core import Signature
from cliffdunkl.dunkl_rank1 import MultiplicitySplit, psi_rule
from cliffdunkl.quadrature import build_grid


# -- reference: one closure per coordinate, one field call per branch path --


def _shift_coordinate(fn, j, zj):
    def shifted(*X):
        X = list(X)
        X[j] = np.asarray(X[j], dtype=float) - zj
        return fn(*X)

    return shifted


def _roesler_coordinate(fn, j, zj, nodes, wts):
    def translated(*X):
        xj = np.asarray(X[j], dtype=float)
        acc = None
        for tm, wm in zip(nodes, wts):
            om = np.sqrt(np.maximum(xj * xj + zj * zj - 2.0 * zj * xj * tm, 0.0))
            safe = np.where(om > 0.0, om, 1.0)
            ratio = np.where(om > 0.0, (xj - zj) / safe, 0.0)
            args_p = list(X)
            args_p[j] = om
            args_m = list(X)
            args_m[j] = -om
            term = 0.5 * ((1.0 + ratio) * fn(*args_p) + (1.0 - ratio) * fn(*args_m))
            acc = wm * term if acc is None else acc + wm * term
        return acc

    return translated


def reference_translate(fn, z, kappa, order=48):
    out = fn
    for j, k in enumerate(kappa):
        if k > 0.0:
            out = _roesler_coordinate(out, j, float(z[j]), *psi_rule(k, order))
        else:
            out = _shift_coordinate(out, j, float(z[j]))
    return out


# -- equivalence ----------------------------------------------------------------


def _body(*X):
    # neither separable nor even, so every branch and coefficient matters
    s = sum(x * x for x in X) + X[0] * X[-1]
    return np.exp(-s) * (1.0 + X[0] - 0.5 * X[-1])


def _assert_matches_reference(kappa, z, X, body=_body, order=48):
    ms = MultiplicitySplit(kappa, len(kappa) // 2)
    f = AnalyticField(Signature(0, len(kappa)), ms, {0: body})
    got = translate_explicit(f, z, ms, order=order).blades[0](*X)
    want = np.broadcast_to(reference_translate(body, z, kappa, order)(*X), got.shape)
    assert got.shape == np.broadcast_shapes(*(np.shape(x) for x in X))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _mesh(d, n):
    x = np.linspace(-3.0, 3.0, n)
    return np.meshgrid(*(x,) * d, indexing="ij")


def test_explicit_matches_reference_d1():
    # 1000 points at 96 branches: three chunks
    _assert_matches_reference((0.4,), (0.7,), (np.linspace(-4.0, 4.0, 1000),))


@pytest.mark.parametrize("kappa", [(0.5, 0.5), (0.0, 0.5), (0.5, 0.0), (0.0, 0.0)])
def test_explicit_matches_reference_d2(kappa):
    _assert_matches_reference(kappa, (0.6, -0.4), _mesh(2, 24))


def test_explicit_matches_reference_d3_small_order():
    _assert_matches_reference((0.3, 0.0, 0.7), (0.5, -0.3, 0.2), _mesh(3, 14), order=6)


def test_explicit_matches_reference_on_scattered_points():
    rng = np.random.default_rng(5)
    X = tuple(rng.uniform(-3.0, 3.0, 500) for _ in range(2))
    _assert_matches_reference((0.3, 0.7), (0.6, -0.4), X)
    # broadcastable, not equal, shapes: a column against a row
    _assert_matches_reference((0.3, 0.7), (0.6, -0.4), (X[0][:40, None], X[1][None, :30]))


def test_explicit_accepts_a_field_returning_a_scalar():
    # tau_z preserves constants, and the result still has the points' shape
    _assert_matches_reference((0.3, 0.7), (0.6, -0.4), _mesh(2, 10), body=lambda x1, x2: 2.5)
    ms = MultiplicitySplit((0.3, 0.7), 1)
    f = AnalyticField(Signature(0, 2), ms, {0: lambda x1, x2: 2.5})
    got = translate_explicit(f, (0.6, -0.4), ms).blades[0](*_mesh(2, 10))
    assert got.shape == (10, 10)
    assert np.max(np.abs(got - 2.5)) <= 1e-12


def test_explicit_field_calls_are_few_and_bounded():
    # a 96^2 sample at order 48 used to call the field (2 * 48)^2 = 9216 times
    calls, sizes = [], []

    def body(x1, x2):
        calls.append(1)
        sizes.append(np.broadcast(x1, x2).size)
        return np.exp(-(x1 * x1 + x2 * x2))

    ms = MultiplicitySplit((0.3, 0.7), 1)
    f = AnalyticField(Signature(0, 2), ms, {0: body})
    grid = build_grid(ms, 8.0, panels=1, order=48)
    assert grid.shape == (96, 96)
    translate_explicit(f, (0.6, -0.4), ms).sample(grid)
    assert len(calls) < 9216 / 3
    assert max(sizes) <= _EXPLICIT_CHUNK
    # a kappa = 0 axis has one branch, so the other axis's 96 ride along:
    # one call per chunk of points
    calls.clear()
    ms = MultiplicitySplit((0.0, 0.7), 1)
    f = AnalyticField(Signature(0, 2), ms, {0: body})
    translate_explicit(f, (0.6, -0.4), ms).sample(build_grid(ms, 8.0, panels=1, order=48))
    assert len(calls) == math.ceil(9216 / (_EXPLICIT_CHUNK // 96))


def test_explicit_gaussian_closed_form_at_large_kappa():
    # tau_z e^(-s x^2) = e^(-s (x^2 + z^2)) E_kappa(2 s x, z) with
    # E_kappa(x, y) = 0F1(kappa + 1/2; (xy)^2/4) + xy/(2 kappa + 1) 0F1(kappa + 3/2; (xy)^2/4);
    # Gamma(kappa + 1/2) alone overflows at kappa = 200
    kappa, s, z = 200.0, 0.7, 0.9
    ms = MultiplicitySplit((kappa,), 0)
    f = AnalyticField(Signature(0, 1), ms, {0: lambda x: np.exp(-s * x * x)})
    x = np.array([-2.0, -0.5, 0.0, 0.3, 1.1, 2.5])
    got = translate_explicit(f, (z,), ms).blades[0](x)
    t = 2.0 * s * x * z
    E = hyp0f1(kappa + 0.5, t * t / 4.0) + t / (2.0 * kappa + 1.0) * hyp0f1(kappa + 1.5, t * t / 4.0)
    want = np.exp(-s * (x * x + z * z)) * E
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
