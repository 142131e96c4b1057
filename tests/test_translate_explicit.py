"""Explicit (Roesler) translation: the chunked branch-table evaluation in
`translate_explicit` against the nested-closure formulation it replaced,
kept here as the reference implementation, plus closed forms, and the
adaptive psi order against fixed orders."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import hyp0f1

from cliffdunkl import dunkl_rank1
from cliffdunkl.cdt_engine import (
    LEDGER_DEFAULTS,
    AnalyticField,
    SampledField,
    _gaussian_field,
    build_plan,
    rel_l2_error,
    run_claims_ledger,
    translate_explicit,
    translate_spectral,
)
from cliffdunkl.clifford_core import MultiVector, Signature, validate_imaginary
from cliffdunkl.dunkl_rank1 import (
    _EXPLICIT_CHUNK,
    MultiplicitySplit,
    _branch_table,
    _mirror_classes,
    _psi_order,
    psi_rule,
    zero_limit,
)
from cliffdunkl.field_expr import compile_expr
from cliffdunkl.quadrature import NodeCountExceeded, build_grid

from oracles import translate_at_order


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
    got = translate_at_order(f, z, ms, order).blades[0](*X)
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
    # a 96^2 sample at order 48 used to call the field (2 * 48)^2 = 9216 times;
    # the call counts below are at that order
    calls, sizes = [], []

    def body(x1, x2):
        calls.append(1)
        sizes.append(np.broadcast(x1, x2).size)
        return np.exp(-(x1 * x1 + x2 * x2))

    ms = MultiplicitySplit((0.3, 0.7), 1)
    f = AnalyticField(Signature(0, 2), ms, {0: body})
    grid = build_grid(ms, 8.0, panels=1, order=48)
    assert grid.shape == (96, 96)
    translate_at_order(f, (0.6, -0.4), ms, 48).sample(grid)
    assert len(calls) < 9216 / 3
    assert max(sizes) <= _EXPLICIT_CHUNK
    # 96^2 nodes are 48^2 keys (|x1|, |x2|), each with 32 x 32 branches at order 16
    sizes.clear()
    translate_at_order(f, (0.6, -0.4), ms, 16).sample(grid)
    assert sum(sizes) == 48**2 * 32**2 == 2_359_296
    # a kappa = 0 axis has one branch, so the other axis's 96 ride along;
    # x2 and -x2 share their field arguments, so the field sees 96 x 48
    # keys (x1, |x2|): one call per chunk of keys
    calls.clear()
    ms = MultiplicitySplit((0.0, 0.7), 1)
    f = AnalyticField(Signature(0, 2), ms, {0: body})
    translate_at_order(f, (0.6, -0.4), ms, 48).sample(build_grid(ms, 8.0, panels=1, order=48))
    assert len(calls) == math.ceil(96 * 48 / (_EXPLICIT_CHUNK // 96)) == 14


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


@pytest.mark.parametrize("kappa", [(0.3, 0.7), (0.3, 0.5, 0.7), (1e-3, 5.0), (0.0, 0.7)])
def test_explicit_gaussian_closed_form_on_scattered_points(kappa):
    # the per-point pass of an opaque e^(-s |x|^2) against
    # prod_j e^(-s (x_j^2 + z_j^2)) E_kappa_j(2 s x_j z_j), E = e^t on a
    # kappa = 0 axis; the points come with their negatives
    s, d = 0.8, len(kappa)
    z = (0.6, -0.4, 0.5)[:d]
    ms = MultiplicitySplit(kappa, d // 2)
    f = AnalyticField(Signature(0, d), ms, {0: lambda *X: np.exp(-s * sum(x * x for x in X))})
    X = np.random.default_rng(17 * d).uniform(-3.0, 3.0, (d, 150))
    X = np.concatenate((X, -X), axis=1)
    got = translate_explicit(f, z, ms).blades[0](*X)
    want = np.ones(X.shape[1])
    for k, x, zj in zip(kappa, X, z):
        t = 2.0 * s * x * zj
        E = np.exp(t) if k == 0.0 else (hyp0f1(k + 0.5, t * t / 4.0)
                                          + t / (2.0 * k + 1.0) * hyp0f1(k + 1.5, t * t / 4.0))
        want *= np.exp(-s * (x * x + zj * zj)) * E
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("X,match", [
    ((np.array([0.5, np.nan]), np.zeros(2)), "finite"),
    ((np.array([0.5, np.inf]), np.zeros(2)), "finite"),
    ((np.zeros(2),), "need 2 coordinate arrays, got 1"),
    ((np.zeros(2),) * 3, "need 2 coordinate arrays, got 3"),
])
@pytest.mark.parametrize("body", [_body, compile_expr("exp(-(x1^2+x2^2))", 2)], ids=["opaque", "split"])
def test_translated_blade_refuses_points_that_are_not_d_finite_coordinates(X, match, body):
    ms = MultiplicitySplit((0.3, 0.7), 1)
    blade = translate_explicit(AnalyticField(Signature(0, 2), ms, {0: body}), (0.6, -0.4), ms).blades[0]
    with pytest.raises(ValueError, match=match):
        blade(*X)


# -- the adaptive psi order -------------------------------------------------------


def _fixed_order_loop(fn, z, kappa, order, X):
    """The fixed-order chunked loop as it was before the adaptive order, with
    fresh temporaries per branch: the reference for bit-identical output."""
    rules = [None if zero_limit(k) else psi_rule(k, order) for k in kappa]
    widths = [1 if r is None else 2 * len(r[0]) for r in rules]
    inner = int(np.argmax(widths))
    outer = [j for j in range(len(kappa)) if j != inner]
    step = max(1, _EXPLICIT_CHUNK // widths[inner])
    X = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in X))
    pts = [x.ravel() for x in X]
    out = np.empty(pts[0].size)
    for lo in range(0, out.size, step):
        tabs = [_branch_table(x[lo:lo + step], z[j], rules[j]) for j, x in enumerate(pts)]
        args, acc = [c for c, _ in tabs], 0.0
        for branch in itertools.product(*(range(widths[j]) for j in outer)):
            coef = 1.0
            for j, b in zip(outer, branch):
                args[j] = tabs[j][0][:, b:b + 1]
                coef = coef * tabs[j][1][:, b]
            vals = np.broadcast_to(np.asarray(fn(*args), dtype=float), tabs[inner][0].shape)
            acc = acc + coef * np.einsum("ij,ij->i", vals, tabs[inner][1])
        out[lo:lo + step] = acc
    return out.reshape(X[0].shape)


def _translate(f, z, ms, order=None):
    """The adaptive translation, or the one at a fixed psi order."""
    return translate_explicit(f, z, ms) if order is None else translate_at_order(f, z, ms, order)


def _translated(body, kappa, z, order=None):
    ms = MultiplicitySplit(kappa, len(kappa) // 2)
    f = AnalyticField(Signature(0, len(kappa)), ms, {0: body})
    return _translate(f, z, ms, order).blades[0]


def _wavy(*X):
    # does not decay: cos(3 x1) (1 + x_d^2)
    return np.cos(3.0 * X[0]) * (1.0 + X[-1] * X[-1])


@pytest.mark.parametrize("kappa", [1e-6, 0.3, 200.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_adaptive_order_matches_order_64(kappa, d):
    # grid nodes and scattered points in one call: at d = 3 a pass costs
    # (2 order)^2 field calls whatever the number of points
    rng = np.random.default_rng(d)
    z = (0.7, -0.9, 0.5)[:d]
    n = {1: 200, 2: 16, 3: 3}[d]
    grid = np.meshgrid(*(np.linspace(-4.0, 4.0, n),) * d, indexing="ij")
    X = [np.concatenate((g.ravel(), rng.uniform(-5.0, 5.0, 6 if d == 3 else 150))) for g in grid]
    for body in (_body, _wavy):
        got = _translated(body, (kappa,) * d, z)(*X)
        want = _translated(body, (kappa,) * d, z, order=64)(*X)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kappa,z,X,order", [
    ((0.4,), (0.7,), (np.linspace(-4.0, 4.0, 1000),), 48),
    ((0.3, 0.7), (0.6, -0.4), _mesh(2, 24), 48),
    ((0.0, 0.7), (0.6, -0.4), _mesh(2, 24), 48),
    ((0.3, 0.0, 0.7), (0.5, -0.3, 0.2), _mesh(3, 10), 6),
])
def test_fixed_order_output_is_bit_identical_to_the_fixed_order_loop(kappa, z, X, order):
    got = _translated(_body, kappa, z, order=order)(*X)
    assert np.array_equal(got, _fixed_order_loop(_body, z, kappa, order, X))


def test_unconverged_field_runs_at_the_cap():
    # cos(60 x) varies by ~60 |z| radians across the psi interval: no pair of
    # orders up to 64 agrees, so every point runs at 64
    def body(x):
        return np.cos(60.0 * x)

    x = np.linspace(-8.0, 8.0, 300)
    order, estimate = _psi_order(body, [x], np.array([2.0]), (0.5,), _mirror_classes([x], (0.5,)))[:2]
    assert order == (64,) and estimate > 1e-14
    got = _translated(body, (0.5,), (2.0,))(x)
    assert np.array_equal(got, _translated(body, (0.5,), (2.0,), order=64)(x))


def test_exact_shifts_and_the_zero_field_settle_at_once():
    ms = MultiplicitySplit((0.0, 1e-300), 1)  # both zero_limit: exact shifts
    calls = []

    def body(x1, x2):
        calls.append(1)
        return np.exp(-(x1 * x1 + x2 * x2))

    pts = [np.linspace(-1.0, 1.0, 5)] * 2
    assert _psi_order(body, pts, np.array([0.6, -0.4]), ms.kappa, _mirror_classes(pts, ms.kappa))[:2] == ((8, 8), 0.0)
    assert calls == []
    grid = build_grid(ms, 8.0, panels=1, order=48)
    got = translate_explicit(AnalyticField(Signature(0, 2), ms, {0: body}), (0.6, -0.4), ms).sample(grid)
    assert len(calls) == 1  # the final pass only: 9216 points, one branch each
    X = np.meshgrid(*(ax.nodes for ax in grid.axes), indexing="ij")
    assert np.array_equal(got[..., 0], body(X[0] - 0.6, X[1] + 0.4))
    # a zero field agrees with itself at the first pair of orders
    def zero(x1, x2):
        return np.zeros(np.broadcast(x1, x2).shape)

    pts = [x.ravel() for x in _mesh(2, 12)]
    assert _psi_order(zero, pts, np.array([0.6, -0.4]), (0.3, 0.7), _mirror_classes(pts, (0.3, 0.7)))[:2] == ((8, 8), 0.0)
    assert not np.any(_translated(zero, (0.3, 0.7), (0.6, -0.4))(*_mesh(2, 12)))


def test_adaptive_field_calls_stay_within_the_fixed_order_count():
    counts = {}
    for order in (48, None):
        calls, sizes = [], []

        def body(x1, x2):
            calls.append(1)
            sizes.append(np.broadcast(x1, x2).size)
            return np.exp(-(x1 * x1 + x2 * x2))

        for kappa in ((0.3, 0.7), (0.0, 0.7)):
            ms = MultiplicitySplit(kappa, 1)
            f = AnalyticField(Signature(0, 2), ms, {0: body})
            grid = build_grid(ms, 8.0, panels=1, order=48)
            _translate(f, (0.6, -0.4), ms, order).sample(grid)
        counts[order] = len(calls)
        assert max(sizes) <= _EXPLICIT_CHUNK
    assert counts[None] <= counts[48]


def test_ledger_translation_claim_matches_order_64():
    sig, ms = Signature(0, 2), MultiplicitySplit(LEDGER_DEFAULTS["kappa"], 1)
    a, b = (validate_imaginary(MultiVector.blade(sig, e), e) for e in ("e1", "e2"))
    plan = build_plan(sig, ms, a, b, L_x=LEDGER_DEFAULTS["L_x"], L_y=LEDGER_DEFAULTS["L_y"],
                      order=LEDGER_DEFAULTS["order"])
    gauss = _gaussian_field(sig, ms, LEDGER_DEFAULTS["delta"])
    z = LEDGER_DEFAULTS["z"]
    expl = translate_at_order(gauss, z, ms, 64)
    want = rel_l2_error(SampledField(sig, ms, plan.grid_x, expl.sample(plan.grid_x)),
                        translate_spectral(gauss, z, plan))
    got = {r.claim: r for r in run_claims_ledger()}["translation-explicit-vs-spectral"]
    assert abs(got.measured_value - want) <= 1e-14


def test_probe_includes_the_largest_coordinates():
    # one far point, off the probe stride: its integrand varies most, and
    # the order must resolve it, not just the near points
    def body(x):
        return np.cos(10.0 * x)

    x = np.concatenate((np.linspace(-1.0, 1.0, 100), [8.0], np.linspace(-1.0, 1.0, 20)))
    got = _translated(body, (0.5,), (1.5,))(x)
    want = _translated(body, (0.5,), (1.5,), order=64)(x)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_each_axis_climbs_to_its_own_order(monkeypatch):
    # cos(8 x1) varies fast along x1 only, so axis 1 needs the higher order
    def body(x1, x2):
        return np.cos(8.0 * x1) * np.exp(-x2 * x2)

    orders = []
    psi_order = dunkl_rank1._psi_order

    def record(*args):
        got = psi_order(*args)
        orders.append(got[0])
        return got

    monkeypatch.setattr(dunkl_rank1, "_psi_order", record)
    kappa, z = (0.3, 0.7), (0.6, -0.4)
    scattered = np.random.default_rng(11).uniform(-3.0, 3.0, (2, 400))
    for X in (_mesh(2, 24), scattered):
        orders.clear()
        got = _translated(body, kappa, z)(*X)
        assert len(orders) == 1 and orders[0][0] > orders[0][1]
        want = _translated(body, kappa, z, order=64)(*X)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_ledger_translation_field_values_stay_low():
    # the opaque ledger Gaussian on the 96^2 grid: 3138816 field values with
    # one order for all axes, 1107456 at the per-axis orders (12, 8), and
    # 1051776 once the final pass skips the 145 probed keys
    sizes = []
    sig, ms = Signature(0, 2), MultiplicitySplit(LEDGER_DEFAULTS["kappa"], 1)
    gauss = _gaussian_field(sig, ms, LEDGER_DEFAULTS["delta"]).blades[0]

    def body(x1, x2):
        sizes.append(np.broadcast(x1, x2).size)
        return gauss(x1, x2)

    grid = build_grid(ms, LEDGER_DEFAULTS["L_x"], panels=1, order=LEDGER_DEFAULTS["order"])
    translate_explicit(AnalyticField(sig, ms, {0: body}), LEDGER_DEFAULTS["z"], ms).sample(grid)
    assert sum(sizes) <= 1_051_776


def test_admission_prices_mixed_orders_per_axis(monkeypatch):
    # 300 points x (2 x 12) x 1 x (2 x 24): the shift axis counts one branch
    kappa, orders = (0.3, 0.0, 0.7), (12, 8, 24)
    monkeypatch.setattr(dunkl_rank1, "_EXPLICIT_CAP", 300 * 24 * 48)
    dunkl_rank1._admit(300, kappa, orders)
    monkeypatch.setattr(dunkl_rank1, "_EXPLICIT_CAP", 300 * 24 * 48 - 1)
    with pytest.raises(NodeCountExceeded, match=r"^explicit translation of 300 points at psi orders "
                                                r"\(12, 8, 24\) costs 345600 field values"):
        dunkl_rank1._admit(300, kappa, orders)


# -- one field evaluation per mirrored point class ------------------------------


@pytest.mark.parametrize("kappa", [1e-3, 0.3, 0.7, 5.0, 200.0])
@pytest.mark.parametrize("order", [1, 2, 7, 8, 16, 33, 64])
def test_psi_nodes_are_exactly_antisymmetric(kappa, order):
    t, w = psi_rule(kappa, order)
    assert np.array_equal(t, -t[::-1])
    assert np.all(np.diff(t) > 0.0) and np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-13  # psi has mass 1


def test_mirrored_coordinates_get_bit_identical_arguments():
    x = np.concatenate((np.random.default_rng(2).uniform(-5.0, 5.0, 200), [0.0, -0.0, 1e-300, 300.0]))
    rule = psi_rule(0.7, 16)
    for zj in (0.6, -0.4, 0.0):
        plus, minus = _branch_table(x, zj, rule), _branch_table(-x, zj, rule)
        assert plus[0].tobytes() == minus[0].tobytes()
        assert not np.array_equal(plus[1], minus[1])


@pytest.mark.parametrize("kappa,order", [
    ((0.4,), 48), ((0.3, 0.7), 8), ((0.0, 0.7), 8), ((0.0, 0.0), 8), ((0.3, 0.0, 0.7), 4),
])
def test_a_point_is_bit_identical_whichever_points_share_the_call(kappa, order):
    # each set holds the base points, in a shuffled order: alone, among
    # strangers, among their mirror partners (some coordinates negated) and
    # duplicates, and across more than one chunk of keys
    d = len(kappa)
    rng = np.random.default_rng(7 * d)
    z = (0.6, -0.4, 0.5)[:d]
    base = np.concatenate((rng.uniform(-3.0, 3.0, (40, d)), np.zeros((1, d)), -np.zeros((1, d))))
    mirrors = base * rng.choice([-1.0, 1.0], base.shape)
    strangers = rng.uniform(-3.0, 3.0, (3000 if d < 3 else 600, d))
    alone = _translated(_body, kappa, z, order)(*base.T)
    for extra in (strangers, mirrors, np.concatenate((mirrors, base, strangers, -strangers))):
        pts = np.concatenate((base, extra))
        perm = rng.permutation(len(pts))
        got = np.empty(len(pts))
        got[perm] = _translated(_body, kappa, z, order)(*pts[perm].T)
        assert np.array_equal(got[:len(base)], alone)


def test_explicit_sample_memory_stays_within_fourteen_chunks():
    # the 96^2 sample the ledger takes, adaptive order, output included:
    # every chunk's tables and field temporaries are bounded by
    # _EXPLICIT_CHUNK values, however the keys fall
    ms = MultiplicitySplit(LEDGER_DEFAULTS["kappa"], 1)
    sig = Signature(0, 2)
    grid = build_grid(ms, LEDGER_DEFAULTS["L_x"], panels=1, order=LEDGER_DEFAULTS["order"])
    shifted = translate_explicit(_gaussian_field(sig, ms, LEDGER_DEFAULTS["delta"]), LEDGER_DEFAULTS["z"], ms)
    shifted.sample(grid)  # warm the rule caches
    tracemalloc.start()
    try:
        shifted.sample(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * _EXPLICIT_CHUNK * 8


def test_explicit_translation_is_admitted_by_its_field_values(monkeypatch):
    # cost = points x prod_j (2 order on a Roesler axis, 1 on a shift axis);
    # cos(60 x) never settles, so the probe climbs: with a cap that admits
    # the final pass at order 8 only, the pass at order 16 (which could
    # return 12) is refused before it runs
    x = np.linspace(-8.0, 8.0, 300)
    widths = []

    def body(x1):
        widths.append(np.shape(x1)[-1])
        return np.cos(60.0 * x1)

    ms = MultiplicitySplit((0.5,), 0)
    f = translate_explicit(AnalyticField(Signature(0, 1), ms, {0: body}), (2.0,), ms)
    monkeypatch.setattr(dunkl_rank1, "_EXPLICIT_CAP", 300 * 16)
    with pytest.raises(NodeCountExceeded, match=r"^explicit translation of 300 points at psi order 12 "
                                                r"costs 7200 field values, over the cap 4800; "
                                                r"use --method spectral$"):
        f.blades[0](x)
    assert widths and max(widths) == 2 * 12
    # the lowest order already over the cap: refused before any field call
    widths.clear()
    monkeypatch.setattr(dunkl_rank1, "_EXPLICIT_CAP", 300 * 16 - 1)
    with pytest.raises(NodeCountExceeded, match="at psi order 8 "):
        f.blades[0](x)
    assert widths == []
    # a shift axis counts one branch: 300 points x 1 x 16 at order 8
    ms = MultiplicitySplit((0.0, 0.5), 1)
    g = translate_explicit(AnalyticField(Signature(0, 2), ms, {0: lambda x1, x2: x1 + x2}), (0.3, 0.4), ms)
    monkeypatch.setattr(dunkl_rank1, "_EXPLICIT_CAP", 300 * 16 - 1)
    with pytest.raises(NodeCountExceeded, match="of 300 points at psi order 8 costs 4800 "):
        g.blades[0](x, x)
    monkeypatch.setattr(dunkl_rank1, "_EXPLICIT_CAP", 300 * 16)
    assert np.allclose(g.blades[0](x, x), 2.0 * x - 0.7, rtol=0.0, atol=1e-12)


# -- one grouping per call -------------------------------------------------------


def test_each_blade_call_groups_its_points_once(monkeypatch):
    calls = []
    group = dunkl_rank1._mirror_classes
    monkeypatch.setattr(dunkl_rank1, "_mirror_classes", lambda *args: calls.append(1) or group(*args))
    # the 96^2 ledger grid, a field of two blades: one grouping per blade
    sig, ms = Signature(0, 2), MultiplicitySplit(LEDGER_DEFAULTS["kappa"], 1)
    grid = build_grid(ms, LEDGER_DEFAULTS["L_x"], panels=1, order=LEDGER_DEFAULTS["order"])
    f = AnalyticField(sig, ms, {0: _body, 3: _wavy})
    translate_explicit(f, LEDGER_DEFAULTS["z"], ms).sample(grid)
    assert len(calls) == 2
    # scattered points, d = 3
    calls.clear()
    X = np.random.default_rng(3).uniform(-3.0, 3.0, (3, 800))
    _translated(_body, (0.3, 0.5, 0.7), (0.5, -0.3, 0.2))(*X)
    assert len(calls) == 1
    # refused at the lowest order: before any grouping
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(dunkl_rank1, "_EXPLICIT_CAP", 800 * 16**3 - 1)
        with pytest.raises(NodeCountExceeded, match="at psi order 8 "):
            _translated(_body, (0.3, 0.5, 0.7), (0.5, -0.3, 0.2))(*X)
    assert calls == []
    # a probe that climbs to order 64: seven probe passes and the final one
    calls.clear()
    orders = []
    explicit_pass = dunkl_rank1._explicit_pass

    def recorded(fn, pts, z, rules, classes):
        orders.append(len(rules[0][0]))
        return explicit_pass(fn, pts, z, rules, classes)

    monkeypatch.setattr(dunkl_rank1, "_explicit_pass", recorded)
    _translated(lambda x: np.cos(60.0 * x), (0.5,), (2.0,))(np.linspace(-8.0, 8.0, 300))
    assert orders == [8, 12, 16, 24, 32, 48, 64, 64] and len(calls) == 1


@pytest.mark.parametrize("kappa", [(0.3, 0.7), (0.0, 0.7), (0.0, 0.0)])
def test_blades_are_roesler_translate_bit_for_bit(kappa):
    sig, ms = Signature(0, 2), MultiplicitySplit(kappa, 1)
    f = AnalyticField(sig, ms, {0: _body, 3: _wavy})
    z = (0.6, -0.4)
    X = (np.linspace(-3.0, 3.0, 40)[:, None], np.random.default_rng(4).uniform(-3.0, 3.0, 25)[None, :])
    g = translate_explicit(f, z, ms)
    for m in f.blades:
        want = dunkl_rank1.roesler_translate(f.blades[m], X, np.array(z), ms.kappa)
        assert np.array_equal(g.blades[m](*X), want)
