import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from cliffdunkl import quadrature
from cliffdunkl.cdt_engine import SampledField
from cliffdunkl.cli import main
from cliffdunkl.clifford_core import Signature
from cliffdunkl.dunkl_rank1 import MultiplicitySplit
from cliffdunkl.field_io import save_field
from cliffdunkl.quadrature import (
    NODE_CAP,
    NodeCountExceeded,
    TensorGrid,
    build_grid,
    gauss_from_recurrence,
    build_axis,
    jacobi_recurrence,
    jacobi_rule,
    parse_grid_spec,
    power_rule,
)

from oracles import grid_nodes, integrate, weight


def _ms1(kappa):
    return MultiplicitySplit((kappa,), 0)


def test_gaussian_calibration_k0():
    grid = build_grid(_ms1(0.0), 8.0, panels=8, order=16)
    val = integrate(np.exp(-grid_nodes(grid)[:, 0] ** 2 / 2.0), grid)
    assert abs(val - math.sqrt(2.0 * math.pi)) < 1e-10


def test_gaussian_calibration_k_half():
    grid = build_grid(_ms1(0.5), 8.0, panels=8, order=16)
    val = integrate(np.exp(-grid_nodes(grid)[:, 0] ** 2 / 2.0), grid)
    assert abs(val - 2.0) < 1e-10


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.7, 1.2])
def test_even_moments_closed_form(kappa):
    L = 2.0
    grid = build_grid(_ms1(kappa), L, panels=2, order=24)
    x = grid_nodes(grid)[:, 0]
    for m in range(7):
        got = integrate(x ** (2 * m), grid)
        power = 2 * m + 2 * kappa + 1
        want = 2.0 * L**power / power
        assert abs(got - want) < 1e-12 * want


def test_odd_moments_vanish():
    grid = build_grid(_ms1(0.7), 3.0, panels=3, order=16)
    x = grid_nodes(grid)[:, 0]
    for m in (1, 3, 5):
        assert abs(integrate(x**m, grid)) < 1e-14 * integrate(np.abs(x) ** m, grid)


def test_refinement_converges():
    # doubling the order gains >= 10x until the 1e-12 floor
    target = math.sqrt(2.0 * math.pi)
    errors = []
    for order in (4, 8, 16, 32):
        grid = build_grid(_ms1(0.0), 8.0, panels=2, order=order)
        val = integrate(np.exp(-grid_nodes(grid)[:, 0] ** 2 / 2.0), grid)
        errors.append(abs(val - target))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine < coarse / 10.0 or fine < 1e-12


def test_grid_determinism():
    a = build_grid(MultiplicitySplit((0.3, 0.7), 1), 6.0, panels=2, order=12)
    b = build_grid(MultiplicitySplit((0.3, 0.7), 1), 6.0, panels=2, order=12)
    for ax_a, ax_b in zip(a.axes, b.axes):
        assert np.array_equal(ax_a.nodes, ax_b.nodes)
        assert np.array_equal(ax_a.weights, ax_b.weights)
    assert np.array_equal(a.total_weights(), b.total_weights())


def test_positivity_and_node_placement():
    for kappa in (0.0, 0.3, 0.7):
        ax = build_axis(kappa, 5.0, panels=3, order=10)
        assert np.all(ax.weights > 0.0)
        assert np.all(np.diff(ax.nodes) > 0)
        assert np.all(np.abs(ax.nodes) < 5.0)
        if kappa > 0:
            assert np.all(ax.nodes != 0.0)
        # exact mirroring, bit for bit: the transform engine folds on it
        assert np.array_equal(ax.nodes, -ax.nodes[::-1])
        assert np.array_equal(ax.weights, ax.weights[::-1])
        assert np.array_equal(ax.wk, ax.wk[::-1])
    grid = build_grid(MultiplicitySplit((0.3, 0.7), 1), 4.0)
    assert all(np.all(ax.wk >= 0.0) for ax in grid.axes)


def test_cached_weights_match_weight_function():
    ms = MultiplicitySplit((0.3, 0.7), 1)
    grid = build_grid(ms, 4.0, panels=2, order=8)
    wk = np.multiply.outer(grid.axes[0].wk, grid.axes[1].wk).ravel()
    assert np.allclose(wk, weight(ms, grid_nodes(grid)), rtol=1e-14)


def test_node_cap():
    with pytest.raises(NodeCountExceeded):
        build_grid(MultiplicitySplit((0.0, 0.0), 1), 5.0, panels=100, order=24)


@pytest.mark.parametrize("L,panels", [(8.0, 1), (6.0, 1), (8.0, 4)])
def test_overflowing_weights_raise(L, panels):
    # |x|^(2 kappa) or the inner panel's x^(2 kappa) rule is not a float
    # any more: a named OverflowError instead of NaN weights and a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=rf"kappa = 200.0 on \(-{L}, {L}\)"):
            build_axis(200.0, L, panels, 48)


@pytest.mark.parametrize("L,panels", [(5.0, 1), (4.0, 2), (2.0, 1)])
def test_large_kappa_weights_stay_finite_up_to_L_5(L, panels):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ax = build_axis(200.0, L, panels, 48)
    w = ax.weights * ax.wk
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0) and w.max() > 0.0


def test_empty_block_grid():
    grid = build_grid(MultiplicitySplit((), 0), 8.0)
    assert grid.n_nodes == 1
    assert grid.total_weights().shape == () and grid.total_weights() == 1.0
    assert integrate(np.array([7.0]), grid) == 7.0


def test_integrate_constant_volume():
    ms = MultiplicitySplit((0.0, 0.0), 1)
    grid = build_grid(ms, 3.0, panels=2, order=12)
    vol = integrate(np.full(grid.n_nodes, 2.5), grid)
    assert abs(vol - 2.5 * 6.0**2) < 1e-10


def test_integrate_multivector_sequence_and_linearity():
    sig = Signature(0, 2)
    ms = MultiplicitySplit((0.0, 0.3), 1)
    grid = build_grid(ms, 2.0, panels=1, order=6)
    rng = np.random.default_rng(8)
    vals_f = rng.standard_normal((grid.n_nodes, sig.n_blades))
    vals_g = rng.standard_normal((grid.n_nodes, sig.n_blades))
    lin = integrate(2.0 * vals_f + 3.0 * vals_g, grid)
    assert np.allclose(lin, 2.0 * integrate(vals_f, grid) + 3.0 * integrate(vals_g, grid),
                       rtol=0, atol=1e-12 * np.max(np.abs(lin)) + 1e-15)
    with pytest.raises(ValueError):
        integrate(vals_f[:-1], grid)
    assert integrate(np.zeros(grid.n_nodes), grid) == 0.0


@pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5])
def test_jacobi_rule_mass_and_moments(kappa):
    nodes, weights = jacobi_rule(kappa - 1.0, kappa - 1.0, 20)
    assert np.allclose(nodes, -nodes[::-1], atol=1e-14)
    assert abs(np.sum(weights) - beta_fn(0.5, kappa)) < 1e-10 * beta_fn(0.5, kappa)
    assert abs(np.dot(weights, nodes)) < 1e-14
    for m in range(1, 8):
        got = np.dot(weights, nodes ** (2 * m))
        want = beta_fn(m + 0.5, kappa)
        assert abs(got - want) < 1e-12 * want


def test_legendre_rule_against_numpy():
    nodes, weights = jacobi_rule(0.0, 0.0, 24)
    ref_n, ref_w = np.polynomial.legendre.leggauss(24)
    assert np.allclose(nodes, ref_n, atol=1e-14)
    assert np.allclose(weights, ref_w, atol=1e-14)


def test_gauss_from_recurrence_degree_exactness():
    # weight (1-t)^a (1+t)^b with a = b = 0.5; t^{2m} exact for 2m <= 2n-1
    alpha, beta = jacobi_recurrence(12, 0.5, 0.5)
    nodes, weights = gauss_from_recurrence(alpha, beta, 12)
    for m in range(12):
        got = np.dot(weights, nodes ** (2 * m))
        want = beta_fn(m + 0.5, 1.5)
        assert abs(got - want) < 1e-12 * want


def test_parse_grid_spec():
    assert parse_grid_spec("-6:6:1:48", 1) == ((6.0,), 1, 48)
    assert parse_grid_spec("-6:6:1:48", 2) == ((6.0, 6.0), 1, 48)
    assert parse_grid_spec("-6:6:1:48;-9:9:1:48", 2) == ((6.0, 9.0), 1, 48)
    with pytest.raises(ValueError, match="wants 1 or 2 specs, got 3"):
        parse_grid_spec("-6:6:1:48;-6:6:1:48;-6:6:1:48", 2)
    with pytest.raises(ValueError, match="wants 1 or 3 specs, got 2"):
        parse_grid_spec("-6:6:1:48;-9:9:1:48", 3)
    for spec in ("-6:6:2:48;-9:9:1:48", "-6:6:1:48;-9:9:1:24"):
        with pytest.raises(ValueError, match="one panels and order"):
            parse_grid_spec(spec, 2)
    with pytest.raises(ValueError):
        parse_grid_spec("6:6:1:48", 1)
    with pytest.raises(ValueError):
        parse_grid_spec("-6:6:1", 1)
    with pytest.raises(ValueError):
        parse_grid_spec("-6:5:1:48", 1)
    for spec in ("-6:6:0:48", "-6:6:1:0"):
        with pytest.raises(ValueError, match=">= 1"):
            parse_grid_spec(spec, 1)
    for spec in ("-inf:inf:1:48", "inf:-inf:1:48", "-6:6:1:48;-inf:inf:1:48"):
        with pytest.raises(ValueError, match="finite"):
            parse_grid_spec(spec, 2)


# -- the rule caches ----------------------------------------------------------


def test_power_rule_returns_fresh_arrays():
    nodes, weights = power_rule(0.6, 2.0, 12)
    want = nodes.copy(), weights.copy()
    nodes[:] = 7.0
    weights *= 2.0
    again = power_rule(0.6, 2.0, 12)
    assert np.array_equal(again[0], want[0]) and np.array_equal(again[1], want[1])


@pytest.mark.parametrize("two_kappa,order", [(0.6, 12), (1.4, 48), (0.0, 5)])
def test_unit_power_rule_is_read_only_and_exact(two_kappa, order):
    nodes, weights = jacobi_rule(0.0, two_kappa, order)
    assert not nodes.flags.writeable and not weights.flags.writeable
    fresh = gauss_from_recurrence(*jacobi_recurrence(order, 0.0, two_kappa), order)
    assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])


def _clear_rule_caches():
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("cliffdunkl"):
            for value in vars(mod).values():
                if hasattr(value, "cache_info"):
                    value.cache_clear()


def test_cli_inverse_solves_each_rule_once(tmp_path, monkeypatch, capsys):
    ms = MultiplicitySplit((0.3, 0.7), 1)
    grid = build_grid(ms, 4.0, panels=1, order=8)
    values = np.zeros(grid.shape + (4,))
    values[..., 0] = np.exp(-np.add.outer(grid.axes[0].nodes**2, grid.axes[1].nodes**2))
    path = tmp_path / "F.json"
    save_field(SampledField(Signature(0, 2), ms, grid, values), path)

    solves = []
    solve = quadrature.gauss_from_recurrence

    def counted(*args):
        solves.append(args[-1])
        return solve(*args)

    _clear_rule_caches()
    monkeypatch.setattr(quadrature, "gauss_from_recurrence", counted)
    rc = main(["inverse", "--field", str(path), "--in-grid", "-4:4:1:8",
               "--out-grid", "-3:3:1:8", "--out", str(tmp_path / "f.json")])
    assert rc == 0, capsys.readouterr().err
    # two x^(2 kappa) inner panels (read back, then reused by the plan)
    # and one kernel rule per axis
    assert len(solves) <= 4
