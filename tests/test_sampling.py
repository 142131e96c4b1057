"""Field sampling on open coordinates and the plan's value cap.

`AnalyticField.sample` hands every blade body open coordinate arrays
(x_j of shape (1, ..., n_j, ..., 1)) and broadcasts the result into the
blade's slot.  Elementwise bodies must give exactly the values they give
on the dense meshgrid (`oracles.sample_dense`), bit for bit.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdunkl import cdt_engine, dunkl_rank1, quadrature
from cliffdunkl.cdt_engine import AnalyticField, build_plan, translate_explicit
from cliffdunkl.clifford_core import MultiVector, Signature, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit
from cliffdunkl.field_expr import compile_expr
from cliffdunkl.quadrature import NODE_CAP, NodeCountExceeded, build_grid

from oracles import sample_dense

ORDER_BY_D = {1: 8, 2: 6, 3: 4, 4: 3}  # 16, 144, 512 and 1296 nodes


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _quadratic_gaussian(rng, d):
    """A seeded quadratic polynomial times exp(-s |x|^2)."""
    c = rng.uniform(-1.0, 1.0, 1 + d + d * d)
    s = rng.uniform(0.3, 1.2)

    def body(*X):
        poly = c[0] + sum(c[1 + j] * X[j] for j in range(d))
        poly = poly + sum(c[1 + d + d * j + k] * X[j] * X[k]
                          for j in range(d) for k in range(j, d))
        return poly * np.exp(-s * sum(x * x for x in X))

    return body


def _sig_ms(d, kappa=(0.3, 0.7, 0.5, 0.2)):
    return Signature(0, d), MultiplicitySplit(kappa[:d], d // 2)


def _setup(d, kappa=(0.3, 0.7, 0.5, 0.2), L=3.0, panels=1, order=None):
    sig, ms = _sig_ms(d, kappa)
    return sig, ms, build_grid(ms, L, panels=panels, order=order or ORDER_BY_D[d])


def _bodies(d, rng):
    names = [f"x{j + 1}" for j in range(d)]
    gauss = f"exp(-({'+'.join(n + '^2' for n in names)}))"
    return [
        _quadratic_gaussian(rng, d),
        lambda *X: X[-1] ** 3 - 2.0 * X[-1],  # one coordinate only
        lambda *X: 2.5,  # a Python scalar
        lambda *X: np.ones_like(X[0]),
        compile_expr(f"(1+{names[0]}*{names[-1]})*{gauss}", d),
        compile_expr(f"{names[-1]}^2-0.5", d),
    ]


def test_bodies_receive_open_coordinates():
    sig, ms, grid = _setup(3, order=2)  # 4 nodes per axis
    seen = []
    f = AnalyticField(sig, ms, {0: lambda *X: seen.append([x.shape for x in X]) or 1.0})
    assert np.all(f.sample(grid)[..., 0] == 1.0)
    assert seen == [[(4, 1, 1), (1, 4, 1), (1, 1, 4)]]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sample_is_bit_identical_to_dense_coordinates(d):
    sig, ms, grid = _setup(d)
    rng = np.random.default_rng(d)
    for body in _bodies(d, rng):
        f = AnalyticField(sig, ms, {(1 << d) - 1: body})
        _assert_bit_identical(f.sample(grid), sample_dense(f, grid))


@pytest.mark.parametrize("d,order", [(1, 4), (2, 3), (3, 2)])
def test_explicit_translation_samples_identically_at_the_same_order(d, order, monkeypatch):
    # the translated callables flatten what they are given, so open and
    # dense coordinates reach the psi probe as the same points
    sig, ms, grid = _setup(d, order=order)
    rng = np.random.default_rng(10 + d)
    f = AnalyticField(sig, ms, {0: _quadratic_gaussian(rng, d),
                                (1 << d) - 1: compile_expr("exp(-2*x1^2)", d)})
    z = rng.uniform(-0.8, 0.8, d)
    tf = translate_explicit(f, z, ms)
    orders = []
    psi_order = dunkl_rank1._psi_order

    def record(*args):
        got = psi_order(*args)
        orders.append(got[0])
        return got

    monkeypatch.setattr(dunkl_rank1, "_psi_order", record)
    got = tf.sample(grid)
    n_open = len(orders)
    want = sample_dense(tf, grid)
    assert orders[:n_open] == orders[n_open:] and n_open == 2
    _assert_bit_identical(got, want)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    kappa=st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3),
    L=st.floats(0.5, 8.0),
    order=st.integers(1, 6),
    panels=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sample_matches_dense_coordinates_property(d, kappa, L, order, panels, seed, data):
    sig, ms, grid = _setup(d, kappa=kappa, L=L, panels=panels, order=order)
    masks = data.draw(st.sets(st.integers(0, sig.n_blades - 1), min_size=1))
    rng = np.random.default_rng(seed)
    f = AnalyticField(sig, ms, {m: _quadratic_gaussian(rng, d) for m in masks})
    got = f.sample(grid)
    _assert_bit_identical(got, sample_dense(f, grid))
    missing = [m for m in range(sig.n_blades) if m not in masks]
    assert not np.any(got[..., missing])


def test_a_body_that_needs_dense_coordinates_names_its_blade_and_shapes():
    sig, ms, grid = _setup(2, order=3)  # 6 nodes per axis
    f = AnalyticField(sig, ms, {"e12": lambda *X: np.stack(X).sum(0)})
    with pytest.raises(ValueError) as info:
        f.sample(grid)
    msg = str(info.value)
    assert msg.startswith("blade e12 body does not broadcast")
    assert "((6, 1), (1, 6))" in msg and "the grid (6, 6)" in msg


def test_a_result_that_does_not_broadcast_names_its_blade_and_shapes():
    sig, ms, grid = _setup(2, order=3)
    f = AnalyticField(sig, ms, {0: lambda x1, x2: np.zeros(5)})
    with pytest.raises(ValueError, match=r"blade 1 body .* the grid \(6, 6\): .*\(5,\)"):
        f.sample(grid)


def test_non_finite_bodies_are_still_refused():
    sig, ms, grid = _setup(2, order=3)
    f = AnalyticField(sig, ms, {"e1": lambda x1, x2: np.log(x1)})
    with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
        f.sample(grid)


@pytest.mark.parametrize("parallel_min", [cdt_engine._PARALLEL_MIN, 1])
def test_a_body_error_wins_over_a_non_finite_plane(parallel_min, monkeypatch):
    # each plane is checked as its body writes it, and the check speaks
    # only after every body ran: a later blade's own error comes first
    monkeypatch.setattr(cdt_engine, "_PARALLEL_MIN", parallel_min)
    monkeypatch.setattr(cdt_engine, "_usable_cpus", lambda: 2)
    sig, ms, grid = _setup(2, order=3)
    bodies = {0: lambda x1, x2: np.full_like(x1 * x2, np.nan), 1: lambda x1, x2: x1 * x2,
              "e12": lambda x1, x2: np.exp(1j * x1)}
    with pytest.raises(ValueError, match="^blade e12 body returned complex128 values"):
        AnalyticField(sig, ms, bodies).sample(grid)
    bodies["e12"] = lambda x1, x2: np.where(x1 > 0, np.inf, 1.0) + 0.0 * x2
    with pytest.raises(ValueError, match="^field evaluated to a non-finite value on the grid$"):
        AnalyticField(sig, ms, bodies).sample(grid)
    # the plane is checked as stored: 1e318 is a finite long double but not a finite float
    huge = AnalyticField(sig, ms, {"e12": lambda x1, x2: np.longdouble(1e308) * 1e10 + 0.0 * x1 * x2})
    with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
        huge.sample(grid)


def _units(sig):
    return tuple(validate_imaginary(MultiVector.blade(sig, e), e) for e in ("e1", "e2"))


def test_plan_refuses_more_values_than_the_cap_before_tabulating(monkeypatch):
    # Cl(0,4) at order 24: 48^4 nodes are under the node cap, times 16
    # blades they are five times over it
    sig, ms = _sig_ms(4)

    def no_tabulation(*args):
        raise AssertionError("kernel tabulated before the value cap")

    monkeypatch.setattr(cdt_engine, "eval_kernel_ab", no_tabulation)
    with pytest.raises(NodeCountExceeded,
                       match=f"5308416 nodes x 16 blades = 84934656 values exceeds cap {NODE_CAP}"):
        build_plan(sig, ms, *_units(sig), L_x=3.0, order=24)


def test_value_cap_boundary(monkeypatch, sig02, ms_std, unit_a, unit_b):
    n_values = 6 * 6 * 4  # order 3, one panel: 6 nodes per axis, 4 blades
    monkeypatch.setattr(quadrature, "NODE_CAP", n_values)
    build_plan(sig02, ms_std, unit_a, unit_b, L_x=3.0, order=3)
    monkeypatch.setattr(quadrature, "NODE_CAP", n_values - 1)
    with pytest.raises(NodeCountExceeded, match=f"= {n_values} values"):
        build_plan(sig02, ms_std, unit_a, unit_b, L_x=3.0, order=3)


def test_oversized_grids_are_refused_before_any_eigen_solve(monkeypatch, sig02, ms_std,
                                                            unit_a, unit_b):
    def no_solve(*args):
        raise AssertionError("Golub-Welsch solve before the cap")

    monkeypatch.setattr(quadrature, "gauss_from_recurrence", no_solve)
    # 3000^2 nodes pass the node cap; times 4 blades they do not
    with pytest.raises(NodeCountExceeded,
                       match=f"9000000 nodes x 4 blades = 36000000 values exceeds cap {NODE_CAP}"):
        build_plan(sig02, ms_std, unit_a, unit_b, L_x=3.0, order=1500)
    with pytest.raises(NodeCountExceeded,
                       match=f"36000000 nodes x 4 blades = 144000000 values exceeds cap {NODE_CAP}"):
        build_grid(ms_std, 3.0, panels=2, order=1500)
    for panels, order in ((0, 1500), (-5, 1500), (1, 0)):
        with pytest.raises(ValueError, match="panels >= 1, order >= 1"):
            build_grid(ms_std, 3.0, panels=panels, order=order)


def test_plan_refuses_kernel_quadrants_beyond_the_cap_before_any_grid(monkeypatch):
    # Cl(0,1) at order 4097: 8194 nodes x 2 blades pass the value cap, but a
    # kernel quadrant would hold 4097^2 > 2^24 values (134 MB per matrix);
    # `build_grid` refuses the axis before it builds one
    def no_work(*args):
        raise AssertionError("grid or kernel built before the kernel cap")

    monkeypatch.setattr(quadrature, "build_axis", no_work)
    monkeypatch.setattr(cdt_engine, "eval_kernel_ab", no_work)
    sig, ms = Signature(0, 1), MultiplicitySplit((0.5,), 0)
    unit = validate_imaginary(MultiVector.blade(sig, "e1"), "e1")
    for panels, order in ((1, 4097), (2, 2049)):
        half = panels * order
        message = f"{half} x {half} values per axis, (panels x order)^2, exceeds cap {NODE_CAP}"
        with pytest.raises(NodeCountExceeded, match=re.escape(message)):
            build_plan(sig, ms, unit, unit, L_x=3.0, panels=panels, order=order)


def test_kernel_cap_boundary(monkeypatch):
    # Cl(0,1), order 5, one panel: 5 positive nodes per axis on either side,
    # so 25 kernel values per axis against 10 nodes x 2 blades = 20 values
    sig, ms = Signature(0, 1), MultiplicitySplit((0.5,), 0)
    unit = validate_imaginary(MultiVector.blade(sig, "e1"), "e1")
    monkeypatch.setattr(quadrature, "NODE_CAP", 5 * 5)
    build_plan(sig, ms, unit, unit, L_x=3.0, L_y=4.0, order=5)
    monkeypatch.setattr(quadrature, "NODE_CAP", 5 * 5 - 1)
    message = "5 x 5 values per axis, (panels x order)^2, exceeds cap 24"
    with pytest.raises(NodeCountExceeded, match=re.escape(message)):
        build_plan(sig, ms, unit, unit, L_x=3.0, L_y=4.0, order=5)


@pytest.mark.parametrize("d,order,Lx,Ly", [(2, 48, 8.0, 8.0), (3, 32, 6.0, 10.0), (4, 12, 5.0, 5.0)])
def test_benchmark_grids_stay_under_the_value_cap(d, order, Lx, Ly):
    sig, ms = _sig_ms(d)
    plan = build_plan(sig, ms, *_units(sig), L_x=Lx, L_y=Ly, order=order)
    assert plan.grid_x.n_nodes * sig.n_blades <= NODE_CAP


@pytest.mark.parametrize("parallel_min", [cdt_engine._PARALLEL_MIN, 1])
@pytest.mark.parametrize("body,dtype", [
    (lambda x1, x2: np.exp(1j * x1 - x1**2 - x2**2), "complex128"),
    (lambda x1, x2: np.full(np.broadcast_shapes(x1.shape, x2.shape), "a"), "<U1"),
    (lambda x1, x2: np.array([[None]], dtype=object), "object"),
], ids=["complex", "str", "object"])
def test_a_body_that_is_not_real_names_its_blade_and_dtype(body, dtype, parallel_min,
                                                           monkeypatch):
    # a complex result used to lose its imaginary part with only a warning
    monkeypatch.setattr(cdt_engine, "_PARALLEL_MIN", parallel_min)
    monkeypatch.setattr(cdt_engine, "_usable_cpus", lambda: 2)
    sig, ms, grid = _setup(2, order=3)
    f = AnalyticField(sig, ms, {0: lambda x1, x2: x1 * x2, "e12": body})
    with pytest.raises(ValueError, match=f"^blade e12 body returned {dtype} values"):
        f.sample(grid)
