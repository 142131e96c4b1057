"""Explicit translation of product-form fields one axis at a time: which
expressions `compile_expr` splits into sums of products of one-coordinate
factors, the per-axis path of `translate_explicit` against fixed-order
per-point translation, its fall back to the per-point pass, and the
ledger's half kernel-bound sweep."""

import math

import numpy as np
import pytest

from cliffdunkl import cdt_engine, dunkl_rank1
from cliffdunkl.cdt_engine import AnalyticField, run_claims_ledger, translate_explicit
from cliffdunkl.clifford_core import Signature
from cliffdunkl.dunkl_rank1 import MultiplicitySplit, eval_kernel_ab, kernel_coefficients, roesler_translate
from cliffdunkl.field_expr import NonFiniteResult, compile_expr
from cliffdunkl.quadrature import build_grid

from oracles import translate_at_order


def _summed(split, X):
    return sum(c * math.prod(f(x) for f, x in zip(fs, X) if f is not None) for c, fs in split)


def _counted(text, d):
    """The compiled body of `text`, with its split, counting its own calls."""
    body, calls = compile_expr(text, d), []

    def counted(*X):
        calls.append(1)
        return body(*X)

    counted.split = body.split
    return counted, calls


def _opaque(fn):
    """fn without its split: `roesler_translate` of it is the per-point pass."""
    return lambda *X: fn(*X)


def _gauss(d):
    return "exp(-(" + "+".join(f"x{j}^2" for j in range(1, d + 1)) + "))"


def _field(body, kappa):
    d = len(kappa)
    ms = MultiplicitySplit(kappa, d // 2)
    return AnalyticField(Signature(0, d), ms, {0: body}), ms


# -- the split ----------------------------------------------------------------


@pytest.mark.parametrize("text,d,terms", [
    ("exp(-(x1^2+x2^2))", 2, 1),
    ("-1.3*exp(-0.7*(x1^2+x2^2))", 2, 1),
    ("x1*exp(-(x1^2+x2^2))", 2, 1),
    ("(1+x1*x2-0.5*x1^2)*exp(-(x1^2+2*x2^2+x3^2))", 3, 3),
    ("x1/(1+x2^2)*exp(1-x1^2-x2^2)", 2, 1),
    ("(x1*x2)^3/(2*x1^2+1)", 2, 1),
    ("x1+x2-3", 2, 3),
    ("x2*x3", 3, 1),
])
def test_product_forms_split_and_sum_back_to_the_body(text, d, terms):
    body = compile_expr(text, d)
    X = np.random.default_rng(d).uniform(-2.0, 2.0, (d, 50))
    assert len(body.split) == terms and all(len(fs) == d for _, fs in body.split)
    want = body(*X)
    assert np.max(np.abs(_summed(body.split, X) - want)) <= 4e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("text", [
    "exp(x1*x2)",  # exp of a term that couples two coordinates
    "exp(-(x1+x2)^2)",  # a sum under a power
    "(x1+x2)^2",
    "x1/(x1+x2)",  # a sum under a quotient
    "exp(x1^2+x2^2-800)",  # exp(-800) is no normal float
    "(x1+x2+x1*x2)*(x1+x2+x1*x2)*(x1+x2+x1*x2)*(x1+x2+x1*x2)",  # 81 terms
])
def test_coupled_expressions_do_not_split(text):
    body = compile_expr(text, 2)
    assert body.split is None and body.expr_text == text


def test_a_factor_that_terms_share_is_one_callable():
    (_, first), _, (_, third) = compile_expr("(1+x1*x2-0.5*x2^2)*exp(-(x1^2+x2^2))", 2).split
    assert first[0] is third[0] and first[1] is not third[1]


def test_reading_the_split_of_a_long_chain_raises_no_recursion_error():
    # hashing a 900-deep node recurses past the interpreter's limit; a
    # chain too deep for the evaluator itself has no split
    assert compile_expr("+".join(["x1"] * 900), 2).split is not None
    assert compile_expr("*".join(["x1"] * 900) + "*x2", 2).split is not None
    assert compile_expr("+".join(["x1*x2"] * 5000), 2).split is None


# -- the per-axis path ----------------------------------------------------------


@pytest.mark.parametrize("kappa", [(0.0, 0.7), (0.4, 0.7), (0.3, 0.0, 0.7)])
def test_per_axis_path_matches_order_64(kappa):
    d = len(kappa)
    gauss = _gauss(d)
    z = (0.6, -0.4, 0.5)[:d]
    rng = np.random.default_rng(11 * d)
    ms = MultiplicitySplit(kappa, d // 2)
    grid = build_grid(ms, 6.0, panels=1, order=48 if d == 2 else 4).coords()
    scattered = tuple(rng.uniform(-5.0, 5.0, 400 if d == 2 else 30) for _ in range(d))
    for text in (gauss, f"x1*{gauss}", f"(1+x1*x2-0.5*x{d}^2+x2)*{gauss}"):
        body, calls = _counted(text, d)
        f, _ = _field(body, kappa)
        for X in (grid, scattered):
            got = translate_explicit(f, z, ms).blades[0](*X)
            want = translate_at_order(f, z, ms, 64).blades[0](*X)
            assert got.shape == want.shape == np.broadcast_shapes(*(x.shape for x in X))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), text
            calls.clear()  # the oracle's own calls


def test_the_d_dimensional_body_is_never_evaluated():
    body, calls = _counted("(1+x1*x2)*exp(-(x1^2+x2^2+x3^2))", 3)
    f, ms = _field(body, (0.3, 0.5, 0.7))
    grid = build_grid(ms, 6.0, panels=1, order=48)  # 96^3 nodes, refused per point
    got = translate_explicit(f, (0.6, -0.4, 0.2), ms).sample(grid)
    assert calls == [] and np.isfinite(got).all() and got[..., 1:].max() == 0.0


def test_a_point_does_not_depend_on_the_points_that_share_its_call(monkeypatch):
    body, calls = _counted("(1+x1*x2-0.5*x2^2)*exp(-(x1^2+x2^2))", 2)
    f, ms = _field(body, (0.3, 0.7))
    blade = translate_explicit(f, (0.6, -0.4), ms).blades[0]
    rng = np.random.default_rng(3)
    base = rng.uniform(-4.0, 4.0, (2, 30))
    strangers = rng.uniform(-6.0, 6.0, (2, 500))
    mirrors = base * rng.choice([-1.0, 1.0], base.shape)

    def shares():
        alone = blade(*base)
        for extra in (strangers, mirrors, np.concatenate((strangers, mirrors, base), axis=1)):
            yield alone, blade(*np.concatenate((base, extra), axis=1))[:base.shape[1]]

    for alone, shared in shares():  # the psi order of each factor may differ
        assert np.max(np.abs(shared - alone)) <= 1e-14 * np.max(np.abs(alone))
    monkeypatch.setattr(dunkl_rank1, "_PSI_ORDERS", (16, 16))  # every call at order 16
    for alone, shared in shares():
        assert np.array_equal(shared, alone)
    assert calls == []


def test_exact_shifts_translate_per_axis_to_the_shifted_body():
    body, calls = _counted("x1*exp(-(x1^2+x2^2))", 2)
    f, ms = _field(body, (0.0, 0.0))
    blade = translate_explicit(f, (0.6, -0.4), ms).blades[0]
    x = np.linspace(-3.0, 3.0, 20)
    for X in ((x, x[::-1]), (x[:, None], x[None, :])):  # scattered points, an open grid
        want = body(X[0] - 0.6, X[1] + 0.4)
        calls.clear()
        got = blade(*X)
        assert calls == [] and got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("text,kappa", [("exp(-(x1+x2)^2)", (0.3, 0.7)), ("exp(-x1^2)", (0.4,))])
def test_unsplit_fields_and_d1_keep_the_per_point_pass(text, kappa):
    d = len(kappa)
    f, ms = _field(compile_expr(text, d), kappa)
    X = tuple(np.random.default_rng(5).uniform(-3.0, 3.0, (d, 200)))
    z = np.array((0.6, -0.4)[:d])
    want = roesler_translate(_opaque(f.blades[0]), X, z, ms.kappa)
    assert np.array_equal(translate_explicit(f, z, ms).blades[0](*X), want)


def test_a_factor_that_overflows_falls_back_to_the_per_point_pass():
    # exp(x1^2) leaves the float range from |x1| = 26.7 on, but
    # exp(x1^2 - x2^2) stays within e^60 near x1 = x2 = 27
    body, calls = _counted("exp(x1^2-x2^2)", 2)
    f, ms = _field(body, (0.5, 0.5))
    X = (np.linspace(26.8, 27.2, 5), np.linspace(26.9, 27.1, 5))
    z = np.array((0.6, -0.4))
    got = translate_explicit(f, z, ms).blades[0](*X)
    assert calls and np.isfinite(got).all()
    assert np.array_equal(got, roesler_translate(_opaque(body), X, z, ms.kappa))
    # where the per-point pass overflows too, it raises what that pass raises
    f, ms = _field(compile_expr("exp(x1^2)*exp(-x2^2)", 2), (0.5, 0.5))
    X = (np.array([30.0]), np.array([1.0]))
    with pytest.raises(NonFiniteResult):
        roesler_translate(_opaque(f.blades[0]), X, z, ms.kappa)
    with pytest.raises(NonFiniteResult):
        translate_explicit(f, z, ms).blades[0](*X)


# -- the ledger's kernel-bound sweep ----------------------------------------------


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.7, 5.0])
def test_kernel_is_even_and_odd_in_t_bit_for_bit(kappa):
    table = kernel_coefficients(kappa, t_max=64.0)
    t = np.linspace(0.0, 60.0, 2001)
    A, B = eval_kernel_ab(table, t)
    Am, Bm = eval_kernel_ab(table, -t)
    assert np.array_equal(Am, A) and np.array_equal(Bm, -B)


def test_kernel_bound_claims_sweep_half_the_points_and_stay_exactly_one(monkeypatch):
    sizes = []

    def recorded(table, t):
        sizes.append(np.size(t))
        return eval_kernel_ab(table, t)

    monkeypatch.setattr(cdt_engine, "eval_kernel_ab", recorded)
    reports = {r.claim: r for r in run_claims_ledger()}
    assert sizes[-2:] == [2001, 2001]
    assert [reports[f"kernel-bound-x{j}"].measured_value for j in (1, 2)] == [1.0, 1.0]
