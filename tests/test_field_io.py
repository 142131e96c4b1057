"""Expression language (parse/eval/print) and field file serialization."""

import json
import math
import random
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdunkl.cdt_engine import AnalyticField, SampledField, build_plan, forward
from cliffdunkl.field_expr import (
    Add,
    Const,
    Coord,
    DepthExceeded,
    Div,
    Exp,
    ExprSyntaxError,
    Mul,
    Neg,
    NonFiniteResult,
    Pow,
    Sub,
    UnknownCoordinate,
    compile_expr,
    eval_expr,
    parse_expr,
)
from cliffdunkl.field_io import SchemaError, _depth, load_field, save_field
from cliffdunkl.quadrature import build_grid

from conftest import gaussian_field
from oracles import eval_plain, to_string


# -- parsing ------------------------------------------------------------------


@pytest.mark.parametrize("text,xs,want", [
    ("1+2*3^2", (0.0,), 19.0),
    ("(1+2)*3", (0.0,), 9.0),
    ("2^3", (0.0,), 8.0),
    ("x1^2 - x1", (3.0,), 6.0),
    ("-x1^2", (3.0,), 9.0),       # '^' binds the signed atom: (-x1)^2
    ("-(x1^2)", (3.0,), -9.0),
    ("x1/2/2", (8.0,), 2.0),      # left associative
    ("1-2-3", (0.0,), -4.0),
    ("exp(0)", (0.0,), 1.0),
    ("x1^0", (0.0,), 1.0),        # 0^0 = 1 by the grammar's convention
    ("2*exp(-(x1^2))", (1.0,), 2.0 * np.exp(-1.0)),
    ("1.5e2", (0.0,), 150.0),
    (".5+2.", (0.0,), 2.5),
])
def test_parse_and_eval(text, xs, want):
    ast = parse_expr(text, len(xs))
    got = eval_expr(ast, xs)
    assert got == pytest.approx(want, rel=1e-15)


def test_eval_is_vectorized():
    fn = compile_expr("x1*x2 + 1", 2)
    x1 = np.array([0.0, 1.0, 2.0])
    x2 = np.array([3.0, 4.0, 5.0])
    assert np.array_equal(fn(x1, x2), np.array([1.0, 5.0, 11.0]))
    assert fn.expr_text == "x1*x2 + 1"


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("1+", 2),
    ("(x1", 3),
    ("x1)", 2),
    ("1 2", 2),
    ("x1^-2", 3),
    ("x1^2.5", 3),
    ("foo(1)", 0),
    ("1..2", 2),
    ("x", 0),
])
def test_syntax_errors_carry_the_offset(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(text, 2)
    assert exc.value.offset == offset


def test_unknown_coordinates_are_rejected():
    with pytest.raises(UnknownCoordinate):
        parse_expr("x3", 2)
    with pytest.raises(UnknownCoordinate):
        parse_expr("x0", 2)
    parse_expr("x2", 2)  # boundary is inclusive


def test_depth_cap():
    deep = "(" * 65 + "1" + ")" * 65
    with pytest.raises(DepthExceeded):
        parse_expr(deep, 1)
    negs = "-" * 65 + "1"
    with pytest.raises(DepthExceeded):
        parse_expr(negs, 1)
    parse_expr("(" * 60 + "1" + ")" * 60, 1)


def test_eval_guards_non_finite_results():
    with pytest.raises(NonFiniteResult):
        eval_expr(parse_expr("x1/x2", 2), (1.0, 0.0))
    with pytest.raises(NonFiniteResult):
        eval_expr(parse_expr("exp(x1)", 1), (1e9,))
    with pytest.raises(ValueError):
        Pow(Coord(1), -2)


def test_fuzz_parser_only_structured_errors():
    rng = random.Random(20240817)
    alphabet = "x123456789+-*/^()exp. eE"
    allowed = (ExprSyntaxError, UnknownCoordinate, DepthExceeded)
    parsed = 0
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        try:
            parse_expr(text, 3)
            parsed += 1
        except allowed:
            pass
    assert parsed > 0  # the alphabet does produce valid expressions


# -- print/parse fixpoint -----------------------------------------------------


def _expr_nodes(d):
    consts = st.floats(min_value=0.0, max_value=1e300, allow_nan=False).map(
        lambda v: Const(abs(v)))
    coords = st.integers(1, d).map(Coord)
    leaves = st.one_of(consts, coords)

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda t: Add(*t)),
            pairs.map(lambda t: Sub(*t)),
            pairs.map(lambda t: Mul(*t)),
            pairs.map(lambda t: Div(*t)),
            st.tuples(children, st.integers(0, 5)).map(lambda t: Pow(*t)),
            children.map(Exp),
            children.map(Neg),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_expr_nodes(3))
def test_print_parse_fixpoint(ast):
    text = to_string(ast)
    assert parse_expr(text, 3) == ast
    assert to_string(parse_expr(text, 3)) == text


_SHAPES = [(), (4, 1, 1), (1, 5, 1), (1, 1, 3), (4, 5, 3)]


@settings(max_examples=300, deadline=None)
@given(_expr_nodes(3), st.tuples(*[st.sampled_from(_SHAPES)] * 3), st.integers(0, 2**32 - 1))
def test_eval_matches_the_plain_operators_bit_for_bit(ast, shapes, seed):
    # eval_expr writes into its own temporaries; the values, their type and
    # shape, and the caller's arrays stay as the plain operators leave them
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(-3.0, 3.0, shape) for shape in shapes]
    copies = [x.copy() for x in xs]
    outcomes = []
    for evaluate in (eval_plain, eval_expr):
        try:
            with np.errstate(all="ignore"):  # overflow, inf - inf: refused either way
                outcomes.append(evaluate(ast, xs))
        except NonFiniteResult as exc:
            outcomes.append(str(exc))
    want, got = outcomes
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert all(np.array_equal(x, c) for x, c in zip(xs, copies))


@pytest.mark.parametrize("text,sizes", [
    ("-1.3*exp(-0.8*(x1^2+x2^2))", 1.5),
    ("(0.3 + 0.2*x1 - 0.4*x2 + 0.1*x1*x2)*exp(-0.9*(x1^2+x2^2))", 2.5),
])
def test_eval_writes_into_its_own_temporaries(text, sizes):
    # one field-sized array per branch of the tree that holds one, not one
    # per node: the plain operators peak at 2.29 and 3.29 result sizes here
    x1, x2 = np.random.default_rng(3).uniform(-2.0, 2.0, (2, 1024, 32))
    ast = parse_expr(text, 2)
    tracemalloc.start()
    try:
        got = eval_expr(ast, (x1, x2[:, :1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sizes * got.nbytes


def test_rendering_disambiguates_sign_and_power():
    assert to_string(Pow(Neg(Coord(1)), 2)) == "-x1^2"
    assert to_string(Neg(Pow(Coord(1), 2))) == "-(x1^2)"
    assert to_string(Add(Coord(1), Add(Coord(2), Coord(3)))) == "x1+(x2+x3)"
    assert to_string(Add(Add(Coord(1), Coord(2)), Coord(3))) == "x1+x2+x3"
    with pytest.raises(ValueError):
        to_string(Const(-1.0))


# -- JSON field files ---------------------------------------------------------


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return path


def _analytic_doc():
    return {
        "signature": [0, 2],
        "kappa": [0.1 + 0.2, 1.0 / 3.0],
        "split": 1,
        "blades": {
            "1": "exp(-(x1^2+x2^2))",
            "e12": "0.1*x1*exp(-(x1^2+x2^2))",
        },
    }


def test_analytic_roundtrip_is_bit_exact(tmp_path):
    path = _write(tmp_path, "f.json", _analytic_doc())
    f = load_field(path)
    assert isinstance(f, AnalyticField)
    assert f.ms.kappa == (0.1 + 0.2, 1.0 / 3.0)  # floats survive exactly
    assert f.blades[0].expr_text == "exp(-(x1^2+x2^2))"
    out = tmp_path / "g.json"
    save_field(f, out)
    assert load_field(out).ms.kappa == f.ms.kappa
    out2 = tmp_path / "h.json"
    save_field(load_field(out), out2)
    assert out.read_bytes() == out2.read_bytes()


def test_sampled_roundtrip_is_bit_exact(tmp_path, sig02, ms_std, unit_a, unit_b):
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=4.0, L_y=4.0, order=6)
    F = forward(gaussian_field(sig02, ms_std), plan)
    path = tmp_path / "F.json"
    save_field(F, path)
    back = load_field(path)
    assert isinstance(back, SampledField)
    assert np.array_equal(back.values, F.values)
    for ax1, ax2 in zip(back.grid.axes, F.grid.axes):
        assert np.array_equal(ax1.nodes, ax2.nodes)
        assert np.array_equal(ax1.weights, ax2.weights)
    path2 = tmp_path / "F2.json"
    save_field(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_sampled_roundtrip_preserves_adversarial_values(tmp_path, sig02, ms_std):
    grid = build_grid(ms_std, 2.0, panels=1, order=16)
    # random finite bit patterns: any sign, every biased exponent from the
    # subnormals (0) to the largest finite one (2046), any mantissa
    rng = np.random.default_rng(1074)
    n = grid.n_nodes * 4
    bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
            | rng.integers(0, 2047, n, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 2**52, n, dtype=np.uint64))
    values = bits.view(np.float64).reshape(grid.shape + (4,))
    specials = [1e-300, -1e300, 0.1 + 0.2, 2.0**-1074, np.pi, -0.0, 0.0,
                5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-5]
    for i, v in enumerate(specials):
        values[i % 4, i // 4, 0] = v
    f = SampledField(sig02, ms_std, grid, values)
    path = tmp_path / "adv.json"
    save_field(f, path)
    back = load_field(path).values
    assert np.array_equal(back, values)
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
    assert np.array_equal(np.signbit(back), np.signbit(values))  # -0.0 stays negative


def test_non_finite_results_are_refused_before_the_file_opens(tmp_path, sig02, ms_std,
                                                              unit_a, unit_b):
    # every sample is finite, but the transform overflows to NaN; the writer
    # used to put NaN literals in the file, which load_field then refused
    plan = build_plan(sig02, ms_std, unit_a, unit_b, L_x=6.0, L_y=6.0, order=8)
    values = np.zeros(plan.grid_x.shape + (4,))
    values[..., 0] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        F = forward(SampledField(sig02, ms_std, plan.grid_x, values), plan)
    assert not np.isfinite(F.values).all()
    path = tmp_path / "F.json"
    with pytest.raises(NonFiniteResult):
        save_field(F, path)
    assert not path.exists()


def _doc_of(field, grid=None):
    """The whole field file as one dict, for comparison with the writer."""
    doc = {
        "signature": [field.sig.p, field.sig.q],
        "kappa": list(field.ms.kappa),
        "split": field.ms.split,
    }
    if grid is None:
        doc["blades"] = {"1": field.blades[0].expr_text, "e12": field.blades[3].expr_text}
    else:
        doc["grid"] = {"L": [ax.L for ax in grid.axes], "panels": grid.axes[0].panels,
                       "order": grid.axes[0].order}
        doc["blades"] = {"1": field.values[..., 0].tolist(), "e2": field.values[..., 2].tolist()}
    return doc


def _strict_json(text):
    def refuse(literal):
        raise ValueError(f"non-strict JSON literal {literal}")

    return json.loads(text, parse_constant=refuse)


def test_files_are_one_strict_json_document(tmp_path, sig02, ms_std):
    analytic = AnalyticField(sig02, ms_std, {
        3: compile_expr("0.1*x1*exp(-(x1^2+x2^2))", 2),
        0: compile_expr("exp(-(x1^2+x2^2))", 2),
    })
    path = tmp_path / "a.json"
    save_field(analytic, path)
    assert path.read_bytes() == orjson.dumps(_doc_of(analytic)) + b"\n"
    assert _strict_json(path.read_text()) == _doc_of(analytic)

    grid = build_grid(ms_std, 2.0, panels=1, order=2)
    values = np.zeros(grid.shape + (4,))
    values[..., 0] = np.arange(16.0).reshape(grid.shape) / 3.0
    values[1, 2, 2] = -1e-300
    sampled = SampledField(sig02, ms_std, grid, values)
    path = tmp_path / "s.json"
    save_field(sampled, path)
    assert path.read_bytes() == orjson.dumps(_doc_of(sampled, grid)) + b"\n"
    assert _strict_json(path.read_text()) == _doc_of(sampled, grid)


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
def test_save_field_never_takes_the_pure_python_encoder(tmp_path, sig02, ms_std, monkeypatch):
    def pure_python(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python)
    grid = build_grid(ms_std, 2.0, panels=1, order=2)
    values = np.full(grid.shape + (4,), 0.1 + 0.2)
    path = tmp_path / "s.json"
    save_field(SampledField(sig02, ms_std, grid, values), path)
    monkeypatch.undo()
    assert np.array_equal(load_field(path).values, values)


def test_sampled_files_only_store_nonzero_blades(tmp_path, sig02, ms_std):
    grid = build_grid(ms_std, 2.0, panels=1, order=2)
    values = np.zeros(grid.shape + (4,))
    values[..., 2] = 1.0
    path = tmp_path / "s.json"
    save_field(SampledField(sig02, ms_std, grid, values), path)
    doc = json.loads(path.read_text())
    assert list(doc["blades"]) == ["e2"]
    zero = tmp_path / "z.json"
    save_field(SampledField(sig02, ms_std, grid, np.zeros(grid.shape + (4,))), zero)
    assert list(json.loads(zero.read_text())["blades"]) == ["1"]


def test_opaque_callables_do_not_serialize(tmp_path, sig02, ms_std):
    f = gaussian_field(sig02, ms_std)  # plain lambda, no expression text
    with pytest.raises(ValueError):
        save_field(f, tmp_path / "nope.json")
    with pytest.raises(TypeError):
        save_field({"not": "a field"}, tmp_path / "nope.json")


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d.pop("signature"), "signature"),
    (lambda d: d.update(signature=[0, 2, 1]), "signature"),
    (lambda d: d.update(signature="Cl(0,2)"), "signature"),
    (lambda d: d.update(kappa=[0.3]), "kappa"),
    (lambda d: d.update(kappa=[-0.1, 0.7]), "kappa"),
    (lambda d: d.update(split=3), "split"),
    (lambda d: d.update(blades={}), "blades"),
    (lambda d: d.update(blades={"e9": "x1"}), "blades.e9"),
    (lambda d: d.update(blades={"1": 3.5}), "blades.1"),
    (lambda d: d.update(blades={"1": "1+"}), "blades.1"),
    (lambda d: d.update(blades={"1": "x5"}), "blades.1"),
    (lambda d: d.update(signature=[0, 7]), "signature"),
])
def test_analytic_schema_rejections(tmp_path, mutate, path):
    doc = _analytic_doc()
    mutate(doc)
    file = _write(tmp_path, "bad.json", doc)
    with pytest.raises(SchemaError) as exc:
        load_field(file)
    assert exc.value.path == path


def _sampled_doc():
    grid = {"L": [2.0, 2.0], "panels": 1, "order": 2}
    zeros = [[0.0] * 4 for _ in range(4)]
    return {
        "signature": [0, 2],
        "kappa": [0.3, 0.7],
        "split": 1,
        "grid": grid,
        "blades": {"1": zeros},
    }


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d["grid"].pop("L"), "grid.L"),
    (lambda d: d["grid"].update(L=[2.0]), "grid.L"),
    (lambda d: d["grid"].update(panels=0), "grid"),
    (lambda d: d["grid"].update(order="4"), "grid.order"),
    (lambda d: d["blades"].update({"1": [[0.0] * 3 for _ in range(4)]}), "blades.1"),
    (lambda d: d["blades"].update({"1": "x1"}), "blades.1"),
    # orjson refuses the NaN and Infinity literals while it parses
    (lambda d: d["blades"]["1"][3].__setitem__(1, math.nan), "$"),
    (lambda d: d["blades"]["1"][0].__setitem__(2, -math.inf), "$"),
])
def test_sampled_schema_rejections(tmp_path, mutate, path):
    doc = _sampled_doc()
    mutate(doc)
    file = _write(tmp_path, "bad.json", doc)
    with pytest.raises(SchemaError) as exc:
        load_field(file)
    assert exc.value.path == path


def test_malformed_files(tmp_path):
    garbage = _write(tmp_path, "g.json", "{not json")
    with pytest.raises(SchemaError) as exc:
        load_field(garbage)
    assert exc.value.path == "$"
    toplevel = _write(tmp_path, "l.json", [1, 2, 3])
    with pytest.raises(SchemaError):
        load_field(toplevel)
    with pytest.raises(FileNotFoundError):
        load_field(tmp_path / "missing.json")


@pytest.mark.parametrize("samples", [
    [[0.0] * 4, [0.0] * 3, [0.0] * 4, [0.0] * 4],  # ragged
    [["a"] * 4] * 4,
    [[{}] * 4] * 4,
    [[0.0, None, 0.0, 0.0]] + [[0.0] * 4] * 3,  # null reads as NaN
], ids=["ragged", "strings", "objects", "null"])
def test_sampled_blades_must_be_arrays_of_finite_numbers(tmp_path, samples):
    # the first three used to escape as a bare ValueError or TypeError
    doc = _sampled_doc()
    doc["blades"]["1"] = samples
    with pytest.raises(SchemaError) as exc:
        load_field(_write(tmp_path, "bad.json", doc))
    assert exc.value.path == "blades.1"


def test_depth_counts_only_brackets_outside_strings():
    assert _depth(b'{"a": [[1, 2], [3]], "b": {}}') == 3
    assert _depth(b'["]]]]", ["[[[", [0]]]') == 3
    assert _depth(b'["\\\\", [["\\\\\\"]"]]]') == 3  # escaped backslashes and quotes
    assert _depth(b"1.5") == 0
