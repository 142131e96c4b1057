import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdunkl.clifford_core import (
    BladeSyntaxError,
    MultiVector,
    Signature,
    SignatureMismatch,
    SquareNotMinusOne,
    blade_label,
    modulus,
    parse_blade,
    scalar_product,
    structure_tensor,
    validate_imaginary,
)

from oracles import grade, principal_reverse


def _oracle_product_sign(a_mask: int, b_mask: int, p: int):
    """Blade product by explicit generator juggling: concatenate, count the
    transpositions of a stable sort, cancel equal neighbours with the metric
    sign.  Independent of the popcount route in the library."""
    gens = [i for i in range(16) if a_mask >> i & 1] + [i for i in range(16) if b_mask >> i & 1]
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j - 1] > gens[j]:
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            sign = -sign
            j -= 1
    out = []
    for g in gens:
        if out and out[-1] == g:
            out.pop()
            sign *= 1 if g < p else -1
        else:
            out.append(g)
    mask = 0
    for g in out:
        mask |= 1 << g
    return mask, sign


@pytest.mark.parametrize("p,q", [(0, 2), (2, 0), (1, 1), (0, 4), (2, 2), (4, 0), (1, 3)])
def test_blade_product_matches_oracle(p, q):
    sig = Signature(p, q)
    for am in range(sig.n_blades):
        for bm in range(sig.n_blades):
            got = MultiVector.blade(sig, am) * MultiVector.blade(sig, bm)
            mask, sign = _oracle_product_sign(am, bm, p)
            want = np.zeros(sig.n_blades)
            want[mask] = sign
            assert np.array_equal(got.coeff, want), (am, bm)


def test_metric_squares():
    assert (MultiVector.blade(Signature(2, 0), "e1")
            * MultiVector.blade(Signature(2, 0), "e1")).coeff[0] == 1.0
    sig = Signature(0, 2)
    assert (MultiVector.blade(sig, "e1") * MultiVector.blade(sig, "e1")).coeff[0] == -1.0
    e12 = MultiVector.blade(sig, "e12")
    assert (e12 * e12).coeff[0] == -1.0


def test_identity_blade():
    sig = Signature(1, 2)
    rng = np.random.default_rng(0)
    m = MultiVector(sig, rng.standard_normal(sig.n_blades))
    one = MultiVector.scalar(sig, 1.0)
    assert np.array_equal((one * m).coeff, m.coeff)
    assert np.array_equal((m * one).coeff, m.coeff)


def _quat_mul(a, b):
    # (w, x, y, z) Hamilton product
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def test_cl02_is_quaternions():
    # 1 <-> 1, e1 <-> i, e2 <-> j, e12 <-> k (masks 0,1,2,3)
    sig = Signature(0, 2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.integers(-5, 6, 4).astype(float)
        b = rng.integers(-5, 6, 4).astype(float)
        got = (MultiVector(sig, a) * MultiVector(sig, b)).coeff
        assert np.array_equal(got, np.array(_quat_mul(tuple(a), tuple(b))))


def test_cl01_is_complex():
    sig = Signature(0, 1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b, c, d = rng.integers(-9, 10, 4).astype(float)
        got = (MultiVector(sig, np.array([a, b])) * MultiVector(sig, np.array([c, d]))).coeff
        assert np.array_equal(got, np.array([a * c - b * d, a * d + b * c]))


@pytest.mark.parametrize("p,q", [(0, 2), (1, 2), (3, 3), (0, 6), (6, 0)])
def test_associativity_exact_on_integers(p, q):
    sig = Signature(p, q)
    rng = np.random.default_rng(3)
    for _ in range(25):
        m, n, r = (MultiVector(sig, rng.integers(-3, 4, sig.n_blades).astype(float))
                   for _ in range(3))
        left = (m * n) * r
        right = m * (n * r)
        assert np.array_equal(left.coeff, right.coeff)


@pytest.mark.parametrize("p,q", [(0, 3), (2, 1), (5, 0), (2, 3)])
def test_anticommutation(p, q):
    sig = Signature(p, q)
    d = p + q
    for i in range(d):
        ei = MultiVector.blade(sig, 1 << i)
        sq = (ei * ei).coeff
        eta = 1.0 if i < p else -1.0
        assert sq[0] == eta and not np.any(sq[1:])
        for j in range(d):
            if i == j:
                continue
            ej = MultiVector.blade(sig, 1 << j)
            anti = (ei * ej).coeff + (ej * ei).coeff
            assert not np.any(anti)


@pytest.mark.parametrize("p,q", [(0, 2), (1, 1), (2, 2), (0, 4)])
def test_scalar_product_is_coefficient_dot(p, q):
    # <M * principal_reverse(N)>_0 must equal the plain coefficient dot
    sig = Signature(p, q)
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = MultiVector(sig, rng.integers(-4, 5, sig.n_blades).astype(float))
        n = MultiVector(sig, rng.integers(-4, 5, sig.n_blades).astype(float))
        via_product = grade(m * principal_reverse(n), 0).coeff[0]
        assert via_product == float(np.dot(m.coeff, n.coeff))
        assert scalar_product(m, n) == float(np.dot(m.coeff, n.coeff))


def test_modulus_example():
    sig = Signature(0, 2)
    m = MultiVector.blade(sig, "e1") + 2.0 * MultiVector.blade(sig, "e12")
    assert scalar_product(m, m) == 5.0
    assert modulus(m) == np.sqrt(5.0)


def test_validate_imaginary():
    sig = Signature(0, 2)
    for label in ("e1", "e2", "e12"):
        unit = validate_imaginary(MultiVector.blade(sig, label), label)
        assert unit.label == label
    with pytest.raises(SquareNotMinusOne):
        validate_imaginary(MultiVector.blade(Signature(2, 0), "e1"))
    # non-pure units on the 3-5 triangle validate exactly: 0.36 + 0.64 == 1.0
    a = 0.6 * MultiVector.blade(sig, "e1") + 0.8 * MultiVector.blade(sig, "e12")
    b = 0.8 * MultiVector.blade(sig, "e2") + 0.6 * MultiVector.blade(sig, "e12")
    validate_imaginary(a)
    validate_imaginary(b)
    with pytest.raises(SquareNotMinusOne):
        validate_imaginary(0.5 * MultiVector.blade(sig, "e1"))


def test_signature_mismatch():
    m = MultiVector.blade(Signature(0, 2), "e1")
    n = MultiVector.blade(Signature(1, 1), "e1")
    with pytest.raises(SignatureMismatch):
        m * n


def test_blade_labels_round_trip():
    for d in (1, 2, 4, 6):
        for mask in range(1 << d):
            assert parse_blade(blade_label(mask), d) == mask


def test_blade_label_comma_form():
    assert parse_blade("e{1,12}", 12) == (1 << 0) | (1 << 11)
    assert parse_blade("e{2,10,11}", 11) == (1 << 1) | (1 << 9) | (1 << 10)


@pytest.mark.parametrize("bad", ["", "e", "e0", "e21", "e11", "foo", "e{1,", "e{2,1}", "e9"])
def test_blade_label_errors(bad):
    with pytest.raises(BladeSyntaxError):
        parse_blade(bad, 4)


def test_structure_tensor_matches_product():
    sig = Signature(1, 2)
    S = structure_tensor(sig)
    rng = np.random.default_rng(6)
    m = rng.integers(-3, 4, sig.n_blades).astype(float)
    n = rng.integers(-3, 4, sig.n_blades).astype(float)
    via_tensor = np.einsum("i,j,ijk->k", m, n, S)
    direct = (MultiVector(sig, m) * MultiVector(sig, n)).coeff
    assert np.array_equal(via_tensor, direct)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=24, max_size=24),
    p=st.integers(min_value=0, max_value=3),
)
def test_product_laws_hypothesis(coeffs, p):
    sig = Signature(p, 3 - p)
    nb = sig.n_blades
    arr = np.array(coeffs, dtype=float)
    m, n, r = (MultiVector(sig, arr[i * nb:(i + 1) * nb]) for i in range(3))
    assert np.array_equal(((m * n) * r).coeff, (m * (n * r)).coeff)
    # distributivity is exact on integers too
    assert np.array_equal((m * (n + r)).coeff, (m * n + m * r).coeff)
    assert scalar_product(m, m) == float(np.dot(m.coeff, m.coeff))


def test_signature_caps_at_six_generators():
    assert Signature(2, 4).n_blades == 64
    for p, q in ((0, 7), (7, 0), (3, 4), (0, 13)):
        with pytest.raises(ValueError):
            Signature(p, q)


def test_power_is_repeated_product():
    sig = Signature(1, 2)
    m = MultiVector(sig, np.arange(1.0, 9.0) / 8.0)
    assert m**0 == MultiVector.scalar(sig, 1.0)
    assert m**3 == m * m * m
    for bad in (-1, 2.0, "2"):
        with pytest.raises(ValueError):
            m**bad
