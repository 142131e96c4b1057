import math

import mpmath
import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import eval_genlaguerre, gammaln, jv, poch

from cliffdunkl.clifford_core import MultiVector, Signature, modulus, validate_imaginary
from cliffdunkl.dunkl_rank1 import (
    HERMITE_N_CAP,
    KERNEL_RADIUS_CAP,
    ArgumentOutOfRadius,
    MultiplicitySplit,
    eval_kernel_ab,
    eval_orthonormal,
    hermite_basis,
    kernel_ab_integral,
    kernel_coefficients,
    kernel_rule_order,
    mehta_constant,
    psi_rule,
)
from cliffdunkl.quadrature import build_grid, integrate

from oracles import (
    SERIES_RADIUS,
    eval_h,
    eval_kernel_block,
    kernel_ab_series,
    mehta_factor_quadrature,
    series_coefficients,
    weight,
)

_T_SERIES = np.linspace(-SERIES_RADIUS, SERIES_RADIUS, 801)


def _assert_matches_series(kappa, t_max, tol):
    A, B = eval_kernel_ab(kernel_coefficients(kappa, t_max=t_max), _T_SERIES)
    As, Bs = kernel_ab_series(kappa, _T_SERIES)
    assert np.max(np.abs(A - As)) <= tol
    assert np.max(np.abs(B - Bs)) <= tol


def test_split_bookkeeping():
    ms = MultiplicitySplit((0.3, 0.7, 1.1), 2)
    assert ms.d == 3 and ms.kappa_p == (0.3, 0.7) and ms.kappa_q == (1.1,)
    assert math.isclose(ms.gamma_p, 1.0) and math.isclose(ms.gamma_q, 1.1)
    assert math.isclose(ms.gamma, ms.gamma_p + ms.gamma_q)
    with pytest.raises(ValueError):
        MultiplicitySplit((-0.1,), 0)
    with pytest.raises(ValueError):
        MultiplicitySplit((0.1, 0.2), 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_split_rejects_non_finite_multiplicities(bad):
    with pytest.raises(ValueError, match="finite"):
        MultiplicitySplit((bad, 0.5), 1)


def test_coefficients_k0_are_inverse_factorials():
    coeffs = series_coefficients(0.0, t_max=30.0)
    for n in range(min(21, len(coeffs))):
        assert coeffs[n] == pytest.approx(1.0 / math.factorial(n), rel=1e-14)
    # kappa = 0 is (cos t, -sin t), which the series sums to the same values
    _assert_matches_series(0.0, 30.0, 1e-14)


def test_coefficients_k1_first_values():
    coeffs = series_coefficients(1.0, t_max=30.0)
    assert coeffs[0] == 1.0
    assert coeffs[1] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert coeffs[2] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert coeffs[3] == pytest.approx(1.0 / 30.0, rel=1e-15)
    _assert_matches_series(1.0, 30.0, 1e-14)


@pytest.mark.parametrize("kappa", [0.0, 0.25, 0.7, 1.0, 2.3])
def test_coefficient_recurrence_and_normalization(kappa):
    coeffs = series_coefficients(kappa, t_max=30.0)
    assert coeffs[0] == 1.0
    for n in range(1, len(coeffs)):
        denom = n + (2.0 * kappa if n % 2 == 1 else 0.0)
        assert coeffs[n] == pytest.approx(coeffs[n - 1] / denom, rel=1e-15)
    _assert_matches_series(kappa, 30.0, 1e-14)


def test_truncation_cap():
    with pytest.raises(ArgumentOutOfRadius):
        kernel_coefficients(0.5, t_max=2000.0)
    with pytest.raises(ArgumentOutOfRadius):
        kernel_coefficients(0.5, t_max=math.inf)
    assert kernel_coefficients(0.5, t_max=KERNEL_RADIUS_CAP).t_max == KERNEL_RADIUS_CAP


def test_eigen_equation_residual():
    # T_x E(x,y) = y E(x,y) for the rank-one operator
    # T f = f' + kappa*(f(x)-f(-x))/x, applied to the truncated series
    kappa = 0.8
    c = series_coefficients(kappa, t_max=12.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0)
        y = rng.uniform(-4.0, 4.0)
        n = np.arange(len(c))
        fx = float(np.sum(c * (x * y) ** n))
        dfx = float(np.sum(n[1:] * c[1:] * y ** n[1:] * x ** (n[1:] - 1)))
        fmx = float(np.sum(c * (-x * y) ** n))
        T = dfx + kappa * (fx - fmx) / x
        assert abs(T - y * fx) < 1e-9 * max(1.0, abs(y * fx))
    # and the library's kernel is that series
    _assert_matches_series(kappa, 12.0, 1e-14)


def test_kernel_t0_and_k0_closed_form():
    table = kernel_coefficients(0.7)
    A, B = eval_kernel_ab(table, 0.0)
    assert (A, B) == (1.0, 0.0)
    table0 = kernel_coefficients(0.0)
    t = np.linspace(-20.0, 20.0, 1001)
    A, B = eval_kernel_ab(table0, t)
    assert np.max(np.abs(A - np.cos(t))) < 1e-14
    assert np.max(np.abs(B + np.sin(t))) < 1e-14


@pytest.mark.parametrize("kappa", [0.25, 0.7, 1.3, 100.0])
def test_kernel_against_hypergeometric(kappa):
    # A(t) = 0F1(kappa+1/2; -t^2/4), B(t) = -t/(2 kappa+1) 0F1(kappa+3/2; -t^2/4);
    # kappa = 100 needs the Jacobi rule's total mass in log space
    table = kernel_coefficients(kappa, t_max=26.0)
    rng = np.random.default_rng(10)
    for t in rng.uniform(-25.0, 25.0, 30):
        A, B = eval_kernel_ab(table, float(t))
        z = -0.25 * t * t
        A_ref = float(mpmath.hyp0f1(kappa + 0.5, z))
        B_ref = -t / (2.0 * kappa + 1.0) * float(mpmath.hyp0f1(kappa + 1.5, z))
        assert abs(A - A_ref) <= 1e-12 * max(1.0, abs(A_ref))
        assert abs(B - B_ref) <= 1e-12 * max(1.0, abs(B_ref))


def test_series_and_integral_routes_agree():
    # the series oracle loses digits as e^|t| beyond SERIES_RADIUS, so it
    # is compared there only; the table's radius sets the rule order
    for kappa in (1e-6, 0.6, 7.5, 100.0):
        table = kernel_coefficients(kappa, t_max=26.0)
        for t in (0.5, 1.0, 2.0, 3.0, 3.9, 4.0, -2.5):
            As, Bs = kernel_ab_series(kappa, t)
            A, B = eval_kernel_ab(table, t)
            assert abs(float(As) - A) < 1e-12
            assert abs(float(Bs) - B) < 1e-12
        _assert_matches_series(kappa, KERNEL_RADIUS_CAP, 1e-14)


def _bessel_ab(kappa, t):
    # A = j_(kappa-1/2)(t), B = -t/(2 kappa+1) j_(kappa+1/2)(t) with the
    # normalized Bessel j_a(t) = Gamma(a+1) (t/2)^(-a) J_a(t)
    at = np.abs(t)
    scale = np.exp(gammaln(kappa + 0.5) + (0.5 - kappa) * np.log(at / 2.0))
    return scale * jv(kappa - 0.5, at), -np.sign(t) * scale * jv(kappa + 0.5, at)


@pytest.mark.parametrize("kappa", [1e-6, 1e-3, 0.05, 0.3, 0.5, 1.0, 2.7, 7.5, 15.0, 30.0])
def test_kernel_against_scipy_bessel(kappa):
    table = kernel_coefficients(kappa, t_max=80.0)
    t = np.concatenate([np.linspace(-80.0, 80.0, 2001), np.linspace(-4.0, 4.0, 801)])
    t = t[t != 0.0]
    A, B = eval_kernel_ab(table, t)
    A_ref, B_ref = _bessel_ab(kappa, t)
    assert np.max(np.abs(A - A_ref)) <= 8e-14
    assert np.max(np.abs(B - B_ref)) <= 8e-14


@pytest.mark.parametrize("kappa", [1e-6, 1e-3, 0.3, 0.7, 2.7, 30.0, 60.0])
def test_kernel_to_the_radius_cap(kappa):
    # the floor is the eps*|t| argument reduction of cos(t s) and sin(t s)
    table = kernel_coefficients(kappa, t_max=KERNEL_RADIUS_CAP)
    t = np.linspace(-KERNEL_RADIUS_CAP, KERNEL_RADIUS_CAP, 6001)
    t = t[t != 0.0]
    A, B = eval_kernel_ab(table, t)
    A_ref, B_ref = _bessel_ab(kappa, t)
    assert np.max(np.abs(A - A_ref)) <= 2e-13
    assert np.max(np.abs(B - B_ref)) <= 2e-13
    mpmath.mp.dps = 30
    ts = np.linspace(-KERNEL_RADIUS_CAP, KERNEL_RADIUS_CAP, 61)
    A, B = eval_kernel_ab(table, ts)
    for t, a, b in zip(ts, A, B):
        z = -0.25 * t * t
        assert abs(a - float(mpmath.hyp0f1(kappa + 0.5, z))) <= 2e-13
        assert abs(b + t / (2.0 * kappa + 1.0) * float(mpmath.hyp0f1(kappa + 1.5, z))) <= 2e-13


@pytest.mark.parametrize("kappa", [0.0, 0.25, 0.5, 1.0, 2.0])
def test_kernel_bound(kappa):
    table = kernel_coefficients(kappa, t_max=20.0)
    t = np.linspace(-20.0, 20.0, 10_001)
    A, B = eval_kernel_ab(table, t)
    assert np.max(A * A + B * B) <= 1.0 + 1e-12


def test_radius_enforced():
    table = kernel_coefficients(0.5, t_max=10.0)
    with pytest.raises(ArgumentOutOfRadius):
        eval_kernel_ab(table, 10.5)


def test_kernel_block_cases():
    sig = Signature(0, 2)
    u = validate_imaginary(MultiVector.blade(sig, "e1"), "e1")
    # empty block is the empty product
    one = eval_kernel_block((), (), (), u)
    assert one.coeff.tolist() == [1.0, 0.0, 0.0, 0.0]
    # kappa = 0 block embeds exp(-u <x,y>)
    tables = (kernel_coefficients(0.0), kernel_coefficients(0.0))
    x, y = (0.7, -1.2), (2.0, 0.4)
    m = eval_kernel_block(tables, x, y, u)
    dot = sum(a * b for a, b in zip(x, y))
    assert m.coeff[0] == pytest.approx(math.cos(dot), rel=1e-13)
    assert m.coeff[1] == pytest.approx(-math.sin(dot), rel=1e-13)
    conj = eval_kernel_block(tables, x, y, u, conj=True)
    assert conj.coeff[1] == pytest.approx(math.sin(dot), rel=1e-13)
    # modulus never exceeds 1
    tables = (kernel_coefficients(0.4), kernel_coefficients(1.1))
    rng = np.random.default_rng(11)
    for _ in range(50):
        xs, ys = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
        assert modulus(eval_kernel_block(tables, xs, ys, u)) <= 1.0 + 1e-12


def test_weight_examples():
    ms0 = MultiplicitySplit((0.0, 0.0), 1)
    assert weight(ms0, np.array([1.3, -2.0])) == 1.0
    ms = MultiplicitySplit((0.5,), 0)
    assert weight(ms, np.array([2.0])) == pytest.approx(2.0, rel=1e-15)
    msb = MultiplicitySplit((0.3, 0.7), 1)
    x = np.array([1.7, -0.4])
    wp = weight(MultiplicitySplit((0.3,), 1), x[:1])
    wq = weight(MultiplicitySplit((0.7,), 0), x[1:])
    assert weight(msb, x) == pytest.approx(wp * wq, rel=1e-14)


def test_mehta_constant_values():
    assert mehta_constant((0.0,)) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
    assert mehta_constant((0.5,)) == pytest.approx(0.5, rel=1e-12)
    # regression pins for the standard test multiplicities
    assert mehta_constant((0.3,)) == pytest.approx(0.4933297705147161, rel=1e-13)
    assert mehta_constant((0.7,)) == pytest.approx(0.4740689391259498, rel=1e-13)
    # multiplies across coordinates
    assert mehta_constant((0.3, 0.7)) == pytest.approx(
        mehta_constant((0.3,)) * mehta_constant((0.7,)), rel=1e-12)
    assert mehta_constant(()) == 1.0


def test_mehta_gamma_factor_matches_quadrature():
    for kappa in (0.0, 0.3, 0.7, 1.5):
        got = mehta_constant((kappa,))
        assert got == pytest.approx(1.0 / mehta_factor_quadrature(kappa), rel=1e-10)


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.7, 1.5, 45.0, 60.0, 100.0, 150.0])
def test_mehta_constant_against_mpmath(kappa):
    mpmath.mp.dps = 30
    k = mpmath.mpf(kappa)
    want = 1 / (mpmath.mpf(2) ** (k + 0.5) * mpmath.gamma(k + 0.5))
    got = mehta_constant((kappa,))
    assert abs(got / want - 1) <= 1e-13


@pytest.mark.parametrize("block", [(155.0,), (160.0,), (200.0,), (1e4,), (100.0, 100.0)])
def test_mehta_constant_refuses_what_is_not_a_normal_float(block):
    # (155,) is subnormal, the rest underflow to 0 (or overflow Gamma)
    with pytest.raises(OverflowError, match="underflows"):
        mehta_constant(block)


@pytest.mark.parametrize("kappa", [0.0, 0.35, 1.0])
def test_hermite_orthonormality(kappa):
    alpha, beta = hermite_basis(kappa, 12)
    grid = build_grid(MultiplicitySplit((kappa,), 0), 9.0, panels=3, order=24)
    s = grid.nodes()[:, 0]
    envelope = np.exp(-s * s)
    for m in range(11):
        pm = eval_orthonormal(alpha, beta, m, s)
        for n in range(m, 11):
            pn = eval_orthonormal(alpha, beta, n, s)
            got = integrate(pm * pn * envelope, grid)
            assert abs(got - (1.0 if m == n else 0.0)) < 1e-8


def test_hermite_k0_matches_classical():
    from scipy.special import eval_hermite

    alpha, beta = hermite_basis(0.0, 8)
    s = np.linspace(-3.0, 3.0, 41)
    for n in range(8):
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        want = eval_hermite(n, s) / norm
        got = eval_orthonormal(alpha, beta, n, s)
        assert np.max(np.abs(got - want)) < 1e-10


def test_eval_h_is_coordinate_product():
    ms = MultiplicitySplit((0.3, 0.7), 1)
    pts = np.array([[0.4, -1.1], [2.0, 0.3]])
    hv = eval_h((2, 1), pts, ms)
    a1, b1 = hermite_basis(0.3, 4)
    a2, b2 = hermite_basis(0.7, 4)
    want = (eval_orthonormal(a1, b1, 2, pts[:, 0]) * np.exp(-pts[:, 0] ** 2 / 2)
            * eval_orthonormal(a2, b2, 1, pts[:, 1]) * np.exp(-pts[:, 1] ** 2 / 2))
    assert np.allclose(hv, want, rtol=1e-12)


def test_hermite_cap():
    with pytest.raises(ValueError):
        hermite_basis(0.3, HERMITE_N_CAP + 1)


def _hermite_laguerre(kappa, n, s):
    """Orthonormal generalized Hermite polynomial p_n from the Laguerre form:
    p_2m = (-1)^m sqrt(m!/Gamma(m+kappa+1/2)) L_m^(kappa-1/2)(s^2),
    p_2m+1 = (-1)^m sqrt(m!/Gamma(m+kappa+3/2)) s L_m^(kappa+1/2)(s^2)."""
    m, odd = divmod(n, 2)
    a = kappa + 0.5 + odd  # Gamma(m + a) = Gamma(a) (a)_m, which overflows alone
    c = (-1) ** m * math.sqrt(math.factorial(m) / poch(a, m) / math.gamma(a))
    return c * s**odd * eval_genlaguerre(m, a - 1.0, s * s)


@pytest.mark.parametrize("kappa", [0.0, 0.3, 5.0, 40.0, 100.0, 150.0])
def test_hermite_basis_matches_laguerre_closed_form(kappa):
    alpha, beta = hermite_basis(kappa, HERMITE_N_CAP)
    s = np.linspace(-4.0, 4.0, 161)
    for n in range(HERMITE_N_CAP + 1):
        want = _hermite_laguerre(kappa, n, s)
        got = eval_orthonormal(alpha, beta, n, s)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n


def test_hermite_basis_refuses_what_it_cannot_represent():
    with pytest.raises(OverflowError, match="kappa = 172"):
        hermite_basis(172.0, 4)
    for kappa in (-1.0, math.nan):
        with pytest.raises(ValueError):
            hermite_basis(kappa, 4)


@pytest.mark.parametrize("kappa", [0.2, 0.5, 1.0, 3.0, 200.0])
def test_psi_rule_mass_and_mean(kappa):
    nodes, weights = psi_rule(kappa, 48)
    assert np.all(np.abs(nodes) < 1.0)
    assert np.all(weights >= 0.0)
    assert abs(np.sum(weights) - 1.0) < 1e-12
    # mean of psi_kappa is B(3/2,kappa)/B(1/2,kappa) = 1/(2 kappa+1)
    want = beta_fn(1.5, kappa) / beta_fn(0.5, kappa)
    assert abs(np.dot(weights, nodes) - want) < 1e-10
    assert abs(want - 1.0 / (2.0 * kappa + 1.0)) < 1e-12


@pytest.mark.parametrize("kappa", [1e-17, 1e-300])
def test_kernel_at_float_zero_kappa_is_the_kappa_zero_kernel(kappa):
    # kappa - 1 == -1 in float64: no Jacobi rule exists, and the kernel
    # is the kappa = 0 kernel (cos t, -sin t) exactly
    assert kappa - 1.0 == -1.0
    t = np.linspace(-30.0, 30.0, 601)
    A0, B0 = eval_kernel_ab(kernel_coefficients(0.0, t_max=31.0), t)
    A, B = eval_kernel_ab(kernel_coefficients(kappa, t_max=31.0), t)
    assert np.array_equal(A, A0) and np.array_equal(B, B0)
    Ai, Bi = kernel_ab_integral(kappa, t, kernel_rule_order(31.0))
    assert np.array_equal(Ai, np.cos(t)) and np.array_equal(Bi, -np.sin(t))


@pytest.mark.parametrize("kappa", [1e-17, 1e-300])
def test_psi_rule_at_float_zero_kappa_is_a_point_mass_at_one(kappa):
    nodes, weights = psi_rule(kappa, 48)
    assert np.dot(weights, np.cos(nodes)) == math.cos(1.0)
    assert np.sum(weights) == 1.0 and np.dot(weights, nodes) == 1.0
    # just above the threshold the Jacobi rule is used, and it already sits
    # at the limit to rounding: no jump across the switch
    assert 2.0**-53 - 1.0 != -1.0
    nodes, weights = psi_rule(2.0**-53, 48)
    assert abs(np.sum(weights) - 1.0) < 1e-12 and abs(np.dot(weights, nodes) - 1.0) < 1e-12
