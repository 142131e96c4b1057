"""Translation and convolution at d = 3, with every parity class populated.

An off-centre Gaussian has an even and an odd part along every axis, so
all 2^3 classes of both factors enter the class products, and so does every
sign of the product table.  At kappa = 0 both operators have closed forms:
the shift f(x - z), and the classical convolution of two Gaussians.  At
kappa > 0 spectral translation is checked against the rank-one integral
formula (`translate_explicit`'s passes at a fixed psi order), and the
convolution of two centred Gaussians in Cl(0,2) against its closed form.
"""

import math

import numpy as np
import pytest

from cliffdunkl.cdt_engine import (
    AnalyticField,
    build_plan,
    convolve,
    translate_spectral,
)
from cliffdunkl.clifford_core import MultiVector, Signature, structure_tensor, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit

from oracles import translate_at_order

U = np.array([0.3, -0.4, 0.5])  # centre of f
V = np.array([-0.2, 0.3, 0.25])  # centre of g
Z = (0.6, -0.5, 0.4)  # translation
A, B = 0.5, 0.7  # widths of f and g: e^{-A |x - U|^2}, e^{-B |x - V|^2}

# (p, q, split, units): a signature with p > 0, and one with two p-block axes;
# the grid resolves both closed forms to about 2e-7, relative max norm
CASES = {"Cl(1,2) split 1": (1, 2, 1, "e2", "e3"), "Cl(0,3) split 2": (0, 3, 2, "e1", "e3")}


def _plan(case, kappa):
    p, q, split, a, b = case
    sig = Signature(p, q)
    units = [validate_imaginary(MultiVector.blade(sig, lab), lab) for lab in (a, b)]
    return build_plan(sig, MultiplicitySplit(kappa, split), *units, L_x=6.5, L_y=6.5, order=24)


def _gauss(x, width, centre):
    return np.exp(-width * sum((xj - cj) ** 2 for xj, cj in zip(x, centre)))


def _gaussian(plan, coef, width, centre):
    """coef e^{-width |x - centre|^2}, coef a multivector (one float per blade)."""
    return AnalyticField(plan.sig, plan.ms, {m: lambda *x, c=c: c * _gauss(x, width, centre)
                                             for m, c in enumerate(coef) if c})


def _two_blade_field(plan):
    """Scalar and pseudoscalar parts, centred apart and of different widths."""
    return AnalyticField(plan.sig, plan.ms, {0: lambda *x: _gauss(x, A, U),
                                             7: lambda *x: 0.5 * _gauss(x, B, V)})


def _rel_max(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_translation_at_kappa_zero_is_the_shift(case):
    plan = _plan(case, (0.0,) * 3)
    got = translate_spectral(_two_blade_field(plan), Z, plan).values
    shifted = [x - z for x, z in zip(plan.grid_x.coords(), Z)]
    want = np.zeros_like(got)
    for m, body in _two_blade_field(plan).blades.items():
        want[..., m] = body(*shifted)
    assert _rel_max(got, want) <= 1e-6


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_convolution_at_kappa_zero_is_the_gaussian_closed_form(case):
    # (C_f e^{-A|x-U|^2}) * (C_g e^{-B|x-V|^2})
    #   = C_f C_g (pi/(A+B))^{3/2} e^{-AB |x-U-V|^2/(A+B)}, f's coefficients first
    plan = _plan(case, (0.0,) * 3)
    cf, cg = np.random.default_rng(3).uniform(-1.5, 1.5, (2, plan.sig.n_blades))
    got = convolve(_gaussian(plan, cf, A, U), _gaussian(plan, cg, B, V), plan).values
    coef = np.einsum("i,j,ijk->k", cf, cg, structure_tensor(plan.sig))
    profile = (np.pi / (A + B)) ** 1.5 * _gauss(plan.grid_x.coords(), A * B / (A + B), U + V)
    assert _rel_max(got, profile[..., None] * coef) <= 1e-6


@pytest.mark.parametrize("case, kappa", [(CASES["Cl(1,2) split 1"], (0.4, 0.7, 0.3)),
                                         (CASES["Cl(0,3) split 2"], (0.5, 0.0, 0.8))],
                         ids=list(CASES))
def test_translation_at_kappa_positive_matches_the_explicit_formula(case, kappa):
    # on every 5th node per axis: the explicit formula costs a field call per
    # branch of the psi rule
    plan = _plan(case, kappa)
    f = _two_blade_field(plan)
    got = translate_spectral(f, Z, plan).values[::5, ::5, ::5]
    moved = translate_at_order(f, Z, plan.ms, 16)
    sub = np.ix_(*(ax.nodes[::5] for ax in plan.grid_x.axes))
    want = np.zeros_like(got)
    for m, body in moved.blades.items():
        want[..., m] = body(*sub)
    assert _rel_max(got, want) <= 1e-6


@pytest.mark.parametrize("normalization", ["raw", "mehta"])
@pytest.mark.parametrize("kappa", [(0.3, 0.7), (1.5, 0.2)])
def test_convolution_of_centred_gaussians_at_kappa_positive_is_the_closed_form(kappa, normalization):
    # e^{-a|x|^2} * e^{-b|x|^2} = prod_j Gamma(k_j + 1/2) (a + b)^(-k_j - 1/2) e^{-ab x_j^2/(a + b)},
    # whatever the normalization; at kappa = 0 the classical (pi/(a + b))^(d/2) e^{-ab|x|^2/(a + b)}
    a, b = 0.7, 1.3
    sig = Signature(0, 2)
    e1, e2 = (validate_imaginary(MultiVector.blade(sig, lab), lab) for lab in ("e1", "e2"))
    plan = build_plan(sig, MultiplicitySplit(kappa, 1), e1, e2, L_x=8.0, order=48,
                      normalization=normalization)
    got = convolve(_gaussian(plan, [1.0], a, (0.0, 0.0)), _gaussian(plan, [1.0], b, (0.0, 0.0)), plan).values
    want = np.zeros_like(got)
    want[..., 0] = 1.0
    for k, x in zip(kappa, plan.grid_x.coords()):
        want[..., 0] *= math.gamma(k + 0.5) * (a + b) ** (-k - 0.5) * np.exp(-a * b * x * x / (a + b))
    assert _rel_max(got, want) <= 1e-12
