"""The whole transform against the Hermite eigenbasis, with no kernel.

For f = sum of M h_v(x_p) h_u(x_q) with multivector coefficients M,
`oracles.hermite_image` gives the transform from the eigenvalues alone, so
this one check covers sampling, the fold, the kernel tables, the parity
classes and the blade assembly together, and shares no code with them.

Grids: the integrated side spans [-9.5, 9.5], where the heaviest
integrand, |x|^10 x^4 e^(-x^2/2) (kappa = 5, degree 4), has fallen to
about 1e-11 of its peak; the checked side spans [-2, 2]; one panel of
order 26 per half axis resolves the kernel up to |x y| = 19.  The worst
corners of the strategy (kappa 0 to 5, degree 0 to 4 on one axis) sit
below 1e-11 there.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffdunkl import cdt_engine
from cliffdunkl.cdt_engine import AnalyticField, build_plan, forward, forward_left, inverse
from cliffdunkl.cdt_engine import forward_right
from cliffdunkl.clifford_core import MultiVector, Signature, SquareNotMinusOne, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit, eval_orthonormal, hermite_basis

from oracles import hermite_image, hermite_sum

L_WIDE, L_CHECK, ORDER = 9.5, 2.0, 26
RTOL = 1e-10
MAX_DEGREE = 4
TRANSFORMS = {"two": forward, "left": forward_left, "right": forward_right}


def _units(sig):
    """Every blade of sig that squares to -1."""
    out = []
    for mask in range(1, sig.n_blades):
        try:
            out.append(validate_imaginary(MultiVector.blade(sig, mask), str(mask)))
        except SquareNotMinusOne:
            pass
    return out


UNITS = {sig: _units(sig) for sig in (Signature(p, d - p) for d in (1, 2, 3)
                                     for p in range(d + 1))}
SIGNATURES = [sig for sig, units in UNITS.items() if units]


@st.composite
def hermite_cases(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    d = sig.d
    kappa = draw(st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(0.0, 5.0)),
                          min_size=d, max_size=d))
    ms = MultiplicitySplit(tuple(kappa), draw(st.integers(0, d)))
    a, b = draw(st.sampled_from(UNITS[sig])), draw(st.sampled_from(UNITS[sig]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        index, left = [], MAX_DEGREE
        for _ in range(d):
            index.append(draw(st.integers(0, left)))
            left -= index[-1]
        key = (tuple(index[:ms.split]), tuple(index[ms.split:]))
        terms[key] = MultiVector(sig, rng.uniform(-1.0, 1.0, sig.n_blades))
    transform = draw(st.sampled_from(["two", "left", "right", "inverse"]))
    return sig, ms, a, b, terms, transform, draw(st.sampled_from(["raw", "mehta"]))


@functools.lru_cache(maxsize=64)
def _recurrence(kappa):
    return hermite_basis(kappa, MAX_DEGREE)


def _h(n, kappa, x):
    alpha, beta = _recurrence(kappa)
    return eval_orthonormal(alpha, beta, n, x) * np.exp(-0.5 * x * x)


def _field(sig, ms, terms):
    """sum M h_v h_u as blade bodies on open coordinates."""
    def body(mask):
        def fn(*X):
            total = 0.0
            for (v, u), M in terms.items():
                prod = M.coeff[mask]
                for n, kappa, x in zip(v + u, ms.kappa, X):
                    prod = prod * _h(n, kappa, x)
                total = total + prod
            return total
        return fn

    return AnalyticField(sig, ms, {m: body(m) for m in range(sig.n_blades)})


def _all_odd_block(split):
    """Cl(0,3) with every axis of one three-axis block odd: the only parity
    class whose sign comes from three units, which random draws seldom reach."""
    sig = Signature(0, 3)
    ms = MultiplicitySplit((0.3, 0.7, 0.5), split)
    a, b = UNITS[sig][0], UNITS[sig][1]
    odd = (1, 1, 1)
    key = (odd, ()) if split == 3 else ((), odd)
    terms = {key: MultiVector(sig, np.linspace(-1.0, 1.0, 8))}
    return sig, ms, a, b, terms, "two", "raw"


@settings(max_examples=200, deadline=None)
@given(case=hermite_cases())
@example(case=_all_odd_block(3))
@example(case=_all_odd_block(0))
def test_transform_matches_the_hermite_eigenbasis(case):
    sig, ms, a, b, terms, transform, normalization = case
    ordering = "two" if transform == "inverse" else transform
    image = hermite_image(terms, ms, a, b, ordering, normalization)
    with pytest.MonkeyPatch.context() as mp:  # every example samples on the pool
        mp.setattr(cdt_engine, "_PARALLEL_MIN", 1)
        mp.setattr(cdt_engine, "_usable_cpus", lambda: 2)
        if transform == "inverse":
            plan = build_plan(sig, ms, a, b, L_x=L_CHECK, L_y=L_WIDE, order=ORDER,
                              normalization=normalization)
            got = inverse(_field(sig, ms, image), plan).values
            want = hermite_sum(terms, ms, plan.grid_x)
        else:
            plan = build_plan(sig, ms, a, b, L_x=L_WIDE, L_y=L_CHECK, order=ORDER,
                              normalization=normalization)
            got = TRANSFORMS[transform](_field(sig, ms, terms), plan).values
            want = hermite_sum(image, ms, plan.grid_y)
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= RTOL, (err, sig, ms, transform, normalization)
