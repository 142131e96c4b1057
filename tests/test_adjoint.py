"""Rounding-level identities of the discrete operators.

The inverse is the weighted adjoint of the forward transform up to one
constant, on any grid and for any input, since no truncation enters it:

    <forward f, g>_(w_y) = C <f, inverse g>_(w_x),

w_x and w_y the grids' total weights, C = (c_p c_q)^-2 in raw mode and 1
in mehta mode (de Jeu, Invent. Math. 113, 1993, for the Plancherel
theorem).  On white-noise fields the ratio of the two sides spreads by
rounding alone, so a defect far below the truncation error of a round
trip shows: one row of one half matrix off by 1e-6 moves the spread from
about 1e-15 to 1e-7.  Spectral translation is symmetric the same way:
<tau_z f, h> = <f, tau_-z h>.
"""

import dataclasses

import numpy as np
import pytest

from cliffdunkl.cdt_engine import SampledField, build_plan, forward, inverse, translate_spectral
from cliffdunkl.clifford_core import MultiVector, Signature, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit, mehta_constant

TOL = 1e-12  # rounding-level: measured spreads are 2e-16 to 1.5e-14

# (p, q), kappa, split, units, L_x, L_y, panels, order
CASES = {
    "Cl(0,2)": ((0, 2), (0.3, 0.7), 1, ("e1", "e2"), 8.0, 8.0, 1, 48),
    "Cl(0,2) zero kappa": ((0, 2), (0.0, 1e-17), 1, ("e1", "e2"), 6.0, 9.0, 2, 12),
    "Cl(0,3) split 1": ((0, 3), (0.3, 0.7, 0.5), 1, ("e1", "e2"), 6.0, 7.0, 2, 6),
    "Cl(0,3) split 2": ((0, 3), (0.3, 0.0, 0.5), 2, ("e12", "e3"), 6.0, 6.0, 1, 10),
    "Cl(1,2)": ((1, 2), (0.2, 0.4, 0.9), 1, ("e2", "e3"), 5.0, 7.0, 1, 10),
    "Cl(2,1)": ((2, 1), (0.2, 1e-17, 0.9), 2, ("e3", "e12"), 6.0, 5.0, 2, 5),
    "Cl(0,4)": ((0, 4), (0.3, 0.7, 0.5, 0.1), 2, ("e1", "e34"), 5.0, 6.0, 1, 5),
}


def _plan(name, normalization):
    (p, q), kappa, split, (la, lb), L_x, L_y, panels, order = CASES[name]
    sig = Signature(p, q)
    a, b = (validate_imaginary(MultiVector.blade(sig, lab), lab) for lab in (la, lb))
    return build_plan(sig, MultiplicitySplit(kappa, split), a, b, L_x=L_x, L_y=L_y,
                      panels=panels, order=order, normalization=normalization)


def _noise(plan, grid, rng):
    return SampledField(plan.sig, plan.ms, grid, rng.standard_normal(grid.shape + (plan.sig.n_blades,)))


def _inner(u, v, grid):
    return float(np.sum(grid.total_weights()[..., None] * u.values * v.values))


def _adjoint_ratios(plan, pairs=3, seed=0):
    """<forward f, g>_y / <f, inverse g>_x over white-noise pairs, drawn
    from the plan's grids (not from `plan`, which may be perturbed)."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(pairs):
        f, g = _noise(plan, plan.grid_x, rng), _noise(plan, plan.grid_y, rng)
        ratios.append(_inner(forward(f, plan), g, plan.grid_y) / _inner(f, inverse(g, plan), plan.grid_x))
    return np.array(ratios)


def _spread(ratios):
    return float((ratios.max() - ratios.min()) / abs(np.median(ratios)))


@pytest.mark.parametrize("normalization", ["raw", "mehta"])
@pytest.mark.parametrize("name", list(CASES))
def test_inverse_is_the_weighted_adjoint_of_forward(name, normalization):
    plan = _plan(name, normalization)
    ratios = _adjoint_ratios(plan)
    assert _spread(ratios) <= TOL
    if normalization == "raw":
        want = (mehta_constant(plan.ms.kappa_p) * mehta_constant(plan.ms.kappa_q)) ** -2
    else:
        want = 1.0
    assert np.max(np.abs(ratios / want - 1.0)) <= TOL


def test_adjointness_catches_one_perturbed_row():
    # one outermost y node's row of axis 0's inverse half matrices off by
    # 1e-6: a round trip cannot see it beside its truncation error
    plan = _plan("Cl(0,2)", "raw")
    M = plan.inv_mats[0].copy()
    M[:, -1, :] *= 1.0 + 1e-6
    bent = dataclasses.replace(plan, inv_mats=(M,) + plan.inv_mats[1:])
    assert _spread(_adjoint_ratios(plan)) <= TOL
    assert _spread(_adjoint_ratios(bent)) > 1e3 * TOL


@pytest.mark.parametrize("name", ["Cl(0,2)", "Cl(0,3) split 2", "Cl(1,2)", "Cl(2,1)", "Cl(0,4)"])
def test_spectral_translation_is_symmetric(name):
    plan = _plan(name, "raw")
    rng = np.random.default_rng(1)
    z = np.linspace(0.6, -0.4, plan.ms.d)
    for _ in range(2):
        f, h = _noise(plan, plan.grid_x, rng), _noise(plan, plan.grid_x, rng)
        there = _inner(translate_spectral(f, z, plan), h, plan.grid_x)
        back = _inner(f, translate_spectral(h, -z, plan), plan.grid_x)
        assert abs(there / back - 1.0) <= TOL
