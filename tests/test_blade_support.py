"""Blade support: the engine transforms only the blades a field may have.

A field with blades B gives the same bits as its twins padded with zero
bodies (analytic) or zero planes (sampled), one of which takes the
full-blade path; an all-zero field gives zeros; the scan of a caller's
array keeps a subnormal and drops -0.0; and a scalar field holds fewer
field-sized arrays than the full-blade bounds.

The bits agree where the GEMMs round each sum the same way whatever the
number of columns beside it.  With OpenBLAS that held in Cl(0,2) and
Cl(0,3) at orders 2 to 12 and in Cl(0,4) at even orders; at odd orders in
Cl(0,4) some sums of the 16 x 16 fold and class GEMMs round differently
when the blade count changes the column count, and the twins agree to
about 1e-17 of the peak value instead.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from cliffdunkl.cdt_engine import (
    AnalyticField,
    SampledField,
    build_plan,
    convolve,
    forward,
    inverse,
    translate_spectral,
)
from cliffdunkl.clifford_core import MultiVector, Signature, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit

CASES = {  # (p, q), split, units, order
    "cl02": ((0, 2), 1, ("e1", "e2"), 12),
    "cl12": ((1, 2), 1, ("e2", "e3"), 6),
    "cl03-split1": ((0, 3), 1, ("e1", "e2"), 6),
    "cl03-split2": ((0, 3), 2, ("e1", "e3"), 6),
    "cl04-split2": ((0, 4), 2, ("e1", "e2"), 4),
}


def _plan(case, normalization, order=None):
    (p, q), split, labels, default = CASES[case]
    order = order or default
    sig = Signature(p, q)
    ms = MultiplicitySplit((0.3, 0.7, 0.5, 0.4)[:sig.d], split)
    a, b = (validate_imaginary(MultiVector.blade(sig, lab), lab) for lab in labels)
    return build_plan(sig, ms, a, b, L_x=5.0, L_y=5.0, order=order, normalization=normalization)


def _body(m, s):
    return lambda *X: (0.3 + 0.1 * m + X[0] - 0.2 * X[0] * X[-1]) * np.exp(-s * sum(x * x for x in X))


def _zero(*X):
    return 0.0 * X[0]


def _twins(plan, blades, s):
    """The field with `blades`, padded with zero bodies to every blade and
    to two more, and as a sampled field with zero planes."""
    sig, ms, nb = plan.sig, plan.ms, plan.sig.n_blades
    f = AnalyticField(sig, ms, {m: _body(m, s) for m in blades})
    pads = [range(nb), sorted(set(blades) | {1, nb // 2})]
    padded = [AnalyticField(sig, ms, {m: _body(m, s) if m in blades else _zero for m in pad}) for pad in pads]
    return [f, *padded, SampledField(sig, ms, plan.grid_x, f.sample(plan.grid_x))]


def _sha(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _twin_outputs(plan):
    """Per operation and blade set, the outputs of a field and its twins."""
    nb = plan.sig.n_blades
    z = (0.4, -0.3, 0.2, 0.1)[:plan.sig.d]
    for blades in ([0], [1, nb - 1], [0, 3]):
        fs, gs = _twins(plan, blades, 0.8), _twins(plan, blades[::-1], 1.1)
        for name, run in (("forward", lambda f, g: forward(f, plan)),
                          ("inverse", lambda f, g: inverse(forward(f, plan), plan)),
                          ("translate_spectral", lambda f, g: translate_spectral(f, z, plan)),
                          ("convolve", lambda f, g: convolve(f, g, plan))):
            outs = [run(f, g).values for f, g in zip(fs, gs)]
            assert np.any(outs[0] != 0.0), (name, blades)
            yield (name, blades), outs


@pytest.mark.parametrize("normalization", ["raw", "mehta"])
@pytest.mark.parametrize("case", list(CASES))
def test_a_field_and_its_zero_padded_twins_give_identical_bits(case, normalization):
    for what, outs in _twin_outputs(_plan(case, normalization)):
        assert len({_sha(out) for out in outs}) == 1, what


def test_at_an_odd_order_in_cl04_the_twins_agree_to_rounding():
    inexact = 0
    for what, outs in _twin_outputs(_plan("cl04-split2", "raw", order=3)):
        inexact += len({_sha(out) for out in outs}) > 1
        for out in outs[1:]:
            assert np.max(np.abs(out - outs[0])) <= 1e-15 * np.max(np.abs(outs[0])), what
    assert inexact  # else the module docstring overstates the exception


def test_an_all_zero_sampled_field_gives_zeros():
    plan = _plan("cl03-split1", "raw")
    zero = SampledField(plan.sig, plan.ms, plan.grid_x, np.zeros(plan.grid_x.shape + (8,)))
    for out in (forward(zero, plan), inverse(zero, plan), translate_spectral(zero, (0.4, -0.3, 0.2), plan),
                convolve(zero, zero, plan), convolve(_twins(plan, [0], 0.8)[0], zero, plan)):
        assert out.values.shape == plan.grid_x.shape + (8,)
        assert not np.any(out.values)


def test_the_scan_keeps_a_subnormal_plane_and_drops_negative_zero():
    plan = _plan("cl03-split1", "raw")
    vals = np.zeros(plan.grid_x.shape + (8,))
    vals[..., 0] = 1.0
    vals[..., 2] = -0.0
    vals[1, 2, 3, 4] = 1e-310  # subnormal: one node of blade e3
    fld = SampledField(plan.sig, plan.ms, plan.grid_x, vals)
    assert fld._support == (0, 4)
    # the subnormal survives the weights of the transform, off the scalar's blades
    assert np.any(forward(fld, plan).values[..., 4:] != 0.0)


def test_a_scalar_field_holds_fewer_field_sized_arrays_than_a_full_one():
    # the full-blade multiples are 3, 2, 4 and 6 fields
    # (test_transform_memory_stays_within_two_work_buffers).  For a scalar
    # in Cl(0,3): forward holds the sample, the last work buffer that
    # becomes the result, and the other sized for the 4 blades of the
    # image (half a field); inverse of that image the two buffers only.
    # translate_spectral and convolve carry one blade through their stages:
    # the sample, the result and 1/8 of a field each for the other buffer
    # and for delta_z's (or f's) classes.
    plan = _plan("cl03-split1", "raw", order=16)
    f = AnalyticField(plan.sig, plan.ms, {0: lambda *X: np.exp(-0.7 * sum(x * x for x in X))})
    F = forward(f, plan)
    field_bytes = F.values.nbytes
    slack = 128 * 1024
    for run, budget in ((lambda: forward(f, plan), 2.5), (lambda: inverse(F, plan), 1.5),
                        (lambda: translate_spectral(f, (0.4, -0.3, 0.2), plan), 2.25),
                        (lambda: convolve(f, f, plan), 2.25)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * field_bytes + slack, (peak / field_bytes, budget)
