"""
Gaussian images under the two-sided transform
=============================================

A Gaussian e^{-delta |x|^2} maps to a multiple of e^{-|y|^2/(4 delta)}.
This script measures the multiple for a few rates and shows that mehta
normalization pins the fixed point at delta = 1/2.
"""

import numpy as np

from cliffdunkl.cdt_engine import AnalyticField, build_plan, forward
from cliffdunkl.clifford_core import MultiVector, Signature, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit

sig = Signature(0, 2)
ms = MultiplicitySplit((0.3, 0.7), 1)
a = validate_imaginary(MultiVector.blade(sig, "e1"), "e1")
b = validate_imaginary(MultiVector.blade(sig, "e2"), "e2")

# one plan per normalization; L_x generous enough for the widest input
# (delta = 1/4 decays on the scale 2), L_y trimmed to where the narrowest image
# still clears 1e-8
plans = {
    mode: build_plan(sig, ms, a, b, L_x=10.5, L_y=6.5, normalization=mode)
    for mode in ("raw", "mehta")
}

print("image of exp(-delta |x|^2) is C(delta) exp(-|y|^2 / (4 delta)):\n")
print(f"{'delta':>6} {'C raw':>14} {'C mehta':>14} {'shape deviation':>16}")
for delta in (0.25, 0.5, 1.0, 2.0):
    f = AnalyticField(sig, ms, {
        0: lambda x1, x2, d=delta: np.exp(-d * (x1**2 + x2**2)),
    })
    consts = {}
    for mode, plan in plans.items():
        F = forward(f, plan)
        y1, y2 = plan.grid_y.coords()
        ref = np.exp(-(y1**2 + y2**2) / (4.0 * delta))
        scal = F.values[..., 0]
        peak = np.argmax(np.abs(scal))
        consts[mode] = scal.flat[peak] / ref.flat[peak]
        mask = np.abs(scal) >= 1e-8 * np.abs(scal.flat[peak])
        dev = np.max(np.abs(scal[mask] / (consts[mode] * ref[mask]) - 1.0))
    print(f"{delta:6.2f} {consts['raw']:14.8f} {consts['mehta']:14.8f} {dev:16.2e}")

# delta = 1/2 is the fixed point: in mehta normalization the transform
# sends exp(-|x|^2/2) to itself with constant exactly 1
f = AnalyticField(sig, ms, {0: lambda x1, x2: np.exp(-(x1**2 + x2**2) / 2.0)})
F = forward(f, plans["mehta"])
y1, y2 = plans["mehta"].grid_y.coords()
dev = np.max(np.abs(F.values[..., 0] - np.exp(-(y1**2 + y2**2) / 2.0)))
print(f"fixed point check: max |F - f| on the y grid = {dev:.2e}")
