"""
Generalized translation, two ways
=================================

The translation tau_z is defined spectrally (multiply by kernel values
at z, invert) but rank-one theory also gives an explicit integral
formula per coordinate.  Both are computed here and compared; the
kappa = 0 column degenerates to the classical shift f(x - z).

Convolution f * g = integral f(z) tau_z g dmu inherits the Gaussian
closed form at kappa = 0: two unit Gaussians convolve to
(pi/2) e^{-|x|^2/2}.
"""

import numpy as np

from cliffdunkl.cdt_engine import (
    AnalyticField,
    SampledField,
    build_plan,
    convolve,
    rel_l2_error,
    translate_explicit,
    translate_spectral,
)
from cliffdunkl.clifford_core import MultiVector, Signature, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit

sig = Signature(0, 2)
a = validate_imaginary(MultiVector.blade(sig, "e1"), "e1")
b = validate_imaginary(MultiVector.blade(sig, "e2"), "e2")
z = (0.6, -0.4)

print(f"translating exp(-|x|^2) by z = {z}:\n")
print(f"{'kappa':>12} {'spectral vs explicit':>22}")
for kappa in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.3, 0.7)):
    ms = MultiplicitySplit(kappa, 1)
    plan = build_plan(sig, ms, a, b, L_x=6.5, L_y=9.0)
    f = AnalyticField(sig, ms, {0: lambda x1, x2: np.exp(-(x1**2 + x2**2))})
    spec = translate_spectral(f, z, plan)
    expl = translate_explicit(f, z, ms)
    expl_s = SampledField(sig, ms, plan.grid_x, expl.sample(plan.grid_x))
    print(f"{str(kappa):>12} {rel_l2_error(spec, expl_s):22.2e}")

# at kappa = 0 the translate is literally a shift; verify at the corner
ms0 = MultiplicitySplit((0.0, 0.0), 1)
plan0 = build_plan(sig, ms0, a, b, L_x=6.5, L_y=9.0)
f0 = AnalyticField(sig, ms0, {0: lambda x1, x2: np.exp(-(x1**2 + x2**2))})
got = translate_spectral(f0, z, plan0)
x1, x2 = plan0.grid_x.coords()
shifted = np.exp(-((x1 - z[0])**2 + (x2 - z[1])**2))
print(f"\nkappa = 0 shift residual: {np.max(np.abs(got.values[..., 0] - shifted)):.2e}")

# convolution against the classical closed form
plan_c = build_plan(sig, ms0, a, b, L_x=7.0, L_y=7.0)
conv = convolve(f0, f0, plan_c)
x1, x2 = plan_c.grid_x.coords()
want = (np.pi / 2.0) * np.exp(-(x1**2 + x2**2) / 2.0)
err = np.max(np.abs(conv.values[..., 0] - want)) / np.max(want)
print(f"gaussian self-convolution vs (pi/2) e^(-|x|^2/2): {err:.2e}")
