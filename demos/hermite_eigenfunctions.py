"""
Hermite products as eigenfunctions
==================================

Products h_v(x1) h_u(x2) of generalized Hermite functions pass through
the transform unchanged up to a constant times (-a)^l(v) (-b)^l(u).
The table below fits that constant for every pair up to level 4 and
prints the residual of the fit.  In mehta normalization the scalar
factor is exactly 1, so the whole spectrum sits on the 4 units
{1, -a, -b, ab} and their opposites.
"""

from cliffdunkl.cdt_engine import build_plan, eigen_fit
from cliffdunkl.clifford_core import MultiVector, Signature, validate_imaginary
from cliffdunkl.dunkl_rank1 import MultiplicitySplit

sig = Signature(0, 2)
ms = MultiplicitySplit((0.3, 0.7), 1)
a = validate_imaginary(MultiVector.blade(sig, "e1"), "e1")
b = validate_imaginary(MultiVector.blade(sig, "e2"), "e2")
plan = build_plan(sig, ms, a, b, L_x=8.0, L_y=8.0, normalization="mehta")

print(f"{'v':>3} {'u':>3} {'lambda':>18} {'direction':>22} {'residual':>10}")
for level in range(5):
    for lv in range(level + 1):
        lu = level - lv
        fit = eigen_fit((lv,), (lu,), plan)
        unit = MultiVector.scalar(sig, 1.0)
        for _ in range(lv):
            unit = unit * (-a.value)
        for _ in range(lu):
            unit = unit * (-b.value)
        resid = max(fit["shape_residual"], fit["unit_residual"])
        print(f"{lv:3d} {lu:3d} {fit['lambda']:18.12f} {str(unit):>22} {resid:10.1e}")

# the eigenvalue pattern follows the levels mod 4 on each side: the
# transform acts like a quarter turn generated by -a on v and -b on u
