"""Two-sided Clifford Dunkl transform over Z2-product reflection groups.

Modules:
    clifford_core -- Cl(p,q) blade arithmetic, scalar product, units
    quadrature    -- weighted Gauss rules, panelled grids, integration
    dunkl_rank1   -- rank-one Dunkl kernels, Mehta constants, generalized
                     Hermite family, translation density
    cdt_engine    -- the transforms, inversion, Plancherel/eigen checks,
                     translation, convolution, claims ledger
    miyachi       -- Miyachi trichotomy checker
    field_expr    -- expression mini-language for analytic fields
    field_io      -- JSON field files
    cli           -- command-line driver
"""

from .cdt_engine import (
    AnalyticField,
    ClaimReport,
    SampledField,
    TransformPlan,
    build_plan,
    convolve,
    eigencheck,
    forward,
    forward_left,
    forward_right,
    inverse,
    plancherel_ratio,
    rel_l2_error,
    reports_to_json,
    run_claims_ledger,
    translate_explicit,
    translate_spectral,
)
from .clifford_core import (
    ImaginaryUnit,
    MultiVector,
    Signature,
    validate_imaginary,
)
from .dunkl_rank1 import MultiplicitySplit, eval_kernel_ab, kernel_coefficients, mehta_constant
from .field_expr import compile_expr, eval_expr, parse_expr
from .field_io import load_field, save_field
from .miyachi import MiyachiConfig, MiyachiVerdict, check_growth, check_log, classify, verdict
from .quadrature import TensorGrid, build_grid, integrate, parse_grid_spec

__version__ = "0.1.0"

__all__ = [
    "Signature",
    "MultiVector",
    "ImaginaryUnit",
    "validate_imaginary",
    "MultiplicitySplit",
    "kernel_coefficients",
    "eval_kernel_ab",
    "mehta_constant",
    "TensorGrid",
    "build_grid",
    "integrate",
    "parse_grid_spec",
    "AnalyticField",
    "SampledField",
    "TransformPlan",
    "ClaimReport",
    "build_plan",
    "forward",
    "forward_left",
    "forward_right",
    "inverse",
    "plancherel_ratio",
    "eigencheck",
    "translate_spectral",
    "translate_explicit",
    "convolve",
    "rel_l2_error",
    "run_claims_ledger",
    "reports_to_json",
    "classify",
    "check_growth",
    "check_log",
    "verdict",
    "MiyachiConfig",
    "MiyachiVerdict",
    "parse_expr",
    "eval_expr",
    "compile_expr",
    "load_field",
    "save_field",
]
