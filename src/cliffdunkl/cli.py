"""Command line driver.

Exit codes: 0 success, 2 usage error (including a non-finite or
out-of-range numeric flag), 3 input/schema error (field file or verify
config), 4 numerical failure (kernel radius, node cap, a Mehta
constant that underflows, other overflow), 5 claims ledger ran but
flagged at least one claim (data, not a crash -- scripts branch on it).

Field files are authoritative for signature/kappa/split and a sampled
file for its grid; the --sig/--kappa/--split/--in-grid flags are
cross-checks (--sig and --kappa are required where there is no file to
read them from).  A command accepts only the flags it reads, spelled in
full.  Grid SPEC syntax is "-L:L:panels:order" per coordinate, separated
by ";"; one spec broadcasts to all coordinates.  A grid has one panels
and order, shared by the input and output grids (one plan covers both
sides), and holds at most NODE_CAP values, nodes times blades, and
NODE_CAP values per axis, (panels x order)^2, on every route.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .cdt_engine import (
    AnalyticField,
    PlanMismatch,
    SampledField,
    ZeroNormField,
    build_plan,
    convolve,
    eigen_indices,
    eigencheck,
    forward,
    inverse,
    plancherel_ratio,
    rel_l2_error,
    reports_to_json,
    run_claims_ledger,
    translate_explicit,
    translate_spectral,
)
from .clifford_core import (
    BladeSyntaxError,
    MultiVector,
    Signature,
    SquareNotMinusOne,
    validate_imaginary,
)
from .dunkl_rank1 import (
    ArgumentOutOfRadius,
    MultiplicitySplit,
    eval_kernel_ab,
    kernel_coefficients,
)
from .field_expr import DepthExceeded, ExprSyntaxError, NonFiniteResult, UnknownCoordinate
from .field_io import SchemaError, load_field, read_json, save_field
from .miyachi import MiyachiConfig, verdict, verdict_to_json
from .quadrature import NodeCountExceeded, build_grid, parse_grid_spec


class _Usage(Exception):
    pass


_INPUT_ERRORS = (
    SchemaError, ExprSyntaxError, UnknownCoordinate, DepthExceeded,
    BladeSyntaxError, SquareNotMinusOne, PlanMismatch,
    FileNotFoundError, IsADirectoryError,
)
_NUMERIC_ERRORS = (
    ArgumentOutOfRadius, NodeCountExceeded,
    NonFiniteResult, ZeroNormField, OverflowError, FloatingPointError,
)
_DEFAULT_GRID = "-6:6:1:48"


def _floats(text: str, flag: str):
    try:
        values = [float(v) for v in text.split(",")]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise _Usage(f"{flag} wants comma-separated finite numbers, got {text!r}")


def _ints(text: str, flag: str):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise _Usage(f"{flag} wants comma-separated integers, got {text!r}") from None


def _sig_pair(text: str):
    pq = _ints(text, "--sig")
    if len(pq) != 2:
        raise _Usage(f"--sig wants P,Q, got {text!r}")
    return tuple(pq)


def _header_from_flags(args):
    if args.sig is None or args.kappa is None:
        raise _Usage("this command needs --sig and --kappa")
    kappa = _floats(args.kappa, "--kappa")
    try:
        sig = Signature(*_sig_pair(args.sig))
        if len(kappa) != sig.d:
            raise _Usage(f"--kappa wants {sig.d} values for --sig {args.sig}")
        split = sig.d // 2 if args.split is None else args.split
        return sig, MultiplicitySplit(tuple(kappa), split)
    except ValueError as e:
        raise _Usage(str(e)) from None


def _load(args):
    field = load_field(args.field)
    if args.sig is not None:
        p, q = _sig_pair(args.sig)
        if (p, q) != (field.sig.p, field.sig.q):
            raise SchemaError("signature", f"field file says ({field.sig.p},{field.sig.q}), --sig says ({p},{q})")
    if args.kappa is not None:
        kappa = _floats(args.kappa, "--kappa")
        if tuple(kappa) != field.ms.kappa:
            raise SchemaError("kappa", f"field file says {field.ms.kappa}, --kappa says {tuple(kappa)}")
    if args.split is not None and args.split != field.ms.split:
        raise SchemaError("split", f"field file says {field.ms.split}, --split says {args.split}")
    return field


def _analytic(field, message: str):
    if not isinstance(field, AnalyticField):
        raise SchemaError("blades", message)
    return field


def _grid_spec(text: str, d: int, flag: str):
    try:
        return parse_grid_spec(text, d)
    except ValueError as e:
        raise _Usage(f"{flag} {e}") from None


def _in_spec(args, d, field=None):
    """The input grid spec: --in-grid, or a sampled field's own grid, which
    a given --in-grid must match."""
    spec = _grid_spec(args.in_grid or _DEFAULT_GRID, d, "--in-grid")
    if not isinstance(field, SampledField):
        return spec
    if args.in_grid is not None and spec != field.grid.spec:
        raise SchemaError("grid", f"field file says {field.grid.spec}, --in-grid says {spec}")
    return field.grid.spec


def _sides(args, d, field=None):
    """(input spec, --out-grid spec), which share panels and order."""
    x = _in_spec(args, d, field)
    y = _grid_spec(args.out_grid, d, "--out-grid")
    if x[1:] != y[1:]:
        source = "the field file's grid" if isinstance(field, SampledField) else "--in-grid"
        raise _Usage(f"{source} and --out-grid must agree on panels and order")
    return x, y


def _plan(args, sig, ms, x, y):
    (L_x, panels, order), (L_y, _, _) = x, y
    a = validate_imaginary(MultiVector.blade(sig, args.a), args.a)
    b = validate_imaginary(MultiVector.blade(sig, args.b), args.b)
    return build_plan(
        sig, ms, a, b, L_x=L_x, L_y=L_y, panels=panels, order=order,
        normalization=args.norm,
    )


def _emit(field, args, label):
    save_field(field, args.out)
    norm = math.sqrt(field.norm2())
    print(f"{label}: wrote {args.out} ({field.grid.n_nodes} nodes, |.|_2 = {norm:.6g})")
    return 0


def _cmd_transform(args):
    f = _load(args)
    plan = _plan(args, f.sig, f.ms, *_sides(args, f.sig.d, f))
    return _emit(forward(f, plan), args, "transform")


def _cmd_inverse(args):
    F = _load(args)
    y, x = _sides(args, F.sig.d, F)
    plan = _plan(args, F.sig, F.ms, x, y)
    return _emit(inverse(F, plan), args, "inverse")


def _cmd_roundtrip(args):
    f = _load(args)
    plan = _plan(args, f.sig, f.ms, *_sides(args, f.sig.d, f))
    want = f if isinstance(f, SampledField) else SampledField(
        f.sig, f.ms, plan.grid_x, f.sample(plan.grid_x))
    back = inverse(forward(want, plan), plan)
    err = rel_l2_error(back, want)
    print(f"roundtrip relative L2 error: {err:.6e}")
    if args.out:
        save_field(back, args.out)
    return 0


def _cmd_plancherel(args):
    f = _load(args)
    plan = _plan(args, f.sig, f.ms, *_sides(args, f.sig.d, f))
    report = plancherel_ratio(f, plan)
    print(f"plancherel ratio |F|^2/|f|^2 = {report.measured_value!r}")
    print(
        f"claim {report.claim}: asserted {report.paper_value!r}, measured "
        f"{report.measured_value!r} [{report.status}]"
    )
    return 0


def _cmd_eigencheck(args):
    sig, ms = _header_from_flags(args)
    try:
        v, u = eigen_indices(_ints(args.v, "--v"), _ints(args.u, "--u"), ms)
    except ValueError as e:
        raise _Usage(str(e)) from None
    plan = _plan(args, sig, ms, *_sides(args, sig.d))
    report = eigencheck(v, u, plan)
    print(
        f"eigencheck v={list(v)} u={list(u)}: asserted {report.paper_value!r}, measured "
        f"{report.measured_value!r}, ratio {report.ratio!r} [{report.status}]"
    )
    return 0


def _cmd_translate(args):
    f = _load(args)
    z = _floats(args.z, "--z")
    if len(z) != f.sig.d:
        raise _Usage(f"--z wants {f.sig.d} values")
    if args.method == "explicit":
        shifted = translate_explicit(_analytic(f, "explicit translation needs an analytic field"), tuple(z), f.ms)
        grid = build_grid(f.ms, *_in_spec(args, f.sig.d, f))
        out = SampledField(f.sig, f.ms, grid, shifted.sample(grid))
    else:
        out = translate_spectral(f, tuple(z), _plan(args, f.sig, f.ms, *_sides(args, f.sig.d, f)))
    return _emit(out, args, f"translate[{args.method}]")


def _cmd_convolve(args):
    f = _load(args)
    g = load_field(args.field2)
    plan = _plan(args, f.sig, f.ms, *_sides(args, f.sig.d, f))
    return _emit(convolve(f, g, plan), args, "convolve")


def _cmd_miyachi(args):
    f = _analytic(_load(args), "miyachi needs an analytic field: it samples the field on every rung")
    ladder = _floats(args.ladder, "--ladder")
    try:
        cfg = MiyachiConfig(
            alpha=args.alpha, beta=args.beta, lam=args.lam,
            exponent=args.exponent, ladder=tuple(ladder),
        )
    except ValueError as e:
        raise _Usage(str(e)) from None
    x = _in_spec(args, f.sig.d, f)
    plan = _plan(args, f.sig, f.ms, x, ((cfg.ladder[-1],) * f.sig.d, *x[1:]))
    text = verdict_to_json(verdict(f, cfg, plan))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"miyachi: wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_verify(args):
    config = read_json(args.config) if args.config else None
    try:
        reports = run_claims_ledger(config)
    except _NUMERIC_ERRORS:
        raise
    except (TypeError, ValueError) as e:  # the config is the only input
        raise SchemaError("config", str(e)) from e
    text = reports_to_json(reports)
    flagged = [r.claim for r in reports if r.status == "flagged"]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"{len(reports)} claims measured, {len(flagged)} flagged"
          + (": " + ", ".join(flagged) if flagged else ""), file=sys.stderr)
    return 5 if flagged else 0


def _cmd_kernel(args):
    if not (0.0 <= args.kappa < math.inf and math.isfinite(args.t)):
        raise _Usage(f"kernel wants a finite --kappa >= 0 and a finite --t, "
                     f"got {args.kappa!r} and {args.t!r}")
    table = kernel_coefficients(args.kappa, t_max=max(abs(args.t), 1.0))
    A, B = eval_kernel_ab(table, args.t)
    print(f"A = {float(A)!r}")
    print(f"B = {float(B)!r}")
    return 0


def _add_common(sp, *, field=True, out=True, out_required=False, out_grid=True):
    if field:
        sp.add_argument("--field", required=True, help="field file (JSON)")
    sp.add_argument("--sig", help="P,Q (cross-check when --field is given)")
    sp.add_argument("--kappa", help="K1,...,Kd")
    sp.add_argument("--split", type=int, help="coordinates in the first block (default d//2)")
    sp.add_argument("--a", default="e1", help="left unit blade (default e1)")
    sp.add_argument("--b", default="e2", help="right unit blade (default e2)")
    sp.add_argument("--in-grid", help="-L:L:panels:order[;...] (default: a sampled file's grid, else -6:6:1:48)")
    if out_grid:
        sp.add_argument("--out-grid", default=_DEFAULT_GRID, help="-L:L:panels:order[;...]")
    sp.add_argument("--norm", choices=("raw", "mehta"), default="raw")
    if out:
        sp.add_argument("--out", required=out_required, help="output field file")


@functools.lru_cache(maxsize=None)  # built once per process; parse_args leaves it unchanged
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cliffdunkl",
        description="Two-sided Clifford Dunkl transform: compute, invert, and verify.",
        allow_abbrev=False,
    )
    # no prefix matching: --out would otherwise be read as --out-grid where
    # a command has no --out
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    sp = sub.add_parser("transform", help="forward transform of a field file")
    _add_common(sp, out_required=True)
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("inverse", help="inverse transform (input is frequency-side)")
    _add_common(sp, out_required=True)
    sp.set_defaults(func=_cmd_inverse)

    sp = sub.add_parser("roundtrip", help="forward+inverse, print relative L2 error")
    _add_common(sp)
    sp.set_defaults(func=_cmd_roundtrip)

    sp = sub.add_parser("plancherel", help="squared-norm ratio and claim comparison")
    _add_common(sp, out=False)
    sp.set_defaults(func=_cmd_plancherel)

    sp = sub.add_parser("eigencheck", help="Hermite eigenfunction check")
    _add_common(sp, field=False, out=False)
    sp.add_argument("--v", required=True, help="first-block Hermite indices")
    sp.add_argument("--u", required=True, help="second-block Hermite indices")
    sp.set_defaults(func=_cmd_eigencheck)

    sp = sub.add_parser("translate", help="generalized translation of a field")
    _add_common(sp, out_required=True)
    sp.add_argument("--z", required=True, help="Z1,...,Zd")
    sp.add_argument("--method", choices=("spectral", "explicit"), default="spectral")
    sp.set_defaults(func=_cmd_translate)

    sp = sub.add_parser("convolve", help="generalized convolution of two fields")
    _add_common(sp, out_required=True)
    sp.add_argument("--field2", required=True, help="second field file (JSON)")
    sp.set_defaults(func=_cmd_convolve)

    sp = sub.add_parser("miyachi", help="uncertainty trichotomy verdict (JSON)")
    _add_common(sp, out_grid=False)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--ladder", default="2,3,4,5", help="L1,L2,... (strictly increasing)")
    sp.add_argument("--exponent", type=float, default=2.0, help="n in [1, inf]; 'inf' accepted")
    sp.set_defaults(func=_cmd_miyachi)

    sp = sub.add_parser("verify", help="run the claims ledger, write ClaimReport JSON")
    sp.add_argument("--config", help="JSON overriding ledger defaults")
    sp.add_argument("--out", help="report file (default stdout)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("kernel", help="print one-dimensional kernel components (A, B)")
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.set_defaults(func=_cmd_kernel)

    return ap


# flags whose values legitimately start with "-" (grid specs, negative
# coordinates); fold them into --flag=value so argparse keeps them as values
_DASH_VALUE_FLAGS = {"--in-grid", "--out-grid", "--z", "--t", "--ladder"}


def _bind_dash_values(argv):
    out, it = [], iter(argv)
    for tok in it:
        if tok in _DASH_VALUE_FLAGS:
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_bind_dash_values(argv))
    try:
        # numpy's float warnings would only repeat what the finite checks report
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except _Usage as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
