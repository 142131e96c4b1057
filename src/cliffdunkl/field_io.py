"""Field file serialization (JSON) and grid export (CSV).

A field file is a JSON object with `signature` [p, q] (1 <= p + q <= 6),
`kappa` (one value per coordinate), `split`, and a nonempty `blades` map
keyed by blade label.  Analytic files map labels to expression strings
(see field_expr); sampled files instead carry a `grid` object
{L, panels, order} and map labels to nested arrays of finite values of
the grid's shape.  Files are compact single-line strict JSON, written blade
by blade with orjson straight from each blade's array, so only one blade's
text exists at a time.  Floats are emitted as their shortest round-trip
digits (Ryu), so save/load round-trips every finite value bit-exactly.
JSON has no non-finite numbers: a sampled field holding NaN or +-inf raises
field_expr.NonFiniteResult before the file is opened.

CSV is the plotting boundary: one row per node, coordinates first, then
one column per blade (declared blades for analytic fields, blades with any
nonzero sample otherwise).
"""

from __future__ import annotations

import json

import numpy as np
import orjson

from .cdt_engine import AnalyticField, SampledField, _coords, _Owned
from .clifford_core import BladeSyntaxError, Signature, blade_label, parse_blade
from .dunkl_rank1 import MultiplicitySplit
from .field_expr import NonFiniteResult, compile_expr
from .quadrature import build_grid

__all__ = ["SchemaError", "load_field", "save_field", "save_grid_csv"]


class SchemaError(ValueError):
    """Field file violates the schema; `path` names the offending entry."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise SchemaError(f"{path}{key}", "missing")
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{path}{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_header(doc: dict):
    sig_pair = _require(doc, "signature", list, "")
    if len(sig_pair) != 2 or not all(isinstance(v, int) and v >= 0 for v in sig_pair):
        raise SchemaError("signature", "expected [p, q] with nonnegative integers")
    try:
        sig = Signature(*sig_pair)
    except ValueError as e:
        raise SchemaError("signature", str(e)) from e
    kappa = _require(doc, "kappa", list, "")
    if len(kappa) != sig.d or not all(isinstance(v, (int, float)) for v in kappa):
        raise SchemaError("kappa", f"expected {sig.d} numbers")
    split = _require(doc, "split", int, "")
    if not 0 <= split <= sig.d:
        raise SchemaError("split", f"expected 0..{sig.d}")
    try:
        ms = MultiplicitySplit(kappa=tuple(float(k) for k in kappa), split=split)
    except ValueError as e:
        raise SchemaError("kappa", str(e)) from e
    return sig, ms


def _parse_labels(blades: dict, sig: Signature):
    if not blades:
        raise SchemaError("blades", "at least one blade is required")
    masks = {}
    for label in blades:
        try:
            masks[label] = parse_blade(label, sig.d)
        except BladeSyntaxError as e:
            raise SchemaError(f"blades.{label}", str(e)) from e
    return masks


def load_field(path):
    """AnalyticField or SampledField, decided by the presence of `grid`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError("$", f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    sig, ms = _parse_header(doc)
    blades = _require(doc, "blades", dict, "")
    masks = _parse_labels(blades, sig)

    if "grid" not in doc:
        bodies = {}
        for label, text in blades.items():
            if not isinstance(text, str):
                raise SchemaError(f"blades.{label}", "analytic blades must be expression strings")
            try:
                bodies[masks[label]] = compile_expr(text, sig.d)
            except ValueError as e:
                raise SchemaError(f"blades.{label}", str(e)) from e
        return AnalyticField(sig, ms, bodies)

    grid_doc = _require(doc, "grid", dict, "")
    Ls = _require(grid_doc, "L", list, "grid.")
    if len(Ls) != sig.d or not all(isinstance(v, (int, float)) and v > 0 for v in Ls):
        raise SchemaError("grid.L", f"expected {sig.d} positive numbers")
    panels = _require(grid_doc, "panels", int, "grid.")
    order = _require(grid_doc, "order", int, "grid.")
    try:
        grid = build_grid(ms, [float(L) for L in Ls], panels=panels, order=order)
    except ValueError as e:
        raise SchemaError("grid", str(e)) from e
    values = np.zeros((*grid.shape, sig.n_blades))
    for label, samples in blades.items():
        if isinstance(samples, str):
            raise SchemaError(f"blades.{label}", "sampled files cannot mix in expression strings")
        arr = np.asarray(samples, dtype=float)
        if arr.shape != grid.shape:
            raise SchemaError(f"blades.{label}", f"expected shape {grid.shape}, got {arr.shape}")
        if not np.isfinite(arr).all():  # json reads the NaN and Infinity literals
            raise SchemaError(f"blades.{label}", "samples must be finite numbers")
        values[..., masks[label]] = arr
    return SampledField(sig, ms, grid, _Owned(values))


def save_field(field, path):
    """Write `field` as one strict JSON document: the header, then each
    blade's expression or nested values, one blade at a time.  A sampled
    field holding a non-finite value raises NonFiniteResult before `path`
    is opened."""
    if not isinstance(field, (AnalyticField, SampledField)):
        raise TypeError(f"not a field: {field!r}")
    header = {
        "signature": [field.sig.p, field.sig.q],
        "kappa": list(field.ms.kappa),
        "split": field.ms.split,
    }
    if isinstance(field, AnalyticField):
        blades = []
        for mask, body in sorted(field.blades.items()):
            text = getattr(body, "expr_text", None)
            if text is None:
                raise ValueError(
                    f"blade {blade_label(mask)} has an opaque callable; "
                    "only expression-backed analytic fields serialize"
                )
            blades.append((blade_label(mask), text))
    else:
        axes = field.grid.axes
        if any(ax.panels != axes[0].panels or ax.order != axes[0].order for ax in axes):
            raise ValueError("sampled grids must share panels/order across axes")
        header["grid"] = {
            "L": [ax.L for ax in axes],
            "panels": axes[0].panels,
            "order": axes[0].order,
        }
        if not np.isfinite(field.values).all():
            raise NonFiniteResult("field values hold a non-finite number; nothing written")
        nonzero = [m for m in range(field.sig.n_blades) if np.any(field.values[..., m])]
        blades = [(blade_label(m), field.values[..., m]) for m in nonzero or [0]]
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(header)[:-1] + b',"blades":{')
        for i, (label, body) in enumerate(blades):
            if i:
                fh.write(b",")
            fh.write(orjson.dumps(label) + b":")
            if not isinstance(body, str):  # orjson takes only C-contiguous arrays
                body = np.ascontiguousarray(body)
            fh.write(orjson.dumps(body, option=orjson.OPT_SERIALIZE_NUMPY))
        fh.write(b"}}\n")


def save_grid_csv(field, path, grid=None):
    """One row per node: coordinates, then one column per blade."""
    if isinstance(field, AnalyticField):
        if grid is None:
            raise ValueError("analytic fields need an explicit grid for CSV export")
        values = field.sample(grid)
        blades = sorted(field.blades)
    elif isinstance(field, SampledField):
        if grid is not None and grid is not field.grid:
            raise ValueError("sampled fields export on their own grid")
        grid = field.grid
        values = field.values
        blades = [m for m in range(field.sig.n_blades) if np.any(values[..., m])] or [0]
    else:
        raise TypeError(f"not a field: {field!r}")
    coords = [c.ravel() for c in np.broadcast_arrays(*_coords(grid))]
    columns = [values[..., m].ravel() for m in blades]
    header = [f"x{j + 1}" for j in range(len(coords))] + [blade_label(m) for m in blades]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*coords, *columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
