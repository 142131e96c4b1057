"""Field file serialization (JSON).

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
field_expr.NonFiniteResult before the file is opened, and the reader
refuses the NaN and Infinity literals and numbers beyond the float range.
"""

from __future__ import annotations

import numpy as np
import orjson

from .cdt_engine import AnalyticField, SampledField
from .clifford_core import BladeSyntaxError, Signature, blade_label, parse_blade
from .dunkl_rank1 import MultiplicitySplit
from .field_expr import NonFiniteResult, compile_expr
from .quadrature import build_grid

__all__ = ["SchemaError", "load_field", "read_json", "save_field"]

_MAX_DEPTH = 32  # arrays and objects a document may nest; a field file needs 2 + d <= 8
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'"[{]}')))  # all but quotes and brackets
_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as int8


class SchemaError(ValueError):
    """Field file violates the schema; `path` names the offending entry."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise SchemaError(f"{path}{key}", "missing")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):  # JSON true is no int
        raise SchemaError(f"{path}{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_header(doc: dict):
    sig_pair = _require(doc, "signature", list, "")
    if len(sig_pair) != 2 or not all(type(v) is int and v >= 0 for v in sig_pair):
        raise SchemaError("signature", "expected [p, q] with nonnegative integers")
    try:
        sig = Signature(*sig_pair)
    except ValueError as e:
        raise SchemaError("signature", str(e)) from e
    kappa = _require(doc, "kappa", list, "")
    if len(kappa) != sig.d or not all(type(v) in (int, float) for v in kappa):  # exact types: true is no number
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


def _depth(data: bytes) -> int:
    """How deep the arrays and objects of a JSON text nest, brackets inside
    strings left out.  Escaped backslashes, then escaped quotes, are dropped
    first, so every quote left opens or closes a string."""
    if b"\\" in data:
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    outside = b"".join(data.translate(None, _NOT_MARKS).split(b'"')[::2])
    steps = np.frombuffer(outside.translate(_STEPS), dtype=np.int8)
    return int(np.cumsum(steps).max(initial=0))


def read_json(path):
    """The JSON document in the file at `path`, read with orjson.

    Raises SchemaError("$", ...) for text that is not strict JSON: invalid
    UTF-8, truncation, the NaN and Infinity literals, numbers beyond the
    float range, and nesting deeper than _MAX_DEPTH, which is checked before
    parsing (orjson builds nested values by recursion on the C stack, and a
    document some 10^5 levels deep overflows it).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if _depth(data) > _MAX_DEPTH:
        raise SchemaError("$", f"arrays and objects nest deeper than {_MAX_DEPTH} levels")
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as e:
        raise SchemaError("$", f"not valid JSON: {e}") from e


def load_field(path):
    """AnalyticField or SampledField, decided by the presence of `grid`."""
    doc = read_json(path)
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
    if len(Ls) != sig.d or not all(type(v) in (int, float) and v > 0 for v in Ls):
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
        try:
            arr = np.asarray(samples, dtype=float)
        except (TypeError, ValueError) as e:  # ragged, or not numbers
            raise SchemaError(f"blades.{label}", f"samples must be a nested array of numbers: {e}") from e
        if arr.shape != grid.shape:
            raise SchemaError(f"blades.{label}", f"expected shape {grid.shape}, got {arr.shape}")
        if not np.isfinite(arr).all():  # null reads as NaN
            raise SchemaError(f"blades.{label}", "samples must be finite numbers")
        values[..., masks[label]] = arr
    return SampledField(sig, ms, grid, values)


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
        L, panels, order = field.grid.spec
        header["grid"] = {"L": list(L), "panels": panels, "order": order}
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
