"""Real Clifford algebra Cl(p,q) on d = p+q anticommuting generators.

Multivectors are stored densely: 2^d real coefficients indexed by a d-bit
blade mask (bit j-1 set means generator e_j is present; mask 0 is the
scalar blade).  Generators square to +1 for j <= p and to -1 for j > p,
and distinct generators anticommute.  All operations are pure; coefficient
arrays are frozen after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Signature",
    "MultiVector",
    "ImaginaryUnit",
    "SignatureMismatch",
    "SquareNotMinusOne",
    "BladeSyntaxError",
    "blade_label",
    "parse_blade",
    "product_sign",
    "structure_tensor",
    "scalar_product",
    "modulus",
    "validate_imaginary",
]

_MAX_D = 6  # the dense structure tensor (8^d floats) serves every product


class SignatureMismatch(ValueError):
    pass


class SquareNotMinusOne(ValueError):
    def __init__(self, square: "MultiVector"):
        self.square = square
        super().__init__(f"square is {square}, expected -1")


class BladeSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class Signature:
    """Metric signature: p generators squaring to +1, then q squaring to -1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("p and q must be nonnegative")
        if not 1 <= self.d <= _MAX_D:
            raise ValueError(f"need 1 <= p+q <= {_MAX_D}, got {self.d}")

    @property
    def d(self) -> int:
        return self.p + self.q

    @property
    def n_blades(self) -> int:
        return 1 << self.d

    @property
    def neg_mask(self) -> int:
        """Bit mask of the generators with eta_jj = -1 (j > p)."""
        return ((1 << self.d) - 1) ^ ((1 << self.p) - 1)


def blade_label(mask: int) -> str:
    """Canonical text form of a blade mask: "1", "e12", or "e{1,12}"."""
    if mask == 0:
        return "1"
    gens = [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]
    if gens[-1] <= 9:
        return "e" + "".join(str(g) for g in gens)
    return "e{" + ",".join(str(g) for g in gens) + "}"


def parse_blade(text: str, d: int) -> int:
    """Parse a blade label back to a mask; generators must be ascending."""
    if text == "1":
        return 0
    if not text.startswith("e") or len(text) < 2:
        raise BladeSyntaxError(f"bad blade label {text!r}")
    if text[1] == "{":
        if not text.endswith("}"):
            raise BladeSyntaxError(f"unterminated brace in {text!r}")
        parts = text[2:-1].split(",")
    else:
        parts = list(text[1:])
    mask = 0
    prev = 0
    for part in parts:
        if not part.isdigit():
            raise BladeSyntaxError(f"bad generator {part!r} in {text!r}")
        g = int(part)
        if g <= prev:
            raise BladeSyntaxError(f"generators must ascend in {text!r}")
        if g > d:
            raise BladeSyntaxError(f"generator e{g} outside dimension {d}")
        prev = g
        mask |= 1 << (g - 1)
    return mask


def product_sign(a: int, b: int, neg_mask: int) -> int:
    """Sign of e_A e_B relative to e_(A xor B).

    Counts the transpositions needed to interleave the two ascending blades,
    then applies the metric sign of every repeated generator.
    """
    t = a >> 1
    swaps = 0
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    if (a & b & neg_mask).bit_count() & 1:
        swaps += 1
    return -1 if swaps & 1 else 1


@lru_cache(maxsize=16)
def structure_tensor(sig: Signature) -> np.ndarray:
    """Dense tensor S with S[i,j,k] = sign such that e_i e_j = S[i,j,i^j] e_(i^j).

    The product of coefficient arrays is einsum('...i,...j,ijk->...k', A, B, S).
    """
    n = sig.n_blades
    S = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            S[a, b, a ^ b] = product_sign(a, b, sig.neg_mask)
    S.flags.writeable = False
    return S


class MultiVector:
    """Element of Cl(p,q): immutable dense blade-coefficient vector."""

    __slots__ = ("sig", "coeff")

    def __init__(self, sig: Signature, coeff):
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (sig.n_blades,):
            raise ValueError(f"expected {sig.n_blades} coefficients, got {coeff.shape}")
        coeff = coeff.copy()
        coeff.flags.writeable = False
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeff", coeff)

    def __setattr__(self, name, value):
        raise AttributeError("MultiVector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "MultiVector":
        c = np.zeros(sig.n_blades)
        c[0] = value
        return cls(sig, c)

    @classmethod
    def blade(cls, sig: Signature, label_or_mask, value: float = 1.0) -> "MultiVector":
        mask = (
            label_or_mask
            if isinstance(label_or_mask, int)
            else parse_blade(label_or_mask, sig.d)
        )
        if not 0 <= mask < sig.n_blades:
            raise ValueError(f"blade mask {mask} out of range for d={sig.d}")
        c = np.zeros(sig.n_blades)
        c[mask] = value
        return cls(sig, c)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiVector"):
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = MultiVector.scalar(self.sig, other)
        self._check(other)
        return MultiVector(self.sig, self.coeff + other.coeff)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = MultiVector.scalar(self.sig, other)
        self._check(other)
        return MultiVector(self.sig, self.coeff - other.coeff)

    def __neg__(self):
        return MultiVector(self.sig, -self.coeff)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return MultiVector(self.sig, self.coeff * other)
        self._check(other)
        S = structure_tensor(self.sig)
        return MultiVector(self.sig, np.einsum("...i,...j,ijk->...k", self.coeff, other.coeff, S))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return MultiVector(self.sig, self.coeff * other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = MultiVector.scalar(self.sig, 1.0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MultiVector)
            and self.sig == other.sig
            and np.array_equal(self.coeff, other.coeff)
        )

    def __hash__(self):
        return hash((self.sig, self.coeff.tobytes()))

    def __repr__(self):
        terms = []
        for mask in range(self.sig.n_blades):
            c = self.coeff[mask]
            if c != 0.0:
                terms.append(f"{c:g}*{blade_label(mask)}" if mask else f"{c:g}")
        body = " + ".join(terms) if terms else "0"
        return f"MultiVector(Cl({self.sig.p},{self.sig.q}): {body})"


def scalar_product(m: MultiVector, n: MultiVector) -> float:
    """Componentwise blade pairing sum_A M_A N_A, which equals the scalar
    part <M N~>_0 of M times the principal reverse of N."""
    if m.sig != n.sig:
        raise SignatureMismatch(f"{m.sig} vs {n.sig}")
    return float(np.dot(m.coeff, n.coeff))


def modulus(m: MultiVector) -> float:
    return math.sqrt(scalar_product(m, m))


@dataclass(frozen=True)
class ImaginaryUnit:
    """A multivector whose exact square is the scalar -1."""

    value: MultiVector
    label: str

    @property
    def sig(self) -> Signature:
        return self.value.sig


def validate_imaginary(m: MultiVector, label: str = "") -> ImaginaryUnit:
    """Check m*m == -1 exactly and wrap m as a usable transform unit."""
    sq = m * m
    expected = np.zeros(m.sig.n_blades)
    expected[0] = -1.0
    if not np.array_equal(sq.coeff, expected):
        raise SquareNotMinusOne(sq)
    return ImaginaryUnit(m, label or repr(m))
