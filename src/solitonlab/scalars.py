"""Exact scalar carriers: rationals, Gaussian rationals, residues mod p, and
their text encoding.

Plain rationals are stdlib ``Fraction`` values (always lowest terms, positive
denominator).  Gaussian rationals are pairs of fractions ``re + im*i`` with
``i*i = -1`` exact.  Residues are integers modulo the fixed prime
``PRIME = 2**31 - 1``; a rational reduces to one when its denominator is
prime to ``PRIME``.  Arithmetic mod p is exact, but a zero there is evidence,
not a proof, that the rational value is zero.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "GAUSSIAN_I",
    "PRIME",
    "Residue",
    "parse_rational",
    "parse_gaussian",
    "format_gaussian",
]


class GaussianRational:
    """A number a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is already in lowest terms: store it as is
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def reciprocal(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to the rational re when im == 0, so hash like it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


GAUSSIAN_I = GaussianRational(0, 1)

# 2**31 - 1 = 3 mod 4, so -1 is not a square mod PRIME: there is no i.
PRIME = 2**31 - 1


class Residue:
    """An integer modulo PRIME, stored as its residue ``v`` in [0, PRIME).

    A Fraction reduces through its denominator's inverse, and raises
    ValueError when PRIME divides the denominator.
    """

    __slots__ = ("v",)

    def __init__(self, value=0):
        if isinstance(value, Fraction):
            if value.denominator % PRIME == 0:
                raise ValueError(f"{value} has no residue modulo {PRIME}")
            value = value.numerator * pow(value.denominator, -1, PRIME)
        object.__setattr__(self, "v", value % PRIME)

    def __setattr__(self, name, value):
        raise AttributeError("Residue is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, Residue):
            return other
        if isinstance(other, (int, Fraction)):
            return Residue(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return Residue(-self.v)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self.v - o.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Residue(self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.v:
            raise ZeroDivisionError("division by zero residue")
        return Residue(self.v * pow(o.v, -1, PRIME))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.v == o.v

    def __bool__(self):
        return bool(self.v)

    def __repr__(self):
        return f"Residue({self.v})"

    def __str__(self):
        return str(self.v)


_RAT = r"[+-]?\d+(?:/\d+)?"
_GAUSS_RE = re.compile(
    rf"^(?P<re>{_RAT})?(?P<im>(?:(?<=\d)[+-]|^[+-]?)(?:\d+(?:/\d+)?\*)?i)?$"
)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction, by the grammar a Gaussian
    rational's parts follow: no decimal point, exponent or underscore."""
    s = text.strip().replace(" ", "")
    if not re.fullmatch(_RAT, s):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(s)


def parse_gaussian(text: str) -> GaussianRational:
    """Parse "p/q+r/s*i" (also "p/q", "i", "-i", "r/s*i") exactly."""
    s = text.strip().replace(" ", "")
    m = _GAUSS_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"not a Gaussian rational: {text!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_txt = m.group("im")
    if im_txt is None:
        return GaussianRational(re_part)
    im_txt = im_txt[:-1]  # strip trailing 'i'
    if im_txt.endswith("*"):
        im_txt = im_txt[:-1]
    if im_txt in ("", "+"):
        im_part = Fraction(1)
    elif im_txt == "-":
        im_part = Fraction(-1)
    else:
        im_part = Fraction(im_txt)
    return GaussianRational(re_part, im_part)


def format_gaussian(z: GaussianRational) -> str:
    """Render canonically: "p/q", "p/q+r/s*i", or "p/q-r/s*i"."""
    if z.im == 0:
        return str(z.re)
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}*i"
