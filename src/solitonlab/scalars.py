"""Exact scalar carriers: rationals, Gaussian rationals, and their text encoding.

Plain rationals are stdlib ``Fraction`` values (always lowest terms, positive
denominator).  Gaussian rationals are pairs of fractions ``re + im*i`` with
``i*i = -1`` exact.  Complex ``float`` values are allowed only as a diagnostic
scalar mode; they never participate in exactness claims.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "GAUSSIAN_I",
    "parse_rational",
    "parse_gaussian",
    "format_rational",
    "format_gaussian",
]


class GaussianRational:
    """A number a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

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

_RAT = r"[+-]?\d+(?:/\d+)?"
_GAUSS_RE = re.compile(
    rf"^(?P<re>{_RAT})?(?P<im>(?:(?<=\d)[+-]|^[+-]?)(?:\d+(?:/\d+)?\*)?i)?$"
)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction."""
    return Fraction(text.strip().replace(" ", ""))


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


def format_rational(x: Fraction) -> str:
    return str(x)


def format_gaussian(z: GaussianRational) -> str:
    """Render canonically: "p/q", "p/q+r/s*i", or "p/q-r/s*i"."""
    if z.im == 0:
        return str(z.re)
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}*i"
