"""Exact arithmetic in the scalar field Q(i, sqrt2).

A Scalar is a + b*sqrt2 + c*i + d*i*sqrt2 with Fraction components, kept in
lowest terms by Fraction itself.  This is the smallest field that contains
the rationals, the 1/sqrt2 appearing in gate entries, and the imaginary
unit needed for complex constant coins.

The same field is Q(z) for z = exp(i*pi/4), z^4 = -1, with sqrt2 = z - z^3,
i = z^2 and i*sqrt2 = z + z^3; to_zeta and from_zeta convert a Scalar to and
from an integer tuple (c0, c1, c2, c3) over one denominator in that basis.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


# one shared zero: most components of the scalars in play are zero
_FRAC_ZERO = Fraction(0)


def _frac(x: int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x if x else _FRAC_ZERO
    if isinstance(x, int):
        return Fraction(x) if x else _FRAC_ZERO
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


MAX_DIGITS = 4300  # bounds the big-int work one literal from outside can ask for

# the literals Fraction(str) takes: n/d, or a decimal with an exponent
_RATIONAL = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)|"
                       r"(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*")


def read_rational(text: str) -> Fraction:
    """The rational that a literal like 3/10, -1/2, 0.3 or 1e-3 stands for,
    in the forms Fraction(str) takes. A literal whose numerator or
    denominator as written passes MAX_DIGITS significant digits is refused
    from the text alone, before any big-int work."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text[:40]!r}")
    sign, num, den, frac, exp = (g.replace("_", "") for g in m.groups(""))
    mant = (num + frac).lstrip("0")
    digits, den = mant.rstrip("0"), (den or "1").lstrip("0")
    e = exp.lstrip("+-0")
    if len(e) > MAX_DIGITS:
        raise ValueError(f"literal has more than {MAX_DIGITS} digits")
    shift = 0  # value = digits * 10**shift / den
    if digits:
        e = -int(e or 0) if exp[:1] == "-" else int(e or 0)
        shift = len(mant) - len(digits) - len(frac) + e
    up, down = max(shift, 0), max(-shift, 0)
    if len(digits) + up > MAX_DIGITS or len(den) + down > MAX_DIGITS:
        raise ValueError(f"literal has more than {MAX_DIGITS} digits")
    return Fraction(int(sign + (digits or "0")) * 10 ** up,
                    int(den or 0) * 10 ** down)


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt2_sign(a: int | Fraction, b: int | Fraction) -> int:
    """Exact sign of a + b*sqrt2 for rational a and b."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: a^2 = 2 b^2 only for a = b = 0, as sqrt2 is irrational
    return 1 if (a * a > 2 * b * b) == (a > 0) else -1


class Scalar:
    """Element a + b*sqrt2 + c*i + d*i*sqrt2 of Q(i, sqrt2)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0,
                 c: int | Fraction = 0, d: int | Fraction = 0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.c = _frac(c)
        self.d = _frac(d)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.a

    # -- field operations --------------------------------------------------

    def __add__(self, other: "Scalar | int | Fraction") -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar(other)
        return Scalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: "Scalar | int | Fraction") -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar(other)
        return Scalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other: "Scalar | int | Fraction") -> "Scalar":
        return Scalar(other) - self

    def __mul__(self, other: "Scalar | int | Fraction") -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        # fast paths for the common shapes (rational, rational+i)
        if not (b1 or c1 or d1):
            if not a1:
                return ZERO
            return Scalar(a1 * a2, a1 * b2, a1 * c2, a1 * d2)
        if not (b2 or c2 or d2):
            if not a2:
                return ZERO
            return Scalar(a1 * a2, b1 * a2, c1 * a2, d1 * a2)
        if not (b1 or d1 or b2 or d2):
            return Scalar(a1 * a2 - c1 * c2, 0, a1 * c2 + c1 * a2, 0)
        return Scalar(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def conj(self) -> "Scalar":
        """Complex conjugate: negates the i and i*sqrt2 components."""
        return Scalar(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("division by zero scalar")
        if not (self.b or self.c or self.d):
            return Scalar(1 / self.a)
        # |z|^2 = u + v*sqrt2 is real and positive; invert it in Q(sqrt2).
        m = self.conj()
        n = self * m
        assert n.is_real()
        u, v = n.a, n.b
        det = u * u - 2 * v * v
        return m * Scalar(u / det, -v / det)

    def __truediv__(self, other: "Scalar | int | Fraction") -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar(other)
        return self * o.inverse()

    def __rtruediv__(self, other: "Scalar | int | Fraction") -> "Scalar":
        return Scalar(other) * self.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order (real elements only) ---------------------------------------

    def sign(self) -> int:
        """Exact sign of a real scalar a + b*sqrt2."""
        if not self.is_real():
            raise ValueError(f"sign of non-real scalar {self}")
        return sqrt2_sign(self.a, self.b)

    def __lt__(self, other: "Scalar | int | Fraction") -> bool:
        o = other if isinstance(other, Scalar) else Scalar(other)
        return (self - o).sign() < 0

    def __le__(self, other: "Scalar | int | Fraction") -> bool:
        o = other if isinstance(other, Scalar) else Scalar(other)
        return (self - o).sign() <= 0

    def __gt__(self, other: "Scalar | int | Fraction") -> bool:
        return not self.__le__(other)

    def __ge__(self, other: "Scalar | int | Fraction") -> bool:
        return not self.__lt__(other)

    # -- evaluation and rendering ------------------------------------------

    def to_complex(self) -> complex:
        s2 = math.sqrt(2.0)
        return complex(float(self.a) + float(self.b) * s2,
                       float(self.c) + float(self.d) * s2)

    def __str__(self) -> str:
        terms: list[str] = []
        for coeff, unit in ((self.a, ""), (self.b, "sqrt2"), (self.c, "i"), (self.d, "i*sqrt2")):
            if coeff == 0:
                continue
            if unit == "":
                terms.append(str(coeff))
            elif coeff == 1:
                terms.append(unit)
            elif coeff == -1:
                terms.append(f"-{unit}")
            else:
                terms.append(f"{coeff}*{unit}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"Scalar({self})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[str]:
        return [str(self.a), str(self.b), str(self.c), str(self.d)]

    @staticmethod
    def from_json(data: list[str]) -> "Scalar":
        """Four rational literals, each a JSON string as to_json writes it."""
        if not isinstance(data, list) or len(data) != 4 \
                or not all(isinstance(part, str) for part in data):
            raise ValueError("a scalar is a list of four rational parts, "
                             "each a string")
        return Scalar(*(read_rational(part) for part in data))


def to_zeta(s: Scalar) -> tuple[tuple[int, int, int, int], int]:
    """(c, den) with s = (c0 + c1*z + c2*z^2 + c3*z^3)/den, z = exp(i*pi/4),
    and den > 0 the least denominator that makes every c_k an integer."""
    a, b, c, d = s.a, s.b, s.c, s.d
    if b or d:
        b, d = b + d, d - b
    den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    return tuple(x.numerator * (den // x.denominator) for x in (a, b, c, d)), den


def from_zeta(c: tuple[int, int, int, int], den: int = 1) -> Scalar:
    """The Scalar (c0 + c1*z + c2*z^2 + c3*z^3)/den, z = exp(i*pi/4)."""
    c0, c1, c2, c3 = c
    return Scalar(Fraction(c0, den), Fraction(c1 - c3, 2 * den),
                  Fraction(c2, den), Fraction(c1 + c3, 2 * den))


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)
I_UNIT = Scalar(0, 0, 1)
HALF_SQRT2 = Scalar(0, Fraction(1, 2))
