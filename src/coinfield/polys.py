"""Polynomials and rational functions over the exact scalar field.

Provides the canonical-form arithmetic every decision procedure builds on:
gcd, squarefree decomposition, exact square detection, root counting on
intervals by Descartes' rule of signs, and certified nonnegativity. The
real-root layer runs on a private integer core: a real polynomial becomes a
primitive polynomial over Z, or over Z[sqrt2] when it has a sqrt2 part, once
at entry, and a complex one, or a zpoly list, becomes gcd(Re f, Im f), with
its real roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .scalars import ONE, ZERO, Scalar, from_zeta, sqrt2_sign, to_zeta
from .zpoly import Z1, exquo, gcd, normal, pair_pow


class Poly:
    """Polynomial in p with Scalar coefficients, ascending degree, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Scalar) else Scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(x: Scalar | int | Fraction) -> "Poly":
        return Poly([x])

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == ONE

    @property
    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else ZERO

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def real_part(self) -> "Poly":
        return Poly([Scalar(c.a, c.b) for c in self.coeffs])

    def imag_part(self) -> "Poly":
        return Poly([Scalar(c.c, c.d) for c in self.coeffs])

    def conj(self) -> "Poly":
        return Poly([c.conj() for c in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | Scalar | int | Fraction") -> "Poly":
        if not isinstance(other, Poly):
            s = other if isinstance(other, Scalar) else Scalar(other)
            return Poly([c * s for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, cj in enumerate(self.coeffs):
            if not cj:
                continue
            for k, ck in enumerate(other.coeffs):
                out[j + k] = out[j + k] + cj * ck
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """self^n, by repeated squaring on integers over Z[z]."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        (f,), den = zeta_parts(self)
        return zeta_poly(pair_pow((f, []), n, [])[0], den ** n)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [ZERO] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        linv = other.leading.inverse()
        dn = other.degree
        while True:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < dn:
                break
            k = len(rem) - 1 - dn
            factor = rem[-1] * linv
            q[k] = factor
            for j, c in enumerate(other.coeffs):
                if c:
                    rem[k + j] = rem[k + j] - factor * c
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{other} does not divide {self} exactly")
        return q

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading
        if lc == ONE:
            return self
        linv = lc.inverse()
        return Poly([c * linv for c in self.coeffs])

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, x: Scalar | Fraction | int) -> Scalar:
        xs = x if isinstance(x, Scalar) else Scalar(x)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * xs + c
        return out

    def eval_complex(self, x: complex | float) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * x + c.to_complex()
        return out

    # -- rendering (ascending degree, like 1 - 2*p + p^2) ------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms: list[str] = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cstr = str(c)
            compound = (" + " in cstr) or (" - " in cstr)
            if k == 0:
                terms.append(f"({cstr})" if compound else cstr)
                continue
            power = "p" if k == 1 else f"p^{k}"
            if compound:
                terms.append(f"({cstr})*{power}")
            elif c == ONE:
                terms.append(power)
            elif c == Scalar(-1):
                terms.append(f"-{power}")
            else:
                terms.append(f"{cstr}*{power}")
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"

    def sign_normalized(self) -> "Poly":
        """Unit-normalize a real polynomial so its lowest nonzero coefficient is positive."""
        for c in self.coeffs:
            if c:
                return -self if c.sign() < 0 else self
        return self

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[list[str]]:
        return [c.to_json() for c in self.coeffs]

    @staticmethod
    def from_json(data: list[list[str]]) -> "Poly":
        return Poly([Scalar.from_json(c) for c in data])


P = Poly((0, 1))
ONE_POLY = Poly((1,))


def zeta_parts(*fs: Poly) -> tuple[list[list], int]:
    """The Polys as coefficient lists over Z[z], z = exp(i*pi/4), with one
    positive integer den: f = list/den for each f."""
    cs = [[to_zeta(c) for c in f.coeffs] for f in fs]
    den = math.lcm(*(d for f in cs for _, d in f))
    return [[tuple(x * (den // d) for x in c) for c, d in f] for f in cs], den


def zeta_poly(f: list, den: int = 1) -> Poly:
    """The Poly f/den of a coefficient list over Z[z] and a positive den."""
    return Poly([from_zeta(c, den) for c in f])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor over the scalar field."""
    while not g.is_zero():
        r = f % g
        # monic-izing each remainder keeps coefficient growth in check
        f, g = g, r.monic()
    return f.monic()


def canonical(den: Poly, *nums: Poly) -> tuple[Poly, ...]:
    """The parts of the fraction (nums...)/den, nonzero den, in canonical
    form: all divided by the monic gcd of den and every numerator, then
    scaled so den is monic. Returns (den, *nums). Real parts that need a
    gcd take zeta_canonical on integers; the canonical form is unique, so
    both paths return the same parts."""
    if not any(nums):
        return (ONE_POLY, *nums)
    if den.degree > 0 and any(f.degree > 0 for f in nums) \
            and not any(c.c or c.d for f in (den, *nums) for c in f.coeffs):
        parts = zeta_canonical(*zeta_parts(den, *nums)[0])
        return tuple(zeta_poly(f, parts[0][-1][0]) for f in parts)
    return _canonical_euclid(den, nums)


def _canonical_euclid(den: Poly, nums: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """canonical() by Euclidean gcds over the scalar field."""
    g = den
    for f in nums:
        if g.degree > 0 and f:
            g = poly_gcd(f, g) if f.degree > 0 else ONE_POLY
    parts = (den, *nums)
    if g.degree > 0:
        parts = tuple(f // g for f in parts)
    lc = parts[0].leading
    if lc != ONE:
        linv = lc.inverse()
        parts = tuple(f * linv for f in parts)
    return parts


def zeta_canonical(den: list, *nums: list) -> list[list]:
    """canonical() on zpoly lists: (den, *nums) over their zpoly gcd, in
    zpoly's normal form, so the Polys are zeta_poly(f, n), n = lc(den)."""
    if not any(nums):
        return [[Z1], *nums]
    parts = (den, *nums)
    g = gcd(parts)
    return normal(*(exquo(parts, g)[0] if len(g) > 1 else parts))


class RatFn:
    """Rational function num/den in canonical form: coprime, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE_POLY):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.den, self.num = canonical(den, num)

    @staticmethod
    def from_canonical(num: Poly, den: Poly) -> "RatFn":
        """num/den for coprime num and monic den, taken as they are."""
        f = object.__new__(RatFn)
        f.num, f.den = num, den
        return f

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(x: Scalar | int | Fraction) -> "RatFn":
        return RatFn(Poly.const(x))

    @staticmethod
    def from_poly(f: Poly) -> "RatFn":
        return RatFn(f)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Scalar:
        return self.num.constant_value() / self.den.constant_value()

    def is_real(self) -> bool:
        return self.num.is_real() and self.den.is_real()

    def is_rational(self) -> bool:
        return self.num.is_rational() and self.den.is_rational()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations --------------------------------------------------

    def __add__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFn":
        return RatFn.from_canonical(-self.num, self.den)

    def __sub__(self, other: "RatFn") -> "RatFn":
        return self + (-other)

    def __mul__(self, other: "RatFn | Scalar | int | Fraction") -> "RatFn":
        if not isinstance(other, RatFn):
            return RatFn(self.num * other, self.den)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFn(self.den, self.num)

    def conj(self) -> "RatFn":
        return RatFn(self.num.conj(), self.den.conj())

    def __truediv__(self, other: "RatFn") -> "RatFn":
        return self * other.inverse()

    def __pow__(self, n: int) -> "RatFn":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFn(self.num ** n, self.den ** n)

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, x: Scalar | Fraction | int) -> Scalar:
        d = self.den.eval_exact(x)
        if not d:
            raise ZeroDivisionError(f"pole at p = {x}")
        return self.num.eval_exact(x) / d

    def eval_complex(self, x: complex | float) -> complex:
        d = self.den.eval_complex(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at p = {x}")
        return self.num.eval_complex(x) / d

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        # display-only sign flip for forms like -p/(-1 + p)
        num_p, den_p = self.num, self.den
        if den_p.is_real():
            for c in den_p.coeffs:
                if c:
                    if c.sign() < 0:
                        num_p, den_p = -num_p, -den_p
                    break
        num = str(num_p)
        den = str(den_p)
        if " " in num:
            num = f"({num})"
        if " " in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RatFn({self})"


ZERO_RF = RatFn(Poly())
ONE_RF = RatFn(ONE_POLY)


# -- integer core of the real-root layer ------------------------------------
#
# The real-root layer works on dense coefficient lists, ascending degree, no
# trailing zeros, over Z, or over Z[sqrt2] (_Z2 entries) for a polynomial
# with a sqrt2 part. Everything enters as zpoly lists through _re_im, the one
# split into real and imaginary integer lists: real Polys through int_parts,
# at one common positive scale (for callers that combine them with int_mul
# and int_sub), or _to_int, a primitive positive multiple, so signs and roots
# are those of the Poly; a complex Poly or a zpoly list through _real_core.
# Lists leave through _from_int as monic Polys. Every gcd is primitive, so by
# Gauss's lemma every exact quotient stays integral.


class _Z2:
    """a + b*sqrt2 with int a and b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = a
        self.b = b

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __add__(self, o):
        if type(o) is int:
            return _Z2(self.a + o, self.b)
        return _Z2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return _Z2(-self.a, -self.b)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if type(o) is int:
            return _Z2(self.a * o, self.b * o)
        return _Z2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __floordiv__(self, o):
        """The exact quotient by an int or _Z2 that divides self."""
        if type(o) is int:
            return _Z2(self.a // o, self.b // o)
        n = o.norm()
        return _Z2((self.a * o.a - 2 * self.b * o.b) // n,
                   (self.b * o.a - self.a * o.b) // n)

    def __rfloordiv__(self, o):
        return _Z2(o) // self

    def norm(self) -> int:
        return self.a * self.a - 2 * self.b * self.b


def _sgn(x) -> int:
    return sqrt2_sign(x.a, x.b) if type(x) is _Z2 else (x > 0) - (x < 0)


def _z2_gcd(x: _Z2, y: _Z2) -> _Z2:
    """A gcd in Z[sqrt2] by Euclid: Q(sqrt2) is norm-Euclidean, so the
    rounded quotient leaves a remainder of smaller absolute norm."""
    while y:
        n = y.norm()
        u, v = x.a * y.a - 2 * x.b * y.b, x.b * y.a - x.a * y.b
        if n < 0:
            n, u, v = -n, -u, -v
        q = _Z2((2 * u + n) // (2 * n), (2 * v + n) // (2 * n))
        x, y = y, x - q * y
    return x


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _primitive(f: list) -> list:
    """f divided by a positive content, so it keeps the signs of f."""
    if not any(type(c) is _Z2 for c in f):
        g = math.gcd(*f)
        return f if g <= 1 else [c // g for c in f]
    g = _Z2(0)
    for c in f:
        g = _z2_gcd(g, c if type(c) is _Z2 else _Z2(c))
        if abs(g.norm()) == 1:
            return f
    return [c // (g if _sgn(g) > 0 else -g) for c in f]


def _re_im(fs) -> list[tuple[list, list]]:
    """(Re f, Im f) of each zpoly list f as integer lists at one common
    positive scale, over Z[sqrt2] for all of them when one has a sqrt2
    part, since 2*f = (2*c0 + (c1 - c3)*sqrt2) + i*(2*c2 + (c1 + c3)*sqrt2)."""
    if not any(c1 or c3 for f in fs for _, c1, _, c3 in f):
        return [(_trim([c[0] for c in f]), _trim([c[2] for c in f]))
                for f in fs]
    return [(_trim([_Z2(2 * c0, c1 - c3) for c0, c1, _, c3 in f]),
             _trim([_Z2(2 * c2, c1 + c3) for _, c1, c2, c3 in f]))
            for f in fs]


def int_parts(polys, not_real: str = "") -> list[list]:
    """Real polys as integer lists at one common positive scale, over
    Z[sqrt2] for all of them when one has a sqrt2 part; raises
    ValueError(not_real) for a non-real poly."""
    parts = _re_im(zeta_parts(*polys)[0])
    if any(im for _, im in parts):
        raise ValueError(not_real)
    return [re for re, _ in parts]


def _to_int(f: Poly, not_real: str) -> list:
    """The primitive integer form of real f, a positive multiple of it;
    raises ValueError(not_real) for a non-real f."""
    return _primitive(int_parts((f,), not_real)[0])


def _from_int(f: list) -> Poly:
    """The monic Poly f/lc(f) of a nonzero integer list f."""
    lc = f[-1]
    if type(lc) is int and not any(type(c) is _Z2 for c in f):
        return Poly([Fraction(c, lc) for c in f])
    lc = lc if type(lc) is _Z2 else _Z2(lc)
    n, conj = lc.norm(), _Z2(lc.a, -lc.b)
    return Poly([Scalar(Fraction(x.a, n), Fraction(x.b, n))
                 for x in (conj * c for c in f)])


def _deriv(f: list) -> list:
    return [k * c for k, c in enumerate(f) if k]


def int_sub(f: list, g: list) -> list:
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _trim([x - y for x, y in zip(f, g)])


def int_mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for j, x in enumerate(f):
        if x:
            for k, y in enumerate(g):
                out[j + k] += x * y
    return out


def _prem(f: list, g: list) -> list:
    """The remainder of f by nonzero g times a power of lc(g)."""
    lc, dg = g[-1], len(g) - 1
    r = list(f)
    while len(r) > dg:
        c, k = r[-1], len(r) - 1 - dg
        r = [x * lc for x in r]
        for j, y in enumerate(g):
            r[k + j] -= c * y
        r.pop()
        _trim(r)
    return r


def _gcd(f: list, g: list) -> list:
    """A primitive gcd over Q (or Q(sqrt2)), by the primitive PRS."""
    f, g = _primitive(f), _primitive(g)
    while g:
        f, g = g, _primitive(_prem(f, g))
    return f


def _exquo(f: list, g: list) -> list:
    """f / g for g dividing f; integral for primitive g (Gauss's lemma)."""
    r = list(f)
    dg = len(g) - 1
    q = [0] * max(0, len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dg] // g[-1]
        if c:
            for j, y in enumerate(g):
                r[k + j] -= c * y
    return q


def _sqf(f: list) -> list:
    """The squarefree part of f."""
    g = _gcd(f, _deriv(f))
    return _exquo(f, g) if len(g) > 1 else f


def _odd_part(f: list) -> list:
    """f over the square of the root of its even part: the product of its
    factors of odd multiplicity, times a constant, with the sign of f
    wherever f is not 0."""
    root = [1]
    for a, m in _yun(f):
        for _ in range(m // 2):
            root = int_mul(root, a)
    return _exquo(f, int_mul(root, root)) if len(root) > 1 else f


def _sign_at(f: list, x: Fraction) -> int:
    """Sign of f(x), by Horner on the homogenised d^deg * f(n/d)."""
    n, d = x.numerator, x.denominator
    v, dk = 0, 1
    for c in reversed(f):
        v = v * n + c * dk
        dk *= d
    return _sgn(v)


def _deflate(f: list, x: Fraction) -> tuple[int, list]:
    """(m, q) with f = (d*p - n)^m * q, x = n/d and q(x) != 0, for nonzero f,
    by synthetic division."""
    n, d = x.numerator, x.denominator
    m = 0
    while not _sign_at(f, x):
        q = [0] * (len(f) - 1)
        r = f[-1]
        for k in range(len(f) - 2, -1, -1):
            q[k] = r // d
            r = f[k] + n * q[k]
        f, m = q, m + 1
    return m, f


def _yun(f: list) -> list[tuple[list, int]]:
    """Yun's squarefree factors (a_i, i) of f = c * prod a_i^i, nonconstant
    a_i only. b and d share one scale, which the identities need, so they
    are divided only by primitive gcds."""
    df = _deriv(f)
    g = _gcd(f, df)
    b = _exquo(f, g)
    d = int_sub(_exquo(df, g), _deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _exquo(b, a)
        d = int_sub(_exquo(d, a), _deriv(b))
        i += 1
    return out


# -- Descartes' rule of signs on cells ---------------------------------------
#
# A cell (lo, hi) of f is the integer list g(y) = c * f(lo + (hi - lo) * y),
# c > 0, over Z or Z[sqrt2] like f. The sign variations v of
# (1 + x)^n * g(1/(1 + x)), whose positive roots are those of g in (0, 1),
# bound the roots of f in the open cell, counted with multiplicity, and
# share their parity (Descartes): v = 0 means none, v = 1 one simple root.
# Bisection halves g and shifts the upper half (Collins & Akritas). A root
# of even multiplicity keeps v >= 2 around it, so a cell still open after
# _STALL bisections goes on with f's squarefree or odd part, whose cells
# all close.

_STALL = 2


def _taylor1(b: list) -> list:
    """b(x + 1), in place, for b with descending coefficients: each pass of
    prefix sums is one synthetic division by x - 1."""
    for m in range(len(b), 1, -1):
        b[:m] = accumulate(b[:m])
    return b


def _cell(f: list, lo: Fraction, hi: Fraction) -> list:
    """The cell (lo, hi) of nonzero f: g(y) = d^n * f((P + W*y)/d) with
    lo = P/d and hi = (P + W)/d, the sum of f_k * d^(n-k) * (P + W*y)^k.
    Scaling f_k by P^k makes the shift by P a shift by 1; the j-th
    coefficient is then divided by P^j, exactly, and scaled by W^j."""
    d = math.lcm(lo.denominator, hi.denominator)
    P = lo.numerator * (d // lo.denominator)
    W = hi.numerator * (d // hi.denominator) - P
    n = len(f) - 1
    g = [c * d ** (n - k) * (P or W) ** k for k, c in enumerate(f)]
    if P:
        g = [c // P ** j * W ** j
             for j, c in enumerate(_taylor1(g[::-1])[::-1])]
    return g


def _halves(g: list) -> tuple[list, list]:
    """The cells of the lower and upper half of g's cell: 2^n * g(y/2) and
    2^n * g((1 + y)/2), each divided by its content."""
    n = len(g) - 1
    lower = _primitive([c * 2 ** (n - j) for j, c in enumerate(g)])
    return lower, _primitive(_taylor1(lower[::-1])[::-1])


def _descartes(g: list) -> tuple[int, int]:
    """(v, s): the sign variations v of g's cell, and the sign s that, for
    v = 0, f has throughout the open cell."""
    signs = [s for s in map(_sgn, _taylor1(list(g))) if s]
    return sum(a != b for a, b in zip(signs, signs[1:])), signs[0]


def _walk(f: list, a: Fraction, b: Fraction, part):
    """(v, s) for each cell of (a, b) that Descartes' rule settles for
    nonzero f, v <= 1, and (0, the sign of f there) for the midpoint of each
    bisected cell. A cell still open after _STALL bisections goes on with
    part(f), taken once."""
    sub = None
    cells = [(a, b, _cell(f, a, b), 0)]
    while cells:
        lo, hi, g, depth = cells.pop()
        v, s = _descartes(g)
        if v < 2:
            yield v, s
        elif depth == _STALL:
            sub = sub or part(f)
            cells.append((lo, hi, _cell(sub, lo, hi), depth + 1))
        else:
            lower, upper = _halves(g)
            yield 0, _sgn(upper[0])
            mid = (lo + hi) / 2
            cells += [(lo, mid, lower, depth + 1), (mid, hi, upper, depth + 1)]


def _count_open(f: list, a: Fraction, b: Fraction) -> int:
    """Distinct roots of nonzero f in the open interval (a, b): v in each
    settled cell and one at each midpoint that is a root, with a stalled
    cell counted on f's squarefree part."""
    return sum(v + (not s) for v, s in _walk(f, a, b, _sqf))


def _grid(f: list) -> int:
    """k with every rational root of f in (1/k)Z. A root n/d in lowest terms
    has d | lc in Z[sqrt2] (rational root theorem), so d divides both parts
    of lc."""
    lc = f[-1]
    return abs(lc) if type(lc) is int else math.gcd(lc.a, lc.b)


def _root_bound(f: list) -> int:
    """An int B > |z| for every complex root z of f: the Cauchy bound
    1 + max |c/lc|, with |a + b*sqrt2| <= |a| + 2|b| and
    1/|lc| = |conj(lc)|/|norm(lc)|."""
    def up(c):
        return abs(c) if type(c) is int else abs(c.a) + 2 * abs(c.b)
    lc = f[-1]
    norm = lc * lc if type(lc) is int else lc.norm()
    return 2 + max(up(c) for c in f) * up(lc) // abs(norm)


# -- squarefree decomposition (Yun's algorithm) ----------------------------

def squarefree_decompose(f: Poly) -> tuple[Scalar, list[tuple[Poly, int]]]:
    """f = lc * prod(factor^mult) with monic, squarefree, pairwise coprime factors."""
    fi = _to_int(f, "squarefree decomposition requires real coefficients")
    if f.is_zero():
        return ZERO, []
    return f.leading, [(_from_int(g), m) for g, m in _yun(fi)]


@dataclass(frozen=True)
class SquareTest:
    """Outcome of testing f = num/den for being an exact square:
    f = lc_ratio * (half[0]/half[1])^2 * (the product of odd_factors made
    monic, each in num or den), half[0]/half[1] the ratio of two monic
    roots. The lists are over Z. f is a square up to lc_ratio exactly when
    odd_factors is empty."""
    odd_factors: tuple[list, ...]
    lc_ratio: Fraction
    half: tuple[list, list]


def square_test(num: list, den: list) -> SquareTest:
    """The odd-multiplicity factors of f = num/den, for coprime integer
    lists and nonzero den, split at their rational roots, and the root half
    of f's even part, from one squarefree factorisation of each list."""
    if not num:
        return SquareTest((), Fraction(0), ([], [1]))
    odd, half = [], []
    for g in (num, den):
        root = [1]
        for a, m in _yun(g):
            if m % 2:
                odd += _split_roots(a)
            for _ in range(m // 2):
                root = int_mul(root, a)
        half.append(root)
    hn, hd = half
    return SquareTest(tuple(odd), Fraction(num[-1], den[-1]),
                      ([c * hd[-1] for c in hn], [c * hn[-1] for c in hd]))


# -- root counts and certified sign conditions -----------------------------

def sturm_count(f: Poly, a: Fraction | int, b: Fraction | int) -> int:
    """Number of distinct real roots of f in the open interval (a, b),
    counted by Descartes' rule of signs on a bisection of it."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    if f.is_zero():
        raise ValueError("root counting on the zero polynomial")
    return _count_open(_to_int(f, "root counting requires real coefficients"),
                       a, b)


def certify_nonneg(f: Poly, a: Fraction | int, b: Fraction | int) -> bool:
    """Certified f >= 0 throughout [a, b]: each cell that Descartes' rule
    settles holds no root and has a positive sign, f is not negative at any
    midpoint, and so, by continuity, not at a or b."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    if f.is_zero():
        return True
    return certify_nonneg_int(
        _to_int(f, "nonnegativity certification requires real coefficients"),
        a, b)


def certify_nonneg_int(fi: list, a: Fraction, b: Fraction) -> bool:
    """certify_nonneg for an integer list fi over Z or Z[sqrt2], at any
    positive scale, and rational a < b."""
    if not fi:
        return True
    # f >= 0 on a settled cell when v = 0 and its sign is positive (v = 1
    # is a sign change), and at a midpoint when f is not negative there; a
    # stalled cell goes on with f's odd part, whose sign changes are f's
    return all(v == 0 and s >= 0 for v, s in _walk(fi, a, b, _odd_part))


# -- root isolation and rational-point recognition -------------------------

def _peel_rational_roots(f: list, a: Fraction, b: Fraction
                         ) -> tuple[list[Fraction], list]:
    """The rational roots of squarefree f in (a, b), f(a)f(b) != 0, sorted,
    and f with them divided out. Each interval holding two or more roots is
    bisected, testing its midpoint. In one that holds one root, f changes
    sign there: a binary search over the grid (1/k)Z that holds every
    rational root finds the first grid point where f's sign is not f(lo)'s,
    the only candidate."""
    k = _grid(f)
    roots: list[Fraction] = []
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        n = _count_open(f, lo, hi)
        if n == 1:
            s, i, j = _sign_at(f, lo), math.floor(lo * k) + 1, math.ceil(hi * k)
            while i < j:
                m = (i + j) // 2
                i, j = (m + 1, j) if _sign_at(f, Fraction(m, k)) == s else (i, m)
            z = Fraction(i, k)
            if z >= hi:
                continue
        elif n:
            z = (lo + hi) / 2
            stack += [(lo, z), (z, hi)]
        else:
            continue
        if not _sign_at(f, z):
            roots.append(z)
            f = _deflate(f, z)[1]
    return sorted(roots), f


class AlgebraicPoint:
    """A real algebraic number held exactly, as a value: a squarefree integer
    polynomial with exactly one root in the open isolating interval
    (lo, hi), which never has a root of it at an end. Nothing changes a
    point once it is built; refine returns a narrower one."""

    __slots__ = ("_f", "lo", "hi")

    def __init__(self, g: Poly, lo: Fraction, hi: Fraction):
        f = _sqf(_to_int(g, "defining polynomial must be real"))
        lo, hi = Fraction(lo), Fraction(hi)
        if _sign_at(f, lo) * _sign_at(f, hi) >= 0:
            raise ValueError("interval endpoints must straddle a sign change")
        if _count_open(f, lo, hi) != 1:
            raise ValueError("interval must isolate exactly one root")
        self._f, self.lo, self.hi = f, lo, hi

    @staticmethod
    def _of(f: list, lo: Fraction, hi: Fraction) -> "AlgebraicPoint":
        """The point of squarefree f that (lo, hi) isolates, unchecked."""
        pt = AlgebraicPoint.__new__(AlgebraicPoint)
        pt._f, pt.lo, pt.hi = f, lo, hi
        return pt

    @property
    def g(self) -> Poly:
        """The defining polynomial."""
        return _from_int(self._f)

    def approx(self) -> float:
        pt = self
        for _ in range(80):
            if pt.hi - pt.lo < Fraction(1, 10 ** 18):
                break
            pt = pt.refine()
        return float((pt.lo + pt.hi) / 2)

    def refine(self) -> "AlgebraicPoint":
        """The same point on the half of the interval that holds it, or on
        the middle half when the midpoint is the point itself."""
        f, lo, hi = self._f, self.lo, self.hi
        mid = (lo + hi) / 2
        s = _sign_at(f, mid)
        if not s:
            return AlgebraicPoint._of(f, (lo + mid) / 2, (mid + hi) / 2)
        if s * _sign_at(f, lo) > 0:
            return AlgebraicPoint._of(f, mid, hi)
        return AlgebraicPoint._of(f, lo, mid)

    def signs_beside(self, v) -> tuple[int, int]:
        """The signs of nonzero real v, a Poly or a zpoly list, just below
        and just above the point, read at the 1/16 points of a narrower copy
        whose interval holds no other root of v (v*f has one root in it) and
        whose 1/16 points lie on either side of the point."""
        v = _to_int(v, "signs require real coefficients") \
            if isinstance(v, Poly) else _real_core(v)
        f, pt = self._f, self
        vf = int_mul(v, f)
        while _count_open(vf, pt.lo, pt.hi) > 1:
            pt = pt.refine()
        while True:
            step = (pt.hi - pt.lo) / 16
            below, above = pt.lo + step, pt.hi - step
            if _sign_at(f, below) == _sign_at(f, pt.lo) == -_sign_at(f, above):
                return _sign_at(v, below), _sign_at(v, above)
            pt = pt.refine()

    def _multiplicity(self, q: list) -> int:
        """Multiplicity of this point as a root of nonzero integer list q."""
        m = 0
        while len(q) > 1 and _count_open(_gcd(self._f, q), self.lo, self.hi):
            m, q = m + 1, _deriv(q)
        return m

    def __repr__(self) -> str:
        return f"AlgebraicPoint({self.g}, ({self.lo}, {self.hi}))"


def _real_core(f) -> list:
    """gcd(Re f, Im f) as an integer list, or the nonzero part, for a nonzero
    Poly or zpoly list f: a real point is a root of f exactly when it is one
    of both parts, so it has f's real roots, with their multiplicities."""
    if isinstance(f, Poly):
        f = zeta_parts(f)[0][0]
    (re, im), = _re_im((f,))
    if not (re and im):
        return _primitive(re or im)
    return _gcd(re, im)


def multiplicity(f, at: Fraction | AlgebraicPoint) -> int | None:
    """The multiplicity of the real point at as a root of f (a Poly or a
    list over Z[z]), complex or real. None for f = 0."""
    if not f:
        return None
    if isinstance(at, AlgebraicPoint):
        return at._multiplicity(_real_core(f))
    return _deflate(_real_core(f), Fraction(at))[0]


def isolate_roots(f, a: Fraction | int, b: Fraction | int
                  ) -> tuple[list[Fraction], list[AlgebraicPoint]]:
    """Distinct real roots of f (a Poly or a list over Z[z]) in (a, b): exact
    rational roots, plus AlgebraicPoint handles for the irrational ones."""
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("need a <= b")
    if not f:
        raise ValueError("root isolation on the zero polynomial")
    fs = _sqf(_real_core(f))
    fs = _deflate(_deflate(fs, a)[1], b)[1]
    exact, fs = _peel_rational_roots(fs, a, b)
    if len(fs) <= 1:
        return exact, []
    # every rational root is peeled, so no midpoint is a root of fs
    stack = [(a, b)]
    intervals: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi = stack.pop()
        n = _count_open(fs, lo, hi)
        if n == 0:
            continue
        if n == 1:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))

    intervals.sort()
    return exact, [AlgebraicPoint._of(fs, lo, hi) for lo, hi in intervals]


def _rational_roots(f: list) -> list[Fraction]:
    bound = Fraction(_root_bound(f))
    return _peel_rational_roots(_sqf(f), -bound, bound)[0]


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of a nonzero real polynomial."""
    if f.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    return _rational_roots(_to_int(f, "rational roots require real coefficients"))


def split_rational_roots(g: Poly) -> list[Poly]:
    """Split monic real g into linear factors (p - z) for its rational roots
    plus whatever remains; enough granularity for readable diagnoses."""
    return [_from_int(f) for f in
            _split_roots(_to_int(g, "rational roots require real coefficients"))]


def _split_roots(f: list) -> list[list]:
    """split_rational_roots for a nonzero integer list f, as integer lists:
    [-n, d] for a rational root n/d, then whatever remains."""
    out: list[list] = []
    for z in _rational_roots(f):
        m, f = _deflate(f, z)
        out += [[-z.numerator, z.denominator]] * m
    if len(f) > 1:
        out.append(f)
    return out
