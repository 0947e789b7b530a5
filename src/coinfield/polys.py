"""Polynomials and rational functions over the exact scalar field.

Provides the canonical-form arithmetic every decision procedure builds on:
gcd, squarefree decomposition, exact square detection, Sturm-sequence root
counting on intervals, and certified nonnegativity.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction

from .scalars import ONE, ZERO, Scalar, sqrt_fraction


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
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs) if k > 0])

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

    def deflate(self, z: Fraction | int) -> tuple[int, "Poly"]:
        """(m, q) with self = (p - z)^m * q and q(z) != 0: the multiplicity
        of z as a root and the cofactor. Requires a nonzero polynomial."""
        if self.is_zero():
            raise ValueError("deflating the zero polynomial")
        divisor = Poly([-Fraction(z), 1])
        m, q = 0, self
        while not q.eval_exact(z):
            q = q // divisor
            m += 1
        return m, q

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


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor over the scalar field."""
    while not g.is_zero():
        r = f % g
        # monic-izing each remainder keeps coefficient growth in check
        f, g = g, r.monic()
    return f.monic()


def gcd_many(polys: list[Poly]) -> Poly:
    out = Poly()
    for f in polys:
        out = poly_gcd(out, f) if not out.is_zero() else f.monic() if not f.is_zero() else out
    return out


def canonical(den: Poly, *nums: Poly) -> tuple[Poly, ...]:
    """The parts of the fraction (nums...)/den, nonzero den, in canonical
    form: all divided by the monic gcd of den and every numerator, then
    scaled so den is monic. Returns (den, *nums)."""
    if not any(nums):
        return (ONE_POLY, *nums)
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


class RatFn:
    """Rational function num/den in canonical form: coprime, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE_POLY):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.den, self.num = canonical(den, num)

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
        return RatFn(-self.num, self.den)

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

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data: dict) -> "RatFn":
        return RatFn(Poly.from_json(data["num"]), Poly.from_json(data["den"]))


ZERO_RF = RatFn(Poly())
ONE_RF = RatFn(ONE_POLY)


# -- squarefree decomposition (Yun's algorithm) ----------------------------

def squarefree_decompose(f: Poly) -> tuple[Scalar, list[tuple[Poly, int]]]:
    """f = lc * prod(factor^mult) with monic, squarefree, pairwise coprime factors."""
    if not f.is_real():
        raise ValueError("squarefree decomposition requires real coefficients")
    if f.is_zero():
        return ZERO, []
    lc = f.leading
    if f.is_constant():
        return lc, []
    F = f.monic()
    d0 = poly_gcd(F, F.derivative())
    b = F // d0
    c = F.derivative() // d0
    d = c - b.derivative()
    i = 1
    out: list[tuple[Poly, int]] = []
    while b.degree > 0:
        a_i = poly_gcd(b, d)
        if a_i.degree > 0:
            out.append((a_i, i))
        b = b // a_i
        c = d // a_i
        d = c - b.derivative()
        i += 1
    return lc, out


@dataclass(frozen=True)
class SquareTest:
    """Outcome of testing a rational function for being an exact square."""
    root: "RatFn | None"
    odd_factors: tuple[Poly, ...]
    lc_ratio: Fraction | None
    lc_is_square: bool

    @property
    def is_square(self) -> bool:
        return self.root is not None


def square_test(f: RatFn) -> SquareTest:
    """Test f = q^2 for a rational function q over the plain rationals."""
    if not f.is_rational():
        raise ValueError("square detection supports rational coefficients only")
    if f.is_zero():
        return SquareTest(ZERO_RF, (), Fraction(0), True)
    ln, nf = squarefree_decompose(f.num)
    ld, df = squarefree_decompose(f.den)
    odd = tuple(piece for g, m in nf + df if m % 2 == 1
                for piece in split_rational_roots(g))
    lc_ratio = ln.as_fraction() / ld.as_fraction()
    lcroot = sqrt_fraction(lc_ratio)
    if odd or lcroot is None:
        return SquareTest(None, odd, lc_ratio, lcroot is not None)
    num = Poly.const(lcroot)
    for g, m in nf:
        num = num * g ** (m // 2)
    den = ONE_POLY
    for g, m in df:
        den = den * g ** (m // 2)
    root = RatFn(num, den)
    assert root * root == f
    return SquareTest(root, (), lc_ratio, True)


def is_square(f: RatFn) -> RatFn | None:
    """The rational-function square root of f, or None if no exact root exists."""
    return square_test(f).root


# -- Sturm sequences and certified sign conditions -------------------------

def _squarefree_part(f: Poly) -> Poly:
    g = poly_gcd(f, f.derivative())
    return (f // g).monic() if g.degree > 0 else f.monic()


def _root_counter(fs: Poly):
    """count(x, y): the number of distinct roots of squarefree real fs in
    (x, y], for x not a root, by Sturm's theorem on a chain built once."""
    chain = [fs]
    r = fs.derivative()
    while r:
        # scale by a positive unit only: sign pattern must survive
        chain.append(r * r.leading.abs_real().inverse())
        r = -(chain[-2] % chain[-1])

    def variations(x: Fraction) -> int:
        signs = [s for s in (f.eval_exact(x).sign() for f in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return lambda x, y: variations(x) - variations(y)


def sturm_count(f: Poly, a: Fraction | int, b: Fraction | int) -> int:
    """Number of distinct real roots of f in the open interval (a, b)."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    if f.is_zero():
        raise ValueError("root counting on the zero polynomial")
    if not f.is_real():
        raise ValueError("root counting requires real coefficients")
    fs = _squarefree_part(f).deflate(a)[1].deflate(b)[1]
    return _root_counter(fs)(a, b)


def certify_nonneg(f: Poly, a: Fraction | int, b: Fraction | int) -> bool:
    """Certified f >= 0 throughout [a, b]: no interior odd-multiplicity root
    and nonnegative values at the endpoints and a non-root sample point."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    if f.is_zero():
        return True
    if not f.is_real():
        raise ValueError("nonnegativity certification requires real coefficients")
    _, factors = squarefree_decompose(f)
    odd = ONE_POLY
    for g, m in factors:
        if m % 2 == 1:
            odd = odd * g
    if odd.degree > 0 and sturm_count(odd, a, b) > 0:
        return False
    if f.eval_exact(a).sign() < 0 or f.eval_exact(b).sign() < 0:
        return False
    denom = 16
    while True:
        for k in range(1, denom):
            s = a + (b - a) * Fraction(k, denom)
            v = f.eval_exact(s)
            if v:
                return v.sign() > 0
        denom *= 4
        assert denom <= 4 ** 12, "sample scan failed to find a non-root point"


# -- root isolation and rational-point recognition -------------------------

def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction with smallest denominator strictly inside (lo, hi)."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    fl = lo.numerator // lo.denominator
    if fl + 1 < hi:
        return Fraction(fl + 1)
    frac_lo = lo - fl
    frac_hi = hi - fl
    if frac_lo == 0:
        # smallest q with 1/q < frac_hi
        q = (Fraction(1) / frac_hi).__floor__() + 1
        return fl + Fraction(1, q)
    inner = simplest_between(1 / frac_hi, 1 / frac_lo)
    return fl + 1 / inner


def _find_rational_root(fs: Poly, a: Fraction, b: Fraction) -> Fraction | None:
    """One rational root of squarefree fs in (a, b), or None if none is
    recognized (denominators beyond the bisection budget count as none)."""
    count = _root_counter(fs)
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        n = count(lo, hi)
        if n == 0:
            continue
        if n > 1:
            mid = (lo + hi) / 2
            if not fs.eval_exact(mid):
                return mid
            stack.append((lo, mid))
            stack.append((mid, hi))
            continue
        for _ in range(96):
            cand = simplest_between(lo, hi)
            if not fs.eval_exact(cand):
                return cand
            mid = (lo + hi) / 2
            if not fs.eval_exact(mid):
                return mid
            if count(lo, mid) == 1:
                hi = mid
            else:
                lo = mid
    return None


def _peel_rational_roots(fs: Poly, a: Fraction, b: Fraction
                         ) -> tuple[list[Fraction], Poly]:
    """The rational roots of squarefree fs in (a, b) that _find_rational_root
    recognizes, sorted, and fs with them divided out. Roots are peeled one
    at a time so later bisection midpoints can be nudged off any root that
    remains."""
    roots: list[Fraction] = []
    while not fs.is_constant():
        z = _find_rational_root(fs, a, b)
        if z is None:
            break
        roots.append(z)
        fs = fs.deflate(z)[1]
    return sorted(roots), fs


class AlgebraicPoint:
    """A real algebraic number held exactly: a squarefree real polynomial with
    exactly one root in the open isolating interval (lo, hi)."""

    __slots__ = ("g", "lo", "hi")

    def __init__(self, g: Poly, lo: Fraction, hi: Fraction):
        if not g.is_real():
            raise ValueError("defining polynomial must be real")
        self.g = _squarefree_part(g)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.g.eval_exact(self.lo).sign() * self.g.eval_exact(self.hi).sign() >= 0:
            raise ValueError("interval endpoints must straddle a sign change")
        if sturm_count(self.g, self.lo, self.hi) != 1:
            raise ValueError("interval must isolate exactly one root")

    def approx(self) -> float:
        pt = copy.copy(self)
        for _ in range(80):
            if pt.hi - pt.lo < Fraction(1, 10 ** 18):
                break
            pt.refine()
        return float((pt.lo + pt.hi) / 2)

    def refine(self) -> None:
        mid = (self.lo + self.hi) / 2
        v = self.g.eval_exact(mid)
        if not v:
            # the isolated root turned out to be mid itself; keep it interior
            width = (self.hi - self.lo) / 4
            self.lo, self.hi = mid - width, mid + width
            return
        if v.sign() * self.g.eval_exact(self.lo).sign() > 0:
            self.lo = mid
        else:
            self.hi = mid

    def point_beside(self, side: int) -> Fraction:
        """A rational point strictly between the root and lo (side < 0) or
        hi (side > 0)."""
        end = self.lo if side < 0 else self.hi
        end_sign = self.g.eval_exact(end).sign()
        for denom in (16, 256, 4096, 65536):
            ks = range(1, denom) if side < 0 else range(denom - 1, 0, -1)
            for k in ks:
                u = self.lo + (self.hi - self.lo) * Fraction(k, denom)
                if self.g.eval_exact(u).sign() == end_sign:
                    return u
        raise AssertionError("no rational point found beside the root")

    def is_root_of(self, q: Poly) -> bool:
        """Does q (real coefficients) vanish at this point?"""
        if q.is_zero():
            return True
        if not q.is_real():
            raise ValueError("root test requires real coefficients")
        shared = poly_gcd(self.g, _squarefree_part(q))
        if shared.is_constant():
            return False
        return sturm_count(shared, self.lo, self.hi) >= 1

    def multiplicity_in(self, q: Poly) -> int | None:
        """Multiplicity of this point as a root of real q; None means q == 0."""
        if q.is_zero():
            return None
        m = 0
        deriv = q
        while not deriv.is_constant() and self.is_root_of(deriv):
            m += 1
            deriv = deriv.derivative()
        return m

    def multiplicity_in_complex(self, q: Poly) -> int | None:
        """Multiplicity in a complex-coefficient polynomial (None for q == 0)."""
        if q.is_zero():
            return None
        return min(self.multiplicity_in(part)
                   for part in (q.real_part(), q.imag_part()) if part)

    def sign_of(self, q: Poly) -> int:
        """Exact sign of real q at this point."""
        if self.is_root_of(q):
            return 0
        if q.is_constant():
            return q.eval_exact(0).sign()
        qs = _squarefree_part(q)
        while sturm_count(qs, self.lo, self.hi) > 0:
            self.refine()
        mid = (self.lo + self.hi) / 2
        v = q.eval_exact(mid)
        while not v:
            self.refine()
            mid = (self.lo + self.hi) / 2
            v = q.eval_exact(mid)
        return v.sign()

    def __repr__(self) -> str:
        return f"AlgebraicPoint({self.g}, ({self.lo}, {self.hi}))"


def isolate_roots(f: Poly, a: Fraction | int, b: Fraction | int
                  ) -> tuple[list[Fraction], list[AlgebraicPoint]]:
    """Distinct real roots of f in (a, b): exact rational roots, plus
    AlgebraicPoint handles for the irrational ones."""
    a, b = Fraction(a), Fraction(b)
    fs = _squarefree_part(f).deflate(a)[1].deflate(b)[1]
    exact, fs = _peel_rational_roots(fs, a, b)
    if fs.is_constant():
        return exact, []
    count = _root_counter(fs)

    def nonroot_near(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
        step = (hi - lo) / 1024
        while not fs.eval_exact(x):
            x = x + step
            step = step / 2
        return x

    stack = [(a, b)]
    intervals: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi = stack.pop()
        n = count(lo, hi)
        if n == 0:
            continue
        if n == 1:
            intervals.append((lo, hi))
            continue
        mid = nonroot_near((lo + hi) / 2, lo, hi)
        stack.append((lo, mid))
        stack.append((mid, hi))

    intervals.sort()
    return exact, [AlgebraicPoint(fs, lo, hi) for lo, hi in intervals]


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of a nonzero real polynomial."""
    if f.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    fs = _squarefree_part(f)
    # overestimated Cauchy bound of monic fs: only guides the search, every
    # candidate gets an exact evaluation check before acceptance
    bound = Fraction(int(2 + 2 * max(abs(c.to_complex()) for c in fs.coeffs)))
    return _peel_rational_roots(fs, -bound, bound)[0]


def split_rational_roots(g: Poly) -> list[Poly]:
    """Split monic g into linear factors (p - z) for its rational roots plus
    whatever remains; enough granularity for readable diagnoses."""
    out: list[Poly] = []
    for z in rational_roots(g):
        m, g = g.deflate(z)
        out += [Poly([-z, 1])] * m
    if g.degree > 0:
        out.append(g)
    return out
