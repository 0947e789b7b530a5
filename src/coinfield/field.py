"""Elements r(p) + s(p)*t over the coin parameter, t^2 = p/(1-p).

Membership of a target ratio in this field is exactly what separates
simulable targets from unsimulable ones, so everything here is exact:
polynomial coefficients, no floating point in any decision path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polys import (AlgebraicPoint, Poly, RatFn, ZERO_RF, canonical,
                    multiplicity, zeta_canonical, zeta_parts, zeta_poly)
from .scalars import Scalar, sqrt_fraction
from .zpoly import (Z1, ZNEG1, normal, padd, pair_norm, parts_add, parts_pow,
                    pmul, zconj)

# t^2 = p/(1-p); w = sqrt(p(1-p)) = t*(1-p) is the polynomial-friendly twin
TAU = RatFn(Poly((0, 1)), Poly((1, -1)))
W_SQUARED = Poly((0, 1, -1))

ONE_MINUS_P = Poly((1, -1))
_PZERO = Poly()

# Above this many bits a coefficient is scaled down before it becomes a
# float: a Horner sum of a few hundred terms below 2^961 at |x| < 1 stays
# below 2^1024, where the float range ends.
_FLOAT_BITS = 960


def _times(f: Poly, g: Poly) -> Poly:
    """f*g, skipping a factor that is zero or the constant polynomial 1."""
    if not f or g.is_one():
        return f
    return g if not g or f.is_one() else f * g


def w_mul(a, b):
    """(a0 + a1*w)(b0 + b1*w) as a pair (x, y) of Polys meaning x + y*w,
    with w^2 = p(1-p)."""
    (a0, a1), (b0, b1) = a, b
    return (_times(a0, b0) + _times(_times(a1, b1), W_SQUARED),
            _times(a0, b1) + _times(a1, b0))


def w_norm(a):
    """(a0 + a1*w)(a0 - a1*w) = a0^2 - a1^2*p(1-p) for a pair of Polys;
    nonzero for a nonzero pair, because w is not in the coefficient field."""
    a0, a1 = a
    return a0 * a0 - a1 * a1 * W_SQUARED


class Infinity:
    """Projective point at infinity for amplitude ratios (zero |1> amplitude)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __str__(self) -> str:
        return "inf"


INFINITY = Infinity()


class FieldElem:
    """r + s*t, stored as (A + B*w)/C with polynomial A, B, C over the exact
    scalar field, gcd(A, B, C) = 1 and C monic. Since w is not in the
    coefficient field this form is canonical, so equal elements have equal
    parts. r = A/C and s = B*(1-p)/C are views computed on access."""

    __slots__ = ("A", "B", "C")

    def __init__(self, r: RatFn, s: RatFn = ZERO_RF):
        if s.is_zero():
            # r is already coprime with a monic denominator
            self.A, self.B, self.C = r.num, _PZERO, r.den
            return
        # r + s*t, s*t = s*w/(1-p), as lowering sums it on integers
        (rn, rd, sn, sd), _ = zeta_parts(r.num, r.den, s.num, s.den)
        h = FieldElem.from_zeta(*parts_add((rn, [], rd),
                                           ([], sn, pmul(sd, [Z1, ZNEG1]))))
        self.A, self.B, self.C = h.A, h.B, h.C

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_abc(A: Poly, B: Poly, C: Poly) -> "FieldElem":
        """The element (A + B*w)/C, brought to canonical form by one gcd
        normalisation."""
        if C.is_zero():
            raise ZeroDivisionError("field element with zero denominator")
        C, A, B = canonical(C, A, B)
        return FieldElem.from_canonical(A, B, C)

    @staticmethod
    def from_zeta(A: list, B: list, C: list) -> "FieldElem":
        """(A + B*w)/C of zpoly lists, nonzero C, canonical by one gcd."""
        return _from_normal(*zeta_canonical(C, A, B))

    @staticmethod
    def from_coprime(A: list, B: list, C: list) -> "FieldElem":
        """from_zeta for parts sharing no factor, A or B nonzero: no gcd."""
        return _from_normal(*normal(C, A, B))

    @staticmethod
    def from_canonical(A: Poly, B: Poly, C: Poly) -> "FieldElem":
        """The element (A + B*w)/C from parts already in canonical form,
        taken as they are."""
        h = object.__new__(FieldElem)
        h.A, h.B, h.C = A, B, C
        return h

    @staticmethod
    def const(x: Scalar | int | Fraction) -> "FieldElem":
        return FieldElem(RatFn.const(x))

    @staticmethod
    def coin() -> "FieldElem":
        return FieldElem(ZERO_RF, RatFn.const(1))

    # -- structure ---------------------------------------------------------

    @property
    def r(self) -> RatFn:
        """The rational part A/C; with B = 0, gcd(A, C) = 1 and C is monic."""
        if not self.B:
            return RatFn.from_canonical(self.A, self.C)
        return _ratfn(*self.zeta_view())

    @property
    def s(self) -> RatFn:
        """The t coefficient B*(1-p)/C."""
        return _ratfn(*self.zeta_view(s=True)) if self.B else ZERO_RF

    def zeta_view(self, s: bool = False) -> tuple[list, list]:
        """r, or s when asked, in canonical form as zpoly lists (num, den):
        the Polys are zeta_poly(num, n) and zeta_poly(den, n), n = lc(den).
        With B = 0 the view takes no gcd."""
        if not self.B:
            return ([], [Z1]) if s else zeta_parts(self.A, self.C)[0]
        (num, den), _ = zeta_parts(self.B if s else self.A, self.C)
        den, num = zeta_canonical(den, pmul(num, [Z1, ZNEG1]) if s else num)
        return num, den

    @property
    def parts(self) -> tuple[Poly, Poly, Poly]:
        return self.A, self.B, self.C

    def is_zero(self) -> bool:
        return self.A.is_zero() and self.B.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.A == other.A and self.B == other.B and self.C == other.C

    def __hash__(self) -> int:
        return hash((self.A, self.B, self.C))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations --------------------------------------------------
    # each formula takes no gcd; one from_abc brings its parts to canonical form

    def __add__(self, other: "FieldElem") -> "FieldElem":
        # over the product of the denominators, or their common one
        (a1, b1, c1), (a2, b2, c2) = self.parts, other.parts
        if c1 == c2:
            return FieldElem.from_abc(a1 + a2, b1 + b2, c1)
        return FieldElem.from_abc(_times(a1, c2) + _times(a2, c1),
                                  _times(b1, c2) + _times(b2, c1),
                                  _times(c1, c2))

    def __neg__(self) -> "FieldElem":
        return FieldElem.from_canonical(-self.A, -self.B, self.C)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + (-other)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        return FieldElem.from_abc(*w_mul((self.A, self.B), (other.A, other.B)),
                                  _times(self.C, other.C))

    def inverse(self) -> "FieldElem":
        # C/(A + B*w) = C*(A - B*w) / (A^2 - B^2*w^2)
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero element")
        A, B, C = self.A, self.B, self.C
        if not B:
            # gcd(A, C) = 1 in canonical form, so C/A only needs A monic
            linv = A.leading.inverse()
            return FieldElem.from_canonical(C * linv, B, A * linv)
        return FieldElem.from_abc(_times(C, A), -_times(C, B), w_norm((A, B)))

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElem":
        # raised on integers; gcd(A, C) = 1 gives gcd(A^n, C^n) = 1 when B = 0
        xs = parts_pow(zeta_parts(*self.parts)[0], n)
        if self.B or not self.A:
            return FieldElem.from_zeta(*xs)
        return FieldElem.from_coprime(*xs)

    def conj(self) -> "FieldElem":
        # w is real on (0, 1), so conjugation acts on the coefficients only
        return FieldElem.from_canonical(self.A.conj(), self.B.conj(),
                                        self.C.conj())

    def mod_squared(self) -> "FieldElem":
        return self * self.conj()

    # -- evaluation --------------------------------------------------------

    def eval(self, p0: Fraction | float) -> complex:
        return self.evaluator()(float(p0))

    def evaluator(self):
        """x -> the value at float x in (0, 1), for many x: A, B and C
        become complex coefficient tuples once. When a coefficient is too
        long for a float, all of them are scaled by one common power of two,
        which leaves (A + B*w)/C as it is; unscaled, each value is the one
        Poly.eval_complex gives, by the same operations in the same order."""
        parts = (self.A, self.B, self.C)
        top = max((x.numerator.bit_length() - x.denominator.bit_length()
                   for f in parts for c in f.coeffs
                   for x in (c.a, c.b, c.c, c.d) if x), default=0)
        shift = max(0, top - _FLOAT_BITS)
        s2 = math.sqrt(2.0)

        def flt(x: Fraction) -> float:
            return x.numerator / (x.denominator << shift)

        a, b, c = (tuple(complex(flt(k.a) + flt(k.b) * s2,
                                 flt(k.c) + flt(k.d) * s2)
                         for k in reversed(f.coeffs)) for f in parts)

        def horner(cs: tuple, x: float) -> complex:
            out = 0j
            for k in cs:
                out = out * x + k
            return out

        def at(x: float) -> complex:
            if not 0 < x < 1:
                raise ValueError("coin bias must lie strictly inside (0, 1)")
            cv = horner(c, x)
            if cv == 0:
                raise ZeroDivisionError(f"pole at p = {x}")
            w0 = (x * (1 - x)) ** 0.5
            return (horner(a, x) + horner(b, x) * w0) / cv

        return at

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return format_element(self.r, self.s)

    def __repr__(self) -> str:
        return f"FieldElem({self})"


def format_element(r: RatFn, s: RatFn) -> str:
    """The text of r + s*t, as str of a FieldElem with these views gives it."""
    if s.is_zero():
        return str(r)
    s = str(s)
    if " " in s and not (s.startswith("(") and s.endswith(")")):
        s = f"({s})"
    tpart = "t" if s == "1" else f"{s}*t"
    if r.is_zero():
        return tpart
    return f"{r} + {tpart}"


def _from_normal(C: list, A: list, B: list) -> FieldElem:
    """The element (A + B*w)/C of zpoly lists in zpoly's normal form."""
    n = C[-1][0]
    return FieldElem.from_canonical(*(zeta_poly(f, n) for f in (A, B, C)))


def _ratfn(num: list, den: list) -> RatFn:
    """The RatFn of a canonical zpoly view (num, den)."""
    n = den[-1][0]
    return RatFn.from_canonical(zeta_poly(num, n), zeta_poly(den, n))


FE_ZERO = FieldElem(ZERO_RF)
FE_ONE = FieldElem(RatFn.const(1))


# -- op-style wrappers -----------------------------------------------------

def fe_add(a: FieldElem, b: FieldElem) -> FieldElem:
    return a + b


def fe_mul(a: FieldElem, b: FieldElem) -> FieldElem:
    return a * b


def fe_inv(a: FieldElem) -> FieldElem:
    return a.inverse()


def fe_conj(a: FieldElem) -> FieldElem:
    return a.conj()


def fe_mod_squared(a: FieldElem) -> FieldElem:
    return a.mod_squared()


def fe_eval(a: FieldElem, p0: Fraction | float) -> complex:
    return a.eval(p0)


# -- square roots inside the scalar field ----------------------------------

def sqrt_in_scalar_field(q: Fraction) -> Scalar | None:
    """An exact square root of rational q inside the scalar field, or None.
    Positive reals land on r or r*sqrt2; negatives pick up a factor of i."""
    q = Fraction(q)
    if q < 0:
        inner = sqrt_in_scalar_field(-q)
        return None if inner is None else Scalar(0, 0, inner.a, inner.b)
    r = sqrt_fraction(q)
    if r is not None:
        return Scalar(r)
    r = sqrt_fraction(q / 2)
    if r is not None:
        return Scalar(0, r)
    return None


# -- vanishing orders ------------------------------------------------------

@dataclass(frozen=True)
class OrderResult:
    """Vanishing order at a point plus a certificate that the residual factor
    m(p) is nonzero there: order reads x = (p-z)^order * m(p), m(z) != 0."""
    order: Fraction
    residual: str


def vanishing_order(h: FieldElem, z: Fraction | int | AlgebraicPoint
                    ) -> OrderResult:
    """Order of vanishing at a rational z in [0, 1] or an algebraic point in
    (0, 1); half-integers at the endpoints, negative for poles."""
    if isinstance(z, AlgebraicPoint):
        return vanishing_order_at_point(h, z)
    z = Fraction(z)
    if not 0 <= z <= 1:
        raise ValueError("vanishing orders are read on [0, 1]")
    if 0 < z < 1:
        return vanishing_order_at_point(h, z)
    if h.is_zero():
        raise ValueError("vanishing order of the zero element")
    # w itself vanishes to order 1/2 at each endpoint, and the integer and
    # half-integer contributions can never cancel
    A, B, C = zeta_parts(*h.parts)[0]
    na = multiplicity(A, z)
    nb = multiplicity(B, z)
    if na is None:
        n = Fraction(nb) + Fraction(1, 2)
        why = "A = 0; half-integer order from B alone"
    elif nb is None:
        n = Fraction(na)
        why = "B = 0; integer order from A alone"
    else:
        n = min(Fraction(na), Fraction(nb) + Fraction(1, 2))
        why = (f"min of integer order {na} from A and half-integer "
               f"order {nb} + 1/2 from B; the two kinds cannot cancel")
    return OrderResult(n - multiplicity(C, z), why)


def vanishing_order_at_point(h: FieldElem, pt: Fraction | AlgebraicPoint
                             ) -> OrderResult:
    """Vanishing order at a point of (0, 1), rational or an exactly
    represented algebraic number. A + B*w and A - B*w vanish to orders whose
    sum is the order P of their product A^2 - B^2*p*(1-p); the least of the
    two is the shared order k of A and B, since w is nonzero at the point."""
    if h.is_zero():
        raise ValueError("vanishing order of the zero element")
    A, B, C = zeta_parts(*h.parts)[0]
    k = min(multiplicity(f, pt) for f in (A, B) if f)
    p_ord = multiplicity(pair_norm((A, B)), pt)
    ordC = multiplicity(C, pt)
    if p_ord == 2 * k:
        n = k
        why = (f"shared order {k} in A and B; the conjugate product vanishes "
               f"to exactly 2k = {p_ord}, so both conjugates carry order k")
    else:
        assert p_ord > 2 * k, "conjugate orders cannot undershoot the shared part"
        if isinstance(pt, Fraction):
            m = min(pt, 1 - pt)
            pt = AlgebraicPoint(Poly((-pt, 1)), pt - m / 2, pt + m / 2)
        # decide which of A + B*w, A - B*w carries the excess: compare their
        # moduli near the point via the sign of V = 2*Re(A*conj(B))
        V = pmul(A, [zconj(c) for c in B])
        V = padd(V, [zconj(c) for c in V])
        assert V, "equal moduli would force p_ord == 2k"
        below, above = pt.signs_beside(V)
        n = p_ord - k if (below < 0 and above < 0) else k
        why = (f"conjugate product vanishes to order {p_ord} > 2k = {2 * k}; "
               f"the modulus-comparison sign ({below}, {above}) assigns the "
               f"excess to {'this' if n > k else 'the conjugate'} branch")
    return OrderResult(Fraction(n - ordC), why)
