"""Surface syntax for target amplitude ratios.

Grammar (precedence high to low: ^, unary -, * /, + -):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := atom ('^' ['-'] int)?
    atom   := int | 'p' | 'i' | 'sqrt2' | 't' | 'sqrt' '(' expr ')' | '(' expr ')'

Expressions nest at most MAX_DEPTH levels, counting each operator, sqrt and
pair of parentheses, and an integer has at most scalars.MAX_DIGITS
significant digits. Lowering refuses each part it builds whose degree
passes MAX_DEGREE, and, before raising it, a power whose base's degree or
integers would pass MAX_DEGREE or MAX_POWER_BITS. Rational literals like
3/4 come out of the division operator. sqrt(...) is only accepted during
lowering when its argument is an exact square (possibly after dividing by
p/(1-p)); everything else is reported as outside the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import FieldElem, sqrt_in_scalar_field
from .polys import (Poly, RatFn, _from_int, _sign_at, int_mul, square_test,
                    zeta_canonical, zeta_parts, zeta_poly)
from .scalars import MAX_DIGITS, to_zeta
from .zpoly import (Z0, Z1, ZNEG1, parts_add, parts_inverse, parts_mul,
                    parts_pow, pscale)

__all__ = [
    "Expr", "RationalConst", "I", "Sqrt2", "P", "T", "Add", "Sub", "Mul",
    "Div", "Pow", "Sqrt", "ParseError", "NotInFieldError", "DegreeLimitError",
    "parse", "print_expr", "lower", "field_sqrt", "eval_expr_numeric",
]


class Expr:
    """Base class for parsed expression nodes."""
    __slots__ = ()


@dataclass(frozen=True)
class RationalConst(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class I(Expr):
    """The imaginary unit."""


@dataclass(frozen=True)
class Sqrt2(Expr):
    """The constant sqrt2."""


@dataclass(frozen=True)
class P(Expr):
    """The coin bias variable p."""


@dataclass(frozen=True)
class T(Expr):
    """The coin amplitude ratio sqrt(p/(1-p))."""


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exp: int


@dataclass(frozen=True)
class Sqrt(Expr):
    child: Expr


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NotInFieldError(ValueError):
    """Lowering failure: the expression leaves the simulable field."""

    def __init__(self, message: str, odd_factors: tuple[Poly, ...] = ()):
        super().__init__(message)
        self.odd_factors = odd_factors


class DegreeLimitError(ValueError):
    """Lowering refused a subexpression whose degree exceeds MAX_DEGREE, or
    a power whose integers would exceed MAX_POWER_BITS."""


# -- tokenizer -------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _OPS:
            out.append(("op", ch, k))
            k += 1
            continue
        if ch.isdecimal():
            start = k
            while k < n and text[k].isdecimal():
                k += 1
            digits = text[start:k].lstrip("0") or "0"
            if len(digits) > MAX_DIGITS:
                raise ParseError(f"integer literal has more than {MAX_DIGITS} "
                                 "digits", start)
            out.append(("int", digits, start))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            out.append(("name", text[start:k], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    out.append(("eof", "", n))
    return out


MAX_DEPTH = 100  # keeps the parser, printer and lowering within Python's recursion limit


class _Parser:
    """Recursive descent; each method returns (node, height), where height
    counts the nesting levels of the subtree: one per operator, sqrt and
    pair of parentheses."""

    __slots__ = ("toks", "k", "open")

    def __init__(self, toks):
        self.toks = toks
        self.k = 0
        self.open = 0  # parentheses, sqrt and unary minus being parsed

    def peek(self):
        return self.toks[self.k]

    def next(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.next()

    def deeper(self, height: int, pos: int) -> int:
        """Height of a node above a subtree of this height."""
        if height >= MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels",
                             pos)
        return height + 1

    def nested(self, parse, pos: int):
        """Parse an operand one level down. The open levels bound the final
        height from below, so they are checked before descending further."""
        self.open = self.deeper(self.open, pos)
        node, height = parse()
        self.open -= 1
        return node, self.deeper(height, pos)

    def expr(self) -> tuple[Expr, int]:
        node, height = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs, rh = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
                height = self.deeper(max(height, rh), pos)
            else:
                return node, height

    def term(self) -> tuple[Expr, int]:
        node, height = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs, rh = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
                height = self.deeper(max(height, rh), pos)
            else:
                return node, height

    def unary(self) -> tuple[Expr, int]:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            node, height = self.nested(self.unary, pos)
            return Sub(RationalConst(Fraction(0)), node), height
        return self.factor()

    def factor(self) -> tuple[Expr, int]:
        node, height = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.next()
                sign = -1
                kind, val, pos = self.peek()
            if kind != "int":
                raise ParseError("expected an integer exponent", pos)
            self.next()
            return Pow(node, sign * int(val)), self.deeper(height, pos)
        return node, height

    def atom(self) -> tuple[Expr, int]:
        kind, val, pos = self.next()
        if kind == "int":
            return RationalConst(Fraction(int(val))), 1
        if kind == "name":
            if val == "p":
                return P(), 1
            if val == "i":
                return I(), 1
            if val == "sqrt2":
                return Sqrt2(), 1
            if val == "t":
                return T(), 1
            if val == "sqrt":
                self.expect_op("(")
                inner, height = self.nested(self.expr, pos)
                self.expect_op(")")
                return Sqrt(inner), height
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            inner, height = self.nested(self.expr, pos)
            self.expect_op(")")
            return inner, height
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def parse(text: str) -> Expr:
    """Parse a target-ratio expression; it may nest at most MAX_DEPTH
    levels, counting each operator, sqrt and pair of parentheses."""
    parser = _Parser(_tokenize(text))
    node, _ = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos)
    return node


# -- printing --------------------------------------------------------------

_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, RationalConst):
        v = e.value
        if v < 0:
            inner, _ = _render(RationalConst(-v))
            return f"-{inner}", _UNARY
        if v.denominator == 1:
            return str(v.numerator), _ATOM
        return f"{v.numerator}/{v.denominator}", _MUL
    if isinstance(e, P):
        return "p", _ATOM
    if isinstance(e, I):
        return "i", _ATOM
    if isinstance(e, Sqrt2):
        return "sqrt2", _ATOM
    if isinstance(e, T):
        return "t", _ATOM
    if isinstance(e, Sqrt):
        inner, _ = _render(e.child)
        return f"sqrt({inner})", _ATOM
    if isinstance(e, Pow):
        base, prec = _render(e.base)
        if prec < _ATOM:
            base = f"({base})"
        return f"{base}^{e.exp}", _POW
    if isinstance(e, Sub) and e.left == RationalConst(Fraction(0)):
        inner, prec = _render(e.right)
        if prec < _UNARY:
            inner = f"({inner})"
        return f"-{inner}", _UNARY
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        left, _ = _render(e.left)
        right, rp = _render(e.right)
        if rp <= _ADD:
            # left-associative grammar: a same-level right child needs parens
            right = f"({right})"
        return f"{left} {op} {right}", _ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left, lp = _render(e.left)
        right, rp = _render(e.right)
        if lp < _MUL:
            left = f"({left})"
        if rp <= _MUL:
            right = f"({right})"
        return f"{left}{op}{right}", _MUL
    raise TypeError(f"not an expression node: {e!r}")


def print_expr(e: Expr) -> str:
    """Render an expression; parse(print_expr(e)) == e for parser-produced trees."""
    return _render(e)[0]


# -- lowering into the field -----------------------------------------------

_TAU_ODD = [[-1, 1], [0, 1]]  # p - 1 and p


def _sign_fix(num: list, den: list) -> list:
    """num or -num, the one that makes num/den positive at p = 1/2, or where
    it is zero or has a pole there, at the first of 1/4, 3/4, 1/8, 7/8, ...
    where it is neither; num = [] stays as it is."""
    k = 2
    while num:
        for x in (Fraction(1, k), Fraction(k - 1, k)):
            s = _sign_at(num, x) * _sign_at(den, x)
            if s:
                return num if s > 0 else [-c for c in num]
        k *= 2
    return num


def _lower_sqrt(a: list, b: list, c: list) -> tuple[list, list, list]:
    """The parts of sqrt((A + B*w)/C) for zpoly parts (A, B, C) in
    canonical form, or an integer multiple of it: q or q*t for
    u = A/C = q^2 or q^2 * p/(1-p) with B = 0, the sign of q fixed by
    _sign_fix. Raises NotInFieldError otherwise."""
    if b:
        raise NotInFieldError(
            "sqrt argument must be a rational function of p alone "
            "(no t component)")
    if any(x[1] or x[2] or x[3] for f in (a, c) for x in f):
        raise NotInFieldError(
            "sqrt argument must have rational coefficients")
    num, den = [x[0] for x in a], [x[0] for x in c]
    res = square_test(num, den)
    # u = -lc_ratio * q^2 * p/(1-p) exactly when u's odd factors are p and
    # p - 1, q being half times p - 1 when that divides u's numerator and
    # over p when p divides u's denominator; then sqrt(u) is q*t = q*w/(1-p)
    via_t = sorted(res.odd_factors) == _TAU_ODD
    scale = None if res.odd_factors and not via_t else \
        sqrt_in_scalar_field(-res.lc_ratio if via_t else res.lc_ratio)
    if scale is None:
        odd = tuple(_from_int(f).sign_normalized() for f in res.odd_factors)
        detail = ", ".join(str(f) for f in odd) if odd else "leading coefficient not a square"
        raise NotInFieldError(
            f"sqrt argument is not an exact square, directly or after dividing "
            f"by p/(1-p); odd-multiplicity factors: {{{detail}}}",
            odd_factors=odd)
    hn, hd = res.half
    if via_t:  # hn/hd becomes q/(1-p), up to the sign _sign_fix sets
        if _sign_at(num, 1):  # p - 1 divides den, not num
            hd = int_mul(hd, [1, -1])
        if not den[0]:
            hd = int_mul(hd, [0, 1])
    m, d = to_zeta(scale)
    root = [tuple(k * x for x in m) for k in _sign_fix(hn, hd)]
    parts = ([], root) if via_t else (root, [])
    return (*parts, [(k * d, 0, 0, 0) for k in hd])


def field_sqrt(u: RatFn) -> FieldElem:
    """Square root of a real rational function inside the field: u = q^2
    gives q, u = q^2 * p/(1-p) gives q*t. Raises NotInFieldError otherwise."""
    (a, c), _ = zeta_parts(u.num, u.den)
    return FieldElem.from_zeta(*_lower_sqrt(a, [], c))


MAX_DEGREE = 128  # bounds the polynomial work one expression can ask for
# bounds the integers one power can ask for: MAX_DEGREE times the bits of a
# MAX_DIGITS-digit literal
MAX_POWER_BITS = MAX_DEGREE * (10 ** MAX_DIGITS - 1).bit_length()


def _degree(parts: tuple) -> int:
    """The degree of (A + B*w)/C: the largest of those of A, B*w and C."""
    a, b, c = parts
    return max(len(a) - 1, len(b), len(c) - 1)


def _checked(parts: tuple) -> tuple:
    """The parts, unless their degree passes MAX_DEGREE."""
    degree = _degree(parts)
    if degree > MAX_DEGREE:
        raise DegreeLimitError(f"a subexpression of degree {degree} "
                               f"exceeds degree {MAX_DEGREE}")
    return parts


def _power_base(e: Pow) -> tuple:
    """The parts of e's base in canonical form, unless its degree, at least
    1, or the bits of its longest integer, times |exponent|, pass
    MAX_DEGREE or MAX_POWER_BITS."""
    c, b, a = zeta_canonical(*reversed(_parts(e.base)))
    n, base = abs(e.exp), (a, b, c)
    degree = max(_degree(base), 1)
    if degree * n > MAX_DEGREE:
        raise DegreeLimitError(f"power ^{e.exp} of a base of degree {degree} "
                               f"exceeds degree {MAX_DEGREE}")
    bits = max(abs(x).bit_length() for f in base for z in f for x in z)
    if bits * n > MAX_POWER_BITS:
        raise DegreeLimitError(f"power ^{e.exp} of a base with {bits}-bit "
                               f"integers exceeds {MAX_POWER_BITS} bits")
    return base


def lower(e: Expr) -> FieldElem:
    """Evaluate the tree inside the field; raises NotInFieldError when the
    expression falls outside it, and ZeroDivisionError or DegreeLimitError
    at the first fault it meets. The parts are checked as they are built,
    before a common factor cancels, and a power's base before it is raised.
    The operations take no gcd: lowering normalises only at the base of a
    power, at the argument of a sqrt and once at the root, where a power of
    a nonzero base with B = 0 needs none."""
    if not isinstance(e, Pow):
        return FieldElem.from_zeta(*_parts(e))
    a, b, c = base = _power_base(e)
    if b or not a:
        return FieldElem.from_zeta(*_checked(parts_pow(base, e.exp)))
    # gcd(A, C) = 1, so FieldElem's power of the base takes no gcd
    return FieldElem.from_canonical(
        *(zeta_poly(f, c[-1][0]) for f in base)) ** e.exp


_LEAVES = {I: ([(0, 0, 1, 0)], [], [Z1]),
           Sqrt2: ([(0, 1, 0, -1)], [], [Z1]),  # sqrt2 = z - z^3
           P: ([Z0, Z1], [], [Z1]),
           T: ([], [Z1], [Z1, ZNEG1])}  # t = w/(1-p)


def _parts(e: Expr) -> tuple[list, list, list]:
    """The parts (A, B, C) of e, meaning (A + B*w)/C with w = sqrt(p(1-p)),
    as zpoly lists over Z[z], without dividing out a common factor. A
    power's base is brought to canonical form first, so a base that cancels
    collapses before it is raised, and it is raised before it is inverted.
    Each part built passes _checked."""
    leaf = _LEAVES.get(type(e))
    if leaf is not None:
        return leaf
    if isinstance(e, RationalConst):
        n, d = e.value.numerator, e.value.denominator
        return [(n, 0, 0, 0)] if n else [], [], [(d, 0, 0, 0)]
    if isinstance(e, Sqrt):
        # the root has about half the degree of its checked argument
        c, b, a = zeta_canonical(*reversed(_parts(e.child)))
        return _lower_sqrt(a, b, c)
    if isinstance(e, (Add, Sub)):
        x, (a, b, c) = _parts(e.left), _parts(e.right)
        if isinstance(e, Sub):
            a, b = pscale(ZNEG1, a), pscale(ZNEG1, b)
        out = parts_add(x, (a, b, c))
    elif isinstance(e, Mul):
        out = parts_mul(_parts(e.left), _parts(e.right))
    elif isinstance(e, Div):
        out = parts_mul(_parts(e.left),
                        _checked(parts_inverse(_parts(e.right))))
    elif isinstance(e, Pow):
        out = parts_pow(_power_base(e), e.exp)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return _checked(out)


def eval_expr_numeric(e: Expr, p0: float) -> complex:
    """Direct floating evaluation, the numeric oracle for lowering.
    Sqrt takes the principal branch, so compare squares when signs matter."""
    if isinstance(e, RationalConst):
        return complex(e.value)
    if isinstance(e, I):
        return 1j
    if isinstance(e, Sqrt2):
        return complex(math.sqrt(2))
    if isinstance(e, P):
        return complex(p0)
    if isinstance(e, T):
        return complex(math.sqrt(p0 / (1 - p0)))
    if isinstance(e, Add):
        return eval_expr_numeric(e.left, p0) + eval_expr_numeric(e.right, p0)
    if isinstance(e, Sub):
        return eval_expr_numeric(e.left, p0) - eval_expr_numeric(e.right, p0)
    if isinstance(e, Mul):
        return eval_expr_numeric(e.left, p0) * eval_expr_numeric(e.right, p0)
    if isinstance(e, Div):
        return eval_expr_numeric(e.left, p0) / eval_expr_numeric(e.right, p0)
    if isinstance(e, Pow):
        return eval_expr_numeric(e.base, p0) ** e.exp
    if isinstance(e, Sqrt):
        return complex(eval_expr_numeric(e.child, p0)) ** 0.5
    raise TypeError(f"not an expression node: {e!r}")
