"""Expression grammar: parsing, printing, and lowering into the field."""

import math
import random
from fractions import Fraction

import pytest

from coinfield.field import FE_ONE, FieldElem, TAU, fe_add, fe_eval, fe_mul
from coinfield.lang import (MAX_DEGREE, Add, DegreeLimitError, Div, I, Mul,
                            NotInFieldError, P, ParseError, Pow, RationalConst,
                            Sqrt, Sqrt2, Sub, T, eval_expr_numeric, field_sqrt,
                            lower, parse, print_expr)
from coinfield.polys import P as P_POLY
from coinfield.polys import Poly, RatFn
from coinfield.scalars import MAX_DIGITS, ONE, Scalar


def random_tree(rnd, depth, allow_sqrt=True):
    # stay inside the parser's image: constants are nonnegative integers,
    # fractions and negatives only arise through Div and Sub nodes
    leaves = ("p", "t", "i", "sqrt2", "const")
    if depth == 0:
        kind = leaves[rnd.randrange(len(leaves))]
        if kind == "p":
            return P()
        if kind == "t":
            return T()
        if kind == "i":
            return I()
        if kind == "sqrt2":
            return Sqrt2()
        return RationalConst(Fraction(rnd.randint(0, 9)))
    kinds = ["add", "sub", "mul", "div", "pow"]
    if allow_sqrt:
        kinds.append("sqrt")
    kind = kinds[rnd.randrange(len(kinds))]
    if kind == "pow":
        return Pow(random_tree(rnd, depth - 1, allow_sqrt), rnd.randint(-3, 3))
    if kind == "sqrt":
        return Sqrt(random_tree(rnd, depth - 1, allow_sqrt))
    cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
    return cls(random_tree(rnd, depth - 1, allow_sqrt),
               random_tree(rnd, depth - 1, allow_sqrt))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_precedence():
    e = parse("1+2*p^2")
    assert e == Add(RationalConst(Fraction(1)),
                    Mul(RationalConst(Fraction(2)), Pow(P(), 2)))


def test_parse_unary_minus_binds_below_power():
    assert parse("-p^2") == Sub(RationalConst(Fraction(0)), Pow(P(), 2))


def test_parse_negative_exponent():
    assert parse("p^-1") == Pow(P(), -1)


def test_parse_parens_and_division():
    e = parse("(1-p)/(1+p)")
    assert e == Div(Sub(RationalConst(Fraction(1)), P()),
                    Add(RationalConst(Fraction(1)), P()))


def test_parse_fraction_literal():
    assert parse("3/4*t") == Mul(Div(RationalConst(Fraction(3)), RationalConst(Fraction(4))), T())


def test_parse_errors():
    for bad in ("p +* 2", "(1+p", "2 +", "q", "p^x", ""):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="position 3"):
        parse("p +* 2")


# ---------------------------------------------------------------------------
# Printing round trip
# ---------------------------------------------------------------------------

def test_print_parse_round_trip_examples():
    for src in ("p", "1 - 2*p", "t^2/(1 + t^2)", "sqrt((1-2*p)^2)",
                "i*t + 1/2", "sqrt2*p - t^-2"):
        e = parse(src)
        assert parse(print_expr(e)) == e


def test_print_parse_round_trip_fuzz():
    rnd = random.Random(71)
    for _ in range(300):
        e = random_tree(rnd, rnd.randint(0, 4))
        assert parse(print_expr(e)) == e


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def test_lower_basic_atoms():
    assert lower(parse("t")) == FieldElem.coin()
    assert lower(parse("p")) == FieldElem(RatFn.from_poly(P_POLY))
    assert lower(parse("t^2")) == FieldElem(TAU)
    assert lower(parse("i")) == FieldElem(RatFn.const(Scalar(0, 0, 1)))
    assert lower(parse("sqrt2")) == FieldElem(RatFn.const(Scalar(0, 1)))


def test_lower_is_homomorphic():
    rnd = random.Random(83)
    done = 0
    while done < 40:
        e1 = random_tree(rnd, 2, allow_sqrt=False)
        e2 = random_tree(rnd, 2, allow_sqrt=False)
        try:
            h1, h2 = lower(e1), lower(e2)
            hs = lower(Add(e1, e2))
            hp = lower(Mul(e1, e2))
        except ZeroDivisionError:
            continue
        assert hs == fe_add(h1, h2)
        assert hp == fe_mul(h1, h2)
        done += 1


def test_lower_negative_power():
    h = lower(parse("p^-2"))
    assert h == FieldElem(RatFn(Poly((ONE,)), P_POLY * P_POLY))


def test_lower_power_degree_limit():
    # the base's degree, at least 1, times |n| may reach MAX_DEGREE, not pass
    # it, and so may every other subexpression, such as products and sums
    for text in (f"p^{MAX_DEGREE}", "p^64*p^64"):
        assert lower(parse(text)) == FieldElem(RatFn(P_POLY ** MAX_DEGREE))
    for text in (f"p^{MAX_DEGREE + 1}", f"t^-{MAX_DEGREE + 1}",
                 f"(p^2)^{MAX_DEGREE // 2 + 1}", f"2^{MAX_DEGREE + 1}",
                 "((1+p)^64)^64", "*".join(["(1+p)^128"] * 8),
                 "1/(p+1)^100 + 1/(p+2)^100"):
        with pytest.raises(DegreeLimitError):
            lower(parse(text))


def test_lower_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        lower(parse("1/(t-t)"))


def test_eval_expr_numeric_matches_lowered():
    rnd = random.Random(97)
    done = 0
    while done < 30:
        e = random_tree(rnd, 3, allow_sqrt=False)
        p0 = rnd.uniform(0.1, 0.9)
        try:
            h = lower(e)
            direct = eval_expr_numeric(e, p0)
        except ZeroDivisionError:
            continue
        via_field = fe_eval(h, Fraction(p0).limit_denominator(10 ** 9))
        if abs(direct) > 1e6:
            continue
        assert abs(direct - via_field) < 1e-6 * (1 + abs(direct))
        done += 1


# ---------------------------------------------------------------------------
# Square roots
# ---------------------------------------------------------------------------

def test_sqrt_of_perfect_square_picks_nonneg_branch():
    h = lower(parse("sqrt((1-2*p)^2)"))
    # representative chosen nonnegative just right of 0
    assert h == FieldElem(RatFn.from_poly(Poly((ONE, Scalar(-2)))))


def test_sqrt_via_coin_route():
    assert lower(parse("sqrt(p/(1-p))")) == FieldElem.coin()
    # p*(1-p) = ((1-p)*t)^2
    h = lower(parse("sqrt(p*(1-p))"))
    assert h == FieldElem(RatFn.const(Scalar(0)), RatFn.from_poly(Poly((ONE, Scalar(-1)))))


def test_sqrt_rejects_with_odd_factor_report():
    with pytest.raises(NotInFieldError) as exc:
        lower(parse("sqrt(p^2/(1-p^2))"))
    err = exc.value
    texts = sorted(str(g) for g in err.odd_factors)
    assert texts == ["1 + p", "1 - p"]
    assert "1 - p" in str(err) and "1 + p" in str(err)


def test_sqrt_rejects_complex_argument():
    with pytest.raises(NotInFieldError):
        lower(parse("sqrt(i*p)"))


def test_field_sqrt_function():
    q = RatFn(P_POLY, Poly((ONE, ONE)))
    assert field_sqrt(q * q) == FieldElem(q)
    tau = RatFn(P_POLY, Poly((ONE, Scalar(-1))))
    assert field_sqrt(tau) == FieldElem.coin()
    with pytest.raises(NotInFieldError):
        field_sqrt(RatFn.from_poly(P_POLY))


def test_sqrt_of_rational_constant():
    assert lower(parse("sqrt(1/2)")) == FieldElem(RatFn.const(Scalar(0, Fraction(1, 2))))
    assert lower(parse("sqrt(9/4)")) == FieldElem(RatFn.const(Scalar(Fraction(3, 2))))
    assert lower(parse("sqrt(2)")) == FieldElem(RatFn.const(Scalar(0, 1)))


def test_sqrt_with_scalar_leading_coefficient():
    # sqrt(p^2/2) = (sqrt2/2) * p
    h = lower(parse("sqrt(p^2/2)"))
    assert h == FieldElem(RatFn.from_poly(Poly((Scalar(0), Scalar(0, Fraction(1, 2))))))
    # sqrt(-(1-2p)^2) = i*(1-2p)
    h2 = lower(parse("sqrt(0-(1-2*p)^2)"))
    assert h2 == FieldElem(RatFn.from_poly(Poly((Scalar(0, 0, 1), Scalar(0, 0, -2)))))
    assert fe_mul(h2, h2) == lower(parse("0-(1-2*p)^2"))


_Q = RatFn(Poly((ONE, Scalar(-2))), Poly((Scalar(2), ONE)))  # (1 - 2p)/(p + 2)
_PR = RatFn.from_poly(P_POLY)
_OMP = RatFn.from_poly(Poly((ONE, Scalar(-1))))  # 1 - p
SQRT_SHAPES = {
    "q^2": RatFn.const(1),
    "q^2*p/(1-p)": _PR / _OMP,
    "q^2*(1-p)/p": _OMP / _PR,
    "q^2*p*(p-1)": -(_PR * _OMP),
    "q^2/(p*(p-1))": -(_PR * _OMP).inverse(),
}


@pytest.mark.parametrize("c", ["1", "4/9", "2", "1/2", "-1", "-2", "3"])
@pytest.mark.parametrize("shape", SQRT_SHAPES)
def test_sqrt_table(shape, c):
    u = RatFn.const(Fraction(c)) * _Q * _Q * SQRT_SHAPES[shape]
    if c != "3":
        h = field_sqrt(u)
        assert h * h == FieldElem(u)
        return
    with pytest.raises(NotInFieldError) as exc:
        field_sqrt(u)
    want = [] if shape == "q^2" else ["1 - p", "p"]
    assert sorted(str(g) for g in exc.value.odd_factors) == want


@pytest.mark.parametrize("text, tests", [
    ("sqrt((p + 2)*(1 - 2*p)^2)", 1),
    ("sqrt(2*(1 - 2*p)^2)", 1),
    ("sqrt(3*(1 - 2*p)^2)", 1),
    ("sqrt(2*(1 - 2*p)^2*p/(1 - p))", 2),
])
def test_sqrt_square_test_count(monkeypatch, text, tests):
    from coinfield import lang
    from coinfield.analysis import decide_qq_ratio
    calls = []
    real = lang.square_test

    def counted(u):
        calls.append(u)
        return real(u)

    monkeypatch.setattr(lang, "square_test", counted)
    decide_qq_ratio(text)
    assert len(calls) == tests


def test_parse_refuses_integer_past_digit_bound():
    # refused by the tokenizer, whatever the interpreter's int-string limit
    for text in ("1" * (MAX_DIGITS + 1), "p + 2*" + "9" * 5000,
                 "p^" + "1" * 5000):
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
            parse(text)
    assert parse("9" * MAX_DIGITS) == RationalConst(Fraction(10 ** MAX_DIGITS - 1))
    assert parse("0" * 5000 + "7") == RationalConst(Fraction(7))
    with pytest.raises(ParseError, match="unexpected character"):
        parse("2\u00b2")   # a superscript two is a digit, but not a decimal


def test_degree_bounds_come_before_cancellation():
    # a part is bounded from its operands' bounds before any common factor
    # cancels, so a product that would cancel back under the limit is
    # refused; inputs whose bounds stay within it still lower
    with pytest.raises(DegreeLimitError):
        lower(parse("(p^70/(p+1)^70)*((p+1)^70/p^70)"))
    assert lower(parse("(p^100 + 1) - p^100")) == FE_ONE
    assert lower(parse("p^64*p^64")) == FieldElem(RatFn(P_POLY ** MAX_DEGREE))
    h = lower(parse("p^70/(p+1)^70"))
    assert (h.A.degree, h.C.degree) == (70, 70)
    h = lower(parse("t^-128"))
    assert (h.A.degree, h.B.degree, h.C.degree) == (64, -1, 64)
