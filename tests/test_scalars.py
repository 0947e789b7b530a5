import math
import random
import time
from fractions import Fraction

import pytest

from coinfield.scalars import (HALF_SQRT2, I_UNIT, MAX_DIGITS, ONE, SQRT2,
                               Scalar, ZERO, from_zeta, read_rational,
                               sqrt_fraction, to_zeta)


def random_scalar(rnd, span=6):
    return Scalar(Fraction(rnd.randint(-span, span), rnd.randint(1, 4)),
                  Fraction(rnd.randint(-span, span), rnd.randint(1, 4)),
                  Fraction(rnd.randint(-span, span), rnd.randint(1, 4)),
                  Fraction(rnd.randint(-span, span), rnd.randint(1, 4)))


# ---------------------------------------------------------------------------
# Known identities
# ---------------------------------------------------------------------------

def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Scalar(2)


def test_i_squares_to_minus_one():
    assert I_UNIT * I_UNIT == Scalar(-1)


def test_half_sqrt2_is_inverse_sqrt2():
    assert HALF_SQRT2 * SQRT2 == ONE
    assert HALF_SQRT2 * HALF_SQRT2 == Scalar(Fraction(1, 2))


def test_zeta_tuple_round_trip():
    # z = exp(i*pi/4): sqrt2 = z - z^3, i = z^2, i*sqrt2 = z + z^3
    assert to_zeta(HALF_SQRT2) == ((0, 1, 0, -1), 2)
    assert to_zeta(I_UNIT) == ((0, 0, 1, 0), 1)
    assert to_zeta(Scalar(0, 0, 0, 1)) == ((0, 1, 0, 1), 1)
    assert to_zeta(Scalar(0, 0, Fraction(-3, 4), Fraction(3, 4))) == ((0, 3, -3, 3), 4)
    assert to_zeta(Scalar(Fraction(1, 3), 0, Fraction(-1, 6))) == ((2, 0, -1, 0), 6)
    assert to_zeta(ZERO) == ((0, 0, 0, 0), 1)
    z = from_zeta((0, 1, 0, 0))
    assert z * z == I_UNIT and z ** 4 == Scalar(-1)
    assert from_zeta((0, 1, 0, -1), 2) == HALF_SQRT2
    rnd = random.Random(29)
    for _ in range(200):
        s = random_scalar(rnd)
        c, den = to_zeta(s)
        assert from_zeta(c, den) == s
        assert math.gcd(den, *c) == 1  # the least denominator


def test_conjugate_difference_of_squares():
    # (1 + sqrt2)(1 - sqrt2) = -1
    a = Scalar(1, 1)
    b = Scalar(1, -1)
    assert a * b == Scalar(-1)


def test_modulus_squared_is_real_nonneg():
    rnd = random.Random(5)
    for _ in range(50):
        a = random_scalar(rnd)
        m = a * a.conj()
        assert m.is_real()
        assert m.sign() >= 0
        assert (m.sign() == 0) == (a == ZERO)


# ---------------------------------------------------------------------------
# Field axioms on random elements
# ---------------------------------------------------------------------------

def test_field_axioms_random():
    rnd = random.Random(17)
    for _ in range(60):
        a, b, c = (random_scalar(rnd) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_inverse_random():
    rnd = random.Random(23)
    done = 0
    while done < 60:
        a = random_scalar(rnd)
        if a == ZERO:
            continue
        assert a * a.inverse() == ONE
        done += 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow_matches_repeated_mul():
    a = Scalar(Fraction(1, 2), 1, 0, Fraction(-1, 3))
    acc = ONE
    for k in range(5):
        assert a ** k == acc
        acc = acc * a
    assert a ** -2 == (a * a).inverse()


# ---------------------------------------------------------------------------
# Exact ordering of real elements
# ---------------------------------------------------------------------------

def test_sign_close_calls():
    # 3 - 2*sqrt2 is about 0.17, -3 + 2*sqrt2 mirrors it
    assert Scalar(3, -2).sign() == 1
    assert Scalar(-3, 2).sign() == -1
    assert Scalar(0).sign() == 0
    # 7/5 < sqrt2 < 17/12
    assert Scalar(Fraction(7, 5)) < SQRT2 < Scalar(Fraction(17, 12))


def test_comparisons_match_float_oracle():
    rnd = random.Random(31)
    for _ in range(100):
        a = Scalar(Fraction(rnd.randint(-20, 20), rnd.randint(1, 9)),
                   Fraction(rnd.randint(-20, 20), rnd.randint(1, 9)))
        b = Scalar(Fraction(rnd.randint(-20, 20), rnd.randint(1, 9)),
                   Fraction(rnd.randint(-20, 20), rnd.randint(1, 9)))
        fa, fb = a.to_complex().real, b.to_complex().real
        if abs(fa - fb) < 1e-9:
            continue
        assert (a < b) == (fa < fb)


def _sign_by_cases(u: Fraction, v: Fraction) -> int:
    """The sign of u + v*sqrt2: the common sign when u and v agree, else the
    sign of the larger of u^2 and 2*v^2, which differ unless both are 0."""
    if u >= 0 and v >= 0 or u <= 0 and v <= 0:
        return (u > 0 or v > 0) - (u < 0 or v < 0)
    return (1 if u > 0 else -1) if u * u > 2 * v * v else (1 if v > 0 else -1)


def test_all_four_order_operators_match_an_exact_oracle():
    rnd = random.Random(37)

    def frac():
        return Fraction(rnd.randint(-12, 12), rnd.randint(1, 6))

    # equal pairs, the close calls 7/5 and 17/12 around sqrt2, and random
    # pairs; an int or Fraction on the right is taken as a rational scalar
    pairs = [(Scalar(1, 1), Scalar(1, 1)), (SQRT2, Fraction(7, 5)),
             (SQRT2, Fraction(17, 12)), (Scalar(3, -2), 0), (Scalar(-3, 2), 0)]
    pairs += [(Scalar(frac(), frac()), Scalar(frac(), frac()))
              for _ in range(200)]
    pairs += [(Scalar(frac(), frac()), frac()) for _ in range(50)]
    for x, y in pairs:
        o = y if isinstance(y, Scalar) else Scalar(y)
        s = _sign_by_cases(x.a - o.a, x.b - o.b)
        assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)


def test_sign_on_complex_raises():
    with pytest.raises(ValueError):
        I_UNIT.sign()


# ---------------------------------------------------------------------------
# Square roots of rationals
# ---------------------------------------------------------------------------

def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(2)) is None
    assert sqrt_fraction(Fraction(-1)) is None
    assert sqrt_fraction(Fraction(49, 36)) == Fraction(7, 6)


# ---------------------------------------------------------------------------
# Serialization and display
# ---------------------------------------------------------------------------

def test_json_round_trip():
    rnd = random.Random(41)
    for _ in range(20):
        a = random_scalar(rnd)
        assert Scalar.from_json(a.to_json()) == a


@pytest.mark.parametrize("text", [
    "0.3", "3/10", "-1/2", "1e-3", " 5 ", ".5", "5.", "1_000", "+3", "1E3",
    "00012/00004", "-7/14", "1.50", "12e-2", "-0", "0.000", "1_0.2_5e-1_0",
    "1" * MAX_DIGITS, "1/" + "3" * MAX_DIGITS, "1e4299", "1e-4299",
], ids=lambda text: text if len(text) < 30 else f"{text[:8]}...{len(text)}")
def test_read_rational_matches_fraction(text):
    assert read_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", [
    "1e-99999999", "1e99999999", "1" * 5000, "1/" + "1" * 5000,
    "1" * (MAX_DIGITS + 1), "1e4300", "1e-4300", "1" * 4299 + "0e2",
    "1e" + "1" * 5000, "0.5e-" + "9" * 30, "1" * 5000 + "e-1000",
], ids=lambda text: text if len(text) < 30 else f"{text[:8]}...{len(text)}")
def test_read_rational_refuses_long_literals_from_the_text(text):
    # each would need a big integer of more than MAX_DIGITS digits
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
        read_rational(text)
    assert time.perf_counter() - start < 0.1


def test_read_rational_edge_cases():
    # zeros that need no big integer, whatever the exponent or padding
    assert read_rational("0e999999999999") == 0
    assert read_rational("0" * 5000 + "7") == 7
    assert read_rational("1" + "0" * 5000 + "e-5000") == 1
    for text in ("abc", "", "1.2.3", "1e", "e5", "0.0/1", "1/2/3", "inf"):
        with pytest.raises(ValueError, match="not a rational literal"):
            read_rational(text)
    with pytest.raises(ZeroDivisionError):
        read_rational("1/0")


def test_from_json_takes_exactly_four_string_parts():
    # a JSON number has lost its text by the time it is read: 1e400 is inf
    for data in (["1", "0"], ["1", "0", "0", "0", "0"], "1234", 7,
                 ["0.5", 0, "1e-3", "-1/2"], ["1", "0", "0", True],
                 [1e400, "0", "0", "0"]):
        with pytest.raises(ValueError, match="four rational parts"):
            Scalar.from_json(data)
    with pytest.raises(ValueError, match="digits"):
        Scalar.from_json(["1e99999999", "0", "0", "0"])
    assert Scalar.from_json(["0.5", "0", "1e-3", "-1/2"]) == Scalar(
        Fraction(1, 2), 0, Fraction(1, 1000), Fraction(-1, 2))


def test_str_spot_checks():
    assert str(Scalar(1, 1)) == "1 + sqrt2"
    assert str(Scalar(0)) == "0"
    assert str(Scalar(Fraction(-1, 2))) == "-1/2"
    assert "i" in str(I_UNIT)
