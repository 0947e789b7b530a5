"""Exact arithmetic in the extension generated by t = sqrt(p/(1-p))."""

import functools
import math
import random
from fractions import Fraction

import pytest

from coinfield import polys
from coinfield.analysis import _candidate_points
from coinfield.field import (FE_ONE, FE_ZERO, FieldElem, ONE_MINUS_P,
                             TAU, W_SQUARED, fe_add, fe_conj, fe_eval, fe_inv,
                             fe_mod_squared, fe_mul, sqrt_in_scalar_field,
                             vanishing_order, vanishing_order_at_point, w_norm)
from coinfield.lang import lower, parse
from coinfield.polys import (AlgebraicPoint, P, Poly, RatFn, isolate_roots,
                             multiplicity, poly_gcd)
from coinfield.scalars import HALF_SQRT2, ONE, SQRT2, Scalar


def random_ratfn(rnd, deg=2, span=4):
    def poly(d):
        cs = [Scalar(Fraction(rnd.randint(-span, span), rnd.randint(1, 3)),
                     0,
                     Fraction(rnd.randint(-span, span), rnd.randint(1, 3)))
              for _ in range(d + 1)]
        return Poly(tuple(cs))
    den = Poly.zero()
    while den.is_zero():
        den = poly(rnd.randint(0, deg - 1))
    return RatFn(poly(rnd.randint(0, deg)), den)


def random_elem(rnd):
    return FieldElem(random_ratfn(rnd), random_ratfn(rnd))


def random_form(rnd):
    A = Poly.zero()
    B = Poly.zero()
    while A.is_zero() and B.is_zero():
        A = Poly(tuple(Scalar(Fraction(rnd.randint(-3, 3))) for _ in range(rnd.randint(1, 3))))
        B = Poly(tuple(Scalar(Fraction(rnd.randint(-3, 3))) for _ in range(rnd.randint(1, 3))))
    C = Poly.zero()
    while C.is_zero():
        C = Poly(tuple(Scalar(Fraction(rnd.randint(-3, 3))) for _ in range(rnd.randint(1, 2))))
    return FieldElem.from_abc(A, B, C)


# ---------------------------------------------------------------------------
# Generator algebra
# ---------------------------------------------------------------------------

def test_coin_squares_to_tau():
    t = FieldElem.coin()
    assert fe_mul(t, t) == FieldElem(TAU)


def test_coin_inverse():
    # 1/t = ((1-p)/p) * t
    t = FieldElem.coin()
    assert fe_inv(t) == FieldElem(RatFn.const(Scalar(0)), RatFn(Poly((ONE, Scalar(-1))), P))


def test_mod_squared_of_coin():
    assert fe_mod_squared(FieldElem.coin()) == FieldElem(TAU)


def test_mod_squared_keeps_cross_term():
    # |1 + t|^2 = 1 + tau + 2t since t is real
    h = fe_add(FE_ONE, FieldElem.coin())
    want = FieldElem(RatFn.const(ONE) + TAU, RatFn.const(Scalar(2)))
    assert fe_mod_squared(h) == want


def test_mod_squared_of_imaginary_rational():
    q = RatFn.from_poly(Poly((Scalar(0, 0, 1),)))  # i
    assert fe_mod_squared(FieldElem(q)) == FE_ONE


# ---------------------------------------------------------------------------
# Field axioms (sampled; the acceptance suite runs the large version)
# ---------------------------------------------------------------------------

def test_axioms_random():
    rnd = random.Random(3)
    for _ in range(25):
        a, b, c = (random_elem(rnd) for _ in range(3))
        assert fe_add(a, b) == fe_add(b, a)
        assert fe_mul(a, b) == fe_mul(b, a)
        assert fe_mul(a, fe_add(b, c)) == fe_add(fe_mul(a, b), fe_mul(a, c))
        assert fe_mul(fe_mul(a, b), c) == fe_mul(a, fe_mul(b, c))
        assert fe_add(a, FE_ZERO) == a
        assert fe_mul(a, FE_ONE) == a


def test_inverse_random():
    rnd = random.Random(9)
    done = 0
    while done < 25:
        a = random_elem(rnd)
        if a.is_zero():
            continue
        assert fe_mul(a, fe_inv(a)) == FE_ONE
        done += 1


def test_inverse_without_w_part_matches_general_formula():
    # with B = 0 the inverse is C/A made monic; the general formula
    # C*(A - B*w) / (A^2 - B^2*w^2) must give the same parts
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    scalar = st.builds(Scalar, rational, rational, rational, rational)
    poly = st.lists(scalar, min_size=1, max_size=4).map(
        lambda cs: Poly(tuple(cs))).filter(lambda f: not f.is_zero())

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(poly, poly)
    def check(num, den):
        h = FieldElem(RatFn(num, den))
        A, B, C = h.A, h.B, h.C
        assert B.is_zero()
        want = FieldElem.from_abc(C * A, -(C * B), w_norm((A, B)))
        got = h.inverse()
        assert (got.A, got.B, got.C) == (want.A, want.B, want.C)
        assert h * got == FE_ONE

    check()


def test_rational_part_without_w_takes_no_gcd(monkeypatch):
    # with B = 0, gcd(A, C) = gcd(A, B, C) = 1 and C is monic, so r is A/C
    # as it stands: the same RatFn that the gcd normalisation builds
    from coinfield import polys
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    calls = []
    real = polys.canonical

    def counted(*args):
        calls.append(1)
        return real(*args)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2 ** 32))
    def check(seed):
        rnd = random.Random(seed)
        x, y = (FieldElem(random_ratfn(rnd, deg=3)) for _ in range(2))
        for h in (x, x * y, x + y, x * y.conj()):
            assert not h.B
            want = RatFn(h.A, h.C)
            with monkeypatch.context() as m:
                m.setattr(polys, "canonical", counted)
                calls.clear()
                got = h.r
                assert not calls
            assert (got.num, got.den) == (want.num, want.den)

    check()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        fe_inv(FE_ZERO)


def test_conj_fixes_real_and_flips_i():
    t = FieldElem.coin()
    assert fe_conj(t) == t
    iq = FieldElem(RatFn.from_poly(Poly((Scalar(0, 0, 1),))))
    assert fe_conj(iq) == FieldElem(RatFn.from_poly(Poly((Scalar(0, 0, -1),))))


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

def test_eval_of_coin():
    for p0 in (Fraction(1, 3), Fraction(7, 10), 0.42):
        v = fe_eval(FieldElem.coin(), p0)
        x = float(p0)
        assert abs(v - math.sqrt(x / (1 - x))) < 1e-12


def test_eval_is_r_plus_s_t():
    rnd = random.Random(15)
    for _ in range(20):
        h = random_elem(rnd)
        p0 = Fraction(rnd.randint(1, 9), 10)
        x = float(p0)
        t = math.sqrt(x / (1 - x))
        want = h.r.eval_complex(x) + h.s.eval_complex(x) * t
        assert abs(fe_eval(h, p0) - want) < 1e-8


def test_evaluator_matches_poly_horner():
    # the same floats as Horner's rule through Poly.eval_complex, bit for bit
    rnd = random.Random(8)
    for _ in range(20):
        h = random_elem(rnd)
        at = h.evaluator()
        for x in (0.05, 0.3, 0.5, 0.77):
            c = h.C.eval_complex(x)
            if c == 0:
                continue
            w0 = (x * (1 - x)) ** 0.5
            assert at(x) == (h.A.eval_complex(x)
                             + h.B.eval_complex(x) * w0) / c


def test_eval_scales_coefficients_past_float_range():
    # 10^400 overflows a float; scaled by a power of two it cancels exactly
    h = FieldElem(RatFn(Poly((-5 * 10 ** 399, 10 ** 400))))
    assert fe_eval(h, 0.5) == 0
    assert fe_eval(h * FieldElem.coin(), 0.5) == 0


def test_mod_squared_matches_abs():
    rnd = random.Random(21)
    for _ in range(20):
        h = random_elem(rnd)
        p0 = Fraction(rnd.randint(1, 9), 10)
        want = abs(fe_eval(h, p0)) ** 2
        got = fe_eval(fe_mod_squared(h), p0)
        assert abs(got.imag) < 1e-8
        assert abs(got.real - want) < 1e-6 * (1 + want)


# ---------------------------------------------------------------------------
# Square roots of rationals inside the scalar field
# ---------------------------------------------------------------------------

def test_sqrt_in_scalar_field():
    assert sqrt_in_scalar_field(Fraction(1, 2)) == HALF_SQRT2
    assert sqrt_in_scalar_field(Fraction(2)) == SQRT2
    assert sqrt_in_scalar_field(Fraction(9, 4)) == Scalar(Fraction(3, 2))
    assert sqrt_in_scalar_field(Fraction(8)) == Scalar(0, 2)
    assert sqrt_in_scalar_field(Fraction(3)) is None
    # negative rationals can still land in the field through i
    assert sqrt_in_scalar_field(Fraction(-1)) == Scalar(0, 0, 1)
    assert sqrt_in_scalar_field(Fraction(-2)) == Scalar(0, 0, 0, 1)
    assert sqrt_in_scalar_field(Fraction(-3)) is None


# ---------------------------------------------------------------------------
# Order forms
# ---------------------------------------------------------------------------

def test_order_form_round_trip():
    rnd = random.Random(27)
    for _ in range(20):
        r, s = random_ratfn(rnd, deg=2), random_ratfn(rnd, deg=1)
        h = FieldElem(r, s)
        assert (h.r, h.s) == (r, s)
        assert FieldElem.from_abc(h.A, h.B, h.C) == h


def test_vanishing_order_of_coin_at_endpoints():
    form = FieldElem.coin()
    at0 = vanishing_order(form, 0)
    assert at0.order == Fraction(1, 2)
    at1 = vanishing_order(form, 1)
    assert at1.order == Fraction(-1, 2)


def test_vanishing_order_of_squared_offset():
    half = Poly.const(Scalar(Fraction(1, 2)))
    f = (P - half) * (P - half)
    form = FieldElem(RatFn.from_poly(f))
    res = vanishing_order(form, Fraction(1, 2))
    assert res.order == 2


def test_vanishing_order_conjugate_pair():
    # 1/2 - w vanishes to order 2 at p = 1/2 because the conjugate does not vanish
    form = FieldElem.from_abc(Poly.const(Scalar(Fraction(1, 2))), Poly.const(Scalar(-1)), Poly.const(ONE))
    res = vanishing_order(form, Fraction(1, 2))
    assert res.order == 2
    other = FieldElem.from_abc(Poly.const(Scalar(Fraction(1, 2))), Poly.const(ONE), Poly.const(ONE))
    assert vanishing_order(other, Fraction(1, 2)).order == 0


def test_vanishing_order_additive():
    rnd = random.Random(33)
    zs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
    for _ in range(30):
        f = random_form(rnd)
        g = random_form(rnd)
        prod = fe_mul(f, g)
        if prod.is_zero():
            continue
        z = zs[rnd.randrange(len(zs))]
        a = vanishing_order(f, z).order
        b = vanishing_order(g, z).order
        c = vanishing_order(prod, z).order
        assert c == a + b


def test_vanishing_order_at_algebraic_point():
    g = P * P - Poly.const(Scalar(Fraction(1, 2)))
    rat, alg = isolate_roots(g, 0, 1)
    assert rat == [] and len(alg) == 1
    pt = alg[0]
    form = FieldElem(RatFn.from_poly(g))
    assert vanishing_order_at_point(form, pt).order == 1
    sq = FieldElem(RatFn.from_poly(g * g))
    assert vanishing_order_at_point(sq, pt).order == 2


_SERIES_TERMS = 12


@functools.lru_cache(maxsize=None)
def _w_series(z: Fraction):
    """sqrt(p(1-p)) at p = z + x, up to x^11, by sympy."""
    sp = pytest.importorskip("sympy")
    x, z = sp.Symbol("x"), sp.Rational(z.numerator, z.denominator)
    return sp.series(sp.sqrt((z + x) * (1 - z - x)), x, 0,
                     _SERIES_TERMS).removeO()


def _sympy_order(h, z):
    """Order of h at rational z in (0, 1) read off sympy's Taylor series:
    the leading exponent of A + B*sqrt(p(1-p)) at z minus that of C."""
    sp = pytest.importorskip("sympy")
    x, r2 = sp.Symbol("x"), sp.sqrt(2)
    # A + B*w vanishes to at most the degree of A^2 - B^2*p*(1-p), and the
    # series gives exact coefficients below x^_SERIES_TERMS
    assert 2 * max(len(h.A.coeffs) - 1, len(h.B.coeffs)) < _SERIES_TERMS
    zs = sp.Rational(z.numerator, z.denominator)

    def taylor(f):
        return sp.expand(sum((c.a + c.b * r2 + sp.I * (c.c + c.d * r2))
                             * (zs + x) ** i for i, c in enumerate(f.coeffs)))

    def lead(e, n):
        return next(k for k in range(n) if sp.expand(e.coeff(x, k)) != 0)

    num = sp.expand(taylor(h.A) + taylor(h.B) * _w_series(z))
    return lead(num, _SERIES_TERMS) - lead(taylor(h.C), len(h.C.coeffs))


def test_vanishing_order_matches_sympy_series():
    # random elements of the acceptance shape, times factors that vanish at
    # rational points by cancellation against w (t = 1 at 1/2, t = 1/2 at
    # 1/5) or whose conjugate does (t + 1)
    from test_acceptance import _random_elem
    half = Fraction(1, 2)
    cases = [(lower(parse(e)), half)
             for e in ("t - 1", "(t-1)^3", "(t-1)^2/(p-1/3)", "t + 1")]
    factors = [lower(parse(e)) for e in
               ("1", "p - 1/2", "t - 1", "t + 1", "(2*t - 1)/(p - 1/2)")]
    rnd = random.Random(41)
    for _ in range(40):
        h = _random_elem(rnd) * factors[rnd.randrange(len(factors))]
        if h:
            cases.extend((h, z) for z in _candidate_points(h)
                         if isinstance(z, Fraction) and 0 < z < 1)
    assert len(cases) >= 40
    for h, z in cases:
        assert vanishing_order(h, z).order == _sympy_order(h, z), (h, z)


def test_vanishing_order_takes_algebraic_points():
    # t = 1 + sqrt2 at an irrational p, where A + B*w cancels
    seen = 0
    for e in ("t - 1 - sqrt2", "(t + 1 + sqrt2)*(p^2 - 1/2)",
              "(p^2 - 1/2)^2/(p^2 - 1/3)"):
        h = lower(parse(e))
        for pt in _candidate_points(h):
            if not isinstance(pt, Fraction):
                seen += 1
                assert vanishing_order(h, pt) == vanishing_order_at_point(h, pt)
    assert seen >= 4


def test_vanishing_order_leaves_the_point_unchanged():
    # random h times t - 1 - sqrt2, which vanishes at p = 1/2 + sqrt2/4 and
    # not its conjugate: such a point takes the excess branch, which reads
    # the sign of Re(A*conj(B)) beside it
    from test_acceptance import _random_elem
    factor = lower(parse("t - 1 - sqrt2"))
    points = 0
    for seed in range(100):
        h = _random_elem(random.Random(seed)) * factor
        for pt in _candidate_points(h):
            if not isinstance(pt, Fraction):
                interval = (pt.lo, pt.hi)
                first = vanishing_order(h, pt)
                assert (pt.lo, pt.hi) == interval
                assert vanishing_order(h, pt) == first
                points += 1
    assert points >= 90


def test_vanishing_order_at_a_point_near_an_end_of_its_interval():
    # the root lies 10^-11 above lo of an interval of width about 1/7
    h = lower(parse("t - 1 - sqrt2"))
    (pt,) = [z for z in _candidate_points(h) if not isinstance(z, Fraction)]
    tight = AlgebraicPoint(pt.g, Fraction(pt.approx()) - Fraction(1, 10 ** 11), 1)
    res = vanishing_order_at_point(h, tight)
    assert res.order == 1 and "(-1, -1)" in res.residual
    assert res == vanishing_order(h, pt)


def test_candidate_points_match_the_conjugate_products():
    # the reference is the construction the real core replaced: the roots
    # of |n|^2*|C|^2, n = A^2 - B^2*p*(1-p); a point may keep a smaller
    # defining polynomial, but it is the same point
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from test_acceptance import _random_elem
    factors = [lower(parse(e)) for e in
               ("1", "p - 1/2", "t - 1", "p^2 - 1/2", "t - 1 - sqrt2",
                "(i*p + 1/3)*(p - 2/5)", "1/((p - 1/3)*(p^2 - 1/3))")]

    def key(z):
        return z if isinstance(z, Fraction) else (z.lo, z.hi, z.approx())

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2 ** 32))
    def check(seed):
        rnd = random.Random(seed)
        h = _random_elem(rnd) * factors[rnd.randrange(len(factors))]
        hypothesis.assume(h)
        n = w_norm((h.A, h.B))
        rat, alg = isolate_roots(
            (n * n.conj() * h.C * h.C.conj()).real_part(), 0, 1)
        want = [Fraction(0), Fraction(1)] + [z for z in rat if 0 < z < 1] + alg
        got = _candidate_points(h)
        assert [key(z) for z in got] == [key(z) for z in want]
        for z, ref in zip(got, want):
            if not isinstance(z, Fraction):
                assert multiplicity(ref.g, z) == 1

    check()


def _poly_order(h, pt):
    """The vanishing order at an interior point, read from the Poly
    construction: k, the order of A^2 - B^2*p*(1-p), and the signs of
    Re(A*conj(B)) beside the point; None for the signs when P = 2k."""
    A, B, C = h.parts
    k = min(multiplicity(f, pt) for f in (A, B) if f)
    p_ord = multiplicity(w_norm((A, B)), pt)
    n, signs = k, None
    if p_ord > 2 * k:
        if isinstance(pt, Fraction):
            m = min(pt, 1 - pt)
            pt = AlgebraicPoint(Poly((-pt, 1)), pt - m / 2, pt + m / 2)
        signs = pt.signs_beside((A * B.conj()).real_part())
        if signs == (-1, -1):
            n = p_ord - k
    return n - multiplicity(C, pt), signs


def test_integer_parts_match_the_poly_construction():
    # _candidate_points and vanishing_order_at_point build n*C and
    # V = Re(A*conj(B)) on integer parts over Z[z]; the reference builds
    # them on Polys. The planted factors reach interior rational points
    # (p - 1/2), algebraic points (p^2 - 1/2), and the excess branch, where
    # A + B*w vanishes and its conjugate does not (t - 1 - sqrt2)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from test_acceptance import _random_elem
    factors = [lower(parse(e)) for e in
               ("p - 1/2", "p^2 - 1/2", "t - 1 - sqrt2",
                "(p - 1/2)^2*(t - 1 - sqrt2)/(p^2 - 1/2)")]
    seen = {"rational": 0, "algebraic": 0, "excess": 0}

    def key(z):
        return z if isinstance(z, Fraction) else (z.lo, z.hi, z.g)

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2 ** 32))
    def check(seed):
        rnd = random.Random(seed)
        h = _random_elem(rnd) * factors[rnd.randrange(len(factors))]
        hypothesis.assume(h)
        rat, alg = isolate_roots(w_norm((h.A, h.B)) * h.C, 0, 1)
        want = [Fraction(0), Fraction(1)] + [z for z in rat if 0 < z < 1] + alg
        got = _candidate_points(h)
        assert [key(z) for z in got] == [key(z) for z in want]
        for z in got[2:]:
            order, signs = _poly_order(h, z)
            res = vanishing_order_at_point(h, z)
            assert res.order == order
            if signs is not None:
                assert f"{signs}" in res.residual
                seen["excess"] += 1
            seen["rational" if isinstance(z, Fraction) else "algebraic"] += 1

    check()
    assert min(seen.values()) >= 5, seen


def test_vanishing_order_rejects_bad_input():
    form = FieldElem.coin()
    with pytest.raises(ValueError):
        vanishing_order(form, 2)
    zero = FieldElem.from_abc(Poly.zero(), Poly.zero(), Poly.const(ONE))
    with pytest.raises(ValueError):
        vanishing_order(zero, Fraction(1, 2))


def test_order_result_carries_residual():
    form = FieldElem.coin()
    res = vanishing_order(form, 0)
    assert isinstance(res.residual, str) and res.residual


def test_views_and_printing_take_no_euclidean_gcd(monkeypatch):
    # r, s and str() of an element with complex B != 0 normalise on
    # integers, not by the Euclidean gcd over the scalar field
    h = lower(parse("(1/3 + i*p/7 + sqrt2*p^2/5)^3/(t + 1/2)^2"))
    assert h.B and not h.B.is_real() and h.C.degree > 0
    calls = []
    real = polys.poly_gcd

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(polys, "poly_gcd", counted)
    r, s, text = h.r, h.s, str(h)
    assert not calls
    monkeypatch.undo()
    assert (r, s) == (RatFn(h.A, h.C), RatFn(h.B * ONE_MINUS_P, h.C))
    assert text.startswith(f"{r} + ") and str(s) in text


# ---------------------------------------------------------------------------
# Canonical form (A + B*w)/C: property test on Gaussian-rational elements
# ---------------------------------------------------------------------------

def test_canonical_form_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    gaussian = st.builds(lambda a, b, c, d: Scalar(Fraction(a, b), 0, Fraction(c, d)),
                         st.integers(-3, 3), st.integers(1, 3),
                         st.integers(-3, 3), st.integers(1, 3))
    poly = st.lists(gaussian, min_size=1, max_size=3).map(lambda cs: Poly(tuple(cs)))
    ratfn = st.tuples(poly, poly.filter(lambda d: not d.is_zero())).map(
        lambda nd: RatFn(*nd))
    elem = st.builds(FieldElem, ratfn, ratfn)

    def parts(h):
        return (h.A, h.B, h.C)

    @hypothesis.settings(max_examples=50, deadline=None, database=None)
    @hypothesis.given(elem, elem, poly.filter(lambda f: not f.is_zero()),
                      st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(5, 7)]))
    def check(a, b, k, p0):
        assert FieldElem(a.r, a.s) == a
        assert FieldElem.from_abc(a.A, a.B, a.C) == a
        assert FieldElem.from_abc(a.A * k, a.B * k, a.C * k) == a
        assert a.C.leading == ONE
        if not a.is_zero():
            assert poly_gcd(poly_gcd(a.A, a.B), a.C).is_one()
        for x, y in ((a * b, b * a), ((a + b) - b, a)):
            assert parts(x) == parts(y) and hash(x) == hash(y)
        if not b.is_zero():
            q = (a * b) / b
            assert parts(q) == parts(a) and hash(q) == hash(a)
        if not a.C.eval_exact(p0):
            return  # a pole at p0
        x = float(p0)
        want = a.r.eval_complex(x) + a.s.eval_complex(x) * math.sqrt(x / (1 - x))
        assert abs(fe_eval(a, p0) - want) <= 1e-9 * (1 + abs(want))
        # the operations built on the shared A + B*w product and norm
        close = lambda got, want: abs(got - want) <= 1e-9 * (1 + abs(want))
        assert close(fe_eval(a.mod_squared(), p0), abs(want) ** 2)
        if b.C.eval_exact(p0):
            assert close(fe_eval(a * b, p0), want * fe_eval(b, p0))
        if abs(want) > 1e-6:
            inv = a.inverse()
            if inv.C.eval_exact(p0):  # A - B*w may still vanish at p0
                assert close(fe_eval(inv, p0), 1 / want)

    check()


# ---------------------------------------------------------------------------
# Construction on integers: FieldElem(r, s), powers, from_coprime
# ---------------------------------------------------------------------------

def _refuse(*args):
    raise AssertionError("Poly arithmetic, a gcd or an inverse in a "
                         "construction on integers")


def test_init_with_t_part_runs_on_integer_lists(monkeypatch):
    # FieldElem(r, s) sums r and s*w/(1-p) as lowering does, on zpoly
    # lists, and ends in from_zeta: no Poly product or sum, no Poly
    # canonical form
    from coinfield import field
    rnd = random.Random(30)
    pairs = [(random_ratfn(rnd), random_ratfn(rnd)) for _ in range(30)]
    pairs = [(r, s) for r, s in pairs if not s.is_zero()]
    with monkeypatch.context() as m:
        for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
            m.setattr(Poly, name, _refuse)
        m.setattr(polys, "canonical", _refuse)
        m.setattr(field, "canonical", _refuse)
        got = [FieldElem(r, s) for r, s in pairs]
    for h, (r, s) in zip(got, pairs):
        # the r + s*t formula on Polys, brought to canonical form by a gcd
        want = FieldElem.from_abc(r.num * s.den * ONE_MINUS_P, s.num * r.den,
                                  r.den * s.den * ONE_MINUS_P)
        assert h == want and (h.r, h.s) == (r, s)


@pytest.mark.parametrize("n", [3, -3])
def test_t_free_powers_take_no_inverse_and_no_gcd(monkeypatch, n):
    # a power of a nonzero element with B = 0, by ** or lowered at the
    # root, is raised on integers and made canonical by zpoly's normal
    # form: its parts stay coprime
    from coinfield import field
    texts = ["(2*p - 1/3)/(p + i)", "sqrt2*p^2 + 1/5", "3/(p^2 + 1)", "7"]
    hs = [lower(parse(x)) for x in texts]
    with monkeypatch.context() as m:
        for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
            m.setattr(Poly, name, _refuse)
        m.setattr(FieldElem, "inverse", _refuse)
        m.setattr(field, "zeta_canonical", _refuse)
        powers = [h ** n for h in hs]
        lowered = [lower(parse(f"({x})^{n}")) for x in texts]
    for h, got, low in zip(hs, powers, lowered):
        cube = h * h * h
        assert got == low == (cube if n > 0 else cube.inverse())


def test_from_coprime_matches_from_zeta_on_powers():
    # canonical t-free bases from lowering random shapes, raised on
    # integers: their parts share no factor, so normal alone gives the
    # canonical form the gcd gives
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from coinfield import lang
    from coinfield.zpoly import parts_pow
    atom = st.sampled_from(["p", "i", "sqrt2", "2", "1/3", "(p - 1/2)",
                            "(p + 2)", "(1 - p)"])
    shape = st.recursive(
        atom, lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner)
        .map(lambda x: f"({x[0]} {x[1]} {x[2]})"), max_leaves=6)
    exps = st.integers(-5, 5).filter(bool)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(shape, exps)
    def check(text, n):
        try:
            base = lang._power_base(lang.Pow(parse(text), n))
        except ZeroDivisionError:
            hypothesis.assume(False)
        hypothesis.assume(base[0])
        assert not base[1]
        xs = parts_pow(base, n)
        assert FieldElem.from_coprime(*xs) == FieldElem.from_zeta(*xs)

    check()


def test_init_matches_the_parsers_sum():
    # FieldElem(r, s) against lowering r + s*t from text, for r and s of
    # the acceptance shapes: r of degree at most 2 over 1, s 1 over 1,
    # Gaussian-rational coefficients
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    gaussian = st.builds(
        lambda a, b, c, d: Scalar(Fraction(a, b), 0, Fraction(c, d)),
        st.integers(-3, 3), st.integers(1, 2),
        st.integers(-3, 3), st.integers(1, 2))

    def ratfn(ndeg, ddeg):
        poly = lambda d: st.lists(gaussian, min_size=1, max_size=d + 1).map(
            lambda cs: Poly(tuple(cs)))
        return st.tuples(poly(ndeg), poly(ddeg).filter(bool)).map(
            lambda nd: RatFn(*nd))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(ratfn(2, 1), ratfn(1, 1))
    def check(r, s):
        assert FieldElem(r, s) == lower(parse(f"({r}) + ({s})*t"))

    check()
