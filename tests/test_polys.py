import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from coinfield.polys import (AlgebraicPoint, P, Poly, RatFn, SquareTest,
                             _canonical_euclid, canonical, certify_nonneg,
                             int_parts, isolate_roots, multiplicity, poly_gcd,
                             rational_roots, split_rational_roots, square_test,
                             squarefree_decompose, sturm_count)
from coinfield.scalars import ONE, SQRT2, Scalar, sqrt_fraction


def rational_poly(rnd, deg, span=5):
    coeffs = [Scalar(Fraction(rnd.randint(-span, span), rnd.randint(1, 3))) for _ in range(deg)]
    coeffs.append(Scalar(Fraction(rnd.randint(1, span))))
    return Poly(tuple(coeffs))


def from_roots(roots):
    f = Poly.const(ONE)
    for r in roots:
        f = f * Poly((Scalar(-r), ONE))
    return f


# ---------------------------------------------------------------------------
# Ring arithmetic
# ---------------------------------------------------------------------------

def test_eval_matches_numpy():
    rnd = random.Random(7)
    for _ in range(30):
        f = rational_poly(rnd, rnd.randint(0, 5))
        cs = [complex(c.to_complex()) for c in f.coeffs]
        for _ in range(4):
            z = complex(rnd.uniform(-2, 2), rnd.uniform(-2, 2))
            want = np.polyval(list(reversed(cs)), z)
            assert abs(f.eval_complex(z) - want) < 1e-9


def test_divmod_property():
    rnd = random.Random(11)
    for _ in range(40):
        f = rational_poly(rnd, rnd.randint(0, 6))
        g = rational_poly(rnd, rnd.randint(1, 4))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


def test_gcd_of_shifted_products():
    a = from_roots([Fraction(1)])
    f = a * from_roots([Fraction(-2)])
    g = a * from_roots([Fraction(-3)])
    assert poly_gcd(f, g) == a
    assert poly_gcd(f, g).monic() == poly_gcd(f, g)


def test_gcd_coprime_is_one():
    f = from_roots([Fraction(1, 2)])
    g = from_roots([Fraction(1, 3)])
    assert poly_gcd(f, g).is_one()


# ---------------------------------------------------------------------------
# Squarefree structure and square detection
# ---------------------------------------------------------------------------

def test_squarefree_decompose_reconstructs():
    a = from_roots([Fraction(1, 2)])
    b = from_roots([Fraction(-1)])
    f = a * a * b * b * b * Poly.const(Scalar(3))
    lead, parts = squarefree_decompose(f)
    rebuilt = Poly.const(lead)
    for g, m in parts:
        for _ in range(m):
            rebuilt = rebuilt * g
    assert rebuilt == f
    mults = sorted(m for _, m in parts)
    assert mults == [2, 3]


def test_square_test_reports_odd_factors():
    # p^2 / (1 - p^2) leaves the two linear factors of the denominator
    # unmatched; half is the root p of the even part
    res = square_test([0, 0, 1], [1, 0, -1])
    assert res.half == ([0, 1], [1]) and res.lc_ratio == -1
    assert sorted(res.odd_factors) == [[-1, 1], [1, 1]]  # p - 1, p + 1


def test_square_test_accepts_square():
    # p^2/4 at two scales of its lists, and zero
    for num, den in (([0, 0, 1], [4]), ([0, 0, 2], [8])):
        res = square_test(num, den)
        assert res.odd_factors == () and res.lc_ratio == Fraction(1, 4)
        assert res.half[0] == [0, res.half[1][0]] and len(res.half[1]) == 1
    assert square_test([], [1]) == square_test([], [3, 1]) \
        == SquareTest((), Fraction(0), ([], [1]))


# ---------------------------------------------------------------------------
# Rational function canonical form
# ---------------------------------------------------------------------------

def test_ratfn_cancels_common_factor():
    f = RatFn(P * P - Poly.const(ONE), P - Poly.const(ONE))
    assert f == RatFn.from_poly(P + Poly.const(ONE))
    assert f.den.is_one()


def test_ratfn_den_monic():
    f = RatFn(P, Poly.const(Scalar(2)) * (P + Poly.const(ONE)))
    assert f.den.leading == ONE


def test_ratfn_zero_den_raises():
    with pytest.raises(ZeroDivisionError):
        RatFn(P, Poly.zero())


def test_ratfn_arithmetic_matches_floats():
    rnd = random.Random(13)
    for _ in range(25):
        f = RatFn(rational_poly(rnd, 2), rational_poly(rnd, 1))
        g = RatFn(rational_poly(rnd, 1), rational_poly(rnd, 2))
        z = complex(rnd.uniform(0.1, 0.9), 0)
        for h, op in ((f + g, lambda x, y: x + y), (f * g, lambda x, y: x * y),
                      (f - g, lambda x, y: x - y)):
            want = op(f.eval_complex(z), g.eval_complex(z))
            assert abs(h.eval_complex(z) - want) < 1e-8


# ---------------------------------------------------------------------------
# Root counting and isolation
# ---------------------------------------------------------------------------

def test_sturm_count_known_cases():
    assert sturm_count(P * P - Poly.const(Scalar(Fraction(1, 2))), 0, 1) == 1
    f = from_roots([Fraction(1, 4), Fraction(3, 4)])
    assert sturm_count(f, 0, 1) == 2
    assert sturm_count(f, Fraction(1, 2), 1) == 1
    assert sturm_count(Poly.const(Scalar(5)), 0, 1) == 0


def test_sturm_count_matches_construction():
    rnd = random.Random(19)
    for _ in range(30):
        roots = sorted(set(Fraction(rnd.randint(-4, 8), rnd.randint(1, 8)) for _ in range(3)))
        f = from_roots(roots)
        inside = sum(1 for r in roots if 0 < r < 1)
        assert sturm_count(f, 0, 1) == inside


def test_isolate_roots_mixed():
    f = (P * P - Poly.const(Scalar(Fraction(1, 2)))) * from_roots([Fraction(1, 4)])
    rat, alg = isolate_roots(f, 0, 1)
    assert rat == [Fraction(1, 4)]
    assert len(alg) == 1
    pt = alg[0]
    assert abs(pt.approx() - 0.5 ** 0.5) < 1e-9
    assert multiplicity(f, pt) == 1
    with pytest.raises(ValueError):
        isolate_roots(f, 1, 0)


def test_rational_roots():
    f = from_roots([Fraction(1, 2), Fraction(-3), Fraction(7, 5)])
    assert sorted(rational_roots(f)) == [Fraction(-3), Fraction(1, 2), Fraction(7, 5)]
    assert rational_roots(P * P - Poly.const(Scalar(2))) == []


def test_rational_root_with_large_denominator():
    # 1/3^70 lies between irrational roots; only the grid 3^-70 * Z of the
    # rational root theorem tells where to look
    f = Poly([-1, 3 ** 70]) * Poly([-2, 0, 1])
    assert rational_roots(f) == [Fraction(1, 3 ** 70)]
    assert isolate_roots(f, 0, 1) == ([Fraction(1, 3 ** 70)], [])


def test_isolate_roots_without_rational_roots_is_fast():
    f = Poly([Fraction(-3, 5), Fraction(57, 10), Fraction(-11, 2),
              Fraction(-3, 10), 1])
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        rat, alg = isolate_roots(f, -5, 5)
        took.append(time.perf_counter() - t0)
    assert rat == [] and len(alg) == 4
    assert min(took) < 0.05


def test_split_rational_roots():
    g = from_roots([Fraction(1, 3)]) * (P * P - Poly.const(Scalar(3)))
    parts = split_rational_roots(g)
    assert len(parts) == 2
    prod = Poly.const(ONE)
    for h in parts:
        prod = prod * h
    assert prod.monic() == g.monic()


# ---------------------------------------------------------------------------
# Nonnegativity certificates
# ---------------------------------------------------------------------------

def test_certify_nonneg_cases():
    half = Poly.const(Scalar(Fraction(1, 2)))
    assert certify_nonneg((P - half) * (P - half), 0, 1)
    assert certify_nonneg(P, 0, 1)
    assert not certify_nonneg(P - half, 0, 1)
    assert not certify_nonneg(Poly.const(Scalar(-1)), 0, 1)
    assert certify_nonneg(Poly.zero(), 0, 1)


def test_certify_nonneg_matches_sampling():
    rnd = random.Random(29)
    for _ in range(30):
        f = rational_poly(rnd, rnd.randint(1, 4))
        xs = [Fraction(j, 16) for j in range(17)]
        sampled_nonneg = all(f.eval_exact(x).sign() >= 0 for x in xs)
        cert = certify_nonneg(f, 0, 1)
        if cert:
            assert sampled_nonneg
        if not sampled_nonneg:
            assert not cert


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def test_algebraic_point_queries():
    g = P * P - Poly.const(Scalar(2))
    rat, alg = isolate_roots(g, 1, 2)
    assert rat == [] and len(alg) == 1
    pt = alg[0]
    assert multiplicity(g * g, pt) == 2
    assert multiplicity(P, pt) == 0


def complex_poly(rnd, deg):
    return Poly(tuple(Scalar(Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)),
                             rnd.choice((0, Fraction(1, 2))),
                             Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)),
                             rnd.choice((0, -1)))
                      for _ in range(deg + 1)))


def test_multiplicity_of_rational_and_algebraic_points():
    rnd = random.Random(211)
    golden = P * P + P - Poly.const(ONE)  # root (sqrt5 - 1)/2 in (0, 1)
    pt = isolate_roots(golden, 0, 1)[1][0]
    for _ in range(40):
        f = complex_poly(rnd, rnd.randint(0, 3))
        k = rnd.randint(0, 3)
        z = Fraction(rnd.randint(-4, 4), rnd.randint(1, 4))
        if f and f.eval_exact(z):
            assert multiplicity(f * Poly((Scalar(-z), ONE)) ** k, z) == k
        if f and multiplicity(f, pt) == 0:
            assert multiplicity(f * golden ** k, pt) == k
    assert multiplicity(Poly(), Fraction(1, 3)) is None
    assert multiplicity(Poly(), pt) is None
    # a root of the real part alone does not count
    assert multiplicity(Poly((Scalar(-1, 0, 1), ONE)), Fraction(1)) == 0


def planted_complex_poly(rnd):
    """A complex polynomial with Gaussian and sqrt2 coefficients: planted
    rational roots, quadratic ones (from (p - a)^2 - b and from p - c*sqrt2)
    in (0, 1), to multiplicity 1 or 2, times a random complex cofactor."""
    f = Poly()
    while not f:
        f = complex_poly(rnd, rnd.randint(0, 3))
    for _ in range(rnd.randint(0, 2)):
        f = f * Poly((-Fraction(rnd.randint(1, 9), 10), 1)) ** rnd.randint(1, 2)
    for _ in range(rnd.randint(0, 2)):
        a, b = Fraction(rnd.randint(2, 8), 10), Fraction(rnd.randint(1, 3), 100)
        planted = rnd.choice((Poly((a * a - b, -2 * a, 1)),
                              Poly((Scalar(0, -Fraction(rnd.randint(1, 7), 10)), 1))))
        f = f * planted ** rnd.randint(1, 2)
    return f


def test_real_roots_of_a_complex_poly_match_its_conjugate_product():
    # the reference is the rule the real core replaced: the real roots of f
    # are those of f*conj(f), and a point's multiplicity in f is the least
    # over the nonzero real and imaginary parts
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def key(pt):
        return (pt.lo, pt.hi, pt.approx())

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2 ** 32))
    def check(seed):
        rnd = random.Random(seed)
        f = planted_complex_poly(rnd)
        rat, alg = isolate_roots(f, 0, 1)
        ref_rat, ref_alg = isolate_roots((f * f.conj()).real_part(), 0, 1)
        assert rat == ref_rat
        assert [key(pt) for pt in alg] == [key(pt) for pt in ref_alg]
        parts = [g for g in (f.real_part(), f.imag_part()) if g]
        for z in rat + alg + [Fraction(rnd.randint(0, 10), 10)]:
            assert multiplicity(f, z) == min(multiplicity(g, z) for g in parts)

    check()


def test_poly_json_round_trip():
    f = Poly((Scalar(1), Scalar(0, 1), Scalar(0, 0, Fraction(1, 2))))
    assert Poly.from_json(f.to_json()) == f


# ---------------------------------------------------------------------------
# Root layer against an independent oracle
# ---------------------------------------------------------------------------

def test_root_layer_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    frac = st.builds(Fraction, st.integers(-6, 9), st.integers(1, 6))

    @st.composite
    def case(draw):
        a = draw(st.builds(Fraction, st.integers(-4, 2), st.integers(1, 4)))
        b = a + draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))
        # roots at 0, at 1 and at the interval ends come up often
        root = st.one_of(st.sampled_from([Fraction(0), Fraction(1), a, b]), frac)
        f = Poly.const(Scalar(draw(frac.filter(bool))))
        for _ in range(draw(st.integers(0, 3))):
            f = f * Poly((Scalar(-draw(root)), ONE)) ** draw(st.integers(1, 2))
        for _ in range(draw(st.integers(0, 2))):
            f = f * Poly(tuple(Scalar(draw(frac)) for _ in range(2)) + (ONE,))
        return f, a, b

    def oracle(f):
        return sympy.Poly([sympy.Rational(c.as_fraction().numerator,
                                          c.as_fraction().denominator)
                           for c in reversed(f.coeffs)], x)

    def distinct_inside(g, lo, hi):
        # distinct real roots of g in the open interval (lo, hi)
        sf = g.sqf_part()
        lo, hi = sympy.Rational(lo), sympy.Rational(hi)
        return sf.count_roots(lo, hi) - (sf.eval(lo) == 0) - (sf.eval(hi) == 0)

    @hypothesis.settings(max_examples=30, deadline=None, database=None)
    @hypothesis.given(case())
    def check(fab):
        f, a, b = fab
        g = oracle(f)
        assert sturm_count(f, a, b) == distinct_inside(g, a, b)
        rationals = sorted(Fraction(int(r.p), int(r.q)) for r in g.ground_roots())
        assert rational_roots(f) == rationals
        rat, alg = isolate_roots(f, 0, 1)
        inner = [r for r in rationals if 0 < r < 1]
        assert rat == inner
        assert len(alg) == distinct_inside(g, 0, 1) - len(inner)
        for pt, nxt in zip(alg, alg[1:] + [None]):
            assert 0 <= pt.lo < pt.hi <= 1 and (nxt is None or pt.hi <= nxt.lo)
            assert distinct_inside(g, pt.lo, pt.hi) == 1 + sum(
                pt.lo < r < pt.hi for r in inner)
            near = Fraction(pt.approx())
            assert distinct_inside(g, near - Fraction(1, 10 ** 9),
                                   near + Fraction(1, 10 ** 9)) >= 1
        prod = Poly.const(ONE)
        for piece in split_rational_roots(f.monic()):
            prod = prod * piece
        assert prod == f.monic()

    check()


def test_refine_returns_a_narrower_point_and_keeps_the_original():
    (pt,) = isolate_roots(P * P - Poly.const(Scalar(Fraction(1, 2))), 0, 1)[1]
    lo, hi = pt.lo, pt.hi
    narrower = pt.refine()
    assert (pt.lo, pt.hi) == (lo, hi)
    assert lo <= narrower.lo < narrower.hi <= hi
    assert narrower.hi - narrower.lo == (hi - lo) / 2
    assert narrower.g == pt.g
    assert narrower.lo ** 2 < Fraction(1, 2) < narrower.hi ** 2
    pt.approx()
    assert (pt.lo, pt.hi) == (lo, hi)
    # a midpoint that is the point itself stays inside the narrower interval
    third = AlgebraicPoint(P - Poly.const(Scalar(Fraction(1, 3))),
                           Fraction(1, 6), Fraction(1, 2)).refine()
    assert (third.lo, third.hi) == (Fraction(1, 4), Fraction(5, 12))


def _bracket_sqrt(q: Fraction, scale: int) -> tuple[Fraction, Fraction]:
    """Rationals x < sqrt(q) < y with y - x = 1/scale, for non-square q."""
    n = math.isqrt(q.numerator * scale * scale // q.denominator)
    return Fraction(n, scale), Fraction(n + 1, scale)


def test_signs_beside_matches_exact_evaluation():
    # the reference evaluates v exactly at rationals within 10^-30 of the
    # point; the planted roots are rationals k/12 and square roots of
    # non-square k/12, which lie at least 1/288 apart, so no other root of
    # v lies that close
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    eps = Fraction(1, 10 ** 30)
    small = st.builds(Fraction, st.integers(1, 11), st.just(12))
    nonsquare = st.builds(Fraction, st.integers(1, 11), st.just(12)) \
        .filter(lambda q: sqrt_fraction(q) is None)

    def linear(z):
        return Poly((Scalar(-z), ONE))

    def quadratic(q):
        return P * P - Poly.const(Scalar(q))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.booleans(), small, nonsquare,
                      st.lists(small, max_size=4), st.lists(nonsquare, max_size=2),
                      st.integers(0, 3), st.sampled_from([-1, 1]),
                      small, small)
    def check(rational, z, q, roots, quads, mult, sign, left, right):
        if rational:
            pt = AlgebraicPoint(linear(z), z - left / 2, z + right / 2)
            below, above = z - eps, z + eps
            at = linear(z)
        else:
            (pt,) = isolate_roots(quadratic(q), 0, 1)[1]
            lo, hi = _bracket_sqrt(q, 10 ** 31)
            below, above = lo - eps, hi + eps
            at = quadratic(q)
        v = Poly.const(Scalar(sign)) * at ** mult
        for r in roots:
            v = v * linear(r)
        for s in quads:
            v = v * quadratic(s)
        want = tuple(v.eval_exact(x).sign() for x in (below, above))
        assert pt.signs_beside(v) == want
        assert pt.signs_beside(v * v) == (1, 1)
        assert pt.signs_beside(-v) == tuple(-s for s in want)

    check()


def test_isolate_roots_pinned_intervals():
    # intervals the bisection gives, recorded so a rewrite cannot move them
    half = Poly.const(Scalar(Fraction(1, 2)))
    f = (P * P - half) * (P - half) * (P * P * P - P + Poly.const(Scalar(Fraction(1, 5))))
    rat, alg = isolate_roots(f, 0, 1)
    assert rat == [Fraction(1, 2)]
    assert [(pt.lo, pt.hi) for pt in alg] == [
        (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(3, 4), Fraction(1))]
    g = from_roots([Fraction(0), Fraction(1), Fraction(1, 3)]) * (
        P * P - Poly.const(Scalar(Fraction(1, 10)))) * (
        P * P - P + Poly.const(Scalar(Fraction(1, 5))))
    rat, alg = isolate_roots(g, 0, 1)
    assert rat == [Fraction(1, 3)]
    assert [(pt.lo, pt.hi) for pt in alg] == [
        (Fraction(1, 4), Fraction(5, 16)), (Fraction(5, 16), Fraction(3, 8)),
        (Fraction(1, 2), Fraction(1))]



def _sympy_oracle(sqrt2):
    """hypothesis strategies for rational or Q(sqrt2) polynomials, and their
    conversion to sympy, the independent oracle, over QQ or QQ<sqrt(2)>."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    QQ = sympy.QQ
    K = QQ.algebraic_field(sympy.sqrt(2))
    assert K.to_sympy(K([QQ(1), QQ(0)])) == sympy.sqrt(2)
    frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

    def scalar(sqrt2):
        return st.builds(Scalar, frac, frac if sqrt2 else st.just(0))

    @st.composite
    def poly(draw, linear=3):
        # products of linear and quadratic factors, some of them repeated
        f = Poly.const(draw(scalar(sqrt2).filter(bool)))
        for _ in range(draw(st.integers(0, linear))):
            f = f * Poly((-draw(scalar(sqrt2)), ONE)) ** draw(st.integers(1, 3))
        for _ in range(draw(st.integers(0, 2))):
            quad = Poly((draw(scalar(sqrt2)), draw(scalar(sqrt2)), ONE))
            f = f * quad ** draw(st.integers(1, 2))
        return f

    def to_sympy(f):
        # K([b, a]) is b*sqrt2 + a
        def q(x):
            return QQ(x.numerator, x.denominator)
        if not sqrt2:
            return sympy.Poly.from_list([q(c.a) for c in reversed(f.coeffs)],
                                        x, domain=QQ)
        return sympy.Poly.from_list([K([q(c.b), q(c.a)])
                                     for c in reversed(f.coeffs)], x, domain=K)

    settings = hypothesis.settings(max_examples=30, deadline=None,
                                   database=None)
    return hypothesis, st, sympy, poly, to_sympy, settings


def _factor_set(parts):
    return sorted((str(g.monic().all_coeffs()), m) for g, m in parts)


@pytest.mark.parametrize("sqrt2", [False, True])
def test_gcd_and_squarefree_match_sympy(sqrt2):
    hypothesis, st, sympy, poly, to_sympy, settings = _sympy_oracle(sqrt2)

    @settings
    @hypothesis.given(poly(2), poly(2), poly(2))
    def check(f, g, h):
        # a shared factor h makes the gcd nontrivial
        f, g = f * h, g * h
        F, G = to_sympy(f), to_sympy(g)
        assert to_sympy(poly_gcd(f, g)) == F.gcd(G).monic()
        lead, parts = squarefree_decompose(f)
        assert lead == f.leading
        assert _factor_set((to_sympy(g), m) for g, m in parts) \
            == _factor_set(F.sqf_list()[1])
        u = RatFn(f, g)
        if not u.is_rational():
            return
        res = square_test(*int_parts((u.num, u.den)))
        (ln, num), (ld, den) = (to_sympy(part).sqf_list()
                                for part in (u.num, u.den))
        even = all(m % 2 == 0 for _, m in num + den)
        square = not res.odd_factors and sqrt_fraction(res.lc_ratio) is not None
        assert square == (even and sympy.sqrt(ln / ld).is_rational)
        odd = to_sympy(Poly.const(ONE))
        for piece in res.odd_factors:
            odd = odd * to_sympy(Poly(piece)).monic()
        want = to_sympy(Poly.const(ONE))
        for w, m in num + den:
            want = want * w.monic() ** (m % 2)
        assert odd == want
        # with no odd factor, u is lc_ratio times the square of half
        for v in (u, u * u):
            res = square_test(*int_parts((v.num, v.den)))
            hn, hd = res.half
            assert v is u or not res.odd_factors
            if not res.odd_factors:
                assert RatFn(Poly(hn), Poly(hd)) ** 2 * res.lc_ratio == v

    check()


@pytest.mark.parametrize("sqrt2", [False, True])
def test_sturm_and_nonneg_match_sympy(sqrt2):
    hypothesis, st, sympy, poly, to_sympy, settings = _sympy_oracle(sqrt2)
    ends = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))

    def distinct_inside(g, lo, hi):
        # distinct real roots of g in the open interval (lo, hi)
        sf = g.sqf_part()
        lo, hi = sympy.Rational(lo), sympy.Rational(hi)
        return sf.count_roots(lo, hi) - (sf.eval(lo) == 0) - (sf.eval(hi) == 0)

    def nonneg(g, lo, hi):
        # g >= 0 on [lo, hi]: no odd-multiplicity root inside, g >= 0 at
        # both ends and g > 0 at the first point inside where it is not 0
        odd = [w for w, m in g.sqf_list()[1] if m % 2]
        if any(distinct_inside(w, lo, hi) for w in odd):
            return False
        lo, hi = sympy.Rational(lo), sympy.Rational(hi)
        if g.eval(lo) < 0 or g.eval(hi) < 0:
            return False
        inside = (g.eval(lo + (hi - lo) * sympy.Rational(k, 97))
                  for k in range(1, 97))
        return next(v for v in inside if v != 0) > 0

    @settings
    @hypothesis.given(poly(), ends, ends)
    def check(f, a, b):
        hypothesis.assume(a != b)
        a, b = min(a, b), max(a, b)
        g = to_sympy(f)
        assert sturm_count(f, a, b) == distinct_inside(g, a, b)
        assert certify_nonneg(f, a, b) == nonneg(g, a, b)
        assert certify_nonneg(f * f, a, b)

    check()


@pytest.mark.parametrize("sqrt2", [False, True])
def test_descartes_counts_match_sympy_at_planted_roots(sqrt2):
    # roots planted where the bisection meets them: at the ends of (a, b),
    # at its dyadic midpoints, at 1/3, which no midpoint of these intervals
    # hits, and in pairs down to 10^-12 apart; an even order keeps a cell's
    # sign variations at 2 or more, so its cell stalls
    hypothesis, st, sympy, poly, to_sympy, settings = _sympy_oracle(sqrt2)
    third = Fraction(1, 3)
    intervals = [(Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(3, 4)),
                 (third, Fraction(2)), (Fraction(-2), third)]

    def linear(z):
        return Poly((Scalar(-z), ONE))

    @st.composite
    def case(draw):
        a, b = draw(st.sampled_from(intervals))
        mid = (a + b) / 2
        spot = st.sampled_from([a, b, mid, (a + mid) / 2, (mid + b) / 2, third])
        order = st.integers(1, 4)
        f = draw(poly(1))
        for _ in range(draw(st.integers(1, 3))):
            f = f * linear(draw(spot)) ** draw(order)
        if draw(st.booleans()):
            z = draw(spot)
            gap = Fraction(draw(st.sampled_from([-1, 1])),
                           10 ** draw(st.integers(1, 12)))
            f = f * linear(z) ** draw(order) * linear(z + gap) ** draw(order)
        return f, a, b

    def distinct_inside(g, lo, hi):
        sf = g.sqf_part()
        lo, hi = sympy.Rational(lo), sympy.Rational(hi)
        return sf.count_roots(lo, hi) - (sf.eval(lo) == 0) - (sf.eval(hi) == 0)

    def nonneg(g, lo, hi):
        # no odd-order root inside, and g > 0 at an inside point where it is
        # not 0 (the planted roots lie off the grid k/997 but for the ends)
        if any(distinct_inside(w, lo, hi) for w, m in g.sqf_list()[1] if m % 2):
            return False
        lo, hi = sympy.Rational(lo), sympy.Rational(hi)
        inside = (g.eval(lo + (hi - lo) * sympy.Rational(k, 997))
                  for k in range(1, 997))
        return next(v for v in inside if v != 0) > 0

    @settings
    @hypothesis.given(case())
    def check(fab):
        f, a, b = fab
        g = to_sympy(f)
        want = distinct_inside(g, a, b)
        assert sturm_count(f, a, b) == want
        assert certify_nonneg(f, a, b) == nonneg(g, a, b)
        assert certify_nonneg(f * f, a, b)
        rat, alg = isolate_roots(f, a, b)
        assert len(rat) + len(alg) == want
        assert all(not f.eval_exact(r) for r in rat)

    check()


@pytest.mark.parametrize("sqrt2", [False, True])
def test_canonical_integer_path_matches_euclid(sqrt2):
    # real parts take zeta_canonical; the canonical form is unique, so it
    # must equal the Euclidean path over the scalar field
    hypothesis, st, sympy, poly, to_sympy, settings = _sympy_oracle(sqrt2)

    @settings
    @hypothesis.given(poly(2), poly(2), poly(2), poly(2), st.booleans())
    def check(den, a, b, shared, b_zero):
        den, a = den * shared, a * shared
        nums = (a, Poly() if b_zero else b * shared)
        got = canonical(den, *nums)
        assert got == _canonical_euclid(den, nums)
        assert got[0].leading == ONE

    check()


def test_gcd_over_gaussian_sqrt2_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    QQ = sympy.QQ
    K = QQ.algebraic_field(sympy.sqrt(2), sympy.I)
    # build elements from the two generators: converting each coefficient
    # from a sympy expression takes seconds
    r2, i = K.from_sympy(sympy.sqrt(2)), K.from_sympy(sympy.I)
    assert K.to_sympy(r2 * r2) == 2 and K.to_sympy(i * i) == -1
    frac = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    scalar = st.builds(Scalar, frac, frac, frac, frac)

    @st.composite
    def poly(draw):
        f = Poly.const(draw(scalar.filter(bool)))
        for _ in range(draw(st.integers(0, 2))):
            f = f * Poly((-draw(scalar), ONE)) ** draw(st.integers(1, 2))
        if draw(st.booleans()):
            f = f * Poly((draw(scalar), draw(scalar), ONE))
        return f

    def to_sympy(f):
        def q(v):
            return K.convert(QQ(v.numerator, v.denominator))
        return sympy.Poly.from_list(
            [q(c.a) + q(c.b) * r2 + q(c.c) * i + q(c.d) * i * r2
             for c in reversed(f.coeffs)], x, domain=K)

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(poly(), poly(), poly())
    def check(f, g, h):
        # a shared factor h makes the gcd nontrivial
        f, g = f * h, g * h
        assert to_sympy(poly_gcd(f, g)) == to_sympy(f).gcd(to_sympy(g)).monic()

    check()
