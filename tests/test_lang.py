"""Expression grammar: parsing, printing, and lowering into the field."""

import math
import random
from fractions import Fraction

import pytest

from coinfield import field, lang, polys
from coinfield.field import (FE_ONE, ONE_MINUS_P, FieldElem, TAU, fe_add,
                             fe_eval, fe_mul)
from coinfield.lang import (MAX_DEGREE, Add, DegreeLimitError, Div, Expr, I,
                            Mul, NotInFieldError, P, ParseError, Pow, RationalConst,
                            Sqrt, Sqrt2, Sub, T, eval_expr_numeric, field_sqrt,
                            lower, parse, print_expr)
from coinfield.polys import P as P_POLY
from coinfield.polys import Poly, RatFn, zeta_poly
from coinfield.scalars import MAX_DIGITS, ONE, Scalar
from coinfield.zpoly import Z1


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
                 "1/(p+1)^100 + 1/(p+2)^100",
                 "((((2^128)^128)^128)^128)^128", "((2^128)^128)^128"):
        with pytest.raises(DegreeLimitError):
            lower(parse(text))


def test_parts_that_cancel_under_the_limit_lower():
    # the limit reads the parts lowering builds, and a power's base is
    # normalised before it is checked, so these are no longer refused
    assert lower(parse("(p^2/p)^65")) == FieldElem(RatFn(P_POLY ** 65))
    assert lower(parse("((1+p)*(1-p)/(1-p))^100")) == \
        FieldElem(RatFn(Poly((1, 1)) ** 100))
    h = lower(parse("((((p+t)^3)^3)^3)^3"))
    assert max(h.A.degree, h.B.degree + 1, h.C.degree) == 122
    assert lower(parse("(2^128)^128")) == FieldElem.const(2 ** 16384)


def test_first_fault_wins():
    # each input has two faults; lowering reports the one it meets first
    with pytest.raises(NotInFieldError):
        lower(parse("sqrt(p) + p^200"))
    with pytest.raises(ZeroDivisionError):
        lower(parse("1/(t-t) + p^200"))
    with pytest.raises(DegreeLimitError):
        lower(parse("p^200 + 1/(t-t)"))


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
    ("sqrt(2*(1 - 2*p)^2*p/(1 - p))", 1),
])
def test_sqrt_square_test_count(monkeypatch, text, tests):
    from coinfield import lang
    from coinfield.analysis import decide_qq_ratio
    calls = []
    real = lang.square_test

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lang, "square_test", counted)
    decide_qq_ratio(text)
    assert len(calls) == tests


def _square_test(u):
    """square_test on the integer lists of a rational RatFn u, its odd
    factors as monic Polys and its half as a RatFn."""
    res = polys.square_test(*polys.int_parts((u.num, u.den)))
    return (tuple(polys._from_int(f) for f in res.odd_factors), res.lc_ratio,
            RatFn(*(Poly(f) for f in res.half)))


def _sqrt_by_two_factorisations(u):
    """The square-root rule as two factorisations: square_test(u), then
    square_test(u*(1-p)/p) when u's odd factors are p and p - 1; the root
    scale*q, or q*t, with q's sign read by Scalar evaluation at 1/2, 1/4,
    3/4, 1/8, ..., or the sign-normalised odd factors when there is none."""
    odd, lc_ratio, half = _square_test(u)
    direct = odd
    via_t = len(direct) == 2 and set(direct) == {Poly((0, 1)), Poly((-1, 1))}
    if via_t:
        odd, lc_ratio, half = _square_test(u * _OMP / _PR)
    scale = None if odd else field.sqrt_in_scalar_field(lc_ratio)
    if scale is None:
        return tuple(f.sign_normalized() for f in direct)
    q, k, sign = half, 2, 0
    while not sign:
        for x in (Fraction(1, k), Fraction(k - 1, k)):
            if not sign and q.den.eval_exact(x):
                sign = q.eval_exact(x).sign()
        k *= 2
    q = q * (scale if sign > 0 else -scale)
    return FieldElem(polys.ZERO_RF, q) if via_t else FieldElem(q)


@pytest.mark.parametrize("c", ["1", "4/9", "2", "-1", "-2"])
@pytest.mark.parametrize("shape", ["", "*p/(1-p)", "*(1-p)/p", "*p*(p-1)",
                                   "/(p*(p-1))"])
def test_sqrt_lowers_on_integer_lists(monkeypatch, shape, c):
    # a sqrt argument and its root stay zpoly parts: with Poly refused,
    # _parts lowers a sum with a square root in it, and the root squares
    # back to the argument
    arg = f"{c}*((1-2*p)/(p+2))^2{shape}"
    e = parse(f"sqrt({arg}) + p")

    def refuse(*args):
        raise AssertionError("a Poly built while lowering")

    with monkeypatch.context() as m:
        m.setattr(Poly, "__init__", refuse)
        parts = lang._parts(e)
    root = FieldElem.from_zeta(*parts) - lower(parse("p"))
    assert root * root == lower(parse(arg))


def test_sqrt_rule_matches_two_factorisations():
    # q has rational roots among 0 and 1, so p and p - 1 also occur in u
    # with even multiplicity; the one factorisation of u must give the
    # element, or the odd factors, that the two-factorisation rule gives
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    roots = st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2),
                                      Fraction(-1), Fraction(2), Fraction(1, 3)]),
                     max_size=3)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(roots, roots,
                      st.sampled_from(["1", "4/9", "2", "1/2", "-1", "-2", "3"]),
                      st.sampled_from(sorted(SQRT_SHAPES)))
    def check(num_roots, den_roots, c, shape):
        q = RatFn.const(1)
        for z in num_roots:
            q = q * RatFn.from_poly(Poly((-z, 1)))
        for z in den_roots:
            q = q / RatFn.from_poly(Poly((-z, 1)))
        u = RatFn.const(Fraction(c)) * q * q * SQRT_SHAPES[shape]
        want = _sqrt_by_two_factorisations(u)
        if isinstance(want, FieldElem):
            assert field_sqrt(u) == want
            return
        with pytest.raises(NotInFieldError) as exc:
            field_sqrt(u)
        assert exc.value.odd_factors == want

    check()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: sqrt refuses an "
                   "argument with coefficients outside Q before it sees "
                   "that the root lies in the field")
def test_sqrt_of_a_square_with_irrational_coefficients():
    # sqrt(i) = z8, sqrt(2i*p^2) = (1 + i)*p, sqrt((3 + 2 sqrt2)*p^2) =
    # (1 + sqrt2)*p: each prints "simulable: no" today
    from coinfield.analysis import decide_qq_ratio
    for arg in ("i", "2*i*p^2", "(3+2*sqrt2)*p^2"):
        d = decide_qq_ratio(f"sqrt({arg})")
        assert d.simulable and d.element * d.element == lower(parse(arg))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: sqrt refuses an "
                   "argument with a t part before it sees that the root "
                   "lies in the field")
def test_sqrt_of_a_square_with_a_t_part():
    # t + 1 and p + t are positive on (0, 1), so each is the root of its
    # square; each prints "simulable: no" today
    from coinfield.analysis import decide_qq_ratio
    for arg in ("t+1", "p+t"):
        d = decide_qq_ratio(f"sqrt(({arg})^2)")
        assert d.simulable and d.element == lower(parse(arg))


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
    # a part is checked as it is built, before any common factor cancels,
    # so a product that would cancel back under the limit is refused;
    # inputs whose parts stay within it still lower
    with pytest.raises(DegreeLimitError):
        lower(parse("(p^70/(p+1)^70)*((p+1)^70/p^70)"))
    assert lower(parse("(p^100 + 1) - p^100")) == FE_ONE
    assert lower(parse("p^64*p^64")) == FieldElem(RatFn(P_POLY ** MAX_DEGREE))
    h = lower(parse("p^70/(p+1)^70"))
    assert (h.A.degree, h.C.degree) == (70, 70)
    h = lower(parse("t^-128"))
    assert (h.A.degree, h.B.degree, h.C.degree) == (64, -1, 64)


# ---------------------------------------------------------------------------
# Lowering on unnormalised parts, against the eager evaluation
# ---------------------------------------------------------------------------

def eager_lower(e):
    """The oracle: one FieldElem operation per node, each brought to
    canonical form. A power is the product of |n| copies of its base, or of
    its inverse for n < 0."""
    if isinstance(e, RationalConst):
        return FieldElem.const(e.value)
    if isinstance(e, I):
        return FieldElem.const(Scalar(0, 0, 1))
    if isinstance(e, Sqrt2):
        return FieldElem.const(Scalar(0, 1))
    if isinstance(e, P):
        return FieldElem(RatFn.from_poly(P_POLY))
    if isinstance(e, T):
        return FieldElem.coin()
    if isinstance(e, Add):
        return eager_lower(e.left) + eager_lower(e.right)
    if isinstance(e, Sub):
        return eager_lower(e.left) - eager_lower(e.right)
    if isinstance(e, Mul):
        return eager_lower(e.left) * eager_lower(e.right)
    if isinstance(e, Div):
        return eager_lower(e.left) / eager_lower(e.right)
    if isinstance(e, Pow):
        base = eager_lower(e.base)
        if e.exp < 0:
            base = base.inverse()
        out = FE_ONE
        for _ in range(abs(e.exp)):
            out = out * base
        return out
    raise TypeError(f"not an expression node: {e!r}")


def _trees():
    """hypothesis strategy: sqrt-free trees of depth at most 5 over p, t, i,
    sqrt2 and small rationals, with + - * / and powers -3..3."""
    st = pytest.importorskip("hypothesis.strategies")
    tree = st.one_of(
        st.sampled_from([P(), T(), I(), Sqrt2()]),
        st.builds(RationalConst, st.builds(Fraction, st.integers(-4, 4),
                                           st.integers(1, 3))))
    for _ in range(5):
        tree = st.one_of(
            tree, st.builds(Pow, tree, st.integers(-3, 3)),
            *(st.builds(cls, tree, tree) for cls in (Add, Sub, Mul, Div)))
    return tree


def _subtrees(e):
    yield e
    for child in (getattr(e, name, None)
                  for name in ("left", "right", "base", "child")):
        if isinstance(child, Expr):
            yield from _subtrees(child)


def _outcome(fn, e):
    try:
        return fn(e)
    except (ZeroDivisionError, DegreeLimitError) as exc:
        return type(exc)


def test_lower_matches_eager_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    # both exceptions arise: 1/(t-t) divides by zero, and a power of a base
    # of degree 41 passes the degree limit, while its cube does not
    for text in ("1/(t-t)", "(t-t)^-2"):
        assert _outcome(eager_lower, parse(text)) is ZeroDivisionError
        assert _outcome(lower, parse(text)) is ZeroDivisionError
    e = parse("((((p+t)^3)^3)^3)^3")
    assert lower(e).parts == eager_lower(e).parts
    assert _outcome(lower, parse("((((p+t)^3)^3)^3)^4")) is DegreeLimitError

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_trees())
    def check(e):
        got = _outcome(lower, e)
        if got is DegreeLimitError:
            return
        want = _outcome(eager_lower, e)
        if isinstance(want, FieldElem):
            assert isinstance(got, FieldElem) and got.parts == want.parts
            if isinstance(e, Pow):
                assert eager_lower(e.base) ** e.exp == want
        else:
            assert got is want
    check()


def _refuse_euclid(*args):
    raise AssertionError("reached polys._canonical_euclid")


def test_lower_and_views_match_the_fraction_path(monkeypatch):
    # lower, then h.r and h.s, with the Euclidean canonical form refused,
    # against that form on the same parts: the root normalisation on
    # integers, and the views against RatFn's own normalisation
    hypothesis = pytest.importorskip("hypothesis")

    def check(e):
        with monkeypatch.context() as m:
            m.setattr(polys, "_canonical_euclid", _refuse_euclid)
            got = _outcome(lower, e)
            if not isinstance(got, FieldElem):
                return
            views = got.r, got.s
        parts = (zeta_poly(f) for f in lang._parts(e))
        assert got.parts == FieldElem.from_abc(*parts).parts
        assert views == (RatFn(got.A, got.C), RatFn(got.B * ONE_MINUS_P, got.C))

    for text in ("sqrt((1-2*p)^2)", "sqrt(p/(1-p))", "sqrt(p*(1-p))",
                 "sqrt(1/2)", "sqrt(p^2/2)", "sqrt(-p^2/(1+p)^2)",
                 "sqrt(2*p/(1-p))", "sqrt(-2*p^3*(1-p)^3)"):
        check(parse(text))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_trees())
    def check_trees(e):
        check(e)
    check_trees()


def test_parts_stay_within_bounds():
    # every subtree of a tree that lowers has parts, before the root
    # normalisation, of degree within MAX_DEGREE, so it bounds the work done
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_trees())
    def check(e):
        try:
            lower(e)
        except (ZeroDivisionError, DegreeLimitError):
            return
        for sub in _subtrees(e):
            a, b, c = lang._parts(sub)
            assert max(len(a) - 1, len(b), len(c) - 1) <= MAX_DEGREE, sub
    check()


def _count_normalisations(monkeypatch) -> list:
    """A list that gains an entry at each call of polys.canonical or of
    polys.zeta_canonical, its counterpart on integer parts."""
    calls = []
    for name in ("canonical", "zeta_canonical"):
        real = getattr(polys, name)

        def counted(*args, real=real):
            calls.append(1)
            return real(*args)

        for module in (polys, field, lang):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_lower_normalises_at_powers_and_root(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    calls = _count_normalisations(monkeypatch)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_trees())
    def check(e):
        calls.clear()
        pows = sum(isinstance(sub, Pow) for sub in _subtrees(e))
        try:
            lower(e)
        except (ZeroDivisionError, DegreeLimitError):
            assert len(calls) <= pows + 1
            return
        made = len(calls)
        # once at each power's base, and once at the root unless the root is
        # a power of a nonzero base with B = 0
        at_root = 1
        if isinstance(e, Pow):
            base = lower(e.base)
            at_root = 1 if base.B or not base else 0
        assert made == pows + at_root
    check()


@pytest.mark.parametrize("text, at_root", [
    # a canonical base (A, 0, C) has gcd(A, C) = 1, so (A^n, 0, C^n) is
    # canonical as it is raised and the root needs no normalisation
    ("((p^2+i*p+1/3)/(p+1/5))^42", 0),
    ("((p^2+i*p+1/3)/(p+1/5))^-42", 0),
    # a zero base, or one with B != 0, is normalised again at the root
    ("(p-p)^3", 1),
    ("(p+t)^3", 1),
    ("(p+t)^-3", 1),
])
def test_root_power_of_a_base_without_w_takes_no_gcd(monkeypatch, text,
                                                     at_root):
    calls = _count_normalisations(monkeypatch)
    e = parse(text)
    lower(e)
    # once at each power's base, p^2's p among them
    assert len(calls) == sum(isinstance(sub, Pow) for sub in _subtrees(e)) \
        + at_root
    base = lower(e.base)
    if not base:
        return
    for n in (-5, -1, 0, 1, 2, 5):
        want = FieldElem.from_abc(*(zeta_poly(f)
                                    for f in lang._parts(Pow(e.base, n))))
        assert lower(Pow(e.base, n)) == want
        calls.clear()
        assert base ** n == want
        if not base.B:
            assert not calls  # nor does FieldElem.__pow__


@pytest.mark.parametrize("text, want, top", [
    ("((p+i)*(p-i)/(p^2+1))^60", "1", 0),
    ("((1+i*t)*(1-i*t)/(1+t^2))^30", "1", 0),
    ("((p+1)^2/(p+1))^64", "(1+p)^64", 64),
])
def test_power_base_cancels_before_it_is_raised(text, want, top):
    # a power's base is normalised first, so these bases collapse to 1 and
    # 1 + p before they are raised, and the parts stay at degree top
    e = parse(text)
    assert lower(e) == lower(parse(want))
    assert max(len(f) - 1 for f in lang._parts(e)) == top
    if want == "1":
        assert lang._parts(e) == ([Z1], [], [Z1])
