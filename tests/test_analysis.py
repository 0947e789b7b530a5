"""Classification of coin functions and the supporting decision procedures."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from coinfield.analysis import (ONE_RF, PiecewiseFn, _candidate_points,
                                check_phased_witness,
                                classify, classify_cc, classify_qc,
                                classify_qq, decide_qq_ratio,
                                decide_real_corollary, parse_piecewise,
                                read_real_ratfn, verify_spb)
from coinfield.field import (FE_ZERO, FieldElem, INFINITY, fe_eval,
                             fe_mod_squared, fe_mul, w_mul, w_norm)
from coinfield.lang import MAX_DEGREE, NotInFieldError, lower, parse
from coinfield.polys import P as P_POLY
from coinfield.polys import Poly, RatFn, certify_nonneg
from coinfield.scalars import ONE, Scalar

TWO_COIN_F = "(1-2*p)^2/(1+(1-2*p)^2)"
PHASED_WITNESS = "(sqrt2*p/(1+p))*t + i*p/(1+p)"


def random_rational_q(rnd):
    def poly(deg):
        return Poly(tuple(Scalar(Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)))
                          for _ in range(deg + 1)))
    den = Poly.zero()
    while den.is_zero() or den.eval_exact(Fraction(1, 2)) == Scalar(0):
        den = poly(rnd.randint(0, 1))
    num = poly(rnd.randint(0, 2))
    return RatFn(num, den)


# ---------------------------------------------------------------------------
# Piecewise functions
# ---------------------------------------------------------------------------

def test_parse_piecewise_two_pieces():
    f = parse_piecewise("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4")
    assert len(f.pieces) == 2
    assert f.eval_float(0.25) == 0.5
    assert abs(f.eval_float(0.75) - (0.375 + 0.25)) < 1e-12


def test_parse_piecewise_round_trip():
    f = parse_piecewise("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4")
    assert parse_piecewise(str(f)) == f


def test_parse_piecewise_rejects_gap():
    with pytest.raises(ValueError):
        parse_piecewise("[0,1/3) p\n[1/2,1] p")


def test_parse_piecewise_rejects_overlap():
    with pytest.raises(ValueError):
        parse_piecewise("[0,2/3) p\n[1/2,1] p")


def test_parse_piecewise_rejects_wrong_closure():
    with pytest.raises(ValueError):
        parse_piecewise("[0,1/2] p\n[1/2,1] p")
    with pytest.raises(ValueError):
        parse_piecewise("[0,1) p")


def test_parse_piecewise_rejects_pole_on_closure():
    with pytest.raises(ValueError):
        parse_piecewise("[0,1] 1/(1-p)")


def test_parse_piecewise_rejects_nonreal():
    with pytest.raises(ValueError):
        parse_piecewise("[0,1] i*p")


def test_parse_piecewise_rejects_garbage():
    with pytest.raises(ValueError):
        parse_piecewise("")
    with pytest.raises(ValueError):
        parse_piecewise("not an interval")


def test_from_ratfn_single_piece():
    f = PiecewiseFn.from_ratfn(RatFn.from_poly(P_POLY * P_POLY))
    assert len(f.pieces) == 1
    assert f.eval_float(0.5) == 0.25


# ---------------------------------------------------------------------------
# Simulability of a target ratio
# ---------------------------------------------------------------------------

def test_decide_linear_offset():
    d = decide_qq_ratio("p - 1/2")
    assert d.simulable
    g1, g2, g3, g4 = d.witness
    assert [str(g) for g in (g1, g2, g3, g4)] == ["0", "1", "-1/2 + p", "1"]


def test_decide_witness_reconstructs_element():
    rnd = random.Random(119)
    for src in ("t", "p - 1/2", "(1-p)*t + i*p", "t^2/(1+t^2)", "sqrt2*t - 1/3"):
        d = decide_qq_ratio(src)
        assert d.simulable
        g1, g2, g3, g4 = d.witness
        rebuilt = FieldElem(RatFn(g3, g4), RatFn(g1, g2))
        assert rebuilt == d.element


def test_decide_rejects_outside_field():
    d = decide_qq_ratio("sqrt(p^2/(1-p^2))")
    assert not d.simulable
    assert "1 - p" in d.diagnosis and "1 + p" in d.diagnosis


def test_decide_rejects_unparseable():
    with pytest.raises(ValueError):
        decide_qq_ratio("p +* 2")


# ---------------------------------------------------------------------------
# Square-root decision for real coin functions
# ---------------------------------------------------------------------------

def test_corollary_two_coin_function():
    res = decide_real_corollary(lower(parse(TWO_COIN_F)).r)
    assert res.simulable
    want = lower(parse("1 - 2*p"))
    assert res.h in (want, fe_mul(FieldElem.const(-1), want))


def test_corollary_identity_function_needs_coin():
    res = decide_real_corollary(lower(parse("p")).r)
    assert res.simulable
    assert res.h == FieldElem.coin()


def test_corollary_rejects_p_squared():
    res = decide_real_corollary(lower(parse("p^2")).r)
    assert not res.simulable


def test_corollary_constant_edges():
    assert decide_real_corollary(lower(parse("1")).r).h is INFINITY
    assert decide_real_corollary(lower(parse("0")).r).h == FE_ZERO
    res = decide_real_corollary(lower(parse("1/3")).r)
    assert res.simulable and res.h == FieldElem.const(Scalar(0, Fraction(1, 2)))


def test_corollary_rejects_out_of_range():
    with pytest.raises(ValueError):
        decide_real_corollary(lower(parse("2*p")).r)
    # pole at p = 1 must be rejected before any square testing
    with pytest.raises(ValueError):
        decide_real_corollary(RatFn(Poly((ONE,)), Poly((ONE, Scalar(-1)))))


def test_corollary_random_squares_accepted():
    # f = q^2/(1+q^2) always lands back on a real witness with |h|^2 = q^2
    rnd = random.Random(127)
    done = 0
    while done < 15:
        q = random_rational_q(rnd)
        if q.is_zero():
            continue
        u = q * q
        f = u / (ONE_RF + u)
        res = decide_real_corollary(f)
        assert res.simulable
        assert fe_mod_squared(res.h) == FieldElem(u)
        done += 1


# ---------------------------------------------------------------------------
# Phased witnesses
# ---------------------------------------------------------------------------

def test_phased_witness_for_p_squared():
    h = lower(parse(PHASED_WITNESS))
    f = lower(parse("p^2")).r
    assert check_phased_witness(h, f)
    # and the modulus really is p^2/(1-p^2)
    want = RatFn(P_POLY * P_POLY, Poly((ONE, Scalar(0), Scalar(-1))))
    assert fe_mod_squared(h) == FieldElem(want)


def test_phased_witness_mismatch():
    assert not check_phased_witness(FieldElem.coin(), lower(parse("p^2")).r)
    assert check_phased_witness(FieldElem.coin(), lower(parse("p")).r)


def test_phased_witness_constant_one():
    assert not check_phased_witness(FieldElem.coin(), ONE_RF)


# ---------------------------------------------------------------------------
# Classical-coin classification
# ---------------------------------------------------------------------------

def test_cc_flat_then_ramp():
    f = parse_piecewise("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4")
    rep = classify_cc(f)
    assert rep.verdict == "yes" and rep.witness_n == 1


def test_cc_p_squared():
    rep = classify_cc(PiecewiseFn.from_ratfn(RatFn.from_poly(P_POLY * P_POLY)))
    assert rep.verdict == "yes" and rep.witness_n == 2


def test_cc_rejects_interior_zero():
    u = lower(parse("(p-1/2)^2")).r
    f = PiecewiseFn.from_ratfn(u / (ONE_RF + u))
    rep = classify_cc(f)
    assert rep.verdict == "no"
    assert "interior zero" in rep.reason


def test_cc_accepts_endpoint_zero():
    f = PiecewiseFn.from_ratfn(lower(parse("(1-p)^2")).r)
    rep = classify_cc(f)
    assert rep.verdict == "yes" and rep.witness_n == 2


def test_cc_rejects_constant_zero_piece():
    f = parse_piecewise("[0,1/2) 0\n[1/2,1] p - 1/2")
    rep = classify_cc(f)
    assert rep.verdict == "no"
    assert "zero" in rep.reason


def test_cc_rejects_discontinuity():
    f = parse_piecewise("[0,1/2) 1/4\n[1/2,1] p/2 + 1/2")
    rep = classify_cc(f)
    assert rep.verdict == "no"
    assert "1/2" in rep.reason


def test_cc_rejects_range_violation():
    f = PiecewiseFn.from_ratfn(RatFn.from_poly(Poly((Scalar(0), Scalar(2)))))
    assert classify_cc(f).verdict == "no"


def test_cc_constant_is_fine():
    rep = classify_cc(parse_piecewise("[0,1] 1/3"))
    assert rep.verdict == "yes"


def test_cc_witness_scales_with_flatness():
    # p^m hugs zero as tightly as p^n for n >= m, so the least witness is m
    for m in (6, 70):
        rep = classify_cc(PiecewiseFn.from_ratfn(RatFn.from_poly(P_POLY ** m)))
        assert rep.verdict == "yes" and rep.witness_n == m


def test_cc_witness_search_takes_no_gcd(monkeypatch):
    # Descartes' rule settles every cell of the bound polynomials, so the
    # witness search for p^70/(1 + p^70) takes no gcd; the double zero at 1/3
    # keeps its cells' sign variations at 2, and the stalled cell that takes
    # the squarefree part still finds the interior zero
    from coinfield import polys
    p70 = PiecewiseFn.from_ratfn(lower(parse("p^70/(1+p^70)")).r)
    u = lower(parse("(p-1/3)^2")).r
    third = PiecewiseFn.from_ratfn(u / (ONE_RF + u))
    calls = []
    real = polys._gcd

    def counted(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(polys, "_gcd", counted)
    rep = classify_cc(p70)
    assert (rep.verdict, rep.witness_n) == ("yes", 71)
    assert not calls
    rep = classify_cc(third)
    assert (rep.verdict, rep.reason) == ("no", "interior zero inside (0,1)")
    assert calls


def test_cc_witness_matches_linear_search():
    # classify_cc gallops and bisects for the least witness n; the reference
    # tries n = 1, 2, ..., MAX_DEGREE in turn on Polys through certify_nonneg
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    half = Fraction(1, 2)
    one_minus_p = Poly.const(ONE) - P_POLY

    def holds(f, n):
        for a, b, piece in f.pieces:
            num, den = piece.num, piece.den
            for lo, hi, bound in ((a, min(b, half), P_POLY ** n),
                                  (max(a, half), b, one_minus_p ** n)):
                if lo < hi and not (
                        certify_nonneg((num - bound * den) * den, lo, hi)
                        and certify_nonneg((den - num - bound * den) * den,
                                           lo, hi)):
                    return False
        return True

    def linear(f):
        return next((n for n in range(1, MAX_DEGREE + 1) if holds(f, n)),
                    None)

    @st.composite
    def case(draw):
        # f = k p^m / ((1-p)^j + k p^m): in (0, 1) inside, f ~ k p^m at 0 and
        # 1 - f ~ (1-p)^j / k at 1, so the witness grows with m, j and |log k|
        k = Fraction(draw(st.integers(1, 64)), draw(st.integers(1, 64)))
        k = Scalar(0, k) if draw(st.booleans()) else Scalar(k)
        m, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        hypothesis.assume(m + j > 0)
        num = Poly.const(k) * P_POLY ** m
        f = RatFn(num, one_minus_p ** j + num)
        cut = draw(st.sampled_from([None, Fraction(1, 4), half,
                                    Fraction(3, 4)]))
        pieces = [(0, 1, f)] if cut is None else [(0, cut, f), (cut, 1, f)]
        return PiecewiseFn(pieces)

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(case())
    def check(f):
        # continuous, in (0, 1) inside: in CC by Keane and O'Brien, with
        # witness_n None only where no n <= MAX_DEGREE holds
        rep = classify_cc(f)
        assert (rep.verdict, rep.witness_n) == ("yes", linear(f))

    check()


# ---------------------------------------------------------------------------
# Quantum-coin classification and the bound certificates
# ---------------------------------------------------------------------------

def test_qc_of_coin_ratio():
    h = FieldElem.coin()
    rep = classify_qc(h)
    assert rep.in_qc
    assert [e.point for e in rep.zeros] == [Fraction(0)]
    assert [e.point for e in rep.ones] == [Fraction(1)]
    assert rep.zeros[0].order == 1 and rep.zeros[0].k == 1
    assert verify_spb(h, rep)


def test_qc_of_phased_witness():
    h = lower(parse(PHASED_WITNESS))
    rep = classify_qc(h)
    assert rep.in_qc
    assert [e.point for e in rep.zeros] == [Fraction(0)]
    assert [e.point for e in rep.ones] == [Fraction(1)]
    assert verify_spb(h, rep)


def test_qc_interior_double_zero():
    # t - 1 vanishes at 1/2 by cancellation of A against B*w
    for expr, ones in (("p - 1/2", []), ("t - 1", [Fraction(1)])):
        h = lower(parse(expr))
        rep = classify_qc(h)
        assert rep.in_qc
        assert [e.point for e in rep.zeros] == [Fraction(1, 2)]
        assert rep.zeros[0].order == 2 and rep.zeros[0].k == 1
        assert [e.point for e in rep.ones] == ones
        assert verify_spb(h, rep)


def test_qc_no_special_points_for_constant():
    rep = classify_qc(FieldElem.const(Scalar(Fraction(1, 3))))
    assert rep.in_qc and rep.zeros == () and rep.ones == ()
    assert verify_spb(FieldElem.const(Scalar(Fraction(1, 3))), rep)


def test_qc_algebraic_special_point():
    # f = 1/2 exactly where p^2 = 1/2
    h = lower(parse("p^2 - 1/2"))
    rep = classify_qc(h)
    pts = rep.zeros
    assert len(pts) == 1
    assert not isinstance(pts[0].point, Fraction)
    assert abs(pts[0].position() - 0.5 ** 0.5) < 1e-9
    assert verify_spb(h, rep)


def test_qc_report_names_each_point_by_its_isolating_interval():
    # h vanishes where t = 1 + sqrt2, and its conjugate does not, so the
    # order there is read from a sign beside the point; neither that nor
    # verify_spb may move the interval the report prints
    from test_acceptance import _random_elem
    factor = lower(parse("t - 1 - sqrt2"))
    for seed in range(6):
        h = _random_elem(random.Random(seed)) * factor
        rep = classify_qc(h)
        text = json.dumps(rep.to_json())
        assert verify_spb(h, rep)
        assert json.dumps(rep.to_json()) == text
        assert json.dumps(classify_qc(h).to_json()) == text
        isolated = {str(z.g): [str(z.lo), str(z.hi)]
                    for z in _candidate_points(h) if not isinstance(z, Fraction)}
        printed = [e["point"] for e in rep.to_json()["zeros"]
                   if isinstance(e["point"], dict)]
        assert printed
        assert all(isolated[e["poly"]] == e["interval"] for e in printed)


def test_qc_rejects_degenerate():
    with pytest.raises(ValueError):
        classify_qc(FE_ZERO)


def test_verify_spb_catches_tampering():
    h = FieldElem.coin()
    rep = classify_qc(h)
    worse = dataclasses.replace(rep, zeros=(dataclasses.replace(
        rep.zeros[0], order=rep.zeros[0].order + 1),))
    assert not verify_spb(h, worse)
    greedy = dataclasses.replace(rep, zeros=(dataclasses.replace(
        rep.zeros[0], c=rep.zeros[0].c * 1000),))
    assert not verify_spb(h, greedy)
    # a bound with c = 0 or delta = 0 holds for any f and certifies nothing
    for field in ("c", "delta"):
        vacuous = dataclasses.replace(rep, zeros=(dataclasses.replace(
            rep.zeros[0], **{field: 0.0}),))
        assert not verify_spb(h, vacuous)


@pytest.mark.parametrize("expr", ["-i/4 + i*t",                  # zero at 1/17
                                  "(-1/6 + i/3) + (1/2 - i)*t"])  # zero at 1/10
def test_verify_spb_window_past_endpoint(expr):
    # the certificate window around the zero reaches past p = 0
    h = lower(parse(expr))
    rep = classify_qc(h)
    assert rep.zeros and rep.zeros[0].position() < rep.zeros[0].delta
    assert verify_spb(h, rep)


@pytest.mark.parametrize("expr", ["1/(1/8 - 3/4*p + 3/2*p^2 - p^3)",
                                  "1/(p-1/2)^3", "1/p^4"])
def test_qc_bound_at_a_pole_is_not_vacuous(expr):
    # near a pole of h, 1 - f = 1/(1 + |h|^2) is far below float epsilon;
    # computed as 1.0 - f it read 0 and gave c = 0
    h = lower(parse(expr))
    rep = classify_qc(h)
    assert rep.ones and all(e.c > 0.49 for e in rep.ones)
    assert verify_spb(h, rep)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: classify_qc evaluates h = (p-1/2)^40 in floats from its "
    "expanded coefficients, so near 1/2 it samples rounding noise; it claims "
    "c = 3.56e32 with delta 1/8, but exactly f(5/8) = 5.66e-73 < "
    "c*(1/8)^80 = 2.01e-40"))
def test_qc_certificate_holds_exactly_at_a_high_order_zero():
    h = lower(parse("(p-1/2)^40"))
    entry, = classify_qc(h).zeros
    x = entry.point + Fraction(1, 8)
    m = h.r.eval_exact(x).as_fraction() ** 2
    assert m / (1 + m) >= Fraction(entry.c) * (x - entry.point) ** (2 * entry.k)


@pytest.mark.xfail(strict=True, raises=ZeroDivisionError, reason=(
    "ROADMAP item 2: for f = (p-1/2)^128/(1+(p-1/2)^128), (p - z)^(2k) "
    "underflows to 0 on classify_qc's grid"))
def test_qc_certifies_a_zero_of_order_128():
    h = lower(parse("(p-1/2)^64"))
    assert verify_spb(h, classify_qc(h))


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "ROADMAP item 2: two zeros 1e-13 apart give a window of 5e-14, inside "
    "which classify_qc skips every grid point as within 1e-12 of the zero"))
def test_qc_certifies_zeros_closer_than_the_grid_skip():
    h = lower(parse("(p - 1/2)*(p - 1/2 - 1/10^13)"))
    assert verify_spb(h, classify_qc(h))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: classify_qc samples f on a 200-point grid and claims "
    "c = 0.0648 at p = 0 with delta 1/8, but f(0.0025) = 1.8e-9 < c*p^2"))
def test_qc_certificate_holds_at_a_near_zero_beside_the_end():
    h = lower(parse("((-26/17 + 2*i/17)*p)/((-1/17 + 4*i/17) + p)"
                    " + ((-2/5 - 4*i/5) + (2 - 2*i)*p)/((14/5 - 2*i/5) + p)*t"))
    assert verify_spb(h, classify_qc(h))


def test_qc_random_targets_verify():
    rnd = random.Random(131)
    done = 0
    while done < 12:
        r = random_rational_q(rnd)
        s = random_rational_q(rnd)
        h = FieldElem(r, s)
        if h.is_zero():
            continue
        rep = classify_qc(h)
        assert rep.in_qc
        assert verify_spb(h, rep)
        done += 1


def test_candidate_norm_short_form():
    # |A + B*w|^2 * |A - B*w|^2 as the norm of the product with the
    # conjugate pair equals n * conj(n) for n = A^2 - B^2*w^2
    rnd = random.Random(137)

    def poly(deg):
        return Poly(tuple(Scalar(Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)),
                                 rnd.randint(-1, 1),
                                 Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)),
                                 rnd.randint(-1, 1))
                          for _ in range(deg + 1)))

    for _ in range(20):
        a, b = poly(rnd.randint(0, 3)), poly(rnd.randint(0, 2))
        n = w_norm((a, b))
        assert w_norm(w_mul((a, b), (a.conj(), b.conj()))) == n * n.conj()


# ---------------------------------------------------------------------------
# Quantum-to-quantum classification
# ---------------------------------------------------------------------------

def test_qq_two_coin_function():
    u = lower(parse("(p-1/2)^2")).r
    f = PiecewiseFn.from_ratfn(u / (ONE_RF + u))
    rep = classify_qq(f)
    assert rep.verdict == "yes"
    # the sign-fixed representative is 1/2 - p (nonnegative just left of 1/2)
    want = lower(parse("p - 1/2"))
    assert rep.witness in (want, fe_mul(FieldElem.const(Scalar(-1)), want))


def test_qq_constant_with_field_sqrt():
    rep = classify_qq(parse_piecewise("[0,1] 1/2"))
    assert rep.verdict == "yes" and rep.witness == FieldElem.const(ONE)
    rep3 = classify_qq(parse_piecewise("[0,1] 1/3"))
    assert rep3.verdict == "yes"
    assert rep3.witness == FieldElem.const(Scalar(0, Fraction(1, 2)))


def test_qq_constant_without_field_sqrt():
    # u = 3 has no square root in the scalar field; still in the set, no witness
    rep = classify_qq(parse_piecewise("[0,1] 3/4"))
    assert rep.verdict == "yes" and rep.witness is None


def test_qq_rejects_flat_then_ramp():
    f = parse_piecewise("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4")
    assert classify_qq(f).verdict == "no"


def test_qq_p_squared_depends_on_complex_escape():
    f = PiecewiseFn.from_ratfn(lower(parse("p^2")).r)
    assert classify_qq(f).verdict == "unknown"
    w = lower(parse(PHASED_WITNESS))
    rep = classify_qq(f, witness=w)
    assert rep.verdict == "yes" and rep.witness == w


def test_qq_rejects_wrong_witness():
    f = PiecewiseFn.from_ratfn(lower(parse("p^2")).r)
    assert classify_qq(f, witness=FieldElem.coin()).verdict != "yes"


def test_qq_multi_piece_nonconstant_no():
    # |h|^2/(1+|h|^2) is real-analytic on (0, 1): it cannot follow p/2 on
    # one interval and p^2/2 + 1/8 on the next
    f = parse_piecewise("[0,1/2) p/2\n[1/2,1] p^2/2 + 1/8")
    assert classify_qq(f).verdict == "no"


@pytest.mark.parametrize("text", [
    "[0,1] 2*p", "[0,1] sqrt((1/2 + 3*p)^2)", "[0,1] 2", "[0,1] -1",
    "[0,1] p - 1/2", "[0,1/2) p/2\n[1/2,1] 3*p - 5/4",
])
def test_qq_rejects_function_outside_unit_interval(text):
    # decide_real_corollary refuses such an f; classify answers no, as
    # classify_cc does, and finds no ratio to certify
    rep = classify(parse_piecewise(text))
    assert rep.cc.verdict == "no" and rep.qq.verdict == "no"
    assert rep.qq.witness is None and rep.qc is None
    assert rep.qq.reason == f"not a probability function: {rep.cc.reason}"


@pytest.mark.parametrize("text", [
    "[0,1] (p-1/2)^2/(1+(p-1/2)^2)", "[0,1/2) 1/2\n[1/2,1] p/2 + 1/4",
    "[0,1] 1/3", "[0,1] sqrt2/2", "[0,1] 2*p",
])
def test_classify_certifies_range_once(monkeypatch, text):
    import coinfield.analysis as analysis
    real, calls = analysis._range_fault, []

    def counting(lo, hi, num, den):
        calls.append((lo, hi))
        return real(lo, hi, num, den)

    monkeypatch.setattr(analysis, "_range_fault", counting)
    f = parse_piecewise(text)
    classify(f)
    # the CC and QQ decisions share one range certificate per piece
    assert calls == [(a, b) for a, b, _ in f.pieces]


def test_qq_irrational_constant():
    rep = classify_qq(PiecewiseFn.from_ratfn(lower(parse("sqrt2/2")).r))
    assert rep.verdict == "yes" and rep.witness is None


def test_splitting_a_piece_changes_no_verdict():
    # a breakpoint between two equal pieces leaves f as it was, so every
    # CC, QC and QQ verdict and witness must stay
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    root = st.builds(Fraction, st.integers(-4, 8), st.integers(1, 4)).filter(
        lambda z: z != 1)

    @st.composite
    def case(draw):
        # u = q^2 and q^2 p/(1-p) give QQ members, (p + a) q^2 mostly not;
        # a root of q inside (0, 1) is an interior zero of f
        c = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        q = "*".join([str(c)] + [f"(p - ({z}))" for z in
                                 draw(st.lists(root, max_size=2))])
        u = draw(st.sampled_from([f"({q})^2", f"({q})^2*p/(1 - p)",
                                  f"(p + {c})*({q})^2"]))
        f = lower(parse(f"({u})/(1 + {u})")).r
        cut = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3),
                                    Fraction(1, 2), Fraction(3, 4)]))
        return f, cut

    @hypothesis.settings(max_examples=15, deadline=None, database=None)
    @hypothesis.given(case())
    def check(args):
        f, cut = args
        whole = classify(PiecewiseFn.from_ratfn(f))
        split = classify(PiecewiseFn(((0, cut, f), (cut, 1, f))))
        assert (split.cc.verdict, split.cc.witness_n) == \
            (whole.cc.verdict, whole.cc.witness_n)
        assert split.qq == whole.qq and split.qc == whole.qc

    check()


def test_two_distinct_pieces_are_in_cc_not_qq():
    # a continuous f inside (0, 1) is in CC (Keane and O'Brien); with two
    # distinct rational pieces it is not in QQ, since |h|^2/(1+|h|^2) is
    # real-analytic on (0, 1) and would have to follow both pieces
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    eighths = st.builds(Fraction, st.integers(1, 7), st.just(8))

    @st.composite
    def case(draw):
        # alpha + b (p - cut)/(1 + d p) with |b| < min(alpha, 1 - alpha)
        # stays inside (0, 1) and takes the value alpha at the cut
        cut, alpha = draw(eighths), draw(eighths)
        room = min(alpha, 1 - alpha)

        def piece():
            b = room * Fraction(draw(st.integers(-7, 7)), 8)
            return f"{alpha} + ({b})*(p - {cut})/(1 + {draw(st.integers(0, 2))}*p)"

        f = parse_piecewise(f"[0,{cut}) {piece()}\n[{cut},1] {piece()}")
        hypothesis.assume(f.single_ratfn() is None)
        return f

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(case())
    def check(f):
        rep = classify(f)
        assert rep.cc.verdict == "yes" and rep.cc.witness_n is not None
        assert rep.qq.verdict == "no" and rep.qc is None

    check()


def _cc_by_sympy(pieces):
    """classify_cc's verdict, and its reason when it says no, from sympy
    alone: values at the breakpoints by subs, and the sign of f and of
    1 - f on a piece from real_roots of their numerators and a rational
    point between each pair of neighbouring roots."""
    sympy = pytest.importorskip("sympy")
    p = sympy.Symbol("p")

    def dips_below_zero(g, a, b):
        # g's denominator has no root on [a, b], so g changes sign only at
        # the roots of its numerator
        num, _ = sympy.fraction(sympy.together(g))
        roots = sorted({r for r in sympy.real_roots(sympy.Poly(num, p))
                        if a < r < b}, key=lambda r: r.evalf(50))
        points = [a, *roots, b]
        mids = [(x + y) / 2 if (x + y).is_Rational else
                sympy.nsimplify(((x + y) / 2).evalf(60), rational=True)
                for x, y in zip(points, points[1:])]
        return any(g.subs(p, x) < 0 for x in [a, b, *mids])

    for (_, x, f1), (_, _, f2) in zip(pieces, pieces[1:]):
        if f1.subs(p, x) != f2.subs(p, x):
            return "no", f"discontinuous at p = {x}"
    for a, b, f in pieces:
        for g, what in ((f, "f < 0"), (1 - f, "f > 1")):
            if dips_below_zero(g, a, b):
                return "no", f"{what} somewhere on [{a},{b}]"
    if all(sympy.simplify(f - pieces[0][2]) == 0 for _, _, f in pieces) \
            and not sympy.simplify(pieces[0][2]).free_symbols:
        return "yes", "constant function"
    for (_, x, _), (_, _, f) in zip(pieces, pieces[1:]):
        if f.subs(p, x) == 0:
            return "no", f"interior zero at p = {x}"
        if f.subs(p, x) == 1:
            return "no", f"interior one at p = {x}"
    for a, b, f in pieces:
        for g, what in ((f, "zero"), (1 - f, "one")):
            num, _ = sympy.fraction(sympy.together(g))
            if any(a < r < b for r in sympy.real_roots(sympy.Poly(num, p))):
                return "no", f"interior {what} inside ({a},{b})"
    return "yes", None


def test_cc_prechecks_match_sympy():
    # pieces of 2 to 4 at random breakpoints, each from the value v the
    # last one ended with unless a jump is drawn: Mobius pieces from v to a
    # drawn value (their pole outside the piece, so D may be negative on
    # it), v*((p - r)/(a - r))^2 and the like for 1 - f touching 0 or 1 at
    # r inside (possibly past 1 or 0 at b), and constant 0 or 1 pieces
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    p = sympy.Symbol("p")
    values = st.sampled_from([Fraction(1, 3), Fraction(3, 4), Fraction(0),
                              Fraction(1), Fraction(1, 2)])

    @st.composite
    def case(draw):
        n = draw(st.integers(2, 4))
        cuts = sorted(draw(st.sets(st.builds(Fraction, st.integers(1, 11),
                                             st.just(12)),
                                   min_size=n - 1, max_size=n - 1)))
        ends = [Fraction(0), *cuts, Fraction(1)]
        pieces, v = [], draw(values)
        for a, b in zip(ends, ends[1:]):
            if draw(st.integers(0, 5)) == 0:
                v = draw(values)
            kind = draw(st.sampled_from(["mobius", "zero", "one", "mobius",
                                         "const"]))
            if kind == "const" or (kind == "zero" and not v) or \
                    (kind == "one" and v == 1):
                v = v if v in (0, 1) else Fraction(draw(st.integers(0, 1)))
                text, expr = str(v), sympy.Rational(v)
            elif kind == "mobius":
                end = draw(values)
                s = draw(st.sampled_from([Fraction(-1), Fraction(3, 2),
                                          Fraction(2)]))
                # (x*p + y)/(p - s) through (a, v) and (b, end)
                x = (end * (b - s) - v * (a - s)) / (b - a)
                y = v * (a - s) - x * a
                text, expr = f"(({x})*p + ({y}))/(p - ({s}))", \
                    (x * p + y) / (p - s)
            else:
                r = a + (b - a) * Fraction(draw(st.integers(1, 3)), 4)
                k = (v if kind == "zero" else 1 - v) / (a - r) ** 2
                text, expr = f"({k})*(p - ({r}))^2", k * (p - r) ** 2
                if kind == "one":
                    text, expr = f"1 - {text}", 1 - expr
            pieces.append((a, b, text, sympy.sympify(expr)))
            v = Fraction(str(sympy.Rational(expr.subs(p, b))))
        return pieces

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(case())
    def check(pieces):
        lines = [f"[{a},{b}) {text}" for a, b, text, _ in pieces]
        lines[-1] = lines[-1].replace(")", "]", 1)
        rep = classify_cc(parse_piecewise("\n".join(lines)))
        verdict, reason = _cc_by_sympy([(sympy.Rational(a), sympy.Rational(b), e)
                                        for a, b, _, e in pieces])
        assert rep.verdict == verdict
        assert reason is None or rep.reason == reason

    check()


def test_odds_ratio_takes_no_gcd(monkeypatch):
    # u = f/(1 - f) = N/(D - N): gcd(N, D - N) = gcd(N, D) = 1, so _odds
    # only normalises N and D - N and must equal the canonical RatFn
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from coinfield import analysis, field, polys, zpoly
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    poly = st.lists(coeff, min_size=1, max_size=4).map(Poly)
    calls = []
    real = polys._gcd

    def counted(f, g):
        calls.append(1)
        return real(f, g)

    def refuse(*args):
        raise AssertionError("the odds ratio took a zpoly gcd")

    monkeypatch.setattr(polys, "_gcd", counted)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(poly, poly, st.booleans())
    def check(num, den, sqrt2):
        hypothesis.assume(den)
        if sqrt2:
            num = num * Scalar(1, 1)
        f = RatFn(num, den)
        hypothesis.assume(f != ONE_RF)
        want = RatFn(f.num, f.den - f.num)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(zpoly, "gcd", refuse)
            m.setattr(polys, "gcd", refuse)
            u = analysis._odds(f)
        assert not calls
        assert field._ratfn(*u) == want

    check()


def test_real_side_runs_on_integer_lists(monkeypatch):
    # with Poly products, differences, Scalar evaluation and the Poly
    # canonical form all refused, sqrt lowering, the square-root corollary
    # and the CC checks give what they gave when they ran on Polys
    from coinfield import field, polys
    q = "((1-2*p)/(p+2))^2"
    targets = {f"sqrt({c}*{q}{s})": want for c, s, want in (
        ("1", "", "(1 - 2*p)/(2 + p)"),
        ("-2", "", "(i*sqrt2 - 2*i*sqrt2*p)/(2 + p)"),
        ("1", "*p/(1-p)", "(1 - 2*p)/(2 + p)*t"),
        ("1", "*(1-p)/p", "(1 - 3*p + 2*p^2)/(2*p + p^2)*t"),
        ("1", "*p*(p-1)", "(i - 3*i*p + 2*i*p^2)/(2 + p)*t"),
        ("-2", "/(p*(p-1))", "(sqrt2 - 2*sqrt2*p)/(2*p + p^2)*t"))}
    files = {
        "[0,1/2) p\n[1/2,1] 1 - p": ("yes", 1, "min(f,1-f) >= min(p^1,(1-p)^1)"),
        "[0,1/2) 1/2\n[1/2,1] p/2 + 1/4":
            ("yes", 1, "min(f,1-f) >= min(p^1,(1-p)^1)"),
        "[0,1/2) p\n[1/2,1] p/2": ("no", None, "discontinuous at p = 1/2"),
        "[0,1/2) p\n[1/2,1] 2*p - 1/2":
            ("no", None, "f > 1 somewhere on [1/2,1]"),
    }
    # f = u/(1 + u) for u = c*q^2*s >= 0 on each of the five shapes s
    roots = {f"{c}*{q}{s}": want for c, s, want in (
        ("1", "", "q = (1 - 2*p)/(2 + p)"),
        ("1", "*p/(1-p)", "q*t with q = (1 - 2*p)/(2 + p)"),
        ("1", "*(1-p)/p", "q*t with q = (1 - 3*p + 2*p^2)/(2*p + p^2)"),
        ("-1", "*p*(p-1)", "q*t with q = (1 - 3*p + 2*p^2)/(2 + p)"),
        ("-2", "/(p*(p-1))",
         "q*t with q = (sqrt2 - 2*sqrt2*p)/(2*p + p^2)"))}
    fs = {u: read_real_ratfn(f"({u})/(1 + {u})") for u in roots}

    def refuse(*args):
        raise AssertionError("Poly arithmetic on the real side")

    with monkeypatch.context() as m:
        for name in ("__mul__", "__rmul__", "__sub__", "eval_exact"):
            m.setattr(Poly, name, refuse)
        m.setattr(polys, "canonical", refuse)
        m.setattr(field, "canonical", refuse)
        got = {text: lower(parse(text)) for text in targets}
        reps = {text: classify_cc(parse_piecewise(text)) for text in files}
        cors = {u: decide_real_corollary(f) for u, f in fs.items()}
    assert {text: str(h) for text, h in got.items()} == targets
    assert {u: cor.reason for u, cor in cors.items()} == {
        u: "f/(1-f) is a square via " + want for u, want in roots.items()}
    assert all(check_phased_witness(cors[u].h, f) for u, f in fs.items())
    assert {text: (r.verdict, r.witness_n, r.reason)
            for text, r in reps.items()} == files


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------

def test_classify_fills_qc_from_witness():
    f = PiecewiseFn.from_ratfn(lower(parse("p^2")).r)
    w = lower(parse(PHASED_WITNESS))
    rep = classify(f, witness=w)
    assert rep.cc.verdict == "yes"
    assert rep.qq.verdict == "yes"
    assert rep.qc is not None and rep.qc.in_qc


def test_classify_certifies_the_function_not_a_failed_witness():
    # t - 1 fails for f = p, so QC certifies QQ's own witness t; for p^2
    # the failed t leaves no witness at all
    p = PiecewiseFn.from_ratfn(lower(parse("p")).r)
    rep = classify(p, witness=lower(parse("t - 1")))
    assert rep.qq.witness == FieldElem.coin()
    assert [(e.point, e.order) for e in rep.qc.zeros] == [(Fraction(0), 1)]
    assert [(e.point, e.order) for e in rep.qc.ones] == [(Fraction(1), 1)]
    p2 = PiecewiseFn.from_ratfn(lower(parse("p^2")).r)
    assert classify(p2, witness=FieldElem.coin()).qc is None


def test_classify_without_witness_leaves_qc_empty():
    f = parse_piecewise("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4")
    rep = classify(f)
    assert rep.qc is None
    assert rep.cc.verdict == "yes" and rep.qq.verdict == "no"


def test_classify_uses_derived_witness():
    u = lower(parse("(p-1/2)^2")).r
    f = PiecewiseFn.from_ratfn(u / (ONE_RF + u))
    rep = classify(f)
    assert rep.qq.verdict == "yes"
    assert rep.qc is not None and verify_spb(rep.qq.witness, rep.qc)
