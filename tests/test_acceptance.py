"""Acceptance battery: nine checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see every line; without -s
the lines still surface for any failing check.
"""

import random
import time
from fractions import Fraction

from coinfield.analysis import (classify, classify_cc, classify_qc,
                                classify_qq, check_phased_witness,
                                decide_qq_ratio, parse_piecewise,
                                verify_spb, PiecewiseFn)
from coinfield.field import (FE_ONE, FE_ZERO, FieldElem, TAU,
                             fe_add, fe_inv, fe_mod_squared, fe_mul,
                             vanishing_order)
from coinfield.lang import lower, parse
from coinfield.polys import ONE_RF, P as P_POLY, Poly, RatFn
from coinfield.scalars import ONE, Scalar
from coinfield.sim import expected_cost, run_numeric, run_symbolic
from coinfield.synth import (AllocCoin, Gate, Measure, compile,
                             worked_example_program)

PHASED_WITNESS = "(sqrt2*p/(1+p))*t + i*p/(1+p)"


def _report(num: int, name: str, ok: bool, extra: str = "") -> bool:
    tail = f"  [{extra}]" if extra else ""
    print(f"criterion {num} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def _random_ratfn(rnd, ndeg, ddeg, span=3):
    def poly(d):
        return Poly(tuple(Scalar(Fraction(rnd.randint(-span, span), rnd.randint(1, 2)),
                                 0,
                                 Fraction(rnd.randint(-span, span), rnd.randint(1, 2)))
                          for _ in range(d + 1)))
    den = Poly.zero()
    while den.is_zero():
        den = poly(rnd.randint(0, ddeg))
    return RatFn(poly(rnd.randint(0, ndeg)), den)


def _random_elem(rnd):
    return FieldElem(_random_ratfn(rnd, 2, 1), _random_ratfn(rnd, 1, 1))


# ---------------------------------------------------------------------------
# 1. field structure on random elements
# ---------------------------------------------------------------------------

def test_criterion_1_field_axioms():
    t0 = time.perf_counter()
    rnd = random.Random(2024)
    elems = [_random_elem(rnd) for _ in range(210)]
    ok = True
    for i in range(0, 210, 3):
        a, b, c = elems[i], elems[i + 1], elems[i + 2]
        ok = ok and fe_add(a, b) == fe_add(b, a)
        ok = ok and fe_mul(a, b) == fe_mul(b, a)
        ok = ok and fe_add(fe_add(a, b), c) == fe_add(a, fe_add(b, c))
        ok = ok and fe_mul(fe_mul(a, b), c) == fe_mul(a, fe_mul(b, c))
        ok = ok and fe_mul(a, fe_add(b, c)) == fe_add(fe_mul(a, b), fe_mul(a, c))
        ok = ok and fe_add(a, FE_ZERO) == a and fe_mul(a, FE_ONE) == a
    inverted = 0
    for a in elems:
        if a.is_zero():
            continue
        ok = ok and fe_mul(a, fe_inv(a)) == FE_ONE
        inverted += 1
    dt = time.perf_counter() - t0
    ok = ok and inverted >= 200 and dt < 10
    assert _report(1, "field axioms and inversion, 210 random elements", ok,
                   f"{dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. compile then execute symbolically is the identity
# ---------------------------------------------------------------------------

def test_criterion_2_round_trip():
    t0 = time.perf_counter()
    rnd = random.Random(777)
    ok = True
    for _ in range(100):
        h = _random_elem(rnd)
        ok = ok and run_symbolic(compile(h)) == h
    dt = time.perf_counter() - t0
    ok = ok and dt < 60
    assert _report(2, "symbolic round trip on 100 random ratios", ok,
                   f"{dt:.1f}s")


# ---------------------------------------------------------------------------
# 3. sqrt(p^2/(1-p^2)) is outside the field, with named factors
# ---------------------------------------------------------------------------

def test_criterion_3_odd_factor_diagnosis():
    d = decide_qq_ratio("sqrt(p^2/(1-p^2))")
    ok = not d.simulable
    ok = ok and "1 - p" in d.diagnosis and "1 + p" in d.diagnosis
    try:
        lower(parse("sqrt(p^2/(1-p^2))"))
        ok = False
    except Exception as err:
        factors = {str(g) for g in getattr(err, "odd_factors", ())}
        ok = ok and factors == {"1 - p", "1 + p"}
    assert _report(3, "odd-factor diagnosis for sqrt(p^2/(1-p^2))", ok)


# ---------------------------------------------------------------------------
# 4. the phased witness hits p^2 through |h|^2 = p^2/(1-p^2)
# ---------------------------------------------------------------------------

def test_criterion_4_phased_witness():
    h = lower(parse(PHASED_WITNESS))
    f = lower(parse("p^2")).r
    want = FieldElem(RatFn(P_POLY * P_POLY, Poly((ONE, Scalar(0), Scalar(-1)))))
    ok = fe_mod_squared(h) == want
    ok = ok and check_phased_witness(h, f)
    assert _report(4, "phased witness with exact |h|^2 = p^2/(1-p^2)", ok)


# ---------------------------------------------------------------------------
# 5. the two-coin protocol, structurally and statistically
# ---------------------------------------------------------------------------

def test_criterion_5_two_coin_protocol():
    t0 = time.perf_counter()
    prog = worked_example_program()
    shapes = [type(i).__name__ for i in prog.instructions]
    # protocol family: two coins, entangle, postselect, basis change, optional flip
    ok = shapes[:5] == ["AllocCoin", "AllocCoin", "Gate", "Measure", "Gate"]
    ok = ok and prog.instructions[2].name == "CNOT"
    ok = ok and prog.instructions[3].keep == 0
    ok = ok and prog.instructions[4].name == "H"
    ok = ok and all(isinstance(i, Gate) and i.name == "X"
                    for i in prog.instructions[5:])
    ok = ok and len(prog.nodes) == 1
    # the compiled ratio agrees with the protocol up to the measured statistics
    target = lower(parse("1 - 2*p"))
    compiled = compile(target)
    ok = ok and run_symbolic(compiled) == target
    fixture_ratio = run_symbolic(prog)
    ok = ok and fe_mod_squared(fixture_ratio) == fe_mod_squared(target)
    res = run_numeric(prog, 0.3, trials=100000, seed=20240)
    want = 4 / 29
    ok = ok and abs(res.empirical_p0_prob - want) < 0.0033
    dt = time.perf_counter() - t0
    ok = ok and dt < 30
    assert _report(5, "two-coin protocol structure and 100000-trial check", ok,
                   f"err {abs(res.empirical_p0_prob - want):.4f}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 6. coin-to-p construction and its cost accounting
# ---------------------------------------------------------------------------

def test_criterion_6_construct_p_cost():
    ok = run_symbolic(compile(lower(parse("p")))) == FieldElem(RatFn.from_poly(P_POLY))
    rep = expected_cost(worked_example_program(), Fraction(3, 10))
    ok = ok and abs(rep.expected_coins - 2 / 0.58) < 1e-9
    ok = ok and abs(rep.success_probability - 0.58) < 1e-12
    res = run_numeric(worked_example_program(), 0.3, trials=20000, seed=61)
    drift = abs(res.expected_coins_empirical - rep.expected_coins)
    ok = ok and drift < 0.05 * rep.expected_coins
    assert _report(6, "construct_p exact, protocol cost 3.448 within 5%", ok,
                   f"drift {drift / rep.expected_coins:.2%}")


# ---------------------------------------------------------------------------
# 7. the classification landscape and 100 verified bound certificates
# ---------------------------------------------------------------------------

def test_criterion_7_set_relations_and_certificates():
    t0 = time.perf_counter()
    flat_ramp = parse_piecewise("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4")
    ok = classify_cc(flat_ramp).verdict == "yes"
    ok = ok and classify_qq(flat_ramp).verdict == "no"
    u = lower(parse("(p-1/2)^2")).r
    ratio_sq = PiecewiseFn.from_ratfn(u / (ONE_RF + u))
    ok = ok and classify_cc(ratio_sq).verdict == "no"
    ok = ok and classify_qq(ratio_sq).verdict == "yes"
    p_sq = PiecewiseFn.from_ratfn(lower(parse("p^2")).r)
    rep = classify(p_sq, witness=lower(parse(PHASED_WITNESS)))
    ok = ok and rep.cc.verdict == "yes" and rep.qq.verdict == "yes"
    rnd = random.Random(4242)
    checked = 0
    while checked < 100:
        h = FieldElem(_random_ratfn(rnd, 2, 1), _random_ratfn(rnd, 1, 1))
        if h.is_zero():
            continue
        qc = classify_qc(h)
        ok = ok and qc.in_qc and verify_spb(h, qc)
        checked += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 120
    assert _report(7, "set relations plus 100 re-verified certificates", ok,
                   f"{dt:.1f}s")


# ---------------------------------------------------------------------------
# 8. vanishing orders: worked values and additivity
# ---------------------------------------------------------------------------

def test_criterion_8_vanishing_orders():
    coin_form = FieldElem.coin()
    ok = vanishing_order(coin_form, 0).order == Fraction(1, 2)
    ok = ok and vanishing_order(coin_form, 1).order == Fraction(-1, 2)
    half = Poly.const(Scalar(Fraction(1, 2)))
    sq = FieldElem(RatFn.from_poly((P_POLY - half) * (P_POLY - half)))
    ok = ok and vanishing_order(sq, Fraction(1, 2)).order == 2

    rnd = random.Random(3131)
    checked = 0
    while checked < 100:
        a = _random_elem(rnd)
        b = _random_elem(rnd)
        prod = fe_mul(a, b)
        if a.is_zero() or b.is_zero() or prod.is_zero():
            continue
        z = Fraction(rnd.randint(0, 12), 12)
        ok = ok and (vanishing_order(a, z).order + vanishing_order(b, z).order
                     == vanishing_order(prod, z).order)
        checked += 1
    assert _report(8, "vanishing orders: worked values and 100-pair additivity", ok)


# ---------------------------------------------------------------------------
# 9. reproducibility of the Monte Carlo runner
# ---------------------------------------------------------------------------

def test_criterion_9_determinism():
    prog = worked_example_program()
    key = lambda r: (r.successes, r.completed, r.aborted, r.coins_total,
                     r.consts_total)
    a = run_numeric(prog, 0.3, trials=4000, seed=5)
    b = run_numeric(prog, 0.3, trials=4000, seed=5)
    c = run_numeric(prog, 0.3, trials=4000, seed=5, workers=4)
    d = run_numeric(prog, 0.3, trials=4000, seed=5, workers=7)
    ok = key(a) == key(b) == key(c) == key(d)
    assert _report(9, "bit-identical runs across repeats and worker counts", ok)
