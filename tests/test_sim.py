"""Program execution: exact symbolic pass, cost accounting, Monte Carlo."""

import itertools
import json
import math
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest

from coinfield import sim
from coinfield.cli import main
from coinfield.field import (FE_ONE, FieldElem, INFINITY, TAU, fe_eval, fe_inv,
                             fe_mod_squared, fe_mul, sqrt_in_scalar_field)
from coinfield.lang import lower, parse
from coinfield.polys import P as P_POLY
from coinfield.polys import Poly, RatFn, zeta_poly
from coinfield.scalars import ONE, SQRT2, Scalar, from_zeta
from coinfield.sim import (CostReport, PostselectionError, expected_cost,
                           gate_matrix, run_numeric, run_symbolic)
from coinfield.synth import (AllocCoin, AllocConst, CircuitProgram, Gate,
                             Measure, ProvNode, coin_program, compile,
                             const_program, construct_p, emit_add, emit_inv,
                             emit_mul, program_to_json,
                             worked_example_program)


def random_target(rnd):
    def poly(deg):
        return Poly(tuple(Scalar(Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)),
                                 0,
                                 Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)))
                          for _ in range(deg + 1)))
    den = Poly.zero()
    while den.is_zero():
        den = poly(rnd.randint(0, 1))
    return FieldElem(RatFn(poly(rnd.randint(0, 2)), den),
                     RatFn(poly(rnd.randint(0, 1)), den))


# ---------------------------------------------------------------------------
# Gate matrices
# ---------------------------------------------------------------------------

def test_gates_are_unitary_exactly():
    for name in ("X", "H", "CNOT", "B"):
        m = gate_matrix(name)
        n = len(m)
        for i in range(n):
            for j in range(n):
                acc = Scalar(0)
                for k in range(n):
                    acc = acc + m[i][k] * m[j][k].conj()
                assert acc == (ONE if i == j else Scalar(0))


def test_b_gate_column_action():
    # |00> -> |11>, |11> -> |00>, middle columns mix through 1/sqrt2
    m = gate_matrix("B")
    assert m[3][0] == ONE and m[0][3] == ONE
    assert m[1][1] == m[2][1] == m[1][2] == Scalar(0, Fraction(1, 2))
    assert m[2][2] == Scalar(0, Fraction(-1, 2))


def test_unknown_gate_raises():
    with pytest.raises(KeyError):
        gate_matrix("Z")


# ---------------------------------------------------------------------------
# Symbolic execution
# ---------------------------------------------------------------------------

def test_coin_ratio_is_t():
    assert run_symbolic(coin_program()) == FieldElem.coin()


def test_const_ratio():
    assert run_symbolic(const_program(Fraction(2, 3))) == FieldElem(RatFn.const(Scalar(Fraction(2, 3))))


def test_add_macro_adds():
    rnd = random.Random(61)
    for _ in range(8):
        a = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        b = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        prog = emit_add(const_program(a), const_program(b))
        assert run_symbolic(prog) == FieldElem(RatFn.const(Scalar(a + b)))


def test_mul_macro_multiplies():
    prog = emit_mul(coin_program(), coin_program())
    assert run_symbolic(prog) == FieldElem(TAU)


def test_inv_macro_inverts():
    prog = emit_inv(coin_program())
    assert run_symbolic(prog) == fe_inv(FieldElem.coin())
    zero_inv = emit_inv(const_program(0))
    assert run_symbolic(zero_inv) is INFINITY


def test_worked_example_ratio():
    # CNOT then postselect |0> on the target, then H, then X
    h = run_symbolic(worked_example_program())
    assert h == FieldElem(RatFn.from_poly(Poly((Scalar(-1), Scalar(2)))))


def test_construct_p_ratio():
    assert run_symbolic(construct_p()) == FieldElem(RatFn.from_poly(P_POLY))


def test_compile_round_trip_random():
    rnd = random.Random(67)
    for _ in range(15):
        h = random_target(rnd)
        assert run_symbolic(compile(h)) == h


def test_postselecting_impossible_branch_raises():
    prog = CircuitProgram(
        (AllocConst(Scalar(0), 0), AllocConst(Scalar(1), 1), Measure(0, 0)),
        1,
        (ProvNode("leaf", (("instr", 0), ("instr", 1), ("instr", 2))),), 0)
    with pytest.raises(PostselectionError):
        run_symbolic(prog)


def test_gcd_reduction_keeps_ratio_and_cost(monkeypatch):
    # the pass reaches degree 31 here, so the shared polynomial factor is
    # divided out on the way; the ratio and the cost must not notice
    calls = []
    real = sim._gcd

    def spy(polys):
        calls.append(max(len(f) - 1 for f in polys))
        return real(polys)

    monkeypatch.setattr(sim, "_gcd", spy)
    h = lower(parse("(p^3 + t)^3"))
    prog = compile(h)
    assert run_symbolic(prog) == h
    assert max(calls) == 31
    coins = expected_cost(prog, Fraction(3, 10)).expected_coins
    assert abs(coins - 516510.106172167) <= 1e-12 * coins


# ---------------------------------------------------------------------------
# The Z[z] amplitude engine, z = exp(i*pi/4)
# ---------------------------------------------------------------------------

def test_zeta_products_match_scalars():
    rnd = random.Random(83)
    for _ in range(200):
        x, y = (tuple(rnd.randint(-9, 9) for _ in range(4)) for _ in range(2))
        assert from_zeta(sim._zmul(x, y)) == from_zeta(x) * from_zeta(y)
        assert from_zeta(sim._zconj(x)) == from_zeta(x).conj()


def test_integer_gates_are_scaled_gates():
    for name, scale in (("X", ONE), ("CNOT", ONE), ("H", SQRT2), ("B", SQRT2)):
        mat = gate_matrix(name)
        want = [[m * scale for m in row] for row in mat]
        got = [[Scalar(0)] * len(row) for row in mat]
        for i, row in enumerate(sim._INT_GATES[name]):
            for j, m in row:
                got[i][j] = from_zeta(m)
        assert got == want


def _mass_at(pair, p0):
    """|A(p0) + B(p0)*w0|^2 exactly, as sympy numbers."""
    sympy = pytest.importorskip("sympy")

    def value(f):
        x = zeta_poly(f).eval_exact(p0)
        return (sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(2)
                + sympy.I * (sympy.Rational(x.c) + sympy.Rational(x.d) * sympy.sqrt(2)))

    amp = value(pair[0]) + value(pair[1]) * sympy.sqrt(sympy.Rational(p0 * (1 - p0)))
    return sympy.expand(amp * sympy.conjugate(amp))


def _assert_point_pass_matches(prog, p0):
    """The point pass's keep probabilities against the symbolic pass's
    states evaluated exactly at p0. Where a kept mass is exactly 0 at p0,
    the point pass must refuse with a PostselectionError naming that
    register, the first such measurement in program order."""
    sympy = pytest.importorskip("sympy")
    try:
        got = expected_cost(prog, p0).measure_probs
    except PostselectionError as err:
        got = err
    state = sim._SymState(None)
    for idx, ins in enumerate(prog.instructions):
        if isinstance(ins, AllocCoin):
            state.alloc_coin(ins.reg)
        elif isinstance(ins, AllocConst):
            state.alloc_const(ins.reg, ins.value)
        elif isinstance(ins, Gate):
            state.apply_gate(ins.name, ins.regs)
        else:
            grp = state.group_of[ins.reg]
            s = 1 << (len(grp.regs) - 1 - grp.regs.index(ins.reg))
            kept = total = 0
            for i, pair in enumerate(grp.amps):
                m = _mass_at(pair, p0)
                total += m
                if bool(i & s) == (ins.keep == 1):
                    kept += m
            if kept == 0:
                assert isinstance(got, PostselectionError)
                assert f"register {ins.reg} " in str(got)
                return
            if isinstance(got, dict):
                want = float(sympy.N(kept / total, 30))
                assert abs(got[idx] - want) <= 1e-12
            state.measure(ins.reg, ins.keep)
    assert isinstance(got, dict), got


_P0S = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 11)]  # w0 = 1/2 at 1/2


def test_point_pass_matches_symbolic_states():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=12, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 2 ** 32), st.sampled_from(_P0S))
    # the target has the pole 1/2 - p, so its program cannot run at p0 = 1/2
    @hypothesis.example(480, Fraction(1, 2))
    def check(seed, p0):
        _assert_point_pass_matches(compile(random_target(random.Random(seed))), p0)

    check()


@pytest.mark.parametrize("p0", _P0S)
@pytest.mark.parametrize("text", ["(sqrt2*p/(1+p))*t + i*p/(1+p)",
                                  "sqrt2 + t", "(1+sqrt2)*t + sqrt2*p"])
def test_point_pass_matches_symbolic_states_with_sqrt2(text, p0):
    # sqrt2 coefficients give the masses' w parts a sqrt2 component
    _assert_point_pass_matches(compile(lower(parse(text))), p0)


def test_deep_gate_chain_keeps_probability():
    # each H doubles the integer amplitudes and no measurement divides the
    # growth out, so the kept and total masses pass 10^600
    instrs = ((AllocCoin(0), AllocCoin(1), Gate("CNOT", (0, 1)))
              + (Gate("H", (1,)),) * 2101 + (Gate("B", (0, 1)), Measure(1, 0)))
    prog = CircuitProgram(instrs, 0, (ProvNode("leaf", tuple(
        ("instr", k) for k in range(len(instrs)))),), 0)
    rep = expected_cost(prog, Fraction(3, 10))
    assert abs(rep.measure_probs[len(instrs) - 1] - 0.46252272915132475) <= 1e-12
    res = run_numeric(prog, 0.3, trials=50, seed=1)
    assert res.completed == 50


# ---------------------------------------------------------------------------
# Expected cost
# ---------------------------------------------------------------------------

def test_keep_probability_one_with_vanishing_conjugate(tmp_path):
    # coins on registers 0 and 1, H on 1, keep outcome 0 of register 1: at
    # p0 = 1/2 the kept mass x + y*w0 is 1 while its conjugate twin x - y*w0
    # is 0; only the latter may read as a zero mass
    instrs = (AllocCoin(0), AllocCoin(1), Gate("H", (1,)), Measure(1, 0))
    prog = CircuitProgram(instrs, 0, (ProvNode("leaf", tuple(
        ("instr", k) for k in range(len(instrs)))),), 0)
    assert expected_cost(prog, Fraction(1, 2)).measure_probs == {3: 1.0}
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program_to_json(prog)))
    assert main(["cost", "--p0", "1/2", str(path)]) == 0
    assert main(["run", "--p0", "0.5", "--trials", "10", str(path)]) == 0


def _ext_is_zero_reference(a: Scalar, b: Scalar, z: Fraction) -> bool:
    """Is a + b*sqrt(z(1-z)) zero? Exact in Scalars, whether or not the root
    lies in the scalar field."""
    w0 = sqrt_in_scalar_field(z * (1 - z))
    if w0 is not None:
        return not (a + b * w0)
    return (not a) and (not b)


@pytest.mark.parametrize("p0, root", [
    (Fraction(1, 2), (1, 0)),      # W = sqrt(1*1) = 1
    (Fraction(1, 3), (0, 1)),      # W = sqrt(1*2) = sqrt2
    (Fraction(3, 10), None),       # W = sqrt(3*7), not in Q(sqrt2)
])
def test_kept_mass_zero_test_matches_scalar_reference(p0, root):
    # the kept mass x + y*W, x = x0 + x1*sqrt2 and y = y0 + y1*sqrt2, with
    # W = d*sqrt(p0(1 - p0)): random masses, and zeros planted as x = -y*W,
    # or as x = y = 0 where W is irrational
    d = p0.denominator
    assert sim._SymState(p0).w_root == root
    rnd = random.Random(11)
    zeros = 0
    for _ in range(400):
        x0, x1, y0, y1 = (rnd.randint(-3, 3) for _ in range(4))
        if rnd.random() < 0.3:
            r0, r1 = root or (0, 0)
            y0, y1 = (y0, y1) if root else (0, 0)
            x0, x1 = -(y0 * r0 + 2 * y1 * r1), -(y0 * r1 + y1 * r0)
        got = sim._ext_is_zero((x0, x1, y0, y1), root)
        zeros += got
        assert got == _ext_is_zero_reference(
            Scalar(x0, x1), Scalar(d * y0, d * y1), p0)
    assert zeros >= 80


def test_worked_example_cost():
    rep = expected_cost(worked_example_program(), Fraction(3, 10))
    # success chance p^2 + (1-p)^2 = 0.58 at p = 3/10, two coins per attempt
    assert abs(rep.success_probability - 0.58) < 1e-12
    assert abs(rep.expected_coins - 2 / 0.58) < 1e-12
    assert rep.expected_consts == 0


@pytest.mark.parametrize("text", ["2*p - 1", "1 - 2*p"])
def test_compiled_q_costs_the_two_coin_protocol(text):
    rep = expected_cost(compile(lower(parse(text))), Fraction(3, 10))
    assert abs(rep.expected_coins - 2 / 0.58) < 1e-12
    assert rep.expected_consts == 0


def refuse_constant(name):
    raise ValueError(f"JSON constant {name}")


def test_cost_past_the_float_range_stays_finite():
    # (1+p)^40 nests 40 postselecting Horner steps: its attempt counts pass
    # the float maximum and its success probability the float minimum
    prog = compile(lower(parse("(1+p)^40")))
    rep = expected_cost(prog, Fraction(3, 10))
    probs = {k: Fraction(v) for k, v in rep.measure_probs.items()}

    def subtree(nid):
        """Expected coins of a node's subtree, in exact rationals."""
        coins, own = Fraction(0), Fraction(1)
        for kind, ref in prog.nodes[nid].items:
            if kind == "child":
                coins += subtree(ref)
            elif isinstance(prog.instructions[ref], AllocCoin):
                coins += 1
            elif ref in probs:
                own *= probs[ref]
        return coins / own

    want = subtree(prog.root)
    assert want > sys.float_info.max
    assert isinstance(rep.expected_coins, Decimal)
    assert abs(Fraction(rep.expected_coins) / want - 1) < 1e-12
    overall = math.prod(probs.values())
    assert 0 < overall < sys.float_info.min
    assert abs(Fraction(rep.success_probability) / overall - 1) < 1e-12
    data = json.loads(json.dumps(rep.to_json()), parse_constant=refuse_constant)
    assert data["expected_coins"] == f"{rep.expected_coins:g}"
    assert Decimal(data["expected_coins"]) == rep.expected_coins
    # inside the float range every field is a float, as before
    small = expected_cost(compile(lower(parse("(1+p)^8"))), Fraction(3, 10))
    assert all(type(x) is float for x in (
        small.expected_coins, small.expected_consts, small.success_probability,
        *small.expected_attempts.values()))


def test_coin_cost_is_one():
    rep = expected_cost(coin_program(), Fraction(1, 2))
    assert rep.expected_coins == 1
    assert rep.success_probability == 1


def test_cost_matches_node_recursion():
    # cost(node) = (own cost + sum of children) / success(node)
    prog = construct_p()
    p0 = Fraction(1, 2)
    rep = expected_cost(prog, p0)

    probs = rep.measure_probs

    def node_prob(nid):
        out = 1.0
        for kind, ref in prog.nodes[nid].items:
            if kind == "instr" and isinstance(prog.instructions[ref], Measure):
                out *= probs[ref]
        return out

    def subtree(nid):
        coins = 0.0
        for kind, ref in prog.nodes[nid].items:
            if kind == "child":
                coins += subtree(ref)
            elif isinstance(prog.instructions[ref], AllocCoin):
                coins += 1
        return coins / node_prob(nid)

    assert abs(rep.expected_coins - subtree(prog.root)) < 1e-9 * rep.expected_coins


def test_cost_of_impossible_postselection_raises():
    prog = CircuitProgram(
        (AllocConst(Scalar(0), 0), AllocConst(Scalar(1), 1), Measure(0, 0)),
        1,
        (ProvNode("leaf", (("instr", 0), ("instr", 1), ("instr", 2))),), 0)
    with pytest.raises(PostselectionError):
        expected_cost(prog, Fraction(1, 2))


def test_cost_rejects_bad_p0():
    with pytest.raises(ValueError):
        expected_cost(coin_program(), Fraction(0))
    with pytest.raises(ValueError):
        expected_cost(coin_program(), Fraction(7, 5))


def test_cost_json_keys_are_strings():
    rep = expected_cost(construct_p(), Fraction(1, 2))
    data = rep.to_json()
    # keyed by node id in ascending order
    assert list(data["expected_attempts"]) == [
        str(n) for n in range(len(construct_p().nodes))]
    assert all(isinstance(k, str) for k in data["measure_probs"])


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_numeric_matches_symbolic_probability():
    # chance of the reported outcome is |h|^2 / (1 + |h|^2) at p0
    prog = worked_example_program()
    h = run_symbolic(prog)
    p0 = 0.7
    hval = abs(fe_eval(h, Fraction(7, 10))) ** 2
    want = hval / (1 + hval)
    res = run_numeric(prog, p0, trials=20000, seed=11)
    sigma = math.sqrt(want * (1 - want) / res.completed)
    assert abs(res.empirical_p0_prob - want) < 4 * sigma


def test_numeric_coin_count_tracks_analytic():
    prog = worked_example_program()
    res = run_numeric(prog, 0.3, trials=20000, seed=7)
    assert abs(res.expected_coins_empirical - res.expected_coins_analytic) \
        < 0.05 * res.expected_coins_analytic


def test_numeric_construct_p():
    res = run_numeric(construct_p(), 0.5, trials=3000, seed=3)
    want = 0.25 / 1.25  # h = p gives |h|^2 = 1/4 at p0 = 1/2
    sigma = math.sqrt(want * (1 - want) / res.completed)
    assert abs(res.empirical_p0_prob - want) < 4 * sigma


def test_numeric_is_deterministic_and_worker_invariant():
    prog = worked_example_program()
    a = run_numeric(prog, 0.3, trials=4000, seed=5)
    b = run_numeric(prog, 0.3, trials=4000, seed=5)
    c = run_numeric(prog, 0.3, trials=4000, seed=5, workers=4)
    key = lambda r: (r.successes, r.completed, r.aborted, r.coins_total, r.consts_total)
    assert key(a) == key(b) == key(c)


@pytest.mark.parametrize("workers, trials, old_pool", [
    (10 ** 6, 50, 3),
    (10 ** 6, 2, 2),
    (2, 50, 2),
    (10 ** 6, 1, None),
])
def test_numeric_pool_size_is_capped(monkeypatch, workers, trials, old_pool):
    # old_pool is the thread-pool size the per-trial engine used on a 3-cpu
    # box (None: no pool). The pool is gone: workers is checked and echoed,
    # and the run stays in the calling thread whatever it asks for.
    def refuse(self):
        raise AssertionError(f"run_numeric started a thread (was a pool of {old_pool})")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    prog = worked_example_program()
    got = run_numeric(prog, 0.3, trials=trials, seed=5, workers=workers)
    one = run_numeric(prog, 0.3, trials=trials, seed=5, workers=1)
    key = lambda r: (r.successes, r.completed, r.aborted, r.coins_total, r.consts_total)
    assert key(got) == key(one)


def test_numeric_seed_changes_stream():
    prog = worked_example_program()
    a = run_numeric(prog, 0.3, trials=4000, seed=5)
    d = run_numeric(prog, 0.3, trials=4000, seed=6)
    assert (a.successes, a.coins_total) != (d.successes, d.coins_total)


def test_numeric_abort_accounting():
    prog = worked_example_program()
    res = run_numeric(prog, 0.5, trials=2000, seed=9, max_retries=0)
    assert res.aborted > 0
    assert res.completed + res.aborted == res.trials
    # with no retries about half the attempts die at the postselection
    assert 0.3 < res.aborted / res.trials < 0.7
    # each aborted trial drew its two coins before the miss
    assert res.aborted_coins == 2 * res.aborted
    (midx,) = expected_cost(prog, Fraction(1, 2)).measure_probs
    assert res.aborts_per_measure == {midx: res.aborted}
    assert res.to_json()["aborts_per_measure"] == {str(midx): res.aborted}


def test_numeric_retries_reset_when_enclosing_node_restarts():
    # a restart of an enclosing node enters its children afresh; counting a
    # child's misses over the whole trial aborted 7 of these 20 trials
    res = run_numeric(compile(lower(parse("1 - 2*p"))), 0.3, 20, seed=3)
    assert res.aborted == 0 and res.aborted_coins == 0
    assert res.completed == 20 and res.aborts_per_measure == {}


def test_replay_bound_refuses_runs_just_over_it(monkeypatch):
    # the two-coin protocol expects 2/0.58 = 3.45 coins per trial at 0.3
    monkeypatch.setattr(sim, "MAX_REPLAY_COINS", 50)
    prog = worked_example_program()
    assert run_numeric(prog, 0.3, trials=14, seed=1).trials == 14   # 48.3
    with pytest.raises(ValueError, match="3.44828 expected coins"):
        run_numeric(prog, 0.3, trials=15, seed=1)                  # 51.7


def _count_exact_passes(monkeypatch) -> list:
    calls = []
    real = sim._exact_pass

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(sim, "_exact_pass", counted)
    return calls


def test_repeated_runs_take_one_exact_pass_per_p0(monkeypatch):
    calls = _count_exact_passes(monkeypatch)
    prog = worked_example_program()
    first = run_numeric(prog, 0.3, trials=100, seed=1)
    assert run_numeric(prog, 0.3, trials=200, seed=2).trials == 200
    assert calls == [Fraction(3, 10)]
    run_numeric(prog, 0.5, trials=100, seed=1)
    assert calls == [Fraction(3, 10), Fraction(1, 2)]
    # the slot holds the last p0 only, and a fresh object prices itself
    assert run_numeric(prog, 0.3, trials=100, seed=1) == first
    assert len(calls) == 3
    assert run_numeric(worked_example_program(), 0.3, trials=100,
                       seed=1) == first
    assert len(calls) == 4
    # the bound is read on every call, also from a kept pricing
    monkeypatch.setattr(sim, "MAX_REPLAY_COINS", 50)
    with pytest.raises(ValueError, match="replay bound of 50"):
        run_numeric(prog, 0.3, trials=15, seed=1)
    assert len(calls) == 4


def test_a_pass_that_raises_is_not_kept(monkeypatch):
    calls = _count_exact_passes(monkeypatch)
    # the measurement keeps the branch of a register prepared in |1>
    prog = CircuitProgram(
        (AllocConst(Scalar(0), 0), AllocConst(Scalar(1), 1), Measure(0, 0)),
        1,
        (ProvNode("leaf", (("instr", 0), ("instr", 1), ("instr", 2))),), 0)
    for _ in range(2):
        with pytest.raises(PostselectionError):
            run_numeric(prog, 0.5, trials=10, seed=1)
    assert len(calls) == 2


def test_kept_pricing_matches_a_fresh_pass():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    makers = {"worked_example": worked_example_program,
              "construct_p": construct_p}
    call = st.tuples(st.sampled_from(sorted(makers)),
                     st.sampled_from([0.3, 0.5, 0.7]),
                     st.integers(0, 2 ** 64), st.integers(1, 8))

    @hypothesis.settings(max_examples=15, deadline=None, database=None)
    @hypothesis.given(st.lists(call, min_size=1, max_size=6), st.randoms())
    def check(calls, rnd):
        progs = {name: make() for name, make in makers.items()}
        rnd.shuffle(calls)
        for name, p0, seed, trials in calls:
            got = run_numeric(progs[name], p0, trials, seed=seed)
            want = run_numeric(makers[name](), p0, trials, seed=seed)
            assert got == want

    check()


def test_kept_pricing_dies_with_its_program():
    import gc
    import weakref
    prog = construct_p()
    run_numeric(prog, 0.3, trials=2, seed=1)
    ref = weakref.ref(prog)
    del prog
    gc.collect()
    assert ref() is None


def test_results_do_not_share_expected_attempts():
    prog = construct_p()
    one = run_numeric(prog, 0.3, trials=2, seed=1)
    two = run_numeric(prog, 0.3, trials=2, seed=2)
    assert one.expected_attempts == two.expected_attempts
    assert one.expected_attempts is not two.expected_attempts


def test_numeric_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_numeric(coin_program(), 0.0, trials=10)
    with pytest.raises(ValueError):
        run_numeric(coin_program(), 0.5, trials=0)
    with pytest.raises(ValueError):
        run_numeric(coin_program(), 0.5, trials=10, workers=0)


# ---------------------------------------------------------------------------
# Reference engine: the per-trial float amplitude loop, one full simulation
# per attempt, fed by run_numeric's uniform stream. It keeps its own float
# gates and state, so it shares nothing but the stream with run_numeric.
# ---------------------------------------------------------------------------

_R = math.sqrt(0.5)
_FLOAT_GATES = {
    "X": ((0, 1),
          (1, 0)),
    "H": ((_R, _R),
          (_R, -_R)),
    "CNOT": ((1, 0, 0, 0),
             (0, 1, 0, 0),
             (0, 0, 0, 1),
             (0, 0, 1, 0)),
    "B": ((0, 0, 0, 1),
          (0, _R, _R, 0),
          (0, _R, -_R, 0),
          (1, 0, 0, 0)),
}


class _Group:
    __slots__ = ("regs", "amps")

    def __init__(self, regs, amps):
        self.regs = regs
        self.amps = amps


def _oracle_steps(prog):
    """Instructions as dispatch tuples with complex gate matrices."""
    steps = []
    for idx, ins in enumerate(prog.instructions):
        if isinstance(ins, AllocCoin):
            steps.append(("coin", ins.reg))
        elif isinstance(ins, AllocConst):
            steps.append(("const", ins.reg, complex(ins.value.to_complex())))
        elif isinstance(ins, Gate):
            mat = tuple(tuple(complex(c) for c in row)
                        for row in _FLOAT_GATES[ins.name])
            steps.append(("gate", ins.regs, mat))
        else:
            steps.append(("measure", ins.reg, ins.keep, idx))
    return steps


def _oracle_gate(group_of, regs, mat):
    """Apply a gate matrix in place, merging the groups of a two-register
    gate first."""
    if len(regs) == 2:
        g1, g2 = group_of[regs[0]], group_of[regs[1]]
        if g1 is not g2:
            grp = _Group(g1.regs + g2.regs,
                         [a * b for a in g1.amps for b in g2.amps])
            for r in grp.regs:
                group_of[r] = grp
        else:
            grp = g1
    else:
        grp = group_of[regs[0]]
    n = len(grp.regs)
    amps = grp.amps
    if len(regs) == 1:
        s = 1 << (n - 1 - grp.regs.index(regs[0]))
        for base in range(1 << n):
            if base & s:
                continue
            a0, a1 = amps[base], amps[base | s]
            amps[base] = mat[0][0] * a0 + mat[0][1] * a1
            amps[base | s] = mat[1][0] * a0 + mat[1][1] * a1
    else:
        s1 = 1 << (n - 1 - grp.regs.index(regs[0]))
        s2 = 1 << (n - 1 - grp.regs.index(regs[1]))
        for base in range(1 << n):
            if base & s1 or base & s2:
                continue
            idx = (base, base | s2, base | s1, base | s1 | s2)
            old = [amps[i] for i in idx]
            for k in range(4):
                amps[idx[k]] = (mat[k][0] * old[0] + mat[k][1] * old[1]
                                + mat[k][2] * old[2] + mat[k][3] * old[3])


class _OracleAbort(Exception):
    """args: (measurement instruction index, coins spent by the trial)"""


def _oracle_trial(steps, node_items, root, output, amp0, amp1, rng, max_retries,
                  tally):
    """Returns (outcome_bit_is_zero, coins, consts) or raises _OracleAbort.
    A measurement's misses count from the latest entry of its node. Each
    attempt of a node adds one to tally["attempts"][node], and
    tally["most"] keeps the most misses one measurement took within one
    entry of its node."""
    group_of = {}
    coins = 0
    consts = 0

    def run_node(nid):
        nonlocal coins, consts
        retries = {}
        while True:
            tally["attempts"][nid] += 1
            ok = True
            for tag, ref in node_items[nid]:
                if tag == "child":
                    run_node(ref)
                    continue
                step = steps[ref]
                op = step[0]
                if op == "coin":
                    group_of[step[1]] = _Group((step[1],), [amp0, amp1])
                    coins += 1
                elif op == "const":
                    a = step[2]
                    norm = math.sqrt(abs(a) ** 2 + 1.0)
                    group_of[step[1]] = _Group((step[1],),
                                               [a / norm, 1.0 / norm])
                    consts += 1
                elif op == "gate":
                    _oracle_gate(group_of, step[1], step[2])
                else:
                    reg, keep, midx = step[1], step[2], step[3]
                    grp = group_of[reg]
                    n = len(grp.regs)
                    s = 1 << (n - 1 - grp.regs.index(reg))
                    total = 0.0
                    kept_mass = 0.0
                    for i in range(1 << n):
                        m = abs(grp.amps[i]) ** 2
                        total += m
                        if ((i & s) != 0) == (keep == 1):
                            kept_mass += m
                    if rng() < kept_mass / total:
                        norm = math.sqrt(kept_mass)
                        amps = [grp.amps[i] / norm for i in range(1 << n)
                                if ((i & s) != 0) == (keep == 1)]
                        del group_of[reg]
                        regs = tuple(r for r in grp.regs if r != reg)
                        if regs:
                            grp.regs = regs
                            grp.amps = amps
                    else:
                        c = retries.get(midx, 0) + 1
                        if c > max_retries:
                            raise _OracleAbort(midx, coins)
                        retries[midx] = c
                        tally["most"] = max(tally["most"], c)
                        ok = False
                        break
            if ok:
                return

    run_node(root)
    grp = group_of[output]
    m0 = abs(grp.amps[0]) ** 2
    m1 = abs(grp.amps[1]) ** 2
    return rng() < m0 / (m0 + m1), coins, consts


def _oracle_run(prog, p0, trials, seed, max_retries=1000, seen=None):
    """(successes, completed, aborted, coins_total, consts_total,
    aborted_coins, {measurement: aborts} over the measurements that abort);
    a dict passed as seen gets run_numeric's node_attempts (attempts per
    completed trial, NaN with none completed) and max_retries_seen, the
    most misses over every trial, aborted ones too"""
    steps = _oracle_steps(prog)
    node_items = [node.items for node in prog.nodes]
    amp0 = complex(math.sqrt(p0))
    amp1 = complex(math.sqrt(1.0 - p0))
    seed_key = sim._seed_key(seed)
    successes = aborted = coins_total = consts_total = aborted_coins = 0
    aborts_at = {}
    totals = [0] * len(prog.nodes)
    tally = {"most": 0}
    for trial in range(trials):
        tally["attempts"] = [0] * len(prog.nodes)
        key = sim._trial_key(seed_key, trial)
        draws = (sim._uniform(key, k) for k in itertools.count(1))
        try:
            hit, coins, consts = _oracle_trial(
                steps, node_items, prog.root, prog.output, amp0, amp1,
                lambda: next(draws), max_retries, tally)
        except _OracleAbort as stop:
            midx, coins = stop.args
            aborted += 1
            aborted_coins += coins
            aborts_at[midx] = aborts_at.get(midx, 0) + 1
            continue
        successes += hit
        coins_total += coins
        consts_total += consts
        totals = [t + a for t, a in zip(totals, tally["attempts"])]
    if seen is not None:
        completed = trials - aborted
        seen["node_attempts"] = {nid: a / completed if completed else math.nan
                                 for nid, a in enumerate(totals)}
        seen["max_retries_seen"] = tally["most"]
    return (successes, trials - aborted, aborted, coins_total, consts_total,
            aborted_coins, aborts_at)


@pytest.mark.parametrize("make, p0, trials, max_retries", [
    (worked_example_program, 0.3, 3000, 1000),
    (worked_example_program, 0.5, 2000, 0),
    (construct_p, 0.5, 200, 1000),
    (construct_p, 0.3, 200, 3),
    (lambda: compile(lower(parse("1 - 2*p"))), 0.3, 20, 1000),
    (lambda: compile(lower(parse("t + p - 1/2"))), 0.4, 100, 1000),
])
def test_numeric_matches_per_trial_oracle(make, p0, trials, max_retries):
    prog = make()
    res = run_numeric(prog, p0, trials=trials, seed=17, max_retries=max_retries)
    got = (res.successes, res.completed, res.aborted, res.coins_total,
           res.consts_total, res.aborted_coins, res.aborts_per_measure)
    assert got == _oracle_run(prog, p0, trials, 17, max_retries)
    assert 0 <= res.max_retries_seen <= max_retries
    if res.aborted:
        assert res.max_retries_seen == max_retries


@pytest.mark.parametrize("make, p0, trials, seed, max_retries, child_aborts", [
    (worked_example_program, 0.3, 3000, 17, 1000, False),
    (worked_example_program, 0.5, 2000, 17, 0, False),
    # every trial aborts, so node_attempts are NaN
    (worked_example_program, 0.5, 1, 2, 0, False),
    (construct_p, 0.5, 200, 17, 1000, False),
    (construct_p, 0.3, 200, 17, 3, True),
    (construct_p, 0.3, 200, 17, 0, True),
    # the README case
    (lambda: compile(lower(parse("(1+p)^3"))), 0.3, 20, 3, 20, True),
])
def test_numeric_attempts_match_per_trial_oracle(make, p0, trials, seed,
                                                 max_retries, child_aborts):
    prog = make()
    res = run_numeric(prog, p0, trials=trials, seed=seed,
                      max_retries=max_retries)
    seen = {}
    got = (res.successes, res.completed, res.aborted, res.coins_total,
           res.consts_total, res.aborted_coins, res.aborts_per_measure)
    assert got == _oracle_run(prog, p0, trials, seed, max_retries, seen)
    assert res.max_retries_seen == seen["max_retries_seen"]
    assert res.node_attempts.keys() == seen["node_attempts"].keys()
    for nid, want in seen["node_attempts"].items():
        got = res.node_attempts[nid]
        assert got == want or (math.isnan(got) and math.isnan(want))
    # some trial aborts at a measurement of a node below the root, so the
    # attempts it made in the nodes it entered are taken back
    root_items = {ref for tag, ref in prog.nodes[prog.root].items
                  if tag == "instr"}
    assert child_aborts == any(m not in root_items
                               for m in res.aborts_per_measure)


def test_integer_keep_bound_is_the_float_test():
    # a measurement keeps when its 53-bit draw x is below the plan's integer
    # bound; that must be the float test x < prob * 2**53, and _uniform's
    # x * 2**-53 < prob, at the two draws where they could part
    prog = worked_example_program()
    (midx,) = expected_cost(prog, Fraction(1, 2)).measure_probs
    rnd = random.Random(14)
    probs = [rnd.random() for _ in range(2000)]
    probs += [rnd.random() * 2.0 ** -rnd.randint(1, 1070) for _ in range(200)]
    probs += [k / 2 ** j for j in range(1, 60) for k in (1, 3, 2 ** j - 1)
              if k < 2 ** j]
    probs += [0.0, 1.0, 5e-324, 1 - 2.0 ** -53]
    for prob in probs:
        ((step,), _, _), = sim._node_plans(prog, {midx: math.frexp(prob)})
        bound = step[3]
        assert isinstance(bound, int)
        for x in (bound - 1, bound):
            assert (x < bound) == (x < prob * 2 ** 53)
            if x >= 0:
                assert (x < bound) == (x * 2.0 ** -53 < prob)


def test_numeric_node_attempts_track_analytic():
    prog = worked_example_program()
    res = run_numeric(prog, 0.3, trials=20000, seed=7)
    want = expected_cost(prog, Fraction(3, 10)).expected_attempts
    assert set(res.node_attempts) == set(want)
    assert abs(want[prog.root] - 1 / 0.58) < 1e-12
    assert abs(res.node_attempts[prog.root] - want[prog.root]) \
        < 0.05 * want[prog.root]
    assert res.max_retries_seen > 0
    data = res.to_json()
    assert data["node_attempts"] == {str(prog.root): res.node_attempts[prog.root]}
    assert data["max_retries_seen"] == res.max_retries_seen


def test_numeric_rejects_negative_seed():
    with pytest.raises(ValueError):
        run_numeric(coin_program(), 0.5, trials=10, seed=-1)


def test_numeric_rejects_negative_max_retries():
    with pytest.raises(ValueError, match="max_retries"):
        run_numeric(coin_program(), 0.5, trials=10, max_retries=-1)
    assert run_numeric(coin_program(), 0.5, trials=10,
                       max_retries=0).max_retries == 0


def cnot_chain(n):
    """n coins joined into one group by a chain of CNOTs, then every coin
    but the first measured."""
    instrs = tuple(AllocCoin(r) for r in range(n)) \
        + tuple(Gate("CNOT", (r, r + 1)) for r in range(n - 1)) \
        + tuple(Measure(r, 0) for r in range(1, n))
    node = ProvNode("protocol", tuple(("instr", k) for k in range(len(instrs))))
    return CircuitProgram(instrs, 0, (node,), 0)


def test_group_width_is_bounded():
    # the exact pass holds 2**n amplitude pairs for a group of n registers
    wide = cnot_chain(sim.MAX_GROUP_WIDTH)
    assert expected_cost(wide, Fraction(3, 10)).expected_coins > 0
    too_wide = cnot_chain(sim.MAX_GROUP_WIDTH + 1)
    for run in (lambda: expected_cost(too_wide, Fraction(3, 10)),
                lambda: run_numeric(too_wide, 0.3, trials=10),
                lambda: run_symbolic(too_wide)):
        with pytest.raises(ValueError, match="entangles more than"):
            run()


def test_seed_key_uses_every_bit():
    keys = {sim._seed_key(s) for s in (0, 1, 2 ** 64, 2 ** 64 + 1, 2 ** 128)}
    assert len(keys) == 5
