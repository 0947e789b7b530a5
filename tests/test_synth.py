"""Circuit program construction, validation, and serialization."""

import json
import random
from fractions import Fraction

import pytest

from coinfield import synth
from coinfield.field import FE_ONE, FieldElem, INFINITY
from coinfield.lang import lower, parse
from coinfield.polys import Poly, RatFn, zeta_parts
from coinfield.scalars import SQRT2, Scalar
from coinfield.sim import expected_cost, run_symbolic
from coinfield.synth import (AllocCoin, AllocConst, CircuitProgram, Gate,
                             Measure, ProvNode, _horner, _poly_program,
                             coin_program, compile, const_program, construct_p,
                             emit_add, emit_inv, emit_mul, emit_neg,
                             program_from_json, program_to_json, static_counts,
                             validate_program, worked_example_program)


# p = (q + 1)/2 as a polynomial in q = 2p - 1: the independent reference for
# the q-basis rewrite, which compile runs on integers
_P_IN_Q = Poly((Fraction(1, 2), Fraction(1, 2)))


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
# Emitters
# ---------------------------------------------------------------------------

def test_coin_program_is_single_alloc():
    prog = coin_program()
    assert prog.instructions == (AllocCoin(0),)
    assert prog.output == 0
    validate_program(prog)


def test_compile_of_t_is_bare_coin():
    assert compile(lower(parse("t"))) == coin_program()


def test_const_program_shape():
    prog = const_program(Fraction(1, 2))
    assert len(prog.instructions) == 1
    assert isinstance(prog.instructions[0], AllocConst)
    assert prog.instructions[0].value == Scalar(Fraction(1, 2))
    validate_program(prog)


def test_emit_add_structure():
    prog = emit_add(const_program(1), const_program(2))
    validate_program(prog)
    kinds = [type(i).__name__ for i in prog.instructions]
    # two operand consts, the sqrt2 ancilla, entangler, two postselections
    assert kinds == ["AllocConst", "AllocConst", "AllocConst", "Gate",
                     "Measure", "Gate", "Gate", "Measure"]
    consts = [i.value for i in prog.instructions if isinstance(i, AllocConst)]
    assert SQRT2 in consts


def test_emit_mul_and_inv_validate():
    x = emit_mul(coin_program(), const_program(Fraction(1, 3)))
    validate_program(x)
    y = emit_inv(x)
    validate_program(y)
    z = emit_add(y, coin_program())
    validate_program(z)


def test_merge_keeps_registers_disjoint():
    prog = emit_mul(emit_add(coin_program(), const_program(1)),
                    emit_add(coin_program(), const_program(-1)))
    validate_program(prog)
    allocs = [i.reg for i in prog.instructions if isinstance(i, (AllocCoin, AllocConst))]
    assert len(allocs) == len(set(allocs))
    assert prog.registers == len(allocs)


def test_compile_validates_on_random_targets():
    rnd = random.Random(47)
    for _ in range(15):
        h = random_target(rnd)
        prog = compile(h)
        validate_program(prog)


# ---------------------------------------------------------------------------
# Degenerate targets
# ---------------------------------------------------------------------------

def test_compile_zero():
    prog = compile(lower(parse("0")))
    validate_program(prog)
    assert static_counts(prog)["coins"] == 0


def test_compile_one():
    prog = compile(lower(parse("1")))
    validate_program(prog)
    assert [type(i).__name__ for i in prog.instructions] == ["AllocConst"]
    assert run_symbolic(prog) == FE_ONE


def test_compile_infinite_ratio():
    prog = compile(INFINITY)
    validate_program(prog)
    names = [type(i).__name__ for i in prog.instructions]
    assert names == ["AllocConst", "Gate"]
    assert prog.instructions[1].name == "X"


# ---------------------------------------------------------------------------
# Known programs
# ---------------------------------------------------------------------------

def test_worked_example_instructions():
    prog = worked_example_program()
    validate_program(prog)
    assert prog.instructions == (
        AllocCoin(0), AllocCoin(1), Gate("CNOT", (0, 1)), Measure(1, 0),
        Gate("H", (0,)), Gate("X", (0,)))
    assert prog.output == 0


def test_construct_p_counts():
    # a mul, two inversions and an add: hand count of the macro expansion,
    # the add bringing its sqrt2 constant
    prog = construct_p()
    validate_program(prog)
    counts = static_counts(prog)
    assert counts["coins"] == 2
    assert counts["consts"] == 2
    assert counts["measures"] == 3
    assert counts["registers"] == 4


def test_compile_p_equals_construct_p():
    assert compile(lower(parse("p"))) == construct_p()


def test_emit_neg_flips_the_ratio_for_free():
    for x in (worked_example_program(), construct_p(),
              emit_add(coin_program(), const_program(Fraction(1, 3)))):
        neg = emit_neg(x)
        validate_program(neg)
        assert run_symbolic(neg) == -run_symbolic(x)
        assert [i.name for i in neg.instructions[len(x.instructions):]] \
            == ["H", "X", "H"]
        for p0 in (Fraction(1, 10), Fraction(3, 10)):
            assert expected_cost(neg, p0).expected_coins \
                == expected_cost(x, p0).expected_coins


def test_compile_of_q_and_minus_q_is_the_two_coin_protocol():
    # 2p - 1 and 1 - 2p have one nonzero coefficient in q = 2p - 1
    q = worked_example_program()
    assert compile(lower(parse("2*p - 1"))) == q
    assert compile(lower(parse("1 - 2*p"))) == emit_neg(q)


# ---------------------------------------------------------------------------
# Coin cost of compiled programs
# ---------------------------------------------------------------------------

COST_P0 = tuple(Fraction(k, 10) for k in (1, 3, 5, 7, 9))

# expected coins per sample at COST_P0 when every Horner step in p took a
# fresh 132-coin construct_p; compile must never cost more
OLD_COINS = {
    "p": (142.574257426, 132.110091743, 115.2, 96.644295302, 79.5580110497),
    "1 - 2*p": (2634.14634146, 3724.13793103, 4320, 3724.13793103, 2634.14634146),
    "(2*p - 1)^2": (545289.670829, 803572.230889, 940680, 1090336.66147, 962579.114642),
    "(2*p - 1)^3": (2201380573.83, 3218319214.52, 4244805270, 6001629343.4, 7041929851.05),
    "1 - p + p^2": (3719.53394234, 4271.85518133, 4838.4, 5335.82907456, 5610.02133363),
    "t + p - 1/2": (1795.88495575, 1921.54116022, 1623, 1357.91507446, 1292.57961783),
    "(p^3 + t)^3": (2520725.28017, 6207458.86046, 14425771.5252, 73330938.2754, 4903331137.49),
}

# the same for the first 16 random_target draws of random.Random(101)
OLD_RANDOM_COINS = (
    (2203.30260855, 3190.58029904, 4365.792, 5718.76097611, 7379.1276794),
    (50795.9768051, 52045.0105902, 59417.9653179, 81421.800541, 142329.03467),
    (147037.40547, 159527.569326, 184730.154187, 228369.539162, 322969.099165),
    (12387.6740049, 12451.1224304, 12829.9788, 14609.9125181, 27538.247289),
    (3.81818181818, 4.05814925273, 4.66666666667, 5.87449936331, 9.13043478261),
    (3109.48249344, 3595.84269493, 4408.56, 5815.846753, 9450.1433806),
    (32274.9810424, 59230.3623384, 127476.454422, 274748.103611, 309817.030509),
    (20819.9766132, 25100.9477583, 30659.4097938, 39288.4081236, 55577.2802286),
    (13254.0469066, 3579.63239875, 2018, 1483.92560365, 1259.19813674),
    (14079.9353236, 10722.6673359, 8374.78321678, 6899.87699146, 5953.74668893),
    (25033.8847333, 27394.314245, 37610.8663366, 59838.3215453, 96539.670748),
    (75470.6096035, 85506.4118332, 96314.3732282, 111572.380978, 140673.824756),
    (98399.1592458, 51403.2114802, 24712.7371069, 15249.3073518, 12133.5739791),
    (10727.6326643, 8982.25111609, 7688.83934315, 7444.90853051, 9193.09169745),
    (1639.75372816, 1616.8601573, 1530.256, 1440.01683355, 1429.04761905),
    (150204.148131, 223466.159441, 362603.215805, 675724.412572, 1554036.15517),
)


def assert_no_dearer(h, old):
    prog = compile(h)
    assert run_symbolic(prog) == h
    for p0, bound in zip(COST_P0, old):
        assert expected_cost(prog, p0).expected_coins <= bound * (1 + 1e-9), p0


@pytest.mark.parametrize("text", sorted(OLD_COINS))
def test_compile_cost_never_exceeds_horner_in_p(text):
    assert_no_dearer(lower(parse(text)), OLD_COINS[text])


def test_compile_cost_on_random_targets_never_exceeds_horner_in_p():
    rnd = random.Random(101)
    for old in OLD_RANDOM_COINS:
        assert_no_dearer(random_target(rnd), old)


@pytest.mark.parametrize("text", ["(2*p - 1)^2", "(2*p - 1)^3", "1 - p + p^2"])
def test_q_basis_costs_a_hundredth_of_horner_in_p(text):
    prog = compile(lower(parse(text)))
    coins = expected_cost(prog, Fraction(3, 10)).expected_coins
    assert 100 * coins <= OLD_COINS[text][1]


@pytest.mark.parametrize("text, basis", [
    ("p", "p"), ("p^3", "p"), ("p^4 + 1/3", "p"),
    ("2*p - 1", "q"), ("(2*p - 1)^3", "q"), ("1 - p + p^2", "q")])
def test_the_chosen_basis_is_the_cheaper(text, basis):
    # each branch of the basis rule is the cheaper one on targets it picks
    g = lower(parse(text)).r.num
    in_q = Poly()
    for c in reversed(g.coeffs):
        in_q = in_q * _P_IN_Q + Poly.const(c)
    costs = {b: expected_cost(prog, Fraction(3, 10)).expected_coins
             for b, prog in (("p", _horner(g.coeffs, construct_p())),
                             ("q", _horner(in_q.coeffs, worked_example_program())))}
    chosen = expected_cost(compile(lower(parse(text))), Fraction(3, 10))
    assert chosen.expected_coins == costs[basis] < costs[{"p": "q", "q": "p"}[basis]]


def old_poly_program(g: Poly) -> CircuitProgram:
    """The q-basis rewrite as a Poly Horner with p = (q + 1)/2, then the same
    basis rule: the reference for the integer rewrite."""
    in_q = Poly()
    for c in reversed(g.coeffs):
        in_q = in_q * _P_IN_Q + Poly.const(c)
    if sum(map(bool, in_q.coeffs)) <= sum(map(bool, g.coeffs)):
        return _horner(in_q.coeffs, worked_example_program())
    return _horner(g.coeffs, construct_p())


def test_integer_rewrite_matches_the_poly_horner():
    # Gaussian and sqrt2 coefficients, a leading +-1 and ties in the
    # nonzero counts (1 + p is 3/2 + q/2) all reach both routes
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    scalar = st.one_of(
        st.sampled_from([Scalar(0), Scalar(1), Scalar(-1)]),
        st.builds(Scalar, rational, st.just(0), rational),       # Gaussian
        st.builds(Scalar, rational, rational))                     # sqrt2
    top = st.one_of(st.sampled_from([Scalar(1), Scalar(-1)]), scalar)
    poly = st.tuples(st.lists(scalar, max_size=8), top).map(
        lambda t: Poly((*t[0], t[1]))).filter(lambda g: not g.is_zero())

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(poly)
    @hypothesis.example(Poly((1, 1)))
    @hypothesis.example(Poly((-1, 2)))
    @hypothesis.example(Poly((Scalar(0, 0, 1), 0, -1)))
    def check(g):
        (ints,), n = zeta_parts(g)
        assert program_to_json(_poly_program(ints, n)) \
            == program_to_json(old_poly_program(g))

    check()


def shift_count(h) -> int:
    calls = []
    real = synth._shift_instr

    def counted(ins, reg_off):
        calls.append(1)
        return real(ins, reg_off)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(synth, "_shift_instr", counted)
        compile(h)
    return len(calls)


def test_compile_builds_each_instruction_a_bounded_number_of_times():
    # the Horner accumulator is always the first operand, which keeps its
    # instructions; only the later operands are shifted
    counts = {d: shift_count(lower(parse(f"(1+p)^{d} + (1+p)^{d // 2}*t")))
              for d in (32, 64)}
    assert counts[64] <= 1300
    assert counts[64] <= 2.2 * counts[32]
    x = construct_p()
    prog = emit_mul(x, worked_example_program())
    assert all(a is b for a, b in zip(prog.instructions, x.instructions))
    assert all(a is b for a, b in zip(prog.nodes, x.nodes))


def test_compile_does_no_poly_arithmetic(monkeypatch):
    targets = [lower(parse(t)) for t in (
        "(1+p)^12 + (1-p)^6*t", "(p + i)/(p^2 + 1/3) + sqrt2*t/(1 + p)",
        "(p^3 + t)^3", "1 - 2*p")]

    def refuse(*args):
        raise AssertionError("compile reached Poly.__mul__")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    for h in targets:
        validate_program(compile(h))


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def test_provenance_covers_instructions_in_order():
    prog = compile(lower(parse("1 - 2*p")))
    seen = []

    def walk(nid):
        for kind, ref in prog.nodes[nid].items:
            if kind == "child":
                walk(ref)
            else:
                seen.append(ref)

    walk(prog.root)
    assert seen == list(range(len(prog.instructions)))


# ---------------------------------------------------------------------------
# Validator rejections
# ---------------------------------------------------------------------------

def test_validator_rejects_double_alloc():
    prog = CircuitProgram(
        (AllocCoin(0), AllocCoin(0)), 0,
        (ProvNode("leaf", (("instr", 0), ("instr", 1))),), 0)
    with pytest.raises(ValueError):
        validate_program(prog)


def test_validator_rejects_gate_on_dead_register():
    prog = CircuitProgram(
        (AllocCoin(0), AllocCoin(1), Measure(1, 0), Gate("X", (1,))), 0,
        (ProvNode("leaf", tuple(("instr", k) for k in range(4))),), 0)
    with pytest.raises(ValueError):
        validate_program(prog)


def test_validator_rejects_unknown_gate_and_bad_arity():
    bad1 = CircuitProgram(
        (AllocCoin(0), Gate("Z", (0,))), 0,
        (ProvNode("leaf", (("instr", 0), ("instr", 1))),), 0)
    with pytest.raises(ValueError):
        validate_program(bad1)
    bad2 = CircuitProgram(
        (AllocCoin(0), Gate("CNOT", (0,))), 0,
        (ProvNode("leaf", (("instr", 0), ("instr", 1))),), 0)
    with pytest.raises(ValueError):
        validate_program(bad2)


def test_validator_rejects_leftover_live_register():
    prog = CircuitProgram(
        (AllocCoin(0), AllocCoin(1)), 0,
        (ProvNode("leaf", (("instr", 0), ("instr", 1))),), 0)
    with pytest.raises(ValueError):
        validate_program(prog)


def test_validator_rejects_measure_outside_rebuild_scope():
    # instruction order matches the provenance walk, but the measured register
    # is entangled with a coin allocated outside its emitting node's subtree
    prog = CircuitProgram(
        (AllocCoin(0),
         AllocCoin(1),
         Gate("CNOT", (0, 1)),
         Measure(1, 0),
         Measure(0, 0),
         AllocCoin(2)),
        2,
        (ProvNode("root", (("instr", 0), ("child", 1), ("instr", 4), ("instr", 5))),
         ProvNode("inner", (("instr", 1), ("instr", 2), ("instr", 3)))),
        0)
    with pytest.raises(ValueError, match="entangl|scope|subtree|outside"):
        validate_program(prog)


def ancestor_measure_program():
    # the measurement sits in node 1, whose subtree misses the coin it is
    # entangled with; only a restart of the root node 0 would rebuild both
    instrs = (AllocCoin(0), AllocCoin(1), Gate("CNOT", (0, 1)), Measure(1, 0))
    nodes = (ProvNode("root", (("instr", 0), ("child", 1))),
             ProvNode("inner", (("instr", 1), ("instr", 2), ("instr", 3))))
    return CircuitProgram(instrs, 0, nodes, 0)


def test_validator_rejects_measure_naming_another_node():
    with pytest.raises(ValueError, match="rebuild subtree of node 1 misses register 0"):
        validate_program(ancestor_measure_program())
    # the same circuit with the measurement in the root node is sound
    prog = ancestor_measure_program()
    moved = CircuitProgram(prog.instructions, 0, (
        ProvNode("root", (("instr", 0), ("child", 1), ("instr", 3))),
        ProvNode("inner", (("instr", 1), ("instr", 2)))), 0)
    validate_program(moved)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_round_trip():
    rnd = random.Random(53)
    progs = [construct_p(), worked_example_program(),
             compile(random_target(rnd)), compile(lower(parse("1 - 2*p")))]
    for prog in progs:
        data = program_to_json(prog)
        back = program_from_json(data)
        assert back == prog


def test_json_records_emitting_node():
    data = program_to_json(construct_p())
    assert all("emitted_by" in rec for rec in data["instructions"])
    assert data["provenance"]["root"] == construct_p().root


def test_from_json_rejects_corrupt_program():
    data = program_to_json(construct_p())
    data["instructions"][0]["op"] = "bogus"
    with pytest.raises(ValueError):
        program_from_json(data)


# the worked example as written before the program derived its register
# count, its node ids and each measurement's node
OLDER_WORKED_EXAMPLE = (
    '{"registers": 2, "output": 0, "instructions": [{"op": "coin", "reg": 0, '
    '"emitted_by": 0}, {"op": "coin", "reg": 1, "emitted_by": 0}, {"op": '
    '"gate", "name": "CNOT", "regs": [0, 1], "emitted_by": 0}, {"op": '
    '"measure", "reg": 1, "keep": 0, "node": 0, "emitted_by": 0}, {"op": '
    '"gate", "name": "H", "regs": [0], "emitted_by": 0}, {"op": "gate", '
    '"name": "X", "regs": [0], "emitted_by": 0}], "provenance": {"root": 0, '
    '"nodes": [{"id": 0, "kind": "protocol", "items": [["instr", 0], '
    '["instr", 1], ["instr", 2], ["instr", 3], ["instr", 4], ["instr", '
    '5]]}]}}')


def test_older_program_json_loads_equal():
    prog = program_from_json(json.loads(OLDER_WORKED_EXAMPLE))
    assert prog == worked_example_program()
    assert prog.registers == 2


def test_json_writes_no_derived_keys():
    data = program_to_json(construct_p())
    assert "registers" not in data
    assert all("id" not in n for n in data["provenance"]["nodes"])
    assert all("node" not in rec for rec in data["instructions"])


def test_registers_is_one_past_the_highest_allocation():
    assert CircuitProgram((), 0, (ProvNode("leaf", ()),), 0).registers == 0
    prog = CircuitProgram((AllocCoin(3),), 3,
                          (ProvNode("leaf", (("instr", 0),)),), 0)
    assert prog.registers == 4
    validate_program(prog)


def test_validator_rejects_negative_register():
    prog = CircuitProgram((AllocCoin(-1),), -1,
                          (ProvNode("leaf", (("instr", 0),)),), 0)
    with pytest.raises(ValueError, match="negative register -1"):
        validate_program(prog)
