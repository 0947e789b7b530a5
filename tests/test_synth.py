"""Circuit program construction, validation, and serialization."""

import random
from fractions import Fraction

import pytest

from coinfield.field import FieldElem, INFINITY
from coinfield.lang import lower, parse
from coinfield.polys import Poly, RatFn
from coinfield.scalars import SQRT2, Scalar
from coinfield.synth import (AllocCoin, AllocConst, CircuitProgram, Gate,
                             Measure, ProvNode, coin_program, compile,
                             const_program, construct_p, emit_add, emit_inv,
                             emit_mul, program_from_json, program_to_json,
                             static_counts, validate_program,
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
        AllocCoin(0), AllocCoin(1), Gate("CNOT", (0, 1)), Measure(1, 0, 0),
        Gate("H", (0,)), Gate("X", (0,)))
    assert prog.output == 0


def test_construct_p_counts():
    # mul then two adds and an inversion: hand count of the macro expansion
    prog = construct_p()
    validate_program(prog)
    counts = static_counts(prog)
    assert counts["coins"] == 2
    assert counts["consts"] == 5
    assert counts["measures"] == 6
    assert counts["registers"] == 7


def test_compile_p_equals_construct_p():
    assert compile(lower(parse("p"))) == construct_p()


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def test_provenance_ids_are_dense():
    prog = construct_p()
    for k, node in enumerate(prog.nodes):
        assert node.id == k


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


def test_measures_name_their_node():
    prog = construct_p()
    for idx, ins in enumerate(prog.instructions):
        if isinstance(ins, Measure):
            node = prog.nodes[ins.node]
            assert ("instr", idx) in node.items


# ---------------------------------------------------------------------------
# Validator rejections
# ---------------------------------------------------------------------------

def test_validator_rejects_double_alloc():
    prog = CircuitProgram(
        (AllocCoin(0), AllocCoin(0)), 1, 0,
        (ProvNode(0, "leaf", (("instr", 0), ("instr", 1))),), 0)
    with pytest.raises(ValueError):
        validate_program(prog)


def test_validator_rejects_gate_on_dead_register():
    prog = CircuitProgram(
        (AllocCoin(0), AllocCoin(1), Measure(1, 0, 0), Gate("X", (1,))), 2, 0,
        (ProvNode(0, "leaf", tuple(("instr", k) for k in range(4))),), 0)
    with pytest.raises(ValueError):
        validate_program(prog)


def test_validator_rejects_unknown_gate_and_bad_arity():
    bad1 = CircuitProgram(
        (AllocCoin(0), Gate("Z", (0,))), 1, 0,
        (ProvNode(0, "leaf", (("instr", 0), ("instr", 1))),), 0)
    with pytest.raises(ValueError):
        validate_program(bad1)
    bad2 = CircuitProgram(
        (AllocCoin(0), Gate("CNOT", (0,))), 1, 0,
        (ProvNode(0, "leaf", (("instr", 0), ("instr", 1))),), 0)
    with pytest.raises(ValueError):
        validate_program(bad2)


def test_validator_rejects_leftover_live_register():
    prog = CircuitProgram(
        (AllocCoin(0), AllocCoin(1)), 2, 0,
        (ProvNode(0, "leaf", (("instr", 0), ("instr", 1))),), 0)
    with pytest.raises(ValueError):
        validate_program(prog)


def test_validator_rejects_measure_outside_rebuild_scope():
    # instruction order matches the provenance walk, but the measured register
    # is entangled with a coin allocated outside the named rebuild node
    prog = CircuitProgram(
        (AllocCoin(0),
         AllocCoin(1),
         Gate("CNOT", (0, 1)),
         Measure(1, 0, 1),
         Measure(0, 0, 0),
         AllocCoin(2)),
        3, 2,
        (ProvNode(0, "root", (("instr", 0), ("child", 1), ("instr", 4), ("instr", 5))),
         ProvNode(1, "inner", (("instr", 1), ("instr", 2), ("instr", 3)))),
        0)
    with pytest.raises(ValueError, match="entangl|scope|subtree|outside"):
        validate_program(prog)


def ancestor_measure_program():
    # the measurement sits in node 1 but names the root node 0
    instrs = (AllocCoin(0), AllocCoin(1), Gate("CNOT", (0, 1)), Measure(1, 0, 0))
    nodes = (ProvNode(0, "root", (("instr", 0), ("child", 1))),
             ProvNode(1, "inner", (("instr", 1), ("instr", 2), ("instr", 3))))
    return CircuitProgram(instrs, 2, 0, nodes, 0)


def test_validator_rejects_measure_naming_another_node():
    with pytest.raises(ValueError, match="emitting node 1"):
        validate_program(ancestor_measure_program())
    # the same circuit with the measurement in the root node is sound
    prog = ancestor_measure_program()
    moved = CircuitProgram(prog.instructions, 2, 0, (
        ProvNode(0, "root", (("instr", 0), ("child", 1), ("instr", 3))),
        ProvNode(1, "inner", (("instr", 1), ("instr", 2)))), 0)
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
