"""Compile simulable target ratios into postselected circuit programs.

Programs use the gate set {X, H, CNOT, B} plus coin and constant-coin
allocations and computational-basis measurements. Every instruction belongs
to a provenance node; a failed postselection rebuilds that node's whole
subtree from fresh coins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .field import FieldElem, Infinity
from .scalars import SQRT2, ZERO, Scalar, from_zeta
from .zpoly import Z0, padd

__all__ = [
    "AllocCoin", "AllocConst", "Gate", "Measure", "ProvNode", "CircuitProgram",
    "coin_program", "const_program", "emit_inv", "emit_mul", "emit_add",
    "emit_neg", "construct_p", "compile", "worked_example_program",
    "validate_program", "static_counts", "program_to_json", "program_from_json",
]

GATE_ARITY = {"X": 1, "H": 1, "CNOT": 2, "B": 2}


@dataclass(frozen=True)
class AllocCoin:
    """Draw a fresh coin with the unknown bias into a new register."""
    reg: int


@dataclass(frozen=True)
class AllocConst:
    """Prepare the constant coin (a|0> + |1>)/norm in a new register."""
    value: Scalar
    reg: int


@dataclass(frozen=True)
class Gate:
    name: str
    regs: tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    """Measure reg, keep the given outcome; on the other outcome rebuild the
    provenance subtree rooted at the node that emits the measurement."""
    reg: int
    keep: int


Instr = AllocCoin | AllocConst | Gate | Measure


@dataclass(frozen=True)
class ProvNode:
    """Provenance node: a macro invocation and what it emitted, in order."""
    kind: str
    items: tuple[tuple[str, int], ...]  # ("child", node_id) | ("instr", index)


@dataclass(frozen=True)
class CircuitProgram:
    instructions: tuple[Instr, ...]
    output: int
    nodes: tuple[ProvNode, ...]  # node k is nodes[k]
    root: int

    @cached_property
    def registers(self) -> int:
        """One more than the highest register an allocation names."""
        return 1 + max((i.reg for i in self.instructions
                        if isinstance(i, (AllocCoin, AllocConst))), default=-1)

    def __str__(self) -> str:
        return json.dumps(program_to_json(self), indent=2)


# -- program construction --------------------------------------------------

def _shift_instr(ins: Instr, reg_off: int) -> Instr:
    if isinstance(ins, AllocCoin):
        return AllocCoin(ins.reg + reg_off)
    if isinstance(ins, AllocConst):
        return AllocConst(ins.value, ins.reg + reg_off)
    if isinstance(ins, Gate):
        return Gate(ins.name, tuple(r + reg_off for r in ins.regs))
    return Measure(ins.reg + reg_off, ins.keep)


def _node(kind: str, operands: list[CircuitProgram], fresh: int,
          body) -> CircuitProgram:
    """The one builder of a provenance node. The operand programs sit side
    by side as its children, then come fresh new registers and the node's
    own instructions: body(regs) returns (output, instructions), with regs
    the operands' outputs followed by the fresh registers. The first
    operand sits at offset 0, so its instructions and nodes are reused."""
    instrs: list[Instr] = []
    nodes: list[ProvNode] = []
    items: list[tuple[str, int]] = []
    regs: list[int] = []
    reg_off = 0
    for prog in operands:
        instr_off = len(instrs)
        node_off = len(nodes)
        if not nodes:
            instrs.extend(prog.instructions)
            nodes.extend(prog.nodes)
        else:
            instrs.extend(_shift_instr(i, reg_off) for i in prog.instructions)
            nodes.extend(ProvNode(node.kind, tuple(
                (tag, ref + (node_off if tag == "child" else instr_off))
                for tag, ref in node.items)) for node in prog.nodes)
        items.append(("child", prog.root + node_off))
        regs.append(prog.output + reg_off)
        reg_off += prog.registers
    output, own = body(regs + list(range(reg_off, reg_off + fresh)))
    items.extend(("instr", k) for k in range(len(instrs), len(instrs) + len(own)))
    instrs.extend(own)
    nodes.append(ProvNode(kind, tuple(items)))
    return CircuitProgram(tuple(instrs), output, tuple(nodes), len(nodes) - 1)


def coin_program() -> CircuitProgram:
    """A single fresh coin; ratio t."""
    return _node("coin", [], 1, lambda regs: (regs[0], [AllocCoin(regs[0])]))


def const_program(a: Scalar | int | Fraction) -> CircuitProgram:
    """The constant coin (a|0> + |1>)/norm; ratio a."""
    a = a if isinstance(a, Scalar) else Scalar(a)
    return _node("const", [], 1,
                 lambda regs: (regs[0], [AllocConst(a, regs[0])]))


def emit_inv(x: CircuitProgram) -> CircuitProgram:
    """X on the output register: ratio h -> 1/h."""
    return _node("inv", [x], 0,
                 lambda regs: (regs[0], [Gate("X", (regs[0],))]))


def emit_mul(x: CircuitProgram, y: CircuitProgram) -> CircuitProgram:
    """CNOT then postselect the second register on |0>: ratio h1*h2."""
    def body(regs):
        xo, yo = regs
        return xo, [Gate("CNOT", (xo, yo)), Measure(yo, 0)]
    return _node("mul", [x, y], 0, body)


def emit_add(x: CircuitProgram, y: CircuitProgram) -> CircuitProgram:
    """B then postselect the first register on |0>, leaving sqrt2/(h1+h2);
    an X and a sqrt2 constant-multiplication land exactly on h1+h2."""
    def body(regs):
        xo, yo, co = regs
        return yo, [Gate("B", (xo, yo)), Measure(xo, 0), Gate("X", (yo,)),
                    Gate("CNOT", (yo, co)), Measure(co, 0)]
    return _node("add", [x, y, const_program(SQRT2)], 0, body)


def emit_neg(x: CircuitProgram) -> CircuitProgram:
    """H, X, H on the output register, which is Z: ratio h -> -h with no
    postselection."""
    return _node("neg", [x], 0, lambda regs: (
        regs[0], [Gate(name, (regs[0],)) for name in ("H", "X", "H")]))


def construct_p() -> CircuitProgram:
    """Coin ratio t to ratio p = s/(1 + s), s = t^2 = p/(1-p): square the
    coin, invert, add 1, invert."""
    prog = emit_inv(emit_mul(coin_program(), coin_program()))   # (1-p)/p
    return emit_inv(emit_add(prog, const_program(1)))           # p


def _horner(coeffs, leaf: CircuitProgram) -> CircuitProgram:
    """Program with ratio sum_k coeffs[k]*x^k, x the ratio of leaf, for
    Scalar coefficients with a nonzero top, evaluated innermost coefficient
    first; multiplications by 1 and additions of 0 are skipped, and a
    leading coefficient -1 is compiled as the negated coefficients followed
    by emit_neg."""
    top = coeffs[-1]
    if len(coeffs) == 1:
        return const_program(top)
    if top == Scalar(-1):
        return emit_neg(_horner([-c for c in coeffs], leaf))
    acc = None if top == Scalar(1) else const_program(top)
    for c in reversed(coeffs[:-1]):
        acc = leaf if acc is None else emit_mul(acc, leaf)
        if c:
            acc = emit_add(acc, const_program(c))
    return acc


def _poly_program(g: list, n: int) -> CircuitProgram:
    """Program with ratio g(p)/n for a zpoly list g. Each Horner step
    postselects, so the basis with fewer nonzero coefficients wins: g(p)
    over construct_p, or 2^d*G(q) = sum_k g_k*2^(d-k)*(q + 1)^k over the
    two-coin protocol's q = 2p - 1, exact on integers; a tie goes to q, the
    cheaper leaf (3.45 coins at p = 3/10 against 11.0)."""
    in_q: list = []
    for k, c in enumerate(reversed(g)):
        in_q = padd(padd([Z0, *in_q], in_q), [tuple(x << k for x in c)])
    if sum(c != Z0 for c in in_q) <= sum(c != Z0 for c in g):
        g, n, leaf = in_q, n << len(g) - 1, worked_example_program()
    else:
        leaf = construct_p()
    return _horner([from_zeta(c, n) if c != Z0 else ZERO for c in g], leaf)


def _ratfn_program(num: list, den: list) -> CircuitProgram:
    """Program with ratio num/den for a canonical zpoly view (num, den)."""
    n = den[-1][0]
    parts: list[CircuitProgram] = []
    if num != [den[-1]]:
        parts.append(_poly_program(num, n))
    if len(den) > 1:
        parts.append(emit_inv(_poly_program(den, n)))
    if not parts:
        return const_program(1)
    prog = parts[0]
    for extra in parts[1:]:
        prog = emit_mul(prog, extra)
    return prog


def compile(h: FieldElem | Infinity) -> CircuitProgram:
    """Compile a target ratio into a postselected circuit program whose
    symbolic execution equals h exactly."""
    if isinstance(h, Infinity):
        return emit_inv(const_program(0))
    if h.is_zero():
        return const_program(0)
    (rn, rd), (sn, sd) = h.zeta_view(), h.zeta_view(s=True)
    r_prog = _ratfn_program(rn, rd) if rn else None
    s_prog = None
    if sn:
        coin = coin_program()
        # canonical lists are equal only when both are the constant n
        s_prog = coin if sn == sd else emit_mul(_ratfn_program(sn, sd), coin)
    if r_prog is None:
        return s_prog
    if s_prog is None:
        return r_prog
    return emit_add(r_prog, s_prog)


def worked_example_program() -> CircuitProgram:
    """The two-coin protocol ending at ratio 2p-1: CNOT both coins,
    postselect the second on |0>, then H and X on the survivor."""
    def body(regs):
        a, b = regs
        return a, [AllocCoin(a), AllocCoin(b), Gate("CNOT", (a, b)),
                   Measure(b, 0), Gate("H", (a,)), Gate("X", (a,))]
    return _node("protocol", [], 2, body)


# -- validation ------------------------------------------------------------

def _provenance(prog: CircuitProgram) -> tuple[list[int], dict[int, range]]:
    """One walk of the provenance tree: the node that emits each
    instruction, and each node's subtree as the range of instruction
    indices it covers. Raises ValueError unless the tree reaches every node
    exactly once and its depth-first order lists the instructions in
    program order."""
    nodes = prog.nodes
    if not 0 <= prog.root < len(nodes):
        raise ValueError("provenance root out of range")
    owner: list[int] = []
    span: dict[int, range] = {}

    def walk(nid: int) -> None:
        if nid in span:
            raise ValueError(f"node {nid} reached twice")
        span[nid] = range(0)  # entered; its span is set once the walk returns
        lo = len(owner)
        for tag, ref in nodes[nid].items:
            if tag == "child":
                if not 0 <= ref < len(nodes):
                    raise ValueError(f"child node {ref} out of range")
                walk(ref)
            elif tag == "instr":
                if ref != len(owner):
                    raise ValueError(
                        "provenance must cover instructions in list order")
                owner.append(nid)
            else:
                raise ValueError(f"unknown provenance item {tag!r}")
        span[nid] = range(lo, len(owner))

    walk(prog.root)
    if len(owner) != len(prog.instructions):
        raise ValueError("provenance must cover instructions in list order")
    if len(span) != len(nodes):
        raise ValueError("provenance must cover every node exactly once")
    return owner, span


def validate_program(prog: CircuitProgram) -> None:
    """Structural checks: allocation and retirement discipline, gate arities,
    provenance consistency, and rebuild-subtree soundness. Raises ValueError."""
    owner, span = _provenance(prog)
    alloc_at: dict[int, int] = {}
    live: set[int] = set()
    retired: set[int] = set()
    group: dict[int, set[int]] = {}
    for idx, ins in enumerate(prog.instructions):
        if isinstance(ins, (AllocCoin, AllocConst)):
            if ins.reg in live or ins.reg in retired:
                raise ValueError(f"register {ins.reg} allocated twice")
            if ins.reg < 0:
                raise ValueError(f"negative register {ins.reg}")
            live.add(ins.reg)
            alloc_at[ins.reg] = idx
            group[ins.reg] = {ins.reg}
        elif isinstance(ins, Gate):
            if ins.name not in GATE_ARITY:
                raise ValueError(f"unknown gate {ins.name}")
            if len(ins.regs) != GATE_ARITY[ins.name]:
                raise ValueError(f"gate {ins.name} takes {GATE_ARITY[ins.name]} registers")
            if len(set(ins.regs)) != len(ins.regs):
                raise ValueError("gate registers must be distinct")
            for r in ins.regs:
                if r not in live:
                    raise ValueError(f"gate on dead register {r}")
            if len(ins.regs) == 2:
                merged = group[ins.regs[0]] | group[ins.regs[1]]
                for r in merged:
                    group[r] = merged
        else:
            if ins.reg not in live:
                raise ValueError(f"measurement of dead register {ins.reg}")
            if ins.keep not in (0, 1):
                raise ValueError("measurement keeps outcome 0 or 1")
            # a miss restarts the node that emits the measurement; every
            # register the measured one may be entangled with must be rebuilt
            # too, so its allocation must sit inside that node's subtree
            for r in group[ins.reg]:
                if r in live and alloc_at[r] not in span[owner[idx]]:
                    raise ValueError(f"rebuild subtree of node {owner[idx]} "
                                     f"misses register {r}")
            live.discard(ins.reg)
            retired.add(ins.reg)
    if live != {prog.output}:
        raise ValueError(f"program must end with exactly the output register live, got {sorted(live)}")


def static_counts(prog: CircuitProgram) -> dict:
    """Static per-attempt instruction tallies (no retry weighting)."""
    coins = sum(1 for i in prog.instructions if isinstance(i, AllocCoin))
    consts = sum(1 for i in prog.instructions if isinstance(i, AllocConst))
    gates = sum(1 for i in prog.instructions if isinstance(i, Gate))
    measures = sum(1 for i in prog.instructions if isinstance(i, Measure))
    return {"coins": coins, "consts": consts, "gates": gates,
            "measures": measures, "registers": prog.registers}


# -- serialization ---------------------------------------------------------

def program_to_json(prog: CircuitProgram) -> dict:
    instrs = []
    owner = _provenance(prog)[0]
    for idx, ins in enumerate(prog.instructions):
        if isinstance(ins, AllocCoin):
            rec = {"op": "coin", "reg": ins.reg}
        elif isinstance(ins, AllocConst):
            rec = {"op": "const", "value": ins.value.to_json(), "reg": ins.reg}
        elif isinstance(ins, Gate):
            rec = {"op": "gate", "name": ins.name, "regs": list(ins.regs)}
        else:
            rec = {"op": "measure", "reg": ins.reg, "keep": ins.keep}
        rec["emitted_by"] = owner[idx]
        instrs.append(rec)
    return {
        "output": prog.output,
        "instructions": instrs,
        "provenance": {
            "root": prog.root,
            "nodes": [{"kind": n.kind,
                       "items": [[tag, ref] for tag, ref in n.items]}
                      for n in prog.nodes],
        },
    }


def _int(x) -> int:
    """x itself if it is a JSON integer; a boolean is not one."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r:.40}")
    return x


def _str(x) -> str:
    if type(x) is not str:
        raise ValueError(f"expected a string, got {x!r:.40}")
    return x


def _dropped(rec: dict, key: str) -> None:
    """Older files carry the derived registers, node ids and measurement
    nodes: such a value must still be an integer, and is not read."""
    if key in rec:
        _int(rec[key])


def program_from_json(data: dict) -> CircuitProgram:
    try:
        _dropped(data, "registers")
        instrs: list[Instr] = []
        for rec in data["instructions"]:
            op = _str(rec["op"])
            if op == "coin":
                instrs.append(AllocCoin(_int(rec["reg"])))
            elif op == "const":
                instrs.append(AllocConst(Scalar.from_json(rec["value"]),
                                         _int(rec["reg"])))
            elif op == "gate":
                instrs.append(Gate(_str(rec["name"]),
                                   tuple(_int(r) for r in rec["regs"])))
            elif op == "measure":
                _dropped(rec, "node")
                instrs.append(Measure(_int(rec["reg"]), _int(rec["keep"])))
            else:
                raise ValueError(f"unknown instruction op {op!r}")
        for n in data["provenance"]["nodes"]:
            _dropped(n, "id")
        nodes = tuple(ProvNode(_str(n["kind"]),
                               tuple((_str(tag), _int(ref))
                                     for tag, ref in n["items"]))
                      for n in data["provenance"]["nodes"])
        prog = CircuitProgram(tuple(instrs), _int(data["output"]), nodes,
                              _int(data["provenance"]["root"]))
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed program record: {err}") from err
    validate_program(prog)
    return prog
