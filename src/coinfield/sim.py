"""Execute circuit programs: the exact output ratio, the analytic retry
cost, and seeded Monte Carlo runs.

One exact pass serves all three. It tracks each entangled register group as
a vector of amplitude pairs (A, B), meaning the polynomial A(p) + B(p)*w
with w = sqrt(p(1-p)). Global factors cancel in the final ratio, so states
are kept unnormalized with denominators cleared. At a rational bias p0 the
pass also reads each measurement's keep probability, which fixes the
analytic cost and drives the Monte Carlo replay of every trial's retries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import (INFINITY, FieldElem, Infinity, ONE_MINUS_P, ext_is_zero,
                    w_mul, w_norm)
from .polys import Poly, gcd_many
from .scalars import HALF_SQRT2, Scalar
from .synth import (AllocCoin, AllocConst, CircuitProgram, Gate, Measure,
                    static_counts, validate_program)

__all__ = [
    "PostselectionError", "gate_matrix", "run_symbolic",
    "CostReport", "expected_cost", "RunResult", "run_numeric",
]

_S0 = Scalar(0)
_S1 = Scalar(1)
_H = HALF_SQRT2  # exactly 1/sqrt2

_GATES = {
    "X": ((_S0, _S1),
          (_S1, _S0)),
    "H": ((_H, _H),
          (_H, -_H)),
    "CNOT": ((_S1, _S0, _S0, _S0),
             (_S0, _S1, _S0, _S0),
             (_S0, _S0, _S0, _S1),
             (_S0, _S0, _S1, _S0)),
    "B": ((_S0, _S0, _S0, _S1),
          (_S0, _H, _H, _S0),
          (_S0, _H, -_H, _S0),
          (_S1, _S0, _S0, _S0)),
}


def gate_matrix(name: str) -> tuple[tuple[Scalar, ...], ...]:
    """Exact matrix of a gate, rows of Scalars, basis |0..0> first."""
    return _GATES[name]


class PostselectionError(ValueError):
    """The kept measurement branch has amplitude identically zero."""


# -- symbolic execution ----------------------------------------------------

_PZERO = Poly.zero()
_PONE = Poly.const(1)


def _pair_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _pair_scale(c: Scalar, a):
    return (a[0] * c, a[1] * c)


class _SymGroup:
    __slots__ = ("regs", "amps")

    def __init__(self, regs, amps):
        self.regs = regs      # tuple of register ids, leftmost = high bit
        self.amps = amps      # list of (Poly, Poly), length 2**len(regs)


class _SymState:
    """Register groups with exact amplitude pairs; measurements postselect."""

    __slots__ = ("group_of",)

    def __init__(self):
        self.group_of: dict[int, _SymGroup] = {}

    def alloc_coin(self, reg: int) -> None:
        # coin sqrt(p)|0> + sqrt(1-p)|1>, cleared to w|0> + (1-p)|1>
        amps = [(_PZERO, _PONE), (ONE_MINUS_P, _PZERO)]
        self.group_of[reg] = _SymGroup((reg,), amps)

    def alloc_const(self, reg: int, value: Scalar) -> None:
        amps = [(Poly.const(value), _PZERO), (_PONE, _PZERO)]
        self.group_of[reg] = _SymGroup((reg,), amps)

    def _merge(self, g1: _SymGroup, g2: _SymGroup) -> _SymGroup:
        amps = [w_mul(a, b) for a in g1.amps for b in g2.amps]
        merged = _SymGroup(g1.regs + g2.regs, amps)
        for r in merged.regs:
            self.group_of[r] = merged
        return merged

    def apply_gate(self, name: str, regs: tuple[int, ...]) -> None:
        mat = _GATES[name]
        if len(regs) == 2:
            g1, g2 = self.group_of[regs[0]], self.group_of[regs[1]]
            grp = g1 if g1 is g2 else self._merge(g1, g2)
        else:
            grp = self.group_of[regs[0]]
        n = len(grp.regs)
        # offsets of the basis states the gate mixes, in the gate's order:
        # its first register is the high bit
        offsets = [0]
        for r in regs:
            stride = 1 << (n - 1 - grp.regs.index(r))
            offsets = [o + b for o in offsets for b in (0, stride)]
        mask = offsets[-1]
        amps = grp.amps
        for base in range(1 << n):
            if base & mask:
                continue
            old = [amps[base + o] for o in offsets]
            for o, row in zip(offsets, mat):
                acc = (_PZERO, _PZERO)
                for m, a in zip(row, old):
                    if m:
                        acc = _pair_add(acc, _pair_scale(m, a))
                amps[base + o] = acc

    def measure(self, reg: int, keep: int) -> None:
        grp = self.group_of[reg]
        n = len(grp.regs)
        pos = grp.regs.index(reg)
        s = 1 << (n - 1 - pos)
        kept = [grp.amps[i] for i in range(1 << n)
                if ((i & s) != 0) == (keep == 1)]
        if all(a.is_zero() and b.is_zero() for a, b in kept):
            raise PostselectionError(
                f"kept branch of register {reg} has amplitude identically zero")
        del self.group_of[reg]
        regs = tuple(r for r in grp.regs if r != reg)
        if not regs:
            return  # fully measured group contributes a global factor only
        grp.regs = regs
        grp.amps = kept
        self._reduce(grp)

    def _reduce(self, grp: _SymGroup) -> None:
        # divide out a shared polynomial factor once degrees get large
        degs = [p.degree for a in grp.amps for p in a if not p.is_zero()]
        if not degs or max(degs) <= 24:
            return
        polys = [p for a in grp.amps for p in a if not p.is_zero()]
        g = gcd_many(polys)
        if g.degree > 0:
            grp.amps = [(a[0] // g if not a[0].is_zero() else a[0],
                         a[1] // g if not a[1].is_zero() else a[1])
                        for a in grp.amps]

    def measure_mass(self, reg: int, keep: int, p0: Fraction
                     ) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        """Exact kept and total masses at p0 as (xk, yk, xt, yt), each mass
        meaning x + y*sqrt(p0(1-p0))."""
        grp = self.group_of[reg]
        n = len(grp.regs)
        s = 1 << (n - 1 - grp.regs.index(reg))
        wsq = Scalar(p0 * (1 - p0))
        xk = yk = xt = yt = Scalar(0)
        for i in range(1 << n):
            a, b = grp.amps[i]
            av, bv = a.eval_exact(p0), b.eval_exact(p0)
            x, y = w_mul((av, bv), (av.conj(), bv.conj()), wsq)
            xt, yt = xt + x, yt + y
            if ((i & s) != 0) == (keep == 1):
                xk, yk = xk + x, yk + y
        return xk, yk, xt, yt

    def keep_prob(self, reg: int, keep: int, p0: Fraction) -> float:
        """Probability at p0 that measuring reg gives keep, as a float;
        exactly 0.0 when the kept mass is exactly zero."""
        xk, yk, xt, yt = self.measure_mass(reg, keep, p0)
        if ext_is_zero(xk, yk, p0):
            return 0.0
        w0 = math.sqrt(float(p0) * (1 - float(p0)))
        kept, total = (x.to_complex().real + y.to_complex().real * w0
                       for x, y in ((xk, yk), (xt, yt)))
        return min(1.0, max(0.0, kept / total))


def _exact_pass(prog: CircuitProgram, p0: Fraction | None
                ) -> tuple[_SymState, dict[int, float]]:
    """Run a program exactly with every postselection kept. At a rational
    p0 also read each measurement's keep probability, by instruction index."""
    validate_program(prog)
    state = _SymState()
    probs: dict[int, float] = {}
    for idx, ins in enumerate(prog.instructions):
        if isinstance(ins, AllocCoin):
            state.alloc_coin(ins.reg)
        elif isinstance(ins, AllocConst):
            state.alloc_const(ins.reg, ins.value)
        elif isinstance(ins, Gate):
            state.apply_gate(ins.name, ins.regs)
        else:
            if p0 is not None:
                probs[idx] = state.keep_prob(ins.reg, ins.keep, p0)
                if not probs[idx]:
                    raise PostselectionError(
                        f"measurement of register {ins.reg} succeeds with "
                        f"probability 0 at p = {p0}")
            state.measure(ins.reg, ins.keep)
    return state, probs


def run_symbolic(prog: CircuitProgram) -> FieldElem | Infinity:
    """Exact output amplitude ratio of a program, assuming every
    postselection succeeds. Raises PostselectionError when a kept branch
    is identically zero."""
    state, _ = _exact_pass(prog, None)
    (a0, b0), (a1, b1) = state.group_of[prog.output].amps
    if a1.is_zero() and b1.is_zero():
        return INFINITY
    # (a0 + b0*w)/(a1 + b1*w), rationalised by the conjugate a1 - b1*w
    return FieldElem.from_abc(*w_mul((a0, b0), (a1, -b1)), w_norm((a1, b1)))


# -- expected cost ---------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """Analytic retry-weighted cost of a program at a coin bias p0.

    expected_attempts maps each provenance node to the expected number of
    times its subtree is built per run; measure_probs maps each measurement
    instruction to its per-attempt success probability."""
    p0: float
    expected_coins: float
    expected_consts: float
    success_probability: float
    expected_attempts: dict[int, float]
    measure_probs: dict[int, float]
    static: dict

    def to_json(self) -> dict:
        return {
            "p0": self.p0,
            "expected_coins": self.expected_coins,
            "expected_consts": self.expected_consts,
            "success_probability": self.success_probability,
            "expected_attempts": {str(k): v for k, v in self.expected_attempts.items()},
            "measure_probs": {str(k): v for k, v in self.measure_probs.items()},
            "static": dict(self.static),
        }


_CHILD, _COIN, _CONST, _MEASURE = range(4)


def _node_plans(prog: CircuitProgram, keep_probs: dict[int, float]):
    """What one attempt of each provenance node does, in order: run a
    child, take a coin or a constant coin, or draw against a measurement's
    keep probability. Gates cost nothing here."""
    plans = []
    for node in prog.nodes:
        plan = []
        for tag, ref in node.items:
            if tag == "child":
                plan.append((_CHILD, ref, 0.0))
                continue
            ins = prog.instructions[ref]
            if isinstance(ins, AllocCoin):
                plan.append((_COIN, ref, 0.0))
            elif isinstance(ins, AllocConst):
                plan.append((_CONST, ref, 0.0))
            elif isinstance(ins, Measure):
                plan.append((_MEASURE, ref, keep_probs[ref]))
        plans.append(tuple(plan))
    return plans


def _exact_cost(prog: CircuitProgram, p0: Fraction | float):
    """One exact pass at p0 and what it fixes: the cost report, each node's
    plan, and the final state, from which the output probability is read."""
    p0 = Fraction(p0)
    if not 0 < p0 < 1:
        raise ValueError("p0 must lie strictly between 0 and 1")
    state, probs = _exact_pass(prog, p0)
    plans = _node_plans(prog, probs)
    attempts: dict[int, float] = {}

    def walk(nid: int, upstream: float) -> None:
        own = 1.0
        for kind, _, prob in plans[nid]:
            if kind == _MEASURE:
                own *= prob
        if own == 0.0:
            raise PostselectionError(
                f"node {nid} has success probability 0 at p = {p0}")
        attempts[nid] = a = upstream / own
        for kind, ref, _ in plans[nid]:
            if kind == _CHILD:
                walk(ref, a)

    walk(prog.root, 1.0)
    coins = consts = 0.0
    for nid, plan in enumerate(plans):
        kinds = [kind for kind, _, _ in plan]
        coins += attempts[nid] * kinds.count(_COIN)
        consts += attempts[nid] * kinds.count(_CONST)
    overall = 1.0
    for pr in probs.values():
        overall *= pr
    report = CostReport(float(p0), coins, consts, overall, attempts, probs,
                        static_counts(prog))
    return report, plans, state


def expected_cost(prog: CircuitProgram, p0: Fraction | float) -> CostReport:
    """Expected coin and constant-coin consumption under the retry semantics:
    a node's expected cost is its children's total divided by the product of
    its own measurement success probabilities."""
    return _exact_cost(prog, p0)[0]


# -- Monte Carlo execution -------------------------------------------------
#
# A kept measurement always leaves the same pure state, and a miss rebuilds
# the measuring node's whole subtree from fresh coins, so every attempt of a
# measurement meets the same keep probability. run_numeric therefore takes
# those probabilities from the exact pass and replays each trial's retries
# against them.

@dataclass(frozen=True)
class RunResult:
    """Seeded Monte Carlo outcome; the integer fields depend only on the
    program, p0, the seed, the trial count and max_retries.

    node_attempts maps each provenance node to its observed attempts per
    completed trial, keyed like CostReport.expected_attempts.
    max_retries_seen is the most retries one measurement took in one trial."""
    p0: float
    trials: int
    successes: int
    empirical_p0_prob: float
    expected_coins_analytic: float
    expected_coins_empirical: float
    seed: int
    aborted: int
    completed: int
    coins_total: int
    consts_total: int
    max_retries: int
    workers: int
    node_attempts: dict[int, float]
    max_retries_seen: int

    def to_json(self) -> dict:
        """The fields as JSON values; a NaN (no trial completed) becomes None."""
        return {
            "p0": self.p0,
            "trials": self.trials,
            "successes": self.successes,
            "empirical_p0_prob": _null_nan(self.empirical_p0_prob),
            "expected_coins_analytic": self.expected_coins_analytic,
            "expected_coins_empirical": _null_nan(self.expected_coins_empirical),
            "seed": self.seed,
            "aborted": self.aborted,
            "completed": self.completed,
            "coins_total": self.coins_total,
            "consts_total": self.consts_total,
            "max_retries": self.max_retries,
            "workers": self.workers,
            "node_attempts": {str(k): _null_nan(v)
                              for k, v in self.node_attempts.items()},
            "max_retries_seen": self.max_retries_seen,
        }


def _null_nan(x: float) -> float | None:
    return None if math.isnan(x) else x


# Counter-based uniforms (SplitMix64): the draw-th number of a trial is a
# hash of (seed, trial, draw), so no generator state is seeded or shared.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """The SplitMix64 finaliser, a bijection on 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _seed_key(seed: int) -> int:
    """Hash a non-negative seed of any size, 64 bits at a time."""
    key = 0
    while True:
        key = _mix64((key + _GAMMA + (seed & _MASK64)) & _MASK64)
        seed >>= 64
        if not seed:
            return key


def _trial_key(seed_key: int, trial: int) -> int:
    return _mix64((seed_key + trial * _GAMMA) & _MASK64)


def _uniform(key: int, draw: int) -> float:
    """The draw-th uniform in [0, 1) of the stream with this key."""
    return (_mix64((key + draw * _GAMMA) & _MASK64) >> 11) * 2.0 ** -53


class _Abort(Exception):
    pass


def _replay(plans, root: int, out_prob: float, seed: int, trials: int,
            max_retries: int):
    """Replay every trial: each measurement attempt draws one uniform and a
    miss restarts the node that holds the measurement; a trial aborts once
    one measurement's retries exceed max_retries, and a completed trial
    draws once more for its outcome. Returns (successes, coins, consts,
    aborted, attempts per node over completed trials, most retries)."""
    seed_key = _seed_key(seed)
    totals = [0] * len(plans)
    successes = coins_total = consts_total = aborted = worst = 0
    key = draw = coins = consts = 0
    attempts: list[int] = []
    retries: dict[int, int] = {}

    def run_node(nid):
        nonlocal draw, coins, consts, worst
        while True:
            attempts[nid] += 1
            for kind, ref, prob in plans[nid]:
                if kind == _CHILD:
                    run_node(ref)
                elif kind == _COIN:
                    coins += 1
                elif kind == _CONST:
                    consts += 1
                else:
                    draw += 1
                    if _uniform(key, draw) < prob:
                        continue
                    tries = retries.get(ref, 0) + 1
                    if tries > max_retries:
                        raise _Abort()
                    retries[ref] = tries
                    worst = max(worst, tries)
                    break
            else:
                return

    for trial in range(trials):
        key = _trial_key(seed_key, trial)
        draw = coins = consts = 0
        attempts = [0] * len(plans)
        retries = {}
        try:
            run_node(root)
        except _Abort:
            aborted += 1
            continue
        draw += 1
        successes += _uniform(key, draw) < out_prob
        coins_total += coins
        consts_total += consts
        totals = [t + a for t, a in zip(totals, attempts)]
    return successes, coins_total, consts_total, aborted, totals, worst


def run_numeric(prog: CircuitProgram, p0: float, trials: int, seed: int = 0,
                max_retries: int = 1000, workers: int = 1) -> RunResult:
    """Monte Carlo runs of a program at coin bias p0. One exact pass gives
    the analytic cost and the keep probabilities, both at the same rational
    p0: the nearest fraction with denominator at most 10^12. Each trial then
    replays its retries against those probabilities, drawing from a
    counter-based stream keyed by (seed, trial), so results depend on
    nothing else. workers is checked and echoed for compatibility; the run
    takes place in the calling thread."""
    if not 0.0 < float(p0) < 1.0:
        raise ValueError("p0 must lie strictly between 0 and 1")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    exact_p0 = Fraction(p0).limit_denominator(10 ** 12)
    analytic, plans, state = _exact_cost(prog, exact_p0)
    out_prob = state.keep_prob(prog.output, 0, exact_p0)
    successes, coins_total, consts_total, aborted, attempts, worst = _replay(
        plans, prog.root, out_prob, seed, trials, max_retries)
    completed = trials - aborted
    return RunResult(
        p0=float(p0),
        trials=trials,
        successes=successes,
        empirical_p0_prob=successes / completed if completed else math.nan,
        expected_coins_analytic=analytic.expected_coins,
        expected_coins_empirical=coins_total / completed if completed else math.nan,
        seed=seed,
        aborted=aborted,
        completed=completed,
        coins_total=coins_total,
        consts_total=consts_total,
        max_retries=max_retries,
        workers=workers,
        node_attempts={nid: a / completed if completed else math.nan
                       for nid, a in enumerate(attempts)},
        max_retries_seen=worst,
    )
