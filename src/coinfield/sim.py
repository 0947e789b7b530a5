"""Execute circuit programs: the exact output ratio, the analytic retry
cost, and seeded Monte Carlo runs.

One exact pass serves all three. It tracks each entangled register group as
a vector of amplitude pairs (A, B), meaning A + B*w with w = sqrt(p(1-p)).
A and B are dense polynomials over Z[z], z = exp(i*pi/4), each coefficient
an int 4-tuple (c0, c1, c2, c3) for c0 + c1*z + c2*z^2 + c3*z^3, z^4 = -1;
the integer kernel zpoly does all their arithmetic. Global factors cancel
in the final ratio and in every keep probability, so states are kept
unnormalised and integral: H and B act as sqrt2 times the gate, a constant
coin is prepared times its denominator, and each measurement divides the
group by its integer content, and by zpoly.gcd past degree 24.
run_symbolic builds its ratio (A + B*w)/C by zpoly's part formulas and
takes the one canonical form of integer parts, polys.zeta_canonical, so
it turns into Polys only at the end.

The pass runs in one of two modes on the same code. run_symbolic works on
polynomials in p with w^2 = p - p^2. At a rational bias p0 = n/d, the pass
behind expected_cost and run_numeric works on values: the coin is scaled by
d, so 1 - p becomes d - n and w becomes W = sqrt(n(d - n)) with the integer
W^2 = n(d - n), and every polynomial has degree 0. There the pass reads
each measurement's keep probability. One plan per provenance node folds
those probabilities with the node's coins and constant coins into what one
attempt of it does; the analytic cost walks the plans, and the Monte Carlo
replay runs every trial's retries on them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

from .field import INFINITY, FieldElem, Infinity
from .report import json_value
from .scalars import HALF_SQRT2, SQRT2, Scalar, to_zeta
from .synth import (AllocCoin, AllocConst, CircuitProgram, Gate, Measure,
                    static_counts, validate_program)
from .zpoly import (Z0 as _Z0, Z1 as _Z1, ZNEG1 as _ZNEG1,
                    content as _pcontent, exquo as _exquo, gcd as _gcd,
                    padd as _padd, pair_mul as _pair_mul, pscale as _pscale,
                    parts_inverse as _parts_inverse, parts_mul as _parts_mul,
                    zconj as _zconj, zmul as _zmul)

__all__ = [
    "PostselectionError", "gate_matrix", "run_symbolic",
    "CostReport", "expected_cost", "RunResult", "rational_p0", "run_numeric",
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


def _int_gate(mat):
    """A gate as rows of (column, entry) over its nonzero entries, each a
    Z[z] tuple: the gate times sqrt2 when an entry has a sqrt2 part."""
    scale = SQRT2 if any(m.b or m.d for row in mat for m in row) else _S1
    rows = []
    for row in mat:
        out = []
        for j, m in enumerate(row):
            c, den = to_zeta(m * scale)
            assert den == 1, "gate entries must scale into Z[z]"
            if c != _Z0:
                out.append((j, c))
        rows.append(tuple(out))
    return tuple(rows)


_INT_GATES = {name: _int_gate(mat) for name, mat in _GATES.items()}

# fixed-point bits for the float keep probability, and sqrt2 to that many
_FIX = 128
_SQRT2_FIX = math.isqrt(2 << (2 * _FIX))

# a group of n entangled registers holds 2**n amplitude pairs; compiled
# programs entangle at most two registers at a time
MAX_GROUP_WIDTH = 12


# -- the exact pass ----------------------------------------------------------

class _SymGroup:
    __slots__ = ("regs", "amps")

    def __init__(self, regs, amps):
        self.regs = regs      # tuple of register ids, leftmost = high bit
        self.amps = amps      # list of (A, B) polynomial pairs, 2**len(regs)


class _SymState:
    """Register groups with exact amplitude pairs; measurements postselect.
    With p0 = None the amplitudes are polynomials in p; at a rational p0 they
    are their values there, each group's up to one factor that cancels."""

    __slots__ = ("group_of", "p0", "wsq", "coin", "w_fix", "w_root")

    def __init__(self, p0: Fraction | None):
        self.group_of: dict[int, _SymGroup] = {}
        self.p0 = p0
        if p0 is None:
            # coin sqrt(p)|0> + sqrt(1-p)|1>, cleared to w|0> + (1-p)|1>
            self.wsq = [_Z0, _Z1, _ZNEG1]
            self.coin = (([], [_Z1]), ([_Z1, _ZNEG1], []))
        else:
            n, d = p0.numerator, p0.denominator
            self.wsq = [(n * (d - n), 0, 0, 0)]
            self.coin = (([], [_Z1]), ([(d - n, 0, 0, 0)], []))
            m = n * (d - n)
            self.w_fix = math.isqrt(m << (2 * _FIX))
            # W = sqrt(m) as (r0, r1), r0 + r1*sqrt2, for m = k^2 or 2k^2
            k, j = math.isqrt(m), math.isqrt(2 * m)
            self.w_root = ((k, 0) if k * k == m else
                           (0, j // 2) if j * j == 2 * m else None)

    def alloc_coin(self, reg: int) -> None:
        self.group_of[reg] = _SymGroup((reg,), list(self.coin))

    def alloc_const(self, reg: int, value: Scalar) -> None:
        # (value|0> + |1>) times the denominator of value
        c, den = to_zeta(value)
        amps = [([c] if c != _Z0 else [], []), ([(den, 0, 0, 0)], [])]
        self.group_of[reg] = _SymGroup((reg,), amps)

    def _merge(self, g1: _SymGroup, g2: _SymGroup) -> _SymGroup:
        if len(g1.regs) + len(g2.regs) > MAX_GROUP_WIDTH:
            raise ValueError(f"a gate entangles more than {MAX_GROUP_WIDTH} "
                             "registers in one group")
        wsq = self.wsq
        amps = [_pair_mul(a, b, wsq) for a in g1.amps for b in g2.amps]
        merged = _SymGroup(g1.regs + g2.regs, amps)
        for r in merged.regs:
            self.group_of[r] = merged
        return merged

    def apply_gate(self, name: str, regs: tuple[int, ...]) -> None:
        mat = _INT_GATES[name]
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
                acc_a = acc_b = []
                for j, m in row:
                    a, b = old[j]
                    if m != _Z1:
                        a, b = _pscale(m, a), _pscale(m, b)
                    acc_a, acc_b = _padd(acc_a, a), _padd(acc_b, b)
                amps[base + o] = (acc_a, acc_b)

    def _kept(self, grp: _SymGroup, reg: int, keep: int) -> list[bool]:
        s = 1 << (len(grp.regs) - 1 - grp.regs.index(reg))
        return [((i & s) != 0) == (keep == 1) for i in range(len(grp.amps))]

    def measure(self, reg: int, keep: int) -> None:
        grp = self.group_of[reg]
        kept = [a for a, k in zip(grp.amps, self._kept(grp, reg, keep)) if k]
        if not any(a or b for a, b in kept):
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
        amps = grp.amps
        # divide out a shared polynomial factor once degrees get large; at a
        # point every polynomial is a constant and this never runs
        if max(len(f) for pair in amps for f in pair) > 25:
            flat = [f for pair in amps for f in pair]
            g = _gcd(flat)
            if len(g) > 1:
                flat = _exquo(flat, g)[0]
                amps = list(zip(flat[0::2], flat[1::2]))
        g = _pcontent(c for pair in amps for f in pair for c in f)
        if g > 1:
            amps = [tuple([tuple(x // g for x in c) for c in f] for f in pair)
                    for pair in amps]
        grp.amps = amps

    def _mass(self, a, b):
        """|a + b*W|^2 = (a*conj(a) + b*conj(b)*W^2) + (a*conj(b) + conj(a)*b)*W
        for constants a and b, as (x0, x1, y0, y1): both parts are real,
        x0 + x1*sqrt2 and y0 + y1*sqrt2."""
        a = a[0] if a else _Z0
        b = b[0] if b else _Z0
        ca, cb = _zconj(a), _zconj(b)
        x, y = _zmul(a, ca), _zmul(b, cb)
        u, v = _zmul(a, cb), _zmul(ca, b)
        wsq = self.wsq[0][0]
        return x[0] + y[0] * wsq, x[1] + y[1] * wsq, u[0] + v[0], u[1] + v[1]

    def keep_prob(self, reg: int, keep: int) -> tuple[float, int]:
        """Probability at p0 that measuring reg gives keep, as a frexp
        mantissa m and a binary exponent e, m * 2**e: kept/total rounded to
        a float wherever that is normal, and (0.0, 0) when the kept mass is
        exactly zero."""
        grp = self.group_of[reg]
        masses = [self._mass(a, b) for a, b in grp.amps]
        kept = [sum(col) for col in zip(*(m for m, k in zip(
            masses, self._kept(grp, reg, keep)) if k))]
        total = [sum(col) for col in zip(*masses)]
        # the kept mass is x + y*W with W = d*sqrt(p0(1 - p0))
        if _ext_is_zero(kept, self.w_root):
            return 0.0, 0
        # each mass times 2^_FIX, as an integer within a few units of it
        kept, total = ((x0 << _FIX) + x1 * _SQRT2_FIX + y0 * self.w_fix
                       + ((y1 * _SQRT2_FIX * self.w_fix) >> _FIX)
                       for x0, x1, y0, y1 in (kept, total))
        kept = min(kept, total)
        if kept <= 0:
            return 0.0, 0
        # scaled into [1/2, 2), the quotient cannot underflow, and the
        # scaling by a power of two leaves its rounding as it was
        shift = total.bit_length() - kept.bit_length()
        m, e = math.frexp((kept << shift) / total)
        return m, e - shift


def _ext_is_zero(mass, root) -> bool:
    """Is x + y*W zero, x = x0 + x1*sqrt2 and y = y0 + y1*sqrt2 from mass,
    and W = r0 + r1*sqrt2 from root, or irrational over Q(sqrt2) if None?"""
    x0, x1, y0, y1 = mass
    r0, r1 = root or (0, 0)
    return not (x0 + y0 * r0 + 2 * y1 * r1 or x1 + y0 * r1 + y1 * r0
                or root is None and (y0 or y1))


def _exact_pass(prog: CircuitProgram, p0: Fraction | None
                ) -> tuple[_SymState, dict[int, tuple[float, int]]]:
    """Run a program exactly with every postselection kept: on polynomials
    in p, or at a rational p0 on values, reading each measurement's keep
    probability as keep_prob gives it, by instruction index."""
    validate_program(prog)
    state = _SymState(p0)
    probs: dict[int, tuple[float, int]] = {}
    for idx, ins in enumerate(prog.instructions):
        if isinstance(ins, AllocCoin):
            state.alloc_coin(ins.reg)
        elif isinstance(ins, AllocConst):
            state.alloc_const(ins.reg, ins.value)
        elif isinstance(ins, Gate):
            state.apply_gate(ins.name, ins.regs)
        else:
            if p0 is not None:
                probs[idx] = state.keep_prob(ins.reg, ins.keep)
                if not probs[idx][0]:
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
    if not (a1 or b1):
        return INFINITY
    # the parts of (a0 + b0*w)/(a1 + b1*w), by the integer part formulas
    return FieldElem.from_zeta(
        *_parts_mul((a0, b0, [_Z1]), _parts_inverse((a1, b1, [_Z1]))))


# -- expected cost ---------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """Analytic retry-weighted cost of a program at a coin bias p0.

    expected_attempts maps each provenance node to the expected number of
    times its subtree is built per run; measure_probs maps each measurement
    instruction to its per-attempt success probability. A cost, attempt
    count or success probability outside the normal float range is a
    Decimal of 17 significant digits, which to_json writes as a string."""
    p0: float
    expected_coins: float | Decimal
    expected_consts: float | Decimal
    success_probability: float | Decimal
    expected_attempts: dict[int, float | Decimal]
    measure_probs: dict[int, float | Decimal]
    static: dict

    to_json = json_value


# 17 significant digits, as many as a float's shortest repr can need
_DECIMAL = Context(prec=17)
_FLOAT_MAX = Decimal(sys.float_info.max)


def _number(m: float, e: int) -> float | Decimal:
    """m * 2**e: a float, exactly, inside the normal float range (frexp
    exponents -1021 to 1024), else a Decimal."""
    if -1021 <= e <= 1024:
        return math.ldexp(m, e)
    return _DECIMAL.multiply(Decimal(m), _DECIMAL.power(2, e))


def _product(numbers) -> tuple[float, int]:
    """The product of the numbers m * 2**e given as (m, e), in order, as
    (m, e) too: it rounds as the float product does wherever that is one."""
    m, e = 0.5, 1
    for pm, pe in numbers:
        m, k = math.frexp(m * pm)
        e += k + pe
    return m, e


def _keep_bound(m: float, e: int) -> int:
    """ceil(m * 2**(e + 53)) for e <= 1, exactly: m * 2**54 is an integer."""
    return -(-int(m * 2.0 ** 54) >> (1 - e))


def _weighted_sum(terms) -> float | Decimal:
    """The sum of a*n over the (a, n) pairs, added in float arithmetic in
    the order given while the terms and the sum stay floats, else as a
    Decimal that is a float again whenever it fits."""
    if all(type(a) is float for a, _ in terms):
        total = 0.0
        for a, n in terms:
            total += a * n
        if total != math.inf:
            return total
    total = Decimal(0)
    for a, n in terms:
        total = _DECIMAL.add(total, _DECIMAL.multiply(Decimal(a), n))
    return float(total) if total <= _FLOAT_MAX else total


def _node_plans(prog: CircuitProgram,
                keep_probs: dict[int, tuple[float, int]]):
    """What one attempt of each provenance node does, folded: its steps in
    order, each the coins and constant coins taken since the step before,
    then either a child to run (ref the child's id, bound None) or a
    measurement to draw against (ref its instruction index, bound from its
    keep probability m * 2**e); then the coins and consts after the last
    step. Gates cost nothing here. A measurement keeps when its 53-bit
    draw x is below the integer bound = ceil(m * 2**(e + 53)), and for an
    integer x, x < ceil(b) exactly when x < b, so this is the test
    _uniform(...) < m * 2**e."""
    plans = []
    for node in prog.nodes:
        steps = []
        coins = consts = 0
        for tag, ref in node.items:
            if tag == "child":
                steps.append((coins, consts, ref, None))
            else:
                ins = prog.instructions[ref]
                if isinstance(ins, AllocCoin):
                    coins += 1
                elif isinstance(ins, AllocConst):
                    consts += 1
                if not isinstance(ins, Measure):
                    continue
                steps.append((coins, consts, ref,
                              _keep_bound(*keep_probs[ref])))
            coins = consts = 0
        plans.append((tuple(steps), coins, consts))
    return plans


def _exact_cost(prog: CircuitProgram, p0: Fraction | float):
    """One exact pass at p0 and what it fixes: the cost report, each node's
    plan, and the final state, from which the output probability is read."""
    p0 = Fraction(p0)
    if not 0 < p0 < 1:
        raise ValueError("p0 must lie strictly between 0 and 1")
    state, probs = _exact_pass(prog, p0)
    plans = _node_plans(prog, probs)
    attempts: list[float | Decimal] = [0.0] * len(plans)

    # attempts and keep probabilities are frexp mantissas and binary
    # exponents, so nothing overflows or underflows; inside the float range
    # each product and quotient rounds exactly as a float one would
    def walk(nid: int, m: float, e: int) -> None:
        steps = plans[nid][0]
        own, j = _product(probs[ref] for *_, ref, bound in steps
                          if bound is not None)
        m, k = math.frexp(m / own)
        e += k - j
        attempts[nid] = _number(m, e)
        for _, _, ref, bound in steps:
            if bound is None:
                walk(ref, m, e)

    walk(prog.root, 0.5, 1)
    coins = _weighted_sum([(attempts[nid], tail + sum(s[0] for s in steps))
                           for nid, (steps, tail, _) in enumerate(plans)])
    consts = _weighted_sum([(attempts[nid], tail + sum(s[1] for s in steps))
                            for nid, (steps, _, tail) in enumerate(plans)])
    report = CostReport(float(p0), coins, consts,
                        _number(*_product(probs.values())),
                        dict(enumerate(attempts)),
                        {idx: _number(m, e) for idx, (m, e) in probs.items()},
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

@dataclass(frozen=True, slots=True)
class RunResult:
    """Seeded Monte Carlo outcome; the integer fields depend only on the
    program, p0, the seed, the trial count and max_retries.

    node_attempts maps each provenance node to its observed attempts per
    completed trial, and expected_attempts to its analytic attempts at the
    same rational p0, as CostReport.expected_attempts gives them.
    max_retries_seen is the most retries one measurement took within one
    entry of its node. coins_total and consts_total count completed trials;
    aborted_coins counts the coins the aborted trials spent, and
    aborts_per_measure maps each measurement at which trials aborted, keyed
    like CostReport.measure_probs, to their number."""
    p0: float
    trials: int
    successes: int
    empirical_p0_prob: float
    expected_coins_analytic: float | Decimal
    expected_coins_empirical: float
    seed: int
    aborted: int
    completed: int
    coins_total: int
    consts_total: int
    max_retries: int
    node_attempts: dict[int, float]
    expected_attempts: dict[int, float | Decimal]
    max_retries_seen: int
    aborted_coins: int
    aborts_per_measure: dict[int, int]

    to_json = json_value


# Counter-based uniforms (SplitMix64): the draw-th number of a trial is a
# hash of (seed, trial, draw), so no generator state is seeded or shared.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """The SplitMix64 finaliser, a bijection on 64-bit words."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
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


def _replay(plans, root: int, out_bound: int, seed: int, trials: int,
            max_retries: int):
    """Replay every trial: each measurement attempt draws one uniform and a
    miss restarts the node that holds the measurement; a trial aborts once
    one measurement misses more than max_retries times since its node was
    last entered, and a completed trial draws once more for its outcome.
    Returns (successes, coins and consts of completed trials, aborted,
    coins of aborted trials, aborts at each measurement where some trial
    aborted, attempts per node over completed trials, most misses).

    One loop walks the plans with an explicit stack of the nodes entered,
    and every draw is _uniform's hash written out on a running counter:
    ctr += _GAMMA keeps ctr = key + draw * _GAMMA (mod 2**64), so the draws
    are exactly _trial_key's and _uniform's, and each is compared as a
    53-bit integer with the plan's integer bound. Attempts go straight into
    the run's totals; an aborted trial restores the copy taken at its
    start."""
    mask, gamma, mix1, mix2 = _MASK64, _GAMMA, _MIX1, _MIX2
    totals = [0] * len(plans)
    successes = coins_total = consts_total = aborted = aborted_coins = 0
    worst = 0
    aborts_at: dict[int, int] = {}
    stack: list = []
    trial_ctr = _seed_key(seed)
    for _ in range(trials):
        z = trial_ctr & mask
        trial_ctr += gamma
        z = ((z ^ (z >> 30)) * mix1) & mask
        z = ((z ^ (z >> 27)) * mix2) & mask
        ctr = z ^ (z >> 31)
        coins = consts = 0
        before = totals[:]
        nid = root
        steps, tail_coins, tail_consts = plans[root]
        n = len(steps)
        i = 0
        # misses since this entry of the node, made on its first miss: a
        # restart of an enclosing node enters the node afresh, a miss of its
        # own repeats it
        misses = None
        totals[root] += 1
        while True:
            if i == n:
                coins += tail_coins
                consts += tail_consts
                if not stack:
                    break
                nid, i, misses = stack.pop()
                steps, tail_coins, tail_consts = plans[nid]
                n = len(steps)
                continue
            step_coins, step_consts, ref, bound = steps[i]
            i += 1
            coins += step_coins
            consts += step_consts
            if bound is None:
                stack.append((nid, i, misses))
                nid = ref
                steps, tail_coins, tail_consts = plans[ref]
                n = len(steps)
                i = 0
                misses = None
                totals[ref] += 1
                continue
            ctr += gamma
            z = ctr & mask
            z = ((z ^ (z >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            if (z ^ (z >> 31)) >> 11 < bound:
                continue
            if misses is None:
                misses = {}
            tries = misses.get(ref, 0) + 1
            if tries > max_retries:
                i = -1
                break
            misses[ref] = tries
            if tries > worst:
                worst = tries
            i = 0
            totals[nid] += 1
        if i < 0:
            stack.clear()
            totals = before
            aborted += 1
            aborted_coins += coins
            aborts_at[ref] = aborts_at.get(ref, 0) + 1
            continue
        ctr += gamma
        z = ctr & mask
        z = ((z ^ (z >> 30)) * mix1) & mask
        z = ((z ^ (z >> 27)) * mix2) & mask
        successes += (z ^ (z >> 31)) >> 11 < out_bound
        coins_total += coins
        consts_total += consts
    return (successes, coins_total, consts_total, aborted, aborted_coins,
            dict(sorted(aborts_at.items())), totals, worst)


# the most coins and constant coins a run may expect to replay in all
MAX_REPLAY_COINS = 10 ** 9


def rational_p0(p0: float) -> Fraction:
    """The rational p0 at which run_numeric prices and replays a float p0:
    the nearest fraction with denominator at most 10^12."""
    return Fraction(p0).limit_denominator(10 ** 12)


def run_numeric(prog: CircuitProgram, p0: float, trials: int, seed: int = 0,
                max_retries: int = 1000, workers: int = 1) -> RunResult:
    """Monte Carlo runs of a program at coin bias p0. One exact pass gives
    the analytic cost and the keep probabilities, both at the same rational
    p0: the nearest fraction with denominator at most 10^12. A run whose
    trials are expected to take more than MAX_REPLAY_COINS coins and
    constant coins in all is refused. Each trial then replays its retries
    against those probabilities, drawing from a counter-based stream keyed
    by (seed, trial), so results depend on nothing else. workers must be at
    least 1 and changes nothing; the keyword stays for callers that pass it
    (the benchmark's Monte Carlo workload passes workers=1), and the run
    takes place in the calling thread."""
    if not 0.0 < float(p0) < 1.0:
        raise ValueError("p0 must lie strictly between 0 and 1")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    analytic, plans, state = _exact_cost(prog, rational_p0(p0))
    coins, consts = analytic.expected_coins, analytic.expected_consts
    if trials * (Decimal(coins) + Decimal(consts)) > MAX_REPLAY_COINS:
        raise ValueError(
            f"{trials} trials at {coins:.6g} expected coins and {consts:.6g} "
            f"constant coins each exceed the replay bound of "
            f"{MAX_REPLAY_COINS} in all")
    out_bound = _keep_bound(*state.keep_prob(prog.output, 0))
    (successes, coins_total, consts_total, aborted, aborted_coins, aborts_at,
     attempts, worst) = _replay(plans, prog.root, out_bound, seed, trials,
                                max_retries)
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
        node_attempts={nid: a / completed if completed else math.nan
                       for nid, a in enumerate(attempts)},
        expected_attempts=analytic.expected_attempts,
        max_retries_seen=worst,
        aborted_coins=aborted_coins,
        aborts_per_measure=aborts_at,
    )
