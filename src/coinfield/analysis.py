"""Decision procedures: simulability of target ratios, square-root witnesses
for probability functions, and the CC/QC/QQ classifier with certificates.

Probability functions enter either as a single rational function or as a
piecewise-rational function on a rational partition of [0,1]. Certificates
(poly-bound witness n, SPB zero/one lists with order, k, delta, c) are
designed to be re-checked by independent code paths.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .field import (FE_ZERO, FieldElem, INFINITY, Infinity,
                    fe_mod_squared, format_element, sqrt_in_scalar_field,
                    vanishing_order)
from .lang import MAX_DEGREE, Expr, NotInFieldError, _lower_sqrt, lower, parse
from .polys import (AlgebraicPoint, ONE_RF, Poly, RatFn, _count_open, _sign_at,
                    certify_nonneg_int, int_mul, int_parts, int_sub,
                    isolate_roots, zeta_parts)
from .report import json_value
from .scalars import Scalar, read_rational
from .zpoly import ZNEG1, normal, padd, pair_norm, pmul, pscale

__all__ = [
    "read_real_ratfn", "PiecewiseFn", "parse_piecewise", "RatioDecision",
    "decide_qq_ratio", "CorollaryResult", "decide_real_corollary",
    "check_phased_witness", "CCReport", "classify_cc", "SPBEntry",
    "QCReport", "classify_qc", "verify_spb", "QQReport", "classify_qq",
    "ClassReport", "classify",
]


# -- probability functions -------------------------------------------------

def read_real_ratfn(text: str) -> RatFn:
    """The real rational function of p that an expression lowers to."""
    h = lower(parse(text))
    if h.B.is_zero() and (r := h.r).is_real():
        return r
    raise ValueError("not a real rational function of p")


class PiecewiseFn:
    """Real rational pieces on a rational partition of [0,1]; intervals are
    closed-open except the last, which is closed. Pieces must be pole-free
    on the closure of their interval. range_fault says where the first
    piece that leaves [0,1] does so, or is None when f maps into [0,1].
    Each piece enters the root layer once, as integer lists ints[k] = (N, D)
    with f = N/D and D > 0 on the closed piece, so g/D >= 0 iff g >= 0."""

    __slots__ = ("pieces", "ints", "range_fault")

    def __init__(self, pieces):
        pieces = tuple((Fraction(a), Fraction(b), f) for a, b, f in pieces)
        if not pieces:
            raise ValueError("piecewise function needs at least one piece")
        if pieces[0][0] != 0 or pieces[-1][1] != 1:
            raise ValueError("pieces must cover [0,1]")
        ints = []
        for (a, b, f), (a2, _, _) in zip(pieces, pieces[1:] + ((None,) * 3,)):
            if not a < b:
                raise ValueError(f"empty interval [{a},{b})")
            if a2 is not None and a2 != b:
                raise ValueError(f"gap or overlap at p = {b}")
            num, den = int_parts((f.num, f.den),
                                 "pieces must be real rational functions")
            s = _sign_at(den, a)
            if not s or not _sign_at(den, b) or _count_open(den, a, b):
                raise ValueError(f"piece on [{a},{b}] has a pole")
            ints.append((num, den) if s > 0 else
                        ([-c for c in num], [-c for c in den]))
        self.pieces, self.ints = pieces, tuple(ints)
        self.range_fault = next(filter(None, (
            _range_fault(a, b, num, den)
            for (a, b, _), (num, den) in zip(pieces, self.ints))), None)

    @staticmethod
    def from_ratfn(f: RatFn) -> "PiecewiseFn":
        return PiecewiseFn(((Fraction(0), Fraction(1), f),))

    def piece_at(self, x: Fraction) -> RatFn:
        for a, b, f in self.pieces:
            if a <= x < b:
                return f
        return self.pieces[-1][2]

    def single_ratfn(self) -> RatFn | None:
        """The common rational function when every piece agrees, else None."""
        first = self.pieces[0][2]
        if all(f == first for _, _, f in self.pieces[1:]):
            return first
        return None

    def eval_float(self, x: float) -> float:
        xf = Fraction(x).limit_denominator(10 ** 15)
        v = self.piece_at(xf).eval_complex(complex(x))
        return v.real

    def __eq__(self, other) -> bool:
        return isinstance(other, PiecewiseFn) and self.pieces == other.pieces

    def __str__(self) -> str:
        out = []
        for i, (a, b, f) in enumerate(self.pieces):
            close = "]" if i == len(self.pieces) - 1 else ")"
            out.append(f"[{a},{b}{close} {f}")
        return "\n".join(out)


_PIECE_LINE = re.compile(r"^\[\s*([^,\s]+)\s*,\s*([^\s\])]+)\s*([\])])\s*(.+)$")


def parse_piecewise(text: str) -> PiecewiseFn:
    """Parse lines of the form "[a,b) expr"; rational endpoints, last line
    closed with a bracket. Expressions must lower to real rational pieces."""
    pieces = []
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    for ln in lines:
        m = _PIECE_LINE.match(ln)
        if m is None:
            raise ValueError(f"bad piece line: {ln!r}")
        pieces.append((read_rational(m.group(1)), read_rational(m.group(2)),
                       read_real_ratfn(m.group(4))))
        if (m.group(3) == "]") != (ln is lines[-1]):
            raise ValueError("only the last interval is closed on the right")
    return PiecewiseFn(pieces)


# -- simulability of a target ratio (the field membership test) ------------

@dataclass(frozen=True)
class RatioDecision:
    simulable: bool
    witness: tuple[Poly, Poly, Poly, Poly] | None  # (g1, g2, g3, g4)
    element: FieldElem | None
    diagnosis: str
    # the views (r, s) of element that decide_qq_ratio read the witness
    # from; a decision built otherwise, by dataclasses.replace too, has none
    views: tuple[RatFn, RatFn] | None = field(
        default=None, init=False, repr=False, compare=False)

    def to_json(self) -> dict:
        out = {"simulable": self.simulable, "diagnosis": self.diagnosis}
        if self.witness is not None:
            g1, g2, g3, g4 = self.witness
            out["witness"] = {"g1": str(g1), "g2": str(g2),
                             "g3": str(g3), "g4": str(g4)}
            out["element"] = self.element_text
        return out

    @property
    def element_text(self) -> str:
        """str(element), from the views already read when there are some."""
        if self.views is None:
            return str(self.element)
        return format_element(*self.views)


def decide_qq_ratio(e: Expr | str) -> RatioDecision:
    """A target ratio is simulable from the coin exactly when it lies in the
    field: lowering succeeds. The witness reads off the canonical element,
    g1/g2 the t part and g3/g4 the rational part."""
    if isinstance(e, str):
        e = parse(e)
    try:
        h = lower(e)
    except NotInFieldError as err:
        return RatioDecision(False, None, None, str(err))
    r, s = h.r, h.s
    decision = RatioDecision(True, (s.num, s.den, r.num, r.den), h, "")
    object.__setattr__(decision, "views", (r, s))
    return decision


# -- square-root witnesses for probability functions -----------------------

@dataclass(frozen=True)
class CorollaryResult:
    simulable: bool
    h: FieldElem | Infinity | None
    reason: str

    to_json = json_value


def decide_real_corollary(f: RatFn) -> CorollaryResult:
    """Decide membership for a real probability function via real square
    roots: f is realizable from real-form ratios iff u = f/(1-f) is q^2 or
    q^2 * p/(1-p). The returned h satisfies |h|^2 = u exactly."""
    # from_ratfn refuses an f that is not real or has a pole on [0,1]
    fault = PiecewiseFn.from_ratfn(f).range_fault
    if fault:
        raise ValueError(f"range violation: {fault}")
    return _square_root_witness(f)


def _square_root_witness(f: RatFn) -> CorollaryResult:
    """decide_real_corollary for an f known to map [0,1] into [0,1]."""
    if f == ONE_RF:
        return CorollaryResult(True, INFINITY,
                               "f is identically 1: degenerate ratio, state |0>")
    if f.is_zero():
        return CorollaryResult(True, FE_ZERO,
                               "f is identically 0: the zero ratio, state |1>")
    num, den = _odds(f)
    try:
        h = FieldElem.from_coprime(*_lower_sqrt(num, [], den))
    except NotInFieldError as err:
        return CorollaryResult(False, None, str(err))
    route = "q*t with q = " + str(h.s) if h.r.is_zero() else "q = " + str(h.r)
    return CorollaryResult(True, h, f"f/(1-f) is a square via {route}")


def check_phased_witness(h: FieldElem, f: RatFn) -> bool:
    """True iff |h|^2 = f/(1-f) exactly, making f the success probability of
    the coin with ratio h. Sound one-sided membership test: phases of h drop
    out of the measurement statistics."""
    if not f.is_real():
        raise ValueError("probability functions are real")
    if f == ONE_RF:
        return False
    num, den = _odds(f)
    return fe_mod_squared(h) == FieldElem.from_coprime(num, [], den)


def _odds(f: RatFn) -> tuple[list, list]:
    """u = f/(1 - f) = N/(D - N) for f = N/D other than 1, as canonical
    zpoly lists (num, den). gcd(N, D - N) = gcd(N, D) = 1, so normal
    brings them to canonical form with no gcd."""
    (num, den), _ = zeta_parts(f.num, f.den)
    den, num = normal(padd(den, pscale(ZNEG1, num)), num)
    return num, den


# -- classifier: CC part ---------------------------------------------------

@dataclass(frozen=True)
class CCReport:
    verdict: str            # "yes" | "no"
    witness_n: int | None
    reason: str

    to_json = json_value


def _range_fault(lo: Fraction, hi: Fraction, num: list, den: list
                 ) -> str | None:
    """Where f = num/den leaves [0,1] on [lo, hi], or None if it does not."""
    if not certify_nonneg_int(num, lo, hi):
        return f"f < 0 somewhere on [{lo},{hi}]"
    if not certify_nonneg_int(int_sub(den, num), lo, hi):
        return f"f > 1 somewhere on [{lo},{hi}]"
    return None


def _bound_holds(num: list, den: list, bound_den: list, lo: Fraction,
                 hi: Fraction) -> bool:
    """f - bound >= 0 and (1 - f) - bound >= 0 on [lo, hi], for f = num/den
    and bound_den = bound * den."""
    return certify_nonneg_int(int_sub(num, bound_den), lo, hi) \
        and certify_nonneg_int(int_sub(int_sub(den, num), bound_den), lo, hi)


def _one_minus_p_pow(n: int) -> list:
    return [(-1) ** k * math.comb(n, k) for k in range(n + 1)]


def classify_cc(f: PiecewiseFn) -> CCReport:
    """Classical-to-classical membership. By Keane & O'Brien (1994) a
    nonconstant f is in CC exactly when it is continuous and
    min(f, 1-f) >= min(p^n, (1-p)^n) for some witness n. Rational pieces
    that meet 0 and 1 only at the ends of [0,1] have such an n, so the
    verdict is no only for a discontinuity, a range fault or an interior
    zero or one, and yes otherwise; witness_n is the least n up to
    MAX_DEGREE, or None when the least n exceeds it."""
    # f1 = f2 at x iff N1*D2 - N2*D1 vanishes there, the Ds being nonzero
    for (_, x, _), (n1, d1), (n2, d2) in zip(f.pieces, f.ints, f.ints[1:]):
        if _sign_at(int_sub(int_mul(n1, d2), int_mul(n2, d1)), x):
            return CCReport("no", None, f"discontinuous at p = {x}")
    if f.range_fault:
        return CCReport("no", None, f.range_fault)
    single = f.single_ratfn()
    if single is not None and single.is_constant():
        return CCReport("yes", None, "constant function")

    # interior zeros or ones are fatal for the polynomial bound
    for (_, x, _), (num, den) in zip(f.pieces, f.ints[1:]):
        if not _sign_at(num, x):
            return CCReport("no", None, f"interior zero at p = {x}")
        if not _sign_at(int_sub(den, num), x):
            return CCReport("no", None, f"interior one at p = {x}")
    # a piece that is constant 0 or 1 has failed a check above, so g != 0
    for (a, b, _), (num, den) in zip(f.pieces, f.ints):
        for g, what in ((num, "zero"), (int_sub(den, num), "one")):
            if _count_open(g, a, b):
                return CCReport("no", None,
                                f"interior {what} inside ({a},{b})")

    half = Fraction(1, 2)

    def bounded(n: int) -> bool:
        for (a, b, _), (num, den) in zip(f.pieces, f.ints):
            if a < half and not _bound_holds(num, den, [0] * n + den,
                                             a, min(b, half)):
                return False
            if b > half and not _bound_holds(
                    num, den, int_mul(_one_minus_p_pow(n), den),
                    max(a, half), b):
                return False
        return True

    # p^n and (1-p)^n fall as n grows, so bounded() is monotone in n: gallop
    # to the first power of two that holds, then bisect for the least n
    failed, n = 0, 1
    while not bounded(n):
        if n >= MAX_DEGREE:
            return CCReport("yes", None,
                            "continuous with no interior zero or one, so a "
                            "witness n exists (Keane-O'Brien); the least "
                            f"exceeds {MAX_DEGREE}")
        failed, n = n, min(2 * n, MAX_DEGREE)
    while n - failed > 1:
        mid = (failed + n) // 2
        if bounded(mid):
            n = mid
        else:
            failed = mid
    return CCReport("yes", n, f"min(f,1-f) >= min(p^{n},(1-p)^{n})")


# -- classifier: QC part (SPB certificates) --------------------------------

@dataclass(frozen=True)
class SPBEntry:
    """One zero (of f) or one (of f) with its certified local behavior:
    order is the vanishing order of f resp. 1-f at the point, and
    f resp. 1-f is bounded below by c*(p-z)^(2k) within delta."""
    point: Fraction | AlgebraicPoint
    kind: str               # "zero" | "one"
    order: Fraction
    k: int
    delta: float
    c: float
    residual: str

    def position(self) -> float:
        return float(self.point) if isinstance(self.point, Fraction) \
            else self.point.approx()

    to_json = json_value


@dataclass(frozen=True)
class QCReport:
    in_qc: bool
    zeros: tuple[SPBEntry, ...]
    ones: tuple[SPBEntry, ...]

    to_json = json_value


def _f_evaluator(h_at, kind: str):
    """x -> f(x) = |h(x)|^2/(1 + |h(x)|^2) in floats for kind "zero", and
    x -> 1 - f(x) = 1/(1 + |h(x)|^2) for kind "one", which 1.0 - f(x) would
    round to 0 once |h(x)|^2 passes 2^53, for h_at = h.evaluator(). At a
    pole of h and where |h(x)|^2 passes the float range, f is 1 and 1 - f
    is 0."""

    def f(x: float) -> float:
        try:
            m = abs(h_at(x)) ** 2
        except (ZeroDivisionError, OverflowError):
            m = math.inf
        if kind == "one":
            return 1.0 / (1.0 + m)
        return 1.0 if math.isinf(m) else m / (1.0 + m)

    return f


def _candidate_points(h: FieldElem):
    # f is 0 or 1 only where n = (A + B*w)(A - B*w) or C vanishes
    A, B, C = zeta_parts(*h.parts)[0]
    rationals, points = isolate_roots(pmul(pair_norm((A, B)), C), 0, 1)
    cands: list[Fraction | AlgebraicPoint] = [Fraction(0), Fraction(1)]
    cands.extend(z for z in rationals if 0 < z < 1)
    cands.extend(points)
    return cands


def classify_qc(h: FieldElem) -> QCReport:
    """Quantum-to-classical membership for f = |h|^2/(1+|h|^2): always SPB
    for a nondegenerate field element. Z collects zeros of f (positive net
    vanishing order of h), W the ones of f (poles of h)."""
    if isinstance(h, Infinity) or h.is_zero():
        raise ValueError("degenerate ratio: f is constant 0 or 1 and the "
                         "zero/one sets are not finite")
    cands = _candidate_points(h)
    found: list[tuple[Fraction | AlgebraicPoint, Fraction, str]] = []
    for z in cands:
        res = vanishing_order(h, z)
        if res.order != 0:
            found.append((z, res.order, res.residual))

    positions = [float(z) if isinstance(z, Fraction) else z.approx()
                 for z, _, _ in found]
    h_at = h.evaluator()
    zeros: list[SPBEntry] = []
    ones: list[SPBEntry] = []
    for i, (z, n, residual) in enumerate(found):
        x = positions[i]
        others = [abs(x - q) for j, q in enumerate(positions) if j != i]
        delta = min(0.125, min(others) / 2) if others else 0.125
        k = math.ceil(abs(n))
        kind = "zero" if n > 0 else "one"
        f_at = _f_evaluator(h_at, kind)
        grid_lo = max(0.0, x - delta)
        grid_hi = min(1.0, x + delta)
        vals = []
        for j in range(200):
            p = grid_lo + (j + 0.5) * (grid_hi - grid_lo) / 200
            if abs(p - x) < 1e-12:
                continue
            vals.append(f_at(p) / abs(p - x) ** (2 * k))
        c = min(vals) / 2
        entry = SPBEntry(z, kind, 2 * abs(n), k, delta, c, residual)
        (zeros if n > 0 else ones).append(entry)
    return QCReport(True, tuple(zeros), tuple(ones))


def verify_spb(h: FieldElem, report: QCReport) -> bool:
    """Independent re-check of an SPB certificate: recompute each vanishing
    order exactly and test the lower bound on a fresh grid. A bound with
    c <= 0 or delta <= 0 says nothing, and is refused."""
    h_at = h.evaluator()
    for entry in report.zeros + report.ones:
        f_at = _f_evaluator(h_at, entry.kind)
        res = vanishing_order(h, entry.point)
        want = entry.order if entry.kind == "zero" else -entry.order
        if 2 * res.order != want or not (entry.c > 0 and entry.delta > 0):
            return False
        x = entry.position()
        grid_lo = max(0.0, x - entry.delta)
        grid_hi = min(1.0, x + entry.delta)
        for j in range(200):
            p = grid_lo + j * (grid_hi - grid_lo) / 199
            # the window may reach an end of [0, 1], where h is not defined
            if abs(p - x) < 1e-12 or not 0 < p < 1:
                continue
            if f_at(p) + 1e-15 < entry.c * abs(p - x) ** (2 * entry.k):
                return False
    return True


# -- classifier: QQ part ---------------------------------------------------

@dataclass(frozen=True)
class QQReport:
    verdict: str            # "yes" | "no" | "unknown"
    witness: FieldElem | Infinity | None
    reason: str

    to_json = json_value


def classify_qq(f: PiecewiseFn, witness: FieldElem | None = None) -> QQReport:
    """Quantum-to-quantum membership, three-valued. Yes with a checked
    witness; no when f leaves [0,1] or has two distinct pieces; unknown
    for a single piece with no real-form square root or with irrational
    coefficients. A supplied witness that fails its check is named in the
    reason, before the verdict found without it."""
    single = f.single_ratfn()
    if witness is None:
        return _classify_qq(f, single)
    # |h|^2 is one real-analytic function on (0, 1), so by the identity
    # theorem no witness checks when f has two distinct pieces
    if single is not None and check_phased_witness(witness, single):
        return QQReport("yes", witness, "supplied witness checks: |h|^2 = f/(1-f)")
    rep = _classify_qq(f, single)
    return QQReport(rep.verdict, rep.witness,
                    f"supplied witness {witness} fails its check "
                    f"|h|^2 = f/(1-f); {rep.reason}")


def _classify_qq(f: PiecewiseFn, single: RatFn | None) -> QQReport:
    """classify_qq without a supplied witness; single is f's one piece, or
    None when f has several."""
    if f.range_fault:
        return QQReport("no", None,
                        f"not a probability function: {f.range_fault}")
    if single is None:
        return QQReport("no", None,
                        "pieces differ, but |h|^2/(1+|h|^2) is real-analytic "
                        "on (0,1): equal to a rational piece on an interval, "
                        "it equals that piece on all of (0,1)")

    if single.is_constant():
        value = single.constant_value()
        if value == Scalar(1):
            return QQReport("yes", INFINITY, "constant 1: the state |0>")
        if not value:
            return QQReport("yes", FE_ZERO, "constant 0: the state |1>")
        if not value.is_rational():
            return QQReport("yes", None, "constant coin with an irrational "
                            "bias; its ratio is not sought")
        frac = value.as_fraction()
        root = sqrt_in_scalar_field(frac / (1 - frac))
        if root is not None:
            return QQReport("yes", FieldElem.const(root),
                            "constant coin with representable ratio")
        return QQReport("yes", None,
                        "constant coin; its ratio sqrt(f/(1-f)) lies outside "
                        "the toolkit scalar field")

    if single.is_rational():
        cor = _square_root_witness(single)
        if cor.simulable:
            return QQReport("yes", cor.h, cor.reason)
        return QQReport("unknown", None,
                        "no real-form witness (" + cor.reason + "); complex "
                        "witnesses undecided")
    return QQReport("unknown", None,
                    "piece has irrational coefficients; square detection "
                    "covers rational coefficients only")


@dataclass(frozen=True)
class ClassReport:
    cc: CCReport
    qc: QCReport | None
    qq: QQReport

    to_json = json_value


def classify(f: PiecewiseFn, witness: FieldElem | None = None) -> ClassReport:
    """Full classification. The QC part needs a ratio witness: the one the
    QQ decision accepted, which is the supplied witness when it checks."""
    cc = classify_cc(f)
    qq = classify_qq(f, witness=witness)
    h = qq.witness
    qc = None
    if isinstance(h, FieldElem) and not h.is_zero():
        qc = classify_qc(h)
    return ClassReport(cc, qc, qq)
