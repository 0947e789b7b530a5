"""The four benchmark workloads.

Each workload turns a seed into an endless stream of plain-data inputs (no
coinfield object is built while generating), runs one input per item inside
the timed region, and checks every output afterwards against a reference that
does not come from the code path being timed. All of them run at p0 = 3/10 in
one process and one thread; the caller issues the next item only when the
previous one has returned (a closed loop with one client).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from fractions import Fraction

from coinfield import analysis, cli, field, lang, polys, scalars, sim, synth

import refeval

P0 = Fraction(3, 10)
CHECK_POINTS = (0.3, 7 / 11)
FLAT_RAMP = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "flat_ramp.txt")
PHASED = "(sqrt2*p/(1+p))*t + i*p/(1+p)"
SQRT2 = math.sqrt(2)

# A raw scalar is (a, b, c, d) meaning a + b*sqrt2 + c*i + d*i*sqrt2; a raw
# polynomial is a tuple of raw scalars in ascending degree; a raw element is
# ((r_num, r_den), (s_num, s_den)) for r + s*t.


def _rand_scalar(rnd: random.Random):
    # criterion-1 shape: Gaussian rationals with numerators in [-3, 3]
    return (Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)), 0,
            Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)), 0)


def _rand_poly(rnd, deg):
    return tuple(_rand_scalar(rnd) for _ in range(deg + 1))


def _nonzero(raw_poly) -> bool:
    return any(any(c) for c in raw_poly)


# coefficient counts (r_num, r_den, s_num, s_den) of the acceptance-test
# shape: r of degree <= 2/1, s of degree <= 1/1
SHAPES = [(a, b, c, d) for a in (1, 2, 3) for b in (1, 2)
          for c in (1, 2) for d in (1, 2)]
# Stratified design: the workloads walk through all 24 shapes in this one
# fixed order, so every run has the same mix of degrees and the seed only
# draws the coefficients; the per-item cost then varies far less between
# seeds than with the degrees drawn at random.
random.Random("shape order").shuffle(SHAPES)


def rand_elem(rnd, nonzero=False, shape=None):
    """A random element; shape fixes the coefficient counts, else each is
    drawn uniformly as in the acceptance tests. Denominators are nonzero."""
    while True:
        rn, rd, sn, sd = shape or (rnd.randint(1, 3), rnd.randint(1, 2),
                                   rnd.randint(1, 2), rnd.randint(1, 2))
        e = ((_rand_poly(rnd, rn - 1), _rand_poly(rnd, rd - 1)),
             (_rand_poly(rnd, sn - 1), _rand_poly(rnd, sd - 1)))
        if not (_nonzero(e[0][1]) and _nonzero(e[1][1])):
            continue
        if not nonzero or _nonzero(e[0][0]) or _nonzero(e[1][0]):
            return e


ONE = ((1, 0, 0, 0),)


def build_poly(raw) -> polys.Poly:
    return polys.Poly(tuple(scalars.Scalar(*c) for c in raw))


def build_elem(raw) -> field.FieldElem:
    (rn, rd), (sn, sd) = raw
    return field.FieldElem(polys.RatFn(build_poly(rn), build_poly(rd)),
                           polys.RatFn(build_poly(sn), build_poly(sd)))


def _scalar_value(c) -> complex:
    a, b, ci, d = (float(x) for x in c)
    return complex(a + b * SQRT2, ci + d * SQRT2)


def _poly_value(raw, x: float) -> complex:
    out = 0j
    for c in reversed(raw):
        out = out * x + _scalar_value(c)
    return out


def elem_value(raw, x: float) -> complex:
    """Float value of a raw element, computed without coinfield."""
    (rn, rd), (sn, sd) = raw
    t0 = math.sqrt(x / (1 - x))
    return _poly_value(rn, x) / _poly_value(rd, x) \
        + _poly_value(sn, x) / _poly_value(sd, x) * t0


def _scalar_text(c) -> str:
    parts = [f"({v})*{unit}" if unit else f"({v})"
             for v, unit in zip(c, ("", "sqrt2", "i", "i*sqrt2")) if v]
    return "(" + (" + ".join(parts) or "0") + ")"


def _poly_text(raw) -> str:
    return " + ".join(f"{_scalar_text(c)}*p^{k}" for k, c in enumerate(raw))


def elem_text(raw) -> str:
    (rn, rd), (sn, sd) = raw
    return (f"({_poly_text(rn)})/({_poly_text(rd)}) + "
            f"(({_poly_text(sn)})/({_poly_text(sd)}))*t")


def _digest(*parts) -> str:
    return hashlib.sha256("\x1f".join(map(str, parts)).encode()).hexdigest()


class Workload:
    """Interface of a workload. Warm-up runs the first `warmup` items of a
    separate stream, enough to reach every code path the items take. The
    stream repeats its mix of input shapes every `round_items` items, and a
    timed pass ends on a round boundary so every run measures the same mix."""

    warmup = 1
    round_items = 1

    def __init__(self, corrupt: bool = False):
        # corrupt=True perturbs one reference so every check must fail; the
        # self-test uses it to prove the checks can fail
        self.corrupt = corrupt

    def stream(self, rnd: random.Random):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def condense(self, out):
        """What of an item's output the checks need; runs between items,
        outside the timed region, so bulky outputs need not pile up."""
        return out

    def check_all(self, records) -> list[bool]:
        """records: [(item, output or exception)]; one verdict per record.
        A check that raises fails its item."""
        out = []
        for item, res in records:
            try:
                out.append(not isinstance(res, Exception) and self.check(item, res))
            except Exception:
                out.append(False)
        return out

    def check(self, item, out) -> bool:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def figures(self, run) -> dict:
        """Workload-specific figures of an untraced pass (run.Pass) for the
        report."""
        return {}


# ---------------------------------------------------------------------------
# field_algebra: the exact kernel (RatFn normalisation and poly_gcd)
# ---------------------------------------------------------------------------

class FieldAlgebra(Workload):
    """One item is one axiom group on four fresh elements a, b, c, d:
    commutativity, associativity and distributivity of + and *, a * a^-1,
    and the chained product abcd taken in two orders. Every six items use
    each of the 24 shapes once; the grouping into items shifts by one shape
    per round, so the item costs spread smoothly instead of clustering."""

    warmup = 2
    round_items = 6

    def stream(self, rnd):
        r = 0
        while True:
            shapes = SHAPES[r:] + SHAPES[:r]
            r = (r + 1) % len(SHAPES)
            for k in range(0, len(shapes), 4):
                a, b, c, d = shapes[k:k + 4]
                yield (rand_elem(rnd, nonzero=True, shape=a),
                       rand_elem(rnd, shape=b), rand_elem(rnd, shape=c),
                       rand_elem(rnd, shape=d))

    def run(self, item):
        a, b, c, d = (build_elem(r) for r in item)
        add, mul = field.fe_add, field.fe_mul
        ab, bc = mul(a, b), mul(b, c)
        inv = field.fe_inv(a)
        return {"a+b": (add(a, b), add(b, a)),
                "a*b": (ab, mul(b, a)),
                "a+b+c": (add(add(a, b), c), add(a, add(b, c))),
                "a*b*c": (mul(ab, c), mul(a, bc)),
                "a*(b+c)": (mul(a, add(b, c)), add(ab, mul(a, c))),
                "1/a": (inv, None),
                "a*(1/a)": (mul(a, inv), field.FE_ONE),
                "a*b*c*d": (mul(mul(ab, c), d), mul(ab, mul(c, d)))}

    def check(self, item, out) -> bool:
        if not all(y is None or x == y for x, y in out.values()):
            return False
        return all(self._floats(item, out, x) for x in CHECK_POINTS)

    def _floats(self, item, out, x) -> bool:
        a, b, c, d = (elem_value(r, x) for r in item)
        ma, mb, mc, md = (abs(v) for v in (a, b, c, d))
        # expected value and the magnitude of the terms that formed it
        want = {"a+b": (a + b, ma + mb), "a*b": (a * b, ma * mb),
                "a+b+c": (a + b + c, ma + mb + mc),
                "a*b*c": (a * b * c, ma * mb * mc),
                "a*(b+c)": (a * (b + c), ma * (mb + mc)),
                "1/a": (1 / a, 1 / ma), "a*(1/a)": (1, 1),
                "a*b*c*d": (a * b * c * d, ma * mb * mc * md)}
        for key, (value, scale) in want.items():
            if self.corrupt:
                value = value * 1.001 + 1e-3
            if not refeval.close(refeval.evaluate(str(out[key][0]), x),
                                 value, scale):
                return False
        return True

    def digest(self, out) -> str:
        return _digest(*(x for key in sorted(out) for x in out[key]))


# ---------------------------------------------------------------------------
# compile_execute: lower, compile, JSON round trip, exact execution, cost
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
# README landmarks as raw elements: text and the element it denotes
LANDMARKS = (
    ("p", ((((0, 0, 0, 0), (1, 0, 0, 0)), ONE), (((0, 0, 0, 0),), ONE))),
    ("1 - 2*p", ((((1, 0, 0, 0), (-2, 0, 0, 0)), ONE), (((0, 0, 0, 0),), ONE))),
    ("(1 - 2*p)^2", ((((1, 0, 0, 0), (-4, 0, 0, 0), (4, 0, 0, 0)), ONE),
                     (((0, 0, 0, 0),), ONE))),
    ("t + p - 1/2", ((((-_HALF, 0, 0, 0), (1, 0, 0, 0)), ONE), (ONE, ONE))),
    (PHASED, ((((0, 0, 0, 0), (0, 0, 1, 0)), ((1, 0, 0, 0), (1, 0, 0, 0))),
              (((0, 0, 0, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (1, 0, 0, 0))))),
)


class CompileExecute(Workload):
    """One item is one target ratio, given as text. A round is 24 random
    targets with the acceptance-test shape, one of each shape since the cost
    grows steeply with the Horner depth, and the 5 README landmarks spread
    among them."""

    warmup = 4
    round_items = len(SHAPES) + len(LANDMARKS)

    def stream(self, rnd):
        while True:
            for k, shape in enumerate(SHAPES):
                raw = rand_elem(rnd, shape=shape)
                yield elem_text(raw), raw
                if k % 5 == 3:
                    yield LANDMARKS[k // 5]

    def run(self, item):
        text, _ = item
        h = lang.lower(lang.parse(text))
        prog = synth.compile(h)
        wire = json.dumps(synth.program_to_json(prog))
        back = synth.program_from_json(json.loads(wire))
        ratio = sim.run_symbolic(back)
        coins = sim.expected_cost(back, P0).expected_coins
        return h, prog, back, ratio, coins

    def condense(self, out):
        h, prog, back, ratio, coins = out
        return h, ratio, coins, back == prog, _digest(repr(prog))

    def check(self, item, out) -> bool:
        h, ratio, coins, round_trip_ok, _ = out
        want = build_elem(item[1])
        if self.corrupt:
            want = field.fe_add(want, field.FE_ONE)
        return (h == want and ratio == want and round_trip_ok
                and math.isfinite(coins) and coins >= 0)

    def digest(self, out) -> str:
        h, ratio, coins, _, program = out
        return _digest(h, program, ratio, repr(coins))

    def figures(self, run) -> dict:
        # constant targets spend no coins and are left out of the mean
        costs = [out[2] for _, out in run.records
                 if isinstance(out, tuple) and out[2] > 0]
        if not costs:
            return {}
        return {"coins_per_sample_geomean":
                math.exp(sum(map(math.log, costs)) / len(costs))}


# ---------------------------------------------------------------------------
# monte_carlo: the float trial loop of run_numeric
# ---------------------------------------------------------------------------

# trials per item and program: about 70 ms and 55 ms of trial loop
MC_TRIALS = {"worked_example": 1000, "construct_p": 16}
# outcome-0 probability |h|^2/(1+|h|^2) at p0 = 3/10, from the known ratios
# h = 2p - 1 and h = p
MC_EXACT = {"worked_example": Fraction(4, 29), "construct_p": Fraction(9, 109)}
MC_SIGMAS = 5


class MonteCarlo(Workload):
    """One item runs both programs once, each with its own seed:
    worked_example_program() for 1000 trials and construct_p() for 16."""

    warmup = 1

    def __init__(self, corrupt=False):
        super().__init__(corrupt)
        self.programs = {"worked_example": synth.worked_example_program(),
                         "construct_p": synth.construct_p()}

    def stream(self, rnd):
        while True:
            yield {name: rnd.getrandbits(32) for name in MC_TRIALS}

    def run(self, item):
        """{program: (RunResult, seconds in run_numeric)}"""
        out = {}
        for name, seed in item.items():
            t0 = time.perf_counter()
            res = sim.run_numeric(self.programs[name], float(P0),
                                  MC_TRIALS[name], seed=seed, workers=1)
            out[name] = res, time.perf_counter() - t0
        return out

    def check_all(self, records) -> list[bool]:
        """The statistical checks pool the run's trials per program; a failed
        pool check fails every item of the run."""
        outs = [out for _, out in records if not isinstance(out, Exception)]
        pools_ok = bool(outs) and all(
            self._pool_ok(name, [out[name][0] for out in outs])
            for name in MC_TRIALS)
        return [pools_ok and not isinstance(out, Exception)
                and all(r.aborted == 0 for r, _ in out.values())
                for _, out in records]

    def _pool_ok(self, name, outs) -> bool:
        done = sum(o.completed for o in outs)
        hits = sum(o.successes for o in outs)
        want = float(MC_EXACT[name]) * (1.5 if self.corrupt else 1)
        sigma = math.sqrt(want * (1 - want) / done)
        prob_ok = abs(hits / done - want) <= MC_SIGMAS * sigma
        analytic = outs[0].expected_coins_analytic
        coins = sum(o.coins_total for o in outs) / done
        if name == "worked_example":
            # the two-coin protocol spends 2 coins per attempt and succeeds
            # with probability p^2 + (1-p)^2 = 0.58
            coins_ok = abs(analytic - 2 / 0.58) < 1e-9 \
                and abs(coins - analytic) <= 0.05 * analytic
        else:
            # a 5% band needs ~9000 construct_p trials for a negligible false
            # alarm rate and a run has fewer, so the band is 5 sigma of the
            # pooled mean, sigma taken from the spread of the per-item means
            means = [o.coins_total / o.completed for o in outs]
            mu = sum(means) / len(means)
            sd = math.sqrt(sum((x - mu) ** 2 for x in means)
                           / max(1, len(means) - 1))
            coins_ok = abs(coins - analytic) <= \
                MC_SIGMAS * sd / math.sqrt(len(means))
        return prob_ok and coins_ok

    def digest(self, out) -> str:
        return _digest(*((r.successes, r.completed, r.aborted, r.coins_total,
                          r.consts_total) for r, _ in out.values()))

    def figures(self, run) -> dict:
        """samples_per_s over the pass, and per program the trial rate (time
        in run_numeric, at the reference speed), the empirical coins per
        delivered sample and the coin yield."""
        ok = [(out, f) for (_, out), f in zip(run.records, run.factors)
              if not isinstance(out, Exception)]
        trials = sum(r.completed for out, _ in ok for r, _ in out.values())
        figs = {"samples_per_s": trials / sum(run.lats)}
        aborted = tried = 0
        for name in MC_TRIALS if ok else ():
            runs = [out[name][0] for out, _ in ok]
            done = sum(r.completed for r in runs)
            coins = sum(r.coins_total for r in runs) / done
            static = synth.static_counts(self.programs[name])["coins"]
            figs[f"sim.trials_per_s.{name}"] = sum(r.trials for r in runs) \
                / sum(out[name][1] * f for out, f in ok)
            figs[f"sim.coins_per_sample_empirical.{name}"] = coins
            # coins one pass spends over coins spent per delivered sample
            figs[f"sim.coin_yield.{name}"] = static / coins
            aborted += sum(r.aborted for r in runs)
            tried += sum(r.trials for r in runs)
        figs["sim.aborted_ratio"] = aborted / tried if tried else 0.0
        return figs


# ---------------------------------------------------------------------------
# classify: the CLI, lang's square-root decision, and the analysis classifiers
# ---------------------------------------------------------------------------

def _rand_q(rnd, degree: int, inner: bool):
    """q = c * prod(p - z) with `degree` rational roots z != 1; with inner,
    at least one root lies in (0, 1), otherwise none does."""
    c = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 3), rnd.randint(1, 3))
    while True:
        roots = [Fraction(rnd.randint(-3, 9), rnd.randint(2, 6))
                 for _ in range(degree)]
        if 1 not in roots and any(0 < z < 1 for z in roots) == inner:
            break
    return roots, f"({c})*" + "*".join(f"(p - ({z}))" for z in roots)


# README verdicts: (argv, expected JSON fields)
CLASSIFY_LANDMARKS = (
    (["decide", "t + p - 1/2"],
     {"simulable": True, "witness": {"g1": "1", "g2": "1", "g3": "-1/2 + p",
                                     "g4": "1"}}),
    (["decide", "sqrt(p^2/(1-p^2))"], {"simulable": False}),
    (["corollary", "(1-2*p)^2/(1+(1-2*p)^2)"], {"simulable": True,
                                                "h": "1 - 2*p"}),
    (["classify", "p^2", "--witness", PHASED],
     {"cc": ("yes", 2), "qq": "yes", "zeros": ["0"], "ones": ["1"]}),
    (["classify", FLAT_RAMP], {"cc": ("yes", 1), "qq": "no"}),
    (["classify", "(p-1/2)^2/(1+(p-1/2)^2)"], {"cc": ("no", None),
                                               "qq": "yes"}),
)

# u = q^2 and u = q^2 * p/(1-p) make f = u/(1+u) a member; u = (p + a) q^2
# with a > 0 has the odd factor p + a, so f is not
U_SHAPES = ("square", "square_t", "nonsquare")


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_json(res):
    return json.loads(res[1].strip().splitlines()[-1])


class Classify(Workload):
    """One item takes one seeded probability function f = u/(1+u) through
    the CLI commands decide (on sqrt(u)), corollary and classify, runs
    classify_qc and verify_spb on one random ratio h, and replays one README
    landmark through the CLI. The u shapes, the degree of q, the shapes of h
    and the landmarks cycle in a fixed order; the seed draws the numbers."""

    warmup = 2
    round_items = len(SHAPES)

    def stream(self, rnd):
        k = 0
        while True:
            # cycle u's shape, the degree of q and whether q has a root
            # inside (0, 1), which decides how far the CC search runs
            shape = U_SHAPES[k % len(U_SHAPES)]
            roots, q = _rand_q(rnd, degree=1 + k // 6 % 2, inner=k % 2 == 0)
            if shape == "square":
                u = f"({q})^2"
            elif shape == "square_t":
                u = f"({q})^2*p/(1 - p)"
            else:
                u = f"(p + {Fraction(rnd.randint(1, 4), rnd.randint(1, 3))})*({q})^2"
            argv, want = CLASSIFY_LANDMARKS[k % len(CLASSIFY_LANDMARKS)]
            yield {"shape": shape, "roots": roots, "u": u,
                   "h": rand_elem(rnd, nonzero=True,
                                  shape=SHAPES[k % len(SHAPES)]),
                   "landmark": (argv + ["--json"], want)}
            k += 1

    def run(self, item):
        u = item["u"]
        f = f"({u})/(1 + {u})"
        h = build_elem(item["h"])
        qc = analysis.classify_qc(h)
        return {"decide": _cli(["decide", f"sqrt({u})", "--json"]),
                "corollary": _cli(["corollary", f, "--json"]),
                "classify": _cli(["classify", f, "--json"]),
                "qc": (qc.in_qc, analysis.verify_spb(h, qc),
                       json.dumps(qc.to_json())),
                "landmark": _cli(item["landmark"][0])}

    def check(self, item, out) -> bool:
        member = item["shape"] != "nonsquare"
        if self.corrupt:
            member = not member
        rc = 0 if member else 2
        dec, cor, cls = (_cli_json(out[k]) for k in ("decide", "corollary",
                                                     "classify"))
        ok = out["decide"][0] == rc and dec["simulable"] is member
        ok = ok and out["corollary"][0] == rc and cor["simulable"] is member
        if member:
            ok = ok and all(self._h_matches(cor["h"], item["u"], x)
                            for x in CHECK_POINTS)
        inner = [z for z in item["roots"] if 0 < z < 1]
        ok = ok and out["classify"][0] == 0 and \
            cls["qq"]["verdict"] == ("yes" if member else "unknown")
        if inner:
            # an interior zero of f rules out the polynomial bound
            ok = ok and cls["cc"]["verdict"] == "no"
        if member:
            zeros = [e["point"] for e in (cls["qc"] or {}).get("zeros", [])]
            ok = ok and cls["qc"] is not None \
                and all(str(z) in zeros for z in inner)
        in_qc, verified, _ = out["qc"]
        ok = ok and in_qc and verified and self._spb_ok(cls)
        argv, want = item["landmark"]
        return ok and self._landmark_ok(argv[0], out["landmark"], want)

    @staticmethod
    def _spb_ok(rep) -> bool:
        """verify_spb on the QC certificate a classify call printed, rebuilt
        from its JSON; True when the call printed none."""
        if rep.get("qc") is None:
            return True
        h = lang.lower(lang.parse(rep["qq"]["witness"]))
        entries = {"zeros": [], "ones": []}
        for key, out in entries.items():
            for e in rep["qc"][key]:
                pt = e["point"]
                if isinstance(pt, str):
                    point = Fraction(pt)
                else:
                    g = lang.lower(lang.parse(pt["poly"])).r.num
                    point = polys.AlgebraicPoint(g, *map(Fraction, pt["interval"]))
                out.append(analysis.SPBEntry(point, e["kind"], Fraction(e["order"]),
                                             e["k"], e["delta"], e["c"],
                                             e["residual"]))
        report = analysis.QCReport(rep["qc"]["in_qc"], tuple(entries["zeros"]),
                                   tuple(entries["ones"]))
        return report.in_qc and analysis.verify_spb(h, report)

    @staticmethod
    def _h_matches(h_text, u_text, x) -> bool:
        got = abs(refeval.evaluate(h_text, x)) ** 2
        want = refeval.evaluate(u_text, x).real
        return refeval.close(got, want, abs(want))

    def _landmark_ok(self, cmd, res, want) -> bool:
        rc, rep = res[0], _cli_json(res)
        if cmd == "decide":
            if rep["simulable"] is not want["simulable"]:
                return False
            if want["simulable"]:
                return rc == 0 and rep["witness"] == want["witness"]
            return rc == 2 and "1 - p" in rep["diagnosis"] \
                and "1 + p" in rep["diagnosis"]
        if cmd == "corollary":
            return rc == 0 and rep["simulable"] and rep["h"] == want["h"]
        cc = (rep["cc"]["verdict"], rep["cc"]["witness_n"])
        ok = rc == 0 and cc == want["cc"] \
            and rep["qq"]["verdict"] == want["qq"] and self._spb_ok(rep)
        if "zeros" in want:
            qc = rep["qc"] or {}
            ok = ok and [e["point"] for e in qc.get("zeros", [])] == want["zeros"] \
                and [e["point"] for e in qc.get("ones", [])] == want["ones"]
        return ok

    def digest(self, out) -> str:
        return _digest(*(out[k] for k in sorted(out)))

    def figures(self, run) -> dict:
        """decided_ratio: CC and QQ verdicts of every classify call that are
        a definite yes or no."""
        verdicts = []
        for item, out in run.records:
            if isinstance(out, Exception):
                continue
            calls = [out["classify"]]
            if item["landmark"][0][0] == "classify":
                calls.append(out["landmark"])
            for res in calls:
                try:
                    rep = _cli_json(res)
                except (ValueError, IndexError):
                    continue
                verdicts += [rep["cc"]["verdict"], rep["qq"]["verdict"]]
        if not verdicts:
            return {}
        return {"decided_ratio":
                sum(v in ("yes", "no") for v in verdicts) / len(verdicts)}


WORKLOADS = {"field_algebra": FieldAlgebra, "compile_execute": CompileExecute,
             "monte_carlo": MonteCarlo, "classify": Classify}
