"""Command-line surface: parse, decide, corollary, classify, compile,
simulate, run, cost, fixtures.

Reports go to stdout (add --json for machine parsing), diagnostics to
stderr. decide, corollary and compile exit 2 for "not simulable"; main alone
turns bad input, usage errors included, into one stderr line and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, lang, scalars, sim, synth
from .field import FieldElem, Infinity

__all__ = ["main"]


def _ast_json(e: lang.Expr):
    if isinstance(e, lang.RationalConst):
        return {"const": str(e.value)}
    if isinstance(e, (lang.I, lang.Sqrt2, lang.P, lang.T)):
        return {"atom": type(e).__name__.lower()}
    if isinstance(e, lang.Pow):
        return {"pow": [_ast_json(e.base), e.exp]}
    if isinstance(e, lang.Sqrt):
        return {"sqrt": _ast_json(e.child)}
    name = type(e).__name__.lower()
    return {name: [_ast_json(e.left), _ast_json(e.right)]}


def _read_program(path: str | None) -> synth.CircuitProgram:
    text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
    return synth.program_from_json(json.loads(text))


def _f_spec(spec: str) -> analysis.PiecewiseFn:
    """A probability function, from a piecewise file or a single expression."""
    if os.path.exists(spec):
        return analysis.parse_piecewise(Path(spec).read_text())
    return analysis.PiecewiseFn.from_ratfn(analysis.read_real_ratfn(spec))


def cmd_parse(args) -> int:
    e = lang.parse(args.expr)
    if args.json:
        print(json.dumps({"printed": lang.print_expr(e), "ast": _ast_json(e)}))
    else:
        print(lang.print_expr(e))
    return 0


def cmd_decide(args) -> int:
    d = analysis.decide_qq_ratio(args.expr)
    if args.json:
        print(json.dumps(d.to_json()))
    elif d.simulable:
        print("simulable: yes")
        print(f"element: {d.element_text}")
        for k, g in enumerate(d.witness, 1):
            print(f"g{k}: {g}")
    else:
        print("simulable: no")
        print(f"diagnosis: {d.diagnosis}")
    return 0 if d.simulable else 2


def cmd_corollary(args) -> int:
    if os.path.exists(args.expr):
        raise ValueError("corollary takes one expression; classify takes "
                         "piecewise files")
    res = analysis.decide_real_corollary(analysis.read_real_ratfn(args.expr))
    if args.json:
        print(json.dumps(res.to_json()))
    else:
        print(f"simulable: {'yes' if res.simulable else 'no'}")
        if res.h is not None:
            print(f"h: {res.h}")
        print(f"reason: {res.reason}")
    return 0 if res.simulable else 2


def cmd_classify(args) -> int:
    f = _f_spec(args.fspec)
    witness = (None if args.witness is None
               else lang.lower(lang.parse(args.witness)))
    report = analysis.classify(f, witness=witness)
    if args.json:
        print(json.dumps(report.to_json()))
        return 0
    cc = report.cc
    n = f" (witness n={cc.witness_n})" if cc.witness_n is not None else ""
    print(f"CC: {cc.verdict}{n}  [{cc.reason}]")
    if report.qc is None:
        print("QC: not computed (no ratio witness available)")
    else:
        zs, ws = (", ".join(
            f"{e.point if isinstance(e.point, Fraction) else round(e.position(), 6)}"
            f" order {e.order} k={e.k}" for e in es) or "none"
            for es in (report.qc.zeros, report.qc.ones))
        print(f"QC: yes  [zeros: {zs}; ones: {ws}]")
    qq = report.qq
    w = f" (witness {qq.witness})" if qq.witness is not None else ""
    print(f"QQ: {qq.verdict}{w}  [{qq.reason}]")
    return 0


def cmd_compile(args) -> int:
    try:
        h = lang.lower(lang.parse(args.expr))
    except lang.NotInFieldError as err:
        print(f"not simulable: {err}", file=sys.stderr)
        return 2
    prog = synth.compile(h)
    print(json.dumps(synth.program_to_json(prog), indent=None if args.json else 2))
    return 0


def cmd_simulate(args) -> int:
    ratio = sim.run_symbolic(_read_program(args.program))
    if args.json:
        out = {"ratio": str(ratio)}
        if not isinstance(ratio, Infinity):
            out.update(r=str(ratio.r), s=str(ratio.s))
        print(json.dumps(out))
    else:
        print(f"ratio: {ratio}")
    return 0


def cmd_run(args) -> int:
    prog = _read_program(args.program)
    p0 = float(scalars.read_rational(args.p0))
    res = sim.run_numeric(prog, p0, args.trials, seed=args.seed,
                          max_retries=args.max_retries)
    out = res.to_json()
    if args.json:
        print(json.dumps(out))
    else:
        for key, val in out.items():
            print(f"{key}: {json.dumps(val) if isinstance(val, dict) else val}")
    return 0


def cmd_cost(args) -> int:
    prog = _read_program(args.program)
    rep = sim.expected_cost(prog, scalars.read_rational(args.p0))
    if args.json:
        print(json.dumps(rep.to_json()))
    else:
        print(f"expected coins: {rep.expected_coins:.6g}")
        print(f"expected consts: {rep.expected_consts:.6g}")
        print(f"success probability per attempt: {rep.success_probability:.6g}")
        print(f"measurements: {rep.static['measures']}")
        print(f"registers: {rep.static['registers']}")
    return 0


# -- the worked-example fixture suite --------------------------------------

def _fixture_rows():
    sii_f = "(1-2*p)^2/(1+(1-2*p)^2)"
    stmt3 = "(sqrt2*p/(1+p))*t + i*p/(1+p)"

    def row_parse():
        e = lang.parse(sii_f)
        return lang.parse(lang.print_expr(e)) == e

    def row_decide_yes():
        return analysis.decide_qq_ratio("t + p - 1/2").simulable

    def row_stmt2():
        d = analysis.decide_qq_ratio("sqrt(p^2/(1-p^2))")
        return (not d.simulable and "1 - p" in d.diagnosis
                and "1 + p" in d.diagnosis)

    def row_stmt3():
        return analysis.decide_qq_ratio(stmt3).simulable

    def row_phased():
        h = lang.lower(lang.parse(stmt3))
        f = lang.lower(lang.parse("p^2")).r
        return analysis.check_phased_witness(h, f)

    def row_corollary_sii():
        res = analysis.decide_real_corollary(lang.lower(lang.parse(sii_f)).r)
        want = lang.lower(lang.parse("1 - 2*p"))
        return res.simulable and res.h in (want, FieldElem.const(-1) * want)

    def row_corollary_coin():
        res = analysis.decide_real_corollary(lang.lower(lang.parse("p")).r)
        return res.simulable and res.h == lang.lower(lang.parse("t"))

    def row_construct_p():
        prog = synth.compile(lang.lower(lang.parse("p")))
        return sim.run_symbolic(prog) == lang.lower(lang.parse("p"))

    def row_worked_example():
        prog = synth.worked_example_program()
        ok = sim.run_symbolic(prog) == lang.lower(lang.parse("2*p - 1"))
        rep = sim.expected_cost(prog, Fraction(3, 10))
        return ok and abs(rep.expected_coins - 2 / 0.58) < 1e-9

    def row_fig1():
        f = analysis.parse_piecewise("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4")
        cc = analysis.classify_cc(f)
        qq = analysis.classify_qq(f)
        return cc.verdict == "yes" and cc.witness_n == 1 and qq.verdict == "no"

    def row_eq1():
        h = lang.lower(lang.parse("p - 1/2"))
        f = analysis.PiecewiseFn.from_ratfn(
            analysis.read_real_ratfn("(p-1/2)^2/(1+(p-1/2)^2)"))
        cc = analysis.classify_cc(f)
        qq = analysis.classify_qq(f)
        return cc.verdict == "no" and qq.verdict == "yes" \
            and analysis.verify_spb(h, analysis.classify_qc(h))

    def row_p_squared():
        f = analysis.PiecewiseFn.from_ratfn(lang.lower(lang.parse("p^2")).r)
        w = lang.lower(lang.parse(stmt3))
        rep = analysis.classify(f, witness=w)
        return rep.cc.verdict == "yes" and rep.qq.verdict == "yes" \
            and rep.qc is not None and analysis.verify_spb(w, rep.qc)

    def row_fig2():
        # CC\QQ, QQ\CC and CC&QQ are the three rows above, which also check
        # that their QQ members pass the QC predicate; so does the coin
        t = lang.lower(lang.parse("t"))
        return row_fig1() and row_eq1() and row_p_squared() \
            and analysis.verify_spb(t, analysis.classify_qc(t))

    def row_orders():
        from .field import vanishing_order
        t = lang.lower(lang.parse("t"))
        sq = lang.lower(lang.parse("(p-1/2)^2"))
        return vanishing_order(t, 0).order == Fraction(1, 2) \
            and vanishing_order(t, 1).order == Fraction(-1, 2) \
            and vanishing_order(sq, Fraction(1, 2)).order == 2

    return [
        ("print/parse round-trip on the two-coin example function", row_parse),
        ("t + p - 1/2 simulable", row_decide_yes),
        ("sqrt(p^2/(1-p^2)) not simulable, odd factors {1-p, 1+p}", row_stmt2),
        ("phased tuple for p^2 simulable", row_stmt3),
        ("phased witness checks |h|^2 = p^2/(1-p^2)", row_phased),
        ("square-root decision recovers 1-2p for the two-coin function",
         row_corollary_sii),
        ("square-root decision recovers t for f = p", row_corollary_coin),
        ("compiled coin-to-p program simulates to ratio p", row_construct_p),
        ("two-coin protocol: ratio 2p-1, expected coins 2/0.58 at p0=0.3",
         row_worked_example),
        ("piecewise-constant counterexample: CC yes (n=1), QQ no", row_fig1),
        ("(p-1/2) ratio function: QQ yes, CC no, SPB verified", row_eq1),
        ("p^2: CC and QQ overlap with checked witness", row_p_squared),
        ("set relations: CC\\QQ, QQ\\CC, CC&QQ nonempty, QQ inside QC",
         row_fig2),
        ("vanishing orders: t at 0 and 1, (p-1/2)^2 at 1/2", row_orders),
    ]


def _passes(name: str, row) -> bool:
    """One fixture row; a crash is a failing row, named on stderr."""
    try:
        return bool(row())
    except Exception as err:
        print(f"{name}: error {err!r}", file=sys.stderr)
        return False


def cmd_fixtures(args) -> int:
    rows = [(name, _passes(name, row)) for name, row in _fixture_rows()]
    if args.json:
        print(json.dumps({"rows": [{"name": n, "pass": ok} for n, ok in rows],
                          "all_pass": all(ok for _, ok in rows)}))
    else:
        width = max(len(n) for n, _ in rows)
        for name, ok in rows:
            print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in rows) else 1


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is bad input like any other: one line, exit 1
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building it costs more than a short command."""
    parser = _ArgumentParser(
        prog="coinfield",
        description="Exact toolkit for quantum-coin amplitude ratios: decide "
                    "simulability, compile postselected circuit programs, "
                    "execute them exactly or stochastically, classify "
                    "probability functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("parse", cmd_parse, help="parse an expression and print it back")
    p.add_argument("expr")

    p = add("decide", cmd_decide,
            help="is this target ratio simulable from the coin?")
    p.add_argument("expr")

    p = add("corollary", cmd_corollary,
            help="real square-root decision for a probability function")
    p.add_argument("expr")

    p = add("classify", cmd_classify,
            help="CC/QC/QQ classification of a probability function")
    p.add_argument("fspec", help="expression, or path to a piecewise file "
                                 "([a,b) expr lines)")
    p.add_argument("--witness", help="phased ratio witness expression")

    p = add("compile", cmd_compile,
            help="compile a simulable ratio to a circuit program (JSON)")
    p.add_argument("expr")

    p = add("simulate", cmd_simulate,
            help="exact symbolic output ratio of a program")
    p.add_argument("program", nargs="?", help="program JSON file (default stdin)")

    p = add("run", cmd_run, help="Monte Carlo execution of a program")
    p.add_argument("program", nargs="?")
    p.add_argument("--p0", required=True, help="coin bias, e.g. 0.3 or 3/10")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=int, default=1000)

    p = add("cost", cmd_cost, help="analytic expected cost of a program")
    p.add_argument("program", nargs="?")
    p.add_argument("--p0", required=True)

    add("fixtures", cmd_fixtures,
        help="run the worked-example suite, print a PASS/FAIL table")
    return parser


# ArithmeticError covers a division by zero and a --p0 too large for a
# float; json.loads raises RecursionError on deeply nested text
_BAD_INPUT = (ValueError, OSError, ArithmeticError, RecursionError)


def main(argv=None) -> int:
    """Run one command. Its report reaches stdout only if the command ends
    without error; bad input prints one stderr line and exits 1."""
    try:
        args = _parser().parse_args(argv)
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = args.fn(args)
    except _BAD_INPUT as err:
        print(f"bad input: {err}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(report.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device, so that the
        # flush at exit writes what is left there instead of raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
