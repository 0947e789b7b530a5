"""Sorting coin functions into the classical and quantum simulability sets."""

from coinfield import (PiecewiseFn, classify, lower, parse, parse_piecewise)
from coinfield.polys import ONE_RF

# A probability function f maps the unknown bias p to the heads chance of a
# new coin. Three sets matter: CC (classical circuits from classical coins),
# QC (quantum circuits read out classically), and QQ (quantum coin out,
# f = |k0|^2 of a simulable amplitude pair). The classifier reports each.


def show(tag, f, **kw):
    rep = classify(f, **kw)
    cc = rep.cc.verdict + (f" (n={rep.cc.witness_n})" if rep.cc.witness_n else "")
    qq = rep.qq.verdict
    qc = "-"
    if rep.qc is not None:
        pts = [f"{e.kind}@{e.point}" for e in rep.qc.zeros + rep.qc.ones]
        qc = "yes " + (", ".join(pts) if pts else "(no special points)")
    print(f"{tag:34s} CC {cc:10s} QC {qc:28s} QQ {qq}")
    print(f"{'':34s} note: {rep.qq.reason}")


# Neither set contains the other; two lines show it.
# The tent p, then 1 - p: continuous and meeting 0 and 1 only at the ends,
# so classically reachable (Keane and O'Brien). But |h|^2/(1 + |h|^2) is
# real-analytic on (0, 1), and one that equals a rational piece on an
# interval equals it everywhere, so no f with two distinct pieces is
# reachable quantum-to-quantum.
show("tent: p, then 1 - p", parse_piecewise("[0,1/2) p\n[1/2,1] 1 - p"))

# The square of p - 1/2, renormalized into [0,1]: its interior zero kills
# the classical polynomial bound, yet the ratio p - 1/2 is in the field, so
# the function is reachable quantum-to-quantum.
u = lower(parse("(p-1/2)^2")).r
show("(p-1/2)^2 / (1 + (p-1/2)^2)",
     PiecewiseFn.from_ratfn(u / (ONE_RF + u)))

# p^2 sits in both: classically bounded, and quantumly reachable through a
# complex witness whose modulus is p^2/(1-p^2). Handing the witness to the
# classifier also produces the local-bound certificate for the QC set.
show("p^2 (with phased witness)",
     PiecewiseFn.from_ratfn(lower(parse("p^2")).r),
     witness=lower(parse("(sqrt2*p/(1+p))*t + i*p/(1+p)")))

# Constants are always reachable; the witness is a constant coin when
# sqrt(c/(1-c)) lives in Q(i, sqrt2), as for c = 1/3.
show("constant 1/3", parse_piecewise("[0,1] 1/3"))
show("constant 3/4", parse_piecewise("[0,1] 3/4"))
