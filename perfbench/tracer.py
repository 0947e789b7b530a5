"""Tracing wrappers around coinfield's public functions, for the traced run.

install() replaces each traced function by a wrapper wherever the package
looks it up: module attributes in every coinfield module that imported it
by name (poly_gcd lives in both coinfield.polys and coinfield.field, fe_eval
in coinfield.field and coinfield.analysis) and class attributes such as
RatFn.__init__ or FieldElem.__mul__, including aliases like __rmul__.
uninstall() puts the originals back.

A span wrapper records one span (kind, start, end, parent span, item id) in
compact in-memory arrays and adds its self time, its duration minus the time
its child spans cover, to the kind's total. Each item runs inside a root span
"bench.item", so over an item the self times of all kinds add up to the
item's traced time. Count-only wrappers (scalar arithmetic, too hot for a
span) just count calls.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

from coinfield import analysis, cli, field, lang, polys, scalars, sim, synth

# span kind -> the functions it covers, as (owner, attribute name)
SPANS = {
    "cli.main": [(cli, "main")],
    "lang.parse": [(lang, "parse")],
    "lang.lower": [(lang, "lower")],
    # the square-root decision; _lower_sqrt is the one entry both sqrt(...)
    # lowering and field_sqrt go through
    "lang.sqrt_decision": [(lang, "_lower_sqrt")],
    "synth.compile": [(synth, "compile")],
    "synth.validate": [(synth, "validate_program")],
    "synth.json": [(synth, "program_to_json"), (synth, "program_from_json")],
    "sim.run_symbolic": [(sim, "run_symbolic")],
    "sim.expected_cost": [(sim, "expected_cost")],
    "sim.run_numeric": [(sim, "run_numeric")],
    "analysis.classify": [(analysis, "classify")],
    "analysis.classify_cc": [(analysis, "classify_cc")],
    "analysis.classify_qc": [(analysis, "classify_qc")],
    "analysis.verify_spb": [(analysis, "verify_spb")],
    "analysis.classify_qq": [(analysis, "classify_qq")],
    "analysis.decide": [(analysis, "decide_qq_ratio")],
    "analysis.corollary": [(analysis, "decide_real_corollary")],
    "analysis.parse_piecewise": [(analysis, "parse_piecewise")],
    "field.vanishing_order": [(field, "vanishing_order"),
                              (field, "vanishing_order_at_point")],
    "polys.gcd": [(polys, "poly_gcd")],
    "polys.mul": [(polys.Poly, "__mul__")],
    "polys.eval_exact": [(polys.Poly, "eval_exact")],
    "polys.sturm": [(polys, "sturm_count")],
    "polys.isolate": [(polys, "isolate_roots")],
    "polys.certify_nonneg": [(polys, "certify_nonneg")],
    "polys.square_test": [(polys, "square_test")],
    "polys.squarefree": [(polys, "squarefree_decompose")],
}
# FieldElem operations: spans that also count as field operations for
# norms_per_op (RatFn normalisations per outermost FieldElem operation)
FE_SPANS = {
    "field.fe_add": [(field.FieldElem, "__add__")],
    "field.fe_mul": [(field.FieldElem, "__mul__")],
    "field.fe_inv": [(field.FieldElem, "inverse")],
    "field.fe_other": [(field.FieldElem, name) for name in
                       ("__sub__", "__neg__", "__truediv__", "__pow__",
                        "conj", "mod_squared")],
}
NORM_SPAN = ("polys.ratfn_norm", (polys.RatFn, "__init__"))
DIVMOD_SPAN = ("polys.divmod", (polys.Poly, "__divmod__"))
COUNTS = {
    "scalars.mul": [(scalars.Scalar, "__mul__")],
    "scalars.inverse": [(scalars.Scalar, "inverse")],
    "field.fe_eval": [(field, "fe_eval")],
}
ITEM = "bench.item"
# time spent inside an item on the tracer's own bookkeeping that is not
# inside a span (the divmod peak scan); kept as a kind so self times add up
HOOK = "trace.hook"


def _poly_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients;
    falls back to the JSON form if the coefficient layout is different."""
    try:
        parts = [x for c in poly.coeffs for x in (c.a, c.b, c.c, c.d)]
    except AttributeError:
        parts = [Fraction(x) for c in poly.to_json() for x in c]
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for x in parts), default=0)


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []
        self._kind_id: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.stack: list[int] = []
        self.child: list[float] = []
        self.item_id = -1
        self.fe_depth = 0
        self.fe_ops = 0
        self.fe_norms = 0
        self.peak_degree = 0
        self.peak_bits = 0
        self.programs = []
        self._undo: list[tuple[object, str, object]] = []

    # -- bookkeeping -------------------------------------------------------

    def kind_id(self, name: str) -> int:
        if name not in self._kind_id:
            self._kind_id[name] = len(self.kinds)
            self.kinds.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._kind_id[name]

    def _open(self, k: int) -> int:
        idx = len(self.kind)
        self.kind.append(k)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.calls[k] += 1
        self.stack.append(idx)
        self.child.append(0.0)
        start = time.perf_counter()
        self.start.append(start)
        return idx

    def _close(self, k: int, idx: int) -> None:
        end = time.perf_counter()
        self.end[idx] = end
        dur = end - self.start[idx]
        self.stack.pop()
        self.self_s[k] += dur - self.child.pop()
        if self.child:
            self.child[-1] += dur

    def begin_item(self, item_id: int) -> None:
        self.item_id = item_id
        self._root = self._open(self.kind_id(ITEM))

    def end_item(self) -> float:
        """Closes the item's root span and returns its duration."""
        self._close(self.kind_id(ITEM), self._root)
        self.item_id = -1
        return self.end[self._root] - self.start[self._root]

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        k = self.kind_id(name)
        op, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = op(k)
            try:
                return fn(*args, **kw)
            finally:
                close(k, idx)
        return wrapper

    def _fe_span(self, name, fn):
        k = self.kind_id(name)
        op, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not self.fe_depth:
                self.fe_ops += 1
            self.fe_depth += 1
            idx = op(k)
            try:
                return fn(*args, **kw)
            finally:
                close(k, idx)
                self.fe_depth -= 1
        return wrapper

    def _norm_span(self, name, fn):
        k = self.kind_id(name)
        op, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if self.fe_depth:
                self.fe_norms += 1
            idx = op(k)
            try:
                return fn(*args, **kw)
            finally:
                close(k, idx)
        return wrapper

    def _divmod_span(self, name, fn):
        k = self.kind_id(name)
        hook = self.kind_id(HOOK)
        op, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(a, b):
            idx = op(k)
            try:
                q, r = fn(a, b)
            finally:
                close(k, idx)
            h = op(hook)
            for poly in (a, b, q, r):
                self.peak_degree = max(self.peak_degree, poly.degree)
                self.peak_bits = max(self.peak_bits, _poly_bits(poly))
            close(hook, h)
            return q, r
        return wrapper

    def _compile_span(self, name, fn):
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            prog = inner(*args, **kw)
            self.programs.append(prog)
            return prog
        return wrapper

    def _count(self, name, fn):
        k = self.kind_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            calls[k] += 1
            return fn(*args, **kw)
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr, make) -> None:
        """Wrap owner.attr and rebind every place that holds the same
        function: coinfield module globals and class-dict aliases."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        wrapped = make(original)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "coinfield"
                                             or n.startswith("coinfield."))]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, name, value))
                    setattr(holder, name, wrapped)

    def install(self) -> None:
        for name, targets in SPANS.items():
            for owner, attr in targets:
                if name == "synth.compile":
                    self._rebind(owner, attr,
                                 lambda fn, n=name: self._compile_span(n, fn))
                else:
                    self._rebind(owner, attr, lambda fn, n=name: self._span(n, fn))
        for name, targets in FE_SPANS.items():
            for owner, attr in targets:
                self._rebind(owner, attr, lambda fn, n=name: self._fe_span(n, fn))
        name, (owner, attr) = NORM_SPAN
        self._rebind(owner, attr, lambda fn: self._norm_span(name, fn))
        name, (owner, attr) = DIVMOD_SPAN
        self._rebind(owner, attr, lambda fn: self._divmod_span(name, fn))
        for name, targets in COUNTS.items():
            for owner, attr in targets:
                self._rebind(owner, attr, lambda fn, n=name: self._count(n, fn))
        self.kind_id(ITEM)

    def uninstall(self) -> None:
        while self._undo:
            holder, name, value = self._undo.pop()
            setattr(holder, name, value)

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans go to an .npz file, kind names to a JSON file beside it."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, kind=np.array(self.kind, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64),
                 parent=np.array(self.parent, dtype=np.int32),
                 item=np.array(self.item, dtype=np.int32))
        with open(path + ".kinds.json", "w") as fh:
            json.dump(self.kinds, fh)
