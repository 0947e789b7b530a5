"""Independent float evaluation of printed coinfield expressions.

The checks compare the toolkit's exact results with values computed here,
so this module shares no code with coinfield: it reads the printed form of
an element (the user-facing grammar of the README: integers, p, t, i,
sqrt2, sqrt(...), + - * / ^ and parentheses) and evaluates it in complex
floats at one coin bias p0.
"""

from __future__ import annotations

import cmath
import math
import re

_TOKEN = re.compile(r"\s*(?:(\d+)|(sqrt2|sqrt|p|t|i)|([-+*/^()]))")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def evaluate(text: str, p0: float) -> complex:
    """Value of a printed expression at coin bias p0, t = sqrt(p0/(1-p0))."""
    toks = _tokens(text)
    pos = 0
    atoms = {"p": complex(p0), "t": complex(math.sqrt(p0 / (1 - p0))),
             "i": 1j, "sqrt2": complex(math.sqrt(2))}

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(want=None):
        nonlocal pos
        tok = peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r} in {text!r}")
        pos += 1
        return tok

    def expr():
        v = term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    def term():
        v = unary()
        while peek() in ("*", "/"):
            v = v * unary() if take() == "*" else v / unary()
        return v

    def unary():
        if peek() == "-":
            take()
            return -unary()
        return power()

    def power():
        base = atom()
        if peek() != "^":
            return base
        take()
        sign = -1 if peek() == "-" else 1
        if sign < 0:
            take()
        return base ** (sign * int(take()))

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            take(")")
            return v
        if tok == "sqrt":
            take("(")
            v = expr()
            take(")")
            return cmath.sqrt(v)
        if tok in atoms:
            return atoms[tok]
        if tok.isdigit():
            return complex(int(tok))
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    value = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return value


def close(got: complex, want: complex, scale: float, rel: float = 1e-7) -> bool:
    """got == want up to rel times the magnitude of the terms that formed want."""
    return abs(got - want) <= rel * max(1.0, scale)
