"""Dense polynomials over Z[z], z = exp(i*pi/4): the integer kernel of the
simulator's exact pass and of lowering.

An element of Z[z] is an int 4-tuple (c0, c1, c2, c3) meaning
c0 + c1*z + c2*z^2 + c3*z^3, with z^4 = -1. A polynomial in p is a list of
such tuples, ascending degree, no trailing zero tuple; [] is zero. Lists are
never changed once built, so they are shared.

Division by a nonzero element y is exact through its norm: y times its
other three conjugates s3(y)*s5(y)*s7(y), where s_k maps z to z^k, is the
positive integer N(y), so x/y = x*s3(y)*s5(y)*s7(y)/N(y). gcd runs the
Euclidean remainder sequence of Q(z)[p] on integers: each remainder is made
monic by that division and kept as the one integral multiple of its monic
associate whose integers have gcd 1 (normal), so its leading coefficient is
a positive integer.
"""

from __future__ import annotations

import math

Z0 = (0, 0, 0, 0)
Z1 = (1, 0, 0, 0)
ZNEG1 = (-1, 0, 0, 0)
W_SQUARED = [Z0, Z1, ZNEG1]  # w^2 = p(1 - p)


def zmul(x, y):
    """Product in Z[z], a negacyclic convolution since z^4 = -1."""
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def zconj(x):
    """Complex conjugate: z -> z^-1 = -z^3."""
    c0, c1, c2, c3 = x
    return (c0, -c3, -c2, -c1)


def zinv(y):
    """(m, n) with y*m = n, n the norm N(y) > 0: x/y = x*m/n. For a nonzero
    integer y, m is its sign."""
    y0, y1, y2, y3 = y
    if not (y1 or y2 or y3):
        return ((1 if y0 > 0 else -1), 0, 0, 0), abs(y0)
    # s5(y) = y(-z); u = y*s5(y) lies in Z[i], and u*conj(u) = |u|^2
    s5 = (y0, -y1, y2, -y3)
    u0, _, u2, _ = zmul(y, s5)
    return zmul(s5, (u0, 0, -u2, 0)), u0 * u0 + u2 * u2


def padd(f, g):
    if len(f) < len(g):
        f, g = g, f
    if not g:
        return f
    out = list(f)
    for k, (b0, b1, b2, b3) in enumerate(g):
        a0, a1, a2, a3 = out[k]
        out[k] = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
    if len(f) == len(g):
        while out and out[-1] == Z0:
            out.pop()
    return out


def pscale(m, f):
    """m*f for a nonzero tuple m."""
    return [zmul(m, c) for c in f]


def pmul(f, g):
    """f*g; a one-term factor is a scale, and [Z1] returns the other list."""
    if len(f) == 1 or len(g) == 1:
        if len(g) != 1:
            f, g = g, f
        return f if g[0] == Z1 else pscale(g[0], f)
    if not f or not g:
        return []
    n = len(f) + len(g) - 1
    r0, r1, r2, r3 = [0] * n, [0] * n, [0] * n, [0] * n
    for j, (a0, a1, a2, a3) in enumerate(f):
        for k, (b0, b1, b2, b3) in enumerate(g, j):
            r0[k] += a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1
            r1[k] += a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2
            r2[k] += a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3
            r3[k] += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
    # Z[z] has no zero divisors, so the top coefficient is nonzero
    return list(zip(r0, r1, r2, r3))


def pair_mul(x, y, wsq):
    """(a0 + a1*w)(b0 + b1*w) as a pair, with w^2 the polynomial wsq."""
    (a0, a1), (b0, b1) = x, y
    return (padd(pmul(a0, b0), pmul(pmul(a1, b1), wsq)),
            padd(pmul(a0, b1), pmul(a1, b0)))


def pair_pow(x, n: int, wsq):
    """x^n for a pair x meaning a0 + a1*w and n >= 0, by repeated squaring."""
    out = ([Z1], [])
    while n:
        if n & 1:
            out = pair_mul(out, x, wsq)
        n >>= 1
        if n:
            x = pair_mul(x, x, wsq)
    return out


def pair_norm(x):
    """(a0 + a1*w)(a0 - a1*w) = a0^2 - a1^2*p(1-p) for a pair x."""
    a0, a1 = x
    return padd(pmul(a0, a0), pmul(pmul(a1, a1), [Z0, ZNEG1, Z1]))


# parts (A, B, C) mean (A + B*w)/C; these formulas take no gcd

def parts_add(x, y):
    (a1, b1, c1), (a2, b2, c2) = x, y
    if c1 == c2:
        return padd(a1, a2), padd(b1, b2), c1
    return (padd(pmul(a1, c2), pmul(a2, c1)),
            padd(pmul(b1, c2), pmul(b2, c1)), pmul(c1, c2))


def parts_mul(x, y):
    (a1, b1, c1), (a2, b2, c2) = x, y
    return (*pair_mul((a1, b1), (a2, b2), W_SQUARED), pmul(c1, c2))


def parts_inverse(x):
    """C*(A - B*w) over A^2 - B^2*p(1-p), or C/A when B is zero."""
    a, b, c = x
    if not b:
        if not a:
            raise ZeroDivisionError("inverse of the zero element")
        return c, b, a
    return pmul(c, a), pscale(ZNEG1, pmul(c, b)), pair_norm((a, b))


def parts_pow(x, n: int):
    """x^n, by pair_pow over C^|n|, then inverted when n < 0."""
    if n < 0:
        return parts_inverse(parts_pow(x, -n))
    a, b, c = x
    return (*pair_pow((a, b), n, W_SQUARED), pair_pow((c, []), n, [])[0])


def content(f) -> int:
    """The gcd of every integer in f, an iterable of tuples; 0 for none."""
    g = 0
    for c in f:
        g = math.gcd(g, *c)
        if g == 1:
            return 1
    return g


def normal(*fs):
    """The integral multiples of the lists over the leading coefficient of
    the first, which is nonzero, whose integers together have gcd 1; the
    first then has a positive integer leading coefficient."""
    m, _ = zinv(fs[0][-1])
    if m != Z1:
        fs = [pscale(m, g) for g in fs]
    k = content(c for g in fs for c in g)
    return [g if k == 1 else [tuple(x // k for x in c) for c in g]
            for g in fs]


def _divide(f, g):
    """(q, r, s) with s*f = q*g + r, deg r < deg g, for nonzero g and a
    positive integer s. Each quotient coefficient is the top of the
    remainder divided by lc(g) through its norm; when that leaves a
    fraction, the remainder and the quotient so far are scaled by the
    least integer that clears it, and s collects those scales."""
    dg = len(g) - 1
    nq = len(f) - dg
    if nq <= 0:
        return [], f, 1
    m, n = zinv(g[-1])
    r0, r1, r2, r3 = (list(col) for col in zip(*f))
    q = [Z0] * nq
    s = 1
    low = g[:dg]
    for k in range(nq - 1, -1, -1):
        top = k + dg
        x = (r0[top], r1[top], r2[top], r3[top])
        if x == Z0:
            continue
        if m != Z1:
            x = zmul(x, m)
        e = n // math.gcd(n, *x)
        if e > 1:
            s *= e
            x = tuple(v * e for v in x)
            r0, r1, r2, r3 = ([v * e for v in col[:top]]
                              for col in (r0, r1, r2, r3))
            q[k + 1:] = [tuple(v * e for v in c) for c in q[k + 1:]]
        c0, c1, c2, c3 = q[k] = tuple(v // n for v in x)
        for j, (b0, b1, b2, b3) in enumerate(low, k):
            r0[j] -= c0 * b0 - c1 * b3 - c2 * b2 - c3 * b1
            r1[j] -= c0 * b1 + c1 * b0 - c2 * b3 - c3 * b2
            r2[j] -= c0 * b2 + c1 * b1 + c2 * b0 - c3 * b3
            r3[j] -= c0 * b3 + c1 * b2 + c2 * b1 + c3 * b0
    r = list(zip(r0[:dg], r1[:dg], r2[:dg], r3[:dg]))
    while r and r[-1] == Z0:
        r.pop()
    return q, r, s


def gcd(polys):
    """The gcd over Q(z) of the polynomials, in its normal form: a positive
    integer leading coefficient and integers of gcd 1; [Z1] when they are
    coprime, [] when all are zero."""
    g = []
    for f in polys:
        if not f:
            continue
        if not g:
            g = normal(f)[0]
            continue
        if len(f) == 1 or len(g) == 1:
            return [Z1]
        if len(f) > len(g):
            f, g = g, f
        f = normal(f)[0]
        while True:
            r = _divide(g, f)[1]
            if not r:
                g = f
                break
            if len(r) == 1:
                return [Z1]
            g, f = f, normal(r)[0]
    return g


def exquo(polys, g):
    """(quotients, s) with s*f = q*g for each f in polys and its q, one
    positive integer s for all of them, for nonzero g dividing each f over
    Q(z). Raises ValueError when g does not divide some f."""
    parts = [_divide(f, g) for f in polys]
    if any(r for _, r, _ in parts):
        raise ValueError("the divisor does not divide every polynomial")
    s = math.lcm(*(e for _, _, e in parts)) if parts else 1
    return [q if e == s else [tuple(v * (s // e) for v in c) for c in q]
            for q, _, e in parts], s
