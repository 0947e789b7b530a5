"""Reading off vanishing orders of amplitude ratios, with exact residuals."""

from fractions import Fraction

from coinfield import (fe_mul, isolate_roots, lower, parse, vanishing_order,
                       vanishing_order_at_point)

# Every ratio h = r + s*t is held as (A + B*w)/C with w = sqrt(p(1-p)).
# The order of h at a point z counts how fast |h| dies (or blows up, when
# negative). Orders are half-integers at the endpoints because w itself
# carries a factor sqrt(p) at 0 and sqrt(1-p) at 1.

def order_at(expr, z):
    res = vanishing_order(lower(parse(expr)), z)
    print(f"  ord_{float(z):<4g} {expr:18s} = {res.order}   residual {res.residual}")
    return res.order

print("endpoint and interior orders")
order_at("t", 0)                      # the raw coin: half-order zero at p=0
order_at("t", 1)                      # and a half-order pole at p=1
order_at("(p-1/2)^2", Fraction(1, 2))
order_at("1/t", 0)
order_at("p*t", 0)

# Orders add under multiplication. Check it on a compound ratio both ways:
# read the product directly, then sum the factors.
print()
print("additivity under fe_mul")
h1 = lower(parse("p*t"))
h2 = lower(parse("(p-1/2)^2/t"))
for z in (Fraction(0), Fraction(1, 2), Fraction(1)):
    o1 = vanishing_order(h1, z).order
    o2 = vanishing_order(h2, z).order
    o12 = vanishing_order(fe_mul(h1, h2), z).order
    print(f"  z={float(z):<4g} ord(h1)={o1}  ord(h2)={o2}  ord(h1*h2)={o12}"
          f"  additive: {o12 == o1 + o2}")

# Irrational points work too when handed over exactly: p^2 - 1/2 vanishes at
# 1/sqrt(2), delivered as a squarefree polynomial plus an isolating interval.
print()
print("an algebraic zero")
h = lower(parse("p^2 - 1/2"))
_, points = isolate_roots(h.A.real_part(), 0, 1)
for pt in points:
    res = vanishing_order_at_point(h, pt)
    print(f"  point ~ {pt.approx():.6f} in [{pt.lo}, {pt.hi}]"
          f"  order {res.order}  residual {res.residual}")
