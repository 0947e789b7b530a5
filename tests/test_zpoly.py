"""The Z[z] polynomial kernel, z = exp(i*pi/4): gcd, exact quotient and
norm inverse against the Fraction arithmetic of polys, the canonical form
of integer parts against the Euclidean one, and run_symbolic's canonical
form against FieldElem.from_abc."""

import random
from pathlib import Path

import pytest

from coinfield import sim
from coinfield.field import FieldElem
from coinfield.lang import lower, parse
from coinfield.polys import (Poly, _canonical_euclid, poly_gcd, zeta_canonical,
                             zeta_poly)
from coinfield.scalars import from_zeta
from coinfield.synth import compile
from coinfield.zpoly import (Z1, content, exquo, gcd, pair_mul, pmul, zinv,
                             zmul)

from test_acceptance import _random_elem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# contents that are not rational: 1 + z has norm 2 and 2 + z norm 17
ONE_PLUS_Z = (1, 1, 0, 0)
TWO_PLUS_Z = (2, 1, 0, 0)


def to_poly(f) -> Poly:
    return Poly([from_zeta(c) for c in f])


def rand_elem(rnd, span=3):
    while True:
        x = tuple(rnd.randint(-span, span) for _ in range(4))
        if any(x):
            return x


def rand_poly(rnd, degree, span=3):
    """A random polynomial of exactly this degree."""
    return [tuple(rnd.randint(-span, span) for _ in range(4))
            for _ in range(degree)] + [rand_elem(rnd, span)]


def zpow(x, k):
    out = Z1
    for _ in range(k):
        out = zmul(out, x)
    return out


def rand_factor(rnd):
    """A random common factor, often with a content that is not rational."""
    content = rnd.choice([Z1, zpow(ONE_PLUS_Z, rnd.randint(1, 5)),
                          zpow(TWO_PLUS_Z, rnd.randint(1, 3)), (6, 0, 0, 0)])
    return pmul([content], rand_poly(rnd, rnd.randint(1, 3)))


def assert_normal(g):
    """A positive integer leading coefficient, integers of gcd 1."""
    assert g[-1][0] > 0 and not any(g[-1][1:])
    assert content(g) == 1


def assert_gcd_matches(polys):
    got = gcd(polys)
    want = Poly()
    for f in polys:
        want = poly_gcd(want, to_poly(f)) if not want.is_zero() \
            else to_poly(f).monic()
    if not got:
        assert want.is_zero()
        return
    assert_normal(got)
    assert to_poly(got).monic() == want


def test_norm_inverse():
    rnd = random.Random(5)
    for _ in range(300):
        y = rand_elem(rnd, 9)
        m, n = zinv(y)
        assert n > 0 and zmul(y, m) == (n, 0, 0, 0)
    assert zinv((-4, 0, 0, 0)) == ((-1, 0, 0, 0), 4)


def naive_product(f, g):
    """f*g by the schoolbook convolution with zmul, trailing zeros dropped."""
    out = [(0, 0, 0, 0)] * (len(f) + len(g))
    for j, a in enumerate(f):
        for k, b in enumerate(g):
            out[j + k] = tuple(x + y for x, y in zip(out[j + k], zmul(a, b)))
    while out and out[-1] == (0, 0, 0, 0):
        out.pop()
    return out


def test_pmul_matches_the_naive_convolution():
    # a one-term factor on either side is a scale and [Z1] returns the other
    # list itself; the lists are shared, so neither operand may change
    rnd = random.Random(29)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 4), (4, 1), (1, 1), (3, 5)]
    for _ in range(40):
        for lf, lg in shapes:
            f = rand_poly(rnd, lf - 1) if lf else []
            g = rand_poly(rnd, lg - 1) if lg else []
            for f, g in ((f, g), ([Z1], g), (f, [Z1]), ([], g), (f, [])):
                saved = (list(f), list(g))
                assert pmul(f, g) == naive_product(f, g)
                assert (f, g) == saved
    f = rand_poly(rnd, 3)
    assert pmul([Z1], f) is f and pmul(f, [Z1]) is f
    assert pmul([], f) == pmul(f, []) == [] == pmul([], [])


def test_gcd_of_products_with_a_common_factor():
    rnd = random.Random(11)
    for _ in range(150):
        g = rand_factor(rnd)
        f1 = pmul(g, rand_poly(rnd, rnd.randint(0, 5)))
        f2 = pmul(g, rand_poly(rnd, rnd.randint(0, 2)))
        assert_gcd_matches([f1, f2])
        assert_gcd_matches([f2, f1])


def test_gcd_of_coprime_pairs_and_degree_gaps():
    rnd = random.Random(13)
    for _ in range(100):
        f1 = rand_poly(rnd, rnd.randint(3, 7))
        f2 = rand_poly(rnd, rnd.randint(0, 1))
        assert_gcd_matches([f1, f2])
    # p^6 - 1 and p^2 - 1 share p^2 - 1, four degrees apart
    six = [(-1, 0, 0, 0)] + [(0, 0, 0, 0)] * 5 + [Z1]
    two = [(-1, 0, 0, 0), (0, 0, 0, 0), Z1]
    assert gcd([six, two]) == two
    assert gcd([six, [(0, 0, 0, 0), Z1]]) == [Z1]


def test_gcd_of_three_and_of_zero_and_constant_operands():
    rnd = random.Random(17)
    for _ in range(60):
        g = rand_factor(rnd)
        polys = [pmul(g, rand_poly(rnd, rnd.randint(0, 3))) for _ in range(3)]
        assert_gcd_matches(polys)
    f = pmul([TWO_PLUS_Z], rand_poly(rnd, 3))
    assert gcd([]) == [] and gcd([[], []]) == []
    assert_gcd_matches([[], f])
    assert_gcd_matches([f, []])
    assert gcd([[TWO_PLUS_Z], f]) == [Z1] and gcd([f, [ONE_PLUS_Z]]) == [Z1]
    assert gcd([[ONE_PLUS_Z]]) == [Z1]


def test_exact_quotient_times_divisor_is_the_dividend():
    # the normal form of g, what the simulator divides by, may leave a
    # quotient that is integral only after a scale s > 1
    rnd = random.Random(19)
    scales = []
    for _ in range(150):
        g = rand_factor(rnd)
        polys = [pmul(g, rand_poly(rnd, rnd.randint(0, 4))) for _ in range(3)]
        polys.append([])
        for div in (g, gcd([g])):
            quots, s = exquo(polys, div)
            scales.append(s)
            for f, q in zip(polys, quots):
                assert pmul(q, div) == [tuple(s * x for x in c) for c in f]
    assert min(scales) == 1 and max(scales) > 1
    with pytest.raises(ValueError):
        exquo([[Z1, Z1]], [Z1, (0, 0, 1, 0)])


# coefficient shapes over Z[z]: Gaussian a + b*i, real a + b*sqrt2
# (sqrt2 = z - z^3), plain integers, and any element
_SHAPES = {"gaussian": lambda a, b, c, d: (a, 0, b, 0),
           "sqrt2": lambda a, b, c, d: (a, b, 0, -b),
           "integer": lambda a, b, c, d: (a, 0, 0, 0),
           "zeta": lambda a, b, c, d: (a, b, c, d)}


def _trim(cs):
    while cs and cs[-1] == (0, 0, 0, 0):
        cs = cs[:-1]
    return cs


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_zeta_canonical_matches_euclid(shape):
    # the parts share a planted factor g; the canonical form is unique, so
    # the integer routine must give the Euclidean path's Polys part for part
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    small = st.integers(-4, 4)
    coeff = st.builds(_SHAPES[shape], small, small, small, small)
    poly = st.lists(coeff, max_size=4).map(_trim)
    nonzero = poly.filter(bool)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(nonzero, st.lists(poly, min_size=1, max_size=2), nonzero)
    def check(den, nums, g):
        hypothesis.assume(any(nums))
        den, nums = pmul(den, g), [pmul(f, g) for f in nums]
        got = zeta_canonical(den, *nums)
        n = got[0][-1]
        assert n[0] > 0 and n[1:] == (0, 0, 0)
        assert content([c for f in got for c in f]) == 1
        want = _canonical_euclid(to_poly(den), tuple(map(to_poly, nums)))
        assert [zeta_poly(f, n[0]) for f in got] == list(want)
        assert zeta_canonical(den, []) == [[Z1], []]

    check()


def from_abc_oracle(prog):
    """The output ratio by the Fraction path: the rationalised parts of the
    exact pass as Polys, brought to canonical form by FieldElem.from_abc."""
    state, _ = sim._exact_pass(prog, None)
    (a0, b0), (a1, b1) = state.group_of[prog.output].amps
    conj = (a1, sim._pscale(sim._ZNEG1, b1))
    num = pair_mul((a0, b0), conj, state.wsq)
    den = pair_mul((a1, b1), conj, state.wsq)[0]
    return FieldElem.from_abc(*(zeta_poly(f) for f in (*num, den)))


def _refuse_euclid(*args):
    raise AssertionError("reached polys._canonical_euclid")


def assert_same_parts(prog):
    # run_symbolic normalises on integers alone
    with pytest.MonkeyPatch.context() as m:
        m.setattr("coinfield.polys._canonical_euclid", _refuse_euclid)
        got = sim.run_symbolic(prog)
    want = from_abc_oracle(prog)
    assert (got.A, got.B, got.C) == (want.A, want.B, want.C)
    assert str(got.A) == str(want.A) and str(got.C) == str(want.C)


def test_run_symbolic_parts_on_the_criterion_2_set():
    rnd = random.Random(777)
    for _ in range(100):
        assert_same_parts(compile(_random_elem(rnd)))


def test_run_symbolic_parts_on_benchmark_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = pytest.importorskip("workloads")
    stream = workloads.CompileExecute().stream(random.Random(3))
    for _ in range(200):
        text, _ = next(stream)
        assert_same_parts(compile(lower(parse(text))))
