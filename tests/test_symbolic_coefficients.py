"""Coefficient normal form of the symbolic core, and sympy as an independent oracle.

A stored coefficient is an ``int`` wherever it is integral and a ``Fraction``
only where it is not.  The canonical forms built on that layout (the
normalized gcd and the reduced rational function) are checked against sympy.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import add, sub

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bsatlas import linalg, modgcd
from bsatlas.errors import EvaluationPole
from bsatlas.serialize import poly_from_json, poly_to_json
from bsatlas.laurent import laurent_divide, laurent_frame, laurent_shift, pack_exponent, to_laurent
from bsatlas.symbolic import MultiPoly, RatFunc, VarName, from_laurent, poly_gcd, try_divide
from oracles import fraction_evaluate, packed, unpacked

VARS = tuple(VarName("z", i) for i in range(1, 10))
SYMS = sympy.symbols("z1:10")

coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def poly_triples(draw):
    """Three polynomials in the same 2-4 variables, as lists of (exponents, coeff)."""
    n = draw(st.integers(2, 4))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), coeffs)
    return n, [draw(st.lists(term, max_size=4)) for _ in range(3)]


def _poly(n, terms):
    out = MultiPoly.constant(0)
    for exps, c in terms:
        t = MultiPoly.constant(c)
        for v, k in zip(VARS[:n], exps):
            t = t * MultiPoly.variable(v) ** k
        out = out + t
    return out


def _sympy_expr(n, terms):
    return sympy.Add(
        *(
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.Mul(*(s**k for s, k in zip(SYMS[:n], exps)))
            for exps, c in terms
        )
    )


def _dict_of(p, n):
    """MultiPoly -> {full exponent tuple over z1..zn: Fraction}."""
    pos = [VARS.index(v) for v in p.vars]
    out = {}
    for exp, c in p.terms.items():
        full = [0] * n
        for i, k in zip(pos, exp):
            full[i] = k
        out[tuple(full)] = Fraction(c)
    return out


def _sympy_dict(expr, n):
    poly = sympy.Poly(expr, *SYMS[:n], domain="QQ")
    return {exp: Fraction(int(c.p), int(c.q)) for exp, c in poly.terms() if c != 0}


def _primitive(d):
    """Scale a term dict to integer-primitive with positive graded-lex leading coefficient."""
    if not d:
        return d, Fraction(1)
    num, den = 0, 1
    for c in d.values():
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    scale = Fraction(num, den)
    lead = max(d, key=lambda e: (sum(e), e))
    if d[lead] < 0:
        scale = -scale
    return {e: c / scale for e, c in d.items()}, scale


def _all_exact(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.terms.values())


# -- normal form -----------------------------------------------------------------


def test_integral_coefficients_are_stored_as_int():
    X, Y = MultiPoly.variable(VARS[0]), MultiPoly.variable(VARS[1])
    half = MultiPoly.constant(Fraction(1, 2))
    assert MultiPoly.constant(Fraction(6, 2)).terms == {(): 3}
    assert type(MultiPoly.constant(Fraction(6, 2)).terms[()]) is int
    for p in (
        half * X + half * X,
        (half * X) * 2,
        (half * X) * Fraction(4),
        (half * X) * (MultiPoly.constant(2) * Y),
        X - half * X - half * X + Y,
        try_divide(X * Y + X, MultiPoly.constant(Fraction(1, 2))),
        poly_gcd(half * X * Y, MultiPoly.constant(Fraction(3, 4)) * X),
        poly_from_json({"vars": ["z1"], "terms": [[[1], "4/2"], [[0], "1/3"]]}),
    ):
        assert _all_exact(p), p.terms
    assert type(poly_from_json({"vars": ["z1"], "terms": [[[1], "4/2"]]}).terms[(1,)]) is int


def test_division_by_an_integer_constant_is_exact():
    X = MultiPoly.variable(VARS[0])
    got = try_divide(X + 2, MultiPoly.constant(3))
    assert got.terms == {(1,): Fraction(1, 3), (0,): Fraction(2, 3)}
    assert all(type(c) is Fraction for c in got.terms.values())
    got = try_divide(3 * X + 6, MultiPoly.constant(3))
    assert got.terms == {(1,): 1, (0,): 2} and _all_exact(got)
    assert not any(isinstance(c, float) for c in try_divide(X, MultiPoly.constant(-7)).terms.values())


def test_boundary_values_are_fractions():
    X = MultiPoly.variable(VARS[0])
    for p in (MultiPoly.constant(3), MultiPoly.constant(0), MultiPoly.constant(Fraction(1, 2))):
        assert type(p.constant_value()) is Fraction
        assert type(p.evaluate({})) is Fraction
    assert type((X + 1).evaluate({VARS[0]: 2})) is Fraction
    assert type(RatFunc.constant(3).constant_value()) is Fraction
    f = RatFunc(X * X + 1, X + 1)
    assert type(f.evaluate({VARS[0]: 1})) is Fraction
    assert type(RatFunc.from_poly(X + 1).evaluate({VARS[0]: 2})) is Fraction


@settings(max_examples=80, derandomize=True, deadline=None)
@given(poly_triples(), st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=4, max_size=4))
@example((2, [[], [((0, 0), 3)], [((1, 0), Fraction(-1, 2))]]), [Fraction(-3, 4), Fraction(5)] * 2)
def test_integer_evaluation_agrees_with_fraction_evaluation(triple, values):
    """MultiPoly and RatFunc values, summed over one int denominator, equal the term-by-term Fraction sums:
    int and Fraction coefficients, constants, the zero polynomial, negative and zero values."""
    n, term_lists = triple
    point = dict(zip(VARS, values))
    polys = [_poly(n, terms) for terms in term_lists]
    for p in polys:
        got = p.evaluate(point)
        assert type(got) is Fraction and got == fraction_evaluate(p, point)
    num, den = polys[0], polys[1]
    if den.is_zero():
        return
    f = RatFunc(num, den)
    want_den = fraction_evaluate(f.den, point)
    if want_den == 0:
        with pytest.raises(EvaluationPole):
            f.evaluate(point)
    else:
        assert f.evaluate(point) == fraction_evaluate(f.num, point) / want_den
        with pytest.raises(KeyError, match="no value for variable y1"):
            (f + MultiPoly.variable(VarName("y", 1))).evaluate(point)


def test_text_and_json_do_not_depend_on_coefficient_type():
    X, Y = MultiPoly.variable(VARS[0]), MultiPoly.variable(VARS[1])
    with_int = MultiPoly.constant(3) * X * Y - MultiPoly.constant(2) * Y + MultiPoly.constant(1)
    with_frac = (
        MultiPoly.constant(Fraction(6, 2)) * X * Y
        - MultiPoly.constant(Fraction(-4, -2)) * Y
        + MultiPoly.constant(Fraction(1))
    )
    raw = MultiPoly._make(with_int.vars, {e: Fraction(c) for e, c in with_int.terms.items()})
    for p in (with_frac, raw):
        assert p == with_int and hash(p) == hash(with_int)
        assert p.text() == with_int.text() == "3*z1*z2 - 2*z2 + 1"
        assert poly_to_json(p) == poly_to_json(with_int)
    f, g = RatFunc(with_int, X + 2), RatFunc(raw * 2, MultiPoly.constant(Fraction(2)) * X + Fraction(4))
    assert f == g and hash(f) == hash(g) and f.text() == g.text()


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_arithmetic_keeps_the_normal_form(triple):
    n, (ta, tb, tc) = triple
    a, b, c = _poly(n, ta), _poly(n, tb), _poly(n, tc)
    for p in (a, b, c, a + b, a - b, a * b, a * c + b, poly_gcd(a, b), poly_gcd(a * c, b * c)):
        assert _all_exact(p), p.terms
    if not c.is_zero():
        q = try_divide(a * c, c)
        assert q == a and _all_exact(q)



@settings(max_examples=60, deadline=None)
@given(poly_triples(), st.tuples(*[st.integers(-2, 2)] * 4))
def test_laurent_divide_agrees_with_try_divide(triple, shift):
    """Exact division on exponent tuples agrees with try_divide on polynomial pairs and their
    products, up to the monomials that are units among Laurent polynomials, and stays exact
    when both sides are shifted by Laurent monomials."""
    n, (ta, tb, tc) = triple
    a, b, c = _poly(n, ta), _poly(n, tb), _poly(n, tc)
    assume(not c.is_zero())
    polys = {"a": a, "b": b, "c": c, "ac": a * c, "bc": b * c}
    frame = laurent_frame(RatFunc.from_poly(p) for p in polys.values())
    n = len(frame)
    lau = {k: to_laurent(RatFunc.from_poly(p), frame) for k, p in polys.items()}
    for fk, gk in (("ac", "c"), ("a", "c"), ("bc", "c"), ("ac", "bc"), ("a", "b")):
        f, g = polys[fk], polys[gk]
        got = laurent_divide(lau[fk], lau[gk])
        if g.is_zero():
            assert got is None
            continue
        want = try_divide(f, g)
        if want is not None:
            assert got == to_laurent(RatFunc.from_poly(want), frame)
        # f z^k / g is a polynomial for the k that clears the quotient, for no k if there is none
        k = [-min(x, 0) for x in map(min, zip(*unpacked(got, n)))] if got else list(map(max, zip(*unpacked(lau[gk], n))))
        cleared = try_divide(from_laurent(laurent_shift(lau[fk], pack_exponent(k, n)), frame).num, g)
        assert (got is None) == (cleared is None), (f, g)
        if got is not None:
            assert to_laurent(RatFunc.from_poly(cleared), frame) == laurent_shift(got, pack_exponent(k, n))
            assert all(type(x) is int or x.denominator != 1 for x in got.values())
            e = pack_exponent(shift[:n], n)
            assert laurent_divide(laurent_shift(lau[fk], e), lau[gk]) == laurent_shift(got, e)
            assert laurent_divide(lau[fk], laurent_shift(lau[gk], e)) == laurent_shift(got, -e)


def test_laurent_divide_stops_on_inexact_laurent_input():
    """1/(1 + z1) and z1^-1/(1 + z1) leave a remainder at every step; the box of possible quotient
    exponents ends the division with None."""
    one_plus_z = packed({(1,): 1, (0,): 1}, 1)
    assert laurent_divide(packed({(0,): 1}, 1), one_plus_z) is None
    assert laurent_divide(packed({(-1,): 1}, 1), one_plus_z) is None
    assert laurent_divide(packed({(3, -1): 2}, 2), packed({(1, 0): 1, (0, 1): -1}, 2)) is None
    assert laurent_divide(packed({(2,): 1, (-1,): -1}, 1), packed({(1,): 1, (-2,): -1}, 1)) == packed({(1,): 1}, 1)
    assert laurent_divide(packed({(0,): 1}, 1), {}) is None

# -- sympy oracle ------------------------------------------------------------------


# c = (2 z2 + 1/2)(z1 + z2): in z1, the gcd is a content times a primitive part
CONTENT_CASE = (
    2,
    [
        [((1, 0), 1), ((0, 0), 3)],
        [((1, 1), 1), ((0, 0), 1)],
        [((1, 1), 2), ((0, 2), 2), ((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 2))],
    ],
)


@settings(max_examples=60, deadline=None)
@given(poly_triples())
@example(CONTENT_CASE)
def test_gcd_matches_sympy(triple):
    n, (ta, tb, tc) = triple
    a, b, c = _poly(n, ta), _poly(n, tb), _poly(n, tc)
    sa, sb, sc = _sympy_expr(n, ta), _sympy_expr(n, tb), _sympy_expr(n, tc)
    for f, g, sf, sg in ((a, b, sa, sb), (a * c, b * c, sa * sc, sb * sc)):
        got = _dict_of(poly_gcd(f, g), n)
        want, _ = _primitive(_sympy_dict(sympy.gcd(sympy.expand(sf), sympy.expand(sg)), n))
        assert got == want


@settings(max_examples=60, deadline=None)
@given(poly_triples())
@example(CONTENT_CASE)
def test_ratfunc_canonical_form_matches_sympy_cancel(triple):
    n, (ta, tb, tc) = triple
    a, b, c = _poly(n, ta), _poly(n, tb), _poly(n, tc)
    assume(not (b * c).is_zero())
    f = RatFunc(a * c, b * c)
    sc = _sympy_expr(n, tc)
    snum, sden = sympy.fraction(sympy.cancel(_sympy_expr(n, ta) * sc / (_sympy_expr(n, tb) * sc)))
    den, scale = _primitive(_sympy_dict(sden, n))
    num = {e: v / scale for e, v in _sympy_dict(snum, n).items()}
    assert _dict_of(f.den, n) == den
    assert _dict_of(f.num, n) == num


class _Scripted(random.Random):
    """A fixed-seed generator whose first randrange draws are given."""

    def __init__(self, first):
        super().__init__(0)
        self.first = list(first)

    def randrange(self, *args):
        return self.first.pop(0) if self.first else super().randrange(*args)


def _gcd_against_sympy(n, *factors):
    """poly_gcd of the products g*a and g*b of three term lists equals sympy's gcd."""
    g, a, b = (_sympy_expr(n, t) for t in factors)
    f1, f2 = (sympy.expand(g * x) for x in (a, b))
    got = _dict_of(poly_gcd(*(_poly(n, list(_sympy_dict(x, n).items())) for x in (f1, f2))), n)
    want, _ = _primitive(_sympy_dict(sympy.gcd(f1, f2), n))
    assert got == want


Q = 10007
# (Q z1 z2 + z3) times z1 + z2 + 1 and times z1 - z3 + 2: both lead in z1 with a multiple of Q,
# and the gcd is z3 mod Q
LEAD_MOD_Q = ([((1, 1, 0), Q), ((0, 0, 1), 1)], [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 0), 1)], [((1, 0, 0), 1), ((0, 0, 1), -1), ((0, 0, 0), 2)])


@pytest.mark.parametrize("primes", [[Q, 2**31 - 1], [2**31 - 1, Q, 2**31 - 19], [Q, 9973]])
def test_gcd_survives_a_prime_that_kills_a_leading_coefficient(monkeypatch, primes):
    """Q first for the degree bounds, where the images lose their leading coefficient, or first for
    the interpolation, where the gcd loses its leading term: either costs a fresh draw, and the gcd
    still equals sympy's."""
    drawn, prime = [], modgcd.prime

    def recording(i):
        drawn.append(prime(i))
        return drawn[-1]

    monkeypatch.setattr(modgcd, "PRIMES", list(primes))
    monkeypatch.setattr(modgcd, "prime", recording)
    _gcd_against_sympy(3, *LEAD_MOD_Q)
    assert Q in drawn


@pytest.mark.parametrize(
    "first, factors",
    [
        # z2 = 1 kills the leading coefficient z2 - 1 in z1 of ((z2 - 1) z1 + 1)(z1 + z2)
        ([5, 1], ([((1, 1), 1), ((1, 0), -1), ((0, 0), 1)], [((1, 0), 1), ((0, 1), 1)], [((1, 0), 1), ((0, 0), 3)])),
        # z2 = -1 gives (z1 + z2)(z1 - z2) and (z1 + z2)(z1 + 1) the common factor z1 - 1 too: an image gcd too large
        ([5, 2**31 - 2], ([((1, 0), 1), ((0, 1), 1)], [((1, 0), 1), ((0, 1), -1)], [((1, 0), 1), ((0, 0), 1)])),
    ],
)
def test_gcd_survives_an_unlucky_point(monkeypatch, first, factors):
    """A bound point where a leading coefficient vanishes, or where the images share more than the
    gcd, costs a fresh draw, and the gcd still equals sympy's."""
    rng = _Scripted(first)
    monkeypatch.setattr(modgcd, "new_rng", lambda: rng)
    _gcd_against_sympy(2, *factors)
    assert not rng.first


@settings(max_examples=40, deadline=None)
@given(poly_triples())
def test_gcd_with_small_primes_matches_sympy(triple):
    """With primes below 1010, unlucky primes and points are common; every gcd still equals sympy's."""
    n, (ta, tb, tc) = triple
    saved, modgcd.PRIMES = modgcd.PRIMES, [1009]
    try:
        _gcd_against_sympy(n, tc, ta, tb)
    finally:
        modgcd.PRIMES = saved


def test_gcd_primes_are_prime():
    assert all(sympy.isprime(modgcd.prime(i)) for i in range(60))


def _counting_images(monkeypatch):
    """A list that gains one entry per univariate image gcd mod a prime."""
    images, image = [], modgcd.gcd_mod_1

    def counting(a, b, p):
        images.append(p)
        return image(a, b, p)

    monkeypatch.setattr(modgcd, "gcd_mod_1", counting)
    return images


def test_gcd_of_determinant_multiples_takes_few_images(monkeypatch):
    """The generic 4x4 determinant times z1 + ... + z16 and times 2 z1 + ... + 17 z16 + 1: each of the
    16 variables is in the gcd and in both cofactors.  Dense interpolation over all 16 took 218 846
    univariate images; images on the support of the first take at most 1000."""
    z = [MultiPoly.variable(VarName("z", i)) for i in range(1, 17)]
    det = linalg.det([z[4 * i : 4 * i + 4] for i in range(4)])
    a = sum(z[1:], z[0])
    b = sum((k * x for k, x in enumerate(z[1:], 3)), 2 * z[0] + 1)
    images = _counting_images(monkeypatch)
    got = poly_gcd(det * a, det * b)
    assert got in (det, -det)
    assert len(images) <= 1000


def _random_gcd_case(rng):
    """sympy polynomials g, a, b in z1..z8: g of 2-6 terms of degree at most 2 in each variable, a and
    b of 3 terms of degree at most 1."""
    def poly(terms, deg):
        monomials = (sympy.Mul(*(s ** rng.randint(0, deg) for s in rng.sample(SYMS[:8], rng.randint(1, 4)))) for _ in range(terms))
        return sum((rng.choice([-3, -2, -1, 1, 2, 3]) * m for m in monomials), sympy.Integer(rng.randint(-2, 2)))

    return poly(rng.randint(2, 6), 2), poly(3, 1), poly(3, 1)


@pytest.mark.parametrize("prime", [2**31 - 1, 1009, 101])
def test_gcd_on_the_support_of_one_image_matches_sympy(monkeypatch, prime):
    """Gcds in four or more variables take later images on the support of the first.  With small
    primes a wrong support, a vanishing coefficient or a singular system is common; a content in the
    other variables (the first three cases) leaves the system singular every time.  Every gcd
    still equals sympy's."""
    z = SYMS
    cases = [
        ((z[1] + z[2]) * (z[0] + z[3]) * (z[4] + z[5]), z[0] + z[6] + 1, z[0] - z[7] + 2),
        ((z[1] * z[2] + 1) * (z[0] * z[3] + z[4]) + z[5], z[0] + z[6] + 1, z[0] - z[7] + 2),
        ((z[1] + z[2]) * (z[3] + z[4]) * (z[5] + z[6]) * (z[0] + z[7]), z[0] * z[8] + 1, z[0] - z[8] + 2),
    ]
    rng = random.Random(prime)
    cases += [_random_gcd_case(rng) for _ in range(25)]
    calls, sparse = [], modgcd._sparse_mod

    def recording(*args):
        calls.append(sparse(*args))
        return calls[-1]

    monkeypatch.setattr(modgcd, "PRIMES", [prime])
    monkeypatch.setattr(modgcd, "_sparse_mod", recording)
    for g, a, b in cases:
        f1, f2 = sympy.expand(g * a), sympy.expand(g * b)
        got = poly_gcd(*(_poly(9, list(_sympy_dict(x, 9).items())) for x in (f1, f2)))
        assert _dict_of(got, 9) == _primitive(_sympy_dict(sympy.gcd(f1, f2), 9))[0]
    assert None in calls and any(calls)


# -- the pivot certificate of linalg._pivot_split ----------------------------------


def _split(n, terms):
    """``linalg._pivot_split`` of the Laurent value with the {exponents: coeff} terms over n slots."""
    return linalg._pivot_split(packed(terms, n), {v: i for i, v in enumerate(VARS[:n])})


CERTIFIED = [
    (3, {(1, 0, 1): 1, (0, 1, 0): -1}),  # z1 z3 - z2
    (4, {(2, 0, 0, 2): 1, (1, 0, 1, 1): 2, (0, 1, 0, 1): 1, (0, 0, 2, 0): 1}),  # z1^2 z4^2 + 2 z1 z3 z4 + z2 z4 + z3^2
]
UNCERTIFIED = [
    (2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}),  # (1 + z1)(1 + z2)
    (2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}),  # (z1 + z2)^2
    (3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}),  # z1 z2 + z1 z3 + z2 z3, irreducible but not certified
]


@pytest.mark.parametrize("case,want", [(c, True) for c in CERTIFIED] + [(c, False) for c in UNCERTIFIED])
def test_pivot_certificate_cases(case, want):
    """A pivot z^e q is certified prime iff some variable occurs in one term of q only, to the first power; the
    verdict and q do not depend on the monomial z^e split off, here z1^-1 z2^2."""
    n, terms = case
    shift = (-1, 2) + (0,) * (n - 2)
    for e in ((0,) * n, shift):
        mono, q, prime = _split(n, {tuple(map(add, x, e)): c for x, c in terms.items()})
        assert (mono, q, prime) == (packed({e: 1}, n), packed(terms, n), want)


@st.composite
def laurent_values(draw):
    """A Laurent value in 2-4 variables, exponents -1 to 2 and nonzero int coefficients: one of 2-5 terms; a
    product of two of 2-3 terms; or z^k (c m z + b) with z in neither m nor b, which the certificate accepts."""
    n = draw(st.integers(2, 4))
    exps, coeff = st.tuples(*[st.integers(-1, 2)] * n), st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    kind = draw(st.sampled_from(("sum", "product", "linear")))
    if kind == "sum":
        return n, draw(st.dictionaries(exps, coeff, min_size=2, max_size=5))
    if kind == "linear":
        z, k = draw(st.integers(0, n - 1)), draw(st.integers(-1, 1))

        def at(e, x):
            return e[:z] + (x,) + e[z + 1 :]

        out = {at(e, k): c for e, c in draw(st.dictionaries(exps, coeff, min_size=1, max_size=4)).items()}
        return n, {**out, at(draw(exps), k + 1): draw(coeff)}
    a, b = (draw(st.dictionaries(exps, coeff, min_size=2, max_size=3)) for _ in range(2))
    out = {}
    for (x, c), (y, d) in product(a.items(), b.items()):
        e = tuple(map(add, x, y))
        out[e] = out.get(e, 0) + c * d
    out = {e: c for e, c in out.items() if c}
    assume(len(out) > 1)
    return n, out


@settings(max_examples=80, deadline=None)
@given(laurent_values())
def test_a_certified_pivot_factor_is_irreducible(value):
    """_pivot_split(z^e q) splits off the largest monomial z^e; where it certifies q, sympy factors q, which has
    no monomial factor, into exactly one irreducible factor, of multiplicity 1."""
    n, terms = value
    low = tuple(map(min, zip(*terms)))
    q_terms = {tuple(map(sub, x, low)): c for x, c in terms.items()}
    mono, q, prime = _split(n, terms)
    assert (mono, q) == (packed({low: 1}, n), packed(q_terms, n))
    if prime:
        _, factors = sympy.factor_list(_sympy_expr(n, q_terms.items()))
        assert [k for _, k in factors] == [1], factors
