"""Exact polynomial/rational-function substrate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsatlas.errors import EvaluationPole, NonPolynomialBracket, SubstitutionPole, ZeroDenominator
from bsatlas.laurent import laurent_derivative, laurent_fma, laurent_frame, to_laurent, unit_keys
from bsatlas.symbolic import MultiPoly, RatFunc, VarName, from_laurent, poly_gcd, var
from oracles import differentiate, packed

x, y = var("x"), var("y")
X, Y = VarName("x"), VarName("y")


def test_normalize_cancellation():
    assert ((x**2 - 1) / (x - 1)) == x + 1
    assert ((2 * x) / RatFunc.constant(2)) == x
    assert ((-x) / (-y)) == x / y


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(MultiPoly.variable(X), MultiPoly.constant(0))


def test_canonical_equality_and_hash():
    a = (x + y) ** 2 / (x * y)
    b = (y + x) * (x + y) / (y * x)
    assert a == b and hash(a) == hash(b)
    assert a.text() == b.text()


def test_differentiate():
    assert differentiate(x**2 * y, X) == 2 * x * y
    assert differentiate(1 / x, X) == -1 / (x * x)
    assert differentiate(y, X).is_zero()


def test_substitute():
    assert (x / y).substitute({X: y}) == RatFunc.one()
    a, b = var("a"), var("b")
    assert x.substitute({X: a + b}) == a + b
    with pytest.raises(SubstitutionPole):
        (1 / x).substitute({X: RatFunc.zero()})


def test_substitute_unbound_passthrough():
    f = x * y + 1
    assert f.substitute({X: x}) == f


def test_evaluate():
    f = (x + y) / x
    assert f.evaluate({X: Fraction(1), Y: Fraction(2)}) == 3
    with pytest.raises(EvaluationPole):
        (x / (x - 1)).evaluate({X: Fraction(1)})
    assert RatFunc.constant(5).evaluate({}) == 5


def test_text_deterministic():
    f = 3 * x**2 * y - y + Fraction(1, 2)
    assert f.text() == "3*x^2*y - y + 1/2"
    g = (x - y) / (y - x)
    assert g.text() == "-1"


def test_gcd_shared_factor():
    p = ((x + y) ** 2 * (x - y)).num
    q = ((x + y) * (x * y + 1)).num
    assert poly_gcd(p, q) == (x + y).num


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def _rf(coeffs):
    c0, c1, c2, c3 = coeffs
    num = c0 + c1 * x + c2 * y
    den = 1 + c3 * x
    if den.is_zero():
        den = RatFunc.one()
    return num / den


@settings(max_examples=40, deadline=None)
@given(st.tuples(rationals, rationals, rationals, rationals),
       st.tuples(rationals, rationals, rationals, rationals),
       st.tuples(rationals, rationals, rationals, rationals))
def test_field_axioms(a, b, c):
    f, g, h = _rf(a), _rf(b), _rf(c)
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f - f == RatFunc.zero()
    if not g.is_zero():
        assert (f / g) * g == f


@settings(max_examples=30, deadline=None)
@given(st.tuples(rationals, rationals, rationals, rationals),
       st.tuples(rationals, rationals, rationals, rationals))
def test_leibniz(a, b):
    f, g = _rf(a), _rf(b)
    lhs = differentiate(f * g, X)
    rhs = differentiate(f, X) * g + f * differentiate(g, X)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.tuples(rationals, rationals, rationals, rationals), rationals, rationals)
def test_substitute_evaluate_compat(a, px, py):
    f = _rf(a)
    binding = {X: x * y}
    point = {X: Fraction(px), Y: Fraction(py)}
    try:
        lhs = f.substitute(binding).evaluate(point)
        rhs = f.evaluate({X: Fraction(px) * Fraction(py), Y: Fraction(py)})
    except (EvaluationPole, ZeroDivisionError):
        return
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.tuples(rationals, rationals, rationals, rationals), rationals)
def test_scalar_product_is_canonical(a, c):
    f = _rf(a)
    for k in (c, int(c)):
        want = f * RatFunc.constant(k)  # the RatFunc-by-RatFunc path cancels a gcd
        for got in (f * k, k * f):
            assert got == want and got.text() == want.text()


_LAURENT_VARS = (VarName("u", 1), VarName("z", 1), VarName("z", 2), VarName("z", 3))
_nonzero = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
)


@st.composite
def _laurent_ratfuncs(draw):
    """A RatFunc with a monomial denominator: up to four terms, exponents -2..2 in u1, z1, z2, z3.

    Half of the draws are polynomials (exponents 0..2), so values with and
    without a denominator both occur.
    """
    low = draw(st.sampled_from([-2, 0]))
    out = RatFunc.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = RatFunc.constant(draw(_nonzero))
        for v in _LAURENT_VARS:
            term = term * RatFunc.from_poly(MultiPoly.variable(v)) ** draw(st.integers(low, 2))
        out = out + term
    return out


def _assert_same(got, want):
    """Equal num and den, variable tuples and coefficient types included, and equal text."""
    for p, q in ((got.num, want.num), (got.den, want.den)):
        assert p.vars == q.vars and p.terms == q.terms
        assert all(type(c) is type(q.terms[e]) for e, c in p.terms.items())
    assert got.text() == want.text()


@settings(max_examples=60, deadline=None)
@given(_laurent_ratfuncs(), _laurent_ratfuncs(), _laurent_ratfuncs(), _nonzero)
def test_laurent_format_matches_ratfunc(f, g, h, s):
    """Round trip, derivative and fused multiply-add in the Laurent format agree with RatFunc arithmetic."""
    frame = laurent_frame([f, g, h])
    a, b, acc = (to_laurent(p, frame) for p in (f, g, h))
    for p, x in ((f, a), (g, b), (h, acc)):
        _assert_same(from_laurent(x, frame), p)
    n = len(frame)
    for v, slot in frame.items():
        _assert_same(from_laurent(laurent_derivative(a, unit_keys(n)[slot]), frame), differentiate(f, v))
    if frame:
        # a quotient over a monomial is an exponent shift; over any other value it takes one gcd
        mono = packed({tuple(range(-1, n - 1)): Fraction(-3, 2)}, n)
        lin = packed({tuple(int(k == 0) for k in range(n)): 1, (0,) * n: 2}, n)
        square = packed({(0,) * n: 1}, n)
        laurent_fma(square, 1, b, b)
        for den in (mono, lin, square):
            _assert_same(from_laurent(a, frame, den), f / from_laurent(den, frame))
    laurent_fma(acc, s, a, b)
    _assert_same(from_laurent(acc, frame), h + s * f * g)
    # f*f + 1 has no w, so nothing cancels the non-monomial denominator
    off = (f * f + 1) / (var("w") + 1)
    with pytest.raises(NonPolynomialBracket):
        to_laurent(off, laurent_frame([off]))


def test_add_zero_makes_no_gcd(monkeypatch):
    import bsatlas.symbolic as symbolic

    f = (x * x + y) / (x - 2 * y + 1)
    calls = []

    def counting_gcd(p, q):
        calls.append((p, q))
        return poly_gcd(p, q)

    monkeypatch.setattr(symbolic, "poly_gcd", counting_gcd)
    for got in (RatFunc.zero() + f, f + RatFunc.zero(), f + 0, 0 + f):
        assert got == f and got.text() == f.text()
    assert calls == []


def test_varname_order_and_parse():
    assert VarName("z", 2) < VarName("z", 10)
    assert VarName.parse("a11") == VarName("a", 11)
    assert str(VarName("z", 3)) == "z3"
