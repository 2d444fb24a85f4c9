"""Exact polynomial/rational-function substrate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsatlas.errors import EvaluationPole, SubstitutionPole, ZeroDenominator
from bsatlas.symbolic import Dual, MultiPoly, RatFunc, VarName, poly_gcd, var

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
    assert (x**2 * y).differentiate(X) == 2 * x * y
    assert (1 / x).differentiate(X) == -1 / (x * x)
    assert y.differentiate(X).is_zero()


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
    lhs = (f * g).differentiate(X)
    rhs = f.differentiate(X) * g + f * g.differentiate(X)
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
    d = Dual(f, f * f) * c
    assert d.a == f * RatFunc.constant(c) and d.b == f * f * RatFunc.constant(c)


def test_dual_arithmetic():
    d = Dual(x, RatFunc.one())
    sq = d * d
    assert sq.a == x * x and sq.b == 2 * x
    q = Dual(x * y, y) / Dual(x, RatFunc.one())
    assert q.a == y and q.b.is_zero()
    with pytest.raises(ZeroDenominator):
        Dual(RatFunc.zero(), RatFunc.one()).__rtruediv__(1)


def test_varname_order_and_parse():
    assert VarName("z", 2) < VarName("z", 10)
    assert VarName.parse("a11") == VarName("a", 11)
    assert str(VarName("z", 3)) == "z3"
