"""Packed monomial keys: the Laurent kernels against their tuple-keyed oracles, and the cap guard."""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsatlas import laurent
from bsatlas.cli import main
from bsatlas.laurent import (
    EXP_CAP,
    laurent_derivative,
    laurent_divide,
    laurent_fma,
    laurent_shift,
    pack_exponent,
    to_laurent,
    unit_keys,
    unpack_columns,
)
from bsatlas.symbolic import MultiPoly, RatFunc, VarName, _grlex_key, _poly_of, from_laurent, var
from oracles import (
    packed,
    tuple_derivative,
    tuple_divide,
    tuple_fma,
    tuple_from_laurent,
    tuple_shift,
    tuple_to_laurent,
    unpacked,
)

# operands of a product stay within half the cap, so every product is within it
_HALF_CAP = EXP_CAP // 2 - 30
_coeff = st.one_of(st.integers(-9, 9).filter(bool), st.fractions(-5, 5, max_denominator=7).filter(bool))


@st.composite
def _exponent(draw, n, big, low=-2):
    """An exponent tuple over n slots: entries in [low, 2], and with ``big`` one slot near half the cap."""
    e = draw(st.lists(st.integers(low, 2), min_size=n, max_size=n))
    if big:
        sign = draw(st.sampled_from([1, -1] if low < 0 else [1]))
        e[draw(st.integers(0, n - 1))] = sign * (_HALF_CAP - draw(st.integers(0, 3)))
    return tuple(e)


@st.composite
def _case(draw):
    """(n, big, [a, b, c]): three tuple-keyed Laurent values over n slots with up to four terms each."""
    n, big = draw(st.integers(1, 24)), draw(st.booleans())
    values = [
        draw(st.dictionaries(_exponent(n, big and draw(st.booleans())), _coeff, min_size=1, max_size=4))
        for _ in range(3)
    ]
    return n, big, values


def _frame(n):
    return {VarName("z", i + 1): i for i in range(n)}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_case())
def test_packed_kernels_agree_with_tuple_oracles(case):
    """Each packed kernel, unpacked, equals its tuple-keyed oracle on frames of 1 to 24 slots,
    with negative exponents, int and Fraction coefficients and exponents near half the cap; and
    the largest packed key is the graded-lex leading term."""
    n, big, (a, b, c) = case
    frame = _frame(n)
    pa, pb, pc = (packed(x, n) for x in (a, b, c))
    for x, px in ((a, pa), (b, pb)):
        assert unpacked(px, n) == x
        assert max(px) == pack_exponent(max(x, key=_grlex_key), n)
        f = tuple_from_laurent(x, frame)
        assert to_laurent(f, frame) == packed(tuple_to_laurent(f, frame), n)
        got = from_laurent(px, frame)
        assert got == f and got.text() == f.text()
    acc, pacc = dict(c), dict(pc)
    tuple_fma(acc, Fraction(-3, 2), a, b)
    laurent_fma(pacc, Fraction(-3, 2), pa, pb)
    assert unpacked(pacc, n) == acc
    e = next(iter(b))
    assert unpacked(laurent_shift(pa, pack_exponent(e, n), 3), n) == tuple_shift(a, e, 3)
    for slot, unit in enumerate(unit_keys(n)):
        assert unpacked(laurent_derivative(pa, unit), n) == tuple_derivative(a, slot)
    # an exact quotient comes back whole; near the cap only the exact case runs, as a long
    # division over a wide box of quotient exponents takes a step per candidate
    ab = {}
    tuple_fma(ab, 1, a, b)
    for num, den in ((ab, a), (ab, b)) + (() if big else ((a, b), (c, a))):
        want = tuple_divide(num, den)
        got = laurent_divide(packed(num, n), packed(den, n))
        assert (got is None) == (want is None) and (want is None or unpacked(got, n) == want)
    if not big:
        for den in (b, c):
            f = tuple_from_laurent(a, frame, den)
            got = from_laurent(pa, frame, packed(den, n))
            assert got == f and got.text() == f.text()


def _column_path(a, frame):
    """from_laurent's path for a value of several terms, run on any nonzero value: one ``unpack_columns``, then
    ``_poly_of`` over the monomial that clears the negative columns."""
    cols = unpack_columns(a, len(frame))
    low = {i: -min(c) for i, c in enumerate(cols) if min(c) < 0}
    den = MultiPoly(tuple(v for v, i in frame.items() if i in low), {tuple(low.values()): 1})
    return RatFunc(_poly_of(tuple(frame), cols, a.values(), low), den, _canonical=True)


@st.composite
def _term_case(draw):
    """(n, e, c, den): one term c*z^e over 0 to 24 slots, with or without an exponent near half the cap,
    and den None or one term (exponent, coefficient) of small exponents."""
    n = draw(st.integers(0, 24))
    e = draw(_exponent(n, n > 0 and draw(st.booleans()), low=-3))
    den = draw(st.one_of(st.none(), st.tuples(_exponent(n, False), _coeff)))
    return n, e, draw(_coeff), den


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_term_case())
def test_one_term_exit_agrees_with_the_column_path(case):
    """A one-term value, alone or over a monomial den, leaves from_laurent as the canonical RatFunc the
    column path and the tuple oracle build: the same key() and text(), with int coefficients where integral."""
    n, e, c, den = case
    frame = _frame(n)
    a = {pack_exponent(e, n): c}
    d = None if den is None else {pack_exponent(den[0], n): den[1]}
    got = from_laurent(a, frame, d)
    want = _column_path(a if d is None else laurent_divide(a, d), frame)
    oracle = tuple_from_laurent({e: c}, frame, None if den is None else dict([den]))
    assert got.key() == want.key() == oracle.key() and got.text() == want.text() == oracle.text()
    assert all(type(x) is int or x.denominator != 1 for x in got.num.terms.values())
    if d is None:
        assert got.den.terms == {tuple(-k for k in e if k < 0): 1}


def test_one_term_exit_refuses_a_key_past_the_cap():
    """A one-term key that carried out of a field, or needs more fields than its frame has, alone or after
    the shift by a monomial den, is the same packed-monomials internal fault as on the column path."""
    frame, units = _frame(2), unit_keys(2)
    top, low = {pack_exponent((EXP_CAP, 0), 2): 1}, {pack_exponent((EXP_CAP, -5), 2): 1}
    # z1 * low carries out of slot 0 only, into a degree field that stays in range; z1 * top carries
    # out of the degree field too, and 2^60 needs more fields than two slots have
    cases = ((laurent_shift(low, units[0]), None), (low, {-units[0]: 3}), (laurent_shift(top, units[0]), None))
    for a, den in cases + (({1 << 60: 1}, None), (top, {-units[0]: 2})):
        with pytest.raises(AssertionError, match=r"packed monomials: a key of \[-?\d+\] is past the cap"):
            from_laurent(a, frame, den)
        with pytest.raises(AssertionError, match=r"packed monomials: a key of \[-?\d+\] is past the cap"):
            _column_path(a if den is None else laurent_divide(a, den), frame)


@st.composite
def _poly_case(draw):
    n = draw(st.integers(1, 6))
    return n, [draw(st.dictionaries(_exponent(n, False, low=0), _coeff, min_size=1, max_size=3)) for _ in range(2)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_poly_case())
def test_packed_polynomial_division_agrees_with_tuple_oracle(case):
    """With ``low`` = 0, division of polynomials agrees with the tuple oracle, exact or not."""
    n, (a, b) = case
    ab = {}
    tuple_fma(ab, 1, a, b)
    for num, den in ((ab, a), (ab, b), (a, b), (b, a)):
        want = tuple_divide(num, den, low=0)
        got = laurent_divide(packed(num, n), packed(den, n), low=0)
        assert (got is None) == (want is None) and (want is None or unpacked(got, n) == want)


def test_pack_refuses_an_exponent_past_the_cap():
    """An exponent or degree at the cap packs and unpacks; one past it is an internal fault that names it."""
    for e in ((EXP_CAP,), (-EXP_CAP,), (0, EXP_CAP, 0), (EXP_CAP, -EXP_CAP)):
        assert unpacked({pack_exponent(e, len(e)): 1}, len(e)) == {e: 1}
    for e in ((EXP_CAP + 1,), (0, -EXP_CAP - 1), (EXP_CAP, 1)):
        with pytest.raises(AssertionError, match=rf"exponent \({e[0]}, .*past the cap|exponent \({e[0]},\) is past"):
            pack_exponent(e, len(e))
    z = var("z", 1)
    frame = {VarName("z", 1): 0}
    assert to_laurent(z**EXP_CAP, frame) == {EXP_CAP * unit_keys(1)[0]: 1}
    for f in (z ** (EXP_CAP + 1), 1 / z ** (EXP_CAP + 1)):
        with pytest.raises(AssertionError, match=rf"exponent \(-?{EXP_CAP + 1},\) is past the cap"):
            to_laurent(f, frame)


def test_unpack_refuses_a_key_that_left_the_cap_in_arithmetic():
    """A product past the cap carries out of its field; unpacking refuses the key rather than alias it."""
    frame = {VarName("z", 1): 0, VarName("z", 2): 1}
    a = to_laurent(var("z", 1) ** EXP_CAP, frame)
    acc = {}
    laurent_fma(acc, 1, a, to_laurent(var("z", 1) * var("z", 2) ** 3, frame))
    with pytest.raises(AssertionError, match="past the cap"):
        from_laurent(acc, frame)


def test_cli_exits_1_when_the_packer_fails(monkeypatch):
    """With every exponent past a cap of 0, the chart's first pack fails: exit 1, one stderr line.

    The command builds its own space, chart and heads, so the chart is built under the cap."""
    monkeypatch.setattr(laurent, "EXP_CAP", 0)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["--json", "bracket", "--series", "A", "--rank", "2", "--index", "3"])
    assert rc == 1 and out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("error: internal invariant failed: packed monomials: exponent (")
