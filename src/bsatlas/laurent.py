"""Chart-local Laurent polynomials as dicts of packed monomial keys.

Inside one Bott-Samelson chart every parametrization entry, coordinate
tangent and bracket entry is a Laurent polynomial in the chart's variables,
and those run in a light format: a dict from a monomial over a sorted frame
of the variables that occur, negative exponents allowed, to a nonzero exact
rational coefficient, an int where it is integral.  Each monomial is one int
key (Monagan-Pearce, *Polynomial division using dynamic arrays, heaps, and
packed exponent vectors*, 2007): over n slots, e has the key
sum_i e_i (R^n + R^(n-1-i)) with R = 2^EXP_BITS = 2^16, its degree in the
top field and e_0 .. e_{n-1} below in balanced digits, so a product of
monomials is one add and integer order is graded-lex order.  Every exponent
and degree lies within +-EXP_CAP = +-(2^15 - 1); packing refuses more and
unpacking refuses a key that carried out of a field, each as an internal
fault.  Products and sums here merge no variable tuples and take no gcd;
``symbolic.from_laurent`` returns the canonical RatFunc of a value.  This
module reads the polynomials it packs only through their ``vars`` and
``terms``, and imports nothing of the package but ``errors``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from operator import le, mul, ne
from struct import Struct

from .errors import NonPolynomialBracket


def _exact(c):
    """An int or Fraction coefficient, as an int when it is integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


# Each exponent vector e over a frame of n slots is one int key: P(e) = sum_i e_i (R^n + R^(n-1-i)),
# R = 2^EXP_BITS, in balanced digits: the degree sum(e) in the top field, then e_0 .. e_{n-1}.
EXP_BITS = 16
EXP_CAP = (1 << EXP_BITS - 1) - 1
_HALF = EXP_CAP + 1
_FIELD = {8: "b", 16: "h", 32: "i", 64: "q"}[EXP_BITS]


@cache
def _layout(n):
    """(unit keys, bias, struct) of an n-slot frame: the bias holds R/2 in each of the n + 1 fields."""
    units = tuple((1 << EXP_BITS * n) + (1 << EXP_BITS * (n - 1 - i)) for i in range(n))
    bias = sum(_HALF << EXP_BITS * k for k in range(n + 1))
    return units, bias, Struct(f">{n + 1}{_FIELD}")


def unit_keys(n):
    """The key of each slot's variable alone in an n-slot frame: unit_keys(n)[i] = R^n + R^(n-1-i)."""
    return _layout(n)[0]


def _past_cap(e):
    return AssertionError(f"packed monomials: exponent {tuple(e)} is past the cap {EXP_CAP}")


def pack_exponent(e, n):
    """The key of the exponent vector e over n slots; an exponent or degree past EXP_CAP is an internal fault."""
    if max(map(abs, e), default=0) > EXP_CAP or abs(sum(e)) > EXP_CAP:
        raise _past_cap(e)
    return sum(map(mul, e, unit_keys(n)))


def _packed(terms, units, low=0):
    """Polynomial terms {exponent tuple: c} over the key ``low`` as a Laurent value, units[p] the key of position p.

    Exponents are at least 0, so a degree within EXP_CAP bounds each of them:
    with no ``low``, a term of a larger degree is an internal fault.
    """
    if not low and terms and max(map(sum, terms)) > EXP_CAP:
        raise _past_cap(max(terms, key=sum))
    return {sum(map(mul, e, units)) - low: c for e, c in terms.items()}


def pack_poly(p, frame):
    """The MultiPoly p as a Laurent value over ``frame``; a degree past EXP_CAP is an internal fault."""
    units = unit_keys(len(frame))
    return _packed(p.terms, [units[frame[v]] for v in p.vars])


def unpack_columns(a, n):
    """The exponent columns of the nonzero Laurent value a over n slots: column i lists slot i of each term, in order.

    Each key is read back in its n + 1 fields by one struct.  Arithmetic adds
    keys unchecked, and an exponent that left the cap carries into the next
    field, after which the exponents read back no longer sum to the degree
    field (a carry moves that sum by R - 1, or R + 1 out of the top slot): a
    key that reads so, or needs more fields, is an internal fault.
    """
    _, bias, fields = _layout(n)
    try:
        rows = [fields.unpack(((k + bias) ^ bias).to_bytes(fields.size, "big")) for k in a]
    except OverflowError:
        rows = None
    cols = list(zip(*rows or [()]))
    if rows is None or any(map(ne, map(sum, rows), map((2).__mul__, cols[0]))):
        raise AssertionError(f"packed monomials: a key of {sorted(a)} is past the cap {EXP_CAP}")
    return cols[1:]


def unpack_exponent(key, n):
    """The exponent vector of one key over n slots, checked as ``unpack_columns`` checks each key."""
    _, bias, fields = _layout(n)
    try:
        deg, *e = fields.unpack(((key + bias) ^ bias).to_bytes(fields.size, "big"))
    except OverflowError:
        deg, e = None, ()
    if deg != sum(e):
        raise AssertionError(f"packed monomials: a key of {[key]} is past the cap {EXP_CAP}")
    return e


def laurent_frame(fs):
    """The frame of the RatFuncs fs: each variable that occurs in one, mapped to its slot in sorted order."""
    occurring = set()
    for f in fs:
        occurring.update(f.num.vars)
        occurring.update(f.den.vars)
    return {v: slot for slot, v in enumerate(sorted(occurring))}


def to_laurent(f, frame):
    """f = num/m as {packed exponent key over ``frame``: coefficient}; m must be a monomial.

    Any other denominator raises NonPolynomialBracket.  An exponent or degree
    of num/m past EXP_CAP is an internal fault.
    """
    num, den = f.num, f.den
    if len(den.terms) != 1:
        raise NonPolynomialBracket(f"{f.text()} is not a Laurent polynomial: {den.text()} is not a monomial")
    if den.is_one():
        return pack_poly(num, frame)
    # a canonical monomial denominator has coefficient 1
    (m,) = den.terms
    if max(map(sum, num.terms)) > EXP_CAP or sum(m) > EXP_CAP:
        # num/m is within the cap when num and m are, and else each of its exponents is checked
        d = dict(zip(den.vars, m))
        for exp in num.terms:
            e = dict(zip(num.vars, exp))
            pack_exponent([e.get(v, 0) - d.get(v, 0) for v in frame], len(frame))
    units = unit_keys(len(frame))
    low = sum(k * units[frame[v]] for v, k in zip(den.vars, m))
    return _packed(num.terms, [units[frame[v]] for v in num.vars], low)


def laurent_fma(acc, s, a, b):
    """acc += s*a*b in place, for Laurent values a and b over the frame of acc and a nonzero rational s."""
    if type(s) is not int:
        s = _exact(s)
    for ea, ca in a.items():
        sca = s * ca
        for eb, cb in b.items():
            e = ea + eb
            if c := acc.get(e, 0) + sca * cb:
                acc[e] = c
            else:
                # sca * cb is nonzero, so a zero sum cancels a term of acc
                del acc[e]


def laurent_shift(a, key, c=1):
    """c * z^e * a for the packed key of e: the Laurent value a times one monomial, a shift of every key."""
    return {e + key: c * k for e, k in a.items()}


def laurent_derivative(a, unit):
    """The derivative of the Laurent value a by the variable whose key is ``unit`` (``unit_keys``).

    The variable's field starts at the lowest set bit of ``unit``.  With R/2
    added to it and to every field below, no borrow reaches it, so it reads
    the exponent plus R/2.
    """
    pos = (unit & -unit).bit_length() - 1
    bias = _HALF * (((1 << EXP_BITS) << pos) - 1) // ((1 << EXP_BITS) - 1)
    mask = (1 << EXP_BITS) - 1
    out = {}
    for e, c in a.items():
        if k := ((e + bias) >> pos & mask) - _HALF:
            out[e - unit] = c * k
    return out


def laurent_divide(a, b, low=None):
    """a/b for Laurent values over one frame, or None if b does not divide a.

    A monomial b is a unit, so a/b is a shift; any other takes long division
    by graded-lex leading terms, the largest keys.  If a = b*q, the exponents
    of q in each slot lie in [min a - min b, max a - max b], so a quotient
    term outside that box means a remainder, and the division ends.  A
    ``low`` lower bound replaces min a - min b in every slot.  The box is read
    without the frame: over more fields than a key needs, its balanced digits
    are zeros, its degree and its exponents, and each is bounded alike.
    """
    if len(b) == 1:
        ((eb, cb),) = b.items()
        return {e - eb: _coeff_quotient(c, cb) for e, c in a.items()}
    if not b:
        return None
    if not a:
        return {}
    # fields enough for twice the largest key, so each quotient key fits as well
    _, bias, fields = _layout((2 * max(map(abs, chain(a, b)))).bit_length() // EXP_BITS)

    def digits(k):
        return fields.unpack(((k + bias) ^ bias).to_bytes(fields.size, "big"))

    ca, cb = (list(zip(*map(digits, x))) for x in (a, b))
    lo = [x - y for x, y in zip(map(min, ca), map(min, cb))] if low is None else [low] * len(ca)
    hi = [x - y for x, y in zip(map(max, ca), map(max, cb))]
    rem, quo, lead = dict(a), {}, max(b)
    while rem:
        e = max(rem)
        q = e - lead
        d = digits(q)
        if not (all(map(le, lo, d)) and all(map(le, d, hi))):
            return None
        quo[q] = c = _coeff_quotient(rem[e], b[lead])
        for x, k in b.items():
            x += q
            if s := rem.get(x, 0) - c * k:
                rem[x] = s
            else:
                del rem[x]
    return quo


def _coeff_quotient(c, lc):
    """c/lc for exact rationals, an int where integral."""
    return c // lc if type(c) is int and type(lc) is int and not c % lc else _exact(Fraction(c, lc))
