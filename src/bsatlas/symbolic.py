"""Exact sparse multivariate polynomials and rational functions.

Coefficients are exact rationals: a Python ``int`` wherever the coefficient
is integral and a ``fractions.Fraction`` only where it is not, so the small
integer coefficients of chart formulas never pay for ``Fraction`` arithmetic;
no floating point enters any symbolic path.  Gcds run on integer-primitive
parts by Brown's modular algorithm: prime images bound the degrees, prove
coprime pairs, and give the others by interpolation (on the support of a
first image, after Zippel, in many variables) and CRT, each checked by
exact division.  Monomials are ordered graded-lexicographically with respect
to the total order on variable names, which makes every normalized value
canonical: equal rational functions have identical representations and
identical text serializations.

The Laurent values of a chart (``laurent``: packed monomial keys over a
frame of variables) come back here: ``from_laurent`` returns the canonical
RatFunc of one, or of a quotient of two.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from math import prod
from itertools import compress
from operator import add, getitem, sub

from . import modgcd
from .errors import EvaluationPole, SubstitutionPole, ZeroDenominator
from .laurent import _exact, _packed, laurent_divide, pack_poly, unit_keys, unpack_columns, unpack_exponent


def _exact_terms(terms):
    """Drop zero coefficients and store the integral ones as int."""
    return {e: c if type(c) is int else _exact(c) for e, c in terms.items() if c}


@total_ordering
class VarName:
    """A variable, identified by a base symbol and a numeric index."""

    __slots__ = ("symbol", "index", "_key")

    def __init__(self, symbol, index=0):
        self.symbol = symbol
        self.index = index
        self._key = (symbol, index)

    def __eq__(self, other):
        return isinstance(other, VarName) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"VarName({self.symbol!r}, {self.index})"

    def __str__(self):
        return self.symbol if self.index == 0 else f"{self.symbol}{self.index}"

    @staticmethod
    def parse(text):
        m = re.fullmatch(r"([A-Za-z_]+)(\d*)", text)
        if m is None:
            raise ValueError(f"not a variable name: {text!r}")
        sym, idx = m.group(1), m.group(2)
        return VarName(sym, int(idx) if idx else 0)


def var(symbol, index=0):
    """Shorthand: the rational function equal to one variable."""
    return RatFunc.from_poly(MultiPoly.variable(VarName(symbol, index)))


def _merge_vars(v1, v2):
    """Merge two sorted variable tuples; return (merged, map1, map2)."""
    if v1 == v2:
        idx = list(range(len(v1)))
        return v1, idx, idx
    merged = sorted(set(v1) | set(v2))
    pos = {v: i for i, v in enumerate(merged)}
    return tuple(merged), [pos[v] for v in v1], [pos[v] for v in v2]


def _remap(terms, src_len, dst_len, idx):
    if src_len == dst_len and idx == list(range(src_len)):
        return dict(terms)
    out = {}
    for exp, c in terms.items():
        e = [0] * dst_len
        for p, v in enumerate(exp):
            if v:
                e[idx[p]] = v
        out[tuple(e)] = c
    return out


def _grlex_key(exp):
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Normalized form: ``vars`` lists exactly the variables that occur with a
    nonzero exponent, sorted; ``terms`` maps exponent tuples (aligned with
    ``vars``) to nonzero coefficients, each an ``int`` when it is integral and
    a ``Fraction`` otherwise (never an integral ``Fraction``).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = vars
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c):
        if type(c) is not int:
            c = _exact(Fraction(c))
        return MultiPoly((), {(): c} if c else {})

    @staticmethod
    def variable(v):
        return MultiPoly((v,), {(1,): 1})

    @staticmethod
    def _make(vars, terms):
        """Normalize a raw (vars, terms) pair: exact coefficients, no zeros or unused vars."""
        return MultiPoly._pruned(vars, _exact_terms(terms))

    @staticmethod
    def _pruned(vars, terms):
        """A polynomial from normalized nonzero coefficients; drops the vars that do not occur."""
        if not terms:
            return MultiPoly((), {})
        used = [i for i, col in enumerate(zip(*terms)) if any(col)]
        if len(used) == len(vars):
            return MultiPoly(vars, terms)
        new_vars = tuple(vars[i] for i in used)
        new_terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        return MultiPoly(new_vars, new_terms)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.vars

    def is_one(self):
        return self.terms == {(): 1}

    def constant_value(self):
        if self.vars:
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get((), 0))

    # -- canonical order ---------------------------------------------------

    def leading(self):
        """(exponent, coeff) of the graded-lex leading term."""
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def key(self):
        return (self.vars, tuple(self.sorted_terms()))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(other)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        vars, i1, i2 = _merge_vars(self.vars, other.vars)
        t = _remap(self.terms, len(self.vars), len(vars), i1)
        for e, c in _remap(other.terms, len(other.vars), len(vars), i2).items():
            s = t.get(e, 0) + c
            if not s:
                t.pop(e, None)
            else:
                t[e] = s
        return MultiPoly._make(vars, t)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return MultiPoly((), {})
            c = _exact(other)
            return MultiPoly(self.vars, _exact_terms({e: k * c for e, k in self.terms.items()}))
        if not self.terms or not other.terms:
            return MultiPoly((), {})
        if self.is_constant():
            return other * self.terms[()]
        if other.is_constant():
            return self * other.terms[()]
        vars, i1, i2 = _merge_vars(self.vars, other.vars)
        t1 = _remap(self.terms, len(self.vars), len(vars), i1)
        t2 = _remap(other.terms, len(other.vars), len(vars), i2)
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        out = {}
        items2 = list(t2.items())
        for e1, c1 in t1.items():
            for e2, c2 in items2:
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if not s:
                    out.pop(e, None)
                else:
                    out[e] = s
        # deg_v(fg) = deg_v f + deg_v g, so every merged variable occurs
        return MultiPoly(vars, _exact_terms(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, point):
        """Exact value at a point mapping VarName -> Fraction."""
        return Fraction(*self.scaled_value(point))

    def scaled_value(self, point):
        """(n, d), ints with d > 0 and n/d the value at ``point``: every term over one denominator.

        A variable of degree k at a/b scales a term's z^e by b^k, and a^e b^(k-e) comes from one table.
        """
        lc = den = _int_lcm(*(c.denominator for c in self.terms.values()))
        tables = []
        for v, k in zip(self.vars, map(max, zip(*self.terms))):
            if v not in point:
                raise KeyError(f"no value for variable {v}")
            a, b = Fraction(point[v]).as_integer_ratio()
            tables.append([a**e * b ** (k - e) for e in range(k + 1)])
            den *= b**k
        terms = self.terms.items()
        return sum(c.numerator * (lc // c.denominator) * prod(map(getitem, tables, e)) for e, c in terms), den

    def substitute_ratfuncs(self, images):
        """Compose with RatFunc images (variables absent from ``images`` pass through)."""
        out = RatFunc.zero()
        imgs = [images.get(v, RatFunc.from_poly(MultiPoly.variable(v))) for v in self.vars]
        cache = [{} for _ in imgs]

        def power(i, k):
            got = cache[i].get(k)
            if got is None:
                got = imgs[i] ** k
                cache[i][k] = got
            return got

        for e, c in self.terms.items():
            term = RatFunc.constant(c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    # -- integer content ----------------------------------------------------

    def z_content(self):
        """Positive rational c with self/c integer-primitive; 0 for the zero poly."""
        if not self.terms:
            return 0
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, c.numerator)
            den = _int_lcm(den, c.denominator)
        return num if den == 1 else Fraction(num, den)

    # -- display -----------------------------------------------------------

    def text(self):
        """Canonical text: graded-lex descending, explicit signs."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(str(v))
                elif k:
                    factors.append(f"{v}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MultiPoly({self.text()})"


# -- division and gcd -------------------------------------------------------


def try_divide(f, g):
    """Return f/g if g divides f exactly, else None."""
    if g.is_zero():
        return None
    if g.is_constant():
        return f * (Fraction(1) / g.terms[()])
    vars = _merge_vars(f.vars, g.vars)[0]
    frame = dict(zip(vars, range(len(vars))))
    return _poly_quotient(pack_poly(f, frame), pack_poly(g, frame), vars)


def _poly_quotient(a, b, vars):
    """The MultiPoly a/b for polynomial Laurent values over ``vars``, or None: ``laurent_divide`` with no negative exponent."""
    q = laurent_divide(a, b, low=0)
    if not q:
        return None if q is None else MultiPoly((), {})
    cols = unpack_columns(q, len(vars))
    return None if any(min(c) < 0 for c in cols) else _poly_of(vars, cols, q.values(), [0] * len(vars))


def _strip_mono(f):
    """(e, f / z^e) for z^e the largest monomial dividing every term of f."""
    e = tuple(map(min, zip(*f.terms)))
    return e, f if not any(e) else MultiPoly._pruned(f.vars, {tuple(map(sub, x, e)): c for x, c in f.terms.items()})


def _signed_content(f):
    """The z_content of f, with the sign of its graded-lex leading coefficient."""
    c = f.z_content()
    return -c if f.leading()[1] < 0 else c


def _divide_content(f, c):
    """f / c for c = +-z_content(f), in int arithmetic: every quotient is an integer."""
    if c == 1:
        return f
    n, d = c.numerator, c.denominator
    return MultiPoly(f.vars, {e: k.numerator * d // (k.denominator * n) for e, k in f.terms.items()})


def _normalize_primitive(f):
    """Scale f to integer-primitive with positive graded-lex leading coefficient."""
    if f.is_zero():
        return f
    return _divide_content(f, _signed_content(f))


def _times_monomial(p, exps, c):
    """c * z^exps * p, for exps a dict from variables in sorted order to exponents."""
    if any(exps.values()):
        p = MultiPoly._pruned(tuple(exps), {tuple(exps.values()): 1}) * p
    return p if c == 1 else p * c


def poly_gcd(f, g, cofactors=False):
    """Gcd of two polynomials, integer-primitive with positive leading coefficient.

    Nonzero constants count as units: gcd(c, g) = 1.  The common monomial and
    the integer contents go first; Brown's modular algorithm, with Zippel's
    sparse images in many variables, takes the rest (``_poly_gcd_stripped``),
    and each gcd it returns is proved, 1 by degree bounds and any other by
    exact division.  With ``cofactors`` the result is (h, f/h, g/h), the
    quotients those divisions left.
    """
    if f.is_zero() or g.is_zero():
        h = _normalize_primitive(g if f.is_zero() else f)
        return (h, try_divide(f, h), try_divide(g, h)) if cofactors else h
    if f.is_constant() or g.is_constant():
        h = MultiPoly.constant(1)
        return (h, f, g) if cofactors else h
    (ef, f1), (eg, g1) = _strip_mono(f), _strip_mono(g)
    ef, eg = dict(zip(f.vars, ef)), dict(zip(g.vars, eg))
    m = {v: min(k, eg.get(v, 0)) for v, k in ef.items()}
    mono = MultiPoly._pruned(tuple(m), {tuple(m.values()): 1})
    if f1.is_constant() or g1.is_constant():
        h, (a, cf), (b, cg) = mono, (f1, 1), (g1, 1)
    else:
        cf, cg = _signed_content(f1), _signed_content(g1)
        hs, a, b = _poly_gcd_stripped(_divide_content(f1, cf), _divide_content(g1, cg))
        h = mono * hs
    if not cofactors:
        return h
    if h.is_one():
        return h, f, g
    # f = z^ef cf (f1/cf) and h = z^m hs, so f/h = z^(ef - m) cf a; likewise g/h
    return h, *(_times_monomial(q, {v: k - m.get(v, 0) for v, k in e.items()}, c) for e, q, c in ((ef, a, cf), (eg, b, cg)))


def _poly_gcd_stripped(f, g):
    """(h, f/h, g/h), h the gcd of nonconstant ``_normalize_primitive`` f and g with no monomial content (Brown 1971).

    A divisor of the other is the gcd.  Else ``modgcd.degree_bounds`` bounds
    the degree of the gcd in each variable, and bounds of 0 prove it is 1.
    Else ``modgcd.gcd_mod`` gives images in the variables with a positive
    bound, the others at random points mod a prime, scaled to lead with the
    gcd of the contents of the integer leading coefficients, and CRT joins
    them.  A candidate that meets the bounds and divides f and g is the gcd,
    and the two quotients, scaled by its content, are the cofactors.
    A failed one, past twice a factor's coefficient bound (2^(sum of bounds)
    times the least 1-norm), means an unlucky prime or point, and a fresh
    draw follows.
    """
    one = MultiPoly.constant(1)
    if f.vars == g.vars and f.terms == g.terms:
        return f, one, one
    vars, i1, i2 = _merge_vars(f.vars, g.vars)
    ft, gt = _remap(f.terms, len(f.vars), len(vars), i1), _remap(g.terms, len(g.vars), len(vars), i2)
    degs = [list(map(max, zip(*t))) for t in (ft, gt)]
    for h, q, dh, dq in ((g, f, *degs[::-1]), (f, g, *degs)):  # a divisor of the other is the gcd
        if all(map(int.__le__, dh, dq)) and (quo := try_divide(q, h)) is not None:
            return (h, quo, one) if h is g else (h, one, quo)
    shared, k, rng = [i for i, (a, b) in enumerate(zip(*degs)) if a and b], 0, modgcd.new_rng()
    while True:
        p, k = modgcd.prime(k), k + 1
        bounds = modgcd.degree_bounds((ft, gt), degs, shared, p, rng)
        if bounds is None:
            continue
        if not any(bounds.values()):
            return one, f, g
        # first a variable in which f or g leads alone: the gcd leads with an integer in it, and gamma stays 1
        order = [i for i in shared if bounds[i]]
        lone = lambda i, t, d: not any(e[j] for e in t if e[i] == d[i] for j in order if j != i)
        alone = {i for i in order for t, d in zip((ft, gt), degs) if lone(i, t, d)}
        order.sort(key=lambda i: (i not in alone, -bounds[i]))
        key = lambda e: tuple(map(e.__getitem__, order))
        lead = 0
        for t in (ft, gt):
            top = max(map(key, t))
            lead = _int_gcd(lead, *(c for e, c in t.items() if key(e) == top))
        limit = 2 * lead * 2 ** sum(bounds.values()) * min(sum(map(abs, t.values())) for t in (ft, gt))
        m, acc = 1, {}
        slots = [order.index(i) if i in order else -1 for i in range(len(vars))]
        while m <= limit:
            p, k = modgcd.prime(k), k + 1
            point = [1 if i in order else rng.randrange(p) for i in range(len(vars))]
            images = [modgcd.at({e: [c] for e, c in modgcd.image(t, point, p, key).items()}, 0, p) for t in (ft, gt)]
            h = modgcd.gcd_mod(*images, p, [bounds[i] for i in order], rng)
            if h is None or not lead % p or (acc and max(h) != max(acc)):
                break
            s, inv = lead * pow(h[max(h)], -1, p) % p, pow(m, -1, p)
            for e in acc.keys() | h.keys():
                x = acc.get(e, 0)
                acc[e] = x + m * ((s * h.get(e, 0) - x) * inv % p)
            m *= p
            cand = {tuple((*e, 0)[j] for j in slots): x - m * (2 * x > m) for e, x in acc.items() if x}
            if all(max(e[i] for e in cand) == bounds[i] for i in order):
                units = unit_keys(len(vars))
                pc = _packed(cand, units)
                qf = _poly_quotient(_packed(ft, units), pc, vars)
                if qf is not None and (qg := _poly_quotient(_packed(gt, units), pc, vars)) is not None:
                    h = MultiPoly._make(vars, cand)
                    c = _signed_content(h)
                    return _divide_content(h, c), qf * c, qg * c


# -- rational functions ------------------------------------------------------


class RatFunc:
    """Rational function in canonical form.

    Invariants: den != 0, gcd(num, den) = 1, den integer-primitive with
    positive graded-lex leading coefficient.  ``_coprime`` says gcd(num, den) = 1
    is known, so only the sign and content of den are normalized.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, _canonical=False, _coprime=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDenominator("denominator is identically zero")
        if num.is_zero():
            self.num = num
            self.den = MultiPoly.constant(1)
            return
        if not (den.is_one() or _coprime):
            _, num, den = poly_gcd(num, den, cofactors=True)
        c = _signed_content(den)
        if c != 1:
            num = num * (Fraction(1) / c)
            den = _divide_content(den, c)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p):
        return RatFunc(p, MultiPoly.constant(1), _canonical=True)

    @staticmethod
    def constant(c):
        return RatFunc.from_poly(MultiPoly.constant(c))

    @staticmethod
    def zero():
        return _RF_ZERO

    @staticmethod
    def one():
        return _RF_ONE

    @staticmethod
    def coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, MultiPoly):
            return RatFunc.from_poly(x)
        if isinstance(x, (int, Fraction)):
            return RatFunc.constant(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to RatFunc")

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_one()

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.constant_value()

    def variables(self):
        return tuple(sorted(set(self.num.vars) | set(self.den.vars)))

    def key(self):
        return (self.num.key(), self.den.key())

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction, MultiPoly)):
                return NotImplemented
            other = RatFunc.coerce(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            if not isinstance(other, (int, Fraction, MultiPoly)):
                return NotImplemented
            other = RatFunc.coerce(other)
        # both operands are canonical, so a zero one leaves the other as the sum
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num + other.num)
        g0, b1, d1 = poly_gcd(self.den, other.den, cofactors=True)
        if g0.is_one():
            return RatFunc(self.num * d1 + other.num * b1, b1 * d1)
        t = self.num * d1 + other.num * b1
        g1, t1, g2 = poly_gcd(t, g0, cofactors=True)
        if g1.is_one():
            return RatFunc(t, b1 * d1 * g0, _canonical=False)
        return RatFunc(t1, b1 * d1 * g2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RatFunc.coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            if isinstance(other, MultiPoly):
                other = RatFunc.from_poly(other)
            elif isinstance(other, (int, Fraction)):
                if other == 0 or self.num.is_zero():
                    return _RF_ZERO
                # a nonzero scalar leaves gcd(num, den) and den itself unchanged
                return RatFunc(self.num * other, self.den, _canonical=True)
            else:
                return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return _RF_ZERO
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num * other.num)
        _, n1, d2 = poly_gcd(self.num, other.den, cofactors=True)
        _, n2, d1 = poly_gcd(other.num, self.den, cofactors=True)
        return RatFunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inv(self):
        if self.num.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RatFunc.coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) * self.inv()

    def __pow__(self, n):
        if n == 0:
            return _RF_ONE
        if n < 0:
            return self.inv() ** (-n)
        num = self.num**n
        den = self.den**n
        return RatFunc(num, den, _canonical=True)

    # -- substitution, evaluation --------------------------------------------

    def substitute(self, bindings):
        """Compose: variables in ``bindings`` map to RatFuncs, others pass through."""
        bindings = {k: RatFunc.coerce(v) for k, v in bindings.items()}
        num = self.num.substitute_ratfuncs(bindings)
        den = self.den.substitute_ratfuncs(bindings)
        if den.is_zero():
            raise SubstitutionPole("substitution makes the denominator identically zero")
        return num / den

    def evaluate(self, point):
        dn, dd = self.den.scaled_value(point)
        if not dn:
            raise EvaluationPole("denominator vanishes at the evaluation point")
        n, d = self.num.scaled_value(point)
        return Fraction(n * dd, d * dn)

    # -- display -------------------------------------------------------------

    def text(self):
        if self.den.is_one():
            return self.num.text()
        n = self.num.text()
        if len(self.num.terms) > 1:
            n = f"({n})"
        d = self.den.text()
        if len(self.den.terms) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"RatFunc({self.text()})"


_RF_ZERO = RatFunc.from_poly(MultiPoly.constant(0))
_RF_ONE = RatFunc.from_poly(MultiPoly.constant(1))


# -- Laurent values back to rational functions ---------------------------------


def _poly_of(variables, cols, coeffs, offsets):
    """The MultiPoly whose term t has coefficient coeffs[t] and exponent cols[i][t] + offsets.get(i, 0) in variables[i]."""
    if offsets:
        cols = [tuple(map(offsets[i].__add__, c)) if i in offsets else c for i, c in enumerate(cols)]
    used = list(compress(range(len(cols)), map(any, cols)))
    keys = zip(*map(cols.__getitem__, used)) if used else [()]
    return MultiPoly(tuple(map(variables.__getitem__, used)), dict(zip(keys, map(_exact, coeffs))))


def from_laurent(a, frame, den=None, _coprime=False):
    """The canonical RatFunc of the Laurent value a, or of a/den for a nonzero Laurent value den.

    The common monomial goes first: a monomial den is a shift and takes no
    gcd; any other loses its monomial part, num and den gain the monomial
    that clears the negative exponents of a, and ``RatFunc(num, den)`` takes
    one gcd, unless ``_coprime`` says a and den share no factor but a monomial.
    Each key is unpacked once (``unpack_columns``); a single term c*z^e is
    read from its one key, as c*z^e+ over the monomial z^e- with e = e+ - e-.
    """
    if not a:
        return _RF_ZERO
    if den is not None and len(den) == 1:
        a, den = laurent_divide(a, den), None
    if den is None and len(a) == 1:
        ((key, c),) = a.items()
        # (variables, exponents) of e+ and of e-
        up, down = ([], []), ([], [])
        for v, k in zip(frame, unpack_exponent(key, len(frame))):
            if k:
                vs, ks = up if k > 0 else down
                vs.append(v)
                ks.append(abs(k))
        num = MultiPoly(tuple(up[0]), {tuple(up[1]): _exact(c)})
        if not down[0]:
            return RatFunc.from_poly(num)
        return RatFunc(num, MultiPoly(tuple(down[0]), {tuple(down[1]): 1}), _canonical=True)
    variables, n = tuple(frame), len(frame)
    cols = unpack_columns(a, n)
    if den is None:
        # the exponent that clears each negative column
        low = {i: -m for i, c in enumerate(cols) if (m := min(c)) < 0} if min(map(min, cols), default=0) < 0 else {}
        num = _poly_of(variables, cols, a.values(), low)
        if not low:
            return RatFunc.from_poly(num)
        # no variable of the denominator divides the numerator, so the two are coprime
        return RatFunc(num, MultiPoly(tuple(variables[i] for i in low), {tuple(low.values()): 1}), _canonical=True)
    den_cols = unpack_columns(den, n)
    # den loses its monomial part and both gain the monomial that clears a: slot i moves by -min(a_i, den_i)
    low = {i: -m for i, m in enumerate(map(min, map(add, cols, den_cols))) if m}
    return RatFunc(
        _poly_of(variables, cols, a.values(), low), _poly_of(variables, den_cols, den.values(), low), _coprime=_coprime
    )
