"""Symmetric Poisson CGL presentations: prediction, verification, products, flows.

A presentation over a torus power carries, per coordinate, a character
tuple, two coweight tuples and the coordinate's T-weight (``atlas.t_weights``).
Every coweight is the # of a character acted on by a Weyl element, so the
layer uses only the weight action of ``RootSystem``.  The verifier checks the
two-sided Ore form of every bracket entry, the support and torus-homogeneity
of the correction terms, and the purely log-canonical cut between the two
word blocks.
In such a chart every Hamiltonian flow is triangular, and
``hamiltonian_flow`` solves it exactly, as exponential polynomials in t.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .atlas import Chart
from .errors import DimensionMismatch, NotVerifiedCGL, ZeroTorusValue
from .laurent import laurent_fma, unit_keys
from .poisson import BracketTable
from .rootdata import Coweight, Weight
from .symbolic import MultiPoly, RatFunc, VarName, from_laurent, var

_Q0 = Fraction(0)


class CGLPresentation:
    """Predicted torus-power data for one chart; ``weights[j - 1]`` is the T-weight of z_j."""

    __slots__ = ("rs", "torus_power", "chars", "hvecs", "hprimes", "weights", "cut", "laurent_vars")

    def __init__(self, rs, torus_power, chars, hvecs, hprimes, weights, cut, laurent_vars=()):
        self.rs = rs
        self.torus_power = torus_power
        self.chars = chars
        self.hvecs = hvecs
        self.hprimes = hprimes
        self.weights = weights
        self.cut = cut
        self.laurent_vars = tuple(laurent_vars)

    def n_vars(self):
        return len(self.chars)

    def pair_table(self, hs):
        """table[i][j] = chi_{i+1}(hs[j]) for the character tuples chi of every coordinate, built at once."""
        return self.rs.evaluate_table(self.chars, hs)


def _zero_weight(rs):
    return Weight([0] * rs.rank)


def _zero_coweight(rs):
    return Coweight([0] * rs.rank)


def _word_roots(rs, word):
    """chi_j = s_{i_1} ... s_{i_{j-1}}(alpha_{i_j}) for each letter i_j of the word.

    The coweight of chi_j is chi_j#: # is W-equivariant.
    """
    return [rs.act_word(word[:j], rs.simple_root(i)) for j, i in enumerate(word)]


def predicted_cgl(chart: Chart) -> CGLPresentation:
    """The torus-power data the chart bracket must realize.

    A coordinate of word block b (0 for the w0 w^{-1} word, 1 for the w and v
    words) has the character chi_j in factor b and zero elsewhere.  Its
    coweight in each factor is chi_j acted on by a Weyl element, taken to #
    and signed: (chi#, -(w w0 chi)#) for block 0 and (-(w0 w^{-1} chi)#, chi#)
    for block 1.  N(v) adds a third factor, -(w0 chi)# or (w^{-1} chi)#, and
    the torus rows: the character omega_i in the third factor, with the
    coweights (-(w0 omega_i)#, (w omega_i)#, alpha_i^vee).
    """
    spec = chart.spec
    rs = spec.space.model.rs
    w = spec.w
    w0_word, w_word, v_word = spec.r
    nv = spec.space.qkind == "Nv"
    # (sign, Weyl element) per factor, for each block
    twists0 = [(1, rs.identity), (-1, rs.multiply(w, rs.w0))]
    twists1 = [(-1, rs.multiply(rs.w0, w.inverse())), (1, rs.identity)]
    if nv:
        twists0.append((-1, rs.w0))
        twists1.append((1, w.inverse()))
    power = len(twists0)
    zero = _zero_weight(rs)

    # the T-weight of each coordinate (``atlas.t_weights``) is its image in factor 1: w w0 chi_j, chi_j or w omega_i
    chars, hvecs, weights = [], [], []
    for b, (word, twists) in enumerate(((w0_word, twists0), (w_word + v_word, twists1))):
        for chi in _word_roots(rs, word):
            images = [rs.act(x, chi) for _, x in twists]
            chars.append(tuple(chi if f == b else zero for f in range(power)))
            hvecs.append(tuple(rs.sharp(y) * sign for (sign, _), y in zip(twists, images)))
            weights.append(images[1])
    if nv:
        for i in range(1, rs.rank + 1):
            om = rs.fundamental_weight(i)
            weights.append(rs.act(w, om))
            chars.append((zero, zero, om))
            hvecs.append((-rs.sharp(rs.act(rs.w0, om)), rs.sharp(weights[-1]), rs.omega_dual(i)))
    hprimes = [tuple(-h for h in hv) for hv in hvecs]
    return CGLPresentation(
        rs, power, chars, hvecs, hprimes, weights, cut=len(w0_word), laurent_vars=chart.torus_block()
    )


class CGLReport:
    """Outcome of verify_cgl: per-check pass/fail with witnesses."""

    def __init__(self):
        self.checks = {}
        self.f_terms = {}

    def record(self, name, ok, witnesses):
        self.checks[name] = {"ok": ok, "witnesses": witnesses}

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks.values())

    def to_dict(self):
        return {
            "ok": self.ok,
            "checks": {k: dict(v) for k, v in self.checks.items()},
        }


def _support_range_ok(f: RatFunc, lo, hi):
    """True when f is polynomial with variables among z_{lo+1} .. z_{hi-1}."""
    if not f.den.is_one():
        return False
    for v in f.num.vars:
        if v.symbol != "z" or not (lo < v.index < hi):
            return False
    return True


def verify_cgl(table: BracketTable, pres: CGLPresentation) -> CGLReport:
    """Check the bracket table against the predicted presentation.

    (a) {z_i,z_j} = -chi_i(h_j) z_i z_j - f with f supported strictly between;
    (b) the same with +chi_j(h'_i) and the same f;
    (c) chi_j(h_j) and chi_j(h'_j) are nonzero;
    (d) every monomial of f has the torus weight of z_i z_j;
    (e) pairs straddling the word-block cut are exactly log-canonical.

    Each entry num/den is read as the table's Laurent values
    (``BracketTable.laurent_entries``).  f = -(num + chi_i(h_j) z_i z_j den)/den
    is canonical as it stands, since gcd(num + c z_i z_j den, den) =
    gcd(num, den) = 1, so (a) changes one coefficient and takes no gcd for a
    Laurent entry.  The two forms differ by (chi_j(h'_i) + chi_i(h_j)) z_i z_j,
    so (b) tests one rational number and writes the second form out only for
    a witness.  (d) sums the integral T-weights ``pres.weights`` over the
    exponents of f.
    """
    if table.n_vars != pres.n_vars():
        raise DimensionMismatch(f"table has {table.n_vars} vars, presentation {pres.n_vars()}")
    report = CGLReport()
    n = table.n_vars

    # on_h[i-1][j-1] = chi_i(h_j) and on_hp[i-1][j-1] = chi_i(h'_j)
    on_h, on_hp = pres.pair_table(pres.hvecs), pres.pair_table(pres.hprimes)
    zs = [VarName("z", m) for m in range(1, n + 1)]
    frame, values = table.laurent_entries()
    units = unit_keys(len(frame))
    unit = [units[frame[z]] for z in zs]
    bad_a, bad_b, bad_e = [], [], []
    for (i, j), entry in sorted(table.entries.items()):
        c = on_h[i - 1][j - 1]
        num, den = values[(i, j)]
        f = {e: -k for e, k in num.items()}
        if c:
            laurent_fma(f, -c, {unit[i - 1] + unit[j - 1]: 1}, den or {0: 1})
        f_a = from_laurent(f, frame, den)
        if not _support_range_ok(f_a, i, j):
            bad_a.append({"pair": (i, j), "f": f_a.text()})
        if on_hp[j - 1][i - 1] + c:
            f_b = on_hp[j - 1][i - 1] * var("z", i) * var("z", j) - entry
            bad_b.append({"pair": (i, j), "f_a": f_a.text(), "f_b": f_b.text()})
        report.f_terms[(i, j)] = f_a
        if i <= pres.cut < j and j not in pres.laurent_vars and not f_a.is_zero():
            bad_e.append({"pair": (i, j), "f": f_a.text()})
    report.record("a_ore_form", not bad_a, bad_a)
    report.record("b_symmetric_form", not bad_b, bad_b)

    bad_c = []
    for j in range(1, n + 1):
        if on_h[j - 1][j - 1] == 0:
            bad_c.append({"index": j, "side": "h"})
        if on_hp[j - 1][j - 1] == 0:
            bad_c.append({"index": j, "side": "h'"})
    report.record("c_nondegenerate", not bad_c, bad_c)

    weights = {z: lam.coeffs for z, lam in zip(zs, pres.weights)}
    bad_d = []
    for (i, j), f in report.f_terms.items():
        if f.is_zero():
            continue
        target = tuple(map(add, weights[zs[i - 1]], weights[zs[j - 1]]))
        # by_coeff[k][p]: coefficient k of the weight of the p-th variable of f; a variable
        # outside z_1..z_n has no weight, so a monomial holding it is a witness
        foreign = not weights.keys() >= set(f.num.vars)
        by_coeff = list(zip(*(weights[v] for v in f.num.vars if v in weights))) or [()] * pres.rs.rank
        if foreign or any(tuple(sum(map(mul, exp, row)) for row in by_coeff) != target for exp in f.num.terms):
            bad_d.append({"pair": (i, j), "monomial_weight_mismatch": True})
    report.record("d_homogeneous", not bad_d, bad_d)
    report.record("e_log_canonical_cut", not bad_e, bad_e)
    return report


class CGLData:
    """A CGL extension as raw data: bracket table plus torus action data."""

    __slots__ = ("rs", "torus_power", "chars", "hvecs", "hprimes", "table")

    def __init__(self, rs, torus_power, chars, hvecs, hprimes, table):
        self.rs = rs
        self.torus_power = torus_power
        self.chars = chars
        self.hvecs = hvecs
        self.hprimes = hprimes
        self.table = table


def _as_tuple(x):
    return x if isinstance(x, tuple) else (x,)


def _shift_z(f, shift):
    """f with every z_m renamed to z_{m+shift}."""
    sub = {v: var("z", v.index + shift) for v in f.variables() if v.symbol == "z"}
    return f.substitute(sub) if sub else f


def mixed_product(e1: CGLData, e2: CGLData, nu) -> CGLData:
    """Mixed product of two CGL extensions along nu = sum_q a_q (x) b_q.

    ``nu`` is a list of (a_q, b_q) pairs; each side is a coweight tuple
    matching the torus power of its factor (bare coweights mean power one).
    Cross brackets are -sum_q chi_i(a_q) chi_j(b_q) z_i z_j.
    """
    rs = e1.rs
    n1 = len(e1.chars)
    n2 = len(e2.chars)
    nu = [(_as_tuple(a), _as_tuple(b)) for a, b in nu]
    zero1 = tuple(_zero_weight(rs) for _ in range(e1.torus_power))
    zero2 = tuple(_zero_weight(rs) for _ in range(e2.torus_power))

    def nu_sharp(chi, side):
        """sum_q chi(nu_q[side]) nu_q[1 - side]: nu contracted on one side by chi."""
        out = None
        for pair in nu:
            c = rs.evaluate_tuples(chi, pair[side])
            if c == 0:
                continue
            part = tuple(h * c for h in pair[1 - side])
            out = part if out is None else tuple(x + y for x, y in zip(out, part))
        if out is None:
            return tuple(_zero_coweight(rs) for _ in range((e1, e2)[1 - side].torus_power))
        return out

    chars = [c + zero2 for c in e1.chars] + [zero1 + c for c in e2.chars]
    hvecs = []
    hprimes = []
    for idx in range(n1):
        hvecs.append(_as_tuple(e1.hvecs[idx]) + nu_sharp(e1.chars[idx], 0))
        hprimes.append(_as_tuple(e1.hprimes[idx]) + tuple(-h for h in nu_sharp(e1.chars[idx], 0)))
    for idx in range(n2):
        hvecs.append(nu_sharp(e2.chars[idx], 1) + _as_tuple(e2.hvecs[idx]))
        hprimes.append(tuple(-h for h in nu_sharp(e2.chars[idx], 1)) + _as_tuple(e2.hprimes[idx]))

    entries = {}
    for (i, j), f in e1.table.entries.items():
        entries[(i, j)] = f
    shift = n1
    for (i, j), f in e2.table.entries.items():
        entries[(i + shift, j + shift)] = _shift_z(f, shift)
    for i in range(1, n1 + 1):
        for j in range(1, n2 + 1):
            c = Fraction(0)
            for a, b in nu:
                c += rs.evaluate_tuples(e1.chars[i - 1], a) * rs.evaluate_tuples(e2.chars[j - 1], b)
            zz = RatFunc.from_poly(
                MultiPoly.variable(VarName("z", i)) * MultiPoly.variable(VarName("z", j + shift))
            )
            entries[(i, j + shift)] = -c * zz
    laurent = tuple(e1.table.laurent_vars) + tuple(v + shift for v in e2.table.laurent_vars)
    table = BracketTable(n1 + n2, laurent, entries)
    return CGLData(rs, e1.torus_power + e2.torus_power, chars, hvecs, hprimes, table)


def block_cgl(chart: Chart, table: BracketTable):
    """Split a chart table at the word-block cut into two power-one CGL data.

    Returns (E1, E2, nu): the two factors with their intrinsic torus data and
    the mixing tensor that reassembles the chart presentation.
    """
    spec = chart.spec
    rs = spec.space.model.rs
    w0_word, w_word, v_word = spec.r
    k = len(w0_word)
    l = rs.l0 + len(v_word)
    if spec.space.qkind != "Bv":
        raise ValueError("block split is defined for the Bv case")
    t1 = BracketTable(k, (), {p: table.entries[p] for p in table.entries if p[1] <= k})
    t2entries = {
        (i - k, j - k): _shift_z(table.entries[(i, j)], -k)
        for (i, j) in table.entries
        if i > k
    }
    t2 = BracketTable(l - k, (), t2entries)

    def factor(word, t):
        chis = _word_roots(rs, word)
        hs = [(rs.sharp(c),) for c in chis]
        return CGLData(rs, 1, [(c,) for c in chis], hs, [(-h,) for (h,) in hs], t)

    e1, e2 = factor(w0_word, t1), factor(w_word + v_word, t2)
    w0winv = rs.multiply(rs.w0, spec.w.inverse())
    nu = [((-rs.act_coweight(w0winv, a),), (b,)) for a, b in rs.inv_gram_pairs()]
    return e1, e2, nu


def hamiltonian_report(table: BracketTable, pres: CGLPresentation, j, verified):
    """Check the completeness hypothesis for the coordinate z_j.

    Under the order (z_{j-1},...,z_1, z_{j+1},...,z_n), ``hamiltonian_flow``
    needs every {z_j, z_m} to be a_m z_j z_m + b_m with b_m a polynomial in
    the coordinates before z_m.  Once the table passes ``verify_cgl`` that is
    check (a): b_m is -f for j < m and f for j > m, and f is supported
    strictly between j and m, so on coordinates already solved.  What is left
    is that z_j be log-canonical with every localized (torus block)
    coordinate.  ``verified`` must be ``verify_cgl(table, pres)``.
    """
    if not verified.ok:
        raise NotVerifiedCGL("table failed CGL verification")
    failures = [
        {"localized": m, "entry": table.get(j, m).text()}
        for m in table.laurent_vars
        if m != j and not verified.f_terms[(min(j, m), max(j, m))].is_zero()
    ]
    return {"coordinate": j, "ok": not failures, "failures": failures}


def _ep_collect(terms):
    """The exponential polynomial {(p, lam): c} summing ((p, lam), c) pairs."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _ep_mul(x, y):
    return _ep_collect(((p + q, lam + mu), c * d) for (p, lam), c in x.items() for (q, mu), d in y.items())


def _ep_polynomial(poly, x):
    """poly with each z_m replaced by the exponential polynomial x[m]."""
    terms = []
    for exp, c in poly.terms.items():
        term = {(0, _Q0): Fraction(c)}
        for v, e in zip(poly.vars, exp):
            for _ in range(e):
                term = _ep_mul(term, x[v.index])
        terms.extend(term.items())
    return _ep_collect(terms)


def _ep_integral(b, mu, x0):
    """e^{mu t} x0 + int_0^t e^{mu (t - s)} b(s) ds for an exponential polynomial b.

    By parts, int_0^t s^p e^{k s} ds = e^{k t} sum_q c_q t^q - c_0 with
    c_p = 1/k and c_{q-1} = -q c_q / k when k != 0, and t^{p+1}/(p+1) when k = 0.
    """
    terms = [((0, mu), x0)]
    for (p, nu), c in b.items():
        k = nu - mu
        if k == 0:
            terms.append(((p + 1, nu), c / (p + 1)))
            continue
        c /= k
        terms.append(((p, nu), c))
        for q in range(p, 0, -1):
            c = -c * q / k
            terms.append(((q - 1, nu), c))
        terms.append(((0, mu), -c))
    return _ep_collect(terms)


def hamiltonian_flow(table: BracketTable, j, start):
    """The Hamiltonian flow dx_m/dt = {z_j, z_m}(x) of z_j, in closed form.

    ``start`` maps 1-based indices to rationals, or lists them.  Returns, per
    coordinate in index order, the exponential polynomial
    {(p, lam): c} = sum c t^p e^{lam t} with Fraction lam and c.  z_j is
    constant; then, in the order (z_{j-1},...,z_1, z_{j+1},...,z_n), every
    {z_j, z_m} must be a_m z_j z_m + b_m with b_m a polynomial in the
    coordinates solved before it (``NotVerifiedCGL`` names the entry
    otherwise), and x_m(t) = e^{mu t} x_m(0) + int_0^t e^{mu (t-s)} b_m(x(s)) ds
    with mu = a_m z_j(0).  The solution is entire in t, so the flow is
    complete.  A zero start on a localized coordinate is outside the chart
    and raises ``ZeroTorusValue``.
    """
    n = table.n_vars
    if not isinstance(start, dict):
        start = {i + 1: v for i, v in enumerate(start)}
    start = {m: Fraction(start[m]) for m in range(1, n + 1)}
    zero = [m for m in table.laurent_vars if start[m] == 0]
    if zero:
        raise ZeroTorusValue(f"the start has z_{zero[0]} = 0 on a localized coordinate, outside the chart")
    x = {j: _ep_collect([((0, _Q0), start[j])])}
    for m in [*range(j - 1, 0, -1), *range(j + 1, n + 1)]:
        entry = table.get(j, m)
        key = tuple(int(v.symbol == "z" and v.index in (j, m)) for v in entry.num.vars)
        a = entry.num.terms.get(key, 0) if entry.den.is_one() and sum(key) == 2 else 0
        b = entry - a * var("z", j) * var("z", m)
        if not b.den.is_one() or any(v.symbol != "z" or v.index not in x for v in b.num.vars):
            raise NotVerifiedCGL(
                f"{{z_{j}, z_{m}}} = {entry.text()} is not a z_{j} z_{m} plus a polynomial"
                f" in the coordinates solved before z_{m}"
            )
        x[m] = _ep_integral(_ep_polynomial(b.num, x), a * start[j], start[m])
    return [x[m] for m in range(1, n + 1)]
