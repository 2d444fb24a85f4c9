"""Reference constructions that only the tests use, as oracles for the library's fast paths."""

from collections import Counter
from fractions import Fraction
from operator import add, le, sub

from bsatlas.atlas import Chart
from bsatlas.cgl import CGLPresentation, CGLReport, _support_range_ok, _zero_weight
from bsatlas.errors import DimensionMismatch, LengthMismatch, NotInBigCell, ZeroTorusValue
from bsatlas.groups import GroupElement, _signed
from bsatlas.laurent import EXP_BITS, _coeff_quotient, _exact, laurent_shift, pack_exponent
from bsatlas.linalg import _bareiss, _dot, _is_zero, laurent_lower_factor, laurent_lower_inverse, mat_mul, minor
from bsatlas.poisson import BracketTable, build_lambda
from bsatlas.symbolic import _RF_ZERO, MultiPoly, RatFunc, VarName, _grlex_key, from_laurent


def exp_nilpotent(model, x, c):
    """exp(c x) for any nilpotent x, as a dense series; entries have the type of c (an int c gives Fractions)."""
    n = model.dim
    out = term = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    k = 1
    while True:
        term = [[v * (c * Fraction(1, k)) for v in row] for row in mat_mul(term, x)]
        if all(_is_zero(v) for row in term for v in row):
            return GroupElement(model, out)
        out = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(out, term)]
        k += 1


def coordinates_from_factors(chart, *factors):
    """Coordinates of the point whose wbar^{-1} g has the normal form L * N * T = factors, as minors of formed factors."""
    return [_signed(minor(factors[f], rows, cols), sign) for f, rows, cols, sign in chart.minors]


def identity(model):
    """The identity as a Fraction matrix."""
    return GroupElement(model, [[Fraction(int(i == j)) for j in range(model.dim)] for i in range(model.dim)])


def one_param(model, signed_index, c):
    """x_{+-i}(c) = exp(c e_{+-i}) by the series (``exp_nilpotent``), not the column update; in the type of c."""
    return exp_nilpotent(model, model.root_vector(abs(signed_index), signed_index), c)


def product(g, *factors):
    """g times each factor in turn, as dense products (``linalg.mat_mul``)."""
    entries = g.entries
    for h in factors:
        entries = mat_mul(entries, h.entries)
    return GroupElement(g.model, entries)


def fraction_chain(model, letters, c):
    """x_{a_1}(c_1) ... x_{a_k}(c_k) for signed letters a_j, a dense product of ``one_param`` factors, in the type of c."""
    return product(identity(model), *(one_param(model, a, ca) for a, ca in zip(letters, c)))


def wbar(model, word):
    """The representative of the element of a reduced ``word`` as a Fraction matrix, formed from its SignedPerm."""
    return GroupElement(model, model.signed_perm(word).right(identity(model).entries))


def sbar(model, i):
    """The representative of the simple reflection s_i as a Fraction matrix."""
    return wbar(model, (i,))


def torus_element(model, values):
    """Diagonal t with t^{omega_i} = values[i]; entries have the values' type."""
    if len(values) != model.rs.rank:
        raise ValueError("need one value per fundamental weight")
    if any(_is_zero(v) for v in values):
        raise ZeroTorusValue("torus coordinates must be nonzero")
    n = model.dim
    entries = [[Fraction(0)] * n for _ in range(n)]
    for p in range(n):
        d = Fraction(1)
        for v, c in zip(values, model.slot_weights[p]):
            # dividing keeps an int value exact; int ** -1 is a float
            if c > 0:
                d = d * v**c
            elif c < 0:
                d = d / v**-c
        entries[p][p] = d
    return GroupElement(model, entries)


def mul_torus(model, g, values):
    """g t for the torus element t with t^{omega_i} = values[i], as a column scaling."""
    t = torus_element(model, values).entries
    return GroupElement(model, [[x * t[j][j] for j, x in enumerate(row)] for row in g.entries])


def fraction_toric_point(spec, c):
    """The toric point at c by the Fraction chain and torus column scaling, one Fraction product per update."""
    model, rs = spec.model, spec.model.rs
    c = [Fraction(x) for x in c]
    l0, (w1, w2) = rs.l0, spec.words
    neg = [-i for i in w1]

    if spec.target == "G":
        return mul_torus(model, fraction_chain(model, neg + list(w2), c[: 2 * l0]), c[2 * l0 :])
    lv = len(w2)
    point = fraction_chain(model, neg + list(reversed(w2)), c[:l0] + list(reversed(c[l0 : l0 + lv])))
    return mul_torus(model, point, c[l0 + lv :]) if spec.target == "GmodNv" else point


def fraction_random_element(model, rng):
    """A random group element by Fraction chains, signed permutations and the torus oracle, drawing
    from rng in the order of ``cli._random_element``."""
    rs = model.rs
    g = identity(model)
    for _ in range(rng.randint(1, 2 * rs.l0)):
        i = rng.randint(1, rs.rank)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        g = product(g, one_param(model, i if rng.random() < 0.5 else -i, c))
        if rng.random() < 0.3:
            g = GroupElement(model, model.signed_perm((i,)).right(g.entries))
    return mul_torus(model, g, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rs.rank)])


def fraction_pivot_permutation_upper(mat):
    """Permutation sigma with mat in B sigma B (B upper), by elimination with exact field division.

    Rows above the pivot lose multiples of the pivot row, then later columns
    lose multiples of the pivot column; ints are read as Fractions.
    """
    m = [[Fraction(x) if type(x) is int else x for x in row] for row in mat]
    n = len(m)
    sigma = []
    for j in range(n):
        i = max(r for r in range(n) if m[r][j] != 0)
        sigma.append(i + 1)
        piv = m[i][j]
        for r in range(i):
            if m[r][j] != 0:
                f = m[r][j] / piv
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
        for c in range(j + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / piv
                for r in range(n):
                    m[r][c] = m[r][c] - f * m[r][j]
    return tuple(sigma)


def ltu_reference(a):
    """The division elimination a = L*T*U: (L, diagonal of T, U), each row of U divided by its own pivot.

    Every multiplier and every update is a division or product in the entry
    type of a, so it factors RatFunc matrices of any denominators, and a zero
    pivot raises NotInBigCell with its 1-based index.
    """
    m = [list(row) for row in a]
    size = len(m)
    zero = a[0][0] * 0
    lower = [[zero + 1 if i == j else zero for j in range(size)] for i in range(size)]
    for k in range(size):
        if _is_zero(m[k][k]):
            raise NotInBigCell(k + 1)
        for i in range(k + 1, size):
            f = m[i][k] / m[k][k]
            lower[i][k] = f
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    upper = [[m[i][j] / m[i][i] if j > i else zero + int(i == j) for j in range(size)] for i in range(size)]
    return lower, [m[i][i] for i in range(size)], upper


def x_chain(model, word, sign, c):
    """Ordered product of one-parameter factors x_{+-alpha_i}(c_i)."""
    if len(word) != len(c):
        raise LengthMismatch(f"{len(c)} parameters for a length-{len(word)} word")
    s = 1 if sign in (1, "+", "+1") else -1
    return fraction_chain(model, [s * i for i in word], c)


def poly_derivative(p, v):
    """The partial derivative of the MultiPoly p by the variable v."""
    if v not in p.vars:
        return MultiPoly((), {})
    i = p.vars.index(v)
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
    return MultiPoly._make(p.vars, out)


def fraction_evaluate(p, point):
    """The MultiPoly p at a point mapping VarName -> Fraction, summed term by term in Fractions."""
    vals = []
    for v in p.vars:
        if v not in point:
            raise KeyError(f"no value for variable {v}")
        vals.append(Fraction(point[v]))
    total = Fraction(0)
    for e, c in p.terms.items():
        term = c
        for b, k in zip(vals, e):
            if k:
                term *= b**k
        total += term
    return total


def differentiate(f, v):
    """The partial derivative of the RatFunc f by the variable v, by the quotient rule."""
    dn = poly_derivative(f.num, v)
    dd = poly_derivative(f.den, v)
    if dd.is_zero():
        return RatFunc(dn, f.den)
    return RatFunc(dn * f.den - f.num * dd, f.den * f.den)


def entry_var(i, j):
    """Variable name of the (i, j) entry of a generic matrix (1-based)."""
    return VarName("a", 10 * i + j)


def generic_element(model):
    """Matrix of free entry variables (no group constraint imposed)."""
    n = model.dim
    return GroupElement(
        model,
        [
            [RatFunc.from_poly(MultiPoly.variable(entry_var(i + 1, j + 1))) for j in range(n)]
            for i in range(n)
        ],
    )


def _directional(model, f, direction_entries):
    """Derivative of f(entries) along the field whose value at g is ``direction``.

    ``direction_entries`` is an n x n matrix of polynomials in the entry
    variables (g X for the left field, X g for the right one).
    """
    n = model.dim
    out = RatFunc.zero()
    for i in range(n):
        for j in range(n):
            d = direction_entries[i][j]
            if _is_zero(d):
                continue
            part = differentiate(f, entry_var(i + 1, j + 1))
            if part.is_zero():
                continue
            out = out + part * d
    return out


def entry_bracket(model, f1, f2, lam=None):
    """Poisson bracket {f1, f2} of two functions of the n^2 entry variables.

    The four-term sum over the terms of the skew r-matrix, each a product of
    directional derivatives along left and right root-vector fields: the
    reference engine that chart brackets are checked against.
    """
    if lam is None:
        lam = build_lambda(model)
    g = generic_element(model).entries
    total = RatFunc.zero()
    for _, e_minus, e_plus, coeff in lam.terms:
        gl_minus = mat_mul(g, e_minus)
        gl_plus = mat_mul(g, e_plus)
        gr_minus = mat_mul(e_minus, g)
        gr_plus = mat_mul(e_plus, g)
        lterm = _directional(model, f1, gl_minus) * _directional(model, f2, gl_plus) - _directional(
            model, f1, gl_plus
        ) * _directional(model, f2, gl_minus)
        rterm = _directional(model, f1, gr_minus) * _directional(model, f2, gr_plus) - _directional(
            model, f1, gr_plus
        ) * _directional(model, f2, gr_minus)
        total = total + coeff * (lterm - rterm)
    return total


# The RatFunc verifier that cgl.verify_cgl replaced, kept as its reference.
def verify_cgl(table: BracketTable, pres: CGLPresentation) -> CGLReport:
    """Check the bracket table against the predicted presentation.

    (a) {z_i,z_j} = -chi_i(h_j) z_i z_j - f with f supported strictly between;
    (b) the same with +chi_j(h'_i) and the same f;
    (c) chi_j(h_j) and chi_j(h'_j) are nonzero;
    (d) every monomial of f has the torus weight of z_i z_j;
    (e) pairs straddling the word-block cut are exactly log-canonical.
    """
    if table.n_vars != pres.n_vars():
        raise DimensionMismatch(f"table has {table.n_vars} vars, presentation {pres.n_vars()}")
    report = CGLReport()
    n = table.n_vars
    rs = pres.rs

    # on_h[i-1][j-1] = chi_i(h_j) and on_hp[i-1][j-1] = chi_i(h'_j)
    on_h, on_hp = pres.pair_table(pres.hvecs), pres.pair_table(pres.hprimes)
    bad_a, bad_b, bad_e = [], [], []
    for (i, j), entry in sorted(table.entries.items()):
        zz = RatFunc.from_poly(
            MultiPoly.variable(VarName("z", i)) * MultiPoly.variable(VarName("z", j))
        )
        f_a = -(entry + on_h[i - 1][j - 1] * zz)
        if not _support_range_ok(f_a, i, j):
            bad_a.append({"pair": (i, j), "f": f_a.text()})
        f_b = on_hp[j - 1][i - 1] * zz - entry
        if not (f_b - f_a).is_zero():
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

    weights = {VarName("z", m): lam for m, lam in enumerate(pres.weights, start=1)}
    bad_d = []
    for (i, j), f in report.f_terms.items():
        if f.is_zero():
            continue
        target = weights[VarName("z", i)] + weights[VarName("z", j)]
        for exp, _ in f.num.terms.items():
            # a variable outside z_1..z_n has no weight
            if any(e and v not in weights for v, e in zip(f.num.vars, exp)):
                bad_d.append({"pair": (i, j), "monomial_weight_mismatch": True})
                break
            wsum = None
            for v, e in zip(f.num.vars, exp):
                if not e:
                    continue
                part = weights[v] * e
                wsum = part if wsum is None else wsum + part
            if wsum is None:
                wsum = _zero_weight(rs)
            if wsum != target:
                bad_d.append({"pair": (i, j), "monomial_weight_mismatch": True})
                break
    report.record("d_homogeneous", not bad_d, bad_d)
    report.record("e_log_canonical_cut", not bad_e, bad_e)
    return report


# The Laurent kernels on exponent tuples that the packed-key kernels of bsatlas.symbolic replaced,
# kept as their reference: a value is {exponent tuple over the frame: nonzero coefficient}.


def packed(value, n):
    """The tuple-keyed Laurent value over n slots with each exponent tuple e packed into its key
    sum_i e_i (R^n + R^(n-1-i)), R = 2^EXP_BITS."""
    r = 1 << EXP_BITS
    return {sum(k * (r**n + r ** (n - 1 - i)) for i, k in enumerate(e)): c for e, c in value.items()}


def unpacked(value, n):
    """The packed Laurent value over n slots with each key read back, digit by balanced digit, as its exponent tuple."""
    r, out = 1 << EXP_BITS, {}
    for key, c in value.items():
        e = []
        for _ in range(n):
            e.append((key + r // 2) % r - r // 2)
            key = (key - e[-1]) // r
        assert key == sum(e), "the top field holds the degree"
        out[tuple(reversed(e))] = c
    return out


def tuple_to_laurent(f, frame):
    """f = num/m as {exponent tuple over ``frame``: coefficient}; m must be a monomial."""
    den = f.den
    assert len(den.terms) == 1
    base = [0] * len(frame)
    for v, k in zip(den.vars, next(iter(den.terms))):
        base[frame[v]] = -k
    slots = [frame[v] for v in f.num.vars]
    out = {}
    for exp, c in f.num.terms.items():
        e = base[:]
        for slot, k in zip(slots, exp):
            e[slot] += k
        out[tuple(e)] = c
    return out


def tuple_fma(acc, s, a, b):
    """acc += s*a*b in place, for tuple-keyed Laurent values a and b over the frame of acc."""
    if type(s) is not int:
        s = _exact(s)
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            c = acc.get(e, 0) + s * ca * cb
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)


def tuple_shift(a, exp, c=1):
    """c * z^exp * a on exponent tuples."""
    return {tuple(map(add, e, exp)): c * k for e, k in a.items()}


def tuple_derivative(a, slot):
    """The derivative of the tuple-keyed Laurent value a by the variable at ``slot``."""
    out = {}
    for e, c in a.items():
        if k := e[slot]:
            out[e[:slot] + (k - 1,) + e[slot + 1 :]] = c * k
    return out


def tuple_divide(a, b, low=None):
    """a/b for tuple-keyed Laurent values, or None: long division by graded-lex leading terms inside the box
    [min a - min b, max a - max b] (or [low, max a - max b]) of possible quotient exponents."""
    if len(b) == 1:
        ((eb, cb),) = b.items()
        return {tuple(map(sub, e, eb)): _coeff_quotient(c, cb) for e, c in a.items()}
    if not b:
        return None
    rem, quo, lead = dict(a), {}, max(b, key=_grlex_key)
    lo = [x - y for x, y in zip(map(min, zip(*a)), map(min, zip(*b)))] if low is None else [low] * len(lead)
    hi = [x - y for x, y in zip(map(max, zip(*a)), map(max, zip(*b)))]
    while rem:
        e = max(rem, key=_grlex_key)
        q = tuple(map(sub, e, lead))
        if not (all(map(le, lo, q)) and all(map(le, q, hi))):
            return None
        quo[q] = c = _coeff_quotient(rem[e], b[lead])
        for x, k in b.items():
            x = tuple(map(add, q, x))
            if s := rem.get(x, 0) - c * k:
                rem[x] = s
            else:
                del rem[x]
    return quo


def tuple_from_laurent(a, frame, den=None):
    """The canonical RatFunc of the tuple-keyed Laurent value a, or of a/den."""
    if not a:
        return _RF_ZERO
    variables = tuple(frame)
    if den is not None and len(den) == 1:
        a, den = tuple_divide(a, den), None
    elif den is not None:
        shift = [-k for k in map(min, zip(*den))]
        a, den = tuple_shift(a, shift), tuple_shift(den, shift)
    low = [-min(k, 0) for k in map(min, zip(*a))]
    num = MultiPoly._make(variables, tuple_shift(a, low))
    if den is not None:
        return RatFunc(num, MultiPoly._make(variables, tuple_shift(den, low)))
    return RatFunc(num, MultiPoly._make(variables, {tuple(low): 1}))


# The chart representative as built before it became column updates of a partial product: three chains and
# three Laurent matrix products.


def laurent_mat_mul(a, b):
    """The product of two matrices of Laurent values over one frame."""
    bt = list(zip(*b))
    return [[_dot({}, ((1, x, y) for x, y in zip(row, col) if x and y)) for col in bt] for row in a]


def matrix_product_representative(spec):
    """(frame, rep) by the chains g1, g2, g3 (``GroupModel.mul_word`` on the identity), x = g2 (w0bar^{-1} g1),
    its lower factor L and rep = ((L^{-1} g2) g3) vbar^{-1} times the torus, each product a Laurent matrix product."""
    model = spec.space.model
    rs = model.rs
    w0_word, w_word, v_word = spec.r
    k, l0 = len(w0_word), rs.l0
    l, dims = l0 + len(v_word), spec.space.dims()
    one = {0: 1}
    g1, g2, g3 = (model.mul_word(None, word, start, dims) for word, start in ((w0_word, 0), (w_word, k), (v_word, l0)))
    x = laurent_mat_mul(g2, model.signed_perm(rs.w0.canonical).left_inv(g1))
    lower_inv = model.from_internal(laurent_lower_inverse(laurent_lower_factor(model.to_internal(x), one), one))
    rep = model.signed_perm(v_word).right_inv(laurent_mat_mul(laurent_mat_mul(lower_inv, g2), g3))
    if spec.space.qkind == "Nv":
        shifts = [[0] * dims for _ in range(model.dim)]
        for shift, weight in zip(shifts, model.slot_weights):
            shift[l : l + rs.rank] = weight
        shifts = [pack_exponent(shift, dims) for shift in shifts]
        rep = [[laurent_shift(x, shift) for x, shift in zip(row, shifts)] for row in rep]
    return {VarName("z", j): j - 1 for j in range(1, dims + 1)}, rep


# A coordinate as read before each quotient divided out its pivots' factors: one from_laurent of whole pivots.


def undivided_coordinates(chart, g):
    """The coordinates of chart at g, a Chart or a matrix of Laurent RatFuncs, each from_laurent(num, frame, den).

    num and den are the products of ``linalg._factor_minor``'s pivots p_k, whole: a pivot index on both sides
    cancels and nothing else is divided, so every pivot factor that is not a monomial is left to the gcd.
    """
    model = chart.spec.space.model
    frame, entries = (g.frame, g.rep) if isinstance(g, Chart) else (None, getattr(g, "entries", g))
    h = model.to_internal(model.signed_perm(chart.spec.w.canonical).left_inv(entries))
    ring, m, p, _ = _bareiss(h, frame)
    pos = {r: i for i, r in enumerate(model._perm)}
    out = []
    for f, rows, cols, sign in chart.minors:
        rows, cols = [pos[r] for r in rows], [pos[k] for k in cols]
        if f == 2:
            num, up, down = ring.one, [i + 1 for i in rows], rows
        else:
            sub = [[p[k + 1] if r == k else m[r][k] if (r > k) == (f == 0) else {} for k in cols] for r in rows]
            num, up, down = ring.det(sub), cols if f else [], [k + 1 for k in cols] + (rows if f else [])
        den = ring.one
        for k in (Counter(up) - Counter(down)).elements():
            num = ring.mul(num, p[k])
        for k in (Counter(down) - Counter(up)).elements():
            den = ring.mul(den, p[k])
        out.append(_signed(from_laurent(num, ring.frame, den), sign))
    return out
