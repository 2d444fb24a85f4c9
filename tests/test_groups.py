"""Matrix models, representatives, factorizations, generalized minors."""

import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsatlas import linalg, modgcd, symbolic
from bsatlas.cli import _random_element, main
from bsatlas.errors import NonPolynomialBracket, NonReducedWord, NormalizationMismatch, NotInBigCell, ZeroTorusValue
from bsatlas.groups import GroupElement, MinorSpec, SignedPerm, build_model, cached_model
from bsatlas.laurent import laurent_frame, to_laurent
from bsatlas.linalg import _is_zero, gauss_ltu_lift, mat_mul, mat_transpose, minor, minor_tangents
from bsatlas.positivity import ToricChartSpec, toric_point
from bsatlas.rootdata import build_root_system
from bsatlas.symbolic import MultiPoly, RatFunc, VarName, from_laurent, var
from oracles import generic_element, ltu_reference, mul_torus, poly_derivative, torus_element
from oracles import fraction_chain, identity, one_param, product, sbar, wbar, wbar_inverse_times


def entry_matrix(m, symbol="a"):
    n = m.dim
    return GroupElement(
        m,
        [
            [RatFunc.from_poly(MultiPoly.variable(VarName(symbol, 10 * (i + 1) + (j + 1)))) for j in range(n)]
            for i in range(n)
        ],
    )


def split_unipotent_by_v(m, n_el, v):
    """Reference v-splitting n = n1 * n2 with vbar^{-1} n1 vbar in N^- and vbar^{-1} n2 vbar in N.

    The atlas reads its N_v coordinates off the whole N factor; the minors of
    n1 are the reference they must equal.
    """
    vp = m.signed_perm(v.canonical)
    x = vp.right(wbar_inverse_times(m, v.canonical, n_el.entries))
    # by the division elimination, since the entries of n need not be Laurent; with T = 1, N = U
    lo, t, up = ltu_reference(m.to_internal(x))
    if not all(_is_zero(d - 1) for d in t):
        raise AssertionError("unipotent split produced a torus part")
    lo, up = m.from_internal(lo), m.from_internal(up)
    vbar = wbar(m, v.canonical).entries
    return GroupElement(m, _conjugate(vbar, lo)), GroupElement(m, _conjugate(vbar, up))


def _conjugate(w, a):
    """w a w^{-1} for a signed permutation matrix w (w^{-1} = w^T), as two dense products."""
    return mat_mul(mat_mul(w, a), mat_transpose(w))


def _inverse(g):
    """Reference g^{-1} by the adjugate formula: entry (i, j) is (-1)^(i+j) det g[rows != j, cols != i] / det g."""
    a = g.entries
    n = len(a)
    d = linalg.det(a)

    def cofactor(i, j):
        return (-1) ** (i + j) * minor(a, [r for r in range(n) if r != j], [c for c in range(n) if c != i])

    return GroupElement(g.model, [[cofactor(i, j) / d for j in range(n)] for i in range(n)])


def same(g, h):
    return all((RatFunc.coerce(x) - RatFunc.coerce(y)).is_zero() for r1, r2 in zip(g.entries, h.entries) for x, y in zip(r1, r2))


def test_one_param_sl2():
    m = cached_model("A", 1)
    c = var("c")
    assert [[e.text() for e in r] for r in one_param(m, 1, c).entries] == [["1", "c"], ["0", "1"]]
    assert [[e.text() for e in r] for r in one_param(m, -1, c).entries] == [["1", "0"], ["c", "1"]]
    # a ring-element parameter is c/1: the column update leaves d = 1
    assert m.word_point((1,), (c,)) == ([[1, c], [0, 1]], 1)
    assert m.word_point((-1,), (c,)) == ([[1, 0], [c, 1]], 1)


def test_signed_perm_is_cached():
    # fresh models, so every representative is read into a cold memo
    for m in (build_model(build_root_system("A", 2)), build_model(build_root_system("C", 2))):
        g = entry_matrix(m).entries
        for word in ((), (1,), (2, 1), m.rs.w0.canonical):
            sp = m.signed_perm(word)
            assert sp is m.signed_perm(list(word))
            letters = [a for i in word for a in (i, -i, i)]
            assert wbar(m, word).entries == fraction_chain(m, letters, [-1, 1, -1] * len(word)).entries
            assert sp.right_inv(sp.right(g)) == g
            assert m.internal_left_inv(word, g) == m.to_internal(mat_mul(mat_transpose(wbar(m, word).entries), g))
    with pytest.raises(AssertionError):
        SignedPerm([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], (0, 1))
    with pytest.raises(AssertionError):
        SignedPerm([[Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)]], (0, 1))


def _dense_minor(m, g, u, v, alpha):
    """Delta^{omega_alpha}(ubar^T g vbar) with two dense products."""
    shifted = mat_mul(mat_mul(mat_transpose(wbar(m, u.canonical).entries), g), wbar(m, v.canonical).entries)
    return minor(shifted, range(alpha), range(alpha))


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("A", 3), ("C", 2)])
def test_signed_minor_matches_dense_minor(series, rank):
    m = cached_model(series, rank)
    rng = random.Random(17)
    g = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m.dim)] for _ in range(m.dim)]
    symbolic = generic_element(m).entries if rank <= 2 else None
    for u in m.rs.all_elements():
        for v in m.rs.all_elements():
            for alpha in range(1, rank + 1):
                spec = MinorSpec(u, v, alpha)
                assert m.generalized_minor(g, spec) == _dense_minor(m, g, u, v, alpha)
                if symbolic is not None:
                    got = m.generalized_minor(symbolic, spec)
                    assert got.text() == _dense_minor(m, symbolic, u, v, alpha).text()


def _same_entry(x, y):
    return type(x) is type(y) and x == y


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _entry(kind, draw, name):
    if kind == "Fraction":
        return draw(_small)
    return RatFunc.coerce(draw(_small)) + draw(_small) * var(name)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_column_update_matches_dense_product(data):
    series, rank = data.draw(st.sampled_from([("A", 1), ("A", 2), ("C", 2)]))
    kind = data.draw(st.sampled_from(["Fraction", "RatFunc"]))
    m = cached_model(series, rank)
    i = data.draw(st.integers(1, rank)) * data.draw(st.sampled_from([1, -1]))
    g = GroupElement(
        m, [[_entry(kind, data.draw, f"g{r}{s}") for s in range(m.dim)] for r in range(m.dim)]
    )
    c = _entry(kind, data.draw, "c")
    dense = mat_mul(g.entries, one_param(m, i, c).entries)
    got, d = m.word_point((i,), (c,), point=(g.entries, 1))
    assert all(_same_entry(x, d * y) for rx, ry in zip(got, dense) for x, y in zip(rx, ry))
    assert all(type(x).__name__ == kind for row in got for x in row)


def _chain(m, word, symbol="z"):
    """The Laurent chain of word (``mul_word`` on the identity) over the frame of one variable per letter, as a RatFunc element."""
    frame = {VarName(symbol, i): i - 1 for i in range(1, len(word) + 1)}
    g = m.mul_word(None, word, 0, len(word))
    return GroupElement(m, [[from_laurent(x, frame) for x in row] for row in g])


def test_sbar_and_gword_sl2():
    m = cached_model("A", 1)
    assert sbar(m, 1).entries == [[0, -1], [1, 0]]
    g = _chain(m, (1,))
    assert [[e.text() for e in r] for r in g.entries] == [["z1", "-1"], ["1", "0"]]
    assert same(_chain(m, ()), identity(m))


def test_wbar_word_independence():
    m = cached_model("A", 2)
    assert same(wbar(m, (1, 2, 1)), wbar(m, (2, 1, 2)))
    with pytest.raises(NonReducedWord):
        wbar(m, (1, 1))
    mc = cached_model("C", 2)
    assert same(wbar(mc, (1, 2, 1, 2)), wbar(mc, (2, 1, 2, 1)))


def test_sbar_orders():
    for m in (cached_model("A", 2), cached_model("A", 3), cached_model("C", 2)):
        for i in range(1, m.rs.rank + 1):
            s2 = product(sbar(m, i), sbar(m, i))
            s4 = product(s2, s2)
            assert same(s4, identity(m))
            # sbar^2 = alpha^vee(-1): diagonal with +-1 entries
            for p in range(m.dim):
                for q in range(m.dim):
                    val = s2.entries[p][q]
                    if p != q:
                        assert val == 0
                    else:
                        assert val in (1, -1)


def test_braid_relations():
    m3 = cached_model("A", 2)
    assert same(product(sbar(m3, 1), sbar(m3, 2), sbar(m3, 1)), product(sbar(m3, 2), sbar(m3, 1), sbar(m3, 2)))
    mc = cached_model("C", 2)
    a = product(sbar(mc, 1), sbar(mc, 2))
    b = product(sbar(mc, 2), sbar(mc, 1))
    assert same(product(a, a), product(b, b))


def test_torus_element():
    m = cached_model("A", 1)
    t = torus_element(m, [var("z", 3)])
    assert [t.entries[i][i].text() for i in range(2)] == ["z3", "1/z3"]
    m3 = cached_model("A", 2)
    t3 = torus_element(m3, [var("xi", 7), var("xi", 8)])
    assert [t3.entries[i][i].text() for i in range(3)] == ["xi7", "xi8/xi7", "1/xi8"]
    mc = cached_model("C", 2)
    tc = torus_element(mc, [var("z", 7), var("z", 8)])
    assert [tc.entries[i][i].text() for i in range(4)] == ["z7", "z8/z7", "1/z7", "z7/z8"]
    assert tc.satisfies_group_constraint()
    with pytest.raises(ZeroTorusValue):
        torus_element(m, [RatFunc.zero()])
    for mm in (m3, mc):
        g = entry_matrix(mm)
        vals = [var("z", 7), var("z", 8)]
        assert mul_torus(mm, g, vals).entries == product(g, torus_element(mm, vals)).entries


def test_c2_pinning_matches_reference():
    mc = cached_model("C", 2)
    e1 = mc.root_vector(1, +1)
    want = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0]]
    assert [[int(x) for x in row] for row in e1] == want
    e2 = mc.root_vector(2, +1)
    want2 = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert [[int(x) for x in row] for row in e2] == want2


def test_nonsimple_root_vector_a2():
    m = cached_model("A", 2)
    beta = m.rs.simple_root(1) + m.rs.simple_root(2)
    e, f = m.pos_root_vectors[beta]
    assert [[int(x) for x in row] for row in e] == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    assert [[int(x) for x in row] for row in f] == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2)])
def test_pinned_matrices_are_ints_wherever_integral(series, rank):
    """Root vectors, coroot matrices and column updates hold an int wherever an entry is
    integral, and a Fraction only where it is not (one entry of one Sp(4) f)."""
    m = cached_model(series, rank)
    vectors = [x for pair in m.pos_root_vectors.values() for x in pair] + m._coroot_mats
    entries = [x for a in vectors for row in a for x in row]
    entries += [coef for updates in m._column_updates.values() for _, _, coef in updates]
    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in entries)
    assert sum(type(x) is Fraction for x in entries) == (1 if series == "C" else 0)


@pytest.mark.parametrize("series, rank", [("A", 2), ("C", 2)])
def test_validate_refuses_a_misnormalized_root_vector(series, rank):
    """_validate is the one check of the root vectors' normalization: f scaled by 2, for a
    simple and a non-simple root, or a wrong trace scale is refused."""
    for beta in (build_root_system(series, rank).simple_root(1), None):
        m = build_model(build_root_system(series, rank))
        beta = beta if beta is not None else m.rs.positive_roots[-1]
        e, f = m.pos_root_vectors[beta]
        m.pos_root_vectors[beta] = (e, [[2 * x for x in row] for row in f])
        with pytest.raises(NormalizationMismatch, match="fails beta"):
            m._validate()
    m = build_model(build_root_system(series, rank))
    m._trace_scale *= 2
    with pytest.raises(NormalizationMismatch, match="trace pairing"):
        m._validate()


def _listed_slot_weights(series, rank):
    """The slot weights as once listed by hand: x_p = omega_p - omega_{p-1} on SL(rank + 1), (x1, x2, -x1, -x2) on Sp(4)."""
    if series == "C":
        return ((1, 0), (-1, 1), (-1, 0), (1, -1))
    return tuple(tuple(int(j == p) - int(j == p - 1) for j in range(rank)) for p in range(rank + 1))


@pytest.mark.parametrize("series, rank", [("A", k) for k in range(1, 8)] + [("C", 2)])
def test_slot_weights_and_internal_order_are_read_off_the_pinning(series, rank):
    """The coroot diagonals give the slot weights once listed by hand; sorting the slots by height gives the
    internal order, in which Sp(4) swaps its last two slots; and lam(h_j) is coefficient j of lam."""
    m = cached_model(series, rank)
    assert m.slot_weights == _listed_slot_weights(series, rank)
    assert m._perm == ((0, 1, 3, 2) if series == "C" else tuple(range(rank + 1)))
    assert m._trace_scale == (Fraction(1, 2) if series == "C" else 1)
    rs = m.rs
    for lam in rs.positive_roots + tuple(rs.fundamental_weight(i) for i in range(1, rank + 1)):
        assert [m._eval_weight_on_cartan(lam, h) for h in m._coroot_mats] == list(lam.coeffs)


@pytest.mark.parametrize("series, rank", [("A", 2), ("C", 2)])
def test_validate_refuses_an_order_where_a_root_vector_is_not_upper(series, rank):
    """The reversed internal order, and for Sp(4) the order of the slots as listed, leave a root vector
    below the diagonal."""
    m = build_model(build_root_system(series, rank))
    for order in [m._perm[::-1]] + ([tuple(range(m.dim))] if series == "C" else []):
        m._perm = order
        with pytest.raises(AssertionError, match="not strictly upper triangular"):
            m._validate()


@pytest.mark.parametrize("series, rank", [("A", 2), ("C", 2)])
def test_numeric_points_stay_fraction_matrices(series, rank):
    """Int root vectors do not leak into numeric points: every wbar is a Fraction matrix, and toric points
    and random group elements are scaled points (m, d) of ints with d > 0."""
    m = cached_model(series, rank)
    rs = m.rs
    assert all(type(x) is Fraction for w in rs.all_elements() for row in wbar(m, w.canonical).entries for x in row)
    points = [toric_point(ToricChartSpec(m, "G", (rs.w0.canonical, rs.w0.canonical)), [1] * (2 * rs.l0 + rank))]
    rng = random.Random(3)
    points += [_random_element(m, rng) for _ in range(5)]
    assert all(type(d) is int and d > 0 and all(type(x) is int for row in g for x in row) for g, d in points)


def _factor(m, g):
    """The three factors of ``triangular_factor`` as group elements."""
    return tuple(GroupElement(m, f) for f in m.triangular_factor(g.entries))


def test_gauss_factor_sl2():
    m = cached_model("A", 1)
    a, b, c, d = var("a"), var("b"), var("c"), var("d")
    g = GroupElement(m, [[a, b], [c, d]])
    lo, n, t = _factor(m, g)
    assert lo.entries[1][0] == c / a
    assert t.entries[0][0] == a
    assert t.entries[1][1] == (a * d - b * c) / a
    assert n.entries[0][1] == a * b / (a * d - b * c)
    assert same(product(lo, n, t), g)
    with pytest.raises(NotInBigCell):
        _factor(m, sbar(m, 1))
    assert same(_factor(m, identity(m))[0], identity(m))


def test_gauss_factor_roundtrip_random():
    rng = random.Random(3)
    for m in (cached_model("A", 2), cached_model("C", 2)):
        for _ in range(5):
            g = identity(m)
            for _ in range(4):
                i = rng.randint(1, m.rs.rank)
                g = product(g, one_param(m, i, Fraction(rng.randint(1, 5), rng.randint(1, 5))))
                g = product(g, one_param(m, -i, Fraction(rng.randint(1, 5), rng.randint(1, 5))))
            lo, n, t = _factor(m, g)
            assert same(product(lo, n, t), g)


def _big_cell_points(m, rng):
    """A Fraction and a RatFunc point of the big cell, keyed by entry type."""
    rank = m.rs.rank
    g = identity(m)
    for _ in range(2):
        for i in range(1, rank + 1):
            g = product(g, one_param(m, -i, Fraction(rng.randint(1, 5), rng.randint(1, 5))))
            g = product(g, one_param(m, i, Fraction(rng.randint(1, 5), rng.randint(1, 5))))
    g = mul_torus(m, g, [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(rank)])
    letters = [a for i in range(1, rank + 1) for a in (-i, i)]
    h = fraction_chain(m, letters, [var("a" if a < 0 else "b", abs(a)) for a in letters])
    h = mul_torus(m, h, [var("c", i) for i in range(1, rank + 1)])
    return {Fraction: g.entries, RatFunc: h.entries}


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("A", 3), ("C", 2)], ids=["A1", "A2", "A3", "C2"])
def test_upper_factor_is_torus_conjugate_of_ltu_upper(series, rank):
    """N of a = L*N*T is t U t^{-1} for U of a = L*T*U, entry by entry and in the point's type."""
    m = cached_model(series, rank)
    for kind, g in _big_cell_points(m, random.Random(rank)).items():
        factors = m.triangular_factor(g)
        for factor in factors:
            assert all(type(x) is kind for row in factor for x in row), kind
        # compared in the internal basis, where N is matrix-triangular
        n, t = m.to_internal(factors[1]), m.to_internal(factors[2])
        _, _, u = ltu_reference(m.to_internal(g))
        for i in range(m.dim):
            for j in range(m.dim):
                want = u[i][j] * t[i][i] / t[j][j] if j > i else n[i][j] * 0 + int(i == j)
                assert n[i][j] == want, (kind, i, j)


_EPS = VarName("eps")


def _perturbed(a, da, eps=_EPS):
    """a + eps * da, a matrix of RatFuncs in eps."""
    eps = RatFunc.from_poly(MultiPoly.variable(eps))
    return [[x + eps * d for x, d in zip(ra, rd)] for ra, rd in zip(a, da)]


def _eps_derivative(entries, eps=_EPS, zero=(_EPS,)):
    """d/d eps at zero (every variable of ``zero`` at 0) of a matrix of RatFuncs.

    The quotient rule (n/d)' = (n' d - n d') / d^2, with the numerator and
    the denominator differentiated and taken at zero before any division,
    so no gcd runs in eps.
    """
    at_zero = {v: RatFunc.zero() for v in zero}

    def derivative(x):
        n0, d0, dn, dd = (
            p.substitute_ratfuncs(at_zero)
            for p in (x.num, x.den, poly_derivative(x.num, eps), poly_derivative(x.den, eps))
        )
        return (dn * d0 - n0 * dd) / (d0 * d0)

    return [[derivative(x) for x in row] for row in entries]


def _from_laurent_matrix(entries, frame):
    return [[from_laurent(x, frame) for x in row] for row in entries]


def _field(x):
    """The nonzero entries (k, l, c) of the matrix x, as ``gauss_ltu_lift`` takes a field."""
    return [(k, l, c) for k, row in enumerate(x) for l, c in enumerate(row) if c]


def _dense(lists, k):
    """The tangent matrix along field k of the per-entry (field, tangent) lists of one factor."""
    return [[dict(pairs).get(k, {}) for pairs in row] for row in lists]


def _per_entry(das):
    """The dense tangent matrices das as per-entry lists of their nonzero (field, tangent) pairs."""
    return [[[(k, da[r][c]) for k, da in enumerate(das) if da[r][c]] for c in range(len(row))] for r, row in enumerate(das[0])]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lifted_factors_match_dual_elimination(data):
    """The closed-form tangents of L, N, T equal the eps-derivatives of the factors of h + eps h X and h + eps X' h.

    h = L0 N0 T0 with L0 in N^- and N0 in N polynomial in z1 and T0 a torus
    element of monomials c z1^k, so its factors are Laurent by construction.
    Each perturbed point is factored exactly as a RatFunc matrix in eps, and
    each entry is differentiated in eps and taken at eps = 0, so the
    reference is the elimination over the dual numbers, done in RatFunc.
    A draw perturbs along one field per point, or along both fields at once,
    h + eps1 h X + eps2 X' h, whose reference gcds run in three variables.
    Each field goes to the lift as its nonzero entries, two of them for a
    short root of Sp(4), and its per-entry tangent lists are read back as one
    dense matrix per field.
    """
    series, rank = data.draw(st.sampled_from([("A", 2), ("A", 3), ("C", 2)]))
    m = cached_model(series, rank)
    z = var("z", 1)

    def unipotent(sign):
        g = identity(m)
        for _ in range(data.draw(st.integers(1, 2 * rank))):
            i = data.draw(st.integers(1, rank))
            g = product(g, one_param(m, sign * i, data.draw(_small) + data.draw(st.integers(0, 1)) * z))
        return g.entries

    lower, upper = unipotent(-1), unipotent(1)
    torus = [data.draw(st.sampled_from([1, -1, Fraction(1, 2), 3])) * z ** data.draw(st.integers(-2, 2)) for _ in range(rank)]
    h = mul_torus(m, GroupElement(m, mat_mul(lower, upper)), torus).entries
    assert list(m.triangular_factor(h)) == [lower, upper, torus_element(m, torus).entries]
    vectors = [x for pair in m.pos_root_vectors.values() for x in pair]
    x_left, x_right = data.draw(st.sampled_from(vectors)), data.draw(st.sampled_from(vectors))
    # the lift runs in the internal basis, and its factors and tangents are read back in the model's
    fields = [("left", _field(m.to_internal(x_left))), ("right", _field(m.to_internal(x_right)))]
    frame, lifted = gauss_ltu_lift(m.to_internal(h), fields)
    lifted = [(m.from_internal(f), [m.from_internal(_dense(ds, k)) for k in range(2)]) for f, ds in lifted]
    assert [_from_laurent_matrix(f, frame) for f, _ in lifted] == [list(f) for f in m.triangular_factor(h)]
    das, eps = (mat_mul(h, x_left), mat_mul(x_right, h)), (VarName("eps", 1), VarName("eps", 2))
    if data.draw(st.booleans()):
        both = m.triangular_factor(_perturbed(_perturbed(h, das[0], eps[0]), das[1], eps[1]))
        wants = [[_eps_derivative(f, e, eps) for f in both] for e in eps]
    else:
        wants = [[_eps_derivative(f) for f in m.triangular_factor(_perturbed(h, da))] for da in das]
    for k, want in enumerate(wants):
        assert [_from_laurent_matrix(ds[k], frame) for _, ds in lifted] == want


def _two_eps_sp4_points(n=60, seed=3):
    """(model, a) for Sp(4) points a = h + e1 h X + e2 X' h, drawn by random.Random(seed).

    h is a product of 5-9 one-parameter factors at c + {0, 1} z1 times a
    rational torus element, and X and X' are positive root vectors.
    """
    rng = random.Random(seed)
    m = cached_model("C", 2)
    z, e1, e2 = var("z", 1), var("e", 1), var("e", 2)
    vectors = [x for pair in m.pos_root_vectors.values() for x in pair]
    out = []
    for _ in range(n):
        h = identity(m)
        for _ in range(rng.randint(5, 9)):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) + rng.randint(0, 1) * z
            h = product(h, one_param(m, rng.choice([-2, -1, 1, 2]), c))
        h = mul_torus(m, h, [Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 3)) for _ in range(2)]).entries
        hx, xh = mat_mul(h, rng.choice(vectors)), mat_mul(rng.choice(vectors), h)
        out.append((m, [[a + e1 * b + e2 * c for a, b, c in zip(*rows)] for rows in zip(h, hx, xh)]))
    return out


def test_two_eps_sp4_points_factor_within_counted_gcd_work(monkeypatch):
    """With a primitive PRS behind poly_gcd, 8 of these 60 factorizations ran past 5 s each, stalled
    in gcds of up to 40 terms in (e1, e2, z1), whose contents took nested gcds in turn.  Now each
    takes at most 30 poly_gcd calls, nested ones included, and at most 1000 univariate images mod
    a prime, and its factors multiply back to the point at a rational point."""
    counts, gcd, image = {"gcd": 0, "images": 0}, symbolic.poly_gcd, modgcd.gcd_mod_1

    def counting_gcd(f, g, **kwargs):
        counts["gcd"] += 1
        return gcd(f, g, **kwargs)

    def counting_image(a, b, p):
        counts["images"] += 1
        return image(a, b, p)

    monkeypatch.setattr(symbolic, "poly_gcd", counting_gcd)
    monkeypatch.setattr(modgcd, "gcd_mod_1", counting_image)
    point = {VarName("e", 1): Fraction(1, 3), VarName("e", 2): Fraction(-2, 5), VarName("z", 1): Fraction(3, 7)}
    for m, a in _two_eps_sp4_points():
        counts.update(gcd=0, images=0)
        factors = m.triangular_factor(a)
        assert counts["gcd"] <= 30 and counts["images"] <= 1000, counts
        at = [[[x.evaluate(point) for x in row] for row in f] for f in factors]
        assert mat_mul(mat_mul(at[0], at[1]), at[2]) == [[x.evaluate(point) for x in row] for row in a]


def test_lift_refuses_a_point_whose_factors_are_not_laurent():
    """h = x_1(z1) y_1(1) lies in the big cell, but its leading principal minor 1 + z1 is not a
    monomial, so T^{-1} and L are not Laurent: the lift raises and hands back no tangents."""
    m = cached_model("A", 2)
    z = var("z", 1)
    h = fraction_chain(m, (1, -1), (z, Fraction(1))).entries
    assert h[0][0] == 1 + z
    m.triangular_factor(h)
    x = m.pos_root_vectors[m.rs.simple_root(1)][0]
    with pytest.raises(NonPolynomialBracket):
        gauss_ltu_lift(m.to_internal(h), [("left", _field(m.to_internal(x))), ("right", _field(m.to_internal(x)))])


_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), -3])


@st.composite
def _minor_cases(draw):
    """(a, das, rows, cols): a 3x3 matrix in x, two tangent matrices, and index lists of one size."""
    x = var("x")

    def matrix():
        return [[RatFunc.coerce(draw(_entries)) + draw(_entries) * x for _ in range(3)] for _ in range(3)]

    k = draw(st.integers(1, 3))
    rows = draw(st.permutations(range(3)))[:k]
    cols = draw(st.permutations(range(3)))[:k]
    return matrix(), [matrix(), matrix()], list(rows), list(cols)


def _rf_matrix(rows):
    return [[RatFunc.coerce(v) for v in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(_minor_cases())
@example(  # a 1x1 minor: its tangent is the entry of the tangent
    (_rf_matrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]]), [_rf_matrix([[5, 1, 0], [0, 0, 0], [0, 0, 0]])] * 2, [0], [1])
)
@example(  # row 0 of a is zero off column 0, so the cofactors of (1, 0) and (2, 0) vanish
    (
        _rf_matrix([[3, 0, 0], [1, 2, 4], [5, 6, 7]]),
        [_rf_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]]), _rf_matrix([[0, 0, 0], [0, 0, 0], [9, 0, 0]])],
        [0, 1, 2],
        [0, 1, 2],
    )
)
def test_minor_tangents_match_eps_derivative_of_minor(case):
    """Jacobi's formula equals d/d eps at eps = 0 of the minor of a + eps da, for each tangent da,
    and the first-row expansion over the same cofactors equals the minor itself."""
    a, das, rows, cols = case
    want = [_eps_derivative([[minor(_perturbed(a, da), rows, cols)]])[0][0] for da in das]
    frame = laurent_frame(x for b in [a, *das] for row in b for x in row)
    la, *ldas = ([[to_laurent(x, frame) for x in row] for row in b] for b in [a, *das])
    value, tangents = minor_tangents(la, _per_entry(ldas), rows, cols, len(ldas), 1)
    assert [from_laurent(d, frame) for d in tangents] == want
    assert from_laurent(value, frame) == minor(a, rows, cols)


_positive = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_factors_match_the_division_elimination(data):
    """L, N, T of the fraction-free elimination equal a division elimination, entry by entry and in the point's type.

    The points are Fraction points and Laurent RatFunc points, whose
    one-parameter factors carry q + c*s and whose torus values are q*s, for s
    in z and 1/z, so every denominator is a monomial (a point with any other
    denominator is refused, ``test_inexact_bareiss_division_is_an_internal_fault``).
    With sbar(2) between the lower and the upper unipotent part the second
    leading minor vanishes and the first does not.
    """
    series, rank = data.draw(st.sampled_from([("A", 2), ("A", 3), ("C", 2)]), label="group")
    kind = data.draw(st.sampled_from([Fraction, RatFunc]), label="kind")
    singular = data.draw(st.booleans(), label="singular")
    m = cached_model(series, rank)
    z = var("z", 1)

    def param(torus=False):
        q = data.draw(_positive)
        if kind is not RatFunc:
            return q
        s = data.draw(st.sampled_from([z, 1 / z]))
        return q * s if torus else q + data.draw(st.integers(1, 3)) * s

    def word():
        return [data.draw(st.integers(1, rank)) for _ in range(data.draw(st.integers(1, 2 * rank)))]

    g = identity(m)
    if singular:
        for i in word():
            g = product(g, one_param(m, -i, param()))
        g = GroupElement(m, m.signed_perm((2,)).right(g.entries))
        for i in word():
            g = product(g, one_param(m, i, param()))
    else:
        for i in word() + word():
            g = product(g, one_param(m, data.draw(st.sampled_from([1, -1])) * i, param()))
    point = mul_torus(m, g, [param(torus=True) for _ in range(rank)]).entries
    if kind is RatFunc:
        assert all(len(x.den.terms) == 1 for row in point for x in row)
    try:
        lo, t, u = ltu_reference(m.to_internal(point))
    except NotInBigCell as e:
        assert e.minor_index == 2 or not singular
        with pytest.raises(NotInBigCell) as got:
            m.triangular_factor(point)
        assert got.value.minor_index == e.minor_index
        return
    assert not singular
    zero = t[0] * 0
    n = [[u[i][j] * t[i] / t[j] if j > i else zero + int(i == j) for j in range(m.dim)] for i in range(m.dim)]
    tm = [[t[i] if i == j else zero for j in range(m.dim)] for i in range(m.dim)]
    for name, got, want in zip("LNT", m.triangular_factor(point), (lo, n, tm)):
        got = m.to_internal(got)
        for i in range(m.dim):
            for j in range(m.dim):
                assert type(got[i][j]) is kind, (name, i, j)
                assert got[i][j] == want[i][j], (name, i, j)


def test_inexact_bareiss_division_is_an_internal_fault(monkeypatch, capsys):
    """A division of the elimination that leaves a remainder raises AssertionError naming the step; the CLI exits 1.
    A RatFunc entry whose denominator is not a monomial raises NonPolynomialBracket naming the entry."""
    m = cached_model("A", 2)
    g = entry_matrix(m).entries
    m.triangular_factor(g)
    # a denominator that is not a monomial is refused before any division, naming the entry
    with pytest.raises(NonPolynomialBracket, match=r"^a11/\(d \+ 1\) is not a Laurent polynomial: d \+ 1 is not"):
        m.triangular_factor([[x / (var("d") + 1) if j == 0 else x for j, x in enumerate(row)] for row in g])
    # the elimination divides Laurent values
    monkeypatch.setattr(linalg, "laurent_divide", lambda a, b: None)
    with pytest.raises(AssertionError, match=r"step 2 at entry \(3, 3\) is not an exact division"):
        m.triangular_factor(g)
    args = ["--json", "chart", "change", "--series", "A", "--rank", "2", "--index", "3", "--to-index", "5"]
    assert main(args) == 1
    out = capsys.readouterr()
    assert out.out == "" and "internal invariant failed" in out.err


def test_factors_keep_the_entry_type():
    """No int fill of a unitriangular or diagonal factor leaks out of a factorization."""
    m = cached_model("A", 2)
    a, b = var("a"), var("b")
    n = fraction_chain(m, (1, 2), (a, b)).entries
    points = {
        Fraction: [[x.evaluate({VarName("a"): 2, VarName("b"): 3}) for x in row] for row in n],
        RatFunc: n,
    }
    for kind, g in points.items():
        for factor in m.triangular_factor(g):
            assert all(type(x) is kind for row in factor for x in row), kind
        for part in split_unipotent_by_v(m, GroupElement(m, g), m.rs.simple(1)):
            assert all(type(x) is kind for row in part.entries for x in row), kind


def test_split_unipotent_by_v():
    m = cached_model("A", 2)
    rs = m.rs
    a, b = var("a"), var("b")
    n = fraction_chain(m, (1, 2), (a, b))
    n1, n2 = split_unipotent_by_v(m, n, rs.simple(1))
    assert same(n1, one_param(m, 1, a))
    assert same(n2, one_param(m, 2, b))
    n1, n2 = split_unipotent_by_v(m, n, rs.identity)
    assert same(n1, identity(m)) and same(n2, n)
    n1, n2 = split_unipotent_by_v(m, n, rs.w0)
    assert same(n1, n) and same(n2, identity(m))


@pytest.mark.parametrize("series, rank", [("A", 2), ("A", 3), ("C", 2)], ids=["A2", "A3", "C2"])
def test_split_commutes_with_torus_conjugation(series, rank):
    """The first factor of the v-splitting of t n t^{-1} is t n1 t^{-1}, for every v in W."""
    m = cached_model(series, rank)
    rs = m.rs
    rng = random.Random(rank)
    for v in rs.all_elements():
        n = identity(m)
        for _ in range(rs.l0 + 2):
            n = product(n, one_param(m, rng.randint(1, rank), Fraction(rng.randint(-5, 5), rng.randint(1, 5))))
        t = torus_element(m, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7)) for _ in range(rank)])
        t_inv = _inverse(t)
        n1, _ = split_unipotent_by_v(m, n, v)
        tn1, _ = split_unipotent_by_v(m, product(t, n, t_inv), v)
        assert tn1.entries == product(t, n1, t_inv).entries, v


@pytest.mark.parametrize(
    "series, rank, qkind, v, count",
    [
        ("A", 2, "Nv", (1,), None),
        ("A", 2, "Bv", (2, 1), None),
        ("C", 2, "Nv", (2,), None),
        ("C", 2, "Bv", (1, 2), None),
        ("A", 3, "Nv", (3, 2, 1), 3),
    ],
    ids=["A2-Nv-s1", "A2-Bv-s2s1", "C2-Nv-s2", "C2-Bv-s1s2", "A3-Nv-s3s2s1"],
)
def test_n_coordinates_are_minors_of_the_split_factor(series, rank, qkind, v, count):
    """For an intermediate v, the N_v coordinates read off the whole N factor
    equal the minors of n1 of the v-splitting, at chart-change and numeric points."""
    from bsatlas.atlas import SpaceSpec, enumerate_charts, eval_coordinates, parametrize

    m = cached_model(series, rank)
    v_el = m.rs.element_from_word(v)
    specs = enumerate_charts(SpaceSpec(m, qkind, v_el))
    rng = random.Random(len(specs))
    charts = [parametrize(s) for s in (specs if count is None else rng.sample(specs, count))]
    checked = 0
    for dst in charts:
        points = []
        for src in rng.sample(charts, 2):
            points.append(src.param.entries)
            for _ in range(2):
                values = {z: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for z in src.zvars}
                points.append([[x.evaluate(values) for x in row] for row in src.param.entries])
        for g in points:
            try:
                _, nfull, _ = m.triangular_factor(wbar_inverse_times(m, dst.spec.w.canonical, g))
            except NotInBigCell:
                continue
            n1, _ = split_unipotent_by_v(m, GroupElement(m, nfull), v_el)
            for (tag, spec), c in zip(dst.coord_formulas, eval_coordinates(dst, g)):
                if tag == "n":
                    assert _is_zero(c - m.generalized_minor(n1.entries, spec)), (dst.spec, spec)
                    checked += 1
    assert checked >= 4 * len(charts) * len(v)


def _reference_coordinates(chart, g):
    """(tag, value) of each coordinate by the conjugated construction.

    Minors of L, of wbar L wbar^{-1} (dense products) and of N by ``generalized_minor``, and
    t^{omega_i} as the product of the leading diagonal entries of T, from the factors of wbar^{-1} g.
    """
    m = chart.spec.space.model
    lower, nfull, tdiag = m.triangular_factor(wbar_inverse_times(m, chart.spec.w.canonical, g))
    read = {
        "m": lambda spec: m.generalized_minor(lower, spec),
        "wmw": lambda spec: m.generalized_minor(_conjugate(wbar(m, chart.spec.w.canonical).entries, lower), spec),
        "n": lambda spec: m.generalized_minor(nfull, spec),
        "t": lambda i: prod(tdiag[p][p] for p in range(i)),
    }
    return [(tag, read[tag](payload)) for tag, payload in chart.coord_formulas]


@pytest.mark.parametrize(
    "series, rank, qkind, v", [("A", 2, "Nv", "w0"), ("C", 2, "Nv", "w0"), ("A", 3, "Bv", "e")], ids=["A2-Nv-w0", "C2-Nv-w0", "A3-Bv-e"]
)
def test_signed_minor_table_matches_conjugated_reference(series, rank, qkind, v):
    """On every chart, each coordinate read from the signed-minor table equals the conjugated
    construction, in value and type, at a symbolic chart-change point, a rational point and that point
    scaled (m, d) with d > 1; and a point outside the chart's cell raises NotInChartDomain with the
    reference's minor index in every form."""
    from bsatlas.atlas import SpaceSpec, enumerate_charts, eval_coordinates, parametrize
    from bsatlas.errors import NotInChartDomain

    def scaled(point):
        # twice the lcm of the denominators, so d > 1 and m/d is not in lowest terms
        d = 2 * lcm(*(x.denominator for row in point for x in row))
        return [[int(x * d) for x in row] for row in point], d

    def outside_index(chart, forms, at):
        with pytest.raises(NotInBigCell) as want:
            _reference_coordinates(chart, at)
        for g in forms:
            with pytest.raises(NotInChartDomain) as got:
                eval_coordinates(chart, g)
            assert got.value.minor_index == want.value.minor_index, chart.spec
        return want.value.minor_index

    m = cached_model(series, rank)
    specs = enumerate_charts(SpaceSpec(m, qkind, m.rs.w0 if v == "w0" else m.rs.identity))
    charts = [parametrize(s) for s in specs]
    rng = random.Random(len(charts))
    seen, checked, indices = set(), 0, set()
    for chart in charts:
        src = rng.choice(charts)
        values = {z: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for z in src.zvars}
        rational = [[x.evaluate(values) for x in row] for row in src.param.entries]
        for g, at in ((src.param.entries, src.param.entries), (rational, rational), (scaled(rational), rational)):
            try:
                want = _reference_coordinates(chart, at)
            except NotInBigCell:
                outside_index(chart, [g], at)
                continue
            got = eval_coordinates(chart, g)
            assert [(type(x), x) for x in got] == [(type(x), x) for _, x in want], chart.spec
            seen.update(tag for tag, _ in want)
            checked += 1
        # wbar^{-1} g = sbar_i has a vanishing leading minor
        out = product(wbar(m, chart.spec.w.canonical), sbar(m, rng.randint(1, m.rs.rank))).entries
        indices.add(outside_index(chart, ([[RatFunc.constant(x) for x in row] for row in out], out, scaled(out)), out))
    # a generic symbolic point lies in every chart
    assert checked >= len(charts)
    assert seen == ({"m", "wmw", "n", "t"} if qkind == "Nv" else {"m", "wmw"})
    assert len(indices) > 1


def test_generalized_minor_principal():
    m = cached_model("A", 2)
    g = entry_matrix(m)
    rs = m.rs
    assert m.generalized_minor(g.entries, MinorSpec(rs.identity, rs.identity, 1)).text() == "a11"
    got = m.generalized_minor(g.entries, MinorSpec(rs.identity, rs.identity, 2))
    assert got.text() == "a11*a22 - a12*a21"


def test_generalized_minor_transpose_symmetry():
    # series A: D_{u w, v w}(g) = D_{v w, u w}(g^T) on random samples
    m = cached_model("A", 2)
    rs = m.rs
    rng = random.Random(5)
    for _ in range(4):
        g = GroupElement(
            m, [[RatFunc.constant(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3)] for _ in range(3)]
        )
        for u in rs.all_elements():
            for v in rs.all_elements():
                for alpha in (1, 2):
                    lhs = m.generalized_minor(g.entries, MinorSpec(u, v, alpha))
                    rhs = m.generalized_minor(mat_transpose(g.entries), MinorSpec(v, u, alpha))
                    assert (lhs - rhs).is_zero()


SP4_D1_SPECS = [
    [((), ()), ((), (1,)), ((), (1, 2, 1)), ((), (2, 1))],
    [((1,), ()), ((1,), (1,)), ((1,), (1, 2, 1)), ((1,), (2, 1))],
    [((1, 2, 1), ()), ((1, 2, 1), (1,)), ((1, 2, 1), (1, 2, 1)), ((1, 2, 1), (2, 1))],
    [((2, 1), ()), ((2, 1), (1,)), ((2, 1), (1, 2, 1)), ((2, 1), (2, 1))],
]

SP4_D1_SIGNS = [
    [1, 1, -1, 1],
    [1, 1, -1, 1],
    [-1, -1, 1, -1],
    [1, 1, -1, 1],
]

SP4_D2_SPECS = [
    [((), ()), ((), (2,)), ((), (1, 2)), ((), (2, 1, 2))],
    [((2,), ()), ((2,), (2,)), ((2,), (1, 2)), ((2,), (2, 1, 2))],
    [((1, 2), ()), ((1, 2), (2,)), ((1, 2), (1, 2)), ((1, 2), (2, 1, 2))],
    [((2, 1, 2), ()), ((2, 1, 2), (2,)), ((2, 1, 2), (1, 2)), ((2, 1, 2), (2, 1, 2))],
]

SP4_D2_COLS = [(1, 2), (1, 4), (2, 3), (3, 4)]
SP4_D2_ROWS = [(1, 2), (1, 4), (2, 3), (3, 4)]
SP4_D2_SIGNS = [
    [1, 1, -1, 1],
    [1, 1, -1, 1],
    [-1, -1, 1, -1],
    [1, 1, -1, 1],
]


def _sp4_chart_element():
    from bsatlas.atlas import ChartSpec, SpaceSpec, parametrize

    mc = cached_model("C", 2)
    rs = mc.rs
    space = SpaceSpec(mc, "Nv", rs.w0)
    spec = ChartSpec(space, rs.identity, ((1, 2, 1, 2), (), (2, 1, 2, 1)))
    return mc, parametrize(spec).param


def test_sp4_minor_tables_on_group():
    """All size-1 and size-2 generalized minors on a generic group element."""
    mc, g = _sp4_chart_element()
    rs = mc.rs
    assert g.satisfies_group_constraint()
    for r in range(4):
        for c in range(4):
            uw, vw = SP4_D1_SPECS[r][c]
            got = mc.generalized_minor(g.entries, MinorSpec(rs.element_from_word(uw), rs.element_from_word(vw), 1))
            want = RatFunc.coerce(SP4_D1_SIGNS[r][c]) * g.entries[r][c]
            assert (got - want).is_zero(), (r, c)
    from bsatlas.linalg import minor

    for r in range(4):
        for c in range(4):
            uw, vw = SP4_D2_SPECS[r][c]
            got = mc.generalized_minor(g.entries, MinorSpec(rs.element_from_word(uw), rs.element_from_word(vw), 2))
            rows = [i - 1 for i in SP4_D2_ROWS[r]]
            cols = [j - 1 for j in SP4_D2_COLS[c]]
            want = RatFunc.coerce(SP4_D2_SIGNS[r][c]) * minor(g.entries, rows, cols)
            assert (got - want).is_zero(), (r, c)


def test_sp4_specific_entries():
    mc = cached_model("C", 2)
    rs = mc.rs
    g = entry_matrix(mc)
    got = mc.generalized_minor(g.entries, MinorSpec(rs.element_from_word((2, 1)), rs.identity, 1))
    assert got.text() == "a41"
    got = mc.generalized_minor(g.entries, MinorSpec(rs.element_from_word((1, 2)), rs.element_from_word((2,)), 2))
    assert got.text() == "-a21*a34 + a24*a31"


def test_group_constraints_on_parametrizations():
    from bsatlas.atlas import SpaceSpec, enumerate_charts, parametrize

    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    for spec in enumerate_charts(space):
        assert parametrize(spec).param.satisfies_group_constraint()
    mc, g = _sp4_chart_element()
    assert g.satisfies_group_constraint()


def test_g_word_lands_in_shifted_unipotent():
    """ubar^{-1} times the Laurent chain of u is in N^- (internal-basis lower-unitriangular)."""
    words = {
        ("A", 2): [(1,), (1, 2), (2, 1, 2)],
        ("A", 3): [(1, 2, 3), (1, 2, 1, 3, 2, 1)],
        ("C", 2): [(1, 2), (1, 2, 1, 2), (2, 1, 2, 1)],
    }
    for (series, rank), ws in words.items():
        m = cached_model(series, rank)
        for word in ws:
            g = _chain(m, word, "t")
            ub = wbar(m, word)
            x = m.to_internal(product(_inverse(ub), g).entries)
            n = m.dim
            for i in range(n):
                for j in range(n):
                    val = RatFunc.coerce(x[i][j])
                    if j > i:
                        assert val.is_zero(), (series, word, i, j)
                    elif j == i:
                        assert (val - 1).is_zero(), (series, word, i)
