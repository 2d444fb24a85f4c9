"""Chart enumeration, parametrization, coordinates, changes, torus weights."""

import copy
import hashlib
import random
import re
import sys
import time
from fractions import Fraction

import pytest
import sympy

from bsatlas import atlas, linalg, symbolic
from bsatlas.atlas import (
    ChartSpec,
    SpaceSpec,
    change_of_coordinates,
    enumerate_charts,
    eval_coordinates,
    parametrize,
    t_weights,
)
from bsatlas.cgl import predicted_cgl
from bsatlas.errors import NonPolynomialBracket, NotInBigCell, NotInChartDomain
from bsatlas.groups import GroupElement, build_model, cached_model
from bsatlas.linalg import laurent_lower_factor, ltu_minors, mat_mul, mat_transpose
from bsatlas.poisson import chart_bracket
from bsatlas.positivity import ToricChartSpec, certify_chart_positivity
from bsatlas.rootdata import build_root_system
from bsatlas.symbolic import MultiPoly, RatFunc, VarName, var
from oracles import coordinates_from_factors, ltu_reference, matrix_product_representative, mul_torus, packed, torus_element
from oracles import fraction_chain, identity, one_param, product, sbar, undivided_coordinates, wbar, wbar_inverse_times


def zrf(i):
    return RatFunc.from_poly(MultiPoly.variable(VarName("z", i)))


def is_identity_coords(chart, coords):
    return all((RatFunc.coerce(c) - zrf(i + 1)).is_zero() for i, c in enumerate(coords))


def test_chart_census():
    m = cached_model("A", 2)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    charts = enumerate_charts(space)
    assert len(charts) == 16
    m1 = cached_model("A", 1)
    assert len(enumerate_charts(SpaceSpec(m1, "Nv", m1.rs.w0))) == 2
    # census formula
    rs = m.rs
    total = 0
    for w in rs.all_elements():
        u = rs.multiply(rs.w0, w.inverse())
        cnt = lambda el: max(1, len(rs.reduced_words(el)))
        total += cnt(u) * cnt(w) * cnt(rs.w0)
    assert total == 16


def test_chartspec_validation():
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    s1, s2 = rs.element_from_word((1,)), rs.element_from_word((2,))
    assert ChartSpec(space, s1, ((1, 2), (1,), (1, 2, 1))).r == ((1, 2), (1,), (1, 2, 1))
    with pytest.raises(ValueError):
        ChartSpec(space, rs.identity, ((1, 2), (), (1, 2, 1)))
    # a w-word of the wrong element, although w0_word + w_word is reduced for w0
    with pytest.raises(ValueError, match=r"word \(1,\) is not"):
        ChartSpec(space, s2, ((1, 2), (1,), (1, 2, 1)))
    # w0_word and w_word are reduced, their concatenation is not
    with pytest.raises(ValueError, match=r"word \(1, 2, 2\) is not"):
        ChartSpec(space, s2, ((1, 2), (2,), (1, 2, 1)))
    with pytest.raises(ValueError, match=r"word \(1, 2, 2\) is not"):
        ChartSpec(space, s1, ((1, 2), (1,), (1, 2, 2)))


# SHA-256 of the reprs of ChartSpec.key(), one per line in enumeration order.
# The chart indices of the CLI fixtures, the golden files and the benchmark
# name charts by this order, so it must not move.
_ENUMERATION_DIGESTS = {
    ("A", 3, "Nv", "w0"): (1792, "0add16aa063bbe553adb78ca8b046fbffe3ceb12be6fb8292357783dd2ba881d"),
    ("C", 2, "Nv", "w0"): (20, "acb55350ad9810dbad751f807969da55b5bbdfff2ff803e903f3477fc8f13824"),
    ("C", 2, "Bv", "e"): (10, "22247a2396bf5007039ea949ba6912e8f9aa2a627759ec070742f6790f9c42cb"),
    ("A", 4, "Bv", "e"): (8448, "298e6715ffbfa3f416ccf7b12d1170f4916de09706d0d58a2c534708b06e65ff"),
}


@pytest.mark.parametrize("series, rank, qkind, v", list(_ENUMERATION_DIGESTS))
def test_enumeration_order_is_pinned(series, rank, qkind, v):
    m = cached_model(series, rank)
    charts = enumerate_charts(SpaceSpec(m, qkind, m.rs.w0 if v == "w0" else m.rs.identity))
    digest = hashlib.sha256("\n".join(repr(c.key()) for c in charts).encode()).hexdigest()
    assert (len(charts), digest) == _ENUMERATION_DIGESTS[(series, rank, qkind, v)]


@pytest.mark.parametrize(
    "series, rank, v, n_charts",
    [("A", 2, None, 112), ("C", 2, None, 180), ("A", 3, "w0", 1792), ("A", 3, (1, 2, 1), 224)],
    ids=["SL3-every-space", "Sp4-every-space", "SL4-Nw0", "SL4-Ns1s2s1"],
)
def test_enumerated_specs_pass_the_validated_constructor(series, rank, v, n_charts):
    """enumerate_charts stores its words with no lookup; each spec it lists is one that ChartSpec accepts, with
    the same key.  v = None takes every space of the model; s1 s2 s1 has two reduced words, so the v-word loop runs."""
    m = cached_model(series, rank)
    rs = m.rs
    if v is None:
        spaces = [SpaceSpec(m, qkind, x) for x in rs.all_elements() for qkind in ("Bv", "Nv")]
    else:
        spaces = [SpaceSpec(m, "Nv", rs.w0 if v == "w0" else rs.element_from_word(v))]
    count = 0
    for space in spaces:
        specs = enumerate_charts(space)
        assert {spec.r[2] for spec in specs} == set(rs.reduced_words(space.v) or [()])
        for spec in specs:
            assert ChartSpec(space, spec.w, spec.r).key() == spec.key()
        count += len(specs)
    assert count == n_charts


def test_enumeration_looks_up_no_listed_word(monkeypatch):
    """Enumerating SL(4)/N(w0) calls element_from_word at most once per element of W (for w^{-1}), not once
    per listed word (5400 calls when every chart's words were looked up again)."""
    m = cached_model("A", 3)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    calls = []
    monkeypatch.setattr(rs, "element_from_word", lambda word, real=rs.element_from_word: calls.append(1) or real(word))
    assert len(enumerate_charts(space)) == 1792
    assert len(calls) <= len(rs.all_elements()) == 24


def test_word_memo_refuses_letters_that_are_not_ints():
    """(1.0,) and (True,) equal (1,) as memo keys; each is refused, before and after (1,) is memoized."""
    rs = build_root_system("A", 2)
    for word in ((1.0,), (True,), (2, 1.0)):
        with pytest.raises(TypeError, match="must be ints"):
            rs.element_from_word(word)
    assert rs.element_from_word((1,)) == rs.simple(1)
    for word in ((1.0,), (True,), [True]):
        for _ in range(2):
            with pytest.raises(TypeError, match="must be ints"):
                rs.element_from_word(word)


def test_word_memo_keeps_validation():
    """Once ChartSpec has filled the word memo with every word enumerate_charts lists, bad letters,
    non-reduced words and words of the wrong element are still refused, and a list word is its tuple."""
    rs = build_root_system("A", 3)
    m = build_model(rs)
    s1s2 = rs.element_from_word((1, 2))
    space = SpaceSpec(m, "Nv", s1s2)
    charts = [ChartSpec(space, c.w, c.r) for c in enumerate_charts(space)]
    assert all(word in rs._word_cache for c in charts for word in (c.r[0] + c.r[1], c.r[1], c.r[2]))
    assert len(rs._word_cache) > 1
    for word in ((0,), (rs.rank + 1,), (1, 0, 2), (2, 1, rs.rank + 1)):
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                rs.element_from_word(word)
        assert word not in rs._word_cache
    # (1, 1) has the length of s1 s2, and its element, the identity, is memoized
    assert rs.element_from_word((1, 1)) == rs.identity and (1, 1) in rs._word_cache
    spec = next(c for c in charts if c.w.length() == 2)
    with pytest.raises(ValueError, match=r"word \(1, 1\) is not a reduced word"):
        ChartSpec(space, spec.w, (spec.r[0], spec.r[1], (1, 1)))
    # every word below is memoized and reduced, but names another element
    with pytest.raises(ValueError, match=r"word \(2, 1\) is not a reduced word"):
        ChartSpec(space, spec.w, (spec.r[0], spec.r[1], (2, 1)))
    other = next(c for c in charts if c.w != spec.w and c.w.length() == spec.w.length())
    with pytest.raises(ValueError, match="is not a reduced word"):
        ChartSpec(space, other.w, spec.r)
    assert rs.element_from_word([3, 1, 2]) is rs.element_from_word((3, 1, 2))
    assert rs.element_from_word([1, 2]) is rs.element_from_word((1, 2)) is s1s2
    assert ChartSpec(space, spec.w, [list(x) for x in spec.r]).key() == spec.key()


@pytest.mark.parametrize("series,rank", [("A", 2), ("C", 2)])
def test_numeric_round_trip_is_exact_fractions(series, rank):
    m = cached_model(series, rank)
    rng = random.Random(3)
    for spec in enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0)):
        chart = parametrize(spec)
        z = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in chart.zvars]
        point = dict(zip(chart.zvars, z))
        mat = [[e.evaluate(point) for e in row] for row in chart.param.entries]
        got = eval_coordinates(chart, mat)
        assert got == z and all(type(x) is Fraction for x in got), spec.label()


@pytest.mark.parametrize("series,rank,vword", [("A", 2, (1,)), ("A", 3, (2,)), ("C", 2, (1, 2, 1, 2))])
def test_coordinates_make_no_matrix_product(series, rank, vword, monkeypatch):
    import bsatlas.atlas
    import bsatlas.groups
    import bsatlas.linalg
    from bsatlas.groups import MinorSpec

    m = cached_model(series, rank)
    rs = m.rs
    specs = enumerate_charts(SpaceSpec(m, "Nv", rs.element_from_word(vword)))[::7]
    charts = [parametrize(spec) for spec in specs]
    calls = []
    # a module that does not import mat_mul cannot call it
    for module in (bsatlas.atlas, bsatlas.groups, bsatlas.linalg):
        real = getattr(module, "mat_mul", None)
        if real is not None:
            monkeypatch.setattr(module, "mat_mul", lambda a, b, real=real: calls.append(1) or real(a, b))
    for chart in charts:
        got = eval_coordinates(chart, chart.param.entries)
        assert all((c - RatFunc.from_poly(MultiPoly.variable(z))).is_zero() for c, z in zip(got, chart.zvars))
        for u in rs.all_elements():
            m.generalized_minor(chart.param.entries, MinorSpec(u, rs.w0, rank))
    assert calls == []


def test_sl2_parametrizations_match_reference():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart_e, chart_s = (parametrize(s) for s in enumerate_charts(space))
    z1, z2, z3 = (var("z", i) for i in (1, 2, 3))
    want_e = [[z3, z2 / z3], [z1 * z3, (z1 * z2 + 1) / z3]]
    want_s = [[z1 * z3, (z1 * z2 - 1) / z3], [z3, z2 / z3]]
    for chart, want in ((chart_e, want_e), (chart_s, want_s)):
        for i in range(2):
            for j in range(2):
                assert (chart.param.entries[i][j] - want[i][j]).is_zero()


@pytest.mark.parametrize(
    "series,rank,qkind,vname",
    [("A", 1, "Nv", "w0"), ("A", 2, "Nv", "w0"), ("A", 2, "Bv", "e"), ("A", 2, "Bv", "w0"), ("A", 2, "Nv", "e")],
)
def test_round_trip_all_charts(series, rank, qkind, vname):
    m = cached_model(series, rank)
    rs = m.rs
    v = rs.w0 if vname == "w0" else rs.identity
    space = SpaceSpec(m, qkind, v)
    for spec in enumerate_charts(space):
        chart = parametrize(spec)
        assert is_identity_coords(chart, eval_coordinates(chart, chart.param.entries)), spec.label()


def _ratfunc_param(spec):
    """Reference parametrization composed in RatFunc, as entry texts.

    Chains by dense products of ``one_param`` and sbar per letter, the lower
    factor of x = g2 w0bar^{-1} g1 by triangular_factor, its inverse by
    forward substitution, then L^{-1} g2 g3 vbar^{-1} times the torus, all by
    mat_mul on RatFunc entries.
    """
    model = spec.space.model
    rs = model.rs
    w0_word, w_word, v_word = spec.r
    k, l0 = len(w0_word), rs.l0
    l = l0 + len(v_word)
    z = [var("z", j) for j in range(1, spec.space.dims() + 1)]

    def chain(word, values):
        g = identity(model)
        for i, c in zip(word, values):
            g = product(g, one_param(model, i, c), sbar(model, i))
        return g.entries

    g1, g2, g3 = chain(w0_word, z[:k]), chain(w_word, z[k:l0]), chain(v_word, z[l0:l])
    # a signed permutation matrix is orthogonal: wbar^{-1} = wbar^T
    x = mat_mul(g2, mat_mul(mat_transpose(wbar(model, rs.w0.canonical).entries), g1))
    lower = model.to_internal(model.triangular_factor(x)[0])
    n = len(lower)
    inv = [[RatFunc.one() if i == j else RatFunc.zero() for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            for c in range(j, i):
                inv[i][j] = inv[i][j] - lower[i][c] * inv[c][j]
    rep = mat_mul(mat_mul(model.from_internal(inv), g2), g3)
    rep = mat_mul(rep, mat_transpose(wbar(model, v_word).entries))
    if spec.space.qkind == "Nv":
        rep = mul_torus(model, GroupElement(model, rep), z[l:]).entries
    return [[RatFunc.coerce(x).text() for x in row] for row in rep]


@pytest.mark.parametrize(
    "series, rank, qkind, vname, sample",
    [
        ("A", 2, "Nv", "w0", None),
        ("A", 2, "Bv", "e", None),
        ("C", 2, "Nv", "w0", None),
        ("A", 3, "Bv", "e", None),
        ("A", 3, "Nv", "w0", 30),
    ],
)
def test_parametrize_matches_ratfunc_composition(series, rank, qkind, vname, sample):
    """The Laurent parametrization equals the RatFunc composition entry by entry, as text."""
    m = cached_model(series, rank)
    space = SpaceSpec(m, qkind, m.rs.w0 if vname == "w0" else m.rs.identity)
    specs = enumerate_charts(space)
    if sample:
        specs = random.Random(5).sample(specs, sample)
    for spec in specs:
        got = [[x.text() for x in row] for row in parametrize(spec).param.entries]
        assert got == _ratfunc_param(spec), spec.label()


@pytest.mark.parametrize(
    "series, rank, qkind, vname, sample",
    [
        ("A", 1, "Nv", "w0", None),
        ("A", 2, "Nv", "w0", None),
        ("A", 2, "Bv", "e", None),
        ("C", 2, "Nv", "w0", None),
        ("C", 2, "Bv", "e", None),
        ("A", 3, "Bv", "e", None),
        ("A", 3, "Nv", "w0", 32),
    ],
)
def test_representative_matches_matrix_product_build(series, rank, qkind, vname, sample):
    """The column-update build with shared heads equals the three Laurent matrix products, key for key."""
    m = cached_model(series, rank)
    specs = enumerate_charts(SpaceSpec(m, qkind, m.rs.w0 if vname == "w0" else m.rs.identity))
    if sample:
        specs = random.Random(7).sample(specs, sample)
    for spec in specs:
        assert atlas.representative(spec) == matrix_product_representative(spec), spec.label()


@pytest.mark.parametrize("series, rank", [("A", 2), ("C", 2)])
def test_charts_sharing_a_head_leave_it_unchanged(series, rank):
    """Two charts that differ only in the v word share one head; either build order gives the same
    representatives, and neither build changes the head their space keeps."""
    m = cached_model(series, rank)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    specs = enumerate_charts(space)
    first = specs[0]
    pair = [first, next(s for s in specs if s.r[:2] == first.r[:2] and s.r[2] != first.r[2])]
    key = first.r[:2]
    reps = []
    for order in (pair, pair[::-1]):
        space.heads.clear()
        charts = [parametrize(spec) for spec in order]
        charts[0].rep
        head = copy.deepcopy(space.heads[key])
        charts[1].rep
        assert space.heads[key] == head and list(space.heads) == [key]
        reps.append({chart.spec: copy.deepcopy((chart.frame, chart.rep)) for chart in charts})
    assert reps[0] == reps[1] == {spec: matrix_product_representative(spec) for spec in pair}


def test_charts_read_at_points_build_no_representative(monkeypatch):
    """Positivity, predicted CGL data and T-weights read no representative; the bracket builds it on first read."""
    m = cached_model("A", 2)
    specs = enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))
    tspec = ToricChartSpec(m, "G", (m.rs.w0.canonical, m.rs.w0.canonical))

    def run():
        charts = [parametrize(spec) for spec in specs]
        for chart in charts:
            predicted_cgl(chart)
            t_weights(chart)
        return charts, [certify_chart_positivity(chart, tspec, 2, 3) for chart in charts]

    expected = run()[1]

    def refuse(spec):
        raise AssertionError(f"representative of {spec.label()} built")

    with monkeypatch.context() as patch:
        patch.setattr(atlas, "representative", refuse)
        charts, reports = run()
    assert reports == expected and all(r["ok"] for r in reports)
    for chart in charts:
        assert chart._rep is None
        assert chart_bracket(chart).entries
        assert (chart.frame, chart.rep) == matrix_product_representative(chart.spec)


def test_laurent_lower_factor_needs_monomial_pivots():
    one, z1 = packed({(0,): 1}, 1), packed({(1,): 1}, 1)
    # a = [[2 z1, 1], [z1^2, 0]]: L_21 = z1/2, and the second pivot -z1/2 is a monomial too
    lower = laurent_lower_factor([[packed({(1,): 2}, 1), one], [packed({(2,): 1}, 1), {}]], one)
    assert lower == [[one, {}], [packed({(1,): Fraction(1, 2)}, 1), one]]
    with pytest.raises(AssertionError):
        laurent_lower_factor([[packed({(1,): 1, (0,): 1}, 1), one], [one, z1]], one)
    with pytest.raises(NotInBigCell) as err:
        laurent_lower_factor([[{}, one], [one, z1]], one)
    assert err.value.minor_index == 1


@pytest.mark.parametrize("series, rank", [("A", 2), ("C", 2)])
def test_parametrize_takes_no_gcd(series, rank):
    """Over every chart of G/N(w0), parametrize and the representative's build call neither poly_gcd nor
    RatFunc.__mul__."""
    m = cached_model(series, rank)
    specs = enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))
    codes = {symbolic.poly_gcd.__code__, symbolic.RatFunc.__mul__.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        charts = [parametrize(spec).rep for spec in specs]
    finally:
        sys.setprofile(None)
    assert len(charts) == len(specs)
    assert calls == []


def test_parametrize_returns_a_chart_of_the_spec_it_is_given():
    """Charts are values: a chart built through one model instance is not returned for the same chart of
    another, whose spec and Weyl elements belong to the second instance."""
    m1, m2 = (build_model(build_root_system("A", 2)) for _ in range(2))
    spec1, spec2 = (enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))[5] for m in (m1, m2))
    assert spec1.key() == spec2.key()
    assert parametrize(spec1).spec is spec1
    chart = parametrize(spec2)
    assert chart.spec is spec2 and chart.spec.space.model is m2
    assert m2.rs.element_from_rho(spec2.w.rho) is spec2.w is not m1.rs.element_from_rho(spec2.w.rho)
    assert chart.rep == parametrize(spec1).rep


def test_space_counts_the_words_of_v_and_keeps_heads_only_where_v_has_two():
    """SpaceSpec walks the left descents of v, never listing or counting its words (w0 of SL(7) has
    1 100 742 656), and keeps a head memo only where a second v word could read a head: v = s1.s2.s3 has
    one word, s1.s2.s1 a braid, and s2.s1.s3 one left descent, then two."""
    m = cached_model("A", 6)
    start = time.perf_counter()
    space = SpaceSpec(m, "Nv", m.rs.w0)
    assert time.perf_counter() - start < 1
    assert space.heads == {}
    assert SpaceSpec(m, "Bv", m.rs.simple(3)).heads is None
    m3 = cached_model("A", 3)
    for word, heads in (((), None), ((1, 2), None), ((1, 2, 3), None), ((1, 2, 1), 112), ((2, 1, 3), 112), (m3.rs.w0_word, 112)):
        space = SpaceSpec(m3, "Bv", m3.rs.element_from_word(word))
        for spec in enumerate_charts(space):
            parametrize(spec).rep
        assert (space.heads if heads is None else len(space.heads)) == heads


def test_round_trip_intermediate_v():
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.element_from_word((1, 2)))
    charts = enumerate_charts(space)
    for spec in charts[:6]:
        chart = parametrize(spec)
        assert is_identity_coords(chart, eval_coordinates(chart, chart.param.entries))


def test_round_trip_sl4_and_sp4_samples():
    m = cached_model("A", 3)
    space = SpaceSpec(m, "Bv", m.rs.identity)
    for r in (((3, 2, 1, 3, 2, 3), (), ()), ((), (1, 3, 2, 3, 1, 2), ())):
        w = m.rs.identity if r[1] == () else m.rs.element_from_word(r[1])
        chart = parametrize(ChartSpec(space, w, r))
        assert is_identity_coords(chart, eval_coordinates(chart, chart.param.entries))
    mc = cached_model("C", 2)
    spacec = SpaceSpec(mc, "Nv", mc.rs.w0)
    chart = parametrize(ChartSpec(spacec, mc.rs.identity, ((1, 2, 1, 2), (), (2, 1, 2, 1))))
    assert is_identity_coords(chart, eval_coordinates(chart, chart.param.entries))


def test_eval_coordinates_sl3_printed_formulas():
    """The first chart's coordinates as functions of the matrix entries."""
    m = cached_model("A", 2)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart = parametrize(ChartSpec(space, m.rs.identity, ((1, 2, 1), (), (1, 2, 1))))
    g = chart.param

    def e(i, j):
        return g.entries[i - 1][j - 1]

    def minor2(r1, r2, c1, c2):
        return e(r1, c1) * e(r2, c2) - e(r1, c2) * e(r2, c1)

    want = [
        minor2(1, 3, 1, 2) / minor2(1, 2, 1, 2),
        e(3, 1) / e(1, 1),
        e(2, 1) / e(1, 1),
        e(1, 1) * e(1, 2) / minor2(1, 2, 1, 2),
        e(1, 1) * minor2(1, 2, 2, 3),
        minor2(1, 2, 1, 2) * minor2(1, 2, 1, 3) / e(1, 1),
        e(1, 1),
        minor2(1, 2, 1, 2),
    ]
    for i, expr in enumerate(want, start=1):
        assert (expr - zrf(i)).is_zero(), i


def test_not_in_chart_domain():
    m = cached_model("A", 2)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart = parametrize(ChartSpec(space, m.rs.identity, ((1, 2, 1), (), (1, 2, 1))))
    g = [[Fraction(x) for x in row] for row in [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]]
    with pytest.raises(NotInChartDomain) as exc:
        eval_coordinates(chart, g)
    assert exc.value.minor_index == 1


def test_change_of_coordinates_identity_and_composition():
    m = cached_model("A", 2)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    charts = [parametrize(s) for s in enumerate_charts(space)[:3]]
    ca, cb, cc = charts
    assert is_identity_coords(ca, change_of_coordinates(ca, ca))
    ab = change_of_coordinates(ca, cb)
    bc = change_of_coordinates(cb, cc)
    ac = change_of_coordinates(ca, cc)
    binding = {VarName("z", i + 1): ab[i] for i in range(len(ab))}
    composed = [f.substitute(binding) for f in bc]
    for lhs, rhs in zip(composed, ac):
        assert (lhs - rhs).is_zero()


def test_change_of_coordinates_sl2_values():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart_e, chart_s = (parametrize(s) for s in enumerate_charts(space))
    z1, z2, z3 = (var("z", i) for i in (1, 2, 3))
    got = change_of_coordinates(chart_s, chart_e)
    want = [1 / z1, z1 * (z1 * z2 - 1), z1 * z3]
    for g, w in zip(got, want):
        assert (g - w).is_zero()


def test_torus_equivariance_random():
    rng = random.Random(0)
    m = cached_model("A", 2)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    for spec in enumerate_charts(space)[:4]:
        chart = parametrize(spec)
        weights = t_weights(chart)
        for _ in range(3):
            tv = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
            t = torus_element(m, tv)
            shifted = eval_coordinates(chart, product(t, chart.param).entries)
            for j, (val, wt) in enumerate(zip(shifted, weights), start=1):
                scale = Fraction(1)
                for i, c in enumerate(wt.coeffs):
                    scale *= tv[i] ** int(c)
                assert (val - RatFunc.constant(scale) * zrf(j)).is_zero(), (spec.label(), j)


def test_representative_independence():
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    chart = parametrize(enumerate_charts(space)[5])
    coords = eval_coordinates(chart, chart.param.entries)
    # right-multiplying the representative by N(v)=e for v=w0 is trivial; use
    # the Bv space for a real test
    spaceb = SpaceSpec(m, "Bv", rs.identity)
    chartb = parametrize(enumerate_charts(spaceb)[0])
    u1, u2 = var("u", 1), var("u", 2)
    q = product(fraction_chain(m, (1, 2), (u1, u2)), torus_element(m, [var("u", 3), var("u", 4)]))
    moved = product(chartb.param, q)
    got = eval_coordinates(chartb, moved.entries)
    assert is_identity_coords(chartb, got)


def test_t_weights_blocks():
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    chart = parametrize(ChartSpec(space, rs.identity, ((1, 2, 1), (), (1, 2, 1))))
    ws = t_weights(chart)
    # first block tail j = k: weight s_{a_k}(alpha_k) = -alpha_k
    assert ws[2] == -rs.simple_root(1)
    # second block head j = k+1: weight alpha_{k+1}
    assert ws[3] == rs.simple_root(1)
    # torus block: w(omega_i) with w = e
    assert ws[6] == rs.fundamental_weight(1)
    assert ws[7] == rs.fundamental_weight(2)


def test_sl2_composition_coherence():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    ca, cb = (parametrize(s) for s in enumerate_charts(space))
    ab = change_of_coordinates(ca, cb)
    ba = change_of_coordinates(cb, ca)
    binding = {VarName("z", i + 1): ab[i] for i in range(3)}
    for i, f in enumerate(ba):
        assert (f.substitute(binding) - zrf(i + 1)).is_zero()


def test_sl4_group_chart_round_trips():
    m = cached_model("A", 3)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    w0w = rs.w0.canonical
    for spec in (
        ChartSpec(space, rs.identity, (w0w, (), w0w)),
        ChartSpec(space, rs.w0, ((), w0w, w0w)),
    ):
        chart = parametrize(spec)
        assert is_identity_coords(chart, eval_coordinates(chart, chart.param.entries))


def _coordinates_by_factors(chart, g):
    """The coordinates read from the factors L, N, T of the division elimination (``ltu_reference``), as an oracle.

    With wbar^{-1} g = L*T*U in the internal basis, N = T U T^{-1}; an int entry is read as a Fraction.
    """
    m = chart.spec.space.model
    h = wbar_inverse_times(m, chart.spec.w.canonical, g)
    try:
        lower, t, upper = ltu_reference(m.to_internal([[Fraction(x) if type(x) is int else x for x in row] for row in h]))
    except NotInBigCell as e:
        return e.minor_index
    zero, n = t[0] * 0, len(t)
    upper = [[upper[i][j] * t[i] / t[j] if j > i else upper[i][j] for j in range(n)] for i in range(n)]
    tmat = [[t[i] if i == j else zero for j in range(n)] for i in range(n)]
    return coordinates_from_factors(chart, lower, upper, tmat)


def _change_pairs():
    out = []
    m = cached_model("A", 2)
    charts = [parametrize(s) for s in enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))]
    out += [(a, b) for a in charts for b in charts if a is not b]
    rng = random.Random(17)
    for m, qkind, v in ((cached_model("C", 2), "Nv", cached_model("C", 2).rs.w0), (cached_model("A", 3), "Bv", cached_model("A", 3).rs.identity)):
        specs = enumerate_charts(SpaceSpec(m, qkind, v))
        out += [tuple(parametrize(specs[i]) for i in rng.sample(range(len(specs)), 2)) for _ in range(12)]
    return out


def test_eval_coordinates_matches_formed_factors():
    """Every coordinate read straight from the elimination equals the minor of the formed factor:
    all ordered SL(3)/N(w0) pairs and seeded Sp(4)/N(w0) and SL(4)/B(e) pairs, symbolically by
    text and at a rational point; a point whose column denominator is not a monomial is refused, naming the entry."""
    d, pairs = var("d"), _change_pairs()
    for src, dst in pairs:
        got = eval_coordinates(dst, src.param.entries)
        assert [f.text() for f in got] == [f.text() for f in _coordinates_by_factors(dst, src.param.entries)], dst
        point = {z: Fraction(k + 2, 2 * k + 3) for k, z in enumerate(src.zvars)}
        numeric = [[x.evaluate(point) for x in row] for row in src.param.entries]
        got = eval_coordinates(dst, numeric)
        assert got == _coordinates_by_factors(dst, numeric) and all(type(x) is Fraction for x in got)
    for src, dst in pairs[::40]:
        g = [[x / (d + 1) if j == 0 else x for j, x in enumerate(row)] for row in src.param.entries]
        m = dst.spec.space.model
        h = m.internal_left_inv(dst.spec.w.canonical, g)
        entry = next(x for row in h for x in row if len(x.den.terms) > 1)
        with pytest.raises(NonPolynomialBracket, match=rf"^{re.escape(entry.text())} is not a Laurent polynomial"):
            eval_coordinates(dst, g)


@pytest.mark.parametrize("series, rank, n_charts", [("A", 2, 16), ("C", 2, 20)], ids=["A2", "C2"])
def test_eval_coordinates_reads_a_symbolic_scaled_point(series, rank, n_charts):
    """The toric point (m, d) of ``word_point`` at variables c_k and t_i goes into ``eval_coordinates`` as it is,
    m and d over one frame, and gives on every chart of G/N(w0) the canonical texts of the RatFunc rows m/d."""
    m = cached_model(series, rank)
    rs = m.rs
    letters = [-i for i in rs.w0.canonical] + list(rs.w0.canonical)
    mat, d = m.word_point(letters, [var("c", k) for k in range(1, len(letters) + 1)], [var("t", i) for i in range(1, rank + 1)])
    rows = [[RatFunc.coerce(x) / d for x in row] for row in mat]
    specs = enumerate_charts(SpaceSpec(m, "Nv", rs.w0))
    assert len(specs) == n_charts
    for spec in specs:
        chart = parametrize(spec)
        got = [x.text() for x in eval_coordinates(chart, (mat, d))]
        assert got == [x.text() for x in eval_coordinates(chart, rows)], spec.label()


def test_eval_coordinates_outside_the_cell_names_the_minor_of_the_factorization():
    m = cached_model("A", 2)
    charts = [parametrize(s) for s in enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))]
    flip = [[Fraction(x) for x in row] for row in [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]]
    hollow = [[x * (i != j) for j, x in enumerate(row)] for i, row in enumerate(charts[0].param.entries)]
    seen = set()
    for chart in charts:
        for g in (flip, wbar(m, m.rs.w0.canonical).entries, hollow):
            want = _coordinates_by_factors(chart, g)
            if isinstance(want, int):
                with pytest.raises(NotInChartDomain) as exc:
                    eval_coordinates(chart, g)
                assert exc.value.minor_index == want
                seen.add(want)
    assert seen == {1, 2}


def test_change_of_coordinates_takes_one_gcd_per_coordinate():
    """A change of coordinates takes at most one top-level poly_gcd (one not nested in another) per coordinate."""
    code, calls = symbolic.poly_gcd.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            outer = frame.f_back
            while outer is not None and outer.f_code is not code:
                outer = outer.f_back
            if outer is None:
                calls.append(frame)

    for src, dst in _change_pairs()[::5]:
        calls.clear()
        sys.setprofile(profile)
        try:
            coords = change_of_coordinates(src, dst)
        finally:
            sys.setprofile(None)
        assert len(calls) <= len(coords), (src, dst)


def _recording_changes(series, qkind, v):
    """(gcds, certified): run every ordered pair of the rank-2 space, listing the poly_gcd calls and, for each pivot
    split with a factor q_k that is not a monomial, whether q_k is certified prime."""
    gcds, certified, split, poly_gcd = [], [], linalg._pivot_split, symbolic.poly_gcd

    def recording_split(piv, frame):
        got = split(piv, frame)
        if got[1] is not None:
            certified.append(got[2])
        return got

    m = cached_model(series, 2)
    charts = [parametrize(s) for s in enumerate_charts(SpaceSpec(m, qkind, m.rs.w0 if v == "w0" else m.rs.identity))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_pivot_split", recording_split)
        mp.setattr(symbolic, "poly_gcd", lambda *args, **kwargs: gcds.append(args) or poly_gcd(*args, **kwargs))
        for src in charts:
            for dst in charts:
                if src is not dst:
                    change_of_coordinates(src, dst)
    return gcds, certified


def test_a_change_takes_no_gcd_and_every_pivot_factor_is_certified():
    """On every ordered pair of SL(3)/N(w0), Sp(4)/N(w0) and Sp(4)/B(e), each pivot's factor q_k that is not a
    monomial is certified prime (``linalg._pivot_split``), so every quotient a change leaves is known coprime past
    its monomials and no change calls poly_gcd."""
    for space in (("A", "Nv", "w0"), ("C", "Nv", "w0"), ("C", "Bv", "e")):
        gcds, certified = _recording_changes(*space)
        assert certified and all(certified), space
        assert gcds == [], space


def _sympy_of(p):
    return sympy.Add(*(c * sympy.Mul(*(sympy.Symbol(str(v)) ** k for v, k in zip(p.vars, e))) for e, c in p.terms.items()))


def test_a_quotient_passed_on_as_coprime_is_coprime(monkeypatch):
    """Every quotient of an SL(3)/N(w0) change that ``linalg._factor_minor`` passes to ``from_laurent`` as coprime
    has sympy.gcd(num, den) = 1."""
    passed, convert = [], linalg.from_laurent

    def recording(a, frame, den=None, _coprime=False):
        got = convert(a, frame, den, _coprime)
        if _coprime and len(den) > 1:
            passed.append(got)
        return got

    monkeypatch.setattr(linalg, "from_laurent", recording)
    _recording_changes("A", "Nv", "w0")
    assert len(passed) > 50
    for x in passed:
        assert sympy.gcd(_sympy_of(x.num), _sympy_of(x.den)) == 1, x.text()


def test_a_pivot_factor_that_divides_nothing_is_left_to_the_gcd(monkeypatch):
    """p_1 = (1 + z1)(1 + z2) divides neither M_10 = (1 + z1) z2 below it nor p_1 over p_2 = (1 + z1)(z1 z2 + z1 + 1),
    so L_10 = M_10/p_1 and N_01 = p_1/p_2 keep their pivots whole, and the gcd cancels the shared 1 + z1: each equals
    the canonical quotient of its undivided numerator and denominator."""
    z1, z2 = var("z", 1), var("z", 2)
    a = [[(1 + z1) * (1 + z2), 1], [(1 + z1) * z2, 1 + z1]]
    gcds, poly_gcd = [], symbolic.poly_gcd

    def recording(f, g, cofactors=False):
        got = poly_gcd(f, g, cofactors)
        gcds.append((got[0] if cofactors else got).text())
        return got

    monkeypatch.setattr(symbolic, "poly_gcd", recording)
    lo, up = ltu_minors(a, [(0, [1], [0], 1), (1, [0], [1], 1)])
    monkeypatch.undo()
    assert (lo.text(), up.text()) == ("z2/(z2 + 1)", "(z2 + 1)/(z1*z2 + z1 + 1)")
    assert gcds == ["z1 + 1", "z1 + 1"]
    p1, p2 = a[0][0], a[0][0] * a[1][1] - a[1][0] * a[0][1]
    assert [lo.text(), up.text()] == [RatFunc(a[1][0].num, p1.num).text(), RatFunc(p1.num, p2.num).text()]


def test_change_of_coordinates_matches_the_undivided_quotients():
    """Dividing out the pivots' factors before the gcd leaves every coordinate's text as it was, with whole
    pivots over the gcd (``oracles.undivided_coordinates``): every ordered pair of SL(3)/B(e), Sp(4)/B(e) and
    Sp(4)/N(w0), and RatFunc points t * g for g a chart's parametrization and t a torus element."""
    rng = random.Random(5)
    for series, rank, qkind, v in (("A", 2, "Bv", "e"), ("C", 2, "Bv", "e"), ("C", 2, "Nv", "w0")):
        m = cached_model(series, rank)
        charts = [parametrize(s) for s in enumerate_charts(SpaceSpec(m, qkind, m.rs.w0 if v == "w0" else m.rs.identity))]
        for src in charts:
            t = torus_element(m, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rank)])
            point = product(t, src.param).entries
            for dst in charts:
                if src is not dst:
                    got = [x.text() for x in change_of_coordinates(src, dst)]
                    assert got == [x.text() for x in undivided_coordinates(dst, src)], (src.spec.label(), dst.spec.label())
            for dst in charts[:: max(1, len(charts) // 4)]:
                got = [x.text() for x in eval_coordinates(dst, point)]
                assert got == [x.text() for x in undivided_coordinates(dst, point)], (src.spec.label(), dst.spec.label())


def _braid_window(src, dst):
    """(first slot, source letters) of the window in which the words of the chart specs src and dst, w the same,
    differ by one braid move in one block, or None if they do not.  The slots of a block follow those of the
    blocks before it, one per letter."""
    if src.w.canonical != dst.w.canonical:
        return None
    start, found = 0, None
    for a, b in zip(src.r, dst.r):
        if a != b:
            diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
            window, other = a[diff[0] : diff[-1] + 1], b[diff[0] : diff[-1] + 1]
            s, t = window[0], other[0]
            swap = {s: t, t: s}
            if found or len(window) < 2 or any(x != (s, t)[i % 2] for i, x in enumerate(window)):
                return None
            if tuple(swap[x] for x in window) != other:
                return None
            found = (start + diff[0], window)
        start += len(a)
    return found


def _braid_move(x, window):
    """The source window's variables x in the target chart, one universal formula per move."""
    if len(window) == 2:
        return [x[1], x[0]]
    if len(window) == 3:
        return [x[2], x[0] * x[2] - x[1], x[0]]
    if window == (1, 2, 1, 2):
        return [x[3], x[0] * x[3] - x[2], x[0] ** 2 * x[3] - 2 * x[0] * x[2] + x[1], x[0]]
    assert window == (2, 1, 2, 1), window
    return [x[3], x[0] * x[3] ** 2 - 2 * x[1] * x[3] + x[2], x[0] * x[3] - x[1], x[0]]


def test_a_braid_edge_changes_only_its_window_by_the_universal_formula():
    """On every braid edge of SL(3)/N(w0), Sp(4)/N(w0) and SL(4)/B(e) (24, 28 and 200 ordered pairs), the change
    keeps each variable outside the move's window and maps the window by the move's formula, read from the
    source window: an oracle that takes neither a gcd nor a pivot division."""
    for series, rank, qkind, v, edges in (("A", 2, "Nv", "w0", 24), ("C", 2, "Nv", "w0", 28), ("A", 3, "Bv", "e", 200)):
        m = cached_model(series, rank)
        charts = [parametrize(s) for s in enumerate_charts(SpaceSpec(m, qkind, m.rs.w0 if v == "w0" else m.rs.identity))]
        seen = 0
        for src in charts:
            z = [zrf(j) for j in range(1, src.dims + 1)]
            for dst in charts:
                found = _braid_window(src.spec, dst.spec)
                if found is None:
                    continue
                lo, window = found
                hi = lo + len(window)
                want = z[:lo] + _braid_move(z[lo:hi], window) + z[hi:]
                got = change_of_coordinates(src, dst)
                assert [x.text() for x in got] == [x.text() for x in want], (src.spec.label(), dst.spec.label())
                seen += 1
        assert seen == edges, (series, rank, qkind)
