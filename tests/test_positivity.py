"""Toric charts, exact sampling, positivity certification."""

import random
from fractions import Fraction

import pytest

from bsatlas.atlas import ChartSpec, SpaceSpec, enumerate_charts, eval_coordinates, parametrize
from bsatlas.errors import (
    HypothesisViolated,
    IncomparableCharts,
    LengthMismatch,
    NonPositiveInput,
)
from bsatlas import positivity
from bsatlas.groups import MinorSpec, build_model, cached_model
from bsatlas.positivity import (
    ToricChartSpec,
    _flag_minors,
    certify_chart_positivity,
    certify_minor_positivity,
    certify_toric_equivalence,
    extract_negative_chain,
    extract_positive_chain,
    toric_coordinates,
    toric_point,
)
from oracles import x_chain


def test_x_chain():
    m = cached_model("A", 1)
    c = Fraction(3, 2)
    g = x_chain(m, (1,), -1, [c])
    assert g.entries == [[1, 0], [c, 1]]
    assert x_chain(m, (), 1, []).satisfies_group_constraint()
    with pytest.raises(LengthMismatch):
        x_chain(m, (1,), -1, [c, c])


def test_x_chain_cell_membership():
    from bsatlas.leaves import t_leaf_classify

    m = cached_model("A", 2)
    rs = m.rs
    g = x_chain(m, (1, 2, 1), -1, [Fraction(1)] * 3)
    sp = SpaceSpec(m, "Nv", rs.identity)
    lbl = t_leaf_classify(sp, g)
    assert lbl.w == rs.w0  # N^- cap B w0 B


def test_toric_point_g():
    m = cached_model("A", 1)
    spec = ToricChartSpec(m, "G", ((1,), (1,)))
    p = toric_point(spec, [1, 1, 1])
    assert p.entries == [[1, 1], [1, 2]]
    with pytest.raises(NonPositiveInput):
        toric_point(spec, [1, 0, 1])
    with pytest.raises(LengthMismatch):
        toric_point(spec, [1, 1])


def test_toric_point_flag_targets():
    m = cached_model("A", 2)
    rs = m.rs
    specb = ToricChartSpec(m, "GmodBv", (rs.w0.canonical, ()))
    p = toric_point(specb, [1, 2, 3])
    # v = e: the point is the negative chain itself
    q = x_chain(m, rs.w0.canonical, -1, [1, 2, 3])
    assert p.entries == q.entries


def test_certify_chart_positivity_sl2():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    tspec = ToricChartSpec(m, "G", ((1,), (1,)))
    for spec in enumerate_charts(space):
        chart = parametrize(spec)
        rep = certify_chart_positivity(chart, tspec, 100, seed=0)
        assert rep["ok"], rep["violations"][:3]
        assert Fraction(rep["min_coordinate"]) > 0


def test_certify_determinism():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart = parametrize(enumerate_charts(space)[0])
    tspec = ToricChartSpec(m, "G", ((1,), (1,)))
    r1 = certify_chart_positivity(chart, tspec, 10, seed=42)
    r2 = certify_chart_positivity(chart, tspec, 10, seed=42)
    assert r1 == r2
    r3 = certify_chart_positivity(chart, tspec, 10, seed=43)
    assert r1 != r3


def test_boundary_probe_not_flagged():
    """A non-toric point with a vanishing coordinate is not a counterexample."""
    m = cached_model("A", 1)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    chart_e, chart_s = (parametrize(s) for s in enumerate_charts(space))
    # z-chart point with z1 = z2 = 1, z3 = 1: first-chart coordinate xi2 vanishes
    from bsatlas.symbolic import VarName

    point = [
        [x.evaluate({VarName("z", i): Fraction(1) for i in (1, 2, 3)}) for x in row]
        for row in chart_s.param.entries
    ]
    coords = eval_coordinates(chart_e, point)
    assert coords[1] == 0
    # certification over toric samples stays clean
    tspec = ToricChartSpec(m, "G", ((1,), (1,)))
    assert certify_chart_positivity(chart_e, tspec, 50, seed=1)["ok"]


def test_flag_minor_positivity():
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    for w in rs.all_elements():
        rep = certify_minor_positivity(space, w, rs.identity, 1, 20, seed=0)
        assert rep["ok"]
    rep = certify_minor_positivity(space, rs.w0, rs.element_from_word((1, 2)), 2, 30, seed=0)
    assert rep["ok"]
    space_small = SpaceSpec(m, "Nv", rs.simple(1))
    with pytest.raises(HypothesisViolated):
        certify_minor_positivity(space_small, rs.w0, rs.element_from_word((2,)), 1, 5)


@pytest.mark.parametrize(
    "series, rank, row_sets", [("A", 1, 2), ("A", 2, 6), ("A", 3, 14), ("A", 4, 30), ("C", 2, 8)]
)
def test_flag_minors_share_one_determinant_per_row_set(monkeypatch, series, rank, row_sets):
    """Every flag minor D_{w omega_a, omega_a}, read off one determinant per distinct row set, equals
    generalized_minor, in the order of W and then a, at seeded integer points."""
    m = cached_model(series, rank)
    rs = m.rs
    labels, read = _flag_minors(m)
    assert labels == [(w, a) for w in rs.all_elements() for a in range(1, rs.rank + 1)]
    dets = []
    monkeypatch.setattr(positivity, "minor", lambda *args, real=positivity.minor: dets.append(1) or real(*args))
    rng = random.Random(rank)
    for _ in range(5):
        g = [[rng.randint(-4, 4) for _ in range(m.dim)] for _ in range(m.dim)]
        dets.clear()
        assert read(g) == [m.generalized_minor(g, MinorSpec(w, rs.identity, a)) for w, a in labels]
        assert len(dets) == row_sets


def test_flag_minors_are_built_once_per_model():
    """Every chart certified on one model reads the same flag-minor table; a second model builds its own."""
    m = cached_model("A", 2)
    first = _flag_minors(m)
    assert _flag_minors(m) is first
    other = build_model(m.rs)
    assert _flag_minors(other) is not first and _flag_minors(other) is _flag_minors(other)


def test_chain_extraction_roundtrip():
    rng = random.Random(2)
    for series, rank, word in (("A", 2, (1, 2, 1)), ("C", 2, (1, 2, 1, 2))):
        m = cached_model(series, rank)
        cs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in word]
        g = x_chain(m, word, -1, cs)
        assert extract_negative_chain(m, g, word) == cs
        h = x_chain(m, word, +1, cs)
        assert extract_positive_chain(m, h, word) == cs


def test_toric_coordinates_inverts_chart():
    m = cached_model("A", 2)
    rs = m.rs
    rng = random.Random(9)
    for spec in (
        ToricChartSpec(m, "G", ((1, 2, 1), (2, 1, 2))),
        ToricChartSpec(m, "GmodNv", ((1, 2, 1), (1, 2, 1))),
        ToricChartSpec(m, "GmodBv", ((2, 1, 2), ())),
    ):
        for _ in range(3):
            c = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(spec.n_params())]
            point = toric_point(spec, c)
            assert toric_coordinates(spec, point) == c


def test_toric_equivalence():
    m = cached_model("A", 2)
    a = ToricChartSpec(m, "G", ((1, 2, 1), (2, 1, 2)))
    b = ToricChartSpec(m, "G", ((2, 1, 2), (1, 2, 1)))
    assert certify_toric_equivalence(a, b, 50, seed=0)["ok"]
    assert certify_toric_equivalence(a, a, 5, seed=0)["ok"]
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart = parametrize(enumerate_charts(space)[0])
    with pytest.raises(IncomparableCharts):
        certify_toric_equivalence(a, chart, 1)


def test_sampled_verdicts_need_a_sample():
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    chart = parametrize(enumerate_charts(space)[0])
    tspec = ToricChartSpec(m, "G", ((1, 2, 1), (2, 1, 2)))
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            certify_chart_positivity(chart, tspec, n, seed=0)
        with pytest.raises(ValueError, match="at least one sample"):
            certify_minor_positivity(space, rs.w0, rs.identity, 1, n)
        with pytest.raises(ValueError, match="at least one sample"):
            certify_toric_equivalence(tspec, tspec, n)


def test_sp4_positivity_smoke():
    mc = cached_model("C", 2)
    rs = mc.rs
    space = SpaceSpec(mc, "Nv", rs.w0)
    chart = parametrize(ChartSpec(space, rs.identity, ((1, 2, 1, 2), (), (2, 1, 2, 1))))
    tspec = ToricChartSpec(mc, "G", (rs.w0.canonical, rs.w0.canonical))
    rep = certify_chart_positivity(chart, tspec, 15, seed=0)
    assert rep["ok"], rep["violations"][:2]


# Negative controls: each verdict below is False, with its witnesses, on a point no positive chart reaches.


def _identity_point(spec, c):
    """The identity as a scaled point, in place of the toric point at c."""
    n = spec.model.dim
    return [[int(i == j) for j in range(n)] for i in range(n)], 1


@pytest.mark.parametrize(
    "chart_index, kind, want",
    [
        (0, "big_cell", [{"sample": 0, "kind": "big_cell", "w": "W[s1]", "alpha": 1}]),
        (0, "nonpositive", [{"sample": 0, "kind": "nonpositive", "coordinate": k, "value": "0"} for k in (1, 2)]),
        (1, "chart_domain", [{"sample": 0, "kind": "chart_domain", "minor": 1}]),
    ],
)
def test_chart_positivity_fails_at_the_identity(monkeypatch, chart_index, kind, want):
    """At the identity of SL(2) the flag minor of s1 vanishes, the chart of w = e reads zero in its first two
    coordinates, and the identity lies outside the shifted big cell of the chart of w = s1."""
    m = cached_model("A", 1)
    rs = m.rs
    monkeypatch.setattr(positivity, "_toric_numerators", _identity_point)
    chart = parametrize(enumerate_charts(SpaceSpec(m, "Nv", rs.w0))[chart_index])
    rep = certify_chart_positivity(chart, ToricChartSpec(m, "GmodNv", (rs.w0.canonical, rs.w0.canonical)), 1, seed=0)
    assert rep["ok"] is False
    assert [v for v in rep["violations"] if v["kind"] == kind] == want
    assert rep["samples"][0]["coords"] is None if kind == "chart_domain" else rep["samples"][0]["cell_ok"] is False


def test_minor_positivity_fails_at_the_identity(monkeypatch):
    m = cached_model("A", 1)
    rs = m.rs
    monkeypatch.setattr(positivity, "_toric_numerators", _identity_point)
    rep = certify_minor_positivity(SpaceSpec(m, "Nv", rs.w0), rs.w0, rs.identity, 1, 2, seed=0)
    assert rep["ok"] is False
    assert rep["violations"] == [{"sample": 0, "value": "0"}, {"sample": 1, "value": "0"}]


def test_toric_equivalence_fails_on_a_chain_with_a_negative_parameter(monkeypatch):
    """Chart A's point with its first parameter negated has a negative third coordinate in chart B."""
    m = cached_model("A", 2)
    a = ToricChartSpec(m, "G", ((1, 2, 1), (2, 1, 2)))
    b = ToricChartSpec(m, "G", ((2, 1, 2), (1, 2, 1)))

    def negated_first(spec, c):
        l0 = spec.model.rs.l0
        letters = [-i for i in spec.words[0]] + list(spec.words[1])
        point = spec.model.scaled_chain(None, letters, [-c[0]] + list(c[1 : 2 * l0]))
        return spec.model.rational_point(spec.model.scaled_torus(point, c[2 * l0 :]))

    monkeypatch.setattr(positivity, "toric_point", negated_first)
    rep = certify_toric_equivalence(a, b, 3, seed=0)
    assert rep["ok"] is False
    assert [(v["sample"], v["coordinate"]) for v in rep["violations"]] == [(0, 3), (1, 3), (2, 3)]
    assert all(Fraction(v["value"]) < 0 for v in rep["violations"])
