"""Toric charts, exact sampling, positivity certification."""

import hashlib
import json
import random
import re
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
from bsatlas.leaves import t_leaf_classify
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
    lbl = t_leaf_classify(sp, (g.entries, 1))
    assert lbl.w == rs.w0  # N^- cap B w0 B


def test_toric_point_g():
    m = cached_model("A", 1)
    spec = ToricChartSpec(m, "G", ((1,), (1,)))
    assert toric_point(spec, [1, 1, 1]) == ([[1, 1], [1, 2]], 1)
    # x_{-1}(1/2) x_1(1) diag(3, 1/3) = [[3, 1/3], [3/2, 1/2]], over d = 2 * 3 with no gcd taken
    assert toric_point(spec, [Fraction(1, 2), 1, 3]) == ([[18, 2], [9, 3]], 6)
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
    assert p == (q.entries, 1)


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
        assert extract_negative_chain(m, (g.entries, 1), word) == cs
        h = x_chain(m, word, +1, cs)
        assert extract_positive_chain(m, (h.entries, 1), word) == cs
        # the same chains scaled by d: (d g, d) is the point g
        d = rng.randint(2, 9)
        assert extract_negative_chain(m, ([[d * x for x in row] for row in g.entries], d), word) == cs
        assert extract_positive_chain(m, ([[d * x for x in row] for row in h.entries], d), word) == cs


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
    monkeypatch.setattr(positivity, "toric_point", _identity_point)
    chart = parametrize(enumerate_charts(SpaceSpec(m, "Nv", rs.w0))[chart_index])
    rep = certify_chart_positivity(chart, ToricChartSpec(m, "GmodNv", (rs.w0.canonical, rs.w0.canonical)), 1, seed=0)
    assert rep["ok"] is False
    assert [v for v in rep["violations"] if v["kind"] == kind] == want
    assert rep["samples"][0]["coords"] is None if kind == "chart_domain" else rep["samples"][0]["cell_ok"] is False


def test_minor_positivity_fails_at_the_identity(monkeypatch):
    m = cached_model("A", 1)
    rs = m.rs
    monkeypatch.setattr(positivity, "toric_point", _identity_point)
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
        return spec.model.word_point(letters, [-c[0]] + list(c[1 : 2 * l0]), c[2 * l0 :])

    monkeypatch.setattr(positivity, "toric_point", negated_first)
    rep = certify_toric_equivalence(a, b, 3, seed=0)
    assert rep["ok"] is False
    assert [(v["sample"], v["coordinate"]) for v in rep["violations"]] == [(0, 3), (1, 3), (2, 3)]
    assert all(Fraction(v["value"]) < 0 for v in rep["violations"])


# (charts, SHA-256) of the full ``certify_chart_positivity`` report of every chart at 3 samples (seed = chart index),
# and on the G targets of rank 2 the torus-leaf labels at 10 seeded toric points, recorded before the scaled-point
# builder and the int verdicts replaced the Fraction ones
_POSITIVITY_DIGESTS = {
    ("A", 1, "Nv", "G"): (2, "969b09ab63012987ba4382e7192f3ff7475c8521c43fe87c9f0ff7c2b6da0a30"),
    ("A", 2, "Nv", "G"): (16, "b166ae2e86dd4cf9ad38cc0c5f2c13d2506e919ecfc144707a8fcac760400de0"),
    ("A", 2, "Bv", "GmodBv"): (8, "0c9649a92fe74331f5fabd4ec48cd5f51b1249a8e0d77b3fe41956946776f1c9"),
    ("C", 2, "Nv", "G"): (20, "63b3f193f499e99f7a915cb9912843d2cdd251af1b0b4d79aceca15059f47c6a"),
}


@pytest.mark.parametrize("series, rank, qkind, target", list(_POSITIVITY_DIGESTS))
def test_positivity_reports_and_leaf_labels_are_pinned(series, rank, qkind, target):
    m = cached_model(series, rank)
    rs = m.rs
    space = SpaceSpec(m, qkind, rs.w0 if qkind == "Nv" else rs.identity)
    tspec = ToricChartSpec(m, target, (rs.w0.canonical, rs.w0.canonical if target == "G" else ()))
    specs = enumerate_charts(space)
    texts = [json.dumps(certify_chart_positivity(parametrize(s), tspec, 3, seed), sort_keys=True) for seed, s in enumerate(specs)]
    if target == "G" and rank == 2:
        rng = random.Random(11)
        for _ in range(10):
            c = [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(tspec.n_params())]
            label = t_leaf_classify(space, toric_point(tspec, c))
            texts.append(f"{label.w.canonical}|{label.y.canonical}")
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (len(specs), digest) == _POSITIVITY_DIGESTS[(series, rank, qkind, target)]


def test_chart_positivity_refuses_a_toric_chart_of_another_group(monkeypatch):
    """A toric spec must act on the chart's own model.  Read in an SL(4)/B(e) chart, an Sp(4) point would give
    false big-cell violations; read in an SL(3)/N(w0) chart, an SL(2) point has too few rows.  Both are refused
    before a sample is drawn."""
    monkeypatch.setattr(positivity, "_sample_positive", lambda rng, n: pytest.fail("a sample was drawn"))
    cases = [(("A", 3, "Bv"), ("C", 2)), (("A", 2, "Nv"), ("A", 1))]
    for (series, rank, qkind), (toric_series, toric_rank) in cases:
        m, tm = cached_model(series, rank), cached_model(toric_series, toric_rank)
        chart = parametrize(enumerate_charts(SpaceSpec(m, qkind, m.rs.w0 if qkind == "Nv" else m.rs.identity))[0])
        tspec = ToricChartSpec(tm, "G", (tm.rs.w0.canonical, tm.rs.w0.canonical))
        with pytest.raises(ValueError, match=re.escape(f"toric chart of {tm.name} does not act on a chart of {m.name}")):
            certify_chart_positivity(chart, tspec, 3, seed=0)
