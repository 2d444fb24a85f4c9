"""Numeric points on integers: scaled toric points, flag minors and Bruhat pivot patterns against Fraction oracles."""

import random
from fractions import Fraction
from math import gcd as math_gcd

import pytest

from bsatlas import leaves
from bsatlas.atlas import SpaceSpec, enumerate_charts, parametrize
from bsatlas.cli import _random_element
from bsatlas.errors import SingularInput, ZeroTorusValue
from bsatlas.groups import GroupElement, MinorSpec, cached_model
from bsatlas.leaves import pivot_permutation_upper, t_leaf_classify
from bsatlas.positivity import ToricChartSpec, certify_minor_positivity, toric_point
from bsatlas.symbolic import RatFunc, VarName, var
from oracles import (
    fraction_chain,
    fraction_pivot_permutation_upper,
    fraction_random_element,
    fraction_toric_point,
    identity,
    mul_torus,
    one_param,
    product,
    sbar,
    wbar,
)

MODELS = [("A", 1), ("A", 2), ("A", 3), ("C", 2)]


def _toric_specs(m):
    """Toric charts of every target: G on two w0-words, and the flag targets for several v."""
    rs = m.rs
    words = sorted(rs.reduced_words(rs.w0))
    specs = [ToricChartSpec(m, "G", (words[0], words[-1]))]
    for v in rs.all_elements()[:: max(1, len(rs.all_elements()) // 4)]:
        for target in ("GmodBv", "GmodNv"):
            specs.append(ToricChartSpec(m, target, (words[-1], v.canonical)))
    return specs


def _params(rng, n):
    return [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(n)]


@pytest.mark.parametrize("series, rank", MODELS, ids=["A1", "A2", "A3", "C2"])
def test_toric_point_matches_fraction_chain(series, rank):
    """The integer builder gives the Fraction point of the old chain, entry for entry, with d > 0."""
    m = cached_model(series, rank)
    rng = random.Random(rank * 7 + len(series))
    targets = set()
    for spec in _toric_specs(m):
        targets.add(spec.target)
        for c in [_params(rng, spec.n_params()) for _ in range(3)] + [[1] * spec.n_params()]:
            mat, d = toric_point(spec, c)
            assert type(d) is int and d > 0 and all(type(x) is int for row in mat for x in row)
            assert [[Fraction(x, d) for x in row] for row in mat] == fraction_toric_point(spec, c).entries
    assert targets == {"G", "GmodBv", "GmodNv"}


@pytest.mark.parametrize("series, rank", MODELS, ids=["A1", "A2", "A3", "C2"])
def test_flag_minors_on_numerators_match_fraction_point(series, rank):
    """Every flag minor read on the numerators is d^k times the minor of the Fraction point,
    so each big-cell verdict is the same; certify_minor_positivity reports the true values."""
    m = cached_model(series, rank)
    rs = m.rs
    rng = random.Random(100 + rank)
    spec = ToricChartSpec(m, "G", (rs.w0.canonical, rs.w0.canonical))
    for _ in range(3):
        c = _params(rng, spec.n_params())
        mat, d = toric_point(spec, c)
        point = fraction_toric_point(spec, c).entries
        for w in rs.all_elements():
            for alpha in range(1, rank + 1):
                ms = MinorSpec(w, rs.identity, alpha)
                exact = m.generalized_minor(point, ms)
                assert m.generalized_minor(mat, ms) == exact * d**alpha
                assert (m.generalized_minor(mat, ms) > 0) == (exact > 0)
    space = SpaceSpec(m, "Nv", rs.w0)
    rep = certify_minor_positivity(space, rs.w0, rs.identity, rank, 3, seed=5)
    tspec = ToricChartSpec(m, "GmodNv", (rs.w0.canonical, rs.w0.canonical))
    rng = random.Random(5)
    want = [str(m.generalized_minor(fraction_toric_point(tspec, _params(rng, tspec.n_params())).entries, MinorSpec(rs.w0, rs.identity, rank))) for _ in range(3)]
    assert rep["values"] == want


def test_toric_point_refuses_floats_before_any_chain_work(monkeypatch):
    m = cached_model("A", 1)
    spec = ToricChartSpec(m, "G", ((1,), (1,)))

    def no_chain(*args):
        raise AssertionError("chain built")

    monkeypatch.setattr(m, "word_point", no_chain)
    for c in ([0.5, 1, 1], [1, 1, 1e-3], (x for x in [Fraction(1), 2.0, 1])):
        with pytest.raises(TypeError, match="not binary floats"):
            toric_point(spec, c)


@pytest.mark.parametrize("series, rank", [("A", 2), ("A", 3), ("A", 4), ("C", 2)], ids=["A2", "A3", "A4", "C2"])
def test_random_element_matches_fraction_oracle(series, rank):
    """``cli._random_element`` draws the same numbers in the same order and builds the same point, as a scaled point."""
    m = cached_model(series, rank)
    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            mat, d = _random_element(m, rng)
            assert [[Fraction(x, d) for x in row] for row in mat] == fraction_random_element(m, ref).entries
        assert rng.getstate() == ref.getstate()


def _leaf_points(m, rng):
    """Scaled points, most of them not generic: every wbar and chains with zero parameters and sbar factors, as
    Fraction matrices over 1, and toric points on ints."""
    rs = m.rs
    points = [(wbar(m, w.canonical).entries, 1) for w in rs.all_elements()]
    for _ in range(25):
        g = identity(m)
        for _ in range(rng.randint(1, 2 * rs.l0)):
            i = rng.randint(1, rs.rank)
            g = product(g, one_param(m, i if rng.random() < 0.5 else -i, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
            if rng.random() < 0.3:
                g = product(g, sbar(m, i))
        points.append((g.entries, 1))
    spec = ToricChartSpec(m, "G", (rs.w0.canonical, rs.w0.canonical))
    points += [toric_point(spec, _params(rng, spec.n_params())) for _ in range(5)]
    return points


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("A", 3), ("C", 2)], ids=["A1", "A2", "A3", "C2"])
def test_leaf_patterns_match_fraction_elimination(series, rank):
    """Both pivot patterns that t_leaf_classify reads equal the Fraction-division oracle, for every v."""
    m = cached_model(series, rank)
    rng = random.Random(31 + rank)
    points = _leaf_points(m, rng)
    assert any(x == 0 for g, _ in points for row in g for x in row)
    for g, d in points:
        assert pivot_permutation_upper(m.to_internal(g)) == fraction_pivot_permutation_upper(m.to_internal(g))
        for v in m.rs.all_elements():
            gv = m.to_internal(m.signed_perm(v.canonical).right(g))[::-1]
            assert pivot_permutation_upper(gv) == fraction_pivot_permutation_upper(gv)
            t_leaf_classify(SpaceSpec(m, "Nv", v), (g, d))


def test_leaf_patterns_on_ratfunc_matrices():
    """RatFunc matrices keep the cross-multiplied elimination, with no content step."""
    m = cached_model("A", 2)
    rs = m.rs
    sp = SpaceSpec(m, "Nv", rs.w0)
    for spec in enumerate_charts(sp)[:6]:
        g = parametrize(spec).param.entries
        assert pivot_permutation_upper(m.to_internal(g)) == fraction_pivot_permutation_upper(m.to_internal(g))
        lbl = t_leaf_classify(sp, (g, 1))
        at = {VarName("z", i): Fraction(i + 1, i + 3) for i in range(1, 9)}
        assert lbl == t_leaf_classify(sp, ([[x.substitute(at) for x in row] for row in g], 1))
    u = [var("u", i) for i in range(1, 5)]
    h = mul_torus(m, fraction_chain(m, [1, -2, 2], u[:3]), [u[3], RatFunc.coerce(2)]).entries
    assert pivot_permutation_upper(h) == fraction_pivot_permutation_upper(h)


def test_singular_matrices_are_still_refused():
    m = cached_model("A", 2)
    sp = SpaceSpec(m, "Nv", m.rs.w0)
    half = Fraction(1, 2)
    for mat in (
        [[Fraction(0)] * 3 for _ in range(3)],
        [[1, 2, 3], [half, 1, Fraction(3, 2)], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 5]],
        [[var("a"), var("b"), 0], [2 * var("a"), 2 * var("b"), 0], [0, 0, 1]],
    ):
        with pytest.raises(SingularInput):
            t_leaf_classify(sp, (mat, 1))


# Entry bit length over the eliminations of 5x5 random elements.  On these
# seeds the scaled points have entries of at most 54 bits and the rows reach
# at most 56 with every row divided by its content; with only the eliminated
# rows divided they reach 98 bits, and with no division 536.
MAX_PIVOT_BITS = 96


def test_pivot_entries_stay_bounded(monkeypatch):
    """Every row the SL(5) eliminations build stays under MAX_PIVOT_BITS bits, before its content is divided out."""
    m = cached_model("A", 4)
    widest = [0]

    def gcd(*row):
        widest[0] = max(widest[0], *(abs(x).bit_length() for x in row))
        return math_gcd(*row)

    monkeypatch.setattr(leaves, "gcd", gcd)
    rng = random.Random(2024)
    sp = SpaceSpec(m, "Nv", m.rs.w0)
    for _ in range(40):
        t_leaf_classify(sp, _random_element(m, rng))
    assert 0 < widest[0] <= MAX_PIVOT_BITS


def test_toric_point_builder_over_ring_elements():
    """Symbolic parameters pass through the same builder: the chain stays over d = 1 and the torus
    puts a monomial denominator on it."""
    m = cached_model("C", 2)
    rs = m.rs
    letters = [-i for i in rs.w0.canonical] + list(rs.w0.canonical)
    u = [var("u", i) for i in range(1, len(letters) + 3)]
    assert m.word_point(letters, u[: len(letters)])[1] == 1
    mat, d = m.word_point(letters, u[: len(letters)], u[len(letters) :])
    assert len(d.num.terms) == 1 and d.den == 1
    want = mul_torus(m, fraction_chain(m, letters, u[: len(letters)]), u[len(letters) :]).entries
    assert all((x / d - y).is_zero() for row, wrow in zip(mat, want) for x, y in zip(row, wrow))
    assert GroupElement(m, [[x / d for x in row] for row in mat]).satisfies_group_constraint()


def test_scaled_torus_refuses_zero_or_missing_values():
    m = cached_model("A", 2)
    for values in ([0, 1], [Fraction(1, 3)], [1, 2, 3], [RatFunc.zero(), 1]):
        with pytest.raises(ZeroTorusValue):
            m.word_point([1, -2], [Fraction(1, 2), 3], values)
