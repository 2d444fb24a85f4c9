"""Torus-leaf classification against rank-pattern oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from bsatlas.atlas import SpaceSpec
from bsatlas.errors import SingularInput
from bsatlas.groups import cached_model
from bsatlas.leaves import _element_from_pattern, _pattern_of, t_leaf_classify
from bsatlas.positivity import ToricChartSpec, toric_point
from oracles import identity, one_param, product, sbar, wbar


def _rank(mat):
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _pattern(el, model):
    n = model.dim
    rep = model.to_internal(wbar(model, el.canonical).entries)
    out = [0] * (n + 1)
    for j in range(n):
        i = next(i for i in range(n) if rep[i][j] != 0)
        out[j + 1] = i + 1
    return out


def _in_upper_cell(mat, sigma):
    """Rank-pattern oracle for B sigma B with B upper triangular."""
    n = len(mat)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = sum(1 for m in range(1, j + 1) if sigma[m] >= i)
            got = _rank([row[:j] for row in mat[i - 1 :]])
            if got != want:
                return False
    return True


def _in_mixed_cell(mat, sigma):
    """Rank-pattern oracle for B^- sigma B."""
    n = len(mat)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = sum(1 for m in range(1, j + 1) if sigma[m] <= i)
            got = _rank([row[:j] for row in mat[: i]])
            if got != want:
                return False
    return True


def _random_point(model, rng):
    rs = model.rs
    g = identity(model)
    for _ in range(rng.randint(1, 2 * rs.l0)):
        i = rng.randint(1, rs.rank)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        g = product(g, one_param(model, i if rng.random() < 0.5 else -i, c))
        if rng.random() < 0.3:
            g = product(g, sbar(model, i))
    return g.entries


def test_examples():
    m = cached_model("A", 2)
    rs = m.rs
    # v = e: the identity sits in (e, e)
    sp_e = SpaceSpec(m, "Nv", rs.identity)
    lbl = t_leaf_classify(sp_e, identity(m))
    assert lbl.w.is_identity() and lbl.y.is_identity()
    # v = w0, totally positive point: (w0, e), the open double Bruhat cell
    sp = SpaceSpec(m, "Nv", rs.w0)
    tp = toric_point(ToricChartSpec(m, "G", (rs.w0.canonical, rs.w0.canonical)), [1] * 8)
    lbl = t_leaf_classify(sp, tp)
    assert lbl.w == rs.w0 and lbl.y.is_identity()
    # a representative matrix itself: w recovers the element, and for v = e
    # the mixed cell of wbar is labelled by w as well
    for w in rs.all_elements():
        lbl = t_leaf_classify(sp_e, wbar(m, w.canonical))
        assert lbl.w == w and lbl.y == w


def test_singular_input():
    m = cached_model("A", 2)
    sp = SpaceSpec(m, "Nv", m.rs.w0)
    with pytest.raises(SingularInput):
        t_leaf_classify(sp, [[Fraction(0)] * 3 for _ in range(3)])


def test_admissibility_and_oracle_agreement():
    m = cached_model("A", 2)
    rs = m.rs
    sp = SpaceSpec(m, "Nv", rs.w0)
    rng = random.Random(11)
    from bsatlas.linalg import mat_mul

    vbar = wbar(m, rs.w0.canonical).entries
    for _ in range(60):
        mat = _random_point(m, rng)
        lbl = t_leaf_classify(sp, mat)
        assert rs.bruhat_leq(lbl.y, rs.star_product(lbl.w, rs.w0))
        assert _in_upper_cell(m.to_internal(mat), _pattern(lbl.w, m))
        assert _in_mixed_cell(m.to_internal(mat_mul(mat, vbar)), _pattern(lbl.y, m))


def test_double_bruhat_identification_v_w0():
    """For v = w0 the label (w, y) matches the double Bruhat cell (w, y w0)."""
    m = cached_model("A", 2)
    rs = m.rs
    sp = SpaceSpec(m, "Nv", rs.w0)
    rng = random.Random(23)
    for _ in range(40):
        mat = _random_point(m, rng)
        lbl = t_leaf_classify(sp, mat)
        u = rs.multiply(lbl.y, rs.w0)
        # membership in B^- u B^- via rank patterns rank(g[:i, j:])
        sigma = _pattern(u, m)
        n = 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = sum(1 for t in range(j, n + 1) if sigma[t] <= i)
                got = _rank([row[j - 1 :] for row in mat[:i]])
                assert got == want


def test_sp4_patterns():
    mc = cached_model("C", 2)
    rs = mc.rs
    sp = SpaceSpec(mc, "Nv", rs.w0)
    for w in rs.all_elements():
        lbl = t_leaf_classify(sp, wbar(mc, w.canonical))
        assert lbl.w == w
    rng = random.Random(5)
    for _ in range(20):
        g = identity(mc)
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(1, 2)
            g = product(g, one_param(mc, i if rng.random() < 0.5 else -i, Fraction(rng.randint(1, 5), rng.randint(1, 5))))
        lbl = t_leaf_classify(sp, g)
        assert rs.bruhat_leq(lbl.y, rs.star_product(lbl.w, rs.w0))


def test_label_constant_along_flow():
    """The label does not move along a Hamiltonian flow.

    The flow is exact, so the chart's representative at x(t) is a RatFunc
    matrix in a formal t and E = e^{t/D}, D the lcm of the rates'
    denominators; t and E are algebraically independent, so its label is the
    label at all but isolated t.  The start must be generic (all
    classifying minors nonzero).
    """
    from math import lcm

    from bsatlas.atlas import enumerate_charts, parametrize
    from bsatlas.cgl import hamiltonian_flow
    from bsatlas.poisson import chart_bracket
    from bsatlas.symbolic import RatFunc, VarName, var

    m = cached_model("A", 2)
    rs = m.rs
    sp = SpaceSpec(m, "Nv", rs.w0)
    chart = parametrize(enumerate_charts(sp)[3])
    table = chart_bracket(chart)
    start = {i: Fraction(i + 1, i + 3) for i in range(1, 9)}

    def classify_at(point):
        at = {VarName("z", i): point[i] for i in point}
        return t_leaf_classify(sp, [[x.substitute(at) for x in row] for row in chart.param.entries])

    lbl0 = classify_at(start)
    assert lbl0.w == rs.w0 and lbl0.y.is_identity()
    t, big_e = var("t"), var("E")
    for j in (1, 4):
        x = hamiltonian_flow(table, j, start)
        d = lcm(*(lam.denominator for e in x for _, lam in e))
        formal = {
            i + 1: sum((c * t**p * big_e ** int(lam * d) for (p, lam), c in e.items()), RatFunc.zero())
            for i, e in enumerate(x)
        }
        assert any(not f.num.is_constant() for f in formal.values())
        assert classify_at(formal) == lbl0


@pytest.mark.parametrize("series,rank", (("A", 1), ("A", 2), ("A", 3), ("C", 2)))
def test_element_from_pattern_inverts_pattern_of(series, rank):
    m = cached_model(series, rank)
    for w in m.rs.all_elements():
        pattern = _pattern_of(m, w)
        assert pattern == tuple(_pattern(w, m)[1:])
        assert _element_from_pattern(m, pattern) == w


def test_non_weyl_pattern_is_refused():
    m = cached_model("C", 2)
    weyl = {_pattern_of(m, w) for w in m.rs.all_elements()}
    others = [p for p in itertools.permutations(range(1, 5)) if p not in weyl]
    assert len(weyl) == 8 and len(others) == 16
    for p in others:
        with pytest.raises(AssertionError):
            _element_from_pattern(m, p)
