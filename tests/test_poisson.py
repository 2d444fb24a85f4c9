"""Bracket engine: entry brackets, chart brackets, Jacobi."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsatlas.atlas import (
    ChartSpec,
    SpaceSpec,
    coordinate_jets,
    enumerate_charts,
    eval_coordinates,
    parametrize,
)
from bsatlas import symbolic
from bsatlas.errors import NonPolynomialBracket
from bsatlas.groups import cached_model
from bsatlas.laurent import to_laurent
from bsatlas.linalg import laurent_matrix, minor_tangents
from bsatlas.poisson import (
    BracketTable,
    LambdaData,
    _require_polynomial,
    build_lambda,
    chart_bracket,
    jacobi_check,
)
from bsatlas.symbolic import MultiPoly, RatFunc, VarName, var
from oracles import differentiate, entry_bracket, entry_var, fraction_chain, generic_element, product, torus_element


def av(i, j):
    return RatFunc.from_poly(MultiPoly.variable(entry_var(i, j)))


def test_lambda_terms():
    assert [t[3] for t in build_lambda(cached_model("A", 1)).terms] == [1]
    assert [t[3] for t in build_lambda(cached_model("A", 2)).terms] == [1, 1, 1]
    coeffs = sorted(t[3] for t in build_lambda(cached_model("C", 2)).terms)
    assert coeffs == [1, 1, 2, 2]


def test_entry_bracket_sl2():
    m = cached_model("A", 1)
    lam = build_lambda(m)
    assert entry_bracket(m, av(1, 1), av(1, 2), lam) == av(1, 1) * av(1, 2)
    assert entry_bracket(m, av(1, 1), av(2, 2), lam) == 2 * av(1, 2) * av(2, 1)
    f = av(1, 1) * av(2, 2) + av(1, 2)
    assert entry_bracket(m, f, f, lam).is_zero()


def test_entry_bracket_antisymmetry_leibniz_random():
    m = cached_model("A", 1)
    lam = build_lambda(m)
    rng = random.Random(7)
    vars_ = [av(i, j) for i in (1, 2) for j in (1, 2)]

    def rand_poly():
        out = RatFunc.constant(rng.randint(-3, 3))
        for v in vars_:
            if rng.random() < 0.6:
                out = out + rng.randint(-2, 2) * v * rng.choice(vars_)
        return out

    for _ in range(4):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (entry_bracket(m, f, g, lam) + entry_bracket(m, g, f, lam)).is_zero()
        lhs = entry_bracket(m, f, g * h, lam)
        rhs = entry_bracket(m, f, g, lam) * h + g * entry_bracket(m, f, h, lam)
        assert (lhs - rhs).is_zero()


def test_det_is_casimir():
    m = cached_model("A", 1)
    lam = build_lambda(m)
    det = av(1, 1) * av(2, 2) - av(1, 2) * av(2, 1)
    for f in (av(1, 1), av(2, 1), av(1, 2) * av(2, 2)):
        assert entry_bracket(m, det, f, lam).is_zero()


def _assert_matches_entry_lift(m, space, indices=None):
    """Lift coordinates to entry functions, bracket them with ``entry_bracket``, substitute."""
    lam = build_lambda(m)
    specs = enumerate_charts(space)
    point = generic_element(m)
    n = m.dim
    for k in range(len(specs)) if indices is None else indices:
        chart = parametrize(specs[k])
        table = chart_bracket(chart, lam)
        lifted = eval_coordinates(chart, point.entries)
        binding = {
            entry_var(i + 1, j + 1): chart.param.entries[i][j] for i in range(n) for j in range(n)
        }
        for (i, j), got in table.entries.items():
            expect = entry_bracket(m, lifted[i - 1], lifted[j - 1], lam).substitute(binding)
            assert (got - expect).is_zero(), (specs[k].label(), i, j)


def test_chart_bracket_matches_entry_lift_sl2():
    m = cached_model("A", 1)
    _assert_matches_entry_lift(m, SpaceSpec(m, "Nv", m.rs.w0))


@pytest.mark.parametrize(
    "series, rank, indices", [("A", 2, None), ("C", 2, (0, 3))], ids=["A2-Be-all", "C2-Be-0-3"]
)
def test_chart_bracket_matches_entry_lift(series, rank, indices):
    """Independent of the tangent lift; the Sp(4) charts exercise the internal basis order."""
    m = cached_model(series, rank)
    _assert_matches_entry_lift(m, SpaceSpec(m, "Bv", m.rs.identity), indices)


def test_chart_bracket_sl2_values():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart_e, chart_s = (parametrize(s) for s in enumerate_charts(space))
    z1, z2, z3 = (var("z", i) for i in (1, 2, 3))
    te = chart_bracket(chart_e)
    assert te.entries[(1, 2)] == -2 * z1 * z2
    assert te.entries[(1, 3)] == -z1 * z3
    assert te.entries[(2, 3)] == -z2 * z3
    ts = chart_bracket(chart_s)
    assert ts.entries[(1, 2)] == 2 * z1 * z2 - 2


def test_chart_bracket_representative_independence():
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Bv", rs.identity)
    spec = enumerate_charts(space)[1]
    chart = parametrize(spec)
    table = chart_bracket(chart)
    q = product(fraction_chain(m, (1, 2), (var("u", 1), var("u", 2))), torus_element(m, [var("u", 3), var("u", 4)]))
    moved = product(chart.param, q)
    shifted_chart = type(chart)(chart.spec, chart.dims, chart.zvars, chart.coord_formulas)
    shifted_chart._frame, shifted_chart._rep = laurent_matrix(moved.entries)
    table2 = chart_bracket(shifted_chart)
    for key in table.entries:
        assert (table.entries[key] - table2.entries[key]).is_zero(), key


def test_laurent_block_nv():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart = parametrize(enumerate_charts(space)[0])
    table = chart_bracket(chart)
    assert table.laurent_vars == (3,)


def test_require_polynomial_guard():
    z1, z2 = var("z", 1), var("z", 2)
    with pytest.raises(NonPolynomialBracket):
        _require_polynomial(z1 / (z1 + z2), (), (1, 2))
    with pytest.raises(NonPolynomialBracket):
        _require_polynomial(z1 / z2, (), (1, 2))
    _require_polynomial(z1 / z2, (2,), (1, 2))


def test_jacobi_sl2_and_toy_failure():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    for spec in enumerate_charts(space):
        assert jacobi_check(chart_bracket(parametrize(spec)))["ok"]
    z1, z3 = var("z", 1), var("z", 3)
    # nine variables: large tables get the same exact check and witness
    for n in (3, 9):
        entries = {p: RatFunc.zero() for p in combinations(range(1, n + 1), 2)}
        entries[(1, 2)] = z3
        entries[(1, 3)] = z1 * z3
        rep = jacobi_check(BracketTable(n, (), entries))
        assert not rep["ok"] and rep["mode"] == "symbolic"
        assert rep["failures"][0]["triple"] == (1, 2, 3)
        assert rep["failures"][0]["value"] != "0"


def test_jacobi_exact_mode_sp4():
    mc = cached_model("C", 2)
    space = SpaceSpec(mc, "Nv", mc.rs.w0)
    chart = parametrize(ChartSpec(space, mc.rs.identity, ((1, 2, 1, 2), (), (2, 1, 2, 1))))
    rep = jacobi_check(chart_bracket(chart))
    assert rep["ok"] and rep["mode"] == "symbolic"


def _jacobi_per_triple(table):
    """Reference Jacobi check: the Leibniz rule, differentiating each entry once per triple."""

    def bracket_with(i, f):
        out = RatFunc.zero()
        for m in range(1, table.n_vars + 1):
            part = differentiate(f, VarName("z", m))
            if not part.is_zero():
                out = out + part * table.get(i, m)
        return out

    failures = []
    for i, j, k in combinations(range(1, table.n_vars + 1), 3):
        s = bracket_with(i, table.get(j, k)) + bracket_with(j, table.get(k, i)) + bracket_with(k, table.get(i, j))
        if not s.is_zero():
            failures.append({"triple": (i, j, k), "value": s.text()})
    return {"ok": not failures, "mode": "symbolic", "failures": failures}


def _nw0_charts(series, rank, count=None, seed=0):
    m = cached_model(series, rank)
    charts = enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))
    if count is not None:
        charts = random.Random(seed).sample(charts, count)
    return charts


@pytest.mark.parametrize(
    "series, rank, count",
    [("A", 2, None), ("C", 2, 4), ("A", 3, 2)],
    ids=["A2-all", "C2-seeded", "A3-seeded"],
)
def test_jacobi_check_matches_per_triple_reference(series, rank, count):
    """Same report as the per-triple Leibniz rule, also on a table with one entry corrupted by +1."""
    rng = random.Random(rank)
    for spec in _nw0_charts(series, rank, count, seed=rank):
        table = chart_bracket(parametrize(spec))
        rep = jacobi_check(table)
        assert rep["ok"] and rep == _jacobi_per_triple(table)
        pair = rng.choice(table.pairs())
        entries = dict(table.entries)
        entries[pair] = entries[pair] + 1
        bad = BracketTable(table.n_vars, table.laurent_vars, entries)
        rep = jacobi_check(bad)
        assert not rep["ok"] and rep == _jacobi_per_triple(bad)


def _split(table, i, j):
    """(c_ij, F_ij): the coefficient of z_i*z_j in {z_i, z_j} and the rest of the entry, a RatFunc."""
    f, zz = table.entries[(i, j)], var("z", i) * var("z", j)
    g = f / zz
    ((m, _),) = g.den.terms.items()
    den = {v: x for v, x in zip(g.den.vars, m) if x}
    c = next((k for e, k in g.num.terms.items() if {v: x for v, x in zip(g.num.vars, e) if x} == den), 0)
    return c, f - c * zz


def _z_vars(f, n):
    """The indices m <= n of the z_m that occur in the RatFunc f."""
    return [v.index for v in f.variables() if v.symbol == "z" and v.index <= n]


def test_jacobi_check_differentiates_each_remainder_once_per_variable(monkeypatch):
    """With {z_i, z_j} = c_ij*z_i*z_j + F_ij, only the remainders F_ij are differentiated, each once
    per variable of it."""
    import bsatlas.poisson as poisson

    table = chart_bracket(parametrize(_nw0_charts("A", 3, 1, seed=5)[0]))
    calls = []
    derivative = poisson.laurent_derivative

    def counting(a, slot):
        calls.append(slot)
        return derivative(a, slot)

    monkeypatch.setattr(poisson, "laurent_derivative", counting)
    assert jacobi_check(table)["ok"]
    remainders = [_split(table, *pair)[1] for pair in table.pairs()]
    assert 0 < len(calls) == sum(len(_z_vars(f, table.n_vars)) for f in remainders)
    assert len(calls) < sum(len(f.variables()) for f in table.entries.values())


def _log_canonical(table, i, j):
    """{z_i, z_j} is 0 or exactly c*z_i*z_j."""
    f = table.entries[(i, j)]
    return f.is_zero() or (
        f.den.is_one()
        and f.num.vars == (VarName("z", i), VarName("z", j))
        and list(f.num.terms) == [(1, 1)]
    )


def test_jacobi_check_multiplies_no_two_log_canonical_parts(monkeypatch):
    """Triples whose three entries are all log-canonical make no product.  On every other triple each
    product has a remainder F_ij or a derivative of one as a factor, so no two log-canonical parts
    c_ij*z_i*z_j meet: per cyclic term (r; a, b), one product c_ab*z_b*F_ra per nonzero F_ra (and
    c_ab*z_a*F_rb alike) where c_ab is nonzero, and one d_m F_ab * {z_r, z_m} per variable z_m of F_ab
    with {z_r, z_m} nonzero."""
    import bsatlas.poisson as poisson

    table = chart_bracket(parametrize(_nw0_charts("A", 3, 1, seed=5)[0]))
    n = table.n_vars
    frame, _ = table.laurent_entries()
    split = {}
    for i, j in table.pairs():
        c, f = _split(table, i, j)
        split[(i, j)], split[(j, i)] = (c, f), (-c, -f)
    remainders = []
    for i, j in table.pairs():
        f = split[(i, j)][1]
        if not f.is_zero():
            remainders.append(to_laurent(f, frame))
            remainders += [to_laurent(differentiate(f, VarName("z", m)), frame) for m in _z_vars(f, n)]
    expected = skipped = 0
    for i, j, k in combinations(range(1, n + 1), 3):
        if _log_canonical(table, i, j) and _log_canonical(table, i, k) and _log_canonical(table, j, k):
            skipped += 1
            continue
        for r, a, b in ((i, j, k), (j, i, k), (k, i, j)):
            if split[(a, b)][0]:
                expected += sum(not split[(r, x)][1].is_zero() for x in (a, b))
            expected += sum(m != r and not table.get(r, m).is_zero() for m in _z_vars(split[(a, b)][1], n))
    calls = []
    fma = poisson.laurent_fma

    def counting(acc, s, a, b):
        calls.append((a, b))
        return fma(acc, s, a, b)

    monkeypatch.setattr(poisson, "laurent_fma", counting)
    assert jacobi_check(table)["ok"]
    assert 0 < skipped < 455 and len(calls) == expected
    assert all(a in remainders or b in remainders for a, b in calls)


_c = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), -3])


@st.composite
def _skew_tables(draw):
    """A BracketTable on n = 3 .. 7 of entries c_ij*z_i*z_j + F_ij with random c_ij and sparse F_ij.

    F_ij has up to three terms; a variable of the last one or two z's (the torus block) may carry a
    negative exponent, and a term may hold z_{n+1}, z_{n+2} or y_1, which are no chart variables."""
    n = draw(st.integers(3, 7))
    torus = range(n - draw(st.integers(0, 2)) + 1, n + 1)
    names = [("z", m) for m in range(1, n + 3)] + [("y", 1)]
    entries = {}
    for i, j in combinations(range(1, n + 1), 2):
        f = draw(_c) * var("z", i) * var("z", j)
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
            term = RatFunc.coerce(draw(_c.filter(bool)))
            for symbol, m in draw(st.lists(st.sampled_from(names), max_size=3)):
                low = -2 if symbol == "z" and m in torus else 1
                term = term * var(symbol, m) ** draw(st.sampled_from([e for e in (-2, -1, 1, 2) if e >= low]))
            f = f + term
        entries[(i, j)] = f
    return BracketTable(n, tuple(torus), entries)


@settings(max_examples=60, deadline=None)
@given(_skew_tables())
def test_jacobi_check_matches_per_triple_reference_on_random_skew_tables(table):
    """Dropping the products of two log-canonical parts leaves every report unchanged, also on tables
    that no chart makes: the c.c parts cancel for any skew c, whatever the remainders are."""
    assert jacobi_check(table) == _jacobi_per_triple(table)


def test_jacobi_check_corrupted_log_canonical_entry_fails_like_per_triple():
    """Adding 1 or a foreign z_m to a log-canonical entry of a real table breaks Jacobi with the
    same report as the per-triple Leibniz rule, although the entry's triples were skippable."""
    table = chart_bracket(parametrize(_nw0_charts("A", 3, 1, seed=5)[0]))
    nonzero = [p for p in table.pairs() if _log_canonical(table, *p) and not table.entries[p].is_zero()]
    zero = [p for p in table.pairs() if table.entries[p].is_zero()]
    assert nonzero and zero
    (i, j), pair0 = nonzero[0], zero[0]
    m = next(m for m in range(1, table.n_vars + 1) if m not in (i, j))
    for pair, extra in (((i, j), RatFunc.one()), ((i, j), var("z", m)), (pair0, RatFunc.one())):
        entries = dict(table.entries)
        entries[pair] = entries[pair] + extra
        bad = BracketTable(table.n_vars, table.laurent_vars, entries)
        rep = jacobi_check(bad)
        assert not rep["ok"] and rep == _jacobi_per_triple(bad), (pair, extra)


def test_chart_bracket_multiplies_only_nonzero_tangents(monkeypatch):
    """Pair assembly makes one product per ordered pair (x, y), x != y, of nonzero tangents
    a_x, b_y of one term and side, far below 4|Delta+| products for each of the 105 pairs."""
    import bsatlas.poisson as poisson

    chart = parametrize(_nw0_charts("A", 3, 1, seed=5)[0])
    jets, calls = [], []
    coordinate_jets_, fma = poisson.coordinate_jets, poisson.laurent_fma

    def recording(*args):
        jets.append(coordinate_jets_(*args))
        return jets[-1]

    def counting(acc, s, a, b):
        assert a and b
        calls.append(s)
        return fma(acc, s, a, b)

    monkeypatch.setattr(poisson, "coordinate_jets", recording)
    monkeypatch.setattr(poisson, "laurent_fma", counting)
    chart_bracket(chart)
    ((_, tangents),) = jets
    supports = [{x for x, t in enumerate(col) if t} for col in zip(*tangents)]
    expected = 0
    for k in range(0, len(supports), 2):
        a, b = supports[k], supports[k + 1]
        expected += len(a) * len(b) - len(a & b)
    assert len(calls) == expected < 2520 == 4 * 6 * 105


def _gcd_calls(fn, *args):
    """The number of calls of symbolic.poly_gcd, recursive ones included, while fn(*args) runs."""
    code, calls = symbolic.poly_gcd.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return len(calls)


def test_chart_bracket_takes_no_gcd_per_field():
    """chart_bracket takes no gcd at all: the factors, the round trip and the tangents along the
    4|Delta+| fields all come from one Laurent elimination whose pivots are monomials, for the
    full bivector and for one term of it."""
    for series, rank, spec in (
        ("A", 2, _nw0_charts("A", 2)[5]),
        ("C", 2, _nw0_charts("C", 2)[7]),
        ("A", 3, _nw0_charts("A", 3, 1, seed=5)[0]),
    ):
        m = cached_model(series, rank)
        chart = parametrize(spec)
        lam = build_lambda(m)
        assert _gcd_calls(chart_bracket, chart, lam) == 0, spec
        assert _gcd_calls(chart_bracket, chart, LambdaData(m, lam.terms[:1])) == 0, spec


@pytest.mark.parametrize("series, rank, index", [("A", 2, 5), ("C", 2, 7)])
def test_chart_bracket_evaluates_coordinates_once(monkeypatch, series, rank, index):
    """The round trip and the tangents read each coordinate's minor once, off one lift per chart,
    at the minor's rows and columns in the model's internal basis."""
    import bsatlas.atlas as atlas
    import bsatlas.poisson as poisson

    m = cached_model(series, rank)
    chart = parametrize(enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))[index])
    calls, minors = [], []

    def counting(*args):
        calls.append(args)
        return coordinate_jets(*args)

    def counting_minor(*args):
        minors.append(args[2:4])
        return minor_tangents(*args)

    monkeypatch.setattr(poisson, "coordinate_jets", counting)
    monkeypatch.setattr(atlas, "minor_tangents", counting_minor)
    chart_bracket(chart)
    assert len(calls) == 1
    assert minors == [(rows, cols) for _, rows, cols, _ in chart.minors]


def test_chart_bracket_round_trip_check(monkeypatch):
    import bsatlas.poisson as poisson

    m = cached_model("A", 2)
    chart = parametrize(enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))[3])

    def shifted(*args):
        values, tangents = coordinate_jets(*args)
        last = values[-1] = dict(values[-1])
        # the packed key of the constant monomial is 0
        last[0] = last.get(0, 0) + 1
        return values, tangents

    monkeypatch.setattr(poisson, "coordinate_jets", shifted)
    with pytest.raises(AssertionError, match="chart round trip failed"):
        chart_bracket(chart)


# no case eliminates anything but the point: tangent_eliminated is False throughout
@pytest.mark.parametrize(
    "series, rank, qkind, v, index, tangent_eliminated",
    [
        ("A", 2, "Bv", (), 5, False),
        ("A", 2, "Nv", None, 5, False),
        ("C", 2, "Nv", None, 7, False),
        ("A", 3, "Nv", None, 100, False),
        # intermediate v: the N_v coordinates are minors of the whole N factor
        ("A", 2, "Nv", (1,), 3, False),
        ("C", 2, "Bv", (1, 2), 5, False),
    ],
)
def test_chart_bracket_eliminates_no_dual_matrix(monkeypatch, series, rank, qkind, v, index, tangent_eliminated):
    """chart_bracket runs the fraction-free elimination exactly once, on wbar^{-1} rep itself, as
    the chart stores it in Laurent values: the tangents come in closed form, and no perturbed (dual)
    matrix is ever eliminated."""
    import bsatlas.linalg as linalg

    m = cached_model(series, rank)
    space = SpaceSpec(m, qkind, m.rs.w0 if v is None else m.rs.element_from_word(v))
    chart = parametrize(enumerate_charts(space)[index])
    point = m.internal_left_inv(chart.spec.w.canonical, chart.rep)
    inputs = []
    bareiss = linalg._bareiss

    def counting(a, *args):
        inputs.append([list(row) for row in a])
        return bareiss(a, *args)

    monkeypatch.setattr(linalg, "_bareiss", counting)
    chart_bracket(chart)
    assert len(inputs) == 1
    assert (inputs[0] != point) == tangent_eliminated


# (charts, SHA-256) of every chart's label, canonical bracket texts and ``jacobi_check`` report, recorded before
# the rank-one tangent lift and the remainder-only Jacobi sum replaced the dense per-field engine
_BRACKET_DIGESTS = {
    ("A", 2, "Nv", "w0"): (16, "b481d983a3783f7de2669eff68a321f0b703787018f48093a40bb249e80d8902"),
    ("C", 2, "Nv", "w0"): (20, "531481284506bb407c3febf88b79aa17c0b522a8d40a856270e646a49052b35f"),
    ("C", 2, "Bv", "e"): (10, "66aefc65def31d0ecb306bfd24dd5866073506924a4e6f6f060bac404441c162"),
    ("A", 3, "Bv", "e"): (112, "ef9832bc727445870da1baecde005451f3a2dad4a66901867703353c7f691cd7"),
}


@pytest.mark.parametrize("series, rank, qkind, v", list(_BRACKET_DIGESTS))
def test_bracket_tables_and_jacobi_reports_are_pinned(series, rank, qkind, v):
    m = cached_model(series, rank)
    space = SpaceSpec(m, qkind, m.rs.w0 if v == "w0" else m.rs.identity)
    specs, texts = enumerate_charts(space), []
    for spec in specs:
        table = chart_bracket(parametrize(spec))
        texts.append(spec.label())
        texts += [f"{i},{j}:{table.entries[(i, j)].text()}" for i, j in table.pairs()]
        texts.append(json.dumps(jacobi_check(table), sort_keys=True))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (len(specs), digest) == _BRACKET_DIGESTS[(series, rank, qkind, v)]
