"""Predicted presentations, verification, mixed products, Hamiltonian flows."""

import hashlib
import random
import re
import sys
from fractions import Fraction

import pytest

from bsatlas.atlas import ChartSpec, SpaceSpec, enumerate_charts, parametrize, t_weights
from bsatlas import symbolic
from bsatlas.cgl import (
    CGLData,
    CGLPresentation,
    block_cgl,
    hamiltonian_flow,
    hamiltonian_report,
    mixed_product,
    predicted_cgl,
    verify_cgl,
)
from bsatlas.errors import DimensionMismatch, NotVerifiedCGL, ZeroTorusValue
from bsatlas.groups import cached_model
from bsatlas.poisson import BracketTable, build_lambda, chart_bracket
from bsatlas.rootdata import Coweight, Weight, build_root_system
from bsatlas.symbolic import RatFunc, var
from oracles import verify_cgl as ratfunc_verify_cgl


def test_predicted_data_first_mixed_index():
    """Just past the cut: char (0, alpha_{k+1}), h = (-w0 w^{-1}(a#), a#)."""
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Bv", rs.identity)
    spec = ChartSpec(space, rs.simple(1), ((1, 2), (1,), ()))
    pres = predicted_cgl(parametrize(spec))
    k = 2
    j = k + 1
    alpha = rs.simple_root(1)
    assert pres.chars[j - 1] == (Weight([0, 0]), alpha)
    w0winv = rs.multiply(rs.w0, rs.simple(1).inverse())
    assert pres.hvecs[j - 1] == (
        -rs.act_coweight(w0winv, rs.sharp(alpha)),
        rs.sharp(alpha),
    )
    # chi_j(h_j) = <chi_j, chi_j> != 0 for every j
    for idx in range(1, pres.n_vars() + 1):
        assert pres.rs.evaluate_tuples(pres.chars[idx - 1], pres.hvecs[idx - 1]) != 0


def test_predicted_data_nv_torus_block():
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    spec = enumerate_charts(space)[0]
    chart = parametrize(spec)
    pres = predicted_cgl(chart)
    l = rs.l0 + rs.w0.length()
    j = l + 1
    om = rs.fundamental_weight(1)
    zero = Weight([0, 0])
    assert pres.chars[j - 1] == (zero, zero, om)
    assert pres.hvecs[j - 1] == (
        -rs.act_coweight(rs.w0, rs.sharp(om)),
        rs.act_coweight(spec.w, rs.sharp(om)),
        rs.omega_dual(1),
    )
    assert pres.laurent_vars == (7, 8)


@pytest.mark.parametrize(
    "series,rank,qkind,vname",
    [("A", 1, "Nv", "w0"), ("A", 2, "Nv", "w0"), ("A", 2, "Bv", "e")],
)
def test_verify_cgl_all_charts(series, rank, qkind, vname):
    m = cached_model(series, rank)
    rs = m.rs
    space = SpaceSpec(m, qkind, rs.w0 if vname == "w0" else rs.identity)
    for spec in enumerate_charts(space):
        chart = parametrize(spec)
        report = verify_cgl(chart_bracket(chart), predicted_cgl(chart))
        assert report.ok, (spec.label(), report.to_dict())


@pytest.mark.parametrize(
    "series,rank,qkind,vname",
    [("A", 2, "Nv", "w0"), ("C", 2, "Nv", "w0"), ("A", 3, "Bv", "e")],
)
def test_pair_table_matches_evaluate_tuples(series, rank, qkind, vname):
    """Every entry of the integer pairing table is rs.evaluate_tuples of its character and coweight tuples."""
    m = cached_model(series, rank)
    rs = m.rs
    space = SpaceSpec(m, qkind, rs.w0 if vname == "w0" else rs.identity)
    for spec in enumerate_charts(space):
        pres = predicted_cgl(parametrize(spec))
        for hs in (pres.hvecs, pres.hprimes):
            want = [[rs.evaluate_tuples(chi, h) for h in hs] for chi in pres.chars]
            assert pres.pair_table(hs) == want, spec.label()


def test_log_canonical_coefficients_within_blocks():
    """Within each word block the coefficient is minus the pairing of the roots."""
    m = cached_model("A", 2)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    spec = enumerate_charts(space)[3]
    chart = parametrize(spec)
    table = chart_bracket(chart)
    pres = predicted_cgl(chart)
    k = pres.cut
    w0_word, w_word, v_word = spec.r
    word2 = w_word + v_word
    chis = {}
    for j in range(1, k + 1):
        chis[j] = rs.act_word(w0_word[: j - 1], rs.simple_root(w0_word[j - 1]))
    for j in range(1, len(word2) + 1):
        chis[k + j] = rs.act_word(word2[: j - 1], rs.simple_root(word2[j - 1]))
    for (i, j) in table.entries:
        if j > rs.l0 + rs.w0.length():
            continue
        if (i <= k) == (j <= k):
            got = pres.rs.evaluate_tuples(pres.chars[i - 1], pres.hvecs[j - 1])
            assert got == rs.pairing(chis[j], chis[i])


def test_verify_cgl_negative_perturbation():
    m = cached_model("A", 3)
    rs = m.rs
    space = SpaceSpec(m, "Bv", rs.identity)
    chart = parametrize(ChartSpec(space, rs.identity, ((3, 2, 1, 3, 2, 3), (), ())))
    table = chart_bracket(chart)
    z5 = var("z", 5)
    bad_entries = dict(table.entries)
    bad_entries[(1, 4)] = bad_entries[(1, 4)] + 2 * z5 - 2 * var("z", 2)
    bad = BracketTable(table.n_vars, table.laurent_vars, bad_entries)
    report = verify_cgl(bad, predicted_cgl(chart))
    assert not report.ok
    assert not report.checks["a_ore_form"]["ok"]
    assert report.checks["a_ore_form"]["witnesses"][0]["pair"] == (1, 4)


def test_verify_cgl_witnesses_a_degenerate_character():
    """A presentation with h_1 = 0 and h'_n = 0 fails check (c) alone, with one witness per side; h_1 and
    h'_n enter no off-diagonal pair."""
    m = cached_model("A", 2)
    chart = parametrize(enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))[3])
    table, pres = chart_bracket(chart), predicted_cgl(chart)
    n = table.n_vars
    hvecs, hprimes = list(pres.hvecs), list(pres.hprimes)
    hvecs[0], hprimes[-1] = tuple(h * 0 for h in hvecs[0]), tuple(h * 0 for h in hprimes[-1])
    bad = CGLPresentation(pres.rs, pres.torus_power, pres.chars, hvecs, hprimes, pres.weights, pres.cut, pres.laurent_vars)
    report = verify_cgl(table, bad)
    assert report.ok is False
    assert [name for name, check in report.checks.items() if not check["ok"]] == ["c_nondegenerate"]
    assert report.checks["c_nondegenerate"]["witnesses"] == [{"index": 1, "side": "h"}, {"index": n, "side": "h'"}]


def test_hamiltonian_report_witnesses_a_localized_partner_that_is_not_log_canonical():
    """A table that declares z_3 localized still passes verify_cgl, but {z_1, z_3} = z1 z3 - 2 z2 is not
    log-canonical, so the flow of z_1 is refused with that entry as its witness."""
    m = cached_model("A", 2)
    chart = parametrize(enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))[3])
    table, pres = chart_bracket(chart), predicted_cgl(chart)
    bad = BracketTable(table.n_vars, (3,), table.entries)
    rep = verify_cgl(bad, pres)
    assert rep.ok
    got = hamiltonian_report(bad, pres, 1, verified=rep)
    assert got == {"coordinate": 1, "ok": False, "failures": [{"localized": 3, "entry": "z1*z3 - 2*z2"}]}


def test_verify_cgl_dimension_mismatch():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart = parametrize(enumerate_charts(space)[0])
    pres = predicted_cgl(chart)
    small = BracketTable(2, (), {(1, 2): RatFunc.zero()})
    with pytest.raises(DimensionMismatch):
        verify_cgl(small, pres)


def test_mixed_product_zero_and_one_var():
    rs = build_root_system("A", 1)
    omega = rs.fundamental_weight(1)

    def triv():
        return CGLData(
            rs,
            1,
            [(omega,)],
            [(rs.sharp(omega),)],
            [(-rs.sharp(omega),)],
            BracketTable(1, (), {}),
        )

    combined = mixed_product(triv(), triv(), [])
    assert combined.table.entries[(1, 2)].is_zero()
    # nu = a (x) b with chi(a) = chi(b) = 1 gives {z1, z2} = -z1 z2
    a = Coweight([Fraction(2)])
    assert rs.evaluate(omega, a) == 1
    combined = mixed_product(triv(), triv(), [(a, a)])
    assert combined.table.entries[(1, 2)] == -var("z", 1) * var("z", 2)


def test_mixed_product_rebuilds_chart_presentation():
    """The mixed product of the two word blocks rebuilds every chart table of SL(3)/B(e) and Sp(4)/B(e)."""
    specs = [spec for m in (cached_model("A", 2), cached_model("C", 2)) for spec in enumerate_charts(SpaceSpec(m, "Bv", m.rs.identity))]
    assert len(specs) == 18
    second_block = 0
    for spec in specs:
        chart = parametrize(spec)
        table = chart_bracket(chart)
        e1, e2, nu = block_cgl(chart, table)
        second_block += bool(e2.table.entries)
        combined = mixed_product(e1, e2, nu)
        pres = predicted_cgl(chart)
        assert combined.chars == [tuple(c) for c in pres.chars]
        assert combined.hvecs == [tuple(h) for h in pres.hvecs]
        assert combined.hprimes == [tuple(h) for h in pres.hprimes]
        for key, val in table.entries.items():
            assert (combined.table.entries[key] - val).is_zero(), (spec.label(), key)
    # the second block's entries are renamed into its own variables (``cgl._shift_z``)
    assert second_block >= 1


def test_hamiltonian_report_all_coordinates():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    for spec in enumerate_charts(space):
        chart = parametrize(spec)
        table = chart_bracket(chart)
        pres = predicted_cgl(chart)
        rep = verify_cgl(table, pres)
        for j in range(1, table.n_vars + 1):
            assert hamiltonian_report(table, pres, j, verified=rep)["ok"]


def test_hamiltonian_requires_verified():
    m = cached_model("A", 1)
    space = SpaceSpec(m, "Nv", m.rs.w0)
    chart = parametrize(enumerate_charts(space)[0])
    pres = predicted_cgl(chart)
    z1, z2 = var("z", 1), var("z", 2)
    junk = BracketTable(3, (3,), {(1, 2): z1 + z2, (1, 3): RatFunc.zero(), (2, 3): RatFunc.zero()})
    with pytest.raises(NotVerifiedCGL):
        hamiltonian_report(junk, pres, 1, verify_cgl(junk, pres))


def _old_triangular_failures(table, j, verified):
    """The check hamiltonian_report made before it read the triangular flow off check (a)."""
    order = list(range(j - 1, 0, -1)) + list(range(j + 1, table.n_vars + 1))
    seen, failures = set(), []
    for m in order:
        f = verified.f_terms[(min(j, m), max(j, m))]
        b_m = -f if j < m else f
        if not (b_m.den.is_one() and all(v.symbol == "z" and v.index in seen for v in b_m.num.vars)):
            failures.append(m)
        seen.add(m)
    return failures


def test_non_triangular_flow_already_fails_ore_form():
    """A table on which the removed check of hamiltonian_report fails is refused by check (a)."""
    m = cached_model("A", 2)
    chart = parametrize(enumerate_charts(SpaceSpec(m, "Nv", m.rs.w0))[3])
    table = chart_bracket(chart)
    pres = predicted_cgl(chart)
    n = table.n_vars
    caught = passed = 0
    for i, k in table.pairs():
        mid = var("z", (i + k) // 2)
        for extra in (var("z", k) ** 2, var("z", i) * mid, 1 / var("z", i), mid, 3 * mid * mid):
            entries = dict(table.entries)
            entries[(i, k)] = entries[(i, k)] + extra
            bad = BracketTable(n, table.laurent_vars, entries)
            rep = verify_cgl(bad, pres)
            if any(_old_triangular_failures(bad, j, rep) for j in range(1, n + 1)):
                caught += 1
                assert not rep.checks["a_ore_form"]["ok"], ((i, k), extra.text())
            else:
                passed += 1
    # z_k^2, z_i z_mid (z_i^2 when k = i + 1) and 1/z_i are caught for every pair
    assert caught >= 3 * len(table.pairs()) and passed > 0


def _ep_product(x, y):
    out = {}
    for (p, lam), c in x.items():
        for (q, mu), d in y.items():
            out[(p + q, lam + mu)] = out.get((p + q, lam + mu), 0) + c * d
    return {key: c for key, c in out.items() if c}


def _ep_at(f, x):
    """A polynomial RatFunc f at the exponential polynomials x[0], x[1], ..."""
    assert f.den.is_one()
    total = {}
    for exp, c in f.num.terms.items():
        term = {(0, 0): c}
        for v, e in zip(f.num.vars, exp):
            for _ in range(e):
                term = _ep_product(term, x[v.index - 1])
        for key, d in term.items():
            total[key] = total.get(key, 0) + d
    return {key: c for key, c in total.items() if c}


def _ep_derivative(x):
    out = {}
    for (p, lam), c in x.items():
        if p:
            out[(p - 1, lam)] = out.get((p - 1, lam), 0) + p * c
        out[(p, lam)] = out.get((p, lam), 0) + lam * c
    return {key: c for key, c in out.items() if c}


def _assert_solves_flow(table, j, start):
    x = hamiltonian_flow(table, j, start)
    assert all(type(lam) is type(c) is Fraction for e in x for (_, lam), c in e.items())
    for m in range(1, table.n_vars + 1):
        assert _ep_derivative(x[m - 1]) == _ep_at(table.get(j, m), x), (j, m)
        assert sum(c for (p, _), c in x[m - 1].items() if p == 0) == start[m], (j, m)
    return x


def test_every_flow_solves_its_ode():
    """d/dt x_m = {z_j, z_m}(x(t)) identically, for every flow of every chart
    of SL(3)/N(w0) and Sp(4)/N(w0) and of the criterion-9 chart."""
    charts = []
    for series, rank in (("A", 2), ("C", 2)):
        mm = cached_model(series, rank)
        charts += enumerate_charts(SpaceSpec(mm, "Nv", mm.rs.w0))
    m3 = cached_model("A", 3)
    charts.append(ChartSpec(SpaceSpec(m3, "Bv", m3.rs.identity), m3.rs.identity, ((3, 2, 1, 3, 2, 3), (), ())))
    flows = 0
    for spec in charts:
        table = chart_bracket(parametrize(spec))
        start = {i: Fraction(i, i + 1) for i in range(1, table.n_vars + 1)}
        for j in range(1, table.n_vars + 1):
            _assert_solves_flow(table, j, start)
            flows += 1
    assert flows == 128 + 200 + 6


def test_flow_resonant_rates_give_polynomial_factors():
    """Equal rates make t^p e^{lam t} terms, which the integral takes by parts."""
    z1, z2, z3, z5 = var("z", 1), var("z", 2), var("z", 3), var("z", 5)
    entries = {(i, k): RatFunc.zero() for i in range(1, 5) for k in range(i + 1, 6)}
    entries.update({(1, 2): z1 * z2, (1, 3): z1 * z3 + z2, (1, 4): z3 + 2 * z2**2, (1, 5): z1 * z5 + z3})
    table = BracketTable(5, (), entries)
    x = _assert_solves_flow(table, 1, {1: 1, 2: 2, 3: 3, 4: 4, 5: 5})
    assert x[2] == {(0, 1): 3, (1, 1): 2}
    assert max(p for p, _ in x[3]) == 1
    assert x[4] == {(0, 1): 5, (1, 1): 3, (2, 1): 1}


def test_flow_log_canonical_exponential():
    """{z1, z2} = z1 z2 from (1, 1): x2 = e^t exactly and x1 = 1."""
    z1, z2 = var("z", 1), var("z", 2)
    table = BracketTable(2, (), {(1, 2): z1 * z2})
    assert hamiltonian_flow(table, 1, {1: 1, 2: 1}) == [{(0, 0): 1}, {(0, 1): 1}]


def test_flow_from_a_zero_torus_start_is_refused():
    """A zero start on a localized coordinate lies outside the chart."""
    z1, z2 = var("z", 1), var("z", 2)
    table = BracketTable(2, (2,), {(1, 2): z1 / z2})
    with pytest.raises(ZeroTorusValue):
        hamiltonian_flow(table, 1, [1, 0])


def test_flow_refuses_a_non_triangular_entry():
    """The entry whose remainder is not polynomial in solved coordinates is the witness."""
    z1, z2, z3 = var("z", 1), var("z", 2), var("z", 3)
    for entry in (z1 * z3 + z3**2, z2 / z1, z1 * z3 / z2):
        table = BracketTable(3, (), {(1, 2): z1 * z2, (1, 3): entry, (2, 3): RatFunc.zero()})
        with pytest.raises(NotVerifiedCGL, match=re.escape(f"{{z_1, z_3}} = {entry.text()}")):
            hamiltonian_flow(table, 1, [1, 2, 3])


def test_verify_cgl_both_qkinds_both_v():
    """SL(2) and SL(3), Q-kinds Bv and Nv, v identity and longest."""
    for series, rank in (("A", 1), ("A", 2)):
        m = cached_model(series, rank)
        rs = m.rs
        from bsatlas.poisson import build_lambda

        lam = build_lambda(m)
        for qkind in ("Bv", "Nv"):
            for v in (rs.identity, rs.w0):
                space = SpaceSpec(m, qkind, v)
                for spec in enumerate_charts(space):
                    chart = parametrize(spec)
                    rep = verify_cgl(chart_bracket(chart, lam), predicted_cgl(chart))
                    assert rep.ok, (series, rank, qkind, spec.label())


def test_verify_cgl_intermediate_v():
    """Nontrivial N(v): charts on SL(3) spaces with v of length 1 and 2."""
    m = cached_model("A", 2)
    rs = m.rs
    from bsatlas.poisson import build_lambda

    lam = build_lambda(m)
    for qkind, v in (("Nv", rs.simple(1)), ("Bv", rs.element_from_word((1, 2)))):
        space = SpaceSpec(m, qkind, v)
        for spec in enumerate_charts(space)[:5]:
            chart = parametrize(spec)
            table = chart_bracket(chart, lam)
            rep = verify_cgl(table, predicted_cgl(chart))
            assert rep.ok, (qkind, spec.label(), rep.to_dict()["checks"])


def test_sp4_full_atlas_verification():
    """Every chart on Sp(4): round trip, CGL presentation, exact Jacobi."""
    from bsatlas.atlas import eval_coordinates
    from bsatlas.poisson import build_lambda, jacobi_check
    from bsatlas.symbolic import MultiPoly

    mc = cached_model("C", 2)
    rs = mc.rs
    lam = build_lambda(mc)
    space = SpaceSpec(mc, "Nv", rs.w0)
    charts = enumerate_charts(space)
    assert len(charts) == 20
    for spec in charts:
        chart = parametrize(spec)
        coords = eval_coordinates(chart, chart.param)
        assert all(
            (c - RatFunc.from_poly(MultiPoly.variable(v))).is_zero()
            for c, v in zip(coords, chart.zvars)
        ), spec.label()
        table = chart_bracket(chart, lam)
        assert verify_cgl(table, predicted_cgl(chart)).ok, spec.label()
        assert jacobi_check(table)["ok"], spec.label()


def test_sl4_mixed_block_charts():
    """Rank-3 charts with both word blocks nonempty."""
    m = cached_model("A", 3)
    rs = m.rs
    space = SpaceSpec(m, "Bv", rs.identity)
    for w in (rs.simple(2), rs.element_from_word((1, 3, 2))):
        u = rs.multiply(rs.w0, w.inverse())
        r = (rs.reduced_words(u)[0], rs.reduced_words(w)[0], ())
        chart = parametrize(ChartSpec(space, w, r))
        table = chart_bracket(chart)
        rep = verify_cgl(table, predicted_cgl(chart))
        assert rep.ok, (chart.spec.label(), rep.to_dict()["checks"])
        from bsatlas.poisson import jacobi_check

        assert jacobi_check(table)["ok"]


def test_sl4_group_chart_full_verification():
    """Largest SL case: a 15-coordinate chart on SL(4) itself."""
    from bsatlas.poisson import jacobi_check

    m = cached_model("A", 3)
    rs = m.rs
    space = SpaceSpec(m, "Nv", rs.w0)
    w0w = rs.w0.canonical
    chart = parametrize(ChartSpec(space, rs.w0, ((), w0w, w0w)))
    table = chart_bracket(chart)
    assert table.n_vars == 15 and table.laurent_vars == (13, 14, 15)
    rep = verify_cgl(table, predicted_cgl(chart))
    assert rep.ok, rep.to_dict()["checks"]
    assert jacobi_check(table)["ok"]


def _verify_like_oracle(table, pres):
    """verify_cgl(table, pres), checked against the RatFunc verifier it replaced: same payload, same f texts."""
    got, want = verify_cgl(table, pres), ratfunc_verify_cgl(table, pres)
    assert got.to_dict() == want.to_dict()
    assert [(p, f.text()) for p, f in got.f_terms.items()] == [(p, f.text()) for p, f in want.f_terms.items()]
    return got


def _charts(series, rank, qkind, count=None):
    m = cached_model(series, rank)
    specs = enumerate_charts(SpaceSpec(m, qkind, m.rs.w0 if qkind == "Nv" else m.rs.identity))
    if count is not None:
        specs = random.Random(5).sample(specs, count)
    return [parametrize(spec) for spec in specs]


@pytest.mark.parametrize(
    "series, rank, qkind, count",
    [("A", 2, "Nv", None), ("A", 2, "Bv", None), ("C", 2, "Nv", None), ("C", 2, "Bv", None), ("A", 3, "Bv", None), ("A", 3, "Nv", 6)],
)
def test_verify_cgl_matches_ratfunc_oracle(series, rank, qkind, count):
    """On every chart of the space (seeded ones of SL(4)/N(w0)) the exponent-tuple verifier agrees with the RatFunc one."""
    lam = build_lambda(cached_model(series, rank))
    for chart in _charts(series, rank, qkind, count):
        assert _verify_like_oracle(chart_bracket(chart, lam), predicted_cgl(chart)).ok, chart.spec.label()


def _perturbed(table, pair, extra):
    entries = dict(table.entries)
    entries[pair] = entries[pair] + extra
    return BracketTable(table.n_vars, table.laurent_vars, entries)


def _broken_ore_support(table, pres):
    return _perturbed(table, (1, 4), var("z", 5) + 3 * var("z", 1) ** 2), pres


def _broken_symmetric_form(table, pres):
    rs = pres.rs
    hprimes = list(pres.hprimes)
    hprimes[1] = (hprimes[1][0] + rs.fundamental_coweight(1) * Fraction(1, 2),) + hprimes[1][1:]
    return table, CGLPresentation(rs, pres.torus_power, pres.chars, pres.hvecs, hprimes, pres.weights, pres.cut, pres.laurent_vars)


def _broken_homogeneity(table, pres):
    return _perturbed(table, (1, 4), Fraction(1, 2) * var("z", 2) * var("z", 3) ** 2), pres


def _broken_cut(table, pres):
    k = pres.cut
    return _perturbed(table, (k, k + 2), var("z", k + 1)), pres


def _non_laurent(table, pres):
    return _perturbed(table, (1, 3), var("z", 2) / (1 + var("z", 1))), pres


def _foreign_variable(table, pres):
    return _perturbed(table, (2, 5), var("y", 3) * var("z", 4)), pres


def _variable_past_the_chart(table, pres):
    """z_{n+3} has no pulled weight: a witness of (d), not an IndexError."""
    return _perturbed(table, (2, 5), var("z", table.n_vars + 3) * var("z", 4)), pres


@pytest.mark.parametrize(
    "damage, broken",
    [
        (_broken_ore_support, "a_ore_form"),
        (_broken_symmetric_form, "b_symmetric_form"),
        (_broken_homogeneity, "d_homogeneous"),
        (_broken_cut, "e_log_canonical_cut"),
        (_non_laurent, "a_ore_form"),
        (_foreign_variable, "a_ore_form"),
        (_variable_past_the_chart, "d_homogeneous"),
    ],
)
def test_verify_cgl_failures_match_ratfunc_oracle(damage, broken):
    """Hand-made tables that break one check give the oracle's verdicts and witness texts."""
    rs = cached_model("A", 3).rs
    w = rs.element_from_word((1, 3))
    u = rs.multiply(rs.w0, w.inverse())
    chart = parametrize(ChartSpec(SpaceSpec(cached_model("A", 3), "Bv", rs.identity), w, (u.canonical, w.canonical, ())))
    table, pres = damage(chart_bracket(chart), predicted_cgl(chart))
    report = _verify_like_oracle(table, pres)
    assert not report.checks[broken]["ok"]
    assert report.checks[broken]["witnesses"]


def _symbolic_calls(fn, *args):
    """Calls of poly_gcd, RatFunc.__add__ and MultiPoly.__mul__, recursive ones included, while fn(*args) runs."""
    names = {
        symbolic.poly_gcd.__code__: "poly_gcd",
        symbolic.RatFunc.__add__.__code__: "RatFunc.__add__",
        symbolic.MultiPoly.__mul__.__code__: "MultiPoly.__mul__",
    }
    counts = dict.fromkeys(names.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts


def test_verify_cgl_takes_no_ratfunc_arithmetic():
    """On a passing SL(4)/N(w0) chart, verify_cgl reads each entry's exponent tuples: no gcd, no RatFunc sum, no product."""
    (chart,) = _charts("A", 3, "Nv", 1)
    table, pres = chart_bracket(chart), predicted_cgl(chart)
    assert _symbolic_calls(verify_cgl, table, pres) == {"poly_gcd": 0, "RatFunc.__add__": 0, "MultiPoly.__mul__": 0}
    assert verify_cgl(table, pres).ok


def _fraction_act(rs, word, coeffs):
    """The word acting right to left on a weight's coefficients, in Fraction arithmetic."""
    for i in reversed(word):
        c = Fraction(coeffs[i - 1])
        coeffs = tuple(Fraction(x) - c * a for x, a in zip(coeffs, rs.simple_root(i).coeffs))
    return coeffs


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2)])
def test_pulled_weights_are_ints(series, rank):
    """The T-weight ``pres.weights[j - 1]`` of every coordinate stores int coefficients, equal to its pulled weight:
    the sum of its character factors twisted by the diagonal embedding (w w0, e) of B(v), or (w w0, e, w) of N(v),
    acted on in Fractions."""
    m = cached_model(series, rank)
    rs = m.rs
    charts = []
    for qkind, v in (("Bv", rs.identity), ("Nv", rs.w0)):
        space = SpaceSpec(m, qkind, v)
        for w in {rs.identity, rs.simple(1), rs.w0}:
            u = rs.multiply(rs.w0, w.inverse())
            charts.append(parametrize(ChartSpec(space, w, (u.canonical, w.canonical, v.canonical))))
    for chart in charts:
        pres = predicted_cgl(chart)
        w = chart.spec.w
        embedding = (rs.multiply(w, rs.w0), rs.identity, w)[: pres.torus_power]
        assert len(pres.weights) == pres.n_vars()
        for j, got in enumerate(pres.weights, start=1):
            want = [Fraction(0)] * rank
            for twist, lam in zip(embedding, pres.chars[j - 1]):
                want = [a + b for a, b in zip(want, _fraction_act(rs, twist.canonical, lam.coeffs))]
            assert all(type(c) is int for c in got.coeffs), (chart.spec.label(), j, got)
            assert got.coeffs == tuple(want), (chart.spec.label(), j)


# sha256 of every chart's presentation text (``_presentation_text``), charts in enumeration order; None takes
# every space of the model.  Recorded before the presentation carried its T-weights, from the sum of twisted
# character factors that stood in for them.
_PRESENTATION_DIGESTS = {
    ("A", 2, None, None): (112, "2ec6141ec410500bae6883b1b7e946ea15e492184455754ceb3dacad969316ff"),
    ("C", 2, None, None): (180, "d21cc60433378de7173b03f4c62e011230d2582f4b868e33bff5dd6be9b6777b"),
    ("A", 3, "Nv", "w0"): (1792, "204b3606091fc4de958d3ec1a8d8aa5c384e5d1acc1137d60015e235b2516f5c"),
    ("A", 3, "Bv", "e"): (112, "a43acc4a9a0cb20e928d8d0c777c51ef46f5802c8fd1de01c864921f8820fa94"),
}


def _presentation_text(pres):
    """The data of a presentation as text: every coefficient, with its type (int or Fraction), in order."""

    def rows(xs):
        return [[x.coeffs for x in row] for row in xs]

    fields = (pres.torus_power, rows(pres.chars), rows(pres.hvecs), rows(pres.hprimes))
    return repr(fields + ([lam.coeffs for lam in pres.weights], pres.cut, tuple(pres.laurent_vars)))


@pytest.mark.parametrize("series, rank, qkind, v", list(_PRESENTATION_DIGESTS))
def test_presentation_is_pinned(series, rank, qkind, v):
    m = cached_model(series, rank)
    rs = m.rs
    if qkind is None:
        spaces = [SpaceSpec(m, q, x) for x in rs.all_elements() for q in ("Bv", "Nv")]
    else:
        spaces = [SpaceSpec(m, qkind, rs.w0 if v == "w0" else rs.identity)]
    texts = [_presentation_text(predicted_cgl(parametrize(spec))) for space in spaces for spec in enumerate_charts(space)]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (len(texts), digest) == _PRESENTATION_DIGESTS[(series, rank, qkind, v)]


@pytest.mark.parametrize("series", ["A", "C"])
def test_presentation_weights_are_the_t_weights(series):
    """``predicted_cgl`` reads each T-weight off the Weyl images it builds; they equal ``atlas.t_weights`` on every
    chart of every space of SL(3) and Sp(4)."""
    m = cached_model(series, 2)
    for space in (SpaceSpec(m, q, x) for x in m.rs.all_elements() for q in ("Bv", "Nv")):
        for spec in enumerate_charts(space):
            chart = parametrize(spec)
            assert predicted_cgl(chart).weights == t_weights(chart), spec.label()
