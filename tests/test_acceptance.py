"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Everything symbolic is checked by exact canonical-form equality, the
Hamiltonian flows of criterion 9 included; no check has a tolerance.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

from bsatlas.atlas import (
    ChartSpec,
    SpaceSpec,
    change_of_coordinates,
    enumerate_charts,
    eval_coordinates,
    parametrize,
    t_weights,
)
from bsatlas.cgl import hamiltonian_flow, hamiltonian_report, predicted_cgl, verify_cgl
from bsatlas.groups import cached_model
from bsatlas.leaves import t_leaf_classify
from bsatlas.poisson import build_lambda, chart_bracket, jacobi_check
from bsatlas.positivity import ToricChartSpec, certify_chart_positivity
from bsatlas.repro import CASES, repro_case
from bsatlas.symbolic import MultiPoly, RatFunc, VarName, var
from oracles import differentiate, exp_nilpotent, fraction_chain, identity, one_param, product, sbar, torus_element, wbar


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _zrf(i):
    return RatFunc.from_poly(MultiPoly.variable(VarName("z", i)))


def _spaces_for_cgl():
    m1 = cached_model("A", 1)
    m2 = cached_model("A", 2)
    out = [
        ("SL(2) G", SpaceSpec(m1, "Nv", m1.rs.w0), None),
        ("SL(3) G", SpaceSpec(m2, "Nv", m2.rs.w0), None),
        ("SL(3)/B", SpaceSpec(m2, "Bv", m2.rs.identity), None),
    ]
    m3 = cached_model("A", 3)
    spb4 = SpaceSpec(m3, "Bv", m3.rs.identity)
    picked = [
        ChartSpec(spb4, m3.rs.identity, ((3, 2, 1, 3, 2, 3), (), ())),
        ChartSpec(spb4, m3.rs.w0, ((), (1, 3, 2, 3, 1, 2), ())),
    ]
    out.append(("SL(4)/B examples", spb4, picked))
    return out


_TABLES = None


def all_tables():
    """Chart -> (table, presentation, report) for every acceptance chart."""
    global _TABLES
    if _TABLES is not None:
        return _TABLES
    out = []
    for name, space, picked in _spaces_for_cgl():
        lam = build_lambda(space.model)
        specs = picked if picked is not None else enumerate_charts(space)
        for spec in specs:
            chart = parametrize(spec)
            table = chart_bracket(chart, lam)
            pres = predicted_cgl(chart)
            rep = verify_cgl(table, pres)
            out.append((name, chart, table, pres, rep))
    _TABLES = out
    return out


def test_criterion_1_chart_census():
    t0 = time.time()
    m2 = cached_model("A", 2)
    n_sl3 = len(enumerate_charts(SpaceSpec(m2, "Nv", m2.rs.w0)))
    m1 = cached_model("A", 1)
    n_sl2 = len(enumerate_charts(SpaceSpec(m1, "Nv", m1.rs.w0)))
    dt = time.time() - t0
    report(1, n_sl3 == 16 and n_sl2 == 2 and dt < 1.0, f"census SL(3)={n_sl3}, SL(2)={n_sl2} in {dt:.3f}s")


def test_criterion_2_golden_reproduction():
    t0 = time.time()
    bad = []
    n_items = 0
    for case in CASES:
        rep = repro_case(case)
        n_items += len(rep.items)
        if not rep.ok:
            bad.append((case, rep.first_mismatch()))
    dt = time.time() - t0
    report(2, not bad and dt < 600, f"4 golden cases, {n_items} items diff-clean in {dt:.1f}s {bad or ''}")


def test_criterion_3_cgl_verification():
    t0 = time.time()
    failures = []
    count = 0
    for name, chart, table, pres, rep in all_tables():
        count += 1
        if not rep.ok:
            failures.append((name, chart.spec.label(), rep.to_dict()["checks"]))
    dt = time.time() - t0
    report(3, not failures and dt < 900, f"verify_cgl on {count} charts (all five checks) in {dt:.1f}s {failures or ''}")


def _naturality_holds(chart_a, table_a, chart_b, table_b):
    phi = change_of_coordinates(chart_a, chart_b)
    n = table_b.n_vars
    binding = {VarName("z", i + 1): phi[i] for i in range(n)}
    for p, q in combinations(range(1, n + 1), 2):
        lhs = RatFunc.zero()
        for i in range(1, table_a.n_vars + 1):
            dp = differentiate(phi[p - 1], VarName("z", i))
            if dp.is_zero():
                continue
            for j in range(1, table_a.n_vars + 1):
                dq = differentiate(phi[q - 1], VarName("z", j))
                if dq.is_zero():
                    continue
                lhs = lhs + dp * dq * table_a.get(i, j)
        rhs = table_b.entries[(p, q)].substitute(binding)
        if not (lhs - rhs).is_zero():
            return False, (p, q)
    return True, None


def test_criterion_4_poisson_naturality():
    m1 = cached_model("A", 1)
    sp2 = SpaceSpec(m1, "Nv", m1.rs.w0)
    charts2 = [parametrize(s) for s in enumerate_charts(sp2)]
    tables2 = [chart_bracket(c) for c in charts2]
    pairs2 = [(0, 1), (1, 0), (0, 0)]
    m2 = cached_model("A", 2)
    spb = SpaceSpec(m2, "Bv", m2.rs.identity)
    charts3 = [parametrize(s) for s in enumerate_charts(spb)]
    lam = build_lambda(m2)
    tables3 = [chart_bracket(c, lam) for c in charts3]
    pairs3 = [(0, 2), (2, 5), (5, 0), (1, 7)]
    bad = []
    for (charts, tables, pairs, tag) in (
        (charts2, tables2, pairs2, "SL(2)"),
        (charts3, tables3, pairs3, "SL(3)/B"),
    ):
        for a, b in pairs:
            ok, witness = _naturality_holds(charts[a], tables[a], charts[b], tables[b])
            if not ok:
                bad.append((tag, a, b, witness))
    report(4, not bad, f"bracket tables transported through {len(pairs2) + len(pairs3)} coordinate changes {bad or ''}")


def test_criterion_5_jacobi_everywhere():
    failures = []
    count = 0
    for name, chart, table, pres, rep in all_tables():
        count += 1
        jr = jacobi_check(table)
        if not (jr["ok"] and jr["mode"] == "symbolic"):
            failures.append((name, chart.spec.label(), jr["mode"], jr["failures"][:1]))
    report(5, not failures, f"symbolic Jacobi identity on {count} tables {failures or ''}")


def test_criterion_6_positivity():
    t0 = time.time()
    m1 = cached_model("A", 1)
    m2 = cached_model("A", 2)
    jobs = [
        (SpaceSpec(m1, "Nv", m1.rs.w0), ToricChartSpec(m1, "G", ((1,), (1,)))),
        (SpaceSpec(m2, "Nv", m2.rs.w0), ToricChartSpec(m2, "G", ((1, 2, 1), (1, 2, 1)))),
        (SpaceSpec(m2, "Bv", m2.rs.identity), ToricChartSpec(m2, "GmodBv", ((1, 2, 1), ()))),
    ]
    violations = []
    n_charts = 0
    for space, tspec in jobs:
        for spec in enumerate_charts(space):
            n_charts += 1
            rep = certify_chart_positivity(parametrize(spec), tspec, 100, seed=0)
            if not rep["ok"]:
                violations.append((spec.label(), rep["violations"][:2]))
    dt = time.time() - t0
    report(
        6,
        not violations,
        f"100 exact samples x {n_charts} charts: all coordinates positive, all shifted big cells hit ({dt:.0f}s) {violations or ''}",
    )


def test_criterion_7_t_weights():
    rng = random.Random(0)
    m2 = cached_model("A", 2)
    bad = []
    n = 0
    for space in (SpaceSpec(m2, "Nv", m2.rs.w0), SpaceSpec(m2, "Bv", m2.rs.identity)):
        for spec in enumerate_charts(space):
            chart = parametrize(spec)
            weights = t_weights(chart)
            for _ in range(20):
                n += 1
                tv = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(2)]
                t = torus_element(space.model, tv)
                shifted = eval_coordinates(chart, product(t, chart.param).entries)
                for j, (val, wt) in enumerate(zip(shifted, weights), start=1):
                    scale = Fraction(1)
                    for i, c in enumerate(wt.coeffs):
                        scale *= tv[i] ** int(c)
                    if not (val - RatFunc.constant(scale) * _zrf(j)).is_zero():
                        bad.append((spec.label(), j))
    report(7, not bad, f"torus scaling matches t_weights exactly on {n} random torus elements {bad or ''}")


def _rank(mat):
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
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


def test_criterion_8_t_leaf_stratification():
    m2 = cached_model("A", 2)
    rs = m2.rs
    space = SpaceSpec(m2, "Nv", rs.w0)
    rng = random.Random(0)

    def random_point():
        g = identity(m2)
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(1, 2)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            g = product(g, one_param(m2, i if rng.random() < 0.5 else -i, c))
            if rng.random() < 0.3:
                g = product(g, sbar(m2, i))
        return g.entries

    def pattern(el):
        wb = wbar(m2, el.canonical).entries
        return [0] + [next(i + 1 for i in range(3) if wb[i][j] != 0) for j in range(3)]

    bad = []
    for s in range(200):
        mat = random_point()
        lbl = t_leaf_classify(space, (mat, 1))
        if not rs.bruhat_leq(lbl.y, rs.star_product(lbl.w, rs.w0)):
            bad.append((s, "admissibility"))
            continue
        # independent double Bruhat membership: B w B via bottom-left ranks,
        # B^- u B^- via top-left-of-column-suffix ranks, u = y w0
        sw = pattern(lbl.w)
        ok = all(
            _rank([row[:j] for row in mat[i - 1 :]]) == sum(1 for t in range(1, j + 1) if sw[t] >= i)
            for i in range(1, 4)
            for j in range(1, 4)
        )
        su = pattern(rs.multiply(lbl.y, rs.w0))
        ok = ok and all(
            _rank([row[j - 1 :] for row in mat[:i]]) == sum(1 for t in range(j, 4) if su[t] <= i)
            for i in range(1, 4)
            for j in range(1, 4)
        )
        if not ok:
            bad.append((s, "double-bruhat-mismatch"))
    report(8, not bad, f"200 random points: labels admissible and matching double Bruhat cells {bad[:3] or ''}")


def test_criterion_9_hamiltonian_completeness():
    failures = []
    count = 0
    for name, chart, table, pres, rep in all_tables():
        for j in range(1, table.n_vars + 1):
            count += 1
            h = hamiltonian_report(table, pres, j, verified=rep)
            if not h["ok"]:
                failures.append((name, chart.spec.label(), j, h["failures"][:1]))
    m3 = cached_model("A", 3)
    spb4 = SpaceSpec(m3, "Bv", m3.rs.identity)
    chart_r1 = parametrize(ChartSpec(spb4, m3.rs.identity, ((3, 2, 1, 3, 2, 3), (), ())))
    table_r1 = chart_bracket(chart_r1)
    start = {i: Fraction(i, i + 1) for i in range(1, 7)}
    # x(t) at a formal t and E = e^{t/D}: d/dt acts as d/dt + (E/D) d/dE
    t, big_e = var("t"), var("E")
    flows = []
    for j in (1, 5):
        x = hamiltonian_flow(table_r1, j, start)
        d = lcm(*(lam.denominator for e in x for _, lam in e))
        xs = [sum((c * t**p * big_e ** int(lam * d) for (p, lam), c in e.items()), RatFunc.zero()) for e in x]
        at_x = {VarName("z", i + 1): f for i, f in enumerate(xs)}
        exact = all(
            (
                differentiate(f, VarName("t")) + big_e / d * differentiate(f, VarName("E"))
                - table_r1.get(j, i + 1).substitute(at_x)
            ).is_zero()
            and f.substitute({VarName("t"): 0, VarName("E"): 1}) == start[i + 1]
            for i, f in enumerate(xs)
        )
        flows.append((j, exact, [len(e) for e in x]))
        if not exact:
            failures.append(("flow", j))
    report(
        9,
        not failures,
        f"completeness hypothesis for {count} coordinates; flows of coords 1 and 5 solved exactly "
        f"(coordinate, exact, terms per coordinate): {flows} {failures or ''}",
    )


def test_criterion_10_roundtrip_and_representative_independence():
    bad = []
    n_charts = 0
    for name, space, picked in _spaces_for_cgl():
        specs = picked if picked is not None else enumerate_charts(space)
        for spec in specs:
            n_charts += 1
            chart = parametrize(spec)
            coords = eval_coordinates(chart, chart.param.entries)
            if not all((RatFunc.coerce(c) - _zrf(i + 1)).is_zero() for i, c in enumerate(coords)):
                bad.append(("roundtrip", spec.label()))
    mc = cached_model("C", 2)
    spacec = SpaceSpec(mc, "Nv", mc.rs.w0)
    chartc = parametrize(ChartSpec(spacec, mc.rs.identity, ((1, 2, 1, 2), (), (2, 1, 2, 1))))
    n_charts += 1
    coords = eval_coordinates(chartc, chartc.param.entries)
    if not all((RatFunc.coerce(c) - _zrf(i + 1)).is_zero() for i, c in enumerate(coords)):
        bad.append(("roundtrip", "sp4"))
    # representative independence: multiply by symbolic Q-valued elements
    m2 = cached_model("A", 2)
    spb = SpaceSpec(m2, "Bv", m2.rs.identity)
    chart = parametrize(enumerate_charts(spb)[0])
    q = product(fraction_chain(m2, (1, 2), (var("u", 1), var("u", 2))), torus_element(m2, [var("u", 3), var("u", 4)]))
    moved = product(chart.param, q)
    got = eval_coordinates(chart, moved.entries)
    if not all((RatFunc.coerce(c) - _zrf(i + 1)).is_zero() for i, c in enumerate(got)):
        bad.append(("representative-independence", "Bv"))
    spn = SpaceSpec(m2, "Nv", m2.rs.element_from_word((1,)))
    chartn = parametrize(enumerate_charts(spn)[0])
    # N(v) = N cap vbar N vbar^{-1}; for v = s1 that is the root subgroups of
    # alpha_2 and alpha_1 + alpha_2
    qn = exp_nilpotent(m2, m2.pos_root_vectors[m2.rs.simple_root(2)][0], var("u", 5))
    beta = m2.rs.simple_root(1) + m2.rs.simple_root(2)
    qn = product(qn, exp_nilpotent(m2, m2.pos_root_vectors[beta][0], var("u", 6)))
    got = eval_coordinates(chartn, product(chartn.param, qn).entries)
    if not all((RatFunc.coerce(c) - _zrf(i + 1)).is_zero() for i, c in enumerate(got)):
        bad.append(("representative-independence", "Nv"))
    report(10, not bad, f"round trips on {n_charts} charts; representative independence on Bv and Nv {bad or ''}")
