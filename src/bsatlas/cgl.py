"""Symmetric Poisson CGL presentations: prediction, verification, products, flows.

A presentation over a torus power carries, per coordinate, a character
tuple and two coweight tuples; the verifier checks the two-sided Ore form
of every bracket entry, the support and torus-homogeneity of the correction
terms, and the purely log-canonical cut between the two word blocks.
"""

from __future__ import annotations

from fractions import Fraction

from .atlas import Chart
from .errors import DimensionMismatch, EvaluationPole, NotVerifiedCGL
from .poisson import BracketTable
from .symbolic import MultiPoly, RatFunc, VarName, var


class CGLPresentation:
    """Predicted torus-power data for one chart."""

    __slots__ = ("rs", "torus_power", "chars", "hvecs", "hprimes", "embedding", "cut", "laurent_vars")

    def __init__(self, rs, torus_power, chars, hvecs, hprimes, embedding, cut, laurent_vars=()):
        self.rs = rs
        self.torus_power = torus_power
        self.chars = chars
        self.hvecs = hvecs
        self.hprimes = hprimes
        self.embedding = embedding
        self.cut = cut
        self.laurent_vars = tuple(laurent_vars)

    def n_vars(self):
        return len(self.chars)

    def pair(self, char_tuple, h_tuple):
        """Evaluate a character tuple on a coweight tuple."""
        return self.rs.evaluate_tuples(char_tuple, h_tuple)

    def pulled_weight(self, j):
        """T-weight of z_j under the diagonal embedding (sum of twisted factors)."""
        rs = self.rs
        total = None
        for twist, lam in zip(self.embedding, self.chars[j - 1]):
            part = rs.act(twist, lam)
            total = part if total is None else total + part
        return total


def _zero_weight(rs):
    from .rootdata import Weight

    return Weight([0] * rs.rank)


def _zero_coweight(rs):
    from .rootdata import Coweight

    return Coweight([0] * rs.rank)


def predicted_cgl(chart: Chart) -> CGLPresentation:
    """The torus-power data the chart bracket must realize."""
    spec = chart.spec
    rs = spec.space.model.rs
    w = spec.w
    w0_word, w_word, v_word = spec.r
    k = len(w0_word)
    l = rs.l0 + len(v_word)
    word2 = w_word + v_word

    chis = []
    hs = []
    for j in range(1, k + 1):
        prefix = w0_word[: j - 1]
        chis.append(rs.act_word(prefix, rs.simple_root(w0_word[j - 1])))
        hs.append(rs.act_word_coweight(prefix, rs.sharp(rs.simple_root(w0_word[j - 1]))))
    for j in range(1, len(word2) + 1):
        prefix = word2[: j - 1]
        chis.append(rs.act_word(prefix, rs.simple_root(word2[j - 1])))
        hs.append(rs.act_word_coweight(prefix, rs.sharp(rs.simple_root(word2[j - 1]))))

    ww0 = rs.multiply(w, rs.w0)
    w0winv = rs.multiply(rs.w0, w.inverse())
    zero_w = _zero_weight(rs)

    if spec.space.qkind == "Bv":
        chars = []
        hvecs = []
        for j in range(1, l + 1):
            if j <= k:
                chars.append((chis[j - 1], zero_w))
                hvecs.append((hs[j - 1], -rs.act_coweight(ww0, hs[j - 1])))
            else:
                chars.append((zero_w, chis[j - 1]))
                hvecs.append((-rs.act_coweight(w0winv, hs[j - 1]), hs[j - 1]))
        hprimes = [tuple(-h for h in hv) for hv in hvecs]
        embedding = (ww0, rs.identity)
        return CGLPresentation(rs, 2, chars, hvecs, hprimes, embedding, cut=k)

    chars = []
    hvecs = []
    winv = w.inverse()
    for j in range(1, l + 1):
        if j <= k:
            chars.append((chis[j - 1], zero_w, zero_w))
            hvecs.append(
                (
                    hs[j - 1],
                    -rs.act_coweight(ww0, hs[j - 1]),
                    -rs.act_coweight(rs.w0, hs[j - 1]),
                )
            )
        else:
            chars.append((zero_w, chis[j - 1], zero_w))
            hvecs.append(
                (
                    -rs.act_coweight(w0winv, hs[j - 1]),
                    hs[j - 1],
                    rs.act_coweight(winv, hs[j - 1]),
                )
            )
    for i in spec.space.omega_order:
        om = rs.fundamental_weight(i)
        om_sharp = rs.sharp(om)
        chars.append((zero_w, zero_w, om))
        hvecs.append(
            (
                -rs.act_coweight(rs.w0, om_sharp),
                rs.act_coweight(w, om_sharp),
                rs.omega_dual(i),
            )
        )
    hprimes = [tuple(-h for h in hv) for hv in hvecs]
    embedding = (ww0, rs.identity, w)
    laurent = tuple(range(l + 1, l + rs.rank + 1))
    return CGLPresentation(rs, 3, chars, hvecs, hprimes, embedding, cut=k, laurent_vars=laurent)


class CGLReport:
    """Outcome of verify_cgl: per-check pass/fail with witnesses."""

    def __init__(self):
        self.checks = {}
        self.f_terms = {}

    def record(self, name, ok, witnesses):
        self.checks[name] = {"ok": ok, "witnesses": witnesses}

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks.values())

    def to_dict(self):
        return {
            "ok": self.ok,
            "checks": {k: dict(v) for k, v in self.checks.items()},
        }


def _support_range_ok(f: RatFunc, lo, hi):
    """True when f is polynomial with variables among z_{lo+1} .. z_{hi-1}."""
    if not f.den.is_one():
        return False
    for v in f.num.vars:
        if v.symbol != "z" or not (lo < v.index < hi):
            return False
    return True


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

    bad_a, bad_b, bad_e = [], [], []
    for (i, j), entry in sorted(table.entries.items()):
        zz = RatFunc.from_poly(
            MultiPoly.variable(VarName("z", i)) * MultiPoly.variable(VarName("z", j))
        )
        c_a = pres.pair(pres.chars[i - 1], pres.hvecs[j - 1])
        f_a = -(entry + c_a * zz)
        if not _support_range_ok(f_a, i, j):
            bad_a.append({"pair": (i, j), "f": f_a.text()})
        c_b = pres.pair(pres.chars[j - 1], pres.hprimes[i - 1])
        f_b = c_b * zz - entry
        if not (f_b - f_a).is_zero():
            bad_b.append({"pair": (i, j), "f_a": f_a.text(), "f_b": f_b.text()})
        report.f_terms[(i, j)] = f_a
        if i <= pres.cut < j and j not in pres.laurent_vars and not f_a.is_zero():
            bad_e.append({"pair": (i, j), "f": f_a.text()})
    report.record("a_ore_form", not bad_a, bad_a)
    report.record("b_symmetric_form", not bad_b, bad_b)

    bad_c = []
    for j in range(1, n + 1):
        if pres.pair(pres.chars[j - 1], pres.hvecs[j - 1]) == 0:
            bad_c.append({"index": j, "side": "h"})
        if pres.pair(pres.chars[j - 1], pres.hprimes[j - 1]) == 0:
            bad_c.append({"index": j, "side": "h'"})
    report.record("c_nondegenerate", not bad_c, bad_c)

    weights = [pres.pulled_weight(j) for j in range(1, n + 1)]
    bad_d = []
    for (i, j), f in report.f_terms.items():
        if f.is_zero():
            continue
        target = weights[i - 1] + weights[j - 1]
        for exp, _ in f.num.terms.items():
            wsum = None
            for v, e in zip(f.num.vars, exp):
                if not e:
                    continue
                part = weights[v.index - 1] * e
                wsum = part if wsum is None else wsum + part
            if wsum is None:
                wsum = _zero_weight(rs)
            if wsum != target:
                bad_d.append({"pair": (i, j), "monomial_weight_mismatch": True})
                break
    report.record("d_homogeneous", not bad_d, bad_d)
    report.record("e_log_canonical_cut", not bad_e, bad_e)
    return report


class CGLData:
    """A CGL extension as raw data: bracket table plus torus action data."""

    __slots__ = ("rs", "torus_power", "chars", "hvecs", "hprimes", "table")

    def __init__(self, rs, torus_power, chars, hvecs, hprimes, table):
        self.rs = rs
        self.torus_power = torus_power
        self.chars = chars
        self.hvecs = hvecs
        self.hprimes = hprimes
        self.table = table


def _as_tuple(x):
    return x if isinstance(x, tuple) else (x,)


def _shift_z(f, shift):
    """f with every z_m renamed to z_{m+shift}."""
    sub = {v: var("z", v.index + shift) for v in f.variables() if v.symbol == "z"}
    return f.substitute(sub) if sub else f


def mixed_product(e1: CGLData, e2: CGLData, nu) -> CGLData:
    """Mixed product of two CGL extensions along nu = sum_q a_q (x) b_q.

    ``nu`` is a list of (a_q, b_q) pairs; each side is a coweight tuple
    matching the torus power of its factor (bare coweights mean power one).
    Cross brackets are -sum_q chi_i(a_q) chi_j(b_q) z_i z_j.
    """
    rs = e1.rs
    n1 = len(e1.chars)
    n2 = len(e2.chars)
    nu = [(_as_tuple(a), _as_tuple(b)) for a, b in nu]
    zero1 = tuple(_zero_weight(rs) for _ in range(e1.torus_power))
    zero2 = tuple(_zero_weight(rs) for _ in range(e2.torus_power))

    def nu_sharp(chi, side):
        """sum_q chi(nu_q[side]) nu_q[1 - side]: nu contracted on one side by chi."""
        out = None
        for pair in nu:
            c = rs.evaluate_tuples(chi, pair[side])
            if c == 0:
                continue
            part = tuple(h * c for h in pair[1 - side])
            out = part if out is None else tuple(x + y for x, y in zip(out, part))
        if out is None:
            return tuple(_zero_coweight(rs) for _ in range((e1, e2)[1 - side].torus_power))
        return out

    chars = [c + zero2 for c in e1.chars] + [zero1 + c for c in e2.chars]
    hvecs = []
    hprimes = []
    for idx in range(n1):
        hvecs.append(_as_tuple(e1.hvecs[idx]) + nu_sharp(e1.chars[idx], 0))
        hprimes.append(_as_tuple(e1.hprimes[idx]) + tuple(-h for h in nu_sharp(e1.chars[idx], 0)))
    for idx in range(n2):
        hvecs.append(nu_sharp(e2.chars[idx], 1) + _as_tuple(e2.hvecs[idx]))
        hprimes.append(tuple(-h for h in nu_sharp(e2.chars[idx], 1)) + _as_tuple(e2.hprimes[idx]))

    entries = {}
    for (i, j), f in e1.table.entries.items():
        entries[(i, j)] = f
    shift = n1
    for (i, j), f in e2.table.entries.items():
        entries[(i + shift, j + shift)] = _shift_z(f, shift)
    for i in range(1, n1 + 1):
        for j in range(1, n2 + 1):
            c = Fraction(0)
            for a, b in nu:
                c += rs.evaluate_tuples(e1.chars[i - 1], a) * rs.evaluate_tuples(e2.chars[j - 1], b)
            zz = RatFunc.from_poly(
                MultiPoly.variable(VarName("z", i)) * MultiPoly.variable(VarName("z", j + shift))
            )
            entries[(i, j + shift)] = -c * zz
    laurent = tuple(e1.table.laurent_vars) + tuple(v + shift for v in e2.table.laurent_vars)
    table = BracketTable(n1 + n2, laurent, entries)
    return CGLData(rs, e1.torus_power + e2.torus_power, chars, hvecs, hprimes, table)


def block_cgl(chart: Chart, table: BracketTable):
    """Split a chart table at the word-block cut into two power-one CGL data.

    Returns (E1, E2, nu): the two factors with their intrinsic torus data and
    the mixing tensor that reassembles the chart presentation.
    """
    spec = chart.spec
    rs = spec.space.model.rs
    w0_word, w_word, v_word = spec.r
    k = len(w0_word)
    l = rs.l0 + len(v_word)
    if spec.space.qkind != "Bv":
        raise ValueError("block split is defined for the Bv case")
    word2 = w_word + v_word

    def data_for(word):
        chis = []
        hs = []
        for j in range(1, len(word) + 1):
            prefix = word[: j - 1]
            chis.append((rs.act_word(prefix, rs.simple_root(word[j - 1])),))
            hs.append((rs.act_word_coweight(prefix, rs.sharp(rs.simple_root(word[j - 1]))),))
        return chis, hs

    chis1, hs1 = data_for(w0_word)
    chis2, hs2 = data_for(word2)
    t1 = BracketTable(k, (), {p: table.entries[p] for p in table.entries if p[1] <= k})
    t2entries = {
        (i - k, j - k): _shift_z(table.entries[(i, j)], -k)
        for (i, j) in table.entries
        if i > k
    }
    t2 = BracketTable(l - k, (), t2entries)
    e1 = CGLData(rs, 1, chis1, hs1, [tuple(-h for h in hv) for hv in hs1], t1)
    e2 = CGLData(rs, 1, chis2, hs2, [tuple(-h for h in hv) for hv in hs2], t2)
    w0winv = rs.multiply(rs.w0, spec.w.inverse())
    nu = [((-rs.act_coweight(w0winv, a),), (b,)) for a, b in rs.inv_gram_pairs()]
    return e1, e2, nu


def hamiltonian_report(table: BracketTable, pres: CGLPresentation, j, verified=None):
    """Check the completeness hypothesis for the coordinate z_j.

    Under the reordering (z_{j-1},...,z_1, z_{j+1},...,z_n, z_j), every
    bracket {z_j, x_m} must be a_m x_m z_j + b_m with constant a_m and b_m a
    polynomial in the earlier coordinates of that order, and z_j must have
    log-canonical bracket with every localized (torus block) coordinate.
    ``verified`` must be ``verify_cgl(table, pres)``.  By the Ore form, b_m
    is -f for j < m and f for j > m, with f = ``verified.f_terms`` of the
    pair, so both checks read those remainders.
    """
    if verified is None:
        verified = verify_cgl(table, pres)
    if not verified.ok:
        raise NotVerifiedCGL("table failed CGL verification")
    n = table.n_vars
    order = list(range(j - 1, 0, -1)) + list(range(j + 1, n + 1)) + [j]
    seen = set()
    failures = []
    for m in order:
        if m == j:
            seen.add(m)
            continue
        f = verified.f_terms[(min(j, m), max(j, m))]
        b_m = -f if j < m else f
        ok = b_m.den.is_one() and all(
            v.symbol == "z" and v.index in seen for v in b_m.num.vars
        )
        if not ok:
            failures.append({"coordinate": m, "b": b_m.text()})
        seen.add(m)
    for m in table.laurent_vars:
        if m == j:
            continue
        if not verified.f_terms[(min(j, m), max(j, m))].is_zero():
            failures.append({"localized": m, "entry": table.get(j, m).text()})
    return {"coordinate": j, "ok": not failures, "failures": failures}


def flow_sample(table: BracketTable, j, start, horizon, rtol=1e-9):
    """Numerically integrate the Hamiltonian flow of z_j (heuristic evidence only).

    The trajectory solves dz_p/dt = {z_j, z_p} from ``start`` (a map of
    1-based indices or a sequence) over [0, horizon] with an adaptive
    embedded Runge-Kutta scheme.  Reports finiteness; never a proof.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    n = table.n_vars
    if not isinstance(start, dict):
        start = {i + 1: v for i, v in enumerate(start)}
    y0 = [float(start[i]) for i in range(1, n + 1)]
    rhs_funcs = [[table.get(j, p) for p in range(1, n + 1)]]

    def rhs(_t, y):
        point = {VarName("z", i + 1): y[i] for i in range(n)}
        return [f.evaluate_float(point) for f in rhs_funcs[0]]

    try:
        sol = solve_ivp(rhs, (0.0, float(horizon)), y0, method="RK45", rtol=rtol, atol=1e-12, dense_output=False)
    except EvaluationPole:
        # the trajectory reached a pole of the Laurent block
        ys, finite = np.empty((n, 0)), False
    else:
        ys = sol.y
        finite = bool(sol.success) and bool(np.all(np.isfinite(ys)))
    max_abs = float(np.max(np.abs(ys))) if ys.size else float("nan")
    return {
        "coordinate": j,
        "horizon": float(horizon),
        "finite": finite,
        "status": "ok" if finite else "NumericBlowup",
        "max_abs": max_abs,
        "n_steps": int(ys.shape[1]),
        "final": [float(v) for v in ys[:, -1]] if ys.size else [],
        "note": "numeric sanity check only; not a completeness proof",
    }
