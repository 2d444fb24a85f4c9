"""The three benchmark workloads: seeded inputs, timed items and verdicts.

A workload is a closed loop with one caller.  Its set-up builds root
systems, group models, Poisson lambda data and chart lists; its inputs are
drawn from the seed and hold only plain numbers; its items are the units of
work whose latency is reported.  Every item's verdict is checked, and the
canonical text of every bracket entry and change formula is hashed so it can
be compared with the reference recorded from the seed commit.

Program calls go through ``span(name, fn, *args)`` so that the traced run
can time each public call; untraced runs pass a plain caller.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

DEFAULT_SEED = 0

# Items per pass.  "smoke" keeps every code path but runs in seconds.
SIZES = {
    "full": {"atlas_charts": 4, "pos_samples": 3, "leaf_points": 10},
    "smoke": {"atlas_charts": 1, "pos_samples": 1, "leaf_points": 1},
}
# coord-changes gives each Sp(4) source chart a target in every SP4_PHASE-th Weyl class.
SP4_PHASE = 4


def plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Item:
    """One timed unit of work: ``run`` does the public calls, ``check`` judges them."""

    __slots__ = ("key", "run", "check")

    def __init__(self, key, run, check):
        self.key = key
        self.run = run
        self.check = check


class Verdict:
    """What an item's check found: failure reasons, canonical texts, output functions."""

    __slots__ = ("failures", "texts", "funcs")

    def __init__(self, failures, texts=None, funcs=()):
        self.failures = failures
        self.texts = texts
        self.funcs = funcs

    def digest(self):
        if self.texts is None:
            return None
        return hashlib.sha256("\n".join(self.texts).encode()).hexdigest()


def _rational(rng):
    return Fraction(rng.randint(1, 1000), rng.randint(1, 1000))


def _build(lib, span, series, rank):
    rs = span("rootdata.build_root_system", lib.rootdata.build_root_system, series, rank)
    model = span("groups.build_model", lib.groups.build_model, rs)
    lam = span("poisson.build_lambda", lib.poisson.build_lambda, model)
    return model, lam


def _charts(lib, span, model, qkind, v):
    space = lib.atlas.SpaceSpec(model, qkind, v)
    return space, span("atlas.enumerate_charts", lib.atlas.enumerate_charts, space)


class Workload:
    name = ""

    def prepare(self, lib, ctx, inputs, span):
        """Work every item needs before the first one runs (timed into the pass)."""


# -- atlas-verify ----------------------------------------------------------------


class AtlasVerify(Workload):
    """SL(4)/N(w0): bracket, CGL, Jacobi and Hamiltonian checks on sampled charts."""

    name = "atlas-verify"
    space_label = "SL(4)/N(w0)"

    def setup(self, lib, span):
        model, lam = _build(lib, span, "A", 3)
        _, specs = _charts(lib, span, model, "Nv", model.rs.w0)
        return {"lam": lam, "specs": specs}

    def inputs(self, ctx, seed, size):
        rng = random.Random(seed)
        picked = rng.sample(range(len(ctx["specs"])), SIZES["full"]["atlas_charts"])
        return {"charts": picked[: SIZES[size]["atlas_charts"]]}

    def items(self, lib, ctx, inputs, span):
        return [self._item(lib, ctx, index, span) for index in inputs["charts"]]

    def _item(self, lib, ctx, index, span):
        def run():
            chart = span("atlas.parametrize", lib.atlas.parametrize, ctx["specs"][index])
            table = span("poisson.chart_bracket", lib.poisson.chart_bracket, chart, ctx["lam"])
            pres = span("cgl.predicted_cgl", lib.cgl.predicted_cgl, chart)
            rep = span("cgl.verify_cgl", lib.cgl.verify_cgl, table, pres)
            jac = span("poisson.jacobi_check", lib.poisson.jacobi_check, table)
            hams = [
                span("cgl.hamiltonian_report", lib.cgl.hamiltonian_report, table, pres, j, verified=rep)
                for j in range(1, table.n_vars + 1)
            ]
            return table, rep, jac, hams

        def check(out):
            table, rep, jac, hams = out
            failures = []
            if not rep.ok:
                failures.append("verify_cgl is not ok")
            if not jac["ok"]:
                failures.append("jacobi_check is not ok")
            bad = [h["coordinate"] for h in hams if not h["ok"]]
            if bad or len(hams) != table.n_vars:
                failures.append(f"hamiltonian_report not ok for coordinates {bad}")
            pairs = table.pairs()
            texts = [f"{i},{j}:{table.entries[(i, j)].text()}" for i, j in pairs]
            return Verdict(failures, texts, [table.entries[p] for p in pairs])

        return Item(f"{self.space_label}:{index}", run, check)


# -- positivity-certify ----------------------------------------------------------


# (series, rank, qkind, v, toric target, toric words); "w0" means the longest word.
POSITIVITY_JOBS = (
    ("A", 1, "Nv", "w0", "G", ("w0", "w0")),
    ("A", 2, "Nv", "w0", "G", ("w0", "w0")),
    ("A", 2, "Bv", "e", "GmodBv", ("w0", "e")),
    ("C", 2, "Nv", "w0", "G", ("w0", "w0")),
)
# Jobs whose toric points are also classified into torus leaves (SL(3), Sp(4) G).
LEAF_JOBS = (1, 3)


class PositivityCertify(Workload):
    """Sampled positivity on every chart of the criterion-6 jobs and Sp(4); leaf labels."""

    name = "positivity-certify"

    def setup(self, lib, span):
        models = {}
        jobs = []
        for series, rank, qkind, v, target, words in POSITIVITY_JOBS:
            if (series, rank) not in models:
                models[(series, rank)] = _build(lib, span, series, rank)[0]
            model = models[(series, rank)]
            rs = model.rs

            def element(w):
                return rs.w0 if w == "w0" else rs.identity

            space, specs = _charts(lib, span, model, qkind, element(v))
            tspec = lib.positivity.ToricChartSpec(model, target, tuple(element(w).canonical for w in words))
            jobs.append({"model": model, "space": space, "specs": specs, "toric": tspec})
        return {"jobs": jobs}

    def inputs(self, ctx, seed, size):
        rng = random.Random(seed)
        sizes = SIZES[size]
        certify = []
        for j, job in enumerate(ctx["jobs"]):
            n = len(job["specs"]) if size == "full" else 1
            for c in range(n):
                certify.append([j, c, rng.randrange(2**32)])
        leaves = []
        for j in LEAF_JOBS:
            n_params = ctx["jobs"][j]["toric"].n_params()
            for _ in range(sizes["leaf_points"]):
                leaves.append([j, [str(_rational(rng)) for _ in range(n_params)]])
        return {"samples": sizes["pos_samples"], "certify": certify, "leaves": leaves}

    def items(self, lib, ctx, inputs, span):
        out = [self._certify(lib, ctx, j, c, s, inputs["samples"], span) for j, c, s in inputs["certify"]]
        out += [self._leaf(lib, ctx, j, [Fraction(x) for x in params], span) for j, params in inputs["leaves"]]
        return out

    def _certify(self, lib, ctx, j, c, sample_seed, n_samples, span):
        job = ctx["jobs"][j]

        def run():
            chart = span("atlas.parametrize", lib.atlas.parametrize, job["specs"][c])
            return span(
                "positivity.certify_chart_positivity",
                lib.positivity.certify_chart_positivity,
                chart,
                job["toric"],
                n_samples,
                sample_seed,
            )

        def check(rep):
            ok = rep["ok"] and rep["n_samples"] == n_samples and len(rep["samples"]) == n_samples
            return Verdict([] if ok else [f"certify_chart_positivity not ok: {rep['violations'][:2]}"])

        return Item(f"{job['space']!r}:{c}", run, check)

    def _leaf(self, lib, ctx, j, params, span):
        job = ctx["jobs"][j]
        rs = job["model"].rs

        def run():
            point = span("positivity.toric_point", lib.positivity.toric_point, job["toric"], params)
            return span("leaves.t_leaf_classify", lib.leaves.t_leaf_classify, job["space"], point)

        def check(label):
            ok = label.w == rs.w0 and label.y == rs.identity
            return Verdict([] if ok else [f"leaf label {label!r} is not (w0, e)"])

        return Item(f"{job['space']!r}:leaf", run, check)


# -- coord-changes -----------------------------------------------------------------


class CoordChanges(Workload):
    """All SL(3)/N(w0) chart changes plus a stratified seed-chosen set on Sp(4)/N(w0)."""

    name = "coord-changes"

    def setup(self, lib, span):
        spaces = []
        for series, rank in (("A", 2), ("C", 2)):
            model, _ = _build(lib, span, series, rank)
            spaces.append(_charts(lib, span, model, "Nv", model.rs.w0))
        return {"spaces": spaces}

    def inputs(self, ctx, seed, size):
        """Every ordered SL(3) pair; on Sp(4) a design stratified by Weyl element.

        Sp(4) change costs differ by a factor of 30 between pairs of Weyl
        elements, so a plain random sample would make the pass length depend
        on the seed.  Instead each source chart gets one seed-chosen target
        chart in every fourth Weyl class (the phase of the four is drawn from
        the seed), which fixes how often each pair of Weyl elements occurs.
        """
        rng = random.Random(seed)
        sl3_specs = ctx["spaces"][0][1]
        sp4_specs = ctx["spaces"][1][1]
        n3 = len(sl3_specs)
        sl3 = [[0, i, j] for i in range(n3) for j in range(n3) if i != j]
        classes = {}
        for idx, spec in enumerate(sp4_specs):
            classes.setdefault(spec.w.canonical, []).append(idx)
        groups = list(classes.values())
        offset = rng.randrange(SP4_PHASE)
        sp4 = []
        for i in range(len(sp4_specs)):
            for c, members in enumerate(groups):
                targets = [j for j in members if j != i]
                if (i + c + offset) % SP4_PHASE == 0 and targets:
                    sp4.append([1, i, rng.choice(targets)])
        pairs = sl3 + sp4
        rng.shuffle(pairs)
        if size == "smoke":
            pairs = [p for p in pairs if p[0] == 0][:3] + [p for p in pairs if p[0] == 1][:1]
        points = []
        for _, specs in ctx["spaces"]:
            dims = specs[0].space.dims()
            points.append([str(_rational(rng)) for _ in range(dims)])
        return {"pairs": pairs, "points": points}

    def prepare(self, lib, ctx, inputs, span):
        ctx["charts"] = [
            {c: span("atlas.parametrize", lib.atlas.parametrize, specs[c]) for c in _used(inputs, s)}
            for s, (_, specs) in enumerate(ctx["spaces"])
        ]
        ctx["numeric"] = [{} for _ in ctx["spaces"]]

    def items(self, lib, ctx, inputs, span):
        return [self._item(lib, ctx, inputs, s, i, j, span) for s, i, j in inputs["pairs"]]

    def _item(self, lib, ctx, inputs, s, i, j, span):
        charts = ctx["charts"][s]
        src, dst = charts[i], charts[j]
        model = src.spec.space.model

        def run():
            return span("atlas.change_of_coordinates", lib.atlas.change_of_coordinates, src, dst)

        def check(formula):
            point = {v: Fraction(x) for v, x in zip(src.zvars, inputs["points"][s])}
            numeric = ctx["numeric"][s]
            if i not in numeric:
                numeric[i] = [[e.evaluate(point) for e in row] for row in src.param.entries]
            expected = [_constant(x) for x in lib.atlas.eval_coordinates(dst, numeric[i])]
            got = [f.evaluate(point) for f in formula]
            failures = [] if got == expected else [f"change {i}->{j} disagrees with eval_coordinates at the check point"]
            return Verdict(failures, [f.text() for f in formula], formula)

        return Item(f"{model.name}:{i}>{j}", run, check)


def _used(inputs, s):
    return sorted({c for t, i, j in inputs["pairs"] if t == s for c in (i, j)})


def _constant(x):
    return x.constant_value() if hasattr(x, "constant_value") else Fraction(x)


WORKLOADS = {w.name: w for w in (AtlasVerify(), PositivityCertify(), CoordChanges())}
