#!/usr/bin/env python3
"""Print the per-chart cost of each stage of the per-chart pipeline, on seeded charts of one space.

The pipeline is the one a whole-atlas verification runs on every chart:
``parametrize`` (with the Laurent representative it builds when first read),
``chart_bracket``, ``predicted_cgl``, ``verify_cgl``, ``jacobi_check`` and
``hamiltonian_report`` for every coordinate.  Each row gives the median over
the charts of the best of ``--repeat`` runs of that stage, in ms per chart,
and the median number of ``laurent_fma`` calls the stage makes on one chart,
counted in a separate run so that the count does not slow the timing.

A chart is drawn without listing the atlas: a random reduced word of w0,
grown one letter at a time, is cut at a random point into the words of
w0 w^{-1} and w, and the words pass through the validating ``ChartSpec``.
On G/N(w0) the v word is another random reduced word of w0; on G/B(e) it is
empty.  So SL(5) and SL(6) need no enumeration.

    python3 tools/stage_cost.py --series A --rank 3 --q Nv --v w0 --charts 64
    python3 tools/stage_cost.py --series A --rank 4 --charts 120 --seed 1
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bsatlas import cgl, groups, laurent, linalg, poisson  # noqa: E402
from bsatlas.atlas import ChartSpec, SpaceSpec, parametrize  # noqa: E402
from bsatlas.groups import cached_model  # noqa: E402

STAGES = ("parametrize", "chart_bracket", "predicted_cgl", "verify_cgl", "jacobi_check", "hamiltonian_report")
# every module that calls laurent_fma imports it by name
_FMA_USERS = (cgl, groups, linalg, poisson)


def random_reduced_word(rs, rng):
    """A reduced word of w0, each letter drawn among those that keep the word reduced."""
    word = ()
    while len(word) < rs.l0:
        word += (rng.choice([i for i in range(1, rs.rank + 1) if rs.is_reduced(word + (i,))]),)
    return word


def random_spec(space, rng):
    """A chart of space: a random reduced word of w0 cut at a random point, with a random v word on N(w0)."""
    rs = space.model.rs
    word = random_reduced_word(rs, rng)
    cut = rng.randint(0, len(word))
    v_word = random_reduced_word(rs, rng) if space.v is rs.w0 else ()
    return ChartSpec(space, rs.element_from_word(word[cut:]), (word[:cut], word[cut:], v_word))


def run_stages(spec, lam):
    """{stage: seconds} for one run of the pipeline on spec."""
    out = {}

    def timed(stage, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        out[stage] = out.get(stage, 0.0) + time.perf_counter() - start
        return value

    chart = timed("parametrize", lambda: (c := parametrize(spec), c.rep)[0])
    table = timed("chart_bracket", poisson.chart_bracket, chart, lam)
    pres = timed("predicted_cgl", cgl.predicted_cgl, chart)
    rep = timed("verify_cgl", cgl.verify_cgl, table, pres)
    jac = timed("jacobi_check", poisson.jacobi_check, table)
    hams = [timed("hamiltonian_report", cgl.hamiltonian_report, table, pres, j, rep) for j in range(1, table.n_vars + 1)]
    if not (rep.ok and jac["ok"] and all(h["ok"] for h in hams)):
        raise AssertionError(f"the pipeline fails on {spec.label()}")
    return out


def count_fma(spec, lam):
    """{stage: laurent_fma calls} for one run of the pipeline on spec."""
    counts, stage = {}, [None]

    def counting(*args):
        counts[stage[0]] = counts.get(stage[0], 0) + 1
        return laurent.laurent_fma(*args)

    def staged(name, fn):
        def call(*args):
            stage[0] = name
            return fn(*args)

        return call

    for module in _FMA_USERS:
        module.laurent_fma = counting
    try:
        chart = staged("parametrize", lambda: (c := parametrize(spec), c.rep)[0])()
        table = staged("chart_bracket", poisson.chart_bracket)(chart, lam)
        pres = staged("predicted_cgl", cgl.predicted_cgl)(chart)
        rep = staged("verify_cgl", cgl.verify_cgl)(table, pres)
        staged("jacobi_check", poisson.jacobi_check)(table)
        for j in range(1, table.n_vars + 1):
            staged("hamiltonian_report", cgl.hamiltonian_report)(table, pres, j, rep)
    finally:
        for module in _FMA_USERS:
            module.laurent_fma = laurent.laurent_fma
    return counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--series", default="A")
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--q", choices=("Bv", "Nv"), default="Nv")
    ap.add_argument("--v", choices=("e", "w0"), default="w0")
    ap.add_argument("--charts", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=3, help="runs per chart; each stage keeps its best")
    args = ap.parse_args(argv)
    model = cached_model(args.series, args.rank)
    space = SpaceSpec(model, args.q, model.rs.w0 if args.v == "w0" else model.rs.identity)
    rng = random.Random(args.seed)
    specs = [random_spec(space, rng) for _ in range(args.charts)]
    lam = poisson.build_lambda(model)
    best, fmas = [], []
    for spec in specs:
        runs = [run_stages(spec, lam) for _ in range(args.repeat)]
        best.append({s: min(r[s] for r in runs) for s in STAGES})
        fmas.append(count_fma(spec, lam))
    print(f"{args.series}{args.rank} {args.q}({args.v}): {len(specs)} charts, seed {args.seed}, best of {args.repeat}")
    print(f"{'stage':<20}{'ms/chart':>10}{'fma/chart':>11}")
    for s in STAGES:
        ms = statistics.median(b[s] for b in best) * 1e3
        print(f"{s:<20}{ms:>10.3f}{statistics.median(f.get(s, 0) for f in fmas):>11g}")
    total = statistics.median(sum(b.values()) for b in best) * 1e3
    print(f"{'total':<20}{total:>10.3f}{statistics.median(sum(f.values()) for f in fmas):>11g}")


if __name__ == "__main__":
    main()
