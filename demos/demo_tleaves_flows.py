#!/usr/bin/env python3
"""Torus leaves of the standard Poisson structure and Hamiltonian flows.

Run:  python demos/demo_tleaves_flows.py
"""

import random
from fractions import Fraction
from math import lcm

from bsatlas.atlas import SpaceSpec, enumerate_charts, parametrize
from bsatlas.cgl import hamiltonian_flow
from bsatlas.groups import build_model
from bsatlas.leaves import t_leaf_classify
from bsatlas.poisson import chart_bracket
from bsatlas.positivity import ToricChartSpec, toric_point
from bsatlas.rootdata import build_root_system
from bsatlas.symbolic import RatFunc, VarName, var

model = build_model(build_root_system("A", 2))
rs = model.rs
space = SpaceSpec(model, "Nv", rs.w0)

# Leaves of the group itself are the double Bruhat cells; a totally
# positive point sits in the open one.
tp = toric_point(ToricChartSpec(model, "G", (rs.w0.canonical, rs.w0.canonical)), [1] * 8)
lbl = t_leaf_classify(space, tp)
print("totally positive point:", lbl)

rng = random.Random(0)
print("\nrandom rational points and their leaf labels (w, y), always y <= w * v:")
for _ in range(6):
    letters, params = [], []
    for _ in range(rng.randint(1, 5)):
        i = rng.randint(1, 2)
        letters.append(i if rng.random() < 0.5 else -i)
        params.append(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
    lbl = t_leaf_classify(space, model.word_point(letters, params))
    wn = ".".join(f"s{i}" for i in lbl.w.canonical) or "e"
    yn = ".".join(f"s{i}" for i in lbl.y.canonical) or "e"
    print(f"   w = {wn:10s} y = {yn}")

# Hamiltonian flow of a chart coordinate, in closed form: every coordinate is
# an exponential polynomial sum c t^p e^(lam t), entire in t, so the flow is
# complete.
chart = parametrize(enumerate_charts(space)[3])
table = chart_bracket(chart)
start = {i: Fraction(i + 1, i + 3) for i in range(1, 9)}
x = hamiltonian_flow(table, 1, start)


def show(e):
    terms = [
        f"({c})" + (f" t^{p}" if p else "") + (f" e^({lam} t)" if lam else "")
        for (p, lam), c in sorted(e.items())
    ]
    return " + ".join(terms) or "0"


print("\nflow of z1, exactly:")
for m, e in enumerate(x, 1):
    print(f"   z{m}(t) = {show(e)}")

# The leaf label is invariant along the flow (generic start): classify the
# representative at a formal t and E = e^(t/D), D the lcm of the rates'
# denominators.
d = lcm(*(lam.denominator for e in x for _, lam in e))
t, big_e = var("t"), var("E")
formal = {
    m: sum((c * t**p * big_e ** int(lam * d) for (p, lam), c in e.items()), RatFunc.zero())
    for m, e in enumerate(x, 1)
}
rep_at = lambda pt: [
    [f.substitute({VarName("z", i): pt[i] for i in pt}) for f in row]
    for row in chart.param.entries
]
lbl0 = t_leaf_classify(space, (rep_at(start), 1))
lbl1 = t_leaf_classify(space, (rep_at(formal), 1))
print("leaf label preserved along the flow:", lbl0 == lbl1)
