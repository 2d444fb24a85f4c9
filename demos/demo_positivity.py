#!/usr/bin/env python3
"""Exact total positivity: toric sampling and coordinate certification.

Run:  python demos/demo_positivity.py
"""

from fractions import Fraction

from bsatlas.atlas import SpaceSpec, enumerate_charts, parametrize
from bsatlas.groups import build_model
from bsatlas.positivity import (
    ToricChartSpec,
    certify_chart_positivity,
    certify_minor_positivity,
    certify_toric_equivalence,
    toric_coordinates,
    toric_point,
)
from bsatlas.rootdata import build_root_system

model = build_model(build_root_system("A", 2))
rs = model.rs

# A toric chart on the group: two reduced words of w0 plus torus values.
tspec = ToricChartSpec(model, "G", ((1, 2, 1), (2, 1, 2)))
point = toric_point(tspec, [Fraction(1)] * 8)
print("totally positive point at all-ones parameters:")
for row in point.entries:
    print("  ", [str(x) for x in row])

# The chart inversion is exact; parameters come back on the nose.
c = [Fraction(p, q) for p, q in [(2, 3), (1, 2), (5, 4), (1, 3), (3, 2), (2, 5), (7, 6), (1, 4)]]
assert toric_coordinates(tspec, toric_point(tspec, c)) == c
print("\ntoric chart inversion: exact round trip on rational parameters")

# All chart coordinates take positive values on toric samples (exact check).
space = SpaceSpec(model, "Nv", rs.w0)
chart = parametrize(enumerate_charts(space)[0])
rep = certify_chart_positivity(chart, tspec, 50, seed=0)
print(f"\nchart positivity over 50 exact samples: ok={rep['ok']}, "
      f"smallest coordinate value {rep['min_coordinate']}")

# Flag minors with weakly-ordered column element are positive as well.
rep = certify_minor_positivity(space, rs.w0, rs.element_from_word((1, 2)), 2, 30)
print(f"flag minor positivity ({rep['minor']}): ok={rep['ok']}")

# Two toric charts define the same positive structure: the coordinate
# change sends positive samples to positive parameters.
other = ToricChartSpec(model, "G", ((2, 1, 2), (1, 2, 1)))
rep = certify_toric_equivalence(tspec, other, 30, seed=0)
print(f"toric equivalence across word choices: ok={rep['ok']}")
