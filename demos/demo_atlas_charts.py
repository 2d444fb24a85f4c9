#!/usr/bin/env python3
"""Walk through the atlas on SL(3): census, one chart in full, a coordinate change.

Run:  python demos/demo_atlas_charts.py
"""

from bsatlas.atlas import SpaceSpec, change_of_coordinates, enumerate_charts, eval_coordinates, parametrize
from bsatlas.groups import build_model
from bsatlas.rootdata import build_root_system

model = build_model(build_root_system("A", 2))
rs = model.rs

# The atlas on the group itself: Q = N(w0) = {e}.
space = SpaceSpec(model, "Nv", rs.w0)
charts = enumerate_charts(space)
print(f"SL(3) carries {len(charts)} charts, one per (w, triple of reduced words):")
for spec in charts[:4]:
    print("  ", spec.label())
print("   ...")

# Parametrize the first chart: six affine coordinates plus two torus ones.
chart = parametrize(charts[0])
print("\nfirst chart, symbolic coset representative:")
print(chart.param.pretty())

# Coordinates are generalized minors of the factors of wbar * m * n * t.
print("\ncoordinate recipes:")
for tag, payload in chart.coord_formulas:
    print(f"   {tag}: {payload if tag == 't' else payload.label()}")

# Round trip: extracting coordinates from the representative returns z1..z8.
coords = eval_coordinates(chart, chart.param.entries)
print("\nround trip:", [c.text() for c in coords])

# Changes of coordinates between charts are explicit birational maps.
other = parametrize(charts[15])
print(f"\ncoordinates of [{other.spec.label()}] in terms of the first chart:")
for i, f in enumerate(change_of_coordinates(chart, other), start=1):
    print(f"   z'{i} = {f.text()}")
