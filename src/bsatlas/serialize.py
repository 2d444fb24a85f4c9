"""Deterministic JSON encodings for symbolic values, charts, and tables.

Every payload carries ``schema_version``; rational functions are stored both
as structured term lists (loadable without a parser) and as canonical text
(used for byte-exact diffs).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .symbolic import MultiPoly, RatFunc, VarName

SCHEMA_VERSION = 1


def poly_to_json(p: MultiPoly):
    return {
        "vars": [str(v) for v in p.vars],
        "terms": [[list(exp), str(c)] for exp, c in p.sorted_terms()],
    }


def poly_from_json(obj) -> MultiPoly:
    vars = tuple(VarName.parse(s) for s in obj["vars"])
    terms = {tuple(exp): Fraction(c) for exp, c in obj["terms"]}
    return MultiPoly._make(vars, terms)


def ratfunc_to_json(f: RatFunc):
    return {
        "num": poly_to_json(f.num),
        "den": poly_to_json(f.den),
        "text": f.text(),
    }


def ratfunc_from_json(obj) -> RatFunc:
    return RatFunc(poly_from_json(obj["num"]), poly_from_json(obj["den"]))


def matrix_text(entries):
    return [[RatFunc.coerce(x).text() for x in row] for row in entries]


def chart_to_json(chart):
    spec = chart.spec
    return {
        "schema_version": SCHEMA_VERSION,
        "space": {
            "model": spec.space.model.name,
            "qkind": spec.space.qkind,
            "v": list(spec.space.v.canonical),
            "omega_order": list(range(1, spec.space.model.rs.rank + 1)),
        },
        "w": list(spec.w.canonical),
        "r": [list(word) for word in spec.r],
        "coordinates": [
            {"tag": tag, "minor": payload.label()} if tag != "t" else {"tag": "t", "omega": payload}
            for tag, payload in chart.coord_formulas
        ],
        "parametrization": matrix_text(chart.param.entries),
    }


def bracket_table_to_json(table):
    return {
        "schema_version": SCHEMA_VERSION,
        "n_vars": table.n_vars,
        "laurent_vars": list(table.laurent_vars),
        "entries": {
            f"{i},{j}": ratfunc_to_json(f) for (i, j), f in sorted(table.entries.items())
        },
    }


def cgl_report_to_json(report):
    return {
        "schema_version": SCHEMA_VERSION,
        **report.to_dict(),
        "f_terms": {f"{i},{j}": f.text() for (i, j), f in sorted(report.f_terms.items())},
    }


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)
