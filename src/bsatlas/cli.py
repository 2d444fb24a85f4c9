"""Command-line surface.

Subcommands: roots, charts, chart, bracket, cgl, positivity, tleaf, repro.
Weyl elements are entered as dot-separated words like ``s1.s2.s1`` or the
aliases ``e`` and ``w0``.  All output is a pure function of (argv, seed);
``--json`` switches to machine-readable payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from math import factorial

from .atlas import (
    ChartSpec,
    SpaceSpec,
    change_of_coordinates,
    enumerate_charts,
    parametrize,
    t_weights,
)
from .errors import BSAtlasError
from .groups import GroupElement, cached_model
from .leaves import t_leaf_classify
from .poisson import chart_bracket, jacobi_check
from .positivity import ToricChartSpec, _require_samples, certify_chart_positivity
from .cgl import predicted_cgl, verify_cgl
from .repro import CASES, repro_case
from .rootdata import build_root_system
from .serialize import (
    SCHEMA_VERSION,
    bracket_table_to_json,
    cgl_report_to_json,
    chart_to_json,
    dumps,
)


def parse_word(text):
    text = text.strip()
    if text in ("e", "", "-"):
        return ()
    if text == "w0":
        return "w0"
    letters = []
    for part in text.split("."):
        if not part.startswith("s"):
            raise ValueError(f"bad letter {part!r} (use s1.s2..., e, or w0)")
        letters.append(int(part[1:]))
    return tuple(letters)


def _resolve(rs, word):
    if word == "w0":
        return rs.w0
    return rs.element_from_word(word)


def _space(args):
    """The space of args, refused before its model is built when its Weyl group is over MAX_CHARTS."""
    _check_weyl_order(args.series, args.rank)
    model = cached_model(args.series, args.rank)
    rs = model.rs
    v = _resolve(rs, parse_word(args.v))
    return SpaceSpec(model, args.q, v)


# A request for a larger atlas is refused before any chart is built;
# SL(5)/B(e), with 8448 charts, still lists.
MAX_CHARTS = 10_000

# root data of a larger rank is refused; the positive roots grow as rank^2
MAX_ROOTS_RANK = 30

# A request for more samples is refused before any is drawn; positivity
# samples every chart of the atlas, about 7 s for SL(3)/N(w0) at the limit.
MAX_SAMPLES = 1_000

# positivity over more charts x samples is refused before any chart is
# parametrized: SL(3)/N(w0), 16 charts, at MAX_SAMPLES
MAX_CHART_SAMPLES = 16_000


def _chart_count(space):
    """Sum over w of #rw(w0 w^-1) #rw(w) #rw(v), the size of enumerate_charts(space).

    (w0 w^-1)^-1 = w w0 sends rho to -w(rho), and inverting reverses words.
    """
    counts = space.model.rs.reduced_word_counts()
    return sum(c * counts[tuple(-x for x in lam)] for lam, c in counts.items()) * counts[space.v.rho]


def _check_weyl_order(series, rank):
    """Refuse a Weyl group of over MAX_CHARTS elements, from the series and rank alone.

    Every w in W carries at least one chart, a leaf label walks a Bruhat
    interval that can be as large as W, and even a chart named by its words
    needs the group model, whose cost grows with the rank.
    """
    order = factorial(rank + 1) if series == "A" else 2**rank * factorial(rank)
    if order > MAX_CHARTS:
        raise ValueError(
            f"{series}{rank} has |W| = {order}, so at least {order} charts, over the limit of {MAX_CHARTS}"
        )


def _check_samples(n_samples):
    """Refuse a sampled run of fewer than one or over MAX_SAMPLES samples, before the model is built."""
    _require_samples(n_samples)
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"--samples {n_samples} is over the limit of {MAX_SAMPLES}")


def _charts(space):
    """``enumerate_charts``, refused with a usage error when the atlas is over MAX_CHARTS."""
    count = _chart_count(space)
    if count > MAX_CHARTS:
        raise ValueError(f"{space!r} has {count} charts, over the limit of {MAX_CHARTS}")
    return enumerate_charts(space)


def _indexed_chart(space, index):
    charts = _charts(space)
    if not 0 <= index < len(charts):
        raise ValueError(f"chart index out of range (0..{len(charts) - 1})")
    return charts[index]


def _chart_spec(space, index, w, r):
    """The chart named by its index in the enumeration, or else by w and the triple r."""
    rs = space.model.rs
    if index is not None:
        return _indexed_chart(space, index)
    if r is None:
        raise ValueError("name each chart by --index or --r (the target of a change by --to-index or --to-r)")
    w = _resolve(rs, parse_word(w))
    parts = [parse_word(p) for p in r.split("|")]
    if len(parts) != 3:
        raise ValueError("--r needs three dot-words separated by '|'")
    resolved = []
    for p in parts:
        resolved.append(rs.w0.canonical if p == "w0" else p)
    return ChartSpec(space, w, tuple(resolved))


def _add_space_args(p):
    p.add_argument("--series", choices=["A", "C"], required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--q", choices=["Bv", "Nv"], default="Nv")
    p.add_argument("--v", default="w0", help="v as dot-word, e, or w0")


def _add_chart_args(p):
    p.add_argument("--w", default="e", help="w as dot-word, e, or w0")
    p.add_argument("--r", default=None, help="triple 'w0word|wword|vword'")
    p.add_argument("--index", type=int, default=None, help="chart index in the enumeration")


def cmd_roots(args):
    if args.rank > MAX_ROOTS_RANK:
        raise ValueError(f"rank {args.rank} is over the limit of {MAX_ROOTS_RANK}")
    rs = build_root_system(args.series, args.rank)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "series": rs.series,
        "rank": rs.rank,
        "cartan": [list(r) for r in rs.cartan],
        "form": [[str(x) for x in row] for row in rs.form],
        "simple_roots": [[str(c) for c in r.coeffs] for r in rs.simple_roots],
        "positive_roots": [[str(c) for c in r.coeffs] for r in rs.positive_roots],
        "l0": rs.l0,
        "w0_word": list(rs.w0_word),
    }
    if args.json:
        print(dumps(payload))
    else:
        print(f"{rs.series}{rs.rank}: l0={rs.l0}, w0={'.'.join('s%d' % i for i in rs.w0_word)}")
        print("cartan:", payload["cartan"])
        print("form:", payload["form"])
    return 0


def cmd_charts_list(args):
    space = _space(args)
    charts = _charts(space)
    if args.json:
        print(
            dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "space": repr(space),
                    "count": len(charts),
                    "charts": [
                        {"index": i, "w": list(c.w.canonical), "r": [list(x) for x in c.r]}
                        for i, c in enumerate(charts)
                    ],
                }
            )
        )
    else:
        for i, c in enumerate(charts):
            print(f"[{i:2d}] {c.label()}")
        print(f"total: {len(charts)} charts")
    return 0


def cmd_chart_show(args):
    space = _space(args)
    spec = _chart_spec(space, args.index, args.w, args.r)
    chart = parametrize(spec)
    payload = chart_to_json(chart)
    if args.json:
        print(dumps(payload))
    else:
        print(spec.label())
        print("coordinates:")
        for c in payload["coordinates"]:
            print("  ", c)
        print("parametrization:")
        print(chart.param.pretty())
        print("t-weights:", [[str(x) for x in w.coeffs] for w in t_weights(chart)])
    return 0


def cmd_chart_change(args):
    space = _space(args)
    src = parametrize(_chart_spec(space, args.index, args.w, args.r))
    dst = parametrize(_chart_spec(space, args.to_index, args.to_w, args.to_r))
    out = change_of_coordinates(src, dst)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "from": src.spec.label(),
        "to": dst.spec.label(),
        "formulas": [f.text() for f in out],
    }
    if args.json:
        print(dumps(payload))
    else:
        print(f"{payload['to']}  in coordinates of  {payload['from']}:")
        for i, f in enumerate(payload["formulas"], start=1):
            print(f"  z'{i} = {f}")
    return 0


def cmd_bracket(args):
    space = _space(args)
    spec = _chart_spec(space, args.index, args.w, args.r)
    payload = bracket_table_to_json(chart_bracket(parametrize(spec)))
    if args.json:
        print(dumps(payload))
    else:
        print(spec.label())
        for k, v in sorted(payload["entries"].items(), key=lambda kv: tuple(map(int, kv[0].split(",")))):
            i, j = k.split(",")
            print(f"  {{z{i}, z{j}}} = {v['text']}")
    return 0


def cmd_cgl_verify(args):
    space = _space(args)
    spec = _chart_spec(space, args.index, args.w, args.r)
    chart = parametrize(spec)
    table = chart_bracket(chart)
    report = verify_cgl(table, predicted_cgl(chart))
    jac = jacobi_check(table)
    payload = cgl_report_to_json(report)
    payload["jacobi"] = {"ok": jac["ok"], "mode": jac["mode"]}
    if args.json:
        print(dumps(payload))
    else:
        print(spec.label())
        for name, res in report.checks.items():
            print(f"  {name}: {'pass' if res['ok'] else 'FAIL ' + str(res['witnesses'][:2])}")
        print(f"  jacobi ({jac['mode']}): {'pass' if jac['ok'] else 'FAIL'}")
    return 0 if (report.ok and jac["ok"]) else 1


def cmd_positivity(args):
    _check_samples(args.samples)
    space = _space(args)
    model = space.model
    rs = model.rs
    if space.qkind == "Nv" and space.v == rs.w0:
        tspec = ToricChartSpec(model, "G", (rs.w0.canonical, rs.w0.canonical))
    else:
        kind = "GmodBv" if space.qkind == "Bv" else "GmodNv"
        tspec = ToricChartSpec(model, kind, (rs.w0.canonical, space.v.canonical))
    charts = _charts(space) if args.index is None else [_indexed_chart(space, args.index)]
    if len(charts) * args.samples > MAX_CHART_SAMPLES:
        raise ValueError(f"{len(charts)} charts x {args.samples} samples, over the limit of {MAX_CHART_SAMPLES}")
    all_ok = True
    results = []
    for spec in charts:
        chart = parametrize(spec)
        rep = certify_chart_positivity(chart, tspec, args.samples, args.seed)
        all_ok = all_ok and rep["ok"]
        results.append(rep)
        if not args.json:
            print(f"{spec.label()}: {'ok' if rep['ok'] else 'VIOLATIONS'} (min coord {rep['min_coordinate']})")
    if args.json:
        slim = [
            {k: r[k] for k in ("chart", "n_samples", "seed", "ok", "min_coordinate", "violations")}
            for r in results
        ]
        print(dumps({"schema_version": SCHEMA_VERSION, "ok": all_ok, "reports": slim}))
    return 0 if all_ok else 1


def cmd_tleaf(args):
    if not args.point:
        _check_samples(args.samples)
    space = _space(args)
    model = space.model
    labels = []
    if args.point:
        rows = json.loads(args.point)
        n = model.dim
        shape_ok = isinstance(rows, list) and len(rows) == n
        if not (shape_ok and all(isinstance(r, list) and len(r) == n for r in rows)):
            raise ValueError(f"--point must be a {n}x{n} matrix for {model.name}")
        # an exponent such as "1e999999999" would build its power of ten before any check
        if any(type(x) is not int and not (type(x) is str and "e" not in x.lower()) for row in rows for x in row):
            raise ValueError('--point entries must be integers or rational strings such as "1/3", not floats or exponents')
        try:
            mat = [[Fraction(x) for x in row] for row in rows]
        except ZeroDivisionError:
            raise ValueError("--point has an entry with a zero denominator") from None
        if not GroupElement(model, mat).satisfies_group_constraint():
            raise ValueError(f"--point is not an element of {model.name}")
        lbl = t_leaf_classify(space, (mat, 1))
        labels.append((None, lbl))
    else:
        rng = random.Random(args.seed)
        for s in range(args.samples):
            g = _random_element(model, rng)
            lbl = t_leaf_classify(space, g)
            labels.append((s, lbl))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "labels": [
            {
                "sample": s,
                "w": list(l.w.canonical),
                "y": list(l.y.canonical),
            }
            for s, l in labels
        ],
    }
    if args.json:
        print(dumps(payload))
    else:
        for s, l in labels:
            wn = ".".join(f"s{i}" for i in l.w.canonical) or "e"
            yn = ".".join(f"s{i}" for i in l.y.canonical) or "e"
            print(f"sample {s}: w={wn}, y={yn}")
    return 0


def _random_element(model, rng):
    """Random exact-rational group element spread across Bruhat cells, as the scaled point of ``GroupModel.word_point``."""
    rs = model.rs
    letters, params = [], []
    for _ in range(rng.randint(1, 2 * rs.l0)):
        i = rng.randint(1, rs.rank)
        params.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        letters.append(i if rng.random() < 0.5 else -i)
        if rng.random() < 0.3:
            letters.append((i,))
    vals = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rs.rank)]
    return model.word_point(letters, params, vals)


def cmd_repro(args):
    cases = CASES if args.case == "all" else (args.case,)
    all_ok = True
    out = []
    for case in cases:
        rep = repro_case(case)
        out.append(rep.to_dict())
        all_ok = all_ok and rep.ok
        if not args.json:
            mark = "clean" if rep.ok else "MISMATCH"
            print(f"{case}: {mark} ({len(rep.items)} items)")
            if not rep.ok:
                bad = rep.first_mismatch()
                print(f"  first mismatch at {bad['item']}: got {bad['got']}")
    if args.json:
        print(dumps({"schema_version": SCHEMA_VERSION, "ok": all_ok, "cases": out}))
    return 0 if all_ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="bsatlas", description=__doc__)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="root system data")
    sp.add_argument("--series", choices=["A", "C"], required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.set_defaults(fn=cmd_roots)

    sp = sub.add_parser("charts", help="atlas chart census")
    ssub = sp.add_subparsers(dest="subcommand", required=True)
    lp = ssub.add_parser("list")
    _add_space_args(lp)
    lp.set_defaults(fn=cmd_charts_list)

    sp = sub.add_parser("chart", help="one chart: show or change coordinates")
    ssub = sp.add_subparsers(dest="subcommand", required=True)
    shp = ssub.add_parser("show")
    _add_space_args(shp)
    _add_chart_args(shp)
    shp.set_defaults(fn=cmd_chart_show)
    chp = ssub.add_parser("change")
    _add_space_args(chp)
    _add_chart_args(chp)
    chp.add_argument("--to-w", default="e")
    chp.add_argument("--to-r", default=None)
    chp.add_argument("--to-index", type=int, default=None)
    chp.set_defaults(fn=cmd_chart_change)

    sp = sub.add_parser("bracket", help="chart bracket table")
    _add_space_args(sp)
    _add_chart_args(sp)
    sp.set_defaults(fn=cmd_bracket)

    sp = sub.add_parser("cgl", help="CGL presentation checks")
    ssub = sp.add_subparsers(dest="subcommand", required=True)
    vp = ssub.add_parser("verify")
    _add_space_args(vp)
    _add_chart_args(vp)
    vp.set_defaults(fn=cmd_cgl_verify)

    sp = sub.add_parser("positivity", help="exact positivity certification")
    _add_space_args(sp)
    sp.add_argument("--index", type=int, default=None)
    sp.add_argument("--samples", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_positivity)

    sp = sub.add_parser("tleaf", help="torus-leaf classification")
    _add_space_args(sp)
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--point", default=None, help="JSON matrix of rationals")
    sp.set_defaults(fn=cmd_tleaf)

    sp = sub.add_parser("repro", help="golden reproduction suite")
    sp.add_argument("case", choices=list(CASES) + ["all"])
    sp.set_defaults(fn=cmd_repro)
    return p


def main(argv=None):
    """Run one command; exit code 0 ok, 1 failed verification, internal invariant or closed stdout, 2 usage."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: point it at devnull so that the flush at exit
        # cannot raise again (the Python documentation's note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (BSAtlasError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"error: internal invariant failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
