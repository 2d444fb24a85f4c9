"""Reproduction suite: regenerate the four reference computations and diff
them against the shipped golden files in canonical form."""

from __future__ import annotations

import json
from importlib import resources

from .atlas import ChartSpec, SpaceSpec, change_of_coordinates, parametrize
from .cgl import predicted_cgl, verify_cgl
from .groups import cached_model
from .leaves import t_leaf_classify
from .poisson import chart_bracket, jacobi_check
from .positivity import ToricChartSpec, certify_chart_positivity, toric_point
from .serialize import ratfunc_from_json
from .symbolic import RatFunc, VarName, var

CASES = ("sl2-remark", "sl3-atlas", "sl4-brackets", "sp4-coords")


def load_golden(case):
    with resources.files("bsatlas.golden").joinpath(f"{case}.json").open() as fh:
        return json.load(fh)


class DiffReport:
    """Accumulates per-item comparisons of one case against its golden file."""

    def __init__(self, case):
        self.case = case
        self.items = []

    def compare(self, name, got_text, expected_text):
        ok = got_text == expected_text
        self.items.append({"item": name, "ok": ok, "got": got_text, "expected": expected_text})
        return ok

    def check(self, name, ok, detail=""):
        self.items.append({"item": name, "ok": bool(ok), "got": detail, "expected": ""})
        return ok

    @property
    def ok(self):
        return all(i["ok"] for i in self.items)

    def first_mismatch(self):
        for i in self.items:
            if not i["ok"]:
                return i
        return None

    def to_dict(self):
        return {
            "case": self.case,
            "ok": self.ok,
            "n_items": len(self.items),
            "items": [
                {k: v for k, v in item.items() if k != "expected" or not item["ok"]}
                for item in self.items
            ],
        }


def _charts_from_golden(space, golden):
    out = []
    for cdata in golden["charts"]:
        rs = space.model.rs
        w = rs.element_from_word(tuple(cdata["w"]))
        spec = ChartSpec(space, w, tuple(tuple(x) for x in cdata["r"]))
        out.append((parametrize(spec), cdata))
    return out


def _diff_matrix(report, name, chart, cdata):
    for i, row in enumerate(chart.param.entries):
        for j, entry in enumerate(row):
            report.compare(
                f"{name}.matrix[{i + 1}][{j + 1}]",
                RatFunc.coerce(entry).text(),
                cdata["matrix"][i][j]["text"],
            )


def _diff_changes(report, golden, chart_a, chart_b):
    fwd = change_of_coordinates(chart_b, chart_a)
    for idx, f in enumerate(fwd, start=1):
        report.compare(
            f"change.first_from_second[{idx}]",
            RatFunc.coerce(f).text(),
            golden["changes"]["first_from_second"][idx - 1]["text"],
        )
    back = change_of_coordinates(chart_a, chart_b)
    for idx, f in enumerate(back, start=1):
        report.compare(
            f"change.second_from_first[{idx}]",
            RatFunc.coerce(f).text(),
            golden["changes"]["second_from_first"][idx - 1]["text"],
        )


def _run_sl2(report, golden):
    model = cached_model("A", 1)
    rs = model.rs
    space = SpaceSpec(model, "Nv", rs.w0)
    (chart_a, cdata_a), (chart_b, cdata_b) = _charts_from_golden(space, golden)
    _diff_matrix(report, "chart1", chart_a, cdata_a)
    _diff_matrix(report, "chart2", chart_b, cdata_b)
    _diff_changes(report, golden, chart_a, chart_b)
    tspec = ToricChartSpec(model, "G", (rs.w0.canonical, rs.w0.canonical))
    for name, chart in (("chart1", chart_a), ("chart2", chart_b)):
        pos = certify_chart_positivity(chart, tspec, 10, seed=0)
        report.check(f"{name}.positivity(10 samples)", pos["ok"])
    point = toric_point(tspec, [1] * 3)
    lbl = t_leaf_classify(space, point)
    report.check("toric point leaf label (w0, e)", lbl.w == rs.w0 and lbl.y.is_identity())


def _run_sl3(report, golden):
    model = cached_model("A", 2)
    rs = model.rs
    space = SpaceSpec(model, "Nv", rs.w0)
    (chart_a, cdata_a), (chart_b, cdata_b) = _charts_from_golden(space, golden)
    _diff_matrix(report, "chart1", chart_a, cdata_a)
    _diff_matrix(report, "chart2", chart_b, cdata_b)
    _diff_changes(report, golden, chart_a, chart_b)
    for name, chart in (("chart1", chart_a), ("chart2", chart_b)):
        table = chart_bracket(chart)
        ver = verify_cgl(table, predicted_cgl(chart))
        report.check(f"{name}.cgl_verified", ver.ok)
        report.check(f"{name}.jacobi", jacobi_check(table)["ok"])


def _run_sl4(report, golden):
    model = cached_model("A", 3)
    space = SpaceSpec(model, "Bv", model.rs.identity)
    (chart_a, cdata_a), (chart_b, cdata_b) = _charts_from_golden(space, golden)
    _diff_matrix(report, "chart1", chart_a, cdata_a)
    _diff_matrix(report, "chart2", chart_b, cdata_b)
    for name, chart in (("chart1", chart_a), ("chart2", chart_b)):
        idx = 0 if chart is chart_a else 1
        table = chart_bracket(chart)
        for key, rfj in sorted(golden["brackets"][idx].items()):
            i, j = (int(x) for x in key.split(","))
            report.compare(
                f"{name}.bracket[{key}]",
                table.entries[(i, j)].text(),
                rfj["text"],
            )
        ver = verify_cgl(table, predicted_cgl(chart))
        report.check(f"{name}.cgl_verified", ver.ok)
        report.check(f"{name}.jacobi", jacobi_check(table)["ok"])
    _diff_changes(report, golden, chart_a, chart_b)


def _run_sp4(report, golden):
    model = cached_model("C", 2)
    rs = model.rs
    space = SpaceSpec(model, "Nv", rs.w0)
    cdata = golden["chart"]
    spec = ChartSpec(space, rs.element_from_word(tuple(cdata["w"])), tuple(tuple(x) for x in cdata["r"]))
    chart = parametrize(spec)
    bindings = {}
    for i in range(4):
        for j in range(4):
            bindings[VarName("a", 10 * (i + 1) + (j + 1))] = chart.param.entries[i][j]
    for idx in range(1, 11):
        expr = ratfunc_from_json(golden["coords"][idx - 1])
        got = expr.substitute(bindings)
        want = var("z", idx)
        report.check(
            f"coord[{idx}] minor expression",
            (got - want).is_zero(),
            got.text() if not (got - want).is_zero() else f"z{idx}",
        )
    for idx_s, rfj in sorted(golden["alt_coords"].items()):
        idx = int(idx_s)
        expr = ratfunc_from_json(rfj)
        got = expr.substitute(bindings)
        want = var("z", idx)
        report.check(f"alt_coord[{idx}] identity", (got - want).is_zero())
    gl_free = ratfunc_from_json(golden["plucker_identities"]["gl4_free"])
    report.check("plucker gl4 identity (free entries)", gl_free.is_zero())
    sp_rel = ratfunc_from_json(golden["plucker_identities"]["sp4_on_group"])
    report.check("plucker sp4 identity (on the group)", sp_rel.substitute(bindings).is_zero())
    table = chart_bracket(chart)
    report.check("cgl_verified", verify_cgl(table, predicted_cgl(chart)).ok)
    report.check("jacobi", jacobi_check(table)["ok"])


_RUNNERS = {
    "sl2-remark": _run_sl2,
    "sl3-atlas": _run_sl3,
    "sl4-brackets": _run_sl4,
    "sp4-coords": _run_sp4,
}


def repro_case(case) -> DiffReport:
    """Regenerate one case and diff against its golden file."""
    if case not in _RUNNERS:
        raise ValueError(f"unknown case {case!r}; choose from {CASES}")
    golden = load_golden(case)
    report = DiffReport(case)
    _RUNNERS[case](report, golden)
    return report
