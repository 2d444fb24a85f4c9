"""tools/stage_cost.py times each stage of the per-chart pipeline on seeded charts drawn without enumeration."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("stage_cost", ROOT / "tools" / "stage_cost.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_stage_cost_prints_every_stage_on_sl2(capsys):
    tool = _tool()
    tool.main(["--series", "A", "--rank", "1", "--charts", "3", "--repeat", "1"])
    title, header, *rows, total = capsys.readouterr().out.splitlines()
    assert title == "A1 Nv(w0): 3 charts, seed 0, best of 1"
    assert header.split() == ["stage", "ms/chart", "fma/chart"]
    assert [row.split()[0] for row in rows] == list(tool.STAGES)
    assert all(float(row.split()[1]) >= 0 and float(row.split()[2]) >= 0 for row in rows)
    assert total.split()[0] == "total"


def test_random_specs_are_validated_charts_of_the_space():
    """Each drawn chart passes the validating ChartSpec: its words are reduced words of w0 w^{-1}, w and v."""
    import random

    from bsatlas.atlas import ChartSpec, SpaceSpec
    from bsatlas.groups import cached_model

    tool = _tool()
    m = cached_model("A", 3)
    rng = random.Random(1)
    for qkind, v in (("Nv", m.rs.w0), ("Bv", m.rs.identity)):
        space = SpaceSpec(m, qkind, v)
        for _ in range(10):
            spec = tool.random_spec(space, rng)
            assert ChartSpec(space, spec.w, spec.r).key() == spec.key()
            assert len(spec.r[2]) == v.length()
