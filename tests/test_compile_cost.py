"""tools/compile_cost.py lists every module of the package once, with its cost, and marks one largest peak."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compile_cost_lists_every_module(capsys):
    spec = importlib.util.spec_from_file_location("compile_cost", ROOT / "tools" / "compile_cost.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["--repeat", "1"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "code", "lines", "compile", "ms", "peak", "MB"]
    assert [row.split()[0] for row in rows] == sorted(p.name for p in (ROOT / "src" / "bsatlas").glob("*.py"))
    assert all(int(row.split()[1]) > 0 and float(row.split()[2]) >= 0 for row in rows)
    marked = [row.split()[0] for row in rows if row.endswith("<- largest peak")]
    peaks = {row.split()[0]: float(row.split()[3]) for row in rows}
    assert len(marked) == 1 and peaks[marked[0]] == max(peaks.values())
