"""tools/compile_cost.py lists every module of the package once, with its cost, and marks one largest peak;
with --base it gives each module's change against a git revision."""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.name for p in (ROOT / "src" / "bsatlas").glob("*.py"))


def _tool():
    spec = importlib.util.spec_from_file_location("compile_cost", ROOT / "tools" / "compile_cost.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compile_cost_lists_every_module(capsys):
    _tool().main(["--repeat", "1"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "code", "lines", "compile", "ms", "peak", "MB"]
    assert [row.split()[0] for row in rows] == MODULES
    assert all(int(row.split()[1]) > 0 and float(row.split()[2]) >= 0 for row in rows)
    marked = [row.split()[0] for row in rows if row.endswith("<- largest peak")]
    peaks = {row.split()[0]: float(row.split()[3]) for row in rows}
    assert len(marked) == 1 and peaks[marked[0]] == max(peaks.values())


def test_base_gives_the_change_in_code_lines_against_git_show(capsys):
    """Against HEAD, each module's change in code lines is its count now less its count in ``git show HEAD:path``."""
    tool = _tool()
    tool.main(["--repeat", "1", "--base", "HEAD"])
    header, *rows, last = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "code", "lines", "compile", "ms", "peak", "MB", "d", "lines", "d", "peak", "MB"]
    at_head = subprocess.run(["git", "ls-tree", "--name-only", "HEAD:src/bsatlas"], cwd=ROOT, capture_output=True, text=True)
    names = sorted(set(MODULES) | {n for n in at_head.stdout.split() if n.endswith(".py")})
    assert [row.split()[0] for row in rows] == names
    for row in rows:
        name, fields = row.split()[0], row.split()
        if name in MODULES and "(new)" not in row:
            shown = subprocess.run(["git", "show", f"HEAD:src/bsatlas/{name}"], cwd=ROOT, capture_output=True, text=True)
            now = tool.code_lines((ROOT / "src" / "bsatlas" / name).read_text())
            assert int(fields[4]) == now - tool.code_lines(shown.stdout), row
    assert last.startswith("largest peak ") and "; at HEAD " in last


def test_base_marks_new_and_deleted_modules(capsys, monkeypatch):
    """A module only in the working tree is new, with its whole count as the change; one only at REV is deleted."""
    tool = _tool()
    texts = tool.sources()
    base = {"errors.py": texts["errors.py"] + "X = 1\n", "gone.py": "A = 1\nB = 2\n"}
    monkeypatch.setattr(tool, "sources", lambda rev=None: texts if rev is None else base)
    tool.main(["--repeat", "1", "--base", "REV"])
    _, *rows, last = capsys.readouterr().out.splitlines()
    by_name = {row.split()[0]: row for row in rows}
    assert by_name["errors.py"].split()[4] == "-1" and "(" not in by_name["errors.py"]
    assert by_name["gone.py"].split()[1:5] == ["0", "0.00", "0.000", "-2"] and by_name["gone.py"].endswith("(deleted)")
    assert by_name["atlas.py"].split()[4] == "+" + by_name["atlas.py"].split()[1] and "(new)" in by_name["atlas.py"]
    assert "; at REV " in last and "(errors.py)" in last
