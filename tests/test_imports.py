"""Every imported name is used, every def is reached outside the tests, and the package needs only the standard library,
imported at module level.

AST scans, since the project installs no linter.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos", "tools")


def unused_imports(source):
    """(line, name) of each name a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    src = "import os\nimport sys\nfrom fractions import Fraction as F\nprint(sys.argv)\n"
    assert unused_imports(src) == [(1, "os"), (3, "F")]


def test_no_unused_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def foreign_imports(source):
    """(line, module) of each absolute import outside the standard library and bsatlas."""
    allowed = sys.stdlib_module_names | {"bsatlas"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, mod) for mod in modules if mod.split(".")[0] not in allowed]
    return sorted(found)


def test_scan_finds_a_third_party_import():
    src = (
        "import os\nimport pytest as pt\nfrom . import cache\nfrom bsatlas.cgl import verify_cgl\n"
        "def f():\n    from hypothesis.strategies import integers\n    import fractions, sympy\n"
    )
    assert foreign_imports(src) == [(2, "pytest"), (6, "hypothesis.strategies"), (7, "sympy")]


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted((ROOT / "src" / "bsatlas").rglob("*.py")):
        for line, module in foreign_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {module}")
    assert not found, "imports outside the standard library:\n" + "\n".join(found)


def imports_in_defs(source):
    """(line, def name) of each import statement inside a function body, by its innermost def."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    found.add((sub.lineno, node.name))
    innermost = {}
    for line, name in sorted(found):
        innermost[line] = name
    return sorted(innermost.items())


def test_scan_finds_an_import_in_a_def():
    src = "import os\ndef f():\n    from . import cache\n    def g():\n        import sys\n    return os\nclass C:\n    pass\n"
    assert imports_in_defs(src) == [(3, "f"), (5, "g")]


def test_package_imports_only_at_module_level():
    """No def of the package imports: every dependency of a module is read at its top."""
    found = []
    for path in sorted((ROOT / "src" / "bsatlas").rglob("*.py")):
        found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in imports_in_defs(path.read_text())]
    assert not found, "imports inside a def:\n" + "\n".join(found)


REACHING = ("src", "demos", "perfbench", "tools")


def defined_names(source):
    """(line, name) of each def and class a module defines, dunders aside."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def referenced_names(source):
    """Each name a module reads, reads as an attribute or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_scan_finds_an_unreferenced_def():
    lib = "class Used:\n    def __init__(self):\n        pass\n    def method(self):\n        pass\ndef helper():\n    pass\n"
    caller = "from lib import Used\nUsed().method()\n"
    assert defined_names(lib) == [(1, "Used"), (4, "method"), (6, "helper")]
    assert [d for d in defined_names(lib) if d[1] not in referenced_names(caller)] == [(6, "helper")]


def test_every_def_is_reached_outside_the_tests():
    """Each def and class of the package is referenced somewhere in src, the demos, perfbench or the tools."""
    used = set()
    for top in REACHING:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= referenced_names(path.read_text())
    found = []
    for path in sorted((ROOT / "src" / "bsatlas").rglob("*.py")):
        found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in defined_names(path.read_text()) if name not in used]
    assert not found, "defs no code outside the tests reaches:\n" + "\n".join(found)


def package_imports(source):
    """Each module of the package a module imports, relatively or as ``bsatlas.<module>``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bsatlas":
            found |= {node.module.split(".")[1]} if "." in node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("bsatlas.")}
    return found


def test_scan_finds_package_imports():
    src = "import os\nfrom .errors import E\nfrom . import symbolic\nimport bsatlas.linalg\nfrom bsatlas import atlas\n"
    assert package_imports(src) == {"errors", "symbolic", "linalg", "atlas"}


def test_laurent_imports_only_errors_from_the_package():
    """The packed-key layer sits below the symbolic core: it reads no module of the package but ``errors``."""
    assert package_imports((ROOT / "src" / "bsatlas" / "laurent.py").read_text()) == {"errors"}
