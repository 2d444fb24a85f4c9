"""tools/make_golden.py rebuilds every golden file of the reproduction suite byte for byte, writing none."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "src" / "bsatlas" / "golden"
CASES = ("sl2_remark", "sl3_atlas", "sl4_brackets", "sp4_coords")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("make_golden", ROOT / "tools" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_file_has_a_case_builder():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(f"{c.replace('_', '-')}.json" for c in CASES)


@pytest.mark.parametrize("case", CASES)
def test_make_golden_case_matches_its_file(tool, case):
    payload = getattr(tool, case)()
    text = json.dumps(payload, indent=1, sort_keys=True)
    assert text.encode() == (GOLDEN / f"{payload['case']}.json").read_bytes()
