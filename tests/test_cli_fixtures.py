"""`bsatlas --json` payloads compared byte for byte with recorded fixtures.

The fixtures under tests/fixtures/ were recorded with the engine in which
every Weyl representative and one-parameter factor was a dense matrix
product, so they pin the outputs of the index-based engine to it.
"""

from pathlib import Path

import pytest

from bsatlas.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

CASES = {
    "positivity_A2_s5": ["positivity", "--series", "A", "--rank", "2", "--samples", "5"],
    "positivity_C2_s2": ["positivity", "--series", "C", "--rank", "2", "--samples", "2"],
    "tleaf_C2_s30": ["tleaf", "--series", "C", "--rank", "2", "--samples", "30"],
    "chart_show_C2_i7": ["chart", "show", "--series", "C", "--rank", "2", "--index", "7"],
    "chart_change_C2_i3_to17": ["chart", "change", "--series", "C", "--rank", "2", "--index", "3", "--to-index", "17"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_payload_matches_fixture(name, capsys):
    assert main(["--json", *CASES[name]]) == 0
    got = capsys.readouterr().out.encode()
    assert got == (FIXTURES / f"{name}.json").read_bytes()
