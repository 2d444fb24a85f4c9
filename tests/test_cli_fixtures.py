"""`bsatlas --json` payloads compared byte for byte with recorded fixtures.

The fixtures under tests/fixtures/ were recorded with earlier engines, so
they pin the current outputs to them: the positivity, chart and C2 leaf
payloads to the engine in which every Weyl representative and one-parameter
factor was a dense matrix product; the roots, chart-list and A3 leaf
payloads (canonical words, chart order, the series-A leaf path) to the
engine that stored each Weyl element as its integer action matrix; the
bracket, CGL and A3/C2 intermediate-v chart-change payloads to the engine
whose Gauss factorization returned L*T*U and whose Jacobi check
differentiated each bracket entry once per triple; the intermediate-v
bracket and CGL payloads to the engine that read the N_v coordinates off
the first factor of a second, v-splitting factorization; the ``tleaf
--point`` payloads, one SL(3) element with mixed denominators and one Sp(4)
element, to the engine that classified the parsed point as a Fraction matrix.
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
    "roots_A4": ["roots", "--series", "A", "--rank", "4"],
    "charts_list_C2_Nv_s1": ["charts", "list", "--series", "C", "--rank", "2", "--q", "Nv", "--v", "s1"],
    "tleaf_A3_s40": ["tleaf", "--series", "A", "--rank", "3", "--samples", "40"],
    "chart_change_C2_i3_to17": ["chart", "change", "--series", "C", "--rank", "2", "--index", "3", "--to-index", "17"],
    "bracket_A3_i1000": ["bracket", "--series", "A", "--rank", "3", "--index", "1000"],
    "cgl_verify_A3_i1000": ["cgl", "verify", "--series", "A", "--rank", "3", "--index", "1000"],
    "chart_change_A3_Nv_s2_i5_to100": [
        "chart", "change", "--series", "A", "--rank", "3", "--q", "Nv", "--v", "s2", "--index", "5", "--to-index", "100",
    ],
    "chart_change_C2_Bv_s1_i2_to9": [
        "chart", "change", "--series", "C", "--rank", "2", "--q", "Bv", "--v", "s1", "--index", "2", "--to-index", "9",
    ],
    "bracket_A2_Nv_s1_i3": ["bracket", "--series", "A", "--rank", "2", "--q", "Nv", "--v", "s1", "--index", "3"],
    "cgl_verify_C2_Nv_s2_i4": ["cgl", "verify", "--series", "C", "--rank", "2", "--q", "Nv", "--v", "s2", "--index", "4"],
    "tleaf_A2_point": [
        "tleaf", "--series", "A", "--rank", "2", "--point", '[["-1/2","-15/14","21/25"],["2/3",0,0],["4/9",0,"7/5"]]',
    ],
    "tleaf_C2_point": [
        "tleaf", "--series", "C", "--rank", "2", "--point",
        '[["3/2","2/9",0,0],["-3/5","-352/2835",1,"-27/4"],[0,"8/135","2/3",0],[0,"4/27",0,0]]',
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_payload_matches_fixture(name, capsys):
    assert main(["--json", *CASES[name]]) == 0
    got = capsys.readouterr().out.encode()
    assert got == (FIXTURES / f"{name}.json").read_bytes()
