"""JSON round trips and the command-line surface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsatlas.cli import main, parse_word
from bsatlas.repro import CASES
from bsatlas.serialize import (
    poly_from_json,
    poly_to_json,
    ratfunc_from_json,
    ratfunc_to_json,
)
from bsatlas.symbolic import var


def test_ratfunc_json_roundtrip():
    f = (var("x") + 2 * var("y", 3)) ** 2 / (var("x") - var("y", 3))
    g = ratfunc_from_json(ratfunc_to_json(f))
    assert f == g and f.text() == g.text()
    p = (var("x") * var("y") - 1).num
    assert poly_from_json(poly_to_json(p)) == p


def test_parse_word():
    assert parse_word("e") == ()
    assert parse_word("w0") == "w0"
    assert parse_word("s1.s2.s1") == (1, 2, 1)
    with pytest.raises(ValueError):
        parse_word("x3")


def test_cli_roots(capsys):
    assert main(["roots", "--series", "A", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "l0=3" in out
    assert main(["roots", "--series", "C", "--rank", "3"]) == 2
    assert "UnsupportedSeries" in capsys.readouterr().err


def test_cli_charts_census(capsys):
    assert main(["--json", "charts", "list", "--series", "A", "--rank", "2", "--q", "Nv", "--v", "w0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 16


def test_cli_chart_show_and_change(capsys):
    rc = main(
        ["--json", "chart", "show", "--series", "A", "--rank", "1", "--q", "Nv", "--v", "w0", "--index", "1"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["parametrization"][1][0] == "z3"
    rc = main(
        [
            "--json", "chart", "change", "--series", "A", "--rank", "1", "--q", "Nv", "--v", "w0",
            "--index", "1", "--to-index", "0",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["formulas"][1] == "z1^2*z2 - z1"


def test_cli_bracket_writes_no_file(tmp_path, monkeypatch, capsys):
    """bracket recomputes its table on every run and leaves nothing on disk, under HOME or the cwd."""
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    args = ["--json", "bracket", "--series", "A", "--rank", "1", "--q", "Nv", "--v", "w0", "--index", "0"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["entries"]["1,2"]["text"] == "-2*z1*z2"
    assert list(tmp_path.iterdir()) == []
    # the removed cache options are usage errors
    for flags in (["--no-cache"], ["--cache-dir", str(tmp_path / "cache")]):
        with pytest.raises(SystemExit) as exc:
            main([*flags, *args])
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_internal_invariant_exit_code(monkeypatch, capsys):
    from bsatlas import cli

    def broken(space, g):
        raise AssertionError("leaf label violates y <= w * v")

    monkeypatch.setattr(cli, "t_leaf_classify", broken)
    rc = main(["tleaf", "--series", "A", "--rank", "1", "--q", "Nv", "--v", "w0", "--samples", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: internal invariant failed: leaf label violates y <= w * v\n"


def test_cli_cgl_and_positivity(capsys):
    rc = main(["cgl", "verify", "--series", "A", "--rank", "1", "--q", "Nv", "--v", "w0", "--index", "0"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["positivity", "--series", "A", "--rank", "1", "--q", "Nv", "--v", "w0", "--samples", "10"])
    assert rc == 0
    capsys.readouterr()


def test_cli_tleaf_point(capsys):
    rc = main(
        ["--json", "tleaf", "--series", "A", "--rank", "2", "--q", "Nv", "--v", "w0",
         "--point", "[[1,0,0],[0,1,0],[0,0,1]]"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["labels"][0]["w"] == []


def test_cli_positivity_index_out_of_range(capsys):
    # SL(2)/N(w0) has charts 0 and 1; chart show refuses the same indices
    for index in ("2", "-1"):
        for cmd in (["positivity", "--samples", "1"], ["chart", "show"]):
            rc = main(cmd + ["--series", "A", "--rank", "1", "--index", index])
            assert rc == 2
            assert "chart index out of range (0..1)" in capsys.readouterr().err


def test_cli_positivity_needs_samples(capsys):
    for samples in ("0", "-3"):
        rc = main(["--json", "positivity", "--series", "A", "--rank", "1", "--samples", samples])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need at least one sample" in captured.err


def test_cli_tleaf_point_must_be_square(capsys):
    for point in ("[[1,2]]", "[[1,2,3],[4,5,6]]"):
        rc = main(["tleaf", "--series", "A", "--rank", "1", "--point", point])
        assert rc == 2
        assert "--point must be a 2x2 matrix" in capsys.readouterr().err


def test_cli_tleaf_refuses_a_point_outside_the_group(capsys):
    """A matrix that is not in G is refused with exit 2 before it is classified."""
    for series, rank, point, name in (
        # a 3-cycle of the first three basis vectors: det 1, but not symplectic
        ("C", 2, "[[0,1,0,0],[0,0,1,0],[1,0,0,0],[0,0,0,1]]", "Sp(4)"),
        # a transposition: det -1
        ("C", 2, "[[0,1,0,0],[1,0,0,0],[0,0,1,0],[0,0,0,1]]", "Sp(4)"),
        ("A", 2, "[[2,0,0],[0,1,0],[0,0,1]]", "SL(3)"),
    ):
        rc = main(["--json", "tleaf", "--series", series, "--rank", str(rank), "--point", point])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--point is not an element of {name}" in captured.err


def test_cli_tleaf_needs_samples(capsys):
    for samples in ("0", "-3"):
        rc = main(["--json", "tleaf", "--series", "A", "--rank", "1", "--samples", samples])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need at least one sample" in captured.err


def test_cli_refuses_samples_over_limit(capsys):
    """A sampled run over MAX_SAMPLES exits 2 at once with one stderr line; the limit itself runs."""
    import time

    from bsatlas.cli import MAX_SAMPLES

    for command in ("positivity", "tleaf"):
        start = time.perf_counter()
        rc = main(["--json", command, "--series", "A", "--rank", "2", "--samples", "100000000"])
        assert rc == 2 and time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: --samples 100000000 is over the limit of {MAX_SAMPLES}\n"
    assert main(["--json", "tleaf", "--series", "A", "--rank", "1", "--samples", str(MAX_SAMPLES)]) == 0
    assert len(json.loads(capsys.readouterr().out)["labels"]) == MAX_SAMPLES


def test_cli_refuses_positivity_over_chart_samples(capsys, monkeypatch):
    """positivity over MAX_CHART_SAMPLES charts x samples exits 2 with one stderr line before any chart
    is parametrized; --index counts as one chart, and the limit itself runs."""
    from bsatlas import cli

    parametrized = []

    def fake_parametrize(spec):
        parametrized.append(spec)
        return spec

    def fake_certify(chart, tspec, n_samples, seed):
        report = {"chart": chart.label(), "n_samples": n_samples, "seed": seed, "ok": True}
        return {**report, "min_coordinate": "1", "violations": []}

    monkeypatch.setattr(cli, "parametrize", fake_parametrize)
    monkeypatch.setattr(cli, "certify_chart_positivity", fake_certify)
    for argv, charts, samples in (
        (["--series", "A", "--rank", "3"], 1792, 25),
        (["--series", "A", "--rank", "3", "--samples", "9"], 1792, 9),
        (["--series", "A", "--rank", "4", "--q", "Bv", "--v", "e", "--samples", "2"], 8448, 2),
    ):
        assert main(["--json", "positivity", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not parametrized
        assert captured.err == f"error: ValueError: {charts} charts x {samples} samples, over the limit of 16000\n"
    assert cli.MAX_CHART_SAMPLES == 16 * cli.MAX_SAMPLES
    for argv, charts in (
        (["--series", "A", "--rank", "2", "--samples", str(cli.MAX_SAMPLES)], 16),
        (["--series", "A", "--rank", "3", "--samples", "8"], 1792),
        (["--series", "A", "--rank", "3", "--index", "1000", "--samples", str(cli.MAX_SAMPLES)], 1),
    ):
        parametrized.clear()
        assert main(["--json", "positivity", *argv]) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == len(parametrized) == charts


def test_cli_tleaf_point_refuses_floats(capsys):
    """A JSON float in --point is a binary fraction, refused with exit 2; integers and rational
    strings are read exactly."""
    for point in ("[[0.1,1],[-1,0]]", "[[1.0,1],[-1,0]]", "[[true,1],[-1,0]]"):
        rc = main(["--json", "tleaf", "--series", "A", "--rank", "1", "--point", point])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--point entries must be integers or rational strings" in captured.err
    for point in ("[[0,1],[-1,0]]", '[["1/3",0],[0,3]]', '[["1/3","-1"],[0,"3"]]'):
        assert main(["--json", "tleaf", "--series", "A", "--rank", "1", "--point", point]) == 0
        assert len(json.loads(capsys.readouterr().out)["labels"]) == 1


def test_cli_tleaf_point_refuses_exponents_and_zero_denominators(capsys):
    """An exponent would build its power of ten before any check, and "1/0" raised ZeroDivisionError."""
    for point, message in (('[["1e999999999",0],[0,1]]', "not floats or exponents"), ('[["1/0",0],[0,1]]', "zero denominator")):
        assert main(["--json", "tleaf", "--series", "A", "--rank", "1", "--point", point]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and message in captured.err


_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/3", "-2", " 2/4 ", "0.5", "1/0", "x", "", "1e999999999", "1E-5"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
_POINT = st.one_of(
    st.lists(st.lists(_ENTRY, max_size=5), max_size=5).map(json.dumps),
    st.sampled_from(["[[1,0],[0,1]]", "[[0,1],[-1,0]]", '[["1/2",0],[0,2]]', "[[1,1],[0,1]]", '[["1/0",0],[0,1]]']),
    st.sampled_from(['[["1e999999999",0],[0,1]]', "[[0.5,0],[0,2]]", "not json", '"ab"', "{}", "[]", "[[[1]]]"]),
)


@st.composite
def _cli_args(draw):
    """positivity or tleaf arguments over the CLI grammar, with half the ranks and samples drawn
    where a run goes through.  positivity always names one chart: the whole A3 atlas, which the
    limits allow at one or two samples, takes seconds."""
    command = draw(st.sampled_from(["positivity", "tleaf"]))
    rank = draw(st.one_of(st.integers(1, 2), st.integers(-1, 8)))
    samples = draw(st.one_of(st.sampled_from([1, 2]), st.sampled_from([-3, 0, 1, 2, 1001, 10**9])))
    argv = ["--json", command, "--series", draw(st.sampled_from(["A", "C"])), "--rank", str(rank), "--samples", str(samples)]
    argv += ["--seed", str(draw(st.integers(-(2**70), 2**70)))]
    if command == "positivity":
        return argv + ["--index", str(draw(st.sampled_from([0, 1, 2, 15, 16, 19, 20, -1])))]
    return argv + (["--point", draw(_POINT)] if draw(st.booleans()) else [])


# Weyl words for --r, --v and --w on A1, A2 and C2: reduced ones, repeated letters, letters out of
# range, bare digits and empty blocks
_WORD = st.sampled_from(
    ["e", "w0", "", "s1", "s2", "s1.s2", "s2.s1", "s1.s2.s1", "s2.s1.s2", "s1.s2.s1.s2", "s2.s1.s2.s1"]
    + ["s1.s1", "s0", "s3", "s-1", "s99999999999999999999", "1.2", "s1..s2", "s", "x1"]
)


@st.composite
def _chart_cli_args(draw, commands=(["bracket"], ["cgl", "verify"], ["chart", "show"])):
    """One of commands on A1, A2 or C2, each chart named by --index or by drawn words (a change names two)."""
    command = draw(st.sampled_from(commands))
    series, rank = draw(st.sampled_from([("A", 1), ("A", 2), ("C", 2)]))
    argv = ["--json", *command, "--series", series, "--rank", str(rank)]
    # half the draws of --v and --index name a chart that exists, so the packed pipeline runs
    v = draw(st.one_of(st.sampled_from(["w0", "e"]), _WORD))
    argv += ["--q", draw(st.sampled_from(["Nv", "Bv"])), "--v", v]
    if command == ["charts", "list"]:
        return argv
    for prefix in ("--", "--to-") if command == ["chart", "change"] else ("--",):
        argv += [f"{prefix}w", draw(_WORD)]
        if draw(st.booleans()):
            argv += [f"{prefix}index", str(draw(st.one_of(st.sampled_from([0, 1, 3]), st.sampled_from([5, 19, -1]))))]
            continue
        blocks = st.one_of(st.lists(_WORD, min_size=3, max_size=3).map("|".join), st.sampled_from(["||", "|", "a|b|c|d"]))
        argv += [f"{prefix}r", draw(blocks)]
    return argv


def _assert_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), argv
    else:
        assert err.getvalue() == "" and json.loads(out.getvalue())


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_cli_args())
def test_cli_exit_contract_property(argv):
    """Every drawn positivity or tleaf run exits 0 or 2, an exit 2 prints one stderr line, and none prints a traceback."""
    _assert_exit_contract(argv)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_chart_cli_args())
def test_cli_exit_contract_property_chart_commands(argv):
    """The same contract for bracket, cgl verify and chart show, which run the packed Laurent pipeline."""
    _assert_exit_contract(argv)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_chart_cli_args(commands=(["chart", "change"], ["charts", "list"])))
def test_cli_exit_contract_property_change_and_list(argv):
    """The same contract for chart change, which eliminates the source chart's Laurent representative, and charts list."""
    _assert_exit_contract(argv)


@st.composite
def _roots_repro_args(draw):
    """roots over drawn series and ranks, those over MAX_ROOTS_RANK among them, or one repro case."""
    if draw(st.booleans()):
        return ["--json", "repro", draw(st.sampled_from([*CASES, "all"]))]
    rank = draw(st.one_of(st.integers(-2, 8), st.sampled_from([31, 10**9, -(10**9)])))
    return ["--json", "roots", "--series", draw(st.sampled_from(["A", "C"])), "--rank", str(rank)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_roots_repro_args())
def test_cli_exit_contract_property_roots_and_repro(argv):
    """The same contract for roots, whose root data is refused for an unsupported series or rank, and repro."""
    _assert_exit_contract(argv)


def test_cli_closed_stdout_exits_1_without_traceback():
    """A run whose stdout is closed before it writes, as in `bsatlas ... | head -c 10`, exits 1 and prints nothing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
    argv = ["--json", "positivity", "--series", "C", "--rank", "2", "--samples", "3"]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bsatlas.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_cli_repro(capsys):
    assert main(["repro", "sl2-remark"]) == 0
    capsys.readouterr()
    assert main(["--json", "repro", "all"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and len(data["cases"]) == 4


def test_cli_refuses_atlas_over_chart_limit(capsys):
    import time

    charts = "charts, over the limit of"
    for argv, message in (
        (["charts", "list", "--series", "A", "--rank", "5"], charts),
        (["charts", "list", "--series", "A", "--rank", "5", "--q", "Bv", "--v", "e"], charts),
        (["chart", "show", "--series", "A", "--rank", "5", "--index", "0"], charts),
        (["positivity", "--series", "A", "--rank", "5", "--samples", "1"], charts),
        (["charts", "list", "--series", "A", "--rank", "7"], charts),
        (["tleaf", "--series", "A", "--rank", "7", "--samples", "1"], charts),
        # |W| is read off the series and rank before the model is built
        (["charts", "list", "--series", "A", "--rank", "12"], charts),
        (["charts", "list", "--series", "A", "--rank", "20"], charts),
        # a chart named by its words needs the model too
        (["chart", "show", "--series", "A", "--rank", "7", "--r", "w0|e|w0"], charts),
        (["chart", "change", "--series", "A", "--rank", "7", "--r", "w0|e|w0", "--to-r", "e|w0|w0", "--to-w", "w0"], charts),
        (["bracket", "--series", "A", "--rank", "7", "--r", "w0|e|w0"], charts),
        (["cgl", "verify", "--series", "A", "--rank", "7", "--q", "Bv", "--v", "e", "--r", "w0|e|e"], charts),
        (["roots", "--series", "A", "--rank", "31"], "rank 31 is over the limit of 30"),
    ):
        start = time.perf_counter()
        assert main(["--json", *argv]) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_cli_chart_needs_index_or_words(capsys):
    for argv in (
        ["chart", "show"],
        ["bracket"],
        ["cgl", "verify"],
        ["chart", "change", "--index", "0"],
        ["chart", "change", "--to-index", "0"],
    ):
        assert main(["--json", *argv[:2], "--series", "A", "--rank", "2", *argv[2:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "name each chart by --index or --r" in captured.err


def test_cli_chart_by_words_matches_index(capsys):
    space = ["--series", "A", "--rank", "2"]
    assert main(["--json", "chart", "show", *space, "--w", "s1", "--r", "s1.s2|s1|w0"]) == 0
    by_words = capsys.readouterr().out
    assert main(["--json", "chart", "show", *space, "--index", "4"]) == 0
    assert by_words == capsys.readouterr().out


def test_chart_count_matches_enumeration():
    from bsatlas.atlas import SpaceSpec, enumerate_charts
    from bsatlas.cli import MAX_CHARTS, _chart_count
    from bsatlas.groups import cached_model

    for series, rank in (("A", 1), ("A", 2), ("C", 2)):
        m = cached_model(series, rank)
        for qkind in ("Bv", "Nv"):
            for v in m.rs.all_elements():
                space = SpaceSpec(m, qkind, v)
                assert _chart_count(space) == len(enumerate_charts(space))
    m = cached_model("A", 3)
    for v in (m.rs.identity, m.rs.element_from_word((2, 1)), m.rs.w0):
        space = SpaceSpec(m, "Nv", v)
        assert _chart_count(space) == len(enumerate_charts(space))
    # the largest atlas the CLI still lists
    assert _chart_count(SpaceSpec(cached_model("A", 4), "Bv", cached_model("A", 4).rs.identity)) == 8448 <= MAX_CHARTS
