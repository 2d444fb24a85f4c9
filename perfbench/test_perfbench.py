"""Tests of the benchmark itself (not of the library).

Run from the repository root:

    python3 -m pytest -q perfbench

They use the "smoke" size, which keeps every workload's code path but runs
each pass in a few seconds.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import clock
import run
from workloads import WORKLOADS, Item, Verdict, Workload

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _smoke(workload, trace, *extra):
    return _bench("--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--size", "smoke", *extra)


def test_metric_names_are_well_formed():
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, group):
    result = _result(_smoke(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(NAME.fullmatch(name) for name in got)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_call_counts_repeat_exactly():
    def counts():
        metrics = _result(_smoke("coord-changes", 1, "--seed", "7"))["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    assert counts() == counts()


REFERENCE = json.loads((run.BENCH_DIR / "reference.json").read_text())


@pytest.fixture
def library(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))


def _run_in_process(workload, reference=REFERENCE):
    args = argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=0, size="smoke")
    _, _, attempted, failed, failures, _ = run.run(args, reference)
    return attempted, failed, failures


def test_wrong_reference_digest_is_a_failure(library):
    bad = dict(REFERENCE, **{"coord-changes": {key: "0" * 64 for key in REFERENCE["coord-changes"]}})
    attempted, failed, failures = _run_in_process("coord-changes", bad)
    assert failed == attempted >= 1
    assert all("digest differs from the reference" in f for f in failures)


def test_missing_reference_on_default_seed_is_a_failure(library):
    attempted, failed, failures = _run_in_process("atlas-verify", {})
    assert failed == attempted >= 1
    assert all("no reference digest" in f for f in failures)


def _forced(monkeypatch, patch):
    real = run.load_program

    def load():
        lib = real()
        patch(monkeypatch, lib)
        return lib

    monkeypatch.setattr(run, "load_program", load)


def test_false_jacobi_verdict_is_a_failure(library, monkeypatch):
    def patch(mp, lib):
        mp.setattr(lib.poisson, "jacobi_check", lambda table: {"ok": False, "mode": "forced", "failures": []})

    _forced(monkeypatch, patch)
    attempted, failed, failures = _run_in_process("atlas-verify")
    assert failed == attempted >= 1
    assert all("jacobi_check is not ok" in f for f in failures)


def test_wrong_leaf_label_is_a_failure(library, monkeypatch):
    def patch(mp, lib):
        classify = lib.leaves.t_leaf_classify

        def wrong(space, g):
            label = classify(space, g)
            return lib.leaves.TLeafLabel(label.w, space.model.rs.w0)

        mp.setattr(lib.leaves, "t_leaf_classify", wrong)

    _forced(monkeypatch, patch)
    _, failed, failures = _run_in_process("positivity-certify")
    assert failed >= 1 and all("leaf label" in f for f in failures)


def test_wrong_change_formula_is_a_failure(library, monkeypatch):
    def patch(mp, lib):
        change = lib.atlas.change_of_coordinates

        def shifted(src, dst):
            formula = change(src, dst)
            return [formula[0] + 1] + formula[1:]

        mp.setattr(lib.atlas, "change_of_coordinates", shifted)

    _forced(monkeypatch, patch)
    attempted, failed, failures = _run_in_process("coord-changes")
    assert failed == attempted >= 1
    assert all("disagrees with eval_coordinates" in f and "digest differs" in f for f in failures)


def _wait(busy, intervals):
    start = time.perf_counter()
    children = [subprocess.Popen([sys.executable, "-c", "while True: pass"]) for _ in range(2 if busy else 0)]
    try:
        time.sleep(0.3)
    finally:
        for child in children:
            child.kill()
            child.wait()
    intervals.append((start, time.perf_counter()))


class _Waits(Workload):
    """Items that wait 0.3 s; every second one keeps two child processes busy meanwhile."""

    name = "waits"

    def __init__(self, intervals):
        self.intervals = intervals

    def setup(self, lib, span):
        return {}

    def inputs(self, ctx, seed, size):
        return {"busy": [False, True] * 3}

    def items(self, lib, ctx, inputs, span):
        return [
            Item(str(n), functools.partial(_wait, busy, self.intervals), lambda out: Verdict([]))
            for n, busy in enumerate(inputs["busy"])
        ]


def test_reference_loop_never_runs_during_an_item(library, monkeypatch):
    """Work in other processes during an item, as a process pool does, must not
    contend with the reference loop and so make the item look shorter."""
    loops, items = [], []
    real = clock._reference_loop

    def recorded():
        start = time.perf_counter()
        real()
        loops.append((start, time.perf_counter()))

    monkeypatch.setattr(clock, "_reference_loop", recorded)
    run_clock = clock.Clock()
    p = run.Pass(_Waits(items), 0, "smoke", {}).run(run_clock).measure(run_clock)
    assert not p.failures and len(items) == 6 and loops
    assert all(x > 0 for x in p.latencies)
    assert [(a, b) for a, b in items for s, e in loops if s < b and e > a] == []


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "coord-changes", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
