"""bsatlas benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload atlas-verify --seed 0 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout the script sits in.
With ``--trace 0`` the run repeats passes until ``--seconds`` have gone by;
every pass imports ``bsatlas`` afresh (module-level memos start empty), sets
up, then runs the seed's item list.  It reports the end-to-end metrics as
means and medians of times normalised against a reference loop that runs
between items (see clock.py).
With ``--trace 1`` it runs one untraced pass and one traced pass of the same
item list and reports the per-layer metrics.  The last line of standard
output is the JSON result; the line before it is the run's provenance and
mean raw wall time, which are also written with the spans to
``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from clock import Clock, RawClock  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, plain_call  # noqa: E402

PROGRAM_MODULES = ("rootdata", "groups", "atlas", "poisson", "cgl", "positivity", "leaves")
SETUP_SAMPLES = 10
MAX_FAILURE_LINES = 5
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def load_program():
    """Import the library afresh so that no module-level memo survives a pass."""
    for name in [n for n in sys.modules if n == "bsatlas" or n.startswith("bsatlas.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"bsatlas.{m}") for m in PROGRAM_MODULES})
    lib.version = sys.modules["bsatlas"].__version__
    return lib


def _size_stats(funcs):
    terms = bits = 0
    for f in funcs:
        for poly in (f.num, f.den):
            terms = max(terms, len(poly.terms))
            for c in poly.terms.values():
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return terms, bits


class Pass:
    """One fresh import, set-up and item list, with its timings and verdicts."""

    def __init__(self, workload, seed, size, reference, inputs=None, spans=None):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.reference = reference
        self.inputs = inputs
        self.spans = spans
        self.latencies = []
        self.failures = []
        self.max_terms = self.max_coeff_bits = 0

    def run(self, clock, with_sizes=False):
        """Run the pass, sampling ``clock`` between its timed intervals; ``measure`` times it."""
        span = self.spans.call if self.spans is not None else plain_call
        gc.collect()
        clock.sample()
        t0 = time.perf_counter()
        lib = load_program()
        ctx = self.workload.setup(lib, span)
        t1 = time.perf_counter()
        clock.sample()
        self.version = lib.version
        if self.inputs is None:
            self.inputs = self.workload.inputs(ctx, self.seed, self.size)
        t2 = time.perf_counter()
        timed = self._items(lib, ctx, span, clock, with_sizes)
        t3 = time.perf_counter()
        clock.sample()
        self.setup, self.wall, self.timed = (t0, t1), (t2, t3), timed
        return self

    def measure(self, clock):
        """Set the pass's times, once ``clock`` holds every sample of the run."""
        self.raw = {"setup_s": self.setup[1] - self.setup[0], "wall_s": self.wall[1] - self.wall[0]}
        self.raw["latencies"] = [b - a for a, b in self.timed]
        self.setup_s = clock.length(*self.setup)
        self.wall_s = clock.length(*self.wall)
        self.latencies = [clock.length(a, b) for a, b in self.timed]
        return self

    def _items(self, lib, ctx, span, clock, with_sizes):
        """Prepare, then run and check every item; return each item's (start, end).

        The clock samples only between items, never while one runs.
        """
        wl = self.workload
        wl.prepare(lib, ctx, self.inputs, span)
        timed = []
        for n, item in enumerate(wl.items(lib, ctx, self.inputs, span)):
            clock.mark()
            if self.spans is not None:
                self.spans.item = n
            start = time.perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # a failed item is counted, the run goes on
                timed.append((start, time.perf_counter()))
                self.failures.append(f"{item.key}: {type(exc).__name__}: {exc}")
                continue
            timed.append((start, time.perf_counter()))
            try:
                verdict = item.check(out)
            except Exception as exc:
                self.failures.append(f"{item.key}: check raised {type(exc).__name__}: {exc}")
                continue
            problems = list(verdict.failures) + self._digest_problems(item.key, verdict)
            if problems:
                self.failures.append(f"{item.key}: {'; '.join(problems)}")
            if with_sizes:
                terms, bits = _size_stats(verdict.funcs)
                self.max_terms = max(self.max_terms, terms)
                self.max_coeff_bits = max(self.max_coeff_bits, bits)
        return timed

    def _digest_problems(self, key, verdict):
        got = verdict.digest()
        if got is None:
            return []
        want = self.reference.get(self.workload.name, {}).get(key)
        if want is None:
            return ["no reference digest"] if self.seed == DEFAULT_SEED else []
        return [] if got == want else ["digest differs from the reference"]


def _setup_only(workload, n, clock):
    """The intervals of ``n`` set-ups, each from a fresh import."""
    timed = []
    for _ in range(n):
        gc.collect()
        clock.sample()
        t0 = time.perf_counter()
        workload.setup(load_program(), plain_call)
        timed.append((t0, time.perf_counter()))
    clock.sample()
    return timed


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_state():
    """(revision, dirty) of the checkout; ("unknown", None) outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    status = _git("status", "--porcelain")
    return _git("rev-parse", "HEAD") or "unknown", None if status is None else bool(status)


def provenance(args, inputs, version):
    rev, dirty = git_state()
    return {
        "git_revision": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "bsatlas_version": version,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setups):
    """Normalised times: wall time is the mean over passes (two or three on atlas-verify), the rest are medians."""
    lat = [x for p in passes for x in p.latencies]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "wall_s": _metric(statistics.fmean(p.wall_s for p in passes), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "item_p50_s": _metric(statistics.median(lat), "s"),
        "item_p90_s": _metric(p90, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced, traced, summary, attempted, failed):
    out = {f"{name}_s": _metric(t, "s") for name, t in traced.spans.totals().items()}
    counts = summary["counts"]
    out.update({name: _metric(n, "count") for name, n in counts.items()})
    brackets = len([r for r in traced.spans.records if r[0] == "poisson.chart_bracket"])
    evals = counts["atlas.eval_coordinates.calls"]
    minors = counts["groups.generalized_minor.calls"]
    out["poisson.evals_per_bracket"] = _metric(evals / brackets if brackets else 0.0, "ratio")
    out["groups.inverses_per_minor"] = _metric(
        counts["groups.GroupElement.inverse.calls"] / minors if minors else 0.0, "ratio"
    )
    out.update({f"{m}.self_s": _metric(t, "s") for m, t in summary["self_s"].items()})
    out["symbolic.max_terms"] = _metric(traced.max_terms, "count")
    out["symbolic.max_coeff_bits"] = _metric(traced.max_coeff_bits, "bits")
    out["trace.overhead_ratio"] = _metric(traced.raw["wall_s"] / untraced.raw["wall_s"], "ratio")
    out["gate.fail_ratio"] = _metric(failed / attempted, "ratio")
    return out


def run(args, reference):
    wl = WORKLOADS[args.workload]
    extra = {}
    if args.trace:
        raw = RawClock()
        first = Pass(wl, args.seed, args.size, reference).run(raw).measure(raw)
        traced = Pass(wl, args.seed, args.size, reference, inputs=first.inputs, spans=tracing.Spans())
        with tracing.Profile() as prof:
            traced.run(raw, with_sizes=True).measure(raw)
        passes = [first, traced]
        summary = prof.summary()
        attempted = sum(len(p.latencies) for p in passes)
        failed = sum(len(p.failures) for p in passes)
        metrics = per_layer(first, traced, summary, attempted, failed)
        extra = {"spans": traced.spans.to_json(), "profile_self_s": summary["self_s"]}
    else:
        clock = Clock()
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(Pass(wl, args.seed, args.size, reference, inputs=passes[0].inputs if passes else None).run(clock))
        setups = [p.setup for p in passes]
        if len(setups) < SETUP_SAMPLES:
            setups += _setup_only(wl, SETUP_SAMPLES - len(setups), clock)
        for p in passes:
            p.measure(clock)
        setups = [clock.length(a, b) for a, b in setups]
        extra = {"clock_samples": clock.samples}
        attempted = sum(len(p.latencies) for p in passes)
        failed = sum(len(p.failures) for p in passes)
        metrics = end_to_end(passes, setups)
    failures = [f for p in passes for f in p.failures]
    return passes, metrics, attempted, failed, failures, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bsatlas" / "__init__.py").is_file():
        print(f"error: no bsatlas sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    passes, metrics, attempted, failed, failures, extra = run(args, reference)
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"FAILED {line}", file=sys.stderr)
    prov = provenance(args, passes[0].inputs, passes[0].version)
    prov.update(passes=len(passes), items_per_pass=len(passes[0].latencies))
    raw_wall_s = statistics.fmean(p.raw["wall_s"] for p in passes if p.spans is None)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    per_pass = [{"setup_s": p.setup_s, "wall_s": p.wall_s, "latencies": p.latencies, "raw": p.raw} for p in passes]
    record = {"provenance": prov, "raw_wall_s": raw_wall_s, "result": result, "failures": failures, "passes": per_pass, **extra}
    out_file.write_text(json.dumps(record))
    print("provenance " + json.dumps(dict(prov, raw_wall_s=raw_wall_s), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
