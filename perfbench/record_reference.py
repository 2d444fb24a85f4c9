"""Record the reference digests that the benchmark's correctness gate compares with.

Usage (from the repository root, on the commit whose outputs are the reference):

    python3 perfbench/record_reference.py

It digests the canonical text of every bracket table of the atlas-verify
charts drawn by seeds 0 .. ATLAS_SEEDS - 1, and of every change formula
between two charts of SL(3)/N(w0) and of Sp(4)/N(w0), so coord-changes is
checked on every seed.  The result replaces ``perfbench/reference.json``.  Re-record
only when a documented mathematical correction changes the outputs.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, plain_call

ATLAS_SEEDS = 100


def _digests(workload, inputs, seed):
    lib = run.load_program()
    ctx = workload.setup(lib, plain_call)
    workload.prepare(lib, ctx, inputs, plain_call)
    out = {}
    for item in workload.items(lib, ctx, inputs, plain_call):
        verdict = item.check(item.run())
        if verdict.failures:
            raise SystemExit(f"seed {seed}, {item.key}: {verdict.failures}")
        out[item.key] = verdict.digest()
    return out


def main():
    sys.path.insert(0, str(run.ROOT / "src"))

    atlas = WORKLOADS["atlas-verify"]
    ctx = atlas.setup(run.load_program(), plain_call)
    charts = sorted({c for s in range(ATLAS_SEEDS) for c in atlas.inputs(ctx, s, "full")["charts"]})
    atlas_ref = _digests(atlas, {"charts": charts}, "0..")

    coord = WORKLOADS["coord-changes"]
    ctx = coord.setup(run.load_program(), plain_call)
    inputs = coord.inputs(ctx, 0, "full")
    inputs["pairs"] = [
        [s, i, j]
        for s, (_, specs) in enumerate(ctx["spaces"])
        for i in range(len(specs))
        for j in range(len(specs))
        if i != j
    ]
    coord_ref = _digests(coord, inputs, 0)

    ref = {
        "recorded_at": run.git_state()[0],
        "atlas_seeds": ATLAS_SEEDS,
        "atlas-verify": dict(sorted(atlas_ref.items(), key=lambda kv: int(kv[0].rsplit(":", 1)[1]))),
        "coord-changes": coord_ref,
    }
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(f"recorded {len(atlas_ref)} bracket tables and {len(coord_ref)} change formulas")


if __name__ == "__main__":
    main()
