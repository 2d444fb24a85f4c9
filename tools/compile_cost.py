#!/usr/bin/env python3
"""Print what compiling each module of src/bsatlas costs: code lines, median compile() time, tracemalloc peak.

With PYTHONDONTWRITEBYTECODE=1 and no cached bytecode, every fresh import of
bsatlas compiles each module from source, so the import's time and memory
peak follow these numbers, and the module marked with the largest peak sets
the peak of the whole import.  The peak moves in steps as a module grows,
not line by line: compare a module's row before and after adding code to it.

    python3 tools/compile_cost.py              # median of 7 compiles per module
    python3 tools/compile_cost.py --repeat 3
"""

import argparse
import statistics
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bsatlas"


def code_lines(text):
    """The lines of text that are neither blank nor only a comment."""
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def compile_cost(path, repeat):
    """(code lines, median seconds of ``repeat`` compiles, tracemalloc peak bytes of one compile) of the module."""
    text = path.read_text()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        compile(text, str(path), "exec", dont_inherit=True)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        compile(text, str(path), "exec", dont_inherit=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code_lines(text), statistics.median(times), peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="compiles per module for the median time")
    args = parser.parse_args(argv)
    rows = [(path.name, *compile_cost(path, args.repeat)) for path in sorted(SRC.glob("*.py"))]
    top = max(rows, key=lambda row: row[3])
    print(f"{'module':<16} {'code lines':>10} {'compile ms':>10} {'peak MB':>8}")
    for row in rows:
        name, lines, seconds, peak = row
        mark = "  <- largest peak" if row is top else ""
        print(f"{name:<16} {lines:>10} {seconds * 1e3:>10.2f} {peak / 2**20:>8.3f}{mark}")


if __name__ == "__main__":
    main()
