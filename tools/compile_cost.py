#!/usr/bin/env python3
"""Print what compiling each module of src/bsatlas costs: code lines, median compile() time, tracemalloc peak.

With PYTHONDONTWRITEBYTECODE=1 and no cached bytecode, every fresh import of
bsatlas compiles each module from source, so the import's time and memory
peak follow these numbers, and the module marked with the largest peak sets
the peak of the whole import.  The peak moves in steps as a module grows,
not line by line: compare a module's row before and after adding code to it.
With ``--base REV`` each row also gives the change in code lines and in peak
against the module's source at the git revision REV (``git show REV:path``),
and a last line compares the largest peak with REV's largest.  Every source
is compiled once before any is measured, so that a table the interpreter
grows on its first compiles is charged to no module.

    python3 tools/compile_cost.py              # median of 7 compiles per module
    python3 tools/compile_cost.py --repeat 3
    python3 tools/compile_cost.py --base HEAD~1
"""

import argparse
import statistics
import subprocess
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bsatlas"


def code_lines(text):
    """The lines of text that are neither blank nor only a comment."""
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def compile_cost(text, name, repeat):
    """(code lines, median seconds of ``repeat`` compiles, tracemalloc peak bytes of one compile) of the source text."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        compile(text, name, "exec", dont_inherit=True)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        compile(text, name, "exec", dont_inherit=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code_lines(text), statistics.median(times), peak


def sources(base=None):
    """{file name: source text} of each module of src/bsatlas, in the working tree or at the git revision ``base``."""
    if base is None:
        return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    rel = SRC.relative_to(ROOT).as_posix()

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout

    names = git("ls-tree", "--name-only", f"{base}:{rel}").split()
    return {name: git("show", f"{base}:{rel}/{name}") for name in sorted(names) if name.endswith(".py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="compiles per module for the median time")
    parser.add_argument("--base", metavar="REV", help="also print each module's change against git revision REV")
    args = parser.parse_args(argv)
    texts, base_texts = sources(), {} if args.base is None else sources(args.base)
    # a first compile grows tables of the interpreter (0.4 MB at once, on whichever module it falls): warm them all
    for name, text in [*texts.items(), *base_texts.items()]:
        compile(text, str(SRC / name), "exec", dont_inherit=True)
    now = {name: compile_cost(text, str(SRC / name), args.repeat) for name, text in texts.items()}
    then = {name: compile_cost(text, str(SRC / name), 1) for name, text in base_texts.items()}
    top = max(now, key=lambda name: now[name][2])
    header = f"{'module':<16} {'code lines':>10} {'compile ms':>10} {'peak MB':>8}"
    print(header + (f" {'d lines':>8} {'d peak MB':>10}" if args.base else ""))
    for name in sorted(now.keys() | then.keys()):
        lines, seconds, peak = now.get(name, (0, 0.0, 0))
        row = f"{name:<16} {lines:>10} {seconds * 1e3:>10.2f} {peak / 2**20:>8.3f}"
        if args.base:
            base_lines, _, base_peak = then.get(name, (0, 0.0, 0))
            row += f" {lines - base_lines:>+8} {(peak - base_peak) / 2**20:>+10.3f}"
            row += "  (new)" if name not in then else "  (deleted)" if name not in now else ""
        print(row + ("  <- largest peak" if name == top else ""))
    if then:
        base_top = max(then, key=lambda name: then[name][2])
        mb = [now[top][2] / 2**20, then[base_top][2] / 2**20]
        print(f"largest peak {mb[0]:.3f} MB ({top}); at {args.base} {mb[1]:.3f} MB ({base_top}): {mb[0] - mb[1]:+.3f} MB")


if __name__ == "__main__":
    main()
