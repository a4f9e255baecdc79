"""Paired A/B timing of two nanoband trees inside one process.

Both package trees are loaded into this interpreter under distinct
names (`nanoband_a`, `nanoband_b`) with
`importlib.util.spec_from_file_location`; the package imports its own
modules only relatively, so each tree's modules use their own
siblings.  The cases are those of bench/layers.py that run in process
and name a whole computation: the 20-gap sector builds with flat bands
and masses (`sector_structure_ms.*`), the deep two-step builds
(`band_structure_s.*`) and the README's CLI commands through
`cli.main` (`cli_in_process_*`).  Each case is built for both trees
and called once per tree to warm up; then A and B alternate sample by
sample, the side that goes first alternating too, each sample timed in
process time after a garbage collection, so that drift of the machine
falls on both sides alike.  For every case the script prints the
median sample of each side, the median of the per-pair ratios B / A
and how many pairs each side won (took less time):

    python bench/ab.py --a src --b ../parent/src
    python bench/ab.py --a src --b src        # a tree against itself
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import layers  # noqa: E402  (bench/layers.py, beside this script)

CASES = ("sector_structure_ms.", "band_structure_s.", "cli_in_process_")


def load(src: str, name: str):
    """The package in src/nanoband, imported as `name`."""
    path = os.path.join(os.path.abspath(src), "nanoband")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sample(fn) -> float:
    gc.collect()
    return fn("cpu")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="src directory of tree A")
    ap.add_argument("--b", required=True, help="src directory of tree B")
    ap.add_argument("--pairs", type=int, default=15)
    ap.add_argument("--only", default="",
                    help="run only the cases whose name holds this text")
    args = ap.parse_args(argv)
    sides = [layers._cases(load(src, name), src)
             for src, name in ((args.a, "nanoband_a"), (args.b, "nanoband_b"))]
    names = [n for n in sides[0] if n.startswith(CASES) and args.only in n]
    print(f"A = {args.a}, B = {args.b}; {args.pairs} pairs, process time")
    print(f"{'case':42s} {'A median':>10s} {'B median':>10s} "
          f"{'B/A':>7s}  wins A:B")
    for name in names:
        unit, fa = sides[0][name]
        fb = sides[1][name][1]
        fa("cpu"), fb("cpu")
        ta, tb = [], []
        for i in range(args.pairs):
            if i % 2:
                tb.append(sample(fb))
                ta.append(sample(fa))
            else:
                ta.append(sample(fa))
                tb.append(sample(fb))
        ratio = statistics.median(b / a for a, b in zip(ta, tb))
        wins_a = sum(a < b for a, b in zip(ta, tb))
        wins_b = sum(b < a for a, b in zip(ta, tb))
        print(f"{name:42s} {statistics.median(ta):10.4g} "
              f"{statistics.median(tb):10.4g} {ratio:7.3f}  "
              f"{wins_a}:{wins_b}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
