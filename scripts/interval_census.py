#!/usr/bin/env python3
"""Census of achievable gaps between the first two output spikes.

Builds the bounded computation tree of a system once per depth, for
increasing depths, and prints its path count and which first-intervals
occur on its paths.  On the shipped 3-neuron system the census is
{2, ..., depth-1} at every horizon: every gap of at least two steps is
achievable and a gap of one step never is, so the generated set fills
out the naturals minus 1 as the horizon grows."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from snpkit.engine import MODES, achievable_first_intervals, run_trace
from snpkit.model import parse_system

DEFAULT = pathlib.Path(__file__).resolve().parents[1] / "systems" / "example1.snp"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("system", nargs="?", default=str(DEFAULT))
    ap.add_argument("--max-depth", type=int, default=12)
    ap.add_argument("--mode", choices=MODES, default="standard")
    args = ap.parse_args()

    sys_ = parse_system(pathlib.Path(args.system).read_text())
    if sys_.out_neuron is None:
        raise SystemExit("system has no out neuron; nothing is ever emitted")

    previous: set[int] = set()
    for depth in range(2, args.max_depth + 1):
        tree = run_trace(sys_, depth, policy="exhaustive", mode=args.mode)
        census = achievable_first_intervals(tree)
        gained = sorted(census - previous)
        print(
            f"depth {depth:2d}: paths={tree.leaf_count():5d} "
            f"intervals={sorted(census)} new={gained}"
        )
        if 1 in census:
            print("  !! interval 1 achieved; census no longer matches N - {1}")
        previous = census


if __name__ == "__main__":
    main()
