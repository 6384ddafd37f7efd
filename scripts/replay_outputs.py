#!/usr/bin/env python3
"""Digest the CLI output of every perfbench query, to compare two checkouts.

    python3 scripts/replay_outputs.py WORKLOAD... [--seeds 1,2,3]

Builds the seeded queries of perfbench/workloads.py, writes their input
files under a temporary directory, and runs each query in-process through
snpkit.cli.main from this checkout's src/.  Prints, per workload, the
query count and a sha256 over (exit code, stdout, stderr, escaped
exception) of every query in order.  Paths are relative to the temporary
directory, so the same sources print the same digests on any checkout:
run the script of each checkout and compare the lines.
"""

import argparse
import hashlib
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from tracing import call_main  # noqa: E402


def digest(workload: str, seeds: list[int]) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        wl = workloads.build(workload, seed)
        for name, spec in wl.specs.items():
            pathlib.Path(workload, f"{name}.snp").write_text(spec.text(), encoding="utf-8")
        for q in wl.queries:
            code, out, err, error = call_main(q.argv(f"{workload}/{q.file}.snp"))
            h.update(repr((code, out, err, error)).encode())
            count += 1
    return count, h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated (default 1,2,3)")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in args.workloads:
            os.makedirs(name, exist_ok=True)
            count, sha = digest(name, seeds)
            print(f"{name} seeds {args.seeds}: {count} queries sha256 {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
