"""snpkit benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload sim|explore|reach|static \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed fixes the generated `.snp`
files and the query list (see workloads.py).  With ``--trace 0`` the
queries run end to end as `python -m snpkit.cli` subprocesses in a closed
loop (harness.py) and the end-to-end metrics are printed, with times
scaled to a calibration job run alongside; with ``--trace 1`` the same
list runs in-process under spans placed around the library's public
functions (tracing.py) and the per-layer metrics are printed.  Every output is checked (oracles.py).  The last line of stdout
is one JSON object: correct, attempted, failed and the metrics, each with
its unit.  Inputs, captured output and spans go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")


def _log(line: str) -> None:
    print(line, flush=True)


def main(argv: list[str] | None = None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "snpkit", "cli.py")):
        print(f"perfbench: no snpkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import harness
    import oracles
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    work = os.path.join(WORK, args.workload)
    inputs = os.path.join(work, "in")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    paths = {}
    for name, spec in wl.specs.items():
        path = os.path.join(inputs, f"{name}.snp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec.text())
        paths[name] = os.path.relpath(path, ROOT)
    oracle = oracles.Oracle(wl.specs)
    _log(f"workload {wl.name}, seed {args.seed}: {len(wl.queries)} queries "
         f"over {len(wl.specs)} files")

    if args.trace:
        os.chdir(ROOT)  # the CLI resolves the relative input paths
        result = tracing.run(wl, oracle, paths, _log, os.path.join(work, "spans.jsonl"), ROOT)
    else:
        result = harness.run(wl, oracle, paths, ROOT, work, args.seconds, _log)
    shutil.rmtree(inputs, ignore_errors=True)

    for name, (value, unit) in result["metrics"].items():
        _log(f"{name:<32} {value:>14.6g} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
