#!/usr/bin/env python3
"""Where the with-delay step formulas agree and where they part ways.

Replays the delayed reference system under both closure conventions and
prints, per executed step, whether the status-masked one-step formula
reproduces the recorded next configuration under each reading of
"status at k+1", plus the per-prefix closed-form report and the
owner-vs-receiver gating identity at every recorded state.  These are
comparison reports: the splits are genuine properties of the formulas,
not bugs, so nothing here is asserted."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cli_load import load_valid
from snpkit.engine import initial_state, operational_step, run_trace
from snpkit.formulas import (
    check_step_identities,
    formula_comparison_report,
    verify_delay_closed_form,
)

DEFAULT = pathlib.Path(__file__).resolve().parents[1] / "systems" / "example3.snp"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("system", nargs="?", default=str(DEFAULT))
    ap.add_argument("--steps", type=int, default=5)
    args = ap.parse_args()

    sys_ = load_valid(args.system)

    for mode in ("paper-trace", "standard"):
        trace = run_trace(sys_, args.steps, policy="first", mode=mode)
        print(f"\n== one-step formula vs recorded trace, mode={mode} ==")
        for cmp_ in formula_comparison_report(sys_, trace):
            print(
                f"k={cmp_.k}: actual {cmp_.actual_next} "
                f"carry-status {cmp_.v2_carry} "
                f"({'agrees' if cmp_.v2_carry_agrees else 'SPLITS'}) "
                f"recorded-status {cmp_.v2_recorded} "
                f"({'agrees' if cmp_.v2_recorded_agrees else 'SPLITS'})"
            )

        print(f"== closed form per prefix, mode={mode} ==")
        for e in verify_delay_closed_form(sys_, trace).entries:
            flag = "agrees" if e.agrees else "SPLITS"
            print(f"prefix {e.prefix}: predicted {e.predicted} "
                  f"actual {e.actual} {flag}")

        print(f"== gating identity at each recorded state, mode={mode} ==")
        state = initial_state(sys_)  # the states the trace passed through
        for rec in trace.records[:-1]:
            report = check_step_identities(sys_, state, mode=mode)
            for e in report.entries:
                flag = "holds" if e.rst_identity_holds else "SPLITS"
                print(
                    f"k={rec.k} Sp={e.Sp}: receiver-gated {e.lhs} "
                    f"owner-gated {e.rhs} {flag}"
                )
            state = operational_step(sys_, state, rec.Sp, mode)


if __name__ == "__main__":
    main()
