#!/usr/bin/env python3
"""Regenerate every frozen golden value used in the test suite.

Prints the matrix forms, the two reference traces, the reachability
candidates and decompositions, and the breadth-first depth map, so the
numbers pinned in tests/ can be audited against a fresh run."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from snpkit.engine import run_trace
from snpkit.formulas import verify_delay_closed_form
from snpkit.matrices import (
    augmented_matrix,
    consumption_matrix,
    production_matrix,
    row_rank,
    spiking_matrix,
    struc_matrix,
)
from snpkit.model import parse_system
from snpkit.reachability import (
    decompose_sum_vector,
    is_reachable,
    reachable_set,
    sum_vector_solutions,
)

SYSTEMS = pathlib.Path(__file__).resolve().parents[1] / "systems"


def banner(title: str) -> None:
    print(f"\n== {title} ==")


def main() -> None:
    two_neuron_loop = parse_system((SYSTEMS / "example1.snp").read_text())
    delayed = parse_system((SYSTEMS / "example3.snp").read_text())

    banner("matrix forms, 3-neuron system with output")
    for name, mat in (
        ("M", spiking_matrix(two_neuron_loop)),
        ("augmented", augmented_matrix(two_neuron_loop)),
        ("PM", production_matrix(two_neuron_loop)),
        ("CM", consumption_matrix(two_neuron_loop)),
        ("struc", struc_matrix(two_neuron_loop)),
    ):
        print(f"{name}:")
        print(mat.to_text())
    print(f"struc rank: {row_rank(struc_matrix(two_neuron_loop))}")

    banner("matrix forms, delayed system")
    for name, mat in (
        ("M", spiking_matrix(delayed)),
        ("PM", production_matrix(delayed)),
        ("CM", consumption_matrix(delayed)),
    ):
        print(f"{name}:")
        print(mat.to_text())

    banner("delayed trace, firing-step closure convention")
    tr = run_trace(delayed, 5, policy="first", mode="paper-trace")
    for r in tr.records:
        print(f"k={r.k} C={r.C} Sp={r.Sp} Iv={r.Iv} St={r.St} DSt={r.DSt}")

    banner("delayed trace, delivery-at-expiry convention")
    tr_std = run_trace(delayed, 10, policy="first", mode="standard")
    for r in tr_std.records:
        print(f"k={r.k} C={r.C} Sp={r.Sp} Iv={r.Iv} St={r.St} DSt={r.DSt}")
    print(f"halted: {tr_std.halted}")

    banner("status-masked closed form along the recorded trace")
    for e in verify_delay_closed_form(delayed, tr).entries:
        flag = "agrees" if e.agrees else "SPLITS"
        print(f"prefix {e.prefix}: predicted {e.predicted} actual {e.actual} {flag}")

    banner("reachability candidates, target (2,1,2), k_max=2")
    M = spiking_matrix(two_neuron_loop)
    for s in sum_vector_solutions(M, two_neuron_loop.initial, (2, 1, 2), 2):
        print(f"s={s} sum={sum(s)}")

    banner("many-rule candidates, target (1,0,1), k_max=5")
    many_rules = parse_system((SYSTEMS / "many_rules.snp").read_text())
    cands = sum_vector_solutions(spiking_matrix(many_rules), many_rules.initial, (1, 0, 1), 5)
    print(f"count: {len(cands)}")
    print(f"first: {cands[0]}")
    print(f"last: {cands[-1]}")

    banner("decompositions")
    for s_bar in ((2, 0, 2, 1, 1), (2, 0, 2, 3, 0), (1, 1, 3, 2, 1)):
        cert = decompose_sum_vector(two_neuron_loop, two_neuron_loop.initial, s_bar)
        print(f"s={s_bar}: {cert.verdict}", end="")
        if cert.reachable:
            print(f" k={cert.k} via {cert.spiking_vectors}")
        else:
            (failure,) = cert.failures
            print(f" ({failure.reason})")
            for row in failure.table:
                print(f"  i={row.step} Sp={row.Sp} residual={row.residual} C={row.config}")

    banner("verdicts")
    for target, k_max in (((1, 1, 2), 4), ((2, 1, 2), 2), ((2, 0, 2), 6)):
        cert = is_reachable(two_neuron_loop, target, k_max)
        print(f"target {target} k_max={k_max}: {cert.verdict}"
              + (f" k={cert.k}" if cert.reachable else ""))

    banner("breadth-first depth map, depth <= 4")
    for config, depth in sorted(reachable_set(two_neuron_loop, 4).items()):
        print(f"{config}: {depth}")


if __name__ == "__main__":
    main()
