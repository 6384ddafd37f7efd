"""Acceptance gate: the eight criteria the package is judged by.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each test prints its PASS line only after every assertion
in it held; a failed criterion shows up as a failed test.  Criteria 1,
3 and 5 also carry wall-clock budgets, asserted with time.perf_counter.
"""

import random
import time

from gensys import make_random_system
from snpkit.engine import (
    SimState,
    achievable_first_intervals,
    enumerate_spiking_vectors,
    initial_state,
    operational_step,
    run_trace,
    step_no_delay,
)
from snpkit.formulas import check_step_identities, rule_status, step_with_delay_v2
from snpkit.matrices import (
    consumption_matrix,
    hadamard,
    production_matrix,
    spiking_matrix,
    struc_matrix,
    structural_report,
    augmented_matrix,
    vec_add,
)
from snpkit.reachability import (
    decompose_sum_vector,
    is_reachable,
    reachable_set,
)


def passed(n: int, label: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {label}")


def test_acceptance_1_matrix_reproduction(example1, example3):
    t0 = time.perf_counter()
    assert spiking_matrix(example1).data == (
        (-1, 1, 1),
        (-2, 1, 1),
        (1, -1, 1),
        (0, 0, -1),
        (0, 0, -2),
    )
    assert augmented_matrix(example1).data == (
        (-1, 1, 1, 0),
        (-2, 1, 1, 0),
        (1, -1, 1, 0),
        (0, 0, -1, 1),
        (0, 0, -2, 0),
    )
    assert struc_matrix(example1).data == (
        (-1, 1, 1),
        (1, -1, 1),
        (0, 0, -1),
    )
    assert spiking_matrix(example3).data == (
        (-1, 1, 0),
        (1, -1, 1),
        (0, -2, 0),
        (0, 1, -1),
    )
    assert production_matrix(example3).data == (
        (0, 1, 0),
        (1, 0, 1),
        (0, 0, 0),
        (0, 1, 0),
    )
    assert consumption_matrix(example3).data == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 2, 0),
        (0, 0, 1),
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"matrix reproduction took {elapsed:.3f}s"
    passed(1, "golden matrices reproduce entry for entry")


def test_acceptance_2_production_consumption_split(example1, example3):
    for sys in (example1, example3):
        assert production_matrix(sys).sub(consumption_matrix(sys)) == spiking_matrix(sys)
    rng = random.Random(20210)
    for _ in range(1000):
        sys = make_random_system(
            rng, max_neurons=5, max_rules=8, max_spikes=5, allow_delay=True
        )
        assert production_matrix(sys).sub(consumption_matrix(sys)) == spiking_matrix(sys)
    passed(2, "PM - CM = M on goldens and 1000 random systems")


def test_acceptance_3_no_delay_stepping(example1):
    t0 = time.perf_counter()
    M = spiking_matrix(example1)
    c0 = example1.initial
    c1 = step_no_delay(c0, (1, 0, 1, 1, 0), M)
    assert c1 == (2, 1, 2)
    assert step_no_delay(c1, (0, 1, 1, 0, 1), M) == (1, 1, 2)
    rng = random.Random(977)
    checked = 0

    def compare_all_steps(sys, mat, config, depth):
        nonlocal checked
        init = initial_state(sys)
        state = SimState(init.k, config, init.dst, init.st, init.pending)
        for sp in enumerate_spiking_vectors(sys, config, state.st):
            formula = step_no_delay(config, sp, mat)
            oracle = operational_step(sys, state, sp).config
            assert formula == oracle
            checked += 1
            if depth > 1:
                compare_all_steps(sys, mat, formula, depth - 1)

    for _ in range(1000):
        sys = make_random_system(
            rng, max_neurons=4, max_rules=6, max_spikes=5, allow_delay=False
        )
        compare_all_steps(sys, spiking_matrix(sys), sys.initial, depth=2)
    assert checked > 1000  # the corpus actually exercised the equivalence
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"no-delay stepping suite took {elapsed:.1f}s"
    passed(3, f"formula = oracle on {checked} steps over 1000 random systems")


def test_acceptance_4_delay_trace_reproduction(example3):
    tr = run_trace(example3, 5, policy="first", mode="paper-trace")
    assert tr.configs == (
        (1, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 0),
    )
    recs = tr.records
    # two rows that are easy to get wrong, both forced by the update
    # formulas: the step-0 gain row is (0,1,0), and the k=4 row fires
    # rules 1 and 4 (not a copy of the k=1 row)
    assert [r.Sp for r in recs] == [
        (1, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1),
        (0, 0, 0, 0),
    ]
    assert [r.Iv for r in recs] == [
        (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0),
        (0, 0, 0, 0),
    ]
    assert [r.DSt for r in recs] == [
        (0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 2),
        (0, 0, 0, 1),
    ]
    assert [r.St for r in recs] == [
        (1, 1, 1), (1, 1, 0), (1, 1, 0), (1, 1, 1), (1, 1, 0), (1, 1, 0),
    ]
    assert recs[0].NG == (-1, 1, -1)
    M = spiking_matrix(example3)
    # masked one-step formula at the two checked points
    assert step_with_delay_v2(recs[0].C, recs[0].Iv, recs[1].St, M) == (0, 1, 0)
    assert step_with_delay_v2(recs[2].C, recs[2].Iv, recs[3].St, M) == (0, 1, 0)
    passed(4, "delayed trace table and the two masked-step checks reproduce")


def test_acceptance_5_reachability(example1):
    t0 = time.perf_counter()
    cert = is_reachable(example1, (1, 1, 2), k_max=4)
    assert cert.reachable and cert.k == 1

    cert = is_reachable(example1, (2, 1, 2), k_max=2)
    assert cert.reachable and cert.k == 1

    two_step = decompose_sum_vector(example1, example1.initial, (2, 0, 2, 1, 1))
    assert two_step.reachable and two_step.k == 2
    assert two_step.spiking_vectors == ((1, 0, 1, 1, 0), (1, 0, 1, 0, 1))

    failing = decompose_sum_vector(example1, example1.initial, (2, 0, 2, 3, 0))
    assert not failing.reachable
    (failure,) = failing.failures
    assert failure.reason == "not a valid sum vector"
    assert failure.table[-1].residual == (0, 0, 0, 2, -1)

    cert = is_reachable(example1, (2, 0, 2), k_max=6)
    assert cert.verdict == "not-reachable-within-bounds"

    truth = reachable_set(example1, 4)
    assert len(truth) == 7
    for config, depth in truth.items():
        cert = is_reachable(example1, config, k_max=4)
        assert cert.reachable, config
        assert cert.k == depth, config
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"reachability suite took {elapsed:.1f}s"
    passed(5, "decompositions, refusals and oracle agreement at depth <= 4")


def test_acceptance_6_generated_set(example1):
    tree = run_trace(example1, 10, policy="exhaustive")
    intervals = achievable_first_intervals(tree)
    assert intervals == set(range(2, 10))
    assert 1 not in intervals
    assert min(intervals) == 2
    passed(6, "first intervals to depth 10 are exactly {2..9}; 1 unachievable")


def test_acceptance_7_structural_analysis(example1):
    rep = structural_report(example1)
    assert rep.struc_rank == 2
    assert rep.rank_cycle_hint is True
    assert rep.dfs_has_cycle is True
    # the two-neuron loop the signals point at
    assert (0, 1) in example1.syn and (1, 0) in example1.syn
    passed(7, "structural rank 2 of 3, both cycle signals fire")


def test_acceptance_8_property_suites(example3):
    rng = random.Random(5150)

    # telescoped no-delay closed form along generated traces
    for i in range(150):
        sys = make_random_system(
            rng, max_neurons=4, max_rules=6, max_spikes=5, allow_delay=False
        )
        tr = run_trace(sys, 6, policy="random", seed=i)
        M = spiking_matrix(sys)
        total = (0,) * sys.rule_count
        for idx, rec in enumerate(tr.records):
            expect = vec_add(tr.records[0].C, M.vecmat(total))
            assert rec.C == expect
            total = vec_add(total, rec.Sp)
            assert all(x >= 0 for x in rec.C)

    # owner-vs-receiver status identity: the displayed instance
    M3 = spiking_matrix(example3)
    st = (1, 1, 0)
    iv = (1, 0, 0, 0)
    lhs = hadamard(st, M3.vecmat(iv))
    rhs = M3.vecmat(hadamard(rule_status(example3, st), iv))
    assert lhs == rhs == (-1, 1, 0)

    # random states in the regime where it provably holds: every
    # selected rule has an open owner and feeds no closed neuron
    held = 0
    for _ in range(300):
        sys = make_random_system(
            rng, max_neurons=4, max_rules=6, max_spikes=5, allow_delay=True
        )
        M = spiking_matrix(sys)
        st = tuple(rng.randint(0, 1) for _ in range(sys.neuron_count))
        rst = rule_status(sys, st)
        iv = tuple(
            1
            if rst[i]
            and rng.random() < 0.5
            and all(st[j] or M.data[i][j] == 0 for j in range(sys.neuron_count))
            else 0
            for i in range(sys.rule_count)
        )
        lhs = hadamard(st, M.vecmat(iv))
        rhs = M.vecmat(hadamard(rst, iv))
        assert lhs == rhs
        held += any(iv)
    assert held > 50

    # checker soundness on unrestricted states: its classification must
    # match a from-scratch recomputation (disagreement itself is data,
    # reported by the checker, never asserted).  Walking a few steps puts
    # closed neurons into the mix, where the identity genuinely fails.
    def audit(sys, state, splits):
        M = spiking_matrix(sys)
        report = check_step_identities(sys, state)
        for e in report.entries:
            again_lhs = hadamard(e.St, M.vecmat(e.Iv))
            again_rhs = M.vecmat(hadamard(e.RSt, e.Iv))
            assert e.lhs == again_lhs and e.rhs == again_rhs
            assert e.rst_identity_holds == (again_lhs == again_rhs)
            assert e.v1_eq_oracle  # the gated formula tracks the oracle
            splits += not e.rst_identity_holds
        return splits

    splits = 0
    for seed in range(120):
        picker = random.Random(seed)
        sys = make_random_system(
            random.Random(seed), max_neurons=3, max_rules=5, max_spikes=4,
            allow_delay=True,
        )
        tr = run_trace(sys, 3, policy="random", seed=seed, mode="standard")
        for rec in tr.records:
            assert all(x >= 0 for x in rec.C)  # nonnegativity holds throughout
        state = initial_state(sys)
        for _ in range(3):
            splits = audit(sys, state, splits)
            candidates = enumerate_spiking_vectors(sys, state.config, state.st)
            if not candidates:
                break
            state = operational_step(sys, state, picker.choice(candidates))

    # the recorded mid-delay state where the two gatings demonstrably part
    closed = SimState(
        k=1, config=(0, 1, 0), dst=(0, 0, 0, 2), st=(1, 1, 0),
        pending=(None,) * 4,
    )
    report = check_step_identities(example3, closed, mode="paper-trace")
    (entry,) = report.entries
    assert entry.lhs == (1, -1, 0) and entry.rhs == (1, -1, 1)
    assert not entry.rst_identity_holds
    splits += 1
    assert splits > 0
    passed(
        8,
        f"telescoping, nonnegativity, status identity (pinned + regimes; "
        f"{splits} genuine splits observed on unrestricted states)",
    )
