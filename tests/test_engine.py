"""Stepping semantics: spiking vectors, formulas, delay modes, traces."""

import gc
import itertools
import json
import random
import tracemalloc
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import SYSTEMS_DIR
from gensys import make_random_system, ring_text
from snpkit import engine
from snpkit.cli import json_default, main
from snpkit.engine import (
    MODES,
    SimState,
    StepRecord,
    Trace,
    TraceTree,
    TreeNode,
    _advance,
    achievable_first_intervals,
    choice_table,
    enumerate_spiking_vectors,
    formula_step,
    initial_state,
    is_valid_spiking_vector,
    operational_step,
    run_trace,
    spiking_vector,
    step_no_delay,
    step_with_delay_v1,
)
from snpkit.formulas import (
    FormulaComparison,
    StepIdentityEntry,
    check_step_identities,
    formula_comparison_report,
    rule_status,
    step_with_delay_v2,
)
from snpkit.matrices import (
    consumption_matrix,
    hadamard,
    production_matrix,
    spiking_matrix,
    vec_add,
    vec_sub,
)
from snpkit.model import Rule, SNPSystem, parse_system, validate


def all_ones(n):
    return (1,) * n


# --- spiking vector enumeration and validity ---------------------------------


def test_enumerate_both_initial_choices(example1):
    got = enumerate_spiking_vectors(example1, (2, 1, 1), all_ones(3))
    assert got == [(1, 0, 1, 1, 0), (0, 1, 1, 1, 0)]


def test_enumerate_closed_neuron_contributes_nothing(example3):
    # sigma3 closed: its rule cannot be chosen even though its guard matches
    got = enumerate_spiking_vectors(example3, (1, 1, 1), (1, 1, 0))
    assert got == [(1, 1, 0, 0)]


def test_enumerate_empty_at_halting_config(example1):
    assert enumerate_spiking_vectors(example1, (0, 0, 0), all_ones(3)) == []


def test_validity_membership_goldens(example1):
    C, St = (2, 1, 1), all_ones(3)
    assert is_valid_spiking_vector(example1, C, St, (0, 1, 1, 1, 0))
    assert is_valid_spiking_vector(example1, C, St, (1, 0, 1, 1, 0))
    # two rules of sigma1 at once
    assert not is_valid_spiking_vector(example1, C, St, (1, 1, 1, 1, 0))
    # sigma2 selected while empty
    assert not is_valid_spiking_vector(example1, (2, 0, 1), St, (1, 0, 1, 1, 0))
    # a fireable neuron must fire
    assert not is_valid_spiking_vector(example1, C, St, (0, 0, 0, 0, 0))
    assert not is_valid_spiking_vector(example1, C, St, (1, 0, 1, 0, 0))
    # nothing applicable anywhere: the zero vector is not a spiking step
    assert not is_valid_spiking_vector(example1, (0, 0, 0), St, (0, 0, 0, 0, 0))
    # non-binary entries rejected
    assert not is_valid_spiking_vector(example1, C, St, (2, 0, 1, 1, 0))


def dense_key_vectors(sys, C, St):
    """The listing as it was before the choice table: the product of the
    per-neuron choices as dense vectors, sorted by a key that re-derives
    each vector's support."""
    n = sys.rule_count
    choices = []
    for j in range(sys.neuron_count):
        if not St[j]:
            continue
        applicable = tuple(i for i in sys.rules_of[j] if sys.rules[i].applicable(C[j]))
        if applicable:
            choices.append(applicable)
    if not choices:
        return []
    out = []
    for combo in itertools.product(*choices):
        v = [0] * n
        for i in combo:
            v[i] = 1
        out.append(tuple(v))
    out.sort(key=lambda v: tuple(i for i, b in enumerate(v) if b))
    return out


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_is_valid_agrees_with_enumeration(seed):
    """On systems whose rules' owners interleave (delays allowed), the
    listing is the dense-key sort it replaced, the choice table's heads are
    its head, and validity is membership in it: over every 0/1 vector up to
    8 rules, else over the listing and random 0/1 vectors."""
    rng = random.Random(seed)
    sys = make_random_system(rng, max_neurons=4, max_rules=10, allow_delay=True)
    C = tuple(rng.randint(0, 5) for _ in range(sys.neuron_count))
    St = tuple(rng.randint(0, 1) for _ in range(sys.neuron_count))
    listed = enumerate_spiking_vectors(sys, C, St)
    assert listed == dense_key_vectors(sys, C, St)
    table = choice_table(sys, C, St)
    heads = spiking_vector(sys, (rules[0] for rules in table)) if table else None
    assert heads == (listed[0] if listed else None)
    members = set(listed)
    if sys.rule_count <= 8:
        bit_vectors = itertools.product((0, 1), repeat=sys.rule_count)
    else:
        bit_vectors = listed + [
            tuple(rng.randint(0, 1) for _ in range(sys.rule_count)) for _ in range(64)
        ]
    for bits in bit_vectors:
        assert is_valid_spiking_vector(sys, C, St, bits) == (bits in members)


def _trace_by_listing(sys, steps, mode, rng=None):
    """run_trace as it was: each step takes the head of the full sorted
    listing (`first`), or rng.choice of it (seeded `random`), and steps
    through formula_step; halting reads that listing."""
    state = initial_state(sys)
    records = []
    while True:
        listed = enumerate_spiking_vectors(sys, state.config, state.st)
        halted = not listed and all(state.st)
        if halted or len(records) >= steps:
            return tuple(records), state, halted
        if not listed:
            sp = (0,) * sys.rule_count
        else:
            sp = listed[0] if rng is None else rng.choice(listed)
        record, state = formula_step(sys, state, sp, mode)
        records.append(record)


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    steps=st.integers(min_value=0, max_value=12),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=200, deadline=None)
def test_first_trace_matches_head_of_listing(seed, steps, mode):
    rng = random.Random(seed)
    sys = make_random_system(rng, max_neurons=4, max_rules=10, allow_delay=True)
    trace = run_trace(sys, steps, policy="first", mode=mode)
    records, state, halted = _trace_by_listing(sys, steps, mode)
    assert trace.records[:-1] == records
    assert _final(trace) == (state.k, state.config, state.st, state.dst)
    assert trace.halted == halted


def _final(trace):
    """What the terminal record keeps of the state entering it: k, C, St, DSt."""
    last = trace.records[-1]
    return last.k, last.C, last.St, last.DSt


SYSTEM_CACHES = {
    name for name, attr in vars(SNPSystem).items() if isinstance(attr, cached_property)
}


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    steps=st.integers(min_value=0, max_value=16),
    mode=st.sampled_from(MODES),
    policy=st.sampled_from(("first", "random")),
)
@settings(max_examples=200, deadline=None)
def test_memoized_trace_matches_listing_loop(seed, steps, mode, policy):
    """The per-run applicability lookup and the delayed-only bookkeeping
    against the listing loop, record for record, on systems whose rule
    owners interleave, with delays.  The lookup lives for one run: the
    system gains no attribute but its own cached properties."""
    rng = random.Random(seed)
    sys = make_random_system(
        rng, max_neurons=4, max_rules=10, max_spikes=6, allow_delay=True
    )
    before = set(vars(sys))
    trace = run_trace(sys, steps, policy=policy, mode=mode, seed=seed)
    assert set(vars(sys)) - before <= SYSTEM_CACHES
    walk = random.Random(seed) if policy == "random" else None
    records, state, halted = _trace_by_listing(sys, steps, mode, walk)
    assert trace.records[:-1] == records
    zero = (0,) * sys.rule_count
    assert trace.records[-1] == StepRecord(
        state.k, state.config, zero, zero, state.st, state.dst, (0,) * sys.neuron_count, 0
    )
    assert trace.halted == halted


@pytest.mark.parametrize("mode", MODES)
def test_random_trace_reads_one_table_per_time_point(example3, mode):
    expected = run_trace(example3, 12, policy="random", mode=mode, seed=7)
    with mock.patch("snpkit.engine.choice_table", wraps=choice_table) as table:
        trace = run_trace(example3, 12, policy="random", mode=mode, seed=7)
    assert trace == expected
    assert table.call_count == len(trace.records)
    assert sum(any(r.Sp) for r in trace.records) > 1


def test_first_trace_never_lists_the_product():
    """14 neurons with two choices each: the listing would hold 2^14
    vectors per step (an 11.9 MB traced peak); the table holds 28 rules."""
    ring = parse_system(ring_text(14))
    tracemalloc.start()
    try:
        trace = run_trace(ring, 5, policy="first")
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert trace.configs == ((2,) * 14,) * 6
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("mode", MODES)
def test_first_trace_does_not_call_the_listing(example3, mode):
    expected = run_trace(example3, 8, policy="first", mode=mode)
    with mock.patch(
        "snpkit.engine.enumerate_spiking_vectors", side_effect=AssertionError("listed")
    ):
        trace = run_trace(example3, 8, policy="first", mode=mode)
    assert trace == expected
    assert len(trace.records) > 1


# --- no-delay stepping --------------------------------------------------------


def test_net_gain_goldens(example1):
    M = spiking_matrix(example1)
    assert M.vecmat((1, 0, 1, 1, 0)) == (0, 0, 1)
    assert M.vecmat((0, 1, 1, 0, 1)) == (-1, 0, 0)
    assert M.vecmat((0, 0, 0, 0, 0)) == (0, 0, 0)


def test_step_no_delay_goldens(example1):
    M = spiking_matrix(example1)
    assert step_no_delay((2, 1, 1), (1, 0, 1, 1, 0), M) == (2, 1, 2)
    assert step_no_delay((2, 1, 2), (0, 1, 1, 0, 1), M) == (1, 1, 2)
    assert step_no_delay((2, 1, 1), (0, 0, 0, 0, 0), M) == (2, 1, 1)


def test_step_no_delay_rejects_negative_result(example1):
    M = spiking_matrix(example1)
    with pytest.raises(ValueError, match="negative"):
        step_no_delay((0, 0, 0), (0, 1, 1, 1, 0), M)


# --- delay bookkeeping ---------------------------------------------------------


def test_update_delay_state_on_firing(example3):
    s0 = initial_state(example3)
    for mode in ("paper-trace", "standard"):
        nxt = operational_step(example3, s0, (1, 0, 0, 1), mode)
        assert nxt.k == 1
        assert nxt.dst == (0, 0, 0, 2)
        assert nxt.st == (1, 1, 0)
    # standard mode queues the delayed production for step 2
    nxt = operational_step(example3, s0, (1, 0, 0, 1), "standard")
    assert nxt.pending == (None, None, None, (2, 1))
    nxt = operational_step(example3, s0, (1, 0, 0, 1), "paper-trace")
    assert nxt.pending == (None, None, None, None)


def test_update_delay_state_decrements_and_reopens(example3):
    mid = SimState(
        k=2, config=(1, 0, 0), dst=(0, 0, 0, 1), st=(1, 1, 0),
        pending=(None,) * 4,
    )
    nxt = operational_step(example3, mid, (1, 0, 0, 0), "paper-trace")
    assert nxt.dst == (0, 0, 0, 0)
    assert nxt.st == (1, 1, 1)


def test_update_delay_state_no_delays_all_open(example1):
    nxt = operational_step(example1, initial_state(example1), (1, 0, 1, 1, 0))
    assert nxt.st == (1, 1, 1) and nxt.dst == (0, 0, 0, 0, 0)


def test_status_helpers(example3):
    assert status_from_dst(example3, (0, 0, 0, 2)) == (1, 1, 0)
    assert status_from_dst(example3, (0, 0, 0, 0)) == (1, 1, 1)
    assert rule_status(example3, (1, 1, 0)) == (1, 1, 1, 0)


def test_bad_mode_rejected(example3):
    with pytest.raises(ValueError, match="unknown mode"):
        operational_step(example3, initial_state(example3), (0, 0, 0, 0), "fast")
    with pytest.raises(ValueError, match="unknown mode"):
        run_trace(example3, 1, mode="bogus")


# --- delay step formulas --------------------------------------------------------


def test_v1_formula_goldens(example3):
    PM, CM = production_matrix(example3), consumption_matrix(example3)
    # k=0: delayed rule consumes now, produces nothing yet
    assert step_with_delay_v1(
        (1, 0, 1), (1, 0, 0, 1), (1, 0, 0, 0), (1, 1, 1), PM, CM
    ) == (0, 1, 0)
    # k=1: sigma3 closed, the gain aimed at it is discarded
    assert step_with_delay_v1(
        (0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 0), (1, 1, 0), PM, CM
    ) == (1, 0, 0)
    # no action, no change
    assert step_with_delay_v1(
        (2, 3, 4), (0,) * 4, (0,) * 4, (1, 1, 1), PM, CM
    ) == (2, 3, 4)


def test_v1_reports_negative_with_context(example3):
    PM, CM = production_matrix(example3), consumption_matrix(example3)
    with pytest.raises(ValueError, match="step context"):
        step_with_delay_v1((0, 0, 0), (1, 0, 0, 0), (0,) * 4, (1, 1, 1), PM, CM)


def test_v2_formula_goldens(example3):
    M = spiking_matrix(example3)
    assert step_with_delay_v2((1, 0, 1), (1, 0, 0, 0), (1, 1, 0), M) == (0, 1, 0)
    assert step_with_delay_v2((1, 0, 0), (1, 0, 0, 0), (1, 1, 1), M) == (0, 1, 0)
    assert step_with_delay_v2((5, 6, 7), (0,) * 4, (1, 1, 1), M) == (5, 6, 7)


# --- golden trace, paper-trace mode ----------------------------------------------


def test_delayed_trace_reproduces_printed_table(example3):
    tr = run_trace(example3, 5, policy="first", mode="paper-trace")
    assert tr.configs == (
        (1, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 0),
    )
    recs = tr.records
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
    assert recs[1].NG == (1, -1, 0)
    assert not tr.halted


def test_delayed_trace_standard_mode(example3):
    tr = run_trace(example3, 10, policy="first", mode="standard")
    assert tr.configs == ((1, 0, 1), (0, 1, 0), (1, 0, 0), (0, 2, 0), (0, 0, 0))
    recs = tr.records
    # the delayed production is delivered when the delay expires (k=2)
    assert recs[2].Iv == (1, 0, 0, 1)
    # at k=3 sigma2 holds two spikes: only the forgetting rule fits
    assert recs[3].Sp == (0, 0, 1, 0)
    assert tr.halted
    assert tr.records[-1].k == 4
    assert tr.records[-1].DSt == (0,) * 4  # nothing left queued


def test_random_policy_is_reproducible(example3):
    a = run_trace(example3, 5, policy="random", mode="paper-trace", seed=7)
    b = run_trace(example3, 5, policy="random", mode="paper-trace", seed=7)
    assert a == b
    # every step of this system has a single candidate, so random == first
    assert a.configs == run_trace(example3, 5, mode="paper-trace").configs
    with pytest.raises(ValueError, match="seed"):
        run_trace(example3, 5, policy="random")
    with pytest.raises(ValueError, match="unknown policy"):
        run_trace(example3, 5, policy="best")


def test_zero_steps_trace(example1):
    tr = run_trace(example1, 0)
    assert len(tr.records) == 1
    assert tr.records[0].C == (2, 1, 1)
    assert not tr.halted


def test_first_policy_loop_and_spike_train(example1):
    tr = run_trace(example1, 10, policy="first")
    # first policy locks onto the (2,1,2) self-loop after one step
    assert tr.configs[1] == (2, 1, 2)
    assert tr.configs[2] == (2, 1, 2)
    assert tr.spike_train == "1000000000"
    assert [r.k for r in tr.records if r.emitted > 0] == [0]
    assert tr.first_interval is None


def test_idle_steps_deliver_delayed_production():
    text = (
        "neuron a spikes=1\nneuron b spikes=0\n"
        "rule a E=a c=1 p=1 d=2\n"
        "syn a b\n"
    )
    s = parse_system(text)
    tr = run_trace(s, 10, mode="standard")
    assert tr.configs == ((1, 0), (0, 0), (0, 0), (0, 1))
    assert [r.Sp for r in tr.records] == [(1,), (0,), (0,), (0,)]
    assert tr.records[2].Iv == (1,)  # release two steps after firing
    assert [r.St for r in tr.records] == [(1, 1), (0, 1), (0, 1), (1, 1)]
    assert tr.halted
    # paper-trace mode: the delayed production never lands anywhere
    tr2 = run_trace(s, 10, mode="paper-trace")
    assert tr2.configs == ((1, 0), (0, 0), (0, 0), (0, 0))
    assert all(r.Iv == (0,) for r in tr2.records[1:])
    assert tr2.halted


def test_trace_json_lines(example3):
    tr = run_trace(example3, 2, mode="paper-trace")
    lines = [json.dumps(r, default=json_default) for r in tr.records]
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert set(first) == {"k", "C", "Sp", "Iv", "St", "DSt", "NG", "emitted"}
    assert first["C"] == [1, 0, 1] and first["Sp"] == [1, 0, 0, 1]


# --- operational oracle -----------------------------------------------------------


def test_operational_step_no_delay(example1):
    s0 = initial_state(example1)
    nxt = operational_step(example1, s0, (1, 0, 1, 1, 0))
    assert nxt.config == (2, 1, 2) and nxt.k == 1


def test_operational_step_closed_receiver_loses_spike(example3):
    state = SimState(
        k=1, config=(0, 1, 0), dst=(0, 0, 0, 2), st=(1, 1, 0),
        pending=(None, None, None, (2, 1)),
    )
    nxt = operational_step(example3, state, (0, 1, 0, 0), "standard")
    assert nxt.config == (1, 0, 0)  # sigma3's share was rejected


def test_operational_matches_formula_along_golden_traces(example3):
    for mode in ("paper-trace", "standard"):
        state = initial_state(example3)
        for _ in range(6):
            cands = enumerate_spiking_vectors(example3, state.config, state.st)
            sp = cands[0] if cands else (0,) * 4
            record, nxt = formula_step(example3, state, sp, mode)
            assert operational_step(example3, state, sp, mode) == nxt
            state = nxt


def test_operational_overconsumption_guard(example1):
    state = SimState(
        k=0, config=(0, 1, 1), dst=(0,) * 5, st=(1, 1, 1), pending=(None,) * 5
    )
    with pytest.raises(ValueError, match="consumed more"):
        operational_step(example1, state, (0, 1, 0, 0, 0))


# --- identity checks ----------------------------------------------------------------


def test_identities_on_pinned_open_state(example3):
    # entering k=2: sigma3 closed with one step left, sigma1 about to fire
    state = SimState(
        k=2, config=(1, 0, 0), dst=(0, 0, 0, 1), st=(1, 1, 0),
        pending=(None,) * 4,
    )
    (entry,) = check_step_identities(example3, state, mode="paper-trace")
    assert entry.St == (1, 1, 0) and entry.RSt == (1, 1, 1, 0)
    assert entry.Iv == (1, 0, 0, 0)
    assert entry.lhs == entry.rhs == (-1, 1, 0)
    assert entry.v1_config == entry.oracle_config == entry.v2_config


def test_identity_fails_when_gatings_differ(example3):
    # entering k=1: the producer is open but one receiver is closed, so
    # receiver-side masking (lhs) and owner-side masking (rhs) split
    state = SimState(
        k=1, config=(0, 1, 0), dst=(0, 0, 0, 2), st=(1, 1, 0),
        pending=(None,) * 4,
    )
    (entry,) = check_step_identities(example3, state, mode="paper-trace")
    assert entry.lhs == (1, -1, 0)
    assert entry.rhs == (1, -1, 1)
    assert entry.v1_config == entry.oracle_config  # the trace semantics itself is consistent


def test_v2_masks_by_the_carry_status_entering_k_plus_1(example3):
    # standard, entering k=2: sigma3's production falls due while it is
    # closed, and it reopens at k+1, so v2's mask keeps the -1 that Iv . M
    # charges it for the consumption it made at firing
    state = SimState(
        k=2, config=(1, 0, 0), dst=(0, 0, 0, 1), st=(1, 1, 0),
        pending=(None, None, None, (2, 1)),
    )
    (entry,) = check_step_identities(example3, state)
    assert entry.St == (1, 1, 0) and entry.Iv == (1, 0, 0, 1)
    assert entry.v1_config == entry.oracle_config == (0, 2, 0)
    assert entry.v2_config == (0, 2, -1)


def test_identities_trivial_when_everything_open(example1):
    entries = check_step_identities(example1, initial_state(example1))
    assert len(entries) == 2
    M = spiking_matrix(example1)
    for entry in entries:
        assert entry.lhs == entry.rhs
        assert entry.v1_config == entry.v2_config == entry.oracle_config
        assert entry.v1_config == step_no_delay((2, 1, 1), entry.Sp, M)


def test_v2_status_reading_splits_on_lookahead_closure(example3):
    tr = run_trace(example3, 5, policy="first", mode="paper-trace")
    report = formula_comparison_report(example3, tr)
    assert [c.v2_carry == c.actual_next for c in report] == [True] * 5
    # the recorded-status reading breaks exactly where the next step
    # fires the delayed rule (closure recorded at firing time)
    assert [c.v2_recorded == c.actual_next for c in report] == [True, True, True, False, True]
    bad = report[3]
    assert bad.v2_recorded == (1, 0, 0)
    assert bad.actual_next == (1, 0, 1)


def _identities_by_advance(sys, state, mode):
    """check_step_identities as it derived the step itself, kept as a test
    reference: _advance, then step_with_delay_v1 over PM and CM."""
    M, PM, CM = spiking_matrix(sys), production_matrix(sys), consumption_matrix(sys)
    entries = []
    for sp in enumerate_spiking_vectors(sys, state.config, state.st):
        _dst, st_rec, iv, _carry, st_next = _advance(sys, state.k, state.dst, sp, mode)
        rst = rule_status(sys, st_rec)
        entries.append(StepIdentityEntry(
            Sp=sp,
            Iv=iv,
            St=st_rec,
            RSt=rst,
            lhs=hadamard(st_rec, M.vecmat(iv)),
            rhs=M.vecmat(hadamard(rst, iv)),
            v1_config=step_with_delay_v1(state.config, sp, iv, st_rec, PM, CM),
            v2_config=step_with_delay_v2(state.config, iv, st_next, M),
            oracle_config=operational_step(sys, state, sp, mode).config,
        ))
    return tuple(entries)


def _comparisons_by_advance(sys, trace):
    """formula_comparison_report as it replayed only the delay bookkeeping,
    by _advance from k = 0, kept as a test reference."""
    M = spiking_matrix(sys)
    out = []
    dst = (0,) * sys.rule_count
    for rec, nxt in zip(trace.records, trace.records[1:]):
        *_, dst, st = _advance(sys, rec.k, dst, rec.Sp, trace.mode)
        out.append(FormulaComparison(
            k=rec.k,
            actual_next=nxt.C,
            v2_carry=step_with_delay_v2(rec.C, rec.Iv, st, M),
            v2_recorded=step_with_delay_v2(rec.C, rec.Iv, nxt.St, M),
        ))
    return tuple(out)


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    steps=st.integers(min_value=0, max_value=10),
    mode=st.sampled_from(MODES),
    policy=st.sampled_from(("first", "random")),
)
@settings(max_examples=150, deadline=None)
def test_formula_comparisons_read_formula_step_as_advance_derived(seed, steps, mode, policy):
    """The comparisons read the step from formula_step; on delayed systems,
    at every state along a trace (stepped by the oracle) and over the whole
    trace, they equal the derivation from _advance that they replaced."""
    sys = make_random_system(
        random.Random(seed), max_neurons=4, max_rules=8, allow_delay=True
    )
    assume(sys.delayed_rules)
    trace = run_trace(sys, steps, policy=policy, mode=mode, seed=seed)
    assert formula_comparison_report(sys, trace) == _comparisons_by_advance(sys, trace)
    state = initial_state(sys)
    for rec in trace.records:
        assert check_step_identities(sys, state, mode) == _identities_by_advance(sys, state, mode)
        state = operational_step(sys, state, rec.Sp, mode)


# --- exhaustive exploration -----------------------------------------------------------


def test_exhaustive_tree_shape(example1):
    tree = run_trace(example1, 3, policy="exhaustive")
    assert isinstance(tree, TraceTree)
    assert tree.depth == 3
    assert tree.levels[0] == (tree.root,)
    assert len(tree.levels) <= 4  # every path has at most 3 records
    for k, level in enumerate(tree.levels):
        assert len({node.state for node in level}) == len(level)  # merged
        for node in level:
            assert node.state.k == k
            sps = enumerate_spiking_vectors(example1, node.state.config, node.state.st)
            # one edge per listed vector: no idle steps in a delay-free system
            assert len(node.children) == (len(sps) if k < 3 else 0)
    assert tree.leaf_count() >= 2


def test_first_interval_census(example1):
    got = achievable_first_intervals(run_trace(example1, 10, policy="exhaustive"))
    assert got == set(range(2, 10))
    assert 1 not in got


def _reference_paths(sys, depth, mode):
    """(records, final state) of every computation, expanded path by path
    with no sharing: the recursive explorer the layered one replaced."""
    idle = (0,) * sys.rule_count

    def expand(state, records):
        vectors = enumerate_spiking_vectors(sys, state.config, state.st)
        halted = not vectors and all(state.st) and all(q is None for q in state.pending)
        if state.k == depth or halted:
            yield records, state
            return
        for sp in vectors or [idle]:
            record, nxt = formula_step(sys, state, sp, mode)
            yield from expand(nxt, records + [record])

    yield from expand(initial_state(sys), [])


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    depth=st.integers(min_value=0, max_value=6),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=150, deadline=None)
def test_layered_tree_matches_path_by_path_reference(seed, depth, mode):
    sys = make_random_system(
        random.Random(seed), max_rules=8, allow_delay=True, with_out=True
    )
    tree = run_trace(sys, depth, policy="exhaustive", mode=mode)
    assume(tree.leaf_count() <= 5000)  # keeps the unshared reference cheap
    paths = list(_reference_paths(sys, depth, mode))
    assert tree.leaf_count() == len(paths)
    # equal final states, hence equal final configs
    assert {leaf.state for leaf in tree.leaves()} == {final for _r, final in paths}
    intervals = set()
    for records, _final in paths:
        emission_steps = [r.k for r in records if r.emitted > 0]
        if len(emission_steps) >= 2:
            intervals.add(emission_steps[1] - emission_steps[0])
    assert achievable_first_intervals(tree) == intervals


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    depth=st.integers(min_value=0, max_value=6),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=150, deadline=None)
def test_tree_root_walk_and_levels_agree(seed, depth, mode):
    # the CLI reads levels, a walk from the root reads children: one DAG
    sys = make_random_system(
        random.Random(seed), max_rules=8, allow_delay=True, with_out=True
    )
    tree = run_trace(sys, depth, policy="exhaustive", mode=mode)
    reached, stack = {tree.root}, [tree.root]
    while stack:
        for _r, child in stack.pop().children:
            if child not in reached:
                reached.add(child)
                stack.append(child)
    assert reached == {node for level in tree.levels for node in level}
    assert tree.levels[0] == (tree.root,) and len(tree.levels) <= depth + 1
    idle = (0,) * sys.rule_count
    for level, below in zip(tree.levels, tree.levels[1:] + ((),)):
        # level k+1 is the distinct children of level k, in expansion order
        expanded = [child for node in level for _r, child in node.children]
        assert list(dict.fromkeys(expanded)) == list(below)
        for node in level:
            state = node.state
            sps = enumerate_spiking_vectors(sys, state.config, state.st)
            halted = not sps and all(state.st) and all(q is None for q in state.pending)
            expected = [] if halted or state.k == depth else sps or [idle]
            stepped = [formula_step(sys, state, sp, mode) for sp in expected]
            assert [(e, c.state) for e, c in node.children] == [
                (rec.emitted, nxt) for rec, nxt in stepped
            ]


def test_exhaustive_depth_not_bounded_by_recursion_limit(capsys, tmp_path):
    ring = tmp_path / "ring.snp"
    ring.write_text(
        "neuron a spikes=1\nneuron b spikes=0\n"
        "rule a E=a c=1 p=1 d=0\nrule b E=a c=1 p=1 d=0\n"
        "syn a b\nsyn b a\n"
    )
    code = main(["simulate", str(ring), "--steps", "5000", "--policy", "exhaustive"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "paths to depth 5000: 1"


def test_exhaustive_stops_once_every_path_has_halted(
    capsys, tmp_path, example3, example3_text
):
    # example3 halts at k=4 in standard mode: a far larger budget costs nothing
    tree = run_trace(example3, 10**6, policy="exhaustive")
    assert tree.depth == 10**6
    assert [[node.state.k for node in level] for level in tree.levels] == [
        [0], [1], [2], [3], [4]
    ]
    assert tree.leaves() == list(tree.levels[4])
    path = tmp_path / "example3.snp"
    path.write_text(example3_text)
    code = main(["simulate", str(path), "--steps", "1000000", "--policy", "exhaustive"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "paths to depth 1000000: 1"


def test_exhaustive_deep_delayed_path_in_paper_trace_mode(capsys, example3):
    # example3 never halts in paper-trace mode: one node per level, one path
    tree = run_trace(example3, 20_000, policy="exhaustive", mode="paper-trace")
    assert len(tree.levels) == 20_001
    assert all(len(level) == 1 for level in tree.levels)
    assert tree.leaf_count() == 1
    path = str(SYSTEMS_DIR / "example3.snp")
    argv = ["simulate", path, "--mode", "paper-trace", "--policy", "exhaustive"]
    assert main([*argv, "--steps", "20000"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "paths to depth 20000: 1"


def _tree_by_step(sys, depth, mode):
    """The levels of the exhaustive build before states were expanded once per
    run: only equal states of one step merge, and every node is expanded."""
    idle = [(0,) * sys.rule_count]
    root = TreeNode(initial_state(sys), [])
    levels, level = [], {root.state: root}
    while level:
        levels.append(tuple(level.values()))
        if len(levels) > depth:
            break
        below = {}
        for state, node in level.items():
            sps = enumerate_spiking_vectors(sys, state.config, state.st)
            if not sps and all(state.st):  # halted
                continue
            for sp in sps or idle:
                record, nxt = formula_step(sys, state, sp, mode)
                if nxt not in below:
                    below[nxt] = TreeNode(nxt, [])
                node.children.append((record.emitted, below[nxt]))
        level = below
    return levels


def _k_free(state):
    """A state's step made relative: queued releases counted from k, and
    whether k is 0 (paper-trace defers a closure fired there)."""
    pending = tuple(None if q is None else (q[0] - state.k, q[1]) for q in state.pending)
    return state.config, state.dst, state.st, pending, state.k == 0


def _counted_tree(sys, depth, mode):
    """The exhaustive tree, and the enumerate_spiking_vectors calls it made."""
    calls = []
    listing = engine.enumerate_spiking_vectors

    def counted(*args):
        calls.append(args)
        return listing(*args)

    with mock.patch.object(engine, "enumerate_spiking_vectors", counted):
        tree = run_trace(sys, depth, policy="exhaustive", mode=mode)
    return tree, len(calls)


def _assert_same_levels(tree, ref):
    """Equal states in the same order on every level, and each node's
    children the same emissions leading to the same positions of the level
    below."""
    assert [[n.state for n in level] for level in tree.levels] == [
        [n.state for n in level] for level in ref
    ]
    at = {node: i for level in tree.levels for i, node in enumerate(level)}
    ref_at = {node: i for level in ref for i, node in enumerate(level)}
    for level, ref_level in zip(tree.levels, ref):
        for node, ref_node in zip(level, ref_level):
            assert [(e, at[c]) for e, c in node.children] == [
                (e, ref_at[c]) for e, c in ref_node.children
            ]


def _expanded_keys(tree):
    return {_k_free(node.state) for level in tree.levels[: tree.depth] for node in level}


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    depth=st.integers(min_value=0, max_value=12),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=300, deadline=None)
def test_memoized_tree_matches_per_step_expansion(seed, depth, mode):
    sys = make_random_system(
        random.Random(seed), max_rules=8, allow_delay=True, with_out=True
    )
    tree, calls = _counted_tree(sys, depth, mode)
    _assert_same_levels(tree, _tree_by_step(sys, depth, mode))
    assert calls == len(_expanded_keys(tree))


def _side_by_side(text, copies):
    """`copies` disjoint copies of a system file; only the first keeps its
    out neuron (perfbench's disjoint_union)."""
    named = {"neuron": 1, "rule": 1, "syn": 2, "out": 1}  # leading neuron names
    lines = []
    for c in range(copies):
        for line in text.splitlines():
            words = line.split()
            if not words or words[0] == "#" or (words[0] == "out" and c):
                continue
            n = named[words[0]]
            words[1 : 1 + n] = [f"{w}_{c}" for w in words[1 : 1 + n]]
            lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


# a ring passing one spike on, its first rule delayed: in standard mode the
# state entering k = 1 recurs every 5 steps with its production queued
DELAYED_RING = (
    "neuron r0 spikes=1\nneuron r1 spikes=0\nneuron r2 spikes=0\n"
    "rule r0 E=a c=1 p=1 d=2\nrule r1 E=a c=1 p=1 d=0\nrule r2 E=a c=1 p=1 d=0\n"
    "syn r0 r1\nsyn r1 r2\nsyn r2 r0\nout r2\n"
)


@pytest.mark.parametrize(
    "text, mode, depth, recurs",
    [
        ("example3", "standard", 10, False),  # one path, halted at k = 4
        ("example3", "paper-trace", 40, True),  # recurs with a closure fired at k = 0
        ("ex1x2", "standard", 8, True),
        ("ex1x2", "standard", 16, True),
        (DELAYED_RING, "standard", 30, True),
    ],
    ids=["example3", "example3-paper", "ex1x2-d8", "ex1x2-d16", "delayed-ring"],
)
def test_each_key_listed_once(text, mode, depth, recurs):
    if text == "ex1x2":
        text = _side_by_side((SYSTEMS_DIR / "example1.snp").read_text(), 2)
    elif text == "example3":
        text = (SYSTEMS_DIR / "example3.snp").read_text()
    sys = parse_system(text)
    tree, calls = _counted_tree(sys, depth, mode)
    _assert_same_levels(tree, _tree_by_step(sys, depth, mode))
    assert calls == len(_expanded_keys(tree))
    assert (calls < sum(len(level) for level in tree.levels[:depth])) is recurs


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "text", ["example1", "example3", DELAYED_RING], ids=["example1", "example3", "delayed-ring"]
)
def test_simstates_are_made_only_at_the_edge(text, mode):
    """The engine steps plain (config, dst, st): a trace makes one SimState,
    its start, whatever its length (its end is its terminal record), and a
    tree one per node.  Only a trace records its steps, one StepRecord per
    time point; a tree makes none, and an edge is its emission and its child."""
    if text.startswith("example"):
        text = (SYSTEMS_DIR / f"{text}.snp").read_text()
    sys = parse_system(text)
    for policy, seed in (("first", None), ("random", 5)):
        with mock.patch("snpkit.engine.SimState", wraps=SimState) as made:
            with mock.patch("snpkit.engine.StepRecord", wraps=StepRecord) as recorded:
                trace = run_trace(sys, 12, policy=policy, mode=mode, seed=seed)
        assert len(trace.records) > 3
        assert made.call_count == 1
        assert recorded.call_count == len(trace.records)
    with mock.patch("snpkit.engine.SimState", wraps=SimState) as made:
        with mock.patch("snpkit.engine.StepRecord", wraps=StepRecord) as recorded:
            tree = run_trace(sys, 12, policy="exhaustive", mode=mode)
    assert made.call_count == sum(len(level) for level in tree.levels)
    assert recorded.call_count == 0
    edges = [edge for level in tree.levels for node in level for edge in node.children]
    assert edges and all(type(emitted) is int for emitted, _child in edges)


@pytest.mark.parametrize("enabled", [True, False])
def test_exhaustive_build_pauses_cyclic_gc(example1, enabled):
    seen = []
    build = engine._run_tree

    def spy(*args):
        seen.append(gc.isenabled())
        return build(*args)

    def fail(*args):
        raise RuntimeError("build failed")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch.object(engine, "_run_tree", spy):
            run_trace(example1, 3, policy="exhaustive")
        after_build = gc.isenabled()
        with mock.patch.object(engine, "_run_tree", fail):
            with pytest.raises(RuntimeError, match="build failed"):
                run_trace(example1, 3, policy="exhaustive")
        after_failure = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert after_build is after_failure is enabled


# --- property suites --------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_no_delay_formula_matches_oracle(seed):
    rng = random.Random(seed)
    sys = make_random_system(rng, max_neurons=4, max_rules=6, max_spikes=5)
    M = spiking_matrix(sys)
    state = initial_state(sys)
    for sp in enumerate_spiking_vectors(sys, state.config, state.st):
        assert (
            step_no_delay(state.config, sp, M)
            == operational_step(sys, state, sp).config
        )


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_delay_free_reduction_of_both_formulas(seed):
    rng = random.Random(seed)
    sys = make_random_system(rng, max_neurons=4, max_rules=6, max_spikes=5)
    M = spiking_matrix(sys)
    PM, CM = production_matrix(sys), consumption_matrix(sys)
    ones = all_ones(sys.neuron_count)
    state = initial_state(sys)
    for sp in enumerate_spiking_vectors(sys, state.config, state.st):
        plain = step_no_delay(state.config, sp, M)
        assert step_with_delay_v1(state.config, sp, sp, ones, PM, CM) == plain
        assert step_with_delay_v2(state.config, sp, ones, M) == plain


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    steps=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=120, deadline=None)
def test_telescoping_along_no_delay_traces(seed, steps):
    rng = random.Random(seed)
    sys = make_random_system(rng, max_neurons=4, max_rules=6, max_spikes=5)
    M = spiking_matrix(sys)
    tr = run_trace(sys, steps, policy="random", seed=seed)
    total = (0,) * sys.rule_count
    for r in tr.records[:-1]:
        total = tuple(a + b for a, b in zip(total, r.Sp))
    assert tr.records[-1].C == tuple(
        c0 + d for c0, d in zip(sys.initial, M.vecmat(total))
    )


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    steps=st.integers(min_value=0, max_value=8),
    # (min neurons, max neurons, max rules): the small tier, and a tier at
    # benchmark sizes where the sparse products skip most cells
    size=st.sampled_from([(1, 4, 6), (8, 12, 36)]),
)
@settings(max_examples=120, deadline=None)
def test_nonnegativity_and_oracle_agreement_with_delays(seed, steps, size):
    rng = random.Random(seed)
    lo, hi, rules = size
    sys = make_random_system(
        rng, max_neurons=hi, max_rules=rules, max_spikes=5, allow_delay=True,
        min_neurons=lo,
    )
    for mode in ("standard", "paper-trace"):
        state = initial_state(sys)
        for _ in range(steps):
            cands = enumerate_spiking_vectors(sys, state.config, state.st)
            if not cands and all(state.st) and all(
                q is None for q in state.pending
            ):
                break
            sp = rng.choice(cands) if cands else (0,) * sys.rule_count
            record, nxt = formula_step(sys, state, sp, mode)
            assert all(x >= 0 for x in nxt.config)
            assert operational_step(sys, state, sp, mode) == nxt
            state = nxt


# The per-mode helpers the one-pass `_advance` replaced, kept as the
# reference it is checked against: formula and oracle stepping now share
# the bookkeeping, so their agreement can no longer catch a fault in it.


def _ref_recorded_dst(sys, state, Sp, mode):
    if mode == "standard":
        return state.dst
    rec = []
    for i, r in enumerate(sys.rules):
        if Sp[i] and r.d > 0 and state.k > 0:
            rec.append(r.d)
        else:
            rec.append(state.dst[i])
    return tuple(rec)


def _ref_carry_dst(sys, state, Sp, mode):
    nxt = []
    for i, r in enumerate(sys.rules):
        if Sp[i] and r.d > 0:
            if mode == "standard" or state.k == 0:
                nxt.append(r.d)
            else:
                nxt.append(r.d - 1)
        else:
            nxt.append(max(state.dst[i] - 1, 0))
    return tuple(nxt)


def status_from_dst(sys, dst):
    """A neuron is open iff none of its rules is mid-delay."""
    st = [1] * sys.neuron_count
    for i, left in enumerate(dst):
        if left > 0:
            st[sys.rules[i].owner] = 0
    return tuple(st)


def _ref_released_now(state):
    return tuple(
        i for i, q in enumerate(state.pending) if q is not None and q[0] == state.k
    )


def _ref_indicator(sys, state, Sp, mode):
    iv = [1 if Sp[i] and sys.rules[i].d == 0 else 0 for i in range(sys.rule_count)]
    if mode == "standard":
        for i in _ref_released_now(state):
            iv[i] = 1
    return tuple(iv)


def _ref_update_delay_state(sys, state, Sp, mode):
    carry = _ref_carry_dst(sys, state, Sp, mode)
    pending = list(state.pending)
    if mode == "standard":
        for i in _ref_released_now(state):
            pending[i] = None
        for i, r in enumerate(sys.rules):
            if Sp[i] and r.d > 0:
                pending[i] = (state.k + r.d, r.p)
    return SimState(
        k=state.k + 1,
        config=state.config,
        dst=carry,
        st=status_from_dst(sys, carry),
        pending=tuple(pending),
    )


def _walk_against_reference(sys, mode, rng, steps):
    """Random walk of valid vectors (idle when there is none), checking the
    one-pass bookkeeping against the reference at every step, and that the
    queue is the one derived from dst: a production is queued exactly while
    its rule's delay runs (which lets halting ignore `pending`), for release
    at k + dst - 1."""
    state = initial_state(sys)
    for _ in range(steps):
        if mode == "standard":
            assert state.pending == tuple(
                (state.k + d - 1, r.p) if d > 0 else None
                for d, r in zip(state.dst, sys.rules)
            )
        else:
            assert all(q is None for q in state.pending)
        cands = enumerate_spiking_vectors(sys, state.config, state.st)
        sp = rng.choice(cands) if cands else (0,) * sys.rule_count
        rec_dst = _ref_recorded_dst(sys, state, sp, mode)
        carry = _ref_update_delay_state(sys, state, sp, mode)
        expected = (
            rec_dst,
            status_from_dst(sys, rec_dst),
            _ref_indicator(sys, state, sp, mode),
            carry.dst,
            carry.st,
        )
        assert _advance(sys, state.k, state.dst, sp, mode) == expected
        state = formula_step(sys, state, sp, mode)[1]
        assert (state.k, state.dst, state.st, state.pending) == (
            carry.k, carry.dst, carry.st, carry.pending
        )


def _delays_shaped(sys, rng, shape):
    """sys with its delays redrawn: "drawn" keeps them, "none" has no
    delayed rule, "all" delays every rule (forgetting rules, which take no
    delay, are dropped) and "interleaved" delays every other spiking rule
    in declaration order."""
    if shape == "drawn":
        return sys
    rules, spiking = [], 0
    for r in sys.rules:
        if r.is_forgetting and shape == "all":
            continue
        d = 0
        if not r.is_forgetting:
            if shape == "all" or (shape == "interleaved" and spiking % 2 == 0):
                d = rng.randint(1, 3)
            spiking += 1
        rules.append(Rule(r.owner, r.guard_src, r.c, r.p, d, r.guard))
    return SNPSystem(sys.neuron_names, sys.initial, tuple(rules), sys.syn, sys.out_neuron)


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    steps=st.integers(min_value=0, max_value=12),
    mode=st.sampled_from(MODES),
    shape=st.sampled_from(("drawn", "none", "all", "interleaved")),
)
@settings(max_examples=200, deadline=None)
def test_one_pass_bookkeeping_matches_per_mode_reference(seed, steps, mode, shape):
    rng = random.Random(seed)
    sys = make_random_system(rng, max_rules=8, allow_delay=True, max_delay=5)
    sys = _delays_shaped(sys, rng, shape)
    assert validate(sys) == ()
    delayed = [r.d > 0 for r in sys.rules]
    if shape == "none":
        assert not any(delayed)
    elif shape == "all":
        assert all(delayed)
    _walk_against_reference(sys, mode, rng, steps)


@pytest.mark.parametrize("mode", MODES)
def test_one_pass_bookkeeping_delayed_firing_at_k0(example3, mode):
    # n3's delayed rule fires at k = 0, the paper-trace special case; in
    # standard mode its production falls due at k = 2
    for seed in range(5):
        _walk_against_reference(example3, mode, random.Random(seed), 12)


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_bookkeeping_is_blind_to_the_queue(seed):
    """The engine reads dst alone: along a random walk of valid vectors, a
    state and the same state with its queue blanked step alike."""
    rng = random.Random(seed)
    sys = make_random_system(rng, max_rules=8, allow_delay=True, max_delay=5)
    blank = (None,) * sys.rule_count
    for mode in MODES:
        state = initial_state(sys)
        for _ in range(12):
            blanked = SimState(state.k, state.config, state.dst, state.st, blank)
            cands = enumerate_spiking_vectors(sys, state.config, state.st)
            sp = rng.choice(cands) if cands else (0,) * sys.rule_count
            for step in (operational_step, formula_step):
                assert step(sys, blanked, sp, mode) == step(sys, state, sp, mode)
            state = formula_step(sys, state, sp, mode)[1]


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=80, deadline=None)
def test_modes_coincide_without_delays(seed):
    sys = make_random_system(random.Random(seed), max_neurons=4, max_rules=6)
    a = run_trace(sys, 6, policy="random", seed=seed, mode="standard")
    b = run_trace(sys, 6, policy="random", seed=seed, mode="paper-trace")
    assert a.configs == b.configs
    assert [r.Sp for r in a.records] == [r.Sp for r in b.records]


# The compositions the one-pass step formulas replaced, kept as the
# references they are checked against.


def _ref_step_with_delay_v1(C, Sp, Iv, St, PM, CM):
    nxt = vec_sub(vec_add(C, hadamard(St, PM.vecmat(Iv))), CM.vecmat(Sp))
    if any(x < 0 for x in nxt):
        raise ValueError(
            f"negative spike count {nxt}: step context C={C} Sp={Sp} Iv={Iv} St={St}"
        )
    return nxt


def _ref_step_with_delay_v2(C, Iv, St_next, M):
    return hadamard(St_next, vec_add(C, M.vecmat(Iv)))


def _outcome(formula, *args):
    """The result, or for a ValueError whether it names the step context."""
    try:
        return formula(*args)
    except ValueError as exc:
        return ValueError, "step context" in str(exc)


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    # which argument, if any, gets one entry too many or too few
    bad=st.sampled_from((None, "C", "Sp", "Iv", "St")),
    extra=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_formulas_match_the_composed_reference(seed, bad, extra):
    rng = random.Random(seed)
    sys = make_random_system(rng, max_rules=8, allow_delay=True, max_delay=3)
    M, PM, CM = spiking_matrix(sys), production_matrix(sys), consumption_matrix(sys)
    n, m = sys.rule_count, sys.neuron_count
    vecs = {
        "C": tuple(rng.randint(0, 3) for _ in range(m)),
        "Sp": tuple(rng.randint(0, 1) for _ in range(n)),  # not always valid
        "Iv": tuple(rng.randint(0, 1) for _ in range(n)),
        "St": tuple(rng.randint(0, 1) for _ in range(m)),  # closed receivers
    }
    if bad is not None:
        v = vecs[bad]
        vecs[bad] = v + (1,) if extra or not v else v[:-1]
    C, Sp, Iv, St = vecs["C"], vecs["Sp"], vecs["Iv"], vecs["St"]
    got = _outcome(step_with_delay_v1, C, Sp, Iv, St, PM, CM)
    assert got == _outcome(_ref_step_with_delay_v1, C, Sp, Iv, St, PM, CM)
    if bad is not None:
        assert got == (ValueError, False)
    got = _outcome(step_with_delay_v2, C, Iv, St, M)
    assert got == _outcome(_ref_step_with_delay_v2, C, Iv, St, M)
    if bad in ("C", "Iv", "St"):
        assert got == (ValueError, False)


def _assert_plain_step(sys, M, state, record, nxt, mode):
    """A recorded delay-free step is C + Sp . M, and formula_step remakes it."""
    assert nxt.config == step_no_delay(record.C, record.Sp, M)
    assert record.NG == M.vecmat(record.Sp)
    assert formula_step(sys, state, record.Sp, mode) == (record, nxt)


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    steps=st.integers(min_value=0, max_value=8),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=120, deadline=None)
def test_delay_free_steps_are_the_plain_formula(seed, steps, mode):
    sys = make_random_system(random.Random(seed), max_neurons=4, max_rules=6)
    assert not sys.has_delays
    M = spiking_matrix(sys)
    for policy in ("first", "random"):
        tr = run_trace(sys, steps, policy=policy, mode=mode, seed=seed)
        state = initial_state(sys)
        for record, after in zip(tr.records, tr.records[1:]):
            nxt = formula_step(sys, state, record.Sp, mode)[1]
            assert nxt.config == after.C
            _assert_plain_step(sys, M, state, record, nxt, mode)
            state = nxt
        assert _final(tr) == (state.k, state.config, state.st, state.dst)
    depth = min(steps, 4)
    tree = run_trace(sys, depth, policy="exhaustive", mode=mode)
    for k, level in enumerate(tree.levels):
        for node in level:
            C = node.state.config
            sps = enumerate_spiking_vectors(sys, C, node.state.st) if k < depth else []
            assert [c.state.config for _e, c in node.children] == [
                step_no_delay(C, sp, M) for sp in sps
            ]
            stepped = [formula_step(sys, node.state, sp, mode) for sp in sps]
            assert [(e, c.state) for e, c in node.children] == [
                (rec.emitted, nxt) for rec, nxt in stepped
            ]
