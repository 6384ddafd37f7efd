"""Stepping semantics: spiking vectors, formulas, delay modes, traces."""

import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gensys import make_random_system
from snpkit.cli import main
from snpkit.engine import (
    MODES,
    SimState,
    Trace,
    TraceTree,
    _advance,
    achievable_first_intervals,
    check_step_identities,
    enumerate_spiking_vectors,
    formula_comparison_report,
    formula_step,
    initial_state,
    is_valid_spiking_vector,
    operational_step,
    rule_status,
    run_trace,
    status_from_dst,
    step_no_delay,
    step_with_delay_v1,
    step_with_delay_v2,
    update_delay_state,
)
from snpkit.matrices import (
    consumption_matrix,
    production_matrix,
    spiking_matrix,
)
from snpkit.model import parse_system


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


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=120, deadline=None)
def test_is_valid_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    sys = make_random_system(rng, max_neurons=3, max_rules=6, max_spikes=4)
    C = tuple(rng.randint(0, 4) for _ in range(sys.neuron_count))
    St = tuple(rng.randint(0, 1) for _ in range(sys.neuron_count))
    listed = set(enumerate_spiking_vectors(sys, C, St))
    for bits in itertools.product((0, 1), repeat=sys.rule_count):
        assert is_valid_spiking_vector(sys, C, St, bits) == (bits in listed)


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
        nxt = update_delay_state(example3, s0, (1, 0, 0, 1), mode)
        assert nxt.k == 1
        assert nxt.dst == (0, 0, 0, 2)
        assert nxt.st == (1, 1, 0)
    # standard mode queues the delayed production for step 2
    nxt = update_delay_state(example3, s0, (1, 0, 0, 1), "standard")
    assert nxt.pending == (None, None, None, (2, 1))
    nxt = update_delay_state(example3, s0, (1, 0, 0, 1), "paper-trace")
    assert nxt.pending == (None, None, None, None)


def test_update_delay_state_decrements_and_reopens(example3):
    mid = SimState(
        k=2, config=(1, 0, 0), dst=(0, 0, 0, 1), st=(1, 1, 0),
        pending=(None,) * 4,
    )
    nxt = update_delay_state(example3, mid, (1, 0, 0, 0), "paper-trace")
    assert nxt.dst == (0, 0, 0, 0)
    assert nxt.st == (1, 1, 1)


def test_update_delay_state_no_delays_all_open(example1):
    nxt = update_delay_state(example1, initial_state(example1), (1, 0, 1, 1, 0))
    assert nxt.st == (1, 1, 1) and nxt.dst == (0, 0, 0, 0, 0)


def test_status_helpers(example3):
    assert status_from_dst(example3, (0, 0, 0, 2)) == (1, 1, 0)
    assert status_from_dst(example3, (0, 0, 0, 0)) == (1, 1, 1)
    assert rule_status(example3, (1, 1, 0)) == (1, 1, 1, 0)


def test_bad_mode_rejected(example3):
    with pytest.raises(ValueError, match="unknown mode"):
        update_delay_state(example3, initial_state(example3), (0, 0, 0, 0), "fast")
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
    assert tr.final_state.k == 4
    assert tr.final_state.pending == (None,) * 4


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
    assert tr.emission_steps == (0,)
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
    lines = tr.to_json_lines().splitlines()
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
    rep = check_step_identities(example3, state, mode="paper-trace")
    (entry,) = rep.entries
    assert entry.St == (1, 1, 0) and entry.RSt == (1, 1, 1, 0)
    assert entry.Iv == (1, 0, 0, 0)
    assert entry.lhs == entry.rhs == (-1, 1, 0)
    assert entry.rst_identity_holds
    assert entry.v1_eq_oracle and entry.v1_eq_v2


def test_identity_fails_when_gatings_differ(example3):
    # entering k=1: the producer is open but one receiver is closed, so
    # receiver-side masking (lhs) and owner-side masking (rhs) split
    state = SimState(
        k=1, config=(0, 1, 0), dst=(0, 0, 0, 2), st=(1, 1, 0),
        pending=(None,) * 4,
    )
    rep = check_step_identities(example3, state, mode="paper-trace")
    (entry,) = rep.entries
    assert entry.lhs == (1, -1, 0)
    assert entry.rhs == (1, -1, 1)
    assert not entry.rst_identity_holds
    assert entry.v1_eq_oracle  # the trace semantics itself is consistent
    assert not rep.all_agree


def test_identities_trivial_when_everything_open(example1):
    rep = check_step_identities(example1, initial_state(example1))
    assert len(rep.entries) == 2
    M = spiking_matrix(example1)
    for entry in rep.entries:
        assert entry.rst_identity_holds
        assert entry.v1_eq_v2 and entry.v1_eq_oracle
        assert entry.v1_config == step_no_delay((2, 1, 1), entry.Sp, M)
    assert rep.all_agree


def test_v2_status_reading_splits_on_lookahead_closure(example3):
    tr = run_trace(example3, 5, policy="first", mode="paper-trace")
    report = formula_comparison_report(example3, tr)
    assert [c.v2_carry_agrees for c in report] == [True] * 5
    # the recorded-status reading breaks exactly where the next step
    # fires the delayed rule (closure recorded at firing time)
    assert [c.v2_recorded_agrees for c in report] == [True, True, True, False, True]
    bad = report[3]
    assert bad.v2_recorded == (1, 0, 0)
    assert bad.actual_next == (1, 0, 1)


def test_check_step_identities_accepts_explicit_next_status(example3):
    # entering k=3, all open; the recorded status at k=4 is (1,1,0)
    state = SimState(
        k=3, config=(0, 1, 0), dst=(0,) * 4, st=(1, 1, 1), pending=(None,) * 4
    )
    carry = check_step_identities(example3, state, mode="paper-trace")
    assert carry.entries[0].v1_eq_v2  # carry reading agrees
    recorded = check_step_identities(
        example3, state, mode="paper-trace", st_next=(1, 1, 0)
    )
    entry = recorded.entries[0]
    assert entry.v1_config == (1, 0, 1)
    assert entry.v2_config == (1, 0, 0)
    assert not entry.v1_eq_v2


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
            for r, _child in node.children:
                assert sum(r.Sp) >= 1  # no idle steps in a delay-free system
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
    assert tr.final_state.config == tuple(
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
    one-pass bookkeeping against the reference at every step, and the
    invariant that lets halting ignore `pending`."""
    state = initial_state(sys)
    for _ in range(steps):
        if mode == "standard":
            queued = tuple(q is not None for q in state.pending)
            assert queued == tuple(d > 0 for d in state.dst)
        else:
            assert all(q is None for q in state.pending)
        cands = enumerate_spiking_vectors(sys, state.config, state.st)
        sp = rng.choice(cands) if cands else (0,) * sys.rule_count
        rec_dst = _ref_recorded_dst(sys, state, sp, mode)
        expected = (
            rec_dst,
            status_from_dst(sys, rec_dst),
            _ref_indicator(sys, state, sp, mode),
            _ref_update_delay_state(sys, state, sp, mode),
        )
        assert _advance(sys, state, sp, mode) == expected
        state = formula_step(sys, state, sp, mode)[1]


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    steps=st.integers(min_value=0, max_value=12),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=150, deadline=None)
def test_one_pass_bookkeeping_matches_per_mode_reference(seed, steps, mode):
    rng = random.Random(seed)
    sys = make_random_system(rng, max_rules=8, allow_delay=True)
    _walk_against_reference(sys, mode, rng, steps)


@pytest.mark.parametrize("mode", MODES)
def test_one_pass_bookkeeping_delayed_firing_at_k0(example3, mode):
    # n3's delayed rule fires at k = 0, the paper-trace special case; in
    # standard mode its production falls due at k = 2
    for seed in range(5):
        _walk_against_reference(example3, mode, random.Random(seed), 12)


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=80, deadline=None)
def test_modes_coincide_without_delays(seed):
    sys = make_random_system(random.Random(seed), max_neurons=4, max_rules=6)
    a = run_trace(sys, 6, policy="random", seed=seed, mode="standard")
    b = run_trace(sys, 6, policy="random", seed=seed, mode="paper-trace")
    assert a.configs == b.configs
    assert [r.Sp for r in a.records] == [r.Sp for r in b.records]
