"""Reachability: candidate enumeration, decomposition, end-to-end decisions.

Golden values were derived by hand (solving the linear systems and
walking the decompositions on paper) and are cross-checked here against
bfs_oracle, which explores the computation tree directly and shares no
code with the algebraic pipeline: it steps by the operational
simulator's per-synapse delivery, never by the spiking matrix.  The
fraction-free elimination and the integer candidate enumeration are also
checked against the rational elimination and walk they replaced, kept
below as a test-only reference.
"""

import json
import random
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import snpkit.reachability as reachability
from conftest import SYSTEMS_DIR
from gensys import make_random_system, ring_text
from snpkit.cli import json_default
from snpkit.engine import (
    choice_table,
    enumerate_spiking_vectors,
    is_valid_spiking_vector,
    run_trace,
    spiking_vector,
    step_no_delay,
)
from snpkit.formulas import rule_status, verify_delay_closed_form
from snpkit.matrices import (
    IntMatrix,
    hadamard,
    row_rank,
    spiking_matrix,
    vec_add,
    vec_sub,
)
from snpkit.model import SNPSystem, parse_system
from snpkit.reachability import (
    CandidateFailure,
    ReachabilityCertificate,
    TrialRow,
    _integer_rref,
    bfs_oracle,
    decompose_sum_vector,
    is_reachable,
    reach_between,
    reachable_set,
    sum_vector_solutions,
)

C0 = (2, 1, 1)


# --- candidate enumeration -------------------------------------------------------


def test_family_for_target_212(example1):
    M = spiking_matrix(example1)
    delta = (0, 0, 1)
    cands = sum_vector_solutions(M, C0, vec_add(C0, delta), k_max=3)
    # every candidate solves s . M = delta exactly
    for s in cands:
        assert M.vecmat(s) == delta
    # differences of candidates lie in the left kernel, which has two
    # independent directions for five rules of rank 3
    assert row_rank(M) == 3
    diffs = [vec_sub(s, cands[0]) for s in cands[1:]]
    for v in diffs:
        assert M.vecmat(v) == (0, 0, 0)
    assert row_rank(IntMatrix(len(diffs), M.rows, tuple(diffs))) == 2


def test_family_inconsistent():
    # nothing ever feeds neuron b, so a delta with a positive b entry
    # has no rational solution at all
    text = """\
neuron a spikes=1
neuron b spikes=0
rule a E=a c=1 p=1 d=0
"""
    sys = parse_system(text)
    M = spiking_matrix(sys)
    assert sum_vector_solutions(M, (1, 0), (1, 1), k_max=3) == []
    # zero delta stays solvable
    assert (0,) in sum_vector_solutions(M, (1, 0), (1, 0), k_max=3)


def test_candidates_for_target_212(example1):
    M = spiking_matrix(example1)
    cands = sum_vector_solutions(M, C0, (2, 1, 2), k_max=2)
    assert cands == [(1, 0, 1, 1, 0), (2, 0, 2, 1, 1)]


def test_candidates_sorted_and_deduped(example1):
    M = spiking_matrix(example1)
    cands = sum_vector_solutions(M, C0, (2, 1, 2), k_max=3)
    assert cands == sorted(set(cands), key=lambda s: (sum(s), s))
    # k_max=3 admits the longer family member (2,0,2,3,0) as well
    assert (2, 0, 2, 3, 0) in cands
    for s in cands:
        assert all(x >= 0 for x in s)
        assert sum(s) <= 3 * example1.neuron_count
        assert vec_add(C0, M.vecmat(s)) == (2, 1, 2)


def test_candidates_for_unreachable_target(example1):
    M = spiking_matrix(example1)
    cands = sum_vector_solutions(M, C0, (2, 0, 2), k_max=6)
    # the algebra alone admits 17 candidates; none decomposes (below)
    assert len(cands) == 17
    assert cands[0] == (0, 1, 2, 0, 1)
    for s in cands:
        assert vec_add(C0, M.vecmat(s)) == (2, 0, 2)


def test_candidates_same_config_includes_zero(example1):
    M = spiking_matrix(example1)
    cands = sum_vector_solutions(M, C0, C0, k_max=2)
    assert cands[0] == (0, 0, 0, 0, 0)


def test_candidates_inconsistent_system_empty(example1):
    M = spiking_matrix(example1)
    # neuron 3 parity: rules change sigma_3 by +-1 or -2; pick a target
    # whose delta is rationally unsolvable
    assert sum_vector_solutions(M, C0, (2, 1, 1000), k_max=2) == []


def test_candidates_reject_bad_lengths(example1):
    M = spiking_matrix(example1)
    with pytest.raises(ValueError):
        sum_vector_solutions(M, (1, 2), (2, 1, 2), k_max=2)


def test_many_rule_candidates_golden():
    """Seven free variables at k_max=5; the count and both ends of the
    list were taken from the rational reference below."""
    sys = parse_system((SYSTEMS_DIR / "many_rules.snp").read_text())
    cands = sum_vector_solutions(spiking_matrix(sys), sys.initial, (1, 0, 1), k_max=5)
    assert len(cands) == 2200
    assert cands[0] == (2, 0, 0, 0, 2, 0, 0, 0, 0, 2)
    assert cands[-1] == (2, 3, 0, 0, 2, 3, 0, 5, 0, 0)


def _rref_parametrize(M, delta):
    """Row-reduce the equations s . M = delta over Q.

    Returns (free, exprs) where exprs[c] for a pivot column c is
    (const, {free_col: coef}) meaning s_c = const - sum(coef * s_f), or
    None when the system is inconsistent."""
    n, m = M.rows, M.cols
    # equation j:  sum_i s_i * M[i][j] = delta[j]
    aug = [
        [Fraction(M.data[i][j]) for i in range(n)] + [Fraction(delta[j])]
        for j in range(m)
    ]
    pivots = {}  # unknown column -> equation row
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        lead = aug[row][col]
        aug[row] = [x / lead for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots[col] = row
        row += 1
    for r in range(row, m):
        if aug[r][n] != 0:
            return None  # 0 = nonzero: no solutions at all
    free = [c for c in range(n) if c not in pivots]
    exprs = {}
    for col, r in pivots.items():
        exprs[col] = (aug[r][n], {f: aug[r][f] for f in free if aug[r][f] != 0})
    return free, exprs


def _assert_elimination_matches_reference(M, delta):
    """The fraction-free elimination is the rational one scaled by D: the
    same verdict, free variables and pivot columns, and D times each
    rational pivot row."""
    parts = _integer_rref(M, delta)
    ref = _rref_parametrize(M, delta)
    assert (parts is None) == (ref is None)
    if parts is None:
        return
    D, free, rows = parts
    ref_free, exprs = ref
    assert D > 0
    assert free == ref_free
    assert [col for col, _n, _a in rows] == list(exprs)
    for col, const, coefs in rows:
        ref_const, ref_coefs = exprs[col]
        assert const == D * ref_const
        assert coefs == [D * ref_coefs.get(f, 0) for f in free]


def _reference_enumerate_nonneg(M, delta, bound):
    """The rational walk the integer one replaced: every free assignment
    with free sum <= bound, each pivot rebuilt from Fractions at the leaf."""
    parts = _rref_parametrize(M, delta)
    if parts is None:
        return []
    free, exprs = parts
    out = []

    def walk(idx, assignment, free_sum):
        if idx < len(free):
            for v in range(bound - free_sum + 1):
                assignment[free[idx]] = v
                walk(idx + 1, assignment, free_sum + v)
            del assignment[free[idx]]
            return
        s = [0] * M.rows
        total = free_sum
        for col, val in assignment.items():
            s[col] = val
        for col, (const, coefs) in exprs.items():
            v = const - sum(c * assignment[f] for f, c in coefs.items())
            if v.denominator != 1 or v < 0:
                return
            s[col] = int(v)
            total += s[col]
            if total > bound:
                return
        out.append(tuple(s))

    walk(0, {}, 0)
    return out


def _assert_matches_reference(sys, C_from, C_to, k_max):
    M = spiking_matrix(sys)
    _assert_elimination_matches_reference(M, vec_sub(C_to, C_from))
    found = _reference_enumerate_nonneg(M, vec_sub(C_to, C_from), k_max * M.cols)
    expected = sorted(set(found), key=lambda s: (sum(s), s))
    assert sum_vector_solutions(M, C_from, C_to, k_max) == expected
    cert = reach_between(sys, C_from, C_to, k_max)
    with mock.patch.object(reachability, "_enumerate_nonneg", _reference_enumerate_nonneg):
        assert reach_between(sys, C_from, C_to, k_max) == cert


_SHAPES = {
    # neuron b is never fed: delta (0, 1) has no rational solution
    "inconsistent": ("""\
neuron a spikes=1
neuron b spikes=0
rule a E=a c=1 p=1 d=0
""", (1, 1), 3),
    # rows 2 and 3 cancel and neuron c has a zero column: rank 2 of 3
    "rank-deficient": ("""\
neuron a spikes=2
neuron b spikes=1
neuron c spikes=0
rule a E=a^2 c=2 p=1 d=0
rule a E=a c=1 p=1 d=0
rule b E=a c=1 p=1 d=0
syn a b
syn b a
""", (2, 1, 0), 4),
    # no rules at all: D = 1 and the empty sum vector is the only candidate
    "zero-rule": ("""\
neuron a spikes=1
neuron b spikes=0
""", (1, 0), 2),
    # two rules of full rank: no free variable, a single candidate
    "zero-free": ("""\
neuron a spikes=1
neuron b spikes=2
rule a E=a c=1 p=1 d=0
rule b E=a^2 c=2 p=1 d=0
syn a b
syn b a
""", (0, 2), 3),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_enumeration_shapes_match_reference(shape):
    text, target, k_max = _SHAPES[shape]
    sys = parse_system(text)
    M = spiking_matrix(sys)
    parts = _integer_rref(M, vec_sub(target, sys.initial))
    if shape == "inconsistent":
        assert parts is None
    elif shape == "rank-deficient":
        assert row_rank(M) < min(M.rows, M.cols) and parts[1]
    elif shape == "zero-rule":
        assert parts == (1, [], [])
        assert sum_vector_solutions(M, sys.initial, target, k_max) == [()]
    else:
        assert parts[1] == []
    _assert_matches_reference(sys, sys.initial, target, k_max)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**9),
    st.integers(0, 4),
    st.integers(0, 10**6),
    st.sampled_from((0, 0, -1, 1, 2)),
)
def test_integer_enumeration_matches_fraction_reference(seed, k_max, pick, bump):
    """Same elimination up to the common denominator, same candidate list
    and byte-identical certificates as the rational walk, on reachable
    targets (bump 0) and perturbed ones."""
    sys = make_random_system(random.Random(seed), max_rules=10, allow_delay=False)
    M = spiking_matrix(sys)
    free = len(_rref_parametrize(M, (0,) * M.cols)[0])
    assume(comb(k_max * M.cols + free, free) <= 20000)  # keeps the reference cheap
    targets = sorted(reachable_set(sys, k_max))
    target = list(targets[pick % len(targets)])
    j = pick % len(target)
    target[j] = max(0, target[j] + bump)
    _assert_matches_reference(sys, sys.initial, tuple(target), k_max)


# --- decomposition ------------------------------------------------------------


def test_decompose_two_step_golden(example1):
    cert = decompose_sum_vector(example1, C0, (2, 0, 2, 1, 1))
    assert cert.verdict == "reachable"
    assert cert.k == 2
    assert cert.spiking_vectors == ((1, 0, 1, 1, 0), (1, 0, 1, 0, 1))
    assert cert.configs == ((2, 1, 1), (2, 1, 2), (2, 1, 2))


def test_decompose_single_step(example1):
    cert = decompose_sum_vector(example1, C0, (1, 0, 1, 1, 0))
    assert cert.verdict == "reachable"
    assert cert.k == 1
    assert cert.configs[-1] == (2, 1, 2)


def test_decompose_zero_vector(example1):
    cert = decompose_sum_vector(example1, C0, (0, 0, 0, 0, 0))
    assert cert.verdict == "reachable"
    assert cert.k == 0
    assert cert.spiking_vectors == ()
    assert cert.configs == (C0,)


def test_decompose_failure_negative_residual(example1):
    # the candidate with sum 7 for target (2,1,2): walking it subtracts
    # past zero on rule 5's coordinate
    cert = decompose_sum_vector(example1, C0, (2, 0, 2, 3, 0))
    assert cert.verdict == "not-reachable-within-bounds"
    (failure,) = cert.failures
    assert failure.reason == "not a valid sum vector"
    first, last = failure.table
    assert first.residual == (1, 0, 1, 2, 0)
    assert first.Sp == (1, 0, 1, 1, 0)
    assert first.config == (2, 1, 2)
    assert last.residual == (0, 0, 0, 2, -1)
    assert last.Sp == (1, 0, 1, 0, 1)
    assert last.note == "not a valid sum vector"


def test_decompose_failure_unusable_spiking_vector(example1):
    # leftover (0,0,1,1,0) is {0,1}-valued but cannot fire where the
    # walk lands, and full backtracking finds no other split either
    cert = decompose_sum_vector(example1, C0, (1, 1, 3, 2, 1))
    assert cert.verdict == "not-reachable-within-bounds"
    (failure,) = cert.failures
    assert failure.reason == "not a valid spiking vector"
    assert failure.table[-1].Sp is None
    assert failure.table[-1].residual == (0, 0, 1, 1, 0)


def test_decompose_rejects_bad_input(example1):
    with pytest.raises(ValueError):
        decompose_sum_vector(example1, C0, (1, 0, 1))
    with pytest.raises(ValueError):
        decompose_sum_vector(example1, C0, (1, 0, -1, 0, 0))


def test_decompose_backtracks_past_greedy_dead_end():
    # the low-indexed rule leaves a spike behind, stranding the residual;
    # only the consume-both branch lets the rest of the sum fire
    text = """\
neuron a spikes=2
neuron b spikes=0
rule a E=a* c=1 p=1 d=0
rule a E=a^2 c=2 p=1 d=0
rule b E=a c=1 p=1 d=0
syn a b
syn b a
"""
    sys = parse_system(text)
    cert = decompose_sum_vector(sys, (2, 0), (1, 1, 1))
    assert cert.verdict == "reachable"
    assert cert.k == 3
    assert cert.spiking_vectors == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    replay = cert.configs[0]
    M = spiking_matrix(sys)
    for sp in cert.spiking_vectors:
        replay = step_no_delay(replay, sp, M)
    assert replay == cert.configs[-1]
    # the single-path narrative would have taken (1,0,0) first and died
    ones = (1, 1)
    assert enumerate_spiking_vectors(sys, (2, 0), ones)[0] == (1, 0, 0)


def _greedy_table_by_replay(sys, M, C0, s_bar):
    """The refusal table as it was built before the search kept its map:
    the greedy path walked again with fresh enumerations and steps."""
    ones = (1,) * sys.neuron_count
    residual = s_bar
    config = C0
    rows = []
    step = 0
    while True:
        cands = enumerate_spiking_vectors(sys, config, ones)
        usable = [sp for sp in cands if all(b <= r for b, r in zip(sp, residual))]
        if not usable:
            break
        sp = usable[0]
        residual = vec_sub(residual, sp)
        config = step_no_delay(config, sp, M)
        rows.append(TrialRow(step, residual, sp, config, None))
        step += 1
    if not cands or all(x in (0, 1) for x in residual):
        reason = "not a valid spiking vector"
        rows.append(TrialRow(step, residual, None, config, reason))
    else:
        reason = "not a valid sum vector"
        trial = cands[0]
        rows.append(TrialRow(step, vec_sub(residual, trial), trial, config, reason))
    return tuple(rows), reason


def decompose_by_replay(sys, C0, s_bar):
    """The decomposition the map-keeping search replaced, kept as the
    reference: each expanded residual's configuration is recomputed as
    C0 + (s_bar - residual) . M, the witness's configurations are replayed
    step by step, and a refusal's table comes from _greedy_table_by_replay."""
    M = spiking_matrix(sys)
    ones = (1,) * sys.neuron_count

    def config_of(residual):
        used = vec_sub(s_bar, residual)
        return tuple(c + d for c, d in zip(C0, M.vecmat(used)))

    start = tuple(s_bar)
    parent = {start: None}
    frontier = [start]
    zero = (0,) * sys.rule_count
    while frontier:
        nxt = []
        for residual in frontier:
            if residual == zero:
                seq = []
                cur = residual
                while parent[cur] is not None:
                    prev, sp = parent[cur]
                    seq.append(sp)
                    cur = prev
                seq.reverse()
                configs = [tuple(C0)]
                for sp in seq:
                    configs.append(step_no_delay(configs[-1], sp, M))
                return ReachabilityCertificate(
                    verdict="reachable",
                    k=len(seq),
                    configs=tuple(configs),
                    spiking_vectors=tuple(seq),
                    s_bar=start,
                    candidates_tried=1,
                )
            for sp in enumerate_spiking_vectors(sys, config_of(residual), ones):
                if not all(b <= r for b, r in zip(sp, residual)):
                    continue
                child = vec_sub(residual, sp)
                if child not in parent:
                    parent[child] = (residual, sp)
                    nxt.append(child)
        frontier = nxt
    table, reason = _greedy_table_by_replay(sys, M, C0, s_bar)
    return ReachabilityCertificate(
        verdict="not-reachable-within-bounds",
        failures=(CandidateFailure(start, reason, table),),
        candidates_tried=1,
    )


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(("uniform", "walk", "candidates")),
    st.integers(0, 5),
)
def test_decomposition_matches_replay_reference(seed, source, steps):
    """Equal certificates, refusal tables included, against the reference
    that lists every valid vector at each residual and then filters: on sum
    vectors drawn uniformly in 0..3 per rule (mostly refusals), as the sum
    of a random valid walk of up to `steps` steps (witnesses), and as the
    first sum_vector_solutions candidates of a walked target shifted by a
    random amount (witnesses and refusals at the same target)."""
    rng = random.Random(seed)
    sys = make_random_system(rng, allow_delay=False)
    M = spiking_matrix(sys)
    ones = (1,) * sys.neuron_count
    config, s_bar = sys.initial, (0,) * sys.rule_count
    for _ in range(steps if source != "uniform" else 0):
        valid = enumerate_spiking_vectors(sys, config, ones)
        if not valid:
            break
        sp = rng.choice(valid)
        config, s_bar = step_no_delay(config, sp, M), vec_add(s_bar, sp)
    if source == "uniform":
        s_bars = [tuple(rng.randint(0, 3) for _ in range(sys.rule_count))]
    elif source == "walk":
        s_bars = [s_bar]
    else:
        target = tuple(x + rng.randint(0, 1) for x in config)
        s_bars = sum_vector_solutions(M, sys.initial, target, min(steps, 3) + 1)[:10]
    for s_bar in s_bars:
        cert = decompose_sum_vector(sys, sys.initial, s_bar)
        assert cert == decompose_by_replay(sys, sys.initial, s_bar)
        if source == "walk":
            assert cert.reachable


def test_decomposition_lists_only_what_the_residual_holds():
    """12 neurons with two choices each, at the sum vector of one `first`
    step: the residual holds one rule per neuron, so one vector is built
    where the full listing held 2^12 (a 1.58 MB traced peak)."""
    ring = parse_system(ring_text(12))
    table = choice_table(ring, ring.initial, (1,) * 12)
    heads = spiking_vector(ring, (rules[0] for rules in table))
    tracemalloc.start()
    try:
        cert = decompose_sum_vector(ring, ring.initial, heads)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert (cert.verdict, cert.spiking_vectors) == ("reachable", (heads,))
    assert peak < 500_000, peak


# --- end-to-end decisions -------------------------------------------------------


def test_reachable_target_212(example1):
    cert = is_reachable(example1, (2, 1, 2), k_max=2)
    assert cert.verdict == "reachable"
    assert cert.k == 1
    assert cert.s_bar == (1, 0, 1, 1, 0)
    assert cert.spiking_vectors == ((1, 0, 1, 1, 0),)
    assert cert.configs == ((2, 1, 1), (2, 1, 2))
    # smallest-sum candidate succeeded; nothing else needed trying
    assert cert.candidates_tried == 1


def test_reachable_target_112(example1):
    cert = is_reachable(example1, (1, 1, 2), k_max=4)
    assert cert.verdict == "reachable"
    assert cert.k == 1
    assert cert.s_bar == (0, 1, 1, 1, 0)


def test_unreachable_target_202(example1):
    cert = is_reachable(example1, (2, 0, 2), k_max=6)
    assert cert.verdict == "not-reachable-within-bounds"
    assert cert.candidates_tried == 17
    assert len(cert.failures) == 17
    reasons = {f.reason for f in cert.failures}
    assert reasons == {"not a valid sum vector", "not a valid spiking vector"}
    # the algebra admits candidates; the walk refutes every one
    assert bfs_oracle(example1, (2, 0, 2), 8) == (False, None)


@pytest.mark.parametrize("side", ["target", "start"])
@pytest.mark.parametrize("entry", ["is_reachable", "reach_between"])
def test_negative_configuration_is_refused(example1, entry, side):
    """A spike count is never negative: like a configuration of the wrong
    length, a negative one is refused, not answered with a verdict."""
    start, target = ((-1, 1, 1), C0) if side == "start" else (C0, (2, -1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        if entry == "is_reachable":
            fields = {n: getattr(example1, n) for n in example1._fields}
            is_reachable(SNPSystem(**{**fields, "initial": start}), target, k_max=2)
        else:
            reach_between(example1, start, target, 2)


def test_reach_rejects_delayed_system(example3):
    with pytest.raises(ValueError):
        is_reachable(example3, (1, 0, 1), k_max=2)


def test_reach_rejects_bad_target_length(example1):
    with pytest.raises(ValueError):
        is_reachable(example1, (2, 1), k_max=2)


def test_reach_between_golden(example1):
    cert = reach_between(example1, (2, 1, 2), (1, 1, 2), v_max=2)
    assert cert.verdict == "reachable"
    assert cert.k == 1
    assert cert.s_bar == (0, 1, 1, 0, 1)
    assert cert.spiking_vectors == ((0, 1, 1, 0, 1),)


def test_reach_between_unreachable(example1):
    # sigma_2 cannot end empty while sigma_1 keeps a spike within 2 steps
    cert = reach_between(example1, (2, 1, 2), (2, 0, 2), v_max=2)
    assert cert.verdict == "not-reachable-within-bounds"


def test_initial_config_reachable_in_zero_steps(example1):
    cert = is_reachable(example1, C0, k_max=3)
    assert cert.verdict == "reachable"
    assert cert.k == 0
    assert cert.spiking_vectors == ()


def test_certificate_json_round_trip(example1):
    cert = is_reachable(example1, (2, 1, 2), k_max=2)
    blob = json.loads(json.dumps(cert, default=json_default))
    assert blob["verdict"] == "reachable"
    assert blob["k"] == 1
    assert blob["configs"] == [[2, 1, 1], [2, 1, 2]]
    assert blob["spiking_vectors"] == [[1, 0, 1, 1, 0]]
    cert2 = is_reachable(example1, (2, 0, 2), k_max=2)
    blob2 = json.loads(json.dumps(cert2, default=json_default))
    assert blob2["verdict"] == "not-reachable-within-bounds"
    assert blob2["failures"]
    assert all(
        set(f) == {"s_bar", "reason", "table"} for f in blob2["failures"]
    )


# --- breadth-first ground truth -------------------------------------------------


def test_bfs_map_depth_4(example1):
    assert reachable_set(example1, 4) == {
        (2, 1, 1): 0,
        (2, 1, 2): 1,
        (1, 1, 2): 1,
        (2, 0, 1): 2,
        (1, 1, 1): 3,
        (0, 1, 1): 3,
        (1, 0, 1): 4,
    }


def test_bfs_oracle_depths(example1):
    assert bfs_oracle(example1, (2, 1, 1), 0) == (True, 0)
    assert bfs_oracle(example1, (1, 0, 1), 4) == (True, 4)
    assert bfs_oracle(example1, (1, 0, 1), 3) == (False, None)
    assert bfs_oracle(example1, (1, 1, 2), 8, C_from=(2, 1, 2)) == (True, 1)


def test_bfs_steps_without_the_algebra(example1):
    """The oracle steps by per-synapse delivery: with the spiking matrix and
    the matrix step unusable, it still gives the pinned answers."""

    def unusable(*args):
        raise AssertionError("the breadth-first oracle used the algebra")

    with mock.patch.object(reachability, "spiking_matrix", unusable), \
            mock.patch.object(reachability, "step_no_delay", unusable):
        test_bfs_map_depth_4(example1)
        test_bfs_oracle_depths(example1)


def test_bfs_rejects_delayed_system(example3):
    with pytest.raises(ValueError):
        reachable_set(example3, 2)


# --- delayed traces: closed form as a report ------------------------------------


def test_closed_form_on_recorded_delay_trace(example3):
    trace = run_trace(example3, 5, policy="first", mode="paper-trace")
    entries = verify_delay_closed_form(example3, trace)
    assert [e.predicted == e.actual for e in entries] == [True, False, False, True, True]
    assert [e.predicted for e in entries] == [
        (0, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
        (1, 0, 1),
        (0, 1, 0),
    ]
    assert [e.actual for e in entries] == [
        (0, 1, 0),
        (1, 0, 0),
        (0, 1, 0),
        (1, 0, 1),
        (0, 1, 0),
    ]


def test_closed_form_standard_mode_also_reported(example3):
    # standard mode delivers delayed production, which the masked sum
    # does not model either; the report just records where they split
    trace = run_trace(example3, 4, policy="first", mode="standard")
    entries = verify_delay_closed_form(example3, trace)
    assert len(entries) == len(trace.records) - 1
    assert entries[0].predicted == entries[0].actual


def test_closed_form_delay_free_always_agrees(example1):
    trace = run_trace(example1, 6, policy="first", mode="standard")
    entries = verify_delay_closed_form(example1, trace)
    assert all(e.predicted == e.actual for e in entries)
    assert len(entries) == 6


# --- properties ------------------------------------------------------------------


@st.composite
def delay_free_systems(draw):
    seed = draw(st.integers(0, 10**9))
    import random

    rng = random.Random(seed)
    return make_random_system(
        rng, max_neurons=3, max_rules=5, max_spikes=4, allow_delay=False
    )


@settings(max_examples=60, deadline=None)
@given(delay_free_systems(), st.integers(0, 2))
def test_reachability_matches_bfs_on_full_reachable_set(sys, k_max):
    """Soundness and completeness against the direct search, including
    the minimal step count, for every configuration the search visits
    plus a few unreachable nearby ones."""
    truth = reachable_set(sys, k_max)
    probes = set(truth)
    for c in list(truth)[:3]:
        probes.add(tuple(x + 1 for x in c))
    for target in sorted(probes):
        cert = is_reachable(sys, target, k_max)
        expect = truth.get(target)
        if expect is None:
            assert cert.verdict != "reachable" or cert.k > k_max
            # within the same bound the verdicts must agree exactly
            assert cert.verdict == "not-reachable-within-bounds"
        else:
            assert cert.verdict == "reachable"
            assert cert.k == expect


@settings(max_examples=60, deadline=None)
@given(delay_free_systems(), st.integers(0, 3), st.integers(0, 10**6))
def test_certificate_soundness_replay(sys, k_max, pick):
    """Any reachable verdict replays: each spiking vector is valid at
    its configuration and the chain lands on the target."""
    truth = reachable_set(sys, k_max)
    targets = sorted(truth)
    target = targets[pick % len(targets)]
    cert = is_reachable(sys, target, k_max)
    assert cert.verdict == "reachable"
    M = spiking_matrix(sys)
    ones = (1,) * sys.neuron_count
    assert cert.configs[0] == sys.initial
    assert cert.configs[-1] == target
    assert len(cert.spiking_vectors) == cert.k
    for c, sp, nxt in zip(cert.configs, cert.spiking_vectors, cert.configs[1:]):
        assert is_valid_spiking_vector(sys, c, ones, sp)
        assert step_no_delay(c, sp, M) == nxt
    if cert.k:
        assert tuple(
            sum(col) for col in zip(*cert.spiking_vectors)
        ) == cert.s_bar


@settings(max_examples=60, deadline=None)
@given(delay_free_systems(), st.integers(0, 2))
def test_candidate_enumeration_is_algebraically_complete(sys, k_max):
    """Every k_max-step path's spiking-vector sum shows up among the
    enumerated candidates for its endpoint."""
    M = spiking_matrix(sys)
    ones = (1,) * sys.neuron_count
    paths = [(tuple(sys.initial), (0,) * sys.rule_count)]
    for _ in range(k_max):
        nxt = []
        for config, used in paths:
            for sp in enumerate_spiking_vectors(sys, config, ones):
                nxt.append(
                    (step_no_delay(config, sp, M), vec_add(used, sp))
                )
        paths = nxt
        if not paths:
            break
    for endpoint, used in paths[:20]:
        cands = sum_vector_solutions(M, sys.initial, endpoint, k_max)
        assert tuple(used) in cands


@settings(max_examples=80, deadline=None)
@given(delay_free_systems(), st.integers(0, 3))
def test_candidates_all_satisfy_the_linear_system(sys, k_max):
    M = spiking_matrix(sys)
    frontier = sorted(reachable_set(sys, k_max))
    target = frontier[-1]
    delta = vec_sub(target, tuple(sys.initial))
    for s in sum_vector_solutions(M, sys.initial, target, k_max):
        assert M.vecmat(s) == delta
        assert sum(s) <= k_max * sys.neuron_count


def test_closed_form_masks_a_production_by_its_owner_at_k_plus_1():
    # paper-trace: a fires its undelayed rule at 0 and its delayed rule at
    # 1, closed as it fires, so RSt(1) masks the production of step 0
    sys = parse_system(
        "neuron a spikes=2\nneuron b spikes=0\n"
        "rule a E=a^2 c=1 p=1 d=0\nrule a E=a c=1 p=1 d=1\nsyn a b\n"
    )
    trace = run_trace(sys, 5, policy="first", mode="paper-trace")
    entries = verify_delay_closed_form(sys, trace)
    assert [e.predicted for e in entries] == [(0, 0), (0, 0)]
    assert [e.predicted for e in entries] == nested_closed_form(sys, trace)
    assert [e.actual for e in entries] == [(1, 1), (0, 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_closed_form_report_never_crashes_on_random_delay_traces(seed):
    import random

    rng = random.Random(seed)
    sys = make_random_system(
        rng, max_neurons=3, max_rules=5, max_spikes=4, allow_delay=True
    )
    trace = run_trace(
        sys, 4, policy="random", seed=seed, mode="standard"
    )
    entries = verify_delay_closed_form(sys, trace)
    assert len(entries) == len(trace.records) - 1
    if not sys.has_delays:
        assert all(e.predicted == e.actual for e in entries)


def nested_closed_form(sys, trace):
    """The closed form's sum evaluated as written, every suffix product of
    St rebuilt for every prefix: the O(k^2) reference for the one-pass
    recurrence."""
    M = spiking_matrix(sys)
    records = trace.records
    m = sys.neuron_count
    out = []
    for k in range(len(records) - 1):
        # suffix[j] = St(j) (*) ... (*) St(k+1), as a running product
        suffix = [(1,) * m] * (k + 3)
        for j in range(k + 1, 0, -1):
            suffix[j] = hadamard(suffix[j + 1], records[j].St)
        total = hadamard(suffix[1], records[0].C)
        for j in range(k + 1):
            producing = hadamard(
                rule_status(sys, records[j + 1].St), records[j].Iv
            )
            total = tuple(
                t + mask * g
                for t, mask, g in zip(total, suffix[j + 2], M.vecmat(producing))
            )
        out.append(total)
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["standard", "paper-trace"]))
def test_one_pass_closed_form_matches_nested_sum(seed, mode):
    rng = random.Random(seed)
    sys = make_random_system(
        rng, max_neurons=4, max_rules=6, max_spikes=4, allow_delay=True
    )
    trace = run_trace(sys, 8, policy="random", seed=seed, mode=mode)
    entries = verify_delay_closed_form(sys, trace)
    assert [e.predicted for e in entries] == nested_closed_form(sys, trace)
    assert [e.actual for e in entries] == [r.C for r in trace.records[1:]]
