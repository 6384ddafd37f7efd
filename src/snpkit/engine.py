"""Execution engine: choice tables, spiking vectors, step formulas, traces.

Vectors are plain int tuples; matrices are IntMatrix.  A SimState is the
complete carry state entering a step: configuration, per-rule remaining
delay (dst), per-neuron open/closed status (st, derived from dst), and
per-rule queued production (standard mode only).  Steps read the state's
choice table (each open neuron's applicable rules).  run_trace looks the
applicable rules up by spike count, in a lookup it keeps for that run
only; every other caller walks the guards.  The "random" policy lists
the product of its step's own table.  The tree lists that of each state
it expands, and expands a state once per run: met again at a later step,
its first expansion is re-stamped with the new step (_run_tree).

Two delay semantics are provided, selected by `mode`:

  "standard"    A rule fired at time t with delay d consumes at t; its
                neuron is closed during (t, t+d] and reopens at t+d+1;
                the production is delivered at t+d to targets open at
                that step (lost to closed targets) and the rule's
                indicator bit is set at t+d.  The firing neuron can
                still receive at t itself.

  "paper-trace" A delayed rule consumes at firing time and closes its
                neuron for d steps, recorded immediately at the firing
                step (deferred by one step when firing at k = 0); the
                delayed production is never delivered and the rule's
                indicator bit is never set.  This mode exists to
                reproduce reference computations whose tables follow
                exactly this bookkeeping.

In both modes the recorded status of step k gates deliveries at step k,
and rule selection at step k uses the carry status entering k (a neuron
closing at k in paper-trace mode may still have been selected at k).
One function, `_advance`, holds both conventions: the formula step, the
operational oracle and the identity checks all take their recorded DSt,
St, Iv and carry state from it.  It walks only the delayed rules: an
undelayed rule is never closed or queued, and fires as Iv = Sp.  For
delay-free systems the two modes coincide with the plain formula
C(k+1) = C(k) + Sp(k) . M.
"""

from __future__ import annotations

import gc
import itertools
import random

from .matrices import (
    IntMatrix,
    augmented_matrix,
    consumption_matrix,
    hadamard,
    production_matrix,
    spiking_matrix,
    vec_add,
    vec_sub,
)
from .model import Record, SNPSystem

__all__ = [
    "SimState",
    "StepRecord",
    "Trace",
    "TreeNode",
    "TraceTree",
    "initial_state",
    "rule_status",
    "choice_table",
    "spiking_vector",
    "table_vectors",
    "enumerate_spiking_vectors",
    "is_valid_spiking_vector",
    "step_no_delay",
    "step_with_delay_v1",
    "step_with_delay_v2",
    "update_delay_state",
    "operational_step",
    "formula_step",
    "run_trace",
    "achievable_first_intervals",
    "check_step_identities",
    "StepIdentityEntry",
    "IdentityReport",
    "FormulaComparison",
    "formula_comparison_report",
]

MODES = ("standard", "paper-trace")
POLICIES = ("first", "random", "exhaustive")


class SimState(Record):
    """Carry state entering step k."""

    k: int
    config: tuple[int, ...]
    dst: tuple[int, ...]  # remaining closed steps per rule
    st: tuple[int, ...]  # open (1) / closed (0) per neuron
    pending: tuple[tuple[int, int] | None, ...]  # (release step, amount) per rule


def rule_status(sys: SNPSystem, st: tuple[int, ...]) -> tuple[int, ...]:
    """Per-rule openness of the owner neuron."""
    return tuple(st[r.owner] for r in sys.rules)


def initial_state(sys: SNPSystem) -> SimState:
    n = sys.rule_count
    return SimState(
        k=0,
        config=sys.initial,
        dst=(0,) * n,
        st=(1,) * sys.neuron_count,
        pending=(None,) * n,
    )


# --- spiking vectors ---------------------------------------------------------


def choice_table(
    sys: SNPSystem, C: tuple[int, ...], St: tuple[int, ...], _memo=None
) -> list[tuple[int, ...]]:
    """The choices at configuration C under status St: for each open neuron
    with at least one applicable rule, its applicable rules in index order.
    A valid spiking vector fires exactly one rule of every entry and no
    other; the table is empty iff no neuron can fire.

    Applicability depends only on the neuron's spike count: run_trace
    passes `_memo`, one {count: applicable rules} dict per neuron kept for
    that run and filled on first use.  Without it the guards are walked."""
    table = []
    for j in range(sys.neuron_count):
        if St[j]:
            n = C[j]
            rules = _memo[j].get(n) if _memo else None
            if rules is None:
                rules = tuple(i for i in sys.rules_of[j] if sys.rules[i].applicable(n))
                if _memo:
                    _memo[j][n] = rules
            if rules:
                table.append(rules)
    return table


def spiking_vector(sys: SNPSystem, fired) -> tuple[int, ...]:
    """The 0/1 vector over the rules of sys that fires exactly `fired`."""
    v = [0] * sys.rule_count
    for i in fired:
        v[i] = 1
    return tuple(v)


def table_vectors(sys: SNPSystem, table: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The spiking vectors of a choice table (the product of its entries) by
    support tuple (ascending rule indices): as each fires one rule per entry,
    that is their descending order, [] for an empty table; the head fires
    each entry's first rule, as a later one raises the sorted support."""
    product = itertools.product(*table) if table else ()
    return sorted((spiking_vector(sys, fired) for fired in product), reverse=True)


def enumerate_spiking_vectors(
    sys: SNPSystem, C: tuple[int, ...], St: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All valid spiking vectors for configuration C under status St, in
    table_vectors order; empty iff no neuron can fire."""
    return table_vectors(sys, choice_table(sys, C, St))


def is_valid_spiking_vector(
    sys: SNPSystem,
    C: tuple[int, ...],
    St: tuple[int, ...],
    Sp: tuple[int, ...],
) -> bool:
    """Membership test for enumerate_spiking_vectors without materializing it."""
    if len(Sp) != sys.rule_count or any(b not in (0, 1) for b in Sp):
        return False
    table = choice_table(sys, C, St)
    # one fired rule per entry, and as many fired rules as entries
    return bool(table) and sum(Sp) == len(table) and all(
        sum(Sp[i] for i in rules) == 1 for rules in table
    )


# --- step formulas -----------------------------------------------------------


def step_no_delay(
    C: tuple[int, ...], Sp: tuple[int, ...], M: IntMatrix
) -> tuple[int, ...]:
    nxt = vec_add(C, M.vecmat(Sp))
    if any(x < 0 for x in nxt):
        raise ValueError(
            f"negative spike count {nxt}: spiking vector {Sp} was not valid at {C}"
        )
    return nxt


def step_with_delay_v1(
    C: tuple[int, ...],
    Sp: tuple[int, ...],
    Iv: tuple[int, ...],
    St: tuple[int, ...],
    PM: IntMatrix,
    CM: IntMatrix,
) -> tuple[int, ...]:
    """C + St (*) (Iv . PM) - Sp . CM, (*) elementwise; gains gated by
    the receiving neuron's open status at this step."""
    gv = PM.vecmat(Iv)
    lv = CM.vecmat(Sp)
    nxt = vec_sub(vec_add(C, hadamard(St, gv)), lv)
    if any(x < 0 for x in nxt):
        raise ValueError(
            f"negative spike count {nxt}: step context C={C} Sp={Sp} Iv={Iv} St={St}"
        )
    return nxt


def step_with_delay_v2(
    C: tuple[int, ...],
    Iv: tuple[int, ...],
    St_next: tuple[int, ...],
    M: IntMatrix,
) -> tuple[int, ...]:
    """St(k+1) (*) (C + Iv . M); the next-step status masks everything."""
    return hadamard(St_next, vec_add(C, M.vecmat(Iv)))


# --- delay bookkeeping -------------------------------------------------------


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def _advance(
    sys: SNPSystem, state: SimState, Sp: tuple[int, ...], mode: str
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], SimState]:
    """The delay bookkeeping of step k, both conventions, in one walk over
    the delayed rules.  Returns the DSt recorded at k, the status it
    implies (which gates deliveries at k), the indicator Iv (immediate
    firings, plus due releases in standard mode) and the carry state
    entering k + 1 with the configuration unchanged.

    Newly fired delayed rules take on their full delay (standard mode
    queues their production for step k + d); everything else decrements
    toward 0, and a production falls due as its rule's delay runs out."""
    standard, k = mode == "standard", state.k
    # an undelayed rule is never closed or queued: rec = left = 0, Iv = Sp
    rec, carry, iv = list(state.dst), [0] * sys.rule_count, list(Sp)
    pending = list(state.pending)
    st_rec = [1] * sys.neuron_count
    st_next = [1] * sys.neuron_count
    for i in sys.delayed_rules:
        r = sys.rules[i]
        due = standard and pending[i] is not None and pending[i][0] == k
        if due:
            pending[i] = None
        if Sp[i]:
            left = r.d
            if standard:
                pending[i] = (k + r.d, r.p)
            elif k > 0:
                rec[i] = r.d  # closure shows up at the firing step itself
                left = r.d - 1  # ... and is already counted once
        else:
            left = rec[i] - 1 if rec[i] > 0 else 0
        carry[i] = left
        iv[i] = 1 if due else 0
        if rec[i] > 0:
            st_rec[r.owner] = 0
        if left > 0:
            st_next[r.owner] = 0
    nxt = SimState(k + 1, state.config, tuple(carry), tuple(st_next), tuple(pending))
    return tuple(rec), tuple(st_rec), tuple(iv), nxt


def update_delay_state(
    sys: SNPSystem, state: SimState, Sp: tuple[int, ...], mode: str = "standard"
) -> SimState:
    """Advance the delay bookkeeping one step (configuration untouched);
    the returned state's st is derived from the new dst."""
    _check_mode(mode)
    return _advance(sys, state, Sp, mode)[3]


# --- operational oracle ------------------------------------------------------


def operational_step(
    sys: SNPSystem, state: SimState, Sp: tuple[int, ...], mode: str = "standard"
) -> SimState:
    """Next state by direct simulation: per-neuron consumption, per-synapse
    delivery to open receivers, no matrix algebra.  Independent of the
    formula-based stepping on purpose; only the delay bookkeeping is shared."""
    _check_mode(mode)
    spikes = list(state.config)
    # consumption happens at firing time in both modes
    for i, r in enumerate(sys.rules):
        if Sp[i]:
            spikes[r.owner] -= r.c
            if spikes[r.owner] < 0:
                raise ValueError(f"rule {i} consumed more than present at {state.config}")
    _dst, st_now, iv, nxt = _advance(sys, state, Sp, mode)
    for i, r in enumerate(sys.rules):
        if iv[i]:
            for tgt in sys.targets_of[r.owner]:
                if st_now[tgt]:  # closed neurons reject spikes
                    spikes[tgt] += r.p
    return SimState(nxt.k, tuple(spikes), nxt.dst, nxt.st, nxt.pending)


# --- traces ------------------------------------------------------------------


class StepRecord(Record):
    """One time point; the action fields describe the step k -> k+1 and
    are all-zero on the terminal record."""

    k: int
    C: tuple[int, ...]
    Sp: tuple[int, ...]
    Iv: tuple[int, ...]
    St: tuple[int, ...]  # recorded status at k
    DSt: tuple[int, ...]  # recorded delay status at k
    NG: tuple[int, ...]
    emitted: int


class Trace(Record):
    mode: str
    policy: str
    records: tuple[StepRecord, ...]
    final_state: SimState
    halted: bool

    @property
    def configs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r.C for r in self.records)

    @property
    def spike_train(self) -> str:
        return "".join(
            str(r.emitted) if r.emitted < 10 else f"[{r.emitted}]"
            for r in self.records[:-1]
        )

    @property
    def emission_steps(self) -> tuple[int, ...]:
        return tuple(r.k for r in self.records if r.emitted > 0)

    @property
    def first_interval(self) -> int | None:
        steps = self.emission_steps
        if len(steps) < 2:
            return None
        return steps[1] - steps[0]


def _step_matrices(sys: SNPSystem):
    """M, PM, CM and the (rule, amount) pairs of the nonzero environment
    emissions (the augmented matrix's last column; none without an out
    neuron)."""
    if sys.out_neuron is None:
        env = ()
    else:
        column = augmented_matrix(sys).column(sys.neuron_count)
        env = tuple((i, e) for i, e in enumerate(column) if e)
    return spiking_matrix(sys), production_matrix(sys), consumption_matrix(sys), env


def _make_record(
    sys: SNPSystem, state: SimState, Sp: tuple[int, ...], mode: str, matrices
) -> tuple[StepRecord, SimState]:
    """Execute one step with the formula-based semantics and record it."""
    M, PM, CM, env = matrices
    rec_dst, st_rec, iv, nxt = _advance(sys, state, Sp, mode)
    if sys.has_delays:
        c_next = step_with_delay_v1(state.config, Sp, iv, st_rec, PM, CM)
    else:
        c_next = step_no_delay(state.config, Sp, M)
    record = StepRecord(
        k=state.k,
        C=state.config,
        Sp=Sp,
        Iv=iv,
        St=st_rec,
        DSt=rec_dst,
        NG=vec_sub(c_next, state.config),
        emitted=sum(e * iv[i] for i, e in env),
    )
    return record, SimState(nxt.k, c_next, nxt.dst, nxt.st, nxt.pending)


def formula_step(
    sys: SNPSystem, state: SimState, Sp: tuple[int, ...], mode: str = "standard"
) -> tuple[StepRecord, SimState]:
    """One formula-based step (record + next state) for external callers;
    run_trace uses the same machinery with the matrices built once."""
    _check_mode(mode)
    return _make_record(sys, state, Sp, mode, _step_matrices(sys))


def _terminal_record(sys: SNPSystem, state: SimState) -> StepRecord:
    zero_n = (0,) * sys.rule_count
    zero_m = (0,) * sys.neuron_count
    return StepRecord(
        k=state.k,
        C=state.config,
        Sp=zero_n,
        Iv=zero_n,
        St=state.st,
        DSt=state.dst,
        NG=zero_m,
        emitted=0,
    )


def _is_halted(state: SimState, choices: list[tuple[int, ...]]) -> bool:
    """Halted: no choice (an empty choice table, or no vector listed from it)
    and no closed neuron, which also means nothing is queued: a production
    stays queued exactly while its rule's delay runs, keeping its neuron closed."""
    return not choices and all(state.st)


def run_trace(
    sys: SNPSystem,
    steps: int,
    policy: str = "first",
    mode: str = "standard",
    seed: int | None = None,
):
    """Simulate up to `steps` steps.  Policies: "first" picks the
    lowest-indexed rule per neuron, "random" needs a seed, "exhaustive"
    returns the full bounded TraceTree instead of a single Trace.

    The trace has one record per time point 0..K (K <= steps); the last
    record carries no action.  Steps with no fireable neuron but closed
    neurons or queued productions still advance time (idle steps)."""
    _check_mode(mode)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    if policy == "exhaustive":
        # the build keeps everything it allocates: a cyclic collection would
        # rescan a heap that only grows, and free nothing
        enabled = gc.isenabled()
        gc.disable()
        try:
            return _run_tree(sys, steps, mode)
        finally:
            if enabled:
                gc.enable()
    if policy == "random" and seed is None:
        raise ValueError("policy 'random' needs a seed")
    rng = random.Random(seed) if policy == "random" else None

    mats = _step_matrices(sys)
    memo = [{} for _ in range(sys.neuron_count)]  # this run's applicability lookup
    state = initial_state(sys)
    records: list[StepRecord] = []
    while True:
        table = choice_table(sys, state.config, state.st, memo)
        halted = _is_halted(state, table)
        if halted or len(records) >= steps:
            break
        if policy == "random" and table:
            sp = rng.choice(table_vectors(sys, table))
        else:  # every entry's head; an empty table idles while delays count down
            sp = spiking_vector(sys, (rules[0] for rules in table))
        record, state = _make_record(sys, state, sp, mode, mats)
        records.append(record)
    records.append(_terminal_record(sys, state))
    return Trace(
        mode=mode,
        policy=policy,
        records=tuple(records),
        final_state=state,
        halted=halted,
    )


class TreeNode(Record, eq=False):
    """A distinct state at its step, shared by every path reaching it.  Made
    on first reach; its children are appended as its state is expanded."""

    state: SimState
    children: list[tuple[StepRecord, "TreeNode"]]


class TraceTree(Record, eq=False):
    """The bounded computation tree as a DAG: levels[k] holds its distinct
    nodes at step k, each root-to-leaf walk is one computation.  Like its
    nodes, a tree compares by identity."""

    mode: str
    root: TreeNode
    depth: int
    levels: tuple[tuple[TreeNode, ...], ...]

    def leaves(self) -> list[TreeNode]:
        return [node for level in self.levels for node in level if not node.children]

    def leaf_count(self) -> int:
        """Number of root-to-leaf paths, counted bottom-up."""
        paths: dict[TreeNode, int] = {}
        for level in reversed(self.levels):
            for node in level:
                paths[node] = sum(paths[c] for _r, c in node.children) or 1
        return paths[self.root]


def _shifted(pending, delta: int) -> tuple:
    """A queue with each release step moved by `delta`."""
    return tuple(None if q is None else (q[0] + delta, q[1]) for q in pending)


def _tree_key(state: SimState, shift: bool) -> tuple:
    """A state without its step.  k enters a step only through the queued
    release steps, counted from k when `shift` (the queue stays empty unless
    standard mode has delays), and through paper-trace's deferral at k = 0:
    states with equal keys expand alike at any step."""
    pending = _shifted(state.pending, -state.k) if shift else state.pending
    return state.config, state.dst, state.st, pending, state.k == 0


def _run_tree(sys: SNPSystem, depth: int, mode: str) -> TraceTree:
    """Expand level by level.  A level maps the keys (_tree_key) of its
    distinct states to their nodes in discovery order; a node is made on
    first reach.  Each key is expanded once per run, its (record, successor,
    successor key) edges kept; a later node with that key at step k reuses
    them, each record remade with k and each successor state made, on its
    first reach in the level below, with k + 1 and its queue shifted."""
    mats = _step_matrices(sys)
    idle = [(0,) * sys.rule_count]
    shift = mode == "standard" and sys.has_delays
    edges = {}  # key -> its edges, as made at the step where it was first met
    root = TreeNode(initial_state(sys), [])
    levels, level = [], {_tree_key(root.state, shift): root}
    while level:  # a level is empty once every path has halted
        levels.append(tuple(level.values()))
        if len(levels) > depth:
            break
        k, below = len(levels) - 1, {}
        for key, node in level.items():
            out = edges.get(key)
            if out is None:
                state = node.state
                sps = enumerate_spiking_vectors(sys, state.config, state.st)
                made = [] if _is_halted(state, sps) else [
                    _make_record(sys, state, sp, mode, mats) for sp in sps or idle
                ]
                out = edges[key] = [(r, nxt, _tree_key(nxt, shift)) for r, nxt in made]
            for r, nxt, nkey in out:
                if r.k != k:
                    r = StepRecord(k, r.C, r.Sp, r.Iv, r.St, r.DSt, r.NG, r.emitted)
                child = below.get(nkey)
                if child is None:
                    if nxt.k != k + 1:
                        queue = _shifted(nxt.pending, k + 1 - nxt.k) if shift else nxt.pending
                        nxt = SimState(k + 1, nxt.config, nxt.dst, nxt.st, queue)
                    child = below[nkey] = TreeNode(nxt, [])
                node.children.append((r, child))
        level = below
    return TraceTree(mode=mode, root=root, depth=depth, levels=tuple(levels))


def achievable_first_intervals(tree: TraceTree) -> set[int]:
    """Intervals between the first two emissions over every path of the tree,
    in one pass that carries to each node the steps at which the paths into
    it first emitted (None: not yet); a path leaves at its second emission."""
    out: set[int] = set()
    firsts: dict[TreeNode, set] = {tree.root: {None}}
    for level in tree.levels:
        for node in level:
            here = firsts.pop(node)
            for record, child in node.children:
                into = firsts.setdefault(child, set())
                if record.emitted <= 0:
                    into |= here
                    continue
                out.update(record.k - first for first in here if first is not None)
                if None in here:
                    into.add(record.k)
    return out


# --- cross-formula checks ----------------------------------------------------


class StepIdentityEntry(Record):
    Sp: tuple[int, ...]
    Iv: tuple[int, ...]
    St: tuple[int, ...]
    RSt: tuple[int, ...]
    lhs: tuple[int, ...]  # St (*) (Iv . M)
    rhs: tuple[int, ...]  # (RSt (*) Iv) . M
    rst_identity_holds: bool
    v1_config: tuple[int, ...]
    v2_config: tuple[int, ...]
    oracle_config: tuple[int, ...]
    v1_eq_v2: bool
    v1_eq_oracle: bool


class IdentityReport(Record):
    k: int
    entries: tuple[StepIdentityEntry, ...]

    @property
    def all_agree(self) -> bool:
        return all(
            e.rst_identity_holds and e.v1_eq_v2 and e.v1_eq_oracle
            for e in self.entries
        )


def check_step_identities(
    sys: SNPSystem,
    state: SimState,
    mode: str = "standard",
) -> IdentityReport:
    """For every valid spiking vector at `state`, compare the one-step
    results of the v1 and v2 formulas and the operational oracle, and
    evaluate both sides of the owner-vs-receiver status identity
    St (*) (Iv . M) = (RSt (*) Iv) . M.  Everything is reported, nothing
    asserted: the identity genuinely fails on states where a closed
    neuron's column and an open producer's row meet.

    v2 needs the status at k+1; it takes the carry status implied by
    each candidate.  The status a trace records at k+1 can differ (when
    the next step itself fires a delayed rule and closures are recorded
    at firing time); formula_comparison_report covers that reading
    along a recorded trace."""
    M, PM, CM, _env = _step_matrices(sys)
    entries = []
    for sp in enumerate_spiking_vectors(sys, state.config, state.st):
        _dst, st_rec, iv, nxt = _advance(sys, state, sp, mode)
        rst = rule_status(sys, st_rec)
        lhs = hadamard(st_rec, M.vecmat(iv))
        rhs = M.vecmat(hadamard(rst, iv))
        v1 = step_with_delay_v1(state.config, sp, iv, st_rec, PM, CM)
        v2 = step_with_delay_v2(state.config, iv, nxt.st, M)
        oracle = operational_step(sys, state, sp, mode).config
        entries.append(
            StepIdentityEntry(
                Sp=sp,
                Iv=iv,
                St=st_rec,
                RSt=rst,
                lhs=lhs,
                rhs=rhs,
                rst_identity_holds=lhs == rhs,
                v1_config=v1,
                v2_config=v2,
                oracle_config=oracle,
                v1_eq_v2=v1 == v2,
                v1_eq_oracle=v1 == oracle,
            )
        )
    return IdentityReport(k=state.k, entries=tuple(entries))


class FormulaComparison(Record):
    """One executed step of a trace, re-derived through each formula."""

    k: int
    actual_next: tuple[int, ...]
    v2_carry: tuple[int, ...]  # St(k+1) = carry status entering k+1
    v2_recorded: tuple[int, ...]  # St(k+1) = status recorded at k+1
    v2_carry_agrees: bool
    v2_recorded_agrees: bool


def formula_comparison_report(
    sys: SNPSystem, trace: Trace
) -> tuple[FormulaComparison, ...]:
    """Re-evaluate the masked one-step formula along a recorded trace,
    under both readings of "status at k+1".  The readings split exactly
    at steps whose successor fires a delayed rule; the report states the
    split instead of leaning on either side."""
    M = spiking_matrix(sys)
    out = []
    records = trace.records
    state = initial_state(sys)  # replays the trace's delay bookkeeping
    for rec, nxt in zip(records, records[1:]):
        state = update_delay_state(sys, state, rec.Sp, trace.mode)
        v2c = step_with_delay_v2(rec.C, rec.Iv, state.st, M)
        v2r = step_with_delay_v2(rec.C, rec.Iv, nxt.St, M)
        out.append(
            FormulaComparison(
                k=rec.k,
                actual_next=nxt.C,
                v2_carry=v2c,
                v2_recorded=v2r,
                v2_carry_agrees=v2c == nxt.C,
                v2_recorded_agrees=v2r == nxt.C,
            )
        )
    return tuple(out)
