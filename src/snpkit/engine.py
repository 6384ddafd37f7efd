"""Execution engine: choice tables, spiking vectors, step formulas, traces.

Vectors are plain int tuples; matrices are IntMatrix.  The engine steps
plain (config, dst, st): configuration, per-rule remaining delay (dst,
the one delay clock it reads) and per-neuron open/closed status derived
from dst.  It hands out a SimState, the carry state entering step k,
only at its edge: `_state` builds each one, its per-rule queue (pending,
standard mode only) derived from dst.  Steps read the choice table (each
open neuron's applicable rules).  run_trace looks the applicable rules
up by spike count, in a lookup it keeps for that run only; every other
caller walks the guards.  The "random" policy lists the product of its
step's own table.  The tree lists that of each state it expands, and
expands a state once per run: met again at a later step, it reuses the
first expansion's edges, each an emission and a child (_run_tree).

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
operational oracle and the comparisons in `formulas` that step (the identity
checks and the trace replay of v2) take their recorded DSt, St, Iv and carried
dst and st from it.  It walks only the delayed rules: an undelayed rule
is never closed or queued, and fires as Iv = Sp.  Every trace and tree
step is recorded by C + St (*) (Iv . PM) - Sp . CM: without delays the two
modes coincide and it is the plain C(k+1) = C(k) + Sp(k) . M.
"""

from __future__ import annotations

import gc
import itertools
import random

from .matrices import (
    IntMatrix,
    augmented_matrix,
    consumption_matrix,
    production_matrix,
    spiking_matrix,  # not called here: perfbench/tracing.py::install wraps engine.spiking_matrix
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
    "choice_table",
    "spiking_vector",
    "table_vectors",
    "enumerate_spiking_vectors",
    "is_valid_spiking_vector",
    "step_no_delay",
    "step_with_delay_v1",
    "operational_step",
    "formula_step",
    "run_trace",
    "achievable_first_intervals",
]

MODES = ("standard", "paper-trace")
POLICIES = ("first", "random", "exhaustive")


class SimState(Record):
    """Carry state entering step k, as the engine hands it out (`_state`)."""

    k: int
    config: tuple[int, ...]
    dst: tuple[int, ...]  # remaining closed steps per rule
    st: tuple[int, ...]  # open (1) / closed (0) per neuron
    # (release step k + dst - 1, amount) per rule while its dst runs in
    # standard mode, else None: made by _state from dst, read by no step
    pending: tuple[tuple[int, int] | None, ...]


def _state(sys: SNPSystem, k: int, config, dst, st, mode: str) -> SimState:
    """The one maker of SimStates: the state entering step k, its queue
    derived from dst (in standard mode a delay d runs out at k + d - 1)."""
    standard = mode == "standard"
    queue = tuple((k + d - 1, r.p) if standard and d else None for d, r in zip(dst, sys.rules))
    return SimState(k, config, dst, st, queue)


def initial_state(sys: SNPSystem) -> SimState:
    # nothing runs at k = 0, so nothing is queued in either mode
    return _state(sys, 0, sys.initial, (0,) * sys.rule_count, (1,) * sys.neuron_count, "standard")


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
    the receiving neuron's open status at this step; one pass over the neurons."""
    gains, losses = PM.vecmat(Iv), CM.vecmat(Sp)
    nxt = tuple(c + s * g - x for c, s, g, x in zip(C, St, gains, losses, strict=True))
    if any(x < 0 for x in nxt):
        raise ValueError(
            f"negative spike count {nxt}: step context C={C} Sp={Sp} Iv={Iv} St={St}"
        )
    return nxt


# --- delay bookkeeping -------------------------------------------------------


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def _advance(sys: SNPSystem, k: int, dst: tuple[int, ...], Sp: tuple[int, ...], mode: str):
    """The delay bookkeeping of step k, both conventions, in one walk over
    the delayed rules.  Returns the DSt recorded at k, the status it
    implies (which gates deliveries at k), the indicator Iv (immediate
    firings, plus due releases in standard mode), and the dst and st
    carried into k + 1.

    Newly fired delayed rules take on their full delay; everything else
    decrements toward 0.  dst is the only clock: in standard mode a
    production falls due at k exactly when its rule's dst is 1.  k is read
    only for paper-trace's deferral at k = 0."""
    standard = mode == "standard"
    # an undelayed rule is never closed or queued: rec = left = 0, Iv = Sp
    rec, carry, iv = list(dst), [0] * sys.rule_count, list(Sp)
    st_rec = [1] * sys.neuron_count
    st_next = [1] * sys.neuron_count
    for i in sys.delayed_rules:
        r = sys.rules[i]
        if Sp[i]:
            left = r.d
            if not standard and k > 0:
                rec[i] = r.d  # closure shows up at the firing step itself
                left = r.d - 1  # ... and is already counted once
        else:
            left = rec[i] - 1 if rec[i] > 0 else 0
        carry[i] = left
        iv[i] = 1 if standard and dst[i] == 1 else 0
        if rec[i] > 0:
            st_rec[r.owner] = 0
        if left > 0:
            st_next[r.owner] = 0
    return tuple(rec), tuple(st_rec), tuple(iv), tuple(carry), tuple(st_next)


# --- operational oracle ------------------------------------------------------


def operational_step(
    sys: SNPSystem, state: SimState, Sp: tuple[int, ...], mode: str = "standard"
) -> SimState:
    """Next state by direct simulation: per-neuron consumption, per-synapse
    delivery to open receivers, no matrix algebra.  Independent of the
    formula-based stepping on purpose; only the delay bookkeeping is shared."""
    _check_mode(mode)
    _dst, st_now, iv, dst, st = _advance(sys, state.k, state.dst, Sp, mode)
    config = _deliver(sys, state.config, Sp, iv, st_now)
    return _state(sys, state.k + 1, config, dst, st, mode)


def _deliver(sys: SNPSystem, C, Sp, Iv, St) -> tuple[int, ...]:
    """Each rule fired by Sp consumes from its neuron, then each rule
    producing by Iv sends its spikes along every synapse to the receivers
    open in St: operational_step's configuration, and the step of
    reachability.reachable_set (bfs_oracle), which imports it by name."""
    spikes = list(C)
    for i, r in enumerate(sys.rules):
        if Sp[i]:
            spikes[r.owner] -= r.c
            if spikes[r.owner] < 0:
                raise ValueError(f"rule {i} consumed more than present at {C}")
    for i, r in enumerate(sys.rules):
        if Iv[i]:
            for tgt in sys.targets_of[r.owner]:
                if St[tgt]:  # closed neurons reject spikes
                    spikes[tgt] += r.p
    return tuple(spikes)


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
    """A run is its records, k = 0..K: the last holds the state entering K."""

    mode: str
    records: tuple[StepRecord, ...]
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
    def first_interval(self) -> int | None:
        steps = [r.k for r in self.records if r.emitted > 0]
        if len(steps) < 2:
            return None
        return steps[1] - steps[0]


def _step_matrices(sys: SNPSystem):
    """PM, CM and the (rule, amount) pairs of the nonzero environment
    emissions (the augmented matrix's last column; none without an out
    neuron): what _make_record reads."""
    if sys.out_neuron is None:
        env = ()
    else:
        column = augmented_matrix(sys).column(sys.neuron_count)
        env = tuple((i, e) for i, e in enumerate(column) if e)
    return production_matrix(sys), consumption_matrix(sys), env


def _make_record(sys: SNPSystem, k: int, C, dst, Sp: tuple[int, ...], mode: str, matrices):
    """Execute step k from (C, dst) by the receiver-gated formula and record
    it; returns the record and the config, dst and st entering k + 1.
    Without delays Iv = Sp and every neuron is open: C + Sp . M."""
    PM, CM, env = matrices
    rec_dst, st_rec, iv, dst_next, st_next = _advance(sys, k, dst, Sp, mode)
    c_next = step_with_delay_v1(C, Sp, iv, st_rec, PM, CM)
    record = StepRecord(
        k=k,
        C=C,
        Sp=Sp,
        Iv=iv,
        St=st_rec,
        DSt=rec_dst,
        NG=vec_sub(c_next, C),
        emitted=sum(e * iv[i] for i, e in env),
    )
    return record, c_next, dst_next, st_next


def formula_step(
    sys: SNPSystem, state: SimState, Sp: tuple[int, ...], mode: str = "standard"
) -> tuple[StepRecord, SimState]:
    """One formula-based step (record + next state) for external callers;
    run_trace uses the same machinery with the matrices built once."""
    _check_mode(mode)
    mats = _step_matrices(sys)
    record, *nxt = _make_record(sys, state.k, state.config, state.dst, Sp, mode, mats)
    return record, _state(sys, state.k + 1, *nxt, mode)


def _terminal_record(sys: SNPSystem, k: int, config, dst, st) -> StepRecord:
    zero_n = (0,) * sys.rule_count
    zero_m = (0,) * sys.neuron_count
    return StepRecord(
        k=k,
        C=config,
        Sp=zero_n,
        Iv=zero_n,
        St=st,
        DSt=dst,
        NG=zero_m,
        emitted=0,
    )


def _is_halted(st: tuple[int, ...], choices: list[tuple[int, ...]]) -> bool:
    """Halted: no choice (an empty choice table, or no vector listed from it)
    and no closed neuron, which also means nothing is queued: the queue is
    derived from dst, and a running delay keeps its neuron closed."""
    return not choices and all(st)


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
    start = initial_state(sys)
    k, config, dst, st = 0, start.config, start.dst, start.st
    records: list[StepRecord] = []
    while True:
        table = choice_table(sys, config, st, memo)
        halted = _is_halted(st, table)
        if halted or k >= steps:
            break
        if policy == "random" and table:
            sp = rng.choice(table_vectors(sys, table))
        else:  # every entry's head; an empty table idles while delays count down
            sp = spiking_vector(sys, (rules[0] for rules in table))
        record, config, dst, st = _make_record(sys, k, config, dst, sp, mode, mats)
        records.append(record)
        k += 1
    records.append(_terminal_record(sys, k, config, dst, st))
    return Trace(
        mode=mode,
        records=tuple(records),
        halted=halted,
    )


class TreeNode(Record, eq=False):
    """A distinct state at its step, shared by every path reaching it.  Made
    on first reach; its children are appended as its state is expanded,
    each with the spikes its step emits."""

    state: SimState
    children: list[tuple[int, "TreeNode"]]


class TraceTree(Record, eq=False):
    """The bounded computation tree as a DAG: levels[k] holds its distinct
    nodes at step k, each root-to-leaf walk is one computation.  Like its
    nodes, a tree compares by identity."""

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
                paths[node] = sum(paths[c] for _e, c in node.children) or 1
        return paths[self.root]


def _run_tree(sys: SNPSystem, depth: int, mode: str) -> TraceTree:
    """Expand level by level.  A level maps the keys (config, dst, k == 0)
    of its distinct states to their nodes in discovery order.  st follows
    from dst, so states with equal keys expand alike at any step, but for
    paper-trace's deferral at k = 0.  Each key is expanded once per run, its
    (emitted, successor key, successor st) edges kept; a later node with that
    key reuses them as they are.  A node's state is made once, on its first
    reach, at its own step."""
    mats = _step_matrices(sys)
    idle = [(0,) * sys.rule_count]
    edges = {}  # key -> its edges, as made at the step where it was first met
    root = TreeNode(initial_state(sys), [])
    levels, level = [], {(root.state.config, root.state.dst, True): root}
    while level:  # a level is empty once every path has halted
        levels.append(tuple(level.values()))
        if len(levels) > depth:
            break
        k, below = len(levels) - 1, {}
        for key, node in level.items():
            out = edges.get(key)
            if out is None:
                config, dst, _first = key
                sps = enumerate_spiking_vectors(sys, config, node.state.st)
                made = [] if _is_halted(node.state.st, sps) else [
                    _make_record(sys, k, config, dst, sp, mode, mats) for sp in sps or idle
                ]
                out = edges[key] = [(r.emitted, (c, d, False), s) for r, c, d, s in made]
            for emitted, nkey, nst in out:
                child = below.get(nkey)
                if child is None:
                    nxt = _state(sys, k + 1, nkey[0], nkey[1], nst, mode)
                    child = below[nkey] = TreeNode(nxt, [])
                node.children.append((emitted, child))
        level = below
    return TraceTree(root=root, depth=depth, levels=tuple(levels))


def achievable_first_intervals(tree: TraceTree) -> set[int]:
    """Intervals between the first two emissions over every path of the tree,
    in one pass that carries to each node the steps at which the paths into
    it first emitted (None: not yet); a path leaves at its second emission.
    An edge out of level k is step k."""
    out: set[int] = set()
    firsts: dict[TreeNode, set] = {tree.root: {None}}
    for k, level in enumerate(tree.levels):
        for node in level:
            here = firsts.pop(node)
            for emitted, child in node.children:
                into = firsts.setdefault(child, set())
                if emitted <= 0:
                    into |= here
                    continue
                out.update(k - first for first in here if first is not None)
                if None in here:
                    into.add(k)
    return out
