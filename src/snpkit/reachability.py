"""Reachability of configurations by sum-vector decomposition.

A target C is k-reachable iff C - C(0) = s . M for some s that splits
into k valid spiking vectors applied in sequence.  The pipeline:

  1. solve the integer linear system s . M = C - C(0) exactly: one
     fraction-free elimination gives integer pivot rows over the free
     variables with one common denominator, which a pruned integer-only
     walk enumerates up to the bound sum(s) <= k_max * m that any
     k_max-step path must satisfy;
  2. try to decompose each candidate s, smallest first, by a
     breadth-first search over residuals (full backtracking: the
     residual determines the configuration, so visited residuals prune
     the search and BFS depth gives the fewest steps for that s); each
     residual keeps the configuration it was reached at, one step from
     its parent's, and a witness's configurations and a refused
     candidate's table are both read from that search;
  3. cross-checkable against bfs_oracle, a direct breadth-first
     exploration of the computation tree that ignores the algebra: it
     steps by the operational simulator's per-synapse delivery, never
     by M.

Delay-free systems only: with delays the per-step gain depends on
open/closed status, so C - C(0) = s . M no longer characterizes paths.
Delayed traces are checked by formulas.verify_delay_closed_form.
"""

from __future__ import annotations

from .engine import (
    _deliver, choice_table, enumerate_spiking_vectors, spiking_vector, step_no_delay,
    table_vectors,
)
from .matrices import IntMatrix, spiking_matrix, vec_sub
from .model import Record, SNPSystem

__all__ = [
    "sum_vector_solutions",
    "TrialRow",
    "CandidateFailure",
    "ReachabilityCertificate",
    "decompose_sum_vector",
    "is_reachable",
    "reach_between",
    "bfs_oracle",
    "reachable_set",
]


# --- linear algebra over exact integers ----------------------------------------


def _integer_rref(M: IntMatrix, delta: tuple[int, ...]):
    """Row-reduce the equations s . M = delta without leaving the integers.

    Integer-preserving Gauss-Jordan elimination (Bareiss 1968): each pivot
    step rewrites every other row as (x * pivot - f * y) // previous
    pivot, a division that is always exact, and leaves the last pivot on
    the diagonal of every pivot row.  Returns (D, free, rows), where
    D > 0 is that pivot up to sign and rows lists (c, N_c, [A_cf per free
    f]) for each pivot column c, meaning D * s_c = N_c - sum(A_cf * s_f);
    or None when the system is inconsistent."""
    n, m = M.rows, M.cols
    # equation j:  sum_i s_i * M[i][j] = delta[j]
    aug = [[M.data[i][j] for i in range(n)] + [delta[j]] for j in range(m)]
    pivots: list[int] = []  # pivot column of equation rows 0, 1, ...
    prev = 1
    for col in range(n):
        row = len(pivots)
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        p = aug[row]
        lead = p[col]
        for r in range(m):
            if r != row:
                f = aug[r][col]
                aug[r] = [(x * lead - f * y) // prev for x, y in zip(aug[r], p)]
        prev = lead
        pivots.append(col)
    if any(aug[r][n] != 0 for r in range(len(pivots), m)):
        return None  # 0 = nonzero: no solutions at all
    sign = 1 if prev > 0 else -1
    free = [c for c in range(n) if c not in pivots]
    rows = [
        (col, sign * a[n], [sign * a[f] for f in free]) for col, a in zip(pivots, aug)
    ]
    return abs(prev), free, rows


def _enumerate_nonneg(M: IntMatrix, delta: tuple[int, ...], bound: int):
    """All nonnegative integer s with s . M = delta and sum(s) <= bound.

    One fraction-free elimination writes each pivot row as
    D * s_c = N_c - sum_f A_cf * s_f over the free variables f, with one
    denominator D > 0 for every row.  A depth-first walk then assigns the
    free variables in turn (each <= bound, as every s_i >= 0) on explicit
    frames, one per assigned variable, each keeping in integers only the
    residuals r_c = N_c - sum A_cf * s_f over the assigned f and the
    partial value of D * sum(s).  A leaf is a solution when every r_c is a
    nonnegative multiple of D and the sum is within bound.

    Two prunes skip only subtrees that hold no solution: a pivot whose
    unassigned coefficients are all >= 0 can only fall, so r_c < 0 ends
    the subtree and A_ci > 0 caps the current s_i at r_c // A_ci; and
    when every unassigned free variable weighs >= 0 in sum(s), the
    partial sum is a lower bound on it, so the walk stops above bound."""
    parts = _integer_rref(M, delta)
    if parts is None:
        return []
    D, free, rows = parts
    width = len(free)
    pivots = [col for col, _n, _a in rows]
    consts = [n for _c, n, _a in rows]
    coefs = [a for _c, _n, a in rows]
    # D * sum(s) = start + sum_j weight[j] * s_free[j]
    start = sum(consts)
    weight = [D - sum(a[j] for a in coefs) for j in range(width)]
    limit = D * bound
    # per depth j: rows whose coefficients on free[j:] are all >= 0, whether
    # every weight from j on is >= 0, and the nonzero coefficients of free[j]
    falling = [[c for c, a in enumerate(coefs) if min(a[j:]) >= 0] for j in range(width)]
    rising = [min(weight[j:]) >= 0 for j in range(width)]
    columns = [[(c, a[j]) for c, a in enumerate(coefs) if a[j]] for j in range(width)]
    out = []
    # one frame per assigned variable: [value, cap, residuals, part and free_sum at 0]
    stack = []
    r, part, free_sum = consts, start, 0
    while True:
        j = len(stack)
        if j < width:
            hi = bound - free_sum
            for c in falling[j]:
                if r[c] < 0:
                    hi = -1
                    break
                a = coefs[c][j]
                if a > 0:
                    hi = min(hi, r[c] // a)
            if rising[j]:
                if part > limit:
                    hi = -1
                elif weight[j] > 0:
                    hi = min(hi, (limit - part) // weight[j])
            if hi >= 0:
                r = list(r)  # the parent's residuals stay as they were
                stack.append([0, hi, r, part, free_sum])
                continue
        elif part <= limit and all(x >= 0 and x % D == 0 for x in r):
            s = [0] * M.rows
            for col, f in zip(free, stack):
                s[col] = f[0]
            for col, x in zip(pivots, r):
                s[col] = x // D
            out.append(tuple(s))
        while stack and stack[-1][0] == stack[-1][1]:
            stack.pop()
        if not stack:
            return out
        j = len(stack) - 1
        f = stack[j]
        f[0] = v = f[0] + 1
        r = f[2]
        for c, a in columns[j]:
            r[c] -= a
        part, free_sum = f[3] + v * weight[j], f[4] + v


def sum_vector_solutions(
    M: IntMatrix,
    C0: tuple[int, ...],
    C_target: tuple[int, ...],
    k_max: int,
) -> list[tuple[int, ...]]:
    """Candidate sum vectors for reaching C_target in <= k_max steps,
    sorted by (sum, lexicographic); distinct free assignments give
    distinct s, so the list has no repeats."""
    if len(C0) != M.cols or len(C_target) != M.cols:
        raise ValueError("configuration length does not match matrix columns")
    delta = vec_sub(C_target, C0)
    bound = k_max * M.cols
    return sorted(_enumerate_nonneg(M, delta, bound), key=lambda s: (sum(s), s))


# --- decomposition into valid spiking vectors ----------------------------------


class TrialRow(Record):
    """One row of the illustrative decomposition table."""

    step: int
    residual: tuple[int, ...]  # after subtracting Sp (may show a negative)
    Sp: tuple[int, ...] | None
    config: tuple[int, ...]  # configuration after the step (or at failure)
    note: str | None


class CandidateFailure(Record):
    s_bar: tuple[int, ...]
    reason: str
    table: tuple[TrialRow, ...]


class ReachabilityCertificate(Record):
    verdict: str  # "reachable" | "not-reachable-within-bounds": a bad query raises
    k: int | None = None
    configs: tuple[tuple[int, ...], ...] | None = None
    spiking_vectors: tuple[tuple[int, ...], ...] | None = None
    s_bar: tuple[int, ...] | None = None
    failures: tuple[CandidateFailure, ...] = ()
    candidates_tried: int = 0

    @property
    def reachable(self) -> bool:
        return self.verdict == "reachable"


def _greedy_table(reached: dict, s_bar: tuple[int, ...]) -> tuple[tuple[TrialRow, ...], str]:
    """Single-path walk recording why this candidate gets stuck: prefer
    any choice that keeps the residual nonnegative, otherwise show the
    first violating subtraction.  The walk is one path of the breadth-first
    search, which failed and so expanded every residual it reached: each
    step is read from the search's map, and none empties the residual."""
    residual = s_bar
    rows: list[TrialRow] = []
    while True:
        _prev, _sp, config, usable, valid = reached[residual]
        if usable is None:
            break
        residual = vec_sub(residual, usable)
        rows.append(TrialRow(len(rows), residual, usable, reached[residual][2], None))
    if valid is None or all(x in (0, 1) for x in residual):
        # nothing fires, or the leftover is itself one spiking vector's
        # worth but cannot fire at this configuration
        reason = "not a valid spiking vector"
        rows.append(TrialRow(len(rows), residual, None, config, reason))
    else:
        reason = "not a valid sum vector"
        rows.append(TrialRow(len(rows), vec_sub(residual, valid), valid, config, reason))
    return tuple(rows), reason


def decompose_sum_vector(
    sys: SNPSystem, C0: tuple[int, ...], s_bar: tuple[int, ...]
) -> ReachabilityCertificate:
    """Split s_bar into the fewest valid spiking vectors applied from C0.

    Breadth-first search over residuals; the configuration is always
    C0 + (s_bar - residual) . M, so the residual alone is the state.
    Full backtracking: all spiking-vector choices are explored, not just
    the narrative single path (which is still reported on failure)."""
    if len(s_bar) != sys.rule_count:
        raise ValueError("sum vector length does not match rule count")
    if any(x < 0 for x in s_bar):
        raise ValueError("sum vector entries must be nonnegative")
    M = spiking_matrix(sys)
    ones = (1,) * sys.neuron_count
    start = tuple(s_bar)
    zero = (0,) * sys.rule_count
    # residual -> [parent residual, Sp taken from it, configuration, then,
    # once expanded, its first usable and first valid spiking vector]
    reached: dict[tuple[int, ...], list] = {start: [None, None, tuple(C0)]}
    frontier = [start]
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for residual in frontier:
            if residual == zero:
                # walk back to the start to recover the sequence
                configs, seq = [], []
                while residual is not None:
                    residual, sp, config = reached[residual][:3]
                    configs.append(config)
                    seq.append(sp)
                seq.pop()  # the start is reached by no spiking vector
                return ReachabilityCertificate(
                    verdict="reachable",
                    k=len(seq),
                    configs=tuple(reversed(configs)),
                    spiking_vectors=tuple(reversed(seq)),
                    s_bar=start,
                    candidates_tried=1,
                )
            entry = reached[residual]
            choices = choice_table(sys, entry[2], ones)
            # usable: only rules the residual still holds (none if an entry empties)
            usable = table_vectors(sys, [[i for i in rules if residual[i]] for rules in choices])
            head = spiking_vector(sys, (rules[0] for rules in choices)) if choices else None
            entry += [usable[0] if usable else None, head]
            for sp in usable:
                child = vec_sub(residual, sp)
                if child not in reached:
                    reached[child] = [residual, sp, step_no_delay(entry[2], sp, M)]
                    nxt.append(child)
        frontier = nxt
    table, reason = _greedy_table(reached, start)
    return ReachabilityCertificate(
        verdict="not-reachable-within-bounds",
        failures=(CandidateFailure(start, reason, table),),
        candidates_tried=1,
    )


# --- end-to-end decision ---------------------------------------------------------


def reach_between(
    sys: SNPSystem,
    C_from: tuple[int, ...],
    C_to: tuple[int, ...],
    v_max: int,
) -> ReachabilityCertificate:
    """Decide whether C_to is reachable from C_from within v_max steps.

    Candidates are tried smallest-sum first; once a witness with k steps
    is found, any untried candidate with sum(s) > (k-1)*m cannot do
    better (each step fires at most m rules), so the iteration stops
    with the smallest witnessed k.  A configuration of the wrong length
    or with a negative entry raises ValueError."""
    if sys.has_delays:
        raise ValueError(
            "reachability by sum vectors needs a delay-free system; "
            "use verify_delay_closed_form on recorded traces instead"
        )
    m = sys.neuron_count
    if len(C_to) != m or len(C_from) != m:
        raise ValueError("configuration length does not match neuron count")
    if any(x < 0 for x in (*C_from, *C_to)):
        raise ValueError("configuration entries must be nonnegative")
    M = spiking_matrix(sys)
    candidates = sum_vector_solutions(M, C_from, C_to, v_max)
    failures: list[CandidateFailure] = []
    best: ReachabilityCertificate | None = None
    tried = 0
    for s_bar in candidates:
        if best is not None and sum(s_bar) > (best.k - 1) * m:
            break
        tried += 1
        cert = decompose_sum_vector(sys, C_from, s_bar)
        if cert.reachable and cert.k <= v_max:
            if best is None or cert.k < best.k:
                best = cert
        elif cert.reachable:
            # splits, but its shortest split needs more steps than allowed
            failures.append(CandidateFailure(tuple(s_bar), "bound exhausted", ()))
        else:
            failures.extend(cert.failures)
    if best is not None:
        return ReachabilityCertificate(
            verdict="reachable",
            k=best.k,
            configs=best.configs,
            spiking_vectors=best.spiking_vectors,
            s_bar=best.s_bar,
            failures=tuple(failures),
            candidates_tried=tried,
        )
    return ReachabilityCertificate(
        verdict="not-reachable-within-bounds",
        failures=tuple(failures),
        candidates_tried=tried,
    )


def is_reachable(
    sys: SNPSystem, C_target: tuple[int, ...], k_max: int
) -> ReachabilityCertificate:
    """Reachability from the initial configuration; see reach_between."""
    return reach_between(sys, sys.initial, C_target, k_max)


# --- independent ground truth ------------------------------------------------------


def reachable_set(
    sys: SNPSystem, k_max: int, C_from: tuple[int, ...] | None = None
) -> dict[tuple[int, ...], int]:
    """Every configuration reachable within k_max steps, mapped to its
    breadth-first (= smallest) step count.  Each step is the operational
    simulator's consumption and per-synapse delivery: no matrix."""
    if sys.has_delays:
        raise ValueError("breadth-first reachability needs a delay-free system")
    ones = (1,) * sys.neuron_count
    start = tuple(sys.initial if C_from is None else C_from)
    depth = {start: 0}
    frontier = [start]
    for level in range(1, k_max + 1):
        nxt = []
        for config in frontier:
            for sp in enumerate_spiking_vectors(sys, config, ones):
                child = _deliver(sys, config, sp, sp, ones)
                if child not in depth:
                    depth[child] = level
                    nxt.append(child)
        frontier = nxt
    return depth


def bfs_oracle(
    sys: SNPSystem,
    C_target: tuple[int, ...],
    k_max: int,
    C_from: tuple[int, ...] | None = None,
) -> tuple[bool, int | None]:
    """(reachable within k_max, smallest k) by plain search; no algebra."""
    depth = reachable_set(sys, k_max, C_from)
    k = depth.get(tuple(C_target))
    return (k is not None), k
