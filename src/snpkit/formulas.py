"""The paper's formula comparisons, reported and never asserted: the 2017
status-masked readings against the receiver-gated step_with_delay_v1.

No CLI path imports this module.  Each comparison returns a tuple of
plain entries holding the values it compares; the reader compares them.
check_step_identities gives v1, v2 and the operational oracle at one
state, with both sides of the owner-vs-receiver gating identity;
formula_comparison_report re-evaluates v2 along a recorded trace under
both readings of "status at k+1"; and verify_delay_closed_form replays a
delayed trace against the status-masked closed-form sum (the two provably
split at steps whose production is lost to a closure that no later mask
cancels).
"""

from __future__ import annotations

from .engine import (
    SimState, Trace, _advance, enumerate_spiking_vectors, operational_step,
    step_with_delay_v1,
)
from .matrices import IntMatrix, consumption_matrix, hadamard, production_matrix, spiking_matrix
from .model import Record, SNPSystem

__all__ = [
    "rule_status",
    "step_with_delay_v2",
    "check_step_identities",
    "StepIdentityEntry",
    "FormulaComparison",
    "formula_comparison_report",
    "ClosedFormEntry",
    "verify_delay_closed_form",
]


def rule_status(sys: SNPSystem, st: tuple[int, ...]) -> tuple[int, ...]:
    """Per-rule openness of the owner neuron."""
    return tuple(st[r.owner] for r in sys.rules)


def step_with_delay_v2(
    C: tuple[int, ...],
    Iv: tuple[int, ...],
    St_next: tuple[int, ...],
    M: IntMatrix,
) -> tuple[int, ...]:
    """St(k+1) (*) (C + Iv . M); the next-step status masks everything."""
    gains = M.vecmat(Iv)
    return tuple(s * (c + g) for s, c, g in zip(St_next, C, gains, strict=True))


# --- cross-formula checks ----------------------------------------------------


class StepIdentityEntry(Record):
    Sp: tuple[int, ...]
    Iv: tuple[int, ...]
    St: tuple[int, ...]
    RSt: tuple[int, ...]
    lhs: tuple[int, ...]  # St (*) (Iv . M)
    rhs: tuple[int, ...]  # (RSt (*) Iv) . M
    v1_config: tuple[int, ...]
    v2_config: tuple[int, ...]
    oracle_config: tuple[int, ...]


def check_step_identities(
    sys: SNPSystem,
    state: SimState,
    mode: str = "standard",
) -> tuple[StepIdentityEntry, ...]:
    """One entry per valid spiking vector at `state`: the one-step
    configurations of the v1 and v2 formulas and the operational oracle,
    and both sides of the owner-vs-receiver status identity
    St (*) (Iv . M) = (RSt (*) Iv) . M.  Everything is reported, nothing
    asserted: the identity genuinely fails (lhs != rhs) on states where a
    closed neuron's column and an open producer's row meet.

    v2 needs the status at k+1; it takes the carry status implied by
    each candidate.  The status a trace records at k+1 can differ (when
    the next step itself fires a delayed rule and closures are recorded
    at firing time); formula_comparison_report covers that reading
    along a recorded trace."""
    M, PM, CM = spiking_matrix(sys), production_matrix(sys), consumption_matrix(sys)
    entries = []
    for sp in enumerate_spiking_vectors(sys, state.config, state.st):
        _dst, st_rec, iv, _carry, st_next = _advance(sys, state.k, state.dst, sp, mode)
        rst = rule_status(sys, st_rec)
        lhs = hadamard(st_rec, M.vecmat(iv))
        rhs = M.vecmat(hadamard(rst, iv))
        v1 = step_with_delay_v1(state.config, sp, iv, st_rec, PM, CM)
        v2 = step_with_delay_v2(state.config, iv, st_next, M)
        oracle = operational_step(sys, state, sp, mode).config
        entries.append(
            StepIdentityEntry(
                Sp=sp,
                Iv=iv,
                St=st_rec,
                RSt=rst,
                lhs=lhs,
                rhs=rhs,
                v1_config=v1,
                v2_config=v2,
                oracle_config=oracle,
            )
        )
    return tuple(entries)


class FormulaComparison(Record):
    """One executed step of a trace, re-derived through each formula."""

    k: int
    actual_next: tuple[int, ...]
    v2_carry: tuple[int, ...]  # St(k+1) = carry status entering k+1
    v2_recorded: tuple[int, ...]  # St(k+1) = status recorded at k+1


def formula_comparison_report(
    sys: SNPSystem, trace: Trace
) -> tuple[FormulaComparison, ...]:
    """Re-evaluate the masked one-step formula along a recorded trace,
    under both readings of "status at k+1", next to the recorded next
    configuration.  The readings split exactly at steps whose successor
    fires a delayed rule; the report states the split instead of leaning
    on either side."""
    M = spiking_matrix(sys)
    out = []
    records = trace.records
    dst = (0,) * sys.rule_count  # replays the trace's delay bookkeeping from k = 0
    for rec, nxt in zip(records, records[1:]):
        *_, dst, st = _advance(sys, rec.k, dst, rec.Sp, trace.mode)
        out.append(
            FormulaComparison(
                k=rec.k,
                actual_next=nxt.C,
                v2_carry=step_with_delay_v2(rec.C, rec.Iv, st, M),
                v2_recorded=step_with_delay_v2(rec.C, rec.Iv, nxt.St, M),
            )
        )
    return tuple(out)


# --- closed form along delayed traces ------------------------------------------------


class ClosedFormEntry(Record):
    prefix: int  # uses records 0..prefix, predicts C(prefix+1)
    predicted: tuple[int, ...]
    actual: tuple[int, ...]


def verify_delay_closed_form(
    sys: SNPSystem, trace: Trace
) -> tuple[ClosedFormEntry, ...]:
    """Evaluate, for every prefix of the trace, the status-masked sum

        C(k+1) =? (St(1) (*) ... (*) St(k+1)) (*) C(0)
                  + sum_j (St(j+2) (*) ... (*) St(k+1))
                          (*) ((RSt(j+1) (*) Iv(j)) . M)

    next to the recorded C(k+1).  Agreement is left to the reader, never
    asserted: a production lost to a closed receiver at step j is only
    cancelled if some later status mask covers that neuron, so prefixes
    whose last steps lose spikes genuinely disagree.  On a delay-free
    trace every status is open and the sum collapses to the telescoped
    C(0) + (sum Sp) . M, which always agrees.

    The sum is evaluated in one pass by its exact recurrence

        P(k) = St(k+1) (*) P(k-1) + (RSt(k+1) (*) Iv(k)) . M,  P(-1) = C(0)."""
    M = spiking_matrix(sys)
    records = trace.records
    predicted = records[0].C
    entries = []
    for k, (rec, nxt) in enumerate(zip(records, records[1:])):
        producing = hadamard(rule_status(sys, nxt.St), rec.Iv)
        predicted = tuple(
            mask * p + g for mask, p, g in zip(nxt.St, predicted, M.vecmat(producing))
        )
        entries.append(
            ClosedFormEntry(
                prefix=k,
                predicted=predicted,
                actual=nxt.C,
            )
        )
    return tuple(entries)
