"""The paper's formula comparisons, reported and never asserted: the 2017
status-masked readings against the receiver-gated step_with_delay_v1.

No CLI path imports this module.  check_step_identities compares v1, v2
and the operational oracle at one state, with the owner-vs-receiver
gating identity; formula_comparison_report re-evaluates v2 along a
recorded trace under both readings of "status at k+1"; and
verify_delay_closed_form replays a delayed trace against the status-masked
closed-form sum (the two provably split at steps whose production is lost
to a closure that no later mask cancels).
"""

from __future__ import annotations

from .engine import (
    SimState, Trace, _advance, _check_mode, _state, enumerate_spiking_vectors, initial_state,
    operational_step, step_with_delay_v1,
)
from .matrices import IntMatrix, consumption_matrix, hadamard, production_matrix, spiking_matrix
from .model import Record, SNPSystem

__all__ = [
    "rule_status",
    "step_with_delay_v2",
    "update_delay_state",
    "check_step_identities",
    "StepIdentityEntry",
    "IdentityReport",
    "FormulaComparison",
    "formula_comparison_report",
    "ClosedFormEntry",
    "ClosedFormReport",
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


def update_delay_state(
    sys: SNPSystem, state: SimState, Sp: tuple[int, ...], mode: str = "standard"
) -> SimState:
    """Advance the delay bookkeeping one step (configuration untouched);
    the returned state's st and pending are derived from the new dst."""
    _check_mode(mode)
    *_, dst, st = _advance(sys, state.k, state.dst, Sp, mode)
    return _state(sys, state.k + 1, state.config, dst, st, mode)


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


# --- closed form along delayed traces ------------------------------------------------


class ClosedFormEntry(Record):
    prefix: int  # uses records 0..prefix, predicts C(prefix+1)
    predicted: tuple[int, ...]
    actual: tuple[int, ...]
    agrees: bool


class ClosedFormReport(Record):
    entries: tuple[ClosedFormEntry, ...]

    @property
    def all_agree(self) -> bool:
        return all(e.agrees for e in self.entries)

    @property
    def first_failure(self) -> int | None:
        return next((e.prefix for e in self.entries if not e.agrees), None)


def verify_delay_closed_form(sys: SNPSystem, trace: Trace) -> ClosedFormReport:
    """Evaluate, for every prefix of the trace, the status-masked sum

        C(k+1) =? (St(1) (*) ... (*) St(k+1)) (*) C(0)
                  + sum_j (St(j+2) (*) ... (*) St(k+1))
                          (*) ((RSt(j+1) (*) Iv(j)) . M)

    against the recorded C(k+1).  Per-entry agreement is reported, never
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
                agrees=predicted == nxt.C,
            )
        )
    return ClosedFormReport(tuple(entries))
