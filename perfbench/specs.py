"""The benchmark's own description of a spiking system.

Generated systems live here as plain data with their own guard semantics,
so that the oracles can judge the program without running its parser or
its guard compiler.  ``Spec.text`` writes the `.snp` file the program
reads; ``Spec.oracle_system`` builds the snpkit data object that the
reference steppers (``operational_step``, ``is_valid_spiking_vector``)
take, with guards answered by ``Guard.matches`` instead of compiled tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from snpkit.model import SNPSystem


def _lit(n: int) -> str:
    return "a" if n == 1 else f"a^{n}"


@dataclass(frozen=True)
class Guard:
    """A unary guard with a membership test written from its definition.

    kind "exact": n == a; "atleast": n >= a; "parity": n >= a and n - a
    is even; "semigroup": n - a is a sum of copies of the generators.
    """

    kind: str
    a: int
    gens: tuple[int, ...] = ()

    @property
    def src(self) -> str:
        if self.kind == "exact":
            return _lit(self.a)
        if self.kind == "atleast":
            return _lit(self.a) + "a*"
        if self.kind == "parity":
            return _lit(self.a) + "(aa)*"
        if self.kind == "semigroup":
            head = _lit(self.a) if self.a else ""
            return head + "(" + "|".join(_lit(g) for g in self.gens) + ")*"
        raise ValueError(f"unknown guard kind {self.kind!r}")

    def matches(self, n: int) -> bool:
        r = n - self.a
        if self.kind == "exact":
            return r == 0
        if self.kind == "atleast":
            return r >= 0
        if self.kind == "parity":
            return r >= 0 and r % 2 == 0
        if r < 0:
            return False
        x, y = self.gens
        return any((r - i * x) % y == 0 for i in range(r // x + 1))

    def is_singleton(self, n: int) -> bool:
        return self.kind == "exact" and self.a == n


@dataclass(frozen=True)
class RuleSpec:
    owner: int
    guard: Guard
    c: int
    p: int
    d: int = 0

    # the part of snpkit's Rule interface the reference steppers read
    def applicable(self, spikes: int) -> bool:
        return spikes >= self.c and self.guard.matches(spikes)


@dataclass(frozen=True)
class Spec:
    names: tuple[str, ...]
    initial: tuple[int, ...]
    rules: tuple[RuleSpec, ...]
    syn: tuple[tuple[int, int], ...]
    out: int | None = None

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def n(self) -> int:
        return len(self.rules)

    @cached_property
    def targets(self) -> tuple[tuple[int, ...], ...]:
        per: list[list[int]] = [[] for _ in self.names]
        for a, b in self.syn:
            per[a].append(b)
        return tuple(tuple(t) for t in per)

    @cached_property
    def rules_of(self) -> tuple[tuple[int, ...], ...]:
        per: list[list[int]] = [[] for _ in self.names]
        for i, r in enumerate(self.rules):
            per[r.owner].append(i)
        return tuple(tuple(t) for t in per)

    def text(self) -> str:
        lines = [f"neuron {name} spikes={s}" for name, s in zip(self.names, self.initial)]
        for r in self.rules:
            lines.append(
                f"rule {self.names[r.owner]} E={r.guard.src} c={r.c} p={r.p} d={r.d}"
            )
        lines += [f"syn {self.names[a]} {self.names[b]}" for a, b in self.syn]
        if self.out is not None:
            lines.append(f"out {self.names[self.out]}")
        return "\n".join(lines) + "\n"

    @cached_property
    def oracle_system(self) -> SNPSystem:
        return SNPSystem(
            neuron_names=self.names,
            initial=self.initial,
            rules=self.rules,
            syn=self.syn,
            out_neuron=self.out,
        )

    # --- matrices, written from the definitions ---------------------------

    def production(self) -> list[list[int]]:
        rows = [[0] * self.m for _ in self.rules]
        for i, r in enumerate(self.rules):
            for t in self.targets[r.owner]:
                rows[i][t] += r.p
        return rows

    def consumption(self) -> list[list[int]]:
        rows = [[0] * self.m for _ in self.rules]
        for i, r in enumerate(self.rules):
            rows[i][r.owner] += r.c
        return rows

    def spiking(self) -> list[list[int]]:
        return [
            [p - c for p, c in zip(pr, cr)]
            for pr, cr in zip(self.production(), self.consumption())
        ]

    def augmented(self) -> list[list[int]] | None:
        if self.out is None:
            return None
        return [
            row + [r.p if r.owner == self.out else 0]
            for row, r in zip(self.spiking(), self.rules)
        ]

    def struc(self) -> list[list[int]]:
        rows = [[-1 if i == j else 0 for j in range(self.m)] for i in range(self.m)]
        for a, b in self.syn:
            rows[a][b] = 1
        return rows


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank over Q by Gauss-Jordan elimination on sparse Fraction rows."""
    live = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    live = [r for r in live if r]
    rank = 0
    while live:
        # the sparsest row keeps fill-in low
        live.sort(key=len)
        pivot = live.pop(0)
        col, lead = next(iter(pivot.items()))
        rank += 1
        rest = []
        for row in live:
            f = row.get(col)
            if f is not None:
                f /= lead
                for j, x in pivot.items():
                    v = row.get(j, 0) - f * x
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
            if row:
                rest.append(row)
        live = rest
    return rank
