"""Exact-integer matrices derived from a system.

Row indices are rule indices, column indices are neuron indices, both in
declaration order.  All arithmetic is over Python ints (and stays exact);
rank is computed by a sparse elimination that divides each new row by its
gcd, so no rationals are ever materialized.  Products (`IntMatrix.vecmat`)
visit only the nonzero entries of the rows whose entry in the vector is
nonzero, as sparse-matrix SN P simulators do, so a step costs the rules
fired times their out-degree; rank reads the same sparse rows, and the
dense rows remain for display and JSON.

Conventions:
  spiking_matrix      n x m: -c in the owner column, +p in each synaptic
                      target column of the owner.
  augmented_matrix    n x (m+1): extra environment column holding p for
                      spiking rules owned by the out neuron, else 0.
  production_matrix   n x m: the +p part only.
  consumption_matrix  n x m: the +c part only (owner column).
  struc_matrix        m x m: -1 on the diagonal, +1 at (i,j) for each
                      synapse (i,j); the synapse digraph in matrix form.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .model import Record, SNPSystem

__all__ = [
    "IntMatrix",
    "spiking_matrix",
    "augmented_matrix",
    "production_matrix",
    "consumption_matrix",
    "struc_matrix",
    "row_rank",
    "StructuralReport",
    "structural_report",
    "vec_add",
    "vec_sub",
    "hadamard",
]


class IntMatrix(Record):
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]  # row-major

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("data shape does not match rows x cols")

    @cached_property
    def sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (column, value) pairs of each row, in column order."""
        return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in self.data)

    def vecmat(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """v . self for a row vector v of length `rows` (sparse, see above)."""
        if len(v) != self.rows:
            raise ValueError(f"vector length {len(v)} != rows {self.rows}")
        out = [0] * self.cols
        for x, row in zip(v, self.sparse_rows):
            if x:
                for j, a in row:
                    out[j] += x * a
        return tuple(out)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def to_text(self) -> str:
        """Rows of right-aligned cells, each formatted once per distinct value."""
        if not self.data:
            return "(empty)"
        values = set().union(*self.data)
        width = max(len(str(x)) for x in values)
        cell = {x: str(x).rjust(width) for x in values}
        return "\n".join(" ".join(map(cell.__getitem__, row)) for row in self.data)


def vec_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def hadamard(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x * y for x, y in zip(a, b, strict=True))


def _rule_matrix(sys: SNPSystem, consumed: int, produced: int) -> IntMatrix:
    """One row per rule: consumed * c in its owner's column, plus
    produced * p in each synaptic target column of the owner."""
    n, m = sys.rule_count, sys.neuron_count
    data = [[0] * m for _ in range(n)]
    for i, r in enumerate(sys.rules):
        data[i][r.owner] += consumed * r.c
        for tgt in sys.targets_of[r.owner]:
            data[i][tgt] += produced * r.p
    return IntMatrix(n, m, tuple(tuple(row) for row in data))


def spiking_matrix(sys: SNPSystem) -> IntMatrix:
    return _rule_matrix(sys, -1, 1)


def augmented_matrix(sys: SNPSystem) -> IntMatrix:
    """Spiking matrix plus an environment column for out-neuron emission."""
    if sys.out_neuron is None:
        raise ValueError("system has no out neuron")
    base = spiking_matrix(sys)
    data = []
    for i, r in enumerate(sys.rules):
        env = r.p if r.owner == sys.out_neuron else 0  # p = 0 on a forgetting rule
        data.append(base.data[i] + (env,))
    return IntMatrix(base.rows, base.cols + 1, tuple(data))


def production_matrix(sys: SNPSystem) -> IntMatrix:
    return _rule_matrix(sys, 0, 1)


def consumption_matrix(sys: SNPSystem) -> IntMatrix:
    return _rule_matrix(sys, 1, 0)


def struc_matrix(sys: SNPSystem) -> IntMatrix:
    m = sys.neuron_count
    data = [[0] * m for _ in range(m)]
    for i in range(m):
        data[i][i] = -1
    for a, b in sys.syn:
        data[a][b] = 1
    return IntMatrix(m, m, tuple(tuple(row) for row in data))


def row_rank(mat: IntMatrix) -> int:
    """Rank over Q by sparse exact elimination (ints only, rows as dicts).

    Each step pivots on the remaining row with the fewest nonzeros, at its
    first column (the row count of Markowitz's rule, to limit fill-in),
    and replaces every row r holding that column by pc*r - rc*p divided by
    the gcd of its entries.  Scaling a row by a nonzero integer keeps the
    rank over Q, so the result is exact and the entries stay small.
    """
    rows = [dict(r) for r in mat.sparse_rows if r]
    rank = 0
    while rows:
        p = min(rows, key=len)
        rows.remove(p)
        c = min(p)
        pc = p[c]
        rank += 1
        for i, r in enumerate(rows):
            rc = r.get(c)
            if rc:
                new = {j: pc * x for j, x in r.items()}
                for j, y in p.items():
                    new[j] = new.get(j, 0) - rc * y
                g = gcd(*new.values())
                rows[i] = {j: x // g for j, x in new.items() if x}
        rows = [r for r in rows if r]
    return rank


class StructuralReport(Record):
    row_negative_counts: tuple[int, ...]  # per rule row of M
    col_negative_counts: tuple[int, ...]  # per neuron column of M
    inferred_output_neurons: tuple[int, ...]  # negative-only-row evidence
    out_degree: tuple[int, ...]
    struc_rank: int
    rank_cycle_hint: bool  # rank(Struc-M) < m
    dfs_has_cycle: bool


def _digraph_has_cycle(m: int, syn) -> bool:
    adj: list[list[int]] = [[] for _ in range(m)]
    for a, b in syn:
        adj[a].append(b)
    color = [0] * m  # 0 unvisited, 1 on stack, 2 done
    for start in range(m):
        if color[start]:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
            elif color[nxt] == 1:
                return True
            elif color[nxt] == 0:
                color[nxt] = 1
                stack.append((nxt, iter(adj[nxt])))
    return False


def structural_report(sys: SNPSystem) -> StructuralReport:
    """Row/column sign census of M plus the two independent cycle signals.

    A row whose single nonzero entry is negative consumes without feeding
    any neuron, which is evidence its owner emits outside the system (or
    merely forgets); the augmented matrix disambiguates, so the inference
    here reports neuron indices only.
    """
    mat = spiking_matrix(sys)
    m = sys.neuron_count
    row_neg = []
    col_neg = [0] * m
    inferred = {}  # owners in order of first evidence
    for rule, row in zip(sys.rules, mat.sparse_rows):
        negs = 0
        for j, x in row:
            if x < 0:
                negs += 1
                col_neg[j] += 1
        row_neg.append(negs)
        if negs == len(row) == 1:
            inferred[rule.owner] = None
    out_degree = tuple(len(t) for t in sys.targets_of)
    struc = struc_matrix(sys)
    rank = row_rank(struc)
    return StructuralReport(
        row_negative_counts=tuple(row_neg),
        col_negative_counts=tuple(col_neg),
        inferred_output_neurons=tuple(inferred),
        out_degree=out_degree,
        struc_rank=rank,
        rank_cycle_hint=rank < m,
        dfs_has_cycle=_digraph_has_cycle(m, sys.syn),
    )
