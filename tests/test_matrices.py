"""Matrix builders, exact rank, and the structural report."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gensys import make_random_system
from snpkit.cli import json_default
from snpkit.matrices import (
    IntMatrix,
    augmented_matrix,
    consumption_matrix,
    production_matrix,
    row_rank,
    spiking_matrix,
    struc_matrix,
    structural_report,
    vec_sub,
)
from snpkit.model import parse_system


def rank_by_fractions(mat: IntMatrix) -> int:
    """Plain Gaussian elimination over Q (independent rank oracle)."""
    a = [[Fraction(x) for x in row] for row in mat.data]
    rank = 0
    for c in range(mat.cols):
        piv = next((i for i in range(rank, mat.rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(mat.rows):
            if i != rank and a[i][c] != 0:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def rank_by_bareiss(mat: IntMatrix) -> int:
    """Dense Bareiss fraction-free elimination over every cell, the route
    `row_rank` took before it went sparse (reference)."""
    a = [list(row) for row in mat.data]
    rank = 0
    prev = 1
    for c in range(mat.cols):
        piv = next((i for i in range(rank, mat.rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, mat.rows):
            for j in range(c + 1, mat.cols):
                # exact by Sylvester's determinant identity
                a[i][j] = (a[i][j] * a[rank][c] - a[i][c] * a[rank][j]) // prev
            a[i][c] = 0
        prev = a[rank][c]
        rank += 1
        if rank == mat.rows:
            break
    return rank


# --- golden matrices ---------------------------------------------------------


def test_spiking_matrix_first_system(example1):
    assert spiking_matrix(example1).data == (
        (-1, 1, 1),
        (-2, 1, 1),
        (1, -1, 1),
        (0, 0, -1),
        (0, 0, -2),
    )


def test_augmented_matrix_first_system(example1):
    ag = augmented_matrix(example1)
    assert ag.rows == 5 and ag.cols == 4
    assert ag.column(3) == (0, 0, 0, 1, 0)  # forgetting row emits nothing
    assert tuple(row[:3] for row in ag.data) == spiking_matrix(example1).data


def test_spiking_matrix_delayed_system(example3):
    assert spiking_matrix(example3).data == (
        (-1, 1, 0),
        (1, -1, 1),
        (0, -2, 0),
        (0, 1, -1),
    )


def test_production_consumption_split(example3):
    assert production_matrix(example3).data == (
        (0, 1, 0),
        (1, 0, 1),
        (0, 0, 0),  # forgetting rule produces nothing
        (0, 1, 0),
    )
    assert consumption_matrix(example3).data == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 2, 0),
        (0, 0, 1),
    )


def test_pm_minus_cm_is_m(example1, example3):
    for s in (example1, example3):
        pm, cm = production_matrix(s), consumption_matrix(s)
        assert tuple(map(vec_sub, pm.data, cm.data)) == spiking_matrix(s).data


def test_single_neuron_no_synapses():
    s = parse_system("neuron x spikes=1\nrule x E=a c=1 p=1 d=0\n")
    assert spiking_matrix(s).data == ((-1,),)


def test_struc_matrix_first_system(example1):
    st_m = struc_matrix(example1)
    assert st_m.data == ((-1, 1, 1), (1, -1, 1), (0, 0, -1))
    assert row_rank(st_m) == 2


def test_struc_matrix_edge_cases():
    iso = parse_system("neuron a spikes=0\nneuron b spikes=0\n")
    assert struc_matrix(iso).data == ((-1, 0), (0, -1))
    both = parse_system("neuron a spikes=0\nneuron b spikes=0\nsyn a b\nsyn b a\n")
    assert struc_matrix(both).data == ((-1, 1), (1, -1))


def test_row_rank_edge_cases():
    assert row_rank(IntMatrix(3, 3, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))) == 3
    assert row_rank(IntMatrix(2, 3, ((0, 0, 0), (0, 0, 0)))) == 0
    assert row_rank(IntMatrix(0, 0, ())) == 0
    # rank needs column skipping here
    assert row_rank(IntMatrix(2, 3, ((0, 1, 2), (0, 2, 4)))) == 1


def test_augmented_requires_out_neuron(example3):
    with pytest.raises(ValueError):
        augmented_matrix(example3)


def test_augmented_out_neuron_without_rules():
    s = parse_system(
        "neuron a spikes=1\nneuron b spikes=0\n"
        "rule a E=a c=1 p=1 d=0\nsyn a b\nout b\n"
    )
    assert augmented_matrix(s).column(2) == (0,)


def test_vecmat_golden(example1):
    m = spiking_matrix(example1)
    assert m.vecmat((1, 0, 1, 1, 0)) == (0, 0, 1)
    assert m.vecmat((0, 1, 1, 0, 1)) == (-1, 0, 0)
    with pytest.raises(ValueError):
        m.vecmat((1, 0, 0))


def dense_vecmat(mat: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    """The every-cell product vecmat used before it went sparse (reference)."""
    return tuple(
        sum(v[i] * mat.data[i][j] for i in range(mat.rows)) for j in range(mat.cols)
    )


@st.composite
def matrix_and_vector(draw):
    rows = draw(st.integers(min_value=0, max_value=12))
    cols = draw(st.integers(min_value=0, max_value=12))
    entry = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5))
    data = tuple(
        tuple(draw(st.lists(entry, min_size=cols, max_size=cols))) for _ in range(rows)
    )
    small = st.integers(min_value=-3, max_value=3)
    v = tuple(draw(st.lists(small, min_size=rows, max_size=rows)))
    return IntMatrix(rows, cols, data), v


@given(case=matrix_and_vector())
@settings(max_examples=300, deadline=None)
def test_sparse_vecmat_matches_dense_reference(case):
    m, v = case
    fresh = IntMatrix(m.rows, m.cols, m.data)
    expected = dense_vecmat(m, v)
    assert m.vecmat(v) == expected
    assert m.vecmat(v) == expected  # second product reuses the cached rows
    assert m == fresh and hash(m) == hash(fresh)
    assert json_default(m) == {"rows": m.rows, "cols": m.cols, "data": m.data}
    with pytest.raises(ValueError):
        m.vecmat(v + (1,))


def test_matrix_text_and_json_round_trip(example1):
    m = spiking_matrix(example1)
    m.vecmat((1, 0, 0, 0, 0))  # caches sparse_rows, which must stay out of the JSON
    d = json.loads(json.dumps(m, default=json_default))
    assert d == {
        "rows": 5,
        "cols": 3,
        "data": [[-1, 1, 1], [-2, 1, 1], [1, -1, 1], [0, 0, -1], [0, 0, -2]],
    }
    text = m.to_text()
    assert text.splitlines()[0] == "-1  1  1"
    assert text.splitlines()[3] == " 0  0 -1"


def column_text(mat: IntMatrix) -> str:
    """to_text as it was before the per-value cell table (reference)."""
    if not mat.data:
        return "(empty)"
    width = max(len(str(x)) for row in mat.data for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in mat.data)


@st.composite
def text_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(
        st.integers(min_value=-9, max_value=9), st.integers(min_value=-10**6, max_value=10**6)
    )
    data = tuple(
        tuple(draw(st.lists(entry, min_size=cols, max_size=cols))) for _ in range(rows)
    )
    return IntMatrix(rows, cols, data)


@given(mat=text_matrices())
@example(mat=IntMatrix(0, 0, ()))
@example(mat=IntMatrix(1, 4, ((3, -12, 0, 7),)))
@example(mat=IntMatrix(3, 1, ((-1,), (100,), (0,))))
@settings(max_examples=300, deadline=None)
def test_to_text_matches_reference(mat):
    assert mat.to_text() == column_text(mat)


# --- structural report -------------------------------------------------------


def dense_census(s) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The row/column sign census over every dense cell of M, as
    structural_report computed it before it read the sparse rows (reference)."""
    mat = spiking_matrix(s)
    row_neg = tuple(sum(1 for x in row if x < 0) for row in mat.data)
    col_neg = tuple(
        sum(1 for i in range(mat.rows) if mat.data[i][j] < 0) for j in range(s.neuron_count)
    )
    inferred = []
    for i, row in enumerate(mat.data):
        nonzero = [j for j, x in enumerate(row) if x != 0]
        if len(nonzero) == 1 and row[nonzero[0]] < 0:
            owner = s.rules[i].owner
            if owner not in inferred:
                inferred.append(owner)
    return row_neg, col_neg, tuple(inferred)


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_sparse_census_matches_dense_reference(seed):
    # forgetting rules and neurons without out-synapses give negative-only rows
    s = make_random_system(random.Random(seed), max_neurons=8, max_rules=16, allow_delay=True)
    rep = structural_report(s)
    census = (rep.row_negative_counts, rep.col_negative_counts, rep.inferred_output_neurons)
    assert census == dense_census(s)


def test_structural_report_first_system(example1):
    rep = structural_report(example1)
    assert rep.row_negative_counts == (1, 1, 1, 1, 1)
    assert rep.col_negative_counts == (2, 1, 2)
    assert rep.inferred_output_neurons == (2,)
    assert rep.out_degree == (2, 2, 0)
    assert rep.struc_rank == 2
    assert rep.rank_cycle_hint is True
    assert rep.dfs_has_cycle is True


def test_structural_report_delayed_system(example3):
    rep = structural_report(example3)
    assert rep.row_negative_counts == (1, 1, 1, 1)
    assert rep.dfs_has_cycle is True


def test_acyclic_chain_report():
    s = parse_system(
        "neuron a spikes=1\nneuron b spikes=0\nneuron c spikes=0\n"
        "rule a E=a c=1 p=1 d=0\n"
        "syn a b\nsyn b c\n"
    )
    rep = structural_report(s)
    assert rep.dfs_has_cycle is False
    assert rep.struc_rank == 3
    assert rep.rank_cycle_hint is False


def test_cycle_without_rank_deficiency():
    # a 3-cycle plus one chord: the digraph has cycles yet Struc-M has
    # full rank, so the rank hint must stay a one-directional signal
    s = parse_system(
        "neuron a spikes=0\nneuron b spikes=0\nneuron c spikes=0\n"
        "syn a b\nsyn b c\nsyn c a\nsyn c b\n"
    )
    rep = structural_report(s)
    assert rep.dfs_has_cycle is True
    assert rep.struc_rank == 3
    assert rep.rank_cycle_hint is False


# --- properties --------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_matrix_invariants_on_random_systems(seed):
    s = make_random_system(random.Random(seed), allow_delay=True)
    m = spiking_matrix(s)
    pm, cm = production_matrix(s), consumption_matrix(s)
    assert tuple(map(vec_sub, pm.data, cm.data)) == m.data
    # each row has exactly one negative entry, in the owner column, = -c
    for i, rule in enumerate(s.rules):
        row = m.data[i]
        negs = [j for j, x in enumerate(row) if x < 0]
        assert negs == [rule.owner]
        # owner column aggregates -c with +p from self-loops, which are
        # excluded by validity, so the entry is exactly -c
        assert row[rule.owner] == -rule.c
    if s.out_neuron is not None:
        ag = augmented_matrix(s)
        assert tuple(row[:-1] for row in ag.data) == m.data
    assert row_rank(struc_matrix(s)) <= s.neuron_count


mats = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix(r, c, tuple(tuple(x) for x in rows)))
    )
)


@given(mat=mats)
@settings(max_examples=300, deadline=None)
def test_bareiss_rank_matches_fraction_elimination(mat):
    assert row_rank(mat) == rank_by_fractions(mat)


def digraph_struc(n: int, edges) -> IntMatrix:
    """A - I for the digraph on n nodes with the given (source, target) edges."""
    data = [[-(i == j) for j in range(n)] for i in range(n)]
    for a, b in edges:
        if a != b:
            data[a][b] = 1
    return IntMatrix(n, n, tuple(map(tuple, data)))


@st.composite
def rank_cases(draw):
    """Matrices of the shapes an elimination can get wrong: non-square,
    rank-deficient, with zero rows and columns, and struc-shaped."""
    kind = draw(st.sampled_from(["entries", "product", "struc"]))
    if kind == "struc":
        n = draw(st.integers(min_value=0, max_value=60))
        node = st.integers(min_value=0, max_value=max(n - 1, 0))
        edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
        return digraph_struc(n, edges)
    rows = draw(st.integers(min_value=0, max_value=12))
    cols = draw(st.integers(min_value=0, max_value=12))
    if kind == "product":  # an r x k times k x c product has rank <= k
        k = draw(st.integers(min_value=0, max_value=4))
        small = st.integers(min_value=-3, max_value=3)
        left = [[draw(small) for _ in range(k)] for _ in range(rows)]
        right = [[draw(small) for _ in range(cols)] for _ in range(k)]
        data = [
            [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)
        ]
    else:
        entry = st.one_of(st.just(0), st.integers(min_value=-50, max_value=50))
        data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zeroed = st.sets(st.integers(min_value=0, max_value=11))
    zero_rows, zero_cols = draw(zeroed), draw(zeroed)
    data = [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(data)
    ]
    return IntMatrix(rows, cols, tuple(map(tuple, data)))


@given(mat=rank_cases())
@settings(max_examples=400, deadline=None)
def test_sparse_rank_matches_dense_and_rational_references(mat):
    assert row_rank(mat) == rank_by_bareiss(mat) == rank_by_fractions(mat)


def test_long_ring_struc_rank():
    # A - I of a directed n-cycle has rank n - 1 (the all-ones vector spans
    # its kernel); dense elimination takes tens of seconds at this size
    n = 1000
    text = "".join(f"neuron n{i} spikes=0\n" for i in range(n))
    text += "".join(f"syn n{i} n{(i + 1) % n}\n" for i in range(n))
    ring = struc_matrix(parse_system(text))
    assert row_rank(ring) == n - 1
    assert row_rank(digraph_struc(n, [(i, i + 1) for i in range(n - 1)])) == n
