from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from hopfsmith.fields import GF, QQ
from hopfsmith.hopf import SubspaceBasis
from hopfsmith.linalg import (AffineSystem, SparseMat, identity, invert, least_failure,
                              nullspace, rank, solve_affine, spans_equal)

from test_loop_oracles import _columns, _eye, _matmul, _matvec, _nullspace, _vec, _vectors, dense


class Solution(NamedTuple):
    particular: list  # the solution with every free variable 0
    nullspace: list   # the basis vectors of the homogeneous solutions


def _solve(sys: AffineSystem):
    """``solve_affine(sys)``, the particular solution, with ``nullspace(sys.matrix)``,
    both as coordinate lists."""
    sol = solve_affine(sys)
    if sol is None:
        return None
    f = sys.matrix.field
    return Solution(dense(f, sol, sys.shape),
                    _vectors(f, SubspaceBasis(sys.unknowns, nullspace(sys.matrix))))


@dataclass
class Dense:
    """A dense test matrix, ``data[i][j]`` row i and column j, the reference form
    the sparse solvers are checked against."""

    field: object
    rows: int
    cols: int
    data: list

    def sparse(self) -> SparseMat:
        return SparseMat(self.field, self.rows, self.cols, _sparse(self))

    def matvec(self, v: list) -> list:
        return _matvec(self.field, self.data, v)


def _from_rows(f, rows):
    return Dense(f, len(rows), len(rows[0]), [[f.from_int(x) for x in row] for row in rows])


def qmat(rows):
    return _from_rows(QQ, rows)


def test_solve_affine_identity_case():
    sol = _solve(AffineSystem(qmat([[1]]).sparse(), [Fraction(0)]))
    assert sol.particular == [Fraction(0)]
    assert sol.nullspace == []


def test_solve_affine_underdetermined():
    a = qmat([[1, 1], [1, 1]])
    sol = _solve(AffineSystem(a.sparse(), [Fraction(2), Fraction(2)]))
    assert a.matvec(sol.particular) == [Fraction(2), Fraction(2)]
    assert len(sol.nullspace) == 1
    v = sol.nullspace[0]
    # spans {[1, -1]}
    assert v[0] == -v[1] != 0
    # any combination still solves exactly
    shifted = [p + 7 * x for p, x in zip(sol.particular, v)]
    assert a.matvec(shifted) == [Fraction(2), Fraction(2)]


def test_solve_affine_infeasible():
    assert _solve(AffineSystem(qmat([[1], [0]]).sparse(),
                                     [Fraction(0), Fraction(1)])) is None


def test_nullspace_examples():
    assert _nullspace(Dense(QQ, 3, 3, _eye(QQ, 3)).sparse()) == []
    assert len(_nullspace(qmat([[0, 0], [0, 0]]).sparse())) == 2
    ns = _nullspace(qmat([[1, 2], [2, 4]]).sparse())
    assert len(ns) == 1
    assert spans_equal(QQ, _columns(ns), _columns([[Fraction(2), Fraction(-1)]]), 2)


def test_invert_examples():
    assert invert(Dense(QQ, 4, 4, _eye(QQ, 4)).sparse()) == identity(QQ, 4)
    assert invert(qmat([[0, 1], [1, 0]]).sparse()) == {(0, 1): 1, (1, 0): 1}
    assert dense(QQ, invert(qmat([[1, 1], [0, 1]]).sparse()), (2, 2)) == [[1, -1], [0, 1]]
    assert invert(qmat([[1, 2], [2, 4]]).sparse()) is None
    with pytest.raises(ValueError):
        invert(qmat([[1, 2]]).sparse())


def test_prime_field_solving():
    f = GF(3)
    a = _from_rows(f, [[1, 2], [2, 2]])
    sol = _solve(AffineSystem(a.sparse(), [1, 2]))
    assert sol is not None
    assert a.matvec(sol.particular) == [1, 2]
    inv = invert(a.sparse())
    assert inv is not None and _matmul(f, a.data, dense(f, inv, (2, 2))) == _eye(f, 2)


@st.composite
def small_qq_matrix(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = draw(st.lists(
        st.integers(-4, 4).map(Fraction), min_size=rows * cols, max_size=rows * cols))
    data = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
    return Dense(QQ, rows, cols, data)


@settings(max_examples=60, deadline=None)
@given(small_qq_matrix())
def test_rank_nullity(m):
    assert rank(m.sparse()) + len(_nullspace(m.sparse())) == m.cols


@settings(max_examples=60, deadline=None)
@given(small_qq_matrix())
def test_nullspace_vectors_annihilate(m):
    for v in _nullspace(m.sparse()):
        assert all(x == 0 for x in m.matvec(v))


@settings(max_examples=60, deadline=None)
@given(small_qq_matrix(), st.data())
def test_solve_affine_exactness(m, data):
    x = data.draw(st.lists(st.integers(-3, 3).map(Fraction),
                           min_size=m.cols, max_size=m.cols))
    b = m.matvec(x)
    sol = _solve(AffineSystem(m.sparse(), b))
    assert sol is not None
    assert m.matvec(sol.particular) == b


@settings(max_examples=40, deadline=None)
@given(small_qq_matrix())
def test_invert_round_trip(m):
    if m.rows != m.cols:
        return
    inv = invert(m.sparse())
    if inv is not None:
        inv = dense(QQ, inv, (m.rows, m.rows))
        assert _matmul(QQ, m.data, inv) == _eye(QQ, m.rows)
        assert _matmul(QQ, inv, m.data) == _eye(QQ, m.rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30).map(lambda s: s))
def test_prime_field_rank_nullity(seed):
    import random
    rng = random.Random(seed)
    f = GF(5)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = Dense(f, rows, cols, [[rng.randrange(5) for _ in range(cols)] for _ in range(rows)])
    assert rank(m.sparse()) + len(_nullspace(m.sparse())) == cols


# ---------------------------------------------------------------------------
# The sparse kernel against a dense Gauss-Jordan oracle
# ---------------------------------------------------------------------------

from hopfsmith.fields import FieldSpec
from hopfsmith.linalg import _rref
from test_loop_oracles import dense as linalg_dense, failed_labels


def _dense_rref(rows: list, ncols: int, field: FieldSpec):
    """In-place reduced row echelon form; returns the pivot column list."""
    p = field.characteristic
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        lead = prow[c]
        if p == 0:
            if lead != 1:
                inv = 1 / lead
                for j in range(c, ncols):
                    if prow[j]:
                        prow[j] *= inv
            nz = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
            for i in range(nrows):
                if i == r:
                    continue
                f = rows[i][c]
                if f:
                    rowi = rows[i]
                    for j, pv in nz:
                        rowi[j] -= f * pv
        else:
            if lead != 1:
                inv = pow(lead, p - 2, p)
                for j in range(c, ncols):
                    if prow[j]:
                        prow[j] = prow[j] * inv % p
            nz = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
            for i in range(nrows):
                if i == r:
                    continue
                f = rows[i][c]
                if f:
                    rowi = rows[i]
                    for j, pv in nz:
                        rowi[j] = (rowi[j] - f * pv) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _oracle_kernel(rows, ncols, pivots, field):
    """Free-variable nullspace basis read off dense reduced rows (columns as lists)."""
    free = [c for c in range(ncols) if c not in set(pivots)]
    cols = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for k, pc in enumerate(pivots):
            v[pc] = field.neg(rows[k][fc])
        cols.append(v)
    return cols


def _oracle_solve(m: Dense, rhs: list):
    n = m.cols
    rows = [row[:] + [b] for row, b in zip(m.data, rhs)]
    pivots = _dense_rref(rows, n + 1, m.field)
    if pivots and pivots[-1] == n:
        return None
    particular = [m.field.zero] * n
    for k, pc in enumerate(pivots):
        particular[pc] = rows[k][n]
    return particular, _oracle_kernel([r[:n] for r in rows], n, pivots, m.field)


def _oracle_invert(m: Dense):
    f, n = m.field, m.rows
    rows = [m.data[i][:] + [f.one if j == i else f.zero for j in range(n)] for i in range(n)]
    pivots = _dense_rref(rows, 2 * n, f)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


def _densify(row, ncols, field):
    out = [field.zero] * ncols
    for j, x in row:
        out[j] = x
    return out


def _sparse(m: Dense) -> list:
    return [[(j, x) for j, x in enumerate(row) if x] for row in m.data]


FIELDS = [QQ, GF(2), GF(3), GF(7)]


@st.composite
def field_matrix(draw, max_rows=6, max_cols=6, square=False, q_scalar=None):
    """A matrix with many zeros over Q or F_p for p in {2, 3, 7}; over Q with
    entries from ``q_scalar`` when given."""
    f = QQ if q_scalar is not None else draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_rows))
    cols = rows if square else draw(st.integers(0, max_cols))
    if f.characteristic:
        scalar = st.integers(0, f.characteristic - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])) \
            if q_scalar is None else q_scalar
    entry = st.one_of(st.just(f.zero), st.just(f.zero), scalar)
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return Dense(f, rows, cols, data)


def _assert_reduced_sparse_rows(rows, pivots, ncols, field):
    for k, row in enumerate(rows):
        if k >= len(pivots):
            assert row == []
            continue
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < ncols for j in cols)
        assert all(x for _, x in row)
        assert row[0] == (pivots[k], field.one)


@settings(max_examples=200, deadline=None)
@given(field_matrix())
def test_sparse_rref_equals_dense_oracle(m):
    dense = [row[:] for row in m.data]
    want = _dense_rref(dense, m.cols, m.field)
    rows = _sparse(m)
    inputs = [row[:] for row in rows]
    got = _rref(rows, m.cols, m.field)
    assert got == want
    assert [_densify(r, m.cols, m.field) for r in rows] == dense
    _assert_reduced_sparse_rows(rows, got, m.cols, m.field)
    assert _sparse(m) == inputs  # the caller's rows are replaced, never modified


@st.composite
def fill_heavy_system(draw, q_scalar=None):
    """(field, ncols, sparse rows) up to 40 x 40 over Q or F_p, p in {2, 3, 7}
    (over Q with scalars from ``q_scalar`` when given).

    Each row is a few fresh entries right of a leading column plus a
    combination of up to three earlier rows, so back-elimination both fills
    pivot rows in and cancels their entries to zero; sorting the rows by
    descending leading column makes most new pivots land left of the old ones.
    """
    f = QQ if q_scalar is not None else draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 40))
    if f.characteristic:
        scalar = st.integers(1, f.characteristic - 1)
    else:
        scalar = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]) \
            if q_scalar is None else q_scalar
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        lead = draw(st.integers(0, ncols - 1))
        row = {j: draw(scalar) for j in draw(st.lists(st.integers(lead, ncols - 1), max_size=3))}
        for src in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)) if rows else []:
            c = draw(scalar)
            for j, x in rows[src].items():
                row[j] = f.add(row.get(j, f.zero), f.mul(c, x))
        rows.append({j: x for j, x in row.items() if x})
    if draw(st.booleans()):
        rows.sort(key=lambda r: -min(r, default=ncols))
    return f, ncols, [sorted(r.items()) for r in rows]


@settings(max_examples=150, deadline=None)
@given(fill_heavy_system())
def test_sparse_rref_equals_dense_oracle_on_fill_heavy_systems(case):
    f, ncols, rows = case
    dense = [_densify(r, ncols, f) for r in rows]
    want = _dense_rref(dense, ncols, f)
    inputs = [row[:] for row in rows]
    given_rows = list(rows)
    got = _rref(rows, ncols, f)
    assert got == want
    assert [_densify(r, ncols, f) for r in rows] == dense
    _assert_reduced_sparse_rows(rows, got, ncols, f)
    assert given_rows == inputs  # the caller's row lists are replaced, never modified


@settings(max_examples=200, deadline=None)
@given(field_matrix(), st.data())
def test_solve_affine_equals_dense_oracle(m, data):
    f = m.field
    if data.draw(st.booleans()):  # feasible by construction
        x = [data.draw(st.sampled_from([f.zero, f.one, f.from_int(2)])) for _ in range(m.cols)]
        rhs = m.matvec(x)
    else:
        rhs = [data.draw(st.sampled_from([f.zero, f.one])) for _ in range(m.rows)]
    want = _oracle_solve(m, rhs)
    got = _solve(AffineSystem(m.sparse(), rhs))
    if want is None:
        assert got is None
    else:
        assert got.particular == want[0]
        assert got.nullspace == want[1]
        assert all(len(v) == m.cols for v in got.nullspace)


@settings(max_examples=200, deadline=None)
@given(field_matrix())
def test_nullspace_and_rank_equal_dense_oracle(m):
    dense = [row[:] for row in m.data]
    pivots = _dense_rref(dense, m.cols, m.field)
    kernel = _oracle_kernel(dense, m.cols, pivots, m.field)
    ns = _nullspace(m.sparse())
    assert ns == kernel
    assert all(len(v) == m.cols for v in ns)
    assert rank(m.sparse()) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(field_matrix(max_rows=5, square=True))
def test_invert_equals_dense_oracle(m):
    want = _oracle_invert(m)
    got = invert(m.sparse())
    if want is None:
        assert got is None
    else:
        assert linalg_dense(m.field, got, (m.rows, m.rows)) == want


from test_contract import BIG_Q, canonical


@settings(max_examples=150, deadline=None)
@given(field_matrix(q_scalar=BIG_Q))
def test_sparse_rref_with_denominators_equals_dense_oracle(m):
    dense = [row[:] for row in m.data]
    want = _dense_rref(dense, m.cols, QQ)
    rows = _sparse(m)
    assert _rref(rows, m.cols, QQ) == want
    assert [_densify(r, m.cols, QQ) for r in rows] == dense
    _assert_reduced_sparse_rows(rows, want, m.cols, QQ)
    assert canonical(x for row in rows for _, x in row)


@settings(max_examples=100, deadline=None)
@given(fill_heavy_system(q_scalar=BIG_Q.filter(bool)))
def test_sparse_rref_with_denominators_on_fill_heavy_systems(case):
    f, ncols, rows = case
    dense = [_densify(r, ncols, f) for r in rows]
    want = _dense_rref(dense, ncols, f)
    assert _rref(rows, ncols, f) == want
    assert [_densify(r, ncols, f) for r in rows] == dense
    assert canonical(x for row in rows for _, x in row)


@settings(max_examples=150, deadline=None)
@given(field_matrix(q_scalar=BIG_Q), st.data())
def test_solve_affine_with_denominators_equals_dense_oracle(m, data):
    if data.draw(st.booleans()):  # feasible by construction
        rhs = m.matvec(data.draw(st.lists(BIG_Q, min_size=m.cols, max_size=m.cols)))
    else:
        rhs = data.draw(st.lists(BIG_Q, min_size=m.rows, max_size=m.rows))
    want = _oracle_solve(m, rhs)
    got = _solve(AffineSystem(m.sparse(), rhs))
    if want is None:
        assert got is None
    else:
        assert (got.particular, got.nullspace) == want
        assert canonical(got.particular)
        assert canonical(x for col in got.nullspace for x in col)


@settings(max_examples=150, deadline=None)
@given(field_matrix(max_rows=5, square=True, q_scalar=BIG_Q))
def test_invert_with_denominators_equals_dense_oracle(m):
    want = _oracle_invert(m)
    got = invert(m.sparse())
    if want is None:
        assert got is None
    else:
        assert linalg_dense(QQ, got, (m.rows, m.rows)) == want
        assert canonical(got.values())


def _row_value(f, row, x):
    acc = f.zero
    for a, v in zip(row, x):
        acc = f.add(acc, f.mul(a, v))
    return acc


@settings(max_examples=150, deadline=None)
@given(st.one_of(field_matrix(max_rows=8), field_matrix(max_rows=8, q_scalar=BIG_Q))
       .filter(lambda m: m.rows), st.data())
def test_failed_labels_equals_row_by_row_evaluation(m, data):
    """The sparse row evaluator that condition checks are tested against equals
    a dense evaluation: rows labelled from a few names, x drawn at random, and
    some right-hand sides moved off their row's value, so at least one row is
    violated."""
    f = m.field
    scalar = st.integers(0, f.characteristic - 1) if f.characteristic else BIG_Q
    x = data.draw(st.lists(scalar, min_size=m.cols, max_size=m.cols))
    rhs = m.matvec(x)
    for i in data.draw(st.sets(st.integers(0, m.rows - 1), min_size=1)):
        rhs[i] = f.add(rhs[i], f.one if f.characteristic else Fraction(1, 7))
    labels = [data.draw(st.sampled_from("abc")) for _ in range(m.rows)]
    want = list(dict.fromkeys(label for row, b, label in zip(m.data, rhs, labels)
                              if _row_value(f, row, x) != b))
    assert want
    assert failed_labels(AffineSystem(m.sparse(), rhs, labels=labels), _vec(x)) == want


def test_an_unlabelled_system_names_its_failing_rows():
    """Built without labels, a system labels each row by its index, so the rows
    that a candidate violates are named by their indices."""
    sys = AffineSystem(SparseMat(QQ, 2, 2, [[(0, Fraction(1))], [(1, Fraction(1, 2))]]),
                       [Fraction(1), Fraction(3)])
    assert list(dict.fromkeys(sys.labels)) == [0, 1]
    assert failed_labels(sys, _vec([Fraction(1), Fraction(6)])) == []
    assert failed_labels(sys, _vec([Fraction(1), Fraction(0)])) == [1]
    assert failed_labels(sys, _vec([Fraction(0), Fraction(0)])) == [0, 1]
    assert failed_labels(AffineSystem(SparseMat(GF(3), 1, 1, [[(0, 2)]]), [1]), _vec([1])) == [0]


@pytest.mark.parametrize("f", FIELDS)
def test_kernel_edge_cases(f):
    one, two = f.one, f.from_int(2)
    # zero rows among nonzero ones, and a repeated row
    m = Dense(f, 4, 3, [[f.zero] * 3, [one, two, f.zero], [f.zero] * 3, [one, two, f.zero]])
    sol = _solve(AffineSystem(m.sparse(), [f.zero, one, f.zero, one]))
    assert (sol.particular, sol.nullspace) == _oracle_solve(m, [f.zero, one, f.zero, one])
    # an empty row with a nonzero right-hand side is 0 = 1
    sparse = SparseMat(f, 2, 3, [[(0, one)], []])
    assert _solve(AffineSystem(sparse, [one, one])) is None
    assert _solve(AffineSystem(SparseMat(f, 2, 3, [[], []]), [f.zero, one])) is None
    # all-zero matrix: every vector is in the kernel
    zero = SparseMat(f, 3, 4, [[], [], []])
    assert rank(zero) == 0
    assert _nullspace(zero) == _eye(f, 4)
    sol = _solve(AffineSystem(zero, [f.zero] * 3))
    assert sol.particular == [f.zero] * 4 and sol.nullspace == _eye(f, 4)
    # a 0-row system
    mat = SparseMat(f, 0, 3, [])
    sol = _solve(AffineSystem(mat, []))
    assert sol.particular == [f.zero] * 3 and sol.nullspace == _eye(f, 3)
    assert rank(mat) == 0


from test_loop_oracles import _mul


def _dense_relations(ext):
    """The relation rows of R (x)_S R, assembled densely as the seed did."""
    r = ext.big
    f = r.field
    nr = r.dim
    amb = nr * nr
    mult = linalg_dense(f, r.mult, (nr, nr, nr))
    relations = []
    columns = {(j, x): v for (x, j), v in ext.embedding.items()}
    for s in linalg_dense(f, columns, (ext.small.dim, nr)):
        left = [_mul(f, mult, [f.one if t == i else f.zero for t in range(nr)], s)
                for i in range(nr)]
        right = [_mul(f, mult, s, [f.one if t == j else f.zero for t in range(nr)])
                 for j in range(nr)]
        for i in range(nr):
            for j in range(nr):
                vec = [f.zero] * amb
                for k, x in enumerate(left[i]):
                    if x:
                        vec[k * nr + j] = f.add(vec[k * nr + j], x)
                for k, x in enumerate(right[j]):
                    if x:
                        vec[i * nr + k] = f.sub(vec[i * nr + k], x)
                if any(vec):
                    relations.append(vec)
    return relations, amb


@pytest.mark.parametrize("spec, char", [("sweedler", 0), ("group:C2", 2)])
def test_relative_tensor_matches_dense_oracle(spec, char):
    from hopfsmith import resolve_preset
    from hopfsmith.doubles import drinfeld_double, relative_tensor
    h = resolve_preset(spec, FieldSpec(char))
    _, ext = drinfeld_double(h)
    rel = relative_tensor(ext)
    relations, amb = _dense_relations(ext)
    pivots = _dense_rref(relations, amb, h.field)
    assert rel.pivot_cols == pivots
    assert [_densify(row, amb, h.field) for row in rel.projection_rows] == relations[:len(pivots)]
    assert rel.free_cols == [c for c in range(amb) if c not in set(pivots)]
    f = h.field
    for j in range(amb):  # each basis vector projects as the dense reduction does
        unit = [f.one if k == j else f.zero for k in range(amb)]
        w = unit[:]
        for row, p in zip(relations, pivots):
            c = w[p]
            if c:
                for k, rv in enumerate(row):
                    if rv:
                        w[k] = f.sub(w[k], f.mul(c, rv))
        assert [rel.projection.get((j, k), f.zero) for k in range(rel.dim)] == \
            [w[k] for k in rel.free_cols]


# ---------------------------------------------------------------------------
# span_contains_span: one rank comparison against the vector-by-vector test
# ---------------------------------------------------------------------------

from hopfsmith.linalg import span_contains_span

from test_loop_oracles import in_span


def _contains(f, big: list, small: list) -> bool:
    """``span_contains_span`` on lists of coordinate lists."""
    n = len((big + small)[0]) if big + small else 0
    return span_contains_span(f, _columns(big), _columns(small), n)


@st.composite
def span_pair(draw):
    """(field, big, small): small mixes zero vectors, combinations of big and
    free draws, so both verdicts and dependent inputs occur."""
    f = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    n = draw(st.integers(1, 5))
    if f.characteristic:
        scalar = st.integers(0, f.characteristic - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
    entry = st.one_of(st.just(f.zero), scalar)
    vec = st.lists(entry, min_size=n, max_size=n)
    big = draw(st.lists(vec, max_size=4))
    small = []
    for kind in draw(st.lists(st.sampled_from(["zero", "combo", "free"]), max_size=4)):
        if kind == "zero":
            small.append([f.zero] * n)
        elif kind == "combo":
            v = [f.zero] * n
            for b in big:
                c = draw(scalar)
                v = [f.add(x, f.mul(c, y)) for x, y in zip(v, b)]
            small.append(v)
        else:
            small.append(draw(vec))
    return f, big, small


@settings(max_examples=200, deadline=None)
@given(span_pair())
def test_span_contains_span_equals_vectorwise_in_span(case):
    f, big, small = case
    assert _contains(f, big, small) == all(in_span(f, big, v) for v in small)


def test_span_contains_span_edge_cases():
    f = GF(2)
    assert _contains(f, [], [])
    assert _contains(f, [], [[0, 0]])
    assert not _contains(f, [], [[0, 1]])
    assert _contains(f, [[1, 1], [1, 1]], [[0, 0], [1, 1]])
    assert not _contains(f, [[1, 1], [1, 1]], [[1, 0]])


def test_least_failure_names_the_least_failing_prefix_and_there_the_first_law():
    a = {(0, 1): 1, (2, 0): 1}
    assert least_failure(1, ("x", a, dict(a)), ("y", {}, {})) is None
    # x fails at (2,) and (3,), y at (1,): the least prefix is y's
    assert least_failure(1, ("x", a, {(0, 1): 1, (3, 0): 1}), ("y", {(1, 0): 2}, {})) == \
        ((1,), "y")
    # both fail at (0,): the first law in order is named there
    assert least_failure(1, ("x", {(0, 0): 1}, {}), ("y", {(0, 5): 1}, {})) == ((0,), "x")
    # a changed value fails as a missing entry does, at the prefix of the given width
    assert least_failure(2, ("x", {(0, 1, 2): 1}, {(0, 1, 2): 2})) == ((0, 1), "x")
