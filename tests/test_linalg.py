from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfsmith.fields import GF, QQ
from hopfsmith.linalg import (AffineSystem, Mat, invert, kron, nullspace, rank,
                              solve_affine, spans_equal)


def qmat(rows):
    return Mat.from_rows(QQ, rows)


def test_solve_affine_identity_case():
    sol = solve_affine(AffineSystem(qmat([[1]]), [Fraction(0)]))
    assert sol.particular == [Fraction(0)]
    assert sol.nullspace.cols == 0


def test_solve_affine_underdetermined():
    a = qmat([[1, 1], [1, 1]])
    sol = solve_affine(AffineSystem(a, [Fraction(2), Fraction(2)]))
    assert a.matvec(sol.particular) == [Fraction(2), Fraction(2)]
    assert sol.nullspace.cols == 1
    v = sol.nullspace.column(0)
    # spans {[1, -1]}
    assert v[0] == -v[1] != 0
    # any combination still solves exactly
    shifted = [p + 7 * x for p, x in zip(sol.particular, v)]
    assert a.matvec(shifted) == [Fraction(2), Fraction(2)]


def test_solve_affine_infeasible():
    assert solve_affine(AffineSystem(qmat([[1], [0]]), [Fraction(0), Fraction(1)])) is None


def test_nullspace_examples():
    assert nullspace(Mat.identity(QQ, 3)).cols == 0
    assert nullspace(Mat.zeros(QQ, 2, 2)).cols == 2
    ns = nullspace(qmat([[1, 2], [2, 4]]))
    assert ns.cols == 1
    v = ns.column(0)
    assert spans_equal(QQ, [v], [[Fraction(2), Fraction(-1)]])


def test_invert_examples():
    assert invert(Mat.identity(QQ, 4)) == Mat.identity(QQ, 4)
    swap = qmat([[0, 1], [1, 0]])
    assert invert(swap) == swap
    up = qmat([[1, 1], [0, 1]])
    assert invert(up) == qmat([[1, -1], [0, 1]])
    assert invert(qmat([[1, 2], [2, 4]])) is None
    with pytest.raises(ValueError):
        invert(qmat([[1, 2]]))


def test_prime_field_solving():
    f = GF(3)
    a = Mat.from_rows(f, [[1, 2], [2, 2]])
    sol = solve_affine(AffineSystem(a, [1, 2]))
    assert sol is not None
    assert a.matvec(sol.particular) == [1, 2]
    inv = invert(a)
    assert inv is not None and a.mul(inv) == Mat.identity(f, 2)


def test_kron_shape_and_values():
    a = qmat([[1, 2]])
    b = qmat([[3], [5]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 2)
    assert k.data == [[3, 6], [5, 10]]


@st.composite
def small_qq_matrix(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = draw(st.lists(
        st.integers(-4, 4).map(Fraction), min_size=rows * cols, max_size=rows * cols))
    data = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
    return Mat(QQ, rows, cols, data)


@settings(max_examples=60, deadline=None)
@given(small_qq_matrix())
def test_rank_nullity(m):
    assert rank(m) + nullspace(m).cols == m.cols


@settings(max_examples=60, deadline=None)
@given(small_qq_matrix())
def test_nullspace_vectors_annihilate(m):
    ns = nullspace(m)
    for j in range(ns.cols):
        assert all(x == 0 for x in m.matvec(ns.column(j)))


@settings(max_examples=60, deadline=None)
@given(small_qq_matrix(), st.data())
def test_solve_affine_exactness(m, data):
    x = data.draw(st.lists(st.integers(-3, 3).map(Fraction),
                           min_size=m.cols, max_size=m.cols))
    b = m.matvec(x)
    sol = solve_affine(AffineSystem(m, b))
    assert sol is not None
    assert m.matvec(sol.particular) == b


@settings(max_examples=40, deadline=None)
@given(small_qq_matrix())
def test_invert_round_trip(m):
    if m.rows != m.cols:
        return
    inv = invert(m)
    if inv is not None:
        assert m.mul(inv) == Mat.identity(QQ, m.rows)
        assert inv.mul(m) == Mat.identity(QQ, m.rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30).map(lambda s: s))
def test_prime_field_rank_nullity(seed):
    import random
    rng = random.Random(seed)
    f = GF(5)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = Mat(f, rows, cols, [[rng.randrange(5) for _ in range(cols)] for _ in range(rows)])
    assert rank(m) + nullspace(m).cols == cols


# ---------------------------------------------------------------------------
# The sparse kernel against a dense Gauss-Jordan oracle
# ---------------------------------------------------------------------------

from hopfsmith.fields import FieldSpec
from hopfsmith.linalg import SparseMat, _rref


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


def _oracle_solve(m: Mat, rhs: list):
    n = m.cols
    rows = [row[:] + [b] for row, b in zip(m.data, rhs)]
    pivots = _dense_rref(rows, n + 1, m.field)
    if pivots and pivots[-1] == n:
        return None
    particular = [m.field.zero] * n
    for k, pc in enumerate(pivots):
        particular[pc] = rows[k][n]
    return particular, _oracle_kernel([r[:n] for r in rows], n, pivots, m.field)


def _oracle_invert(m: Mat):
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


def _sparse(m: Mat) -> list:
    return [[(j, x) for j, x in enumerate(row) if x] for row in m.data]


FIELDS = [QQ, GF(2), GF(3), GF(7)]


@st.composite
def field_matrix(draw, max_rows=6, max_cols=6, square=False):
    """A matrix with many zeros over Q or F_p for p in {2, 3, 7}."""
    f = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_rows))
    cols = rows if square else draw(st.integers(0, max_cols))
    if f.characteristic:
        scalar = st.integers(0, f.characteristic - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    entry = st.one_of(st.just(f.zero), st.just(f.zero), scalar)
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return Mat(f, rows, cols, data)


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
    for system in (AffineSystem(m, rhs), AffineSystem(SparseMat(f, m.rows, m.cols, _sparse(m)), rhs)):
        got = solve_affine(system)
        if want is None:
            assert got is None
        else:
            assert got.particular == want[0]
            assert got.nullspace.columns() == want[1]
            assert (got.nullspace.rows, got.nullspace.cols) == (m.cols, len(want[1]))


@settings(max_examples=200, deadline=None)
@given(field_matrix())
def test_nullspace_and_rank_equal_dense_oracle(m):
    dense = [row[:] for row in m.data]
    pivots = _dense_rref(dense, m.cols, m.field)
    kernel = _oracle_kernel(dense, m.cols, pivots, m.field)
    sparse = SparseMat(m.field, m.rows, m.cols, _sparse(m))
    for mat in (m, sparse):
        ns = nullspace(mat)
        assert ns.columns() == kernel
        assert (ns.rows, ns.cols) == (m.cols, len(kernel))
        assert rank(mat) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(field_matrix(max_rows=5, square=True))
def test_invert_equals_dense_oracle(m):
    want = _oracle_invert(m)
    got = invert(m)
    if want is None:
        assert got is None
    else:
        assert got.data == want


@pytest.mark.parametrize("f", FIELDS)
def test_kernel_edge_cases(f):
    one, two = f.one, f.from_int(2)
    # zero rows among nonzero ones, and a repeated row
    m = Mat(f, 4, 3, [[f.zero] * 3, [one, two, f.zero], [f.zero] * 3, [one, two, f.zero]])
    sol = solve_affine(AffineSystem(m, [f.zero, one, f.zero, one]))
    assert (sol.particular, sol.nullspace.columns()) == _oracle_solve(m, [f.zero, one, f.zero, one])
    # an empty row with a nonzero right-hand side is 0 = 1
    sparse = SparseMat(f, 2, 3, [[(0, one)], []])
    assert solve_affine(AffineSystem(sparse, [one, one])) is None
    assert solve_affine(AffineSystem(Mat.zeros(f, 2, 3), [f.zero, one])) is None
    # all-zero matrix: every vector is in the kernel
    zero = Mat.zeros(f, 3, 4)
    assert rank(zero) == 0
    assert nullspace(zero) == Mat.identity(f, 4)
    sol = solve_affine(AffineSystem(zero, [f.zero] * 3))
    assert sol.particular == [f.zero] * 4 and sol.nullspace == Mat.identity(f, 4)
    # a 0-row system
    for mat in (Mat(f, 0, 3, []), SparseMat(f, 0, 3, [])):
        sol = solve_affine(AffineSystem(mat, []))
        assert sol.particular == [f.zero] * 3 and sol.nullspace == Mat.identity(f, 3)
        assert rank(mat) == 0
    # coefficients that cancel to zero during assembly are dropped
    rows = [{0: f.sub(one, one), 1: one}, {0: f.add(one, f.neg(one)), 2: f.sub(two, two)}]
    system = AffineSystem.sparse(f, rows, [one, f.zero], 3)
    assert system.matrix.data == [[(1, one)], []]
    sol = solve_affine(system)
    dense = Mat(f, 2, 3, [[f.zero, one, f.zero], [f.zero] * 3])
    assert (sol.particular, sol.nullspace.columns()) == _oracle_solve(dense, [one, f.zero])


def _dense_relations(ext):
    """The relation rows of R (x)_S R, assembled densely as the seed did."""
    r = ext.big
    f = r.field
    nr = r.dim
    amb = nr * nr
    relations = []
    for s in ext.embedding.columns():
        left = [r.mul([f.one if t == i else f.zero for t in range(nr)], s) for i in range(nr)]
        right = [r.mul(s, [f.one if t == j else f.zero for t in range(nr)]) for j in range(nr)]
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
        assert rel.project(unit) == [w[k] for k in rel.free_cols]
