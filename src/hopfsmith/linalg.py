"""Sparse exact linear algebra over Q and F_p.

Linear systems are stored as sparse rows: a row is a list of
``(column, coefficient)`` pairs that holds only the nonzero coefficients of
that row, each column at most once.  Systems built from structure-constant
identities are overwhelmingly zero, so rows never carry their zeros.

Every elimination goes through one sparse Gauss-Jordan kernel, :func:`_rref`.
It keeps the pivot rows fully reduced as the rows arrive, so each incoming
row is reduced in a single pass.  The result is the reduced row echelon form,
which depends only on the row space and not on the row order or on how the
rows were assembled.  The particular solution (free variables set to 0) and
the nullspace basis read off it are therefore canonical, and so is every
certificate built from them.  Over F_p the kernel works on raw ints and
reduces mod p once per entry per pass; over Q it uses ``Fraction``.

:class:`Mat` stays dense: it represents linear maps and small matrices, and
the solvers take either a dense ``Mat`` or a :class:`SparseMat`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .fields import FieldSpec, Scalar


@dataclass
class Mat:
    """Dense matrix over an exact field; ``data[i][j]`` is row i, column j."""

    field: FieldSpec
    rows: int
    cols: int
    data: list  # list of row lists

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("matrix data shape mismatch")

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_rows(cls, field: FieldSpec, rows: list) -> "Mat":
        data = [[field.parse(x) if isinstance(x, str) else _coerce(field, x) for x in r] for r in rows]
        ncols = len(data[0]) if data else 0
        return cls(field, len(data), ncols, data)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Mat":
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_columns(cls, field: FieldSpec, columns: list) -> "Mat":
        if not columns:
            return cls(field, 0, 0, [])
        nrows = len(columns[0])
        data = [[columns[j][i] for j in range(len(columns))] for i in range(nrows)]
        return cls(field, nrows, len(columns), data)

    # -- basic operations ------------------------------------------------------
    def column(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def matvec(self, v: list) -> list:
        if len(v) != self.cols:
            raise ValueError("matvec dimension mismatch")
        f = self.field
        out = []
        for row in self.data:
            acc = f.zero
            for a, x in zip(row, v):
                if a and x:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return out

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("matmul dimension mismatch")
        f = self.field
        out = Mat.zeros(f, self.rows, other.cols)
        for i in range(self.rows):
            rowi = self.data[i]
            acc = out.data[i]
            for k in range(self.cols):
                a = rowi[k]
                if not a:
                    continue
                rowk = other.data[k]
                for j in range(other.cols):
                    b = rowk[j]
                    if b:
                        acc[j] = f.add(acc[j], f.mul(a, b))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def copy(self) -> "Mat":
        return Mat(self.field, self.rows, self.cols, [row[:] for row in self.data])


def _coerce(field: FieldSpec, x) -> Scalar:
    if isinstance(x, int):
        return field.from_int(x)
    return x


@dataclass
class SparseMat:
    """Matrix stored as sparse rows: ``data[i]`` lists the ``(column, coefficient)``
    pairs of the nonzero entries of row i."""

    field: FieldSpec
    rows: int
    cols: int
    data: list

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ValueError("matrix data shape mismatch")


def _sparse_rows(m) -> list:
    """The sparse rows of a ``SparseMat`` or a dense ``Mat``."""
    if isinstance(m, SparseMat):
        return m.data
    return [[(j, x) for j, x in enumerate(row) if x] for row in m.data]


@dataclass
class AffineSystem:
    """A · x = b with ``unknowns`` columns; A is a dense ``Mat`` or a ``SparseMat``."""

    matrix: object
    rhs: list
    unknowns: int = dc_field(default=-1)

    def __post_init__(self):
        if self.unknowns < 0:
            self.unknowns = self.matrix.cols
        if self.matrix.cols != self.unknowns:
            raise ValueError("coefficient matrix width differs from unknown count")
        if len(self.rhs) != self.matrix.rows:
            raise ValueError("right-hand side length differs from row count")

    @classmethod
    def sparse(cls, field: FieldSpec, rows: list, rhs: list, unknowns: int) -> "AffineSystem":
        """A system from rows given as ``{column: coefficient}`` dicts; zero
        coefficients (say, ones that cancelled during assembly) are dropped."""
        data = [[(j, x) for j, x in row.items() if x] for row in rows]
        return cls(SparseMat(field, len(data), unknowns, data), rhs)


@dataclass
class AffineSolution:
    particular: list
    nullspace: Mat  # columns span the homogeneous solution space


def _rref(rows: list, ncols: int, field: FieldSpec) -> list:
    """Sparse Gauss-Jordan elimination in place; returns the pivot column list.

    ``rows`` is a list of sparse rows over ``ncols`` columns.  On return,
    ``rows[k]`` is the reduced row with pivot ``pivots[k]``, as pairs sorted by
    column with the leading coefficient 1, and the remaining rows are empty.
    The row lists passed in are replaced, never modified.
    """
    p = field.characteristic
    one = field.one
    piv = {}  # pivot column -> the rest of its reduced row, {column: coefficient}
    for row in rows:
        if len(piv) == ncols:
            break
        r = dict(row)
        hits = [c for c in r if c in piv]
        if hits:
            # Pivot rows are zero in every other pivot column, so subtracting
            # them leaves the coefficients of the remaining hits unchanged.
            get = r.get
            for c in hits:
                a = r.pop(c)
                for j, v in piv[c].items():
                    r[j] = get(j, 0) - a * v
            r = {j: w for j, v in r.items() if (w := v % p)} if p else \
                {j: v for j, v in r.items() if v}
        if not r:
            continue
        c = min(r)
        lead = r.pop(c)
        if lead != 1:
            inv = pow(lead, p - 2, p) if p else one / lead
            r = {j: v * inv % p for j, v in r.items()} if p else \
                {j: v * inv for j, v in r.items()}
        for other in piv.values():
            a = other.pop(c, 0)
            if not a:
                continue
            get = other.get
            for j, v in r.items():
                w = (get(j, 0) - a * v) % p if p else get(j, 0) - a * v
                if w:
                    other[j] = w
                else:
                    del other[j]
        piv[c] = r
    pivots = sorted(piv)
    reduced = [[(c, one), *sorted(piv[c].items())] for c in pivots]
    rows[:] = reduced + [[] for _ in range(len(rows) - len(reduced))]
    return pivots


def _kernel_basis(rows: list, pivots: list, n: int, field: FieldSpec) -> Mat:
    """Nullspace basis of the first ``n`` columns of reduced rows: one column per
    free variable, set to 1, with the other free variables 0."""
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    where = {c: t for t, c in enumerate(free)}
    zero, one = field.zero, field.one
    data = [[zero] * len(free) for _ in range(n)]
    for c, t in where.items():
        data[c][t] = one
    for pc, row in zip(pivots, rows):
        out = data[pc]
        for j, a in row[1:]:
            if j < n:
                out[where[j]] = field.neg(a)
    return Mat(field, n, len(free), data)


def solve_affine(sys: AffineSystem) -> Optional[AffineSolution]:
    """One particular solution plus a nullspace basis, or None if infeasible."""
    f = sys.matrix.field
    n = sys.unknowns
    rows = [[*row, (n, b)] if b else row
            for row, b in zip(_sparse_rows(sys.matrix), sys.rhs)]
    pivots = _rref(rows, n + 1, f)
    if pivots and pivots[-1] == n:  # pivot in the augmented column: 0 = 1
        return None
    particular = [f.zero] * n
    for pc, row in zip(pivots, rows):
        last, b = row[-1]
        if last == n:
            particular[pc] = b
    return AffineSolution(particular, _kernel_basis(rows, pivots, n, f))


def nullspace(m) -> Mat:
    """Matrix whose columns form a basis of ker(m), for a ``Mat`` or ``SparseMat``."""
    rows = _sparse_rows(m)[:]
    pivots = _rref(rows, m.cols, m.field)
    return _kernel_basis(rows, pivots, m.cols, m.field)


def rank(m) -> int:
    return len(_rref(_sparse_rows(m)[:], m.cols, m.field))


def invert(m: Mat) -> Optional[Mat]:
    """Inverse matrix, or None when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    f = m.field
    n = m.rows
    one = f.one
    rows = [[*row, (n + i, one)] for i, row in enumerate(_sparse_rows(m))]
    pivots = _rref(rows, 2 * n, f)
    if pivots[:n] != list(range(n)):
        return None
    data = [[f.zero] * n for _ in range(n)]
    for i, row in enumerate(rows[:n]):
        out = data[i]
        for j, a in row[1:]:
            out[j - n] = a
    return Mat(f, n, n, data)


def span_coordinates(field: FieldSpec, basis_vecs: list, v: list) -> Optional[list]:
    """Coefficients c with sum_j c_j basis_vecs[j] = v, or None if v is outside the span.

    The system has one sparse row per coordinate of v; the free-variable-zero
    solution is returned, so for independent vectors it is the unique one.
    """
    rows = [[(j, b[i]) for j, b in enumerate(basis_vecs) if b[i]] for i in range(len(v))]
    sol = solve_affine(AffineSystem(SparseMat(field, len(rows), len(basis_vecs), rows), v))
    return None if sol is None else sol.particular


def in_span(field: FieldSpec, basis_vecs: list, v: list) -> bool:
    """Whether v lies in the span of basis_vecs."""
    if not any(v):
        return True
    if not basis_vecs:
        return False
    return span_coordinates(field, basis_vecs, v) is not None


def span_contains_span(field: FieldSpec, big: list, small: list) -> bool:
    return all(in_span(field, big, v) for v in small)


def spans_equal(field: FieldSpec, a: list, b: list) -> bool:
    return span_contains_span(field, a, b) and span_contains_span(field, b, a)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; index (i,k) of the factors maps to i*b.rows + k."""
    f = a.field
    out = Mat.zeros(f, a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.data[i][j]
            if not x:
                continue
            for k in range(b.rows):
                brow = b.data[k]
                orow = out.data[i * b.rows + k]
                for l in range(b.cols):
                    y = brow[l]
                    if y:
                        orow[j * b.cols + l] = f.mul(x, y)
    return out
