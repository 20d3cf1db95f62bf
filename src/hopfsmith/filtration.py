"""Jacobson radicals, coradicals, wedge products and coradical filtrations.

The radical is computed by the trace form over Q and by the p-th-power trace
chain (integer lifts, divided traces) over F_p, then re-certified from
scratch: the result must be a nilpotent two-sided ideal and the quotient
algebra must admit a separability idempotent (over perfect fields, Q and F_p
included, that is exactly semisimplicity).  A failed certificate raises:
radical answers are never returned on trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fields import FieldSpec
from .hopf import AlgebraData, CoalgebraData, HopfData, SubspaceBasis, _unitvec
from .integrals import idempotent_system
from .linalg import (Mat, SparseMat, in_span, nullspace, rank, solve_affine,
                     span_contains_span, spans_equal)


@dataclass
class FiltrationRecord:
    stages: list            # SubspaceBasis per wedge power, from index 1
    exhausted: bool
    stabilization_index: int


# ---------------------------------------------------------------------------
# Radical
# ---------------------------------------------------------------------------

def _trace_form_kernel(a: AlgebraData) -> list:
    """Kernel of (x,y) -> trace(L_{xy}); contains the radical in any characteristic."""
    f = a.field
    n = a.dim
    lmats = [a.left_mult_matrix(_unitvec(f, n, i)) for i in range(n)]
    gram = Mat.zeros(f, n, n)
    for i in range(n):
        for j in range(n):
            # trace(L_{e_i e_j}) = sum_k mult[i][j][k] * trace(L_{e_k})
            acc = f.zero
            for k, c in enumerate(a.mult[i][j]):
                if c:
                    tr = f.zero
                    for d in range(n):
                        tr = f.add(tr, lmats[k].data[d][d])
                    acc = f.add(acc, f.mul(c, tr))
            gram.data[i][j] = acc
    return nullspace(gram).columns()


def _fr_radical_mod_p(a: AlgebraData) -> list:
    """Friedl-Ronyai chain over the prime field: iterated divided p-power traces."""
    f = a.field
    p = f.characteristic
    n = a.dim
    lmats = [a.left_mult_matrix(_unitvec(f, n, i)) for i in range(n)]

    def lift_matrix(v: list):
        """Integer lift of L_v with entries in [0, p)."""
        m = [[0] * n for _ in range(n)]
        for i, x in enumerate(v):
            if x:
                for r in range(n):
                    for c in range(n):
                        e = lmats[i].data[r][c]
                        if e:
                            m[r][c] = (m[r][c] + x * e) % p
        return m

    def int_trace_power(m, e):
        acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        base = [row[:] for row in m]
        while e:
            if e & 1:
                acc = [[sum(acc[i][k] * base[k][j] for k in range(n)) for j in range(n)]
                       for i in range(n)]
            e >>= 1
            if e:
                base = [[sum(base[i][k] * base[k][j] for k in range(n)) for j in range(n)]
                        for i in range(n)]
        return sum(acc[i][i] for i in range(n))

    level = 0
    cap = 1
    while cap * p <= n:
        cap *= p
        level += 1

    current = [_unitvec(f, n, i) for i in range(n)]
    for i_stage in range(level + 1):
        pi = p ** i_stage
        rows = []
        for w in current:
            row = []
            for y in range(n):
                wy = a.mul(w, _unitvec(f, n, y))
                tr = int_trace_power(lift_matrix(wy), pi)
                if tr % pi != 0:
                    raise AssertionError(
                        "p-power trace not divisible on the chain; radical stage broken")
                row.append((tr // pi) % p)
            rows.append(row)
        # kernel in the coordinates of `current`
        coeff = Mat(f, n, len(current), [[rows[j][y] for j in range(len(current))]
                                         for y in range(n)])
        ker = nullspace(coeff)
        nxt = []
        for col in ker.columns():
            vec = [f.zero] * n
            for j, c in enumerate(col):
                if c:
                    for t, x in enumerate(current[j]):
                        if x:
                            vec[t] = f.add(vec[t], f.mul(c, x))
            nxt.append(vec)
        current = nxt
        if not current:
            break
    return current


def _is_two_sided_ideal(a: AlgebraData, vectors: list) -> bool:
    f = a.field
    n = a.dim
    for v in vectors:
        for i in range(n):
            e = _unitvec(f, n, i)
            if not in_span(f, vectors, a.mul(e, v)):
                return False
            if not in_span(f, vectors, a.mul(v, e)):
                return False
    return True


def _ideal_product(a: AlgebraData, xs: list, ys: list) -> list:
    """Independent spanning set of span{x·y}."""
    f = a.field
    prods = [a.mul(x, y) for x in xs for y in ys]
    out = []
    for pvec in prods:
        if any(not f.is_zero(c) for c in pvec) and not in_span(f, out, pvec):
            out.append(pvec)
    return out


def is_nilpotent_ideal(ideal: SubspaceBasis, a: AlgebraData) -> Optional[int]:
    """Least k with I^k = 0, or None if I is not nilpotent; raises if not an ideal."""
    f = a.field
    if not _is_two_sided_ideal(a, ideal.vectors):
        raise ValueError("subspace is not a two-sided ideal")
    if not ideal.vectors:
        return 1
    power = ideal.vectors
    k = 1
    while True:
        if not power:
            return k
        nxt = _ideal_product(a, power, ideal.vectors)
        k += 1
        if not nxt:
            return k
        if len(nxt) == len(power) and span_contains_span(f, power, nxt) \
                and span_contains_span(f, nxt, power):
            return None
        power = nxt
        if k > a.dim + 1:
            return None


def _quotient_algebra(a: AlgebraData, ideal_vectors: list):
    """(quotient AlgebraData, projection, section) modulo a two-sided ideal."""
    f = a.field
    n = a.dim
    from .linalg import invert
    chosen = [v[:] for v in ideal_vectors]
    picked = []
    for i in range(n):
        cand = chosen + [_unitvec(f, n, i)]
        if rank(Mat(f, len(cand), n, cand)) == len(cand):
            chosen.append(_unitvec(f, n, i))
            picked.append(i)
        if len(chosen) == n:
            break
    d = len(ideal_vectors)
    q = n - d
    basis_change = Mat.from_columns(f, chosen)
    inv = invert(basis_change)
    projection = Mat(f, q, n, [inv.data[r][:] for r in range(d, n)])
    section = Mat.from_columns(f, chosen[d:]) if q else Mat(f, n, 0, [[] for _ in range(n)])
    mult = [[[f.zero] * q for _ in range(q)] for _ in range(q)]
    for i in range(q):
        for j in range(q):
            prod = a.mul(section.column(i), section.column(j))
            mult[i][j] = projection.matvec(prod)
    unit = projection.matvec(a.unit)
    return AlgebraData(f, q, mult, unit), projection, section


def _has_separability_idempotent(a: AlgebraData) -> bool:
    """Affine search for e in A (x) A with m(e) = 1 and (x (x) 1)e = e(1 (x) x).

    Over perfect ground fields (Q and F_p) this is exactly semisimplicity.
    """
    return a.dim == 0 or solve_affine(idempotent_system(a)) is not None


def radical(a: AlgebraData) -> SubspaceBasis:
    """The Jacobson radical, certified: nilpotent ideal with semisimple quotient."""
    f = a.field
    if f.characteristic == 0:
        vectors = _trace_form_kernel(a)
    else:
        vectors = _fr_radical_mod_p(a)
    basis = SubspaceBasis(a.dim, vectors)
    if not _is_two_sided_ideal(a, vectors):
        raise AssertionError("computed radical is not a two-sided ideal")
    if vectors and is_nilpotent_ideal(basis, a) is None:
        raise AssertionError("computed radical is not nilpotent")
    quotient, _, _ = _quotient_algebra(a, vectors)
    if f.characteristic == 0:
        if _trace_form_kernel(quotient):
            raise AssertionError("radical quotient has degenerate trace form")
    else:
        if not _has_separability_idempotent(quotient):
            raise AssertionError("radical quotient is not separable over a perfect field")
    return basis


# ---------------------------------------------------------------------------
# Coradical and wedges
# ---------------------------------------------------------------------------

def _dual_algebra_of_coalgebra(c: CoalgebraData) -> AlgebraData:
    f = c.field
    n = c.dim
    mult = [[[c.comult[k][a][b] for k in range(n)] for b in range(n)] for a in range(n)]
    return AlgebraData(f, n, mult, list(c.counit))


def coradical(c: CoalgebraData) -> SubspaceBasis:
    """Corad(C) = annihilator of rad(C*); verified to be a subcoalgebra."""
    f = c.field
    n = c.dim
    rad = radical(_dual_algebra_of_coalgebra(c))
    if not rad.vectors:
        out = SubspaceBasis(n, [_unitvec(f, n, i) for i in range(n)])
    else:
        ann = nullspace(Mat(f, len(rad.vectors), n, rad.vectors))
        out = SubspaceBasis(n, ann.columns())
    if not is_subcoalgebra(out, c):
        raise AssertionError("coradical is not a subcoalgebra")
    return out


def is_subcoalgebra(x: SubspaceBasis, c: CoalgebraData) -> bool:
    """Delta(X) inside X (x) X, by rank comparison against span{x_i (x) x_j}."""
    f = c.field
    n = c.dim
    if not x.vectors:
        return True
    tensor_span = []
    for u in x.vectors:
        for v in x.vectors:
            w = [f.zero] * (n * n)
            for i, uu in enumerate(u):
                if uu:
                    for j, vv in enumerate(v):
                        if vv:
                            w[i * n + j] = f.mul(uu, vv)
            tensor_span.append(w)
    for u in x.vectors:
        if not in_span(f, tensor_span, c.delta(u)):
            return False
    return True


def wedge(x: SubspaceBasis, y: SubspaceBasis, e: CoalgebraData) -> SubspaceBasis:
    """X wedge Y = ker[(pi_X (x) pi_Y) Delta]."""
    f = e.field
    n = e.dim
    if x.ambient_dim != n or y.ambient_dim != n:
        raise ValueError("wedge arguments live in the wrong ambient space")
    px = _quotient_projection(f, n, x.vectors)
    py = _quotient_projection(f, n, y.vectors)
    qx, qy = px.rows, py.rows
    if qx == 0 or qy == 0:
        return SubspaceBasis(n, [_unitvec(f, n, i) for i in range(n)])
    rows = []
    for p in range(qx):
        for q in range(qy):
            row = []
            for k in range(n):
                acc = f.zero
                for i in range(n):
                    a = px.data[p][i]
                    if not a:
                        continue
                    for j, d in enumerate(e.comult[k][i]):
                        if d:
                            b = py.data[q][j]
                            if b:
                                acc = f.add(acc, f.mul(a, f.mul(d, b)))
                if acc:
                    row.append((k, acc))
            rows.append(row)
    ker = nullspace(SparseMat(f, len(rows), n, rows))
    return SubspaceBasis(n, ker.columns())


def _quotient_projection(field: FieldSpec, n: int, subspace_vectors: list) -> Mat:
    """A matrix E -> E/X: complete the subspace to a basis, take the cofactor rows."""
    from .linalg import invert
    chosen = [v[:] for v in subspace_vectors]
    for i in range(n):
        cand = chosen + [_unitvec(field, n, i)]
        if rank(Mat(field, len(cand), n, cand)) == len(cand):
            chosen.append(_unitvec(field, n, i))
        if len(chosen) == n:
            break
    d = len(subspace_vectors)
    if d == n:
        return Mat(field, 0, n, [])
    inv = invert(Mat.from_columns(field, chosen))
    return Mat(field, n - d, n, [inv.data[r][:] for r in range(d, n)])


def wedge_filtration(c: SubspaceBasis, e: CoalgebraData) -> FiltrationRecord:
    """Iterate C^{wedge n} = C^{wedge n-1} wedge C until stabilization.

    Cross-checks the exhaustion criterion: the filtration fills E exactly when
    Corad(E) lies inside C.
    """
    f = e.field
    if not is_subcoalgebra(c, e):
        raise ValueError("filtration needs a subcoalgebra to start from")
    stages = [SubspaceBasis(e.dim, [v[:] for v in c.vectors])]
    while True:
        nxt = wedge(stages[-1], c, e)
        if nxt.dim == stages[-1].dim:
            break
        if not span_contains_span(f, nxt.vectors, stages[-1].vectors):
            raise AssertionError("wedge filtration is not increasing")
        stages.append(nxt)
        if nxt.dim == e.dim:
            break
    exhausted = stages[-1].dim == e.dim
    corad = coradical(e)
    contained = span_contains_span(f, c.vectors, corad.vectors)
    if exhausted != contained:
        raise AssertionError("exhaustion criterion violated: filtration vs coradical")
    return FiltrationRecord(stages, exhausted, len(stages))
