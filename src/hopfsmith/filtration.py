"""Jacobson radicals, coradicals, wedge products and coradical filtrations.

The radical is computed by the trace form over Q and by the p-th-power trace
chain of Friedl and Ronyai over F_p: stage 0 is the trace form, and stage
i >= 1 takes divided traces of p^i-th powers of integer lifts, powered as
sparse rows reduced mod p^{i+1}.  The result is then re-certified from
scratch: it must be a nilpotent two-sided ideal and the quotient algebra must
admit a separability idempotent (over perfect fields, Q and F_p included,
that is exactly semisimplicity).  A failed certificate raises: radical
answers are never returned on trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hopf import (AlgebraData, CoalgebraData, SubspaceBasis, _unitvec, dual_algebra,
                   quotient_maps)
from .integrals import idempotent_system
from .linalg import (Mat, SparseMat, in_span, nullspace, solve_affine, span_contains_span,
                     spans_equal)


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
    traces = []  # trace(L_{e_k}): the diagonal of L_{e_k} is mult[k][d][d]
    for k in range(n):
        acc = f.zero
        for d in range(n):
            acc = f.add(acc, a.mult[k][d][d])
        traces.append(acc)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            # trace(L_{e_i e_j}) = sum_k mult[i][j][k] * trace(L_{e_k})
            acc = f.zero
            for c, tr in zip(a.mult[i][j], traces):
                if c and tr:
                    acc = f.add(acc, f.mul(c, tr))
            if acc:
                row.append((j, acc))
        rows.append(row)
    return nullspace(SparseMat(f, n, n, rows)).columns()


def _mul_mod(x: list, y: list, q: int) -> list:
    """Product of square integer matrices given as sparse rows ``{col: int}``, mod q."""
    out = []
    for row in x:
        acc = {}
        get = acc.get
        for k, a in row.items():
            for j, b in y[k].items():
                acc[j] = get(j, 0) + a * b
        out.append({j: w for j, v in acc.items() if (w := v % q)})
    return out


def _trace_of_power(m: list, e: int, q: int) -> int:
    """tr(m^e) mod q for e >= 1, by repeated squaring from the first factor."""
    acc = None  # the product of the factors taken so far
    while True:
        if e & 1:
            acc = m if acc is None else _mul_mod(acc, m, q)
        e >>= 1
        if not e:
            return sum(row.get(r, 0) for r, row in enumerate(acc)) % q
        m = _mul_mod(m, m, q)


def _fr_radical_mod_p(a: AlgebraData) -> list:
    """Friedl-Ronyai chain over the prime field: iterated divided p-power traces.

    Stage 0 is the trace form kernel.  Stage i >= 1 keeps the w in the span of
    the previous stage with tr(L~_{wy}^{p^i}) / p^i = 0 mod p for every basis
    vector y, where L~ is the integer lift of L with entries in [0, p).  Only
    tr mod p^{i+1} is needed, so the lifts are powered as sparse rows reduced
    mod p^{i+1}.
    """
    f = a.field
    p = f.characteristic
    n = a.dim
    current = _trace_form_kernel(a)
    pi = p
    while current and pi <= n:
        q = pi * p
        rows = [[] for _ in range(n)]
        for j, w in enumerate(current):
            for y in range(n):
                lift = a.left_mult_matrix(a.mul(w, _unitvec(f, n, y))).data
                tr = _trace_of_power([{c: x for c, x in enumerate(r) if x} for r in lift], pi, q)
                if tr % pi:
                    raise AssertionError(
                        "p-power trace not divisible on the chain; radical stage broken")
                if tr:
                    rows[y].append((j, tr // pi))
        # the kernel is in the coordinates of `current`
        ker = nullspace(SparseMat(f, n, len(current), rows))
        basis = Mat.from_columns(f, current)
        current = [basis.matvec(col) for col in ker.columns()]
        pi = q
    return current


def _is_two_sided_ideal(a: AlgebraData, vectors: list) -> bool:
    f = a.field
    n = a.dim
    units = [_unitvec(f, n, i) for i in range(n)]
    products = [x for v in vectors for e in units for x in (a.mul(e, v), a.mul(v, e))]
    return span_contains_span(f, vectors, products)


def _ideal_product(a: AlgebraData, xs: list, ys: list) -> list:
    """Independent spanning set of span{x·y}."""
    f = a.field
    prods = [a.mul(x, y) for x in xs for y in ys]
    out = []
    for pvec in prods:
        if any(not f.is_zero(c) for c in pvec) and not in_span(f, out, pvec):
            out.append(pvec)
    return out


def ideal_powers(a: AlgebraData, vectors: list) -> Optional[list]:
    """Spanning sets of I, I^2, ..., ending with the first empty power, for the
    ideal I spanned by ``vectors``; None when the powers stop shrinking first."""
    f = a.field
    powers = [vectors]
    while powers[-1]:
        nxt = _ideal_product(a, powers[-1], vectors)
        if nxt and len(nxt) == len(powers[-1]) and spans_equal(f, powers[-1], nxt):
            return None
        powers.append(nxt)
        if len(powers) > a.dim + 1:
            return None
    return powers


def is_nilpotent_ideal(ideal: SubspaceBasis, a: AlgebraData) -> Optional[int]:
    """Least k with I^k = 0, or None if I is not nilpotent; raises if not an ideal."""
    if not _is_two_sided_ideal(a, ideal.vectors):
        raise ValueError("subspace is not a two-sided ideal")
    powers = ideal_powers(a, ideal.vectors)
    return None if powers is None else len(powers)


def _quotient_algebra(a: AlgebraData, ideal_vectors: list):
    """(quotient AlgebraData, projection, section) modulo a two-sided ideal."""
    projection, section = quotient_maps(a.field, a.dim, ideal_vectors)
    cols = section.columns()
    mult = [[projection.matvec(a.mul(x, y)) for y in cols] for x in cols]
    quotient = AlgebraData(a.field, len(cols), mult, projection.matvec(a.unit))
    return quotient, projection, section


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

def coradical(c: CoalgebraData) -> SubspaceBasis:
    """Corad(C) = annihilator of rad(C*); verified to be a subcoalgebra."""
    f = c.field
    n = c.dim
    rad = radical(dual_algebra(c))
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
    if not x.vectors:
        return True
    tensor_span = [[f.mul(a, b) for a in u for b in v] for u in x.vectors for v in x.vectors]
    return span_contains_span(f, tensor_span, [c.delta(u) for u in x.vectors])


def wedge(x: SubspaceBasis, y: SubspaceBasis, e: CoalgebraData) -> SubspaceBasis:
    """X wedge Y = ker[(pi_X (x) pi_Y) Delta]."""
    f = e.field
    n = e.dim
    if x.ambient_dim != n or y.ambient_dim != n:
        raise ValueError("wedge arguments live in the wrong ambient space")
    px = quotient_maps(f, n, x.vectors)[0]
    py = quotient_maps(f, n, y.vectors)[0]
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


def wedge_filtration(c: SubspaceBasis, e: CoalgebraData,
                     corad: Optional[SubspaceBasis] = None) -> FiltrationRecord:
    """Iterate C^{wedge n} = C^{wedge n-1} wedge C until stabilization.

    Cross-checks the exhaustion criterion: the filtration fills E exactly when
    Corad(E) lies inside C.  ``corad`` is Corad(E) as :func:`coradical` returned
    it, when the caller already has it; otherwise it is computed here.
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
    if corad is None:
        corad = coradical(e)
    contained = span_contains_span(f, c.vectors, corad.vectors)
    if exhausted != contained:
        raise AssertionError("exhaustion criterion violated: filtration vs coradical")
    return FiltrationRecord(stages, exhausted, len(stages))
