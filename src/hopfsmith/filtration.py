"""Jacobson radicals, coradicals, wedge products and coradical filtrations.

The radical is computed by the trace form over Q and by the p-th-power trace
chain of Friedl and Ronyai over F_p: stage 0 is the trace form, and stage
i >= 1 takes divided traces of p^i-th powers of integer lifts, powered as
sparse rows reduced mod p^{i+1}.  The result is then re-certified from
scratch: it must be a nilpotent two-sided ideal, and the quotient algebra
semisimple: over Q its trace form is nondegenerate, and over F_p, a perfect
field, it has a separability idempotent, solved and checked on its conditions.
A failed certificate raises: radical answers are never returned on trust.

The identities are contractions of sparse tensors in the layout of :mod:`hopf`
(``m`` ijk, ``D`` kij, a map as (x, y), entry x of the image of e_y): the trace
form is the condition ``"trace form"`` (rows i), a Friedl-Ronyai stage lifts its
basis vectors w_j in one contraction (``"aj,axz->jxz"``) and reads its rows
g_i(w_j e_y) off its coordinates in one more (``"l,lk,ayk,aj->yj"``), the
products spanning an ideal power are ``"ax,by,xyk->abk"``, the wedge X ^ Y is
the kernel of ``"wedge"``, (pi_X (x) pi_Y) Delta (rows (p, q)), and X is a
subcoalgebra when Delta restricts to it (:func:`hopf.restricted_comult`).  The
greedy bases of the ideal powers and of the quotient complements are kept, since
certificates are written in them; each is the pivot columns of one elimination
(:func:`linalg.pivot_columns`).

Every subspace, and every spanning set such as the products spanning an ideal
power, is a basis tensor ``(x, j)``, entry x of vector j (:class:`hopf.SubspaceBasis`),
so the contractions above take and return them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hopf import (AlgebraData, CoalgebraData, SubspaceBasis, dual_algebra, quotient_maps,
                   restricted_comult)
from .integrals import idempotent_conditions
from .linalg import (SparseMat, contract, identity, kernel, nullspace, pivot_columns, solve,
                     span_contains_span, spans_equal)


@dataclass
class FiltrationRecord:
    stages: list            # SubspaceBasis per wedge power, from index 1
    exhausted: bool
    stabilization_index: int


# ---------------------------------------------------------------------------
# Radical
# ---------------------------------------------------------------------------

def _trace_form_kernel(a: AlgebraData) -> SubspaceBasis:
    """Kernel of (x,y) -> trace(L_{xy}); contains the radical in any characteristic."""
    f = a.field
    m = a.mult
    # trace(L_{e_i e_j}) = sum_k m_ijk trace(L_{e_k}), and trace(L_{e_k}) = sum_d m_kdd
    traces = contract(f, "kdx,xd->k", m, identity(f, a.dim))
    conds = [("trace form", [(1, "ijk,k,j->i", m, traces)], None)]
    return SubspaceBasis(a.dim, kernel(f, a.dim, conds))


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


def _fr_radical_mod_p(a: AlgebraData) -> SubspaceBasis:
    """Friedl-Ronyai chain over the prime field: iterated divided p-power traces.

    Stage 0 is the trace form kernel I_0; stage i >= 1 keeps the w in I_{i-1} with
    g_i(w e_y) = 0 for every y, where g_i(x) = tr(L~_x^{p^i}) / p^i mod p, L~ the
    integer lift of L with entries in [0, p), powered as sparse rows mod p^{i+1}.
    I_0 is a two-sided ideal as tr(L_{xy}) = tr(L_{yx}); so is each I_i, and g_i is
    F_p-linear on the ideal I_{i-1} (Ronyai, J. Symbolic Comput. 9, 1990; Cohen,
    Ivanyos and Wales, J. Pure Appl. Algebra 117-118, 1997).  So a stage powers one
    lift per basis vector w_l, and reads g_i(w_j e_y) off the coordinates of w_j e_y
    in I_{i-1}.  :func:`radical` re-certifies the result: a misapplied lemma raises.
    """
    f, n, m = a.field, a.dim, a.mult
    p = pi = f.characteristic
    current = _trace_form_kernel(a)
    while current.dim and pi <= n:
        q = pi * p
        # the transposes of L_{w_j}, keyed (j, x, z): entry z of w_j e_x; a transpose
        # has the same traces of powers
        lifts = [[{} for _ in range(n)] for _ in range(current.dim)]
        for (j, x, z), c in contract(f, "aj,axz->jxz", current.basis, m).items():
            lifts[j][x][z] = c
        g = {}  # g_i(w_l), keyed (l,)
        for j, lift in enumerate(lifts):
            tr = _trace_of_power(lift, pi, q)
            if tr % pi:
                raise AssertionError("p-power trace not divisible; radical stage broken")
            g[(j,)] = tr // pi
        # g_i(w_j e_y) at (y, j), by coordinates in `current`, where the kernel lies too
        basis, coords = current.tensors(f)
        rows = contract(f, "l,lk,ayk,aj->yj", g, coords, m, basis)
        ker = nullspace(SparseMat.from_tensor(f, rows, n, current.dim))
        current = SubspaceBasis(n, contract(f, "xj,jc->xc", basis, ker))
        pi = q
    return current


def _is_two_sided_ideal(a: AlgebraData, ideal: SubspaceBasis) -> bool:
    f = a.field
    n, k = a.dim, ideal.dim
    v, m = ideal.basis, a.mult
    # e_i·v_j, then v_j·e_i: product (s, j, i) is vector (s * k + j) * n + i
    products = {(x, (s * k + j) * n + i): c
                for s, spec in enumerate(("yj,iyx->xji", "yj,yix->xji"))
                for (x, j, i), c in contract(f, spec, v, m).items()}
    return span_contains_span(f, v, products, n)


def _ideal_product(a: AlgebraData, xs: SubspaceBasis, ys: SubspaceBasis) -> SubspaceBasis:
    """Independent spanning set of span{x·y}: the products in ``for x in xs for y in
    ys`` order that lie outside the span of the ones before them."""
    f, n, width = a.field, a.dim, ys.dim
    prods = {(x, i * width + j): c for (x, i, j), c in
             contract(f, "pi,qj,pqx->xij", xs.basis, ys.basis, a.mult).items()}
    kept = {c: t for t, c in enumerate(pivot_columns(f, prods, n, xs.dim * width)[0])}
    return SubspaceBasis(n, {(x, kept[c]): v for (x, c), v in prods.items() if c in kept},
                         len(kept))


def ideal_powers(a: AlgebraData, ideal: SubspaceBasis) -> Optional[list]:
    """Spanning sets of I, I^2, ..., ending with the first zero power, for the
    ideal I; None when the powers stop shrinking first."""
    f = a.field
    powers = [ideal]
    while powers[-1].dim:
        nxt = _ideal_product(a, powers[-1], ideal)
        if nxt.dim == powers[-1].dim and spans_equal(f, powers[-1].basis, nxt.basis, a.dim):
            return None
        powers.append(nxt)
        if len(powers) > a.dim + 1:
            return None
    return powers


def is_nilpotent_ideal(ideal: SubspaceBasis, a: AlgebraData) -> Optional[int]:
    """Least k with I^k = 0, or None if I is not nilpotent; raises if not an ideal."""
    if not _is_two_sided_ideal(a, ideal):
        raise ValueError("subspace is not a two-sided ideal")
    powers = ideal_powers(a, ideal)
    return None if powers is None else len(powers)


def _quotient_algebra(a: AlgebraData, ideal: SubspaceBasis):
    """(quotient AlgebraData, projection, section) modulo a two-sided ideal."""
    f = a.field
    proj, sect = quotient_maps(f, ideal)
    mult = contract(f, "xa,yb,xyk,ck->abc", sect, sect, a.mult, proj)
    quotient = AlgebraData(f, a.dim - ideal.dim, mult,
                           contract(f, "ck,k->c", proj, a.unit))
    return quotient, proj, sect


def radical(a: AlgebraData) -> SubspaceBasis:
    """The Jacobson radical, certified: nilpotent ideal with semisimple quotient."""
    f = a.field
    basis = _fr_radical_mod_p(a) if f.characteristic else _trace_form_kernel(a)
    if not _is_two_sided_ideal(a, basis):
        raise AssertionError("computed radical is not a two-sided ideal")
    if basis.dim and ideal_powers(a, basis) is None:
        raise AssertionError("computed radical is not nilpotent")
    quotient, _, _ = _quotient_algebra(a, basis)
    if f.characteristic == 0 and _trace_form_kernel(quotient).dim:
        raise AssertionError("radical quotient has degenerate trace form")
    # over the perfect F_p, semisimple means separable: an e in A (x) A with m(e) = 1
    # and (x (x) 1)e = e(1 (x) x) exists, and the one solved is checked on those conditions
    if f.characteristic and quotient.dim and solve(
            f, (quotient.dim,) * 2, idempotent_conditions(quotient),
            "radical quotient separability idempotent") is None:
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
    if not rad.dim:
        out = SubspaceBasis(n, identity(f, n))
    else:  # one row per radical vector
        rows = SparseMat.from_tensor(f, contract(f, "xj->jx", rad.basis), rad.dim, n)
        out = SubspaceBasis(n, nullspace(rows))
    if not is_subcoalgebra(out, c):
        raise AssertionError("coradical is not a subcoalgebra")
    return out


def is_subcoalgebra(x: SubspaceBasis, c: CoalgebraData) -> bool:
    """Delta(X) inside X (x) X: Delta restricts to X (:func:`hopf.restricted_comult`)."""
    return not x.dim or restricted_comult(c, x) is not None


def wedge(x: SubspaceBasis, y: SubspaceBasis, e: CoalgebraData) -> SubspaceBasis:
    """X wedge Y = ker[(pi_X (x) pi_Y) Delta]."""
    if y.ambient_dim != e.dim:
        raise ValueError("wedge arguments live in the wrong ambient space")
    return _wedge(x, quotient_maps(e.field, y)[0], e)


def _wedge(x: SubspaceBasis, py: dict, e: CoalgebraData) -> SubspaceBasis:
    """X wedge Y for ``py`` = pi_Y, the projection onto the quotient by Y: the
    kernel of rows (p, q), one column per basis vector."""
    f = e.field
    n = e.dim
    if x.ambient_dim != n:
        raise ValueError("wedge arguments live in the wrong ambient space")
    px = quotient_maps(f, x)[0]
    if not px or not py:  # a zero quotient: X or Y is everything
        return SubspaceBasis(n, identity(f, n))
    conds = [("wedge", [(1, "pi,kij,qj,k->pq", px, e.comult, py)], None)]
    return SubspaceBasis(n, kernel(f, n, conds))


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
    stages = [c]  # C itself, so the completion made by the check serves the steps
    pc = quotient_maps(f, c)[0]  # C's projection, for every step
    while True:
        nxt = _wedge(stages[-1], pc, e)
        if nxt.dim == stages[-1].dim:
            break
        if not span_contains_span(f, nxt.basis, stages[-1].basis, e.dim):
            raise AssertionError("wedge filtration is not increasing")
        stages.append(nxt)
        if nxt.dim == e.dim:
            break
    exhausted = stages[-1].dim == e.dim
    if corad is None:
        corad = coradical(e)
    contained = span_contains_span(f, c.basis, corad.basis, e.dim)
    if exhausted != contained:
        raise AssertionError("exhaustion criterion violated: filtration vs coradical")
    return FiltrationRecord(stages, exhausted, len(stages))
