"""Drinfeld doubles, relative tensor products, and separable ring extensions.

The double D(H) = H*cop |><| H is built on the basis f_a |><| e_i (index
a*dim + i) with the straightening rule

    (f |><| h)(f' |><| h') = f · (h_1 -> f' <- S^{-1}(h_3)) |><| h_2 h'

where (h -> f)(x) = f(x h) and (f <- k)(x) = f(k x).  This is the unique
arrow/side convention under which the Sweedler-algebra double satisfies all
Hopf axioms.  The antipode is the closed form S_D(f |><| h) = (eps |><| S(h)) ·
(f o S^{-1} |><| 1) (Kassel, *Quantum Groups*, IX.4).  Every constructed double
is pushed through the axiom checker, antipode axioms and S_D S_D^{-1} = id too.

D(H) is free as a right H-module on the f_a |><| 1, since (f_a |><| h)(eps |><|
h') = f_a |><| hh' (Kassel, IX.4), so D(H) (x)_H D(H) = H* (x) D(H) by
(f |><| h) (x)_H d -> f (x) (eps |><| h)·d.  D(H) is separable over H exactly
when H has an ad-invariant integral lambda; :func:`separable_extension` writes
the idempotent e from lambda in those n·N coordinates and checks it, with the
freeness identity, on the 2n generators f_a |><| 1 and eps |><| e_i: no R (x)_S R
is built and nothing is eliminated.  The report's ``idempotent_coords`` (entry
[a][b·n + j] the coefficient of f_a (x) (f_b |><| e_j)) replaced the coordinates
``idempotent_quotient_coords`` in a quotient basis of R (x)_S R that the engine
chose; :func:`relative_tensor` still presents R (x)_S R, for the blind search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import FieldSpec
from .hopf import AlgebraData, CoalgebraData, HopfData, require_algebra_map, validated
from .linalg import (AffineSystem, Certificate, SparseMat, contract, least_failure, rank,
                     require_conditions, require_keys, _kernel_basis, _rref)


@dataclass
class ExtensionData:
    """A ring extension S -> R given by an injective algebra map."""

    big: AlgebraData
    small: AlgebraData
    embedding: dict  # S -> R, (x, j): entry x of the image of e_j

    def validate(self):
        r, s = self.big, self.small
        f = r.field
        emb = self.embedding
        require_keys(emb, (r.dim, s.dim), "embedding")
        if rank(SparseMat.from_tensor(f, emb, r.dim, s.dim)) != s.dim:
            raise ValueError("embedding is not injective")
        require_algebra_map(s, r, emb, "embedding")
        return self


@dataclass
class RelTensor:
    """R (x)_S R presented by a projection/section pair on R (x) R."""

    projection_rows: list    # RREF rows of the relation span, as sparse rows
    pivot_cols: list
    free_cols: list
    field: FieldSpec

    @property
    def dim(self) -> int:
        return len(self.free_cols)

    @cached_property
    def projection(self) -> dict:
        """The quotient map as a sparse tensor keyed (ambient column, quotient index):
        a free column is a quotient basis vector, and a pivot column is minus the
        free part of its reduced relation row: the nullspace basis of those rows."""
        return _kernel_basis(self.projection_rows, self.pivot_cols,
                             len(self.pivot_cols) + len(self.free_cols), self.field)


def drinfeld_double(h: HopfData):
    """D(H) with its validated Hopf structure and the extension H -> D(H)."""
    if h.antipode_inverse is None:
        raise ValueError("the double needs a bijective antipode")
    f = h.field
    n = h.dim
    N = n * n
    d, m, u, e = h.coa.comult, h.alg.mult, h.alg.unit, h.coa.counit

    def flat(tensor: dict) -> dict:
        """The sparse tensor of D(H) from one whose indices come in (H*, H) pairs."""
        return {tuple(a * n + i for a, i in zip(k[::2], k[1::2])): v for k, v in tensor.items()}

    # (f_a |><| e_i)(f_b |><| e_j): Delta^2(e_i) = e_p (x) e_q (x) e_r, the arrows
    # (e_p -> f_b <- S^{-1}(e_r)) = sum m[s][c][y] m[y][p][b] Sinv[s][r] f_c, then
    # f_a f_c = sum Delta[k][a][c] f_k and e_q e_j = sum m[q][j][l] e_l
    mult = contract(f, "ipx,xqr,sr,scy,ypb,kac,qjl->aibjkl", d, d, h.antipode_inverse, m, m, d, m)
    alg = AlgebraData(f, N, flat(mult), flat(contract(f, "a,i->ai", e, u)))
    # Delta(f_a |><| e_i) = sum m[b][c][a] Delta[i][p][q] (f_c |><| e_p) (x) (f_b |><| e_q)
    coa = CoalgebraData(f, N, flat(contract(f, "bca,ipq->aicpbq", m, d)),
                        flat(contract(f, "a,i->ai", u, e)))

    # S_D(f_a |><| e_i) = sum eps_c S[j][i] Sinv[a][b] u_k (f_c |><| e_j)(f_b |><| e_k)
    s = flat(contract(f, "c,ji,ab,k,cjbkpq->pqai", e, h.antipode, h.antipode_inverse, u, mult))
    double = validated(HopfData(alg, coa, s, None,
                                [f"{h.basis[a]}*><{h.basis[i]}" for a in range(n) for i in range(n)]))

    emb = {(a * n + j, j): c for (a,), c in e.items() for j in range(n)}
    ext = ExtensionData(alg, h.alg, emb).validate()
    return double, ext


def _repeat(action: dict, nr: int) -> int:
    """The least b dividing ``nr`` such that the right action ``action`` of S on
    R, keyed (i, c, x): entry x of e_i·s_c, maps each run [kb, (k+1)b) of R's
    basis into itself with exactly the entries of run 0, shifted by kb."""
    for b in range(1, nr + 1):
        if nr % b == 0 and sum(i < b for i, _, _ in action) * (nr // b) == len(action) and all(
                i // b == x // b and action.get((i % b, c, x % b)) == v
                for (i, c, x), v in action.items()):
            return b


def relative_tensor(ext: ExtensionData) -> RelTensor:
    """R (x)_S R as the quotient of R (x) R by r·i(s) (x) r' - r (x) i(s)·r'.

    The relations of (c, i, j) with i in run k of the right action of S on R
    (:func:`_repeat`) are those of run 0 shifted by k·b·nr columns, so the relation
    matrix is block diagonal with equal blocks, and its reduced row echelon form,
    which is unique, is run 0's shifted along: only run 0's rows are assembled and
    eliminated.  For D(H) over H, b = n; over the field b = 1; for R over itself b = nr.
    """
    r = ext.big
    f, nr, m, emb = r.field, r.dim, r.mult, ext.embedding
    action = contract(f, "yc,iya->ica", emb, m)
    b = _repeat(action, nr)
    width = b * nr
    # row (c, i, j) for i in run 0: (e_i·s_c) (x) e_j - e_i (x) (s_c·e_j)
    rows = AffineSystem.conditions(f, (b, nr), ("relation", [
        (1, "ica,aj->cij", {k: v for k, v in action.items() if k[0] < b}),
        (-1, "yc,yjb,ib->cij", emb, m)], None)).matrix.data
    pivots = _rref(rows, width, f)
    shifts = range(0, nr * nr, width)
    pivot_cols = [s + c for s in shifts for c in pivots]
    pivot_set = set(pivot_cols)
    free = [c for c in range(nr * nr) if c not in pivot_set]
    return RelTensor([[(s + c, v) for c, v in row] for s in shifts for row in rows[: len(pivots)]],
                     pivot_cols, free, f)


def _double_idempotent_conditions(h: HopfData, ext: ExtensionData) -> list:
    """m(e) = 1 and d·e = e·d for the 2n generators d of D(H), f_a |><| 1 and eps |><| e_i,
    on e in H* (x) D(H), an unknown of shape (n, N): entry (a, K) is the coefficient of
    f_a (x) d_K, the image of (f_a |><| 1) (x)_H d_K.  e·d acts on the right leg, d·e on
    the left, where d·(f_a |><| 1) = sum c_P (f_c |><| e_r), P = c·n + r, moves to
    f_c (x) (eps |><| e_r)·d_K.  Raises ``AssertionError`` unless (f_a |><| 1)(eps |><| e_i)
    = f_a |><| e_i, on which these coordinates rest."""
    r, n = ext.big, h.dim
    f, m, emb = r.field, r.mult, ext.embedding
    free = {(a * n + i, a): c for (i,), c in h.alg.unit.items() for a in range(n)}
    basis = {(a, i, a * n + i): f.one for a in range(n) for i in range(n)}
    if bad := least_failure(2, ("freeness", contract(f, "Qa,Ri,QRL->aiL", free, emb, m), basis)):
        raise AssertionError(f"(f_a |><| 1)(eps |><| e_i) != f_a |><| e_i at (a, i) = {bad[0]}")
    gens = {**free, **{(k, n + i): c for (k, i), c in emb.items()}}
    split = {(c * n + i, c, k): v for (k, i), v in emb.items() for c in range(n)}
    return [("m(e)=1", [(1, "Qa,QKL,aK->L", free, m)], r.unit),
            ("bilinear", [(1, "Qa,DQP,Dd,PcR,RKL,aK->dcL", free, m, gens, split, m),
                          (-1, "KDL,Dd,aK->daL", m, gens)], None)]


def separable_extension(h: HopfData, ext: ExtensionData, lam: dict) -> Certificate:
    """The idempotent e = sum lam(e_x e_y) (f_x |><| 1) (x)_H (S*(f_y) |><| 1) of D(H)/H,
    S*(f) = f o S, from an ad-invariant integral ``lam`` keyed (x,): written keyed (x, K) on
    H* (x) D(H) and checked on :func:`_double_idempotent_conditions`.  The d with d·e = e·d
    form a subalgebra, so it is D(H) once it holds the 2n generators, as f_a |><| e_i =
    (f_a |><| 1)(eps |><| e_i).  Read with lam(e_y e_x), with S^{-1}, or with S* on the left
    leg, it is the same e, as lam is a trace, lam∘S = lam and S^2 = id on every input tested."""
    f, n, u = h.field, h.dim, h.alg.unit
    conds = _double_idempotent_conditions(h, ext)
    # S*(f_y) |><| 1 = sum S[y][b] u_j (f_b |><| e_j)
    e = {(x, b * n + j): v for (x, b, j), v in
         contract(f, "xyk,k,yb,j->xbj", h.alg.mult, lam, h.antipode, u).items()}
    return Certificate("extension_idempotent", e, (n, ext.big.dim),
                       _verify_extension_idempotent(f, e, conds))


def _verify_extension_idempotent(f: FieldSpec, coords: dict, conds: list) -> list:
    return require_conditions(f, conds, coords, "extension idempotent")

