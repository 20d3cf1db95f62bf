"""Drinfeld doubles, relative tensor products, and separable ring extensions.

The double D(H) = H*cop |><| H is built on the basis f_a |><| e_i (index
a*dim + i) with the straightening rule

    (f |><| h)(f' |><| h') = f · (h_1 -> f' <- S^{-1}(h_3)) |><| h_2 h'

where (h -> f)(x) = f(x h) and (f <- k)(x) = f(k x).  This is the unique
arrow/side convention under which the Sweedler-algebra double satisfies all
Hopf axioms; the antipode is not taken from a formula but solved as the
two-sided convolution inverse of the identity, which is unique when it
exists.  Every constructed double is pushed through the axiom checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .fields import FieldSpec
from .hopf import AlgebraData, CoalgebraData, HopfData, check_algebra, validated
from .linalg import AffineSystem, Mat, solve_affine, _rref


@dataclass
class ExtensionData:
    """A ring extension S -> R given by an injective algebra map."""

    big: AlgebraData
    small: AlgebraData
    embedding: Mat  # dim(R) x dim(S)

    def validate(self):
        r, s = self.big, self.small
        f = r.field
        if self.embedding.rows != r.dim or self.embedding.cols != s.dim:
            raise ValueError("embedding has wrong shape")
        cols = self.embedding.columns()
        from .linalg import rank
        if rank(self.embedding) != s.dim:
            raise ValueError("embedding is not injective")
        one_r = r.unit
        img_one = self.embedding.matvec(s.unit)
        if not all(f.eq(a, b) for a, b in zip(one_r, img_one)):
            raise ValueError("embedding does not preserve the unit")
        for i in range(s.dim):
            for j in range(s.dim):
                lhs = self.embedding.matvec(s.mult[i][j])
                rhs = r.mul(cols[i], cols[j])
                if not all(f.eq(a, b) for a, b in zip(lhs, rhs)):
                    raise ValueError(f"embedding is not multiplicative at ({i},{j})")
        return self


@dataclass
class RelTensor:
    """R (x)_S R presented by a projection/section pair on R (x) R."""

    projection_rows: list    # RREF rows of the relation span, as sparse rows
    pivot_cols: list
    free_cols: list
    ambient: int             # dim(R (x) R)
    field: FieldSpec

    @property
    def dim(self) -> int:
        return len(self.free_cols)

    @cached_property
    def _images(self) -> list:
        """Quotient coordinates of each ambient basis vector, as (index, coefficient)
        pairs: a free column is a quotient basis vector, and a pivot column is
        minus the free part of its reduced relation row."""
        f = self.field
        where = {c: t for t, c in enumerate(self.free_cols)}
        images = [None] * self.ambient
        for c, t in where.items():
            images[c] = [(t, f.one)]
        for p, row in zip(self.pivot_cols, self.projection_rows):
            images[p] = [(where[j], f.neg(rv)) for j, rv in row[1:]]
        return images

    def project_sparse(self, v: dict) -> dict:
        """Quotient coordinates {index: coefficient} of a sparse vector {column: value}."""
        f = self.field
        out = {}
        for j, x in v.items():
            for t, c in self._images[j]:
                out[t] = f.add(out.get(t, f.zero), f.mul(x, c))
        return out

    def project(self, v: list) -> list:
        """Coordinates in the quotient basis indexed by free columns."""
        out = self.project_sparse({j: x for j, x in enumerate(v) if x})
        return [out.get(t, self.field.zero) for t in range(self.dim)]

    def lift(self, q: list) -> list:
        """The canonical representative in R (x) R of a quotient vector."""
        f = self.field
        v = [f.zero] * self.ambient
        for x, j in zip(q, self.free_cols):
            v[j] = x
        return v


@dataclass
class ExtensionIdempotent:
    """A separability certificate for R/S: e in R (x)_S R."""

    quotient_coords: list
    representative: list  # a lift to R (x) R


def drinfeld_double(h: HopfData):
    """D(H) with its validated Hopf structure and the extension H -> D(H)."""
    if h.antipode_inverse is None:
        raise ValueError("the double needs a bijective antipode")
    f = h.field
    n = h.dim
    N = n * n
    z = f.zero
    mu = h.alg.mult
    de = h.coa.comult
    sinv = h.antipode_inverse

    def didx(a, i):
        return a * n + i

    d2 = []
    for i in range(n):
        acc = {}
        for p in range(n):
            for m in range(n):
                c1 = de[i][p][m]
                if not c1:
                    continue
                for q in range(n):
                    row = de[m][q]
                    for r in range(n):
                        c2 = row[r]
                        if c2:
                            key = (p, q, r)
                            prev = acc.get(key)
                            val = f.mul(c1, c2)
                            acc[key] = val if prev is None else f.add(prev, val)
        d2.append([(k, v) for k, v in acc.items() if not f.is_zero(v)])

    # (e_p -> f_b <- e_s) = sum_c [sum_m mu[s][c][m] mu[m][p][b]] f_c
    def arrow(p, s, b):
        out = {}
        for c in range(n):
            acc = z
            for m in range(n):
                x = mu[s][c][m]
                if x:
                    y = mu[m][p][b]
                    if y:
                        acc = f.add(acc, f.mul(x, y))
            if not f.is_zero(acc):
                out[c] = acc
        return out

    mult = [[[z] * N for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for b in range(n):
            # sum over Delta^2(e_i): h1 -> f_b <- S^{-1}(h3), middle leg q
            # collected as coefficients over (c, q)
            cq = {}
            for (p, q, r), cpq in d2[i]:
                for s in range(n):
                    cs = sinv.data[s][r]
                    if not cs:
                        continue
                    coef0 = f.mul(cpq, cs)
                    for c, ac in arrow(p, s, b).items():
                        key = (c, q)
                        prev = cq.get(key)
                        val = f.mul(coef0, ac)
                        cq[key] = val if prev is None else f.add(prev, val)
            for a in range(n):
                for j in range(n):
                    out = mult[didx(a, i)][didx(b, j)]
                    for (c, q), coef1 in cq.items():
                        if f.is_zero(coef1):
                            continue
                        dk = de  # H* product: f_a f_c = sum_k de[k][a][c] f_k
                        for k in range(n):
                            hk = dk[k][a][c]
                            if not hk:
                                continue
                            coef2 = f.mul(coef1, hk)
                            for l, ml in enumerate(mu[q][j]):
                                if ml:
                                    t = didx(k, l)
                                    out[t] = f.add(out[t], f.mul(coef2, ml))

    unit = [z] * N
    for a in range(n):
        ca = h.coa.counit[a]
        if not ca:
            continue
        for i in range(n):
            ui = h.alg.unit[i]
            if ui:
                unit[didx(a, i)] = f.mul(ca, ui)
    alg = AlgebraData(f, N, mult, unit)

    comult = [[[z] * N for _ in range(N)] for _ in range(N)]
    for a in range(n):
        for i in range(n):
            k0 = didx(a, i)
            tgt = comult[k0]
            for b in range(n):
                for c in range(n):
                    cf = mu[b][c][a]
                    if not cf:
                        continue
                    for p in range(n):
                        row = de[i][p]
                        for q in range(n):
                            cd = row[q]
                            if cd:
                                tgt[didx(c, p)][didx(b, q)] = f.add(
                                    tgt[didx(c, p)][didx(b, q)], f.mul(cf, cd))
    counit = [z] * N
    for a in range(n):
        ua = h.alg.unit[a]
        if not ua:
            continue
        for i in range(n):
            ci = h.coa.counit[i]
            if ci:
                counit[didx(a, i)] = f.mul(ua, ci)
    coa = CoalgebraData(f, N, comult, counit)

    s_mat = _solve_antipode(alg, coa)
    if s_mat is None:
        raise ValueError("double has no antipode: straightening convention broken")
    double = validated(HopfData(alg, coa, s_mat, None,
                                [f"{h.basis[a]}*><{h.basis[i]}" for a in range(n) for i in range(n)]))

    emb = Mat.zeros(f, N, n)
    for j in range(n):
        for a in range(n):
            ca = h.coa.counit[a]
            if ca:
                emb.data[didx(a, j)][j] = ca
    ext = ExtensionData(alg, h.alg, emb).validate()
    return double, ext


def _solve_antipode(alg: AlgebraData, coa: CoalgebraData) -> Optional[Mat]:
    """The two-sided convolution inverse of the identity, as a matrix."""
    f = alg.field
    N = alg.dim
    rows = []
    rhs = []
    for K in range(N):
        dK = [((I, J), coa.comult[K][I][J]) for I in range(N) for J in range(N)
              if coa.comult[K][I][J]]
        for side in (0, 1):
            block = [dict() for _ in range(N)]
            for (I, J), cIJ in dK:
                for T in range(N):
                    prod = alg.mult[T][J] if side == 0 else alg.mult[I][T]
                    unk = T * N + (I if side == 0 else J)
                    for t, pv in enumerate(prod):
                        if pv:
                            d = block[t]
                            d[unk] = f.add(d.get(unk, f.zero), f.mul(cIJ, pv))
            rows.extend(block)
            rhs.extend(f.mul(coa.counit[K], u) for u in alg.unit)
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, N * N))
    if sol is None:
        return None
    if sol.nullspace.cols != 0:
        raise ValueError("antipode solution is not unique; bialgebra structure broken")
    return Mat(f, N, N, [[sol.particular[T * N + I] for I in range(N)] for T in range(N)])


def relative_tensor(ext: ExtensionData) -> RelTensor:
    """R (x)_S R as the quotient of R (x) R by r·i(s) (x) r' - r (x) i(s)·r'."""
    r = ext.big
    f = r.field
    nr = r.dim
    amb = nr * nr
    scols = ext.embedding.columns()
    relations = []
    for s in scols:
        # nonzero coordinates of the products e_i · s and s · e_j
        left = [[(k, x) for k, x in enumerate(r.mul(_basis(f, nr, i), s)) if x]
                for i in range(nr)]
        right = [[(k, x) for k, x in enumerate(r.mul(s, _basis(f, nr, j))) if x]
                 for j in range(nr)]
        for i in range(nr):
            for j in range(nr):
                vec = {k * nr + j: x for k, x in left[i]}
                for k, x in right[j]:
                    col = i * nr + k
                    vec[col] = f.sub(vec.get(col, f.zero), x)
                row = [(c, v) for c, v in vec.items() if v]
                if row:
                    relations.append(row)
    pivots = _rref(relations, amb, f) if relations else []
    rows = relations[: len(pivots)]
    pivot_set = set(pivots)
    free = [c for c in range(amb) if c not in pivot_set]
    return RelTensor(rows, pivots, free, amb, f)


def _basis(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def separable_extension(ext: ExtensionData) -> Optional[ExtensionIdempotent]:
    """Search for e in R (x)_S R with m(e) = 1 and r·e = e·r for all r."""
    r = ext.big
    f = r.field
    nr = r.dim
    rel = relative_tensor(ext)
    q = rel.dim

    legs = [divmod(c, nr) for c in rel.free_cols]  # quotient basis t: class of e_a (x) e_b
    rows = []
    rhs = []
    # m(e) = 1_R
    for k in range(nr):
        rows.append({t: x for t, (a, b) in enumerate(legs) if (x := r.mult[a][b][k])})
        rhs.append(r.unit[k])
    # r·e = e·r in the quotient, for every basis r: e_i·(e_a (x) e_b) - (e_a (x) e_b)·e_i
    for i in range(nr):
        block = [{} for _ in range(q)]
        for t, (a, b) in enumerate(legs):
            diff = {k * nr + b: m for k, m in enumerate(r.mult[i][a]) if m}
            for k, m in enumerate(r.mult[b][i]):
                if m:
                    col = a * nr + k
                    diff[col] = f.sub(diff.get(col, f.zero), m)
            for k, v in rel.project_sparse(diff).items():
                block[k][t] = v
        rows.extend(block)
        rhs.extend([f.zero] * q)
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, q))
    if sol is None:
        return None
    coords = sol.particular
    rep = rel.lift(coords)
    cert = ExtensionIdempotent(coords, rep)
    _verify_extension_idempotent(ext, rel, cert)
    return cert


def _verify_extension_idempotent(ext: ExtensionData, rel: RelTensor, cert: ExtensionIdempotent):
    r = ext.big
    f = r.field
    nr = r.dim
    v = cert.representative
    out = [f.zero] * nr
    for t, x in enumerate(v):
        if x:
            a, b = divmod(t, nr)
            for k, m in enumerate(r.mult[a][b]):
                if m:
                    out[k] = f.add(out[k], f.mul(x, m))
    if not all(f.eq(a, b) for a, b in zip(out, r.unit)):
        raise AssertionError("extension idempotent fails m(e) = 1")
    for i in range(nr):
        lv = [f.zero] * rel.ambient
        rv = [f.zero] * rel.ambient
        for t, x in enumerate(v):
            if not x:
                continue
            a, b = divmod(t, nr)
            for k, m in enumerate(r.mult[i][a]):
                if m:
                    lv[k * nr + b] = f.add(lv[k * nr + b], f.mul(x, m))
            for k, m in enumerate(r.mult[b][i]):
                if m:
                    rv[a * nr + k] = f.add(rv[a * nr + k], f.mul(x, m))
        pl = rel.project(lv)
        pr = rel.project(rv)
        if not all(f.eq(a, b) for a, b in zip(pl, pr)):
            raise AssertionError(f"extension idempotent fails bilinearity at basis {i}")


def trivial_extension_over_base(alg: AlgebraData) -> ExtensionData:
    """R/K with S = K embedded on the unit."""
    f = alg.field
    one = [[f.one]]
    small = AlgebraData(f, 1, [[[f.one]]], [f.one])
    emb = Mat.from_columns(f, [list(alg.unit)])
    return ExtensionData(alg, small, emb).validate()


def double_separable_over_h(h: HopfData) -> bool:
    """Whether D(H)/H is separable; the paper ties this to ad-invariant integrals."""
    _, ext = drinfeld_double(h)
    return separable_extension(ext) is not None
