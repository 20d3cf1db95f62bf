"""Integrals in H and H*, ad-(co)invariant integrals, and the explicit
(co)separability certificates they generate.

Two independent routes are kept for each separability question: the closed
formula built from a total integral (sigma_t resp. theta_lambda) and a blind
affine search for any certificate.  Their agreement is asserted on every
call; it is the computable content of the equivalence between total
integrals and (co)separability.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .hopf import AlgebraData, HopfData, SubspaceBasis, _unitvec
from .linalg import (AffineSystem, Mat, SparseMat, nullspace, require_labels, solve_affine,
                     spans_equal)
from .yd import adjoint_action, adjoint_coaction


@dataclass
class IntegralCertificate:
    side: str               # "left" | "right"
    carrier: str            # "in_h" | "in_dual"
    vector: list            # element of H, or functional coefficients on H
    total: bool = False
    ad_invariant: bool = False
    ad_coinvariant: bool = False


@dataclass
class SeparabilityCertificate:
    kind: str               # "idempotent_for_algebra" | "retraction_for_coalgebra"
    data: object            # e in H (x) H (flat list) or Mat of theta: H (x) H -> H
    verified: list = dc_field(default_factory=list)


def _integral_system(h: HopfData, side: str) -> SparseMat:
    """Stacked rows of (L_{e_i} - eps(e_i)·id), or of R_{e_i} for the right side,
    whose kernel is the (left|right) integrals."""
    f = h.field
    n = h.dim
    mult = h.alg.mult
    rows = []
    for i in range(n):
        block = [{} for _ in range(n)]
        for j in range(n):
            for r, c in enumerate(mult[i][j] if side == "left" else mult[j][i]):
                if c:
                    block[r][j] = c
        e = h.coa.counit[i]
        if e:
            for r, row in enumerate(block):
                row[r] = f.sub(row.get(r, f.zero), e)
        rows.extend([(j, x) for j, x in row.items() if x] for row in block)
    return SparseMat(f, len(rows), n, rows)


def integral_space(h: HopfData, side: str = "left", carrier: str = "in_h") -> SubspaceBasis:
    """Basis of the space of (left|right) integrals in H or in H*."""
    if carrier not in ("in_h", "in_dual"):
        raise ValueError(f"carrier must be in_h or in_dual, got {carrier!r}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be left or right, got {side!r}")
    from .hopf import dual_hopf
    target = h if carrier == "in_h" else dual_hopf(h)
    system = _integral_system(target, side)
    basis = SubspaceBasis(h.dim, nullspace(system).columns())
    _verify_integral_space(target, basis, side, system)
    return basis


def _verify_integral_space(h: HopfData, basis: SubspaceBasis, side: str,
                           system: Optional[SparseMat] = None):
    """Check every basis vector against the rows h t = eps(h) t (or t h = eps(h) t)."""
    system = system or _integral_system(h, side)
    sys = AffineSystem(system, [h.field.zero] * system.rows, labels=[side] * system.rows)
    for t in basis.vectors:
        require_labels(sys, t, "integral space vector")


def _pair(f, lam: list, v: list):
    """lam(v) for a functional given by its values on the basis."""
    acc = f.zero
    for x, l in zip(v, lam):
        if x and l:
            acc = f.add(acc, f.mul(x, l))
    return acc


def is_unimodular(h: HopfData, carrier: str = "in_h") -> bool:
    left = integral_space(h, "left", carrier)
    right = integral_space(h, "right", carrier)
    return spans_equal(h.field, left.vectors, right.vectors)


def total_integral(h: HopfData, carrier: str = "in_h") -> Optional[IntegralCertificate]:
    """A left integral normalized against the augmentation, when possible."""
    f = h.field
    space = integral_space(h, "left", carrier)
    for t in space.vectors:
        # normalization functional: eps over in_h, evaluation at 1 over in_dual
        if carrier == "in_h":
            val = h.eps(t)
        else:
            val = f.zero
            for lam_i, u_i in zip(t, h.alg.unit):
                val = f.add(val, f.mul(lam_i, u_i))
        if not f.is_zero(val):
            inv = f.inv(val)
            vec = [f.mul(inv, x) for x in t]
            return IntegralCertificate("left", carrier, vec, total=True)
    # the normalization functional can vanish on single basis vectors yet not on
    # a combination only if it vanishes on all of them (it is linear), so "none"
    return None


def _ad_invariant_system(h: HopfData) -> AffineSystem:
    """Rows of (a) h_1 lam(h_2) = 1 lam(h), (b) lam(h|>x) = eps(h) lam(x) and
    (c) lam(1) = 1 in the values lam(e_j)."""
    f = h.field
    n = h.dim
    adl = adjoint_action(h, "adl")
    rows = []
    rhs = []
    # (a): for each k: sum_j comult[k][i][j] lam_j - lam_k unit_i = 0, all i
    for k in range(n):
        for i in range(n):
            row = {j: c for j, c in enumerate(h.coa.comult[k][i]) if c}
            u = h.alg.unit[i]
            if u:
                row[k] = f.sub(row.get(k, f.zero), u)
            rows.append(row)
            rhs.append(f.zero)
    labels = ["a"] * len(rows)
    # (b): lam(e_k |> e_t) = eps(e_k) lam(e_t)
    for k in range(n):
        ek = h.coa.counit[k]
        for t in range(n):
            row = {j: c for j, c in enumerate(adl.tensor[k][t]) if c}
            if ek:
                row[t] = f.sub(row.get(t, f.zero), ek)
            rows.append(row)
            rhs.append(f.zero)
    labels += ["b"] * (len(rows) - len(labels)) + ["c"]
    # (c): lam(1) = 1
    rows.append({j: u for j, u in enumerate(h.alg.unit) if u})
    rhs.append(f.one)
    return AffineSystem.sparse(f, rows, rhs, n, labels)


def ad_invariant_integral(h: HopfData) -> Optional[IntegralCertificate]:
    """The unique functional with (a) h_1 lam(h_2) = 1 lam(h), (b) lam(h|>x) =
    eps(h) lam(x), (c) lam(1) = 1; or None."""
    sys = _ad_invariant_system(h)
    sol = solve_affine(sys)
    if sol is None:
        return None
    if sol.nullspace.cols != 0:
        raise AssertionError("ad-invariant integral is not unique; theory violated")
    lam = sol.particular
    _verify_ad_invariant(h, lam, sys)
    return IntegralCertificate("left", "in_dual", lam, total=True, ad_invariant=True)


def _verify_ad_invariant(h: HopfData, lam: list, sys: Optional[AffineSystem] = None) -> list:
    return require_labels(sys or _ad_invariant_system(h), lam, "ad-invariant integral")


def ad_coinvariant_integral(h: HopfData) -> Optional[IntegralCertificate]:
    """The unique t with (a) ht = eps(h)t, (b) t_1 S(t_3) (x) t_2 = 1 (x) t,
    (c) eps(t) = 1; or None."""
    f = h.field
    n = h.dim
    rho = adjoint_coaction(h, "rho_l")
    # (a): left integral rows
    rows = [dict(row) for row in _integral_system(h, "left").data]
    rhs = [f.zero] * len(rows)
    labels = ["a"] * len(rows)
    # (b): rho_l(t) = 1 (x) t  componentwise in H (x) H
    for i in range(n):
        u = h.alg.unit[i]
        for k in range(n):
            row = {j: c for j in range(n) if (c := rho.tensor[j][i][k])}
            if u:
                row[k] = f.sub(row.get(k, f.zero), u)
            rows.append(row)
            rhs.append(f.zero)
    labels += ["b"] * (len(rows) - len(labels)) + ["c"]
    # (c): eps(t) = 1
    rows.append({j: e for j, e in enumerate(h.coa.counit) if e})
    rhs.append(f.one)
    sys = AffineSystem.sparse(f, rows, rhs, n, labels)
    sol = solve_affine(sys)
    if sol is None:
        return None
    if sol.nullspace.cols != 0:
        raise AssertionError("ad-coinvariant integral is not unique; theory violated")
    t = sol.particular
    require_labels(sys, t, "ad-coinvariant integral")
    return IntegralCertificate("left", "in_h", t, total=True, ad_coinvariant=True)


def four_linearity_flags(h: HopfData, lam: list) -> dict:
    """For a functional lam, whether it is (co)linear for |>, <|, |>>, <<|.

    For a total integral the four answers must agree pairwise.
    """
    f = h.field
    n = h.dim
    out = {}
    for which in ("adl", "adr", "adl_bar", "adr_bar"):
        act = adjoint_action(h, which)
        out[which] = all(_pair(f, lam, act.tensor[k][t]) == f.mul(h.coa.counit[k], lam[t])
                         for k in range(n) for t in range(n))
    return out


def four_coinvariance_flags(h: HopfData, t: list) -> dict:
    """For an element t, coinvariance under the four adjoint coactions."""
    f = h.field
    n = h.dim
    out = {}
    for which in ("rho_l", "rho_r", "rho_r_bar", "rho_l_bar"):
        rho = adjoint_coaction(h, which)
        flat = rho.coact(t)
        if rho.side == "left":
            want = [f.zero] * (n * n)
            for i, u in enumerate(h.alg.unit):
                if u:
                    for k, x in enumerate(t):
                        if x:
                            want[i * n + k] = f.mul(u, x)
        else:
            want = [f.zero] * (n * n)
            for k, x in enumerate(t):
                if x:
                    for i, u in enumerate(h.alg.unit):
                        if u:
                            want[k * n + i] = f.mul(x, u)
        out[which] = all(f.eq(a, b) for a, b in zip(flat, want))
    return out


# ---------------------------------------------------------------------------
# Separability idempotents and coseparability retractions
# ---------------------------------------------------------------------------

def idempotent_system(a: AlgebraData) -> AffineSystem:
    """The affine system for e in A (x) A with m(e) = 1 and (x (x) 1)e = e(1 (x) x)."""
    f = a.field
    n = a.dim
    mult = a.mult
    rows = []
    rhs = []
    # m(e) = 1
    for k in range(n):
        rows.append({i * n + j: c for i in range(n) for j in range(n) if (c := mult[i][j][k])})
        rhs.append(a.unit[k])
    labels = ["m(e)=1"] * n + ["bilinear"] * n ** 3
    # (e_x (x) 1) e = e (1 (x) e_x): components (p, q)
    for x in range(n):
        for p in range(n):
            for q in range(n):
                row = {i * n + q: c for i in range(n) if (c := mult[x][i][p])}
                for j in range(n):
                    c = mult[j][x][q]
                    if c:
                        col = p * n + j
                        row[col] = f.sub(row.get(col, f.zero), c)
                rows.append(row)
                rhs.append(f.zero)
    return AffineSystem.sparse(f, rows, rhs, n * n, labels)


def _blind_idempotent(sys: AffineSystem) -> bool:
    """Whether the idempotent system has any solution e, formula or not."""
    return solve_affine(sys) is not None


def separability_idempotent(h: HopfData) -> Optional[SeparabilityCertificate]:
    """e = t_1 (x) S(t_2) from a total integral; blind search cross-checked."""
    f = h.field
    n = h.dim
    cert_total = total_integral(h, "in_h")
    sys = idempotent_system(h.alg)
    if (cert_total is not None) != _blind_idempotent(sys):
        raise AssertionError("total-integral route and blind idempotent search disagree")
    if cert_total is None:
        return None
    t = cert_total.vector
    flat = h.delta(t)
    e = [f.zero] * (n * n)
    for i in range(n):
        for j in range(n):
            c = flat[i * n + j]
            if c:
                sj = h.s_vec(_unitvec(f, n, j))
                for k, v in enumerate(sj):
                    if v:
                        e[i * n + k] = f.add(e[i * n + k], f.mul(c, v))
    return SeparabilityCertificate("idempotent_for_algebra", e, _verify_idempotent(h, e, sys))


def _verify_idempotent(h: HopfData, e: list, sys: Optional[AffineSystem] = None) -> list:
    return require_labels(sys or idempotent_system(h.alg), e, "separability idempotent")


def retraction_system(h: HopfData) -> AffineSystem:
    """The affine system for bicolinear theta: H (x) H -> H with theta∘Delta = id,
    in the entries theta[k][(i, j)], unknown k*n^2 + i*n + j."""
    f = h.field
    n = h.dim
    nn = n * n
    nunk = n * nn  # theta[k][(i,j)]

    def unk(k, i, j):
        return k * nn + i * n + j

    comult = h.coa.comult
    # Delta(e_k) has coefficient comult[k][p][q] at (p, q)
    delta_at = [[[(k, c) for k in range(n) if (c := comult[k][p][q])] for q in range(n)]
                for p in range(n)]
    rows = []
    rhs = []
    # theta(Delta(e_k)) = e_k
    for k in range(n):
        flat = h.coa.delta_basis(k)
        for out_k in range(n):
            rows.append({out_k * nn + t: c for t, c in enumerate(flat) if c})
            rhs.append(f.one if out_k == k else f.zero)
    labels = ["theta∘Delta=id"] * nn + ["bicolinear"] * (2 * nn * nn)

    def colinearity_row(row, p, q, i, j):  # row holds the theta-side terms
        for k, c in delta_at[p][q]:
            col = unk(k, i, j)
            row[col] = f.sub(row.get(col, f.zero), c)
        rows.append(row)
        rhs.append(f.zero)

    # left colinearity: (id (x) theta)(Delta (x) id) = Delta∘theta on e_i (x) e_j
    # components (p, q) in H (x) H
    for i in range(n):
        di = comult[i]
        for j in range(n):
            for p in range(n):
                dip = [(a, c) for a, c in enumerate(di[p]) if c]
                for q in range(n):
                    colinearity_row({unk(q, a, j): c for a, c in dip}, p, q, i, j)
    # right colinearity: (theta (x) id)(id (x) Delta) = Delta∘theta
    for i in range(n):
        for j in range(n):
            dj = comult[j]
            for p in range(n):
                for q in range(n):
                    colinearity_row({unk(p, i, a): c for a in range(n) if (c := dj[a][q])},
                                    p, q, i, j)
    return AffineSystem.sparse(f, rows, rhs, nunk, labels)


def _blind_retraction(sys: AffineSystem) -> bool:
    """Whether the retraction system has any solution theta, formula or not."""
    return solve_affine(sys) is not None


def coseparability_retraction(h: HopfData) -> Optional[SeparabilityCertificate]:
    """theta_lambda(x (x) y) = x_1 lam(x_2 S(y)) from a total lam in H*."""
    f = h.field
    n = h.dim
    cert_total = total_integral(h, "in_dual")
    sys = retraction_system(h)
    if (cert_total is not None) != _blind_retraction(sys):
        raise AssertionError("total-integral route and blind retraction search disagree")
    if cert_total is None:
        return None
    lam = cert_total.vector
    theta = Mat.zeros(f, n, n * n)
    for i in range(n):
        di = h.coa.comult[i]
        for j in range(n):
            sy = h.s_vec(_unitvec(f, n, j))
            col = i * n + j
            for p in range(n):
                for q, c in enumerate(di[p]):
                    if not c:
                        continue
                    val = _pair(f, lam, h.mul(_unitvec(f, n, q), sy))
                    if not f.is_zero(val):
                        theta.data[p][col] = f.add(theta.data[p][col], f.mul(c, val))
    verified = _verify_retraction(h, theta, lam, sys)
    return SeparabilityCertificate("retraction_for_coalgebra", theta, verified)


def _verify_retraction(h: HopfData, theta: Mat, lam: Optional[list] = None,
                       sys: Optional[AffineSystem] = None) -> list:
    f = h.field
    n = h.dim
    verified = require_labels(sys or retraction_system(h),
                              [x for row in theta.data for x in row], "retraction")
    if lam is not None:
        # both sides of the defining exchange identity:
        # x_1 lam(x_2 S(y)) = lam(x S(y_1)) y_2
        for i in range(n):
            for j in range(n):
                rhs = [f.zero] * n
                for a in range(n):
                    val = _pair(f, lam, h.mul(_unitvec(f, n, i), h.s_vec(_unitvec(f, n, a))))
                    for b, c in enumerate(h.coa.comult[j][a]):
                        rhs[b] = f.add(rhs[b], f.mul(c, val))
                if theta.column(i * n + j) != rhs:
                    raise AssertionError("retraction fails the exchange identity")
        verified.append("exchange-identity")
    return verified
