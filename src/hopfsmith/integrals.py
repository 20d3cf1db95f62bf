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
from .linalg import AffineSystem, Mat, SparseMat, nullspace, solve_affine, spans_equal
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
    ns = nullspace(_integral_system(target, side))
    basis = SubspaceBasis(h.dim, ns.columns())
    _verify_integral_space(target, basis, side)
    return basis


def _verify_integral_space(h: HopfData, basis: SubspaceBasis, side: str):
    f = h.field
    n = h.dim
    for t in basis.vectors:
        for i in range(n):
            e = _unitvec(f, n, i)
            prod = h.mul(e, t) if side == "left" else h.mul(t, e)
            want = [f.mul(h.coa.counit[i], x) for x in t]
            if not all(f.eq(a, b) for a, b in zip(prod, want)):
                raise AssertionError(f"integral space vector fails defining identity at basis {i}")


def is_unimodular(h: HopfData, carrier: str = "in_h") -> bool:
    left = integral_space(h, "left", carrier)
    right = integral_space(h, "right", carrier)
    return spans_equal(h.field, left.vectors, right.vectors)


def total_integral(h: HopfData, carrier: str = "in_h") -> Optional[IntegralCertificate]:
    """A left integral normalized against the augmentation, when possible."""
    f = h.field
    space = integral_space(h, "left", carrier)
    target = h if carrier == "in_h" else None
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


def ad_invariant_integral(h: HopfData) -> Optional[IntegralCertificate]:
    """The unique functional with (a) h_1 lam(h_2) = 1 lam(h), (b) lam(h|>x) =
    eps(h) lam(x), (c) lam(1) = 1; or None."""
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
    # (b): lam(e_k |> e_t) = eps(e_k) lam(e_t)
    for k in range(n):
        ek = h.coa.counit[k]
        for t in range(n):
            row = {j: c for j, c in enumerate(adl.tensor[k][t]) if c}
            if ek:
                row[t] = f.sub(row.get(t, f.zero), ek)
            rows.append(row)
            rhs.append(f.zero)
    # (c): lam(1) = 1
    rows.append({j: u for j, u in enumerate(h.alg.unit) if u})
    rhs.append(f.one)
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, n))
    if sol is None:
        return None
    if sol.nullspace.cols != 0:
        raise AssertionError("ad-invariant integral is not unique; theory violated")
    lam = sol.particular
    _verify_ad_invariant(h, lam)
    return IntegralCertificate("left", "in_dual", lam, total=True, ad_invariant=True)


def _verify_ad_invariant(h: HopfData, lam: list):
    f = h.field
    n = h.dim

    def ev(v):
        acc = f.zero
        for x, l in zip(v, lam):
            if x and l:
                acc = f.add(acc, f.mul(x, l))
        return acc

    for k in range(n):
        acc = [f.zero] * n
        for i in range(n):
            for j, c in enumerate(h.coa.comult[k][i]):
                if c and lam[j]:
                    acc[i] = f.add(acc[i], f.mul(c, lam[j]))
        want = [f.mul(lam[k], u) for u in h.alg.unit]
        if not all(f.eq(a, b) for a, b in zip(acc, want)):
            raise AssertionError("ad-invariant condition (a) fails")
    adl = adjoint_action(h, "adl")
    for k in range(n):
        for t in range(n):
            lhs = ev(adl.tensor[k][t])
            rhs = f.mul(h.coa.counit[k], lam[t])
            if not f.eq(lhs, rhs):
                raise AssertionError("ad-invariant condition (b) fails")
    if not f.eq(ev(h.alg.unit), f.one):
        raise AssertionError("ad-invariant condition (c) fails")


def ad_coinvariant_integral(h: HopfData) -> Optional[IntegralCertificate]:
    """The unique t with (a) ht = eps(h)t, (b) t_1 S(t_3) (x) t_2 = 1 (x) t,
    (c) eps(t) = 1; or None."""
    f = h.field
    n = h.dim
    rho = adjoint_coaction(h, "rho_l")
    # (a): left integral rows
    rows = [dict(row) for row in _integral_system(h, "left").data]
    rhs = [f.zero] * len(rows)
    # (b): rho_l(t) = 1 (x) t  componentwise in H (x) H
    for i in range(n):
        u = h.alg.unit[i]
        for k in range(n):
            row = {j: c for j in range(n) if (c := rho.tensor[j][i][k])}
            if u:
                row[k] = f.sub(row.get(k, f.zero), u)
            rows.append(row)
            rhs.append(f.zero)
    # (c): eps(t) = 1
    rows.append({j: e for j, e in enumerate(h.coa.counit) if e})
    rhs.append(f.one)
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, n))
    if sol is None:
        return None
    if sol.nullspace.cols != 0:
        raise AssertionError("ad-coinvariant integral is not unique; theory violated")
    t = sol.particular
    cert = IntegralCertificate("left", "in_h", t, total=True, ad_coinvariant=True)
    return cert


def four_linearity_flags(h: HopfData, lam: list) -> dict:
    """For a functional lam, whether it is (co)linear for |>, <|, |>>, <<|.

    For a total integral the four answers must agree pairwise.
    """
    f = h.field
    n = h.dim
    out = {}
    for which in ("adl", "adr", "adl_bar", "adr_bar"):
        act = adjoint_action(h, which)
        ok = True
        for k in range(n):
            for t in range(n):
                acc = f.zero
                for j, c in enumerate(act.tensor[k][t]):
                    if c and lam[j]:
                        acc = f.add(acc, f.mul(c, lam[j]))
                if not f.eq(acc, f.mul(h.coa.counit[k], lam[t])):
                    ok = False
                    break
            if not ok:
                break
        out[which] = ok
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
    return AffineSystem.sparse(f, rows, rhs, n * n)


def _blind_idempotent(h: HopfData) -> Optional[list]:
    """Affine search for e in H (x) H with m(e) = 1, (h (x) 1)e = e(1 (x) h)."""
    sol = solve_affine(idempotent_system(h.alg))
    return None if sol is None else sol.particular


def separability_idempotent(h: HopfData) -> Optional[SeparabilityCertificate]:
    """e = t_1 (x) S(t_2) from a total integral; blind search cross-checked."""
    f = h.field
    n = h.dim
    cert_total = total_integral(h, "in_h")
    blind = _blind_idempotent(h)
    if (cert_total is None) != (blind is None):
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
    verified = _verify_idempotent(h, e)
    return SeparabilityCertificate("idempotent_for_algebra", e, verified)


def _verify_idempotent(h: HopfData, e: list) -> list:
    f = h.field
    n = h.dim
    out = [f.zero] * n
    for t, x in enumerate(e):
        if x:
            i, j = divmod(t, n)
            for k, m in enumerate(h.alg.mult[i][j]):
                if m:
                    out[k] = f.add(out[k], f.mul(x, m))
    if not all(f.eq(a, b) for a, b in zip(out, h.alg.unit)):
        raise AssertionError("separability idempotent fails m(e) = 1")
    for a in range(n):
        lhs = [f.zero] * (n * n)
        rhs = [f.zero] * (n * n)
        for t, x in enumerate(e):
            if not x:
                continue
            i, j = divmod(t, n)
            for k, m in enumerate(h.alg.mult[a][i]):
                if m:
                    lhs[k * n + j] = f.add(lhs[k * n + j], f.mul(x, m))
            for k, m in enumerate(h.alg.mult[j][a]):
                if m:
                    rhs[i * n + k] = f.add(rhs[i * n + k], f.mul(x, m))
        if not all(f.eq(p, q) for p, q in zip(lhs, rhs)):
            raise AssertionError(f"separability idempotent fails bilinearity at basis {a}")
    return ["m(e)=1", "bilinear"]


def _blind_retraction(h: HopfData) -> Optional[Mat]:
    """Affine search for bicolinear theta: H (x) H -> H with theta∘Delta = id."""
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
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, nunk))
    if sol is None:
        return None
    x = sol.particular
    return Mat(f, n, nn, [[x[unk(k, i, j)] for i in range(n) for j in range(n)]
                          for k in range(n)])


def coseparability_retraction(h: HopfData) -> Optional[SeparabilityCertificate]:
    """theta_lambda(x (x) y) = x_1 lam(x_2 S(y)) from a total lam in H*."""
    f = h.field
    n = h.dim
    cert_total = total_integral(h, "in_dual")
    blind = _blind_retraction(h)
    if (cert_total is None) != (blind is None):
        raise AssertionError("total-integral route and blind retraction search disagree")
    if cert_total is None:
        return None
    lam = cert_total.vector

    def lam_ev(v):
        acc = f.zero
        for x, l in zip(v, lam):
            if x and l:
                acc = f.add(acc, f.mul(x, l))
        return acc

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
                    val = lam_ev(h.mul(_unitvec(f, n, q), sy))
                    if not f.is_zero(val):
                        theta.data[p][col] = f.add(theta.data[p][col], f.mul(c, val))
    verified = _verify_retraction(h, theta, lam)
    return SeparabilityCertificate("retraction_for_coalgebra", theta, verified)


def _verify_retraction(h: HopfData, theta: Mat, lam: Optional[list] = None) -> list:
    f = h.field
    n = h.dim
    # theta ∘ Delta = id
    for k in range(n):
        out = theta.matvec(h.coa.delta_basis(k))
        if not all(f.eq(a, b) for a, b in zip(out, _unitvec(f, n, k))):
            raise AssertionError("retraction fails theta∘Delta = id")
    # bicolinearity as matrix identities
    for i in range(n):
        for j in range(n):
            v = [f.zero] * (n * n)
            v[i * n + j] = f.one
            tv = theta.matvec(v)
            dtv = h.delta(tv)
            # left: x_1 (x) theta(x_2 (x) y)
            left = [f.zero] * (n * n)
            for p in range(n):
                for a, c in enumerate(h.coa.comult[i][p]):
                    if c:
                        w = [f.zero] * (n * n)
                        w[a * n + j] = f.one
                        tw = theta.matvec(w)
                        for q, x in enumerate(tw):
                            if x:
                                left[p * n + q] = f.add(left[p * n + q], f.mul(c, x))
            # right: theta(x (x) y_1) (x) y_2
            right = [f.zero] * (n * n)
            for a in range(n):
                for q, c in enumerate(h.coa.comult[j][a]):
                    if c:
                        w = [f.zero] * (n * n)
                        w[i * n + a] = f.one
                        tw = theta.matvec(w)
                        for p, x in enumerate(tw):
                            if x:
                                right[p * n + q] = f.add(right[p * n + q], f.mul(c, x))
            if not all(f.eq(a, b) for a, b in zip(dtv, left)):
                raise AssertionError("retraction fails left colinearity")
            if not all(f.eq(a, b) for a, b in zip(dtv, right)):
                raise AssertionError("retraction fails right colinearity")
    verified = ["theta∘Delta=id", "bicolinear"]
    if lam is not None:
        # both sides of the defining exchange identity:
        # x_1 lam(x_2 S(y)) = lam(x S(y_1)) y_2
        for i in range(n):
            for j in range(n):
                v = [f.zero] * (n * n)
                v[i * n + j] = f.one
                lhs = theta.matvec(v)
                rhs = [f.zero] * n
                for a in range(n):
                    for b, c in enumerate(h.coa.comult[j][a]):
                        if not c:
                            continue
                        val = f.zero
                        sv = h.s_vec(_unitvec(f, n, a))
                        prod = h.mul(_unitvec(f, n, i), sv)
                        for t, x in enumerate(prod):
                            if x and lam[t]:
                                val = f.add(val, f.mul(x, lam[t]))
                        if not f.is_zero(val):
                            rhs[b] = f.add(rhs[b], f.mul(c, val))
                if not all(f.eq(a, b) for a, b in zip(lhs, rhs)):
                    raise AssertionError("retraction fails the exchange identity")
        verified.append("exchange-identity")
    return verified
