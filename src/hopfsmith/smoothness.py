"""Formal-smoothness certificates: fs-sections on H^+ and fs-retractions on Hbar.

An fs-section is a linear tau: H^+ -> H (x) H^+ with

    (i)   tau(h x) = (h (x) 1) tau(x)
    (ii)  multiply-and-sum returns x
    (iii) [complete] sum a_1 b_1 S(a_3 b_3) (x) a_2 (x) b_2
          = x_1 S(x_3) (x) tau(x_2)

and an fs-retraction a linear chi: H (x) Hbar -> Hbar with

    (i)   a_1 (x) abar_2 = x_1 (x) chi(x_2 (x) ybar)   for abar = chi(x (x) ybar)
    (ii)  chi(x_1 (x) xbar_2) = xbar
    (iii) [complete] chi[h_1 x S(h_4) (x) (h_2 y S(h_3))bar] = (h_1 a S(h_2))bar.

Feasibility over the basis is an affine problem in the n(n-1)^2 entries of
the map; bilinearity of every condition makes basis verification equivalent
to the universally quantified statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional

from .hopf import HopfData, _unitvec
from .linalg import AffineSystem, Mat, solve_affine
from .yd import h_bar_yd, h_plus_yd


@dataclass
class SectionCertificate:
    kind: str                      # fs_section | complete_fs_section | fs_retraction | complete_fs_retraction
    matrix: Mat                    # tau: H^+ -> H (x) H^+, or chi: H (x) Hbar -> Hbar
    verified_conditions: list
    nullspace: Optional[Mat] = None
    context: dict = dc_field(default_factory=dict)  # basis/splitting data for re-evaluation


# ---------------------------------------------------------------------------
# fs-sections
# ---------------------------------------------------------------------------

def _fs_section_system(h: HopfData, complete: bool):
    f = h.field
    n = h.dim
    yd, hp = h_plus_yd(h)
    m = hp.dim

    def unk(i, a, b):
        return (i * m + a) * m + b

    nunk = n * m * m
    rows = []
    rhs = []

    # product coordinates e_j · v_b inside H^+
    prod_coords = [[hp.coords_of(f, h.mul(_unitvec(f, n, j), hp.vectors[b]))
                    for b in range(m)] for j in range(n)]

    # (i) tau(e_j v_b) = (e_j (x) 1) tau(v_b): components (p, a)
    for j in range(n):
        for b in range(m):
            gamma = [(c, g) for c, g in enumerate(prod_coords[j][b]) if g]
            for p in range(n):
                mu_p = [(i, mu) for i in range(n) if (mu := h.alg.mult[j][i][p])]
                for a in range(m):
                    row = {unk(p, a, c): g for c, g in gamma}
                    for i, mu in mu_p:
                        col = unk(i, a, b)
                        row[col] = f.sub(row.get(col, f.zero), mu)
                    rows.append(row)
                    rhs.append(f.zero)

    # (ii) sum a_i b_i = x: components over H
    prod_h = [[h.mul(_unitvec(f, n, i), hp.vectors[a]) for a in range(m)] for i in range(n)]
    for b in range(m):
        target = hp.vectors[b]
        for k in range(n):
            rows.append({unk(i, a, b): c for i in range(n) for a in range(m)
                         if (c := prod_h[i][a][k])})
            rhs.append(target[k])

    if complete:
        # constant tensors Theta[i][a] in H (x) H (x) H^+ for tau-entry e_i (x) v_a
        coat = yd.coaction.tensor  # rho(v_b) = sum coat[b][w][d] e_w (x) v_d
        theta = {}
        for i in range(n):
            d2i = h.coa.delta_iter(_unitvec(f, n, i), 3)
            nz_i = [(t, c) for t, c in enumerate(d2i) if c]
            for a in range(m):
                d2a = h.coa.delta_iter(hp.vectors[a], 3)
                acc = {}
                for t1, c1 in nz_i:
                    r = t1 % n
                    q = (t1 // n) % n
                    p = t1 // (n * n)
                    for t2, c2 in enumerate(d2a):
                        if not c2:
                            continue
                        z = t2 % n
                        y = (t2 // n) % n
                        x = t2 // (n * n)
                        coef = f.mul(c1, c2)
                        first = h.mul(h.alg.mult[p][x],
                                      h.s_vec(h.alg.mult[r][z]))
                        for w, fv in enumerate(first):
                            if fv:
                                key = (w, q, y)
                                acc[key] = f.add(acc.get(key, f.zero), f.mul(coef, fv))
                # rewrite the third leg in H^+ coordinates
                out = {}
                third = {}
                for (w, q, y), v in acc.items():
                    third.setdefault((w, q), [f.zero] * n)[y] = f.add(
                        third.setdefault((w, q), [f.zero] * n)[y], v)
                for (w, q), vec in third.items():
                    coords = hp.coords_of(f, vec)
                    if coords is None:
                        raise AssertionError("completeness tensor escaped H (x) H (x) H^+")
                    for d, v in enumerate(coords):
                        if not f.is_zero(v):
                            out[(w, q, d)] = v
                theta[(i, a)] = out
        for b in range(m):
            lhs_rows = {}
            for i in range(n):
                for a in range(m):
                    for key, v in theta[(i, a)].items():
                        lhs_rows.setdefault(key, {})[unk(i, a, b)] = v
            rhs_rows = {}
            for w in range(n):
                for c, g in enumerate(coat[b][w]):
                    if g:
                        # g · e_w (x) tau(v_c): spreads over unknowns T[(q,d),c]
                        for q in range(n):
                            for d in range(m):
                                rhs_rows.setdefault((w, q, d), {})[unk(q, d, c)] = g
            keys = set(lhs_rows) | set(rhs_rows)
            for key in sorted(keys):
                row = dict(lhs_rows.get(key, {}))
                for u, v in rhs_rows.get(key, {}).items():
                    row[u] = f.sub(row.get(u, f.zero), v)
                rows.append(row)
                rhs.append(f.zero)

    return rows, rhs, nunk, hp, yd


def _tau_matrix(f, n, m, particular):
    def unk(i, a, b):
        return (i * m + a) * m + b
    return Mat(f, n * m, m, [[particular[unk(i, a, b)] for b in range(m)]
                             for i in range(n) for a in range(m)])


def find_fs_section(h: HopfData) -> Optional[SectionCertificate]:
    return _find_section(h, complete=False)


def find_complete_fs_section(h: HopfData) -> Optional[SectionCertificate]:
    return _find_section(h, complete=True)


def _find_section(h: HopfData, complete: bool) -> Optional[SectionCertificate]:
    f = h.field
    n = h.dim
    if h.dim == 1:
        kind = "complete_fs_section" if complete else "fs_section"
        conds = ["i", "ii", "iii"] if complete else ["i", "ii"]
        return SectionCertificate(kind, Mat(f, 0, 0, []), conds, None,
                                  {"hplus_basis": []})
    rows, rhs, nunk, hp, yd = _fs_section_system(h, complete)
    m = hp.dim
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, nunk))
    if sol is None:
        return None
    tau = _tau_matrix(f, n, m, sol.particular)
    kind = "complete_fs_section" if complete else "fs_section"
    cert = SectionCertificate(kind, tau, [], sol.nullspace,
                              {"hplus_basis": hp.vectors, "yd": yd})
    cert.verified_conditions = verify_fs_section(h, cert, complete)
    return cert


def verify_fs_section(h: HopfData, cert: SectionCertificate, complete: bool) -> list:
    """Re-evaluate conditions (i), (ii) (and (iii)) for a given tau matrix."""
    f = h.field
    n = h.dim
    hp_vectors = cert.context["hplus_basis"]
    m = len(hp_vectors)
    if m == 0:
        return ["i", "ii", "iii"] if complete else ["i", "ii"]
    from .hopf import SubspaceBasis
    hp = SubspaceBasis(n, hp_vectors)
    tau = cert.matrix

    def tau_of(coords):  # H^+ coords -> flat H (x) H^+ vector
        return tau.matvec(coords)

    verified = []
    ok = True
    for j in range(n):
        for b in range(m):
            gamma = hp.coords_of(f, h.mul(_unitvec(f, n, j), hp_vectors[b]))
            lhs = tau_of(gamma)
            tb = tau_of(_unitvec(f, m, b))
            rhs = [f.zero] * (n * m)
            for t, x in enumerate(tb):
                if x:
                    i, a = divmod(t, m)
                    for p, mu in enumerate(h.alg.mult[j][i]):
                        if mu:
                            rhs[p * m + a] = f.add(rhs[p * m + a], f.mul(x, mu))
            if not all(f.eq(p, q) for p, q in zip(lhs, rhs)):
                ok = False
    if ok:
        verified.append("i")
    ok = True
    for b in range(m):
        tb = tau_of(_unitvec(f, m, b))
        acc = [f.zero] * n
        for t, x in enumerate(tb):
            if x:
                i, a = divmod(t, m)
                prod = h.mul(_unitvec(f, n, i), hp_vectors[a])
                for k, v in enumerate(prod):
                    if v:
                        acc[k] = f.add(acc[k], f.mul(x, v))
        if not all(f.eq(p, q) for p, q in zip(acc, hp_vectors[b])):
            ok = False
    if ok:
        verified.append("ii")
    if complete:
        ok = True
        for b in range(m):
            tb = tau_of(_unitvec(f, m, b))
            lhs = {}
            for t, xval in enumerate(tb):
                if not xval:
                    continue
                i, a = divmod(t, m)
                d2i = h.coa.delta_iter(_unitvec(f, n, i), 3)
                d2a = h.coa.delta_iter(hp_vectors[a], 3)
                for t1, c1 in enumerate(d2i):
                    if not c1:
                        continue
                    r = t1 % n
                    q = (t1 // n) % n
                    p = t1 // (n * n)
                    for t2, c2 in enumerate(d2a):
                        if not c2:
                            continue
                        z = t2 % n
                        y = (t2 // n) % n
                        x = t2 // (n * n)
                        coef = f.mul(f.mul(c1, c2), xval)
                        first = h.mul(h.alg.mult[p][x], h.s_vec(h.alg.mult[r][z]))
                        for w, fv in enumerate(first):
                            if fv:
                                key = (w, q, y)
                                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(coef, fv))
            rhs = {}
            d2b = h.coa.delta_iter(hp_vectors[b], 3)
            for t2, c2 in enumerate(d2b):
                if not c2:
                    continue
                z = t2 % n
                y = (t2 // n) % n
                x = t2 // (n * n)
                first = h.mul(_unitvec(f, n, x), h.s_vec(_unitvec(f, n, z)))
                ycoords = hp.coords_of(f, _unitvec(f, n, y))
                if ycoords is None:
                    # middle leg may stick out of H^+ individually; expand via tau
                    # on the H^+ part only after collecting; handled below
                    ycoords = None
                # collect x_1 S(x_3) (x) x_2 first, apply tau afterwards
                for w, fv in enumerate(first):
                    if fv:
                        key = (w, y)
                        rhs[key] = f.add(rhs.get(key, f.zero), f.mul(c2, fv))
            rhs_full = {}
            mid = {}
            for (w, y), v in rhs.items():
                mid.setdefault(w, [f.zero] * n)[y] = f.add(
                    mid.setdefault(w, [f.zero] * n)[y], v)
            for w, vec in mid.items():
                coords = hp.coords_of(f, vec)
                if coords is None:
                    ok = False
                    break
                tv = tau_of(coords)
                for t, x in enumerate(tv):
                    if x:
                        q, d = divmod(t, m)
                        key = (w, q, d)
                        rhs_full[key] = f.add(rhs_full.get(key, f.zero), x)
            if not ok:
                break
            # compare lhs (third leg in H coords) with rhs_full (third leg in H^+ coords)
            lhs_conv = {}
            third = {}
            for (w, q, y), v in lhs.items():
                third.setdefault((w, q), [f.zero] * n)[y] = f.add(
                    third.setdefault((w, q), [f.zero] * n)[y], v)
            for (w, q), vec in third.items():
                coords = hp.coords_of(f, vec)
                if coords is None:
                    ok = False
                    break
                for d, v in enumerate(coords):
                    if not f.is_zero(v):
                        lhs_conv[(w, q, d)] = v
            if not ok:
                break
            keys = set(lhs_conv) | set(rhs_full)
            for key in keys:
                if not f.eq(lhs_conv.get(key, f.zero), rhs_full.get(key, f.zero)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            verified.append("iii")
    return verified


def check_im_tau(h: HopfData, cert: SectionCertificate) -> bool:
    """Whether Im(tau) lands in H^+ (x) H^+: (eps (x) id) tau = 0."""
    f = h.field
    n = h.dim
    hp_vectors = cert.context["hplus_basis"]
    m = len(hp_vectors)
    for b in range(m):
        tv = cert.matrix.matvec(_unitvec(f, m, b))
        for a in range(m):
            acc = f.zero
            for i in range(n):
                x = tv[i * m + a]
                if x and h.coa.counit[i]:
                    acc = f.add(acc, f.mul(x, h.coa.counit[i]))
            if not f.is_zero(acc):
                return False
    return True


# ---------------------------------------------------------------------------
# fs-retractions
# ---------------------------------------------------------------------------

def find_fs_retraction(h: HopfData) -> Optional[SectionCertificate]:
    return _find_retraction(h, complete=False)


def find_complete_fs_retraction(h: HopfData) -> Optional[SectionCertificate]:
    return _find_retraction(h, complete=True)


def _find_retraction(h: HopfData, complete: bool) -> Optional[SectionCertificate]:
    f = h.field
    n = h.dim
    if n == 1:
        kind = "complete_fs_retraction" if complete else "fs_retraction"
        conds = ["i", "ii", "iii"] if complete else ["i", "ii"]
        return SectionCertificate(kind, Mat(f, 0, 0, []), conds, None, {})
    yd, split = h_bar_yd(h)
    m = n - 1
    proj, sect = split.projection, split.section

    def unk(c, i, a):
        return (c * n + i) * m + a

    nunk = m * n * m
    rows = []
    rhs = []

    # Hbar coaction tensor: rho(vbar_c) = sum R[c][w][d] e_w (x) vbar_d
    coat = yd.coaction.tensor

    # (i): for inputs (i, a), components (w, d)
    coat_at = [[[(c, g) for c in range(m) if (g := coat[c][w][d])] for d in range(m)]
               for w in range(n)]
    for i in range(n):
        for a in range(m):
            for w in range(n):
                for d in range(m):
                    row = {unk(c, i, a): g for c, g in coat_at[w][d]}
                    for q, mu in enumerate(h.coa.comult[i][w]):
                        if mu:
                            col = unk(d, q, a)
                            row[col] = f.sub(row.get(col, f.zero), mu)
                    rows.append(row)
                    rhs.append(f.zero)

    # (ii): chi(x_1 (x) xbar_2) = xbar for x over the H basis
    proj_cols = [[(d, b) for d, b in enumerate(col) if b] for col in proj.columns()]
    for k in range(n):
        for c in range(m):
            row = {}
            for i in range(n):
                for j, mu in enumerate(h.coa.comult[k][i]):
                    if mu:
                        for d, b in proj_cols[j]:
                            col = unk(c, i, d)
                            row[col] = f.add(row.get(col, f.zero), f.mul(mu, b))
            rows.append(row)
            rhs.append(proj.data[c][k])

    if complete:
        act = yd.action.tensor  # e_h acting on vbar_c
        for h0 in range(n):
            d3 = h.coa.delta_iter(_unitvec(f, n, h0), 4)
            nz = [(t, c) for t, c in enumerate(d3) if c]
            for i in range(n):
                for a in range(m):
                    # LHS: chi[ h1 e_i S(h4) (x) proj(h2 s(v_a) S(h3)) ]
                    lhs_cols = {}
                    for t, cf in nz:
                        w = t % n
                        r = (t // n) % n
                        q = (t // (n * n)) % n
                        p = t // (n ** 3)
                        first = h.mul(h.alg.mult[p][i], h.s_vec(_unitvec(f, n, w)))
                        midrep = h.mul(h.mul(_unitvec(f, n, q), sect.column(a)),
                                       h.s_vec(_unitvec(f, n, r)))
                        second = proj.matvec(midrep)
                        for ii, fv in enumerate(first):
                            if not fv:
                                continue
                            for d, sv in enumerate(second):
                                if sv:
                                    u_base = (ii, d)
                                    lhs_cols[u_base] = f.add(lhs_cols.get(u_base, f.zero),
                                                             f.mul(cf, f.mul(fv, sv)))
                    for cprime in range(m):
                        row = {unk(cprime, ii, d): v for (ii, d), v in lhs_cols.items()}
                        # RHS: (h0 acting on chi(e_i (x) v_a)) component cprime
                        for c in range(m):
                            g = act[h0][c][cprime]
                            if g:
                                col = unk(c, i, a)
                                row[col] = f.sub(row.get(col, f.zero), g)
                        rows.append(row)
                        rhs.append(f.zero)

    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, nunk))
    if sol is None:
        return None
    chi = Mat(f, m, n * m, [[sol.particular[unk(c, i, a)] for i in range(n) for a in range(m)]
                            for c in range(m)])
    kind = "complete_fs_retraction" if complete else "fs_retraction"
    cert = SectionCertificate(kind, chi, [], sol.nullspace,
                              {"projection": proj, "section": sect, "yd": yd})
    cert.verified_conditions = verify_fs_retraction(h, cert, complete)
    return cert


def verify_fs_retraction(h: HopfData, cert: SectionCertificate, complete: bool) -> list:
    f = h.field
    n = h.dim
    if n == 1:
        return ["i", "ii", "iii"] if complete else ["i", "ii"]
    chi = cert.matrix
    proj = cert.context["projection"]
    sect = cert.context["section"]
    m = n - 1

    def chi_of(i, acoords):
        v = [f.zero] * (n * m)
        for a, x in enumerate(acoords):
            if x:
                v[i * m + a] = x
        return chi.matvec(v)

    verified = []
    ok = True
    for i in range(n):
        for a in range(m):
            abar = chi_of(i, _unitvec(f, m, a))
            rep = sect.matvec(abar)
            flat = h.delta(rep)
            lhs = [f.zero] * (n * m)
            for w in range(n):
                comp = [flat[w * n + k] for k in range(n)]
                pc = proj.matvec(comp)
                for d, v in enumerate(pc):
                    if v:
                        lhs[w * m + d] = v
            rhs = [f.zero] * (n * m)
            for w in range(n):
                for q, mu in enumerate(h.coa.comult[i][w]):
                    if mu:
                        cq = chi_of(q, _unitvec(f, m, a))
                        for d, v in enumerate(cq):
                            if v:
                                rhs[w * m + d] = f.add(rhs[w * m + d], f.mul(mu, v))
            if not all(f.eq(p, q) for p, q in zip(lhs, rhs)):
                ok = False
    if ok:
        verified.append("i")
    ok = True
    for k in range(n):
        acc = [f.zero] * m
        for i in range(n):
            for j, mu in enumerate(h.coa.comult[k][i]):
                if mu:
                    pj = proj.matvec(_unitvec(f, n, j))
                    cv = chi_of(i, pj)
                    for d, v in enumerate(cv):
                        if v:
                            acc[d] = f.add(acc[d], f.mul(mu, v))
        want = proj.matvec(_unitvec(f, n, k))
        if not all(f.eq(p, q) for p, q in zip(acc, want)):
            ok = False
    if ok:
        verified.append("ii")
    if complete:
        ok = True
        from .yd import adjoint_action
        adl = adjoint_action(h, "adl")
        for h0 in range(n):
            d3 = h.coa.delta_iter(_unitvec(f, n, h0), 4)
            for i in range(n):
                for a in range(m):
                    lhs = [f.zero] * m
                    for t, cf in enumerate(d3):
                        if not cf:
                            continue
                        w = t % n
                        r = (t // n) % n
                        q = (t // (n * n)) % n
                        p = t // (n ** 3)
                        first = h.mul(h.alg.mult[p][i], h.s_vec(_unitvec(f, n, w)))
                        midrep = h.mul(h.mul(_unitvec(f, n, q), sect.column(a)),
                                       h.s_vec(_unitvec(f, n, r)))
                        second = proj.matvec(midrep)
                        for ii, fv in enumerate(first):
                            if not fv:
                                continue
                            cv = chi_of(ii, second)
                            for d, v in enumerate(cv):
                                if v:
                                    lhs[d] = f.add(lhs[d], f.mul(cf, f.mul(fv, v)))
                    abar = chi_of(i, _unitvec(f, m, a))
                    rep = sect.matvec(abar)
                    moved = adl.act(_unitvec(f, n, h0), rep)
                    rhs = proj.matvec(moved)
                    if not all(f.eq(p, q) for p, q in zip(lhs, rhs)):
                        ok = False
        if ok:
            verified.append("iii")
    return verified


def check_chi_quotients(h: HopfData, cert: SectionCertificate) -> bool:
    """Whether chi kills 1 (x) Hbar, i.e. quotients to Hbar (x) Hbar -> Hbar."""
    f = h.field
    n = h.dim
    m = n - 1
    if m == 0:
        return True
    chi = cert.matrix
    for a in range(m):
        v = [f.zero] * (n * m)
        for i, u in enumerate(h.alg.unit):
            if u:
                v[i * m + a] = u
        out = chi.matvec(v)
        if not all(f.is_zero(x) for x in out):
            return False
    return True


# ---------------------------------------------------------------------------
# The group algebra of the integers, checked on a finite window
# ---------------------------------------------------------------------------

def _lmul(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            out[k] = out.get(k, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def _lsub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) - v
    return {k: v for k, v in out.items() if v}


def _tensor_flatten(pairs: list) -> dict:
    out = {}
    for left, right in pairs:
        for i, x in left.items():
            for j, y in right.items():
                k = (i, j)
                out[k] = out.get(k, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def _tensor_diff(a: list, b: list) -> bool:
    fa, fb = _tensor_flatten(a), _tensor_flatten(b)
    return any(fa.get(k, Fraction(0)) != fb.get(k, Fraction(0)) for k in set(fa) | set(fb))


def default_laurent_tau(n: int) -> list:
    """tau(g^n - g^{n+1}) = g^n (x) (1 - g), as a list of (left, right) pairs."""
    return [({n: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)})]


def laurent_fs_section_window_check(window: int,
                                    tau: Callable[[int], list] = default_laurent_tau) -> bool:
    """Verify (i), (ii) and cocommutative completeness for the integer group
    algebra on the basis g^n - g^{n+1}, |n| <= window, multipliers g^a,
    |a| <= window.  Exact on the window: all identities are degree shifts."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def basis_elt(n):
        return {n: Fraction(1), n + 1: Fraction(-1)}

    # (ii): multiply-and-sum
    for n in range(-window, window + 1):
        acc = {}
        for left, right in tau(n):
            term = _lmul(left, right)
            for k, v in term.items():
                acc[k] = acc.get(k, Fraction(0)) + v
        if _lsub(acc, basis_elt(n)):
            return False

    # (i): tau(g^a (g^n - g^{n+1})) = (g^a (x) 1) tau(g^n - g^{n+1})
    for a in range(-window, window + 1):
        for n in range(-window, window + 1):
            lhs = tau(a + n)
            rhs = [(_lmul({a: Fraction(1)}, left), right) for left, right in tau(n)]
            if _tensor_diff(lhs, rhs):
                return False

    # (iii) on basis vectors; group-likes collapse the first leg, but the two
    # sides are computed from their own displays
    for n in range(-window, window + 1):
        lhs = {}
        for left, right in tau(n):
            for p, x in left.items():
                for q, y in right.items():
                    # a = g^p, b = g^q: a1 b1 S(a3 b3) (x) a2 (x) b2
                    key = ((p + q) - (p + q), p, q)
                    lhs[key] = lhs.get(key, Fraction(0)) + x * y
        rhs = {}
        # x_1 S(x_3) (x) tau(x_2) with Delta^2(g^k) = g^k (x) g^k (x) g^k
        collected = {}
        for k, v in basis_elt(n).items():
            second = collected.setdefault(k - k, {})
            second[k] = second.get(k, Fraction(0)) + v
        for first, second in collected.items():
            for base_n, lam in _hplus_basis_expand(second).items():
                for left, right in tau(base_n):
                    for p, x in left.items():
                        for q, y in right.items():
                            key = (first, p, q)
                            rhs[key] = rhs.get(key, Fraction(0)) + lam * x * y
        keys = set(lhs) | set(rhs)
        if any(lhs.get(k, Fraction(0)) != rhs.get(k, Fraction(0)) for k in keys):
            return False
    return True


def _hplus_basis_expand(v: dict) -> dict:
    """Coefficients of a zero-augmentation Laurent element over the basis
    (g^n - g^{n+1}), by telescoping partial sums."""
    v = {k: x for k, x in v.items() if x}
    if not v:
        return {}
    if sum(v.values()) != 0:
        raise ValueError("element is not in the augmentation ideal")
    lo, hi = min(v), max(v)
    out = {}
    running = Fraction(0)
    for k in range(lo, hi):
        running += v.get(k, Fraction(0))
        if running:
            out[k] = running
    return out
