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

from .hopf import HopfData, QuotientSplitting, SubspaceBasis, _unitvec
from .linalg import AffineSystem, Mat, failed_labels, solve_affine
from .yd import h_bar_yd, h_plus_yd


@dataclass
class SectionCertificate:
    kind: str                      # fs_section | complete_fs_section | fs_retraction | complete_fs_retraction
    matrix: Mat                    # tau: H^+ -> H (x) H^+, or chi: H (x) Hbar -> Hbar
    verified_conditions: list
    nullspace: Optional[Mat] = None
    context: dict = dc_field(default_factory=dict)  # basis/splitting data for re-evaluation


def _conditions(complete: bool) -> list:
    return ["i", "ii", "iii"] if complete else ["i", "ii"]


def _checked(sys: AffineSystem, cert: SectionCertificate) -> list:
    """The conditions of ``sys`` whose rows the certificate's map satisfies; the
    unknowns of every system here are the map's entries in row-major order."""
    bad = failed_labels(sys, [x for row in cert.matrix.data for x in row])
    return [c for c in sys.condition_labels() if c not in bad]


def _solve(sys: AffineSystem, kind: str, nrows: int,
           context: dict) -> Optional[SectionCertificate]:
    """Solve ``sys`` for a map with ``nrows`` matrix rows; nothing verified yet."""
    sol = solve_affine(sys)
    if sol is None:
        return None
    x = sol.particular
    width = len(x) // nrows
    return SectionCertificate(kind, Mat(sys.matrix.field, nrows, width,
                                        [x[r:r + width] for r in range(0, len(x), width)]),
                              [], sol.nullspace, context)


def _accept(cert: SectionCertificate, verified: list, sys: AffineSystem) -> SectionCertificate:
    """Record the verified conditions; the solver's output must satisfy them all."""
    cert.verified_conditions = verified
    if verified != sys.condition_labels():
        raise AssertionError(f"{cert.kind} solution fails its own conditions: "
                             f"verified only {verified}")
    return cert


# ---------------------------------------------------------------------------
# fs-sections
# ---------------------------------------------------------------------------

def _fs_section_system(h: HopfData, yd, hp: SubspaceBasis, complete: bool) -> AffineSystem:
    """Rows of (i), (ii) and, when complete, (iii) in the entries of
    tau(v_b) = sum T[i][a][b] e_i (x) v_a, unknown (i*m + a)*m + b."""
    f = h.field
    n = h.dim
    m = hp.dim

    def unk(i, a, b):
        return (i * m + a) * m + b

    rows = []
    rhs = []

    # (i) tau(e_j v_b) = (e_j (x) 1) tau(v_b): components (p, a); e_j v_b in H^+
    # coordinates is the action tensor of the YD structure
    for j in range(n):
        for b in range(m):
            gamma = [(c, g) for c, g in enumerate(yd.action.tensor[j][b]) if g]
            for p in range(n):
                mu_p = [(i, mu) for i in range(n) if (mu := h.alg.mult[j][i][p])]
                for a in range(m):
                    row = {unk(p, a, c): g for c, g in gamma}
                    for i, mu in mu_p:
                        col = unk(i, a, b)
                        row[col] = f.sub(row.get(col, f.zero), mu)
                    rows.append(row)
                    rhs.append(f.zero)
    labels = ["i"] * len(rows)

    # (ii) sum a_i b_i = x: components over H
    prod_h = [[h.mul(_unitvec(f, n, i), hp.vectors[a]) for a in range(m)] for i in range(n)]
    for b in range(m):
        target = hp.vectors[b]
        for k in range(n):
            rows.append({unk(i, a, b): c for i in range(n) for a in range(m)
                         if (c := prod_h[i][a][k])})
            rhs.append(target[k])
    labels += ["ii"] * (len(rows) - len(labels))

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
        labels += ["iii"] * (len(rows) - len(labels))
    return AffineSystem.sparse(f, rows, rhs, n * m * m, labels)


def find_fs_section(h: HopfData) -> Optional[SectionCertificate]:
    return _find_section(h, complete=False)


def find_complete_fs_section(h: HopfData) -> Optional[SectionCertificate]:
    return _find_section(h, complete=True)


def _find_section(h: HopfData, complete: bool) -> Optional[SectionCertificate]:
    kind = "complete_fs_section" if complete else "fs_section"
    if h.dim == 1:
        return SectionCertificate(kind, Mat(h.field, 0, 0, []), _conditions(complete), None,
                                  {"hplus_basis": []})
    yd, hp = h_plus_yd(h)
    sys = _fs_section_system(h, yd, hp, complete)
    cert = _solve(sys, kind, h.dim * hp.dim, {"hplus_basis": hp.vectors, "yd": yd})
    if cert is None:
        return None
    return _accept(cert, verify_fs_section(h, cert, complete, sys), sys)


def verify_fs_section(h: HopfData, cert: SectionCertificate, complete: bool,
                      sys: Optional[AffineSystem] = None) -> list:
    """The conditions (i), (ii) (and (iii)) that a given tau matrix satisfies,
    evaluated on the rows ``sys`` the finder solved, or on rows rebuilt over the
    certificate's H^+ basis."""
    if sys is None:
        hp_vectors = cert.context["hplus_basis"]
        if not hp_vectors:
            return _conditions(complete)
        yd, hp = h_plus_yd(h, SubspaceBasis(h.dim, hp_vectors))
        sys = _fs_section_system(h, yd, hp, complete)
    return _checked(sys, cert)


def check_im_tau(h: HopfData, cert: SectionCertificate) -> bool:
    """Whether Im(tau) lands in H^+ (x) H^+: (eps (x) id) tau = 0."""
    f = h.field
    m = len(cert.context["hplus_basis"])
    for row in cert.matrix.transpose().data:  # tau(v_b) in H (x) H^+ coordinates
        for a in range(m):
            acc = f.zero
            for i, e in enumerate(h.coa.counit):
                acc = f.add(acc, f.mul(row[i * m + a], e))
            if acc:
                return False
    return True


# ---------------------------------------------------------------------------
# fs-retractions
# ---------------------------------------------------------------------------

def _fs_retraction_system(h: HopfData, yd, split: QuotientSplitting,
                          complete: bool) -> AffineSystem:
    """Rows of (i), (ii) and, when complete, (iii) in the entries of
    chi(e_i (x) vbar_a) = sum X[c][i][a] vbar_c, unknown (c*n + i)*m + a."""
    f = h.field
    n = h.dim
    m = n - 1
    proj, sect = split.projection, split.section

    def unk(c, i, a):
        return (c * n + i) * m + a

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
    labels = ["i"] * len(rows)

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
    labels += ["ii"] * (len(rows) - len(labels))

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
        labels += ["iii"] * (len(rows) - len(labels))
    return AffineSystem.sparse(f, rows, rhs, m * n * m, labels)


def find_fs_retraction(h: HopfData) -> Optional[SectionCertificate]:
    return _find_retraction(h, complete=False)


def find_complete_fs_retraction(h: HopfData) -> Optional[SectionCertificate]:
    return _find_retraction(h, complete=True)


def _find_retraction(h: HopfData, complete: bool) -> Optional[SectionCertificate]:
    kind = "complete_fs_retraction" if complete else "fs_retraction"
    if h.dim == 1:
        return SectionCertificate(kind, Mat(h.field, 0, 0, []), _conditions(complete), None, {})
    yd, split = h_bar_yd(h)
    sys = _fs_retraction_system(h, yd, split, complete)
    cert = _solve(sys, kind, h.dim - 1, {"projection": split.projection,
                                         "section": split.section, "yd": yd})
    if cert is None:
        return None
    return _accept(cert, verify_fs_retraction(h, cert, complete, sys), sys)


def verify_fs_retraction(h: HopfData, cert: SectionCertificate, complete: bool,
                         sys: Optional[AffineSystem] = None) -> list:
    """The conditions (i), (ii) (and (iii)) that a given chi matrix satisfies,
    evaluated on the rows ``sys`` the finder solved, or on rows rebuilt over the
    certificate's splitting of Hbar."""
    if sys is None:
        if h.dim == 1:
            return _conditions(complete)
        ctx = cert.context
        yd, split = h_bar_yd(h, QuotientSplitting(ctx["projection"], ctx["section"],
                                                  SubspaceBasis(h.dim, [list(h.alg.unit)])))
        sys = _fs_retraction_system(h, yd, split, complete)
    return _checked(sys, cert)


def check_chi_quotients(h: HopfData, cert: SectionCertificate) -> bool:
    """Whether chi kills 1 (x) Hbar, i.e. quotients to Hbar (x) Hbar -> Hbar."""
    f = h.field
    n = h.dim
    m = n - 1
    for a in range(m):
        v = [f.zero] * (n * m)
        for i, u in enumerate(h.alg.unit):
            v[i * m + a] = u
        if any(cert.matrix.matvec(v)):
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
