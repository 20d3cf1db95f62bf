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
to the universally quantified statement.  The map is the solution tensor on
the unknown's shape: tau as ``(i, a, b)``, entry e_i (x) v_a of tau(v_b), and
chi as ``(c, i, a)``, entry vbar_c of chi(e_i (x) vbar_a).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional

from .hopf import HopfData, QuotientSplitting, SubspaceBasis, unit_line
from .linalg import AffineSystem, contract, failed_labels, in_coordinates, solve_affine
from .yd import h_bar_yd, h_plus_yd


@dataclass
class SectionCertificate:
    kind: str                      # fs_section | complete_fs_section | fs_retraction | complete_fs_retraction
    matrix: dict                   # tau (i, a, b) or chi (c, i, a), as in the module docstring
    verified_conditions: list
    nullspace: Optional[SubspaceBasis] = None  # of the solved system, in its columns
    context: dict = dc_field(default_factory=dict)  # basis/splitting data for re-evaluation
    shape: tuple = (0, 0, 0)       # the shape of the map's tensor


def _conditions(complete: bool) -> list:
    return ["i", "ii", "iii"] if complete else ["i", "ii"]


def _checked(sys: AffineSystem, cert: SectionCertificate) -> list:
    """The conditions of ``sys`` whose rows the certificate's map satisfies; the
    unknown of every system here is the map's tensor."""
    bad = failed_labels(sys, cert.matrix)
    return [c for c in sys.condition_labels() if c not in bad]


def _solve(sys: AffineSystem, kind: str, context: dict) -> Optional[SectionCertificate]:
    """Solve ``sys`` for a map; nothing verified yet."""
    sol = solve_affine(sys)
    if sol is None:
        return None
    return SectionCertificate(kind, sol.particular, [], SubspaceBasis(sys.unknowns, sol.nullspace),
                              context, sys.shape)


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
    tau(v_b) = sum T[i][a][b] e_i (x) v_a, an unknown of shape (n, m, m)."""
    f = h.field
    n, m = h.dim, hp.dim
    mult = h.alg.mult
    basis, coords = hp.tensors(f)
    # (i) tau(e_j v_b) = (e_j (x) 1) tau(v_b), components (p, a); e_j v_b in H^+
    # coordinates is the action tensor of the YD structure.  (ii) sum a_i b_i = x,
    # components over H
    conds = [("i", [(1, "jbc,pac->jbpa", yd.action.tensor), (-1, "jip,iab->jbpa", mult)], None),
             ("ii", [(1, "xa,ixk,iab->bk", basis, mult)], contract(f, "kb->bk", basis))]
    if complete:
        # (iii) the constant tensor a_1 b_1 S(a_3 b_3) (x) a_2 (x) b_2 for
        # e_i (x) v_a, Delta^2(e_i) = e_p (x) e_q (x) e_r, Delta^2(v_a) = e_x (x) e_y (x) e_z,
        # with its third leg rewritten in H^+ coordinates
        d = h.coa.comult
        theta = contract(f, "ipo,oqr,pxg,rzj,sj,gsw,kxl,lyz,ka->iawqy",
                         d, d, mult, mult, h.antipode, mult, d, d, basis)
        theta_hp = in_coordinates(f, theta, basis, coords,
                                  "completeness tensor escaped H (x) H (x) H^+")
        # against x_1 S(x_3) (x) tau(x_2) = rho(v_b) with tau applied to its H^+ leg
        conds.append(("iii", [(1, "iawqd,iab->bwqd", theta_hp),
                              (-1, "bwc,qdc->bwqd", yd.coaction.tensor)], None))
    return AffineSystem.conditions(f, (n, m, m), *conds)


def find_fs_section(h: HopfData) -> Optional[SectionCertificate]:
    return _find_section(h, complete=False)


def find_complete_fs_section(h: HopfData) -> Optional[SectionCertificate]:
    return _find_section(h, complete=True)


def _find_section(h: HopfData, complete: bool) -> Optional[SectionCertificate]:
    kind = "complete_fs_section" if complete else "fs_section"
    if h.dim == 1:
        return SectionCertificate(kind, {}, _conditions(complete), None,
                                  {"hplus_basis": SubspaceBasis(1, {})})
    yd, hp = h_plus_yd(h)
    sys = _fs_section_system(h, yd, hp, complete)
    cert = _solve(sys, kind, {"hplus_basis": hp, "yd": yd})
    if cert is None:
        return None
    return _accept(cert, verify_fs_section(h, cert, complete, sys), sys)


def verify_fs_section(h: HopfData, cert: SectionCertificate, complete: bool,
                      sys: Optional[AffineSystem] = None) -> list:
    """The conditions (i), (ii) (and (iii)) that a given tau matrix satisfies,
    evaluated on the rows ``sys`` the finder solved, or on rows rebuilt over the
    certificate's H^+ basis."""
    if sys is None:
        hp = cert.context["hplus_basis"]
        if not hp.dim:
            return _conditions(complete)
        yd, hp = h_plus_yd(h, hp)
        sys = _fs_section_system(h, yd, hp, complete)
    return _checked(sys, cert)


def check_im_tau(h: HopfData, cert: SectionCertificate) -> bool:
    """Whether Im(tau) lands in H^+ (x) H^+: (eps (x) id) tau = 0."""
    return not contract(h.field, "iab,i->ab", cert.matrix, h.coa.counit)


# ---------------------------------------------------------------------------
# fs-retractions
# ---------------------------------------------------------------------------

def _fs_retraction_system(h: HopfData, yd, split: QuotientSplitting,
                          complete: bool) -> AffineSystem:
    """Rows of (i), (ii) and, when complete, (iii) in the entries of
    chi(e_i (x) vbar_a) = sum X[c][i][a] vbar_c, an unknown of shape (m, n, m)."""
    f = h.field
    n, m = h.dim, h.dim - 1
    d, mult, proj = h.coa.comult, h.alg.mult, split.projection
    # Hbar coaction tensor: rho(vbar_c) = sum R[c][w][d] e_w (x) vbar_d
    # (i): for inputs (i, a), components (w, d); (ii): chi(x_1 (x) xbar_2) = xbar
    # for x over the H basis
    conds = [("i", [(1, "cwd,cia->iawd", yd.coaction.tensor), (-1, "iwq,dqa->iawd", d)], None),
             ("ii", [(1, "kij,dj,cid->kc", d, proj)], contract(f, "ck->kc", proj))]
    if complete:
        # (iii) chi[h1 e_i S(h4) (x) (h2 s(vbar_a) S(h3))bar] = h acting on chi(e_i (x) vbar_a),
        # Delta^3(e_h) = e_p (x) e_q (x) e_r (x) e_w
        anti = h.antipode
        conds.append(("iii", [
            (1, "hpo,oqt,trw,pig,sw,gsI,qxG,xa,Sr,GSy,dy,cId->hiac",
             d, d, d, mult, anti, mult, mult, split.section, anti, mult, proj),
            (-1, "hcC,cia->hiaC", yd.action.tensor)], None))
    return AffineSystem.conditions(f, (m, n, m), *conds)


def find_fs_retraction(h: HopfData) -> Optional[SectionCertificate]:
    return _find_retraction(h, complete=False)


def find_complete_fs_retraction(h: HopfData) -> Optional[SectionCertificate]:
    return _find_retraction(h, complete=True)


def _find_retraction(h: HopfData, complete: bool) -> Optional[SectionCertificate]:
    kind = "complete_fs_retraction" if complete else "fs_retraction"
    if h.dim == 1:
        return SectionCertificate(kind, {}, _conditions(complete), None, {})
    yd, split = h_bar_yd(h)
    sys = _fs_retraction_system(h, yd, split, complete)
    cert = _solve(sys, kind, {"projection": split.projection, "section": split.section, "yd": yd})
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
                                                  unit_line(h)))
        sys = _fs_retraction_system(h, yd, split, complete)
    return _checked(sys, cert)


def check_chi_quotients(h: HopfData, cert: SectionCertificate) -> bool:
    """Whether chi kills 1 (x) Hbar, i.e. quotients to Hbar (x) Hbar -> Hbar."""
    return not contract(h.field, "cia,i->ca", cert.matrix, h.alg.unit)


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
