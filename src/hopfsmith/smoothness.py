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

Each is stated once, as a condition list on the map's tensor: tau as ``(i, a,
b)``, entry e_i (x) v_a of tau(v_b), and chi as ``(c, i, a)``, entry vbar_c of
chi(e_i (x) vbar_a); by bilinearity the basis check is the universal statement.
For finite-dimensional H, formal smoothness is separability (Cuntz-Quillen; H
is Frobenius), and dually, so a normalized integral writes the map down: tau(x)
= t_1 (x) S(t_2)x for t in H, chi(x (x) ybar) = lam(x S(y_1)) ybar_2 for lam in
H*, checked on the conditions with no system assembled.  Without one, the same
theorem proves that no map exists: the "no" is read off the one-dimensional
left integral space, and neither the YD structures nor the conditions are built.
"""

from __future__ import annotations

from typing import Optional

from .fields import FieldSpec
from .hopf import HopfData, QuotientSplitting, SubspaceBasis
from .integrals import total_integral
from .linalg import Certificate, contract, in_coordinates, require_conditions
from .yd import h_bar_yd, h_plus_yd


def _find(h: HopfData, kind: str, complete: bool) -> Optional[Certificate]:
    """The formula map of ``kind`` ("fs_section" or "fs_retraction") checked on its
    conditions, a :class:`linalg.Certificate` of kind ``complete_<kind>`` when
    ``complete``, or None when there is no normalized integral (in H for a section,
    in H* for a retraction), which proves that no such map exists.  The YD
    structures, the integral and the checks are called by their module-level
    names, so that a wrapper bound there runs."""
    name = f"complete_{kind}" if complete else kind
    f, n, m, d, s, mult = h.field, h.dim, h.dim - 1, h.coa.comult, h.antipode, h.alg.mult
    total = total_integral(h, "in_h" if kind == "fs_section" else "in_dual")
    if total is None:
        return None
    if kind == "fs_section":
        yd, hp = h_plus_yd(h)
        verify = verify_fs_section
        conds, shape = fs_section_conditions(h, yd, hp, complete), (n, m, m)
        # tau(v_b) = t_1 (x) S(t_2) v_b, its H^+ leg in H^+ coordinates
        basis, coords = hp.tensors(f)
        tensor = contract(f, "k,kij,lj,xb,lxz,az->iab", total.tensor, d, s, basis, mult, coords)
    else:
        yd, split = h_bar_yd(h)
        verify = verify_fs_retraction
        conds, shape = fs_retraction_conditions(h, yd, split, complete), (m, n, m)
        # chi(e_i (x) vbar_a) = lam(e_i S(y_1)) ybar_2, y the lift of vbar_a
        tensor = contract(f, "xa,xpq,sp,isz,z,cq->cia", split.section, d, s, mult,
                          total.tensor, split.projection)
    return Certificate(name, tensor, shape, verify(f, name, tensor, conds))


# ---------------------------------------------------------------------------
# fs-sections
# ---------------------------------------------------------------------------

def fs_section_conditions(h: HopfData, yd, hp: SubspaceBasis, complete: bool) -> list:
    """(i), (ii) and, when complete, (iii) on the entries of
    tau(v_b) = sum T[i][a][b] e_i (x) v_a, an unknown of shape (n, m, m)."""
    f, mult = h.field, h.alg.mult
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
    return conds


def find_fs_section(h: HopfData) -> Optional[Certificate]:
    return _find(h, "fs_section", complete=False)


def find_complete_fs_section(h: HopfData) -> Optional[Certificate]:
    return _find(h, "fs_section", complete=True)


def verify_fs_section(f: FieldSpec, kind: str, tau: dict, conds: list) -> list:
    """The labels of ``conds``, (i), (ii) (and (iii)), once the map ``tau`` of ``kind``
    meets them all, evaluated without assembling a row; raises otherwise."""
    return require_conditions(f, conds, tau, kind)


def check_im_tau(h: HopfData, cert: Certificate) -> bool:
    """Whether Im(tau) lands in H^+ (x) H^+: (eps (x) id) tau = 0."""
    return not contract(h.field, "iab,i->ab", cert.tensor, h.coa.counit)


# ---------------------------------------------------------------------------
# fs-retractions
# ---------------------------------------------------------------------------

def fs_retraction_conditions(h: HopfData, yd, split: QuotientSplitting,
                             complete: bool) -> list:
    """(i), (ii) and, when complete, (iii) on the entries of
    chi(e_i (x) vbar_a) = sum X[c][i][a] vbar_c, an unknown of shape (m, n, m)."""
    f = h.field
    d, mult, proj = h.coa.comult, h.alg.mult, split.projection
    # Hbar coaction tensor: rho(vbar_c) = sum R[c][w][d] e_w (x) vbar_d
    # (i): for inputs (i, a), components (w, d); (ii): chi(x_1 (x) xbar_2) = xbar
    # for x over the H basis
    conds = [("i", [(1, "cwd,cia->iawd", yd.coaction.tensor), (-1, "iwq,dqa->iawd", d)], None),
             ("ii", [(1, "kij,dj,cid->kc", d, proj)], contract(f, "ck->kc", proj))]
    if complete:
        # (iii) chi[h1 e_i S(h4) (x) (h2 s(vbar_a) S(h3))bar] = h acting on chi(e_i (x) vbar_a),
        # Delta^3(e_h) = e_p (x) e_q (x) e_r (x) e_w; the constant argument of chi, contracted
        # once, shares (I, d) with chi, so no term starts with an outer product
        anti = h.antipode
        theta = contract(f, "hpo,oqt,trw,pig,sw,gsI,qxG,xa,Sr,GSy,dy->hiaId",
                         d, d, d, mult, anti, mult, mult, split.section, anti, mult, proj)
        conds.append(("iii", [(1, "hiaId,cId->hiac", theta),
                              (-1, "hcC,cia->hiaC", yd.action.tensor)], None))
    return conds


def find_fs_retraction(h: HopfData) -> Optional[Certificate]:
    return _find(h, "fs_retraction", complete=False)


def find_complete_fs_retraction(h: HopfData) -> Optional[Certificate]:
    return _find(h, "fs_retraction", complete=True)


def verify_fs_retraction(f: FieldSpec, kind: str, chi: dict, conds: list) -> list:
    """The labels of ``conds`` once the map ``chi`` of ``kind`` meets them all, as for tau."""
    return verify_fs_section(f, kind, chi, conds)


def check_chi_quotients(h: HopfData, cert: Certificate) -> bool:
    """Whether chi kills 1 (x) Hbar, i.e. quotients to Hbar (x) Hbar -> Hbar."""
    return not contract(h.field, "cia,i->ca", cert.tensor, h.alg.unit)
