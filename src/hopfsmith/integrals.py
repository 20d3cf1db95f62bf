"""Integrals in H and H*, ad-(co)invariant integrals, and the explicit
(co)separability certificates they generate.

Each object is stated once, as a condition list, and every answer is checked
on it with no row assembled (:func:`linalg.require_conditions`).  Only the
integral spaces are solved, and the blind searches that the tests hold the
verdicts to.  The rest is read off the total integral, the left integral
normalized by eps (in H) or by evaluation at 1 (in H*), unique as the left
integrals form a line (Larson-Sweedler): (co)separability by the closed
formula built from it (sigma_t resp. theta_lambda; Maschke and its dual),
ad-(co)invariance by its check on (b).  Without it, no certificate exists.

An integral, a functional and an idempotent are sparse tensors like the
structure maps: t and lambda keyed ``(x,)``, e keyed ``(i, j)`` for
sum e_ij e_i (x) e_j, and theta keyed ``(p, i, j)``, entry p of theta(e_i (x) e_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fields import FieldSpec
from .hopf import AlgebraData, HopfData, SubspaceBasis
from .linalg import (AffineSystem, Certificate, contract, failed_conditions, identity, kernel,
                     require_conditions, solve_affine, spans_equal)
from .yd import ACTIONS, COACTIONS, adjoint_action, adjoint_coaction


@dataclass
class IntegralCertificate(Certificate):
    """A normalized left integral of ``kind`` total_integral, ad_invariant_integral or
    ad_coinvariant_integral, of shape (dim H,): an element of H, or the values of a
    functional on H, as ``carrier`` is "in_h" or "in_dual"."""

    carrier: str


def _integral_terms(h: HopfData, side: str, carrier: str = "in_h") -> list:
    """e_i t - eps(e_i) t, or t e_i - eps(e_i) t for the right side, in the
    unknown vector t; rows (i, r).  In H*, f_i f_j = sum_r Delta_rij f_r and eps(f) = f(1)."""
    left = side == "left"
    if carrier == "in_h":
        return [(1, "ijr,j->ir" if left else "jir,j->ir", h.alg.mult),
                (-1, "i,r->ir", h.coa.counit)]
    return [(1, "rij,j->ir" if left else "rji,j->ir", h.coa.comult),
            (-1, "i,r->ir", h.alg.unit)]


def integral_space(h: HopfData, side: str = "left", carrier: str = "in_h") -> SubspaceBasis:
    """Basis of the space of (left|right) integrals in H or in H*.

    An integral in H* is an integral of the dual Hopf algebra, whose product
    and counit are H's comultiplication (transposed) and unit; the H* system is
    stated on those two tensors of H, in the coordinates of the dual basis, so
    H* is never built."""
    if carrier not in ("in_h", "in_dual"):
        raise ValueError(f"carrier must be in_h or in_dual, got {carrier!r}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be left or right, got {side!r}")
    conds = [(side, _integral_terms(h, side, carrier), None)]
    basis = SubspaceBasis(h.dim, kernel(h.field, h.dim, conds))
    _verify_integral_space(h.field, basis, conds)
    return basis


def _verify_integral_space(f: FieldSpec, basis: SubspaceBasis, conds: list):
    """Check every basis vector on the conditions ``conds`` its space was solved from."""
    vectors = {}
    for (x, j), c in basis.basis.items():
        vectors.setdefault(j, {})[(x,)] = c
    for t in vectors.values():
        require_conditions(f, conds, t, "integral space vector")


def is_unimodular(h: HopfData, carrier: str = "in_h", left: Optional[SubspaceBasis] = None,
                  right: Optional[SubspaceBasis] = None) -> bool:
    """Whether the left and right integrals (``left``/``right`` when already
    computed) span the same space."""
    left = left or integral_space(h, "left", carrier)
    right = right or integral_space(h, "right", carrier)
    return spans_equal(h.field, left.basis, right.basis, h.dim)


def total_integral(h: HopfData, carrier: str = "in_h",
                   space: Optional[SubspaceBasis] = None) -> Optional[IntegralCertificate]:
    """A left integral normalized against the augmentation, or None when the
    augmentation vanishes on the left integral space, which proves that none
    exists; ``space`` is that space when already computed, and must be
    one-dimensional (Larson-Sweedler)."""
    f = h.field
    # normalization functional: eps over in_h, evaluation at 1 over in_dual
    normal = h.coa.counit if carrier == "in_h" else h.alg.unit
    space = space or integral_space(h, "left", carrier)
    if space.dim != 1:
        raise AssertionError(f"left integral space {carrier} is not one-dimensional; "
                             "theory violated")
    basis = space.basis
    values = contract(f, "kj,k->j", basis, normal)
    if not values:  # it vanishes on the one basis vector, so on every integral
        return None
    inv = f.inv(values[(0,)])
    t = {(x,): f.mul(inv, c) for (x, _), c in basis.items()}
    # a basis vector checked with its space on "left" (_verify_integral_space), rescaled
    return IntegralCertificate("total_integral", t, (h.dim,), ["left"], carrier)


def _ad_invariant_conditions(h: HopfData, which: str = "adl") -> list:
    """(a) lam is a left integral in H*, (b) lam(h|>x) = eps(h) lam(x) for the adjoint
    action ``which`` (|> by default), (c) lam(1) = 1."""
    return [("a", _integral_terms(h, "left", "in_dual"), None),
            ("b", [(1, "ktj,j->kt", adjoint_action(h, which).tensor),
                   (-1, "k,t->kt", h.coa.counit)], None),
            ("c", [(1, "j,j->", h.alg.unit)], {(): h.field.one})]


def _ad_coinvariant_conditions(h: HopfData, which: str = "rho_l") -> list:
    """(a) ht = eps(h)t, (b) t_1 S(t_3) (x) t_2 = 1 (x) t for the adjoint coaction ``which``
    (rho_l by default), (c) eps(t) = 1."""
    return [("a", _integral_terms(h, "left"), None),
            ("b", [(1, "jik,j->ik", adjoint_coaction(h, which).tensor),
                   (-1, "i,k->ik", h.alg.unit)], None),
            ("c", [(1, "j,j->", h.coa.counit)], {(): h.field.one})]


def _adjoint_integral(h: HopfData, carrier: str, conditions) -> Optional[IntegralCertificate]:
    """The total integral in ``carrier`` once :func:`_verify_ad_invariant` passes it on
    ``conditions(h)``; None when there is none or it fails (b) alone.  (a) and (c) say
    "normalized left integral", which is unique (Larson-Sweedler), so None proves (a)+(b)+(c)
    infeasible; failing (a) or (c) is a fault, on which the check raises."""
    total = total_integral(h, carrier)
    if total is None or failed_conditions(h.field, conds := conditions(h), total.tensor) == ["b"]:
        return None
    what = "ad-invariant integral" if carrier == "in_dual" else "ad-coinvariant integral"
    verified = _verify_ad_invariant(h.field, total.tensor, conds, what)
    return IntegralCertificate(what.replace("-", "_").replace(" ", "_"), total.tensor,
                               total.shape, verified, carrier)


def ad_invariant_integral(h: HopfData) -> Optional[IntegralCertificate]:
    """The total integral in H* if it meets (b) lam(h|>x) = eps(h) lam(x), else None.

    In characteristic 0 it always does: H is then cosemisimple, so semisimple
    with S^2 = id (Larson-Radford), and lam, the regular character over dim H,
    is a trace, so lam(h_1 x S(h_2)) = lam(x S(h_2) h_1) = eps(h) lam(x), as
    S(h_2) h_1 = S(S(h_1) h_2) = eps(h) 1."""
    return _adjoint_integral(h, "in_dual", _ad_invariant_conditions)


def _verify_ad_invariant(f: FieldSpec, vector: dict, conds: list, what: str) -> list:
    return require_conditions(f, conds, vector, what)


def ad_coinvariant_integral(h: HopfData) -> Optional[IntegralCertificate]:
    """The total integral in H if it meets (b) t_1 S(t_3) (x) t_2 = 1 (x) t, else None."""
    return _adjoint_integral(h, "in_h", _ad_coinvariant_conditions)


def four_linearity_flags(h: HopfData, lam: dict) -> dict:
    """For a functional lam, whether it meets (b) for each of |>, <|, |>>, <<|; for a
    total integral the four answers must agree pairwise."""
    return {which: not failed_conditions(h.field, _ad_invariant_conditions(h, which)[1:2], lam)
            for which in ACTIONS}


def four_coinvariance_flags(h: HopfData, t: dict) -> dict:
    """For an element t, whether it meets (b) for each of the four adjoint coactions."""
    return {which: not failed_conditions(h.field, _ad_coinvariant_conditions(h, which)[1:2], t)
            for which in COACTIONS}


# ---------------------------------------------------------------------------
# Separability idempotents and coseparability retractions
# ---------------------------------------------------------------------------

def idempotent_conditions(a: AlgebraData) -> list:
    """m(e) = 1 and (x (x) 1)e = e(1 (x) x) for e = sum e_ij e_i (x) e_j in
    A (x) A, an unknown of shape (n, n)."""
    m = a.mult
    # (e_x (x) 1) e - e (1 (x) e_x), components (p, q)
    return [("m(e)=1", [(1, "ijk,ij->k", m)], a.unit),
            ("bilinear", [(1, "xip,iq->xpq", m), (-1, "jxq,pj->xpq", m)], None)]


def _blind_idempotent(sys: AffineSystem) -> bool:
    """Whether the idempotent system has any solution e, formula or not."""
    return solve_affine(sys) is not None


def separability_idempotent(h: HopfData) -> Optional[Certificate]:
    """e = t_1 (x) S(t_2) from a total integral, checked against the idempotent
    identity; None when there is no total integral, which proves H not separable."""
    f = h.field
    cert_total = total_integral(h, "in_h")
    if cert_total is None:
        return None
    e = contract(f, "a,aij,kj->ik", cert_total.tensor, h.coa.comult, h.antipode)
    return Certificate("idempotent_for_algebra", e, (h.dim,) * 2,
                       _verify_idempotent(f, e, idempotent_conditions(h.alg)))


def _verify_idempotent(f: FieldSpec, e: dict, conds: list) -> list:
    return require_conditions(f, conds, e, "separability idempotent")


def retraction_conditions(h: HopfData) -> list:
    """theta∘Delta = id and bicolinearity for theta: H (x) H -> H, an unknown of
    shape (n, n, n) holding the entries theta[k][(i, j)]."""
    d = h.coa.comult
    delta_theta = (-1, "kpq,kij->ijpq", d)
    # left colinearity: (id (x) theta)(Delta (x) id) = Delta∘theta on e_i (x) e_j,
    # right colinearity: (theta (x) id)(id (x) Delta) = Delta∘theta; components (p, q)
    return [("theta∘Delta=id", [(1, "kij,oij->ko", d)], identity(h.field, h.dim)),
            ("bicolinear", [(1, "ipa,qaj->ijpq", d), delta_theta], None),
            ("bicolinear", [(1, "jaq,pia->ijpq", d), delta_theta], None)]


def _blind_retraction(sys: AffineSystem) -> bool:
    """Whether a retraction system has any solution theta, formula or not."""
    return solve_affine(sys) is not None


def coseparability_retraction(h: HopfData) -> Optional[Certificate]:
    """theta_lambda(x (x) y) = x_1 lam(x_2 S(y)) from a total lam in H*, checked
    against the retraction identity; None when there is no total integral in H*,
    which proves H not coseparable."""
    f = h.field
    cert_total = total_integral(h, "in_dual")
    if cert_total is None:
        return None
    lam = cert_total.tensor
    theta = contract(f, "ipq,qyz,yj,z->pij", h.coa.comult, h.alg.mult, h.antipode, lam)
    return Certificate("retraction_for_coalgebra", theta, (h.dim,) * 3,
                       _verify_retraction(h, theta, lam, retraction_conditions(h)))


def _verify_retraction(h: HopfData, theta: dict, lam: dict, conds: list) -> list:
    """``conds`` and the exchange identity x_1 lam(x_2 S(y)) = lam(x S(y_1)) y_2."""
    exchange = contract(h.field, "iyz,ya,z,jab->bij", h.alg.mult, h.antipode, lam, h.coa.comult)
    return require_conditions(h.field, [*conds, ("exchange-identity", [(1, "bij->bij")], exchange)],
                              theta, "retraction")
