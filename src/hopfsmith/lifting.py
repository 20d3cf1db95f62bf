"""Lifting algebra sections through nilpotent-kernel surjections, and weak
projections of coalgebras built by strict dualization.

The engine walks E/I -> E/I^2 -> ... -> E.  At each stage a linear (optionally
equivariant) lift is chosen by an affine solve, its curvature is formed, the
curvature is checked to be a Hochschild 2-cocycle (an internal invariant:
failure is a bug, not an obstruction), and the correction solves the
2-coboundary equation.  Infeasibility of that solve is the obstruction, and
the certified witness is the delta-closed curvature itself.

Every identity is a contraction of sparse tensors (:func:`linalg.contract`)
in the layout of :mod:`hopf`: ``m`` (ijk) with e_i e_j = sum_k m_ijk e_k, and
a linear map g as ``(x, y)``, entry x of g(e_y).

* A right H-coaction rho: V -> V (x) H is the tensor ``(c, v, u)``:
  rho(e_c) = sum rho_cvu e_v (x) h_u.
* A bimodule action (:class:`Bimodule`) is a pair of tensors ``(i, s, t)``
  laid out like ``m``: a_i · w_s = sum_t L_ist w_t and w_s · a_i = sum_t R_ist w_t.
* A lift problem (:class:`SurjectionProblem`) is pi and the operator pairs its
  section must intertwine: two stacked tensors ``(u, x, y)``, alpha on A and beta
  on E, with g alpha_u = beta_u g for every stage map g.  Right H-colinearity
  gives the components rho_u of two coactions (:func:`coaction_pairs`), H-linearity
  the multiplication operators (:func:`weak_projection`); a plain lift has none.
  The beta_u are checked to preserve the kernel filtration and are descended to
  each quotient.

The conditions are labelled sums of signed contractions on the unknown map
(:func:`linalg.solve`) in its (x, y) layout, each written once.  A stage
map g: A -> E/I^{r+1} is ``projects`` (p_r g is the previous stage), ``unital`` and
``equivariant``; the correction h: A -> I^r/I^{r+1} is ``coboundary`` (a h(b) - h(ab)
+ h(a) b = c(a, b)) and ``equivariant``, a condition only when there are alpha_u.  The
solved lists also check, with the curvature, each corrected stage and the final
section (p_r = pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .hopf import (AlgebraData, HopfData, SubspaceBasis, comodule_laws, curvature, dual_algebra,
                   module_laws, require_algebra_map, require_coalgebra_map, validated)
from .linalg import (Certificate, SparseMat, contract, failed_conditions, identity,
                     in_coordinates, invert, least_failure, nullspace, rank, require_conditions,
                     require_keys, signed_sum, solve, span_contains_span)
from .filtration import (_is_two_sided_ideal, _quotient_algebra, ideal_powers, coradical,
                         wedge_filtration)


@dataclass
class Bimodule:
    """An A-bimodule on ``dim`` basis vectors w_s: a_i · w_s = sum_t left[(i, s, t)] w_t
    and w_s · a_i = sum_t right[(i, s, t)] w_t.  :meth:`check` reads the laws of each side
    from :func:`hopf.module_laws` and states only that the actions commute."""

    algebra: AlgebraData
    dim: int
    left: dict
    right: dict

    def check(self):
        f, left, right = self.algebra.field, self.left, self.right
        (left_unit, left_assoc), (right_unit, right_assoc) = (
            module_laws(self.algebra, self.dim, act, side, None).values()
            for act, side in ((left, "left"), (right, "right")))
        if any(lhs != rhs for lhs, rhs in (left_unit, right_unit)):
            raise ValueError("bimodule: unit does not act as identity")
        # report the least failing (i, j), and there the first law in this order
        if failure := least_failure(2, ("left action not associative", *left_assoc),
                                    ("right action not associative", *right_assoc),
                                    ("actions do not commute",
                                     contract(f, "jsr,irt->ijst", right, left),
                                     contract(f, "isr,jrt->ijst", left, right))):
            (i, j), what = failure
            raise ValueError(f"bimodule: {what} at ({i},{j})")
        return self


@dataclass
class SurjectionProblem:
    """pi: E -> A and the pairs its section g must intertwine, g alpha_u = beta_u g;
    none for a plain lift.  Built unchecked: :func:`lift_algebra_section` checks it."""

    e: AlgebraData
    a: AlgebraData
    pi: dict                    # E -> A, (a, k): entry a of pi(e_k); a surjective algebra map
    alpha: dict = dc_field(default_factory=dict)  # (u, x, y): entry x of alpha_u(a_y), on A
    beta: dict = dc_field(default_factory=dict)   # (u, x, y): entry x of beta_u(e_y), on E


@dataclass
class LiftCertificate:
    """A section of pi, built once :func:`_verify_final` has checked that it is one and an
    algebra map."""

    stages: list            # stage maps A -> E/I^{r+1}, each a tensor (x, y)
    final: dict             # sigma: A -> E, (x, y)
    colinear: Optional[bool]  # True for a colinear lift, None for a plain one
    shapes: list            # (rows, columns) per stage; final: the last


@dataclass
class LiftObstruction:
    stage: int
    witness: dict           # curvature c(a_i, a_j) in I^r/I^{r+1}, keyed (i, j, t)
    delta_closed: bool
    reason: str
    shape: tuple = (0,)     # (dim A, dim A, dim I^r/I^{r+1}); (0,) for the empty witness


def _equivariant(alpha: dict, beta: dict) -> list:
    """[g alpha_u = beta_u g for every u] on a map g keyed (x, y); [] when there is no alpha_u."""
    cond = ("equivariant", [(1, "uty,xt->uxy", alpha), (-1, "uxt,ty->uxy", beta)], None)
    return [cond] if alpha else []


def _stage_conditions(p_r: dict, prev: dict, u_a: dict, u_cur: dict, alpha: dict, beta: dict):
    """g: A -> Q_{r+1} projects to the previous stage (p_r g = prev), is unital and equivariant."""
    return [("projects", [(1, "ax,xy->ay", p_r)], prev), ("unital", [(1, "y,xy->x", u_a)], u_cur),
            *_equivariant(alpha, beta)]


def coaction_pairs(h: HopfData, pi: dict, coact_e: dict, coact_a: dict, ne: int,
                   na: int) -> tuple:
    """(alpha, beta): the components rho_u of right H-coactions on A (dimension ``na``) and
    on E (``ne``), tensors (c, v, u), stacked (u, v, c), once each has its shape and
    passes :func:`hopf.comodule_laws` and pi: E -> A intertwines them."""
    pairs = []
    for name, rho, n in (("coact_e", coact_e, ne), ("coact_a", coact_a, na)):
        require_keys(rho, (n, n, h.dim), name)
        counit, coassoc = comodule_laws(h.coa, n, {(c, u, v): x for (c, v, u), x in rho.items()},
                                        "right").values()
        for law, (lhs, rhs) in (("the counit law", counit), ("coassociativity", coassoc)):
            if lhs != rhs:
                raise ValueError(f"coaction fails {law}")
        pairs.append({(u, v, c): x for (c, v, u), x in rho.items()})
    beta, alpha = pairs
    if failed_conditions(h.field, _equivariant(beta, alpha), pi):
        raise ValueError("pi is not colinear")
    return alpha, beta


def lift_algebra_section(p: SurjectionProblem):
    """A verified multiplicative section of pi that intertwines the pairs of ``p``, or a
    LiftObstruction carrying a delta-closed curvature witness; raises ``ValueError`` unless
    pi is a surjective algebra map onto A whose kernel is a nilpotent two-sided ideal, and
    alpha and beta are operators on A and on E indexed by the same u."""
    f, na, m_a, u_a, alpha, beta = p.e.field, p.a.dim, p.a.mult, p.a.unit, p.alpha, p.beta
    require_keys(p.pi, (na, p.e.dim), "pi")
    if (us := {k[0] for k in alpha}) != {k[0] for k in beta}:
        raise ValueError("alpha and beta must index the same operators u")
    for pairs, n, name in ((alpha, na, "alpha"), (beta, p.e.dim, "beta")):
        require_keys(pairs, (max(us, default=-1) + 1, n, n), name)
    # one elimination: pi is onto exactly when its kernel has the complementary dimension
    ideal = SubspaceBasis(p.e.dim, nullspace(SparseMat.from_tensor(f, p.pi, na, p.e.dim)))
    if ideal.dim != p.e.dim - na:
        raise ValueError("pi is not surjective")
    require_algebra_map(p.e, p.a, p.pi, "pi")
    if not _is_two_sided_ideal(p.e, ideal):
        raise ValueError("kernel is not a two-sided ideal")

    # kernel powers I = P[0] > P[1] = I^2 > ... until zero
    powers = ideal_powers(p.e, ideal)
    if powers is None:
        raise ValueError("kernel is not nilpotent")

    # quotients Q_r = E/I^r for r = 1..nu (Q_nu = E): (algebra, projection, section)
    quots = [_quotient_algebra(p.e, pw) for pw in powers]

    # equivariance endomorphisms must preserve every kernel power: beta_u(I^r) dies in E/I^r
    for pw, (_, proj, _) in zip(powers[:-1], quots):
        if contract(f, "ax,uxy,yj->uaj", proj, beta, pw.basis):
            raise ValueError("equivariance operator does not preserve the kernel filtration")

    def descend(r: int) -> dict:
        _, proj, sect = quots[r]
        return contract(f, "ax,uxy,yb->uab", proj, beta, sect)

    # stage 1: A ~ E/I, the inverse of pi on the complement of I
    stage = invert(SparseMat.from_tensor(f, contract(f, "ax,xb->ab", p.pi, quots[0][2]), na, na))
    if stage is None:
        raise AssertionError("E/I -> A is not invertible; pi was not surjective?")
    require_conditions(f, _equivariant(alpha, descend(0)), stage, "initial stage map")
    stages = [stage]

    for r in range(1, len(powers)):
        (q_prev, proj_prev, _), (q, _, sect) = quots[r - 1], quots[r]
        p_r = contract(f, "ax,xb->ab", proj_prev, sect)
        # I^r/I^{r+1} inside Q_{r+1}, with a left inverse reading off coordinates
        kernel = SubspaceBasis(q.dim, nullspace(SparseMat.from_tensor(f, p_r, q_prev.dim, q.dim)))
        w, coords = kernel.tensors(f)
        beta_r = descend(r)

        g = solve(f, (q.dim, na), _stage_conditions(p_r, stage, u_a, q.unit, alpha, beta_r),
                  "linear lift")
        if g is None:
            # no curvature was formed, so the empty witness is not a closed cocycle
            return LiftObstruction(r, {}, False,
                                   "no equivariant linear lift through E/I^{r+1}")
        curv = in_coordinates(f, curvature(f, m_a, q.mult, g), w, coords,
                              "curvature escaped I^r/I^{r+1}")
        if not curv:
            stage = g
            stages.append(stage)
            continue

        # A-bimodule structure on I^r/I^{r+1} through the lift g
        left, right = (in_coordinates(f, contract(f, spec, g, w, q.mult), w, coords,
                                      "bimodule action escaped I^r/I^{r+1}")
                       for spec in ("ai,bs,abt->ist", "ai,bs,bat->ist"))
        bim = Bimodule(p.a, kernel.dim, left, right).check()
        if not _is_two_cocycle(bim, curv):
            raise AssertionError("curvature is not delta-closed; lifting engine bug")

        # equivariance operators restricted to the kernel stage, (u, s, t)
        beta_m = in_coordinates(f, contract(f, "uxy,ys->usx", beta_r, w), w, coords,
                                "equivariance operator escaped I^r/I^{r+1}")
        h = _solve_coboundary(bim, curv, alpha, beta_m)
        if h is None:
            return LiftObstruction(r, curv, True, "curvature class is not a coboundary",
                                   (na, na, kernel.dim))
        # g + h has curvature c - (a h(b) - h(ab) + h(a) b) = 0, as h(a) h(b) lies in I^2r = 0
        corrected = signed_sum(f, [(1, "xy->xy", g), (1, "xt,ty->xy", w, h)])
        _assert_stage(f, m_a, q.mult, _stage_conditions(p_r, stage, u_a, q.unit, alpha, beta_r),
                      corrected, "stage map")
        stage = corrected
        stages.append(stage)

    # Q_nu = E/0: translate back to E coordinates
    sigma = contract(f, "xa,ay->xy", quots[-1][2], stage)
    # stage r maps A into Q_{r+1}, so its shape is (dim Q_{r+1}, dim A); Q_1 = E/I ~ A
    _verify_final(p, sigma)
    return LiftCertificate(stages, sigma, bool(alpha) or None, [(q.dim, na) for q, *_ in quots])


def _is_two_cocycle(bim: Bimodule, c: dict) -> bool:
    """delta c (a,b,d) = a·c(b,d) - c(ab,d) + c(a,bd) - c(a,b)·d = 0 on basis triples,
    for c keyed (i, j, t)."""
    f = bim.algebra.field
    m, left, right = bim.algebra.mult, bim.left, bim.right
    return not signed_sum(f, [(1, "jks,ist->ijkt", c, left), (-1, "ijy,ykt->ijkt", m, c),
                              (1, "jky,iyt->ijkt", m, c), (-1, "ijs,kst->ijkt", c, right)])


def _solve_coboundary(bim: Bimodule, c: dict, alpha: dict, beta: dict) -> Optional[dict]:
    """h: A -> M, as (t, y), with a·h(b) - h(ab) + h(a)·b = c(a,b), c keyed (i, j, t), and
    h alpha_u = beta_u h for any alpha_u, beta keyed (u, s, t): entry t of beta_u(w_s);
    checked on those conditions."""
    a = bim.algebra
    return solve(a.field, (bim.dim, a.dim), [
        ("coboundary", [(1, "ist,sj->ijt", bim.left), (-1, "ijy,ty->ijt", a.mult),
                        (1, "jst,si->ijt", bim.right)], c),
        *_equivariant(alpha, {(u, t, s): x for (u, s, t), x in beta.items()})], "coboundary")


def _assert_stage(f, m_a: dict, m_cur: dict, conds: list, g: dict, what: str):
    """g meets its stage conditions ``conds``, the unit among them, and is multiplicative."""
    require_conditions(f, conds, g, what)
    if curvature(f, m_a, m_cur, g):
        raise AssertionError(f"{what} is not multiplicative")


def _verify_final(p: SurjectionProblem, sigma: dict):
    """The final section sigma is the stage with p_r = pi and prev = id: it splits pi."""
    f = p.e.field
    _assert_stage(f, p.a.mult, p.e.mult, _stage_conditions(
        p.pi, identity(f, p.a.dim), p.a.unit, p.e.unit, p.alpha, p.beta), sigma, "final section")


# ---------------------------------------------------------------------------
# Ready-made surjection problems
# ---------------------------------------------------------------------------

def square_zero_extension(h: HopfData, colinear: bool = False) -> SurjectionProblem:
    """E = A (+) A·eps with eps^2 = 0, pi forgetting eps; A = underlying algebra.

    With ``colinear`` the section must also be right H-colinear (H = h) for the right
    regular coaction Delta on A and on both summands of E, which makes pi a surjection
    of comodule algebras.
    """
    a = h.alg
    f = a.field
    n = a.dim
    m = a.mult
    # a·a', a·(a' eps) and (a eps)·a'
    mult = {**m, **{(i, n + j, n + k): x for (i, j, k), x in m.items()},
            **{(n + i, j, n + k): x for (i, j, k), x in m.items()}}
    e_alg, pi = AlgebraData(f, 2 * n, mult, a.unit), identity(f, n)
    if not colinear:
        return SurjectionProblem(e_alg, a, pi)
    rho = h.coa.comult
    coact_e = {**rho, **{(n + c, n + v, u): x for (c, v, u), x in rho.items()}}
    return SurjectionProblem(e_alg, a, pi, *coaction_pairs(h, pi, coact_e, rho, 2 * n, n))


def cyclic_cover_problem(a: AlgebraData, m: int) -> SurjectionProblem:
    """KC_{mn} -> KC_n along g -> g; the kernel is the ideal of 1 - g^n.  ``a`` is KC_n
    on the basis g^0, ..., g^{n-1}, the query's input, which the caller has checked;
    only KC_{mn}, built here, is checked here."""
    if m < 1:
        raise ValueError(f"cyclic-cover:{m} needs a cover degree M >= 1")
    from .presets import cyclic_table, preset_group_algebra
    field, n = a.field, a.dim
    e_h = validated(preset_group_algebra(cyclic_table(m * n), field))
    pi = {(k % n, k): field.one for k in range(m * n)}
    return SurjectionProblem(e_h.alg, a, pi)


# ---------------------------------------------------------------------------
# Weak projections by dualization
# ---------------------------------------------------------------------------

def weak_projection(e: HopfData, h: HopfData, inclusion: dict,
                    bilinear: bool = False, corad: Optional[SubspaceBasis] = None):
    """A left H-linear coalgebra retraction E -> H of a Hopf subalgebra
    inclusion with Corad(E) inside H, built by lifting an algebra section of
    the dual surjection E* -> H*.  ``inclusion`` is keyed (x, k), entry x of the
    image of h_k.  Returns a certificate, pi: E -> H keyed (k, x), or a LiftObstruction.
    ``corad`` is Corad(E) as ``coradical(e.coa)`` returned it, when the caller
    already has it; otherwise it is computed here.

    With ``bilinear=True`` right H-linearity is added to every solve; the
    theory guarantees feasibility only when an ad-coinvariant integral exists,
    so the flag asserts nothing beyond what the solver reports.
    """
    f = e.field
    ne, nh = e.dim, h.dim
    incl = inclusion
    require_keys(incl, (ne, nh), "inclusion")
    if rank(SparseMat.from_tensor(f, incl, ne, nh)) != nh:
        raise ValueError("inclusion is not injective")
    require_algebra_map(h.alg, e.alg, incl, "inclusion")
    require_coalgebra_map(h.coa, e.coa, incl, "inclusion", ValueError)

    transposed = {(k, x): v for (x, k), v in incl.items()}  # E* -> H*, the dual surjection
    sub = SubspaceBasis(ne, incl, nh)  # the inclusion is the basis tensor of its image
    if corad is None:
        corad = coradical(e.coa)
    if not span_contains_span(f, incl, corad.basis, ne):
        raise ValueError("coradical of E is not contained in H")
    # the wedge filtration of H in E must exhaust, as Corad(E) lies in H
    record = wedge_filtration(sub, e.coa, corad)
    if not record.exhausted:
        raise AssertionError("filtration fails to exhaust despite coradical containment")

    # right H-action on duals: (phi · u)(x) = phi(iota(u)·x), transposed left
    # multiplications: alpha_u has entry (x, y) = coefficient of h_y in h_u h_x
    alpha, beta = dict(h.alg.mult), contract(f, "zu,zxy->uxy", incl, e.alg.mult)
    if bilinear:
        alpha.update({(nh + u, x, y): c for (x, u, y), c in h.alg.mult.items()})
        beta.update({(nh + u, x, y): c for (u, x, y), c in
                     contract(f, "zu,xzy->uxy", incl, e.alg.mult).items()})

    result = lift_algebra_section(SurjectionProblem(dual_algebra(e.coa), dual_algebra(h.coa),
                                                    transposed, alpha, beta))
    if isinstance(result, LiftObstruction):
        return result
    # sigma: H* -> E*, transposed to E -> H
    proj = {(k, x): v for (x, k), v in result.final.items()}
    return Certificate("weak_projection", proj, (nh, ne),
                       _verify_weak_projection(e, h, incl, proj, bilinear))


def _verify_weak_projection(e: HopfData, h: HopfData, incl: dict, p: dict,
                            bilinear: bool) -> list:
    """The labels pi meets: it retracts the inclusion, is a coalgebra map (quadratic in pi,
    so checked apart) and is left, and for ``bilinear`` also right, H-linear."""
    f, m_e, m_h = e.field, e.alg.mult, h.alg.mult
    # pi(iota(u)·x) = u·pi(x), and pi(x·iota(u)) = pi(x)·u
    conds = [("retraction", [(1, "xy,ax->ay", incl)], identity(f, h.dim)),
             ("left-H-linear", [(1, "zxy,zu,ay->uxa", m_e, incl), (-1, "uba,bx->uxa", m_h)],
              None)]
    if bilinear:
        conds.append(("right-H-linear", [(1, "xzy,zu,ay->uxa", m_e, incl),
                                         (-1, "bua,bx->uxa", m_h)], None))
    retraction, *linear = require_conditions(f, conds, p, "weak projection")
    require_coalgebra_map(e.coa, h.coa, p, "weak projection", AssertionError)
    return [retraction, "coalgebra-map", *linear]
