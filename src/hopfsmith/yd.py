"""Adjoint (co)actions and Yetter-Drinfeld compatibility checks.

The four adjoint actions and four adjoint coactions of a Hopf algebra on
itself:

    h |> x = h_1 x S(h_2)          x <| h = S(h_1) x h_2
    h |>> x = h_2 x S^{-1}(h_1)    x <<| h = S^{-1}(h_2) x h_1

    rho_L(h)  = h_1 S(h_3) (x) h_2         rho_R(h)  = h_2 (x) S(h_1) h_3
    rho_Rbar(h) = h_2 (x) h_3 S^{-1}(h_1)  rho_Lbar(h) = S^{-1}(h_3) h_1 (x) h_2

Action and coaction tensors are sparse tensors like the structure maps of
:mod:`hopf`, and kept in key order as those are.  An action is keyed
``(i, j, k)``: e_i acting on v_j (left), or v_j acted on by e_i (right), is
sum_k t[(i, j, k)] v_k.  A coaction is keyed ``(j, i, k)``: module basis j maps
to sum c[(j, i, k)] e_i (x) v_k on the left side, sum c[(j, i, k)] v_k (x) e_i
on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hopf import (AlgebraData, CoalgebraData, HopfData, acting, augmentation_ideal, generators,
                   unit_cokernel)
from .linalg import contract, identity, in_coordinates, least_failure, ordered

ACTIONS = ("adl", "adr", "adl_bar", "adr_bar")      # |>, <|, |>>, <<|
COACTIONS = ("rho_l", "rho_r", "rho_r_bar", "rho_l_bar")


@dataclass
class ModuleAction:
    over: AlgebraData
    space_dim: int
    tensor: dict  # (i, j, k): e_i acting on v_j (left) or v_j acted by e_i (right)
    side: str     # "left" | "right"

    def __post_init__(self):
        self.tensor = ordered(self.tensor)

    def check(self) -> tuple:
        """(ok, witness): :func:`module_laws` decided on the acting :func:`generators` (1 and
        products keep the law), and on a failure run in full for the least witness.  The
        algebra must have passed its own check."""
        laws = (self.over, self.space_dim, self.tensor, self.side)
        if all(lhs == rhs for lhs, rhs in module_laws(*laws, set(generators(self.over))).values()):
            return True, None
        unit, assoc = module_laws(*laws, None).values()
        failure = least_failure(1, ("unit", *unit)) or least_failure(3, ("associativity", *assoc))
        return False, (failure[1], *failure[0])


def module_laws(over: AlgebraData, dim: int, t: dict, side: str, gens: Optional[set]) -> dict:
    """{"unit": (lhs, rhs), "associativity": (lhs, rhs)} for an action ``t`` of ``over`` on
    ``dim`` vectors v_j from ``side``: 1 v_j = v_j, and (e_i e_p) v_j = e_i (e_p v_j), resp.
    v_j (e_i e_p) = (v_j e_i) e_p, keyed (i, p, j, k), for the e_i :func:`hopf.acting` keeps."""
    f, tx = over.field, acting(t, gens)
    twice = ("pjl,ilk->ipjk", t, tx) if side == "left" else ("ijl,plk->ipjk", tx, t)
    return {"unit": (contract(f, "a,ajk->jk", over.unit, t), identity(f, dim)),
            "associativity": (contract(f, "ipa,ajk->ipjk", acting(over.mult, gens), t),
                              contract(f, *twice))}


@dataclass
class ComoduleCoaction:
    over: CoalgebraData
    space_dim: int
    tensor: dict  # (j, i, k)
    side: str

    def __post_init__(self):
        self.tensor = ordered(self.tensor)

    def check(self) -> tuple:
        """(ok, witness): counit property and coassociativity; the witness is the
        least failing module index, with the least failing coordinate of
        (Delta (x) id)rho(v_j) for coassociativity."""
        f = self.over.field
        t = self.tensor
        if failure := least_failure(1, ("counit", contract(f, "i,jik->jk", self.over.counit, t),
                                        identity(f, self.space_dim))):
            return False, (failure[1], *failure[0])
        twice = "jik,kpl->jipl" if self.side == "left" else "jik,kpl->jpil"
        delta_rho = contract(f, "jik,ipq->jpqk", t, self.over.comult)
        if failure := least_failure(4, ("coassociativity", delta_rho, contract(f, twice, t, t))):
            (j, *key), name = failure
            return False, (name, j, tuple(key))
        return True, None


@dataclass
class YDStructure:
    action: ModuleAction
    coaction: ComoduleCoaction
    variant: str  # "LL" | "RR" | "LR" | "RL"

    def __post_init__(self):
        want = {"LL": ("left", "left"), "RR": ("right", "right"),
                "LR": ("left", "right"), "RL": ("right", "left")}
        if self.variant not in want:
            raise ValueError(f"unknown YD variant {self.variant!r}")
        a, c = want[self.variant]
        if self.action.side != a or self.coaction.side != c:
            raise ValueError(f"variant {self.variant} needs action side {a!r} and coaction side {c!r}")


# ---------------------------------------------------------------------------
# The adjoint structures on H itself
# ---------------------------------------------------------------------------

# (spec, operands): the tensor t[i][j][k] of the action, Delta(e_i) = e_p (x) e_q
_ACTION_SPECS = {
    "adl": ("ipq,pjx,yq,xyk->ijk", "D m S m"),        # e_p e_j S(e_q)
    "adr": ("ipq,yp,yjx,xqk->ijk", "D S m m"),        # S(e_p) e_j e_q
    "adl_bar": ("ipq,qjx,yp,xyk->ijk", "D m Si m"),   # e_q e_j S^{-1}(e_p)
    "adr_bar": ("ipq,yq,yjx,xpk->ijk", "D Si m m"),   # S^{-1}(e_q) e_j e_p
}
# the tensor c[k][i][q] of the coaction, Delta^2(e_k) = e_p (x) e_q (x) e_r
_COACTION_SPECS = {
    "rho_l": ("kpx,xqr,yr,pyi->kiq", "D D S m"),       # e_p S(e_r) (x) e_q
    "rho_r": ("kpx,xqr,yp,yri->kiq", "D D S m"),       # e_q (x) S(e_p) e_r
    "rho_r_bar": ("kpx,xqr,yp,ryi->kiq", "D D Si m"),  # e_q (x) e_r S^{-1}(e_p)
    "rho_l_bar": ("kpx,xqr,yr,ypi->kiq", "D D Si m"),  # S^{-1}(e_r) e_p (x) e_q
}


def _maps(h: HopfData, names: str) -> list:
    """The structure tensors named in a spec table: D, m, S or Si."""
    maps = {"D": h.coa.comult, "m": h.alg.mult, "S": h.antipode, "Si": h.antipode_inverse}
    return [maps[k] for k in names.split()]


def _evaluate(h: HopfData, which: str, specs: dict) -> dict:
    """The n x n x n tensor of one entry of a spec table."""
    if which not in specs:
        raise ValueError(f"unknown adjoint structure {which!r}; have {sorted(specs)}")
    if which.endswith("_bar") and h.antipode_inverse is None:
        raise ValueError(f"{which} needs an invertible antipode")
    spec, names = specs[which]
    return contract(h.field, spec, *_maps(h, names))


def _passed(structure, what: str, result=None):
    """``structure`` once its check (``result``, or its own ``check()``) passes;
    raises ``AssertionError`` with ``what`` and the witness otherwise."""
    ok, witness = result or structure.check()
    if not ok:
        raise AssertionError(f"{what} at {witness}")
    return structure


def adjoint_action(h: HopfData, which: str) -> ModuleAction:
    side = "left" if which in ("adl", "adl_bar") else "right"
    act = ModuleAction(h.alg, h.dim, _evaluate(h, which, _ACTION_SPECS), side)
    return _passed(act, f"adjoint action {which} failed module axioms")


def adjoint_coaction(h: HopfData, which: str) -> ComoduleCoaction:
    side = "left" if which in ("rho_l", "rho_l_bar") else "right"
    coact = ComoduleCoaction(h.coa, h.dim, _evaluate(h, which, _COACTION_SPECS), side)
    return _passed(coact, f"adjoint coaction {which} failed comodule axioms")


# ---------------------------------------------------------------------------
# Compatibility verification
# ---------------------------------------------------------------------------

# The right-hand sides, with Delta^2(h) = h1 (x) h2 (x) h3 = e_p (x) e_q (x) e_r:
#   LL  h1 v_{-1} S(h3) (x) h2 v0       RR  v0 h2 (x) S(h1) v1 h3
#   LR  h2 v0 (x) h3 v1 Sbar(h1)        RL  Sbar(h3) v_{-1} h1 (x) v0 h2
# so the H leg is x · v_{-1} · y (resp. x · v1 · y), and h2 acts on v0; the
# coaction tensor contributes e_i (v_{-1}) and v_k (v0), the H leg lands on I.
_YD_SPECS = {
    "LL": ("piz,wr,zwI", "m S m"),
    "RR": ("wp,wiz,zrI", "S m m"),
    "LR": ("riz,wp,zwI", "m Si m"),
    "RL": ("wr,wiz,zpI", "Si m m"),
}


def check_yd(s: YDStructure, h: HopfData) -> tuple:
    """Evaluate the variant's compatibility display on all basis pairs; the
    witness is the least failing pair (h basis, module basis)."""
    f = h.field
    if s.variant in ("LR", "RL") and h.antipode_inverse is None:
        raise ValueError("barred variants need an invertible antipode")
    act, coact = s.action.tensor, s.coaction.tensor
    hleg, names = _YD_SPECS[s.variant]
    lhs = contract(f, "abl,lIK->abIK", act, coact)
    rhs = contract(f, f"apx,xqr,{hleg},qkK,bik->abIK", h.coa.comult, h.coa.comult,
                   *_maps(h, names), act, coact)
    failure = least_failure(2, ("compatibility", lhs, rhs))
    return (False, failure[0]) if failure else (True, None)


# ---------------------------------------------------------------------------
# The canonical YD structures on H, H^+ and Hbar
# ---------------------------------------------------------------------------

def yd_on_h(h: HopfData, kind: str) -> YDStructure:
    """H as a YD module over itself: (action, Delta) or (mult, coaction) pairings.

    kind is one of "adl", "adr", "adl_bar", "adr_bar" (adjoint action with the
    regular coaction Delta) or "rho_l", "rho_r", "rho_r_bar", "rho_l_bar"
    (regular action with the adjoint coaction).
    """
    f = h.field
    n = h.dim
    variant_of = {"adl": "LL", "adr": "RR", "adl_bar": "LR", "adr_bar": "RL",
                  "rho_l": "LL", "rho_r": "RR", "rho_r_bar": "LR", "rho_l_bar": "RL"}
    if kind not in variant_of:
        raise ValueError(f"unknown kind {kind!r}")
    variant = variant_of[kind]
    if kind in ACTIONS:
        action = adjoint_action(h, kind)
        cside = "left" if variant in ("LL", "RL") else "right"
        # Delta(v) = e_i (x) v_j on the left, v_i (x) e_j on the right
        spec = "kij->kij" if cside == "left" else "kij->kji"
        coaction = _passed(ComoduleCoaction(h.coa, n, contract(f, spec, h.coa.comult), cside),
                           "regular coaction failed")
    else:
        coaction = adjoint_coaction(h, kind)
        side = "left" if variant in ("LL", "LR") else "right"
        spec = "ijk->ijk" if side == "left" else "jik->ijk"
        action = _passed(ModuleAction(h.alg, n, contract(f, spec, h.alg.mult), side),
                         "regular action failed")
    return YDStructure(action, coaction, variant)


def _yd_of(h: HopfData, m: int, act: dict, coat: dict, name: str) -> YDStructure:
    """The LL Yetter-Drinfeld module on m basis vectors with the given action and
    coaction tensors, each of its three axioms checked."""
    action = _passed(ModuleAction(h.alg, m, act, "left"), f"{name} action failed")
    coaction = _passed(ComoduleCoaction(h.coa, m, coat, "left"), f"{name} coaction failed")
    yd = YDStructure(action, coaction, "LL")
    return _passed(yd, f"{name} YD compatibility failed", check_yd(yd, h))


def h_plus_yd(h: HopfData) -> tuple:
    """(YDStructure, SubspaceBasis): H^+ with h·x = hx and rho(x) = x_1 S(x_3) (x) x_2,
    on the nullspace basis of eps."""
    f = h.field
    hp = augmentation_ideal(h)
    basis, coords = hp.tensors(f)
    act = in_coordinates(f, contract(f, "xj,ixk->ijk", basis, h.alg.mult), basis, coords,
                         "H·H^+ escaped H^+; counit is not an algebra map?")
    adc = adjoint_coaction(h, "rho_l").tensor
    coat = in_coordinates(f, contract(f, "xj,xik->jik", basis, adc), basis, coords,
                          "adjoint coaction of H^+ escaped H (x) H^+")
    return _yd_of(h, hp.dim, act, coat, "H^+"), hp


def h_bar_yd(h: HopfData) -> tuple:
    """(YDStructure, QuotientSplitting): Hbar with the induced adjoint action
    h·xbar = (h_1 x S(h_2))bar and coaction rho(xbar) = x_1 (x) xbar_2, on the
    splitting of :func:`unit_cokernel`."""
    f = h.field
    split = unit_cokernel(h)
    sect, proj = split.section, split.projection
    adl = adjoint_action(h, "adl").tensor
    act = contract(f, "xj,ixy,cy->ijc", sect, adl, proj)
    coat = contract(f, "xj,xik,ck->jic", sect, h.coa.comult, proj)
    return _yd_of(h, h.dim - 1, act, coat, "Hbar"), split
