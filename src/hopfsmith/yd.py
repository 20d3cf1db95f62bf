"""Adjoint (co)actions and Yetter-Drinfeld compatibility checks.

The four adjoint actions and four adjoint coactions of a Hopf algebra on
itself:

    h |> x = h_1 x S(h_2)          x <| h = S(h_1) x h_2
    h |>> x = h_2 x S^{-1}(h_1)    x <<| h = S^{-1}(h_2) x h_1

    rho_L(h)  = h_1 S(h_3) (x) h_2         rho_R(h)  = h_2 (x) S(h_1) h_3
    rho_Rbar(h) = h_2 (x) h_3 S^{-1}(h_1)  rho_Lbar(h) = S^{-1}(h_3) h_1 (x) h_2

Coaction tensors are stored as ``c[j][i][k]``: module basis j maps to
sum c[j][i][k] e_i (x) v_k on the left side, sum c[j][i][k] v_k (x) e_i on
the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hopf import (AlgebraData, CoalgebraData, HopfData, QuotientSplitting, SubspaceBasis,
                   augmentation_ideal, unit_cokernel, _unitvec)

ACTIONS = ("adl", "adr", "adl_bar", "adr_bar")      # |>, <|, |>>, <<|
COACTIONS = ("rho_l", "rho_r", "rho_r_bar", "rho_l_bar")


@dataclass
class ModuleAction:
    over: AlgebraData
    space_dim: int
    tensor: list  # tensor[i][j][k]: e_i acting on v_j (left) or v_j acted by e_i (right)
    side: str     # "left" | "right"

    def act(self, hvec: list, vvec: list) -> list:
        f = self.over.field
        out = [f.zero] * self.space_dim
        for i, x in enumerate(hvec):
            if not x:
                continue
            ti = self.tensor[i]
            for j, y in enumerate(vvec):
                if not y:
                    continue
                c = f.mul(x, y)
                for k, a in enumerate(ti[j]):
                    if a:
                        out[k] = f.add(out[k], f.mul(c, a))
        return out

    def check(self) -> tuple:
        """(ok, witness): unit acts as identity, action is associative."""
        a = self.over
        f = a.field
        n, m = a.dim, self.space_dim
        for j in range(m):
            v = _unitvec(f, m, j)
            if not all(f.eq(p, q) for p, q in zip(self.act(a.unit, v), v)):
                return False, ("unit", j)
        for i in range(n):
            ei = _unitvec(f, n, i)
            for i2 in range(n):
                ei2 = _unitvec(f, n, i2)
                prod = a.mult[i][i2]
                for j in range(m):
                    v = _unitvec(f, m, j)
                    if self.side == "left":
                        lhs = self.act(prod, v)
                        rhs = self.act(ei, self.act(ei2, v))
                    else:
                        lhs = self.act(prod, v)
                        rhs = self.act(ei2, self.act(ei, v))
                    if not all(f.eq(p, q) for p, q in zip(lhs, rhs)):
                        return False, ("associativity", i, i2, j)
        return True, None


@dataclass
class ComoduleCoaction:
    over: CoalgebraData
    space_dim: int
    tensor: list  # c[j][i][k]
    side: str

    def coact(self, vvec: list) -> list:
        """Flattened coordinates in H(x)V (left: i*m+k) or V(x)H (right: k*n+i)."""
        f = self.over.field
        n, m = self.over.dim, self.space_dim
        out = [f.zero] * (n * m)
        for j, y in enumerate(vvec):
            if not y:
                continue
            for i in range(n):
                row = self.tensor[j][i]
                for k, c in enumerate(row):
                    if c:
                        pos = i * m + k if self.side == "left" else k * n + i
                        out[pos] = f.add(out[pos], f.mul(y, c))
        return out

    def check(self) -> tuple:
        """(ok, witness): counit property and coassociativity."""
        c = self.over
        f = c.field
        n, m = c.dim, self.space_dim
        for j in range(m):
            acc = [f.zero] * m
            for i in range(n):
                e = c.counit[i]
                if not e:
                    continue
                for k, x in enumerate(self.tensor[j][i]):
                    if x:
                        acc[k] = f.add(acc[k], f.mul(e, x))
            if not all(f.eq(a, b) for a, b in zip(acc, _unitvec(f, m, j))):
                return False, ("counit", j)
        # coassociativity in H(x)H(x)V coordinates (left) or V(x)H(x)H (right)
        for j in range(m):
            lhs = {}
            rhs = {}
            for i in range(n):
                for k, x in enumerate(self.tensor[j][i]):
                    if not x:
                        continue
                    # expand the H leg with Delta
                    for p in range(n):
                        for q, d in enumerate(c.comult[i][p]):
                            if d:
                                key = (p, q, k)
                                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(x, d))
                    # expand the module leg with the coaction again
                    for p in range(n):
                        for k2, y in enumerate(self.tensor[k][p]):
                            if y:
                                key = (i, p, k2) if self.side == "left" else (p, i, k2)
                                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(x, y))
            keys = set(lhs) | set(rhs)
            for key in keys:
                if not f.eq(lhs.get(key, f.zero), rhs.get(key, f.zero)):
                    return False, ("coassociativity", j, key)
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

def adjoint_action(h: HopfData, which: str) -> ModuleAction:
    f = h.field
    n = h.dim
    if which in ("adl_bar", "adr_bar") and h.antipode_inverse is None:
        raise ValueError(f"{which} needs an invertible antipode")
    tensor = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for p in range(n):
            for q, d in enumerate(h.coa.comult[i][p]):
                if not d:
                    continue
                for j in range(n):
                    ej = _unitvec(f, n, j)
                    if which == "adl":      # e_p x S(e_q)
                        vec = h.mul(h.mul(_unitvec(f, n, p), ej), h.s_vec(_unitvec(f, n, q)))
                    elif which == "adr":    # S(e_p) x e_q
                        vec = h.mul(h.mul(h.s_vec(_unitvec(f, n, p)), ej), _unitvec(f, n, q))
                    elif which == "adl_bar":  # e_q x S^{-1}(e_p)
                        vec = h.mul(h.mul(_unitvec(f, n, q), ej), h.sinv_vec(_unitvec(f, n, p)))
                    else:                   # S^{-1}(e_q) x e_p
                        vec = h.mul(h.mul(h.sinv_vec(_unitvec(f, n, q)), ej), _unitvec(f, n, p))
                    for k, v in enumerate(vec):
                        if v:
                            tensor[i][j][k] = f.add(tensor[i][j][k], f.mul(d, v))
    side = "left" if which in ("adl", "adl_bar") else "right"
    act = ModuleAction(h.alg, n, tensor, side)
    ok, witness = act.check()
    if not ok:
        raise AssertionError(f"adjoint action {which} failed module axioms at {witness}")
    return act


def adjoint_coaction(h: HopfData, which: str) -> ComoduleCoaction:
    f = h.field
    n = h.dim
    if which in ("rho_r_bar", "rho_l_bar") and h.antipode_inverse is None:
        raise ValueError(f"{which} needs an invertible antipode")
    tensor = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    for k0 in range(n):
        d2 = h.coa.delta_iter(_unitvec(f, n, k0), 3)
        for flat, c in enumerate(d2):
            if not c:
                continue
            r = flat % n
            q = (flat // n) % n
            p = flat // (n * n)
            if which == "rho_l":        # e_p S(e_r) (x) e_q
                hleg = h.mul(_unitvec(f, n, p), h.s_vec(_unitvec(f, n, r)))
                mod = q
            elif which == "rho_r":      # e_q (x) S(e_p) e_r
                hleg = h.mul(h.s_vec(_unitvec(f, n, p)), _unitvec(f, n, r))
                mod = q
            elif which == "rho_r_bar":  # e_q (x) e_r S^{-1}(e_p)
                hleg = h.mul(_unitvec(f, n, r), h.sinv_vec(_unitvec(f, n, p)))
                mod = q
            else:                       # S^{-1}(e_r) e_p (x) e_q
                hleg = h.mul(h.sinv_vec(_unitvec(f, n, r)), _unitvec(f, n, p))
                mod = q
            for i, v in enumerate(hleg):
                if v:
                    tensor[k0][i][mod] = f.add(tensor[k0][i][mod], f.mul(c, v))
    side = "left" if which in ("rho_l", "rho_l_bar") else "right"
    coact = ComoduleCoaction(h.coa, n, tensor, side)
    ok, witness = coact.check()
    if not ok:
        raise AssertionError(f"adjoint coaction {which} failed comodule axioms at {witness}")
    return coact


# ---------------------------------------------------------------------------
# Compatibility verification
# ---------------------------------------------------------------------------

def check_yd(s: YDStructure, h: HopfData) -> tuple:
    """Evaluate the variant's compatibility display on all basis pairs."""
    f = h.field
    n = h.dim
    m = s.action.space_dim
    if s.variant in ("LR", "RL") and h.antipode_inverse is None:
        raise ValueError("barred variants need an invertible antipode")

    def e(i):
        return _unitvec(f, n, i)

    # The right-hand sides, with Delta^2(h) = h1 (x) h2 (x) h3:
    #   LL  h1 v_{-1} S(h3) (x) h2 v0       RR  v0 h2 (x) S(h1) v1 h3
    #   LR  h2 v0 (x) h3 v1 Sbar(h1)        RL  Sbar(h3) v_{-1} h1 (x) v0 h2
    # so the H leg is x · v_{-1} · y (resp. x · v1 · y), and h2 acts on v0.
    outer = {"LL": lambda h1, h3: (e(h1), h.s_vec(e(h3))),
             "RR": lambda h1, h3: (h.s_vec(e(h1)), e(h3)),
             "LR": lambda h1, h3: (e(h3), h.sinv_vec(e(h1))),
             "RL": lambda h1, h3: (h.sinv_vec(e(h3)), e(h1))}[s.variant]
    left = s.coaction.side == "left"
    for a in range(n):
        d3 = h.coa.delta_iter(e(a), 3)
        for b in range(m):
            lhs = s.coaction.coact(s.action.act(e(a), _unitvec(f, m, b)))
            rhs = [f.zero] * len(lhs)
            for flat, c in enumerate(d3):
                if not c:
                    continue
                h1, h2, h3 = flat // (n * n), (flat // n) % n, flat % n
                x, y = outer(h1, h3)
                for i in range(n):
                    for k, cv in enumerate(s.coaction.tensor[b][i]):
                        if not cv:
                            continue
                        coef = f.mul(c, cv)
                        hleg = h.mul(h.mul(x, e(i)), y)
                        mleg = s.action.act(e(h2), _unitvec(f, m, k))
                        for ii, hv in enumerate(hleg):
                            if not hv:
                                continue
                            for kk, mv in enumerate(mleg):
                                if mv:
                                    pos = ii * m + kk if left else kk * n + ii
                                    rhs[pos] = f.add(rhs[pos], f.mul(coef, f.mul(hv, mv)))
            if lhs != rhs:
                return False, (a, b)
    return True, None


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
        tensor = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
        for k0 in range(n):
            for i in range(n):
                for j, c in enumerate(h.coa.comult[k0][i]):
                    if c:
                        if cside == "left":   # Delta(v) = e_i (x) v_j
                            tensor[k0][i][j] = c
                        else:                 # Delta(v) = v_i (x) e_j
                            tensor[k0][j][i] = c
        coaction = ComoduleCoaction(h.coa, n, tensor, cside)
        ok, witness = coaction.check()
        if not ok:
            raise AssertionError(f"regular coaction failed at {witness}")
    else:
        coaction = adjoint_coaction(h, kind)
        side = "left" if variant in ("LL", "LR") else "right"
        if side == "left":
            tensor = [[list(h.alg.mult[i][j]) for j in range(n)] for i in range(n)]
        else:
            tensor = [[list(h.alg.mult[j][i]) for j in range(n)] for i in range(n)]
        action = ModuleAction(h.alg, n, tensor, side)
        ok, witness = action.check()
        if not ok:
            raise AssertionError(f"regular action failed at {witness}")
    return YDStructure(action, coaction, variant)


def h_plus_yd(h: HopfData, hp: Optional[SubspaceBasis] = None) -> tuple:
    """(YDStructure, SubspaceBasis): H^+ with h·x = hx and rho(x) = x_1 S(x_3) (x) x_2,
    on the basis ``hp`` of H^+ (by default the nullspace basis of eps)."""
    f = h.field
    n = h.dim
    hp = hp or augmentation_ideal(h)
    m = hp.dim
    act = [[[f.zero] * m for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j, v in enumerate(hp.vectors):
            w = h.mul(_unitvec(f, n, i), v)
            coords = hp.coords_of(f, w)
            if coords is None:
                raise AssertionError("H·H^+ escaped H^+; counit is not an algebra map?")
            act[i][j] = coords
    action = ModuleAction(h.alg, m, act, "left")
    ok, witness = action.check()
    if not ok:
        raise AssertionError(f"H^+ action failed at {witness}")

    adc = adjoint_coaction(h, "rho_l")
    coat = [[[f.zero] * m for _ in range(n)] for _ in range(m)]
    for j, v in enumerate(hp.vectors):
        flat = adc.coact(v)  # in H (x) H, i*n + k
        for i in range(n):
            comp = [flat[i * n + k] for k in range(n)]
            coords = hp.coords_of(f, comp)
            if coords is None:
                raise AssertionError("adjoint coaction of H^+ escaped H (x) H^+")
            coat[j][i] = coords
    coaction = ComoduleCoaction(h.coa, m, coat, "left")
    ok, witness = coaction.check()
    if not ok:
        raise AssertionError(f"H^+ coaction failed at {witness}")
    yd = YDStructure(action, coaction, "LL")
    ok, witness = check_yd(yd, h)
    if not ok:
        raise AssertionError(f"H^+ YD compatibility failed at {witness}")
    return yd, hp


def h_bar_yd(h: HopfData, split: Optional[QuotientSplitting] = None) -> tuple:
    """(YDStructure, QuotientSplitting): Hbar with the induced adjoint action
    h·xbar = (h_1 x S(h_2))bar and coaction rho(xbar) = x_1 (x) xbar_2, on the
    splitting ``split`` (by default :func:`unit_cokernel`)."""
    f = h.field
    n = h.dim
    split = split or unit_cokernel(h)
    m = n - 1
    adl = adjoint_action(h, "adl")
    act = [[[f.zero] * m for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            rep = split.section.column(j)
            moved = adl.act(_unitvec(f, n, i), rep)
            act[i][j] = split.projection.matvec(moved)
    action = ModuleAction(h.alg, m, act, "left")
    ok, witness = action.check()
    if not ok:
        raise AssertionError(f"Hbar action failed at {witness}")

    coat = [[[f.zero] * m for _ in range(n)] for _ in range(m)]
    for j in range(m):
        rep = split.section.column(j)
        flat = h.delta(rep)
        for i in range(n):
            comp = [flat[i * n + k] for k in range(n)]
            coat[j][i] = split.projection.matvec(comp)
    coaction = ComoduleCoaction(h.coa, m, coat, "left")
    ok, witness = coaction.check()
    if not ok:
        raise AssertionError(f"Hbar coaction failed at {witness}")
    yd = YDStructure(action, coaction, "LL")
    ok, witness = check_yd(yd, h)
    if not ok:
        raise AssertionError(f"Hbar YD compatibility failed at {witness}")
    return yd, split
