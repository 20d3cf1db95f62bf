"""Structure-constant Hopf algebras and their axiom checkers.

Conventions, fixed once for the whole package:

* multiplication tensor ``mult[i][j][k]``:  e_i · e_j = sum_k mult[i][j][k] e_k
* comultiplication tensor ``comult[k][i][j]``:  Delta(e_k) = sum mult[k][i][j] e_i (x) e_j
* a linear map is a :class:`Mat` acting on coordinate columns, so the image of
  e_j is column j
* H (x) H coordinates are flattened as ``i * dim + j``.

Constructions (duals, op/cop) are re-validated through the axiom checker; a
failed report raises rather than returning a silently broken object.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

from .fields import FieldSpec
from .linalg import Mat, invert, nullspace, rank, span_coordinates


@dataclass
class AlgebraData:
    field: FieldSpec
    dim: int
    mult: list  # mult[i][j][k]
    unit: list  # coordinates of 1

    # -- vector arithmetic -------------------------------------------------
    def mul_basis(self, i: int, j: int) -> list:
        return self.mult[i][j]

    def mul(self, a: list, b: list) -> list:
        f = self.field
        out = [f.zero] * self.dim
        for i, x in enumerate(a):
            if not x:
                continue
            multi = self.mult[i]
            for j, y in enumerate(b):
                if not y:
                    continue
                c = f.mul(x, y)
                for k, m in enumerate(multi[j]):
                    if m:
                        out[k] = f.add(out[k], f.mul(c, m))
        return out

    def left_mult_matrix(self, v: list) -> Mat:
        """Matrix of x -> v·x."""
        f = self.field
        out = Mat.zeros(f, self.dim, self.dim)
        for i, x in enumerate(v):
            if not x:
                continue
            multi = self.mult[i]
            for j in range(self.dim):
                for k, m in enumerate(multi[j]):
                    if m:
                        out.data[k][j] = f.add(out.data[k][j], f.mul(x, m))
        return out

    def right_mult_matrix(self, v: list) -> Mat:
        """Matrix of x -> x·v."""
        f = self.field
        out = Mat.zeros(f, self.dim, self.dim)
        for j, y in enumerate(v):
            if not y:
                continue
            for i in range(self.dim):
                for k, m in enumerate(self.mult[i][j]):
                    if m:
                        out.data[k][i] = f.add(out.data[k][i], f.mul(y, m))
        return out

    @cached_property
    def mult_matrix(self) -> Mat:
        """m: H (x) H -> H as a dim x dim^2 matrix."""
        f = self.field
        n = self.dim
        out = Mat.zeros(f, n, n * n)
        for i in range(n):
            for j in range(n):
                col = i * n + j
                for k, m in enumerate(self.mult[i][j]):
                    if m:
                        out.data[k][col] = m
        return out

    def mul2(self, u: list, v: list) -> list:
        """Product in the tensor-square algebra H (x) H."""
        f = self.field
        n = self.dim
        out = [f.zero] * (n * n)
        unz = [(divmod(t, n), x) for t, x in enumerate(u) if x]
        vnz = [(divmod(t, n), y) for t, y in enumerate(v) if y]
        for (i, j), x in unz:
            for (p, q), y in vnz:
                c = f.mul(x, y)
                row1 = self.mult[i][p]
                row2 = self.mult[j][q]
                for k, m1 in enumerate(row1):
                    if not m1:
                        continue
                    cm = f.mul(c, m1)
                    base = k * n
                    for l, m2 in enumerate(row2):
                        if m2:
                            out[base + l] = f.add(out[base + l], f.mul(cm, m2))
        return out


@dataclass
class CoalgebraData:
    field: FieldSpec
    dim: int
    comult: list  # comult[k][i][j]
    counit: list

    def delta_basis(self, k: int) -> list:
        n = self.dim
        flat = [self.field.zero] * (n * n)
        for i, row in enumerate(self.comult[k]):
            for j, c in enumerate(row):
                if c:
                    flat[i * n + j] = c
        return flat

    def delta(self, v: list) -> list:
        f = self.field
        n = self.dim
        out = [f.zero] * (n * n)
        for k, x in enumerate(v):
            if not x:
                continue
            for i, row in enumerate(self.comult[k]):
                for j, c in enumerate(row):
                    if c:
                        out[i * n + j] = f.add(out[i * n + j], f.mul(x, c))
        return out

    def delta_iter(self, v: list, legs: int) -> list:
        """Iterated comultiplication: coordinates of Delta^{legs-1}(v) in H^(x)legs."""
        f = self.field
        n = self.dim
        vec = {(k,): x for k, x in enumerate(v) if x}
        for _ in range(legs - 1):
            nxt = {}
            for idx, x in vec.items():
                k = idx[-1]
                for i, row in enumerate(self.comult[k]):
                    for j, c in enumerate(row):
                        if c:
                            key = idx[:-1] + (i, j)
                            cur_val = nxt.get(key)
                            val = f.mul(x, c)
                            nxt[key] = val if cur_val is None else f.add(cur_val, val)
            vec = {k: x for k, x in nxt.items() if not f.is_zero(x)}
        out = [f.zero] * (n ** legs)
        for idx, x in vec.items():
            flat = 0
            for t in idx:
                flat = flat * n + t
            out[flat] = x
        return out

    def eps(self, v: list):
        f = self.field
        acc = f.zero
        for x, e in zip(v, self.counit):
            if x and e:
                acc = f.add(acc, f.mul(x, e))
        return acc

    @cached_property
    def delta_matrix(self) -> Mat:
        """Delta: H -> H (x) H as a dim^2 x dim matrix."""
        f = self.field
        n = self.dim
        out = Mat.zeros(f, n * n, n)
        for k in range(n):
            for i, row in enumerate(self.comult[k]):
                for j, c in enumerate(row):
                    if c:
                        out.data[i * n + j][k] = c
        return out


@dataclass
class AxiomCheck:
    ok: bool
    witness: Optional[tuple] = None


@dataclass
class AxiomReport:
    checks: dict

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def failed(self) -> list:
        return sorted(name for name, c in self.checks.items() if not c.ok)

    def __str__(self):
        parts = []
        for name in sorted(self.checks):
            c = self.checks[name]
            parts.append(f"{name}: {'ok' if c.ok else f'FAIL at {c.witness}'}")
        return "; ".join(parts)


@dataclass
class HopfData:
    alg: AlgebraData
    coa: CoalgebraData
    antipode: Mat
    antipode_inverse: Optional[Mat] = None
    basis: Optional[list] = None

    def __post_init__(self):
        if self.alg.field != self.coa.field or self.alg.dim != self.coa.dim:
            raise ValueError("algebra and coalgebra parts must share field and dimension")
        if self.basis is None:
            self.basis = [f"e{i}" for i in range(self.alg.dim)]
        if self.antipode_inverse is None:
            self.antipode_inverse = invert(self.antipode)

    # -- delegation ----------------------------------------------------------
    @property
    def field(self) -> FieldSpec:
        return self.alg.field

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def unit_vec(self) -> list:
        return self.alg.unit

    def mul(self, a: list, b: list) -> list:
        return self.alg.mul(a, b)

    def delta(self, v: list) -> list:
        return self.coa.delta(v)

    def eps(self, v: list):
        return self.coa.eps(v)

    def s_vec(self, v: list) -> list:
        return self.antipode.matvec(v)

    def sinv_vec(self, v: list) -> list:
        if self.antipode_inverse is None:
            raise ValueError("antipode is not invertible")
        return self.antipode_inverse.matvec(v)

    def basis_vec(self, i: int) -> list:
        f = self.field
        v = [f.zero] * self.dim
        v[i] = f.one
        return v


def _vec_eq(field: FieldSpec, a: list, b: list) -> bool:
    return a == b  # scalars are canonical; list equality also compares lengths


def check_algebra(a: AlgebraData) -> AxiomReport:
    f = a.field
    n = a.dim
    checks = {}
    witness = None
    for i in range(n):
        if witness:
            break
        for j in range(n):
            if witness:
                break
            left = a.mult[i][j]
            for k in range(n):
                lhs = a.mul(left, _unitvec(f, n, k))
                rhs = a.mul(_unitvec(f, n, i), a.mult[j][k])
                if not _vec_eq(f, lhs, rhs):
                    witness = (i, j, k)
                    break
    checks["associativity"] = AxiomCheck(witness is None, witness)
    witness = None
    for i in range(n):
        e = _unitvec(f, n, i)
        if not _vec_eq(f, a.mul(a.unit, e), e) or not _vec_eq(f, a.mul(e, a.unit), e):
            witness = (i,)
            break
    checks["unit"] = AxiomCheck(witness is None, witness)
    return AxiomReport(checks)


def _unitvec(field: FieldSpec, n: int, i: int) -> list:
    v = [field.zero] * n
    v[i] = field.one
    return v


def check_coalgebra(c: CoalgebraData) -> AxiomReport:
    f = c.field
    n = c.dim
    checks = {}
    witness = None
    for k in range(n):
        lhs = c.delta_iter(_unitvec(f, n, k), 3)
        # delta_iter expands the last leg; recompute expanding the first leg
        rhs = [f.zero] * (n ** 3)
        for i, row in enumerate(c.comult[k]):
            for b, x in enumerate(row):
                if not x:
                    continue
                for p, row2 in enumerate(c.comult[i]):
                    for q, y in enumerate(row2):
                        if y:
                            idx = (p * n + q) * n + b
                            rhs[idx] = f.add(rhs[idx], f.mul(x, y))
        if not _vec_eq(f, lhs, rhs):
            witness = (k,)
            break
    checks["coassociativity"] = AxiomCheck(witness is None, witness)
    witness = None
    for k in range(n):
        left = [f.zero] * n
        right = [f.zero] * n
        for i, row in enumerate(c.comult[k]):
            for j, x in enumerate(row):
                if x:
                    left[j] = f.add(left[j], f.mul(c.counit[i], x))
                    right[i] = f.add(right[i], f.mul(x, c.counit[j]))
        e = _unitvec(f, n, k)
        if not _vec_eq(f, left, e) or not _vec_eq(f, right, e):
            witness = (k,)
            break
    checks["counit"] = AxiomCheck(witness is None, witness)
    return AxiomReport(checks)


def check_hopf(h: HopfData) -> AxiomReport:
    f = h.field
    n = h.dim
    checks = {}
    checks.update(check_algebra(h.alg).checks)
    checks.update(check_coalgebra(h.coa).checks)

    # bialgebra compatibility: Delta and eps are algebra maps
    witness = None
    for i in range(n):
        if witness:
            break
        di = h.coa.delta_basis(i)
        for j in range(n):
            dj = h.coa.delta_basis(j)
            lhs = h.delta(h.alg.mult[i][j])
            rhs = h.alg.mul2(di, dj)
            if not _vec_eq(f, lhs, rhs):
                witness = (i, j, "delta")
                break
            le = h.eps(h.alg.mult[i][j])
            re = f.mul(h.coa.counit[i], h.coa.counit[j])
            if not f.eq(le, re):
                witness = (i, j, "eps")
                break
    if witness is None:
        one2 = _tensor_of(f, n, h.alg.unit, h.alg.unit)
        if not _vec_eq(f, h.delta(h.alg.unit), one2):
            witness = ("unit", "delta")
        elif not f.eq(h.eps(h.alg.unit), f.one):
            witness = ("unit", "eps")
    checks["bialgebra"] = AxiomCheck(witness is None, witness)

    # antipode axiom: m(S(x)id)Delta = u eps = m(id(x)S)Delta
    witness = None
    for k in range(n):
        acc_l = [f.zero] * n
        acc_r = [f.zero] * n
        for i, row in enumerate(h.coa.comult[k]):
            for j, x in enumerate(row):
                if not x:
                    continue
                si = h.s_vec(_unitvec(f, n, i))
                sj = h.s_vec(_unitvec(f, n, j))
                li = h.mul(si, _unitvec(f, n, j))
                rj = h.mul(_unitvec(f, n, i), sj)
                for t in range(n):
                    if li[t]:
                        acc_l[t] = f.add(acc_l[t], f.mul(x, li[t]))
                    if rj[t]:
                        acc_r[t] = f.add(acc_r[t], f.mul(x, rj[t]))
        target = [f.mul(h.coa.counit[k], u) for u in h.alg.unit]
        if not _vec_eq(f, acc_l, target) or not _vec_eq(f, acc_r, target):
            witness = (k,)
            break
    checks["antipode"] = AxiomCheck(witness is None, witness)

    if h.antipode_inverse is not None:
        good = (h.antipode.mul(h.antipode_inverse) == Mat.identity(f, n)
                and h.antipode_inverse.mul(h.antipode) == Mat.identity(f, n))
        checks["antipode_inverse"] = AxiomCheck(good, None if good else ("S*Sbar != id",))
    return AxiomReport(checks)


def _tensor_of(field: FieldSpec, n: int, a: list, b: list) -> list:
    out = [field.zero] * (n * n)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i * n + j] = field.mul(x, y)
    return out


def validated(h: HopfData) -> HopfData:
    rep = check_hopf(h)
    if not rep.all_ok:
        raise ValueError(f"Hopf axioms failed: {rep}")
    return h


# ---------------------------------------------------------------------------
# Subspaces, the augmentation ideal and the unit cokernel
# ---------------------------------------------------------------------------

@dataclass
class SubspaceBasis:
    ambient_dim: int
    vectors: list  # list of coordinate lists, linearly independent
    complement: Optional[list] = None

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coords_of(self, field: FieldSpec, v: list) -> Optional[list]:
        """Coordinates of v in this basis, or None if v is outside the span."""
        if not self.vectors:
            return [] if not any(v) else None
        return span_coordinates(field, self.vectors, v)

    def contains(self, field: FieldSpec, v: list) -> bool:
        return self.coords_of(field, v) is not None


@dataclass
class QuotientSplitting:
    """A fixed linear splitting H = ker (+) complement for a surjection."""

    projection: Mat  # H -> quotient
    section: Mat     # quotient -> H, projection∘section = id
    kernel: SubspaceBasis


def augmentation_ideal(h: HopfData) -> SubspaceBasis:
    """H^+ = ker(eps), dimension dim-1."""
    f = h.field
    eps_mat = Mat(f, 1, h.dim, [list(h.coa.counit)])
    ns = nullspace(eps_mat)
    return SubspaceBasis(h.dim, ns.columns())


def unit_cokernel(h: HopfData) -> QuotientSplitting:
    """Hbar = coker(u) with a fixed splitting H = K·1 (+) Hbar."""
    f = h.field
    n = h.dim
    chosen = [list(h.alg.unit)]
    picked = []
    for i in range(n):
        cand = chosen + [_unitvec(f, n, i)]
        if rank(Mat(f, len(cand), n, cand)) == len(cand):
            chosen.append(_unitvec(f, n, i))
            picked.append(i)
        if len(chosen) == n:
            break
    basis_change = Mat.from_columns(f, chosen)  # columns: 1_H, e_{i1}, ...
    inv = invert(basis_change)
    assert inv is not None
    projection = Mat(f, n - 1, n, [inv.data[r][:] for r in range(1, n)])
    section = Mat.from_columns(f, chosen[1:])
    return QuotientSplitting(projection, section,
                             SubspaceBasis(n, [list(h.alg.unit)]))


# ---------------------------------------------------------------------------
# Duals and op/cop twists
# ---------------------------------------------------------------------------

def dual_hopf(h: HopfData, validate: bool = True) -> HopfData:
    """The dual Hopf algebra on the dual basis (finite dimension)."""
    f = h.field
    n = h.dim
    mult = [[[h.coa.comult[k][a][b] for k in range(n)] for b in range(n)] for a in range(n)]
    unit = list(h.coa.counit)
    comult = [[[h.alg.mult[a][b][k] for b in range(n)] for a in range(n)] for k in range(n)]
    counit = list(h.alg.unit)
    antipode = h.antipode.transpose()
    sbar = h.antipode_inverse.transpose() if h.antipode_inverse is not None else None
    names = [f"{name}*" for name in h.basis]
    out = HopfData(AlgebraData(f, n, mult, unit), CoalgebraData(f, n, comult, counit),
                   antipode, sbar, names)
    return validated(out) if validate else out


def op_cop(h: HopfData, flip_mult: bool, flip_comult: bool, validate: bool = True) -> HopfData:
    """Opposite / co-opposite twists; exactly one flip needs the twisted antipode."""
    f = h.field
    n = h.dim
    mult = h.alg.mult
    comult = h.coa.comult
    if flip_mult:
        mult = [[[mult[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]
    if flip_comult:
        comult = [[[comult[k][j][i] for j in range(n)] for i in range(n)] for k in range(n)]
    if flip_mult != flip_comult:
        if h.antipode_inverse is None:
            raise ValueError("op/cop with a single flip needs an invertible antipode")
        antipode = h.antipode_inverse
        sbar = h.antipode
    else:
        antipode = h.antipode
        sbar = h.antipode_inverse
    out = HopfData(AlgebraData(f, n, mult, list(h.alg.unit)),
                   CoalgebraData(f, n, comult, list(h.coa.counit)),
                   antipode.copy(), None if sbar is None else sbar.copy(), list(h.basis))
    return validated(out) if validate else out
