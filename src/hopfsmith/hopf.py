"""Structure-constant Hopf algebras and their axiom checkers.

Conventions, fixed once for the whole package:

* every structure map is stored once, as a sparse tensor ``{index tuple:
  nonzero scalar}`` (:mod:`linalg`), the form its identities contract:
  ``mult[(i, j, k)]`` with e_i · e_j = sum_k mult[(i, j, k)] e_k, ``unit[(k,)]``,
  ``comult[(k, i, j)]`` with Delta(e_k) = sum comult[(k, i, j)] e_i (x) e_j,
  ``counit[(k,)]``, and ``antipode[(i, j)]`` (likewise ``antipode_inverse``),
  entry i of the image of e_j.  A stored tensor holds no zero scalar and no key
  outside its shape, so two maps are equal exactly when their dicts are, and
  ``contract(...) != e.unit`` compares values, not representations.  The data
  classes keep each tensor in key order, so every contraction of them, and
  every system row assembled from one, comes out in one order whichever
  construction built the map.  Nested lists appear only at the JSON edge
  (:mod:`serialize`, :mod:`cli`).
* every other linear map g (a projection, a section, an inclusion) is a sparse
  tensor in the same form as the antipode: ``g[(x, y)]`` is entry x of g(e_y).
  An element of H is a sparse vector ``(x,)``, like the unit; a subspace
  (:class:`SubspaceBasis`) is its basis tensor ``(x, j)``, entry x of basis
  vector j, which is also the inclusion of the subspace into H.
* a tensor keeps the two legs of H (x) H as two indices; where one index must
  hold both (JSON lists, the columns of R (x) R), it is ``i * dim + j``.
* the identities between these maps are contractions (:func:`linalg.contract`),
  so the antipode axiom reads ``"kij,ai,ajt->kt"`` over (comult, antipode, mult)
  against ``"k,t->kt"`` over (counit, unit).  Axiom witnesses are the least
  failing index prefixes, each found by :func:`linalg.least_failure`.
* the data classes carry no vector arithmetic: products, coproducts and counit
  values are such contractions.  Each law is written once: the axioms below, the unit
  and :func:`curvature` in :func:`require_algebra_map`, Delta and eps in
  :func:`require_coalgebra_map`, Delta on a subcoalgebra in :func:`restricted_comult`.
  A greedy complement (:func:`quotient_maps`) is the pivot columns of one elimination.

Constructors build and queries check: a preset, a loaded document, a dual and an
op/cop twist come back unchecked, and each Hopf algebra a query reads is checked
exactly once by :func:`validated`, which raises rather than return a broken object.
The CLI checks its input (``check-axioms`` reports that check instead), and the
constructions made at run time check what they return: :func:`sub_hopf_on_subspace`,
:func:`doubles.drinfeld_double` and the cover of :func:`lifting.cyclic_cover_problem`.
H* is never built to read its integrals: they are solved on H's own comultiplication
and unit (:func:`integrals.integral_space`).

Each Hopf law is stated once (:func:`_hopf_laws`), and (xy)z = x(yz), Delta(xy) =
Delta(x)Delta(y) and eps(xy) = eps(x)eps(y) for the x = e_i that :func:`acting` keeps.
:func:`check_hopf` decides them on the :func:`generators`, and only on a failure runs the
same statements on all of H for the least witnesses (:func:`_explained`): the x meeting
each law contain 1 and are closed under products (the last two once associativity holds),
so they span H.  Only the full run adds the laws the decision gets for free: a one-sided
inverse in End(H) is two-sided, so the left antipode side and S·Sbar = id give the right
side and Sbar·S = id, and eps(1) = 1 is the counit law on Delta(1) = 1 (x) 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .fields import FieldSpec
from .linalg import (Echelon, SparseMat, contract, identity, in_coordinates, invert, kernel,
                     least_failure, ordered, pivot_columns, require_keys, signed_sum,
                     span_contains_span)


@dataclass
class AlgebraData:
    """An algebra by its structure tensors, which hold only nonzero scalars
    and keys in range(dim), stored in key order."""

    field: FieldSpec
    dim: int
    mult: dict  # (i, j, k): e_i e_j = sum_k mult[(i, j, k)] e_k
    unit: dict  # (k,): coordinate k of 1

    def __post_init__(self):
        self.mult, self.unit = ordered(self.mult), ordered(self.unit)


@dataclass
class CoalgebraData:
    """A coalgebra by its structure tensors, which hold only nonzero scalars
    and keys in range(dim), stored in key order."""

    field: FieldSpec
    dim: int
    comult: dict  # (k, i, j): Delta(e_k) = sum comult[(k, i, j)] e_i (x) e_j
    counit: dict  # (k,): eps(e_k)

    def __post_init__(self):
        self.comult, self.counit = ordered(self.comult), ordered(self.counit)


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

    def __str__(self):
        parts = []
        for name in sorted(self.checks):
            c = self.checks[name]
            parts.append(f"{name}: {'ok' if c.ok else f'FAIL at {c.witness}'}")
        return "; ".join(parts)


@dataclass
class HopfData:
    """A Hopf algebra by the structure tensors of its parts and its antipode
    ``(i, j)``, entry i of S(e_j); every tensor holds only nonzero scalars and
    keys in range(dim), stored in key order.  The antipode inverse is computed
    when not given, and stays None when S is singular."""

    alg: AlgebraData
    coa: CoalgebraData
    antipode: dict
    antipode_inverse: Optional[dict] = None
    basis: Optional[list] = None

    def __post_init__(self):
        if self.alg.field != self.coa.field or self.alg.dim != self.coa.dim:
            raise ValueError("algebra and coalgebra parts must share field and dimension")
        if self.basis is None:
            self.basis = [f"e{i}" for i in range(self.alg.dim)]
        self.antipode = ordered(self.antipode)
        if self.antipode_inverse is None:
            self.antipode_inverse = invert(
                SparseMat.from_tensor(self.field, self.antipode, self.dim, self.dim))
        else:
            self.antipode_inverse = ordered(self.antipode_inverse)

    # -- delegation ----------------------------------------------------------
    @property
    def field(self) -> FieldSpec:
        return self.alg.field

    @property
    def dim(self) -> int:
        return self.alg.dim


def curvature(f: FieldSpec, m_src: dict, m_tgt: dict, g: dict) -> dict:
    """g(a_i a_j) - g(a_i) g(a_j), keyed (i, j, x), for a linear map g between the
    algebras with multiplications ``m_src`` and ``m_tgt``; empty exactly when g
    is multiplicative."""
    return signed_sum(f, [(1, "ijy,xy->ijx", m_src, g), (-1, "ai,bj,abx->ijx", g, g, m_tgt)])


def require_algebra_map(src: AlgebraData, tgt: AlgebraData, g: dict, what: str):
    """Raise ``ValueError`` naming the unit, else the least failing pair, unless g is an
    algebra map."""
    f = src.field
    if contract(f, "xy,y->x", g, src.unit) != tgt.unit:
        raise ValueError(f"{what} does not preserve the unit")
    if bad := curvature(f, src.mult, tgt.mult, g):
        raise ValueError("{} is not multiplicative at ({},{})".format(what, *min(bad)[:2]))


def require_coalgebra_map(src: CoalgebraData, tgt: CoalgebraData, g: dict, what: str, error: type):
    """Raise ``error`` unless the linear map g: src -> tgt is comultiplicative and counital;
    the message names the law that fails at the least failing basis vector, Delta first."""
    f = src.field
    if failure := least_failure(
            1, ("is not comultiplicative", contract(f, "ak,aij->kij", g, tgt.comult),
                contract(f, "kxy,ix,jy->kij", src.comult, g, g)),
            ("does not preserve the counit", src.counit, contract(f, "ak,a->k", g, tgt.counit))):
        raise error(f"{what} {failure[1]}")


def acting(t: dict, gens: Optional[set]) -> dict:
    """``t`` where its first index, the acting e_i, has i in ``gens``; all of ``t`` for None."""
    return t if gens is None else {k: v for k, v in t.items() if k[0] in gens}


def _algebra_laws(a: AlgebraData, mx: dict) -> dict:
    """(xy)z = x(yz) for the x = e_i that ``mx`` (:func:`acting`) keeps, and 1x = x = x1."""
    f, m, u, one = a.field, a.mult, a.unit, identity(a.field, a.dim)
    return {"associativity": [(contract(f, "ijp,pkq->ijkq", mx, m),
                               contract(f, "jkp,ipq->ijkq", m, mx))],
            "unit": [(contract(f, spec, u, m), one) for spec in ("a,aiq->iq", "a,iaq->iq")]}


def _coalgebra_laws(c: CoalgebraData) -> dict:
    """Coassociativity and the counit laws, stated as :func:`_algebra_laws` states its laws."""
    f, d, e, one = c.field, c.comult, c.counit, identity(c.field, c.dim)
    return {"coassociativity": [(contract(f, "kim,mqr->kiqr", d, d),
                                 contract(f, "kmr,mpq->kpqr", d, d))],
            "counit": [(contract(f, spec, d, e), one) for spec in ("kij,i->kj", "kij,j->ki")]}


def _report(laws: dict) -> AxiomReport:
    """Each law, a list of (lhs, rhs) pairs by report name, checked at its least witness."""
    bad = {name: least_failure(3 if name == "associativity" else 1, *((None, *p) for p in pairs))
           for name, pairs in laws.items()}
    return AxiomReport({name: AxiomCheck(b is None, b[0] if b else None) for name, b in bad.items()})


def check_algebra(a: AlgebraData) -> AxiomReport:
    return _report(_algebra_laws(a, a.mult))


def check_coalgebra(c: CoalgebraData) -> AxiomReport:
    return _report(_coalgebra_laws(c))


def generators(alg: AlgebraData) -> list:
    """The i, in order, with e_i outside the span reached before it, the unit's span closed
    under left products with the e_i kept so far; one :class:`Echelon` tests every span."""
    f, n = alg.field, alg.dim
    unit = {x: c for (x,), c in alg.unit.items()}
    reached, gens = Echelon(f), {}  # gens: kept i -> the words e_i has multiplied
    words = [unit] if reached.add(unit.items()) else []
    for i in range(n):
        if len(reached.piv) < n and reached.add([(i, f.one)]):
            words.append({i: f.one})
            gens[i] = 0
            m = acting(alg.mult, gens.keys())
            while len(reached.piv) < n and (todo := {(g, w, x): a for g, done in gens.items()
                                                     for w in range(done, len(words))
                                                     for x, a in words[w].items()}):
                gens, products = dict.fromkeys(gens, len(words)), {}
                for (g, w, k), v in contract(f, "gwx,gxk->gwk", todo, m).items():
                    products.setdefault((g, w), {})[k] = v
                words += [w for w in products.values() if reached.add(w.items())]
    return list(gens)


def _hopf_laws(h: HopfData, gens: Optional[set]) -> dict:
    """Every Hopf law the decision reads, with x = e_i for i in ``gens`` in (xy)z = x(yz),
    Delta(xy) = Delta(x)Delta(y) and eps(xy) = eps(x)eps(y); on all of H (``gens`` None), also
    those it gets for free (module docstring): eps(1) = 1, the right antipode and Sbar·S = id."""
    f, one, si, free = h.field, identity(h.field, h.dim), h.antipode_inverse, gens is None
    m, d, u, e, s = h.alg.mult, h.coa.comult, h.alg.unit, h.coa.counit, h.antipode
    mx, dx, ex = (acting(t, gens) for t in (m, d, e))
    target = contract(f, "k,t->kt", e, u)
    at_one = [("k,kab->ab", d, contract(f, "a,b->ab", u, u)), ("k,k->", e, {(): f.one})]
    return {**_algebra_laws(h.alg, mx), **_coalgebra_laws(h.coa),
            "bialgebra": [(contract(f, "ijk,kpq->ijpq", mx, d),
                           contract(f, "iac,abp,jbd,cdq->ijpq", dx, m, d, m)),
                          (contract(f, "ijk,k->ij", mx, e), contract(f, "i,j->ij", ex, e)),
                          *((contract(f, spec, u, t), rhs) for spec, t, rhs in at_one[:1 + free])],
            "antipode": [(contract(f, spec, d, s, m), target)
                         for spec in ("kij,ai,ajt->kt", "kij,bj,ibt->kt")[:1 + free]],
            **({} if si is None else {"antipode_inverse": [
                (contract(f, "ij,jk->ik", a, b), one) for a, b in ((s, si), (si, s))[:1 + free]]})}


def check_hopf(h: HopfData) -> AxiomReport:
    """Every Hopf axiom, decided on generators and explained on a failure (module docstring)."""
    report = _report(_hopf_laws(h, set(generators(h.alg))))
    return report if report.all_ok else _explained(h)


def _explained(h: HopfData) -> AxiomReport:
    """Every Hopf axiom checked on all of H, each failure at its least witness: the
    bialgebra laws at the least failing pair, naming Delta or eps, then at the unit."""
    laws = _hopf_laws(h, None)
    checks = _report(laws).checks
    delta, eps, *at_one = laws["bialgebra"]
    failure = least_failure(2, ("delta", *delta), ("eps", *eps))
    unit = [("unit", name) for name, (lhs, rhs) in zip(("delta", "eps"), at_one) if lhs != rhs]
    witness = (*failure[0], failure[1]) if failure else next(iter(unit), None)
    checks["bialgebra"] = AxiomCheck(witness is None, witness)
    if "antipode_inverse" in checks and not checks["antipode_inverse"].ok:
        checks["antipode_inverse"] = AxiomCheck(False, ("S*Sbar != id",))
    return AxiomReport(checks)


def validated(h: HopfData) -> HopfData:
    """``h`` once :func:`check_hopf` passes on it; raises ``ValueError`` with the report."""
    rep = check_hopf(h)
    if not rep.all_ok:
        raise ValueError(f"Hopf axioms failed: {rep}")
    return h


# ---------------------------------------------------------------------------
# Subspaces, the augmentation ideal and the unit cokernel
# ---------------------------------------------------------------------------

@dataclass
class SubspaceBasis:
    """A subspace of K^ambient_dim by its basis tensor ``basis[(x, j)]``, entry x
    of basis vector j, kept in key order; the ``dim`` vectors are linearly
    independent, and ``dim`` defaults to the number of vectors the tensor holds.
    A key outside ``(ambient_dim, dim)`` raises ``ValueError``."""

    ambient_dim: int
    basis: dict
    dim: Optional[int] = None

    def __post_init__(self):
        self.basis = ordered(self.basis)
        if self.dim is None:
            self.dim = len({j for _, j in self.basis})
        require_keys(self.basis, (self.ambient_dim, self.dim), "subspace basis")

    def contains(self, field: FieldSpec, v: dict) -> bool:
        """Whether the vector ``v``, keyed ``(x,)``, lies in the subspace."""
        require_keys(v, (self.ambient_dim,), "vector")
        return span_contains_span(field, self.basis, {(x, 0): c for (x,), c in v.items()},
                                  self.ambient_dim)

    def _completed(self, field: FieldSpec) -> tuple:
        """:func:`_completion` of the basis as it is now."""
        return _shared_completion(field, self.ambient_dim, self.dim, tuple(self.basis.items()))

    def tensors(self, field: FieldSpec) -> tuple:
        """(basis, coordinates) as sparse tensors: the basis tensor, and
        ``coordinates[(c, x)]``, a left inverse of it, which reads off the
        coordinates of any vector of the span."""
        inv, d = self._completed(field)[1], self.dim
        return self.basis, {k: x for k, x in inv.items() if k[0] < d}


@dataclass
class QuotientSplitting:
    """A fixed linear splitting H = ker (+) complement for a surjection."""

    projection: dict  # H -> quotient, (c, x)
    section: dict     # quotient -> H, (x, c); projection∘section = id


def augmentation_ideal(h: HopfData) -> SubspaceBasis:
    """H^+ = ker(eps), dimension dim-1."""
    conds = [("counit", [(1, "i,i->", h.coa.counit)], None)]
    return SubspaceBasis(h.dim, kernel(h.field, h.dim, conds))


def unit_line(h: HopfData) -> SubspaceBasis:
    """K·1, the line through the unit of H."""
    return SubspaceBasis(h.dim, {(x, 0): c for (x,), c in h.alg.unit.items()}, 1)


@functools.lru_cache(maxsize=64)
def _shared_completion(field: FieldSpec, n: int, k: int, items: tuple) -> tuple:
    """:func:`_completion` memoized on content; ``cli.main`` empties it per query."""
    return _completion(field, n, k, dict(items))


def _completion(field: FieldSpec, n: int, k: int, basis: dict) -> tuple:
    """(pivots, inverse): the k vectors of the basis tensor ``basis`` completed
    greedily by e_0, e_1, ... to a basis of K^n, given as the pivot columns of
    [basis | identity] (column k + i is e_i), and the inverse of the matrix with
    that basis as its columns, as a sparse tensor (row, column) in key order.

    One elimination of [basis | identity] gives both: its pivot columns are
    the greedy pick B, and its reduced form is B^{-1} [basis | identity], so
    the identity block holds B^{-1}.
    """
    cands = {**basis, **{(i, k + i): field.one for i in range(n)}}
    pivots, rows = pivot_columns(field, cands, n, k + n)
    if pivots[:k] != list(range(k)):  # a dependent vector is not a pivot
        raise ValueError("subspace vectors are not linearly independent")
    inv = {(t, j - k): x for t, row in enumerate(rows[:n]) for j, x in row if j >= k}
    return pivots, inv


def quotient_maps(field: FieldSpec, sub: SubspaceBasis) -> tuple:
    """(projection, section) for K^n -> K^n / sub, as sparse tensors (c, x) and (x, c).

    The complement is picked greedily from e_0, e_1, ...; the projection is the
    matching rows of the inverse basis change and the section sends the quotient
    basis to the picked e_i.
    """
    pivots, inv = sub._completed(field)
    d = sub.dim
    section = {(j - d, c): field.one for c, j in enumerate(pivots[d:])}
    return {(t - d, x): v for (t, x), v in inv.items() if t >= d}, section


def unit_cokernel(h: HopfData) -> QuotientSplitting:
    """Hbar = coker(u) with a fixed splitting H = K·1 (+) Hbar."""
    return QuotientSplitting(*quotient_maps(h.field, unit_line(h)))


def restricted_comult(c: CoalgebraData, sub: SubspaceBasis) -> Optional[dict]:
    """Delta on ``sub`` in its basis, keyed (k, i, j), or None if ``sub`` is no subcoalgebra."""
    f = c.field
    basis, coords = sub.tensors(f)
    delta = contract(f, "xk,xab->kab", basis, c.comult)
    comult = contract(f, "kab,ia,jb->kij", delta, coords, coords)
    return comult if contract(f, "kij,ai,bj->kab", comult, basis, basis) == delta else None


def sub_hopf_on_subspace(h: HopfData, sub: SubspaceBasis) -> tuple:
    """(validated Hopf structure on ``sub``, inclusion (x, j)) for a subspace that
    must be a Hopf subalgebra; raises ValueError when it is not.  Each structure
    map is restricted by the left inverse of the basis and must rebuild.  The
    inclusion is the basis tensor: entry x of the j-th basis vector."""
    f = h.field
    m = sub.dim
    basis, coords = sub.tensors(f)

    def restrict(images: dict, what: str) -> dict:
        return in_coordinates(f, images, basis, coords, what, ValueError)

    mult = restrict(contract(f, "ai,bj,abk->ijk", basis, basis, h.alg.mult),
                    "subspace is not closed under multiplication")
    unit = restrict(h.alg.unit, "subspace does not contain the unit")
    if (comult := restricted_comult(h.coa, sub)) is None:
        raise ValueError("subspace is not a subcoalgebra")
    counit = contract(f, "xk,x->k", basis, h.coa.counit)
    antipode = restrict(contract(f, "ax,xk->ka", h.antipode, basis),
                        "subspace is not antipode-stable")
    sub_h = validated(HopfData(AlgebraData(f, m, mult, unit), CoalgebraData(f, m, comult, counit),
                               contract(f, "kc->ck", antipode)))
    return sub_h, basis


# ---------------------------------------------------------------------------
# Duals and op/cop twists
# ---------------------------------------------------------------------------

def _transposed(t: Optional[dict]) -> Optional[dict]:
    return None if t is None else {(j, i): x for (i, j), x in t.items()}


def dual_algebra(c: CoalgebraData) -> AlgebraData:
    """The algebra C* on the dual basis: f_a f_b = sum_k comult[(k, a, b)] f_k."""
    mult = {(a, b, k): x for (k, a, b), x in c.comult.items()}
    return AlgebraData(c.field, c.dim, mult, c.counit)


def dual_hopf(h: HopfData) -> HopfData:
    """The dual Hopf algebra on the dual basis (finite dimension), unchecked."""
    comult = {(k, a, b): x for (a, b, k), x in h.alg.mult.items()}
    names = [f"{name}*" for name in h.basis]
    return HopfData(dual_algebra(h.coa), CoalgebraData(h.field, h.dim, comult, h.alg.unit),
                    _transposed(h.antipode), _transposed(h.antipode_inverse), names)


def op_cop(h: HopfData, flip_mult: bool, flip_comult: bool) -> HopfData:
    """Opposite / co-opposite twists, unchecked; exactly one flip needs the twisted antipode."""
    f = h.field
    n = h.dim
    mult = h.alg.mult
    comult = h.coa.comult
    if flip_mult:
        mult = {(j, i, k): x for (i, j, k), x in mult.items()}
    if flip_comult:
        comult = {(k, j, i): x for (k, i, j), x in comult.items()}
    if flip_mult != flip_comult:
        if h.antipode_inverse is None:
            raise ValueError("op/cop with a single flip needs an invertible antipode")
        antipode = h.antipode_inverse
        sbar = h.antipode
    else:
        antipode = h.antipode
        sbar = h.antipode_inverse
    return HopfData(AlgebraData(f, n, mult, h.alg.unit), CoalgebraData(f, n, comult, h.coa.counit),
                    antipode, sbar, list(h.basis))
