"""Sparse exact linear algebra over Q and F_p.

Linear systems are stored as sparse rows: a row is a list of
``(column, coefficient)`` pairs that holds only the nonzero coefficients of
that row, each column at most once.  Systems built from structure-constant
identities are overwhelmingly zero, so rows never carry their zeros.

Every elimination goes through one sparse Gauss-Jordan kernel, :class:`Echelon`, fed
one row at a time.  It keeps the pivot rows fully reduced as the rows arrive, so each
incoming row is reduced in a single pass, and an occurrence index (column -> the pivot
rows that hold it) sends each new pivot only to the rows it must clear, so the work
grows with the fill, not with the square of the rank.  The result is the
reduced row echelon form, which depends only on the row space, so the
particular solution (free variables 0), the nullspace basis and every
certificate built from them are canonical.  Over F_p the kernel works on raw
ints reduced mod p once per entry per pass; over Q on integer rows, scaled on
entry and kept primitive with their leads, that become ``Fraction``s only on
exit; :func:`contract` also scales once to ints.  A greedy basis, the vectors
of a list outside the span of the ones before them, is the pivot columns of
one elimination (:func:`pivot_columns`).

Every vector, map and subspace basis is a sparse tensor, a dict ``{index
tuple: nonzero scalar}``, the one form in which :mod:`hopf` stores every
structure map.  A vector is keyed ``(x,)``; a linear map ``(x, y)``, entry x of
the image of e_y, and :meth:`SparseMat.from_tensor` reads it as the matrix the
solvers take; a basis of a subspace, or any list of k vectors, is keyed ``(x,
j)``, entry x of vector j, the inclusion of the subspace.  :func:`solve_affine`,
:func:`nullspace`, :func:`rank` and :func:`invert` all take a
:class:`SparseMat`; a nullspace is a basis tensor, a particular solution is
keyed on the shape of the unknown, and an inverse is again a sparse tensor.
:func:`pivot_columns`, :func:`span_contains_span` and :func:`spans_equal` read
basis tensors.  The rest of the package solves a condition list, not a matrix:
:func:`solve` assembles it, eliminates and checks the answer on it, and
:func:`kernel` is the nullspace of homogeneous conditions on a vector.

Structure-constant identities are contractions of sparse tensors:
:func:`contract` evaluates an einsum-style spec such as
``"ipq,pjx,yq,xyk->ijk"``.  :func:`sparse` reads nested lists at the JSON edge;
:func:`ordered` puts a tensor's entries in key order, the order ``sparse``
gives, and :func:`require_keys` rejects a key outside a declared shape.  A linear
condition on an unknown map of a declared shape is a signed sum of
contractions whose last operand is the unknown, and one evaluator reads it both
ways: :func:`failed_conditions` takes a :func:`signed_sum` per condition on a
given tensor, moved first, and :meth:`AffineSystem.conditions` takes the same
:func:`signed_sum` on the identity tensor of the unknowns, whose extra column
index spreads each entry into the labelled sparse row and column it names.  So
a certificate is checked on the list that stated its solve, by the code that
assembled it, and never on the rows it was solved from; once it passes, a
:class:`Certificate` records its tensor with the labels it met.  An identity that
fails is reported at its least failing index prefix, and there by the first law
that fails (:func:`least_failure`).
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Optional

from .fields import FieldSpec


@dataclass
class SparseMat:
    """Matrix stored as sparse rows: ``data[i]`` lists the ``(column, coefficient)``
    pairs of the nonzero entries of row i."""

    field: FieldSpec
    rows: int
    cols: int
    data: list

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ValueError("matrix data shape mismatch")

    @classmethod
    def from_tensor(cls, field: FieldSpec, t: dict, rows: int, cols: int) -> "SparseMat":
        """The rows x cols matrix of a linear map held as the sparse tensor ``t``,
        key ``(x, y)`` entry x of the image of e_y."""
        data = [[] for _ in range(rows)]
        for (x, y), v in t.items():
            data[x].append((y, v))
        return cls(field, rows, cols, data)


@dataclass
class AffineSystem:
    """A · x = b, A a :class:`SparseMat` whose columns are the entries of an
    unknown tensor of the given ``shape`` in row-major order (by default a
    vector, ``(A.cols,)``); solutions and candidates are sparse tensors on it.

    ``labels`` names for each row the condition it encodes; it defaults to the
    row indices.
    """

    matrix: SparseMat
    rhs: list
    shape: Optional[tuple] = None
    labels: Optional[list] = None

    def __post_init__(self):
        if self.shape is None:
            self.shape = (self.matrix.cols,)
        if self.matrix.cols != self.unknowns:
            raise ValueError("coefficient matrix width differs from unknown count")
        if len(self.rhs) != self.matrix.rows:
            raise ValueError("right-hand side length differs from row count")
        if self.labels is None:
            self.labels = list(range(len(self.rhs)))
        if len(self.labels) != len(self.rhs):
            raise ValueError("label count differs from row count")

    @classmethod
    def conditions(cls, field: FieldSpec, shape: tuple, *conds) -> "AffineSystem":
        """A system in the entries of an unknown map of the given ``shape``, taken
        in row-major order as the unknowns.

        A condition ``(label, terms, constant)`` states that the sum of its terms
        equals ``constant``, a sparse tensor on the row indices or None.  A term
        ``(sign, spec, *knowns)``, sign 1 or -1, is the contraction ``spec`` of the
        known tensors and, as its last operand, the unknown; the output of ``spec``
        names the row indices, and no index of ``spec`` is ``#``.  The rows are
        the :func:`signed_sum` that :func:`failed_conditions` evaluates, taken on
        the identity tensor of the unknowns, keyed ``(*index, column)``, with the
        column as one more index ``#`` on the unknown and on the output.  Rows come
        in key order; a condition whose rows all cancel keeps one empty row, so
        its label stays."""
        unknown = {(*_unravel(c, shape), c): field.one for c in range(prod(shape))}
        rows, rhs, labels = [], [], []
        for label, terms, const in conds:
            const, signed = const or {}, []
            for sign, spec, *knowns in terms:
                inputs, out = spec.split("->")
                *names, var = inputs.split(",")
                if sign not in (1, -1) or len(names) != len(knowns) or "#" in spec \
                        or not len(set(var)) == len(var) == len(shape) or set(out) - set(inputs):
                    raise ValueError(f"bad condition term {spec!r} on an unknown of shape {shape}")
                signed.append((sign, f"{inputs}#->{out}#", *knowns, unknown))
            by_row = defaultdict(list)
            for key, v in signed_sum(field, signed).items():
                by_row[key[:-1]].append((key[-1], v))
            keys = sorted(by_row.keys() | const.keys()) or [None]
            rows += [by_row.get(k, []) for k in keys]
            rhs += [const.get(k, field.zero) for k in keys]
            labels += [label] * len(keys)
        return cls(SparseMat(field, len(rows), prod(shape), rows), rhs, tuple(shape), labels)

    @property
    def unknowns(self) -> int:
        return prod(self.shape)


# a term's spec with its last operand, the unknown, moved first (memoized: specs are literals)
_unknown_first = cache(partial(re.sub, r"(.*),(\w+)->", r"\2,\1->"))


def failed_conditions(field: FieldSpec, conds: list, x: dict) -> list:
    """The distinct labels, in order, of the conditions ``(label, terms, constant)`` of
    :meth:`AffineSystem.conditions` whose terms do not sum to the constant on ``x``, which
    each term contracts first, so no known is copied whole; no row built, no shape checked."""
    return list({label: None for label, terms, const in conds
                 if signed_sum(field, [(s, _unknown_first(spec), x, *knowns)
                                       for s, spec, *knowns in terms])
                 != {k: v for k, v in (const or {}).items() if v}})


def require_conditions(field: FieldSpec, conds: list, x: dict, what: str) -> list:
    """The labels of ``conds`` once ``x`` meets them all; raises ``AssertionError``
    naming the violated conditions otherwise."""
    if bad := failed_conditions(field, conds, x):
        raise AssertionError(f"{what} fails {', '.join(map(str, bad))}")
    return list(dict.fromkeys(label for label, *_ in conds))


@dataclass
class Certificate:
    """A map of the paper's criteria as the sparse ``tensor`` of ``shape``, built once it met
    the conditions ``verified``, the labels :func:`require_conditions` returned; ``kind``
    names the map, and the report its serializer writes."""

    kind: str
    tensor: dict
    shape: tuple
    verified: list


class Echelon:
    """Sparse Gauss-Jordan elimination taking rows one at a time; ``piv`` maps each pivot
    column to the rest of its reduced row (its size is the rank), ``lead`` to the row's lead.

    Over F_p entries are raw ints mod p and leads are 1.  Over Q rows are scaled
    to integers on entry (the RREF depends only on the row space) and kept as
    primitive integer rows with a positive lead L; on exit v becomes Fraction(v, L).

    A new pivot c back-eliminates only the pivot rows in ``occ[c]``, the rows
    holding column c; each fill-in and each cancellation updates ``occ``.  The
    cost is the entries touched, not a scan of every pivot row per pivot.
    """

    def __init__(self, field: FieldSpec):
        self.field, self.piv, self.lead, self.occ = field, {}, {}, defaultdict(set)

    def add(self, row) -> bool:
        """Whether the sparse row ``row`` is outside the span of the pivot rows, which it joins."""
        rank = len(self.piv)
        self.extend([row])
        return len(self.piv) > rank

    def extend(self, rows, stop: Optional[int] = None):
        """Reduce the sparse rows, pairs ``(column, coefficient)``, one at a time against
        the pivot rows; each outside their span becomes one, until there are ``stop``."""
        p, piv, lead, occ = self.field.characteristic, self.piv, self.lead, self.occ
        for row in rows:
            if len(piv) == stop:
                break
            r = dict(row) if p else _integers(row)[1]
            hits = [c for c in r if c in piv]
            if hits:
                # Pivot rows are zero in every other pivot column, so subtracting them leaves the
                # other hits unchanged; over Q the row is first scaled by the lcm m of the leads.
                if not p and (m := lcm(*(lead[c] for c in hits))) != 1:
                    r = {j: m * v for j, v in r.items()}
                get = r.get
                for c in hits:
                    a = r.pop(c) if p else r.pop(c) // lead[c]
                    for j, v in piv[c].items():
                        r[j] = get(j, 0) - a * v
                r = {j: w for j, v in r.items() if (w := v % p)} if p else \
                    {j: v for j, v in r.items() if v}
            if not r:
                continue
            c = min(r)
            if p and (inv := pow(r[c], p - 2, p)) != 1:
                r = {j: v * inv % p for j, v in r.items()}
            elif not p and (g := gcd(*r.values()) * (1 if r[c] > 0 else -1)) != 1:
                r = {j: v // g for j, v in r.items()}  # over Q: content out, lead positive
            lead[c] = lead_c = r.pop(c)
            for q in occ.pop(c, ()):
                other = piv[q]
                a = other.pop(c)
                if lead_c != 1:  # over Q: other <- lead_c * other - a * r
                    piv[q] = other = {j: lead_c * v for j, v in other.items()}
                    lead[q] *= lead_c
                get = other.get
                for j, v in r.items():
                    w = (get(j, 0) - a * v) % p if p else get(j, 0) - a * v
                    if w:
                        other[j] = w
                        occ[j].add(q)
                    else:
                        del other[j]
                        occ[j].remove(q)
                if lead_c != 1 and (g := gcd(lead[q], *other.values())) != 1:
                    piv[q], lead[q] = {j: v // g for j, v in other.items()}, lead[q] // g
            for j in r:
                occ[j].add(c)
            piv[c] = r


def _rref(rows: list, ncols: int, field: FieldSpec) -> list:
    """The pivot columns of the sparse rows ``rows`` over ``ncols`` columns, reduced in place
    by one :class:`Echelon`: ``rows[k]`` becomes the row with pivot ``pivots[k]``, pairs sorted
    by column with lead 1, the rest become empty; the row lists passed in are not modified."""
    echelon = Echelon(field)
    echelon.extend(rows, ncols)
    piv, lead = echelon.piv, echelon.lead
    pivots = sorted(piv)
    reduced = [[(c, field.one), *(sorted(piv[c].items()) if field.characteristic else
                ((j, Fraction(v, lead[c])) for j, v in sorted(piv[c].items())))] for c in pivots]
    rows[:] = reduced + [[] for _ in range(len(rows) - len(reduced))]
    return pivots


def _integers(pairs) -> tuple:
    """(d, {key: d * x}) for ``(key, x)`` pairs of rationals, d the lcm of their denominators."""
    d = lcm(*(x.denominator for _, x in pairs))
    return d, {k: x.numerator * (d // x.denominator) for k, x in pairs}


def _kernel_basis(rows: list, pivots: list, n: int, field: FieldSpec) -> dict:
    """Nullspace basis tensor (c, t) of the first ``n`` columns of reduced rows:
    vector t for the t-th free variable, set to 1, with the other free variables 0."""
    pivot_set = set(pivots)
    where = {c: t for t, c in enumerate(c for c in range(n) if c not in pivot_set)}
    basis = {(c, t): field.one for c, t in where.items()}
    for pc, row in zip(pivots, rows):
        for j, a in row[1:]:
            if j < n:
                basis[pc, where[j]] = field.neg(a)
    return ordered(basis)


def _unravel(c: int, shape: tuple) -> tuple:
    """The index tuple of entry c of a tensor of ``shape`` in row-major order."""
    key = []
    for d in reversed(shape[1:]):
        c, r = divmod(c, d)
        key.append(r)
    return (c, *reversed(key))


def solve_affine(sys: AffineSystem) -> Optional[dict]:
    """The particular solution, every free variable 0, keyed on the unknown's shape;
    None if infeasible."""
    n = sys.unknowns
    rows = [[*row, (n, b)] if b else row for row, b in zip(sys.matrix.data, sys.rhs)]
    pivots = _rref(rows, n + 1, sys.matrix.field)
    if pivots and pivots[-1] == n:  # pivot in the augmented column: 0 = 1
        return None
    return {_unravel(pc, sys.shape): row[-1][1] for pc, row in zip(pivots, rows) if row[-1][0] == n}


def nullspace(m: SparseMat) -> dict:
    """The basis tensor (c, t) of ker(m)."""
    rows = m.data[:]
    pivots = _rref(rows, m.cols, m.field)
    return _kernel_basis(rows, pivots, m.cols, m.field)


def solve(field: FieldSpec, shape: tuple, conds: list, what: str) -> Optional[dict]:
    """The particular solution of the conditions ``conds`` of :meth:`AffineSystem.conditions`
    on an unknown of ``shape``, once it meets them (:func:`require_conditions`, which names
    it ``what``); None when they have no solution."""
    x = solve_affine(AffineSystem.conditions(field, shape, *conds))
    if x is not None:
        require_conditions(field, conds, x, what)
    return x


def kernel(field: FieldSpec, n: int, conds: list) -> dict:
    """The basis tensor (c, t) of the vectors of K^n that meet the homogeneous conditions
    ``conds``."""
    return nullspace(AffineSystem.conditions(field, (n,), *conds).matrix)


def rank(m: SparseMat) -> int:
    return len(_rref(m.data[:], m.cols, m.field))


def invert(m: SparseMat) -> Optional[dict]:
    """The inverse of a square matrix as a sparse tensor (key ``(i, j)``: row i,
    column j), or None when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n, one = m.rows, m.field.one
    rows = [[(n + i, one), *row] for i, row in enumerate(m.data)]
    pivots = _rref(rows, 2 * n, m.field)
    if pivots[:n] != list(range(n)):
        return None
    return {(i, j - n): a for i, row in enumerate(rows[:n]) for j, a in row[1:]}


def pivot_columns(field: FieldSpec, vectors: dict, n: int, k: int) -> tuple:
    """(pivots, rows): the pivot columns and reduced rows of the n x k matrix
    whose columns are the k vectors of the basis tensor ``vectors``, from one
    elimination.  Vector j is a pivot exactly when it lies outside the span of
    the vectors before it, so the pivots are the subset a greedy pass over the
    vectors keeps; zero vectors are never kept."""
    rows = SparseMat.from_tensor(field, vectors, n, k).data
    return _rref(rows, k, field), rows


def _vector_rows(t: dict) -> list:
    """The nonzero vectors of the basis tensor ``t`` as sparse rows, in vector order."""
    rows = defaultdict(list)
    for (x, j), v in t.items():
        rows[j].append((x, v))
    return [rows[j] for j in sorted(rows)]


def span_contains_span(field: FieldSpec, big: dict, small: dict, n: int) -> bool:
    """Whether every vector of the basis tensor ``small`` lies in the span of
    those of ``big``, both in K^n, decided by one rank comparison:
    rank(big + small) == rank(big)."""
    if not small:
        return True
    rows = _vector_rows(big)
    k = len(rows)
    rows += _vector_rows(small)
    return rank(SparseMat(field, len(rows), n, rows)) == rank(SparseMat(field, k, n, rows[:k]))


def spans_equal(field: FieldSpec, a: dict, b: dict, n: int) -> bool:
    return span_contains_span(field, a, b, n) and span_contains_span(field, b, a, n)


# ---------------------------------------------------------------------------
# Sparse tensors
# ---------------------------------------------------------------------------

def _picker(positions: list):
    """The map from an index tuple to its entries at ``positions``, as a tuple."""
    if len(positions) == 1:
        k = positions[0]
        return lambda key: (key[k],)
    return itemgetter(*positions) if positions else lambda key: ()


def contract(field: FieldSpec, spec: str, *tensors: dict) -> dict:
    """The einsum-style contraction ``spec`` of sparse tensors.

    Operands are contracted pairwise from the left, and each index is summed
    as soon as no later operand and not the output uses it; ordering the
    operands so that each shares an index with the ones before keeps the
    intermediate tensors small.  Over F_p entries are raw ints reduced once
    per step; over Q on operands scaled to integers, each output entry divided
    once by the product of the scales.  Zero entries are dropped.
    """
    inputs, out = spec.split("->")
    names = inputs.split(",")
    if len(names) != len(tensors) or any(len(set(s)) != len(s) for s in names + [out]):
        raise ValueError(f"bad contraction spec {spec!r} for {len(tensors)} tensors")
    p = field.characteristic
    if not p:  # over Q: integer operands, and the product of their scales
        scales, tensors = zip(*(_integers(b.items()) for b in tensors))
        scale = prod(scales)
    idx, acc = "", {}
    for t, (name, b) in enumerate(zip(names, tensors)):
        later = set(out).union(*names[t + 1:])
        shared = [c for c in name if c in idx]
        new = [c for c in name if c not in idx and c in later]
        b_shared, b_new = _picker([name.index(c) for c in shared]), \
            _picker([name.index(c) for c in new])
        groups = {}
        for key, v in b.items():
            g = groups.setdefault(b_shared(key), {})
            k = b_new(key)
            g[k] = g[k] + v if k in g else v
        kept = [c for c in idx if c in later]
        a_shared, a_kept = _picker([idx.index(c) for c in shared]), \
            _picker([idx.index(c) for c in kept])
        if t == 0:  # the first operand, summed over its private indices, is the product
            res = groups.get((), {})
        else:
            res = {}
            for key, x in acc.items():
                g = groups.get(a_shared(key))
                if g:
                    base = a_kept(key)
                    for k, y in g.items():
                        k = base + k
                        res[k] = res[k] + x * y if k in res else x * y
        acc = {k: w for k, v in res.items() if (w := v % p)} if p else \
            {k: v for k, v in res.items() if v}
        idx = "".join(kept + new)
    if set(out) - set(idx):
        raise ValueError(f"output indices of {spec!r} appear in no operand")
    if not p:
        acc = {k: Fraction(v, scale) for k, v in acc.items()}
    if idx == out:
        return acc
    perm = _picker([idx.index(c) for c in out])
    return {perm(k): v for k, v in acc.items()}


def sparse(nested: list) -> dict:
    """The nonzero entries of a nested list, keyed by index tuple."""
    if nested and isinstance(nested[0], list):  # any() skips all-zero rows at C speed
        return {(i, *k): c for i, sub in enumerate(nested) if any(sub)
                for k, c in sparse(sub).items()}
    return {(i,): c for i, c in enumerate(nested) if c}


def in_coordinates(field: FieldSpec, t: dict, basis: dict, coords: dict, what: str,
                   error: type = AssertionError) -> dict:
    """``t`` with its last index, a vector of the ambient space, rewritten in the
    coordinates of a subspace: ``basis[(x, j)]`` is entry x of basis vector j and
    ``coords`` a left inverse of it.  Raises ``error(what)`` when one of those
    vectors lies outside the span."""
    lead = "ABCDEFGH"[:len(next(iter(t), (0,))) - 1]
    out = contract(field, f"{lead}x,cx->{lead}c", t, coords)
    if contract(field, f"{lead}c,xc->{lead}x", out, basis) != t:
        raise error(what)
    return out


def require_keys(t: dict, shape: tuple, what: str) -> None:
    """Raise ``ValueError`` unless every key of ``t`` is an index tuple inside ``shape``."""
    bad = [k for k in t if len(k) != len(shape) or not all(0 <= i < d for i, d in zip(k, shape))]
    if bad:
        dims = " x ".join(map(str, shape))
        raise ValueError(f"{what} must be {dims}, got an entry at {min(bad)}")


def ordered(t: dict) -> dict:
    """``t`` with its entries in key order, the order :func:`sparse` gives."""
    return dict(sorted(t.items()))


def identity(field: FieldSpec, n: int) -> dict:
    """The n x n identity matrix as a sparse tensor."""
    return {(i, i): field.one for i in range(n)}


def signed_sum(field: FieldSpec, terms: list) -> dict:
    """The sum of the contractions ``(sign, spec, *tensors)``, sign 1 or -1, zeros dropped."""
    p, out = field.characteristic, {}
    for n, (sign, spec, *tensors) in enumerate(terms):
        t = contract(field, spec, *tensors)
        if not n and sign > 0:  # the sum so far is the first term, as contract returns it
            out = t
            continue
        for k, v in t.items():
            w = out.get(k, 0) + v if sign > 0 else out.get(k, 0) - v
            if w := w % p if p else w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def least_failure(width: int, *laws) -> Optional[tuple]:
    """(prefix, name): the least index prefix of length ``width`` on which a law
    ``(name, lhs, rhs)``, two sparse tensors, fails, and the first law, in order,
    that fails there; None when every law holds.  The sides of each law are
    compared whole, and the prefixes where they differ collected only for the
    laws that fail."""
    bad = [(name, {k[:width] for k, _ in lhs.items() ^ rhs.items()})
           for name, lhs, rhs in laws if lhs != rhs]
    if not bad:
        return None
    first = min(set().union(*(at for _, at in bad)))
    return first, next(name for name, at in bad if first in at)
