"""JSON interchange for Hopf data and certificates.

The Hopf document format is::

    { "field": {"char": c}, "dim": n, "basis": [names],
      "mult": mu[i][j][k], "comult": delta[k][i][j],
      "counit": [..], "antipode": [[..]] }

Rational scalars appear as "p/q" strings (plain ints when integral);
prime-field scalars as ints.  The unit is not stored: it is recovered as the
unique two-sided identity of the multiplication tensor on load.  A ``basis``
that is absent or null names the vectors e0, e1, ...; any other value must be
a list of n strings.

The schema is unchanged by the in-memory form: the structure maps, and every
vector, subspace basis and linear map of a certificate, live as sparse tensors
(:mod:`hopf`), so loading checks the nested-list shapes, parses the scalars
and then keeps only the nonzero entries; writing converts only the nonzero
entries (:func:`json_lists`) and :mod:`cli` prints the report exactly as
``json.dumps(..., sort_keys=True, indent=2)`` would, from flat rows of tokens.
"""

from __future__ import annotations

from math import prod
from operator import mul
from typing import Optional

from .fields import FieldSpec
from .hopf import AlgebraData, CoalgebraData, HopfData
from .linalg import identity, solve, sparse


def json_lists(f: FieldSpec, t: dict, shape: tuple, lists: Optional[tuple] = None) -> list:
    """The sparse tensor ``t`` of ``shape`` as JSON nested lists of the shape
    ``lists`` (by default ``shape``) holding the same entries in row-major
    order, sliced from one flat row."""
    lists = lists or shape
    flat, strides = [0] * prod(shape), [prod(shape[d + 1:]) for d in range(len(shape))]
    for key, v in t.items():
        flat[sum(map(mul, key, strides))] = f.to_json(v)
    for d in range(len(lists) - 1, 0, -1):
        flat = [flat[r * lists[d]:(r + 1) * lists[d]] for r in range(prod(lists[:d]))]
    return flat


def vector_lists(f: FieldSpec, sub) -> list:
    """The basis vectors of a :class:`hopf.SubspaceBasis` as JSON lists, one per vector."""
    return json_lists(f, {(j, x): v for (x, j), v in sub.basis.items()},
                      (sub.dim, sub.ambient_dim))


def hopf_to_dict(h: HopfData) -> dict:
    f, n = h.field, h.dim
    return {"field": {"char": f.characteristic}, "dim": n, "basis": list(h.basis),
            "mult": json_lists(f, h.alg.mult, (n, n, n)),
            "comult": json_lists(f, h.coa.comult, (n, n, n)),
            "counit": json_lists(f, h.coa.counit, (n,)),
            "antipode": json_lists(f, h.antipode, (n, n))}


def _solve_unit(m: dict, f: FieldSpec, n: int) -> dict:
    """The unit u with sum_i u_i e_i·e_j = e_j = sum_i u_i e_j·e_i, rows (j, k), checked
    on those conditions."""
    one = identity(f, n)
    conds = [("left unit", [(1, "ijk,i->jk", m)], one), ("right unit", [(1, "jik,i->jk", m)], one)]
    unit = solve(f, (n,), conds, "unit")
    if unit is None:
        raise ValueError("multiplication tensor has no two-sided unit")
    return unit


def _check_shape(name: str, value, shape: tuple) -> None:
    """Raise ValueError unless ``value`` is nested lists of exactly ``shape``."""
    if not shape:
        return
    if not isinstance(value, list) or len(value) != shape[0]:
        dims = " x ".join(map(str, shape))
        raise ValueError(f"{name} must have shape {dims}")
    for item in value:
        _check_shape(name, item, shape[1:])


def _int_entry(d: dict, *keys) -> int:
    value = d
    for key in keys:
        value = value[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{'.'.join(keys)} must be an integer")
    return value


def hopf_from_dict(d: dict) -> HopfData:
    """The Hopf data of a document, its shapes and unit checked, its axioms left to the caller."""
    try:
        n = _int_entry(d, "dim")
        if n < 1:
            raise ValueError("dim must be positive")
        f = FieldSpec(_int_entry(d, "field", "char"))
        for name, shape in (("mult", (n, n, n)), ("comult", (n, n, n)),
                            ("counit", (n,)), ("antipode", (n, n))):
            _check_shape(name, d[name], shape)
        if (basis := d.get("basis")) is None:  # absent or null: the default names
            basis = [f"e{i}" for i in range(n)]
        _check_shape("basis", basis, (n,))
        if not all(isinstance(name, str) for name in basis):
            raise ValueError("basis names must be strings")
        mult = sparse([[[f.parse(x) for x in row] for row in block] for block in d["mult"]])
        comult = sparse([[[f.parse(x) for x in row] for row in block] for block in d["comult"]])
        counit = sparse([f.parse(x) for x in d["counit"]])
        antipode = sparse([[f.parse(x) for x in row] for row in d["antipode"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed Hopf document: {exc}") from exc
    unit = _solve_unit(mult, f, n)
    return HopfData(AlgebraData(f, n, mult, unit), CoalgebraData(f, n, comult, counit),
                    antipode, None, list(basis))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def integral_to_dict(f: FieldSpec, cert) -> dict:
    """A normalized left integral and the labels it was checked on: (a), (b) and (c) for an
    ad-(co)invariant one, "left" for the total integral, checked with its space."""
    key = "lambda" if cert.carrier == "in_dual" else "t"
    return {"type": cert.kind, key: json_lists(f, cert.tensor, cert.shape),
            "side": "left", "carrier": cert.carrier, "verified": list(cert.verified)}


def separability_to_dict(f: FieldSpec, cert) -> dict:
    """e as one flat list of its n^2 entries, theta as its n x n^2 matrix."""
    n = cert.shape[0]
    if cert.kind == "idempotent_for_algebra":
        return {"type": "separability_idempotent",
                "e": json_lists(f, cert.tensor, cert.shape, (n * n,)),
                "verified": list(cert.verified)}
    return {"type": "coseparability_retraction",
            "theta": json_lists(f, cert.tensor, cert.shape, (n, n * n)),
            "verified": list(cert.verified)}


def section_to_dict(f: FieldSpec, cert) -> dict:
    """The formula map, tau (i, a, b) with rows (i, a) or chi (c, i, a) with columns
    (i, a), and the conditions it was checked on (a "no" has no normalized integral)."""
    split = 2 if cert.kind.endswith("section") else 1
    lists = (prod(cert.shape[:split]), prod(cert.shape[split:]))
    return {"type": cert.kind, "matrix": json_lists(f, cert.tensor, cert.shape, lists),
            "verified_conditions": list(cert.verified)}


def extension_to_dict(ext) -> dict:
    f = ext.big.field
    return {**{side: {"field": {"char": f.characteristic}, "dim": a.dim,
                      "mult": json_lists(f, a.mult, (a.dim,) * 3)}
               for side, a in (("big", ext.big), ("small", ext.small))},
            "embedding": json_lists(f, ext.embedding, (ext.big.dim, ext.small.dim))}


def filtration_to_dict(f: FieldSpec, record) -> dict:
    return {
        "type": "wedge_filtration",
        "stage_dims": [s.dim for s in record.stages],
        "stages": [vector_lists(f, s) for s in record.stages],
        "exhausted": record.exhausted,
        "stabilization_index": record.stabilization_index,
    }


def lift_to_dict(f: FieldSpec, cert) -> dict:
    return {
        "type": "lift_certificate",
        "stages": [json_lists(f, g, shape) for g, shape in zip(cert.stages, cert.shapes)],
        "final": json_lists(f, cert.final, cert.shapes[-1]),
        "algebra_map": True,  # the final section passed _verify_final, multiplicativity too
        "colinear": cert.colinear,
    }


def obstruction_to_dict(f: FieldSpec, obs) -> dict:
    return {
        "type": "lift_obstruction",
        "stage": obs.stage,
        "reason": obs.reason,
        "delta_closed": obs.delta_closed,
        "witness": json_lists(f, obs.witness, obs.shape),
    }
