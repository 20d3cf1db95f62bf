"""JSON interchange for Hopf data and certificates.

The Hopf document format is::

    { "field": {"char": c}, "dim": n, "basis": [names],
      "mult": mu[i][j][k], "comult": delta[k][i][j],
      "counit": [..], "antipode": [[..]] }

Rational scalars appear as "p/q" strings (plain ints when integral);
prime-field scalars as ints.  The unit is not stored: it is recovered as the
unique two-sided identity of the multiplication tensor on load.
"""

from __future__ import annotations

import json
from typing import Optional

from .fields import FieldSpec
from .hopf import (AlgebraData, CoalgebraData, HopfData, check_hopf, validated)
from .linalg import AffineSystem, Mat, solve_affine


def hopf_to_dict(h: HopfData) -> dict:
    f = h.field
    n = h.dim
    return {
        "field": {"char": f.characteristic},
        "dim": n,
        "basis": list(h.basis),
        "mult": [[[f.to_json(h.alg.mult[i][j][k]) for k in range(n)]
                  for j in range(n)] for i in range(n)],
        "comult": [[[f.to_json(h.coa.comult[k][i][j]) for j in range(n)]
                    for i in range(n)] for k in range(n)],
        "counit": [f.to_json(x) for x in h.coa.counit],
        "antipode": [[f.to_json(h.antipode.data[i][j]) for j in range(n)]
                     for i in range(n)],
    }


def _solve_unit(alg_mult: list, f: FieldSpec, n: int) -> list:
    rows = []
    rhs = []
    for j in range(n):
        for k in range(n):
            rows.append({i: c for i in range(n) if (c := alg_mult[i][j][k])})
            rhs.append(f.one if j == k else f.zero)
            rows.append({i: c for i in range(n) if (c := alg_mult[j][i][k])})
            rhs.append(f.one if j == k else f.zero)
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, n))
    if sol is None:
        raise ValueError("multiplication tensor has no two-sided unit")
    return sol.particular


def _check_shape(name: str, value, shape: tuple) -> None:
    """Raise ValueError unless ``value`` is nested lists of exactly ``shape``."""
    if not shape:
        return
    if not isinstance(value, list) or len(value) != shape[0]:
        dims = " x ".join(map(str, shape))
        raise ValueError(f"malformed Hopf document: {name} must have shape {dims}")
    for item in value:
        _check_shape(name, item, shape[1:])


def _int_entry(d: dict, *keys) -> int:
    value = d
    for key in keys:
        value = value[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"malformed Hopf document: {'.'.join(keys)} must be an integer")
    return value


def hopf_from_dict(d: dict, validate: bool = True) -> HopfData:
    try:
        n = _int_entry(d, "dim")
        if n < 1:
            raise ValueError("malformed Hopf document: dim must be positive")
        f = FieldSpec(_int_entry(d, "field", "char"))
        for name, shape in (("mult", (n, n, n)), ("comult", (n, n, n)),
                            ("counit", (n,)), ("antipode", (n, n))):
            _check_shape(name, d[name], shape)
        basis = d.get("basis") or [f"e{i}" for i in range(n)]
        _check_shape("basis", basis, (n,))
        if not all(isinstance(name, str) for name in basis):
            raise ValueError("malformed Hopf document: basis names must be strings")
        mult = [[[f.parse(x) for x in row] for row in block] for block in d["mult"]]
        comult = [[[f.parse(x) for x in row] for row in block] for block in d["comult"]]
        counit = [f.parse(x) for x in d["counit"]]
        antipode = Mat(f, n, n, [[f.parse(x) for x in row] for row in d["antipode"]])
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed Hopf document: {exc}") from exc
    unit = _solve_unit(mult, f, n)
    h = HopfData(AlgebraData(f, n, mult, unit), CoalgebraData(f, n, comult, counit),
                 antipode, None, list(basis))
    return validated(h) if validate else h


def hopf_to_json(h: HopfData) -> str:
    return json.dumps(hopf_to_dict(h), sort_keys=True)


def hopf_from_json(text: str, validate: bool = True) -> HopfData:
    return hopf_from_dict(json.loads(text), validate=validate)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def _vec_json(f: FieldSpec, v: list) -> list:
    return [f.to_json(x) for x in v]


def _mat_json(m: Mat) -> list:
    f = m.field
    return [[f.to_json(x) for x in row] for row in m.data]


def integral_to_dict(f: FieldSpec, cert, kind: Optional[str] = None) -> dict:
    if kind is None:
        if cert.ad_invariant:
            kind = "ad_invariant_integral"
        elif cert.ad_coinvariant:
            kind = "ad_coinvariant_integral"
        else:
            kind = "total_integral" if cert.total else "integral"
    verified = []
    if kind == "ad_invariant_integral":
        verified = ["a", "b", "c"]
    elif kind == "ad_coinvariant_integral":
        verified = ["a", "b", "c"]
    key = "lambda" if cert.carrier == "in_dual" else "t"
    return {"type": kind, key: _vec_json(f, cert.vector),
            "side": cert.side, "carrier": cert.carrier, "verified": verified}


def separability_to_dict(f: FieldSpec, cert) -> dict:
    if cert.kind == "idempotent_for_algebra":
        return {"type": "separability_idempotent", "e": _vec_json(f, cert.data),
                "verified": list(cert.verified)}
    return {"type": "coseparability_retraction", "theta": _mat_json(cert.data),
            "verified": list(cert.verified)}


def section_to_dict(cert) -> dict:
    return {"type": cert.kind, "matrix": _mat_json(cert.matrix),
            "verified_conditions": list(cert.verified_conditions),
            "nullity": 0 if cert.nullspace is None else cert.nullspace.cols}


def extension_to_dict(ext) -> dict:
    f = ext.big.field
    nb, ns = ext.big.dim, ext.small.dim
    return {
        "big": {"field": {"char": f.characteristic}, "dim": nb,
                "mult": [[[f.to_json(ext.big.mult[i][j][k]) for k in range(nb)]
                          for j in range(nb)] for i in range(nb)]},
        "small": {"field": {"char": f.characteristic}, "dim": ns,
                  "mult": [[[f.to_json(ext.small.mult[i][j][k]) for k in range(ns)]
                            for j in range(ns)] for i in range(ns)]},
        "embedding": _mat_json(ext.embedding),
    }


def filtration_to_dict(f: FieldSpec, record) -> dict:
    return {
        "type": "wedge_filtration",
        "stage_dims": [s.dim for s in record.stages],
        "stages": [[_vec_json(f, v) for v in s.vectors] for s in record.stages],
        "exhausted": record.exhausted,
        "stabilization_index": record.stabilization_index,
    }


def lift_to_dict(cert) -> dict:
    return {
        "type": "lift_certificate",
        "stages": [_mat_json(m) for m in cert.stages],
        "final": _mat_json(cert.final),
        "algebra_map": cert.algebra_map,
        "colinear": cert.colinear,
    }


def obstruction_to_dict(f: FieldSpec, obs) -> dict:
    return {
        "type": "lift_obstruction",
        "stage": obs.stage,
        "reason": obs.reason,
        "delta_closed": obs.delta_closed,
        "witness": [[_vec_json(f, entry) for entry in row] for row in obs.witness],
    }
