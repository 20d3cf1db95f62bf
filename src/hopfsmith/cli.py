"""Command-line interface.

Exit codes: 0 = property holds / certificate emitted, 1 = property refuted
(with obstruction data in the report), 2 = input error.  Reports are JSON on
stdout with sorted keys, so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fields import FieldSpec
from .hopf import HopfData, SubspaceBasis, check_hopf, dual_hopf
from .linalg import Mat
from .presets import NotAGroupError, resolve_preset
from . import integrals as integ
from . import smoothness as smo
from . import serialize as ser
from .doubles import drinfeld_double, separable_extension
from .filtration import coradical, wedge_filtration
from .lifting import (LiftCertificate, LiftObstruction, WeakProjectionCertificate,
                      cyclic_cover_problem, lift_algebra_section,
                      square_zero_extension, weak_projection)

SUBCOMMANDS = [
    "check-axioms", "integrals", "ad-invariant", "ad-coinvariant",
    "separable", "coseparable", "fs-algebra", "fs-algebra-complete",
    "fs-coalgebra", "fs-coalgebra-complete", "double", "double-separable",
    "coradical", "wedge-filtration", "lift-section", "weak-projection",
    "truth-table",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfsmith",
        description="exact certificates for finite-dimensional Hopf algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        if name != "truth-table":
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--preset", help="group:C3, functions:S3, sweedler, taft:3:2")
            src.add_argument("--file", help="path to a Hopf JSON document")
            p.add_argument("--char", type=int, default=0,
                           help="field characteristic for presets (0 = rationals)")
        p.add_argument("--output", help="also write the JSON report to this path")
        if name == "wedge-filtration":
            p.add_argument("--start", choices=["coradical", "unit"], default="coradical")
        if name == "lift-section":
            p.add_argument("--problem", default="square-zero",
                           help="square-zero or cyclic-cover:M")
            p.add_argument("--colinear", action="store_true")
        if name == "weak-projection":
            p.add_argument("--onto", choices=["coradical"], default="coradical")
            p.add_argument("--bilinear", action="store_true")
    return parser


def _load(args) -> HopfData:
    if args.file is not None:
        if args.char:
            raise ValueError("--char only applies to presets; files carry their field")
        with open(args.file) as fh:
            doc = json.load(fh)
        return ser.hopf_from_dict(doc, validate=args.command != "check-axioms")
    return resolve_preset(args.preset, FieldSpec(args.char))


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")


def _axiom_report_dict(rep) -> dict:
    return {name: {"ok": c.ok, "witness": list(c.witness) if c.witness else None}
            for name, c in rep.checks.items()}


def cmd_check_axioms(args) -> int:
    h = _load(args)
    rep = check_hopf(h)
    _emit({"command": "check-axioms", "axioms": _axiom_report_dict(rep),
           "all_ok": rep.all_ok}, args)
    return 0 if rep.all_ok else 1


def cmd_integrals(args) -> int:
    h = _load(args)
    f = h.field
    report = {"command": "integrals"}
    for carrier in ("in_h", "in_dual"):
        block = {}
        for side in ("left", "right"):
            sp = integ.integral_space(h, side, carrier)
            block[side] = {"dim": sp.dim,
                           "basis": [[f.to_json(x) for x in v] for v in sp.vectors]}
        tot = integ.total_integral(h, carrier)
        block["total"] = None if tot is None else ser.integral_to_dict(f, tot)
        block["unimodular"] = integ.is_unimodular(h, carrier)
        report[carrier] = block
    _emit(report, args)
    return 0


def cmd_ad_invariant(args) -> int:
    h = _load(args)
    cert = integ.ad_invariant_integral(h)
    if cert is None:
        _emit({"command": "ad-invariant", "exists": False,
               "reason": "affine system (a)+(b)+(c) infeasible"}, args)
        return 1
    _emit({"command": "ad-invariant", "exists": True,
           "certificate": ser.integral_to_dict(h.field, cert)}, args)
    return 0


def cmd_ad_coinvariant(args) -> int:
    h = _load(args)
    cert = integ.ad_coinvariant_integral(h)
    if cert is None:
        _emit({"command": "ad-coinvariant", "exists": False,
               "reason": "affine system (a)+(b)+(c) infeasible"}, args)
        return 1
    _emit({"command": "ad-coinvariant", "exists": True,
           "certificate": ser.integral_to_dict(h.field, cert)}, args)
    return 0


def cmd_separable(args) -> int:
    h = _load(args)
    cert = integ.separability_idempotent(h)
    if cert is None:
        _emit({"command": "separable", "separable": False,
               "reason": "no total integral; blind idempotent search infeasible"}, args)
        return 1
    _emit({"command": "separable", "separable": True,
           "certificate": ser.separability_to_dict(h.field, cert)}, args)
    return 0


def cmd_coseparable(args) -> int:
    h = _load(args)
    cert = integ.coseparability_retraction(h)
    if cert is None:
        _emit({"command": "coseparable", "coseparable": False,
               "reason": "no total integral in the dual; blind retraction search infeasible"},
              args)
        return 1
    _emit({"command": "coseparable", "coseparable": True,
           "certificate": ser.separability_to_dict(h.field, cert)}, args)
    return 0


def _cmd_fs(args, finder, label) -> int:
    h = _load(args)
    cert = finder(h)
    if cert is None:
        _emit({"command": label, "feasible": False,
               "reason": "affine feasibility system has no solution"}, args)
        return 1
    _emit({"command": label, "feasible": True,
           "certificate": ser.section_to_dict(cert)}, args)
    return 0


def cmd_double(args) -> int:
    h = _load(args)
    double, ext = drinfeld_double(h)
    _emit({"command": "double", "dim": double.dim,
           "double": ser.hopf_to_dict(double),
           "extension": ser.extension_to_dict(ext)}, args)
    return 0


def cmd_double_separable(args) -> int:
    h = _load(args)
    _, ext = drinfeld_double(h)
    cert = separable_extension(ext)
    adinv = integ.ad_invariant_integral(h)
    agree = (cert is None) == (adinv is None)
    if not agree:
        raise AssertionError("D(H)/H separability disagrees with ad-invariant existence")
    report = {"command": "double-separable", "separable_over_h": cert is not None,
              "ad_invariant_exists": adinv is not None, "routes_agree": True}
    if cert is not None:
        f = h.field
        report["idempotent_quotient_coords"] = [f.to_json(x) for x in cert.quotient_coords]
    _emit(report, args)
    return 0 if cert is not None else 1


def cmd_coradical(args) -> int:
    h = _load(args)
    f = h.field
    cor = coradical(h.coa)
    _emit({"command": "coradical", "dim": cor.dim,
           "basis": [[f.to_json(x) for x in v] for v in cor.vectors]}, args)
    return 0


def cmd_wedge_filtration(args) -> int:
    h = _load(args)
    f = h.field
    if args.start == "coradical":
        start = coradical(h.coa)
    else:
        start = SubspaceBasis(h.dim, [list(h.alg.unit)])
    record = wedge_filtration(start, h.coa)
    _emit({"command": "wedge-filtration", "start": args.start,
           **ser.filtration_to_dict(f, record)}, args)
    return 0 if record.exhausted else 1


def cmd_lift_section(args) -> int:
    h = _load(args)
    if args.problem == "square-zero":
        prob = square_zero_extension(h, with_coaction=True)
    elif args.problem.startswith("cyclic-cover:"):
        m = int(args.problem.split(":", 1)[1])
        n = h.dim
        if args.preset is None or not args.preset.startswith("group:C"):
            raise ValueError("cyclic-cover problems need a cyclic group preset")
        prob = cyclic_cover_problem(n, m, h.field)
        if args.colinear:
            raise ValueError("cyclic-cover ships without comodule data; drop --colinear")
    else:
        raise ValueError(f"unknown lift problem {args.problem!r}")
    res = lift_algebra_section(prob, colinear=args.colinear)
    if isinstance(res, LiftObstruction):
        _emit({"command": "lift-section", "lifted": False,
               "obstruction": ser.obstruction_to_dict(h.field, res)}, args)
        return 1
    _emit({"command": "lift-section", "lifted": True,
           "certificate": ser.lift_to_dict(res)}, args)
    return 0


def cmd_weak_projection(args) -> int:
    h = _load(args)
    f = h.field
    cor = coradical(h.coa)
    sub_hopf, incl = _sub_hopf_on_subspace(h, cor)
    res = weak_projection(h, sub_hopf, incl, bilinear=args.bilinear)
    if isinstance(res, LiftObstruction):
        _emit({"command": "weak-projection", "found": False,
               "obstruction": ser.obstruction_to_dict(f, res)}, args)
        return 1
    _emit({"command": "weak-projection", "found": True,
           "onto_dim": sub_hopf.dim,
           "matrix": [[f.to_json(x) for x in row] for row in res.matrix.data],
           "verified": res.verified}, args)
    return 0


def _sub_hopf_on_subspace(h: HopfData, sub: SubspaceBasis):
    """Restrict the Hopf structure to a subspace that must be a Hopf subalgebra."""
    from .hopf import AlgebraData, CoalgebraData, validated
    f = h.field
    m = sub.dim
    incl = Mat.from_columns(f, sub.vectors)
    mult = [[[f.zero] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            prod = h.mul(sub.vectors[i], sub.vectors[j])
            coords = sub.coords_of(f, prod)
            if coords is None:
                raise ValueError("subspace is not closed under multiplication")
            mult[i][j] = coords
    unit = sub.coords_of(f, h.alg.unit)
    if unit is None:
        raise ValueError("subspace does not contain the unit")
    comult = [[[f.zero] * m for _ in range(m)] for _ in range(m)]
    for k in range(m):
        flat = h.delta(sub.vectors[k])
        coords2 = _tensor_coords(f, sub, flat, h.dim)
        if coords2 is None:
            raise ValueError("subspace is not a subcoalgebra")
        comult[k] = coords2
    counit = [h.eps(v) for v in sub.vectors]
    smat = Mat.zeros(f, m, m)
    for j in range(m):
        img = h.s_vec(sub.vectors[j])
        coords = sub.coords_of(f, img)
        if coords is None:
            raise ValueError("subspace is not antipode-stable")
        for i, c in enumerate(coords):
            smat.data[i][j] = c
    sub_h = validated(HopfData(AlgebraData(f, m, mult, unit),
                               CoalgebraData(f, m, comult, counit), smat, None, None))
    return sub_h, incl


def _tensor_coords(f, sub: SubspaceBasis, flat: list, n: int):
    """Coordinates of a vector of H (x) H in the basis {v_i (x) v_j}, or None."""
    from .linalg import span_coordinates
    m = sub.dim
    cols = []
    for i in range(m):
        for j in range(m):
            w = [f.zero] * (n * n)
            for a, x in enumerate(sub.vectors[i]):
                if x:
                    for b, y in enumerate(sub.vectors[j]):
                        if y:
                            w[a * n + b] = f.mul(x, y)
            cols.append(w)
    coords = span_coordinates(f, cols, flat)
    if coords is None:
        return None
    return [[coords[i * m + j] for j in range(m)] for i in range(m)]


def cmd_truth_table(args) -> int:
    from .presets import cyclic_table, preset_group_algebra
    table = {}
    all_match = True
    for n in range(1, 7):
        for ch in (0, 2, 3, 5):
            h = preset_group_algebra(cyclic_table(n), FieldSpec(ch))
            fs = smo.find_fs_section(h) is not None
            sep = integ.separability_idempotent(h) is not None
            predicted = (ch == 0) or (n % ch != 0)
            match = fs == sep == predicted
            all_match = all_match and match
            table[f"C{n}/char{ch}"] = {"fs_algebra": fs, "separable": sep,
                                       "predicted": predicted, "match": match}
    _emit({"command": "truth-table", "grid": table, "all_match": all_match}, args)
    return 0 if all_match else 1


HANDLERS = {
    "check-axioms": cmd_check_axioms,
    "integrals": cmd_integrals,
    "ad-invariant": cmd_ad_invariant,
    "ad-coinvariant": cmd_ad_coinvariant,
    "separable": cmd_separable,
    "coseparable": cmd_coseparable,
    "fs-algebra": lambda a: _cmd_fs(a, smo.find_fs_section, "fs-algebra"),
    "fs-algebra-complete": lambda a: _cmd_fs(a, smo.find_complete_fs_section,
                                             "fs-algebra-complete"),
    "fs-coalgebra": lambda a: _cmd_fs(a, smo.find_fs_retraction, "fs-coalgebra"),
    "fs-coalgebra-complete": lambda a: _cmd_fs(a, smo.find_complete_fs_retraction,
                                               "fs-coalgebra-complete"),
    "double": cmd_double,
    "double-separable": cmd_double_separable,
    "coradical": cmd_coradical,
    "wedge-filtration": cmd_wedge_filtration,
    "lift-section": cmd_lift_section,
    "weak-projection": cmd_weak_projection,
    "truth-table": cmd_truth_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (ValueError, NotAGroupError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(json.dumps({"error": f"internal verification failed: {exc}"},
                         sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
