"""Command-line interface.

Exit codes: 0 = property holds / certificate emitted, 1 = property refuted
(with obstruction data in the report), 2 = input error or internal error (an
unexpected exception, resource exhaustion included).  Reports are JSON on
stdout with sorted keys, so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from itertools import chain

from .fields import FieldSpec
from .hopf import (HopfData, _shared_completion, check_hopf, sub_hopf_on_subspace, unit_line,
                   validated)
from .presets import resolve_preset
from . import integrals as integ
from . import smoothness as smo
from . import serialize as ser
from .doubles import drinfeld_double, separable_extension
from .filtration import coradical, wedge_filtration
from .lifting import (LiftObstruction, cyclic_cover_problem, lift_algebra_section,
                      square_zero_extension, weak_projection)

SUBCOMMANDS = [
    "check-axioms", "integrals", "ad-invariant", "ad-coinvariant",
    "separable", "coseparable", "fs-algebra", "fs-algebra-complete",
    "fs-coalgebra", "fs-coalgebra-complete", "double", "double-separable",
    "coradical", "wedge-filtration", "lift-section", "weak-projection",
    "truth-table",
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing returns a new namespace each time."""
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
            p.add_argument("--bilinear", action="store_true")
    return parser


def _load(args) -> HopfData:
    """The input Hopf algebra, built unchecked and checked here once (:func:`hopf.validated`),
    unless the query is ``check-axioms``, which reports that one check itself."""
    if args.file is not None:
        if args.char:
            raise ValueError("--char only applies to presets; files carry their field")
        with open(args.file) as fh:
            doc = json.load(fh, parse_int=_int_or_numeral)
        h = ser.hopf_from_dict(doc)
    else:
        h = resolve_preset(args.preset, FieldSpec(args.char))
    return h if args.command == "check-axioms" else validated(h)


def _int_or_numeral(numeral: str):
    """A JSON integer as an int, or past int()'s digit limit as its numeral string."""
    try:
        return int(numeral)
    except ValueError:
        return numeral


_TOKENS = json.JSONEncoder(separators=("\n", ":")).encode  # the C encoder, one token a line


def _dumps(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` with ``pad`` as its line break,
    without that call's pure-Python encoder: a rectangular block of scalars is one
    row of tokens from the C encoder (no JSON string holds a raw newline), and each
    level of brackets is joined over slices of the level below."""
    inner = pad + "  "
    if type(obj) in (str, int, bool) or obj is None:
        return _TOKENS(obj)
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        return "{" + inner + ("," + inner).join(_TOKENS(k) + ": " + _dumps(v, inner)
                                                for k, v in sorted(obj.items())) + pad + "}"
    if type(obj) is not list or not obj:
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)
    shape, flat = [len(obj)], obj
    while type(flat[0]) is list and flat[0] and all(
            type(x) is list and len(x) == len(flat[0]) for x in flat):
        shape.append(len(flat[0]))
        flat = list(chain.from_iterable(flat))
    if not set(map(type, flat)) <= {int, str, bool, float, type(None)}:  # ragged or nested
        return "[" + inner + ("," + inner).join(_dumps(x, inner) for x in obj) + pad + "]"
    rows = _TOKENS(flat)[1:-1].split("\n")
    for k in range(len(shape) - 1, -1, -1):
        w, close = shape[k], pad + "  " * k
        rows = ["[" + close + "  " + ("," + close + "  ").join(rows[s:s + w]) + close + "]"
                for s in range(0, len(rows), w)]
    return rows[0]


def _emit(report: dict, args) -> None:
    """Write the report to ``--output``, if given, and then print it, so that a
    path that cannot be written leaves stdout empty."""
    text = _dumps(report)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)


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
    # integrals in H* are read off H's own tensors; the dual is never built
    for carrier in ("in_h", "in_dual"):
        spaces = {side: integ.integral_space(h, side, carrier) for side in ("left", "right")}
        block = {side: {"dim": sp.dim, "basis": ser.vector_lists(f, sp)}
                 for side, sp in spaces.items()}
        tot = integ.total_integral(h, carrier, spaces["left"])
        block["total"] = None if tot is None else ser.integral_to_dict(f, tot)
        block["unimodular"] = integ.is_unimodular(h, carrier, spaces["left"], spaces["right"])
        report[carrier] = block
    _emit(report, args)
    return 0


def _cmd_certificate(args, finder, key, reason, serializer) -> int:
    """A certificate subcommand: ``finder(h)`` returns a certificate or None, and
    the report states ``key`` and then ``serializer(field, certificate)`` or ``reason``."""
    h = _load(args)
    cert = finder(h)
    if cert is None:
        _emit({"command": args.command, key: False, "reason": reason}, args)
        return 1
    _emit({"command": args.command, key: True, "certificate": serializer(h.field, cert)},
          args)
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
    adinv = integ.ad_invariant_integral(h)
    report = {"command": "double-separable", "separable_over_h": adinv is not None,
              "ad_invariant_exists": adinv is not None}
    if adinv is None:
        _emit({**report, "reason": NO_AD_INVARIANT}, args)
        return 1
    _, ext = drinfeld_double(h)
    cert = separable_extension(h, ext, adinv.tensor)
    report["idempotent_coords"] = ser.json_lists(h.field, cert.tensor, cert.shape)
    _emit(report, args)
    return 0


def cmd_coradical(args) -> int:
    h = _load(args)
    f = h.field
    cor = coradical(h.coa)
    _emit({"command": "coradical", "dim": cor.dim, "basis": ser.vector_lists(f, cor)}, args)
    return 0


def cmd_wedge_filtration(args) -> int:
    h = _load(args)
    f = h.field
    corad = None
    if args.start == "coradical":
        start = corad = coradical(h.coa)
    else:
        start = unit_line(h)
    record = wedge_filtration(start, h.coa, corad)
    _emit({"command": "wedge-filtration", "start": args.start,
           **ser.filtration_to_dict(f, record)}, args)
    return 0 if record.exhausted else 1


def cmd_lift_section(args) -> int:
    h = _load(args)
    if args.problem == "square-zero":
        prob = square_zero_extension(h)
    elif args.problem.startswith("cyclic-cover:"):
        degree = args.problem.split(":", 1)[1]
        try:  # an ASCII numeral, signed so that cyclic_cover_problem names a degree below 1
            if not re.fullmatch("-?[0-9]+", degree):
                raise ValueError  # int() alone also reads other digits, "_" and spaces
            m = int(degree)
        except ValueError:  # or past int()'s digit limit
            raise ValueError(f"{args.problem} needs a cover degree M >= 1") from None
        if args.preset is None or not args.preset.startswith("group:C"):
            raise ValueError("cyclic-cover problems need a cyclic group preset")
        if args.colinear:
            raise ValueError("cyclic-cover ships without comodule data; drop --colinear")
        prob = cyclic_cover_problem(h.alg, m)
    else:
        raise ValueError(f"unknown lift problem {args.problem!r}")
    res = lift_algebra_section(prob, colinear=args.colinear)
    if isinstance(res, LiftObstruction):
        _emit({"command": "lift-section", "lifted": False,
               "obstruction": ser.obstruction_to_dict(h.field, res)}, args)
        return 1
    _emit({"command": "lift-section", "lifted": True,
           "certificate": ser.lift_to_dict(h.field, res)}, args)
    return 0


def cmd_weak_projection(args) -> int:
    h = _load(args)
    f = h.field
    cor = coradical(h.coa)
    sub_hopf, incl = sub_hopf_on_subspace(h, cor)
    res = weak_projection(h, sub_hopf, incl, bilinear=args.bilinear, corad=cor)
    if isinstance(res, LiftObstruction):
        _emit({"command": "weak-projection", "found": False,
               "obstruction": ser.obstruction_to_dict(f, res)}, args)
        return 1
    _emit({"command": "weak-projection", "found": True,
           "onto_dim": sub_hopf.dim,
           "matrix": ser.json_lists(f, res.tensor, res.shape),
           "verified": res.verified}, args)
    return 0


def cmd_truth_table(args) -> int:
    from .presets import cyclic_table, preset_group_algebra
    table = {}
    all_match = True
    for n in range(1, 7):
        for ch in (0, 2, 3, 5):
            h = validated(preset_group_algebra(cyclic_table(n), FieldSpec(ch)))
            fs = smo.find_fs_section(h) is not None
            sep = integ.separability_idempotent(h) is not None
            predicted = (ch == 0) or (n % ch != 0)
            match = fs == sep == predicted
            all_match = all_match and match
            table[f"C{n}/char{ch}"] = {"fs_algebra": fs, "separable": sep,
                                       "predicted": predicted, "match": match}
    _emit({"command": "truth-table", "grid": table, "all_match": all_match}, args)
    return 0 if all_match else 1


ADJOINT_REASON = "affine system (a)+(b)+(c) infeasible"
# a "no" from separable, coseparable or an fs query is read off the left integral
# space, which is one-dimensional (Larson-Sweedler), and names the theorem it uses
NO_INTEGRAL_IN_H = ("no normalized integral in H: every left integral t has eps(t) = 0, "
                    "so H is not separable (Maschke) and not formally smooth as an algebra")
NO_INTEGRAL_IN_DUAL = ("no normalized integral in H*: every left integral lambda in H* has "
                       "lambda(1) = 0, so H is not coseparable (dual Maschke) and not "
                       "formally smooth as a coalgebra")
NO_AD_INVARIANT = (f"{ADJOINT_REASON}: H has no ad-invariant integral, so D(H) is not "
                   "separable over H (D(H)/H is separable exactly when H has one)")

HANDLERS = {
    "check-axioms": cmd_check_axioms,
    "integrals": cmd_integrals,
    # finders and serializers are looked up per call, so wrappers installed on
    # their modules see every call
    "ad-invariant": lambda a: _cmd_certificate(
        a, integ.ad_invariant_integral, "exists", ADJOINT_REASON, ser.integral_to_dict),
    "ad-coinvariant": lambda a: _cmd_certificate(
        a, integ.ad_coinvariant_integral, "exists", ADJOINT_REASON, ser.integral_to_dict),
    "separable": lambda a: _cmd_certificate(
        a, integ.separability_idempotent, "separable", NO_INTEGRAL_IN_H,
        ser.separability_to_dict),
    "coseparable": lambda a: _cmd_certificate(
        a, integ.coseparability_retraction, "coseparable", NO_INTEGRAL_IN_DUAL,
        ser.separability_to_dict),
    "fs-algebra": lambda a: _cmd_certificate(
        a, smo.find_fs_section, "feasible", NO_INTEGRAL_IN_H, ser.section_to_dict),
    "fs-algebra-complete": lambda a: _cmd_certificate(
        a, smo.find_complete_fs_section, "feasible", NO_INTEGRAL_IN_H, ser.section_to_dict),
    "fs-coalgebra": lambda a: _cmd_certificate(
        a, smo.find_fs_retraction, "feasible", NO_INTEGRAL_IN_DUAL, ser.section_to_dict),
    "fs-coalgebra-complete": lambda a: _cmd_certificate(
        a, smo.find_complete_fs_retraction, "feasible", NO_INTEGRAL_IN_DUAL, ser.section_to_dict),
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
    _shared_completion.cache_clear()  # each query pays for its own eliminations
    try:
        return HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(json.dumps({"error": f"internal verification failed: {exc}"},
                         sort_keys=True), file=sys.stderr)
        return 2
    except Exception as exc:  # an engine fault, resource exhaustion included, never a refutation
        print(json.dumps({"error": f"internal error: {type(exc).__name__}: {exc}"},
                         sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
