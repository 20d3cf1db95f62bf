"""Outside-in tracing of hopfsmith's layers.

The benchmark wraps the public entry points of each module from outside and
rebinds every module-level binding of each wrapped function inside the
``hopfsmith`` package (``solve_affine`` alone is bound in eight modules), so
no call slips past a wrapper.  Function-local imports such as
``from .linalg import rank`` read the module attribute at call time and pick
the wrapper up too.

A wrapped call opens a span unless the innermost open span already belongs to
the same layer; so ``<layer>.calls`` counts outermost calls only, and a
layer's ``self_s`` is its spans' time minus the time of the spans nested in
them.  Spans stay in memory; the totals are read once the pass ends.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> [(module, [function names])]; every binding of these is rebound.
LAYERS = {
    "cli": [("cli", ["main"])],
    "presets": [("presets", ["resolve_preset"])],
    "hopf.check": [("hopf", ["check_hopf", "check_algebra", "check_coalgebra"])],
    "hopf.construct": [("hopf", ["dual_hopf", "op_cop", "unit_cokernel",
                                 "augmentation_ideal"])],
    "linalg": [("linalg", ["solve_affine", "nullspace", "rank", "invert"])],
    "yd": [("yd", ["adjoint_action", "adjoint_coaction", "h_plus_yd", "h_bar_yd",
                   "yd_on_h", "check_yd"])],
    "integrals": [("integrals", ["integral_space", "is_unimodular", "total_integral",
                                 "ad_invariant_integral", "ad_coinvariant_integral",
                                 "four_linearity_flags", "four_coinvariance_flags",
                                 "separability_idempotent", "coseparability_retraction"])],
    "integrals.verify": [("integrals", ["_verify_integral_space", "_verify_ad_invariant",
                                        "_verify_idempotent", "_verify_retraction"])],
    "smoothness": [("smoothness", ["find_fs_section", "find_complete_fs_section",
                                   "find_fs_retraction", "find_complete_fs_retraction"])],
    "smoothness.verify": [("smoothness", ["verify_fs_section", "verify_fs_retraction",
                                          "check_im_tau", "check_chi_quotients"])],
    "doubles": [("doubles", ["drinfeld_double"])],
    "doubles.ext": [("doubles", ["relative_tensor", "separable_extension"])],
    "doubles.verify": [("doubles", ["_verify_extension_idempotent"])],
    "filtration": [("filtration", ["coradical", "radical", "wedge", "wedge_filtration",
                                   "is_nilpotent_ideal", "is_subcoalgebra"])],
    "lifting": [("lifting", ["lift_algebra_section", "weak_projection",
                             "square_zero_extension", "cyclic_cover_problem"])],
    "lifting.verify": [("lifting", ["_verify_final", "_verify_weak_projection",
                                    "_assert_stage"])],
    "serialize": [("serialize", ["hopf_to_dict", "hopf_from_dict", "integral_to_dict",
                                 "separability_to_dict", "section_to_dict",
                                 "extension_to_dict", "filtration_to_dict", "lift_to_dict",
                                 "obstruction_to_dict"]),
                  ("cli", ["_emit"])],
}

# ``doubles`` runs the private elimination kernel directly; only that binding is
# wrapped, since linalg's own calls of it already sit inside a linalg span.
PRIVATE_LINALG = ("doubles", "_rref")

# Calls counted without a span: the blind-search fallbacks of the formula route.
BLIND = ("integrals", ["_blind_idempotent", "_blind_retraction"])

# ROADMAP phases as roll-ups of layer self times; every layer is in one phase.
PHASES = {
    "construct": ["presets", "hopf.construct", "yd", "doubles"],
    "validate": ["hopf.check"],
    "assemble": ["integrals", "smoothness", "doubles.ext", "filtration", "lifting"],
    "eliminate": ["linalg"],
    "verify": ["integrals.verify", "smoothness.verify", "doubles.verify",
               "lifting.verify"],
    "emit": ["cli", "serialize"],
}

# Counts that must repeat exactly between two traced passes of the same code.
LINALG_COUNTS = ["rows", "cells", "nnz", "infeasible"]


def _shape(args):
    """(field characteristic, rows, cols, row lists) of a linalg call's input."""
    m = args[0]
    if isinstance(m, list):  # _rref(rows, ncols, field)
        return args[2].characteristic, len(m), args[1], m
    if hasattr(m, "matrix"):  # solve_affine(AffineSystem)
        m = m.matrix
    return m.field.characteristic, m.rows, m.cols, m.data


def _nnz(char: int, rows: list) -> int:
    if char:
        return sum(len(r) - r.count(0) for r in rows)
    return sum(sum(map(bool, r)) for r in rows)


class Tracer:
    """Span stack plus per-layer totals for one traced pass."""

    def __init__(self):
        self.stack = []  # open spans: [layer, time covered by child spans]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.linalg = Counter()
        self.linalg_field_s = defaultdict(float)
        self.linalg_max_cells = 0
        self.blind_calls = 0

    def wrap(self, layer: str, fn):
        stack = self.stack
        is_linalg = layer == "linalg"
        counts_infeasible = fn.__name__ == "solve_affine"

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            entered = perf_counter()
            if is_linalg:  # shape bookkeeping stays outside every layer's self time
                char, nrows, ncols, rows = _shape(args)
                self.linalg["rows"] += nrows
                self.linalg["cells"] += nrows * ncols
                self.linalg["nnz"] += _nnz(char, rows)
                self.linalg_max_cells = max(self.linalg_max_cells, nrows * ncols)
            span = [layer, 0.0]
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                own = end - start - span[1]
                self.self_s[layer] += own
                self.calls[layer] += 1
                if is_linalg:
                    self.linalg_field_s["p" if char else "q"] += own
                if stack:
                    stack[-1][1] += end - entered
            if counts_infeasible and result is None:
                self.linalg["infeasible"] += 1
            return result

        return traced

    def count_blind(self, fn):
        def counted(*args, **kwargs):
            self.blind_calls += 1
            return fn(*args, **kwargs)

        return counted

    def metrics(self) -> dict:
        """Flat per-layer metrics: name -> value."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for name in LINALG_COUNTS:
            out[f"linalg.{name}"] = self.linalg[name]
        out["linalg.max_cells"] = self.linalg_max_cells
        out["linalg.q.self_s"] = self.linalg_field_s["q"]
        out["linalg.p.self_s"] = self.linalg_field_s["p"]
        out["integrals.blind_calls"] = self.blind_calls
        for phase, layers in PHASES.items():
            out[f"phase.{phase}_s"] = sum(self.self_s[layer] for layer in layers)
        return out


def exact_counts(metrics: dict) -> dict:
    """The subset of metrics that must repeat exactly across traced passes."""
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k == "integrals.blind_calls"
            or k in {f"linalg.{n}" for n in LINALG_COUNTS + ["max_cells"]}}


def _rebind(modules: list, old, new) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(tracer: Tracer):
    """Wrap every traced entry point; returns the wrapped ``cli.main``."""
    importlib.import_module("hopfsmith.cli")  # loads every module of the package
    package = [mod for name, mod in sys.modules.items()
               if name == "hopfsmith" or name.startswith("hopfsmith.")]
    for layer, entries in LAYERS.items():
        for modname, names in entries:
            mod = sys.modules[f"hopfsmith.{modname}"]
            for name in names:
                fn = getattr(mod, name)
                _rebind(package, fn, tracer.wrap(layer, fn))
    modname, name = PRIVATE_LINALG
    mod = sys.modules[f"hopfsmith.{modname}"]
    setattr(mod, name, tracer.wrap("linalg", getattr(mod, name)))
    modname, names = BLIND
    mod = sys.modules[f"hopfsmith.{modname}"]
    for name in names:
        fn = getattr(mod, name)
        _rebind(package, fn, tracer.count_blind(fn))
    return sys.modules["hopfsmith.cli"].main
