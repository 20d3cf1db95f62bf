"""Every structure map is stored once, as a sparse tensor that holds only
nonzero canonical scalars with keys inside its shape, in key order, and no
module converts one back and forth: nested lists appear only at the JSON edge."""

import ast
import json
from fractions import Fraction
from pathlib import Path

from hopfsmith import FieldSpec, check_hopf, dual_hopf, op_cop, resolve_preset
from hopfsmith.doubles import drinfeld_double
from hopfsmith.serialize import hopf_from_dict, hopf_to_dict
from hopfsmith.yd import ACTIONS, COACTIONS, adjoint_action, adjoint_coaction

from conftest import GRID

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfsmith"
STRUCTURE_MAPS = {"mult", "comult", "unit", "counit", "antipode", "antipode_inverse", "tensor"}

# the inputs of the benchmark's `double` workload
DOUBLE_INPUTS = [("sweedler", 0), ("sweedler", 3), ("group:C4", 2), ("group:S3", 3),
                 ("functions:S3", 2), ("group:S3", 2)]


def _assert_stored(field, t, shape, what):
    assert isinstance(t, dict), what
    assert list(t) == sorted(t), what
    p = field.characteristic
    for key, x in t.items():
        assert isinstance(key, tuple) and len(key) == len(shape), (what, key)
        assert all(type(i) is int and 0 <= i < n for i, n in zip(key, shape)), (what, key)
        if p:
            assert type(x) is int and 0 < x < p, (what, key, x)
        else:
            assert type(x) is Fraction and x != 0, (what, key, x)


def _assert_algebra(a, what):
    n = a.dim
    _assert_stored(a.field, a.mult, (n, n, n), (*what, "mult"))
    _assert_stored(a.field, a.unit, (n,), (*what, "unit"))


def _assert_hopf(h, what):
    n = h.dim
    _assert_algebra(h.alg, what)
    _assert_stored(h.field, h.coa.comult, (n, n, n), (*what, "comult"))
    _assert_stored(h.field, h.coa.counit, (n,), (*what, "counit"))
    _assert_stored(h.field, h.antipode, (n, n), (*what, "antipode"))
    if h.antipode_inverse is not None:
        _assert_stored(h.field, h.antipode_inverse, (n, n), (*what, "antipode_inverse"))


def test_presets_and_their_twists_store_only_nonzero_entries(preset_cache):
    for spec, char in GRID:
        h = preset_cache(spec, char)
        _assert_hopf(h, (spec, char))
        for what, twist in [("dual", dual_hopf(h))] + [
                (flips, op_cop(h, *flips)) for flips in ((True, False), (False, True), (True, True))]:
            _assert_hopf(twist, (spec, char, what))
            assert check_hopf(twist).all_ok, (spec, char, what)
        n = h.dim
        for which in ACTIONS:
            _assert_stored(h.field, adjoint_action(h, which).tensor, (n, n, n), (spec, which))
        for which in COACTIONS:
            _assert_stored(h.field, adjoint_coaction(h, which).tensor, (n, n, n), (spec, which))


def test_doubles_store_only_nonzero_entries(preset_cache):
    for spec, char in DOUBLE_INPUTS:
        double, ext = drinfeld_double(preset_cache(spec, char))
        _assert_hopf(double, (spec, char, "double"))
        _assert_algebra(ext.big, (spec, char, "extension"))
        _assert_algebra(ext.small, (spec, char, "base"))


def test_a_file_that_spells_out_its_zeros_loads_without_them():
    for spec, char, zeros in (("sweedler", 0, ["0", "0/7", 0]), ("taft:3:2", 7, [7, "14", 0])):
        h = resolve_preset(spec, FieldSpec(char))
        doc = hopf_to_dict(h)
        count = 0

        def spell(x):
            nonlocal count
            if isinstance(x, list):
                return [spell(y) for y in x]
            if x in (0, "0"):
                count += 1
                return zeros[count % len(zeros)]
            return x

        doc = {key: spell(value) if key in ("mult", "comult", "counit", "antipode") else value
               for key, value in doc.items()}
        assert count > h.dim ** 3
        loaded = hopf_from_dict(json.loads(json.dumps(doc)))
        _assert_hopf(loaded, (spec, char, "file"))
        assert (loaded.alg.mult, loaded.coa.comult, loaded.coa.counit, loaded.antipode) == \
            (h.alg.mult, h.coa.comult, h.coa.counit, h.antipode)
        assert hopf_to_dict(loaded) == hopf_to_dict(h)


def _converted_structure_maps(tree) -> list:
    """(line, converter, attribute, enclosing function) for each ``sparse`` or
    ``dense`` call whose arguments read a structure-map attribute."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else func
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in ("sparse", "dense"):
                    for arg in child.args:
                        for sub in ast.walk(arg):
                            if isinstance(sub, ast.Attribute) and sub.attr in STRUCTURE_MAPS:
                                found.append((child.lineno, name, sub.attr, inner))
            visit(child, inner)

    visit(tree, None)
    return found


def test_no_module_converts_a_structure_map():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for line, name, attr, func in _converted_structure_maps(ast.parse(path.read_text())):
            # only the JSON edge may densify, for the report
            allowed = name == "dense" and path.name == "serialize.py"
            if not allowed:
                offences.append(f"{path.name}:{line}: {name}(.{attr})")
    assert offences == []


def test_the_static_check_sees_a_conversion():
    tree = ast.parse("def f(h):\n    return sparse(h.alg.mult), dense(F, [h.coa.counit], (2,))\n")
    assert _converted_structure_maps(tree) == [(2, "sparse", "mult", "f"),
                                               (2, "dense", "counit", "f")]
