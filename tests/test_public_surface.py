"""The public surface, pinned: the package exports, the CLI subcommands and the
public attributes of the core classes.  A change to any of them edits this
snapshot in the same change that logs it in CHANGES.md.

The package holds only what a query, an export or the benchmark tracer uses:
every top-level definition in ``src/hopfsmith`` must be reachable from them,
every imported name must be referenced, every defaulted parameter outside
the exports must be set by some call, and no parameter may get the same constant
from every call."""

import ast
import builtins
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import hopfsmith
from hopfsmith import cli, hopf, serialize
from hopfsmith.doubles import ExtensionData, drinfeld_double
from hopfsmith.hopf import AlgebraData, CoalgebraData, HopfData, SubspaceBasis, validated
from hopfsmith.lifting import SurjectionProblem
from hopfsmith.linalg import AffineSystem, SparseMat


def _public(cls) -> list:
    """Dataclass fields plus the public names defined on the class."""
    return sorted({f.name for f in fields(cls)} | {n for n in dir(cls) if not n.startswith("_")})


def test_package_exports():
    assert hopfsmith.__all__ == [
        "GF", "QQ", "FieldSpec",
        "AlgebraData", "AxiomReport", "CoalgebraData", "HopfData", "SubspaceBasis",
        "augmentation_ideal", "check_algebra", "check_coalgebra", "check_hopf",
        "dual_hopf", "op_cop", "unit_cokernel",
        "AffineSystem", "SparseMat", "invert", "nullspace", "rank", "solve_affine",
        "preset_function_algebra", "preset_group_algebra", "preset_sweedler",
        "preset_taft", "resolve_preset",
    ]
    assert all(hasattr(hopfsmith, name) for name in hopfsmith.__all__)


def test_cli_subcommands():
    assert cli.SUBCOMMANDS == [
        "check-axioms", "integrals", "ad-invariant", "ad-coinvariant",
        "separable", "coseparable", "fs-algebra", "fs-algebra-complete",
        "fs-coalgebra", "fs-coalgebra-complete", "double", "double-separable",
        "coradical", "wedge-filtration", "lift-section", "weak-projection",
        "truth-table",
    ]
    assert sorted(cli.HANDLERS) == sorted(cli.SUBCOMMANDS)


def test_no_option_offers_a_single_choice():
    """An option with one choice is a constant: no option of any subcommand offers one."""
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    single = [(name, "/".join(action.option_strings)) for name, p in commands.items()
              for action in p._actions if action.choices is not None and len(action.choices) == 1]
    assert not single


def test_constructors_build_and_leave_the_check_to_the_query(monkeypatch):
    """The public constructors take no ``validate`` flag and run no axiom check: a
    document with a wrong antipode loads, and the check the query runs names it.  The
    double is built with every axiom check and the extension's check made to raise."""
    constructors = [hopfsmith.resolve_preset, hopfsmith.preset_group_algebra,
                    hopfsmith.preset_function_algebra, hopfsmith.preset_sweedler,
                    hopfsmith.preset_taft, hopfsmith.dual_hopf, hopfsmith.op_cop,
                    serialize.hopf_from_dict]
    assert [f.__name__ for f in constructors
            if "validate" in inspect.signature(f).parameters] == []
    doc = serialize.hopf_to_dict(hopfsmith.resolve_preset("sweedler", hopfsmith.QQ))
    doc["antipode"] = [[int(i == j) for j in range(4)] for i in range(4)]  # S = id
    h = serialize.hopf_from_dict(doc)
    rep = hopfsmith.check_hopf(h)
    assert not rep.checks["antipode"].ok
    with pytest.raises(ValueError, match="antipode: FAIL"):
        validated(h)

    def refused(*args):
        raise AssertionError("the constructor ran a check")

    for name in ("check_hopf", "check_algebra"):
        inner = getattr(hopf, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("hopfsmith") and getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, refused)
    monkeypatch.setattr(ExtensionData, "validate", refused)
    for spec, char, dim in (("sweedler", 0, 16), ("group:S3", 3, 36)):
        double, ext = drinfeld_double(hopfsmith.resolve_preset(spec, hopfsmith.FieldSpec(char)))
        assert double.dim == ext.big.dim == dim


def test_class_attributes():
    assert {cls.__name__: _public(cls) for cls in (AlgebraData, CoalgebraData, HopfData,
                                                    SubspaceBasis, SparseMat, AffineSystem,
                                                    SurjectionProblem)} == {
        "AlgebraData": ["dim", "field", "mult", "unit"],
        "CoalgebraData": ["comult", "counit", "dim", "field"],
        "HopfData": ["alg", "antipode", "antipode_inverse", "basis", "coa", "dim", "field"],
        "SubspaceBasis": ["ambient_dim", "basis", "contains", "dim", "tensors"],
        "SparseMat": ["cols", "data", "field", "from_tensor", "rows"],
        "AffineSystem": ["conditions", "labels", "matrix", "rhs", "shape", "unknowns"],
        "SurjectionProblem": ["a", "alpha", "beta", "e", "pi"],
    }


ROOT = Path(__file__).resolve().parents[1]


def test_no_record_field_is_set_after_construction():
    """Every dataclass field is a constructor argument: none is declared ``init=False``,
    to be filled in by a later call."""
    late = [f"{path.stem}.{cls.name}.{stmt.target.id}"
            for path in sorted((ROOT / "src" / "hopfsmith").glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.value, ast.Call)
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in stmt.value.keywords)]
    assert not late, f"fields set after construction: {late}"


def _bound_names(target) -> list:
    """The names an assignment target binds, or updates through ``x[k] =`` / ``x.a =``."""
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        target = target.value
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _definitions(path: Path) -> dict:
    """(module, name) -> the (module, name) pairs referenced by that top-level
    definition of one package module; (module, None) holds what runs on import
    outside every definition.  A name resolves through the module's relative
    imports (function-local ones included), or else to the module itself, and
    ``alias.name`` through a module imported as ``alias``.  Locals and the
    attributes of objects resolve to nothing defined, and drop out."""
    mod, tree = path.stem, ast.parse(path.read_text())
    aliases = {}  # local name -> (module, name), or (module, None) for a module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                aliases[a.asname or a.name] = ((node.module, a.name) if node.module
                                               else (a.name, None))

    def refs(node) -> set:
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(aliases.get(sub.id, (mod, sub.id)))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                module, name = aliases.get(sub.value.id, (None, ""))
                if name is None:
                    out.add((module, sub.attr))
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                out.update((sub.module, a.name) for a in sub.names)
        return out

    defs = {(mod, None): set()}
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            owners = [name for t in targets for name in _bound_names(t)]
        else:  # docstrings and ``if __name__ == "__main__":``
            owners = [None]
        for owner in owners:
            defs.setdefault((mod, owner), set()).update(refs(stmt))
    return defs


def _bench_roots() -> set:
    """The functions the benchmark tracer wraps by name, read from
    ``perfbench/layers.py`` without importing it."""
    tables = {stmt.targets[0].id: ast.literal_eval(stmt.value)
              for stmt in ast.parse((ROOT / "perfbench" / "layers.py").read_text()).body
              if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)
              and stmt.targets[0].id in ("LAYERS", "PRIVATE_LINALG", "BLIND")}
    roots = {(mod, name) for entries in tables["LAYERS"].values()
             for mod, names in entries for name in names}
    mod, names = tables["BLIND"]
    return roots | {tables["PRIVATE_LINALG"]} | {(mod, name) for name in names}


def test_every_src_definition_is_reachable():
    """Every top-level definition in ``src/hopfsmith`` is reached from the CLI
    (``main``, ``build_parser``, ``HANDLERS``), from ``hopfsmith.__all__`` or from
    a function the benchmark tracer wraps.  What only tests use lives in tests."""
    defs = {}
    for path in sorted((ROOT / "src" / "hopfsmith").glob("*.py")):
        defs.update(_definitions(path))
    roots = {("cli", "main"), ("cli", "build_parser"), ("cli", "HANDLERS"),
             ("__init__", "__all__")} | {key for key in defs if key[1] is None}
    roots |= {(getattr(hopfsmith, name).__module__.rpartition(".")[2], name)
              for name in hopfsmith.__all__} | _bench_roots()
    reached, todo = set(), [key for key in roots if key in defs]
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [ref for ref in defs[key] if ref in defs]
    unreached = sorted(f"{mod}.{name}" for mod, name in set(defs) - reached)
    assert not unreached, f"defined in src but used by no query, export or tracer: {unreached}"


def test_every_src_import_is_used():
    """Every name that a module of ``src/hopfsmith`` imports is referenced in that
    module; ``__init__`` only re-exports, and ``__future__`` imports bind nothing
    used.  The project runs no linter, so this keeps dead imports out."""
    unused = []
    for path in sorted((ROOT / "src" / "hopfsmith").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [(a.asname or a.name).partition(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                    and node.module != "__future__" for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert not unused, f"imported in src but never referenced: {unused}"


def _parameters(trees: list) -> list:
    """(name, callee, position, default) for each parameter of a function or method,
    and each dataclass field that ``__init__`` takes, of the modules ``trees``.
    ``name`` is ``function.parameter``, ``Class.method.parameter`` or ``Class.field``;
    ``callee`` is the name a call uses: the function's, the method's, or the class's
    for ``__init__`` and for fields; ``position`` counts the arguments a call passes
    before it, ``self`` not among them (None for a keyword-only one), and a dataclass's
    fields follow those of a dataclass base; ``default`` is the default's node, None
    for a required parameter."""
    out, dataclasses = [], {}

    def params(fn, owner, skip):
        args = fn.args.posonlyargs + fn.args.args
        callee = owner if fn.name == "__init__" else fn.name
        name = f"{owner}.{fn.name}" if owner else fn.name
        defaults = [None] * (len(args) - len(fn.args.defaults)) + fn.args.defaults
        for pos, (a, d) in enumerate(zip(args, defaults)):
            if pos >= skip:
                out.append((f"{name}.{a.arg}", callee, pos - skip, d))
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            out.append((f"{name}.{a.arg}", callee, None, d))

    for stmt in (s for tree in trees for s in tree.body):
        if isinstance(stmt, ast.FunctionDef):
            params(stmt, None, 0)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(ast.unparse(d) == "staticmethod" for d in item.decorator_list)
                    params(item, stmt.name, 0 if static else 1)
            if any("dataclass" in ast.unparse(d) for d in stmt.decorator_list):
                dataclasses[stmt.name] = (
                    [b.id for b in stmt.bases if isinstance(b, ast.Name)],
                    [(item.target.id, item.value) for item in stmt.body
                     if isinstance(item, ast.AnnAssign) and item.simple
                     and not (isinstance(item.value, ast.Call) and any(  # init=False: set
                         k.arg == "init" and isinstance(k.value, ast.Constant)  # by the class
                         and k.value.value is False for k in item.value.keywords))])

    def init_fields(cls):
        bases, own = dataclasses[cls]
        return [f for base in bases if base in dataclasses for f in init_fields(base)] + own

    for cls in dataclasses:
        out += [(f"{cls}.{name}", cls, pos, d) for pos, (name, d) in enumerate(init_fields(cls))]
    return out


def _calls(trees: list) -> dict:
    """Callee name -> the calls of it in the modules ``trees``: a call of ``f`` or of
    ``x.f`` is a call of ``f``."""
    calls = {}
    for node in (n for t in trees for n in ast.walk(t) if isinstance(n, ast.Call)):
        func = node.func
        calls.setdefault(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None),
                         []).append(node)
    return calls


def _src_trees() -> list:
    return [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "hopfsmith").glob("*.py"))]


def _unexported(name: str) -> bool:
    """Whether the parameter ``name`` belongs to neither ``hopfsmith.__all__`` nor ``cli.main``,
    whose callers lie outside ``src``."""
    return name.split(".")[0] not in set(hopfsmith.__all__) | {"main"}


def test_every_defaulted_parameter_is_set_by_a_caller():
    """Every defaulted parameter, and every defaulted dataclass field that
    ``__init__`` takes, of a definition in ``src/hopfsmith`` outside
    ``hopfsmith.__all__`` and ``cli.main`` is passed by at least one call in
    ``src/``: an option that no caller sets is a constant."""
    trees = _src_trees()
    passed = {}  # callee name -> [(positional count, keyword names)]; a starred argument passes all
    for callee, nodes in _calls(trees).items():
        passed[callee] = [(float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                           else len(node.args), {k.arg for k in node.keywords})
                          for node in nodes]
    unset = sorted(name for name, callee, pos, default in _parameters(trees)
                   if default is not None and _unexported(name)
                   and not any((pos is not None and n > pos) or name.rpartition(".")[2] in keys
                               or None in keys for n, keys in passed.get(callee, [])))
    assert not unset, f"defaulted parameters no call in src sets: {unset}"


def _passed(call: ast.Call, pos, param: str, default):
    """The node ``call`` passes for a parameter, its default where the call passes none;
    None where a starred argument may pass it."""
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    if pos is not None and (starred and starred[0] <= pos):
        return None
    if pos is not None and pos < len(call.args):
        return call.args[pos]
    keys = {k.arg: k.value for k in call.keywords}
    return keys[param] if param in keys else None if None in keys else default


def _constant(node):
    """A literal, or the name of a builtin such as ``ValueError``, as comparable text; None
    for any other node."""
    if isinstance(node, ast.Constant) or isinstance(node, ast.Name) and node.id in dir(builtins):
        return ast.dump(node)
    return None


def test_no_parameter_keeps_a_single_value():
    """No parameter, and no dataclass field that ``__init__`` takes, of a definition in
    ``src/hopfsmith`` outside ``hopfsmith.__all__`` and ``cli.main`` gets the same constant,
    a literal or a builtin name, from every call in ``src/`` (its default where a call
    passes none): an option that keeps one value is a constant, and stated as one."""
    trees = _src_trees()
    calls, single = _calls(trees), []
    for name, callee, pos, default in _parameters(trees):
        if _unexported(name) and callee in calls:
            param = name.rpartition(".")[2]
            values = {_constant(_passed(call, pos, param, default)) for call in calls[callee]}
            if len(values) == 1 and None not in values:
                single.append(name)
    assert not single, f"parameters that every call in src passes one constant: {sorted(single)}"


def _spec_literals(path: Path) -> list:
    """The contraction specs a module spells out: string constants holding ``->`` and no
    blank, so docstrings drop out."""
    return [node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "->" in node.value and not any(c.isspace() for c in node.value)]


def test_each_closure_law_is_spelled_once():
    """Each Hopf and module law is one statement, which both the decision on generators
    and the witness search evaluate: no contraction spec repeats in ``hopf`` or ``yd``,
    and ``lifting`` takes the module laws of its bimodules from ``hopf.module_laws``."""
    for name in ("hopf.py", "yd.py"):
        specs = _spec_literals(ROOT / "src" / "hopfsmith" / name)
        assert specs and not [s for s in set(specs) if specs.count(s) > 1], name
    assert "ijk,kst->ijst" not in _spec_literals(ROOT / "src" / "hopfsmith" / "lifting.py")


# The tracer-only definitions that still assemble or eliminate a system themselves.
AFFINE_HOLDOUTS = {("integrals", "_blind_idempotent"), ("integrals", "_blind_retraction"),
                   ("doubles", "relative_tensor")}


def _spelled(node):
    """The identifier a node spells: a name, an attribute or an imported name; else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.name if isinstance(node, ast.alias) else None


def test_only_linalg_assembles_and_eliminates_affine_systems():
    """Outside ``linalg`` a condition list is solved by ``linalg.solve``, which checks its
    answer on that list, or ``linalg.kernel``: no module names ``AffineSystem``,
    ``AffineSolution`` or ``solve_affine``, except the tracer-only definitions of
    ``AFFINE_HOLDOUTS`` and the module-level imports of their modules; ``__init__`` only
    re-exports."""
    names = {"AffineSystem", "AffineSolution", "solve_affine"}
    holdout_modules = {mod for mod, _ in AFFINE_HOLDOUTS}
    found = []
    for path in sorted((ROOT / "src" / "hopfsmith").glob("*.py")):
        mod = path.stem
        if mod in ("linalg", "__init__"):
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ImportFrom) and mod in holdout_modules:
                continue
            owner = getattr(stmt, "name", None)
            if (mod, owner) in AFFINE_HOLDOUTS:
                continue
            found += [f"{mod}.{owner or '<module>'}: {_spelled(node)}"
                      for node in ast.walk(stmt) if _spelled(node) in names]
    assert not found, f"affine systems handled outside linalg: {sorted(set(found))}"
