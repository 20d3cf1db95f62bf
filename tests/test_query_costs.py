"""Work done per CLI query, and inputs whose shape is outside the contract."""

import argparse
import contextlib
import io
import json
import sys
import types
from fractions import Fraction
from math import prod

import pytest

from hopfsmith import (FieldSpec, cli, doubles, filtration, hopf, integrals, lifting, linalg,
                       presets, resolve_preset, serialize, smoothness, yd)
from hopfsmith.filtration import ideal_powers, is_nilpotent_ideal
from hopfsmith.linalg import contract, solve_affine
from hopfsmith.lifting import SurjectionProblem, square_zero_extension

from conftest import GRID
from test_loop_oracles import _basis_vec, _mul, _subspace, _vectors, dense, fs_section_system


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_integrals_query_builds_each_space_and_the_dual_once(monkeypatch):
    calls = {"integral_space": 0, "check_hopf": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(integrals, "integral_space")
    counted(hopf, "check_hopf")
    assert _quiet(["integrals", "--preset", "sweedler"]) == 0
    # left and right, in H and in H*; one check for the preset, and H* is never built
    assert calls == {"integral_space": 4, "check_hopf": 1}


def _recorded_checks(monkeypatch) -> list:
    """Rebind ``check_hopf`` in every module of the package that binds it to a
    wrapper recording the dimension of each structure it checks."""
    inner, dims = hopf.check_hopf, []

    def wrapper(h):
        dims.append(h.dim)
        return inner(h)

    for module in (cli, doubles, filtration, hopf, integrals, lifting, linalg, presets,
                   serialize, smoothness, yd):
        if getattr(module, "check_hopf", None) is inner:
            monkeypatch.setattr(module, "check_hopf", wrapper)
    return dims


@pytest.mark.parametrize("command,preset,char,coradical,cover", [
    pytest.param(command, preset, char, coradical, None,
                 id=f"{command}-{preset}-{char}-{coradical}")
    for preset, char, coradical in (("sweedler", 0, 2), ("functions:S3", 2, None),
                                    ("taft:3:2", 7, 3))
    for command in cli.SUBCOMMANDS if command != "truth-table"] + [
    pytest.param("lift-section", "group:C2", 3, None, 3,
                 id="lift-section-cyclic-cover:3-group:C2-3"),
    pytest.param("double-separable", "group:S3", 3, None, None,
                 id="double-separable-group:S3-3-yes")])
def test_each_hopf_algebra_a_query_builds_is_checked_once(monkeypatch, command, preset, char,
                                                          coradical, cover):
    """The input is checked once, D(H) once more for ``double`` and for a "yes"
    of ``double-separable`` (none of the three presets above has an ad-invariant
    integral, kS3 has one), the coradical sub-Hopf algebra once more for
    ``weak-projection`` and KC_{Mn} once more for a ``cyclic-cover:M`` lift; H*
    is never built.  On k^S3 over F_2 the coradical is not a subalgebra, so
    ``weak-projection`` stops (exit 2) before it builds one."""
    h = resolve_preset(preset, FieldSpec(char))
    dims = _recorded_checks(monkeypatch)
    argv = [command, "--preset", preset, "--char", str(char)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = _quiet(argv + (["--problem", f"cyclic-cover:{cover}"] if cover else []))
    expected = [h.dim]
    if command == "double" or (command == "double-separable" and preset == "group:S3"):
        expected.append(h.dim ** 2)
    if cover:
        expected.append(h.dim * cover)
        assert code == 0
    if command == "weak-projection":
        expected += [coradical] if coradical else []
        assert code == (0 if coradical else 2)
    assert dims == expected


@pytest.mark.parametrize("argv", [["--preset", "taft:4:2", "--char", "5"],
                                  ["--preset", "sweedler"]])
def test_double_separable_refutes_without_building_the_double(monkeypatch, argv):
    """A "no" is read off the ad-invariant system of H alone: D(H) is never built."""
    def unbuilt(h):
        raise AssertionError("D(H) built for a refutation")

    monkeypatch.setattr(cli, "drinfeld_double", unbuilt)
    assert _quiet(["double-separable", *argv]) == 1


def test_check_axioms_reports_one_check_on_a_preset_and_on_its_file(monkeypatch, tmp_path,
                                                                     capsys):
    """``check-axioms`` loads its input unchecked and reports the one check it
    runs, whether the structure comes from a preset or from a file."""
    path = tmp_path / "taft.json"
    taft = resolve_preset("taft:3:2", FieldSpec(7))
    path.write_text(json.dumps(serialize.hopf_to_dict(taft), sort_keys=True))
    dims = _recorded_checks(monkeypatch)
    reports = []
    for source in (["--preset", "taft:3:2", "--char", "7"], ["--file", str(path)]):
        dims.clear()
        assert cli.main(["check-axioms", *source]) == 0
        reports.append(capsys.readouterr().out)
        assert dims == [9]
    assert reports[0] == reports[1]
    assert '"all_ok": true' in reports[0]


def _count_calls(monkeypatch, module, name, calls, keep=lambda *args: True):
    """Wrap ``module.name`` so that each call whose arguments pass ``keep`` adds
    one to ``calls[name]``."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + keep(*args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_coradical_query_checks_the_radical_ideal_once(monkeypatch):
    calls = {}
    _count_calls(monkeypatch, filtration, "_is_two_sided_ideal", calls)
    assert _quiet(["coradical", "--preset", "taft:4:2", "--char", "5"]) == 0
    assert calls == {"_is_two_sided_ideal": 1}


@pytest.mark.parametrize("preset,char,powers", [("functions:C12", 3, 20), ("taft:4:2", 5, 12)])
def test_a_radical_stage_powers_one_lift_per_basis_vector(monkeypatch, preset, char, powers):
    """Each Friedl-Ronyai stage takes at most dim I_{i-1} p-power traces, one per
    basis vector of the previous stage, not one per (w, y) pair.  A stage ends in
    the nullspace of its rows, whose columns are the coordinates in I_{i-1}."""
    stages, taken = [], [0]  # (powers, dim I_{i-1}) per stage; powers since the last
    power, null = filtration._trace_of_power, filtration.nullspace

    def counted_power(*args):
        taken[0] += 1
        return power(*args)

    def stage_end(m):
        stages.append((taken[0], m.cols))
        taken[0] = 0
        return null(m)

    monkeypatch.setattr(filtration, "_trace_of_power", counted_power)
    monkeypatch.setattr(filtration, "nullspace", stage_end)
    assert _quiet(["coradical", "--preset", preset, "--char", str(char)]) == 0
    assert taken == [0] and all(count <= dim for count, dim in stages)
    assert sum(count for count, _ in stages) == powers


def test_wedge_filtration_projects_onto_its_start_once(monkeypatch):
    calls = {}
    _count_calls(monkeypatch, filtration, "quotient_maps", calls)
    assert _quiet(["wedge-filtration", "--preset", "taft:4:2", "--char", "5"]) == 0
    # one for the radical quotient, one for the start C and one per wedge step (3)
    assert calls == {"quotient_maps": 5}


def test_wedge_filtration_completes_each_subspace_once(monkeypatch):
    calls = {}
    _count_calls(monkeypatch, hopf, "_completion", calls)
    assert _quiet(["wedge-filtration", "--preset", "taft:4:2", "--char", "5"]) == 0
    # the radical quotient, the start C once (for both subcoalgebra checks, its
    # projection and the first wedge step) and the two later stages
    assert calls == {"_completion": 4}


def test_kernels_do_no_fraction_arithmetic_over_q(monkeypatch):
    """solve_affine and contract take and return Fractions but compute on
    integers: on the fs-section system of Q8 over Q, whose solution has
    denominators up to 8, no Fraction is added, subtracted, multiplied or divided."""
    h = resolve_preset("group:Q8", FieldSpec(0))
    f = h.field
    yd_plus, hp = yd.h_plus_yd(h)
    system = fs_section_system(h, yd_plus, hp, False)
    ops = {}
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        _count_calls(monkeypatch, Fraction, name, ops)
    tau = solve_affine(system)
    # the unknown has shape (n, m, m): entry (i, a, b) is tau(v_b) at e_i (x) v_a
    images = contract(f, "jip,iab->jbpa", h.alg.mult, tau)
    counit = contract(f, "iab,i->ab", tau, h.coa.counit)
    assert sum(ops.values()) == 0, ops
    monkeypatch.undo()
    assert tau is not None
    assert images and not counit  # tau lands in H^+ (x) H^+
    assert max(v.denominator for v in tau.values()) > 1


@pytest.mark.parametrize("spec,char", [("group:Q8", 0), ("taft:3:2", 7)])
def test_fs_section_assembly_subtracts_no_field_elements(monkeypatch, spec, char):
    """The signed terms of a condition go straight into its rows: assembling the
    fs-section system (plain and complete) makes no ``FieldSpec.sub`` call, where
    subtracting two contracted tensors entry by entry made one per entry."""
    h = resolve_preset(spec, FieldSpec(char))
    yd_plus, hp = yd.h_plus_yd(h)
    calls = {}
    _count_calls(monkeypatch, FieldSpec, "sub", calls)
    systems = [fs_section_system(h, yd_plus, hp, complete)
               for complete in (False, True)]
    assert calls.get("sub", 0) == 0
    assert all(len(s.rhs) > 1000 for s in systems)


def test_double_separable_query_never_densifies_the_double(monkeypatch):
    calls = {}
    # D(S3) is 36-dimensional: no 36 x 36 x 36 nested list is built through
    # `linalg.dense`, and none is read back through `linalg.sparse`, in any module
    for module in (cli, doubles, filtration, hopf, integrals, lifting, linalg, presets,
                   serialize, smoothness, yd):
        if hasattr(module, "dense"):
            _count_calls(monkeypatch, module, "dense", calls,
                         lambda field, t, shape: shape == (36, 36, 36))
        if hasattr(module, "sparse"):
            _count_calls(monkeypatch, module, "sparse", calls,
                         lambda t: isinstance(t, list) and len(t) == 36
                         and isinstance(t[0], list) and isinstance(t[0][0], list))
    assert _quiet(["double-separable", "--preset", "group:S3", "--char", "3"]) == 0
    assert calls.get("dense", 0) == calls.get("sparse", 0) == 0


@pytest.mark.parametrize("where", [["--preset", "group:S3", "--char", "3"],
                                   ["--preset", "group:Q8"]])
def test_double_separable_yes_runs_no_elimination_in_the_extension_check(where, monkeypatch):
    """A "yes" checks the idempotent of D(H)/H on H* (x) D(H) with no R (x)_S R:
    inside ``separable_extension`` no row is assembled (``AffineSystem.conditions``),
    no ``_rref`` runs, in ``doubles`` or in ``linalg``, and no ``Echelon`` is made."""
    inside, calls = [], []
    inner = cli.separable_extension

    def wrapper(*args):
        inside.append(1)
        try:
            return inner(*args)
        finally:
            inside.pop()

    def noting(name, fn):
        def noted(*args, **kwargs):
            if inside:
                calls.append(name)
            return fn(*args, **kwargs)
        return noted

    monkeypatch.setattr(cli, "separable_extension", wrapper)
    monkeypatch.setattr(linalg.AffineSystem, "conditions", staticmethod(
        noting("conditions", linalg.AffineSystem.conditions)))
    monkeypatch.setattr(linalg.Echelon, "__init__", noting("Echelon", linalg.Echelon.__init__))
    for module in (doubles, linalg):
        monkeypatch.setattr(module, "_rref", noting("_rref", module._rref))
    assert _quiet(["double-separable", *where]) == 0
    assert calls == []


def test_parser_is_built_once_and_namespaces_stay_independent(monkeypatch):
    built = []
    real = argparse.ArgumentParser

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    getattr(cli.build_parser, "cache_clear", lambda: None)()
    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=counting))
    try:
        assert _quiet(["check-axioms", "--preset", "group:C2"]) == 0
        assert _quiet(["coradical", "--preset", "sweedler", "--char", "3"]) == 0
        assert len(built) == 1
        parser = cli.build_parser()
        first = parser.parse_args(["lift-section", "--preset", "group:C2", "--colinear"])
        second = parser.parse_args(["lift-section", "--preset", "group:C3"])
        assert first is not second
        assert first.colinear and not second.colinear and first.preset == "group:C2"
    finally:
        getattr(cli.build_parser, "cache_clear", lambda: None)()


def test_surjection_with_a_padded_map_is_rejected_by_shape():
    prob = square_zero_extension(resolve_preset("group:C2", FieldSpec(0)))
    # a third row: entry (2, 0) on the 2-dimensional target A
    pi = {**prob.pi, (2, 0): prob.e.field.one}
    padded = SurjectionProblem(prob.e, prob.a, pi)
    with pytest.raises(ValueError, match=r"pi must be 2 x 4, got an entry at \(2, 0\)"):
        padded.validate()


def test_ideal_powers_end_at_zero_exactly_at_the_nilpotency_index():
    h = resolve_preset("sweedler", FieldSpec(0))
    x = _basis_vec(h, 2)  # the nilpotent generator x, with x^2 = 0
    ideal = _subspace(4, [_basis_vec(h, 2), _basis_vec(h, 3)])
    powers = ideal_powers(h.alg, ideal)
    assert powers is not None and _vectors(h.field, powers[-1]) == [] and len(powers) == 2
    assert is_nilpotent_ideal(ideal, h.alg) == 2
    assert _mul(h.field, dense(h.field, h.alg.mult, (4, 4, 4)), x, x) == [h.field.zero] * 4
    whole = _subspace(4, [_basis_vec(h, i) for i in range(4)])
    assert ideal_powers(h.alg, whole) is None
    assert is_nilpotent_ideal(whole, h.alg) is None


def test_unknown_adjoint_structure_is_rejected():
    from hopfsmith.yd import adjoint_action, adjoint_coaction
    h = resolve_preset("sweedler", FieldSpec(0))
    with pytest.raises(ValueError, match="unknown adjoint structure"):
        adjoint_action(h, "rho_l")
    with pytest.raises(ValueError, match="unknown adjoint structure"):
        adjoint_coaction(h, "adl")


# The JSON edge: the only modules that turn sparse tensors into nested lists or back.
JSON_EDGE = {"hopfsmith.serialize", "hopfsmith.cli"}
PACKAGE = (cli, doubles, filtration, hopf, integrals, lifting, linalg, presets, serialize,
           smoothness, yd)


@pytest.mark.parametrize("argv", [
    pytest.param([command, "--preset", preset, "--char", str(char)],
                 id=f"{command}-{preset}-{char}")
    for preset, char in (("sweedler", 0), ("functions:S3", 2), ("taft:3:2", 7))
    for command in cli.SUBCOMMANDS if command != "truth-table"] + [
    pytest.param(["truth-table"], id="truth-table")] + [
    pytest.param(["lift-section", "--preset", preset, "--char", str(char),
                  "--problem", f"cyclic-cover:{cover}"], id=f"lift-section-{preset}-{char}-{cover}")
    for preset, char, cover in (("group:C2", 2, 2), ("group:C3", 3, 3), ("group:C4", 2, 2))])
def test_nothing_densifies_outside_the_json_edge(monkeypatch, argv):
    """Vectors, subspace bases, solutions, certificates and maps stay sparse
    tensors: outside ``serialize`` and ``cli``, no module calls ``linalg.sparse``
    (or a ``linalg.dense``, where one exists).  Each modular cover ends in an
    obstruction, so a stage bimodule is built and checked."""
    callers = []
    for name in ("dense", "sparse"):
        real = getattr(linalg, name, None)
        if real is None:
            continue

        def recording(*args, _real=real, **kwargs):
            frame = sys._getframe(1)
            if frame.f_code is not _real.__code__:  # not the converter's own recursion
                callers.append(frame.f_globals["__name__"])
            return _real(*args, **kwargs)

        for module in PACKAGE:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, recording)
    with contextlib.redirect_stderr(io.StringIO()):
        _quiet(argv)
    assert [c for c in callers if c not in JSON_EDGE] == []


def test_double_report_converts_only_nonzero_scalars(monkeypatch):
    """The `double` report turns each structure map into nested lists from a row
    of JSON zeros, so `FieldSpec.to_json` runs once per nonzero entry of the
    double's maps and the extension's, not once per dense entry."""
    double, ext = doubles.drinfeld_double(resolve_preset("group:S3", FieldSpec(2)))
    maps = (double.alg.mult, double.coa.comult, double.coa.counit, double.antipode,
            ext.big.mult, ext.small.mult, ext.embedding)
    calls = {}
    _count_calls(monkeypatch, FieldSpec, "to_json", calls)
    assert _quiet(["double", "--preset", "group:S3", "--char", "2"]) == 0
    assert calls == {"to_json": sum(map(len, maps))}
    assert calls["to_json"] < 36 ** 3 // 10


def test_drinfeld_double_solves_no_system_in_the_antipode_entries(monkeypatch):
    """S_D comes from its closed form: building D(S3) over F_3 (N = 36) makes no
    solve with N^2 unknowns, in any module."""
    big = {}
    for module in (doubles, hopf, linalg):
        if hasattr(module, "solve_affine"):
            _count_calls(monkeypatch, module, "solve_affine", big,
                         lambda system: system.unknowns >= 36 ** 2)
    double, _ = doubles.drinfeld_double(resolve_preset("group:S3", FieldSpec(3)))
    assert double.dim == 36
    assert sum(big.values()) == 0


@pytest.mark.parametrize("argv", [
    ["weak-projection", "--preset", "taft:4:2", "--char", "5"],
    ["weak-projection", "--preset", "sweedler"],
    ["weak-projection", "--preset", "functions:C12", "--char", "2"],
])
def test_weak_projection_completes_each_distinct_basis_once(monkeypatch, argv):
    """The coradical, the inclusion's image and the radical of E* each meet the
    query in several places; each distinct basis is eliminated against the
    identity once (at the parent, taft:4:2 made 12 completions of 10 bases)."""
    seen = []
    inner = hopf._completion

    def recording(field, n, k, basis):
        seen.append((n, k, tuple(sorted(basis.items()))))
        return inner(field, n, k, basis)

    monkeypatch.setattr(hopf, "_completion", recording)
    assert _quiet(argv) == 0
    assert seen and len(seen) == len(set(seen))


def _blind_work(monkeypatch, argv) -> tuple:
    """(exit code, calls of the blind searches, unknown counts of every system
    constructed and of every system or matrix solved, in any module) for one query."""
    blind, assembled, solved = {}, [], []
    for name in ("_blind_idempotent", "_blind_retraction"):
        _count_calls(monkeypatch, integrals, name, blind)
    post_init = linalg.AffineSystem.__post_init__

    def recorded(system):
        post_init(system)
        assembled.append(system.unknowns)

    monkeypatch.setattr(linalg.AffineSystem, "__post_init__", recorded)
    for name, unknowns in (("solve_affine", lambda system: system.unknowns),
                           ("nullspace", lambda mat: mat.cols)):
        inner = getattr(linalg, name)

        def solve(arg, inner=inner, unknowns=unknowns):
            solved.append(unknowns(arg))
            return inner(arg)

        for module in PACKAGE:
            if getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, solve)
    return _quiet(argv), blind, assembled, solved


@pytest.mark.parametrize("command", ["separable", "coseparable"])
def test_a_formula_certificate_needs_no_blind_system(monkeypatch, command):
    """kS3 over Q has total integrals in H and in H*: the checked formula
    certificate proves the blind system feasible, so that system, in n^2 or n^3
    unknowns, is neither assembled nor eliminated."""
    code, blind, assembled, solved = _blind_work(monkeypatch,
                                                 [command, "--preset", "group:S3"])
    assert code == 0
    assert sum(blind.values()) == 0
    assert assembled and max(assembled) == 6 and solved == [6]  # only the integral space


@pytest.mark.parametrize("command", ["separable", "coseparable", "fs-algebra",
                                     "fs-algebra-complete", "fs-coalgebra",
                                     "fs-coalgebra-complete"])
@pytest.mark.parametrize("preset,n", [pytest.param(["sweedler"], 4, id="sweedler"),
                                      pytest.param(["taft:5:3", "--char", "11"], 25, id="taft5")])
def test_a_refutation_needs_no_blind_system(monkeypatch, command, preset, n):
    """Sweedler's algebra and Taft(5) over F_11 have no normalized integral in H
    or in H*: the "no" is read off the left integral space, so no blind search
    runs and no system in more than n unknowns is assembled or solved (on
    Taft(5) the blind systems would have 625, 15,625 or 14,400 unknowns).
    Counted in systems, not seconds."""
    code, blind, assembled, solved = _blind_work(monkeypatch, [command, "--preset", *preset])
    assert code == 1
    assert sum(blind.values()) == 0
    assert assembled and max(assembled) <= n
    assert solved and max(solved) <= n


@pytest.mark.parametrize("argv,n", [
    (["fs-algebra", "--preset", "group:Q8"], 8),
    (["fs-algebra-complete", "--preset", "group:Q8"], 8),
    (["fs-coalgebra", "--preset", "functions:S3"], 6),
    (["fs-coalgebra-complete", "--preset", "functions:S3"], 6)])
def test_an_fs_formula_certificate_needs_no_blind_system(monkeypatch, argv, n):
    """kQ8 and k^S3 over Q have normalized integrals in H and in H*: the map
    written from the integral is checked on the fs conditions, so no system in
    the n(n-1)^2 entries of the map is assembled, and none is eliminated."""
    assembled, solved = [], {}
    conditions = linalg.AffineSystem.conditions.__func__

    def recorded(cls, field, shape, *conds):
        assembled.append(shape)
        return conditions(cls, field, shape, *conds)

    monkeypatch.setattr(linalg.AffineSystem, "conditions", classmethod(recorded))
    for module in PACKAGE:
        if getattr(module, "solve_affine", None) is solve_affine:
            _count_calls(monkeypatch, module, "solve_affine", solved)
    assert _quiet(argv) == 0
    assert assembled and all(prod(shape) < n * (n - 1) ** 2 for shape in assembled)
    assert sum(solved.values()) == 0


@pytest.mark.parametrize("command", ["ad-invariant", "ad-coinvariant"])
@pytest.mark.parametrize("spec,char", GRID)
def test_an_ad_query_reads_the_integral_space_once_and_solves_nothing(monkeypatch, command,
                                                                      spec, char):
    """The ad-(co)invariant integral is the total integral checked on (b): the
    query computes one left integral space and runs no affine solve."""
    calls = {"integral_space": 0, "solve_affine": 0}
    _count_calls(monkeypatch, integrals, "integral_space", calls)
    for module in PACKAGE:
        if getattr(module, "solve_affine", None) is solve_affine:
            _count_calls(monkeypatch, module, "solve_affine", calls)
    _quiet([command, "--preset", spec, "--char", str(char)])
    assert calls == {"integral_space": 1, "solve_affine": 0}


def _contractions(monkeypatch, preset, char):
    """(H, calls): the preset and a count of the ``contract`` calls made through the ``hopf``
    and ``yd`` bindings from now on, with ``generators`` answering from the list it gave
    once, so the count leaves out the contractions it makes."""
    h = resolve_preset(preset, FieldSpec(char))
    gens, calls = hopf.generators(h.alg), {}
    for module in (hopf, yd):
        monkeypatch.setattr(module, "generators", lambda alg: gens)
        _count_calls(monkeypatch, module, "contract", calls)
    return h, calls


@pytest.mark.parametrize("preset,char", [("group:S3", 0), ("sweedler", 3), ("taft:3:2", 7),
                                         ("functions:C3", 3)])
def test_a_passing_check_makes_a_fixed_number_of_contractions(monkeypatch, preset, char):
    """Each law is evaluated once: a passing ``check_hopf`` makes 17 contractions, the full
    check with its witnesses (``_explained``) 20, and the module check of an adjoint action
    3, outside those of ``generators``."""
    h, calls = _contractions(monkeypatch, preset, char)
    assert hopf.check_hopf(h).all_ok and calls == {"contract": 17}
    calls.clear()
    assert hopf._explained(h).all_ok and calls == {"contract": 20}
    for which in yd.ACTIONS:
        act = yd.adjoint_action(h, which)
        calls.clear()
        assert act.check() == (True, None) and calls == {"contract": 3}, which


def _contraction_orders(monkeypatch) -> dict:
    """Rebind ``failed_conditions`` in every module of the package that binds it, and
    ``AffineSystem.conditions``, to wrappers recording the spec of each condition term
    with its operands in the order the evaluator contracts them: a checked map first,
    as ``failed_conditions`` moves it, and the unknown last in an assembled system."""
    orders = {"checked": set(), "assembled": set()}
    check, assemble = linalg.failed_conditions, linalg.AffineSystem.conditions.__func__

    def checked(field, conds, x):
        orders["checked"].update(linalg._unknown_first(spec)
                                 for _, terms, _ in conds for _, spec, *_ in terms)
        return check(field, conds, x)

    def assembled(cls, field, shape, *conds):
        orders["assembled"].update(spec for _, terms, _ in conds for _, spec, *_ in terms)
        return assemble(cls, field, shape, *conds)

    for module in PACKAGE:
        if getattr(module, "failed_conditions", None) is check:
            monkeypatch.setattr(module, "failed_conditions", checked)
    monkeypatch.setattr(linalg.AffineSystem, "conditions", classmethod(assembled))
    return orders


def _meets_an_outer_product(spec: str) -> bool:
    """Whether a term of three or more operands, contracted from the left, meets an
    operand that shares no index with the ones before it."""
    names = spec.split("->")[0].split(",")
    return len(names) >= 3 and any(not set(name) & set("".join(names[:t]))
                                   for t, name in enumerate(names) if t)


@pytest.mark.parametrize("preset,char", GRID)
def test_no_condition_term_contracts_an_outer_product(monkeypatch, preset, char):
    """Every condition term that a query checks or assembles, over every subcommand and
    flag, contracts each operand against an index already met.  A 12-operand term that
    began with the outer product chi (x) Delta ran out of memory on D(S3) over F_5."""
    orders = _contraction_orders(monkeypatch)
    source = ["--preset", preset, "--char", str(char)]
    queries = [[command] for command in cli.SUBCOMMANDS if command != "truth-table"] + [
        ["wedge-filtration", "--start", "unit"], ["lift-section", "--colinear"],
        ["weak-projection", "--bilinear"]]
    if preset.startswith("group:C"):
        queries.append(["lift-section", "--problem", "cyclic-cover:2"])
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in queries:
            _quiet(argv + source)
    assert orders["checked"]
    assert [spec for specs in orders.values() for spec in sorted(specs)
            if _meets_an_outer_product(spec)] == []
