"""Each certificate check evaluates the condition list its finder solves.

A certificate the solver produced is changed in one entry; the check must
then name the condition that entry breaks, and raise.  This guards against an
evaluation that passes vacuously, say one handed no condition.  The check
never reads the assembled rows, so a fault in the assembly is caught too.
"""

import json
from dataclasses import replace
from itertools import product

import pytest

from hopfsmith import QQ, FieldSpec, cli, linalg, resolve_preset, serialize
from hopfsmith.doubles import (_double_idempotent_conditions, _verify_extension_idempotent,
                               drinfeld_double, separable_extension)
from hopfsmith.hopf import SubspaceBasis, check_algebra
from hopfsmith.integrals import (_ad_invariant_conditions, _integral_terms, _verify_ad_invariant,
                                 _verify_idempotent, _verify_integral_space, _verify_retraction,
                                 ad_coinvariant_integral, ad_invariant_integral,
                                 coseparability_retraction, idempotent_conditions,
                                 integral_space, retraction_conditions, separability_idempotent,
                                 total_integral)
from hopfsmith.lifting import LiftObstruction, lift_algebra_section, square_zero_extension
from hopfsmith.linalg import (AffineSystem, SparseMat, contract, failed_conditions, identity,
                              nullspace, solve_affine)
from hopfsmith.presets import cyclic_table, preset_group_algebra
from hopfsmith.smoothness import (find_complete_fs_retraction,
                                  find_complete_fs_section, find_fs_retraction, find_fs_section,
                                  fs_retraction_conditions, fs_section_conditions,
                                  verify_fs_retraction, verify_fs_section)
from hopfsmith.yd import h_bar_yd, h_plus_yd

from conftest import GRID
from test_lifting_oracles import _bumped
from test_loop_oracles import (_subspace, _vec, _vectors, ad_coinvariant_system,
                               ad_invariant_system, failed_labels)


def _fs_conditions(verify, h, complete: bool) -> list:
    """The conditions that ``verify`` checks, and that the blind system of its map states."""
    if verify is verify_fs_section:
        return fs_section_conditions(h, *h_plus_yd(h), complete)
    return fs_retraction_conditions(h, *h_bar_yd(h), complete)


def _bump(v: list, i: int, field) -> list:
    out = list(v)
    out[i] = field.add(out[i], field.one)
    return out


# ---------------------------------------------------------------------------
# fs-sections and fs-retractions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("finder, verify, spec, complete", [
    (find_fs_section, verify_fs_section, "group:C3", False),
    (find_complete_fs_section, verify_fs_section, "group:C2", True),
    (find_fs_retraction, verify_fs_retraction, "functions:C3", False),
    (find_complete_fs_retraction, verify_fs_retraction, "functions:C2", True),
])
def test_fs_check_drops_a_label_for_a_changed_entry(finder, verify, spec, complete):
    h = resolve_preset(spec, QQ)
    cert = finder(h)
    full = ["i", "ii", "iii"] if complete else ["i", "ii"]
    assert cert is not None and cert.verified == full
    conds = _fs_conditions(verify, h, complete)
    assert verify(h.field, cert.kind, cert.tensor, conds) == full
    # entry (0, 0) adds e_0 (x) v_0 to tau(v_0), resp. vbar_0 to chi(e_0 (x) vbar_0);
    # the sums that (ii) takes pick the extra term up, so (ii) fails
    bumped = _bumped(h.field, cert.tensor, (0, 0, 0))
    bad = failed_conditions(h.field, conds, bumped)
    assert "ii" in bad and set(bad) <= set(full)
    with pytest.raises(AssertionError, match=f"^{cert.kind} fails {', '.join(bad)}$"):
        verify(h.field, cert.kind, bumped, conds)


@pytest.mark.parametrize("finder, verify, spec", [
    (find_fs_section, verify_fs_section, "functions:S3"),
    (find_fs_retraction, verify_fs_retraction, "group:S3"),
])
def test_plain_kernel_shift_keeps_i_ii_and_drops_iii(finder, verify, spec):
    # shifting a plain solution along the plain system's nullspace keeps (i)
    # and (ii); for these non-cocommutative cases it breaks completeness (iii)
    h = resolve_preset(spec, QQ)
    cert = finder(h)
    plain = AffineSystem.conditions(QQ, cert.shape, *_fs_conditions(verify, h, complete=False))
    shift = _vectors(QQ, SubspaceBasis(plain.unknowns, nullspace(plain.matrix)))[0]
    keys = list(product(*map(range, cert.shape)))  # the unknowns in row-major order
    flat = [QQ.add(x, y) for x, y in zip((cert.tensor.get(k, QQ.zero) for k in keys), shift)]
    moved = {k: x for k, x in zip(keys, flat) if x}
    conds = _fs_conditions(verify, h, complete=True)
    assert verify(h.field, cert.kind, cert.tensor, conds) == ["i", "ii", "iii"]
    assert failed_conditions(h.field, conds, moved) == ["iii"]
    with pytest.raises(AssertionError, match="fails iii$"):
        verify(h.field, cert.kind, moved, conds)


# the closed formulas of the fs maps: tau(v_b) = t_1 (x) S(t_2) v_b, keyed (i, a, b)
# with its H^+ leg in H^+ coordinates, and chi(e_i (x) vbar_a) = lam(e_i S(y_1)) ybar_2
# for y the lift of vbar_a, keyed (c, i, a)
TAU = "k,kij,lj,xb,lxz,az->iab"
CHI = "xa,xpq,sp,isz,z,cq->cia"


@pytest.mark.parametrize("spec,char", GRID)
def test_fs_verdicts_and_formulas_agree_with_the_blind_systems(spec, char, preset_cache):
    """On every GRID case, each fs finder says "yes" exactly when its blind
    system is feasible, and its certificate is the formula map of the
    normalized integral, which no row of the plain or the complete blind
    system fails."""
    h = preset_cache(spec, char)
    f = h.field
    if h.dim == 1:
        return
    n, m, d, s, mult = h.dim, h.dim - 1, h.coa.comult, h.antipode, h.alg.mult
    yd_plus, hp = h_plus_yd(h)
    yd_bar, split = h_bar_yd(h)
    basis, coords = hp.tensors(f)
    for carrier, finders, shape, conditions, formula in (
            ("in_h", (find_fs_section, find_complete_fs_section), (n, m, m),
             lambda complete: fs_section_conditions(h, yd_plus, hp, complete),
             lambda t: contract(f, TAU, t, d, s, basis, mult, coords)),
            ("in_dual", (find_fs_retraction, find_complete_fs_retraction), (m, n, m),
             lambda complete: fs_retraction_conditions(h, yd_bar, split, complete),
             lambda lam: contract(f, CHI, split.section, d, s, mult, lam, split.projection))):
        total = total_integral(h, carrier)
        systems = []
        for finder, complete in zip(finders, (False, True)):
            cert = finder(h)
            systems.append(AffineSystem.conditions(f, shape, *conditions(complete)))
            assert (cert is not None) == (solve_affine(systems[-1]) is not None), finder
            assert (cert is not None) == (total is not None), finder
            if cert is not None:
                assert cert.tensor == formula(total.tensor) and cert.shape == shape
        if total is not None:
            assert [failed_labels(sys, formula(total.tensor)) for sys in systems] == [[], []]


def test_a_left_integral_space_of_dimension_2_exits_2(monkeypatch, capsys):
    """A "no" rests on the left integral space being one-dimensional
    (Larson-Sweedler).  Handed Sweedler's left and right integrals as one
    two-dimensional space, on which eps vanishes, ``separable`` must not read
    it as a refutation: it exits 2 with no report."""
    import hopfsmith.integrals as integ
    h = resolve_preset("sweedler", QQ)
    vectors = [_vectors(h.field, integral_space(h, side))[0] for side in ("left", "right")]
    two = _subspace(h.dim, vectors)
    assert two.dim == 2 and not contract(h.field, "kj,k->j", two.basis, h.coa.counit)
    monkeypatch.setattr(integ, "integral_space", lambda h, side="left", carrier="in_h": two)
    assert cli.main(["separable", "--preset", "sweedler"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "internal verification failed" in error and "not one-dimensional" in error


# ---------------------------------------------------------------------------
# Integrals, separability idempotents and coseparability retractions
# ---------------------------------------------------------------------------

def test_integral_space_check_rejects_a_changed_vector():
    h = resolve_preset("group:C3", QQ)
    basis = integral_space(h, "left")
    bad = _subspace(h.dim, [_bump(_vectors(h.field, basis)[0], 1, h.field)])
    with pytest.raises(AssertionError, match="left"):
        _verify_integral_space(h.field, bad, [("left", _integral_terms(h, "left", "in_h"), None)])


def test_idempotent_check_rejects_a_changed_entry():
    h = resolve_preset("group:C3", QQ)
    cert = separability_idempotent(h)
    conds = idempotent_conditions(h.alg)
    assert _verify_idempotent(h.field, cert.tensor, conds) == ["m(e)=1", "bilinear"]
    # e_0 (x) e_0 multiplies to e_0 = 1, so m(e) moves off the unit
    with pytest.raises(AssertionError, match=r"m\(e\)=1"):
        _verify_idempotent(h.field, _bumped(h.field, cert.tensor, (0, 0)), conds)


def test_retraction_check_rejects_a_changed_entry():
    h = resolve_preset("functions:C3", QQ)
    cert = coseparability_retraction(h)
    conds, lam = retraction_conditions(h), total_integral(h, "in_dual").tensor
    assert _verify_retraction(h, cert.tensor, lam, conds) == ["theta∘Delta=id", "bicolinear",
                                                            "exchange-identity"]
    # theta(e_0 (x) e_0) gains e_0, and Delta(e_0) = e_0 (x) e_0 + ...
    with pytest.raises(AssertionError, match="theta∘Delta=id"):
        _verify_retraction(h, _bumped(h.field, cert.tensor, (0, 0, 0)), lam, conds)


def test_ad_invariant_check_rejects_a_changed_value():
    h = resolve_preset("group:C3", QQ)
    cert = ad_invariant_integral(h)
    conds = _ad_invariant_conditions(h)
    assert _verify_ad_invariant(h.field, cert.tensor, conds, "ad-invariant integral") == [
        "a", "b", "c"]
    # lam(1) = lam(e_0) moves off 1, while (a) and (b) still hold for a group algebra
    with pytest.raises(AssertionError, match="fails c$"):
        _verify_ad_invariant(h.field, _bumped(h.field, cert.tensor, (0,)), conds,
                             "ad-invariant integral")


# the closed formulas: sigma_t = t_1 (x) S(t_2), keyed (i, k), and
# theta_lambda(e_i (x) e_j) = (e_i)_1 lam((e_i)_2 S(e_j)), keyed (p, i, j)
SIGMA = "a,aij,kj->ik"
THETA = "ipq,qyz,yj,z->pij"


def _formula_cases(h):
    """(conditions, assembled system, shape, formula tensor, package certificate)
    for the idempotent and the retraction.  The formula is built from the total
    integral when there is one, else from the first left integral, whose
    normalization fails, so that every case evaluates tensors with failing and
    with holding conditions."""
    f = h.field
    sigma = lambda t: contract(f, SIGMA, t, h.coa.comult, h.antipode)
    theta = lambda lam: contract(f, THETA, h.coa.comult, h.alg.mult, h.antipode, lam)
    for carrier, formula_of, conds, shape, finder in (
            ("in_h", sigma, idempotent_conditions(h.alg), (h.dim,) * 2, separability_idempotent),
            ("in_dual", theta, retraction_conditions(h), (h.dim,) * 3,
             coseparability_retraction)):
        total = total_integral(h, carrier)
        first = {(x,): c for (x, j), c in integral_space(h, "left", carrier).basis.items()
                 if j == 0}
        yield (conds, AffineSystem.conditions(f, shape, *conds), shape,
               formula_of(total.tensor if total else first), finder(h) if total else None)


@pytest.mark.parametrize("spec,char", GRID)
def test_condition_evaluation_agrees_with_the_assembled_rows(spec, char, preset_cache):
    """On every GRID case, ``failed_conditions`` on the idempotent and retraction
    conditions returns the labels that ``failed_labels`` returns on the rows
    assembled from them: for the formula tensor, and for each single-entry
    corruption of it (every entry of the idempotent; every entry of the
    retraction's support and every theta(e_i (x) e_i) entry)."""
    h = preset_cache(spec, char)
    f = h.field
    for conds, sys, shape, formula, cert in _formula_cases(h):
        if cert is not None:  # the package's certificate is this formula, fully verified
            assert cert.tensor == formula and failed_conditions(f, conds, formula) == []
        if len(shape) == 2:
            keys = list(product(range(h.dim), repeat=2))
        else:
            keys = sorted(set(formula) | {(p, i, i) for p in range(h.dim) for i in range(h.dim)})
        for x in [formula] + [_bumped(f, formula, k) for k in keys]:
            assert failed_conditions(f, conds, x) == failed_labels(sys, x)


@pytest.mark.parametrize("command,spec,char", [
    (command, spec, char) for spec, char in GRID
    for command, carrier in (("separable", "in_h"), ("coseparable", "in_dual"))
    if total_integral(resolve_preset(spec, FieldSpec(char)), carrier) is not None])
def test_cli_exits_2_when_the_formula_is_changed_in_one_entry(command, spec, char,
                                                              monkeypatch, capsys):
    """A formula that comes out with one entry bumped fails its condition check,
    which stands in for the blind solve: the query exits 2 and prints no report."""
    import hopfsmith.integrals as integ
    inner = integ.contract

    def bumped(f, spec_, *tensors):
        out = inner(f, spec_, *tensors)
        return _bumped(f, out, min(out)) if spec_ in (SIGMA, THETA) else out

    monkeypatch.setattr(integ, "contract", bumped)
    assert cli.main([command, "--preset", spec, "--char", str(char)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal verification failed" in json.loads(captured.err)["error"]


def _corrupting(total_integral, how):
    """total_integral with its vector doubled, or with 1 added to its first entry."""
    def corrupted(h, *args):
        cert = total_integral(h, *args)
        f = h.field
        return cert and replace(cert, tensor={k: f.add(v, v) for k, v in cert.tensor.items()}
                                if how == "doubled" else _bumped(f, cert.tensor, (0,)))
    return corrupted


@pytest.mark.parametrize("how", ["doubled", "bumped"])
def test_ad_coinvariant_rejects_a_corrupted_total_integral(how, monkeypatch):
    """A total integral that is no longer normalized, or no longer an integral,
    fails (c) or (a): a fault, never a "no"."""
    import hopfsmith.integrals as integ
    h = resolve_preset("group:C3", QQ)
    assert ad_coinvariant_integral(h) is not None
    monkeypatch.setattr(integ, "total_integral", _corrupting(integ.total_integral, how))
    with pytest.raises(AssertionError, match="ad-coinvariant integral fails (a|c)"):
        ad_coinvariant_integral(h)


@pytest.mark.parametrize("how", ["doubled", "bumped"])
@pytest.mark.parametrize("argv", [["ad-invariant", "--preset", "group:C3"],
                                  ["ad-coinvariant", "--preset", "group:C3"],
                                  ["double-separable", "--preset", "group:C2"]])
def test_cli_ad_queries_exit_2_on_a_corrupted_total_integral(argv, how, monkeypatch, capsys):
    """The ad-(co)invariant integral is the total integral checked on (a)+(b)+(c):
    a corrupted one fails (a) or (c), so the query exits 2, never 1, and prints
    no report."""
    import hopfsmith.integrals as integ
    monkeypatch.setattr(integ, "total_integral", _corrupting(integ.total_integral, how))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal verification failed" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("argv", [["ad-invariant", "--preset", "group:C2"],
                                  ["ad-coinvariant", "--preset", "functions:C2"],
                                  ["double-separable", "--preset", "group:C2"]])
def test_cli_ad_queries_exit_1_when_the_total_integral_fails_b_alone(argv, monkeypatch, capsys):
    """With the adjoint (co)action changed in one entry, the total integral still
    meets (a) and (c) and fails (b) alone, so the answer is "no" (exit 1), and
    the (a)+(b)+(c) solve of the test oracle agrees that there is no solution."""
    import hopfsmith.integrals as integ
    h = resolve_preset(argv[2], QQ)
    invariant = argv[0] != "ad-coinvariant"
    name = "adjoint_action" if invariant else "adjoint_coaction"
    inner = getattr(integ, name)

    def perturbed(h_, which):
        out = inner(h_, which)
        return replace(out, tensor=_bumped(h_.field, out.tensor, (0, 0, 0)))

    monkeypatch.setattr(integ, name, perturbed)
    conds = (integ._ad_invariant_conditions if invariant else integ._ad_coinvariant_conditions)(h)
    total = total_integral(h, "in_dual" if invariant else "in_h").tensor
    assert failed_conditions(h.field, conds, total) == ["b"]
    assert solve_affine((ad_invariant_system if invariant else ad_coinvariant_system)(h)) is None
    assert cli.main(argv) == 1
    assert cli.ADJOINT_REASON in json.loads(capsys.readouterr().out)["reason"]


@pytest.mark.parametrize("argv", [
    ["fs-algebra", "--preset", "group:C2"],
    ["fs-coalgebra", "--preset", "functions:C2"],
])
def test_cli_fs_exits_2_on_a_corrupted_solution(argv, monkeypatch, capsys):
    """A formula map that comes out with one entry bumped fails its condition
    check, which stands in for the blind solve: the query exits 2 and prints
    no report."""
    import hopfsmith.smoothness as smo
    inner = smo.contract

    def bumped(f, spec_, *tensors):
        out = inner(f, spec_, *tensors)
        return _bumped(f, out, min(out)) if spec_ in (TAU, CHI) else out

    monkeypatch.setattr(smo, "contract", bumped)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal verification failed" in json.loads(captured.err)["error"]


# ---------------------------------------------------------------------------
# D(H)/H extension idempotent
# ---------------------------------------------------------------------------

def test_extension_idempotent_check_rejects_a_changed_coordinate():
    h = resolve_preset("group:C2", QQ)
    _, ext = drinfeld_double(h)
    cert = separable_extension(h, ext, ad_invariant_integral(h).tensor)
    conds = _double_idempotent_conditions(h, ext)
    assert _verify_extension_idempotent(h.field, cert.tensor, conds) == ["m(e)=1", "bilinear"]
    assert cert.verified == ["m(e)=1", "bilinear"] and cert.shape == (h.dim, h.dim ** 2)
    coords = _bumped(h.field, cert.tensor, (0, 0))
    with pytest.raises(AssertionError, match="extension idempotent"):
        _verify_extension_idempotent(h.field, coords, conds)


@pytest.mark.parametrize("spec,char", [("group:C2", 0), ("group:S3", 3)])
def test_every_single_entry_change_of_the_extension_idempotent_fails(spec, char):
    """Each of the n·n^2 coordinates of e, raised by 1, breaks m(e) = 1 or d·e = e·d
    for a generator d, and the check names the condition."""
    h = resolve_preset(spec, FieldSpec(char))
    _, ext = drinfeld_double(h)
    cert = separable_extension(h, ext, ad_invariant_integral(h).tensor)
    conds = _double_idempotent_conditions(h, ext)
    for key in product(range(h.dim), range(h.dim ** 2)):
        with pytest.raises(AssertionError,
                           match=r"extension idempotent fails (m\(e\)=1|bilinear)"):
            _verify_extension_idempotent(h.field, _bumped(h.field, cert.tensor, key), conds)


def test_cli_exits_2_when_the_double_is_not_free_on_the_f_a(monkeypatch, capsys):
    """D(C2) with (f_0 |><| 1)(f_0 |><| e_0) raised by f_0 |><| e_1 after it is built:
    the freeness identity (f_0 |><| 1)(eps |><| e_0) = f_0 |><| e_0 fails, on which the
    identification of D(H) (x)_H D(H) with H* (x) D(H) rests, so the query exits 2."""
    inner = cli.drinfeld_double

    def corrupted(h):
        double, ext = inner(h)
        ext.big.mult = _bumped(h.field, ext.big.mult, (0, 0, 1))
        return double, ext

    monkeypatch.setattr(cli, "drinfeld_double", corrupted)
    assert cli.main(["double-separable", "--preset", "group:C2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "internal verification failed: " \
        "(f_a |><| 1)(eps |><| e_i) != f_a |><| e_i at (a, i) = (0, 0)"


def _transported(f, mult, n, psi, psi_inv):
    """The multiplication of D(H) carried along id (x) psi on H* (x) H, a linear
    automorphism that fixes each f_a |><| 1 when psi fixes 1: (x, y) -> phi(phi^{-1}(x)
    phi^{-1}(y)).  It is an algebra again, and free on the f_a |><| 1 by eps |><| e_i."""
    phi, phi_inv = ({(a * n + x, a * n + y): v for (x, y), v in t.items() for a in range(n)}
                    for t in (psi, psi_inv))
    return contract(f, "pP,qQ,pqr,Rr->PQR", phi_inv, phi_inv, mult, phi)


@pytest.mark.parametrize("change,error", [
    # d_1 d_0 = (f_0 |><| e_1)(f_0 |><| e_0), a product the freeness identity does not read
    (lambda f, ext: _bumped(f, ext.big.mult, (1, 0, 1)),
     "internal verification failed: D(H) fails the algebra axioms: "
     "associativity: FAIL at (1, 0, 0); unit: FAIL at (1,)"),
    # psi(e_1) = e_0 + e_1 fixes 1 and is not multiplicative, so neither is eps |><| -
    (lambda f, ext: _transported(f, ext.big.mult, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1},
                                 {(0, 0): 1, (0, 1): 2, (1, 1): 1}),
     "embedding is not multiplicative at (1,1)")], ids=["not-an-algebra", "not-an-algebra-map"])
def test_cli_exits_2_when_the_double_the_idempotent_reads_is_not_checked(monkeypatch, capsys,
                                                                        change, error):
    """D(C2) over F_3 with its multiplication changed after it was built, where the
    freeness identity still holds: the certificate rests on D(H) being an algebra and
    on H -> D(H) being an algebra map, so the query checks both and exits 2."""
    inner = cli.drinfeld_double

    def corrupted(h):
        double, ext = inner(h)
        ext.big.mult = change(h.field, ext)
        return double, ext

    monkeypatch.setattr(cli, "drinfeld_double", corrupted)
    assert cli.main(["double-separable", "--preset", "group:C2", "--char", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


def test_no_single_entry_change_of_the_double_that_breaks_its_algebra_is_certified(
        monkeypatch, capsys):
    """Each of the 64 entries of D(C2)'s multiplication over F_3, raised by 1 after the
    double is built: 60 of the changes give a non-algebra, and on each of those the query
    exits 2 with no report.  16 of them keep the freeness identity and the conditions on
    the idempotent, so only the check of the algebra D(H) stops them."""
    inner, broken = cli.drinfeld_double, []
    for key in product(range(4), repeat=3):
        def corrupted(h, key=key):
            double, ext = inner(h)
            ext.big.mult = _bumped(h.field, ext.big.mult, key)
            if not check_algebra(ext.big).all_ok:
                broken.append(key)
            return double, ext

        monkeypatch.setattr(cli, "drinfeld_double", corrupted)
        code = cli.main(["double-separable", "--preset", "group:C2", "--char", "3"])
        captured = capsys.readouterr()
        if broken and broken[-1] == key:
            assert (code, captured.out) == (2, ""), key
    assert len(broken) == 60


@pytest.mark.parametrize("where", [["--preset", "group:C2"],
                                   ["--preset", "group:S3", "--char", "3"],
                                   ["--preset", "group:Q8"]])
def test_cli_exits_2_when_the_idempotent_is_written_from_a_wrong_integral(where, monkeypatch,
                                                                        capsys):
    """Twice the ad-invariant integral of kG writes an element e with m(e) = 2:
    the check of the idempotent fails, so the query exits 2 and prints no report."""
    import hopfsmith.integrals as integ
    inner = integ.ad_invariant_integral

    def doubled(h):
        lam = inner(h)
        return replace(lam, tensor={k: h.field.add(v, v) for k, v in lam.tensor.items()})

    monkeypatch.setattr(integ, "ad_invariant_integral", doubled)
    assert cli.main(["double-separable", *where]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal verification failed" in json.loads(captured.err)["error"]


# ---------------------------------------------------------------------------
# A fault in the assembly: the checks read the conditions, not the rows
# ---------------------------------------------------------------------------

LIFT_CHECK = "linear lift fails projects, unital"


@pytest.mark.parametrize("argv, check", [
    # the coradical's radical, over F_3, is certified by a solved separability
    # idempotent of its quotient before any lift is solved
    (["weak-projection", "--preset", "sweedler", "--char", "3"],
     "radical quotient separability idempotent fails m(e)=1"),
    (["lift-section", "--problem", "square-zero", "--preset", "group:C2"], LIFT_CHECK),
    (["lift-section", "--colinear", "--preset", "sweedler"], LIFT_CHECK),
])
def test_cli_exits_2_when_the_assembly_doubles_every_constant(argv, check, monkeypatch, capsys):
    """An assembly that doubles every right-hand side hands the solver a wrong
    system, whose solution is off by a factor 2.  A check of that solution on
    the same rows passes; the check on the condition list fails, so the query
    exits 2 and prints no report, naming the first solve checked."""
    assert cli.main(argv) == 0
    capsys.readouterr()
    build = AffineSystem.conditions

    def doubled(field, shape, *conds):
        system = build(field, shape, *conds)
        system.rhs = [field.add(b, b) for b in system.rhs]
        return system

    monkeypatch.setattr(AffineSystem, "conditions", staticmethod(doubled))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "internal verification failed" in error
    assert check in error  # the condition-list check


@pytest.mark.parametrize("label, argv", [
    ("left unit", ["check-axioms", "--file", "{doc}"]),  # the unit of a loaded document
    ("m(e)=1", ["coradical", "--preset", "taft:3:2", "--char", "7"]),  # rad(H*) over F_7
])
def test_cli_exits_2_when_a_solved_witness_is_doubled(label, argv, monkeypatch, capsys,
                                                      tmp_path):
    """The unit solved from a loaded multiplication, and the separability idempotent that
    certifies a radical quotient semisimple over F_p, are checked on the conditions they
    were solved from: doubled, each fails its check, so the query exits 2 and prints no
    report, neither a refutation (``check-axioms`` exit 1) nor an unchecked answer.  Only
    the solution of the system holding the condition ``label`` is doubled."""
    doc = tmp_path / "kc3.json"
    doc.write_text(json.dumps(serialize.hopf_to_dict(resolve_preset("group:C3", QQ))))
    argv = [str(doc) if a == "{doc}" else a for a in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    solve, seen = linalg.solve_affine, []

    def doubled(system):
        sol = solve(system)
        if sol is None or label not in system.labels:
            return sol
        seen.append(system)
        f = system.matrix.field
        return {k: f.add(v, v) for k, v in sol.items()}

    monkeypatch.setattr(linalg, "solve_affine", doubled)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert seen and captured.out == ""
    assert "internal verification failed" in json.loads(captured.err)["error"]


# ---------------------------------------------------------------------------
# The reference row evaluation itself
# ---------------------------------------------------------------------------

def test_failed_labels_reports_violated_conditions_in_row_order():
    one = QQ.one
    sys = AffineSystem(SparseMat(QQ, 3, 2, [[(0, one)], [(1, one)], [(0, one), (1, one)]]),
                       [one, QQ.zero, one], (2,), ["b", "a", "b"])
    assert list(dict.fromkeys(sys.labels)) == ["b", "a"]
    assert failed_labels(sys, _vec([QQ.one, QQ.zero])) == []
    assert failed_labels(sys, _vec([QQ.zero, QQ.one])) == ["b", "a"]
    assert failed_labels(sys, _vec([QQ.one, QQ.one])) == ["a", "b"]


def test_labels_must_match_the_rows():
    with pytest.raises(ValueError):
        AffineSystem(SparseMat(QQ, 1, 1, [[(0, QQ.one)]]), [QQ.one], (1,), ["a", "b"])


# ---------------------------------------------------------------------------
# Lifting: an infeasible linear lift carries no closed witness
# ---------------------------------------------------------------------------

def test_infeasible_linear_lift_is_not_delta_closed():
    h = preset_group_algebra(cyclic_table(2), QQ)
    prob = square_zero_extension(h)
    n = h.dim
    # one pair to intertwine, alpha_0 = id on A and beta_0 on E = A (+) A eps with
    # beta_0(a + b eps) = a + (a + b) eps
    beta = {**identity(QQ, 2 * n), **{(n + i, i): QQ.one for i in range(n)}}
    alpha, beta = ({(0, *k): x for k, x in op.items()} for op in (identity(QQ, n), beta))
    res = lift_algebra_section(replace(prob, alpha=alpha, beta=beta))
    assert isinstance(res, LiftObstruction)
    assert res.stage == 1 and res.witness == {}
    assert res.delta_closed is False
