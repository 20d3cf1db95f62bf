import functools

import pytest

from hopfsmith import GF, QQ, resolve_preset
from hopfsmith.integrals import ad_invariant_integral
from hopfsmith.linalg import AffineSystem, solve_affine
from hopfsmith.presets import preset_sweedler
from hopfsmith.yd import (ACTIONS, COACTIONS, YDStructure, adjoint_action,
                          adjoint_coaction, check_yd, h_bar_yd, h_plus_yd, yd_on_h)

from conftest import SMALL_GRID, F
from test_loop_oracles import (_act, _basis_vec, _coact, _e, _lists, _sparse_mat, _unit_vec,
                               dense)


def test_group_algebra_adjoint_action_is_conjugation():
    h = resolve_preset("group:S3", QQ)
    act = adjoint_action(h, "adl")
    # g |> x = g x g^{-1}; on basis elements the result is a basis element
    table = [[None] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            out = _act(h.field, act, _basis_vec(h, i), _basis_vec(h, j))
            ones = [k for k, v in enumerate(out) if v]
            assert len(ones) == 1
            table[i][j] = ones[0]
    # conjugation by the identity is trivial
    assert table[0] == list(range(6))


def test_abelian_adjoint_action_trivial():
    h = resolve_preset("group:C3", GF(5))
    act = adjoint_action(h, "adl")
    for i in range(3):
        for j in range(3):
            assert _act(h.field, act, _basis_vec(h, i), _basis_vec(h, j)) == _basis_vec(h, j)


def test_group_algebra_adjoint_coaction_trivial():
    h = resolve_preset("group:C3", QQ)
    co = adjoint_coaction(h, "rho_l")
    f = h.field
    for j in range(3):
        flat = _coact(h.field, co, _basis_vec(h, j))
        want = [f.zero] * 9
        want[0 * 3 + j] = f.one  # 1 (x) g_j
        assert flat == want


def test_cocommutative_coactions_coincide(preset_cache):
    for spec in ("group:C3", "group:S3"):
        h = preset_cache(spec, 0)
        tensors = [adjoint_coaction(h, w).tensor for w in COACTIONS]
        assert all(t == tensors[0] for t in tensors[1:])


def test_cocommutative_barred_action_matches(preset_cache):
    h = preset_cache("group:S3", 0)
    assert adjoint_action(h, "adl").tensor == adjoint_action(h, "adl_bar").tensor


def test_all_eight_pairings_are_yd(preset_cache):
    for spec, char in SMALL_GRID:
        h = preset_cache(spec, char)
        for kind in ACTIONS + COACTIONS:
            s = yd_on_h(h, kind)
            ok, witness = check_yd(s, h)
            assert ok, (spec, char, kind, witness)


def test_mixed_pairing_on_sweedler_recorded():
    # pairing the adjoint action with the adjoint coaction is not one of the
    # listed YD structures; on the Sweedler algebra it indeed fails
    h = preset_sweedler(QQ)
    mixed = YDStructure(adjoint_action(h, "adl"), adjoint_coaction(h, "rho_l"), "LL")
    ok, witness = check_yd(mixed, h)
    assert not ok and witness is not None


def test_h_plus_and_h_bar_structures(preset_cache):
    for spec, char in SMALL_GRID:
        h = preset_cache(spec, char)
        ydp, hp = h_plus_yd(h)
        assert hp.dim == h.dim - 1
        ydb, split = h_bar_yd(h)
        assert {c for c, _ in split.projection} == set(range(h.dim - 1))


def test_h_plus_coaction_on_c2():
    h = resolve_preset("group:C2", QQ)
    yd, hp = h_plus_yd(h)
    # the single basis vector of H^+ has trivial coaction 1 (x) v
    f = h.field
    flat = _coact(h.field, yd.coaction, [f.one])
    assert flat == [f.one, f.zero]  # H (x) H^+ with H-leg index 0 = identity


def test_counit_is_yd_morphism_for_regular_action(preset_cache):
    # eps intertwines (mult, adjoint coaction) with the trivial structure on K
    for spec, char in SMALL_GRID:
        h = preset_cache(spec, char)
        f = h.field
        n = h.dim
        co = adjoint_coaction(h, "rho_l")
        mult, _, unit, counit, _, _ = _lists(h)
        for k in range(n):
            # module side: eps(h·x) = eps(h) eps(x)
            for i in range(n):
                lhs = functools.reduce(f.add, map(f.mul, mult[i][k], counit))
                rhs = f.mul(counit[i], counit[k])
                assert f.eq(lhs, rhs)
            # comodule side: (id (x) eps) rho(x) = eps(x)·1
            flat = _coact(h.field, co, _e(f, n, k))
            acc = [f.zero] * n
            for i in range(n):
                for t in range(n):
                    x = flat[i * n + t]
                    if x and counit[t]:
                        acc[i] = f.add(acc[i], f.mul(x, counit[t]))
            want = [f.mul(counit[k], u) for u in unit]
            assert acc == want


def test_unit_is_yd_morphism_for_adjoint_action(preset_cache):
    for spec, char in SMALL_GRID:
        h = preset_cache(spec, char)
        f = h.field
        n = h.dim
        act = adjoint_action(h, "adl")
        _, _, unit, counit, _, _ = _lists(h)
        for i in range(n):
            out = _act(h.field, act, _e(f, n, i), _unit_vec(h))
            want = [f.mul(counit[i], u) for u in unit]
            assert out == want
        # Delta(1) = 1 (x) 1 is checked by the axiom suite


def test_yd_retraction_route_reproduces_ad_invariant(preset_cache):
    # lambda is ad-invariant iff it is a YD-morphism retraction of the unit:
    # solve that system independently and compare with the integrals module
    for spec, char in SMALL_GRID:
        h = preset_cache(spec, char)
        f = h.field
        n = h.dim
        act = adjoint_action(h, "adl")
        _, comult, unit, counit, _, _ = _lists(h)
        act_t = dense(f, act.tensor, (n, n, n))
        rows = []
        rhs = []
        # module intertwine: lam(h |> x) = eps(h) lam(x)
        for k in range(n):
            for t in range(n):
                row = list(act_t[k][t])
                row[t] = f.sub(row[t], counit[k])
                rows.append(row)
                rhs.append(f.zero)
        # comodule intertwine: x_1 lam(x_2) = lam(x) 1
        for k in range(n):
            for i in range(n):
                row = [f.zero] * n
                for j in range(n):
                    c = comult[k][i][j]
                    if c:
                        row[j] = f.add(row[j], c)
                row[k] = f.sub(row[k], unit[i])
                rows.append(row)
                rhs.append(f.zero)
        # retraction of the unit
        rows.append(list(unit))
        rhs.append(f.one)
        sol = solve_affine(AffineSystem(_sparse_mat(f, rows, n), rhs))
        cert = ad_invariant_integral(h)
        assert (sol is None) == (cert is None), (spec, char)
        if sol is not None:
            assert sol == cert.tensor


def test_barred_variants_require_invertible_antipode():
    h = resolve_preset("group:C2", QQ)
    broken = resolve_preset("group:C2", QQ)
    broken.antipode_inverse = None
    with pytest.raises(ValueError):
        adjoint_action(broken, "adl_bar")
    with pytest.raises(ValueError):
        adjoint_coaction(broken, "rho_r_bar")
