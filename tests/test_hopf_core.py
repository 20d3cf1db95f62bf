import copy
import functools
from fractions import Fraction

import pytest

from hopfsmith import (GF, QQ, FieldSpec, augmentation_ideal, check_algebra,
                       check_hopf, dual_hopf, op_cop, resolve_preset,
                       unit_cokernel)
from hopfsmith.hopf import validated
from hopfsmith.linalg import spans_equal
from hopfsmith.presets import (NotAGroupError, cyclic_table, preset_function_algebra,
                               preset_group_algebra, preset_sweedler, preset_taft,
                               s3_table, q8_table)

from conftest import GRID, F
from test_loop_oracles import _columns, _delta, _eye, _matmul, _matvec, _unit_vec, dense


def _antipode(h):
    """The antipode of h as dense rows, read through ``dense``."""
    return dense(h.field, h.antipode, (h.dim, h.dim))


def test_every_preset_passes_axioms(preset_cache):
    for spec, char in GRID:
        h = preset_cache(spec, char)
        assert check_hopf(h).all_ok, (spec, char)


def test_one_dimensional_algebra():
    h = resolve_preset("group:C1", QQ)
    assert h.dim == 1 and check_hopf(h).all_ok


def test_corrupted_product_fails_associativity():
    h = preset_group_algebra(cyclic_table(3), QQ)
    bad = copy.deepcopy(h.alg)
    # redirect g·g^2 away from the identity: the entry at e_0 leaves, one at e_1 arrives
    bad.mult.pop((1, 2, 0))
    bad.mult[1, 2, 1] = F(1)
    rep = check_algebra(bad)
    assert not rep.checks["associativity"].ok
    assert rep.checks["associativity"].witness is not None


def test_corrupted_antipode_fails_axiom():
    h = preset_sweedler(QQ)
    broken = copy.deepcopy(h)
    broken.antipode = {(i, i): F(1) for i in range(4)}
    broken.antipode_inverse = {(i, i): F(1) for i in range(4)}
    rep = check_hopf(broken)
    assert not rep.checks["antipode"].ok


def test_group_table_validation():
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative / no structure
    with pytest.raises(NotAGroupError):
        preset_group_algebra(bad, QQ)
    with pytest.raises(NotAGroupError):
        preset_group_algebra([[1, 0], [0, 0]], QQ)  # no identity row/col consistency


def test_group_algebra_c2_antipode_is_identity():
    h = preset_group_algebra(cyclic_table(2), QQ)
    assert _antipode(h) == _eye(QQ, 2)


def test_group_algebra_s_squared_identity(preset_cache):
    for spec in ("group:C3", "group:S3", "group:Q8"):
        h = preset_cache(spec, 0)
        assert _matmul(QQ, _antipode(h), _antipode(h)) == _eye(QQ, h.dim)


def test_taft_s_squared_not_identity():
    h = preset_taft(3, 2, GF(7))
    s2 = _matmul(h.field, _antipode(h), _antipode(h))
    assert s2 != _eye(GF(7), 9)
    assert h.antipode_inverse is not None


def test_taft_matches_sweedler():
    t = preset_taft(2, -1, QQ)
    s = preset_sweedler(QQ)
    assert t.alg.mult == s.alg.mult
    assert t.coa.comult == s.coa.comult
    assert t.coa.counit == s.coa.counit
    assert t.antipode == s.antipode


def test_taft_rejects_non_primitive_root():
    with pytest.raises(ValueError):
        preset_taft(3, 1, GF(7))
    with pytest.raises(ValueError):
        preset_taft(4, 4, GF(5))  # 4^2 = 1 mod 5: order 2, not 4
    with pytest.raises(ValueError):
        preset_taft(2, 1, GF(3))


def test_function_algebra_is_dual_of_group_algebra():
    kg = preset_group_algebra(cyclic_table(2), QQ)
    kf = preset_function_algebra(cyclic_table(2), QQ)
    d = dual_hopf(kg)
    assert check_hopf(d).all_ok and check_hopf(kf).all_ok
    assert kf.alg.mult == d.alg.mult and kf.coa.comult == d.coa.comult
    # idempotent basis sums to the identity
    one = _unit_vec(kf)
    assert one == [F(1), F(1)]


def test_function_algebra_c1_is_ground_field():
    kf = preset_function_algebra(cyclic_table(1), QQ)
    assert kf.dim == 1


def test_dual_is_involution(preset_cache):
    for spec, char in [("group:C3", 0), ("sweedler", 0), ("functions:S3", 2),
                       ("taft:3:2", 7)]:
        h = preset_cache(spec, char)
        d = dual_hopf(h)
        dd = dual_hopf(d)
        assert check_hopf(d).all_ok and check_hopf(dd).all_ok, (spec, char)
        assert dd.alg.mult == h.alg.mult
        assert dd.coa.comult == h.coa.comult
        assert dd.antipode == h.antipode


def test_dual_of_sweedler_passes_axioms():
    assert check_hopf(dual_hopf(preset_sweedler(QQ))).all_ok


def test_op_cop_variants():
    h = preset_sweedler(QQ)
    for fm, fc in [(True, False), (False, True), (True, True), (False, False)]:
        assert check_hopf(op_cop(h, fm, fc)).all_ok
    kg = resolve_preset("group:C3", QQ)
    both = op_cop(kg, True, True)
    assert both.antipode == kg.antipode  # S^2 = id for cocommutative
    cop = op_cop(h, False, True)
    assert cop.antipode == h.antipode_inverse


def test_unit_and_counit_laws(preset_cache):
    for spec, char in GRID:
        h = preset_cache(spec, char)
        f = h.field
        n = h.dim
        counit, comult = dense(f, h.coa.counit, (n,)), dense(f, h.coa.comult, (n, n, n))
        assert f.eq(functools.reduce(f.add, map(f.mul, _unit_vec(h), counit)), f.one)
        d1 = _delta(f, comult, _unit_vec(h))
        expect = [f.zero] * (n * n)
        for i, x in enumerate(_unit_vec(h)):
            for j, y in enumerate(_unit_vec(h)):
                if x and y:
                    expect[i * n + j] = f.mul(x, y)
        assert d1 == expect


def test_augmentation_ideal():
    h = resolve_preset("group:C2", QQ)
    hp = augmentation_ideal(h)
    assert hp.dim == 1
    assert spans_equal(QQ, hp.basis, _columns([[F(1), F(-1)]]), 2)
    h4 = preset_sweedler(QQ)
    hp4 = augmentation_ideal(h4)
    assert hp4.dim == 3
    assert spans_equal(QQ, hp4.basis,
                       _columns([[F(1), F(-1), F(0), F(0)], [F(0), F(0), F(1), F(0)],
                                 [F(0), F(0), F(0), F(1)]]), 4)


def test_augmentation_ideal_dimension(preset_cache):
    for spec, char in GRID:
        h = preset_cache(spec, char)
        assert augmentation_ideal(h).dim == h.dim - 1


def test_unit_cokernel_splitting(preset_cache):
    for spec, char in [("group:C4", 0), ("sweedler", 0), ("functions:C3", 3)]:
        h = preset_cache(spec, char)
        split = unit_cokernel(h)
        f = h.field
        n = h.dim
        proj = dense(f, split.projection, (n - 1, n))
        assert _matmul(f, proj, dense(f, split.section, (n, n - 1))) == _eye(f, n - 1)
        assert all(f.is_zero(x) for x in _matvec(f, proj, _unit_vec(h)))


def test_grid_scalars_are_canonical(preset_cache):
    """Scalars compare with == and test zero with `not` only because they are
    canonical: reduced Fractions over Q, ints in [0, p) over F_p."""
    for spec, char in GRID:
        h = preset_cache(spec, char)
        n = h.dim
        f = h.field
        scalars = [x for block in dense(f, h.alg.mult, (n, n, n)) for row in block for x in row]
        scalars += [x for block in dense(f, h.coa.comult, (n, n, n)) for row in block for x in row]
        scalars += dense(f, h.coa.counit, (n,))
        scalars += [x for row in dense(f, h.antipode, (n, n)) for x in row]
        for x in scalars:
            if char:
                assert type(x) is int and 0 <= x < char, (spec, char, x)
            else:
                assert type(x) is Fraction, (spec, char, x)
