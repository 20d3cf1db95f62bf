import copy
from fractions import Fraction

import pytest

from hopfsmith import (GF, QQ, FieldSpec, augmentation_ideal, check_algebra,
                       check_hopf, dual_hopf, op_cop, resolve_preset,
                       unit_cokernel)
from hopfsmith.hopf import validated
from hopfsmith.linalg import Mat, spans_equal
from hopfsmith.presets import (NotAGroupError, cyclic_table, preset_function_algebra,
                               preset_group_algebra, preset_sweedler, preset_taft,
                               s3_table, q8_table)

from conftest import GRID, F


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
    bad.mult[1][2] = [F(0), F(1), F(0)]  # redirect g·g^2 away from the identity
    rep = check_algebra(bad)
    assert not rep.checks["associativity"].ok
    assert rep.checks["associativity"].witness is not None


def test_corrupted_antipode_fails_axiom():
    h = preset_sweedler(QQ)
    broken = copy.deepcopy(h)
    broken.antipode = Mat.identity(QQ, 4)
    broken.antipode_inverse = Mat.identity(QQ, 4)
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
    assert h.antipode == Mat.identity(QQ, 2)


def test_group_algebra_s_squared_identity(preset_cache):
    for spec in ("group:C3", "group:S3", "group:Q8"):
        h = preset_cache(spec, 0)
        assert h.antipode.mul(h.antipode) == Mat.identity(QQ, h.dim)


def test_taft_s_squared_not_identity():
    h = preset_taft(3, 2, GF(7))
    s2 = h.antipode.mul(h.antipode)
    assert s2 != Mat.identity(GF(7), 9)
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
    assert kf.alg.mult == d.alg.mult and kf.coa.comult == d.coa.comult
    # idempotent basis sums to the identity
    one = kf.alg.unit
    assert one == [F(1), F(1)]


def test_function_algebra_c1_is_ground_field():
    kf = preset_function_algebra(cyclic_table(1), QQ)
    assert kf.dim == 1


def test_dual_is_involution(preset_cache):
    for spec, char in [("group:C3", 0), ("sweedler", 0), ("functions:S3", 2),
                       ("taft:3:2", 7)]:
        h = preset_cache(spec, char)
        dd = dual_hopf(dual_hopf(h))
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
        assert f.eq(h.eps(h.unit_vec), f.one)
        n = h.dim
        d1 = h.delta(h.unit_vec)
        expect = [f.zero] * (n * n)
        for i, x in enumerate(h.unit_vec):
            for j, y in enumerate(h.unit_vec):
                if x and y:
                    expect[i * n + j] = f.mul(x, y)
        assert d1 == expect


def test_augmentation_ideal():
    h = resolve_preset("group:C2", QQ)
    hp = augmentation_ideal(h)
    assert hp.dim == 1
    assert spans_equal(QQ, hp.vectors, [[F(1), F(-1)]])
    h4 = preset_sweedler(QQ)
    hp4 = augmentation_ideal(h4)
    assert hp4.dim == 3
    assert spans_equal(QQ, hp4.vectors,
                       [[F(1), F(-1), F(0), F(0)], [F(0), F(0), F(1), F(0)],
                        [F(0), F(0), F(0), F(1)]])


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
        comp = split.projection.mul(split.section)
        assert comp == Mat.identity(f, n - 1)
        assert all(f.is_zero(x) for x in split.projection.matvec(h.unit_vec))


def test_grid_scalars_are_canonical(preset_cache):
    """Scalars compare with == and test zero with `not` only because they are
    canonical: reduced Fractions over Q, ints in [0, p) over F_p."""
    for spec, char in GRID:
        h = preset_cache(spec, char)
        scalars = [x for block in h.alg.mult for row in block for x in row]
        scalars += [x for block in h.coa.comult for row in block for x in row]
        scalars += list(h.coa.counit)
        scalars += [x for row in h.antipode.data for x in row]
        for x in scalars:
            if char:
                assert type(x) is int and 0 <= x < char, (spec, char, x)
            else:
                assert type(x) is Fraction, (spec, char, x)
