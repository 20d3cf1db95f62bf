from fractions import Fraction
from itertools import product

import pytest

from hopfsmith import GF, QQ, FieldSpec, dual_hopf, integrals, resolve_preset
from hopfsmith.integrals import (_blind_idempotent, _blind_retraction, ad_coinvariant_integral,
                                 ad_invariant_integral, coseparability_retraction,
                                 four_coinvariance_flags, four_linearity_flags, integral_space,
                                 is_unimodular, separability_idempotent, total_integral)
from hopfsmith.linalg import (AffineSystem, contract, identity, nullspace, solve_affine,
                              spans_equal)
from hopfsmith.presets import preset_sweedler

from conftest import GRID, SMALL_GRID, F
from test_loop_oracles import (_lists, _nullity, _sparse_mat, _vec, ad_coinvariant_system,
                               ad_invariant_system, dense, idempotent_system, retraction_system)

# the GRID and the two largest Taft cases of the scale ladder
AD_CASES = GRID + [("taft:4:2", 5), ("taft:5:3", 11)]


def _entries(cert) -> list:
    """The entries of a certificate's tensor, an integral's vector or an idempotent, in
    row-major order."""
    return [cert.tensor.get(k, 0) for k in product(*map(range, cert.shape))]


def test_integral_space_of_cyclic_groups(preset_cache):
    for n in (2, 3, 4, 6):
        for char in (0, 2, 3):
            h = preset_cache(f"group:C{n}", char)
            sp = integral_space(h, "left", "in_h")
            f = h.field
            assert sp.dim == 1
            assert sp.contains(f, _vec([f.one] * n))  # sum of all group elements
            assert is_unimodular(h, "in_h")


def test_sweedler_integrals_one_sided():
    h = preset_sweedler(QQ)
    left = integral_space(h, "left", "in_h")
    right = integral_space(h, "right", "in_h")
    assert left.dim == 1 and right.dim == 1
    assert left.contains(QQ, _vec([F(0), F(0), F(1), F(1)]))    # x + gx
    assert right.contains(QQ, _vec([F(0), F(0), F(1), F(-1)]))  # x - gx
    assert not is_unimodular(h, "in_h")


def test_one_dimensional_hopf_integrals():
    h = resolve_preset("group:C1", QQ)
    sp = integral_space(h, "left", "in_h")
    assert sp.dim == 1
    t = total_integral(h, "in_h")
    assert t is not None and _entries(t) == [F(1)]
    assert is_unimodular(h, "in_h")


def test_total_integral_normalization():
    h = resolve_preset("group:C2", QQ)
    t = total_integral(h, "in_h")
    assert t is not None and t.kind == "total_integral"
    assert _entries(t) == [F(1, 2), F(1, 2)]


def test_total_integral_vanishes_in_bad_characteristic():
    h = resolve_preset("group:C3", GF(3))
    assert total_integral(h, "in_h") is None
    assert total_integral(resolve_preset("group:C2", GF(2)), "in_h") is None


def test_function_algebra_total_integral_in_h():
    h = resolve_preset("functions:C2", QQ)
    t = total_integral(h, "in_h")
    assert t is not None and _entries(t) == [F(1), F(0)]  # the delta at the identity


def test_ad_invariant_for_group_algebras(preset_cache):
    for name in ("C1", "C2", "C3", "C4", "C5", "C6", "S3", "Q8"):
        for char in (0, 2, 3, 5):
            h = preset_cache(f"group:{name}", char)
            cert = ad_invariant_integral(h)
            f = h.field
            want = [f.one] + [f.zero] * (h.dim - 1)
            assert cert is not None and _entries(cert) == want, (name, char)


def test_ad_invariant_missing_for_sweedler():
    assert ad_invariant_integral(preset_sweedler(QQ)) is None
    assert ad_invariant_integral(preset_sweedler(GF(5))) is None


@pytest.mark.parametrize("spec,char", GRID)
def test_dual_integral_systems_are_stated_on_the_tensors_of_h(spec, char, preset_cache):
    """The H* integral systems, read off H's comultiplication and unit, equal row
    for row the integral systems of the dual Hopf algebra built as an object
    (the old route, kept here as the oracle), and so do their nullspaces."""
    h = preset_cache(spec, char)
    hstar = dual_hopf(h)

    def system(h, side, carrier):  # the one condition that integral_space solves and checks
        return AffineSystem.conditions(h.field, (h.dim,),
                                       (side, integrals._integral_terms(h, side, carrier), None))

    for side in ("left", "right"):
        assert system(h, side, "in_dual") == system(hstar, side, "in_h"), (spec, char, side)
        assert integral_space(h, side, "in_dual") == integral_space(hstar, side, "in_h")


def test_ad_invariant_solution_space_is_at_most_one_dimensional(preset_cache):
    # conditions (a)+(b) alone already cut the space to dimension <= 1
    from hopfsmith.yd import adjoint_action
    for spec, char in SMALL_GRID:
        h = preset_cache(spec, char)
        f = h.field
        n = h.dim
        adl = adjoint_action(h, "adl")
        _, comult, unit, counit, _, _ = _lists(h)
        adl_t = dense(f, adl.tensor, (n, n, n))
        rows = []
        for k in range(n):
            for i in range(n):
                row = [f.zero] * n
                for j in range(n):
                    c = comult[k][i][j]
                    if c:
                        row[j] = f.add(row[j], c)
                row[k] = f.sub(row[k], unit[i])
                rows.append(row)
        for k in range(n):
            ek = counit[k]
            for t in range(n):
                row = list(adl_t[k][t])
                row[t] = f.sub(row[t], ek)
                rows.append(row)
        assert _nullity(_sparse_mat(f, rows, n)) <= 1, (spec, char)


def test_ad_coinvariant_examples():
    t = ad_coinvariant_integral(resolve_preset("functions:C2", QQ))
    assert t is not None and _entries(t) == [F(1), F(0)]
    t = ad_coinvariant_integral(resolve_preset("functions:C3", QQ))
    assert t is not None and _entries(t) == [F(1), F(0), F(0)]
    t = ad_coinvariant_integral(resolve_preset("group:C2", QQ))
    assert t is not None and _entries(t) == [F(1, 2), F(1, 2)]
    assert ad_coinvariant_integral(resolve_preset("group:C2", GF(2))) is None
    assert ad_coinvariant_integral(preset_sweedler(QQ)) is None


def test_ad_coinvariant_matches_dual_ad_invariant(preset_cache):
    for spec, char in GRID:
        h = preset_cache(spec, char)
        a = ad_coinvariant_integral(h) is not None
        b = ad_invariant_integral(dual_hopf(h)) is not None
        assert a == b, (spec, char)


def test_ad_invariant_is_the_total_integral(preset_cache):
    # when it exists, the ad-invariant functional equals the normalized total
    # integral in the dual
    for spec, char in SMALL_GRID:
        h = preset_cache(spec, char)
        lam = ad_invariant_integral(h)
        if lam is None:
            continue
        tot = total_integral(h, "in_dual")
        assert tot is not None
        assert lam.tensor == tot.tensor, (spec, char)


def _solved(system):
    """The solution of ``system``, which (a) and (c) alone make unique, or None."""
    sol = solve_affine(system)
    if sol is None:
        return None
    assert not nullspace(system.matrix)
    return sol


@pytest.mark.parametrize("spec,char", AD_CASES)
def test_ad_integrals_equal_the_solve_of_a_b_c(spec, char, preset_cache):
    """The ad-(co)invariant integral, the total integral checked on (b), equals
    the unique solution of the (a)+(b)+(c) system, and is None exactly when that
    system has no solution."""
    h = preset_cache(spec, char)
    for finder, system in ((ad_invariant_integral, ad_invariant_system),
                           (ad_coinvariant_integral, ad_coinvariant_system)):
        cert = finder(h)
        assert (None if cert is None else cert.tensor) == _solved(system(h)), finder.__name__


def test_the_normalized_integral_in_the_dual_is_an_invariant_trace(preset_cache):
    """Wherever the normalized lam in H* exists, lam is a trace, lam∘S = lam and
    S^2 = id: the facts by which (b) holds in characteristic 0, and by which the
    eight one-antipode variants of e_lambda agree."""
    checked = 0
    for spec, char in AD_CASES:
        h = preset_cache(spec, char)
        total = total_integral(h, "in_dual")
        if total is None:
            continue
        f, lam, m, s = h.field, total.tensor, h.alg.mult, h.antipode
        assert contract(f, "ijk,k->ij", m, lam) == contract(f, "jik,k->ij", m, lam), spec
        assert contract(f, "ij,i->j", s, lam) == lam, spec
        assert contract(f, "ij,jk->ik", s, s) == identity(f, h.dim), spec
        checked += 1
    assert checked == 23


def test_separability_idempotent_c2():
    cert = separability_idempotent(resolve_preset("group:C2", QQ))
    assert cert is not None
    assert _entries(cert) == [F(1, 2), F(0), F(0), F(1, 2)]  # (e(x)e + g(x)g)/2
    assert cert.verified == ["m(e)=1", "bilinear"]


def test_separability_idempotent_trivial_and_missing():
    triv = separability_idempotent(resolve_preset("group:C1", QQ))
    assert triv is not None and _entries(triv) == [F(1)]
    assert separability_idempotent(resolve_preset("group:C3", GF(3))) is None
    assert separability_idempotent(preset_sweedler(QQ)) is None


def test_coseparability_retraction_examples():
    cert = coseparability_retraction(resolve_preset("group:C3", GF(2)))
    assert cert is not None
    assert set(cert.verified) == {"theta∘Delta=id", "bicolinear", "exchange-identity"}
    assert coseparability_retraction(preset_sweedler(QQ)) is None
    triv = coseparability_retraction(resolve_preset("group:C1", QQ))
    assert triv is not None


def test_routes_agree_on_grid(preset_cache):
    # the finders decide by the total integral; the blind searches for any
    # idempotent e in n^2 unknowns and any retraction theta in n^3 unknowns
    # must find one exactly when the finder returns a certificate
    for spec, char in GRID:
        h = preset_cache(spec, char)
        sep = separability_idempotent(h)
        assert (sep is not None) == _blind_idempotent(idempotent_system(h.alg)), (spec, char)
        cosep = coseparability_retraction(h)
        assert (cosep is not None) == _blind_retraction(retraction_system(h)), (spec, char)


def test_four_linearity_flags_agree(preset_cache):
    for spec, char in GRID:
        h = preset_cache(spec, char)
        lam = total_integral(h, "in_dual")
        if lam is None:
            continue
        flags = four_linearity_flags(h, lam.tensor)
        assert len(set(flags.values())) == 1, (spec, char, flags)


def test_four_coinvariance_flags_agree(preset_cache):
    for spec, char in GRID:
        h = preset_cache(spec, char)
        t = total_integral(h, "in_h")
        if t is None:
            continue
        flags = four_coinvariance_flags(h, t.tensor)
        assert len(set(flags.values())) == 1, (spec, char, flags)


@pytest.mark.parametrize("spec,char", GRID)
def test_each_flag_is_the_verdict_of_its_adjoint_integral(spec, char, preset_cache):
    """Each of the four flags on the total integral is condition (b) of its adjoint
    structure, so it equals whether the ad-(co)invariant integral exists."""
    h = preset_cache(spec, char)
    for carrier, flags, verdict in (("in_dual", four_linearity_flags, ad_invariant_integral),
                                    ("in_h", four_coinvariance_flags, ad_coinvariant_integral)):
        total = total_integral(h, carrier)
        if total is not None:
            exists = verdict(h) is not None
            assert set(flags(h, total.tensor).values()) == {exists}, (spec, char, carrier)


def test_cocommutative_semisimple_has_ad_coinvariant():
    # group algebras in good characteristic are cocommutative semisimple
    for n in (2, 3, 5):
        h = resolve_preset(f"group:C{n}", QQ)
        assert ad_coinvariant_integral(h) is not None
