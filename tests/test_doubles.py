import time
from fractions import Fraction

import pytest

from hopfsmith import GF, QQ, FieldSpec, check_hopf, dual_hopf, resolve_preset
from hopfsmith.doubles import (ExtensionData, _double_idempotent_conditions,
                               _verify_extension_idempotent, _repeat, drinfeld_double,
                               relative_tensor, separable_extension)
from hopfsmith.hopf import AlgebraData
from hopfsmith.integrals import ad_invariant_integral, separability_idempotent
from hopfsmith.linalg import contract, identity
from hopfsmith.presets import preset_sweedler

from conftest import F, GRID, checked_double
from test_loop_oracles import (blind_separable_extension, old_relative_tensor,
                               quotient_idempotent_conditions)


def _over_the_field(alg):
    """R/K with S = K embedded on the unit."""
    f = alg.field
    small = AlgebraData(f, 1, {(0, 0, 0): f.one}, {(0,): f.one})
    return ExtensionData(alg, small, {(k, 0): x for (k,), x in alg.unit.items()}).validate()


def test_double_dimension_and_axioms(preset_cache):
    for spec, char in [("group:C2", 0), ("group:C2", 3), ("group:C3", 2),
                       ("functions:C2", 0), ("sweedler", 0)]:
        h = preset_cache(spec, char)
        d, ext = drinfeld_double(h)
        assert d.dim == h.dim ** 2
        assert check_hopf(d).all_ok, (spec, char)


def test_double_embedding_is_algebra_map(preset_cache):
    for spec, char in [("group:C2", 0), ("sweedler", 0), ("group:C3", 3)]:
        h = preset_cache(spec, char)
        _, ext = drinfeld_double(h)
        ext.validate()  # injective unital multiplicative


def test_relative_tensor_trivial_base():
    h = resolve_preset("group:C3", QQ)
    ext = _over_the_field(h.alg)
    rel = relative_tensor(ext)
    assert rel.dim == 9  # no relations beyond scalars
    # projection is the identity in this case: lifting a basis vector back
    for t in range(9):
        q = [QQ.zero] * 9
        q[t] = QQ.one
        assert [rel.projection.get((rel.free_cols[t], k), QQ.zero) for k in range(9)] == q


def test_relative_tensor_self_extension():
    h = resolve_preset("group:C3", QQ)
    ext = ExtensionData(h.alg, h.alg, identity(QQ, 3)).validate()
    rel = relative_tensor(ext)
    assert rel.dim == 3  # R (x)_R R = R


def test_relative_tensor_of_sweedler_double():
    h4 = preset_sweedler(QQ)
    _, ext = checked_double(h4)
    rel = relative_tensor(ext)
    assert rel.dim == 64  # free of rank 4 over H4: 4 * 16


def _assert_block_route(ext, b):
    """The run length that ``relative_tensor`` reads off the right action is b,
    and its shifted run-0 elimination equals the elimination of every relation."""
    r = ext.big
    assert _repeat(contract(r.field, "yc,iya->ica", ext.embedding, r.mult), r.dim) == b
    got, want = relative_tensor(ext), old_relative_tensor(ext)
    assert (got.pivot_cols, got.projection_rows, got.free_cols, got.projection) == \
        (want.pivot_cols, want.projection_rows, want.free_cols, want.projection)


@pytest.mark.parametrize("spec,char", GRID)
def test_block_route_equals_full_elimination_on_doubles(spec, char, preset_cache):
    """D(H) is free as a right H-module on the f_a |><| 1, so the run is dim H."""
    h = preset_cache(spec, char)
    _assert_block_route(checked_double(h)[1], h.dim)


@pytest.mark.parametrize("spec,build,b", [
    ("group:C3", _over_the_field, 1),
    ("group:C3", lambda a: ExtensionData(a, a, identity(a.field, a.dim)).validate(), 3),
    # e_i·e_c = delta_ic e_i: diagonal, but block i holds only c = i, so no run is shorter
    ("functions:C2", lambda a: ExtensionData(a, a, identity(a.field, a.dim)).validate(), 2)])
def test_block_route_on_generic_extensions(spec, build, b):
    _assert_block_route(build(resolve_preset(spec, QQ).alg), b)


@pytest.mark.parametrize("char", [0, 3])
def test_block_route_needs_equal_coefficients_not_only_equal_block_shapes(char):
    """kC2 -> kC2 x kC2, g -> (g, -g): on the basis (1,0), (g,0), (0,1), (0,g)
    the right action of g swaps each pair of basis vectors, by +1 in the first
    and by -1 in the second.  The blocks have one shape but not one set of
    coefficients, so the run is the whole basis."""
    f = FieldSpec(char)
    one, neg = f.one, f.neg(f.one)
    small = resolve_preset("group:C2", f).alg
    mult = {(2 * k + i, 2 * k + j, 2 * k + (i + j) % 2): one
            for k in range(2) for i in range(2) for j in range(2)}
    big = AlgebraData(f, 4, mult, {(0,): one, (2,): one})
    ext = ExtensionData(big, small, {(0, 0): one, (2, 0): one, (1, 1): one, (3, 1): neg})
    _assert_block_route(ext.validate(), 4)


def test_separable_extension_reduces_to_idempotent_over_base(preset_cache):
    for spec, char in [("group:C2", 0), ("group:C2", 2), ("group:C3", 3),
                       ("sweedler", 0)]:
        h = preset_cache(spec, char)
        ext = _over_the_field(h.alg)
        blind = blind_separable_extension(ext)
        direct = separability_idempotent(h)
        assert (blind is None) == (direct is None), (spec, char)


def test_double_separability_group_algebras_all_characteristics(preset_cache):
    # the ad-invariant integral of a group algebra exists in any characteristic,
    # so the double is separable over H even when KG itself is not semisimple
    for spec, char in [("group:C2", 0), ("group:C2", 2), ("group:C3", 3)]:
        h = preset_cache(spec, char)
        assert blind_separable_extension(checked_double(h)[1]) is not None, (spec, char)


def test_double_not_separable_for_sweedler():
    assert blind_separable_extension(checked_double(preset_sweedler(QQ))[1]) is None


def test_three_way_agreement(preset_cache):
    cases = [("group:C2", 0), ("group:C2", 2), ("group:C2", 3),
             ("group:C3", 0), ("group:C3", 2), ("group:C3", 3),
             ("functions:C2", 0), ("functions:C2", 2), ("functions:C2", 3),
             ("sweedler", 0), ("sweedler", 3)]
    for spec, char in cases:
        h = preset_cache(spec, char)
        adinv = ad_invariant_integral(h) is not None
        sep = blind_separable_extension(checked_double(h)[1]) is not None
        assert adinv == sep, (spec, char)


def test_one_dimensional_double():
    h = resolve_preset("group:C1", QQ)
    d, ext = checked_double(h)
    assert d.dim == 1
    assert blind_separable_extension(ext) is not None


def test_largest_solve_within_budget():
    h4 = preset_sweedler(QQ)
    t0 = time.time()
    d, ext = checked_double(h4)
    assert blind_separable_extension(ext) is None
    elapsed = time.time() - t0
    assert elapsed < 60, f"double separability took {elapsed:.1f}s"


# every GRID case, and the duals H* whose double the blind route decides in
# test_dual_route_coseparability_of_double; True marks the dual H* of the preset
FORMULA_CASES = [(spec, char, False) for spec, char in GRID] + [
    ("group:C2", 0, True), ("group:C2", 2, True), ("sweedler", 0, True)]


def _h_star_coordinates(h, ext, quotient: dict) -> dict:
    """An element of D(H) (x)_H D(H) in the quotient coordinates of ``relative_tensor``,
    lifted through the free columns into D(H) (x) D(H) and carried by
    (f_c |><| e_r) (x) d -> f_c (x) (eps |><| e_r)·d into H* (x) D(H)."""
    rel, f, n, N = relative_tensor(ext), h.field, h.dim, ext.big.dim
    lift = {(u, *divmod(c, N)): f.one for u, c in enumerate(rel.free_cols)}
    split = {(c * n + r, c, k): v for (k, r), v in ext.embedding.items() for c in range(n)}
    return contract(f, "u,uAB,AcR,RBL->cL", quotient, lift, split, ext.big.mult)


def _quotient_coordinates(h, ext, e: dict) -> dict:
    """e keyed (a, K) on H* (x) D(H), carried back by f_a (x) d -> (f_a |><| 1) (x)_H d
    into the quotient coordinates of ``relative_tensor``."""
    rel, f, n, N = relative_tensor(ext), h.field, h.dim, ext.big.dim
    free = {(a * n + i, a): c for (i,), c in h.alg.unit.items() for a in range(n)}
    ambient = {(A * N + K,): v for (A, K), v in contract(f, "Aa,aK->AK", free, e).items()}
    return contract(f, "c,ck->k", ambient, rel.projection)


@pytest.mark.parametrize("spec,char,dual", FORMULA_CASES)
def test_formula_idempotent_agrees_with_the_blind_route(spec, char, dual, preset_cache):
    """D(H)/H is separable by the blind solve exactly when H has an ad-invariant
    integral.  Then the blind solve's particular solution, carried from the quotient
    of R (x)_S R into H* (x) D(H), passes the conditions that the idempotent written
    from the integral is checked on; the idempotent, carried back into the quotient,
    passes the blind solve's conditions; and on a group algebra the two are equal."""
    h = preset_cache(spec, char)
    h = dual_hopf(h) if dual else h
    _, ext = checked_double(h)
    blind = blind_separable_extension(ext)
    lam = ad_invariant_integral(h)
    assert (lam is None) == (blind is None)
    if lam is not None:
        cert = separable_extension(h, ext, lam.tensor)
        assert cert.verified == ["m(e)=1", "bilinear"] and cert.shape == (h.dim, h.dim ** 2)
        conds = _double_idempotent_conditions(h, ext)
        assert _verify_extension_idempotent(h.field, cert.tensor, conds) == ["m(e)=1", "bilinear"]
        carried = _h_star_coordinates(h, ext, blind.tensor)
        assert _verify_extension_idempotent(h.field, carried, conds) == ["m(e)=1", "bilinear"]
        back = _quotient_coordinates(h, ext, cert.tensor)
        assert _verify_extension_idempotent(h.field, back, quotient_idempotent_conditions(
            ext, relative_tensor(ext))) == ["m(e)=1", "bilinear"]
        if spec.startswith("group:") and not dual:
            assert cert.tensor == carried and back == blind.tensor


@pytest.mark.parametrize("spec,char", GRID)
def test_the_2n_generators_are_free_and_their_products_span_the_double(spec, char,
                                                                       preset_cache):
    """(f_a |><| 1)(eps |><| e_i) = f_a |><| e_i on every GRID double, read by plain
    loops over the multiplication: the n^2 products of the 2n generators are the n^2
    basis vectors, so they span D(H).  The idempotent's conditions check it too."""
    h = preset_cache(spec, char)
    _, ext = drinfeld_double(h)
    f, n, mult = h.field, h.dim, ext.big.mult
    free = [{a * n + i: c for (i,), c in h.alg.unit.items()} for a in range(n)]
    emb = [{k: c for (k, j), c in ext.embedding.items() if j == i} for i in range(n)]
    for a in range(n):
        for i in range(n):
            product = {}
            for (x, y, z), c in mult.items():
                if x in free[a] and y in emb[i]:
                    product[z] = f.add(product.get(z, f.zero),
                                       f.mul(f.mul(free[a][x], emb[i][y]), c))
            assert {z: c for z, c in product.items() if c} == {a * n + i: f.one}, (a, i)
    assert [label for label, *_ in _double_idempotent_conditions(h, ext)] == \
        ["m(e)=1", "bilinear"]


def test_extension_validation_rejects_bad_embedding():
    h = resolve_preset("group:C2", QQ)
    with pytest.raises(ValueError):
        ExtensionData(h.alg, h.alg, {}).validate()


def test_dual_route_coseparability_of_double():
    # the dual statement is realized through dual_hopf + this module:
    # D(H)* coseparable over H* iff D(H*)/H* separable iff ad-coinvariant in H*
    from hopfsmith import dual_hopf
    from hopfsmith.integrals import ad_coinvariant_integral
    for spec, char in [("group:C2", 0), ("group:C2", 2), ("sweedler", 0)]:
        h = resolve_preset(spec, FieldSpec(char))
        hstar = dual_hopf(h)
        lhs = blind_separable_extension(checked_double(hstar)[1]) is not None
        rhs = ad_invariant_integral(hstar) is not None
        assert lhs == rhs, (spec, char)
        assert rhs == (ad_coinvariant_integral(h) is not None)
