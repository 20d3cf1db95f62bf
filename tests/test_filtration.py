import itertools
from fractions import Fraction

import pytest

from hopfsmith import GF, QQ, FieldSpec, augmentation_ideal, resolve_preset
from hopfsmith.filtration import (FiltrationRecord, coradical, is_nilpotent_ideal,
                                  is_subcoalgebra, radical, wedge, wedge_filtration)
from hopfsmith.hopf import SubspaceBasis, quotient_maps
from hopfsmith.linalg import spans_equal
from hopfsmith.presets import preset_sweedler, preset_taft

from conftest import F
from test_loop_oracles import _basis_vec, _columns, _subspace, _unit_vec, _vec, _vectors


def test_radical_semisimple_group_algebras():
    assert radical(resolve_preset("group:C2", QQ).alg).dim == 0
    assert radical(resolve_preset("group:S3", QQ).alg).dim == 0
    assert radical(resolve_preset("group:C3", GF(2)).alg).dim == 0


def test_radical_modular_group_algebras():
    r = radical(resolve_preset("group:C2", GF(2)).alg)
    assert r.dim == 1 and r.contains(GF(2), _vec([1, 1]))
    assert radical(resolve_preset("group:C4", GF(2)).alg).dim == 3
    assert radical(resolve_preset("group:C6", GF(2)).alg).dim == 3
    assert radical(resolve_preset("group:C6", GF(3)).alg).dim == 4
    # the matrix-block case: F2[S3] has a one-dimensional radical
    assert radical(resolve_preset("group:S3", GF(2)).alg).dim == 1
    assert radical(resolve_preset("group:S3", GF(3)).alg).dim == 4


def test_radical_sweedler():
    h4 = preset_sweedler(QQ)
    r = radical(h4.alg)
    assert r.dim == 2
    assert r.contains(QQ, _vec([F(0), F(0), F(1), F(0)]))
    assert r.contains(QQ, _vec([F(0), F(0), F(0), F(1)]))


def test_radical_taft():
    r = radical(preset_taft(3, 2, GF(7)).alg)
    assert r.dim == 6  # the ideal generated by x


def test_coradical_examples():
    h4 = preset_sweedler(QQ)
    cor = coradical(h4.coa)
    assert cor.dim == 2
    assert cor.contains(QQ, _vec([F(1), F(0), F(0), F(0)]))
    assert cor.contains(QQ, _vec([F(0), F(1), F(0), F(0)]))
    # group algebras are pointed with every basis vector group-like
    for spec, ch in [("group:C3", 0), ("group:C3", 3), ("group:C4", 2)]:
        h = resolve_preset(spec, FieldSpec(ch))
        assert coradical(h.coa).dim == h.dim
    triv = resolve_preset("group:C1", QQ)
    assert coradical(triv.coa).dim == 1


def test_coradical_function_algebra_modular():
    h = resolve_preset("functions:C2", GF(2))
    cor = coradical(h.coa)
    assert cor.dim == 1
    assert cor.contains(GF(2), _vec([1, 1]))


def test_wedge_basic_identities():
    h4 = preset_sweedler(QQ)
    cor = coradical(h4.coa)
    assert wedge(cor, cor, h4.coa).dim == 4
    hc2 = resolve_preset("group:C2", QQ)
    zero = _subspace(2, [])
    assert wedge(zero, zero, hc2.coa).dim == 0  # Delta is injective
    full = _subspace(4, [_basis_vec(h4, i) for i in range(4)])
    assert wedge(cor, full, h4.coa).dim == 4
    assert wedge(full, cor, h4.coa).dim == 4


def test_wedge_and_filtration_reject_a_space_of_another_dimension():
    h4 = preset_sweedler(QQ)
    cor = coradical(h4.coa)
    other = _subspace(2, [[QQ.one, QQ.zero]])
    for x, y in ((other, cor), (cor, other)):
        with pytest.raises(ValueError, match="wrong ambient space"):
            wedge(x, y, h4.coa)
    with pytest.raises(ValueError, match="wrong ambient space"):
        wedge_filtration(_subspace(2, []), h4.coa)


def test_wedge_contains_sum():
    h4 = preset_sweedler(QQ)
    one = _subspace(4, [_unit_vec(h4)])
    g = _subspace(4, [_basis_vec(h4, 1)])
    w = wedge(one, g, h4.coa)
    for v in _vectors(QQ, one) + _vectors(QQ, g):
        assert w.contains(QQ, _vec(v))


def _grouplike_subcoalgebras(h, indices_pool):
    out = []
    for r in range(1, len(indices_pool) + 1):
        for subset in itertools.combinations(indices_pool, r):
            out.append(_subspace(h.dim, [_basis_vec(h, i) for i in subset]))
    return out


def test_wedge_associativity_on_subcoalgebra_triples():
    h = resolve_preset("group:C4", QQ)
    subs = _grouplike_subcoalgebras(h, range(4))[:6]
    for x, y, z in itertools.islice(itertools.product(subs, repeat=3), 0, 27, 4):
        lhs = wedge(wedge(x, y, h.coa), z, h.coa)
        rhs = wedge(x, wedge(y, z, h.coa), h.coa)
        assert spans_equal(QQ, lhs.basis, rhs.basis, lhs.ambient_dim)


def test_wedge_of_subcoalgebras_is_subcoalgebra():
    h4 = preset_sweedler(QQ)
    one = _subspace(4, [_unit_vec(h4)])
    g = _subspace(4, [_basis_vec(h4, 1)])
    w = wedge(one, g, h4.coa)
    assert is_subcoalgebra(w, h4.coa)


def test_filtration_of_sweedler_coradical():
    h4 = preset_sweedler(QQ)
    rec = wedge_filtration(coradical(h4.coa), h4.coa)
    assert [s.dim for s in rec.stages] == [2, 4]
    assert rec.exhausted and rec.stabilization_index == 2


def test_filtration_not_exhausted_without_coradical():
    h4 = preset_sweedler(QQ)
    one = _subspace(4, [_unit_vec(h4)])
    rec = wedge_filtration(one, h4.coa)
    assert not rec.exhausted


def test_filtration_full_start():
    h4 = preset_sweedler(QQ)
    full = _subspace(4, [_basis_vec(h4, i) for i in range(4)])
    rec = wedge_filtration(full, h4.coa)
    assert rec.exhausted and rec.stabilization_index == 1


def test_exhaustion_criterion_both_directions():
    # >= 10 subcoalgebra instances; exhausted iff the coradical is contained
    instances = []
    h4 = preset_sweedler(QQ)
    cor4 = coradical(h4.coa)
    instances.append((h4, _subspace(4, [_unit_vec(h4)]), False))
    instances.append((h4, cor4, True))
    instances.append((h4, _subspace(4, [_basis_vec(h4, 0), _basis_vec(h4, 1),
                                            _basis_vec(h4, 2)]), True))
    instances.append((h4, _subspace(4, [_basis_vec(h4, i) for i in range(4)]), True))
    hc4 = resolve_preset("group:C4", QQ)
    instances.append((hc4, _subspace(4, [_basis_vec(hc4, 0)]), False))
    instances.append((hc4, _subspace(4, [_basis_vec(hc4, 0), _basis_vec(hc4, 2)]), False))
    instances.append((hc4, _subspace(4, [_basis_vec(hc4, i) for i in range(4)]), True))
    hc2m = resolve_preset("group:C2", GF(2))
    instances.append((hc2m, _subspace(2, [_basis_vec(hc2m, 0)]), False))
    instances.append((hc2m, _subspace(2, [_basis_vec(hc2m, 0), _basis_vec(hc2m, 1)]), True))
    kf2 = resolve_preset("functions:C2", GF(2))
    instances.append((kf2, _subspace(2, [_unit_vec(kf2)]), True))  # span{1} = coradical here
    kf3 = resolve_preset("functions:C3", QQ)
    instances.append((kf3, _subspace(3, [_unit_vec(kf3)]), False))
    assert len(instances) >= 10
    for h, sub, want in instances:
        rec = wedge_filtration(sub, h.coa)
        corad = coradical(h.coa)
        contained = all(sub.contains(h.field, _vec(v)) for v in _vectors(h.field, corad))
        assert rec.exhausted == want == contained


def test_span_one_in_sweedler_is_subcoalgebra_check():
    h4 = preset_sweedler(QQ)
    assert is_subcoalgebra(_subspace(4, [_unit_vec(h4)]), h4.coa)
    # span{x} is not a subcoalgebra: Delta(x) = x(x)1 + g(x)x
    assert not is_subcoalgebra(_subspace(4, [_basis_vec(h4, 2)]), h4.coa)


def test_a_subspace_changed_after_use_is_completed_afresh():
    """A SubspaceBasis keeps the completion of its basis between calls; changing
    the basis tensor, in place or by replacing it, makes the next call redo it."""
    h4 = preset_sweedler(QQ)
    e = lambda i: [QQ.one if j == i else QQ.zero for j in range(4)]  # 1, g, x, gx
    sub = _subspace(4, [e(0), e(1)])
    assert is_subcoalgebra(sub, h4.coa)  # span{1, g}
    del sub.basis[1, 1]  # a tensor holds no zero entry
    sub.basis[2, 1] = QQ.one
    assert not is_subcoalgebra(sub, h4.coa)  # span{1, x}: Delta(x) = x(x)1 + g(x)x
    fresh = _subspace(4, [e(0), e(2)])
    assert sub.tensors(QQ) == fresh.tensors(QQ)
    assert quotient_maps(QQ, sub) == quotient_maps(QQ, fresh)
    sub.basis, sub.dim = _columns([e(3)]), 1
    assert sub.tensors(QQ) == _subspace(4, [e(3)]).tensors(QQ)
    assert sub == _subspace(4, [e(3)]) and "completion" not in repr(sub)


def test_filtration_rejects_non_subcoalgebra():
    h4 = preset_sweedler(QQ)
    with pytest.raises(ValueError):
        wedge_filtration(_subspace(4, [_basis_vec(h4, 2)]), h4.coa)


def test_nilpotent_ideal_examples():
    h4 = preset_sweedler(QQ)
    assert is_nilpotent_ideal(radical(h4.alg), h4.alg) == 2
    hm = resolve_preset("group:C2", GF(2))
    assert is_nilpotent_ideal(augmentation_ideal(hm), hm.alg) == 2
    full = _subspace(2, [_basis_vec(hm, 0), _basis_vec(hm, 1)])
    assert is_nilpotent_ideal(full, hm.alg) is None  # contains 1
    with pytest.raises(ValueError):
        is_nilpotent_ideal(_subspace(4, [_basis_vec(h4, 1)]), h4.alg)


def test_nilpotency_index_of_larger_modular_radical():
    a = resolve_preset("group:C4", GF(2)).alg
    r = radical(a)
    assert is_nilpotent_ideal(r, a) == 4  # (1-g)^3 != 0, (1-g)^4 = 0


# ---------------------------------------------------------------------------
# The F_p radical against two oracles: the dense power-trace chain, and the
# sparse chain that powers one lift per (w, y) pair
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st

from hopfsmith.filtration import _fr_radical_mod_p, _trace_form_kernel, _trace_of_power
from hopfsmith.hopf import dual_algebra
from hopfsmith.linalg import SparseMat, contract, nullspace

from conftest import GRID, checked_double
from test_loop_oracles import _e, _mul, _nullspace, _sparse_mat, dense


def _dense_fr_radical_mod_p(a):
    """Oracle: the Friedl-Ronyai chain with dense integer lifts, powered from the
    identity with no reduction, one (w, y) pair at a time."""
    f = a.field
    p = f.characteristic
    n = a.dim
    mult = dense(f, a.mult, (n, n, n))
    lmats = [[[mult[i][c][r] for c in range(n)] for r in range(n)] for i in range(n)]

    def lift_matrix(v):
        m = [[0] * n for _ in range(n)]
        for i, x in enumerate(v):
            if x:
                for r in range(n):
                    for c in range(n):
                        e = lmats[i][r][c]
                        if e:
                            m[r][c] = (m[r][c] + x * e) % p
        return m

    def int_trace_power(m, e):
        acc = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        base = [row[:] for row in m]
        while e:
            if e & 1:
                acc = [[sum(acc[i][k] * base[k][j] for k in range(n)) for j in range(n)]
                       for i in range(n)]
            e >>= 1
            if e:
                base = [[sum(base[i][k] * base[k][j] for k in range(n)) for j in range(n)]
                        for i in range(n)]
        return sum(acc[i][i] for i in range(n))

    level = 0
    cap = 1
    while cap * p <= n:
        cap *= p
        level += 1

    current = [_e(f, n, i) for i in range(n)]
    for i_stage in range(level + 1):
        pi = p ** i_stage
        rows = []
        for w in current:
            row = []
            for y in range(n):
                wy = _mul(f, mult, w, _e(f, n, y))
                tr = int_trace_power(lift_matrix(wy), pi)
                assert tr % pi == 0
                row.append((tr // pi) % p)
            rows.append(row)
        coeff = _sparse_mat(f, [[rows[j][y] for j in range(len(current))] for y in range(n)],
                            len(current))
        nxt = []
        for col in _nullspace(coeff):
            vec = [f.zero] * n
            for j, c in enumerate(col):
                if c:
                    for t, x in enumerate(current[j]):
                        if x:
                            vec[t] = f.add(vec[t], f.mul(c, x))
            nxt.append(vec)
        current = nxt
        if not current:
            break
    return current


# every F_p GRID preset, and larger inputs reaching chain levels 1-3
_ORACLE_CASES = [(spec, ch) for spec, ch in GRID if ch] + [
    ("taft:4:2", 5), ("group:C8", 2), ("group:C9", 3), ("group:C12", 2),
    ("group:C12", 3), ("functions:C12", 2), ("functions:C12", 3)]


@pytest.mark.parametrize("spec,char", _ORACLE_CASES)
def test_fr_radical_equals_dense_oracle(preset_cache, spec, char):
    h = preset_cache(spec, char)
    for a in (h.alg, dual_algebra(h.coa)):
        assert _vectors(a.field, _fr_radical_mod_p(a)) == _dense_fr_radical_mod_p(a)


def _per_pair_fr_radical_mod_p(a):
    """Oracle: the sparse Friedl-Ronyai chain with one integer lift L~_{w_j e_y}
    powered for every basis vector w_j of the stage and every y, so that it needs
    no linearity of g_i on the stage."""
    f = a.field
    p = f.characteristic
    n = a.dim
    m = a.mult
    current = _trace_form_kernel(a)
    pi = p
    while current.dim and pi <= n:
        q = pi * p
        rows = [[] for _ in range(n)]
        # the transposes of L_{w_j e_y}, keyed (j, y, x, z): entry z of (w_j e_y) e_x
        lifts = {}
        for (j, y, x, z), c in contract(f, "aj,ayk,kxz->jyxz", current.basis, m, m).items():
            lifts.setdefault((j, y), [{} for _ in range(n)])[x][z] = c
        for (j, y), lift in sorted(lifts.items()):
            tr = _trace_of_power(lift, pi, q)
            assert tr % pi == 0
            if tr:
                rows[y].append((j, tr // pi))
        ker = nullspace(SparseMat(f, n, current.dim, rows))
        current = SubspaceBasis(n, contract(f, "xj,jc->xc", current.basis, ker))
        pi = q
    return current


def _per_pair_cases():
    """The algebras of the per-pair oracle: H and H* of each oracle case, of
    Taft(5) over F_11, and of the doubles D(C4)/F_2 and D(S3)/F_3 (dim 16, 36)."""
    for spec, char in _ORACLE_CASES + [("taft:5:3", 11)]:
        yield pytest.param(spec, char, False, id=f"{spec}-{char}")
    for spec, char in (("group:C4", 2), ("group:S3", 3)):
        yield pytest.param(spec, char, True, id=f"D({spec})-{char}")


@pytest.mark.parametrize("spec,char,double", list(_per_pair_cases()))
def test_fr_radical_equals_per_pair_oracle(preset_cache, spec, char, double):
    """Powering one lift per stage basis vector gives the identical basis tensor
    as powering one per (w, y) pair, where the dense oracle is too slow."""
    h = preset_cache(spec, char)
    if double:
        h = checked_double(h)[0]
    for a in (h.alg, dual_algebra(h.coa)):
        got, want = _fr_radical_mod_p(a), _per_pair_fr_radical_mod_p(a)
        assert (got.dim, list(got.basis.items())) == (want.dim, list(want.basis.items()))


@pytest.mark.parametrize("spec,char", [("group:C6", 3), ("group:S3", 2), ("group:C10", 2),
                                       ("group:C12", 3)])
def test_divided_power_trace_is_linear_on_the_trace_form_kernel(preset_cache, spec, char):
    """g_1(x) = tr(L~_x^p) / p mod p is F_p-linear on the ideal I_0, the lemma
    behind powering one lift per basis vector: g_1(c u + v) = c g_1(u) + g_1(v)
    on the basis vectors u, v of I_0 and their products with basis vectors of H.
    On these group algebras g_1 is nonzero on I_0, so the chain has a stage 1."""
    h = preset_cache(spec, char)
    f, n, p = h.field, h.dim, char

    def g(x):  # x keyed (a,)
        lift = [{} for _ in range(n)]
        for (r, z), c in contract(f, "a,arz->rz", x, h.alg.mult).items():
            lift[r][z] = c
        tr = _trace_of_power(lift, p, p * p)
        assert tr % p == 0
        return tr // p

    ideal = _trace_form_kernel(h.alg)
    assert ideal.dim
    vs = [{(x,): c for (x, k), c in ideal.basis.items() if k == j} for j in range(ideal.dim)]
    products = contract(f, "aj,ayk->jyk", ideal.basis, h.alg.mult)
    vs += [v for j, y in itertools.product(range(min(ideal.dim, 3)), range(n))
           if (v := {(k,): c for (i, z, k), c in products.items() if (i, z) == (j, y)})]
    assert any(g(v) for v in vs)
    for u, v in itertools.product(vs[:8], vs):
        for c in range(1, p):
            w = {k: f.add(f.mul(c, u.get(k, f.zero)), v.get(k, f.zero)) for k in set(u) | set(v)}
            assert g({k: x for k, x in w.items() if x}) == (c * g(u) + g(v)) % p


def test_coradical_of_the_double_of_taft_4_has_dimension_16():
    """D(Taft(4)) over F_5 (dim 256) is pointed with group-likes G(H*) x G(H) =
    C4 x C4, so its coradical has dimension 16.  Run in process: the dense
    document of the double is about 693 MB."""
    d, _ = checked_double(resolve_preset("taft:4:2", GF(5)))
    corad = coradical(d.coa)
    assert (d.dim, corad.dim) == (256, 16)
    assert corad.contains(d.field, d.alg.unit)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([f"group:C{m}" for m in range(1, 13)] + ["group:S3", "group:Q8"]),
       st.sampled_from([2, 3, 5, 7]), st.booleans())
def test_fr_radical_equals_dense_oracle_drawn(spec, p, dual):
    h = resolve_preset(spec, GF(p))
    a = dual_algebra(h.coa) if dual else h.alg
    vectors = _vectors(a.field, _fr_radical_mod_p(a))
    assert vectors == _dense_fr_radical_mod_p(a)
    if p > a.dim:  # the chain stops at stage 0, the trace form
        assert radical(a).basis == _trace_form_kernel(a).basis


def test_subspace_basis_rejects_keys_outside_its_shape():
    """A basis entry outside (ambient_dim, dim), or a vector entry outside
    (ambient_dim,), raises ValueError instead of being read as another vector."""
    line = SubspaceBasis(3, {(0, 0): QQ.one})
    assert line.dim == 1 and line.contains(QQ, {(0,): QQ.one})
    assert not line.contains(QQ, {(1,): QQ.one})
    with pytest.raises(ValueError, match=r"vector must be 3, got an entry at \(3,\)"):
        line.contains(QQ, {(3,): QQ.one})
    with pytest.raises(ValueError, match=r"subspace basis must be 3 x 1, got an entry at \(3, 0\)"):
        SubspaceBasis(3, {(3, 0): QQ.one})
    with pytest.raises(ValueError, match=r"subspace basis must be 3 x 1, got an entry at \(0, 1\)"):
        SubspaceBasis(3, {(0, 1): QQ.one}, 1)
