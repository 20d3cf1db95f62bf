"""The lifting and filtration contractions against the explicit index loops
they replaced.

Each oracle below is the nested-loop evaluation of an identity over dense
lists, written with no help from the package beyond field arithmetic (and, for
the wedge, the quotient maps and the nullspace the loops fed): the bimodule
axioms, the comodule axioms of a coaction, the Hochschild 2-cocycle condition,
the wedge rows, the trace form, the final lifted section and the
weak-projection checks.  The package
must agree with them exactly, including on every single-entry corruption.
"""

import copy
from dataclasses import replace

import pytest

from hopfsmith import GF, QQ, FieldSpec, resolve_preset
from hopfsmith.filtration import _trace_form_kernel, coradical, wedge
from hopfsmith.hopf import dual_algebra, quotient_maps, sub_hopf_on_subspace
from hopfsmith.linalg import SparseMat, sparse
import hopfsmith.lifting as lifting
from hopfsmith.lifting import (Bimodule, LiftObstruction, _check_right_comodule,
                               _equivariance_pairs_from_problem, _is_two_cocycle, _verify_final,
                               _verify_weak_projection, cyclic_cover_problem,
                               lift_algebra_section, square_zero_extension, weak_projection)

from conftest import GRID, SMALL_GRID
from test_loop_oracles import _nullspace, _subspace, _unit_vec, _vectors, dense

SMALL = [("group:C2", 0), ("group:C2", 2), ("sweedler", 0)]


def _sum(f, xs):
    acc = f.zero
    for x in xs:
        acc = f.add(acc, x)
    return acc


def _matmul(f, x, y):
    n, k, m = len(x), len(y), len(y[0]) if y else 0
    out = [[f.zero] * m for _ in range(n)]
    for r in range(n):
        for t in range(k):
            for s in range(m):
                out[r][s] = f.add(out[r][s], f.mul(x[r][t], y[t][s]))
    return out


def _apply(f, mat, v):
    return [_sum(f, (f.mul(a, x) for a, x in zip(row, v) if a and x)) for row in mat]


# ---------------------------------------------------------------------------
# Bimodules and the standalone Hochschild 2-coboundary solve.  The engine builds
# its bimodules inside ``_lift``; these two and the solve serve only the tests.
# ---------------------------------------------------------------------------

def hochschild_coboundary_solve(a, bim, cocycle):
    """Solve delta h = c for a checked 2-cocycle c keyed (i, j, t); h: A -> M is
    returned as (t, y), and None signals a nonzero class."""
    if bim.algebra is not a and bim.algebra != a:
        raise ValueError("bimodule is not over the given algebra")
    bim.check()
    if not _is_two_cocycle(bim, cocycle):
        raise ValueError("input is not a 2-cocycle")
    return lifting._solve_coboundary(bim, cocycle, {}, {})


def eps_bimodule(h):
    """K as an H-bimodule through the counit on both sides."""
    eps = {(i, 0, 0): x for (i,), x in h.coa.counit.items()}
    return Bimodule(h.alg, 1, eps, eps).check()


def regular_bimodule(a):
    m = a.mult
    return Bimodule(a, a.dim, m, {(i, s, t): x for (s, i, t), x in m.items()}).check()


def _bumped(f, t, key):
    """The sparse tensor ``t`` with 1 added to its entry at ``key``."""
    out = dict(t)
    out[key] = f.add(out.get(key, f.zero), f.one)
    return {k: x for k, x in out.items() if x}


def _action_mats(bim):
    """(left, right) as dense matrices per basis element of A: ``left[i][t][s]``
    is the coefficient of w_t in a_i · w_s, ``right[i][t][s]`` that in w_s · a_i."""
    f, n, m = bim.algebra.field, bim.algebra.dim, bim.dim
    return tuple(dense(f, {(i, t, s): x for (i, s, t), x in act.items()}, (n, m, m))
                 for act in (bim.left, bim.right))


def _combine(f, mats, coeffs, m):
    out = [[f.zero] * m for _ in range(m)]
    for c, mat in zip(coeffs, mats):
        for r in range(m):
            for s in range(m):
                out[r][s] = f.add(out[r][s], f.mul(c, mat[r][s]))
    return out


def oracle_bimodule_check(bim):
    """The first failing bimodule axiom as its error message, or None."""
    a = bim.algebra
    f, n, m = a.field, a.dim, bim.dim
    mult, unit = dense(f, a.mult, (n, n, n)), dense(f, a.unit, (n,))
    left, right = _action_mats(bim)
    ident = [[f.one if r == s else f.zero for s in range(m)] for r in range(m)]
    if _combine(f, left, unit, m) != ident or _combine(f, right, unit, m) != ident:
        return "bimodule: unit does not act as identity"
    for i in range(n):
        for j in range(n):
            if _combine(f, left, mult[i][j], m) != _matmul(f, left[i], left[j]):
                return f"bimodule: left action not associative at ({i},{j})"
            if _combine(f, right, mult[i][j], m) != _matmul(f, right[j], right[i]):
                return f"bimodule: right action not associative at ({i},{j})"
            if _matmul(f, left[i], right[j]) != _matmul(f, right[j], left[i]):
                return f"bimodule: actions do not commute at ({i},{j})"
    return None


def oracle_comodule_check(coact, dim, h):
    """The failing comodule law of rho, the tensor (c, v, u), as its message, or None;
    the loops read rho as the (dim * dim H) x dim matrix with rows v * dim H + u."""
    f, nh = h.field, h.dim
    counit, comult = dense(f, h.coa.counit, (nh,)), dense(f, h.coa.comult, (nh, nh, nh))
    rho = dense(f, {(v * nh + u, c): x for (c, v, u), x in coact.items()}, (dim * nh, dim))
    for c in range(dim):
        acc = [f.zero] * dim
        for v in range(dim):
            for u in range(nh):
                acc[v] = f.add(acc[v], f.mul(rho[v * nh + u][c], counit[u]))
        if acc != [f.one if v == c else f.zero for v in range(dim)]:
            return "coaction fails the counit law"
    for c in range(dim):
        lhs, rhs = {}, {}
        for v in range(dim):
            for u in range(nh):
                x = rho[v * nh + u][c]
                if not x:
                    continue
                for w in range(dim):
                    for t in range(nh):
                        key = (w, t, u)
                        lhs[key] = f.add(lhs.get(key, f.zero), f.mul(x, rho[w * nh + t][v]))
                for p in range(nh):
                    for q in range(nh):
                        key = (v, p, q)
                        rhs[key] = f.add(rhs.get(key, f.zero), f.mul(x, comult[u][p][q]))
        if any(lhs.get(k, f.zero) != rhs.get(k, f.zero) for k in set(lhs) | set(rhs)):
            return "coaction fails coassociativity"
    return None


def oracle_is_two_cocycle(bim, c):
    """delta c (a,b,d) = a·c(b,d) - c(ab,d) + c(a,bd) - c(a,b)·d on basis triples."""
    a = bim.algebra
    f, n, m = a.field, a.dim, bim.dim
    mult = dense(f, a.mult, (n, n, n))
    left, right = _action_mats(bim)

    def c_of(u, v):
        out = [f.zero] * m
        for i in range(n):
            for j in range(n):
                if u[i] and v[j]:
                    for t in range(m):
                        out[t] = f.add(out[t], f.mul(f.mul(u[i], v[j]), c[i][j][t]))
        return out

    def e(i):
        return [f.one if k == i else f.zero for k in range(n)]

    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = _apply(f, left[i], c[j][k])
                t2 = c_of(mult[i][j], e(k))
                t3 = c_of(e(i), mult[j][k])
                t4 = _apply(f, right[k], c[i][j])
                if any(f.sub(f.add(f.sub(x1, x2), x3), x4)
                       for x1, x2, x3, x4 in zip(t1, t2, t3, t4)):
                    return False
    return True


def _error(fn, *args):
    """The message of the ValueError ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _bimodules(spec, char):
    h = resolve_preset(spec, FieldSpec(char))
    return h, [regular_bimodule(h.alg), eps_bimodule(h)]


def _corrupted_bimodules(bim):
    """Copies of ``bim`` with one entry of one action moved by 1: entry (r, s) of
    the matrix of a_i, the coefficient of w_r in a_i · w_s (resp. w_s · a_i)."""
    f, n, m = bim.algebra.field, bim.algebra.dim, bim.dim
    for side in ("left", "right"):
        for i in range(n):
            for r in range(m):
                for s in range(m):
                    bad = replace(bim, **{side: _bumped(f, getattr(bim, side), (i, s, r))})
                    yield (side, i, r, s), bad


def _coboundary(bim, hmap):
    """delta h as a nested cochain c[i][j] = a_i·h(a_j) - h(a_i a_j) + h(a_i)·a_j."""
    a = bim.algebra
    f, n = a.field, a.dim
    mult = dense(f, a.mult, (n, n, n))
    left, right = _action_mats(bim)
    return [[[f.add(f.sub(x, y), z) for x, y, z in zip(
        _apply(f, left[i], hmap[j]),
        [_sum(f, (f.mul(mult[i][j][k], hmap[k][t]) for k in range(n)))
         for t in range(bim.dim)],
        _apply(f, right[j], hmap[i]))] for j in range(n)] for i in range(n)]


def _cochains(bim):
    """A cocycle (the coboundary of a fixed h) and each of its single-entry corruptions."""
    f, n, m = bim.algebra.field, bim.algebra.dim, bim.dim
    hmap = [[f.from_int(1 + 2 * y + t) for t in range(m)] for y in range(n)]
    good = _coboundary(bim, hmap)
    yield good
    for i in range(n):
        for j in range(n):
            for t in range(m):
                bad = copy.deepcopy(good)
                bad[i][j][t] = f.add(bad[i][j][t], f.one)
                yield bad


@pytest.mark.parametrize("spec,char", SMALL)
def test_bimodule_check_matches_loops_on_every_corruption(spec, char):
    _, bims = _bimodules(spec, char)
    for bim in bims:
        assert oracle_bimodule_check(bim) is None
        for site, bad in _corrupted_bimodules(bim):
            assert _error(bad.check) == oracle_bimodule_check(bad), site


@pytest.mark.parametrize("spec,char", SMALL)
def test_two_cocycle_matches_loops(spec, char):
    _, bims = _bimodules(spec, char)
    for bim in bims:
        cochains = list(_cochains(bim))
        assert _is_two_cocycle(bim, sparse(cochains[0]))
        for c in cochains:
            assert _is_two_cocycle(bim, sparse(c)) == oracle_is_two_cocycle(bim, c)
        for site, bad in _corrupted_bimodules(bim):
            for c in cochains[:2]:
                assert _is_two_cocycle(bad, sparse(c)) == oracle_is_two_cocycle(bad, c), site


@pytest.mark.parametrize("spec,char", SMALL)
def test_coboundary_solve_inverts_the_loop_coboundary(spec, char):
    _, bims = _bimodules(spec, char)
    for bim in bims:
        c = next(_cochains(bim))
        sol = hochschild_coboundary_solve(bim.algebra, bim, sparse(c))
        f, n = bim.algebra.field, bim.algebra.dim
        assert sol is not None
        hmap = dense(f, {(y, t): x for (t, y), x in sol.items()}, (n, bim.dim))
        assert _coboundary(bim, hmap) == c


@pytest.mark.parametrize("spec,char", SMALL)
def test_comodule_check_matches_loops_on_every_corruption(spec, char):
    h = resolve_preset(spec, FieldSpec(char))
    f = h.field
    p = square_zero_extension(h)
    for coact, dim in ((p.coact_a, h.dim), (p.coact_e, 2 * h.dim)):
        assert oracle_comodule_check(coact, dim, h) is None
        _check_right_comodule(coact, dim, h)
        for r in range(dim * h.dim):
            for s in range(dim):
                bad = _bumped(f, coact, (s, *divmod(r, h.dim)))  # row r = v * dim H + u
                assert _error(_check_right_comodule, bad, dim, h) == \
                    oracle_comodule_check(bad, dim, h), (dim, r, s)


def oracle_wedge(x, y, e):
    """The wedge rows by the explicit loops, solved by the package's nullspace."""
    f, n = e.field, e.dim
    comult = dense(f, e.comult, (n, n, n))
    px = dense(f, quotient_maps(f, x)[0], (n - x.dim, n))
    py = dense(f, quotient_maps(f, y)[0], (n - y.dim, n))
    if not px or not py:
        return [[f.one if k == i else f.zero for k in range(n)] for i in range(n)]
    rows = []
    for p in range(len(px)):
        for q in range(len(py)):
            row = []
            for k in range(n):
                acc = f.zero
                for i in range(n):
                    for j in range(n):
                        acc = f.add(acc, f.mul(px[p][i], f.mul(comult[k][i][j], py[q][j])))
                if acc:
                    row.append((k, acc))
            rows.append(row)
    return _nullspace(SparseMat(f, len(rows), n, rows))


def oracle_trace_form_kernel(a):
    f, n = a.field, a.dim
    mult = dense(f, a.mult, (n, n, n))
    traces = [_sum(f, (mult[k][d][d] for d in range(n))) for k in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = f.zero
            for c, tr in zip(mult[i][j], traces):
                acc = f.add(acc, f.mul(c, tr))
            if acc:
                row.append((j, acc))
        rows.append(row)
    return _nullspace(SparseMat(f, n, n, rows))


@pytest.mark.parametrize("spec,char", GRID)
def test_wedge_and_trace_form_match_loops(spec, char, preset_cache):
    h = preset_cache(spec, char)
    cor = coradical(h.coa)
    unit = _subspace(h.dim, [_unit_vec(h)])
    for x, y in ((cor, cor), (unit, cor), (cor, unit), (unit, unit)):
        assert _vectors(h.field, wedge(x, y, h.coa)) == oracle_wedge(x, y, h.coa)
    for a in (h.alg, dual_algebra(h.coa)):
        assert _vectors(a.field, _trace_form_kernel(a)) == oracle_trace_form_kernel(a)


def oracle_verify_weak_projection(e, h, inclusion, proj, bilinear):
    """The verified labels, or the first failing check's message."""
    f, ne, nh = e.field, e.dim, h.dim
    pm = dense(f, proj, (nh, ne))
    incl = dense(f, inclusion, (ne, nh))
    e_mult, e_comult = dense(f, e.alg.mult, (ne,) * 3), dense(f, e.coa.comult, (ne,) * 3)
    h_mult, h_comult = dense(f, h.alg.mult, (nh,) * 3), dense(f, h.coa.comult, (nh,) * 3)
    e_counit, h_counit = dense(f, e.coa.counit, (ne,)), dense(f, h.coa.counit, (nh,))

    def mul(mult, u, v):
        out = [f.zero] * len(mult)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                for k, c in enumerate(mult[i][j]):
                    out[k] = f.add(out[k], f.mul(f.mul(x, y), c))
        return out

    def col(mat, j):
        return [row[j] for row in mat]

    def unit(n, i):
        return [f.one if k == i else f.zero for k in range(n)]

    failed = [] if [_apply(f, pm, col(incl, j)) for j in range(nh)] == \
        [unit(nh, j) for j in range(nh)] else ["retraction"]
    sides = ["left"] + (["right"] if bilinear else [])
    for side in sides:
        for u in range(nh):
            iu = col(incl, u)
            for x in range(ne):
                ex = unit(ne, x)
                prod = mul(e_mult, iu, ex) if side == "left" else mul(e_mult, ex, iu)
                got = _apply(f, pm, prod)
                px = col(pm, x)
                want = mul(h_mult, unit(nh, u), px) if side == "left" \
                    else mul(h_mult, px, unit(nh, u))
                if got != want and f"{side}-H-linear" not in failed:
                    failed.append(f"{side}-H-linear")
    # the linear identities are checked together, before the coalgebra-map law
    if failed:
        return "weak projection fails " + ", ".join(failed)
    for k in range(ne):
        img = col(pm, k)
        lhs = [[_sum(f, (f.mul(img[a], h_comult[a][i][j]) for a in range(nh)))
                for j in range(nh)] for i in range(nh)]
        rhs = [[f.zero] * nh for _ in range(nh)]
        for x in range(ne):
            for y in range(ne):
                c = e_comult[k][x][y]
                for i in range(nh):
                    for j in range(nh):
                        rhs[i][j] = f.add(rhs[i][j], f.mul(c, f.mul(pm[i][x], pm[j][y])))
        if lhs != rhs:
            return "weak projection is not comultiplicative"
        if e_counit[k] != _sum(f, (f.mul(v, c) for v, c in zip(img, h_counit))):
            return "weak projection does not preserve the counit"
    return ["retraction", "coalgebra-map"] + [f"{side}-H-linear" for side in sides]


def _verify_outcome(*args):
    try:
        return _verify_weak_projection(*args)
    except AssertionError as exc:
        return str(exc)


@pytest.mark.parametrize("spec,char", [c for c in GRID if c != ("functions:S3", 2)])
def test_verify_weak_projection_matches_loops(spec, char, preset_cache):
    h = preset_cache(spec, char)
    f = h.field
    cor = coradical(h.coa)
    sub, incl = sub_hopf_on_subspace(h, cor)
    for bilinear in (False, True):
        res = weak_projection(h, sub, incl, bilinear=bilinear, corad=cor)
        if isinstance(res, LiftObstruction):
            continue
        args = (h, sub, incl, res.tensor, bilinear)
        assert _verify_outcome(*args) == oracle_verify_weak_projection(*args) == res.verified
        if h.dim > 6:
            continue
        for r in range(sub.dim):
            for s in range(h.dim):
                bad = _bumped(f, res.tensor, (r, s))
                args = (h, sub, incl, bad, bilinear)
                assert _verify_outcome(*args) == oracle_verify_weak_projection(*args), (r, s)


def oracle_final_section_ok(p, sigma, colinear):
    """Whether sigma: A -> E splits pi, is unital, is multiplicative and, when
    ``colinear``, carries rho_A to rho_E: (sigma (x) id) rho_A = rho_E sigma."""
    f, ne, na = p.e.field, p.e.dim, p.a.dim
    s, pi = dense(f, sigma, (ne, na)), dense(f, p.pi, (na, ne))
    m_e, m_a = dense(f, p.e.mult, (ne,) * 3), dense(f, p.a.mult, (na,) * 3)

    def col(mat, j):
        return [row[j] for row in mat]

    def mul(u, v):
        out = [f.zero] * ne
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                for k, c in enumerate(m_e[i][j]):
                    out[k] = f.add(out[k], f.mul(f.mul(x, y), c))
        return out

    if _matmul(f, pi, s) != [[f.one if i == j else f.zero for j in range(na)] for i in range(na)]:
        return False
    if _apply(f, s, dense(f, p.a.unit, (na,))) != dense(f, p.e.unit, (ne,)):
        return False
    if any(_apply(f, s, m_a[i][j]) != mul(col(s, i), col(s, j))
           for i in range(na) for j in range(na)):
        return False
    if not colinear:
        return True
    nh = p.hopf.dim
    rho_a, rho_e = dense(f, p.coact_a, (na, na, nh)), dense(f, p.coact_e, (ne, ne, nh))
    return all(_sum(f, (f.mul(rho_a[c][v][u], s[x][v]) for v in range(na)))
               == _sum(f, (f.mul(s[y][c], rho_e[y][x][u]) for y in range(ne)))
               for c in range(na) for x in range(ne) for u in range(nh))


def _final_accepted(p, sigma, alpha, beta):
    try:
        _verify_final(p, sigma, alpha, beta)
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("spec,char", SMALL_GRID)
def test_verify_final_matches_loops_on_every_corruption(spec, char, preset_cache):
    """The plain and the colinear square-zero lift: ``_verify_final`` accepts the
    final section and rejects each single-entry corruption exactly when the loops do."""
    h = preset_cache(spec, char)
    f = h.field
    for colinear in (False, True):
        p = square_zero_extension(h)
        cert = lift_algebra_section(p, colinear=colinear)
        alpha, beta = _equivariance_pairs_from_problem(p) if colinear else ({}, {})
        assert _final_accepted(p, cert.final, alpha, beta)
        assert oracle_final_section_ok(p, cert.final, colinear)
        for x in range(p.e.dim):
            for y in range(p.a.dim):
                bad = _bumped(f, cert.final, (x, y))
                assert _final_accepted(p, bad, alpha, beta) == \
                    oracle_final_section_ok(p, bad, colinear), (colinear, x, y)


def _recorded_labels(monkeypatch, run) -> set:
    """The condition labels of every condition list the lifting engine solves
    (``linalg.solve``) during ``run``, as tuples."""
    seen = set()
    real = lifting.solve

    def recording(field, shape, conds, what):
        seen.add(tuple(dict.fromkeys(label for label, *_ in conds)))
        return real(field, shape, conds, what)

    monkeypatch.setattr(lifting, "solve", recording)
    run()
    monkeypatch.undo()
    return seen


def test_every_lift_system_carries_its_condition_labels(monkeypatch):
    h = resolve_preset("sweedler", QQ)
    plain = (("projects", "unital"), ("coboundary",))
    equivariant = (("projects", "unital", "equivariant"), ("coboundary", "equivariant"))
    cor = coradical(h.coa)
    sub, incl = sub_hopf_on_subspace(h, cor)
    kc2 = resolve_preset("group:C2", GF(2))
    cases = [
        (lambda: lift_algebra_section(square_zero_extension(h)), plain),
        (lambda: lift_algebra_section(cyclic_cover_problem(kc2.alg, 2)), plain),
        (lambda: lift_algebra_section(square_zero_extension(h), colinear=True), equivariant),
        (lambda: weak_projection(h, sub, incl, corad=cor), equivariant),
        (lambda: weak_projection(h, sub, incl, bilinear=True, corad=cor), equivariant),
    ]
    for run, (lift, coboundary) in cases:
        labels = _recorded_labels(monkeypatch, run)
        assert lift in labels and labels <= {lift, coboundary}, labels
    bim = regular_bimodule(h.alg)
    c = sparse(next(_cochains(bim)))
    assert _recorded_labels(monkeypatch, lambda: hochschild_coboundary_solve(h.alg, bim, c)) \
        == {plain[1]}
