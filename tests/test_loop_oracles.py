"""The sparse contractions against the explicit index loops they replaced.

Each oracle below is the nested-loop evaluation of an identity, written out
over dense vectors with no help from the package: the Hopf axioms with their
witnesses, the four adjoint actions and coactions, and the Yetter-Drinfeld
compatibility display.  The package's contractions must agree with them
exactly, including on every single-entry corruption of the structure maps.

The antipode of a Drinfeld double is the one cross-check by a different
route instead of by loops: the closed form that ``drinfeld_double`` uses
against the blind solve of both antipode axioms in all N^2 entries of S_D.
"""

import copy

import pytest

from hopfsmith import FieldSpec, resolve_preset
from hopfsmith.hopf import check_hopf
from hopfsmith.doubles import drinfeld_double
from hopfsmith.linalg import AffineSystem, SparseMat, contract, dense, solve_affine, sparse, unknowns
from hopfsmith.yd import ACTIONS, COACTIONS, adjoint_action, adjoint_coaction, check_yd, yd_on_h

from conftest import GRID


def _e(f, n, i):
    v = [f.zero] * n
    v[i] = f.one
    return v


def _mul(f, mult, a, b):
    out = [f.zero] * len(mult)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                for k, c in enumerate(mult[i][j]):
                    out[k] = f.add(out[k], f.mul(f.mul(x, y), c))
    return out


def _matvec(f, mat, v):
    return [sum((f.mul(a, x) for a, x in zip(row, v)), f.zero) if f.characteristic == 0
            else sum(f.mul(a, x) for a, x in zip(row, v)) % f.characteristic
            for row in mat]


def _sparse_mat(f, rows, ncols):
    """The ``SparseMat`` holding dense rows of length ``ncols``."""
    return SparseMat(f, len(rows), ncols, [[(j, x) for j, x in enumerate(r) if x] for r in rows])


def _matmul(f, a, b):
    """The product of dense matrices given as row lists."""
    bt = [list(col) for col in zip(*b)]
    return [_matvec(f, bt, row) for row in a]


def _eye(f, n):
    return [_e(f, n, i) for i in range(n)]


def _lists(h):
    """(mult, comult, unit, counit, S, S^{-1}) of h as nested lists, read once
    through ``linalg.dense``; S^{-1} is None when h has none."""
    f, n = h.field, h.dim
    si = None if h.antipode_inverse is None else dense(f, h.antipode_inverse, (n, n))
    return (dense(f, h.alg.mult, (n, n, n)), dense(f, h.coa.comult, (n, n, n)),
            dense(f, h.alg.unit, (n,)), dense(f, h.coa.counit, (n,)),
            dense(f, h.antipode, (n, n)), si)


def _delta(f, comult, v):
    n = len(comult)
    out = [f.zero] * (n * n)
    for k, x in enumerate(v):
        for i in range(n):
            for j in range(n):
                if x and comult[k][i][j]:
                    out[i * n + j] = f.add(out[i * n + j], f.mul(x, comult[k][i][j]))
    return out


def _delta2(f, comult, k):
    """Delta^2(e_k) as {(p, q, r): c}, expanding the last leg."""
    n = len(comult)
    out = {}
    for p in range(n):
        for m in range(n):
            c1 = comult[k][p][m]
            for q in range(n):
                for r in range(n):
                    c2 = comult[m][q][r]
                    if c1 and c2:
                        out[(p, q, r)] = f.add(out.get((p, q, r), f.zero), f.mul(c1, c2))
    return {key: v for key, v in out.items() if v}


def oracle_check_hopf(h):
    """{axiom: (ok, witness)} by the explicit loops."""
    f, n = h.field, h.dim
    mult, comult, unit, counit, anti, _ = _lists(h)

    def first(cands):
        return next((w for w in cands if w is not None), None)

    out = {}
    out["associativity"] = first(
        (i, j, k) if _mul(f, mult, mult[i][j], _e(f, n, k)) != _mul(f, mult, _e(f, n, i), mult[j][k])
        else None for i in range(n) for j in range(n) for k in range(n))
    out["unit"] = first((i,) if _mul(f, mult, unit, _e(f, n, i)) != _e(f, n, i)
                        or _mul(f, mult, _e(f, n, i), unit) != _e(f, n, i) else None
                        for i in range(n))

    def coassoc(k):
        lhs = [f.zero] * n ** 3
        rhs = [f.zero] * n ** 3
        for (p, q, r), c in _delta2(f, comult, k).items():
            lhs[(p * n + q) * n + r] = c
        for i in range(n):
            for b in range(n):
                for p in range(n):
                    for q in range(n):
                        x, y = comult[k][i][b], comult[i][p][q]
                        if x and y:
                            idx = (p * n + q) * n + b
                            rhs[idx] = f.add(rhs[idx], f.mul(x, y))
        return lhs == rhs

    out["coassociativity"] = first(None if coassoc(k) else (k,) for k in range(n))

    def counit_ok(k):
        left, right = [f.zero] * n, [f.zero] * n
        for i in range(n):
            for j in range(n):
                x = comult[k][i][j]
                left[j] = f.add(left[j], f.mul(counit[i], x))
                right[i] = f.add(right[i], f.mul(x, counit[j]))
        return left == _e(f, n, k) and right == _e(f, n, k)

    out["counit"] = first(None if counit_ok(k) else (k,) for k in range(n))

    def mul2(u, v):
        res = [f.zero] * (n * n)
        for s, x in enumerate(u):
            for t, y in enumerate(v):
                if x and y:
                    i, j = divmod(s, n)
                    p, q = divmod(t, n)
                    for k in range(n):
                        for l in range(n):
                            c = f.mul(f.mul(x, y), f.mul(mult[i][p][k], mult[j][q][l]))
                            res[k * n + l] = f.add(res[k * n + l], c)
        return res

    def eps(v):
        return sum((f.mul(x, e) for x, e in zip(v, counit)), f.zero) if not f.characteristic \
            else sum(f.mul(x, e) for x, e in zip(v, counit)) % f.characteristic

    def bialgebra(i, j):
        if _delta(f, comult, mult[i][j]) != mul2(_delta(f, comult, _e(f, n, i)),
                                                  _delta(f, comult, _e(f, n, j))):
            return (i, j, "delta")
        if eps(mult[i][j]) != f.mul(counit[i], counit[j]):
            return (i, j, "eps")
        return None

    w = first(bialgebra(i, j) for i in range(n) for j in range(n))
    if w is None:
        if _delta(f, comult, unit) != [f.mul(x, y) for x in unit for y in unit]:
            w = ("unit", "delta")
        elif eps(unit) != f.one:
            w = ("unit", "eps")
    out["bialgebra"] = w

    def antipode_ok(k):
        acc_l, acc_r = [f.zero] * n, [f.zero] * n
        for i in range(n):
            for j in range(n):
                x = comult[k][i][j]
                if not x:
                    continue
                li = _mul(f, mult, _matvec(f, anti, _e(f, n, i)), _e(f, n, j))
                rj = _mul(f, mult, _e(f, n, i), _matvec(f, anti, _e(f, n, j)))
                acc_l = [f.add(a, f.mul(x, b)) for a, b in zip(acc_l, li)]
                acc_r = [f.add(a, f.mul(x, b)) for a, b in zip(acc_r, rj)]
        target = [f.mul(counit[k], u) for u in unit]
        return acc_l == target and acc_r == target

    out["antipode"] = first(None if antipode_ok(k) else (k,) for k in range(n))
    return out


def _corruptions(h):
    """Copies of h with one entry of mult, comult, counit or the antipode moved by 1;
    an entry that becomes zero leaves the tensor."""
    f = h.field
    n = h.dim
    sites = [("mult", i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    sites += [("comult", i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    sites += [("counit", i) for i in range(n)] + [("antipode", i, j)
                                                   for i in range(n) for j in range(n)]
    for site in sites:
        bad = copy.deepcopy(h)
        kind, *idx = site
        target = {"mult": bad.alg.mult, "comult": bad.coa.comult, "counit": bad.coa.counit,
                  "antipode": bad.antipode}[kind]
        key = tuple(idx)
        target[key] = f.add(target.get(key, f.zero), f.one)
        if not target[key]:
            target.pop(key)
        yield site, bad


@pytest.mark.parametrize("spec,char", [("group:C3", 0), ("sweedler", 0), ("group:C2", 2)])
def test_check_hopf_matches_loops_on_every_corruption(spec, char):
    h = resolve_preset(spec, FieldSpec(char))
    for site, bad in _corruptions(h):
        rep = check_hopf(bad)
        want = oracle_check_hopf(bad)
        for axiom, witness in want.items():
            got = rep.checks[axiom]
            assert (got.ok, got.witness) == (witness is None, witness), (site, axiom)


def oracle_adjoint_action(h, which):
    f, n = h.field, h.dim
    mult, comult, _, _, anti, anti_inv = _lists(h)
    s = lambda v: _matvec(f, anti, v)  # noqa: E731
    si = lambda v: _matvec(f, anti_inv, v)  # noqa: E731
    mul = lambda a, b: _mul(f, mult, a, b)  # noqa: E731
    tensor = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for p in range(n):
            for q in range(n):
                d = comult[i][p][q]
                if not d:
                    continue
                ep, eq = _e(f, n, p), _e(f, n, q)
                for j in range(n):
                    ej = _e(f, n, j)
                    vec = {"adl": lambda: mul(mul(ep, ej), s(eq)),
                           "adr": lambda: mul(mul(s(ep), ej), eq),
                           "adl_bar": lambda: mul(mul(eq, ej), si(ep)),
                           "adr_bar": lambda: mul(mul(si(eq), ej), ep)}[which]()
                    for k, v in enumerate(vec):
                        tensor[i][j][k] = f.add(tensor[i][j][k], f.mul(d, v))
    return sparse(tensor)


def oracle_adjoint_coaction(h, which):
    f, n = h.field, h.dim
    mult, comult, _, _, anti, anti_inv = _lists(h)
    s = lambda v: _matvec(f, anti, v)  # noqa: E731
    si = lambda v: _matvec(f, anti_inv, v)  # noqa: E731
    mul = lambda a, b: _mul(f, mult, a, b)  # noqa: E731
    tensor = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    for k0 in range(n):
        for (p, q, r), c in _delta2(f, comult, k0).items():
            ep, er = _e(f, n, p), _e(f, n, r)
            hleg = {"rho_l": lambda: mul(ep, s(er)), "rho_r": lambda: mul(s(ep), er),
                    "rho_r_bar": lambda: mul(er, si(ep)),
                    "rho_l_bar": lambda: mul(si(er), ep)}[which]()
            for i, v in enumerate(hleg):
                tensor[k0][i][q] = f.add(tensor[k0][i][q], f.mul(c, v))
    return sparse(tensor)


@pytest.mark.parametrize("spec,char", GRID[::2])
def test_adjoint_tensors_match_loops(spec, char, preset_cache):
    h = preset_cache(spec, char)
    for which in ACTIONS:
        assert adjoint_action(h, which).tensor == oracle_adjoint_action(h, which), which
    for which in COACTIONS:
        assert adjoint_coaction(h, which).tensor == oracle_adjoint_coaction(h, which), which


def oracle_check_yd(s, h):
    """(ok, witness) of the YD display on basis pairs, by the explicit loops."""
    f, n, m = h.field, h.dim, s.action.space_dim
    mult, comult, _, _, anti, anti_inv = _lists(h)
    coaction = dense(f, s.coaction.tensor, (m, n, m))
    mul = lambda a, b: _mul(f, mult, a, b)  # noqa: E731
    sv = lambda v: _matvec(f, anti, v)  # noqa: E731
    si = lambda v: _matvec(f, anti_inv, v)  # noqa: E731
    e = lambda i: _e(f, n, i)  # noqa: E731
    outer = {"LL": lambda h1, h3: (e(h1), sv(e(h3))), "RR": lambda h1, h3: (sv(e(h1)), e(h3)),
             "LR": lambda h1, h3: (e(h3), si(e(h1))),
             "RL": lambda h1, h3: (si(e(h3)), e(h1))}[s.variant]
    left = s.coaction.side == "left"
    for a in range(n):
        for b in range(m):
            lhs = s.coaction.coact(s.action.act(e(a), _e(f, m, b)))
            rhs = [f.zero] * len(lhs)
            for (h1, h2, h3), c in _delta2(f, comult, a).items():
                x, y = outer(h1, h3)
                for i in range(n):
                    for k, cv in enumerate(coaction[b][i]):
                        if not cv:
                            continue
                        hleg = mul(mul(x, e(i)), y)
                        mleg = s.action.act(e(h2), _e(f, m, k))
                        for ii, hv in enumerate(hleg):
                            for kk, mv in enumerate(mleg):
                                pos = ii * m + kk if left else kk * n + ii
                                term = f.mul(f.mul(c, cv), f.mul(hv, mv))
                                rhs[pos] = f.add(rhs[pos], term)
            if lhs != rhs:
                return False, (a, b)
    return True, None


@pytest.mark.parametrize("spec,char", [("sweedler", 0), ("group:S3", 0), ("functions:C3", 0),
                                       ("taft:3:2", 7)])
def test_check_yd_witnesses_match_loops(spec, char, preset_cache):
    h = preset_cache(spec, char)
    structures = [yd_on_h(h, kind) for kind in ACTIONS + COACTIONS]
    # mismatched pairings fail the display; the witness is the first failing basis pair
    for s in structures:
        for t in structures:
            if (s.action.side, s.coaction.side) != (t.action.side, t.coaction.side):
                continue
            mixed = copy.copy(s)
            mixed.coaction = t.coaction
            assert check_yd(mixed, h) == oracle_check_yd(mixed, h)


def blind_antipode(h):
    """The two-sided convolution inverse of the identity, solved blind: one affine
    system in all N^2 entries of S, where entry (T, I) is the e_T coefficient of
    S(e_I), with S(x_1) x_2 = eps(x) 1 = x_1 S(x_2) as its rows."""
    f, n = h.field, h.dim
    x = unknowns(f, n, n)
    unit = contract(f, "K,t->Kt", h.coa.counit, h.alg.unit)
    d, m = h.coa.comult, h.alg.mult
    sol = solve_affine(AffineSystem.conditions(
        f, n * n, (contract(f, "KIJ,TJt,TIu->Ktu", d, m, x), 2, unit, "S(x1) x2"),
        (contract(f, "KIJ,ITt,TJu->Ktu", d, m, x), 2, unit, "x1 S(x2)")))
    assert sol is not None and not sol.nullspace  # an antipode is unique when it exists
    return {divmod(c, n): v for c, v in enumerate(sol.particular) if v}


@pytest.mark.parametrize("spec,char", GRID)
def test_double_antipode_formula_equals_the_blind_solve(spec, char, preset_cache):
    double, _ = drinfeld_double(preset_cache(spec, char))
    assert double.antipode == blind_antipode(double)
