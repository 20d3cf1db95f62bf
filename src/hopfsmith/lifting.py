"""Lifting algebra sections through nilpotent-kernel surjections, and weak
projections of coalgebras built by strict dualization.

The engine walks E/I -> E/I^2 -> ... -> E.  At each stage a linear (optionally
equivariant) lift is chosen by an affine solve, its curvature is formed, the
curvature is checked to be a Hochschild 2-cocycle (an internal invariant:
failure is a bug, not an obstruction), and the correction solves the
2-coboundary equation.  Infeasibility of that solve is the obstruction, and
the certified witness is the delta-closed curvature itself.

Equivariance is handled uniformly: both right-H-colinearity (through the
component endomorphisms of a coaction) and H-linearity (through left
multiplication operators) arrive as pairs (alpha on A, beta on E) that every
stage map must intertwine; the pairs are checked to preserve the kernel
filtration and are descended to each quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .hopf import AlgebraData, HopfData, SubspaceBasis, _unitvec
from .linalg import (AffineSystem, Mat, in_span, invert, nullspace, rank,
                     solve_affine, span_contains_span)
from .filtration import (_ideal_product, _is_two_sided_ideal, _quotient_algebra,
                         coradical, is_subcoalgebra, wedge_filtration)


@dataclass
class Bimodule:
    algebra: AlgebraData
    dim: int
    left: list   # Mat per basis element of A
    right: list

    def check(self):
        a = self.algebra
        f = a.field
        n = a.dim
        ident = Mat.identity(f, self.dim)
        lu = _combine(self.left, a.unit, f, self.dim)
        ru = _combine(self.right, a.unit, f, self.dim)
        if lu != ident or ru != ident:
            raise ValueError("bimodule: unit does not act as identity")
        for i in range(n):
            for j in range(n):
                lprod = _combine(self.left, a.mult[i][j], f, self.dim)
                if lprod != self.left[i].mul(self.left[j]):
                    raise ValueError(f"bimodule: left action not associative at ({i},{j})")
                rprod = _combine(self.right, a.mult[i][j], f, self.dim)
                if rprod != self.right[j].mul(self.right[i]):
                    raise ValueError(f"bimodule: right action not associative at ({i},{j})")
                if self.left[i].mul(self.right[j]) != self.right[j].mul(self.left[i]):
                    raise ValueError(f"bimodule: actions do not commute at ({i},{j})")
        return self


def _combine(mats: list, coeffs: list, f, m: int) -> Mat:
    out = Mat.zeros(f, m, m)
    for i, c in enumerate(coeffs):
        if not c:
            continue
        for r in range(m):
            row = mats[i].data[r]
            orow = out.data[r]
            for s in range(m):
                if row[s]:
                    orow[s] = f.add(orow[s], f.mul(c, row[s]))
    return out


@dataclass
class SurjectionProblem:
    e: AlgebraData
    a: AlgebraData
    pi: Mat                     # a.dim x e.dim, surjective algebra map
    kernel: Optional[SubspaceBasis] = None
    hopf: Optional[HopfData] = None
    coact_e: Optional[Mat] = None   # E -> E (x) H, (dimE*dimH) x dimE
    coact_a: Optional[Mat] = None

    def validate(self):
        f = self.e.field
        if rank(self.pi) != self.a.dim:
            raise ValueError("pi is not surjective")
        img_unit = self.pi.matvec(self.e.unit)
        if not all(f.eq(x, y) for x, y in zip(img_unit, self.a.unit)):
            raise ValueError("pi does not preserve the unit")
        for i in range(self.e.dim):
            for j in range(self.e.dim):
                lhs = self.pi.matvec(self.e.mult[i][j])
                rhs = self.a.mul(self.pi.column(i), self.pi.column(j))
                if not all(f.eq(x, y) for x, y in zip(lhs, rhs)):
                    raise ValueError(f"pi is not an algebra map at ({i},{j})")
        ker = nullspace(self.pi).columns()
        if self.kernel is None:
            self.kernel = SubspaceBasis(self.e.dim, ker)
        else:
            from .linalg import spans_equal
            if not spans_equal(f, self.kernel.vectors, ker):
                raise ValueError("provided kernel differs from nullspace(pi)")
        if not _is_two_sided_ideal(self.e, self.kernel.vectors):
            raise ValueError("kernel is not a two-sided ideal")
        return self


@dataclass
class LiftCertificate:
    stages: list            # stage maps A -> E/I^{r+1} as Mat
    final: Mat              # sigma: A -> E
    algebra_map: bool
    colinear: Optional[bool] = None


@dataclass
class LiftObstruction:
    stage: int
    witness: list           # curvature c[i][j] as coordinate vectors in I^r/I^{r+1}
    delta_closed: bool
    reason: str


def _coaction_components(coact: Mat, space_dim: int, hopf_dim: int) -> list:
    """Split rho: V -> V (x) H (rows flattened v*dimH + u) into endomorphisms."""
    f = coact.field
    comps = []
    for u in range(hopf_dim):
        comps.append(Mat(f, space_dim, space_dim,
                         [[coact.data[v * hopf_dim + u][c] for c in range(space_dim)]
                          for v in range(space_dim)]))
    return comps


def _check_right_comodule(coact: Mat, space_dim: int, h: HopfData) -> None:
    f = h.field
    nh = h.dim
    # counit: (id (x) eps) rho = id
    for c in range(space_dim):
        acc = [f.zero] * space_dim
        for v in range(space_dim):
            for u in range(nh):
                x = coact.data[v * nh + u][c]
                if x and h.coa.counit[u]:
                    acc[v] = f.add(acc[v], f.mul(x, h.coa.counit[u]))
        want = _unitvec(f, space_dim, c)
        if not all(f.eq(p, q) for p, q in zip(acc, want)):
            raise ValueError("coaction fails the counit law")
    # coassociativity: (rho (x) id) rho = (id (x) Delta) rho
    for c in range(space_dim):
        lhs = {}
        rhs = {}
        for v in range(space_dim):
            for u in range(nh):
                x = coact.data[v * nh + u][c]
                if not x:
                    continue
                for w in range(space_dim):
                    for t in range(nh):
                        y = coact.data[w * nh + t][v]
                        if y:
                            key = (w, t, u)
                            lhs[key] = f.add(lhs.get(key, f.zero), f.mul(x, y))
                for p in range(nh):
                    for q, d in enumerate(h.coa.comult[u][p]):
                        if d:
                            key = (v, p, q)
                            rhs[key] = f.add(rhs.get(key, f.zero), f.mul(x, d))
        for key in set(lhs) | set(rhs):
            if not f.eq(lhs.get(key, f.zero), rhs.get(key, f.zero)):
                raise ValueError("coaction fails coassociativity")


def _equivariance_pairs_from_problem(p: SurjectionProblem) -> list:
    """Component endomorphism pairs (alpha on A, beta on E) for colinearity."""
    if p.hopf is None or p.coact_e is None or p.coact_a is None:
        raise ValueError("colinear lifting needs hopf, coact_e and coact_a")
    h = p.hopf
    f = h.field
    _check_right_comodule(p.coact_e, p.e.dim, h)
    _check_right_comodule(p.coact_a, p.a.dim, h)
    alphas = _coaction_components(p.coact_a, p.a.dim, h.dim)
    betas = _coaction_components(p.coact_e, p.e.dim, h.dim)
    # pi must intertwine the coactions
    for u in range(h.dim):
        if p.pi.mul(betas[u]) != alphas[u].mul(p.pi):
            raise ValueError("pi is not colinear")
    return list(zip(alphas, betas))


def lift_algebra_section(p: SurjectionProblem, colinear: bool = False,
                         extra_pairs: Optional[list] = None):
    """A verified multiplicative (optionally equivariant) section of pi,
    or a LiftObstruction carrying a delta-closed curvature witness."""
    p.validate()
    f = p.e.field
    ne, na = p.e.dim, p.a.dim

    pairs = list(extra_pairs or [])
    if colinear:
        pairs = _equivariance_pairs_from_problem(p) + pairs

    # kernel powers I = P[0] > P[1] = I^2 > ... until zero
    powers = [p.kernel.vectors]
    while powers[-1]:
        nxt = _ideal_product(p.e, powers[-1], p.kernel.vectors)
        if nxt and len(nxt) == len(powers[-1]) and \
                span_contains_span(f, powers[-1], nxt) and span_contains_span(f, nxt, powers[-1]):
            raise ValueError("kernel is not nilpotent")
        powers.append(nxt)
        if len(powers) > ne + 1:
            raise ValueError("kernel is not nilpotent")
    nu = len(powers)  # I^nu = 0 (powers[nu-1] == [])

    # equivariance endomorphisms must preserve every kernel power
    for _, beta in pairs:
        for pw in powers[:-1]:
            for v in pw:
                if not in_span(f, pw, beta.matvec(v)):
                    raise ValueError("equivariance operator does not preserve the kernel filtration")

    # quotients Q_r = E/I^r for r = 1..nu (Q_nu = E)
    quots = []
    for r in range(1, nu + 1):
        ideal_vs = powers[r - 1]
        quots.append(_quotient_algebra(p.e, ideal_vs))

    def descend(beta: Mat, r_idx: int) -> Mat:
        qalg, proj, sect = quots[r_idx]
        cols = [proj.matvec(beta.matvec(sect.column(j))) for j in range(qalg.dim)]
        return Mat.from_columns(f, cols) if qalg.dim else Mat(f, 0, 0, [])

    # stage 1: A ~ E/I
    qalg1, proj1, sect1 = quots[0]
    psi = Mat.from_columns(f, [p.pi.matvec(sect1.column(j)) for j in range(qalg1.dim)])
    f_r = invert(psi)
    if f_r is None:
        raise AssertionError("E/I -> A is not invertible; pi was not surjective?")
    for alpha, beta in pairs:
        if descend(beta, 0).mul(f_r) != f_r.mul(alpha):
            raise AssertionError("initial stage map is not equivariant")
    stages = [f_r]

    for r in range(1, nu):
        qprev, projprev, sectprev = quots[r - 1]
        qcur, projcur, sectcur = quots[r]
        p_r = Mat.from_columns(f, [projprev.matvec(sectcur.column(j)) for j in range(qcur.dim)])
        w_basis = nullspace(p_r).columns()  # I^r/I^{r+1} inside Q_{r+1}
        mker = SubspaceBasis(qcur.dim, w_basis)
        betas_cur = [descend(b, r) for _, b in pairs]
        alphas = [a for a, _ in pairs]

        g = _solve_linear_lift(f, qcur, p_r, f_r, p.a, alphas, betas_cur)
        if g is None:
            return LiftObstruction(r, [], True,
                                   "no equivariant linear lift through E/I^{r+1}")

        curv = {}
        all_zero = True
        for i in range(na):
            for j in range(na):
                gij = g.matvec(p.a.mult[i][j])
                gi_gj = qcur.mul(g.column(i), g.column(j))
                c = [f.sub(x, y) for x, y in zip(gij, gi_gj)]
                coords = mker.coords_of(f, c)
                if coords is None:
                    raise AssertionError("curvature escaped I^r/I^{r+1}")
                curv[(i, j)] = coords
                if any(not f.is_zero(x) for x in coords):
                    all_zero = False

        if all_zero:
            f_r = g
            stages.append(f_r)
            continue

        # A-bimodule structure on I^r/I^{r+1} through any lift
        mdim = len(w_basis)
        left = []
        right = []
        for i in range(na):
            gi = g.column(i)
            lcols = [mker.coords_of(f, qcur.mul(gi, w)) for w in w_basis]
            rcols = [mker.coords_of(f, qcur.mul(w, gi)) for w in w_basis]
            if any(c is None for c in lcols + rcols):
                raise AssertionError("bimodule action escaped I^r/I^{r+1}")
            left.append(Mat.from_columns(f, lcols) if mdim else Mat(f, 0, 0, []))
            right.append(Mat.from_columns(f, rcols) if mdim else Mat(f, 0, 0, []))
        bim = Bimodule(p.a, mdim, left, right).check()

        witness = [[curv[(i, j)] for j in range(na)] for i in range(na)]
        if not _is_two_cocycle(bim, witness):
            raise AssertionError("curvature is not delta-closed; lifting engine bug")

        # equivariance operators restricted to the kernel stage
        m_alphas = alphas
        m_betas = []
        for beta_cur in betas_cur:
            cols = [mker.coords_of(f, beta_cur.matvec(w)) for w in w_basis]
            if any(c is None for c in cols):
                raise AssertionError("equivariance operator escaped I^r/I^{r+1}")
            m_betas.append(Mat.from_columns(f, cols) if mdim else Mat(f, 0, 0, []))

        hmap = _solve_coboundary(bim, witness, m_alphas, m_betas)
        if hmap is None:
            return LiftObstruction(r, witness, True,
                                   "curvature class is not a coboundary")

        corr = Mat.from_columns(f, [
            _lincomb(f, qcur.dim, w_basis, hmap.column(j)) for j in range(na)])
        f_r = Mat(f, qcur.dim, na,
                  [[f.sub(g.data[x][y], corr.data[x][y]) for y in range(na)]
                   for x in range(qcur.dim)])
        _assert_stage(f, qcur, p_r, stages[-1], f_r, p.a, alphas, betas_cur)
        stages.append(f_r)

    sigma = stages[-1]
    # Q_nu = E/0: translate back to E coordinates
    _, projnu, sectnu = quots[-1]
    sigma_e = Mat.from_columns(f, [sectnu.matvec(sigma.column(j)) for j in range(na)])
    cert = LiftCertificate(stages, sigma_e, True, bool(pairs) or None)
    _verify_final(p, cert, pairs)
    return cert


def _lincomb(f, dim, basis_vectors, coeffs):
    out = [f.zero] * dim
    for c, v in zip(coeffs, basis_vectors):
        if c:
            for t, x in enumerate(v):
                if x:
                    out[t] = f.add(out[t], f.mul(c, x))
    return out


def _solve_linear_lift(f, qcur, p_r, f_prev, a, alphas, betas_cur):
    """Linear g: A -> Q_{r+1} with p_r g = f_prev, g(1) = 1, equivariance."""
    na = a.dim
    ncur = qcur.dim
    nunk = ncur * na

    def unk(x, y):
        return x * na + y

    rows = []
    rhs = []
    for y in range(na):
        for x in range(p_r.rows):
            rows.append({unk(t, y): c for t, c in enumerate(p_r.data[x]) if c})
            rhs.append(f_prev.data[x][y])
    # unitality
    for x in range(ncur):
        rows.append({unk(x, y): c for y, c in enumerate(a.unit) if c})
        rhs.append(qcur.unit[x])
    for alpha, beta in zip(alphas, betas_cur):
        # g(alpha(e_y)) = beta(g(e_y)): components x
        for y in range(na):
            alpha_y = [(t, c) for t, c in enumerate(alpha.column(y)) if c]
            for x in range(ncur):
                row = {unk(x, t): c for t, c in alpha_y}
                for t, c in enumerate(beta.data[x]):
                    if c:
                        col = unk(t, y)
                        row[col] = f.sub(row.get(col, f.zero), c)
                rows.append(row)
                rhs.append(f.zero)
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, nunk))
    if sol is None:
        return None
    return Mat(f, ncur, na, [[sol.particular[unk(x, y)] for y in range(na)]
                             for x in range(ncur)])


def _is_two_cocycle(bim: Bimodule, c: list) -> bool:
    """delta c (a,b,d) = a·c(b,d) - c(ab,d) + c(a,bd) - c(a,b)·d = 0 on basis triples."""
    a = bim.algebra
    f = a.field
    na = a.dim
    m = bim.dim

    def c_of(vec_i, vec_j):
        out = [f.zero] * m
        for i, x in enumerate(vec_i):
            if not x:
                continue
            for j, y in enumerate(vec_j):
                if y:
                    for t, v in enumerate(c[i][j]):
                        if v:
                            out[t] = f.add(out[t], f.mul(f.mul(x, y), v))
        return out

    for i in range(na):
        ei = _unitvec(f, na, i)
        for j in range(na):
            ej = _unitvec(f, na, j)
            for k in range(na):
                ek = _unitvec(f, na, k)
                t1 = bim.left[i].matvec(c[j][k])
                t2 = c_of(a.mult[i][j], ek)
                t3 = c_of(ei, a.mult[j][k])
                t4 = bim.right[k].matvec(c[i][j])
                acc = [f.sub(f.add(f.sub(x1, x2), x3), x4)
                       for x1, x2, x3, x4 in zip(t1, t2, t3, t4)]
                if any(not f.is_zero(x) for x in acc):
                    return False
    return True


def _solve_coboundary(bim: Bimodule, c: list, alphas=None, betas=None):
    """h: A -> M with a·h(b) - h(ab) + h(a)·b = c(a,b); optionally equivariant."""
    a = bim.algebra
    f = a.field
    na = a.dim
    m = bim.dim
    nunk = m * na

    def unk(t, y):
        return t * na + y

    rows = []
    rhs = []
    for i in range(na):
        for j in range(na):
            for t in range(m):
                row = {unk(s, j): v for s, v in enumerate(bim.left[i].data[t]) if v}
                for y, v in enumerate(a.mult[i][j]):
                    if v:
                        col = unk(t, y)
                        row[col] = f.sub(row.get(col, f.zero), v)
                for s, v in enumerate(bim.right[j].data[t]):
                    if v:
                        col = unk(s, i)
                        row[col] = f.add(row.get(col, f.zero), v)
                rows.append(row)
                rhs.append(c[i][j][t])
    for alpha, beta in zip(alphas or [], betas or []):
        for y in range(na):
            alpha_y = [(s, v) for s, v in enumerate(alpha.column(y)) if v]
            for t in range(m):
                row = {unk(t, s): v for s, v in alpha_y}
                for s, v in enumerate(beta.data[t]):
                    if v:
                        col = unk(s, y)
                        row[col] = f.sub(row.get(col, f.zero), v)
                rows.append(row)
                rhs.append(f.zero)
    sol = solve_affine(AffineSystem.sparse(f, rows, rhs, nunk))
    if sol is None:
        return None
    return Mat(f, m, na, [[sol.particular[unk(t, y)] for y in range(na)] for t in range(m)])


def _assert_stage(f, qcur, p_r, f_prev, f_new, a, alphas, betas_cur):
    if Mat.from_columns(f, [p_r.matvec(f_new.column(j)) for j in range(a.dim)]) != f_prev:
        raise AssertionError("stage map does not project to the previous stage")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = f_new.matvec(a.mult[i][j])
            rhs = qcur.mul(f_new.column(i), f_new.column(j))
            if not all(f.eq(x, y) for x, y in zip(lhs, rhs)):
                raise AssertionError("stage map is not multiplicative after correction")
    for alpha, beta in zip(alphas, betas_cur):
        if beta.mul(f_new) != f_new.mul(alpha):
            raise AssertionError("stage map lost equivariance")


def _verify_final(p: SurjectionProblem, cert: LiftCertificate, pairs: list):
    f = p.e.field
    sigma = cert.final
    comp = Mat.from_columns(f, [p.pi.matvec(sigma.column(j)) for j in range(p.a.dim)])
    if comp != Mat.identity(f, p.a.dim):
        raise AssertionError("final section does not split pi")
    for i in range(p.a.dim):
        for j in range(p.a.dim):
            lhs = sigma.matvec(p.a.mult[i][j])
            rhs = p.e.mul(sigma.column(i), sigma.column(j))
            if not all(f.eq(x, y) for x, y in zip(lhs, rhs)):
                raise AssertionError("final section is not multiplicative")
    s1 = sigma.matvec(p.a.unit)
    if not all(f.eq(x, y) for x, y in zip(s1, p.e.unit)):
        raise AssertionError("final section is not unital")
    for alpha, beta in pairs:
        if beta.mul(sigma) != sigma.mul(alpha):
            raise AssertionError("final section is not equivariant")


# ---------------------------------------------------------------------------
# Standalone Hochschild 2-coboundary solving
# ---------------------------------------------------------------------------

def hochschild_coboundary_solve(a: AlgebraData, bim: Bimodule, cocycle: list):
    """Solve delta h = c for a checked 2-cocycle c; None signals a nonzero class."""
    if bim.algebra is not a and bim.algebra != a:
        raise ValueError("bimodule is not over the given algebra")
    bim.check()
    if not _is_two_cocycle(bim, cocycle):
        raise ValueError("input is not a 2-cocycle")
    return _solve_coboundary(bim, cocycle)


def eps_bimodule(h: HopfData) -> Bimodule:
    """K as an H-bimodule through the counit on both sides."""
    f = h.field
    n = h.dim
    mats = [Mat(f, 1, 1, [[h.coa.counit[i]]]) for i in range(n)]
    return Bimodule(h.alg, 1, mats, [m.copy() for m in mats]).check()


def regular_bimodule(a: AlgebraData) -> Bimodule:
    f = a.field
    n = a.dim
    left = [a.left_mult_matrix(_unitvec(f, n, i)) for i in range(n)]
    right = [a.right_mult_matrix(_unitvec(f, n, i)) for i in range(n)]
    return Bimodule(a, n, left, right).check()


# ---------------------------------------------------------------------------
# Ready-made surjection problems
# ---------------------------------------------------------------------------

def square_zero_extension(h: HopfData, with_coaction: bool = True) -> SurjectionProblem:
    """E = A (+) A·eps with eps^2 = 0, pi forgetting eps; A = underlying algebra.

    When requested, E and A carry the right regular H-coaction (H = h), making
    the data a surjection of comodule algebras.
    """
    a = h.alg
    f = a.field
    n = a.dim
    ne = 2 * n
    z = f.zero
    mult = [[[z] * ne for _ in range(ne)] for _ in range(ne)]
    for i in range(n):
        for j in range(n):
            prod = a.mult[i][j]
            for k, c in enumerate(prod):
                if c:
                    mult[i][j][k] = c                       # a·a'
                    mult[i][n + j][n + k] = c               # a·(a' eps)
                    mult[n + i][j][n + k] = c               # (a eps)·a'
    unit = list(a.unit) + [z] * n
    e_alg = AlgebraData(f, ne, mult, unit)
    pi = Mat.zeros(f, n, ne)
    for i in range(n):
        pi.data[i][i] = f.one
    problem = SurjectionProblem(e_alg, a, pi)
    if with_coaction:
        nh = n
        coact_a = Mat.zeros(f, n * nh, n)
        for k in range(n):
            for i in range(n):
                for j, c in enumerate(h.coa.comult[k][i]):
                    if c:
                        coact_a.data[i * nh + j][k] = f.add(coact_a.data[i * nh + j][k], c)
        coact_e = Mat.zeros(f, ne * nh, ne)
        for k in range(n):
            for i in range(n):
                for j, c in enumerate(h.coa.comult[k][i]):
                    if c:
                        coact_e.data[i * nh + j][k] = f.add(coact_e.data[i * nh + j][k], c)
                        coact_e.data[(n + i) * nh + j][n + k] = f.add(
                            coact_e.data[(n + i) * nh + j][n + k], c)
        problem.hopf = h
        problem.coact_a = coact_a
        problem.coact_e = coact_e
    return problem


def cyclic_cover_problem(n: int, m: int, field) -> SurjectionProblem:
    """KC_{mn} -> KC_n along g -> g; the kernel is the ideal of 1 - g^n."""
    from .presets import cyclic_table, preset_group_algebra
    e_h = preset_group_algebra(cyclic_table(m * n), field)
    a_h = preset_group_algebra(cyclic_table(n), field)
    f = field
    pi = Mat.zeros(f, n, m * n)
    for k in range(m * n):
        pi.data[k % n][k] = f.one
    return SurjectionProblem(e_h.alg, a_h.alg, pi)


# ---------------------------------------------------------------------------
# Weak projections by dualization
# ---------------------------------------------------------------------------

@dataclass
class WeakProjectionCertificate:
    matrix: Mat             # pi: E -> H
    verified: list = dc_field(default_factory=list)


def _dual_algebra(coa) -> AlgebraData:
    f = coa.field
    n = coa.dim
    mult = [[[coa.comult[k][a][b] for k in range(n)] for b in range(n)] for a in range(n)]
    return AlgebraData(f, n, mult, list(coa.counit))


def weak_projection(e: HopfData, h: HopfData, inclusion: Mat,
                    bilinear: bool = False):
    """A left H-linear coalgebra retraction E -> H of a Hopf subalgebra
    inclusion with Corad(E) inside H, built by lifting an algebra section of
    the dual surjection E* -> H*.  Returns a certificate or a LiftObstruction.

    With ``bilinear=True`` right H-linearity is added to every solve; the
    theory guarantees feasibility only when an ad-coinvariant integral exists,
    so the flag asserts nothing beyond what the solver reports.
    """
    f = e.field
    ne, nh = e.dim, h.dim
    if inclusion.rows != ne or inclusion.cols != nh:
        raise ValueError("inclusion has the wrong shape")
    if rank(inclusion) != nh:
        raise ValueError("inclusion is not injective")
    incl_cols = inclusion.columns()
    # algebra + coalgebra map checks
    img_unit = inclusion.matvec(h.alg.unit)
    if not all(f.eq(x, y) for x, y in zip(img_unit, e.alg.unit)):
        raise ValueError("inclusion does not preserve the unit")
    for i in range(nh):
        for j in range(nh):
            lhs = inclusion.matvec(h.alg.mult[i][j])
            rhs = e.mul(incl_cols[i], incl_cols[j])
            if not all(f.eq(x, y) for x, y in zip(lhs, rhs)):
                raise ValueError("inclusion is not an algebra map")
    for k in range(nh):
        lhs = e.delta(incl_cols[k])
        want = [f.zero] * (ne * ne)
        for i in range(nh):
            for j, c in enumerate(h.coa.comult[k][i]):
                if c:
                    for x, xv in enumerate(incl_cols[i]):
                        if xv:
                            for y, yv in enumerate(incl_cols[j]):
                                if yv:
                                    want[x * ne + y] = f.add(want[x * ne + y],
                                                             f.mul(c, f.mul(xv, yv)))
        if not all(f.eq(p, q) for p, q in zip(lhs, want)):
            raise ValueError("inclusion is not a coalgebra map")

    sub = SubspaceBasis(ne, incl_cols)
    if not is_subcoalgebra(sub, e.coa):
        raise ValueError("image of the inclusion is not a subcoalgebra")
    corad = coradical(e.coa)
    if not span_contains_span(f, incl_cols, corad.vectors):
        raise ValueError("coradical of E is not contained in H")
    # the wedge filtration of H in E must exhaust; its length bounds the stages
    record = wedge_filtration(sub, e.coa)
    if not record.exhausted:
        raise AssertionError("filtration fails to exhaust despite coradical containment")

    e_star = _dual_algebra(e.coa)
    h_star = _dual_algebra(h.coa)
    pi_star = inclusion.transpose()
    problem = SurjectionProblem(e_star, h_star, pi_star)

    # right H-action on duals: (phi · u)(x) = phi(iota(u)·x); transposed left mult
    pairs = []
    for u in range(nh):
        l_e = e.alg.left_mult_matrix(incl_cols[u])
        l_h = h.alg.left_mult_matrix(_unitvec(f, nh, u))
        pairs.append((l_h.transpose(), l_e.transpose()))
    if bilinear:
        for u in range(nh):
            r_e = e.alg.right_mult_matrix(incl_cols[u])
            r_h = h.alg.right_mult_matrix(_unitvec(f, nh, u))
            pairs.append((r_h.transpose(), r_e.transpose()))

    result = lift_algebra_section(problem, colinear=False, extra_pairs=pairs)
    if isinstance(result, LiftObstruction):
        return result
    sigma = result.final          # H* -> E*, shape ne x nh
    proj = sigma.transpose()      # E -> H
    verified = _verify_weak_projection(e, h, inclusion, proj, bilinear)
    return WeakProjectionCertificate(proj, verified)


def _verify_weak_projection(e: HopfData, h: HopfData, inclusion: Mat, proj: Mat,
                            bilinear: bool) -> list:
    f = e.field
    ne, nh = e.dim, h.dim
    verified = []
    if Mat.from_columns(f, [proj.matvec(inclusion.column(j)) for j in range(nh)]) \
            != Mat.identity(f, nh):
        raise AssertionError("weak projection does not retract the inclusion")
    verified.append("retraction")
    # coalgebra map
    for k in range(ne):
        img = proj.matvec(_unitvec(f, ne, k))
        lhs = h.delta(img)
        flat = e.delta(_unitvec(f, ne, k))
        rhs = [f.zero] * (nh * nh)
        for t, c in enumerate(flat):
            if c:
                x, y = divmod(t, ne)
                px = proj.matvec(_unitvec(f, ne, x))
                py = proj.matvec(_unitvec(f, ne, y))
                for i, xv in enumerate(px):
                    if xv:
                        for j, yv in enumerate(py):
                            if yv:
                                rhs[i * nh + j] = f.add(rhs[i * nh + j],
                                                        f.mul(c, f.mul(xv, yv)))
        if not all(f.eq(a, b) for a, b in zip(lhs, rhs)):
            raise AssertionError("weak projection is not comultiplicative")
        le = e.eps(_unitvec(f, ne, k))
        lh = h.eps(img)
        if not f.eq(le, lh):
            raise AssertionError("weak projection does not preserve the counit")
    verified.append("coalgebra-map")
    for u in range(nh):
        iu = inclusion.column(u)
        for x in range(ne):
            lhs = proj.matvec(e.mul(iu, _unitvec(f, ne, x)))
            rhs = h.mul(_unitvec(f, nh, u), proj.matvec(_unitvec(f, ne, x)))
            if not all(f.eq(a, b) for a, b in zip(lhs, rhs)):
                raise AssertionError("weak projection is not left H-linear")
    verified.append("left-H-linear")
    if bilinear:
        for u in range(nh):
            iu = inclusion.column(u)
            for x in range(ne):
                lhs = proj.matvec(e.mul(_unitvec(f, ne, x), iu))
                rhs = h.mul(proj.matvec(_unitvec(f, ne, x)), _unitvec(f, nh, u))
                if not all(f.eq(a, b) for a, b in zip(lhs, rhs)):
                    raise AssertionError("weak projection is not right H-linear")
        verified.append("right-H-linear")
    return verified
