"""Preset Hopf algebras: group algebras, function algebras, Sweedler, Taft.

Group presets are driven by Cayley tables (``table[i][j]`` = index of the
product).  Each constructor writes the nonzero structure constants straight
into the sparse tensors of :mod:`hopf`.  A bad table or an inadmissible
parameter fails loudly here; the Hopf axioms are not checked, since the query
that reads a preset checks it once (:func:`hopf.validated`, or ``check-axioms``,
which reports the check).
"""

from __future__ import annotations

from math import isqrt

from .fields import FieldSpec, Scalar
from .hopf import AlgebraData, CoalgebraData, HopfData, dual_hopf
from .linalg import contract


# ---------------------------------------------------------------------------
# Cayley tables
# ---------------------------------------------------------------------------

def cyclic_table(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table() -> list:
    # permutations of {0,1,2} in one-line notation; composition p∘q
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        table.append([index[tuple(p[q[k]] for k in range(3))] for q in perms])
    return table


def q8_table() -> list:
    # element 2u + s is (-1)^s u for the units u = 1, i, j, k: 1, -1, i, -i, j, -j, k, -k
    def unit_product(u, v):  # (sign, unit) of u v, where i j = k, j k = i, k i = j
        if u == 0 or v == 0:
            return 0, u + v
        return (1, 0) if u == v else ((v - u) % 3 == 2, 6 - u - v)

    return [[2 * w + (s ^ a % 2 ^ b % 2) for b in range(8)
             for s, w in [unit_product(a // 2, b // 2)]] for a in range(8)]


GROUP_TABLES = {f"C{n}": (lambda n=n: cyclic_table(n)) for n in range(1, 13)}
GROUP_TABLES["S3"] = s3_table
GROUP_TABLES["Q8"] = q8_table


class NotAGroupError(ValueError):
    pass


def check_group_table(table: list) -> tuple:
    """Closure, identity, inverses, associativity; raises with a witness.
    Returns the identity and the list of inverses."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroupError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotAGroupError(f"entry ({i},{j}) = {v!r} is not an element index")
    identity = None
    for e in range(n):
        if all(table[e][i] == i and table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroupError("no two-sided identity element")
    inverse = [next((j for j in range(n) if table[i][j] == identity == table[j][i]), None)
               for i in range(n)]
    if None in inverse:
        raise NotAGroupError(f"element {inverse.index(None)} has no two-sided inverse")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroupError(f"associativity fails at ({i},{j},{k})")
    return identity, inverse


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_group_algebra(table: list, field: FieldSpec) -> HopfData:
    """KG with Delta(g) = g(x)g, eps(g) = 1, S(g) = g^{-1}."""
    identity, inverse = check_group_table(table)
    n = len(table)
    f = field
    o = f.one
    mult = {(i, j, table[i][j]): o for i in range(n) for j in range(n)}
    comult = {(i, i, i): o for i in range(n)}
    s = {(inverse[i], i): o for i in range(n)}
    return HopfData(AlgebraData(f, n, mult, {(identity,): o}),
                    CoalgebraData(f, n, comult, {(i,): o for i in range(n)}), s, None,
                    [f"g{i}" for i in range(n)])


def preset_function_algebra(table: list, field: FieldSpec) -> HopfData:
    """K^G, built as the dual of the group algebra KG; neither is checked."""
    out = dual_hopf(preset_group_algebra(table, field))
    out.basis = [f"d{i}" for i in range(len(table))]
    return out


def preset_sweedler(field: FieldSpec) -> HopfData:
    """The 4-dimensional Sweedler algebra on basis {1, g, x, gx}.

    Relations g^2 = 1, x^2 = 0, xg = -gx; Delta(g) = g(x)g,
    Delta(x) = x(x)1 + g(x)x; S(g) = g, S(x) = -gx.
    """
    f = field
    if f.characteristic == 2:
        raise ValueError("the Sweedler algebra needs -1 != 1, so char 2 is excluded")
    o = f.one
    m = f.neg(o)
    E, G, X, GX = 0, 1, 2, 3

    # left column: 1·y = y, right: y·1 = y
    mult = {**{(E, i, i): o for i in range(4)}, **{(i, E, i): o for i in range(4)}}
    mult[G, G, E] = o      # g·g = 1
    mult[G, X, GX] = o     # g·x = gx
    mult[G, GX, X] = o     # g·gx = x
    mult[X, G, GX] = m     # x·g = -gx
    mult[GX, G, X] = m     # gx·g = g(xg) = -x
    # all products with two x factors vanish: x·x, x·gx, gx·x, gx·gx

    comult = {(E, E, E): o, (G, G, G): o,
              (X, X, E): o, (X, G, X): o,       # Delta(x) = x(x)1 + g(x)x
              (GX, GX, G): o, (GX, E, GX): o}   # Delta(gx) = Delta(g)Delta(x) = gx(x)g + 1(x)gx
    s = {(E, E): o, (G, G): o,
         (GX, X): m,   # S(x) = -gx
         (X, GX): o}   # S(gx) = S(x)S(g) = -gx·g = x
    return HopfData(AlgebraData(f, 4, mult, {(E,): o}),
                    CoalgebraData(f, 4, comult, {(E,): o, (G,): o}), s, None,
                    ["1", "g", "x", "gx"])


def preset_taft(n: int, q: Scalar, field: FieldSpec) -> HopfData:
    """Taft algebra of dimension n^2: g^n = 1, x^n = 0, xg = q·gx.

    Basis g^a x^b at index b*n + a; q must be a primitive n-th root of unity.
    """
    f = field
    q = f.parse(q) if isinstance(q, (int, str)) else q
    if n < 1:
        raise ValueError("n must be positive")
    p = f.characteristic
    # the roots of unity of Q are 1 and -1; F_p^x is cyclic of order p - 1
    if not p and n > 2:
        raise ValueError(f"Q has no primitive n-th root of unity for n = {n} > 2")
    if p and (p - 1) % n:
        raise ValueError(f"F_{p} has no primitive n-th root of unity for n = {n}: "
                         f"{n} does not divide {p - 1}")

    def power(e):
        return pow(q, e, p) if p else q ** e

    if power(n) != f.one:
        raise ValueError(f"q is not an n-th root of unity for n = {n}")
    # the order of q: the least divisor d of n with q^d = 1, the divisors in pairs (k, n/k)
    order = min(d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)
                if power(d) == f.one)
    if order < n:
        raise ValueError(f"q is not a primitive n-th root of unity for n = {n} (q^{order} = 1)")

    dim = n * n
    o = f.one

    def idx(a, b):
        return b * n + a

    qpow = [o]
    for _ in range(n * n):
        qpow.append(f.mul(qpow[-1], q))

    # (g^a x^b)(g^c x^d) = q^{bc} g^{a+c} x^{b+d}, zero once b + d >= n
    m = {(idx(a, b), idx(c, d), idx((a + c) % n, b + d)): qpow[b * c]
         for a in range(n) for b in range(n) for c in range(n) for d in range(n - b)}
    alg = AlgebraData(f, dim, m, {(idx(0, 0),): o})

    def powers(t, legs):
        """t^0, ..., t^{n-1} for t in H (``legs`` 1) or in the algebra H (x) H (``legs`` 2),
        keyed (exponent, *basis indices)."""
        spec = ("u,v,uvk->k", "ab,cd,acp,bdq->pq")[legs - 1]
        out = [{(idx(0, 0),) * legs: o}]
        for _ in range(n - 1):
            out.append(contract(f, spec, out[-1], t, *[m] * legs))
        return {(e, *k): c for e, pw in enumerate(out) for k, c in pw.items()}

    # comultiplication: Delta(g) = g(x)g and Delta(x) = x(x)1 + g(x)x extended multiplicatively,
    # so Delta(g^a x^b) = Delta(g)^a Delta(x)^b, one product of their powers in H (x) H
    one, g, x = idx(0, 0), idx(1 % n, 0), idx(0, 1 % n)
    comult = contract(f, "apq,prk,brs,qsl->abkl", powers({(g, g): o}, 2), m,
                      powers({(x, one): o, (g, x): o}, 2), m)
    comult = {(idx(a, b), k, l): c for (a, b, k, l), c in comult.items()}
    counit = {(idx(a, 0),): o for a in range(n)}

    # antipode: S(g) = g^{n-1}, S(x) = -g^{-1} x, extended antimultiplicatively,
    # so S(g^a x^b) = S(x)^b S(g)^a, one product of the powers of S(x) and S(g)
    sx = {(idx(n - 1, 1),): f.neg(o)} if n > 1 else {}  # -g^{n-1} x
    s = contract(f, "bu,av,uvk->kba", powers(sx, 1), powers({(idx((n - 1) % n, 0),): o}, 1), m)
    s = {(k, b * n + a): c for (k, b, a), c in s.items()}

    def _nm(a, b):
        ga = "" if a == 0 else ("g" if a == 1 else f"g^{a}")
        xb = "" if b == 0 else ("x" if b == 1 else f"x^{b}")
        return (ga + xb) or "1"

    names = [_nm(a, b) for b in range(n) for a in range(n)]
    return HopfData(alg, CoalgebraData(f, dim, comult, counit), s, None, names)


# ---------------------------------------------------------------------------
# Preset resolution for the CLI and tests
# ---------------------------------------------------------------------------

def resolve_preset(spec: str, field: FieldSpec) -> HopfData:
    """Build a preset from a name like group:C3, functions:S3, sweedler, taft:3:2; its
    Hopf axioms are left to the caller, as for :func:`serialize.hopf_from_dict`."""
    parts = spec.split(":")
    kind = parts[0]
    if kind in ("group", "functions") and len(parts) == 2:
        name = parts[1]
        if name not in GROUP_TABLES:
            raise ValueError(f"unknown group {name!r}; have {sorted(GROUP_TABLES)}")
        preset = preset_group_algebra if kind == "group" else preset_function_algebra
        return preset(GROUP_TABLES[name](), field)
    if kind == "sweedler" and len(parts) == 1:
        return preset_sweedler(field)
    if kind == "taft" and len(parts) == 3 and parts[1].isascii() and parts[1].isdecimal():
        try:
            q = field.parse(parts[2])
        except ValueError as exc:
            raise ValueError(f"cannot parse preset spec {spec!r}: {exc}") from exc
        return preset_taft(int(parts[1]), q, field)
    raise ValueError(f"cannot parse preset spec {spec!r}")
