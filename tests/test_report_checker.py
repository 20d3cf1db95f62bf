"""An independent checker of the `double-separable` report.

The checker reads only two reports: the `double` report (the multiplication of
D(H), the algebra H and the embedding H -> D(H)) and the "yes" report of
`double-separable` (``idempotent_coords``, entry [a][K] the coefficient of
f_a (x) d_K in H* (x) D(H), which stands for (f_a |><| 1) (x)_H d_K).  It
re-checks the idempotent with plain loops over ints and ``Fraction``s and imports
nothing from ``hopfsmith.linalg``:

- (f_a |><| 1)(eps |><| e_i) = f_a |><| e_i, the freeness on which the
  coordinates rest, with f_a |><| 1 = sum_i u_i (f_a |><| e_i), u the unit of H
  found by Gauss-Jordan elimination on H's multiplication;
- m(e) = sum (f_a |><| 1)·d_K equals the unit eps |><| 1 = sum_r u_r (eps |><| e_r);
- d·e = e·d for every basis vector d of D(H), not only for generators: e·d acts
  on the right leg, and d·(f_a |><| 1) = sum c_P (f_c |><| e_r), P = c·n + r, moves
  to f_c (x) (eps |><| e_r)·d_K.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from hopfsmith import cli

from conftest import GRID


class Scalars:
    """Arithmetic over Q (``Fraction``) or F_p (ints reduced mod p)."""

    def __init__(self, char: int):
        self.p = char

    def read(self, x):
        return int(x) % self.p if self.p else Fraction(x)

    def norm(self, v):
        return v % self.p if self.p else v

    def inv(self, v):
        return pow(v, self.p - 2, self.p) if self.p else 1 / v


def _report(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()) if code in (0, 1) else None


def _sparse_mult(k: Scalars, nested: list) -> dict:
    """{(x, y): {z: c}} from mult[x][y][z]."""
    out = {}
    for x, plane in enumerate(nested):
        for y, row in enumerate(plane):
            entries = {z: k.read(c) for z, c in enumerate(row) if k.read(c)}
            if entries:
                out[x, y] = entries
    return out


def _unit(k: Scalars, nested: list) -> list:
    """The u with sum_i u_i e_i e_j = e_j for every j, by Gauss-Jordan elimination on
    the n^2 equations (j, l): sum_i u_i mult[i][j][l] = [j == l]."""
    n = len(nested)
    rows = [[k.read(nested[i][j][l]) for i in range(n)] + [k.norm(1 if j == l else 0)]
            for j in range(n) for l in range(n)]
    pivots = []
    for col in range(n):
        lead = next(r for r in range(len(pivots), len(rows)) if k.norm(rows[r][col]))
        rows[len(pivots)], rows[lead] = rows[lead], rows[len(pivots)]
        top = rows[len(pivots)]
        scale = k.inv(top[col])
        top[:] = [k.norm(v * scale) for v in top]
        for r, row in enumerate(rows):
            if r != len(pivots) and k.norm(row[col]):
                a = row[col]
                row[:] = [k.norm(v - a * w) for v, w in zip(row, top)]
        pivots.append(col)
    assert all(not any(k.norm(v) for v in row) for row in rows[n:]), "H has no unit"
    return [rows[c][n] for c in range(n)]


def _mul(k: Scalars, mult: dict, x: dict, y: dict) -> dict:
    out = {}
    for p, a in x.items():
        for q, b in y.items():
            for z, c in mult.get((p, q), {}).items():
                out[z] = k.norm(out.get(z, 0) + a * b * c)
    return {z: v for z, v in out.items() if v}


def _add(k: Scalars, into: dict, key, v):
    into[key] = k.norm(into.get(key, 0) + v)


def check_double_separable_report(double: dict, report: dict) -> list:
    """The failed checks, by name, of a `double-separable` "yes" report against the
    `double` report of the same H; an empty list accepts it."""
    k = Scalars(double["double"]["field"]["char"])
    n, N = double["extension"]["small"]["dim"], double["dim"]
    mult = _sparse_mult(k, double["double"]["mult"])
    u = _unit(k, double["extension"]["small"]["mult"])
    emb = [{x: k.read(row[r]) for x, row in enumerate(double["extension"]["embedding"])
            if k.read(row[r])} for r in range(n)]
    free = [{a * n + i: u[i] for i in range(n) if u[i]} for a in range(n)]
    e = {(a, K): k.read(v) for a, row in enumerate(report["idempotent_coords"])
         for K, v in enumerate(row) if k.read(v)}
    failed = []
    if any(_mul(k, mult, free[a], emb[i]) != {a * n + i: 1} for a in range(n) for i in range(n)):
        failed.append("freeness")
    m_e, one = {}, {}
    for (a, K), c in e.items():
        for z, v in _mul(k, mult, free[a], {K: 1}).items():
            _add(k, m_e, z, c * v)
    for r in range(n):
        for x, v in emb[r].items():
            _add(k, one, x, u[r] * v)
    if {z: v for z, v in m_e.items() if v} != {z: v for z, v in one.items() if v}:
        failed.append("m(e)=1")
    moved = {}  # (r, K) -> (eps |><| e_r)·d_K
    for d in range(N):
        left, right = {}, {}
        for (a, K), c in e.items():
            for z, v in mult.get((K, d), {}).items():
                _add(k, right, (a, z), c * v)
            for P, w in _mul(k, mult, {d: 1}, free[a]).items():
                col, r = divmod(P, n)
                if (r, K) not in moved:
                    moved[r, K] = _mul(k, mult, emb[r], {K: 1})
                for z, v in moved[r, K].items():
                    _add(k, left, (col, z), c * w * v)
        if {z: v for z, v in left.items() if v} != {z: v for z, v in right.items() if v}:
            failed.append("bilinear")
            break
    return failed


@pytest.fixture(scope="module")
def yes_reports():
    """(double report, double-separable report) of every GRID case answered "yes"."""
    out = {}
    for spec, char in GRID:
        where = ["--preset", spec, "--char", str(char)]
        code, report = _report(["double-separable", *where])
        if code == 0:
            out[spec, char] = _report(["double", *where])[1], report
    return out


def test_the_checker_accepts_every_grid_yes_report(yes_reports):
    assert len(yes_reports) >= 20
    for case, (double, report) in yes_reports.items():
        assert len(report["idempotent_coords"]) == double["extension"]["small"]["dim"]
        assert {len(row) for row in report["idempotent_coords"]} == {double["dim"]}
        assert check_double_separable_report(double, report) == [], case


@pytest.mark.parametrize("case", [("group:C2", 0), ("group:S3", 3), ("functions:C3", 0)])
def test_the_checker_rejects_a_changed_coordinate(case, yes_reports):
    double, report = yes_reports[case]
    rows = report["idempotent_coords"]
    a, K = next((a, K) for a, row in enumerate(rows) for K, v in enumerate(row) if v != 0)
    changed = [list(row) for row in rows]
    changed[a][K] = str(Fraction(changed[a][K]) + 1) if case[1] == 0 else changed[a][K] + 1
    assert check_double_separable_report(double, {**report, "idempotent_coords": changed})


def test_the_checker_rejects_a_double_that_is_not_free_on_the_f_a(yes_reports):
    double, report = yes_reports["group:C2", 0]
    mult = json.loads(json.dumps(double["double"]["mult"]))
    mult[0][0][1] = 1  # (f_0 |><| e_0)(f_0 |><| e_0) gains f_0 |><| e_1
    assert "freeness" in check_double_separable_report(
        {**double, "double": {**double["double"], "mult": mult}}, report)
