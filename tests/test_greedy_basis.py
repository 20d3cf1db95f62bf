"""Greedy bases from one elimination against the candidate-by-candidate loops
they replaced: the completion of independent vectors by e_0, e_1, ... (one
rank per candidate) and the independent products of two spanning sets (one
``in_span`` per product)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfsmith import GF, QQ, resolve_preset
from hopfsmith.filtration import _fr_radical_mod_p, _ideal_product, _trace_form_kernel
from hopfsmith.hopf import SubspaceBasis, _completion, dual_algebra
from hopfsmith.linalg import invert, rank

from conftest import GRID
from test_loop_oracles import _columns, _e, _mul, _sparse_mat, _subspace, dense, in_span
from test_loop_oracles import _vectors as _lists_of


def _completed(field, n, vectors):
    """(basis, inverse) from ``_completion``, the completed basis as coordinate lists:
    pivot j < k is vector j, pivot k + i the unit vector e_i."""
    k = len(vectors)
    pivots, inv = _completion(field, n, k, _columns(vectors))
    return [list(vectors[j]) if j < k else _e(field, n, j - k) for j in pivots], inv


def _product(a, xs, ys):
    """``_ideal_product`` on lists of coordinate lists."""
    return _lists_of(a.field, _ideal_product(a, _subspace(a.dim, xs), _subspace(a.dim, ys)))


def _completion_oracle(field, n, vectors):
    """(basis, inverse), keeping e_i when the candidate matrix gains full rank."""
    chosen = [list(v) for v in vectors]
    for i in range(n):
        if len(chosen) == n:
            break
        cand = chosen + [_e(field, n, i)]
        if rank(_sparse_mat(field, cand, n)) == len(cand):
            chosen = cand
    # dependent vectors are never completed to n, and then no inverse exists
    inv = invert(_sparse_mat(field, [list(row) for row in zip(*chosen)], n)) \
        if len(chosen) == n else None
    if inv is None:
        raise ValueError("subspace vectors are not linearly independent")
    return chosen, inv


def _ideal_product_oracle(a, xs, ys):
    """The nonzero products x·y, in order, that are outside the span of the kept ones."""
    f = a.field
    mult = dense(f, a.mult, (a.dim,) * 3)
    out = []
    for pvec in (_mul(f, mult, x, y) for x in xs for y in ys):
        if any(pvec) and not in_span(f, out, pvec):
            out.append(pvec)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _vectors(draw, f, n, max_size):
    """Vectors of length n mixing zero vectors, combinations of earlier draws and
    free draws, so dependent lists occur."""
    if f.characteristic:
        scalar = st.integers(0, f.characteristic - 1)
    else:
        scalar = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2]))
    out = []
    for kind in draw(st.lists(st.sampled_from(["zero", "combo", "free", "free"]),
                              max_size=max_size)):
        if kind == "zero":
            out.append([f.zero] * n)
        elif kind == "combo":
            v = [f.zero] * n
            for b in out:
                c = draw(scalar)
                v = [f.add(x, f.mul(c, y)) for x, y in zip(v, b)]
            out.append(v)
        else:
            out.append(draw(st.lists(st.one_of(st.just(f.zero), scalar), min_size=n,
                                     max_size=n)))
    return out


@st.composite
def completion_case(draw):
    f = draw(st.sampled_from([GF(5), QQ]))
    n = draw(st.integers(0, 5))
    return f, n, _vectors(draw, f, n, 6)


@settings(max_examples=300, deadline=None)
@given(completion_case())
def test_completion_equals_rank_per_candidate(case):
    f, n, vectors = case
    assert _outcome(_completed, f, n, vectors) == _outcome(_completion_oracle, f, n, vectors)


def test_completion_of_dependent_vectors_raises():
    f = GF(5)
    with pytest.raises(ValueError, match="not linearly independent"):
        _completed(f, 2, [[1, 2], [2, 4]])
    # fewer dependent vectors than the dimension: no square matrix to invert is named
    with pytest.raises(ValueError, match="not linearly independent"):
        _completed(f, 3, [[1, 2, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="not linearly independent"):
        SubspaceBasis(3, {(0, 0): 1, (0, 1): 1}).tensors(QQ)


_SPECS = {5: ["sweedler", "group:C4", "group:S3", "functions:C2"],
          0: ["sweedler", "group:C3", "functions:S3", "group:C2"]}


@st.composite
def product_case(draw):
    char = draw(st.sampled_from([5, 0]))
    h = resolve_preset(draw(st.sampled_from(_SPECS[char])), GF(char) if char else QQ)
    a = dual_algebra(h.coa) if draw(st.booleans()) else h.alg
    return a, _vectors(draw, a.field, a.dim, 4), _vectors(draw, a.field, a.dim, 4)


@settings(max_examples=150, deadline=None)
@given(product_case())
def test_ideal_product_equals_in_span_loop(case):
    a, xs, ys = case
    assert _product(a, xs, ys) == _ideal_product_oracle(a, xs, ys)


@pytest.mark.parametrize("spec, char", GRID)
def test_radical_products_equal_in_span_loop(preset_cache, spec, char):
    h = preset_cache(spec, char)
    for a in (h.alg, dual_algebra(h.coa)):
        rad = _lists_of(a.field, _fr_radical_mod_p(a) if char else _trace_form_kernel(a))
        for xs in (rad, [_e(a.field, a.dim, i) for i in range(a.dim)]):
            assert _product(a, xs, rad) == _ideal_product_oracle(a, xs, rad)
