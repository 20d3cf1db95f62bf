"""Axioms decided on algebra generators, against the checks on all of H.

``hopf.generators`` keeps e_i when it lies outside the span reached from the
unit by left products with the e_i kept before.  The left-nested closure is
recomputed here with dense vectors, so each kept vector must be new to the
closure of the ones before it and that closure must hold every e_j before it.

``check_hopf`` and ``ModuleAction.check`` decide pass or fail on generators
and name a witness with the full check only on a failure; on every
single-entry corruption of the GRID structure maps (S̄ included) and of the
adjoint actions, the decision must equal the full check, and the report or
witness must be the full check's.
"""

import copy
import time

import pytest

from hopfsmith import GF, QQ, hopf, resolve_preset
from hopfsmith.doubles import drinfeld_double
from hopfsmith.hopf import _explained, check_hopf, generators
from hopfsmith.linalg import contract, identity, least_failure, rank
from hopfsmith.yd import ACTIONS, adjoint_action

from conftest import GRID, checked_double
from test_loop_oracles import _corruptions, _e, _mul, _sparse_mat, dense


def _closure(h, gens):
    """The dense basis of the span of the unit under left products with e_g, g in gens."""
    f, n = h.field, h.dim
    mult = dense(f, h.alg.mult, (n, n, n))
    span, todo = [], [dense(f, h.alg.unit, (n,))]
    while todo:
        v = todo.pop()
        if rank(_sparse_mat(f, span + [v], n)) > len(span):
            span.append(v)
            todo += [_mul(f, mult, _e(f, n, g), v) for g in gens]
    return span


def _spans(f, n, span, vectors):
    return rank(_sparse_mat(f, span + vectors, n)) == len(span)


def _assert_greedy(h):
    """Each kept e_g lies outside the closure of the ones before it, which holds
    every e_j before g; the closure of all of them is H."""
    f, n, gens = h.field, h.dim, generators(h.alg)
    for t, g in enumerate(gens + [n]):
        span = _closure(h, gens[:t])
        assert _spans(f, n, span, [_e(f, n, j) for j in range(gens[t - 1] + 1 if t else 0, g)])
        if g < n:
            assert not _spans(f, n, span, [_e(f, n, g)])
    assert len(_closure(h, gens)) == n
    return gens


@pytest.mark.parametrize("spec,char", GRID)
def test_generators_are_the_greedy_pick_and_span(spec, char, preset_cache):
    gens = _assert_greedy(preset_cache(spec, char))
    if spec.startswith("group:C"):
        assert len(gens) == (spec != "group:C1")  # C_n is cyclic
    if spec in ("sweedler", "taft:3:2"):
        assert len(gens) == 2  # the grouplike g and the skew-primitive x


@pytest.mark.parametrize("spec,field", [("taft:4:2", GF(5)), ("taft:5:3", GF(11))])
def test_generators_of_taft_algebras(spec, field):
    assert len(_assert_greedy(resolve_preset(spec, field))) == 2


def test_generators_of_the_double_of_sweedler():
    double, _ = checked_double(resolve_preset("sweedler", QQ))
    _assert_greedy(double)


def test_a_mutation_after_one_check_is_seen_by_the_next():
    """Nothing is stored on the structure: changing a tensor after one check
    changes the generators and the verdict of the next."""
    h = resolve_preset("group:C4", QQ)
    assert generators(h.alg) == [1] and check_hopf(h).all_ok
    del h.alg.mult[1, 1, 2]
    h.alg.mult[1, 1, 3] = QQ.one  # g·g = g^3: g no longer generates
    assert generators(h.alg) != [1]
    rep = check_hopf(h)
    assert not rep.all_ok and rep == _explained(h)
    act = adjoint_action(resolve_preset("group:S3", QQ), "adl")
    assert act.check() == (True, None)
    key = min(k for k in act.tensor if k[0] == 1)  # e_1 is a generator of S3
    act.tensor[key] += 1
    assert act.check() == _full_module_check(act) != (True, None)


@pytest.mark.parametrize("spec,char", GRID)
def test_hopf_decision_equals_the_full_check_on_every_corruption(spec, char, preset_cache,
                                                                 monkeypatch):
    """``check_hopf`` returns the full check's report whenever its decision fails,
    and the all-ok report, with the full check's keys, only when every axiom holds."""
    h = preset_cache(spec, char)
    assert check_hopf(h) == _explained(h)
    monkeypatch.setattr(hopf, "_explained", lambda h: None)  # check_hopf is the decision alone
    failed = 0
    for site, bad in _corruptions(h, inverse=True):
        full = _explained(bad)
        assert (check_hopf(bad) is not None) == full.all_ok, site
        failed += not full.all_ok
    assert failed  # some corruption breaks an axiom


def _full_module_check(act):
    """The unit law and associativity on every basis triple, each at its least witness."""
    f = act.over.field
    t, m = act.tensor, act.over.mult
    if failure := least_failure(1, ("unit", contract(f, "a,ajk->jk", act.over.unit, t),
                                    identity(f, act.space_dim))):
        return False, (failure[1], *failure[0])
    twice = "pjl,ilk->ipjk" if act.side == "left" else "ijl,plk->ipjk"
    failure = least_failure(3, ("associativity", contract(f, "ipa,ajk->ipjk", m, t),
                                contract(f, twice, t, t)))
    return (False, (failure[1], *failure[0])) if failure else (True, None)


@pytest.mark.parametrize("spec,char", GRID)
def test_module_decision_equals_the_full_check_on_every_corruption(spec, char, preset_cache):
    h = preset_cache(spec, char)
    f, n = h.field, h.dim
    for which in ACTIONS:
        act = adjoint_action(h, which)
        for key in [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]:
            bad = copy.copy(act)
            bad.tensor = dict(act.tensor)
            bad.tensor[key] = f.add(bad.tensor.get(key, f.zero), f.one)
            if not bad.tensor[key]:
                del bad.tensor[key]
            assert bad.check() == _full_module_check(bad), (which, key)


def test_the_double_of_taft_4_passes_its_check_within_budget():
    """1(b): D(Taft 4) over F_5, dimension 256, is checked in under 60 s."""
    double, _ = drinfeld_double(resolve_preset("taft:4:2", GF(5)))
    start = time.perf_counter()
    rep = check_hopf(double)
    elapsed = time.perf_counter() - start
    assert rep.all_ok and double.dim == 256
    assert elapsed < 60, f"check_hopf on D(Taft 4) took {elapsed:.1f}s"
