"""Input and failure contracts: an unexpected exception leaves the CLI with a
JSON error and exit 2 (exit 1 means "refuted"), malformed coactions and lift
pairs are rejected as input errors, and ``check_hopf`` contracts the stored tensors
without taking a sparse view of anything."""

import json
import sys
from dataclasses import replace

import pytest

from hopfsmith import QQ, resolve_preset
import hopfsmith.cli as cli
import hopfsmith.hopf as hopf
import hopfsmith.linalg as linalg
from hopfsmith.lifting import coaction_pairs, lift_algebra_section, square_zero_extension


@pytest.mark.parametrize("exc", [MemoryError("out of memory"), IndexError("list index")])
def test_unexpected_exception_exits_2_with_one_json_line(monkeypatch, capsys, exc):
    def broken(args):
        raise exc

    monkeypatch.setitem(cli.HANDLERS, "coradical", broken)
    assert cli.main(["coradical", "--preset", "group:C2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": f"internal error: {type(exc).__name__}: {exc}"}


def test_base_exceptions_pass_through(monkeypatch):
    class Interrupt(BaseException):
        pass

    def interrupted(args):
        raise Interrupt

    monkeypatch.setitem(cli.HANDLERS, "coradical", interrupted)
    with pytest.raises(Interrupt):
        cli.main(["coradical", "--preset", "group:C2"])


def _regular_coactions(h):
    """(pi, coact_e, coact_a) of the colinear square-zero extension of ``h``: the coactions
    (c, v, u) read back from its pairs, stacked (u, v, c)."""
    p = square_zero_extension(h, colinear=True)
    coact_e, coact_a = ({(c, v, u): x for (u, v, c), x in pairs.items()}
                        for pairs in (p.beta, p.alpha))
    return p.pi, coact_e, coact_a


def test_padded_coaction_is_rejected():
    """A coaction tensor (c, v, u) with an image leg v past the 4 basis vectors of E."""
    h = resolve_preset("group:C2", QQ)
    pi, coact_e, coact_a = _regular_coactions(h)
    padded = {**coact_e, (0, 4, 0): QQ.one}
    with pytest.raises(ValueError, match=r"coact_e must be 4 x 4 x 2, got an entry at \(0, 4, 0\)"):
        coaction_pairs(h, pi, padded, coact_a, 4, 2)


def test_truncated_coaction_is_rejected():
    """A coaction read on a space or a Hopf algebra too small for one of its keys:
    an H leg u past dim H = 2 on E, a source c past dim A = 2 on A."""
    h = resolve_preset("group:C2", QQ)
    pi, coact_e, coact_a = _regular_coactions(h)
    bad_e = {**coact_e, (1, 1, 2): QQ.one}
    with pytest.raises(ValueError, match=r"coact_e must be 4 x 4 x 2, got an entry at \(1, 1, 2\)"):
        coaction_pairs(h, pi, bad_e, coact_a, 4, 2)
    bad_a = {**coact_a, (2, 0, 0): QQ.one}
    with pytest.raises(ValueError, match=r"coact_a must be 2 x 2 x 2, got an entry at \(2, 0, 0\)"):
        coaction_pairs(h, pi, coact_e, bad_a, 4, 2)


@pytest.mark.parametrize("spec", ["group:C2", "sweedler"])
def test_a_map_that_does_not_intertwine_the_coactions_is_rejected(spec):
    """Both coactions are comodules, Delta on E and the trivial v -> v (x) 1 on A, but pi
    sends Delta on E to Delta on A, not to the trivial coaction."""
    h = resolve_preset(spec, QQ)
    n = h.dim
    pi, coact_e, _ = _regular_coactions(h)
    trivial = {(c, c, u): x for c in range(n) for (u,), x in h.alg.unit.items()}
    with pytest.raises(ValueError, match="^pi is not colinear$"):
        coaction_pairs(h, pi, coact_e, trivial, 2 * n, n)


@pytest.mark.parametrize("alpha,beta,message", [
    ({(0, 7, 0): QQ.one}, {}, r"alpha must be 2 x 2 x 2, got an entry at \(0, 7, 0\)"),
    ({}, {(0, 9, 9): QQ.one}, r"beta must be 2 x 4 x 4, got an entry at \(0, 9, 9\)"),
    (None, {}, "^alpha and beta must index the same operators u$")],
    ids=["alpha-past-A", "beta-past-E", "beta-without-alpha"])
def test_lift_pairs_outside_their_shape_are_rejected(alpha, beta, message):
    """The pairs of the colinear square-zero problem on kC2, with an entry past dim A = 2
    in alpha, one past dim E = 4 in beta, or no alpha at all: no section is lifted."""
    p = square_zero_extension(resolve_preset("group:C2", QQ), colinear=True)
    changed = replace(p, alpha={} if alpha is None else {**p.alpha, **alpha},
                      beta={**p.beta, **beta})
    with pytest.raises(ValueError, match=message):
        lift_algebra_section(changed)


def test_check_hopf_takes_no_sparse_view(monkeypatch):
    h = resolve_preset("sweedler", QQ)
    calls = []
    real = linalg.sparse

    def counting(nested):
        calls.append(id(nested))
        return real(nested)

    for name, mod in list(sys.modules.items()):  # every binding in the package
        if name.startswith("hopfsmith") and getattr(mod, "sparse", None) is real:
            monkeypatch.setattr(mod, "sparse", counting)
    assert hopf.check_hopf(h).all_ok
    assert calls == []
