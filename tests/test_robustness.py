"""Input and failure contracts: an unexpected exception leaves the CLI with a
JSON error and exit 2 (exit 1 means "refuted"), malformed coactions are
rejected as input errors, and ``check_hopf`` contracts the stored tensors
without taking a sparse view of anything."""

import json
import sys

import pytest

from hopfsmith import FieldSpec, QQ, resolve_preset
import hopfsmith.cli as cli
import hopfsmith.hopf as hopf
import hopfsmith.linalg as linalg
from hopfsmith.lifting import lift_algebra_section, square_zero_extension


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


def _square_zero(char=0):
    return square_zero_extension(resolve_preset("group:C2", FieldSpec(char)))


def test_padded_coaction_is_rejected():
    """A coaction tensor (c, v, u) with an image leg v past the 4 basis vectors of E."""
    p = _square_zero()
    p.coact_e = {**p.coact_e, (0, 4, 0): QQ.one}
    with pytest.raises(ValueError, match=r"coact_e must be 4 x 4 x 2, got an entry at \(0, 4, 0\)"):
        lift_algebra_section(p, colinear=True)


def test_truncated_coaction_is_rejected():
    """A coaction read on a space or a Hopf algebra too small for one of its keys:
    an H leg u past dim H = 2 on E, a source c past dim A = 2 on A."""
    p = _square_zero()
    p.coact_e = {**p.coact_e, (1, 1, 2): QQ.one}
    with pytest.raises(ValueError, match=r"coact_e must be 4 x 4 x 2, got an entry at \(1, 1, 2\)"):
        lift_algebra_section(p, colinear=True)
    q = _square_zero()
    q.coact_a = {**q.coact_a, (2, 0, 0): QQ.one}
    with pytest.raises(ValueError, match=r"coact_a must be 2 x 2 x 2, got an entry at \(2, 0, 0\)"):
        lift_algebra_section(q, colinear=True)


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
