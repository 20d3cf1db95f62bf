"""Input and failure contracts: an unexpected exception leaves the CLI with a
JSON error and exit 2 (exit 1 means "refuted"), malformed coactions are
rejected as input errors, and ``check_hopf`` contracts the stored tensors
without taking a sparse view of anything."""

import json

import pytest

from hopfsmith import FieldSpec, QQ, resolve_preset
import hopfsmith.cli as cli
import hopfsmith.hopf as hopf
from hopfsmith.lifting import lift_algebra_section, square_zero_extension
from hopfsmith.linalg import Mat


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
    p = _square_zero()
    m = p.coact_e
    p.coact_e = Mat(QQ, m.rows + 3, m.cols, m.data + [[QQ.one] * m.cols for _ in range(3)])
    with pytest.raises(ValueError, match="coact_e must be 8 x 4"):
        lift_algebra_section(p, colinear=True)


def test_truncated_coaction_is_rejected():
    p = _square_zero()
    m = p.coact_e
    p.coact_e = Mat(QQ, m.rows - 1, m.cols, m.data[:-1])
    with pytest.raises(ValueError, match="coact_e must be 8 x 4"):
        lift_algebra_section(p, colinear=True)
    q = _square_zero()
    m = q.coact_a
    q.coact_a = Mat(QQ, m.rows, m.cols + 1, [row + [QQ.zero] for row in m.data])
    with pytest.raises(ValueError, match="coact_a must be 4 x 2"):
        lift_algebra_section(q, colinear=True)


def test_check_hopf_takes_no_sparse_view(monkeypatch):
    h = resolve_preset("sweedler", QQ)
    calls = []
    real = hopf.sparse

    def counting(nested):
        calls.append(id(nested))
        return real(nested)

    monkeypatch.setattr(hopf, "sparse", counting)
    assert hopf.check_hopf(h).all_ok
    assert calls == []
