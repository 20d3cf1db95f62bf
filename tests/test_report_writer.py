"""The report writer of ``cli._emit`` against the standard library.

Reports are rendered by ``cli._dumps``, which must print exactly what
``json.dumps(report, sort_keys=True, indent=2)`` prints.  The cases cover the
large ``double`` reports of every GRID case and every subcommand on three
presets: empty lists, ``None`` witnesses, booleans, rational ``"p/q"`` strings,
nested certificates, and the exit-1 and exit-2 paths.
"""

import contextlib
import io
import json

import pytest

from hopfsmith import cli

from conftest import GRID

PRESETS = [("sweedler", 0), ("taft:3:2", 7), ("functions:S3", 2)]


def _emitted(monkeypatch, tmp_path, argv):
    """(exit code, stdout, --output file text or None, the report dicts given to _emit)."""
    reports = []
    inner = cli._emit

    def recording(report, args):
        reports.append(report)
        return inner(report, args)

    monkeypatch.setattr(cli, "_emit", recording)
    out = tmp_path / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--output", str(out)])
    return code, stdout.getvalue(), out.read_text() if out.exists() else None, reports


def _assert_stdlib_bytes(code, stdout, on_disk, reports):
    if code == 2:  # an input error: the JSON error goes to stderr, no report is written
        assert reports == [] and stdout == "" and on_disk is None
        return
    (report,) = reports
    expected = json.dumps(report, sort_keys=True, indent=2)
    assert cli._dumps(report) == expected
    assert stdout == expected + "\n"
    assert on_disk == expected + "\n"


@pytest.mark.parametrize("spec,char", GRID)
def test_double_report_is_byte_identical_to_stdlib(monkeypatch, tmp_path, spec, char):
    result = _emitted(monkeypatch, tmp_path, ["double", "--preset", spec, "--char", str(char)])
    assert result[0] == 0
    _assert_stdlib_bytes(*result)


@pytest.mark.parametrize("command", [c for c in cli.SUBCOMMANDS
                                     if c not in ("double", "truth-table")])
@pytest.mark.parametrize("spec,char", PRESETS)
def test_every_subcommand_report_is_byte_identical_to_stdlib(monkeypatch, tmp_path, command,
                                                             spec, char):
    _assert_stdlib_bytes(*_emitted(monkeypatch, tmp_path,
                                   [command, "--preset", spec, "--char", str(char)]))


def test_truth_table_report_is_byte_identical_to_stdlib(monkeypatch, tmp_path):
    _assert_stdlib_bytes(*_emitted(monkeypatch, tmp_path, ["truth-table"]))


@pytest.mark.parametrize("value", [
    [], {}, [[]], [[], [1]], [[1, 2], [3]], [[1, [2]], [3, 4]], [[{"a": []}]],
    [None, True, False, 0, -3, "1/2", 2.5, "a\nbé\"\\"], {"b": [[1, 2]], "a": {"c": None}},
    {1: "int key"}, {"x": (1, 2)}, [(1, 2), (3, 4)], [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
])
def test_writer_matches_stdlib_on_edge_shapes(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)
