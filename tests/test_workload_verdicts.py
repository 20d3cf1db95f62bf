"""The benchmark's verdict table, in tier-1: every query of the three workload
lists of ``perfbench/queries.py`` runs once in-process and must exit with the
code written there from the theory.  The file is read, never edited, and no
report bytes are pinned, so a schema addition does not fail here."""

import contextlib
import importlib.util
import io
from pathlib import Path

from hopfsmith import cli

QUERIES_PY = Path(__file__).resolve().parent.parent / "perfbench" / "queries.py"


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_queries", QUERIES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_every_workload_query_exits_with_its_theory_written_code():
    workloads = _workloads()
    assert sorted(workloads) == ["certify", "double", "structure"]
    wrong = []
    for name, queries in workloads.items():
        for argv, expected, why in queries:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv.split())
            if code != expected:
                wrong.append(f"{name}: {argv} exited {code}, expected {expected} ({why})")
    assert sum(map(len, workloads.values())) == 374
    assert wrong == []
