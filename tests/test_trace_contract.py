"""The benchmark's outside-in tracer names functions of ``hopfsmith`` by module
and name (``perfbench/layers.py``); every such name must resolve to a callable,
or a traced benchmark run fails with an ``AttributeError``.  The wrappers also
read the shape of each linalg call's first argument, so one traced query of
each kind must run through them unchanged."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _bindings() -> list:
    """(module, name) pairs of LAYERS, PRIVATE_LINALG and BLIND, read from the
    source without importing or executing it."""
    values = {}
    for node in ast.parse(LAYERS_PY.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("LAYERS", "PRIVATE_LINALG",
                                                                  "BLIND"):
                    values[target.id] = ast.literal_eval(node.value)
    pairs = [(mod, name) for entries in values["LAYERS"].values()
             for mod, names in entries for name in names]
    pairs.append(values["PRIVATE_LINALG"])
    mod, names = values["BLIND"]
    pairs.extend((mod, name) for name in names)
    return pairs


def test_every_traced_name_is_a_module_level_callable():
    pairs = _bindings()
    assert len(pairs) > 50
    missing = [f"{mod}.{name}" for mod, name in pairs
               if not callable(getattr(importlib.import_module(f"hopfsmith.{mod}"), name, None))]
    assert missing == []


TRACED_QUERIES = [
    (["fs-algebra", "--preset", "sweedler"], 1),
    (["lift-section", "--preset", "group:C2", "--char", "2", "--problem", "cyclic-cover:2"], 1),
    (["weak-projection", "--preset", "taft:3:2", "--char", "7"], 0),
    (["double-separable", "--preset", "sweedler"], 1),
    (["double-separable", "--preset", "group:C2", "--char", "2"], 0),
    (["double-separable", "--preset", "group:S3", "--char", "3"], 0),
    # one "yes" per route that builds and serializes a certificate record
    (["separable", "--preset", "group:S3"], 0),
    (["coseparable", "--preset", "group:S3"], 0),
    (["ad-invariant", "--preset", "group:S3"], 0),
    (["fs-coalgebra-complete", "--preset", "group:S3"], 0),
    (["integrals", "--preset", "sweedler"], 0),
    (["weak-projection", "--bilinear", "--preset", "sweedler"], 0),
]

_TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
tracer = layers.Tracer()
main = layers.install(tracer)
codes, verify = [], []
for argv in json.loads(sys.argv[2]):
    before = tracer.calls["integrals.verify"]
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    verify.append(tracer.calls["integrals.verify"] - before)
print(json.dumps({"codes": codes, "rows": tracer.linalg["rows"],
                  "calls": tracer.calls["linalg"], "verify": verify}))
"""


def _traced(argvs: list) -> dict:
    """The exit codes, the linalg rows and calls, and the ``integrals.verify`` calls of
    each query, of the ``argvs`` run in turn under ``layers.install`` in a fresh
    interpreter, since ``install`` rebinds package globals."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(LAYERS_PY), json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_queries_run_through_the_installed_wrappers():
    """One traced query per kind: every wrapped linalg entry point must accept what
    the package passes it (the tracer reads ``.field/.rows/.cols/.data`` from the
    first argument), and the answers must not change under the wrappers."""
    out = _traced([argv for argv, _ in TRACED_QUERIES])
    assert out["codes"] == [code for _, code in TRACED_QUERIES]
    assert out["rows"] > 0 and out["calls"] > 0


def test_both_adjoint_integrals_are_checked_in_the_traced_verify_layer():
    """``ad-invariant`` and ``ad-coinvariant`` each check two certificates in
    ``integrals.verify``: the integral space vector and the ad-(co)invariant integral."""
    out = _traced([[command, "--preset", "group:S3"] for command in ("ad-invariant",
                                                                     "ad-coinvariant")])
    assert out["codes"] == [0, 0] and out["verify"] == [2, 2]
