"""The benchmark's outside-in tracer names functions of ``hopfsmith`` by module
and name (``perfbench/layers.py``); every such name must resolve to a callable,
or a traced benchmark run fails with an ``AttributeError``."""

import ast
import importlib
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
