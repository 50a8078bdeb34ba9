"""Names the benchmark's traced run wraps must exist.

`perfbench/layers.py` replaces package callables by attribute lookup, so a
renamed or deleted one makes `perfbench/run.py --trace 1` fail with an
AttributeError. Its tables are imported here, not copied.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from mollifem.mesh import rect_mesh

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    layers = _layers()
    for modname, names in layers.MODULE_FUNCTIONS.items():
        module = importlib.import_module(modname)
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
    for (modname, clsname), names in layers.CLASS_METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname)
        for attr in names:
            assert callable(getattr(cls, attr, None)), f"{clsname}.{attr}"
    assert callable(importlib.import_module("mollifem.fem").cg)
    # the refine span reads its work counts from the last history record
    mesh = rect_mesh(1, 1)
    last = mesh.refine(mesh.active_id_array[:1]).history[-1]
    assert (last.marked, last.bisections) == (1, 2)
