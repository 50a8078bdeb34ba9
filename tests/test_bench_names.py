"""Names the benchmark's traced run wraps must exist.

`perfbench/layers.py` replaces package callables by attribute lookup, so a
renamed or deleted one makes `perfbench/run.py --trace 1` fail with an
AttributeError. Its tables are imported here, not copied.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mollifem
from mollifem.mesh import rect_mesh

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# A tiny regsolve run (INTERFACE, DATA and MARK passes) and a tiny plain run
# under the layer recorder; prints the names of the spans recorded.
_TRACED_RUNS = """
import json
from layers import Recorder
recorder = Recorder()
recorder.install()
from mollifem import afem
from mollifem.problems import lshape_problem, smooth_problem
afem.solve(lshape_problem(n_segments=1024), afem.AfemParams(
    mu=0.9, beta=0.6, tau0=0.5, j_max=0, kernel_family="tensor_linf"))
afem.solve(smooth_problem(), afem.AfemParams(
    theta=0.5, theta_data=0.5, lam=1.0, tau0=1.0, beta=0.5, j_max=0,
    extra_final_step=False), "plain")
print(json.dumps(sorted({span[0] for span in recorder.spans})))
"""


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
    # the refine span reads its work counts from the last history record,
    # and the traced run writes them to JSON, which takes Python ints only
    mesh = rect_mesh(1, 1)
    for marked in ([0], np.array([0])):
        last = mesh.refine(marked).history[-1]
        assert (last.marked, last.bisections) == (1, 2)
        assert json.loads(json.dumps(last.marked)) == 1


def test_every_traced_afem_name_records_a_span():
    # a name the driver stops calling through `afem`'s globals would read 0 s
    # in every run; `energy_error` is only kept for the tracer, no code
    # calls it (the driver integrates errors through ErrorIntegrator).
    # Installing the recorder patches the package for the rest of its
    # process, so the runs get a process of their own.
    path = os.pathsep.join(filter(None, (
        str(Path(mollifem.__file__).parents[1]), str(LAYERS.parent),
        os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _TRACED_RUNS], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    recorded = set(json.loads(out.stdout.splitlines()[-1]))
    names = set(_layers().MODULE_FUNCTIONS["mollifem.afem"]) - {"energy_error"}
    assert not {f"afem.{name}" for name in names} - recorded
