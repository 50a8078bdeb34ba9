"""Per-layer spans of one mollifem run, recorded from outside the package.

Each traced callable is replaced where its callers look it up: in the
calling module's globals for functions imported by name (``solve_loop`` calls
``mollifem.afem.assemble``, so wrapping ``mollifem.fem.assemble`` would time
nothing), and on the class for methods. A span records its name, start, end,
parent span and, for a few layers, a work count. Spans stay in memory and are
summarised once the run has ended.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# Functions, keyed by the module whose globals the callers read them from.
MODULE_FUNCTIONS = {
    "mollifem.afem": ("assemble", "solve_galerkin", "prolong", "estimate",
                      "interface_loop", "data_loop", "mark",
                      "interface_cells", "energy_error"),
    "mollifem.fem": ("interface_cells",),
    "mollifem.cli": ("estimate", "write_vtk"),
}

# Methods, keyed by (module, class).
CLASS_METHODS = {
    ("mollifem.mesh", "Mesh"): ("refine", "is_conforming"),
    ("mollifem.forcing", "RegularizedForcing"): ("load_vector",
                                                 "data_indicator", "eval"),
    ("mollifem.forcing", "DensityForcing"): ("load_vector", "data_indicator"),
    ("mollifem.forcing", "LineForcing"): ("load_vector", "data_indicator"),
    ("mollifem.fem", "ErrorIntegrator"): ("__call__",),
}

FORCINGS = ("RegularizedForcing", "DensityForcing", "LineForcing")


def _refine_work(args, out):
    # An empty marked set returns the mesh itself and records no history.
    if out is args[0]:
        return {"marked": 0, "bisections": 0}
    last = out.history[-1]
    return {"marked": last.marked, "bisections": last.bisections}


def _eval_work(args, out):
    return {"points": len(out)}


WORK = {"Mesh.refine": _refine_work, "RegularizedForcing.eval": _eval_work}


class Recorder:
    """Span stack and span list for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._open: list[int] = []

    def wrap(self, name, fn, work=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          open_[-1] if open_ else -1, None])
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
                if work is not None:
                    spans[idx][4] = work(args, out)
                return out
            finally:
                spans[idx][2] = time.perf_counter()
                open_.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced callable, and count CG iterations.

        Modules come from ``importlib`` (that is, ``sys.modules``): the
        package attribute ``mollifem.estimate`` is the function of that name,
        not the module.
        """
        for modname, names in MODULE_FUNCTIONS.items():
            mod = importlib.import_module(modname)
            short = modname.rsplit(".", 1)[1]
            for attr in names:
                name = f"{short}.{attr}"
                setattr(mod, attr,
                        self.wrap(name, getattr(mod, attr), WORK.get(name)))
        for (modname, clsname), names in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(modname), clsname)
            for attr in names:
                name = f"{clsname}.{attr}"
                setattr(cls, attr,
                        self.wrap(name, getattr(cls, attr), WORK.get(name)))
        fem = importlib.import_module("mollifem.fem")
        fem.cg = self.wrap("fem.cg", self._counting_cg(fem.cg))

    def note(self, **counts) -> None:
        """Set the work counts of the innermost open span."""
        self.spans[self._open[-1]][4] = counts

    def _counting_cg(self, cg):
        """`cg` with a callback that counts iterations into its span."""

        def counted(A, b, *args, **kwargs):
            iters = 0

            def count(_xk):
                nonlocal iters
                iters += 1

            out = cg(A, b, *args, callback=count, **kwargs)
            self.note(iters=iters, dof_iters=A.shape[0] * iters)
            return out

        return counted

def summarize(spans: list, wall_s: float) -> dict:
    """Self and total times by span name, reduced to the per-layer metrics.

    Self time is a span's duration minus the durations of its child spans.
    ``afem.self_s`` is the traced wall time not covered by any top-level
    span, so the self times of all spans plus ``afem.self_s`` add up to the
    traced wall time; ``closure_error_s`` is the measured gap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_ = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(lambda: defaultdict(int))
    top = 0.0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        total[name] += end - start
        self_[name] += end - start - child[i]
        calls[name] += 1
        if parent < 0:
            top += end - start
        for key, value in (counts or {}).items():
            work[name][key] += value
    afem_self = wall_s - top
    closure_error = abs(sum(self_.values()) + afem_self - wall_s)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    refine = work["Mesh.refine"]
    cg = work["fem.cg"]
    points = work["RegularizedForcing.eval"]["points"]
    solves = calls["afem.solve_galerkin"]
    metrics = {
        "trace.wall_s": wall_s,
        "mesh.refine_s": self_["Mesh.refine"],
        "mesh.us_per_bisection": ratio(self_["Mesh.refine"],
                                       refine["bisections"], 1e6),
        "mesh.bisections": refine["bisections"],
        "mesh.closure_ratio": ratio(refine["bisections"], refine["marked"]),
        "mesh.is_conforming_s": self_["Mesh.is_conforming"],
        "mesh.interface_cells_s": (self_["afem.interface_cells"]
                                   + self_["fem.interface_cells"]),
        "forcing.load_vector_s": sum(total[f"{c}.load_vector"]
                                     for c in FORCINGS),
        "forcing.data_indicator_s": sum(total[f"{c}.data_indicator"]
                                        for c in FORCINGS),
        "forcing.data_indicator_calls": sum(calls[f"{c}.data_indicator"]
                                            for c in FORCINGS),
        "forcing.eval_points": points,
        "forcing.ns_per_point": ratio(total["RegularizedForcing.eval"],
                                      points, 1e9),
        "fem.solve_s": total["afem.solve_galerkin"],
        "fem.cg_iters": cg["iters"],
        "fem.cg_iters_per_solve": ratio(cg["iters"], solves),
        "fem.ns_per_dof_iter": ratio(total["afem.solve_galerkin"],
                                     cg["dof_iters"], 1e9),
        "fem.assemble_s": self_["afem.assemble"],
        "fem.prolong_s": self_["afem.prolong"],
        "fem.error_s": (self_["ErrorIntegrator.__call__"]
                        + self_["afem.energy_error"]),
        "estimate.self_s": self_["afem.estimate"],
        "cli.final_estimate_s": total["cli.estimate"],
        "vtkio.write_vtk_s": total["cli.write_vtk"],
        "afem.solves": solves,
        "afem.mark_s": self_["afem.mark"],
        "afem.self_s": afem_self,
    }
    return {"metrics": metrics,
            "self_s": dict(self_), "total_s": dict(total),
            "calls": dict(calls),
            "closure_error_s": closure_error}


def median_metrics(summaries: list[dict]) -> dict:
    """Median of each per-layer metric over several traced runs."""
    names = summaries[0]["metrics"]
    return {k: statistics.median(s["metrics"][k] for s in summaries)
            for k in names}
