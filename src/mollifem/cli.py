"""Benchmark command line: run experiments, validate configs, fit slopes.

Exit codes: 0 success, 1 invalid config or unusable file (the output directory
is made before the solve), 2 numerical or memory failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .afem import RunRecord, solve
from .config import PRESET_NAMES, ExperimentConfig, preset
from .errors import NumericalError
from .estimate import estimate
from .problems import make_problem
from .vtkio import write_vtk

logger = logging.getLogger("mollifem")


def slope_fit(rows, n_last: int = 5) -> float:
    """Least-squares slope of log(energy_error) vs log(dofs), last n rows."""
    if n_last < 2:
        raise ValueError("need at least 2 samples for a slope")
    tail = list(rows)[-n_last:]
    if len(tail) < 2:
        raise ValueError(f"only {len(tail)} samples available, need >= 2")
    dofs = np.array([row.dofs for row in tail], dtype=np.float64)
    errs = np.array([row.energy_error for row in tail], dtype=np.float64)
    if not np.all(np.isfinite(errs)) or np.any(errs <= 0) or np.any(dofs <= 0):
        raise ValueError("samples must have positive finite energy errors")
    if len(np.unique(dofs)) < 2:
        raise ValueError(f"all {len(tail)} samples have {int(dofs[0])} dofs; "
                         "a slope needs two distinct dof counts")
    return float(np.polyfit(np.log(dofs), np.log(errs), 1)[0])


def _load(path, **overrides) -> ExperimentConfig | None:
    """The config at `path` with `overrides` applied, or None once the
    reasons it cannot run are printed."""
    try:
        cfg = replace(ExperimentConfig.load(path), **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    issues = cfg.issues()
    for msg in issues:
        print(f"invalid config: {msg}", file=sys.stderr)
    return None if issues else cfg


def _cmd_run(args) -> int:
    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.deterministic:
        overrides["deterministic"] = True
    cfg = _load(args.config, **overrides)
    if cfg is None:
        return 1
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable path fails here

    logging.basicConfig(level=logging.INFO, format="%(message)s",
                        stream=sys.stderr)

    problem = make_problem(cfg.problem, cfg.curve_segments,
                           cfg.initial_divisions)
    w, mesh, record, g = solve(problem, cfg.params, cfg.algorithm)
    record.to_csv(out / "run.csv", deterministic=cfg.deterministic)

    # the run's last forcing: a curve forcing has this mesh's records cached
    ind = estimate(w, g)
    write_vtk(out / "solution.vtk", mesh,
              point_data={"solution": w.nodal_values},
              cell_data={"generation": mesh.generation,
                         "indicator_total": ind.total,
                         "indicator_jump": ind.jump,
                         "indicator_data": ind.data})

    samples = record.u_samples()
    summary = {
        "problem": cfg.problem,
        "algorithm": cfg.algorithm,
        "rows": len(record),
        "u_samples": len(samples),
        "final_dofs": record.rows[-1].dofs,
        "final_cells": record.rows[-1].cells,
        "final_estimator": record.rows[-1].estimator_total,
        "final_energy_error": record.rows[-1].energy_error,
    }
    try:
        summary["slope"] = slope_fit(samples, n_last=5)
    except ValueError as exc:
        summary["slope"] = None
        summary["slope_note"] = str(exc)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    line = ", ".join(f"{k}={v}" for k, v in summary.items())
    print(line)
    return 0


def _cmd_validate(args) -> int:
    if _load(args.config) is None:
        return 1
    print("config ok")
    return 0


def _cmd_slopes(args) -> int:
    try:
        record = RunRecord.from_csv(args.csv)
        slope = slope_fit(record.u_samples(), n_last=args.last)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{slope:.6g}")
    return 0


def _cmd_preset(args) -> int:
    text = preset(args.name).to_json()  # argparse admits preset names only
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mollifem",
        description="Adaptive FEM benchmark for line sources on immersed "
                    "curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
    p_run.add_argument("--deterministic", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=_cmd_validate)

    p_slopes = sub.add_parser("slopes", help="fit the convergence slope of a "
                                             "run record CSV")
    p_slopes.add_argument("--csv", required=True)
    p_slopes.add_argument("--last", type=int, default=5)
    p_slopes.set_defaults(fn=_cmd_slopes)

    p_preset = sub.add_parser("preset", help="print a built-in config")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", default=None)
    p_preset.set_defaults(fn=_cmd_preset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, MemoryError) as exc:
        kind = "numerical failure" if isinstance(exc, NumericalError) \
            else "out of memory"
        # Python's own containers raise MemoryError with no message
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"no details (raised at {frame.filename}:{frame.lineno} " \
            f"in {frame.name})"
        print(f"{kind}: {str(exc) or where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
