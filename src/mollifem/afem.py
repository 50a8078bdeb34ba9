"""The adaptive driver: marking, data reduction, interface resolution and
one loop over the tolerance schedule.

`solve` walks the stages of one of three algorithms. `regsolve` runs
tau_j = tau0 * beta^j (j = 0..j_max): each stage resolves the curve
neighbourhood to the mollification radius r_j = tau_j^2 (interface_loop),
then refines until the total estimator is at most mu * tau_j; an optional
last stage only updates the radius, in one row of branch RADIUS. `baseline`
walks the same stages on the unmollified line source, and `plain` is one
stage on a volume density. Every pass is SOLVE, ESTIMATE, then MARK and
REFINE: when the data part dominates (D > lambda * theta * E) it drives D
down with Doerfler marking on the data indicators alone (data_loop);
otherwise it marks on the total indicators.

SOLVE is CG from the prolonged last solution. The first solve of a run is
tight (`fem.CG_RTOL`); every later one stops once the preconditioned
residual norm sqrt(r^T B r) is at most LAMBDA_ALG times the last row's
estimator, and resumes on the same system, then estimates again, while it
exceeds LAMBDA_ALG times its own. So each row's algebraic error is at most
about LAMBDA_ALG times its estimator (Gantner, Haberl, Praetorius and
Schimanko, Math. Comp. 90, 2021).

Every pass appends one row to a RunRecord; rows serialize to CSV for the
benchmark tooling.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .curves import Curve, interface_cells
from .errors import NonTerminationError
from .estimate import estimate
from .fem import (LAMBDA_ALG, ErrorIntegrator, assemble, prolong,
                  solve_galerkin)
from .fem import energy_error  # noqa: F401  (perfbench/layers.py traces it)
from .forcing import (KERNEL_FAMILIES, Kernel, LineForcing,
                      RegularizedForcing, r_of_tau)
from .mesh import Mesh

logger = logging.getLogger("mollifem")

DATA_PASS_CAP = 10_000
SOLVE_PASS_CAP = 1_000
INTERFACE_PASS_CAP = 10_000

ALGORITHMS = ("regsolve", "baseline", "plain")
BRANCHES = ("INIT", "INTERFACE", "DATA", "MARK", "RADIUS")


def is_int(x) -> bool:
    """An integer, and not a bool: JSON true is no count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class AfemParams:
    """Knobs of the adaptive drivers; all live in the stated open intervals."""

    theta: float = 0.7
    theta_data: float = 0.7
    lam: float = 1.0 / 3.0
    mu: float = 0.5
    beta: float = 0.8
    tau0: float = 0.6
    j_max: int = 6
    single_shot: bool = False
    kernel_family: str = "radial_c1"
    extra_final_step: bool = True

    def issues(self) -> list[str]:
        bad = []
        for name, x, hi in (("theta", self.theta, 1.0),
                            ("theta_data", self.theta_data, 1.0),
                            ("lambda", self.lam, 1.0), ("mu", self.mu, 1.0),
                            ("beta", self.beta, 1.0),
                            ("tau0", self.tau0, math.inf)):
            if not (is_int(x) or isinstance(x, (float, np.floating))):
                bad.append(f"{name}={x!r} not a real number")
            elif not (0.0 < x < hi or name == "lambda" and x == hi):
                end = "]" if name == "lambda" else ")"
                bad.append(f"{name}={x} outside (0,{hi:g}{end}")
        if not (is_int(self.j_max) and self.j_max >= 0):
            bad.append(f"j_max={self.j_max!r} not a nonnegative integer")
        for name in ("single_shot", "extra_final_step"):
            if not isinstance(getattr(self, name), bool):
                bad.append(f"{name}={getattr(self, name)!r} not true or false")
        if self.kernel_family not in KERNEL_FAMILIES:
            bad.append(f"kernel_family={self.kernel_family!r} unknown")
        return bad

    def validate(self) -> "AfemParams":
        bad = self.issues()
        if bad:
            raise ValueError("invalid parameters: " + "; ".join(bad))
        return self


@dataclass
class RunRow:
    j: int
    k: int
    tau: float
    r: float
    dofs: int
    cells: int
    estimator_total: float
    estimator_jump: float
    estimator_data: float
    energy_error: float
    branch: str
    wall_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(RunRow))
# each column's type, from its field's annotation; floats are written with
# ".17g", so they read back exactly
_CSV_TYPES = tuple({"int": int, "float": float, "str": str}[f.type]
                   for f in fields(RunRow))


@dataclass
class RunRecord:
    """Row per pass, in execution order."""

    rows: list[RunRow] = field(default_factory=list)

    def append(self, row: RunRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, path, deterministic: bool = False) -> None:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            row = replace(row, wall_ms=0.0) if deterministic else row
            lines.append(",".join(
                format(float(x), ".17g") if t is float else str(x)
                for t, x in zip(_CSV_TYPES, astuple(row))))
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "RunRecord":
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0] != ",".join(CSV_COLUMNS):
            raise ValueError(f"{path}: not a run record (bad header)")
        rec = cls()
        for ln in lines[1:]:
            p = ln.split(",")
            if len(p) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: malformed row {ln!r}")
            rec.append(RunRow(*(t(x) for t, x in zip(_CSV_TYPES, p))))
        return rec

    def u_samples(self) -> list[RunRow]:
        """Last row of each outer stage (the accepted approximations), in
        order of the stages' first rows; the radius update (`RADIUS`) is no
        accepted approximation and is skipped."""
        last: dict[int, RunRow] = {}
        for row in self.rows:
            if row.branch != "RADIUS":
                last[row.j] = row
        return list(last.values())


def mark(values: np.ndarray, theta: float) -> np.ndarray:
    """Smallest set of cell rows with sum of squared indicators >= theta^2
    times the global sum; descending values, ascending row on ties."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0,1)")
    values = np.asarray(values, dtype=np.float64)
    sq = values * values
    total = sq.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-values, kind="stable")
    csum = np.cumsum(sq[order])
    target = theta * theta * total
    cut = int(np.searchsorted(csum, target, side="left"))
    cut = min(cut, len(csum) - 1)
    return order[:cut + 1]


def data_loop(mesh: Mesh, g, tau: float, theta_data: float) -> Mesh:
    """Refine on data indicators until the global data term is <= tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    for _ in range(DATA_PASS_CAP):
        d = g.data_indicator(mesh)
        total = float(np.sqrt((d * d).sum()))
        if total <= tau:
            return mesh
        mesh = mesh.refine(mark(d, theta_data))
    raise NonTerminationError(
        f"data reduction did not reach tau={tau:.3g} in {DATA_PASS_CAP} passes")


def interface_loop(mesh: Mesh, curve: Curve, r: float) -> Mesh:
    """Refine cells meeting the curve until they all satisfy h_T <= r/2."""
    if r <= 0:
        raise ValueError("r must be positive")
    for _ in range(INTERFACE_PASS_CAP):
        cells = interface_cells(mesh, curve)
        coarse = cells[mesh.h_sizes[cells] > 0.5 * r]
        if not len(coarse):
            return mesh
        mesh = mesh.refine(coarse)
    raise NonTerminationError(
        f"interface resolution to r={r:.3g} exceeded {INTERFACE_PASS_CAP} passes")


def _stages(params: AfemParams, algorithm: str) -> list[tuple[float, float]]:
    """(tau, tolerance) of each stage: tau_j = tau0 * beta^j for j <= j_max,
    or its last value alone when single-shot; `regsolve` may add the radius
    update, and `plain` is one stage at its final tolerance."""
    p = params
    if algorithm == "plain":
        tol = p.mu * p.tau0 * p.beta ** p.j_max
        return [(tol, tol)]
    if p.single_shot:
        taus = [p.tau0 * p.beta ** p.j_max]
    else:
        taus = [p.tau0]
        for _ in range(p.j_max):
            taus.append(p.beta * taus[-1])
    stages = [(tau, p.mu * tau) for tau in taus]
    if algorithm == "regsolve" and p.extra_final_step:
        # radius update only: one interface pass and one solve at the next
        # radius, which an infinite tolerance accepts without refinement
        stages.append((p.beta * taus[-1], math.inf))
    return stages


def solve(problem, params: AfemParams, algorithm: str = "regsolve"):
    """Walk the tolerance schedule of `algorithm` (one of ALGORITHMS).

    `problem` supplies the domain mesh, the curve with its density, boundary
    values and (optionally) the exact solution; see the problems module.
    Returns (solution, mesh, record, forcing), the forcing being that of the
    last solve, with its per-cell integrals of the final mesh cached.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick one of "
                         f"{ALGORITHMS}")
    params.validate()
    record = RunRecord()
    err_fn = None
    if problem.exact is not None:
        err_fn = ErrorIntegrator(problem.exact, problem.curve)
    mesh = problem.initial_mesh()
    w = ind = eta = None  # the last solve, its indicators and estimator
    r, first_branch = 0.0, "INIT"
    if algorithm == "regsolve":
        kernel, first_branch = Kernel(params.kernel_family), "INTERFACE"
    elif algorithm == "baseline":
        g = LineForcing(problem.curve)
    else:
        g = problem.density

    for j, (tau, tol) in enumerate(_stages(params, algorithm)):
        t_stage = time.perf_counter()
        if algorithm == "regsolve":
            r, g = r_of_tau(tau), None
            mesh = interface_loop(mesh, problem.curve, r)
        k, branch = 0, first_branch if math.isfinite(tol) else "RADIUS"
        while True:
            # the warm start first: then nothing holds the last solution, its
            # indicators, its mesh or (regsolve, a stage's first pass) its
            # forcing while this pass allocates
            t0 = time.perf_counter()
            guess = None if w is None else prolong(w, mesh).nodal_values
            w = ind = None
            if g is None:
                g = RegularizedForcing(problem.curve, kernel, r)
            system = assemble(mesh, g, problem.boundary_data)
            w = solve_galerkin(system, guess,
                               None if eta is None else LAMBDA_ALG * eta)
            ind = estimate(w, g)
            while w.residual > LAMBDA_ALG * ind.global_total:
                w = solve_galerkin(system, w.nodal_values,
                                   LAMBDA_ALG * ind.global_total)
                ind = estimate(w, g)
            system, eta = None, ind.global_total
            err = float("nan") if err_fn is None else err_fn(w)
            record.append(RunRow(j, k, tau, r, mesh.num_vertices,
                                 mesh.num_cells, ind.global_total,
                                 ind.global_jump, ind.global_data, err,
                                 branch, (time.perf_counter() - t0) * 1e3))
            logger.debug("pass j=%d k=%d (%s): E=%.4g D=%.4g dofs=%d", j, k,
                         branch, ind.global_total, ind.global_data,
                         mesh.num_vertices)
            if ind.global_total <= tol:
                break
            if k >= SOLVE_PASS_CAP:
                raise NonTerminationError(
                    f"adaptive solve stalled: estimator "
                    f"{ind.global_total:.3g} > tolerance {tol:.3g} after "
                    f"{SOLVE_PASS_CAP} passes at {mesh.num_vertices} vertices")
            sigma = params.lam * params.theta * ind.global_total
            if ind.global_data > sigma:
                mesh = data_loop(mesh, g, 0.5 * sigma, params.theta_data)
                branch = "DATA"
            else:
                mesh = mesh.refine(mark(ind.total, params.theta))
                branch = "MARK"
            k += 1
        logger.info("%s stage j=%d: tau=%.4g r=%.4g dofs=%d (%.1fs)",
                    algorithm, j, tau, r, mesh.num_vertices,
                    time.perf_counter() - t_stage)
    return w, mesh, record, g
