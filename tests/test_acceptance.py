"""Acceptance gate: one check per benchmark claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the line per check.
The file holds checks 01 to 11.
Check 08's quarter bound is a strict xfail, because the implemented data
term provably cannot meet it; its companion check asserts the measured
behaviour, so a regression is still caught. Checks 01, 02 and 11 drive the
CLI end to end; check 01 runs the full `lshape` preset (about 15 s) and is
the slowest check. Check 02 runs `square-baseline` on a prefix of stages
stated in advance (about 7 s), because the full preset does not fit a
small host.
"""
import filecmp
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from mollifem.afem import AfemParams, RunRecord, interface_loop, mark, solve
from mollifem.cli import main as cli_main
from mollifem.config import preset
from mollifem.fem import (ErrorIntegrator, assemble, form_matrix,
                          solve_galerkin)
from mollifem.forcing import (KERNEL_FAMILIES, Kernel, RegularizedForcing,
                              kernel_moment_check)
from mollifem.mesh import rect_mesh
from mollifem.problems import smooth_problem, square_problem


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"check {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# check 01: regsolve through the CLI converges at the 2D rate dofs^(-1/2)


def test_a01_regsolve_rate_through_the_cli(tmp_path):
    """The full `lshape` preset, run by `mollifem run --deterministic`.

    The paper claims quasi-optimal decay, energy error ~ dofs^(-1/2) for P1
    in 2D. The gate is the least-squares slope of log(energy error) against
    log(dofs) over every accepted sample, at -1/2 +/- 0.15 (check 03's width
    for a rate claim). The error column is 1.60-1.64 tau, the regularization
    error ||u - u_r|| ~ sqrt(r) = tau, so the slope measures how many dofs
    each tau stage buys. Each DATA row multiplies the dofs by about 4, and
    where those lumps fall moves the CLI's 5-sample window by +/- 0.07; the
    window and the endpoint slope are printed, not gated.
    """
    n, slope, endpoint, last5 = _cli_rate(preset("lshape"), tmp_path)
    ok = -0.65 <= slope <= -0.35
    _report(1, ok, f"least-squares slope {slope:.3f} over {n} "
                   f"samples within -0.5 +/- 0.15; endpoint {endpoint:.3f}, "
                   f"CLI last 5 {last5:.3f} (not gated)")
    assert n >= 5
    assert -0.65 <= slope <= -0.35


def _cli_rate(cfg, tmp_path) -> tuple[int, float, float, float]:
    """Run `cfg` by `mollifem run --deterministic`; return the accepted
    sample count, the least-squares and endpoint slopes of log(energy
    error) against log(dofs) over them, and the CLI's `summary["slope"]`."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--deterministic"]) == 0
    samples = RunRecord.from_csv(out / "run.csv").u_samples()
    dofs = np.log([row.dofs for row in samples])
    errs = np.log([row.energy_error for row in samples])
    slope = float(np.polyfit(dofs, errs, 1)[0])
    endpoint = float((errs[-1] - errs[0]) / (dofs[-1] - dofs[0]))
    last = json.loads((out / "summary.json").read_text())["slope"]
    return len(samples), slope, endpoint, last


# ---------------------------------------------------------------------------
# check 02: baseline through the CLI converges at the 2D rate dofs^(-1/2)


def test_a02_baseline_rate_through_the_cli(tmp_path):
    """Preset `square-baseline` cut to the prefix `tau0 = 0.9, j_max = 2`
    (stated in advance: the full preset needs about 55M dofs), run by
    `mollifem run --deterministic`.

    The claim and the gate are check 01's: the least-squares slope of
    log(energy error) against log(dofs) over every accepted sample, at
    -1/2 +/- 0.15. The error column is about 0.10 tau, so again the slope
    measures how many dofs each tau stage buys. It sits near the bound
    (-0.384 over 3 samples) because stage 1's last DATA row overshoots,
    21,618 -> 86,449 dofs, and stage 2 then adds only 2.5 % (87,168 ->
    89,373). The endpoint slope (-0.498) and the CLI's slope (its last-5
    window, here all 3 samples) are printed, not gated. `j_max = 3` reads
    -0.399 but took 24 s and 403 MB against 7 s and 152 MB (2-core host).
    """
    base = preset("square-baseline")
    cfg = replace(base, params=replace(base.params, tau0=0.9, j_max=2))
    n, slope, endpoint, last = _cli_rate(cfg, tmp_path)
    ok = -0.65 <= slope <= -0.35
    _report(2, ok, f"least-squares slope {slope:.3f} over {n} "
                   f"samples within -0.5 +/- 0.15; endpoint {endpoint:.3f}, "
                   f"CLI {last:.3f} (not gated)")
    assert n == 3
    assert -0.65 <= slope <= -0.35


# ---------------------------------------------------------------------------
# check 03: regularization error decays like sqrt(r) on a fixed fine mesh


def test_a03_regularization_error_rate():
    p = square_problem(n_segments=2 ** 12)
    mesh = rect_mesh(64, 64, 0.0, 0.0, 1.0, 1.0)
    mesh = interface_loop(mesh, p.curve, 2.0 ** -7)
    kernel = Kernel("tensor_linf")
    err_fn = ErrorIntegrator(p.exact, p.curve)  # one mesh: moments once
    errs = []
    for k in range(3, 8):
        # at k=3 the support overlaps the boundary; the logged warning is
        # expected and the leaked mass is negligible for this metric
        g = RegularizedForcing(p.curve, kernel, 2.0 ** -k)
        system = assemble(mesh, g, p.boundary_data)
        w = solve_galerkin(system)
        errs.append(err_fn(w))
    rs = 2.0 ** -np.arange(3, 8)
    slope = float(np.polyfit(np.log(rs), np.log(np.array(errs)), 1)[0])
    ok = 0.35 <= slope <= 0.65
    _report(3, ok, f"energy distance slope {slope:.3f} in r within "
                   f"0.5 +/- 0.15; errors "
                   + " ".join(f"{e:.4f}" for e in errs))
    assert 0.35 <= slope <= 0.65


# ---------------------------------------------------------------------------
# check 04: kernel families are admissible mollifiers


def test_a04_kernel_families_validity():
    rng = np.random.default_rng(20240822)
    worst_mass = 0.0
    worst_moment = 0.0
    ok = True
    for family in KERNEL_FAMILIES:
        kernel = Kernel(family)
        for r in (1.0, 0.1, 0.01):
            mass_defect = kernel_moment_check(kernel, 0, r)
            moment_defect = kernel_moment_check(kernel, 1, r)
            worst_mass = max(worst_mass, mass_defect)
            worst_moment = max(worst_moment, moment_defect)
            pts = rng.uniform(-1.5 * r, 1.5 * r, size=(10_000, 2))
            vals = kernel.delta(r, pts)
            if kernel.support == "ball":
                outside = np.sqrt((pts * pts).sum(1)) > r
            else:
                outside = np.abs(pts).max(1) > r
            ok = ok and bool((vals >= 0.0).all())
            ok = ok and bool((vals[outside] == 0.0).all())
    ok = ok and worst_mass <= 1e-9 and worst_moment <= 1e-6
    _report(4, ok, f"mass defect {worst_mass:.2e} <= 1e-9, first-moment "
                   f"defect {worst_moment:.2e} <= 1e-6, sign/support ok "
                   f"on 1e4 samples x 9 cases")
    assert worst_mass <= 1e-9
    assert worst_moment <= 1e-6
    assert ok


# ---------------------------------------------------------------------------
# check 05: marking returns a smallest admissible subset


def _exhaustive_min_cardinality(values: np.ndarray, theta: float) -> int:
    # marking contract: smallest set with sum of squares >= theta^2 * total
    sq = values * values
    target = theta * theta * sq.sum()
    n = len(values)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if sq[list(combo)].sum() >= target:
                return size
    return n


def test_a05_marking_minimality():
    rng = np.random.default_rng(20240822)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        values = rng.uniform(0.0, 1.0, size=n)
        theta = float(rng.uniform(0.05, 0.95))
        marked = mark(values, theta)
        want = _exhaustive_min_cardinality(values, theta)
        assert len(marked) == want, (values, theta)
        checked += 1
    _report(5, True, f"{checked} random vectors: marked cardinality equals "
                     f"the exhaustive minimum every time")


# ---------------------------------------------------------------------------
# check 06: interface resolution cost doubles per radius halving


def test_a06_interface_growth():
    p = square_problem(n_segments=2 ** 12)
    mesh = rect_mesh(12, 12, 0.0, 0.0, 1.0, 1.0)
    # resolve once at the coarsest radius so every counted step is a halving
    mesh = interface_loop(mesh, p.curve, 2.0 ** -3)
    added = []
    for k in range(4, 9):
        before = mesh.num_cells
        mesh = interface_loop(mesh, p.curve, 2.0 ** -k)
        added.append(mesh.num_cells - before)
    ratios = [added[i + 1] / added[i] for i in range(len(added) - 1)]
    ok = all(1.5 <= x <= 2.5 for x in ratios)
    _report(6, ok, "added cells per halving "
            + " ".join(str(a) for a in added) + "; ratios "
            + " ".join(f"{x:.2f}" for x in ratios) + " within 2 +/- 0.5")
    assert ok, ratios


# ---------------------------------------------------------------------------
# check 07: greedy data refinement scales with tau, not with r


def greedy(mesh, g, tau: float):
    """Bisect the single worst data-indicator cell until the total is <=
    tau: the data reduction whose complexity the check measures."""
    for _ in range(10_000):
        d = g.data_indicator(mesh)
        if float(np.sqrt((d * d).sum())) <= tau:
            return mesh
        mesh = mesh.refine([int(np.argmax(d))])
    pytest.fail(f"greedy reduction did not reach tau={tau:.3g}")


def test_a07_greedy_growth():
    p = square_problem(n_segments=2 ** 12)
    kernel = Kernel("tensor_linf")
    counts = {}
    for r in (0.04, 0.02):
        for tau in (0.6, 0.3, 0.15):
            mesh = p.initial_mesh()
            g = RegularizedForcing(p.curve, kernel, r)
            out = greedy(mesh, g, tau)
            counts[(r, tau)] = out.total_marked() - mesh.total_marked()
    ratios = [counts[(0.02, 0.3)] / counts[(0.02, 0.6)],
              counts[(0.02, 0.15)] / counts[(0.02, 0.3)]]
    ratio_ok = all(3.0 <= x <= 5.0 for x in ratios)
    a, b = counts[(0.04, 0.15)], counts[(0.02, 0.15)]
    spread = abs(a - b) / max(a, b)
    spread_ok = spread <= 0.5
    _report(7, ratio_ok and spread_ok,
            f"tau-halving ratios {ratios[0]:.2f} {ratios[1]:.2f} within "
            f"4 +/- 1; fixed-tau counts {a} vs {b} differ {100*spread:.0f}% "
            f"<= 50%")
    assert ratio_ok, ratios
    assert spread_ok, (a, b)


# ---------------------------------------------------------------------------
# check 08: data term under radius halving on the finer-resolved mesh


def _data_halving_ratio():
    p = square_problem(n_segments=2 ** 12)
    kernel = Kernel("tensor_linf")
    r1 = 0.04
    mesh = interface_loop(p.initial_mesh(), p.curve, r1 / 2)
    g1 = RegularizedForcing(p.curve, kernel, r1)
    g2 = RegularizedForcing(p.curve, kernel, r1 / 2)
    d1 = g1.data_indicator(mesh)
    d2 = g2.data_indicator(mesh)
    big1 = float(np.sqrt((d1 * d1).sum()))
    big2 = float(np.sqrt((d2 * d2).sum()))
    return big1, big2


@pytest.mark.xfail(
    strict=True,
    reason="the data term uses h_T ||F_r||_L2(T), whose L2 mass grows like "
           "r^-1/2 as the density sharpens, so halving r on a fixed mesh "
           "cannot shrink the total by 1/4; the measured ratio sits near 1")
def test_a08_data_term_quarter_bound():
    big1, big2 = _data_halving_ratio()
    bound = 0.25 * 1.25 * big1
    _report(8, big2 <= bound,
            f"D at r/2 is {big2:.4f} vs quarter bound {bound:.4f} "
            f"(ratio {big2 / big1:.3f})")
    assert big2 <= bound


def test_a08_data_term_halving_measured():
    big1, big2 = _data_halving_ratio()
    ratio = big2 / big1
    ok = 0.85 <= ratio <= 1.45
    _report(8, ok, f"measured companion: D(r/2)/D(r) = {ratio:.3f}, "
                   f"stable near 1 as the norm growth offsets the "
                   f"narrower support")
    assert ok, ratio


# ---------------------------------------------------------------------------
# check 09: discrete solver correctness on one assembled problem


def test_a09_solver_correctness():
    p = square_problem(n_segments=1024)
    mesh = rect_mesh(16, 16, 0.0, 0.0, 1.0, 1.0)
    g = RegularizedForcing(p.curve, Kernel("tensor_linf"), 0.05)
    system = assemble(mesh, g, p.boundary_data)

    raw = form_matrix(system.mesh)
    asym = abs((raw - raw.T)).max()
    scale = abs(raw).max()
    sym_rel = asym / scale

    w = solve_galerkin(system)
    res = system.rhs - system.matrix @ w.nodal_values
    cg_rel = np.linalg.norm(res) / np.linalg.norm(system.rhs)

    free, load = ~mesh.boundary_vertex_mask, g.load_vector(mesh)
    raw_res = load - raw @ w.nodal_values
    ortho = np.abs(raw_res[free]).max() / np.linalg.norm(load)

    def affine(pts):
        return 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0

    class _ZeroLoad:
        def load_vector(self, m):
            return np.zeros(m.num_vertices)

        def data_indicator(self, m):
            return np.zeros(m.num_cells)

    sys_affine = assemble(mesh, _ZeroLoad(), affine)
    w_affine = solve_galerkin(sys_affine)
    affine_err = np.abs(w_affine.nodal_values - affine(mesh.coords)).max()

    ok = (sym_rel <= 1e-14 and cg_rel <= 1e-10 and affine_err <= 1e-9
          and ortho <= 1e-8)
    _report(9, ok, f"symmetry {sym_rel:.1e} <= 1e-14, cg residual "
                   f"{cg_rel:.1e} <= 1e-10, affine exactness "
                   f"{affine_err:.1e} <= 1e-9, orthogonality "
                   f"{ortho:.1e} <= 1e-8")
    assert sym_rel <= 1e-14
    assert cg_rel <= 1e-10
    assert affine_err <= 1e-9
    assert ortho <= 1e-8


# ---------------------------------------------------------------------------
# check 10: estimator decreases along the marking iteration


def test_a10_estimator_contraction():
    p = smooth_problem()
    # plain: one stage at tolerance mu * tau0 = 0.05
    params = AfemParams(theta=0.7, theta_data=0.8, lam=1.0, mu=0.5,
                        beta=0.5, tau0=0.1, j_max=0, single_shot=False,
                        extra_final_step=False)
    _, _, record, _ = solve(p, params, "plain")
    marks = [row.estimator_total for row in record.rows
             if row.branch == "MARK"]
    assert len(marks) >= 4
    diffs_ok = all(b < a for a, b in zip(marks[1:], marks[2:]))
    _report(10, diffs_ok,
            f"{len(marks)} marking passes, estimator strictly decreasing "
            f"from the second one on: "
            + " ".join(f"{v:.3f}" for v in marks))
    assert diffs_ok


# ---------------------------------------------------------------------------
# check 11: repeated --deterministic CLI runs write byte-identical run.csv


def test_a11_deterministic_csv_byte_identical(tmp_path):
    # a small lshape regsolve stage (INTERFACE, DATA and MARK passes) plus
    # the radius-update solve of extra_final_step, about 5 s per run
    base = preset("lshape")
    cfg = replace(base, curve_segments=2048,
                  params=replace(base.params, mu=0.8, tau0=0.7, j_max=0,
                                 extra_final_step=True))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--deterministic"]) == 0
    same = filecmp.cmp(outs[0] / "run.csv", outs[1] / "run.csv",
                       shallow=False)
    rows = RunRecord.from_csv(outs[0] / "run.csv").rows
    branches = {row.branch for row in rows}
    _report(11, same, f"two runs of {len(rows)} rows (branches "
                      f"{sorted(branches)}) byte-identical: {same}")
    assert same
    assert {"INTERFACE", "DATA", "MARK"} <= branches
    assert (rows[-1].j, rows[-1].k, rows[-1].branch) == (1, 0, "RADIUS")
