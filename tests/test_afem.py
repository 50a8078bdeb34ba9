"""Marking, reduction loops, the adaptive solve, and run records."""
from __future__ import annotations

import gc
import itertools
import traceback
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CountingQueries
import mollifem.afem as afem
from mollifem import fem
from mollifem.afem import (AfemParams, RunRecord, RunRow, data_loop,
                           interface_loop, mark, solve)
from mollifem.curves import Curve, interface_cells
from mollifem.errors import NonTerminationError
from mollifem.fem import solve_galerkin
from mollifem.forcing import DensityForcing, LineForcing
from mollifem.mesh import rect_mesh
from mollifem.problems import lshape_problem, smooth_problem, square_problem


def exhaustive_min_cardinality(values: np.ndarray, theta: float) -> int:
    """Smallest subset size reaching theta^2 of the squared sum, brute force."""
    sq = values * values
    target = theta * theta * sq.sum()
    best = len(values)
    for k in range(1, len(values) + 1):
        if any(sum(c) >= target - 1e-12 * sq.sum()
               for c in itertools.combinations(sq, k)):
            best = k
            break
    return best


def test_mark_small_hand_case():
    values = np.array([3.0, 1.0, 2.0])
    got = mark(values, 0.8)
    # need 0.64 * 14 = 8.96; the single largest (9) suffices
    assert got.tolist() == [0]
    got = mark(values, 0.9)
    # need 11.34; {9, 4} = 13 suffices, {9} does not
    assert sorted(got.tolist()) == [0, 2]


def test_mark_matches_exhaustive_minimum(rng):
    for _ in range(60):
        n = int(rng.integers(1, 11))
        values = rng.uniform(0.0, 1.0, size=n)
        theta = float(rng.uniform(0.05, 0.95))
        got = mark(values, theta)
        sq = values * values
        assert sq[got].sum() >= theta ** 2 * sq.sum() - 1e-12
        assert len(got) == exhaustive_min_cardinality(values, theta)


def test_mark_tie_breaks_by_id():
    values = np.array([1.0, 1.0, 1.0, 1.0])
    got = mark(values, 0.5)
    # theta^2 = 1/4: one cell carries exactly a quarter; lowest row wins
    assert got.tolist() == [0]
    # rows 1 and 2 tie for the largest value
    assert mark(np.array([1.0, 2.0, 2.0, 1.0]), 0.5).tolist() == [1]


def _full_sort_mark(values, theta):
    """Doerfler marking by a stable sort of every row: the oracle of `mark`,
    which sorts only its candidates."""
    values = np.asarray(values, dtype=np.float64)
    sq = values * values
    total = sq.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-values, kind="stable")
    csum = np.cumsum(sq[order])
    cut = int(np.searchsorted(csum, theta * theta * total, side="left"))
    return order[:min(cut, len(csum) - 1) + 1]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3000),
       theta=st.one_of(st.floats(1e-6, 0.05), st.floats(0.05, 0.95),
                       st.floats(0.95, 1.0 - 1e-9)),
       kind=st.sampled_from(["levels", "zeros", "one", "equal", "spread"]))
def test_mark_matches_the_full_sort(data, n, theta, kind):
    # values from a few levels, so exact ties are common; all zeros, one
    # nonzero, all equal, or spread over many magnitudes; theta near 1 makes
    # the candidate set widen up to every row
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "levels":
        values = rng.choice([0.0, 1e-3, 0.25, 0.5, 1.0, 3.0], n)
    elif kind == "zeros":
        values = np.zeros(n)
    elif kind == "one":
        values = np.zeros(n)
        values[rng.integers(n)] = data.draw(st.sampled_from([1e-300, 1.0]))
    elif kind == "equal":
        values = np.full(n, data.draw(st.sampled_from([1e-9, 1.0, 7.5])))
    else:
        values = np.exp(rng.uniform(-30.0, 5.0, n))
    got, want = mark(values, theta), _full_sort_mark(values, theta)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mark_keeps_the_full_sort_result_on_a_non_finite_value(bad):
    # a non-finite total sorts all rows, so the result is the full sort's:
    # NaN rows sort last, so every finite row and the first NaN row
    values = np.array([0.5, 2.0, bad, 1.0, 2.0, bad, 0.0] * 3)
    got, want = mark(values, 0.5), _full_sort_mark(values, 0.5)
    assert np.array_equal(got, want)
    if np.isnan(bad):
        assert len(got) == 16


def test_mark_rejects_bad_theta():
    with pytest.raises(ValueError):
        mark(np.array([1.0]), 1.0)


def test_mark_zero_values_returns_empty():
    got = mark(np.zeros(4), 0.5)
    assert len(got) == 0


def test_data_loop_reaches_tolerance_uniformly():
    mesh = rect_mesh(4, 4, 0.0, 0.0, 1.0, 1.0)
    g = DensityForcing(lambda p: np.ones(len(p)))
    d0 = g.data_indicator(mesh)
    start = float(np.sqrt((d0 * d0).sum()))
    tau = start / 3.0
    out = data_loop(mesh, g, tau, 0.6)
    d = g.data_indicator(out)
    assert float(np.sqrt((d * d).sum())) <= tau
    assert out.num_cells > mesh.num_cells


def test_data_loop_cap_raises(monkeypatch):
    mesh = rect_mesh(2, 2, 0.0, 0.0, 1.0, 1.0)
    g = DensityForcing(lambda p: np.ones(len(p)))
    monkeypatch.setattr(afem, "DATA_PASS_CAP", 2)
    with pytest.raises(NonTerminationError):
        data_loop(mesh, g, 1e-9, 0.5)


def test_interface_loop_postcondition():
    p = square_problem(n_segments=512)
    mesh = p.initial_mesh()
    r = 0.04
    out = interface_loop(mesh, p.curve, r)
    cells = interface_cells(out, p.curve)
    h = out.h_sizes[cells]
    assert len(cells) > 0
    assert h.max() <= 0.5 * r + 1e-12
    # far cells must not have been touched: the far corner cell is original
    assert out.num_cells > mesh.num_cells


def test_interface_loop_rejects_bad_radius():
    p = square_problem(n_segments=64)
    with pytest.raises(ValueError):
        interface_loop(p.initial_mesh(), p.curve, 0.0)


# plain runs one stage at tolerance mu * tau0
PLAIN_02 = AfemParams(theta=0.5, theta_data=0.5, lam=1.0, mu=0.5, tau0=0.4,
                      beta=0.5, j_max=0, extra_final_step=False)


def test_solve_loop_smooth_contracts_below_tau():
    p = smooth_problem()
    w, mesh, rec, _ = solve(p, PLAIN_02, "plain")
    assert len(rec) >= 2
    assert rec.rows[-1].estimator_total <= 0.2
    assert rec.rows[0].branch == "INIT"
    assert all(r.branch in ("INIT", "DATA", "MARK") for r in rec.rows)
    # the energy error of the final pass is finite and positive
    assert 0.0 < rec.rows[-1].energy_error < 1.0


def test_solve_loop_records_monotone_dofs():
    p = replace(smooth_problem(), exact=None)
    params = replace(PLAIN_02, tau0=0.5)  # tolerance 0.25
    _, _, rec, _ = solve(p, params, "plain")
    dofs = [r.dofs for r in rec.rows]
    assert dofs == sorted(dofs)
    assert rec.rows[-1].energy_error != rec.rows[-1].energy_error  # NaN


def _watch_assembly(monkeypatch):
    """Wrap the driver's `assemble`, `solve_galerkin` and `estimate`. At each
    assembly after garbage collection, log (a stage began since the last
    one, the previous solve's mesh is alive, the number of earlier solutions
    and indicator sets alive); the middle entry is None when the previous
    solve was on this mesh. The
    wrapped `interface_loop` also bisects one more cell, so that every stage
    starts on a new mesh (the data loop has mostly resolved the curve)."""
    log, last, stage, results = [], [None], [False], []
    real = afem.assemble, afem.interface_loop

    def assemble(mesh, *args, **kwargs):
        gc.collect()
        before = None if last[0] is None else last[0]()
        log.append((stage[0], None if before is mesh else before is not None,
                    sum(ref() is not None for ref in results)))
        del before
        last[0], stage[0] = weakref.ref(mesh), False
        return real[0](mesh, *args, **kwargs)

    def noted(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            results.append(weakref.ref(out))
            return out
        return call

    def interface_loop(*args, **kwargs):
        stage[0] = True
        mesh = real[1](*args, **kwargs)
        return mesh.refine([0])

    for name, fn in (("assemble", assemble), ("interface_loop", interface_loop),
                     ("solve_galerkin", noted(afem.solve_galerkin)),
                     ("estimate", noted(afem.estimate))):
        monkeypatch.setattr(afem, name, fn)
    return log


def test_solve_loop_lets_the_previous_mesh_go_before_assembly(monkeypatch):
    log = _watch_assembly(monkeypatch)
    p = smooth_problem()
    _, _, rec, _ = solve(p, PLAIN_02, "plain")
    assert isinstance(p.density, DensityForcing)
    assert len(log) == len(rec) >= 4
    assert [alive for _, alive, _ in log[1:]] == [False] * (len(log) - 1)
    assert not any(n for _, _, n in log)


def test_regsolve_lets_the_last_stage_mesh_go_before_assembly(monkeypatch):
    log = _watch_assembly(monkeypatch)
    p = lshape_problem(n_segments=1024)
    params = AfemParams(theta=0.7, theta_data=0.7, lam=1.0 / 3.0, mu=0.9,
                        beta=0.6, tau0=0.6, j_max=1,
                        kernel_family="tensor_linf", extra_final_step=True)
    _, _, rec, _ = solve(p, params)
    assert len(log) == len(rec)
    # into stage 1 and into the radius update
    assert [alive for stage, alive, _ in log[1:] if stage] == [False, False]
    # and on every pass within a stage
    assert [alive for _, alive, _ in log[1:]] == [False] * (len(log) - 1)
    assert not any(n for _, _, n in log)


def test_baseline_solve_keeps_no_earlier_solution_at_assembly(monkeypatch):
    log = _watch_assembly(monkeypatch)
    p = square_problem(n_segments=256)
    params = AfemParams(theta=0.55, theta_data=0.55, lam=1.0 / 3.0, mu=0.8,
                        beta=0.7, tau0=1.2, j_max=1,
                        kernel_family="tensor_linf", extra_final_step=False)
    _, _, rec, _ = solve(p, params, "baseline")
    assert len(log) == len(rec) >= 2 and {r.j for r in rec.rows} == {0, 1}
    # a stage starts on the last stage's mesh; every other pass on a new one
    assert [alive for _, alive, _ in log[1:]] == [
        None if row.k == 0 else False for row in rec.rows[1:]]
    assert not any(n for _, _, n in log)


def _passes(monkeypatch):
    """Wrap the driver's `assemble` and `estimate`: one entry per pass, the
    system, then (iterate, estimator) of each estimate on it."""
    passes, real = [], (afem.assemble, afem.estimate)

    def assemble(*args, **kwargs):
        passes.append([real[0](*args, **kwargs)])
        return passes[-1][0]

    def estimate(w, forcing):
        ind = real[1](w, forcing)
        passes[-1].append((w, ind.global_total))
        return ind

    monkeypatch.setattr(afem, "assemble", assemble)
    monkeypatch.setattr(afem, "estimate", estimate)
    return passes


@pytest.mark.parametrize("algorithm", ["plain", "regsolve"])
def test_every_row_meets_the_algebraic_stop(monkeypatch, algorithm):
    # the row's iterate u_k has sqrt(r^T B r) <= LAMBDA_ALG * eta(u_k), and
    # so an energy distance from the exact Galerkin solution u_h of the same
    # order: cond(BA) is bounded, and 3 leaves room over the 1.72 measured
    passes = _passes(monkeypatch)
    if algorithm == "plain":
        problem, params = smooth_problem(), PLAIN_02
    else:
        problem = lshape_problem(n_segments=1024)
        params = AfemParams(theta=0.7, theta_data=0.7, lam=1.0 / 3.0, mu=0.9,
                            beta=0.6, tau0=0.6, j_max=1,
                            kernel_family="tensor_linf")
    rec = solve(problem, params, algorithm)[2]
    assert len(passes) == len(rec) >= 4
    for (system, *estimates), row in zip(passes, rec.rows):
        w, eta = estimates[-1]
        assert eta == row.estimator_total
        bpx = fem._bpx_preconditioner(system)
        r = system.rhs - system.matrix @ w.nodal_values
        assert np.sqrt(r @ bpx(r)) <= afem.LAMBDA_ALG * eta
        e = solve_galerkin(system).nodal_values - w.nodal_values
        assert np.sqrt(e @ (system.matrix @ e)) <= 3 * afem.LAMBDA_ALG * eta


def test_a_resume_reuses_the_preconditioner_of_its_system(monkeypatch):
    # the first solve of each system gets a target 1e3 times too loose, so
    # the driver resumes on that system; BPX is built once per system
    builds, solves = [], []
    bpx, solve_galerkin = fem._bpx_preconditioner, afem.solve_galerkin

    def counted(system):
        builds.append(system)
        return bpx(system)

    def loose_first(system, guess=None, target=None):
        if target is not None and not any(s is system for s in solves):
            target *= 1e3
        solves.append(system)
        return solve_galerkin(system, guess, target)

    monkeypatch.setattr(fem, "_bpx_preconditioner", counted)
    monkeypatch.setattr(afem, "solve_galerkin", loose_first)
    solve(smooth_problem(), PLAIN_02, "plain")
    systems = [s for i, s in enumerate(solves) if i == 0 or s is not solves[i - 1]]
    assert len(solves) > len(systems) >= 4
    assert len(builds) == len(systems)
    assert all(b is s for b, s in zip(builds, systems))


def test_regsolve_schedule_and_branches():
    # 2048-gon joints turn by well under the piece-chaining guard angle
    p = lshape_problem(n_segments=2048)
    params = AfemParams(theta=0.7, theta_data=0.7, lam=1.0 / 3.0, mu=0.8,
                        beta=0.8, tau0=0.5, j_max=1,
                        kernel_family="radial_c1", extra_final_step=True)
    w, mesh, rec, g = solve(p, params)
    # the forcing handed back is the last pass's, warm on the final mesh
    assert g.r == rec.rows[-1].r
    g._cells.values(mesh, lambda cold: pytest.fail(f"{len(cold)} cold cells"))
    taus = sorted({round(r.tau, 15) for r in rec.rows}, reverse=True)
    want = [0.5, 0.5 * 0.8, 0.5 * 0.8 ** 2]
    np.testing.assert_allclose(taus, want, rtol=1e-14)
    for row in rec.rows:
        assert row.r == row.tau * row.tau
        assert row.branch in ("INIT", "INTERFACE", "DATA", "MARK", "RADIUS")
    stages = {}
    for row in rec.rows:
        stages.setdefault(row.j, []).append(row)
    for j, rows in stages.items():
        assert rows[0].branch == ("RADIUS" if j == max(stages)
                                  else "INTERFACE")
        ks = [r.k for r in rows]
        assert ks == list(range(len(ks)))
    # extra radius-update row: one final single-row stage
    last = stages[max(stages)]
    assert len(last) == 1
    assert [r.branch for r in rec.rows].count("RADIUS") == 1
    samples = rec.u_samples()
    assert len(samples) == params.j_max + 1
    for row in samples:
        assert row.estimator_total <= params.mu * row.tau + 1e-12


def test_regsolve_single_shot_runs_one_stage():
    p = square_problem(n_segments=1024)
    params = AfemParams(theta=0.55, theta_data=0.55, lam=1.0 / 3.0, mu=0.8,
                        beta=0.7, tau0=0.6, j_max=2, single_shot=True,
                        kernel_family="tensor_linf", extra_final_step=False)
    _, _, rec, _ = solve(p, params, "regsolve")
    assert {row.j for row in rec.rows} == {0}
    tau = 0.6 * 0.7 ** 2
    assert abs(rec.rows[0].tau - tau) < 1e-15
    assert rec.rows[-1].estimator_total <= 0.8 * tau + 1e-12


def test_baseline_solve_same_schedule():
    p = square_problem(n_segments=256)
    params = AfemParams(theta=0.55, theta_data=0.55, lam=1.0 / 3.0, mu=0.8,
                        beta=0.7, tau0=1.2, j_max=1,
                        kernel_family="tensor_linf", extra_final_step=True)
    _, _, rec, _ = solve(p, params, "baseline")
    assert {row.j for row in rec.rows} == {0, 1}
    for row in rec.rows:
        assert row.r == 0.0
    samples = rec.u_samples()
    assert len(samples) == 2
    for row, tau in zip(samples, (1.2, 1.2 * 0.7)):
        assert abs(row.tau - tau) < 1e-15
        assert row.estimator_total <= 0.8 * tau + 1e-12


def test_solve_stops_at_the_pass_cap(monkeypatch):
    monkeypatch.setattr(afem, "SOLVE_PASS_CAP", 2)
    with pytest.raises(NonTerminationError, match="after 2 passes"):
        solve(smooth_problem(), PLAIN_02, "plain")


def test_solve_rejects_an_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm 'greedy'"):
        solve(smooth_problem(), PLAIN_02, "greedy")


def test_afem_params_validation_messages():
    bad = AfemParams(theta=1.5, lam=0.0, beta=1.0, tau0=-1.0, j_max=-2,
                     kernel_family="nope")
    issues = bad.issues()
    assert len(issues) >= 5
    with pytest.raises(ValueError):
        bad.validate()


def test_run_record_csv_round_trip(tmp_path):
    rec = RunRecord()
    rec.append(RunRow(0, 0, 0.6, 0.36, 25, 32, 0.5, 0.3, 0.4, 0.21,
                      "INTERFACE", 12.5))
    rec.append(RunRow(1, 3, 0.48, 0.2304, 113, 208, 1.0 / 3.0, 0.25,
                      2.0 / 7.0, float("nan"), "MARK", 3.25))
    path = tmp_path / "run.csv"
    rec.to_csv(path)
    assert path.read_text() == (
        "j,k,tau,r,dofs,cells,estimator_total,estimator_jump,estimator_data,"
        "energy_error,branch,wall_ms\n"
        "0,0,0.59999999999999998,0.35999999999999999,25,32,0.5,"
        "0.29999999999999999,0.40000000000000002,0.20999999999999999,"
        "INTERFACE,12.5\n"
        "1,3,0.47999999999999998,0.23039999999999999,113,208,"
        "0.33333333333333331,0.25,0.2857142857142857,nan,MARK,3.25\n")
    back = RunRecord.from_csv(path)
    assert len(back) == 2
    for a, b in zip(rec.rows, back.rows):
        for name in ("j", "k", "dofs", "cells", "branch"):
            assert getattr(a, name) == getattr(b, name)
        for name in ("tau", "r", "estimator_total", "estimator_jump",
                     "estimator_data", "wall_ms"):
            va, vb = getattr(a, name), getattr(b, name)
            assert va == vb
    assert np.isnan(back.rows[1].energy_error)


def test_run_record_deterministic_zeroes_wall(tmp_path):
    rec = RunRecord()
    rec.append(RunRow(0, 0, 0.1, 0.01, 4, 2, 0.0, 0.0, 0.0, 0.0, "INIT", 9.9))
    path = tmp_path / "det.csv"
    rec.to_csv(path, deterministic=True)
    text = path.read_text()
    assert text.splitlines()[1].endswith(",0")


def test_run_record_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,header\n")
    with pytest.raises(ValueError):
        RunRecord.from_csv(path)


def test_u_samples_drops_trailing_radius_update():
    # the radius update is the row labelled RADIUS; a stage accepted on its
    # first pass is one INTERFACE row, and a sample
    rec = RunRecord()
    rec.append(RunRow(0, 0, 0.6, 0.36, 10, 8, 0.5, 0.3, 0.4, 0.2, "INTERFACE",
                      0.0))
    rec.append(RunRow(0, 1, 0.6, 0.36, 20, 18, 0.2, 0.1, 0.1, 0.1, "MARK",
                      0.0))
    rec.append(RunRow(1, 0, 0.48, 0.2304, 30, 28, 0.1, 0.05, 0.05, 0.05,
                      "INTERFACE", 0.0))
    assert [(s.j, s.k) for s in rec.u_samples()] == [(0, 1), (1, 0)]
    rec.append(RunRow(2, 0, 0.384, 0.147456, 30, 28, 0.2, 0.1, 0.1, 0.05,
                      "RADIUS", 0.0))
    assert [(s.j, s.k) for s in rec.u_samples()] == [(0, 1), (1, 0)]


@pytest.mark.parametrize("algorithm", ["regsolve", "baseline"])
def test_each_algorithm_clips_the_curve_from_one_reader(monkeypatch,
                                                        algorithm):
    # a small run reaches `Curve.pairs` from one reader alone: regsolve from
    # the interface loop's `interface_cells` (the error pass reads its kink
    # from the exact solution), baseline from `LineForcing`'s per-cell
    # integrals. That reader keeps what it needs per cell, so no cell of the
    # run is queried twice
    if algorithm == "regsolve":
        p, reader, other = lshape_problem(n_segments=512), "interface_cells", \
            "_cell_integrals"
        params = AfemParams(theta=0.7, theta_data=0.7, lam=1.0 / 3.0, mu=0.8,
                            beta=0.8, tau0=0.5, j_max=1,
                            kernel_family="radial_c1")
    else:
        p, reader, other = square_problem(n_segments=256), "_cell_integrals", \
            "interface_cells"
        params = AfemParams(theta=0.55, theta_data=0.55, lam=1.0 / 3.0,
                            mu=0.8, beta=0.7, tau0=1.2, j_max=1,
                            kernel_family="tensor_linf")
    counted = p.curve._query = CountingQueries(p.curve._query)
    callers, pairs = [], Curve.pairs

    def spied(curve, mesh, rows):
        callers.append({f.name for f in traceback.extract_stack()})
        return pairs(curve, mesh, rows)

    monkeypatch.setattr(Curve, "pairs", spied)
    g = solve(p, params, algorithm)[-1]
    assert isinstance(g, LineForcing) == (algorithm == "baseline")
    assert callers and all(reader in names and other not in names
                           for names in callers)
    queried = np.concatenate(counted.serials)
    assert len(np.unique(queried)) == len(queried) > 0
