"""Configuration round-trips, slope fitting, and the command line."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from mollifem import afem, cli, fem, forcing, problems
from mollifem.afem import RunRecord, RunRow
from mollifem.cli import main, slope_fit
from mollifem.config import (ALGORITHMS, PRESET_NAMES, ExperimentConfig,
                             preset)
from mollifem.errors import NumericalError
from mollifem.mesh import rect_mesh
from mollifem.vtkio import write_vtk


def synthetic_row(j: int, dofs: int, err: float, branch: str = "MARK") -> RunRow:
    return RunRow(j, 0, 0.1, 0.01, dofs, 2 * dofs, 0.5 * err, 0.3 * err,
                  0.4 * err, err, branch, 1.0)


def test_preset_round_trip_identity():
    for name in PRESET_NAMES:
        cfg = preset(name)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_custom_dict_round_trip():
    raw = {
        "problem": "square",
        "algorithm": "baseline",
        "curve_segments": 4096,
        "initial_divisions": 8,
        "output_dir": "results",
        "deterministic": True,
        "params": {"theta": 0.6, "lambda": 0.25, "j_max": 3},
    }
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.params.lam == 0.25
    assert cfg.params.theta == 0.6
    assert cfg.params.j_max == 3
    # unspecified params keep their defaults
    assert cfg.params.mu == 0.5
    back = cfg.to_dict()
    for key, value in raw.items():
        if key == "params":
            continue
        assert back[key] == value
    assert back["params"]["lambda"] == 0.25


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"problem": "lshape", "colour": 1})
    with pytest.raises(ValueError, match="unknown params keys"):
        ExperimentConfig.from_dict({"params": {"theta": 0.5, "gamma": 2}})
    # the JSON spelling is "lambda"; the attribute name is not accepted
    with pytest.raises(ValueError, match="unknown params keys"):
        ExperimentConfig.from_dict({"params": {"lam": 0.5}})
    # thread counts are set from outside the process, not by the config
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"problem": "lshape", "threads": 1})


def test_from_json_rejects_non_json():
    with pytest.raises(ValueError, match="not valid JSON"):
        ExperimentConfig.from_json("{problem: lshape}")


def test_issues_per_field():
    good = preset("lshape")
    assert good.issues() == []
    assert "problem=" in replace(good, problem="disk").issues()[0]
    assert "algorithm=" in replace(good, algorithm="magic").issues()[0]
    assert "curve_segments=" in replace(good, curve_segments=2).issues()[0]
    assert "initial_divisions=" in \
        replace(good, initial_divisions=0).issues()[0]
    assert "output_dir" in replace(good, output_dir="").issues()[0]
    assert "theta=" in \
        replace(good, params=replace(good.params, theta=0.0)).issues()[0]
    # values of the wrong type, as JSON can spell them
    assert "curve_segments=" in replace(good, curve_segments=4.0).issues()[0]
    assert "initial_divisions=" in \
        replace(good, initial_divisions=True).issues()[0]
    assert "deterministic=" in replace(good, deterministic=1).issues()[0]
    for name, attr, value in [("theta", "theta", "0.5"),
                              ("theta_data", "theta_data", None),
                              ("lambda", "lam", True),
                              ("mu", "mu", [0.5]),
                              ("beta", "beta", False),
                              ("tau0", "tau0", "0.6"),
                              ("j_max", "j_max", True),
                              ("j_max", "j_max", 2.0),
                              ("single_shot", "single_shot", "no"),
                              ("extra_final_step", "extra_final_step", 0)]:
        bad = replace(good, params=replace(good.params, **{attr: value}))
        assert [s.split("=")[0] for s in bad.issues()] == [name]


def test_smooth_plain_pairing():
    smooth = preset("smooth")
    assert smooth.issues() == []
    assert any("plain" in s for s in replace(smooth,
                                             algorithm="regsolve").issues())
    lshape = preset("lshape")
    assert any("plain" in s for s in replace(lshape,
                                             algorithm="plain").issues())


def test_preset_names_and_unknown():
    assert set(PRESET_NAMES) == {"lshape", "lshape-single", "square",
                                 "square-baseline", "smooth"}
    assert set(ALGORITHMS) == {"regsolve", "baseline", "plain"}
    with pytest.raises(ValueError, match="unknown preset"):
        preset("cube")
    single = preset("lshape-single")
    assert single.params.single_shot
    assert preset("square-baseline").algorithm == "baseline"


def test_slope_fit_recovers_power_law():
    rows = [synthetic_row(j, 100 * 2 ** j, (100 * 2 ** j) ** -0.5)
            for j in range(6)]
    assert abs(slope_fit(rows) - (-0.5)) < 1e-12
    flat = [synthetic_row(j, 100 * 2 ** j, 3.0) for j in range(4)]
    assert abs(slope_fit(flat)) < 1e-12


def test_slope_fit_uses_last_n():
    rows = [synthetic_row(j, 100 * 2 ** j, (100 * 2 ** j) ** -1.0)
            for j in range(5)]
    anchor = rows[-1].energy_error
    rows += [synthetic_row(5 + j, 100 * 2 ** (5 + j),
                           anchor * 2 ** (-0.25 * (j + 1)))
             for j in range(5)]
    assert abs(slope_fit(rows, n_last=5) - (-0.25)) < 1e-12


def test_slope_fit_error_cases():
    with pytest.raises(ValueError, match=">= 2"):
        slope_fit([synthetic_row(0, 10, 1.0)])
    with pytest.raises(ValueError, match="at least 2"):
        slope_fit([synthetic_row(0, 10, 1.0)] * 3, n_last=1)
    bad = [synthetic_row(0, 10, 1.0), synthetic_row(1, 20, float("nan"))]
    with pytest.raises(ValueError, match="finite"):
        slope_fit(bad)


def test_slope_fit_needs_two_distinct_dof_counts():
    # one dof count leaves log(dofs) with no spread, and np.polyfit would
    # fit a line to a single abscissa
    rows = [synthetic_row(0, 1495, 1.11), synthetic_row(1, 1495, 1.06)]
    with pytest.raises(ValueError, match="two distinct dof counts"):
        slope_fit(rows)
    rows.append(synthetic_row(2, 2990, 0.8))
    assert slope_fit(rows) < 0.0


def test_cli_validate_ok(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(preset("smooth").to_json())
    assert main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_validate_rejects_bad_pairing(tmp_path, capsys):
    cfg = replace(preset("smooth"), algorithm="regsolve")
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["validate", "--config", str(path)]) == 1
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"single_shot": "no"},
                                    {"theta": "0.5"}, {"j_max": True}])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_values_of_the_wrong_type(tmp_path, capsys, params,
                                              command):
    raw = preset("lshape").to_dict()
    raw["params"].update(params)
    raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"invalid config: {next(iter(params))}=" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "none.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_preset_prints_json(capsys):
    assert main(["preset", "lshape"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == preset("lshape").to_dict()


LSHAPE_JSON = {
    "problem": "lshape", "algorithm": "regsolve", "curve_segments": 16384,
    "initial_divisions": None, "output_dir": "out", "deterministic": False,
    "params": {"theta": 0.7, "theta_data": 0.7, "lambda": 1.0 / 3.0,
               "mu": 0.5, "beta": 0.8, "tau0": 0.6, "j_max": 6,
               "single_shot": False, "kernel_family": "radial_c1",
               "extra_final_step": True}}


def _preset_json(top: dict, params: dict) -> str:
    """The text of LSHAPE_JSON with some values changed, keys in place."""
    raw = {**LSHAPE_JSON, **top,
           "params": {**LSHAPE_JSON["params"], **params}}
    return json.dumps(raw, indent=2) + "\n"


SQUARE = ({"problem": "square"},
          {"theta": 0.55, "theta_data": 0.55, "beta": 0.7, "tau0": 0.3,
           "j_max": 8, "kernel_family": "tensor_linf"})


@pytest.mark.parametrize("name, top, params", [
    ("lshape", {}, {}),
    ("lshape-single", {}, {"j_max": 14, "single_shot": True}),
    ("square", *SQUARE),
    ("square-baseline", {**SQUARE[0], "algorithm": "baseline"}, SQUARE[1]),
    ("smooth", {"problem": "smooth", "algorithm": "plain"},
     {"theta": 0.5, "theta_data": 0.5, "lambda": 1.0, "beta": 0.5,
      "tau0": 0.1, "j_max": 0, "extra_final_step": False}),
])
def test_cli_preset_prints_the_same_text(capsys, name, top, params):
    # the bytes, key order included; comparing parsed dicts ignores order
    assert main(["preset", name]) == 0
    assert capsys.readouterr().out == _preset_json(top, params)


def test_cli_preset_writes_file(tmp_path):
    out = tmp_path / "p.json"
    assert main(["preset", "square", "--out", str(out)]) == 0
    assert ExperimentConfig.load(out) == preset("square")


def test_cli_run_rejects_an_unusable_output_dir_before_the_solve(
        tmp_path, monkeypatch, capsys):
    # --out naming a file: one error line and exit 1, before any solve
    def never(*args, **kwargs):
        pytest.fail("solve ran before the output directory was made")

    monkeypatch.setattr(cli, "solve", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(preset("smooth").to_json())
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["run", "--config", str(cfg_path), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(taken) in err
    assert "Traceback" not in err
    assert taken.read_text() == "a file, not a directory\n"


def test_cli_preset_into_a_missing_dir_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "p.json"
    assert main(["preset", "smooth", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.parent.exists()


def test_cli_preset_unknown_name_exits():
    with pytest.raises(SystemExit):
        main(["preset", "dodecahedron"])


def test_cli_slopes_on_csv(tmp_path, capsys):
    rec = RunRecord()
    for j in range(6):
        n = 50 * 2 ** j
        rec.append(synthetic_row(j, n, 4.0 * n ** -0.5))
    path = tmp_path / "run.csv"
    rec.to_csv(path)
    assert main(["slopes", "--csv", str(path)]) == 0
    assert abs(float(capsys.readouterr().out) - (-0.5)) < 1e-6


def test_cli_slopes_rejects_bad_csv(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    path.write_text("j,k\n0,1\n")
    assert main(["slopes", "--csv", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_run_keeps_a_last_stage_accepted_on_its_first_pass(tmp_path,
                                                               capsys):
    # without the radius update, a last stage accepted on its first pass is
    # one INTERFACE row: an accepted approximation, and a sample. Both
    # samples have the same dof count, so there is no slope to fit.
    base = preset("lshape")
    cfg = replace(base, curve_segments=1024, params=replace(
        base.params, tau0=0.7, beta=0.95, mu=0.9, j_max=1,
        extra_final_step=False))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--deterministic"]) == 0
    rows = RunRecord.from_csv(out / "run.csv").rows
    assert [(r.j, r.branch) for r in rows[-2:]] == [(0, "MARK"),
                                                    (1, "INTERFACE")]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["u_samples"] == 2
    assert summary["slope"] is None
    assert "two distinct dof counts" in summary["slope_note"]
    capsys.readouterr()
    assert main(["slopes", "--csv", str(out / "run.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_run_smooth_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(preset("smooth").to_json())
    out = tmp_path / "results"
    code = main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--deterministic"])
    assert code == 0

    rec = RunRecord.from_csv(out / "run.csv")
    assert len(rec) >= 2
    assert all(row.wall_ms == 0.0 for row in rec.rows)
    assert rec.rows[-1].estimator_total <= 0.05

    summary = json.loads((out / "summary.json").read_text())
    for key in ("problem", "algorithm", "rows", "u_samples", "final_dofs",
                "final_estimator", "final_energy_error", "slope"):
        assert key in summary
    assert summary["problem"] == "smooth"
    assert summary["final_dofs"] == rec.rows[-1].dofs
    # a single-stage run has one sample, too few for a slope
    assert summary["slope"] is None
    assert "slope_note" in summary

    text, arrays = _read_vtk(out / "solution.vtk")
    assert text[0] == "# vtk DataFile Version 3.0"
    assert any(ln.startswith("CELL_TYPES") for ln in text)
    assert len(arrays["CELLS"]) == rec.rows[-1].cells
    assert list(arrays)[3:] == ["generation", "indicator_total",
                                "indicator_jump", "indicator_data",
                                "solution"]
    stdout = capsys.readouterr().out
    assert "final_estimator" in stdout


def test_cli_run_exits_2_on_a_numerical_failure(tmp_path, monkeypatch,
                                                capsys):
    # CG failing to converge stops the run before anything is written
    def capped(A, b, **kwargs):
        raise NumericalError("CG failed to converge (iteration cap after 1 "
                             "iterations, relative residual 1.000e+00)")

    monkeypatch.setattr(fem, "cg", capped)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(preset("smooth").to_json())
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "numerical failure: CG failed to converge (iteration cap" \
        in capsys.readouterr().err
    assert not (out / "run.csv").exists()


def test_cli_run_exits_2_on_a_nan_load_in_a_warm_solve(tmp_path, monkeypatch,
                                                       capsys):
    # a NaN in the second pass's load breaks CG down in a solve to a target:
    # exit 2, and no run.csv to carry a NaN
    assembled, real = [], afem.assemble

    def poisoned(*args, **kwargs):
        system = real(*args, **kwargs)
        assembled.append(system)
        if len(assembled) == 2:
            system.rhs[np.flatnonzero(~system.mesh.boundary_vertex_mask)[0]] \
                = np.nan
        return system

    monkeypatch.setattr(afem, "assemble", poisoned)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(preset("smooth").to_json())
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert len(assembled) == 2
    assert "numerical failure: CG failed to converge (breakdown after" \
        in capsys.readouterr().err
    assert not (out / "run.csv").exists()


def test_cli_run_exits_2_when_output_runs_out_of_memory(tmp_path, monkeypatch,
                                                        capsys):
    # after the solve, the final estimate, the VTK file and summary.json
    # are guarded too: one line and exit 2, not a traceback and exit 1
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB for an array with "
                          "shape (134217728,) and data type float64")

    monkeypatch.setattr(cli, "write_vtk", exhausted)
    base = preset("smooth")
    cfg = replace(base, params=replace(base.params, tau0=1.0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == ("out of memory: Unable to allocate 1.00 GiB for an "
                       "array with shape (134217728,) and data type float64")
    assert not any(line.startswith("Traceback") for line in err)
    assert (out / "run.csv").exists()
    assert not (out / "summary.json").exists()


def test_cli_run_exits_2_when_memory_runs_out(tmp_path, monkeypatch, capsys):
    # an allocation failure anywhere in the solve is one line and exit 2
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array with "
                          "shape (1073741824,) and data type float64")

    monkeypatch.setattr(cli, "solve", exhausted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(preset("smooth").to_json())
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["out of memory: Unable to allocate 8.00 GiB for an array "
                   "with shape (1073741824,) and data type float64"]
    assert not (out / "run.csv").exists()


def test_cli_run_names_where_a_bare_memory_error_was_raised(
        tmp_path, monkeypatch, capsys):
    # Python's own containers raise MemoryError() with no message: the line
    # names the innermost frame instead
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "solve", exhausted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(preset("smooth").to_json())
    assert main(["run", "--config", str(cfg_path), "--out",
                 str(tmp_path / "results")]) == 2
    line = exhausted.__code__.co_firstlineno + 1
    assert capsys.readouterr().err.splitlines() == [
        f"out of memory: no details (raised at {__file__}:{line} in "
        "exhausted)"]


def test_cli_run_reuses_the_last_forcing(tmp_path, monkeypatch):
    # after run.csv is written, the VTK indicators come from the run's own
    # forcing: nothing is built and no point of F_r is evaluated again
    events = []
    build = forcing.RegularizedForcing.__init__
    point_eval = forcing.RegularizedForcing.eval
    to_csv = RunRecord.to_csv

    def built(self, *args, **kwargs):
        events.append("build")
        build(self, *args, **kwargs)

    def evaluated(self, points):
        events.append("eval")
        return point_eval(self, points)

    def written(self, *args, **kwargs):
        events.append("csv")
        to_csv(self, *args, **kwargs)

    monkeypatch.setattr(forcing.RegularizedForcing, "__init__", built)
    monkeypatch.setattr(forcing.RegularizedForcing, "eval", evaluated)
    monkeypatch.setattr(RunRecord, "to_csv", written)
    base = preset("lshape")
    cfg = replace(base, curve_segments=2048,
                  params=replace(base.params, mu=0.8, tau0=0.7, j_max=0,
                                 extra_final_step=True))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    assert main(["run", "--config", str(cfg_path), "--out",
                 str(tmp_path / "out")]) == 0
    assert events.count("csv") == 1
    assert "build" in events and "eval" in events
    assert events[events.index("csv") + 1:] == []


def test_cli_run_integrates_each_cell_once(tmp_path, monkeypatch):
    # every pass's energy error reuses the moments of the cells integrated
    # before it: no cell's quadrature points reach the exact gradient twice
    batches = []
    gradient = problems.SineProduct.gradient

    def recorded(self, points):
        batches.append(np.array(points, dtype=np.float64).reshape(-1, 2))
        return gradient(self, points)

    monkeypatch.setattr(problems.SineProduct, "gradient", recorded)
    base = preset("smooth")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(replace(base, params=replace(base.params, tau0=0.4))
                        .to_json())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--deterministic"]) == 0
    rows = RunRecord.from_csv(out / "run.csv").rows
    assert len(rows) >= 4
    cells = np.concatenate(batches).reshape(-1, 12)  # 6 points a cell
    assert len(np.unique(cells, axis=0)) == len(cells)
    assert len(cells) >= rows[-1].cells


def _read_vtk(path):
    """The header lines and the blocks of a legacy binary VTK file, read
    after the legacy spec: each keyword line is followed by its big-endian
    values and a newline. Returns (lines, {keyword or field name: array})."""
    data = path.read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode("ascii"), end + 1
        return text

    def block(dtype, count):
        nonlocal pos
        values = np.frombuffer(data, dtype, count, pos)
        pos += values.nbytes
        assert data[pos:pos + 1] == b"\n"
        pos += 1
        return values

    lines = [line() for _ in range(4)]
    arrays = {}
    while pos < len(data):
        lines.append(line())
        word, *rest = lines[-1].split()
        if word == "POINTS":
            arrays[word] = block(">f8", 3 * int(rest[0])).reshape(-1, 3)
        elif word == "CELLS":
            arrays[word] = block(">i4", int(rest[1])).reshape(-1, 4)
        elif word == "CELL_TYPES":
            arrays[word] = block(">i4", int(rest[0]))
        elif word in ("CELL_DATA", "POINT_DATA"):
            count = int(rest[0])  # the length of each field that follows
        elif word == "SCALARS":
            lines.append(line())  # LOOKUP_TABLE default
            arrays[rest[0]] = block(">f8", count)
    assert pos == len(data)  # the file ends after the last block
    return lines, arrays


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.uint64),
                          np.asarray(b, dtype=np.float64).view(np.uint64))


def test_write_vtk_blocks_read_back_bit_for_bit(tmp_path, rng):
    mesh = rect_mesh(3, 2, -0.3, 0.1, 1.7, 2.9)
    mesh = mesh.refine(range(0, mesh.num_cells, 3))
    u = rng.standard_normal(mesh.num_vertices) * 10.0 ** rng.integers(
        -300, 300, mesh.num_vertices)
    u[:4] = [np.nan, -0.0, np.inf, 5e-324]
    q = rng.standard_normal(mesh.num_cells)
    q[:2] = [-np.inf, -5e-324]
    path = tmp_path / "m.vtk"
    write_vtk(path, mesh, point_data={"u": u}, cell_data={"q": q})

    lines, arrays = _read_vtk(path)
    n, m = mesh.num_vertices, mesh.num_cells
    assert lines == ["# vtk DataFile Version 3.0", "mollifem output", "BINARY",
                     "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double",
                     f"CELLS {m} {4 * m}", f"CELL_TYPES {m}", f"CELL_DATA {m}",
                     "SCALARS q double 1", "LOOKUP_TABLE default",
                     f"POINT_DATA {n}", "SCALARS u double 1",
                     "LOOKUP_TABLE default"]
    assert _same_bits(arrays["POINTS"][:, :2], mesh.coords)
    assert _same_bits(arrays["POINTS"][:, 2], np.zeros(n))
    assert np.array_equal(arrays["CELLS"][:, 0], np.full(m, 3))
    assert np.array_equal(arrays["CELLS"][:, 1:], mesh.triangles)
    assert np.array_equal(arrays["CELL_TYPES"], np.full(m, 5))
    assert _same_bits(arrays["q"], q)
    assert _same_bits(arrays["u"], u)


def test_write_vtk_counts_and_validation(tmp_path):
    mesh = rect_mesh(1, 1, 0.0, 0.0, 1.0, 1.0)
    path = tmp_path / "m.vtk"
    write_vtk(path, mesh, point_data={"u": np.arange(4.0)},
              cell_data={"q": np.array([2.0, 7.0])})
    lines = _read_vtk(path)[0]
    assert f"POINTS {mesh.num_vertices} double" in lines
    assert f"CELLS {mesh.num_cells} {4 * mesh.num_cells}" in lines
    assert "SCALARS u double 1" in lines
    assert "SCALARS q double 1" in lines
    assert lines.index("CELL_DATA 2") < lines.index("POINT_DATA 4")
    with pytest.raises(ValueError, match="expected"):
        write_vtk(path, mesh, point_data={"u": np.arange(3.0)})
    # every field is checked before the file is opened, the last one too
    fresh = tmp_path / "bad.vtk"
    with pytest.raises(ValueError, match="'v' has 3 values, expected 4"):
        write_vtk(fresh, mesh, cell_data={"q": np.array([2.0, 7.0])},
                  point_data={"u": np.arange(4.0), "v": np.arange(3.0)})
    assert not fresh.exists()
