"""mollifem benchmark: fixed `mollifem run --deterministic` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload smooth-plain --seed 1 --seconds 15 --trace 0

Every sample is a fresh single-threaded child process (child.py), so each
pays the imports and cache fills a user pays and has its own peak RSS. With
``--trace 0`` the benchmark alternates set-up probes and untraced runs of the
workload until ``--seconds`` have passed (at least one run, at least three
probes) and prints the end-to-end metrics as medians. With ``--trace 1`` it
alternates untraced and traced runs and prints the per-layer metrics of the
traced runs (layers.py). Every run's outputs are checked; a run that fails a
check counts as failed and is never dropped.

The workloads are fixed configurations with no random input, so ``--seed``
only labels the result. The last line of standard output is the result
object; the line before it records the software and thread settings, and
``.perfbench-work/<workload>/result.json`` keeps every sample.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import THREAD_VARS
from layers import median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = HERE / "child.py"

# name -> (preset, params overrides). See BENCHMARK.json for why each exists.
WORKLOADS = {
    "smooth-plain": ("smooth", {"tau0": 0.12}),
    "lshape-reg": ("lshape", {"mu": 0.8, "tau0": 0.5, "j_max": 1}),
    "square-line": ("square-baseline", {"tau0": 0.9, "j_max": 0}),
}

MIN_SETUP_PROBES = 3
# A whole invocation must end within 180 s; no child may run past this.
HARD_LIMIT_S = 170.0


class Invocation:
    """The samples of one invocation for one workload."""

    def __init__(self, workload: str, deadline: float):
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        preset_name, overrides = WORKLOADS[workload]
        from mollifem.config import preset

        cfg = preset(preset_name).to_dict()
        cfg["params"].update(overrides)
        cfg["output_dir"] = str(self.dir / "out")
        self.cfg = cfg
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(cfg, indent=2) + "\n")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.env.update({v: "1" for v in THREAD_VARS})
        self.deadline = deadline
        self.ref_csv: bytes | None = None
        self.samples: list[dict] = []

    def _child(self, args: list[str], log: Path) -> tuple[int | None, float]:
        """Run child.py; (exit code or None if it hung, elapsed seconds)."""
        timeout = self.deadline - time.perf_counter()
        start = time.perf_counter()
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD)] + args, cwd=ROOT,
                    env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                    timeout=max(timeout, 1.0))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = None
        return code, time.perf_counter() - start

    def setup_probe(self) -> None:
        n = sum(s["kind"] == "setup" for s in self.samples)
        code, elapsed = self._child(["setup", str(self.config)],
                                    self.dir / f"setup-{n:02d}.log")
        self.samples.append(
            {"kind": "setup", "setup_s": elapsed,
             "problems": [] if code == 0 else [f"exit code {code}"]})

    def run(self, traced: bool) -> dict:
        n = sum(s["kind"] != "setup" for s in self.samples)
        out = self.dir / f"run-{n:02d}"
        out.mkdir()
        code, elapsed = self._child(
            ["trace" if traced else "run", str(self.config), str(out)],
            out / "child.log")
        sample = {"kind": "trace" if traced else "run", "dir": out.name,
                  "elapsed_s": elapsed, "wall_s": elapsed, "exit_code": code}
        problems = []
        if code is None:
            problems.append("hung: killed at the time limit")
        elif code != 0:
            problems.append(f"exit code {code}")
        try:
            measure = json.loads((out / "measure.json").read_text())
            sample.update(measure)
        except (OSError, ValueError) as exc:
            problems.append(f"no measure.json: {exc}")
        problems += self._check_outputs(out, sample)
        if traced and "layers" in sample:
            err = sample["layers"]["closure_error_s"]
            if not err <= 1e-6 * max(sample["wall_s"], 1.0):
                problems.append(f"trace does not close: gap {err:.3g} s")
        sample["problems"] = problems
        self.samples.append(sample)
        return sample

    def _check_outputs(self, out: Path, sample: dict) -> list[str]:
        from mollifem.afem import RunRecord

        try:
            record = RunRecord.from_csv(out / "run.csv")
            summary = json.loads((out / "summary.json").read_text())
            csv_bytes = (out / "run.csv").read_bytes()
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        if not record.rows:
            return ["run.csv has no rows"]
        problems = []
        # `plain` rows carry the solve target itself; the other drivers
        # record the stage tau and solve down to mu * tau.
        mu = 1.0 if self.cfg["algorithm"] == "plain" else \
            self.cfg["params"]["mu"]
        for row in record.u_samples():
            if not row.estimator_total <= mu * row.tau + 1e-12:
                problems.append(
                    f"stage j={row.j}: estimator {row.estimator_total!r} > "
                    f"mu*tau {mu * row.tau!r}")
        last = record.rows[-1]
        if not (math.isfinite(last.energy_error) and last.energy_error > 0):
            problems.append(f"final energy error {last.energy_error!r}")
        if summary.get("final_dofs") != last.dofs:
            problems.append(f"summary final_dofs {summary.get('final_dofs')}"
                            f" != run.csv {last.dofs}")
        vtk = out / "solution.vtk"
        if not (vtk.is_file() and vtk.stat().st_size):
            problems.append("solution.vtk is missing or empty")
        if self.ref_csv is None:
            self.ref_csv = csv_bytes
        elif csv_bytes != self.ref_csv:
            problems.append("run.csv differs from the first run")
        sample.update(final_dofs=last.dofs,
                      final_energy_error=last.energy_error,
                      cum_dofs=sum(r.dofs for r in record.rows))
        return problems

    @property
    def failed(self) -> int:
        return sum(bool(s["problems"]) for s in self.samples)

    def time_left(self, last: float) -> bool:
        """Whether another sample as long as `last` fits before the limit."""
        return time.perf_counter() + 1.2 * last + 5.0 < self.deadline


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(inv: Invocation, seconds: float, start: float) -> dict:
    while True:
        inv.setup_probe()
        sample = inv.run(traced=False)
        if (time.perf_counter() - start >= seconds or sample["problems"]
                or not inv.time_left(sample["elapsed_s"])):
            break
    while sum(s["kind"] == "setup" for s in inv.samples) < MIN_SETUP_PROBES:
        inv.setup_probe()
    runs = [s for s in inv.samples if s["kind"] == "run"]
    good = [s for s in runs if not s["problems"]] or runs
    setups = [s for s in inv.samples if s["kind"] == "setup"]
    metrics = {"wall_s": _median(good, "wall_s"),
               "setup_s": _median(setups, "setup_s")}
    for key in ("peak_rss_mb", "final_dofs", "final_energy_error"):
        metrics[key] = _median(good, key) if all(key in s for s in good) \
            else 0.0
    metrics["cum_dofs_per_s"] = statistics.median(
        s.get("cum_dofs", 0) / s["wall_s"] for s in good)
    metrics["pass_rate"] = 1.0 - inv.failed / len(inv.samples)
    return metrics


def per_layer(inv: Invocation, seconds: float, start: float) -> dict:
    while True:
        plain = inv.run(traced=False)
        traced = inv.run(traced=True)
        if (time.perf_counter() - start >= seconds
                or plain["problems"] or traced["problems"]
                or not inv.time_left(plain["elapsed_s"]
                                     + traced["elapsed_s"])):
            break
    runs = [s for s in inv.samples if s["kind"] == "run"]
    traces = [s for s in inv.samples if "layers" in s]
    if not traces:
        return {}
    metrics = median_metrics([s["layers"] for s in traces])
    metrics["trace.overhead"] = (metrics["trace.wall_s"]
                                 / _median(runs, "wall_s") - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mollifem" / "cli.py").is_file():
        print(f"error: no mollifem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    inv = Invocation(args.workload, start + HARD_LIMIT_S)
    if args.trace:
        metrics = per_layer(inv, args.seconds, start)
        spec = bench["per_layer"]
    else:
        metrics = end_to_end(inv, args.seconds, start)
        spec = bench["end_to_end"]
    first = next((s for s in inv.samples if "python" in s), {})
    env = {k: first.get(k) for k in ("python", "numpy", "scipy", "nproc",
                                     "threads")}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "samples": inv.samples}
    (inv.dir / "result.json").write_text(json.dumps(record, indent=1))
    for s in inv.samples:
        for problem in s["problems"]:
            print(f"FAILED {s['kind']} {s.get('dir', '')}: {problem}",
                  file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": env}))
    print(json.dumps({
        "correct": inv.failed == 0 and bool(metrics),
        "attempted": len(inv.samples),
        "failed": inv.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in spec if metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
