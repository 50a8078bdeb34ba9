"""One measured mollifem process, started fresh by run.py for every sample.

    python3 child.py setup CONFIG
        import mollifem.cli, build the problem and its initial mesh, exit;
        run.py times the whole process.
    python3 child.py run CONFIG OUT
    python3 child.py trace CONFIG OUT
        time `mollifem run --config CONFIG --out OUT --deterministic` and
        write OUT/measure.json; `trace` first wraps the layers (layers.py)
        and adds their spans and per-layer metrics.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _setup(config: str) -> int:
    import mollifem.cli  # noqa: F401  (the import is what is timed)
    from mollifem.config import ExperimentConfig
    from mollifem.problems import make_problem

    cfg = ExperimentConfig.load(config)
    make_problem(cfg.problem, cfg.curve_segments,
                 cfg.initial_divisions).initial_mesh()
    return 0


def _run(config: str, out: str, trace: bool) -> int:
    import numpy
    import scipy

    import mollifem.cli

    recorder = None
    if trace:
        from layers import Recorder, summarize

        recorder = Recorder()
        recorder.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = mollifem.cli.main(["run", "--config", config, "--out", out,
                              "--deterministic"])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    if recorder is not None:
        result["layers"] = summarize(recorder.spans, wall)
        with open(Path(out) / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    with open(Path(out) / "measure.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return _setup(argv[1])
    return _run(argv[1], argv[2], trace=mode == "trace")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
