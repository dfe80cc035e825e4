"""One benchmark run in a fresh process.

Usage: python3 child.py JOB_JSON

The job names the `src` directory to import stablelab from, the config
files, one report directory per config, and whether to stop after set-up,
to trace, or to run the speed probe (`probe.py`) while the configs run.
The process loads and validates the first config (imports plus
`reference_m_constant`, the set-up of every `stablelab run`), then runs
each config through `stablelab.cli.run`. It writes its CLOCK_MONOTONIC
timestamps, the exit statuses, the probe's figures and its environment to
the job's `result` file, and with tracing the spans to the job's
`trace_out` file.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """Library versions, BLAS build and thread variables, as found."""
    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "threads_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from stablelab import cli
    from stablelab.config import load_config, reference_m_constant

    tracer = None
    if job.get("trace_out"):
        from tracer import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
        # module attributes are looked up again after wrapping
        from stablelab.config import load_config, reference_m_constant

    cfg = load_config(job["configs"][0])
    cfg.validate(reference_m_constant(cfg.alpha, cfg.dim))
    t_setup = time.monotonic()
    statuses, probe = [], None
    if not job.get("setup_only"):
        if job.get("probe"):
            from probe import SpeedProbe

            probe = SpeedProbe()
            probe.start()
        for path, out_dir in zip(job["configs"], job["out_dirs"]):
            statuses.append(cli.run(path, out_dir=out_dir,
                                    stream=io.StringIO()))
    t_done = time.monotonic()
    if probe is not None:
        probe = probe.stop()
    if tracer is not None:
        tracer.dump(job["trace_out"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump({"t_setup": t_setup, "t_done": t_done, "probe": probe,
                   "statuses": statuses, "env": environment()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
