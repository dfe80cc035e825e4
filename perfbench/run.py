"""stablelab benchmark: runs one workload as fresh `stablelab` processes and
prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {evolve,spectral,paths}
        [--seed N] [--seconds S] [--trace 0|1]

Load is a closed loop with one client: one child process at a time. The
program gets the seed only through the generated configs, and no thread
or other environment setting is imposed on it; `child.py` records them.

`--trace 0` first starts a few processes that only set up, then runs the
workload, one fresh process per run, as often as fits in `--seconds`
(at least once), with the speed probe of `probe.py` in each run. It
prints the end-to-end metrics: the median `setup_s` over every process
started; `run_norm` and `cpu_norm`, the median over full runs of the
run's wall and CPU time (less the probe's own calls) divided by the mean
time of one probe call in that run; and the median `peak_rss_mb`. The raw
`run_s` and `cpu_s` and the fraction of checks failed go on `#` lines.

`--trace 1` runs the workload once untraced and twice traced (see
`tracer.py`), checks that the traced counts repeat exactly, prints the
per-scenario and per-layer tables and the per-layer metrics (the median
of the two traced runs; counts are equal), ignoring `--seconds`.

Both modes take the sha256 of every `summary.json`. `correct` is false
unless every process completed, all runs of the invocation share one
digest per config and, with `--trace 1`, the traced counts repeat. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` (checks attempted and failed, over all runs) and
`metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import aggregate
from workloads import (DEFAULT_SEED, WORKLOADS, expected_path_steps,
                       make_configs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
# generated configs, report bundles and spans; removed before exit
SCRATCH = ROOT / ".perfbench_tmp"

# whole invocation, below the 180 s a run may take
HARD_LIMIT_S = 170.0
# set-up-only processes per untraced invocation, besides the full runs
SETUP_PROBES = 5

END_TO_END = [("setup_s", "s"), ("run_norm", "probe"), ("cpu_norm", "probe"),
              ("peak_rss_mb", "MB")]

_SCENARIOS = ("sampler_check", "formbound_audit", "resolvent_verify",
              "weighted_verify", "evolution_verify", "sde_identify")
PER_LAYER = (
    ["config.reference_m_constant.s", "kernels.estimate_gradient_constant.s"]
    + [f"scenarios.{name}.s" for name in _SCENARIOS]
    + ["cli.run.self_s",
       "operators.fourier_apply.calls", "operators.fourier_apply.s",
       "operators.fourier_apply.points"]
    + [f"operators.fourier_apply.ms_per_call.n{n}" for n in (16, 32, 64, 128)]
    + ["operators.pointwise_apply.calls", "operators.pointwise_apply.s",
       "operators.neumann.applies", "operators.neumann.terms",
       "operators.neumann.s", "operators.neumann.max_ratio",
       "operators.norm_probe.calls", "operators.norm_probe.s",
       "formbound.power_iteration.calls", "formbound.power_iteration.iterations",
       "formbound.power_iteration.s", "formbound.estimate_weak_formbound.s",
       "formbound.estimate_kato_norm.s",
       "resolvent.assemble_lp_resolvent.calls",
       "resolvent.assemble_lp_resolvent.s",
       "resolvent.assemble_l2_resolvent.calls",
       "resolvent.assemble_l2_resolvent.s",
       "resolvent.lp_apply.calls", "resolvent.lp_apply.s"]
    + [f"resolvent.lp_apply.ms_per_call.n{n}" for n in (16, 32)]
    + ["resolvent.verify_lp_inequalities.s",
       "weighted.verify_weighted_markov.s", "weighted.verify_weighted_estimates.s",
       "weighted.verify_eta_b_integrability.s",
       "weighted.verify_weighted_lp_inequalities.s",
       "weighted.weighted_lp_resolvent.s",
       "drifts.mollify.calls", "drifts.mollify.s",
       "kernels.stable_marginal_cdf.s", "kernels.cutoff_mass.s",
       "evolution.propagate.calls", "evolution.propagate.steps",
       "evolution.propagate.s",
       "evolution.stepper_build.calls", "evolution.stepper_build.s",
       "evolution.split_step.calls", "evolution.split_step.s",
       "evolution.split_step.self_s", "evolution.split_step.ms_per_call.n32",
       "evolution.duhamel_residual.s", "evolution.conservativeness_check.s",
       "evolution.feller_convergence_check.s",
       "sde.integrate.calls", "sde.integrate.path_steps", "sde.integrate.s",
       "sde.integrate.path_steps_per_s", "sde.drift_at.calls", "sde.drift_at.s",
       "sde.mc_vs_semigroup.s", "sde.contraction_probe.s",
       "sampler.sample_increments.calls", "sampler.sample_increments.draws",
       "sampler.sample_increments.s", "sampler.empirical_char_function.s",
       "trace.overhead_frac"])

# counts that must repeat exactly between two traced runs
COUNT_KEYS = ("iterations", "terms", "steps", "path_steps", "draws", "points")


def layer_unit(metric: str) -> str:
    qty = metric.split(".", 2)[-1]
    if qty in ("s", "self_s"):
        return "s"
    if qty.startswith("ms_per_call"):
        return "ms"
    if qty == "path_steps_per_s":
        return "1/s"
    if qty in ("max_ratio", "overhead_frac"):
        return "ratio"
    return "count"


def layer_value(aggs: dict, metric: str):
    """A per-layer metric from aggregated spans; 0 when nothing ran."""
    module, fn, qty = metric.split(".", 2)
    agg = aggs.get(f"{module}.{fn}")
    if agg is None:
        return 0
    if qty in ("calls", "applies"):
        return agg["calls"]
    if qty in ("s", "self_s"):
        return agg[qty]
    if qty.startswith("ms_per_call.n"):
        calls, secs = agg["by_n"].get(qty[len("ms_per_call.n"):], (0, 0.0))
        return 1000.0 * secs / calls if calls else 0.0
    if qty == "path_steps_per_s":
        steps = agg["counts"].get("path_steps", 0)
        return steps / agg["s"] if agg["s"] else 0.0
    return agg["counts"].get(qty, 0)


def count_signature(aggs: dict) -> dict:
    """Everything in the aggregated spans that must repeat exactly."""
    return {name: {"calls": a["calls"],
                   "by_n": {n: c for n, (c, _) in sorted(a["by_n"].items())},
                   **{k: a["counts"][k] for k in sorted(a["counts"])
                      if k in COUNT_KEYS}}
            for name, a in sorted(aggs.items())}


def machine() -> dict:
    """nproc, CPU model and cache sizes, read from /proc and /sys."""
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
            "caches_per_core": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            tag = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            info["caches_per_core"][tag] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


class Runner:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, tmp: Path, hard_stop: float):
        self.workload = workload
        self.tmp = tmp
        self.hard_stop = hard_stop
        self.expected_checks = WORKLOADS[workload]["checks"]
        self.configs = make_configs(workload, seed)
        self.config_paths = []
        for i, doc in enumerate(self.configs):
            path = tmp / f"config{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.config_paths.append(str(path))
        self.count = 0

    def run(self, setup_only=False, trace=False, probe=False) -> dict:
        self.count += 1
        run_id = f"{self.workload}-{self.count}"
        job = {"src": str(SRC), "run_id": run_id,
               "configs": self.config_paths,
               "out_dirs": [str(self.tmp / f"{run_id}-out{i}")
                            for i in range(len(self.config_paths))],
               "setup_only": setup_only, "probe": probe,
               "result": str(self.tmp / f"{run_id}.result.json"),
               "trace_out": str(self.tmp / f"{run_id}.spans.json") if trace else None}
        job_path = self.tmp / f"{run_id}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        err_path = self.tmp / f"{run_id}.stderr"
        with open(err_path, "w", encoding="utf-8") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(job_path)],
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=str(ROOT))
            usage, timed_out = _wait(proc, self.hard_stop)
            wall = time.monotonic() - t_spawn
        run = {"id": run_id, "wall_s": wall, "exit": proc.returncode,
               "timed_out": timed_out,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "checks": 0, "failed": 0, "failed_names": [], "digests": []}
        try:
            result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = None
        run["ok"] = (result is not None and proc.returncode == 0
                     and not timed_out)
        if run["ok"]:
            run["setup_s"] = result["t_setup"] - t_spawn
            run["run_s"] = result["t_done"] - result["t_setup"]
            run["probe"] = result["probe"]
            if run["probe"]:
                run["run_s"] -= run["probe"]["sum_s"]
                run["cpu_s"] -= run["probe"]["sum_s"]
            run["env"] = result["env"]
            run["statuses"] = result["statuses"]
        if not setup_only:
            self._read_bundles(run, job["out_dirs"])
        if trace and run["ok"]:
            spans = json.loads(Path(job["trace_out"]).read_text(encoding="utf-8"))
            run["aggs"] = aggregate(spans["spans"])
        if not run["ok"]:
            tail = err_path.read_text(encoding="utf-8")[-2000:]
            run["stderr"] = " | ".join(tail.splitlines())
        return run

    def _read_bundles(self, run: dict, out_dirs) -> None:
        """Digest and score every summary.json, then delete the bundles.
        A config without a summary, or with a status other than 0 (pass)
        or 1 (a check failed), counts all the workload's checks as failed."""
        statuses = run.get("statuses", [])
        complete = run["ok"] and len(statuses) == len(out_dirs)
        for i, out_dir in enumerate(out_dirs):
            summary = Path(out_dir) / "summary.json"
            if not complete or statuses[i] not in (0, 1) or not summary.exists():
                complete = False
                continue
            raw = summary.read_bytes()
            run["digests"].append(hashlib.sha256(raw).hexdigest())
            doc = json.loads(raw)
            for block in doc["scenarios"]:
                for rep in block["reports"]:
                    run["checks"] += len(rep["metrics"])
                    run["failed"] += len(rep["failures"])
                    run["failed_names"] += [f"{block['name']}:{rep['anchor']}:{f}"
                                            for f in rep["failures"]]
        for out_dir in out_dirs:
            shutil.rmtree(out_dir, ignore_errors=True)
        if not complete:
            run["ok"] = False
            run["checks"] = max(run["checks"], self.expected_checks)
            run["failed"] = run["checks"]


def _wait(proc, deadline: float):
    """Reap ``proc`` with its resource usage; kill it at ``deadline``."""
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, seconds: float) -> tuple:
    probes = [runner.run(setup_only=True) for _ in range(SETUP_PROBES)]
    runs = []
    start = time.monotonic()
    while True:
        runs.append(runner.run(probe=True))
        typical = _median([r["wall_s"] for r in runs])
        now = time.monotonic()
        if (now - start + typical > seconds
                or now + 1.5 * typical > runner.hard_stop):
            break
    full = [r for r in runs if r["ok"]]
    metrics = {
        "setup_s": _median([r["setup_s"] for r in probes + runs if r["ok"]]),
        "run_norm": _median([r["run_s"] / r["probe"]["mean_s"] for r in full]),
        "cpu_norm": _median([r["cpu_s"] / r["probe"]["mean_s"] for r in full]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in full]),
    }
    return probes, runs, metrics


def trace(runner: Runner) -> tuple:
    reference = runner.run(probe=True)
    traced = [runner.run(trace=True), runner.run(trace=True)]
    problems = []
    if all(r["ok"] for r in traced):
        sigs = [count_signature(r["aggs"]) for r in traced]
        if sigs[0] != sigs[1]:
            diff = sorted(k for k in set(sigs[0]) | set(sigs[1])
                          if sigs[0].get(k) != sigs[1].get(k))
            problems.append(f"traced counts differ between runs: {diff}")
        want = expected_path_steps(runner.configs)
        got = layer_value(traced[0]["aggs"], "sde.integrate.path_steps")
        if got != want:
            problems.append(f"sde.integrate.path_steps = {got}, "
                            f"the configs imply {want}")
    metrics = {}
    good = [r for r in traced if r["ok"]]
    for name in PER_LAYER[:-1]:
        values = [layer_value(r["aggs"], name) for r in good]
        # counts are equal in both runs; times are the median of the two
        metrics[name] = values[0] if layer_unit(name) == "count" else _median(values)
    if reference["ok"] and good:
        metrics["trace.overhead_frac"] = (
            _median([r["run_s"] for r in good]) / reference["run_s"] - 1.0)
    else:
        metrics["trace.overhead_frac"] = 0.0
    return [reference] + traced, metrics, problems


def print_tables(run: dict, out) -> None:
    """Per-scenario time (by total time: a runner's self time is nil) and
    per-layer and per-function tables by self time, of one traced run."""
    aggs = run["aggs"]
    total = run["run_s"]
    rows = sorted(((name, a) for name, a in aggs.items()
                   if name.split(".", 1)[0] == "scenarios"
                   and name.split(".", 1)[1] in _SCENARIOS),
                  key=lambda item: -item[1]["s"])
    print(f"# per-scenario time ({run['id']}, run_s {total:.3f} s)", file=out)
    print(f"#   {'scenario':<28}{'s [s]':>10}{'self [s]':>10}{'share':>8}", file=out)
    for name, a in rows:
        print(f"#   {name:<28}{a['s']:>10.3f}{a['self_s']:>10.3f}"
              f"{a['s'] / total:>8.1%}", file=out)
    layers = {}
    for name, a in aggs.items():
        layer = layers.setdefault(name.split(".", 1)[0], [0.0, 0])
        layer[0] += a["self_s"]
        layer[1] += a["calls"]
    print("# per-layer self time (spans of the module's functions and methods)",
          file=out)
    print(f"#   {'layer':<16}{'self [s]':>10}{'share':>8}{'calls':>10}", file=out)
    for layer, (self_s, calls) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
        print(f"#   {layer:<16}{self_s:>10.3f}{self_s / total:>8.1%}{calls:>10d}",
              file=out)
    print("# top functions by self time", file=out)
    print(f"#   {'span':<44}{'self [s]':>10}{'s [s]':>10}{'calls':>9}", file=out)
    top = sorted(aggs.items(), key=lambda kv: -kv[1]["self_s"])[:15]
    for name, a in top:
        print(f"#   {name:<44}{a['self_s']:>10.3f}{a['s']:>10.3f}"
              f"{a['calls']:>9d}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stablelab" / "cli.py").is_file():
        print(f"error: no stablelab sources under {SRC}", file=sys.stderr)
        return 2
    hard_stop = time.monotonic() + HARD_LIMIT_S
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        runner = Runner(args.workload, args.seed, tmp, hard_stop)
        if args.trace:
            runs, metrics, problems = trace(runner)
            units = {name: layer_unit(name) for name in PER_LAYER}
        else:
            probes, runs, metrics = measure(runner, args.seconds)
            problems = [f"set-up process {r['id']} failed: {r.get('stderr', '')}"
                        for r in probes if not r["ok"]]
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    out = sys.stdout
    attempted = sum(r["checks"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = {tuple(r["digests"]) for r in runs if r["ok"]}
    if len(digests) > 1:
        problems.append(f"summary.json digests differ between runs: {sorted(digests)}")
    for r in runs:
        if not r["ok"]:
            problems.append(f"run {r['id']} failed (exit {r['exit']}, "
                            f"timed out {r['timed_out']}): {r.get('stderr', '')}")
    failed_names = sorted({n for r in runs for n in r["failed_names"]})
    env = next((r["env"] for r in runs if r.get("env")), {})
    print("# environment: " + json.dumps({**machine(), **env}, sort_keys=True),
          file=out)
    print(f"# workload {args.workload}, seed {args.seed}: "
          + json.dumps({k: v for k, v in WORKLOADS[args.workload].items()
                        if k != "configs"}), file=out)
    for r in runs:
        print(f"# {r['id']}: ok {r['ok']}, wall {r['wall_s']:.3f} s, "
              f"setup {r.get('setup_s', 0.0):.3f} s, run {r.get('run_s', 0.0):.3f} s, "
              f"cpu {r['cpu_s']:.3f} s, rss {r['peak_rss_mb']:.1f} MB, "
              + (f"probe {r['probe']['n']} x {r['probe']['mean_s'] * 1e3:.3f} ms, "
                 if r.get("probe") else "")
              + f"checks {r['checks'] - r['failed']}/{r['checks']}, "
              f"digests {[d[:16] for d in r['digests']]}", file=out)
    if args.trace and runs[1]["ok"]:
        print_tables(runs[1], out)
    full = [r for r in runs if r["ok"]]
    if not args.trace and full:
        print(f"# raw medians over {len(full)} run(s): run_s "
              f"{_median([r['run_s'] for r in full]):.3f} s, cpu_s "
              f"{_median([r['cpu_s'] for r in full]):.3f} s", file=out)
    print(f"# check_fail_frac {failed / attempted if attempted else 1.0:.6g}",
          file=out)
    if failed_names:
        print(f"# failed checks: {failed_names}", file=out)
    for problem in problems:
        print(f"# PROBLEM: {problem}", file=out)
    # a failed check is a measured outcome (`failed`, `check_fail_frac`);
    # `correct` is the gate: complete runs, one digest, repeatable counts
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
