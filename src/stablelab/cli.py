"""Command line interface: run experiment configurations and list the
available scenarios.

Exit codes: 0 all checks passed (or trend-only), 1 check failure,
2 configuration error (parse, validation or a value a scenario refuses),
3 admissibility violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import load_config, reference_m_constant
from .errors import AdmissibilityError, ConfigurationError, StableLabError
from .report import _plain
from .scenarios import SCENARIO_RUNNERS, run_scenario


def list_scenarios() -> str:
    """Stable sorted listing of scenarios with their check anchors (each
    runner's docstring)."""
    anchors = {name: run.__doc__ for name, run in SCENARIO_RUNNERS.items()}
    anchors["full_suite"] = "all checks in dependency order"
    return "\n".join(f"{name}: {anchors[name]}" for name in sorted(anchors))


def run(config_path, out_dir=None, seed=None, grid_n=None, quick=False,
        stream=None) -> int:
    """Execute a configuration file; write the report bundle; return the
    exit status."""
    stream = stream or sys.stdout
    try:
        cfg = load_config(config_path)
    except (ConfigurationError, OSError) as exc:
        print(f"config error: {exc}", file=stream)
        return 2
    if seed is not None:
        cfg.seed = int(seed)
    if grid_n is not None:
        cfg.grid_n = int(grid_n)
    if quick:
        cfg = cfg.quick()
    try:
        cfg.validate(reference_m_constant(cfg.alpha, cfg.dim))
    except AdmissibilityError as exc:
        print(f"admissibility violation: {exc}", file=stream)
        return 3
    except StableLabError as exc:
        print(f"config error: {exc}", file=stream)
        return 2

    try:
        results = run_scenario(cfg)
    except ConfigurationError as exc:  # values validate cannot judge yet
        print(f"config error: {exc}", file=stream)
        return 2
    bundle_dir = Path(out_dir) if out_dir else (
        Path("reports") / time.strftime("%Y%m%d-%H%M%S"))
    bundle_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": cfg.as_dict(),
        "scenarios": [],
    }
    all_passed = True
    for res in results:
        block = {"name": res.name,
                 "reports": [r.as_dict() for r in res.reports],
                 "passed": res.passed}
        summary["scenarios"].append(block)
        all_passed = all_passed and res.passed
        for fname, payload in res.artifacts.items():
            path = bundle_dir / f"{res.name}__{fname}"
            if isinstance(payload, bytes):
                path.write_bytes(payload)
            else:
                path.write_text(payload, encoding="utf-8")
        for i, rep in enumerate(res.reports):
            (bundle_dir / f"{res.name}__{i:02d}_{rep.anchor}.json").write_text(
                rep.to_json(), encoding="utf-8")
    summary["verdict"] = "pass" if all_passed else "fail"
    (bundle_dir / "summary.json").write_text(json.dumps(
        _plain(summary), sort_keys=True, indent=1, allow_nan=False),
        encoding="utf-8")
    for res in results:
        for rep in res.reports:
            status = rep.verdict.upper()
            print(f"[{status}] {res.name}: {rep.anchor}", file=stream)
    print(f"verdict: {summary['verdict']} -> {bundle_dir}/summary.json",
          file=stream)
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablelab",
        description="desk-scale checks for stable processes with singular drifts")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configuration file")
    p_run.add_argument("config", help="path to a key=value or JSON config")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--seed", default=None, type=int)
    p_run.add_argument("--grid-n", default=None, type=int)
    p_run.add_argument("--quick", action="store_true",
                       help="halved grids and path counts")
    sub.add_parser("list-scenarios", help="list scenarios and their anchors")
    args = parser.parse_args(argv)
    if args.command == "list-scenarios":
        print(list_scenarios())
        return 0
    return run(args.config, out_dir=args.out_dir, seed=args.seed,
               grid_n=args.grid_n, quick=args.quick)


if __name__ == "__main__":
    sys.exit(main())
