import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablelab import cli, config, drifts
from stablelab.errors import AdmissibilityError, ConfigurationError
from stablelab.report import VerificationReport, build_report


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_sectioned_config():
    cfg = config.parse_config("""
[experiment]
scenario = sampler_check

[parameters]
alpha = 1.4
grid_n = 16
lambda_ladder = 0.1 0.01

[drift]
kind = hardy
delta = 0.04
alpha = 1.4
dim = 3
""")
    assert cfg.scenario == "sampler_check"
    assert cfg.alpha == 1.4
    assert cfg.lambda_ladder == (0.1, 0.01)
    assert cfg.drift.kind == "hardy"
    assert cfg.drift.parameters["delta"] == 0.04


def test_parse_json_config():
    cfg = config.parse_config(json.dumps({
        "scenario": "formbound_audit", "n_paths": 500,
        "mu_ladder": [10.0, 100.0]}))
    assert cfg.scenario == "formbound_audit"
    assert cfg.n_paths == 500
    assert cfg.mu_ladder == (10.0, 100.0)


_REAL = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(1e-6, 1e6)
_DIM = st.shared(st.integers(3, 5), key="dim")
_DRIFTS = st.one_of(
    st.none(),
    st.builds(drifts.hardy_drift, _POSITIVE, st.floats(1.05, 1.95), _DIM),
    st.builds(drifts.lp_radial_drift, _REAL, st.floats(-2.0, 2.9), _DIM),
    st.builds(drifts.bounded_smooth_drift, st.lists(_REAL, min_size=1,
                                                    max_size=1), _POSITIVE,
              _DIM))


@settings(max_examples=60, deadline=None)
@given(cfg=st.builds(
    config.ExperimentConfig,
    scenario=st.sampled_from(sorted(config.SCENARIO_RUNNERS) + ["full_suite"]),
    dim=_DIM, alpha=st.floats(1.05, 1.95), delta=_POSITIVE, nu=_REAL,
    p=_REAL, q=_REAL, r=_REAL, grid_n=st.integers(4, 512),
    half_length=_POSITIVE,
    lambda_ladder=st.lists(_REAL, max_size=4).map(tuple),
    mu_ladder=st.lists(_REAL, max_size=4).map(tuple),
    t_list=st.lists(_REAL, max_size=4).map(tuple),
    n_paths=st.integers(1, 10**7), dt=_POSITIVE, seed=st.integers(0, 2**63 - 1),
    drift=_DRIFTS, m_constant=st.one_of(st.none(), _REAL)))
def test_config_as_dict_round_trip(cfg):
    assert config.parse_config(json.dumps(cfg.as_dict())) == cfg


# malformed or out-of-range values, with the key each message must name
_BAD_VALUES = [
    ("[parameters]\ngrid_n = abc\n", "grid_n"),
    ('{"dim": [3]}', "dim"),
    ("[drift]\ndelta = zz\n", "drift.delta"),
    ('{"lambda_ladder": "0.1, x"}', "lambda_ladder"),
    ('{"drift": {"kind": "nope"}}', "drift"),
    ('{"drift": 5}', "drift"),
    ("[parameters]\nalpha = 2.5\n", "alpha"),
    ("[parameters]\ndim = 2\n", "dim"),
    ("[parameters]\ngrid_n = 32.9\n", "grid_n"),
    ('{"grid_n": 32.9}', "grid_n"),
    ('{"seed": 1.5}', "seed"),
    ('{"n_paths": Infinity}', "n_paths"),
]


def test_parse_errors():
    for text, key in _BAD_VALUES:
        with pytest.raises(ConfigurationError, match=key):
            config.parse_config(text)
    # an integral float is an int
    cfg = config.parse_config('{"n_paths": 2.5e4, "grid_n": 16.0}')
    assert (cfg.n_paths, cfg.grid_n) == (25000, 16)
    assert type(cfg.n_paths) is int
    with pytest.raises(ConfigurationError):
        config.parse_config("")
    with pytest.raises(ConfigurationError):
        config.parse_config("{not json")
    with pytest.raises(ConfigurationError):
        config.parse_config("[experiment]\nscenario = nonsense\n")
    with pytest.raises(ConfigurationError):
        config.parse_config("[parameters]\nwavelength = 3\n")


def test_validation_thresholds():
    cfg = config.ExperimentConfig(delta=0.3)
    with pytest.raises(AdmissibilityError):
        cfg.validate(m_constant=3.0)
    cfg2 = config.ExperimentConfig(p=4.0)  # below the weighted floor
    with pytest.raises(AdmissibilityError, match="for the weighted estimates"):
        cfg2.validate(m_constant=3.0)
    cfg3 = config.ExperimentConfig(p=50.0, q=60.0)  # above the exponent interval
    with pytest.raises(AdmissibilityError, match="admissible exponent interval"):
        cfg3.validate(m_constant=3.0)
    ok = config.ExperimentConfig()
    ok.validate(m_constant=3.0)
    assert ok.m_constant == 3.0


def test_quick_halves():
    cfg = config.ExperimentConfig(grid_n=64, n_paths=40000)
    q = cfg.quick()
    assert q.grid_n == 32 and q.n_paths == 20000


def test_default_pack_is_admissible():
    m = config.reference_m_constant(1.5, 3)
    cfg = config.ExperimentConfig()
    cfg.validate(m)


def test_exit_code_2_on_parse_error(tmp_path):
    out = io.StringIO()
    bad = write(tmp_path, "bad.cfg", "")
    assert cli.run(bad, stream=out) == 2
    missing = str(tmp_path / "missing.cfg")
    assert cli.run(missing, stream=out) == 2
    malformed = write(tmp_path, "malformed.cfg", "[parameters]\ngrid_n = abc\n")
    assert cli.run(malformed, stream=out) == 2
    good = write(tmp_path, "good.cfg", "[experiment]\nscenario = sampler_check\n")
    for seed in (-1, 2**64):
        assert cli.run(good, seed=seed, stream=out) == 2
    assert "Traceback" not in out.getvalue()
    assert "seed = -1 must lie in [0, 2^64)" in out.getvalue()


# values that parse but cannot run, each with the key its refusal names
_UNRUNNABLE = [('{"scenario": "sde_identify", "dt": 0}', "dt"),
               ('{"dt": -0.0125}', "dt"),
               ('{"scenario": "formbound_audit", "half_length": -1}',
                "half_length"),
               ('{"half_length": 0}', "half_length"),
               ('{"t_list": []}', "t_list"),
               ('{"lambda_ladder": []}', "lambda_ladder"),
               ('{"mu_ladder": []}', "mu_ladder"),
               ("[parameters]\nmu_ladder =\n", "mu_ladder")]


def test_exit_code_2_on_unrunnable_values(tmp_path):
    for i, (text, key) in enumerate(_UNRUNNABLE):
        out = io.StringIO()
        assert cli.run(write(tmp_path, f"bad{i}.cfg", text), stream=out) == 2
        assert out.getvalue().startswith(f"config error: {key} ")
        assert "Traceback" not in out.getvalue()


def test_exit_code_2_on_a_grid_n_with_no_lattice(tmp_path, monkeypatch):
    # formbound_audit (alone or in full_suite) also builds grid_n // 2
    def refuse(cfg):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    cases = [('{"scenario": "formbound_audit", "grid_n": 0}', {}),
             ('{"scenario": "formbound_audit", "grid_n": 6}', {}),
             ('{"scenario": "formbound_audit", "grid_n": 10}', {}),
             ('{"grid_n": 6}', {}),
             ('{"scenario": "sampler_check", "grid_n": 5}', {}),
             ('{"scenario": "sde_identify", "grid_n": 2}', {}),
             ('{"scenario": "formbound_audit"}', {"grid_n": 6}),
             ('{"scenario": "formbound_audit", "grid_n": 36}', {"quick": True})]
    for i, (text, kwargs) in enumerate(cases):
        out = io.StringIO()
        path = write(tmp_path, f"grid{i}.json", text)
        assert cli.run(path, stream=out, **kwargs) == 2, text
        assert out.getvalue().startswith(
            "config error: bad value for config key 'grid_n': "
            "points_per_axis must be even and >= 4"), out.getvalue()
        assert "Traceback" not in out.getvalue()


def test_exit_code_2_on_a_value_a_scenario_refuses(tmp_path):
    # validate passes half_length 3; evolution_verify's stepper refuses it
    out = io.StringIO()
    path = write(tmp_path, "short.json",
                 '{"scenario": "evolution_verify", "half_length": 3.0}')
    assert cli.run(path, out_dir=str(tmp_path / "out"), stream=out) == 2
    assert out.getvalue() == ("config error: advection Courant number "
                              "1.213 > 1; increase steps\n")
    assert not (tmp_path / "out").exists()


def test_every_grid_n_with_its_lattices_validates():
    m = config.reference_m_constant(1.5, 3)
    for scenario, grid_n in [("formbound_audit", 8), ("formbound_audit", 12),
                             ("full_suite", 16), ("sampler_check", 6),
                             ("evolution_verify", 4), ("sde_identify", 10)]:
        config.ExperimentConfig(scenario=scenario, grid_n=grid_n).validate(m)


def test_exit_code_2_on_an_unsupported_dimension(tmp_path):
    # the radial quadratures behind the admissibility constant cover d = 3
    out = io.StringIO()
    dim4 = write(tmp_path, "dim4.json", '{"scenario": "sampler_check", "dim": 4}')
    assert cli.run(dim4, stream=out) == 2
    assert out.getvalue() == (
        "config error: radial quadrature supports dim 1 or 3, got 4\n")


def test_benchmark_default_and_quick_configs_validate():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import DEFAULT_SEED, WORKLOADS, make_configs
    finally:
        sys.path.pop(0)
    docs = [{}] + [doc for name in WORKLOADS
                   for doc in make_configs(name, DEFAULT_SEED)]
    m = config.reference_m_constant(1.5, 3)
    for doc in docs:
        cfg = config.parse_config(json.dumps(doc))
        cfg.validate(m)
        cfg.quick().validate(m)


def test_exit_code_3_on_admissibility(tmp_path):
    out = io.StringIO()
    bad = write(tmp_path, "inadm.cfg",
                "[experiment]\nscenario = sampler_check\n"
                "[parameters]\ndelta = 0.9\n")
    assert cli.run(bad, stream=out) == 3
    assert "admissibility" in out.getvalue()
    assert "weak form-bound" in out.getvalue()


def test_list_scenarios_stable():
    first = cli.list_scenarios()
    second = cli.list_scenarios()
    assert first == second
    lines = first.splitlines()
    assert len(lines) == 7
    assert lines == sorted(lines)
    assert all(":" in line for line in lines)


def test_run_scenario_writes_bundle(tmp_path):
    out = io.StringIO()
    cfg = write(tmp_path, "ok.cfg",
                "[experiment]\nscenario = sampler_check\n"
                "[parameters]\nn_paths = 4000\nseed = 3\n")
    code = cli.run(cfg, out_dir=str(tmp_path / "bundle"), stream=out)
    assert code == 0
    summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
    assert summary["verdict"] == "pass"
    assert summary["config"]["seed"] == 3
    assert summary["scenarios"][0]["name"] == "sampler_check"
    reports = summary["scenarios"][0]["reports"]
    for rep in reports:
        assert set(rep) >= {"anchor", "inputs", "metrics", "tolerances",
                            "verdict", "provenance", "failures"}
    assert (tmp_path / "bundle" / "sampler_check__sampler_char_function.csv").exists()


def test_rerun_reproduces_summary(tmp_path):
    out = io.StringIO()
    cfg = write(tmp_path, "ok.cfg",
                "[experiment]\nscenario = sampler_check\n"
                "[parameters]\nn_paths = 4000\n")
    cli.run(cfg, out_dir=str(tmp_path / "one"), stream=out)
    cli.run(cfg, out_dir=str(tmp_path / "two"), stream=out)
    a = (tmp_path / "one" / "summary.json").read_bytes()
    b = (tmp_path / "two" / "summary.json").read_bytes()
    assert a == b


def test_a_run_replays_from_its_own_summary_config(tmp_path):
    # summary.json["config"] is a whole config: run from it, the same
    # summary.json comes out byte for byte
    first = write(tmp_path, "audit.cfg",
                  "[experiment]\nscenario = formbound_audit\n"
                  "[parameters]\ngrid_n = 16\nseed = 7\ndelta = 0.04\n"
                  "[drift]\nkind = hardy\ndelta = 0.04\nalpha = 1.5\n")
    out = io.StringIO()
    assert cli.run(first, out_dir=str(tmp_path / "one"), stream=out) == 0
    summary = (tmp_path / "one" / "summary.json").read_bytes()
    doc = json.loads(summary)["config"]
    assert doc["seed"] == 7 and doc["drift"]["parameters"]["delta"] == 0.04
    again = write(tmp_path, "replay.json", json.dumps(doc))
    assert cli.run(again, out_dir=str(tmp_path / "two"), stream=out) == 0
    assert (tmp_path / "two" / "summary.json").read_bytes() == summary


def test_summary_identical_across_processes(tmp_path):
    # digests of summary.json are compared across fresh processes, where
    # no in-process cache or state can be shared between the runs
    cfg = write(tmp_path, "audit.cfg",
                "[experiment]\nscenario = formbound_audit\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in ("one", "two"):
        done = subprocess.run(
            [sys.executable, "-m", "stablelab.cli", "run", cfg,
             "--grid-n", "16", "--out-dir", str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
    a = (tmp_path / "one" / "summary.json").read_bytes()
    b = (tmp_path / "two" / "summary.json").read_bytes()
    assert a == b


LISTING = """\
evolution_verify: drifted semigroup: perturbation identity, mass, approximation
formbound_audit: drift classes: weak form-bound and Kato-norm estimates
full_suite: all checks in dependency order
resolvent_verify: perturbed resolvent factorizations and L^p potential bounds
sampler_check: stable increment law: characteristic exponent exp(-t|k|^alpha)
sde_identify: path law: Monte Carlo semigroup match and noise recovery
weighted_verify: polynomial-weight resolvent estimates and conjugated generator
"""


def test_list_scenarios_output_is_fixed(capsys):
    # the anchors are the runners' docstrings; the listing must not drift
    assert cli.main(["list-scenarios"]) == 0
    assert capsys.readouterr().out == LISTING


def test_cli_main_entry(tmp_path, capsys):
    assert cli.main(["list-scenarios"]) == 0
    captured = capsys.readouterr()
    assert "sampler_check" in captured.out


def test_report_builder_failure_listing():
    rep = build_report("demo", {"x": 1}, [
        ("ok_metric", 0.5, "<= 1", True),
        ("bad_metric", 2.0, "<= 1", False),
    ])
    assert rep.verdict == "fail"
    assert rep.failures == ["bad_metric"]
    clone = json.loads(rep.to_json())
    assert clone["metrics"]["bad_metric"] == 2.0


def test_report_trend_only():
    rep = build_report("demo", {}, [("trend", 1.0, "reported", True)],
                       trend_only=True)
    assert rep.verdict == "trend_only"
    assert rep.passed


def test_report_numpy_round_trip():
    rep = VerificationReport(
        anchor="demo", inputs={"arr": np.array([1.0, 2.0])},
        metrics={"v": np.float64(0.25), "c": 1.0 + 2.0j},
        tolerances={}, verdict="pass")
    doc = json.loads(rep.to_json())
    assert doc["inputs"]["arr"] == [1.0, 2.0]
    assert doc["metrics"]["c"] == {"re": 1.0, "im": 2.0}
