import ast
import io
import re
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablelab import cli, config, drifts
from stablelab.errors import AdmissibilityError, ConfigurationError
from stablelab.report import VerificationReport, build_report
from stablelab.scenarios import ScenarioResult


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _refuse_to_run(monkeypatch):
    def refuse(cfg):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(cli, "run_scenario", refuse)


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
    st.builds(drifts.kato_example_drift, _REAL, st.floats(-2.0, 2.9),
              _POSITIVE, _DIM),
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
    _refuse_to_run(monkeypatch)
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
    for scenario, grid_n in [("formbound_audit", 12), ("full_suite", 16),
                             ("sampler_check", 6), ("evolution_verify", 4),
                             ("sde_identify", 10), ("weighted_verify", 10),
                             ("resolvent_verify", 8), ("evolution_verify", 8),
                             ("sde_identify", 8)]:
        config.ExperimentConfig(scenario=scenario, grid_n=grid_n).validate(m)


def test_exit_code_2_on_a_grid_n_too_coarse_for_a_mollifier(tmp_path,
                                                            monkeypatch):
    # formbound_audit mollifies on grid_n // 2 at one spacing, and
    # weighted_verify on min(grid_n, 16) at two: at grid_n 8 neither bump
    # fits inside half a half-length, nor sde_identify's one-spacing bump
    # on grid_n at grid_n 4, and drifts.mollifier would refuse it mid-run
    # with a ParameterError traceback and exit code 1
    _refuse_to_run(monkeypatch)
    for i, (scenario, grid_n, n_points, width) in enumerate(
            [("formbound_audit", 8, 4, 1), ("weighted_verify", 8, 8, 2),
             ("full_suite", 8, 4, 1), ("weighted_verify", 6, 6, 2),
             ("sde_identify", 4, 4, 1)]):
        out = io.StringIO()
        path = write(tmp_path, f"coarse{i}.json",
                     json.dumps({"scenario": scenario, "grid_n": grid_n}))
        assert cli.run(path, stream=out) == 2, scenario
        assert out.getvalue() == (
            f"config error: bad value for config key 'grid_n': {grid_n} "
            f"sets {n_points} points per axis where a mollifier is {width} "
            f"spacing(s) wide; it needs more than {4 * width}\n")


def test_exit_code_2_on_a_half_length_short_of_the_sde_bump(tmp_path,
                                                          monkeypatch):
    # sde_identify mollifies on grid_n with a bump max(0.5, spacing) wide:
    # at half_length 0.9 drifts.mollifier refused it mid-run with a
    # ParameterError traceback and exit code 1
    _refuse_to_run(monkeypatch)
    out = io.StringIO()
    path = write(tmp_path, "short.json", json.dumps(
        {"scenario": "sde_identify", "half_length": 0.9, "grid_n": 8}))
    assert cli.run(path, stream=out) == 2
    assert out.getvalue() == (
        "config error: half_length = 0.9 must be more than 1.0: "
        "sde_identify holds a mollifier 0.5 wide\n")


def test_exit_code_2_on_a_hardy_drift_unlike_the_config(tmp_path):
    # formbound_audit measures the drift against cfg.delta: a [drift]
    # delta of 0.04 beside the default 0.05 used to fail
    # vanishing_shift_estimate instead of being refused
    cases = [("[experiment]\nscenario = formbound_audit\n"
              "[parameters]\ngrid_n = 16\n"
              "[drift]\nkind = hardy\ndelta = 0.04\n",
              "drift.delta = 0.04 must equal delta = 0.05"),
             ('{"scenario": "sampler_check", "alpha": 1.4, "drift": '
              '{"kind": "hardy", "parameters": {"delta": 0.05, '
              '"alpha": 1.5}}}',
              "drift.alpha = 1.5 must equal alpha = 1.4")]
    for i, (text, message) in enumerate(cases):
        out = io.StringIO()
        path = write(tmp_path, f"drift{i}.cfg", text)
        assert cli.run(path, out_dir=str(tmp_path / "out"), stream=out) == 2
        assert out.getvalue() == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_exit_code_2_on_an_m_constant_unlike_the_reference(tmp_path):
    # a configured m_constant used to be replaced by the reference one,
    # and the run recorded m = 2.99... with exit 0
    out = io.StringIO()
    path = write(tmp_path, "m.json", '{"scenario": "formbound_audit", '
                 '"grid_n": 16, "m_constant": 3.0}')
    assert cli.run(path, out_dir=str(tmp_path / "out"), stream=out) == 2
    m = config.reference_m_constant(1.5, 3)
    assert out.getvalue() == (f"config error: m_constant = 3.0 must equal "
                              f"the reference constant {m} of alpha and dim\n")
    assert not (tmp_path / "out").exists()


def test_a_hardy_drift_takes_the_delta_and_alpha_it_does_not_name():
    # as it takes the config's dim: a missing alpha was filled with 1.5,
    # and this config was refused as drift.alpha = 1.5 against alpha = 1.4
    for text in ('{"alpha": 1.4, "drift": {"kind": "hardy", '
                 '"parameters": {"delta": 0.05}}}',
                 '{"delta": 0.04, "alpha": 1.4, "drift": {"kind": "hardy"}}',
                 "[parameters]\nalpha = 1.4\ndelta = 0.04\n"
                 "[drift]\nkind = hardy\n"):
        cfg = config.parse_config(text)
        assert cfg.drift.parameters["alpha"] == cfg.alpha == 1.4
        assert cfg.drift.parameters["delta"] == cfg.delta
        assert cfg.drift.to_json() == drifts.hardy_drift(
            cfg.delta, 1.4, 3).to_json()
        cfg.validate(config.reference_m_constant(1.4, 3))


def test_exit_code_2_on_a_half_length_with_no_mollification_level(
        tmp_path, monkeypatch):
    # formbound_audit and resolvent_verify mollify at level
    # int(half_length / 2), which is 0 below 2: drifts.mollify refused it
    # mid-run with a traceback and exit code 1
    _refuse_to_run(monkeypatch)
    for i, (scenario, half_length) in enumerate(
            [("formbound_audit", 0.5), ("resolvent_verify", 1.0),
             ("full_suite", 1.5), ("formbound_audit", 1.9)]):
        out = io.StringIO()
        path = write(tmp_path, f"short{i}.json", json.dumps(
            {"scenario": scenario, "half_length": half_length}))
        assert cli.run(path, stream=out) == 2, scenario
        assert out.getvalue() == (
            f"config error: half_length = {half_length} must be at least "
            f"2: {scenario} mollifies at level int(half_length / 2)\n")
    m = config.reference_m_constant(1.5, 3)
    for scenario in ("formbound_audit", "resolvent_verify", "full_suite"):
        config.ExperimentConfig(scenario=scenario, half_length=2.0).validate(m)
    config.ExperimentConfig(scenario="sampler_check",
                            half_length=0.5).validate(m)


# each passed validate, ran, and died mid-run with a traceback and exit 1
# (ROADMAP item 19), but for evolution_verify's t_list, which it never
# reads and is refused on purpose; with a fragment of its one-line refusal
_REFUSED_BEFORE_THE_RUN = [
    ({"scenario": "sde_identify", "dt": 0.3},
     "'t_list': t_final = 0.1 is no multiple of dt = 0.3"),
    ({"scenario": "sde_identify", "t_list": [0.01]},
     "'t_list': t_final = 0.01 is no multiple of dt = 0.0125"),
    ({"scenario": "sde_identify", "t_list": [0.0]}, "t_list = [0.0] must"),
    ({"scenario": "sde_identify", "t_list": [-0.1]}, "t_list = [-0.1] must"),
    ({"scenario": "evolution_verify", "t_list": [-0.1]},
     "t_list = [-0.1] must"),
    ({"scenario": "formbound_audit", "lambda_ladder": [-1.0]},
     "lambda_ladder = [-1.0] must"),
    ({"scenario": "weighted_verify", "mu_ladder": [0.0]},
     "mu_ladder = [0.0] must"),
    ({"scenario": "weighted_verify", "mu_ladder": [-1.0]},
     "mu_ladder = [-1.0] must"),
    ({"scenario": "evolution_verify", "mu_ladder": [-5.0]},
     "mu_ladder = [-5.0] must"),
    ({"scenario": "formbound_audit", "drift": {"kind": "bounded_smooth"}},
     "'drift': bounded_smooth_drift() missing 2 required positional "
     "arguments: 'amplitude' and 'half_period'"),
    ({"scenario": "formbound_audit", "drift": {"kind": "lp_radial"}},
     "'drift': lp_radial_drift() missing 2 required positional "
     "arguments: 'prefactor' and 'beta'"),
    ({"scenario": "sde_identify", "drift": {"kind": "kato_example"}},
     "'drift': kato_example_drift() missing 3 required positional "
     "arguments: 'prefactor', 'beta', and 'radius'"),
    ({"scenario": "sde_identify", "drift": {
        "kind": "bounded_smooth",
        "parameters": {"amplitudes": [0.5], "half_period": 8.0}}},
     "'drift': bounded_smooth_drift() got an unexpected keyword argument "
     "'amplitudes'"),
    ({"scenario": "sde_identify", "drift": {
        "kind": "bounded_smooth", "parameters": {"amplitude": [0.5]}}},
     "'drift': bounded_smooth_drift() missing 1 required positional "
     "argument: 'half_period'"),
    ({"scenario": "formbound_audit", "drift": {
        "kind": "lp_radial", "parameters": {"prefactor": 1.0}}},
     "'drift': lp_radial_drift() missing 1 required positional argument: "
     "'beta'"),
    ({"scenario": "formbound_audit", "drift": {
        "kind": "lp_radial", "parameters": {"prefactor": 1.0, "beta": 3.5}}},
     "'drift': beta >= dim is not locally integrable"),
    # these three used to die mid-run: UFuncNoLoopError, ZeroDivisionError
    # and "field data must be finite"
    ({"scenario": "formbound_audit", "drift": {
        "kind": "lp_radial", "parameters": {"prefactor": "1", "beta": 1.0}}},
     "'drift': prefactor must be a real number, got '1'"),
    ({"scenario": "formbound_audit", "drift": {
        "kind": "kato_example",
        "parameters": {"prefactor": 1.0, "beta": 0.25, "radius": -1.0}}},
     "'drift': radius must be positive, got -1.0"),
    ({"scenario": "formbound_audit", "drift": {
        "kind": "bounded_smooth",
        "parameters": {"amplitude": [0.5], "half_period": 0.0}}},
     "'drift': half_period must be positive, got 0.0"),
]


@pytest.mark.parametrize("doc, fragment", _REFUSED_BEFORE_THE_RUN, ids=[
    f"{i:02d}-{doc['scenario']}"
    for i, (doc, _) in enumerate(_REFUSED_BEFORE_THE_RUN)])
def test_exit_code_2_before_the_run(tmp_path, monkeypatch, doc, fragment):
    _refuse_to_run(monkeypatch)
    out = io.StringIO()
    path = write(tmp_path, "refused.json", json.dumps(dict(doc, grid_n=16)))
    start = time.perf_counter()
    assert cli.run(path, stream=out) == 2
    assert time.perf_counter() - start < 1.0
    [line] = out.getvalue().splitlines()
    assert line.startswith("config error: ") and fragment in line, line


def test_only_the_sde_horizons_are_whole_multiples_of_dt():
    # sde_identify integrates to min(t_list) and max(t_list) alone
    m = config.reference_m_constant(1.5, 3)
    config.parse_config(json.dumps(
        {"scenario": "sde_identify", "grid_n": 16, "n_paths": 2000,
         "t_list": [0.1, 0.13, 0.5]})).validate(m)
    config.ExperimentConfig(scenario="formbound_audit", grid_n=16,
                            t_list=(0.01,)).validate(m)


def test_a_drift_document_names_only_what_its_constructor_gives():
    # a dim, hardy's prefactor and the singular points are derived
    for drift, fragment in [
            ({"kind": "lp_radial", "parameters": {
                "prefactor": 1.0, "beta": 1.0, "dim": 4}},
             "drift dim = 4 must be 3"),
            ({"kind": "hardy", "parameters": {"prefactor": 1.0}},
             "drift prefactor = 1.0 must be"),
            ({"kind": "bounded_smooth", "singular_points": [[0.0] * 3],
              "parameters": {"amplitude": 1.0, "half_period": 8.0}},
             "drift singular_points = [[0.0, 0.0, 0.0]] must be []")]:
        with pytest.raises(ConfigurationError, match=re.escape(fragment)):
            config.parse_config(json.dumps({"drift": drift}))
    cfg = config.parse_config(
        "[drift]\nkind = kato_example\nprefactor = 1\nbeta = 0.25\n"
        "radius = 1.5\ndim = 3\n")
    assert cfg.drift == drifts.kato_example_drift(1.0, 0.25, 1.5, 3)


def test_a_bundle_is_strict_json(tmp_path, monkeypatch):
    # a non-finite metric was written as a bare NaN or Infinity token,
    # which RFC 8259 parsers refuse; it is now a string, and still fails
    result = ScenarioResult("sampler_check")
    result.add(build_report("probe", {"t": np.float64(np.inf)}, [
        ("ratio", np.float64(np.nan), "<= 1", True),
        ("gap", -np.inf, "<= 1", True), ("fine", 0.5, "<= 1", True)]))
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: [result])
    path = write(tmp_path, "nan.json", '{"scenario": "sampler_check"}')
    out = tmp_path / "out"
    assert cli.run(path, out_dir=str(out), stream=io.StringIO()) == 1

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    docs = [json.loads(f.read_text(encoding="utf-8"), parse_constant=refuse)
            for f in sorted(out.glob("*.json"))]
    [report, summary] = docs
    assert summary["scenarios"][0]["reports"] == [report]
    assert report["metrics"] == {"ratio": "nan", "gap": "-inf", "fine": 0.5}
    assert report["inputs"] == {"t": "inf"}
    assert report["failures"] == ["ratio", "gap"]


# scipy.stats costs about 17 MB and 0.3 s to import, and scipy.integrate
# and scipy.interpolate about 15 MB through scipy.optimize, which both
# import: the KS p-value comes from stablelab._ks, and the kernel
# quadratures and splines are the package's own
HEAVY_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
               "scipy.stats")


def test_no_run_imports_scipy_optimize_or_stats(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(name == heavy or name.startswith(heavy + ".")
                           for name in names for heavy in HEAVY_SCIPY), (
                path.name, node.lineno)
    cfg = write(tmp_path, "suite.json", '{"scenario": "full_suite"}')
    code = ("import sys\nfrom stablelab import cli\n"
            f"code = cli.run({cfg!r}, out_dir={str(tmp_path / 'out')!r}, "
            "quick=True)\n"
            "assert code == 0, code\n"
            f"heavy = {HEAVY_SCIPY!r}\n"
            "loaded = sorted(m for m in sys.modules if m.startswith(heavy))\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_exit_code_1_names_the_check_a_nan_probe_fails(tmp_path):
    # bumps of radius 0.25 on a lattice of spacing 0.4 can miss every
    # site, so f / ||f||_1 is NaN; the Markov report fails on them
    path = write(tmp_path, "coarse.json", json.dumps(
        {"scenario": "weighted_verify", "grid_n": 10, "half_length": 2.0}))
    out = io.StringIO()
    with np.errstate(invalid="ignore"):
        assert cli.run(path, out_dir=str(tmp_path / "out"), stream=out) == 1
    assert "[FAIL] weighted_verify: weighted_markov_generator" in out.getvalue()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    [markov] = [rep for rep in summary["scenarios"][0]["reports"]
                if rep["anchor"] == "weighted_markov_generator"]
    assert {"fitted_omega", "positivity_floor",
            "contraction_excess"} <= set(markov["failures"])


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


def test_report_fails_a_non_finite_value():
    # a NaN compares false and an inf may pass a one-sided bound: neither
    # may pass a check
    rep = build_report("demo", {}, [
        ("nan_metric", float("nan"), "<= 1", True),
        ("inf_metric", np.float64(np.inf), ">= 0", True),
        ("ok_metric", 0.5, "<= 1", True),
        ("flag", True, "true", True),
    ])
    assert rep.verdict == "fail"
    assert rep.failures == ["nan_metric", "inf_metric"]


def test_report_trend_only():
    rep = build_report("demo", {}, [("trend", 1.0, "reported", True)],
                       trend_only=True)
    assert rep.verdict == "trend_only"
    assert rep.passed


def test_report_numpy_round_trip():
    rep = VerificationReport(
        anchor="demo", inputs={"arr": np.array([1.0, 2.0])},
        metrics={"v": np.float64(0.25), "c": 1.0 + 2.0j},
        tolerances={}, verdict="pass", provenance={}, failures=[])
    doc = json.loads(rep.to_json())
    assert doc["inputs"]["arr"] == [1.0, 2.0]
    assert doc["metrics"]["c"] == {"re": 1.0, "im": 2.0}
