"""Tests for the config-driven command line runner."""

import dataclasses
import json
import time

import numpy as np
import pytest

from cylreact import cli, fractional1d, presets, verify


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _strip_clocks(obj):
    if isinstance(obj, dict):
        return {k: _strip_clocks(v) for k, v in obj.items()
                if k not in ("wall_clock", "wall_clock_total")}
    if isinstance(obj, list):
        return [_strip_clocks(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# config validation


def test_config_round_trip():
    raw = {"experiment": "Solve", "preset": "linear-y",
           "grid": {"nx": 17, "ny": 17}, "tolerances": {"newton": 1e-9},
           "output_dir": "out", "seed": 3}
    cfg = cli.ExperimentConfig.from_dict(raw)
    again = cli.ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    d = cfg.to_dict()
    assert d["experiment"] == "Solve" and d["seed"] == 3
    assert d["grid"] == {"nx": 17, "ny": 17}


@pytest.mark.parametrize("raw", [
    [],                                              # not an object
    {"experiment": "Solve", "bogus": 1},             # unknown key
    {"experiment": "Frobnicate"},                    # unknown experiment
    {},                                              # missing experiment
    {"experiment": "Solve", "preset": "nope"},       # unknown preset
    {"experiment": "Solve", "domain": {"kind": "disk"}},
    {"experiment": "Solve",
     "domain": {"kind": "rectangle", "x_min": 0, "x_max": 1}},  # missing z
    {"experiment": "Solve", "grid": {"nx": 2}},      # nx too small
    {"experiment": "Solve", "grid": {"nx": 9.5}},    # nx not an int
    {"experiment": "Solve", "model": {"family": "nonsense"}},
    {"experiment": "Solve", "tolerances": {"newton": 0.0}},
    {"experiment": "Solve", "tolerances": {"newton": -1}},
    {"experiment": "Solve", "seed": -1},
    {"experiment": "Solve", "seed": "zero"},
    {"experiment": "Solve", "output_dir": ""},
    {"experiment": "Solve",
     "domain": {"kind": "interval", "x_min": 1, "x_max": 0}},   # empty
    {"experiment": "Solve",
     "domain": {"kind": "interval", "x_min": "a", "x_max": 1}},  # not a number
    {"experiment": "Solve", "domain": 5},            # section not an object
    {"experiment": "Solve", "tolerances": "abc"},    # section not an object
    {"experiment": "Solve", "tolerances": {"poincare_constant": 1.0}},
    {"experiment": "Solve", "tolerances": {"constancy": 1e-12}},
    {"experiment": "Solve", "tolerances": {"equivalence": 1e-6}},
    {"experiment": "Solve", "grid": {"modes": 32}},  # unknown grid key
    {"experiment": "Counterexample", "tolerances": {"eps": 5}},  # eps >= 1
    {"experiment": "Counterexample", "tolerances": {"eps": 1.0}},
    {"experiment": "Fractional", "tolerances": {"s": 2}},        # s >= 1
    {"experiment": "Solve", "seed": True},           # bools are not numbers
    {"experiment": "Solve", "tolerances": {"newton": True}},
    {"experiment": "Solve", "grid": {"y_max": True}},
    {"experiment": "Solve", "grid": {"grading": True}},
    {"experiment": "Solve", "grid": {"nx": True}},
    {"experiment": "Solve", "model": {"family": "power_weight",
                                      "theta": True}},
    {"experiment": "Solve",
     "domain": {"kind": "interval", "x_min": False, "x_max": True}},
    {"experiment": "Solve", "tolerances": {"newton": float("inf")}},
    {"experiment": "Solve", "grid": {"y_max": float("nan")}},
    {"experiment": "Solve", "preset": "grow-cos-stable",
     "grid": {"nx": 9, "ny": 9, "nz": 3}},           # nz on an interval
    {"experiment": "Solve", "domain": {"kind": "interval", "x_min": 0,
                                       "x_max": 1},
     "grid": {"nx": 9, "ny": 9, "y_max": 1.0, "nz": 5}},
    {"experiment": "Solve", "domain": {"kind": "rectangle", "x_min": 0,
                                       "x_max": 1, "z_min": 0, "z_max": 1},
     "grid": {"nz": 2}},                             # nz too small
    {"experiment": "Solve",
     "domain": {"kind": "interval", "x_min": 0, "x_max": "3"}},  # a string
    {"experiment": "Solve",
     "domain": {"kind": "interval", "x_min": 0, "x_max": float("inf")}},
    {"experiment": "Solve", "domain": {"kind": "rectangle", "x_min": 0,
                                       "x_max": 1, "z_min": float("nan"),
                                       "z_max": 1}},
    {"experiment": "Solve", "preset": "linear-y",
     "model": {"family": "power_weight", "thetta": 0.5}},  # unknown model key
    {"experiment": "Solve", "preset": "linear-y",
     "reaction": {"f": "-1", "gg": "u"}},          # unknown reaction key
    {"experiment": "Solve", "domain": {"kind": "interval", "x_min": 0,
                                       "x_max": 1, "z_min": 0, "z_max": 1}},
    # reaction entries outside the grammar
    {"experiment": "Solve", "reaction": {"f": "__import__('os')"}},
    {"experiment": "Solve", "reaction": {"f": "u.real"}},
    {"experiment": "Solve", "reaction": {"f": "Abs(u)"}},   # not analytic
    {"experiment": "Solve", "reaction": {"f": "(lambda: u)()"}},
    {"experiment": "Solve", "reaction": {"f": "[u]"}},
    {"experiment": "Solve", "reaction": {"f": "1e999*u"}},  # inf constant
    {"experiment": "Solve", "reaction": {"f": "exp(u, 2)"}},
    {"experiment": "Solve", "reaction": {"f": "u**"}},
    {"experiment": "Solve", "reaction": {"f": "u/0"}},
    {"experiment": "Solve", "reaction": {"f": "-u", "g": "log(0)*u"}},
    {"experiment": "Solve", "reaction": {"f": "y*u"}},      # y only in g
])
def test_config_validation_rejects(raw):
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("raw", [
    {"experiment": "Solve", "preset": "grow-cos-stable",
     "grid": {"nz": None}},                          # null nz is no nz
    {"experiment": "Solve", "domain": {"kind": "rectangle", "x_min": 0,
                                       "x_max": 1, "z_min": 0, "z_max": 1},
     "grid": {"nx": 5, "ny": 5, "y_max": 1.0, "nz": 3}},
    {"experiment": "Counterexample", "tolerances": {"eps": 0.25, "s": 0.75}},
    {"experiment": "Solve", "reaction": {"f": "u^3"}},   # ^ is power
])
def test_config_validation_accepts(raw):
    cfg = cli.ExperimentConfig.from_dict(raw)
    assert cli.ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_defaults():
    cfg = cli.ExperimentConfig.from_dict({"experiment": "VerifyAll"})
    assert cfg.preset is None
    assert cfg.output_dir == "cylreact-out"
    assert cfg.seed == 0
    assert cfg.domain == {} and cfg.grid == {}


# ---------------------------------------------------------------------------
# symbolic reactions


def test_lambdify_reaction_f_and_derivatives():
    cfg = cli.ExperimentConfig.from_dict(
        {"experiment": "Solve", "reaction": {"f": "-u - u**3"}})
    r = cli._lambdify_reaction(cfg)
    u = np.array([0.0, 1.0, 2.0])
    assert np.allclose(r.f(u), [0.0, -2.0, -10.0])
    assert np.allclose(r.f_prime(u), [-1.0, -4.0, -13.0])
    assert r.g is None and r.g_u is None


def test_lambdify_reaction_constant_broadcasts():
    cfg = cli.ExperimentConfig.from_dict(
        {"experiment": "Solve", "reaction": {"f": "1"}})
    r = cli._lambdify_reaction(cfg)
    u = np.zeros((3, 4))
    out = r.f(u)
    assert out.shape == u.shape
    assert np.all(out == 1.0)
    assert r.f_prime(u).shape == u.shape


def test_lambdify_reaction_bulk_source_signature():
    cfg = cli.ExperimentConfig.from_dict(
        {"experiment": "Solve", "reaction": {"f": "-u", "g": "y*u"}})
    r = cli._lambdify_reaction(cfg)
    y = np.array([0.0, 1.0, 2.0])
    u = np.array([1.0, 1.0, 3.0])
    assert np.allclose(r.g(y, u), [0.0, 1.0, 6.0])
    assert np.allclose(r.g_u(y, u), y)


def test_lambdify_reaction_rejects_stray_symbols():
    # stray symbols, unparsable text, non-string non-number values,
    # relations, infinities and complex values are config errors (exit 2)
    for reaction in ({"f": "u + x"}, {"f": "-u", "g": "z*u"},
                     {"f": "spam("}, {"f": [1, 2]}, {"f": None},
                     {"f": "u < 1"}, {"f": "zoo*u"}, {"f": "I*u"},
                     {"f": "-u", "g": [1]}):
        key = "reaction.g" if "g" in reaction else "reaction.f"
        with pytest.raises(cli.ConfigError, match=key):
            cli.ExperimentConfig.from_dict(
                {"experiment": "Solve", "reaction": reaction})
        cfg = cli.ExperimentConfig(experiment="Solve", reaction=reaction)
        with pytest.raises(cli.ConfigError, match=key):
            cli._lambdify_reaction(cfg)


def test_caret_is_right_associative_power():
    # sympy's reading: ^ is **, so u^3 is u**3 and 2^3^2 is 2**9
    u = np.linspace(-2.0, 2.0, 9)
    caret, star = (cli._lambdify_reaction(cli.ExperimentConfig.from_dict(
        {"experiment": "Solve", "reaction": {"f": f}}))
        for f in ("u^3 + 2^3^2", "u**3 + 2**3**2"))
    assert np.array_equal(caret.f(u), star.f(u))
    assert np.array_equal(caret.f_prime(u), star.f_prime(u))
    assert caret.f(np.array(0.0)) == 512.0


def test_lambdify_reaction_zero_source_is_no_source():
    for g in (None, 0, "0", "0.0", "-0", "sin(0)", "1 - 1"):
        r = cli._lambdify_reaction(cli.ExperimentConfig.from_dict(
            {"experiment": "Solve", "reaction": {"f": "-u", "g": g}}))
        assert r.g is None and r.g_u is None


def test_lambdify_reaction_preset_fallback():
    cfg = cli.ExperimentConfig.from_dict(
        {"experiment": "Solve", "preset": "linear-y"})
    r = cli._lambdify_reaction(cfg)
    assert float(r.f(np.array(0.0))) == -1.0


# ---------------------------------------------------------------------------
# exit codes through main()


def test_run_preset_solve_exits_zero(tmp_path, capsys):
    path = _write_config(tmp_path, "solve.json", {
        "experiment": "Solve", "preset": "linear-y",
        "grid": {"nx": 17, "ny": 17},
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "newton-solve" in out
    assert "overall pass" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["overall"] == "pass"
    assert report["records"][0]["status"] == "pass"
    assert (tmp_path / "out" / "solution_field.csv").exists()


def test_run_incompatible_flux_exits_one(tmp_path, capsys):
    # constant inflow through the bottom with a zero-flux top has no
    # discrete solution on a truncation: the solve must report failure
    path = _write_config(tmp_path, "bad.json", {
        "experiment": "Solve",
        "domain": {"kind": "interval", "x_min": 0.0, "x_max": 3.14159},
        "grid": {"nx": 17, "ny": 17, "y_max": 4.0},
        "reaction": {"f": "1"},
        "output_dir": str(tmp_path / "out1")})
    assert cli.main(["run", path]) == 1
    report = json.loads((tmp_path / "out1" / "report.json").read_text())
    assert report["overall"] == "fail"
    # f' = 0 leaves the all-Neumann Newton matrix singular, and the
    # separable step misses the linear residual bound: the reason is
    # printed and kept in the record
    reason = report["records"][0]["details"]["stop_reason"]
    assert reason.startswith("separable step missed: relative residual ")
    assert f"stop reason: {reason}" in capsys.readouterr().out


def test_stability_run_with_a_failed_solve_reports_its_reason(tmp_path,
                                                              capsys):
    path = _write_config(tmp_path, "bad.json", {
        "experiment": "Stability",
        "domain": {"kind": "interval", "x_min": 0.0, "x_max": 3.14159},
        "grid": {"nx": 17, "ny": 17, "y_max": 4.0},
        "reaction": {"f": "1"},
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rec = report["records"][0]
    assert rec["name"] == "stability-labels" and rec["status"] == "fail"
    assert rec["tolerance"] == "Newton must converge before classification"
    assert rec["details"]["stop_reason"].startswith(
        "separable step missed: relative residual ")
    assert f"stop reason: {rec['details']['stop_reason']}" \
        in capsys.readouterr().out


def test_run_missing_file_exits_two(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 2


def test_run_unparsable_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2


def test_run_invalid_config_exits_two(tmp_path):
    path = _write_config(tmp_path, "bad.json",
                         {"experiment": "Solve", "bogus": True})
    assert cli.main(["run", str(path)]) == 2


@pytest.mark.parametrize("payload, key", [
    ({"experiment": "Counterexample", "tolerances": {"eps": 5}}, "eps"),
    ({"experiment": "Fractional", "tolerances": {"s": 2}}, "tolerances.s"),
    ({"experiment": "Solve", "preset": "grow-cos-stable",
      "grid": {"nx": 9, "ny": 9, "nz": 2}}, "grid.nz"),
    ({"experiment": "Solve", "preset": "linear-y", "seed": True}, "seed"),
    ({"experiment": "Solve",
      "domain": {"kind": "interval", "x_min": 0, "x_max": "3"}}, "domain"),
    ({"experiment": "Solve",
      "domain": {"kind": "interval", "x_min": 0, "x_max": float("inf")}},
     "domain"),
    ({"experiment": "Solve", "preset": "linear-y",
      "model": {"family": "power_weight", "thetta": 0.5}}, "thetta"),
    ({"experiment": "Solve", "preset": "linear-y",
      "reaction": {"f": "-1", "gg": "u"}}, "gg"),
    ({"experiment": "Solve", "preset": "linear-y",
      "domain": {"kind": "interval", "x_min": 0, "x_max": 1, "z_min": 0,
                 "z_max": 1}}, "z_min"),
    ({"experiment": "Solve", "preset": "linear-y",
      "reaction": {"f": "zoo*u"}}, "reaction.f"),
    ({"experiment": "Solve", "preset": "linear-y",
      "reaction": {"f": "__import__('os')"}}, "reaction.f"),
    ({"experiment": "Solve", "preset": "linear-y",
      "reaction": {"f": "-u", "g": "Abs(u)"}}, "reaction.g"),
])
def test_run_out_of_range_config_exits_two(tmp_path, capsys, payload, key):
    out = tmp_path / "out"
    path = _write_config(tmp_path, "bad.json",
                         dict(payload, output_dir=str(out)))
    assert cli.main(["run", path]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_run_invalid_grid_exits_two(tmp_path, capsys):
    path = _write_config(tmp_path, "bad_grid.json",
                         {"experiment": "Solve", "preset": "linear-y",
                          "grid": {"y_max": -1},
                          "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", str(path)]) == 2
    assert "y_max" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"family": "power_weight", "theta": 2.0},  # theta outside (-1, 1)
    {"family": "power_weight_p_laplace", "p": 0.5},  # p not above 1
])
def test_run_invalid_model_exits_two(tmp_path, capsys, model):
    path = _write_config(tmp_path, "bad_model.json",
                         {"experiment": "Solve", "preset": "linear-y",
                          "model": model,
                          "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", str(path)]) == 2
    assert "model section invalid" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["verify-all", "--parallel"],
                                  ["run", "config.json", "--parallel"]])
def test_parallel_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# experiment runners through the CLI


def test_stability_runner_matches_expected_label(tmp_path):
    path = _write_config(tmp_path, "stab.json", {
        "experiment": "Stability", "preset": "decay-cos-unstable",
        "grid": {"nx": 33, "ny": 33},
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rec = report["records"][0]
    assert rec["name"] == "stability-labels"
    assert rec["details"]["cases"][0]["classification"] == "Unstable"
    assert rec["measured"] < 0.0
    assert rec["measured"] < -rec["details"]["tol"]  # the certified margin
    assert rec["details"]["eigen_residual"] >= 0.0
    assert (tmp_path / "out" / "ground_state.csv").exists()


def test_poincare_runner_passes_for_stable_preset(tmp_path):
    path = _write_config(tmp_path, "poi.json", {
        "experiment": "Poincare", "preset": "linear-y",
        "grid": {"nx": 17, "ny": 17},
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rec = report["records"][0]
    assert rec["anchor"] == "Theorem TH:POI"
    assert len(rec["details"]["cases"]) == 4  # the full test-field battery
    # C is estimated on the nested coarser grids 5 and 9, not fixed
    excess = max((lhs - rhs) * ((m - 1) / np.pi) ** 2 for m in (5, 9)
                 for _, lhs, rhs in verify._poincare_slacks(
                     presets.get_preset("linear-y"), m))
    assert rec["details"]["C"] == max(1.0, 2.0 * excess)


@pytest.mark.parametrize("payload", [
    {"preset": "sneumann-constancy"},                # no closed-form state
    {"domain": {"kind": "interval", "x_min": 0, "x_max": 1}},  # no preset
    {"preset": "linear-y", "grid": {"nx": 19}},      # nx - 1 not 4k
    {"preset": "linear-y", "grid": {"nx": 17, "ny": 33}},
    {"preset": "linear-y", "grid": {"nx": 17, "y_max": 4.0}},
    {"preset": "one-dim-family"},                    # no expected label
    {"preset": "linear-y", "reaction": {"f": "-u"}},  # overrides unchecked
    {"preset": "linear-y", "model": {"family": "exp_y"}},
    {"preset": "linear-y",
     "domain": {"kind": "interval", "x_min": 0, "x_max": 1}},
])
def test_poincare_runner_rejects_configs_it_cannot_check(tmp_path, payload):
    path = _write_config(tmp_path, "poi.json", {
        "experiment": "Poincare", **payload,
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 2


@pytest.mark.parametrize("domain, K", [
    (None, 12),
    ({"kind": "rectangle", "x_min": 0, "x_max": np.pi,
      "z_min": 0, "z_max": np.pi}, 16),
], ids=["interval", "rectangle"])
def test_spectral_runner_constancy(tmp_path, domain, K):
    # K is the battery's for the run's cross-section, also when a domain
    # overrides the preset's interval
    path = _write_config(tmp_path, "spec.json", {
        "experiment": "Spectral", "preset": "sneumann-constancy",
        **({"domain": domain} if domain else {}),
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["overall"] == "pass"
    coeffs = np.loadtxt(tmp_path / "out" / "final_coefficients.csv",
                        delimiter=",")
    assert coeffs.size == K


def test_counterexample_runner_writes_profile(tmp_path):
    path = _write_config(tmp_path, "ce.json", {
        "experiment": "Counterexample",
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rec = report["records"][0]
    assert rec["anchor"] == "Example EXAMPLE"
    assert rec["details"]["delta1"] == pytest.approx(0.1225504, rel=1e-5)
    profile = np.loadtxt(tmp_path / "out" / "counterexample_profile.csv",
                         delimiter=",")
    assert profile.shape[1] == 2
    assert profile.shape[0] > 1000


def test_counterexample_runner_fails_above_its_residual_bound(tmp_path,
                                                              monkeypatch):
    construct = fractional1d.construct_counterexample
    monkeypatch.setattr(
        fractional1d, "construct_counterexample",
        lambda *a, **kw: dataclasses.replace(construct(*a, **kw),
                                             interior_residual=1e-6))
    path = _write_config(tmp_path, "ce.json", {
        "experiment": "Counterexample",
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["records"][0]["status"] == "fail"
    assert report["records"][0]["measured"] == 1e-6


def test_counterexample_runner_fails_outside_the_delta_band(tmp_path,
                                                           monkeypatch):
    # the interior residual still passes; only criterion 10's band fails
    construct = fractional1d.construct_counterexample
    monkeypatch.setattr(
        fractional1d, "construct_counterexample",
        lambda *a, **kw: dataclasses.replace(construct(*a, **kw),
                                             delta1=0.01))
    path = _write_config(tmp_path, "ce.json", {
        "experiment": "Counterexample",
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rec = report["records"][0]
    assert rec["status"] == "fail"
    assert rec["measured"] <= 1e-8
    assert rec["details"]["delta1"] == 0.01


@pytest.mark.parametrize("experiment, criterion", [
    ("Counterexample", verify.criterion_10),
    ("Fractional", verify.criterion_9),
])
def test_runner_record_is_the_battery_record(tmp_path, experiment,
                                             criterion):
    # one check per claim: at the battery's eps = s = 0.5 the run's record
    # is the criterion's, up to its clock and budget fields
    path = _write_config(tmp_path, "run.json", {
        "experiment": experiment, "tolerances": {"eps": 0.5, "s": 0.5},
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    clocks = ("wall_clock", "budget_s")
    ran = {k: v for k, v in report["records"][0].items() if k not in clocks}
    battery = json.loads(json.dumps(criterion().to_json_dict()))
    assert ran == {k: v for k, v in battery.items() if k not in clocks}


# ---------------------------------------------------------------------------
# report invariants


def test_check_record_writes_booleans_as_json_booleans():
    rec = verify.CheckRecord(
        name="n", status=verify.PASS, measured=1.0, tolerance="t",
        anchor="a", details={"converged": True, "cases": [
            {"ok": np.bool_(False), "count": np.int64(2)}]})
    text = json.dumps(rec.to_json_dict(), sort_keys=True)
    assert '"converged": true' in text and '"ok": false' in text
    assert '"count": 2' in text


def test_every_record_carries_an_anchor(tmp_path):
    path = _write_config(tmp_path, "solve.json", {
        "experiment": "Solve", "preset": "one-dim-family",
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for rec in report["records"]:
        assert rec["anchor"]  # nonempty anchor or the literal "plumbing"


def test_reports_reproducible_modulo_wall_clock(tmp_path, monkeypatch):
    payload = {"experiment": "Solve", "preset": "linear-y",
               "grid": {"nx": 17, "ny": 17}}
    path = _write_config(tmp_path, "solve.json", payload)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        monkeypatch.setenv("CYLREACT_OUT", str(out))
        assert cli.main(["run", path]) == 0
        outs.append(out)
    ra = json.loads((outs[0] / "report.json").read_text())
    rb = json.loads((outs[1] / "report.json").read_text())
    assert _strip_clocks(ra) == _strip_clocks(rb)
    assert (outs[0] / "solution_field.csv").read_bytes() == \
        (outs[1] / "solution_field.csv").read_bytes()


def test_stability_report_reproducible_above_dense_limit(tmp_path,
                                                        monkeypatch):
    # runs the shift-invert eigensolve at 49 x 48 free nodes twice in one
    # process
    path = _write_config(tmp_path, "stab.json", {
        "experiment": "Stability", "preset": "decay-cos-unstable",
        "grid": {"nx": 49, "ny": 49}})
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        monkeypatch.setenv("CYLREACT_OUT", str(out))
        assert cli.main(["run", path]) == 0
        outs.append(out)
    ra = json.loads((outs[0] / "report.json").read_text())
    rb = json.loads((outs[1] / "report.json").read_text())
    assert _strip_clocks(ra) == _strip_clocks(rb)
    spills = sorted(f.name for f in outs[0].glob("*.csv"))
    assert "ground_state.csv" in spills
    assert spills == sorted(f.name for f in outs[1].glob("*.csv"))
    for name in spills:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_wall_clock_total_is_the_runners_wall_clock(tmp_path):
    # Fractional's record is not timed by the battery, so the runner stamps
    # it with its own wall clock, which is also the report's total
    path = _write_config(tmp_path, "frac.json", {
        "experiment": "Fractional", "output_dir": str(tmp_path / "out")})
    t0 = time.perf_counter()
    assert cli.main(["run", path]) == 0
    elapsed = time.perf_counter() - t0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["records"]) == 1
    assert 0.0 < report["wall_clock_total"] <= elapsed
    assert report["records"][0]["wall_clock"] == report["wall_clock_total"]


def test_cylreact_out_env_override(tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    monkeypatch.setenv("CYLREACT_OUT", str(target))
    path = _write_config(tmp_path, "solve.json", {
        "experiment": "Solve", "preset": "linear-y",
        "grid": {"nx": 17, "ny": 17},
        "output_dir": str(tmp_path / "ignored")})
    assert cli.main(["run", path]) == 0
    assert (target / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_report_json_sorted_and_newline_terminated(tmp_path):
    path = _write_config(tmp_path, "solve.json", {
        "experiment": "Solve", "preset": "linear-y",
        "grid": {"nx": 17, "ny": 17},
        "output_dir": str(tmp_path / "out")})
    assert cli.main(["run", path]) == 0
    text = (tmp_path / "out" / "report.json").read_text()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)
    assert set(parsed) == {"experiment", "preset", "config", "records",
                           "overall", "wall_clock_total"}


# ---------------------------------------------------------------------------
# preset listing


def test_list_presets_output(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("linear-y")
    assert "[§1.4]" in lines[0]
    assert any("one-dim-family" in ln and "[Eq. O76:98]" in ln
               for ln in lines)
    assert any("sneumann-constancy" in ln
               and "[Theorem thm: s-Neumann 1]" in ln for ln in lines)
    assert any("[plumbing]" in ln for ln in lines)
    # fixed-width name column
    for ln in lines:
        assert ln.index("[") == 21
