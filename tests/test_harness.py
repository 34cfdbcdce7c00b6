"""Experiment configs, grid runner, rate fits, validators, and the CLI.

Rate-fit oracles are exact synthetic power laws; grid outputs are checked
for determinism byte-for-byte; CLI subcommands run in-process through
``main(argv)`` and are judged on exit codes and printed artifacts.
"""

import json

import numpy as np
import pytest

from rvikit.exceptions import ConfigError, DomainError
from rvikit.harness import (
    ExperimentConfig,
    ValidatorSpec,
    apply_overrides,
    default_burn_in,
    fit_rate,
    fit_rate_points,
    load_config_file,
    load_trace_csv,
    parse_mapping,
    run_experiment,
    run_validators,
)
from rvikit.harness.cli import main
from rvikit.problems import list_problems, make_problem
from rvikit.solvers import METHODS, SolverConfig, run

MINIMAL = {"problem": {"name": "euclidean_bilinear", "params": {"dim": 4}},
           "methods": ["REG"]}


def _grid_mapping(tmp_path, **extra):
    mapping = {
        "problem": {"name": "decoupled_saddle",
                    "params": {"manifold": "h2*h2"}},
        "methods": ["REG", "RPEG"],
        "seeds": [0, 1, 2],
        "T": 60,
        "record_every": 20,
        "output_dir": str(tmp_path / "out"),
    }
    mapping.update(extra)
    return mapping


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    t = np.arange(1, 201, dtype=float)
    fit = fit_rate_points(t, 3.0 * t ** -0.5, metric="op_norm", t_min=1.0)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points == 200
    assert fit.metric == "op_norm"


def test_fit_constant_metric_has_zero_slope():
    t = np.arange(1, 101, dtype=float)
    fit = fit_rate_points(t, np.full(100, 2.5), t_min=1.0)
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_fit_requires_ten_points():
    t = np.arange(1, 10, dtype=float)
    with pytest.raises(DomainError):
        fit_rate_points(t, t ** -1.0, t_min=1.0)
    # non-positive and non-finite samples do not count as usable
    t = np.arange(1, 30, dtype=float)
    v = t ** -1.0
    v[:25] = 0.0
    with pytest.raises(DomainError):
        fit_rate_points(t, v, t_min=1.0)


def test_fit_default_burn_in_window():
    assert default_burn_in(10_000) == 100.0
    assert default_burn_in(500) == 10.0
    t = np.arange(1, 1001, dtype=float)
    fit = fit_rate_points(t, t ** -1.0)
    assert fit.points == 991                 # t in [10, 1000]
    assert fit.t_range == (10.0, 1000.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_reads_trace_metrics():
    prob = make_problem("euclidean_bilinear", dim=6)
    trace = run(prob, SolverConfig(method="REG", T=400, record_every=5))
    fit = fit_rate(trace, "op_norm")
    assert fit.points == len([t for t in trace.ts() if t >= 10.0])
    assert fit.slope < 0.0                   # the norm decays


def test_load_trace_csv_roundtrip(tmp_path):
    prob = make_problem("euclidean_bilinear", dim=4)
    trace = run(prob, SolverConfig(method="REG", T=30, record_every=10))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    cols = load_trace_csv(path)
    np.testing.assert_array_equal(cols["t"], trace.ts())
    np.testing.assert_allclose(cols["op_norm"], trace.metric("op_norm"),
                               rtol=0, atol=0)
    assert np.isnan(cols["phi"]).all()       # blank cells read back as nan


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_minimal_config_defaults():
    cfg = parse_mapping(MINIMAL)
    assert cfg.problem_name == "euclidean_bilinear"
    assert cfg.problem_params == {"dim": 4}
    assert cfg.etas == "auto"
    assert cfg.solver.T == 1000
    assert cfg.seeds == (0,)


@pytest.mark.parametrize("broken,needle", [
    ({}, "problem"),
    ({"problem": {"name": "nope"}, "methods": ["REG"]}, "nope"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": []}, "methods"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["EG"]}, "REG"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "etas": [-0.1]}, "positive"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "T": 0}, "T"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "record_every": 0}, "record_every"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "workers": 0}, "workers"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "instruments": ["norm_monotne"]}, "valid instruments"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "validators": {"probes": 1}}, "validators.manifolds"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "bogus_key": 1}, "bogus_key"),
    ({"problem": {"name": "euclidean_bilinear", "extra": 1},
      "methods": ["REG"]}, "extra"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "etas": ["abc"]}, "etas"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "etas": [None]}, "etas"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "init_radius_frac": "abc"}, "init_radius_frac"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "init_radius_frac": 5.0}, "init_radius_frac"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "seeds": [True]}, "seed"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "T": True}, "T"),
    ({"problem": {"name": "euclidean_bilinear"}, "methods": ["REG"],
      "gaps": "yes"}, "gaps"),
], ids=["empty", "unknown-problem", "no-methods", "unknown-method",
        "negative-eta", "zero-T", "zero-record", "zero-workers",
        "unknown-instrument",
        "malformed-validators",
        "unknown-key", "unknown-problem-key",
        "non-numeric-eta", "null-eta", "non-numeric-init-radius",
        "init-radius-above-one", "bool-seed", "bool-T", "non-bool-gaps"])
def test_config_validation_errors(broken, needle):
    with pytest.raises(ConfigError) as err:
        parse_mapping(broken)
    assert needle in str(err.value)


def test_validator_spec_validation():
    spec = ValidatorSpec.from_mapping(
        {"manifolds": ["s2"], "probes": 10})
    assert spec.checks == tuple(sorted(
        ["holonomy", "cosine_law_lower", "cosine_law_upper",
         "hessian_comparison", "distance_comparison"]))
    with pytest.raises(ConfigError):
        ValidatorSpec.from_mapping({"manifolds": [], "probes": 10})
    with pytest.raises(ConfigError):
        ValidatorSpec.from_mapping({"manifolds": ["s2"], "probes": -1})
    with pytest.raises(ConfigError) as err:
        ValidatorSpec.from_mapping({"manifolds": ["s2"], "probes": 5,
                                    "checks": ["nope"]})
    assert "holonomy" in str(err.value)


def test_apply_overrides_semantics():
    base = {"problem": {"name": "euclidean_bilinear"}, "T": 10}
    out = apply_overrides(base, ["T=500", "problem.params.dim=6",
                                 "methods=[REG, RPEG]"])
    assert out["T"] == 500
    assert out["problem"]["params"]["dim"] == 6
    assert out["methods"] == ["REG", "RPEG"]
    assert base["T"] == 10                   # original untouched
    with pytest.raises(ConfigError):
        apply_overrides(base, ["not-an-assignment"])


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("methods: [REG\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError):
        load_config_file(scalar)


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------

def test_grid_run_writes_csv_per_cell_and_one_summary(tmp_path):
    cfg = parse_mapping(_grid_mapping(tmp_path))
    result = run_experiment(cfg)
    assert result.exit_code == 0
    out = tmp_path / "out"
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert len(csvs) == 6                    # {REG, RPEG} x 3 seeds
    for method in ("REG", "RPEG"):
        for seed in (0, 1, 2):
            assert f"decoupled_saddle_{method}_eta-auto_seed-{seed}.csv" in csvs
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["runs"]) == {
        f"{m}_eta-auto_seed-{s}" for m in ("REG", "RPEG") for s in (0, 1, 2)}
    # T=60 with record_every=20 -> rows at t = 20, 40, 60
    first = out / csvs[0]
    assert len(first.read_text().splitlines()) == 1 + 3
    # totals equal the per-run sums
    total = sum(e["total_violations"] for e in summary["runs"].values())
    assert summary["totals"]["total_violations"] == total == 0


def test_summary_json_is_sorted_and_timestamp_free(tmp_path):
    cfg = parse_mapping(_grid_mapping(tmp_path, methods=["REG"],
                                      seeds=[0], T=20))
    result = run_experiment(cfg)
    raw = result.summary_path.read_text()
    parsed = json.loads(raw)
    assert raw == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    assert "time" not in raw and "date" not in raw


def test_rerun_reproduces_bytes(tmp_path):
    cfg_a = parse_mapping(_grid_mapping(tmp_path / "a", T=40, seeds=[0, 1]))
    cfg_b = parse_mapping(_grid_mapping(tmp_path / "b", T=40, seeds=[0, 1]))
    res_a, res_b = run_experiment(cfg_a), run_experiment(cfg_b)
    assert res_a.summary_path.read_bytes() == res_b.summary_path.read_bytes()
    for pa, pb in zip(sorted(res_a.csv_paths), sorted(res_b.csv_paths)):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_parallel_workers_match_serial_output(tmp_path):
    plain = parse_mapping(_grid_mapping(tmp_path / "s", T=30))
    legacy = parse_mapping(_grid_mapping(tmp_path / "p", T=30, workers=3))
    res_s, res_w = run_experiment(plain), run_experiment(legacy)
    assert len(res_s.csv_paths) == len(res_w.csv_paths) == 6
    for ps, pw in zip(sorted(res_s.csv_paths), sorted(res_w.csv_paths)):
        assert ps.read_bytes() == pw.read_bytes(), ps.name
    assert (json.loads(res_s.summary_path.read_text())["runs"]
            == json.loads(res_w.summary_path.read_text())["runs"])


def test_grid_builds_the_problem_once(tmp_path, monkeypatch):
    from rvikit.harness import runner

    calls = []

    def counting_make_problem(*args, **kwargs):
        calls.append(args)
        return make_problem(*args, **kwargs)

    monkeypatch.setattr(runner, "make_problem", counting_make_problem)
    result = run_experiment(parse_mapping(_grid_mapping(tmp_path, T=10)))
    assert len(result.summary["runs"]) == 6  # {REG, RPEG} x 3 seeds
    assert len(calls) == 1


def test_violations_yield_exit_code_two(tmp_path):
    mapping = {
        "problem": {"name": "euclidean_bilinear", "params": {"dim": 4}},
        "methods": ["REG"], "T": 100, "record_every": 10,
        "etas": [3.0],                       # far above the certified step
        "output_dir": str(tmp_path / "out"),
    }
    result = run_experiment(parse_mapping(mapping))
    assert result.exit_code == 2
    assert result.summary["totals"]["total_violations"] > 0


def test_solver_abort_yields_exit_code_three(tmp_path):
    mapping = {
        "problem": {"name": "sphere_bilinear", "params": {}},
        "methods": ["REG"], "T": 50, "etas": [10.0],
        "instruments": [],                   # raw geometry failure, no checks
        "output_dir": str(tmp_path / "out"),
    }
    result = run_experiment(parse_mapping(mapping))
    assert result.exit_code == 3
    (entry,) = result.summary["runs"].values()
    assert entry["aborted"]
    assert entry["abort_reason"]


# ---------------------------------------------------------------------------
# validator runner
# ---------------------------------------------------------------------------

def test_run_validators_grid(tmp_path):
    spec = ValidatorSpec(manifolds=("s2", "h2"),
                         checks=("cosine_law_lower", "holonomy"),
                         probes=30, seed=1)
    report = run_validators(spec, output_dir=tmp_path)
    assert len(report.entries) == 4          # 2 checks x 2 manifolds
    assert report.violations == 0
    assert report.exit_code == 0
    assert report.worst_residual() is not None
    names = sorted(p.name for p in report.csv_paths)
    assert names == ["sweep_cosine_law_lower.csv", "sweep_holonomy.csv"]
    header = (tmp_path / "sweep_holonomy.csv").read_text().splitlines()[0]
    assert header == "probe_id,manifold,residual,bound,valid_flag"
    json.dumps(report.to_dict())             # JSON-serializable


def test_run_validators_zero_probes_passes():
    spec = ValidatorSpec(manifolds=("s2",), checks=("holonomy",), probes=0)
    report = run_validators(spec)
    assert report.exit_code == 0
    assert report.worst_residual() is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_yaml(path, mapping):
    import yaml

    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def test_cli_list_commands(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list_problems()
    assert main(["list-methods"]) == 0
    assert capsys.readouterr().out.split() == list(METHODS)


def test_cli_run_and_fit(tmp_path, capsys):
    cfg = _write_yaml(tmp_path / "exp.yaml",
                      _grid_mapping(tmp_path, methods=["REG"], seeds=[0],
                                    T=300, record_every=3))
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "REG_eta-auto_seed-0: ok" in out
    assert "summary:" in out
    trace = tmp_path / "out" / "decoupled_saddle_REG_eta-auto_seed-0.csv"
    assert trace.exists()

    assert main(["fit", str(trace), "--metric", "op_norm"]) == 0
    fit_out = capsys.readouterr().out
    assert "slope=" in fit_out and "r_squared=" in fit_out

    assert main(["fit", str(trace), "--metric", "no_such"]) == 1
    assert "no_such" in capsys.readouterr().err


def test_cli_run_overrides(tmp_path, capsys):
    cfg = _write_yaml(tmp_path / "exp.yaml",
                      _grid_mapping(tmp_path, methods=["REG"], seeds=[0],
                                    T=40))
    dest = tmp_path / "elsewhere"
    assert main(["run", cfg, "--set", "T=20", "--output-dir", str(dest)]) == 0
    capsys.readouterr()
    summary = json.loads((dest / "summary.json").read_text())
    assert summary["grid"]["T"] == 20


def test_cli_missing_config_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_bad_method_is_config_error(tmp_path, capsys):
    cfg = _write_yaml(tmp_path / "exp.yaml",
                      _grid_mapping(tmp_path, methods=["SGD"]))
    assert main(["run", cfg]) == 1
    assert "SGD" in capsys.readouterr().err


def test_cli_unparsable_eta_is_config_error(tmp_path, capsys):
    cfg = _write_yaml(tmp_path / "exp.yaml", _grid_mapping(tmp_path))
    assert main(["run", cfg, "--set", "etas=[abc]"]) == 1
    assert "config error:" in capsys.readouterr().err


def test_cli_validate(tmp_path, capsys):
    cfg = _write_yaml(tmp_path / "val.yaml", {
        "problem": {"name": "euclidean_bilinear"},
        "methods": ["REG"],
        "validators": {"manifolds": ["s2", "spd2"],
                       "checks": ["distance_comparison"], "probes": 25,
                       "seed": 2},
    })
    out_dir = tmp_path / "sweeps"
    assert main(["validate", cfg, "--output-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "distance_comparison on s2" in out
    assert (out_dir / "sweep_distance_comparison.csv").exists()
    assert (out_dir / "validators_summary.json").exists()


def test_cli_validate_without_section_fails(tmp_path, capsys):
    cfg = _write_yaml(tmp_path / "noval.yaml", MINIMAL)
    assert main(["validate", cfg]) == 1
    assert "validators" in capsys.readouterr().err
