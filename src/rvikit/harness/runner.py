"""Grid execution: many (method, eta, seed) runs plus validator sweeps.

The problem and its geometry bounds are built once per grid; the cells
then run in order over that one instance, each writing its own CSV, and
one JSON summary is assembled afterwards.  Output content is a pure
function of the configuration (seeds included, timestamps excluded), so
reruns reproduce files byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..exceptions import DomainError, SolverAbort
from ..geometry.constants import GeometryBounds
from ..geometry.probes import CHECKS, run_sweep, write_sweep_csv
from ..problems import VectorFieldProblem, make_problem, manifold_from_spec
from ..solvers import RunTrace, SolverConfig, run
from .config import ExperimentConfig, ValidatorSpec
from .rates import default_burn_in, fit_rate

__all__ = ["ExperimentResult", "ValidatorReport", "run_experiment",
           "run_validators", "EXIT_OK", "EXIT_CONFIG", "EXIT_VIOLATION",
           "EXIT_ABORT"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_ABORT = 3

_RATE_METRICS = ("op_norm", "gap_last", "gap_avg")


def _eta_label(eta) -> str:
    return "auto" if eta == "auto" else format(float(eta), ".6g")


@dataclass
class ExperimentResult:
    """Artifacts and verdict of one grid execution."""

    exit_code: int
    summary: dict
    summary_path: Path | None
    csv_paths: list = field(default_factory=list)


def _rate_fits(trace: RunTrace) -> dict:
    fits = {}
    t_min = default_burn_in(trace.T)
    for metric in _RATE_METRICS:
        try:
            fits[metric] = fit_rate(trace, metric, t_min=t_min,
                                    t_max=trace.T).to_dict()
        except DomainError as exc:
            fits[metric] = {"unavailable": str(exc)}
    return fits


def _execute_cell(cfg: ExperimentConfig, prob: VectorFieldProblem,
                  bounds: GeometryBounds, cell: SolverConfig,
                  out_dir: Path) -> tuple[str, dict, Path]:
    """One grid cell: run on the shared problem, write the CSV, summarize."""
    try:
        trace = run(prob, cell, bounds=bounds)
    except SolverAbort as exc:
        trace = exc.trace   # run() attaches the partial trace to every abort
    label = _eta_label(cell.eta)
    key = f"{cell.method}_eta-{label}_seed-{cell.seed}"
    csv_path = out_dir / f"{cfg.problem_name}_{key}.csv"
    trace.to_csv(csv_path)
    entry = trace.summary()
    entry["eta_requested"] = label
    entry["csv"] = csv_path.name
    entry["rates"] = _rate_fits(trace)
    return key, entry, csv_path


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full grid, write per-run CSVs and one ``summary.json``.

    Exit code 0 when every run finished with zero guarantee violations,
    2 when any violation counter is nonzero, 3 when any run aborted.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prob = make_problem(cfg.problem_name, **cfg.problem_params)
    bounds = prob.bounds()
    results: dict[str, dict] = {}
    csv_paths: list[Path] = []
    for cell in cfg.cells():
        key, entry, path = _execute_cell(cfg, prob, bounds, cell, out_dir)
        results[key] = entry
        csv_paths.append(path)

    totals: dict[str, int] = {}
    aborted_runs = 0
    for entry in results.values():
        for name, count in entry["violations"].items():
            totals[name] = totals.get(name, 0) + count
        if entry["aborted"]:
            aborted_runs += 1
    total_violations = sum(totals.values())
    if aborted_runs:
        exit_code = EXIT_ABORT
    elif total_violations:
        exit_code = EXIT_VIOLATION
    else:
        exit_code = EXIT_OK

    summary = {
        "problem": {"name": cfg.problem_name, "params": cfg.problem_params},
        "grid": {"methods": list(cfg.methods),
                 "etas": "auto" if cfg.etas == "auto" else list(cfg.etas),
                 "seeds": list(cfg.seeds), "T": cfg.solver.T,
                 "record_every": cfg.solver.record_every},
        "runs": results,
        "totals": {"violations": totals,
                   "total_violations": total_violations,
                   "aborted_runs": aborted_runs},
        "exit_code": exit_code,
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(exit_code=exit_code, summary=summary,
                            summary_path=summary_path, csv_paths=csv_paths)


@dataclass
class ValidatorReport:
    """Aggregated sweep outcome: per (manifold, check) counts and extremes."""

    entries: list = field(default_factory=list)
    csv_paths: list = field(default_factory=list)

    @property
    def violations(self) -> int:
        return sum(e["violations"] for e in self.entries)

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.violations == 0 else EXIT_VIOLATION

    def worst_residual(self):
        residuals = [e["worst_residual"] for e in self.entries
                     if e["worst_residual"] is not None]
        return min(residuals) if residuals else None

    def to_dict(self) -> dict:
        return {"entries": self.entries,
                "total_violations": self.violations,
                "worst_residual": self.worst_residual(),
                "exit_code": self.exit_code}


def run_validators(spec: ValidatorSpec,
                   output_dir: Path | str | None = None) -> ValidatorReport:
    """Run the geometry sweeps described by ``spec``; optionally emit one CSV per check.

    A probe must beat the residual floor only when its preconditions hold
    (``valid_flag`` = 1); zero requested probes yield an empty, passing
    report.
    """
    report = ValidatorReport()
    out_dir = None
    if output_dir is not None:
        out_dir = Path(output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    for ci, check in enumerate(spec.checks):
        if check not in CHECKS:
            raise KeyError(f"unknown check {check!r}")
        rows = [] if out_dir is not None else None
        for mi, mspec in enumerate(spec.manifolds):
            m = manifold_from_spec(mspec)
            rng = np.random.default_rng([spec.seed, ci, mi])
            summary = run_sweep(m, check, spec.probes, rng, leg=spec.leg,
                                collect_rows=rows)
            entry = summary.to_dict()
            entry["manifold_spec"] = mspec
            report.entries.append(entry)
        if out_dir is not None:
            path = out_dir / f"sweep_{check}.csv"
            write_sweep_csv(path, rows)
            report.csv_paths.append(path)
    return report
