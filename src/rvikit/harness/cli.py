"""Command-line front end.

Subcommands::

    rvikit run <config.yaml>        execute the solver grid in the config
    rvikit validate <config.yaml>   run the geometry-validator sweeps
    rvikit fit <trace.csv> --metric <name>   fit a rate slope to a trace
    rvikit list-problems
    rvikit list-methods

Exit codes: 0 success, 1 config error, 2 invariant violation, 3 solver
abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..exceptions import ConfigError, DomainError, SolverAbort
from ..problems import list_problems
from ..solvers import METHODS
from .config import (ValidatorSpec, apply_overrides, load_config_file, parse_mapping,
                     parse_problem_section)
from .rates import fit_rate_points, load_trace_csv
from .runner import EXIT_ABORT, EXIT_CONFIG, EXIT_OK, run_experiment, run_validators

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvikit",
        description="Variational-inequality solvers on Riemannian manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the solver grid of a config file")
    p_run.add_argument("config", help="YAML experiment config")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key (dotted path, YAML value)")
    p_run.add_argument("--output-dir", default=None,
                       help="shorthand for --set output_dir=DIR")

    p_val = sub.add_parser("validate",
                           help="run the geometry sweeps of a config file")
    p_val.add_argument("config", help="YAML config with a validators section")
    p_val.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE")
    p_val.add_argument("--output-dir", default=None,
                       help="directory for sweep CSVs and the report "
                            "(default: no files, report to stdout)")

    p_fit = sub.add_parser("fit", help="fit a power-law slope to a trace CSV")
    p_fit.add_argument("trace", help="trace CSV produced by a run")
    p_fit.add_argument("--metric", required=True,
                       help="trace column to fit (e.g. op_norm, gap_avg)")
    p_fit.add_argument("--t-min", type=float, default=None)
    p_fit.add_argument("--t-max", type=float, default=None)

    sub.add_parser("list-problems", help="print available problem names")
    sub.add_parser("list-methods", help="print available method names")
    return parser


def _cmd_run(args) -> int:
    mapping = load_config_file(args.config)
    overrides = list(args.overrides)
    if args.output_dir is not None:
        overrides.append(f"output_dir={args.output_dir}")
    cfg = parse_mapping(mapping, overrides)
    result = run_experiment(cfg)
    for key in sorted(result.summary["runs"]):
        entry = result.summary["runs"][key]
        final = entry.get("final") or {}
        status = "aborted" if entry["aborted"] else "ok"
        print(f"{key}: {status}  final op_norm={final.get('op_norm')}  "
              f"violations={entry['total_violations']}")
    print(f"summary: {result.summary_path}")
    print(f"exit code: {result.exit_code}")
    return result.exit_code


def _cmd_validate(args) -> int:
    mapping = load_config_file(args.config)
    mapping = apply_overrides(mapping, args.overrides)
    section = mapping.get("validators")
    if section is None:
        raise ConfigError("config has no validators section")
    if "problem" in mapping:
        parse_problem_section(mapping["problem"])
    spec = ValidatorSpec.from_mapping(section)
    report = run_validators(spec, output_dir=args.output_dir)
    for entry in report.entries:
        print(f"{entry['check']} on {entry['manifold_spec']}: "
              f"{entry['valid']}/{entry['probes']} valid probes, "
              f"{entry['violations']} violations, "
              f"worst residual {entry['worst_residual']}")
    if args.output_dir is not None:
        from pathlib import Path

        path = Path(args.output_dir) / "validators_summary.json"
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        print(f"report: {path}")
    print(f"exit code: {report.exit_code}")
    return report.exit_code


def _cmd_fit(args) -> int:
    columns = load_trace_csv(args.trace)
    if "t" not in columns:
        raise ConfigError(f"{args.trace}: no 't' column")
    if args.metric not in columns:
        raise ConfigError(
            f"unknown metric {args.metric!r}; columns: "
            f"{[c for c in columns if c != 't']}")
    fit = fit_rate_points(columns["t"], columns[args.metric],
                          metric=args.metric, t_min=args.t_min,
                          t_max=args.t_max)
    print(f"metric={fit.metric} slope={fit.slope:.6g} "
          f"intercept={fit.intercept:.6g} r_squared={fit.r_squared:.6g} "
          f"points={fit.points} t_range=[{fit.t_range[0]:g}, {fit.t_range[1]:g}]")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "list-problems":
            for name in list_problems():
                print(name)
            return EXIT_OK
        if args.command == "list-methods":
            for name in METHODS:
                print(name)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
