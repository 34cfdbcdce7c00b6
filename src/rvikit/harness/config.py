"""Declarative experiment configuration.

A config is one YAML mapping describing a problem, a solver grid
(methods x etas x seeds), and an optional geometry-validator sweep.  Keys
named after :class:`~rvikit.solvers.SolverConfig` fields pass straight
through to it, and it alone judges whether a setting is valid; this module
only turns outside input into values.  Command-line overrides address
individual keys with dotted paths (``--set grid.T=1000``-style
``key=value`` pairs, values parsed as YAML).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import yaml

from ..exceptions import ConfigError, require as _require
from ..geometry.probes import CHECKS
from ..problems import list_problems
from ..solvers import SolverConfig

__all__ = ["ExperimentConfig", "ValidatorSpec", "load_config_file",
           "apply_overrides", "parse_mapping"]


def load_config_file(path) -> dict:
    """Parse one YAML config file into a plain mapping."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    return data


def apply_overrides(mapping: dict, overrides) -> dict:
    """Apply ``dotted.key=value`` overrides on a copy of the mapping."""
    out = copy.deepcopy(mapping)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override value {raw!r} is not valid YAML: {exc}") from exc
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out


@dataclass(frozen=True)
class ValidatorSpec:
    """Geometry-validator sweep request: which manifolds, which checks, how many."""

    manifolds: tuple[str, ...]
    checks: tuple[str, ...]
    probes: int
    seed: int = 0
    leg: float | None = None

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ValidatorSpec":
        if not isinstance(mapping, dict):
            raise ConfigError("validators section must be a mapping")
        unknown = set(mapping) - {"manifolds", "checks", "probes", "seed", "leg"}
        _require(not unknown, f"unknown validator keys: {sorted(unknown)}")
        manifolds = mapping.get("manifolds")
        _require(isinstance(manifolds, (list, tuple)) and len(manifolds) > 0,
                 "validators.manifolds must be a nonempty list of manifold specs")
        checks = mapping.get("checks", sorted(CHECKS))
        if isinstance(checks, str):
            checks = [checks]
        bad = [c for c in checks if c not in CHECKS]
        _require(not bad,
                 f"unknown checks {bad}; valid checks: {sorted(CHECKS)}")
        probes = mapping.get("probes")
        _require(isinstance(probes, int) and probes >= 0,
                 "validators.probes must be a nonnegative integer")
        seed = mapping.get("seed", 0)
        _require(isinstance(seed, int), "validators.seed must be an integer")
        leg = mapping.get("leg")
        if leg is not None:
            leg = float(leg)
            _require(leg > 0, "validators.leg must be positive")
        return cls(manifolds=tuple(str(m) for m in manifolds),
                   checks=tuple(checks), probes=probes, seed=seed, leg=leg)


# config keys passed through to SolverConfig; the grid axes fill the rest
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)} - {"method", "eta", "seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A problem plus a methods x etas x seeds grid over the ``solver`` template."""

    problem_name: str
    problem_params: dict = field(default_factory=dict)
    methods: tuple[str, ...] = ("REG",)
    etas: tuple[float, ...] | str = "auto"
    seeds: tuple[int, ...] = (0,)
    output_dir: Path = Path("out")
    solver: SolverConfig = field(default_factory=SolverConfig)

    def cells(self) -> list[SolverConfig]:
        """One validated SolverConfig per grid cell, in method, eta, seed order."""
        etas = ("auto",) if self.etas == "auto" else self.etas
        return [replace(self.solver, method=m, eta=e, seed=s)
                for m in self.methods for e in etas for s in self.seeds]

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        if not isinstance(mapping, dict):
            raise ConfigError("config root must be a mapping")
        known = {"problem", "methods", "etas", "seeds", "output_dir",
                 "workers", "validators"} | _SOLVER_KEYS
        unknown = set(mapping) - known
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")

        problem = mapping.get("problem")
        _require(isinstance(problem, dict) and "name" in problem,
                 "config needs a problem section with a name")
        name = problem["name"]
        _require(name in list_problems(),
                 f"unknown problem {name!r}; valid problems: {list_problems()}")
        params = problem.get("params", {})
        _require(isinstance(params, dict), "problem.params must be a mapping")
        extra = set(problem) - {"name", "params"}
        _require(not extra, f"unknown problem keys: {sorted(extra)}")

        methods = mapping.get("methods", [])
        if isinstance(methods, str):
            methods = [methods]
        _require(isinstance(methods, (list, tuple)) and len(methods) > 0,
                 "methods must be a nonempty list")

        etas = mapping.get("etas", "auto")
        if etas != "auto":
            if isinstance(etas, (int, float)):
                etas = [etas]
            _require(isinstance(etas, (list, tuple)) and len(etas) > 0,
                     "etas must be 'auto' or a nonempty list of step sizes")
            try:
                etas = tuple(float(e) for e in etas)
            except (TypeError, ValueError):
                raise ConfigError(f"etas must be numbers, got {etas!r}") from None

        seeds = mapping.get("seeds", [0])
        if isinstance(seeds, int):
            seeds = [seeds]
        # a None seed draws from OS entropy, and reruns must reproduce bytes
        _require(isinstance(seeds, (list, tuple)) and len(seeds) > 0
                 and None not in seeds, "seeds must be a nonempty list of integers")

        settings = {k: mapping[k] for k in _SOLVER_KEYS & set(mapping)}
        if isinstance(settings.get("instruments"), str):
            settings["instruments"] = [settings["instruments"]]
        # accepted for existing config files; cells always run in order
        workers = mapping.get("workers", 1)
        _require(isinstance(workers, int) and workers >= 1,
                 "workers must be an integer >= 1")
        if mapping.get("validators") is not None:
            ValidatorSpec.from_mapping(mapping["validators"])

        cfg = cls(problem_name=name, problem_params=dict(params),
                  methods=tuple(methods), etas=etas, seeds=tuple(seeds),
                  output_dir=Path(mapping.get("output_dir", "out")),
                  solver=SolverConfig(**settings))
        cfg.cells()   # SolverConfig rejects any bad cell here, before a run
        return cfg


def parse_mapping(mapping: dict, overrides=None) -> ExperimentConfig:
    """Overrides applied, then validated into an :class:`ExperimentConfig`."""
    return ExperimentConfig.from_mapping(apply_overrides(mapping, overrides))
