"""Declarative experiment configuration.

A config is one YAML mapping describing a problem, a solver grid
(methods x etas x seeds), trace options, and an optional geometry-validator
sweep.  Command-line overrides address individual keys with dotted paths
(``--set grid.T=1000``-style ``key=value`` pairs, values parsed as YAML).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from ..exceptions import ConfigError
from ..geometry.probes import CHECKS
from ..problems import list_problems
from ..solvers import INSTRUMENTS, METHODS

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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Full run request: problem, solver grid, trace options, output paths."""

    problem_name: str
    problem_params: dict = field(default_factory=dict)
    methods: tuple[str, ...] = ("REG",)
    etas: tuple[float, ...] | str = "auto"
    T: int = 1000
    seeds: tuple[int, ...] = (0,)
    output_dir: Path = Path("out")
    record_every: int = 1
    gaps: bool = False
    instruments: tuple[str, ...] | None = None
    holonomy_probes: bool = False
    init_radius_frac: float = 0.9

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        if not isinstance(mapping, dict):
            raise ConfigError("config root must be a mapping")
        known = {"problem", "methods", "etas", "T", "seeds", "output_dir",
                 "record_every", "gaps", "instruments", "holonomy_probes",
                 "init_radius_frac", "workers", "validators"}
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
        bad = [m for m in methods if m not in METHODS]
        _require(not bad, f"unknown methods {bad}; valid methods: {list(METHODS)}")

        etas = mapping.get("etas", "auto")
        if etas != "auto":
            if isinstance(etas, (int, float)):
                etas = [etas]
            _require(isinstance(etas, (list, tuple)) and len(etas) > 0,
                     "etas must be 'auto' or a nonempty list of step sizes")
            parsed = []
            for e in etas:
                e = float(e)
                _require(e > 0, "step sizes must be positive")
                parsed.append(e)
            etas = tuple(parsed)

        T = mapping.get("T", 1000)
        _require(isinstance(T, int) and T >= 1, "T must be an integer >= 1")
        seeds = mapping.get("seeds", [0])
        if isinstance(seeds, int):
            seeds = [seeds]
        _require(isinstance(seeds, (list, tuple)) and len(seeds) > 0
                 and all(isinstance(s, int) for s in seeds),
                 "seeds must be a nonempty list of integers")
        record_every = mapping.get("record_every", 1)
        _require(isinstance(record_every, int) and record_every >= 1,
                 "record_every must be an integer >= 1")
        gaps = bool(mapping.get("gaps", False))
        holonomy = bool(mapping.get("holonomy_probes", False))
        instruments = mapping.get("instruments")
        if instruments is not None:
            if isinstance(instruments, str):
                instruments = [instruments]
            _require(isinstance(instruments, (list, tuple)),
                     "instruments must be a list of instrument names")
            bad = [i for i in instruments if i not in INSTRUMENTS]
            _require(not bad, f"unknown instruments {bad}; "
                              f"valid instruments: {list(INSTRUMENTS)}")
            instruments = tuple(instruments)
        frac = float(mapping.get("init_radius_frac", 0.9))
        _require(0.0 < frac <= 1.0, "init_radius_frac must lie in (0, 1]")
        # accepted for existing config files; cells always run in order
        workers = mapping.get("workers", 1)
        _require(isinstance(workers, int) and workers >= 1,
                 "workers must be an integer >= 1")
        if mapping.get("validators") is not None:
            ValidatorSpec.from_mapping(mapping["validators"])

        return cls(problem_name=name, problem_params=dict(params),
                   methods=tuple(methods), etas=etas, T=T,
                   seeds=tuple(seeds),
                   output_dir=Path(mapping.get("output_dir", "out")),
                   record_every=record_every, gaps=gaps,
                   instruments=instruments, holonomy_probes=holonomy,
                   init_radius_frac=frac)


def parse_mapping(mapping: dict, overrides=None) -> ExperimentConfig:
    """Overrides applied, then validated into an :class:`ExperimentConfig`."""
    return ExperimentConfig.from_mapping(apply_overrides(mapping, overrides))
