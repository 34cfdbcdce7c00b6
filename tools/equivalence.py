"""Equivalence grids: run fixed ``rvikit`` commands and hash what they leave.

    python3 tools/equivalence.py --out OUT_DIR [--root CHECKOUT] [--drop-key KEY ...]

Each grid is one ``rvikit run`` or ``rvikit validate`` command on a fixed
config, run in a subprocess with ``CHECKOUT/src`` (default: this file's
checkout) on the import path and ``OUT_DIR`` as its working directory.  The
listing on standard output has one line per grid with its exit code, then
one ``<sha256>  <grid>/<file>`` line per output file and per stdout/stderr:

    python3 tools/equivalence.py --root ../parent --out /tmp/eq-parent > parent.txt
    python3 tools/equivalence.py --out /tmp/eq-change > change.txt
    diff parent.txt change.txt

Paths are relative, so two checkouts give comparable listings.  A JSON
file is hashed as written; with ``--drop-key`` it is hashed after the
named keys are removed at every depth, re-serialised the same way on both
sides (for a change that adds keys on purpose).

The grids: all five methods on every catalog problem with gaps and holonomy
probes, explicit and ``auto`` etas, instruments as one name and as a list,
one violating grid (exit 2), one aborting grid (exit 3), and the validator
sweeps at the default leg and at leg 1.2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
ALL_METHODS = ["REG", "RPEG", "RCEG", "ROGDA", "RGDA"]
CATALOG = {
    "euclidean_bilinear": {"dim": 6},
    "decoupled_saddle": {"manifold": "h2*s2"},
    "frechet_mean": {"manifold": "spd2"},
    "sphere_bilinear": {},
    "hyperbolic_rmean_saddle": {},
}
VALIDATORS = {"manifolds": ["e3", "s2", "h2", "spd2", "h2*s2*spd2"], "probes": 300, "seed": 3}


def _grid(name, params, **settings) -> dict:
    return {"problem": {"name": name, "params": params}, **settings}


def grids() -> dict:
    """Grid name -> (subcommand, config mapping)."""
    out = {}
    for name, params in CATALOG.items():
        out[f"catalog-{name}"] = ("run", _grid(
            name, params, methods=ALL_METHODS, etas="auto", seeds=[0, 1], T=60,
            record_every=5, gaps=True, holonomy_probes=True))
    out["explicit-etas"] = ("run", _grid(
        "decoupled_saddle", {"manifold": "s2*s2"}, methods=ALL_METHODS,
        etas=[0.05, "1e-2"], seeds=[2], T=80, record_every=4, gaps=True,
        instruments="boundedness"))
    out["instrument-list"] = ("run", _grid(
        "hyperbolic_rmean_saddle", {"seed": 1}, methods=["REG", "RPEG"], etas="auto",
        seeds=[0], T=40, record_every=10, gaps=True,
        instruments=["norm_monotone", "lyapunov", "boundedness"]))
    out["violating"] = ("run", _grid(
        "euclidean_bilinear", {"dim": 4}, methods=["REG", "RPEG"], etas=[3.0],
        seeds=[0], T=50, record_every=5, gaps=True))
    out["aborting"] = ("run", _grid(
        "sphere_bilinear", {}, methods=["REG", "RGDA"], etas=[10.0], seeds=[0],
        T=50, record_every=5, gaps=True))
    out["validate-default-leg"] = ("validate", {"validators": dict(VALIDATORS)})
    out["validate-leg-1.2"] = ("validate", {"validators": {**VALIDATORS, "leg": 1.2}})
    return out


def _drop(value, keys):
    if isinstance(value, dict):
        return {k: _drop(v, keys) for k, v in value.items() if k not in keys}
    if isinstance(value, list):
        return [_drop(v, keys) for v in value]
    return value


def _digest(path: Path, drop: set) -> str:
    data = path.read_bytes()
    if drop and path.suffix == ".json":
        data = json.dumps(_drop(json.loads(data), drop), indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run_grid(name: str, command: str, mapping: dict, root: Path, out: Path,
             drop: set) -> list[str]:
    """Run one grid under ``out/name`` and list its exit code and hashes."""
    grid_dir = out / name
    grid_dir.mkdir(parents=True)
    config = out / f"{name}.yaml"
    config.write_text(yaml.safe_dump(mapping, sort_keys=True))
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "rvikit.harness.cli", command, config.name,
         "--output-dir", name], cwd=out, env=env, capture_output=True)
    (grid_dir / "stdout.txt").write_bytes(proc.stdout)
    (grid_dir / "stderr.txt").write_bytes(proc.stderr)
    lines = [f"{name} exit {proc.returncode}"]
    for path in sorted(grid_dir.rglob("*")):
        if path.is_file():
            lines.append(f"{_digest(path, drop)}  {path.relative_to(out).as_posix()}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path,
                    help="new or empty directory for the configs and outputs")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ is run (default: this one)")
    ap.add_argument("--drop-key", action="append", default=[],
                    help="JSON key left out of the hashes (repeatable)")
    args = ap.parse_args(argv)
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        ap.error(f"{out} is not empty")
    for name, (command, mapping) in grids().items():
        for line in run_grid(name, command, mapping, args.root.resolve(), out,
                             set(args.drop_key)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
