"""The benchmark's workloads: what one round runs, and how it is checked.

A workload is built once per process (that is the timed set-up: problem
construction with any certification, config parsing, step-size bounds)
and then repeats identical rounds.  A round is a list of blocks; each
block is timed on its own between two reference samples.  An operation
is one solver run, one (problem, method, seed) cell; a block holds one
or more of them.

Inputs come only from the workload seed: problem seeds and initial-point
seeds are derived from it, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

GAP_LB_SAMPLES = 300
# keeps the bound's sample stream apart from the streams the problems draw from
GAP_LB_STREAM = 0x6761


@dataclass
class Block:
    """One timed call into the program and the check of what it returned."""

    ops: int
    iters: int
    run: Callable[[], object]
    check: Callable[[object], list[list[str]]]   # errors per operation


@dataclass
class Workload:
    blocks: list[Block]

    @property
    def iters(self) -> int:
        return sum(b.iters for b in self.blocks)


def _columns(trace, names) -> dict:
    return {n: np.array([math.nan if getattr(r, n) is None else getattr(r, n)
                         for r in trace.records], dtype=float) for n in names}


def _method_checks(trace, cols) -> list[str]:
    """Guarantees every REG / RPEG run must show."""
    errors = checks.check_clean_run(trace.aborted, trace.violations)
    if trace.method == "REG":
        errors += checks.check_norm_monotone(cols["op_norm"])
    elif trace.method == "RPEG":
        errors += checks.check_final_bound(float(cols["op_norm"][-1]),
                                           trace.final_bound_rhs())
    return errors


def _solver_block(prob, bounds, config, check) -> Block:
    from rvikit import solvers

    return Block(ops=1, iters=config.T,
                 run=lambda: solvers.run(prob, config, bounds=bounds),
                 check=lambda trace: [check(trace)])


# ---------------------------------------------------------------------------
# flat_grid: the experiment harness on a flat bilinear game
# ---------------------------------------------------------------------------

FLAT = {"dim": 24, "T": 400, "record_every": 2, "methods": ("REG", "RPEG"),
        "workers": 2}


def flat_grid(seed: int, out_dir: Path) -> Workload:
    """``harness.run_experiment`` on ``euclidean_bilinear``: 2 methods x 2 seeds.

    The kernel is ``x + v``, so time goes to the harness (grid threads,
    CSV rows every other iteration, rate fits, summary), the solver
    driver and the typed Point/Tangent layer.  Set-up is what ``rvikit
    run`` does before the grid: parse and validate the config; each cell
    builds its own problem.
    """
    from rvikit import harness

    seeds = [seed, seed + 1]
    cfg = harness.parse_mapping({
        "problem": {"name": "euclidean_bilinear", "params": {"dim": FLAT["dim"]}},
        "methods": list(FLAT["methods"]), "etas": "auto", "T": FLAT["T"],
        "seeds": seeds, "record_every": FLAT["record_every"], "gaps": True,
        "workers": FLAT["workers"], "output_dir": str(out_dir)})

    # independent of the program: A's spectrum tops at s_max = 1, so L = 1,
    # and the flat-space certified steps are 1/(9L) and 1/(35L)
    A = checks.bilinear_spectrum(FLAT["dim"], 0.008, 1.0)
    L, D = 1.0, 1.0
    etas = {"REG": 1.0 / (9.0 * L), "RPEG": 1.0 / (35.0 * L)}
    gap_radius = math.sqrt(2.0) * D / 2.0
    cells = [(m, s) for m in cfg.methods for s in seeds]
    reference: dict = {}   # filled on the first check, outside the timed set-up

    def check(result) -> list[list[str]]:
        if not reference:
            reference.update({(m, s): checks.flat_recursion(
                A, m, etas[m], checks.flat_start(s, FLAT["dim"], 0.9 * D),
                FLAT["T"], FLAT["record_every"], gap_radius) for m, s in cells})
        summary = json.loads((out_dir / "summary.json").read_text())
        shared = []
        if summary.get("exit_code") != 0 or result.exit_code != 0:
            shared.append(f"exit code {result.exit_code}, summary {summary.get('exit_code')}")
        per_op = []
        for m, s in cells:
            key = f"{m}_eta-auto_seed-{s}"
            run = summary["runs"].get(key)
            if run is None:
                per_op.append(shared + [f"{key} missing from the summary"])
                continue
            errors = shared + checks.check_summary_run(key, run, etas[m])
            rows = checks.read_trace_csv(out_dir / run["csv"])
            errors += checks.check_rows_match(rows, reference[(m, s)])
            if m == "RPEG" and rows:
                errors += checks.check_final_bound(
                    float(rows["op_norm"][-1]), checks.rpeg_bound(D, 1.0, FLAT["T"], etas[m]))
            per_op.append(errors)
        return per_op

    block = Block(ops=len(cells), iters=len(cells) * FLAT["T"],
                  run=lambda: harness.run_experiment(cfg), check=check)
    return Workload([block])


# ---------------------------------------------------------------------------
# curved_saddle: curved kernels, no harness, no gap solver
# ---------------------------------------------------------------------------

CURVED = {"T": 120, "record_every": 10, "saddles": ("h2*h2", "s2*s2", "spd3*spd3"),
          "mean_on": "spd3", "methods": ("REG", "RPEG")}


def curved_saddle(seed: int, out_dir: Path) -> Workload:
    """``decoupled_saddle`` on three product manifolds and ``frechet_mean`` on SPD(3).

    REG and RPEG with holonomy probes on: the time goes to eigh (SPD),
    trigonometry (sphere), Lorentz forms (hyperboloid), the multi-log
    Frechet field and the per-step holonomy probe.
    """
    from rvikit import problems, solvers

    def check_saddle(trace) -> list[str]:
        cols = _columns(trace, ("op_norm", "dist"))
        return (_method_checks(trace, cols)
                + checks.check_norm_equals_dist(cols["op_norm"], cols["dist"]))

    def check_mean(trace) -> list[str]:
        return _method_checks(trace, _columns(trace, ("op_norm",)))

    built = [(problems.make_problem("decoupled_saddle", manifold=spec, seed=seed),
              check_saddle) for spec in CURVED["saddles"]]
    built.append((problems.make_problem("frechet_mean", manifold=CURVED["mean_on"],
                                        seed=seed), check_mean))
    blocks = []
    for prob, check in built:
        bounds = prob.bounds()
        for method in CURVED["methods"]:
            config = solvers.SolverConfig(
                method=method, T=CURVED["T"], record_every=CURVED["record_every"],
                seed=seed, holonomy_probes=True)
            blocks.append(_solver_block(prob, bounds, config, check))
    return Workload(blocks)


# ---------------------------------------------------------------------------
# inner_gap: duality gaps without a closed form
# ---------------------------------------------------------------------------

# three starting points per (problem, method): the inner ascent's cost
# depends on where the iterates sit, and averaging over starts keeps the
# round's work nearly the same from one workload seed to the next
INNER = {"T": 40, "record_every": 20, "methods": ("REG", "RPEG"), "starts": 3}


def inner_gap(seed: int, out_dir: Path) -> Workload:
    """``sphere_bilinear`` and ``hyperbolic_rmean_saddle`` with gaps recorded.

    REG and RPEG from three starting points each, two records per run.
    Neither has a closed-form gap, so every record runs the projected
    inner ascent of ``problems.core.duality_gap`` twice.  Set-up carries
    the 2000-pair monotonicity certification of ``sphere_bilinear``.
    """
    from rvikit import problems, solvers
    from rvikit.manifolds import Point

    def make_check(prob, ball, sample_seed):
        obj = prob.objective
        mx, my = obj.manifold_x, obj.manifold_y
        center = prob.manifold.split(prob.solution.coords)
        radius = math.sqrt(2.0) * prob.region_radius / 2.0   # the solver's gap radius

        def value(x, y):
            return obj.value(Point(mx, x), Point(my, y))

        def lower_bound(point) -> float:
            x, y = prob.manifold.split(point.coords)
            rng = np.random.default_rng(sample_seed)
            xs = ball(rng, center[0], radius, GAP_LB_SAMPLES)
            ys = ball(rng, center[1], radius, GAP_LB_SAMPLES)
            return checks.gap_lower_bound(value, x, y, xs, ys)

        def check(trace) -> list[str]:
            cols = _columns(trace, ("op_norm", "gap_last", "gap_avg"))
            errors = _method_checks(trace, cols)
            if trace.final is None or trace.average is None:
                return errors + ["trace has no final or average point"]
            bounds = {"gap_last": lower_bound(trace.final),
                      "gap_avg": lower_bound(trace.average)}
            return errors + checks.check_gaps(cols["gap_last"], cols["gap_avg"], bounds)

        return check

    # the catalog's default instances: which instance is drawn moves the
    # round's work by about 8%, so the workload seed picks the starts only
    built = [(problems.make_problem("sphere_bilinear"), checks.sphere_ball),
             (problems.make_problem("hyperbolic_rmean_saddle"), checks.hyperboloid_ball)]
    blocks = []
    for i, (prob, ball) in enumerate(built):
        bounds = prob.bounds()
        check = make_check(prob, ball, [seed, i, GAP_LB_STREAM])
        for method in INNER["methods"]:
            for start in range(seed, seed + INNER["starts"]):
                config = solvers.SolverConfig(
                    method=method, T=INNER["T"], record_every=INNER["record_every"],
                    seed=start, gaps=True)
                blocks.append(_solver_block(prob, bounds, config, check))
    return Workload(blocks)


WORKLOADS = {"flat_grid": flat_grid, "curved_saddle": curved_saddle,
             "inner_gap": inner_gap}
