"""Self-test: every correctness check passes on real output and fails on a perturbed one.

    python3 rvibench/selftest.py

Each case takes an output the program actually produced (a grid's CSVs
and summary, or a solver trace), confirms the benchmark's check accepts
it, perturbs one value, and confirms the check rejects it.  It also
checks that the tracer counts a contract re-projection, that it leaves
the program unpatched afterwards, and that BENCHMARK.json names the
metrics the benchmark prints.  Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
results: list[bool] = []


def _flatten(errors) -> list[str]:
    """Errors of one check, or of a block's checks (one list per operation)."""
    return [e for op in errors for e in (op if isinstance(op, list) else [op])]


def expect(name: str, clean, perturbed) -> None:
    """``clean`` must hold no errors and ``perturbed`` at least one."""
    clean, perturbed = _flatten(clean), _flatten(perturbed)
    ok = not clean and bool(perturbed)
    results.append(ok)
    detail = perturbed[0] if ok else f"clean={clean[:1]} perturbed={perturbed[:1]}"
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


def _edit_csv(path: Path, column: str, row: int, scale: float) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(float(rows[row + 1][col]) * scale)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def flat_cases(out_dir: Path) -> None:
    block = WORKLOADS["flat_grid"](SEED, out_dir).blocks[0]
    result = block.run()
    clean = block.check(result)
    summary_path = out_dir / "summary.json"
    original = summary_path.read_text()
    summary = json.loads(original)
    csv_path = out_dir / summary["runs"][f"REG_eta-auto_seed-{SEED}"]["csv"]
    saved = csv_path.read_text()
    for column in ("dist", "op_norm", "gap_last", "gap_avg"):
        _edit_csv(csv_path, column, 7, 1.0 + 1e-7)
        expect(f"flat_grid CSV {column} vs numpy recursion", clean, block.check(result))
        csv_path.write_text(saved)

    summary["exit_code"] = 2
    summary_path.write_text(json.dumps(summary))
    expect("flat_grid summary exit code", clean, block.check(result))
    summary = json.loads(original)
    summary["runs"][f"RPEG_eta-auto_seed-{SEED}"]["eta"] *= 1.01
    summary_path.write_text(json.dumps(summary))
    expect("flat_grid certified step size", clean, block.check(result))
    summary_path.write_text(original)


def _trace_copy(trace, **edits):
    """A deep copy of ``trace`` with record fields set: name=(row, value)."""
    out = copy.deepcopy(trace)
    for name, (row, value) in edits.items():
        setattr(out.records[row], name, value)
    return out


def curved_cases(out_dir: Path) -> None:
    reg, rpeg = WORKLOADS["curved_saddle"](SEED, out_dir).blocks[:2]
    t_reg, t_rpeg = reg.run(), rpeg.run()
    clean_reg, clean_rpeg = reg.check(t_reg), rpeg.check(t_rpeg)
    op = [r.op_norm for r in t_reg.records]
    dist = [r.dist for r in t_reg.records]

    bad = _trace_copy(t_reg, op_norm=(4, op[4] * (1.0 + 1e-7)))
    expect("decoupled_saddle op_norm = dist", clean_reg, reg.check(bad))
    expect("decoupled_saddle op_norm = dist (check alone)",
           checks.check_norm_equals_dist(np.array(op), np.array(dist)),
           checks.check_norm_equals_dist(np.array(op), np.array(dist) * (1.0 + 1e-7)))

    raised = np.array(op)
    raised[5] = raised[4] + 1e-7
    expect("REG op_norm non-increasing", checks.check_norm_monotone(np.array(op)),
           checks.check_norm_monotone(raised))

    bad = copy.deepcopy(t_reg)
    bad.violations["holonomy"] = 1
    expect("no guarantee violations", clean_reg, reg.check(bad))
    bad = copy.deepcopy(t_reg)
    bad.aborted = True
    expect("run not aborted", clean_reg, reg.check(bad))

    rhs = t_rpeg.final_bound_rhs()
    bad = _trace_copy(t_rpeg, op_norm=(-1, math.sqrt(rhs) * 1.001))
    expect("RPEG terminal bound", clean_rpeg, rpeg.check(bad))
    last = t_rpeg.records[-1].op_norm
    expect("RPEG terminal bound (check alone)", checks.check_final_bound(last, rhs),
           checks.check_final_bound(math.sqrt(rhs) * 1.001, rhs))


def inner_cases(out_dir: Path) -> None:
    block = WORKLOADS["inner_gap"](SEED, out_dir).blocks[0]
    trace = block.run()
    clean = block.check(trace)
    first, last = trace.records[0], trace.records[-1]
    expect("gap non-negative", clean,
           block.check(_trace_copy(trace, gap_last=(0, -1e-7))))
    expect("gap above the sampled lower bound", clean,
           block.check(_trace_copy(trace, gap_last=(-1, 0.0))))
    expect("averaged gap falls", clean,
           block.check(_trace_copy(trace, gap_avg=(-1, first.gap_avg))))
    lb = {"gap_last": last.gap_last, "gap_avg": last.gap_avg}
    gl = np.array([r.gap_last for r in trace.records])
    ga = np.array([r.gap_avg for r in trace.records])
    expect("gap lower bound (check alone)", checks.check_gaps(gl, ga, lb),
           checks.check_gaps(gl, ga, {"gap_last": last.gap_last + 1e-6,
                                      "gap_avg": last.gap_avg}))


def tracer_cases() -> None:
    import rvikit
    from rvikit.manifolds import Point, Sphere, ops
    from rvikit.problems.core import VectorFieldProblem

    originals = (ops.exp_map, rvikit.solvers.run, Sphere.exp, Point.__post_init__)
    tracer = Tracer()
    tracer.install()
    try:
        Point(Sphere(2), np.array([1.0 + 5e-9, 0.0, 0.0]))   # defect between 1e-10 and 1e-8
        Point(Sphere(2), np.array([1.0, 0.0, 0.0]))          # exact: no re-projection
    finally:
        tracer.uninstall()
    spans = tracer.drain()
    figures = layers.reduce(spans, tracer.labels, tracer.take_counters(), 1.0, 1)
    ok = (figures["manifolds.reproject.calls"] == 1
          and figures["manifolds.contract.calls"] == 2
          and np.all(spans.self_s <= spans.dur + 1e-12))
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  tracer counts one contract re-projection: "
          f"{figures['manifolds.reproject.calls']} of {figures['manifolds.contract.calls']}")
    restored = (originals == (ops.exp_map, rvikit.solvers.run, Sphere.exp, Point.__post_init__)
                and "field" not in vars(VectorFieldProblem))
    results.append(restored)
    print(f"{'PASS' if restored else 'FAIL'}  tracer restores the program on uninstall")


def benchmark_json_case() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    ok = (per_layer == layers.PER_LAYER
          and end_to_end == [("iters_per_s", "iter/s"), ("setup_s", "s"),
                             ("peak_rss_mb", "MB")]
          and sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS))
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  BENCHMARK.json names the printed metrics and workloads")


def main() -> int:
    out_dir = ROOT / ".rvibench_out" / f"selftest-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        flat_cases(out_dir)
        curved_cases(out_dir)
        inner_cases(out_dir)
        tracer_cases()
        benchmark_json_case()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-test cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
