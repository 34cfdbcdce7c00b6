"""Per-layer metrics: traced spans and counters reduced to named figures.

Counts (``.calls``, ``.pairs``, ``.inner_iters``, ``.bytes``) and self
times (``.self_s``, reference-normalised) are per round, the mean over
the traced rounds of a run; every round runs the same operations on the
same inputs, so counts repeat exactly.  ``problems.build.*`` and
``problems.certify.pairs`` add the set-up phase to one round: the
construction a user pays to get one round's results.  A ratio whose
base is zero reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

# (metric name, unit) in the order they are reported; BENCHMARK.json
# lists the same names with their better direction.
PER_LAYER = [
    ("manifolds.contract.calls", "count"),
    ("manifolds.contract.self_s", "s"),
    ("manifolds.reproject.calls", "count"),
    *[(f"manifolds.{op}.{kind}", unit)
      for op in ("exp_map", "log_map", "transport", "distance")
      for kind, unit in (("calls", "count"), ("self_s", "s"))],
    *[(f"manifolds.kernel.{kind}.self_s", "s")
      for kind in ("euclidean", "sphere", "hyperboloid", "spd", "product")],
    ("problems.field.calls", "count"),
    ("problems.field.self_s", "s"),
    ("problems.field.per_iter", "calls/iter"),
    ("problems.gap.calls", "count"),
    ("problems.gap.self_s", "s"),
    ("problems.gap.inner_iters", "count"),
    ("problems.gap.converged_ratio", "ratio"),
    ("problems.build.self_s", "s"),
    ("problems.build.total_s", "s"),
    ("problems.certify.pairs", "count"),
    ("geometry.holonomy.calls", "count"),
    ("geometry.holonomy.self_s", "s"),
    ("geometry.holonomy.valid_ratio", "ratio"),
    ("solvers.step.calls", "count"),
    ("solvers.step.self_s", "s"),
    ("solvers.driver.self_s", "s"),
    ("solvers.average.self_s", "s"),
    ("harness.cell.calls", "count"),
    ("harness.cell.self_s", "s"),
    ("harness.csv.bytes", "B"),
    ("harness.csv.self_s", "s"),
    ("harness.rate_fit.self_s", "s"),
    ("harness.cell_concurrency", "ratio"),
    ("trace.overhead", "ratio"),
]
BUILD = ("problems.build.self_s", "problems.build.total_s", "problems.certify.pairs")

_SPANNED = ("manifolds.contract", "manifolds.exp_map", "manifolds.log_map",
            "manifolds.transport", "manifolds.distance", "problems.field",
            "problems.gap", "problems.build", "geometry.holonomy", "solvers.step",
            "solvers.driver", "solvers.average", "harness.cell", "harness.csv",
            "harness.rate_fit")
_KERNELS = ("euclidean", "sphere", "hyperboloid", "spd", "product")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reduce(spans, labels: list[str], counters, factor: float, iters: int) -> dict:
    """Every per-layer figure (except trace.overhead) of one batch of spans."""
    out = {}
    for prefix in _SPANNED:
        mask = spans.select(labels, prefix)
        out[f"{prefix}.calls"] = int(mask.sum())
        out[f"{prefix}.self_s"] = float(spans.self_s[mask].sum()) * factor
    for kind in _KERNELS:
        mask = spans.select(labels, f"manifolds.kernel.{kind}")
        out[f"manifolds.kernel.{kind}.self_s"] = float(spans.self_s[mask].sum()) * factor

    contract = labels.index("manifolds.contract") if "manifolds.contract" in labels else -2
    reproject = [i for i, name in enumerate(labels) if name.startswith("manifolds.kernel.")
                 and name.rsplit(".", 1)[1] in ("project", "project_tangent")]
    out["manifolds.reproject.calls"] = int(
        (np.isin(spans.label, reproject) & (spans.parent_label == contract)).sum())

    build = spans.select(labels, "problems.build")
    out["problems.build.total_s"] = float(spans.dur[build].sum()) * factor
    out["problems.certify.pairs"] = int(counters["problems.certify.pairs"])
    out["problems.field.per_iter"] = _ratio(out["problems.field.calls"], iters)
    out["problems.gap.inner_iters"] = int(counters["problems.gap.inner_iters"])
    out["problems.gap.converged_ratio"] = _ratio(counters["problems.gap.converged"],
                                                 out["problems.gap.calls"])
    out["geometry.holonomy.valid_ratio"] = _ratio(counters["geometry.holonomy.valid"],
                                                  out["geometry.holonomy.calls"])
    out["harness.csv.bytes"] = int(counters["harness.csv.bytes"])
    cells = spans.dur[spans.select(labels, "harness.cell")].sum()
    grid = spans.dur[spans.select(labels, "harness.grid")].sum()
    out["harness.cell_concurrency"] = _ratio(float(cells), float(grid))
    return out


def per_layer(traced: list[dict], setup: dict, overhead: float) -> dict:
    """Mean over traced rounds, build figures plus set-up, as (value, unit)."""
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead":
            value = overhead
        else:
            value = statistics.fmean(r[name] for r in traced)
            if name in BUILD:
                value += setup[name]
        out[name] = (value, unit)
    return out


def write_spans(path, labels: list[str], batches: dict) -> None:
    """Save span batches (name -> Spans) with the label table, compressed."""
    arrays = {"labels": np.array(labels)}
    for name, spans in batches.items():
        if spans is None:
            continue
        for col in ("sid", "label", "parent", "t0", "t1"):
            arrays[f"{name}_{col}"] = getattr(spans, col)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
