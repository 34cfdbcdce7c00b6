"""Correctness checks on the program's outputs.

Every check takes plain data (numpy arrays, floats, dicts parsed from the
program's files) and returns a list of error strings, empty when the
output passes.  They compare against computations made here, apart from
the program, or against properties the methods must have:

* flat problems: a plain-numpy extragradient / past-extragradient
  recursion from the same start point must reproduce every CSV row;
* ``decoupled_saddle``: ||F(z)|| = d(z, z*), so ``op_norm`` must equal
  ``dist`` on every row (the two come from the field plus the metric and
  from the distance function respectively);
* problems with an inner gap solver: every gap is non-negative, is no
  smaller than a lower bound sampled from points of the two balls, and the
  averaged gap falls between the first and the last record;
* REG: ||F|| never increases along the recorded rows;
* RPEG: ||F(z_T)||^2 <= 16 D^2 / (sigma_bar T eta^2).

``selftest.py`` feeds each check a perturbed output and confirms it fails.
"""

from __future__ import annotations

import csv
import math

import numpy as np

REL_TOL = 1e-9        # agreement of two computations of one quantity
ABS_TOL = 1e-12
MONOTONE_TOL = 1e-9   # per recorded row; the solver's own tolerance is 1e-10 per step
GAP_LB_TOL = 1e-9


def _close(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= REL_TOL * np.abs(b) + ABS_TOL


# ---------------------------------------------------------------------------
# flat extragradient reference
# ---------------------------------------------------------------------------

def bilinear_spectrum(dim: int, s_min: float, s_max: float) -> np.ndarray:
    """Coupling matrix of ``euclidean_bilinear``: diagonal, log-spaced values."""
    return np.diag(np.logspace(math.log10(s_min), math.log10(s_max), dim))


def flat_start(seed: int, dim: int, radius: float) -> np.ndarray:
    """The solver's initial draw on R^dim x R^dim around the origin.

    A standard normal direction from ``default_rng(seed)``, scaled to
    ``radius`` (the solver draws a tangent-ball sample and rescales it to
    the full radius, which keeps only the direction).
    """
    g = np.random.default_rng(seed).standard_normal(2 * dim)
    return g * (radius / np.linalg.norm(g))


def flat_recursion(A: np.ndarray, method: str, eta: float, z0: np.ndarray,
                   T: int, record_every: int, gap_radius: float) -> dict:
    """Extragradient (REG) or past extragradient (RPEG) for f = x^T A y.

    Returns the recorded columns t, dist, op_norm, gap_last and gap_avg,
    where gap_avg is taken at the running mean of the half iterates.
    """
    n = A.shape[0]

    def field(z):
        return np.concatenate([A @ z[n:], -(A.T @ z[:n])])

    def gap(z):
        return gap_radius * (np.linalg.norm(A.T @ z[:n]) + np.linalg.norm(A @ z[n:]))

    z = z0.copy()
    f_prev_half = field(z)
    mean = None
    rows = {k: [] for k in ("t", "dist", "op_norm", "gap_last", "gap_avg")}
    for t in range(1, T + 1):
        lead = field(z) if method == "REG" else f_prev_half
        half = z - eta * lead
        f_half = field(half)
        z = z - eta * f_half
        f_prev_half = f_half
        mean = half.copy() if mean is None else mean + (half - mean) / t
        if t % record_every == 0 or t == T:
            rows["t"].append(t)
            rows["dist"].append(np.linalg.norm(z))
            rows["op_norm"].append(np.linalg.norm(field(z)))
            rows["gap_last"].append(gap(z))
            rows["gap_avg"].append(gap(mean))
    return {k: np.asarray(v, dtype=float) for k, v in rows.items()}


def read_trace_csv(path) -> dict:
    """CSV columns as float arrays; blank cells become nan."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return {}
    return {k: np.array([float(r[k]) if r[k] else math.nan for r in rows])
            for k in rows[0]}


def check_rows_match(got: dict, want: dict) -> list[str]:
    """Every recorded column equals the reference recursion's."""
    errors = []
    if got.get("t") is None or not np.array_equal(got["t"], want["t"]):
        return [f"recorded iterations differ from the reference's "
                f"({0 if got.get('t') is None else len(got['t'])} vs {len(want['t'])} rows)"]
    for col in ("dist", "op_norm", "gap_last", "gap_avg"):
        bad = ~_close(got[col], want[col])
        if bad.any():
            i = int(np.argmax(bad))
            errors.append(f"{col} at t={int(want['t'][i])}: {got[col][i]!r} "
                          f"vs reference {want[col][i]!r}")
    return errors


def check_summary_run(key: str, run: dict, eta: float) -> list[str]:
    """One run's summary entry: no abort, no violation, the certified step size."""
    errors = []
    if run["aborted"]:
        errors.append(f"{key} aborted: {run.get('abort_reason')}")
    if run["total_violations"]:
        errors.append(f"{key} counted {run['total_violations']} violations")
    if not _close(run["eta"], eta):
        errors.append(f"{key} step size {run['eta']!r}, expected {eta!r}")
    return errors


# ---------------------------------------------------------------------------
# solver properties
# ---------------------------------------------------------------------------

def check_clean_run(aborted: bool, violations: dict) -> list[str]:
    errors = []
    if aborted:
        errors.append("run aborted")
    bad = {k: v for k, v in violations.items() if v}
    if bad:
        errors.append(f"guarantee violations {bad}")
    return errors


def check_norm_equals_dist(op_norm, dist) -> list[str]:
    """||F(z)|| = d(z, z*) for the decoupled saddle's field."""
    bad = ~_close(op_norm, dist)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"row {i}: op_norm {op_norm[i]!r} != dist {dist[i]!r}"]
    return []


def check_norm_monotone(op_norm) -> list[str]:
    """Extragradient's last iterate: ||F|| is non-increasing."""
    rise = np.diff(np.asarray(op_norm, dtype=float))
    if rise.size and rise.max() > MONOTONE_TOL:
        i = int(np.argmax(rise))
        return [f"op_norm rose by {rise[i]:.3e} after row {i}"]
    return []


def check_final_bound(op_norm_last: float, rhs: float | None) -> list[str]:
    """Past extragradient: ||F(z_T)||^2 <= 16 D^2 / (sigma_bar T eta^2)."""
    if rhs is None or not math.isfinite(rhs):
        return ["no terminal bound available"]
    if not op_norm_last ** 2 <= rhs:
        return [f"||F(z_T)||^2 = {op_norm_last ** 2:.6g} exceeds the bound {rhs:.6g}"]
    return []


def rpeg_bound(D: float, sigma_bar: float, T: int, eta: float) -> float:
    return 16.0 * D ** 2 / (sigma_bar * T * eta ** 2)


# ---------------------------------------------------------------------------
# duality gaps
# ---------------------------------------------------------------------------

def sphere_ball(rng, center: np.ndarray, radius: float, n: int) -> list[np.ndarray]:
    """Points of the geodesic ball on the unit sphere, via exp of tangent samples."""
    d = center.size - 1
    out = []
    while len(out) < n:
        g = rng.standard_normal(center.size)
        v = g - np.dot(center, g) * center
        nv = np.linalg.norm(v)
        if nv < 1e-6:          # direction nearly along the centre: redraw
            continue
        r = radius * rng.uniform() ** (1.0 / d)
        out.append(math.cos(r) * center + math.sin(r) * (v / nv))
    return out


def _lorentz(u, v) -> float:
    return float(np.dot(u[1:], v[1:]) - u[0] * v[0])


def hyperboloid_ball(rng, center: np.ndarray, radius: float, n: int) -> list[np.ndarray]:
    """Points of the geodesic ball on the hyperboloid model of H^d."""
    d = center.size - 1
    out = []
    while len(out) < n:
        g = rng.standard_normal(center.size)
        v = g + _lorentz(g, center) * center
        nv = math.sqrt(max(_lorentz(v, v), 0.0))
        if nv < 1e-6:
            continue
        r = radius * rng.uniform() ** (1.0 / d)
        out.append(math.cosh(r) * center + math.sinh(r) * (v / nv))
    return out


def gap_lower_bound(value, x, y, xs, ys) -> float:
    """max_s f(x, y_s) - min_s f(x_s, y) <= the gap over balls holding the samples."""
    return max(value(x, ys_) for ys_ in ys) - min(value(xs_, y) for xs_ in xs)


def check_gaps(gap_last, gap_avg, lower_bounds: dict) -> list[str]:
    """Gaps non-negative, above the sampled bounds, and the averaged gap falling.

    ``lower_bounds`` maps a column name to the sampled bound for its last row.
    """
    errors = []
    for name, col in (("gap_last", gap_last), ("gap_avg", gap_avg)):
        col = np.asarray(col, dtype=float)
        if col.size == 0 or not np.all(np.isfinite(col)):
            errors.append(f"{name} missing or not finite")
            continue
        if col.min() < 0.0:
            errors.append(f"{name} negative: {col.min()!r}")
        lb = lower_bounds[name]
        if col[-1] < lb - GAP_LB_TOL:
            errors.append(f"{name} at T = {col[-1]!r} below the sampled bound {lb!r}")
    avg = np.asarray(gap_avg, dtype=float)
    if avg.size < 2 or not avg[-1] < avg[0]:
        errors.append(f"gap_avg did not fall from the first record to T: {avg.tolist()}")
    return errors
