"""Randomized validators for the comparison inequalities the solvers rely on.

Each check takes concrete points sampled on a manifold, evaluates both
sides of one inequality with the geometry kernel, and reports the residual
(slack; negative means violated).  Probes sampled outside an inequality's
precondition are tagged ``valid=False`` and excluded from pass/fail
judgments rather than asserted on.

Residuals are judged against ``RESIDUAL_TOL = -1e-9``: roundoff may push a
true zero slightly negative, anything beyond that is a real violation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ..manifolds.base import Manifold, Point, Tangent
from ..manifolds import ops
from .constants import sigma, zeta

RESIDUAL_TOL = -1e-9

__all__ = [
    "RESIDUAL_TOL", "ProbeReport", "SweepSummary",
    "holonomy_defect", "cosine_law_lower_check", "cosine_law_upper_check",
    "hessian_comparison_check", "distance_comparison_check",
    "sample_triangle", "run_sweep", "write_sweep_csv", "CHECKS",
]


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one inequality evaluated on one sampled configuration."""

    check: str
    residual: float
    bound: float
    valid: bool
    details: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return self.valid and self.residual < RESIDUAL_TOL


def _k_m(m: Manifold) -> float:
    return max(abs(m.curvature_lo), abs(m.curvature_hi))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def holonomy_defect(x: Point, y: Point, z: Point, u: Tangent) -> ProbeReport:
    """Transport ``u`` around the geodesic triangle x -> y -> z -> x.

    The loop defect is bounded by

        36 K_m ||u|| min{d(x,y)+d(y,z), d(x,z)+d(y,z)} d(y,z)

    whenever the min above is <= 1/sqrt(K_m) (no constraint in flat space).
    """
    if not u.base.same_base(x):
        from ..exceptions import ContractViolation

        raise ContractViolation("holonomy probe tangent must be based at x")
    d_xy = ops.distance(x, y)
    d_yz = ops.distance(y, z)
    d_xz = ops.distance(x, z)
    w = ops.transport(z, x, ops.transport(y, z, ops.transport(x, y, u)))
    defect = (w - u).norm()
    k_m = _k_m(x.manifold)
    pathsum = min(d_xy + d_yz, d_xz + d_yz)
    bound = 36.0 * k_m * u.norm() * pathsum * d_yz
    valid = (k_m == 0.0) or (pathsum <= 1.0 / math.sqrt(k_m))
    return ProbeReport("holonomy", residual=bound - defect, bound=bound,
                       valid=valid, details={"defect": defect,
                                             "sides": (d_xy, d_yz, d_xz)})


def _triangle_data(x: Point, y: Point, z: Point):
    """Side lengths and the angle at vertex x of the geodesic triangle."""
    b = ops.distance(x, y)
    c = ops.distance(x, z)
    a = ops.distance(y, z)
    vy = ops.log_map(x, y)
    vz = ops.log_map(x, z)
    if b < 1e-14 or c < 1e-14:
        angle = 0.0
    else:
        cosang = ops.inner(vy, vz) / (b * c)
        angle = math.acos(min(1.0, max(-1.0, cosang)))
    return a, b, c, angle


def cosine_law_lower_check(x: Point, y: Point, z: Point) -> ProbeReport:
    """Law of cosines under a curvature lower bound kappa.

    With side a opposite the vertex x, sides b = d(x,y), c = d(x,z) and
    A the angle at x:   a^2 <= zeta(kappa, c) b^2 + c^2 - 2 b c cos(A).
    Always applicable on uniquely-geodesic configurations.
    """
    a, b, c, angle = _triangle_data(x, y, z)
    kappa = x.manifold.curvature_lo
    rhs = zeta(kappa, c) * b * b + c * c - 2.0 * b * c * math.cos(angle)
    return ProbeReport("cosine_law_lower", residual=rhs - a * a, bound=rhs,
                       valid=True, details={"sides": (a, b, c), "angle": angle})


def cosine_law_upper_check(x: Point, y: Point, z: Point) -> ProbeReport:
    """Reverse law of cosines under a curvature upper bound K.

    a^2 >= sigma(K, b + min{a, c}) b^2 + c^2 - 2 b c cos(A),
    applicable while b + min{a,c} < pi/sqrt(K) (always, when K <= 0).
    """
    a, b, c, angle = _triangle_data(x, y, z)
    K = x.manifold.curvature_hi
    scale = b + min(a, c)
    valid = (K <= 0.0) or (scale < math.pi / math.sqrt(K))
    if not valid:
        return ProbeReport("cosine_law_upper", residual=0.0, bound=0.0,
                           valid=False, details={"sides": (a, b, c)})
    rhs = sigma(K, scale) * b * b + c * c - 2.0 * b * c * math.cos(angle)
    return ProbeReport("cosine_law_upper", residual=a * a - rhs, bound=rhs,
                       valid=True, details={"sides": (a, b, c), "angle": angle})


def hessian_comparison_check(x: Point, y: Point, z: Point) -> ProbeReport:
    """Transported-logarithm comparison at scale tau = d(x,z) + min{d(x,y), d(y,z)}.

    Checks both
        ||log_x y - T log_z y||            <= zeta(kappa, tau) d(x,z)
        ||log_x y - T log_z y - log_x z||  <= max{zeta-1, 1-sigma}(tau) d(x,z)
    where T transports from z to x.  Reported residual is the lesser slack.
    """
    d_xz = ops.distance(x, z)
    d_xy = ops.distance(x, y)
    d_zy = ops.distance(z, y)
    tau = d_xz + min(d_xy, d_zy)
    K = x.manifold.curvature_hi
    kappa = x.manifold.curvature_lo
    valid = (K <= 0.0) or (tau < math.pi / math.sqrt(K))
    if not valid:
        return ProbeReport("hessian_comparison", residual=0.0, bound=0.0,
                           valid=False)
    diff = ops.log_map(x, y) - ops.transport(z, x, ops.log_map(z, y))
    z_t, s_t = zeta(kappa, tau), sigma(K, tau)
    bound1 = z_t * d_xz
    res1 = bound1 - diff.norm()
    bound2 = max(z_t - 1.0, 1.0 - s_t) * d_xz
    res2 = bound2 - (diff - ops.log_map(x, z)).norm()
    return ProbeReport("hessian_comparison", residual=min(res1, res2),
                       bound=max(bound1, bound2), valid=True,
                       details={"res_first_order": res1, "res_second_order": res2,
                                "tau": tau})


def distance_comparison_check(x: Point, y: Point, z: Point) -> ProbeReport:
    """Tangent-space doubling bound: d(x,y) <= 2 ||log_z x - log_z y||.

    Applicable when legs from z stay within 1/sqrt(-kappa) (kappa < 0) and
    all sides are below pi/sqrt(K) (K > 0).
    """
    kappa = x.manifold.curvature_lo
    K = x.manifold.curvature_hi
    d_zx = ops.distance(z, x)
    d_zy = ops.distance(z, y)
    d_xy = ops.distance(x, y)
    valid = True
    if kappa < 0.0 and max(d_zx, d_zy) > 1.0 / math.sqrt(-kappa):
        valid = False
    if K > 0.0 and max(d_zx, d_zy, d_xy) >= math.pi / math.sqrt(K):
        valid = False
    if not valid:
        return ProbeReport("distance_comparison", residual=0.0, bound=0.0,
                           valid=False)
    gap = (ops.log_map(z, x) - ops.log_map(z, y)).norm()
    return ProbeReport("distance_comparison", residual=2.0 * gap - d_xy,
                       bound=2.0 * gap, valid=True,
                       details={"sides": (d_zx, d_zy, d_xy)})


CHECKS = {
    "holonomy": holonomy_defect,
    "cosine_law_lower": cosine_law_lower_check,
    "cosine_law_upper": cosine_law_upper_check,
    "hessian_comparison": hessian_comparison_check,
    "distance_comparison": distance_comparison_check,
}


# ---------------------------------------------------------------------------
# sampling and sweeps
# ---------------------------------------------------------------------------

def _default_leg(m: Manifold) -> float:
    """A sampling radius that keeps triangles inside every precondition.

    Vertices are sampled within ``leg`` of a common center, so pairwise
    distances stay below 2*leg and two-side sums below 4*leg; we keep
    4*leg <= 1/sqrt(K_m) with a floor/cap so flat manifolds still get
    reasonably sized triangles.
    """
    k_m = _k_m(m)
    if k_m == 0.0:
        return 0.5
    return min(0.5, 0.22 / math.sqrt(k_m))


def sample_triangle(m: Manifold, rng: np.random.Generator, leg: float | None = None,
                    center: Point | None = None):
    """(x, y, z, u): three vertices near a common center plus a unit tangent at x."""
    if leg is None:
        leg = _default_leg(m)
    if center is None:
        center = ops.random_point(m, rng)
    pts = [ops.ball_point(center, rng, leg) for _ in range(3)]
    x, y, z = pts
    u = ops.random_tangent(x, rng, 1.0)
    nu = u.norm()
    if nu > 1e-12:
        u = u * (1.0 / nu)
    return x, y, z, u


@dataclass
class SweepSummary:
    """Counts and extremes from one validator sweep."""

    check: str
    manifold: str
    probes: int = 0
    valid: int = 0
    violations: int = 0
    worst_residual: float = math.inf

    def to_dict(self) -> dict:
        return {
            "check": self.check, "manifold": self.manifold,
            "probes": self.probes, "valid": self.valid,
            "violations": self.violations,
            "worst_residual": (None if math.isinf(self.worst_residual)
                               else self.worst_residual),
        }


def run_sweep(m: Manifold, check: str, n_valid: int, rng: np.random.Generator,
              leg: float | None = None, collect_rows: list | None = None,
              max_attempts_factor: int = 20):
    """Run one check until ``n_valid`` applicable probes have been judged.

    Returns a :class:`SweepSummary`.  If ``collect_rows`` is a list, one
    CSV row dict per probe (including invalid ones) is appended to it.
    """
    fn = CHECKS[check]
    summary = SweepSummary(check=check, manifold=repr(m))
    attempts = 0
    limit = max_attempts_factor * max(n_valid, 1)
    while summary.valid < n_valid and attempts < limit:
        attempts += 1
        x, y, z, u = sample_triangle(m, rng, leg=leg)
        report = fn(x, y, z, u) if check == "holonomy" else fn(x, y, z)
        summary.probes += 1
        if report.valid:
            summary.valid += 1
            summary.worst_residual = min(summary.worst_residual, report.residual)
            if report.violated:
                summary.violations += 1
        if collect_rows is not None:
            collect_rows.append({
                "probe_id": summary.probes - 1,
                "manifold": repr(m),
                "residual": report.residual if report.valid else "",
                "bound": report.bound if report.valid else "",
                "valid_flag": int(report.valid),
            })
    return summary


def write_sweep_csv(path, rows) -> None:
    """Write probe rows with the fixed residual-report column set.

    One file holds the probes of a single check; rows from several
    manifolds may share it (the ``manifold`` column disambiguates).
    """
    fields = ["probe_id", "manifold", "residual", "bound", "valid_flag"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k, "")) for k in fields})


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
