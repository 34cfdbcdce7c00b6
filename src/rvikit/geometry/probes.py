"""Randomized validators for the comparison inequalities the solvers rely on.

Each check is one array program: vertex coordinates x, y, z (and, for the
holonomy bound, a tangent u at x) of shape ``(..., ambient)`` give a
:class:`ProbeReport` of ``(...)`` residuals (slack; negative means
violated), bounds and valid flags.  One vector per vertex gives Python
scalars, the same numbers as a batch row; the solver's per-step holonomy
probe is that case.  Derived tangents pass the batched Tangent contract.
A probe outside an inequality's precondition, where the kernels may refuse,
is tagged ``valid=False``, excluded from pass/fail judgments and not
evaluated: it reports residual and bound 0.  The holonomy bound is
evaluated on every probe.

:func:`sample_triangles` draws probes one at a time, each in one order: its
center, the steps to x, y and z, then the tangent at x.  :func:`run_sweep`
judges chunks of ``min(n_valid - valid, limit - probes)`` probes; each probe
adds at most one valid, so a sweep stops where a one-at-a-time loop stops:
after ``n_valid`` valid probes or ``limit = MAX_ATTEMPTS_FACTOR *
max(n_valid, 1)`` probes.

Residuals are judged against ``RESIDUAL_TOL = -1e-9``: roundoff may push a
true zero slightly negative, anything beyond that is a real violation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ..manifolds.base import (Manifold, _col, _larger, _pick, _scalar, checked_distances,
                              checked_points, checked_tangents)
from .constants import sigma, zeta

RESIDUAL_TOL = -1e-9
# a sweep gives up after this many probes per requested valid one
MAX_ATTEMPTS_FACTOR = 20

__all__ = [
    "RESIDUAL_TOL", "MAX_ATTEMPTS_FACTOR", "ProbeReport", "SweepSummary",
    "holonomy_defect", "cosine_law_lower_check", "cosine_law_upper_check",
    "hessian_comparison_check", "distance_comparison_check",
    "sample_triangles", "run_sweep", "write_sweep_csv", "CHECKS",
]


@dataclass(frozen=True)
class ProbeReport:
    """One inequality evaluated on sampled configurations: per-probe values,
    scalars for one probe and arrays for a batch."""

    check: str
    residual: float
    bound: float
    valid: bool
    details: dict = field(default_factory=dict)

    @property
    def violated(self):
        return self.valid & (self.residual < RESIDUAL_TOL)


def _k_m(m: Manifold) -> float:
    return max(abs(m.curvature_lo), abs(m.curvature_hi))


def _reach(curvature: float, scale: float) -> float:
    """``scale / sqrt(curvature)`` for a positive curvature; no limit otherwise."""
    return scale / math.sqrt(curvature) if curvature > 0.0 else math.inf


def _smaller(a, b):
    """Per-row ``min(a, b)``, with the builtin's tie behaviour."""
    return _pick(b < a, b, a)


def _rowwise(fn, *args):
    """``fn`` of Python floats, row by row: libm's acos, cos, tan and tanh (and
    zeta and sigma, built on them) differ from numpy's by an ulp on some inputs."""
    return _scalar(np.vectorize(fn, otypes=[float])(*args))


def _log(m: Manifold, x, y):
    return checked_tangents(m, x, m.log(x, y))


def _on_valid(valid, slacks, *rows):
    """``slacks(*rows)`` on the rows where ``valid`` holds, scattered back with
    0.0 on the others.  Indexing by a scalar mask makes one vector a batch of
    one row (or none), so both shapes take this path."""
    out = []
    for values in slacks(*(np.asarray(r)[valid] for r in rows)):
        full = np.zeros(np.shape(valid))
        full[valid] = values
        out.append(_scalar(full))
    return out


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def holonomy_defect(m: Manifold, x, y, z, u) -> ProbeReport:
    """Transport ``u``, a tangent at x, around the geodesic triangle x -> y -> z -> x.

    The loop defect is bounded by

        36 K_m ||u|| min{d(x,y)+d(y,z), d(x,z)+d(y,z)} d(y,z)

    whenever the min above is <= 1/sqrt(K_m) (no constraint in flat space).
    A ``u`` off the tangent space at x breaks the Tangent contract.
    """
    u = checked_tangents(m, x, u)
    d_xy, d_yz, d_xz = (checked_distances(m, a, b) for a, b in ((x, y), (y, z), (x, z)))
    w = u
    for a, b in ((x, y), (y, z), (z, x)):
        w = checked_tangents(m, b, m.transport(a, b, w))
    defect = m.norm(x, checked_tangents(m, x, w - u))
    k_m = _k_m(m)
    pathsum = _smaller(d_xy + d_yz, d_xz + d_yz)
    bound = 36.0 * k_m * m.norm(x, u) * pathsum * d_yz
    return ProbeReport("holonomy", residual=bound - defect, bound=bound,
                       valid=pathsum <= _reach(k_m, 1.0), details={"defect": defect})


def _cos_angle(cosang: float, flat: bool) -> float:
    # the cosine of the clipped angle, as the scalar formula computes it:
    # cos(acos(c)) is not always c to the bit
    return 1.0 if flat else math.cos(math.acos(min(1.0, max(-1.0, cosang))))


def _triangle(m: Manifold, x, y, z):
    """Sides a = d(y,z), b = d(x,y), c = d(x,z) and cos A, A the angle at x
    (0 when b or c vanishes)."""
    b, c, a = (checked_distances(m, p, q) for p, q in ((x, y), (x, z), (y, z)))
    flat = (b < 1e-14) | (c < 1e-14)
    cosang = m.inner(x, _log(m, x, y), _log(m, x, z)) / _pick(flat, 1.0, b * c)
    return a, b, c, _rowwise(_cos_angle, cosang, flat)


def cosine_law_lower_check(m: Manifold, x, y, z) -> ProbeReport:
    """Law of cosines under a curvature lower bound kappa.

    With side a opposite the vertex x, sides b = d(x,y), c = d(x,z) and
    A the angle at x:   a^2 <= zeta(kappa, c) b^2 + c^2 - 2 b c cos(A).
    Always applicable on uniquely-geodesic configurations.
    """
    a, b, c, cos_a = _triangle(m, x, y, z)
    rhs = _rowwise(zeta, m.curvature_lo, c) * b * b + c * c - 2.0 * b * c * cos_a
    return ProbeReport("cosine_law_lower", residual=rhs - a * a, bound=rhs,
                       valid=np.full(np.shape(rhs), True) if np.ndim(rhs) else True)


def cosine_law_upper_check(m: Manifold, x, y, z) -> ProbeReport:
    """Reverse law of cosines under a curvature upper bound K.

    a^2 >= sigma(K, b + min{a, c}) b^2 + c^2 - 2 b c cos(A),
    applicable while b + min{a,c} < pi/sqrt(K) (always, when K <= 0).
    """
    a, b, c, cos_a = _triangle(m, x, y, z)
    K = m.curvature_hi
    scale = b + _smaller(a, c)
    valid = scale < _reach(K, math.pi)
    # sigma is undefined past the conjugate scale: invalid rows take sigma(K, 0)
    rate = _rowwise(sigma, K, _pick(valid, scale, 0.0))
    rhs = rate * b * b + c * c - 2.0 * b * c * cos_a
    return ProbeReport("cosine_law_upper", residual=_pick(valid, a * a - rhs, 0.0),
                       bound=_pick(valid, rhs, 0.0), valid=valid)


def hessian_comparison_check(m: Manifold, x, y, z) -> ProbeReport:
    """Transported-logarithm comparison at scale tau = d(x,z) + min{d(x,y), d(y,z)}.

    Checks both
        ||log_x y - T log_z y||            <= zeta(kappa, tau) d(x,z)
        ||log_x y - T log_z y - log_x z||  <= max{zeta-1, 1-sigma}(tau) d(x,z)
    where T transports from z to x.  Reported residual is the lesser slack.
    """
    kappa, K = m.curvature_lo, m.curvature_hi
    d_xz = checked_distances(m, x, z)
    tau = d_xz + _smaller(checked_distances(m, x, y), checked_distances(m, z, y))
    valid = tau < _reach(K, math.pi)

    def slacks(x, y, z, tau, d_xz):
        log_xy = _log(m, x, y)
        moved = checked_tangents(m, x, m.transport(z, x, _log(m, z, y)))
        diff = checked_tangents(m, x, log_xy - moved)
        z_t, s_t = _rowwise(zeta, kappa, tau), _rowwise(sigma, K, tau)
        bound1 = z_t * d_xz
        bound2 = _larger(z_t - 1.0, 1.0 - s_t) * d_xz
        res1 = bound1 - m.norm(x, diff)
        res2 = bound2 - m.norm(x, checked_tangents(m, x, diff - _log(m, x, z)))
        return _smaller(res1, res2), _larger(bound1, bound2), res1, res2

    residual, bound, res1, res2 = _on_valid(valid, slacks, x, y, z, tau, d_xz)
    return ProbeReport("hessian_comparison", residual=residual, bound=bound, valid=valid,
                       details={"res_first_order": res1, "res_second_order": res2})


def distance_comparison_check(m: Manifold, x, y, z) -> ProbeReport:
    """Tangent-space doubling bound: d(x,y) <= 2 ||log_z x - log_z y||.

    Applicable when legs from z stay within 1/sqrt(-kappa) (kappa < 0) and
    all sides are below pi/sqrt(K) (K > 0).
    """
    d_zx, d_zy, d_xy = (checked_distances(m, p, q) for p, q in ((z, x), (z, y), (x, y)))
    legs = _larger(d_zx, d_zy)
    valid = ((legs <= _reach(-m.curvature_lo, 1.0))
             & (_larger(legs, d_xy) < _reach(m.curvature_hi, math.pi)))

    def slacks(x, y, z, d_xy):
        gap = m.norm(z, checked_tangents(m, z, _log(m, z, x) - _log(m, z, y)))
        return 2.0 * gap - d_xy, 2.0 * gap

    residual, bound = _on_valid(valid, slacks, x, y, z, d_xy)
    return ProbeReport("distance_comparison", residual=residual, bound=bound, valid=valid)


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


def sample_triangles(m: Manifold, rng: np.random.Generator, n: int,
                     leg: float | None = None):
    """``n`` probes (x, y, z, u) as four ``(n, ambient)`` arrays: three vertices
    within ``leg`` of a random center and a unit tangent u at x.

    Each probe draws its center, then the three steps to x, y and z (one
    ``ball_point`` call on three rows), then the tangent at x.  Points pass
    their contract as they are drawn, tangents before and after scaling.
    """
    if leg is None:
        leg = _default_leg(m)
    x, y, z, u = np.empty((4, n, m.ambient))
    for i in range(n):
        center = checked_points(m, m.random_point(rng))
        x[i], y[i], z[i] = checked_points(
            m, m.ball_point(rng, np.broadcast_to(center, (3, m.ambient)), leg))
        u[i] = m.random_tangent(rng, x[i], 1.0)
    u = checked_tangents(m, x, u)
    norm = _col(m.norm(x, u))
    scale = norm > 1e-12
    u = checked_tangents(m, x, np.where(scale, u * (1.0 / np.where(scale, norm, 1.0)), u))
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
              leg: float | None = None, collect_rows: list | None = None):
    """Run one check until ``n_valid`` applicable probes have been judged.

    Returns a :class:`SweepSummary`.  If ``collect_rows`` is a list, one
    CSV row dict per probe (including invalid ones) is appended to it.
    """
    fn = CHECKS[check]
    summary = SweepSummary(check=check, manifold=repr(m))
    limit = MAX_ATTEMPTS_FACTOR * max(n_valid, 1)
    while summary.valid < n_valid and summary.probes < limit:
        k = min(n_valid - summary.valid, limit - summary.probes)
        x, y, z, u = sample_triangles(m, rng, k, leg)
        report = fn(m, x, y, z, u) if check == "holonomy" else fn(m, x, y, z)
        residuals = report.residual[report.valid].tolist()
        # folded in probe order with the builtin, as a one-at-a-time loop would
        summary.worst_residual = min([summary.worst_residual] + residuals)
        summary.violations += int(np.count_nonzero(report.violated))
        if collect_rows is not None:
            collect_rows.extend(
                {"probe_id": summary.probes + i, "manifold": repr(m),
                 "residual": res if ok else "", "bound": bound if ok else "",
                 "valid_flag": int(ok)}
                for i, (ok, res, bound) in enumerate(zip(
                    report.valid.tolist(), report.residual.tolist(), report.bound.tolist())))
        summary.probes += k
        summary.valid += len(residuals)
    return summary


def csv_cell(value) -> str:
    """One CSV field: '' for None, the repr of a float (an ``np.float64``
    too, whose own repr names the type), else ``str``."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


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
            writer.writerow({k: csv_cell(row.get(k, "")) for k in fields})
