"""Typed geometry operations with base-point bookkeeping.

These are thin wrappers over the array-level :class:`Manifold` kernels;
they exist so that mixing tangents from different base points (or points
from different manifolds) fails loudly instead of silently producing
garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import AveragingError, ContractViolation
from .base import Manifold, Point, Tangent


def _require_point(p: Point) -> None:
    if not isinstance(p, Point):
        raise ContractViolation(f"expected a Point, got {type(p).__name__}")


def _require_same_manifold(p: Point, q: Point) -> None:
    if p.manifold != q.manifold:
        raise ContractViolation(
            f"points live on different manifolds: {p.manifold!r} vs {q.manifold!r}")


def exp_map(p: Point, v: Tangent) -> Point:
    """Geodesic step: exp_p(v).  The tangent must be based at ``p``."""
    if not v.base.same_base(p):
        raise ContractViolation("exp_map: tangent is not based at the given point")
    m = p.manifold
    return Point(m, m.exp(p.coords, v.components))


def log_map(p: Point, q: Point) -> Tangent:
    """Inverse exponential: the tangent at ``p`` pointing to ``q``."""
    _require_same_manifold(p, q)
    m = p.manifold
    return Tangent(p, m.log(p.coords, q.coords))


def transport(p: Point, q: Point, u: Tangent) -> Tangent:
    """Parallel transport of ``u`` (based at ``p``) along the geodesic to ``q``."""
    _require_same_manifold(p, q)
    if not u.base.same_base(p):
        raise ContractViolation("transport: tangent is not based at the source point")
    m = p.manifold
    return Tangent(q, m.transport(p.coords, q.coords, u.components))


def inner(u: Tangent, v: Tangent) -> float:
    """Riemannian inner product of two tangents sharing a base."""
    if not u.base.same_base(v.base):
        raise ContractViolation("inner: tangents have different bases")
    m = u.manifold
    return m.inner(u.base.coords, u.components, v.components)


def distance(p: Point, q: Point) -> float:
    """Geodesic distance; one that overflows breaks the finite-numbers contract."""
    _require_same_manifold(p, q)
    with np.errstate(over="ignore"):
        d = p.manifold.dist(p.coords, q.coords)
    if not math.isfinite(d):
        raise ContractViolation("distance overflows: it must be finite")
    return d


def zero_tangent(p: Point) -> Tangent:
    return Tangent(p, np.zeros(p.manifold.ambient))


def random_point(m: Manifold, rng: np.random.Generator) -> Point:
    return Point(m, m.random_point(rng))


def random_tangent(p: Point, rng: np.random.Generator, radius: float) -> Tangent:
    return Tangent(p, p.manifold.random_tangent(rng, p.coords, radius))


def ball_point(center: Point, rng: np.random.Generator, radius: float) -> Point:
    """exp of a uniform tangent-ball sample around ``center``."""
    return exp_map(center, random_tangent(center, rng, radius))


# ---------------------------------------------------------------------------
# running geodesic average
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicAverage:
    """State of the running (inductive) geodesic mean.

    After k updates the mean is  m_k = exp_{m_{k-1}}( log_{m_{k-1}}(z_k) / k ),
    which in flat space reduces to the arithmetic running mean.
    """

    mean: Point | None = None
    count: int = 0


def geodesic_average_update(state: GeodesicAverage, z: Point) -> GeodesicAverage:
    """Fold one more point into the running geodesic average."""
    _require_point(z)
    if state.count == 0 or state.mean is None:
        return GeodesicAverage(mean=z, count=1)
    _require_same_manifold(state.mean, z)
    k = state.count + 1
    try:
        step = log_map(state.mean, z)
    except Exception as err:  # antipodal or otherwise undefined update
        raise AveragingError(f"geodesic average update undefined: {err}") from err
    new_mean = exp_map(state.mean, step * (1.0 / k))
    return GeodesicAverage(mean=new_mean, count=k)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def point_to_list(p: Point) -> list[float]:
    """JSON-friendly coordinates (matrices already row-major flattened)."""
    return [float(c) for c in p.coords]


def point_from_list(m: Manifold, values) -> Point:
    return Point(m, np.asarray(values, dtype=float))
