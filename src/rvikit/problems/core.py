"""Saddle objectives, vector-field problems, and assumption diagnostics.

A variational-inequality instance is a manifold plus an operator
``field: Point -> Tangent`` with a declared solution z* (where the field
vanishes), a region radius D, and bounds L (Lipschitz modulus under
parallel transport) and G (field norm) valid on the ball of radius 6D/5
around z*.  Saddle problems additionally carry the min-max objective the
field was derived from, which unlocks the duality-gap metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from ..exceptions import ConfigError, ContractViolation, require_count
from ..geometry.constants import GeometryBounds, derive_bounds
from ..manifolds import ops
from ..manifolds.base import (Manifold, Point, Tangent, checked_distances, checked_points,
                              checked_tangents)
from ..manifolds.product import Product

SOLUTION_TOL = 1e-8       # required ||field(solution)||
MONOTONE_TOL = -1e-8      # sampled monotonicity gaps below this count as violations


@dataclass(frozen=True)
class SaddleObjective:
    """A two-block min-max objective f(x, y): min over x, max over y.

    ``value`` takes the block :class:`Point` s.  ``grad_x``/``grad_y`` take
    the block coordinates, already checked and read-only, and return the
    coordinates of the block gradient, tangent at x/y; their caller checks
    the result once (the field as its :class:`Tangent`, the gap ascent with
    :func:`checked_tangents`).
    """

    manifold_x: Manifold
    manifold_y: Manifold
    value: Callable[[Point, Point], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]


def split_saddle(z: Point) -> tuple[Point, Point]:
    """Split a point on a two-part product manifold into (x, y)."""
    m = z.manifold
    if not isinstance(m, Product) or len(m.parts) != 2:
        raise ContractViolation("saddle points live on two-part product manifolds")
    cx, cy = m.split(z.coords)
    return Point(m.parts[0], cx), Point(m.parts[1], cy)


def saddle_to_field(obj: SaddleObjective, *, name: str = "saddle",
                    solution: tuple[Point, Point] | None = None,
                    region_radius: float = 1.0,
                    lipschitz: float | None = None,
                    grad_bound: float | None = None,
                    exact_gap=None, params: dict | None = None
                    ) -> "VectorFieldProblem":
    """Wrap a saddle objective as a variational-inequality problem.

    The field F(z) = (grad_x f, -grad_y f) lives on the product of the two
    block manifolds.  The block gradients read the views of the checked
    ``z``, so each value makes one contract decision, as one checked
    :class:`Tangent`.  ``solution`` is the block pair (x*, y*).
    """
    m = Product(obj.manifold_x, obj.manifold_y)

    def field(z: Point) -> Tangent:
        x, y = m.split(z.coords)
        return Tangent(z, m.join([obj.grad_x(x, y), -obj.grad_y(x, y)]))

    if solution is not None:
        solution = Point(m, m.join([p.coords for p in solution]))
    return VectorFieldProblem(
        name=name, manifold=m, field=field, solution=solution,
        region_radius=region_radius, lipschitz=lipschitz,
        grad_bound=grad_bound, objective=obj, exact_gap=exact_gap,
        params=dict(params or {}))


@dataclass(eq=False)
class VectorFieldProblem:
    """A variational-inequality instance with declared region bounds.

    ``field`` calls are counted in ``evals`` (handy for verifying the
    one-evaluation-per-iteration property of past-extragradient updates).
    """

    name: str
    manifold: Manifold
    field: Callable[[Point], Tangent]
    solution: Optional[Point]
    region_radius: float                     # D: bound on d(z0, z*)
    lipschitz: Optional[float] = None        # L on the (6D/5)-ball, if declared
    grad_bound: Optional[float] = None       # G on the (6D/5)-ball, if declared
    objective: Optional[SaddleObjective] = None
    exact_gap: Optional[Callable[[Point, float], float]] = None
    params: dict = dc_field(default_factory=dict)
    evals: int = 0

    def __post_init__(self):
        raw = self.field

        def counting_field(z: Point) -> Tangent:
            self.evals += 1
            return raw(z)

        self.field = counting_field
        if self.solution is not None:
            r = self.field(self.solution).norm()
            if r >= SOLUTION_TOL:
                raise ContractViolation(
                    f"{self.name}: declared solution has ||F|| = {r:.3e} "
                    f">= {SOLUTION_TOL:g}")

    # -- geometry plumbing ------------------------------------------------
    def bounds(self) -> GeometryBounds:
        """Assemble :class:`GeometryBounds` from the declared L and G.

        Certified step sizes need both constants, so a problem that does
        not declare ``lipschitz`` or ``grad_bound`` is a :class:`ConfigError`.
        """
        missing = [name for name in ("lipschitz", "grad_bound")
                   if getattr(self, name) is None]
        if missing:
            raise ConfigError(f"{self.name}: bounds need declared "
                              f"{' and '.join(missing)}")
        m = self.manifold
        return derive_bounds(m.curvature_lo, m.curvature_hi,
                             self.region_radius, self.lipschitz, self.grad_bound)


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled evidence for monotonicity/Lipschitz bounds on the region."""

    problem: str
    n_pairs: int
    radius: float
    min_monotone_inner: float
    violations: int
    lipschitz_estimate: float
    grad_norm_max: float


def check_assumptions(prob: VectorFieldProblem, n_pairs: int,
                      rng: np.random.Generator,
                      radius: float | None = None) -> AssumptionReport:
    """Sample point pairs near the solution and probe the two assumptions.

    For each pair (z, z') inside the ball of radius 6D/5 around z* the
    monotone product <T F(z') - F(z), log_z z'> is recorded (negative
    values below -1e-8 count as violations) together with the transported
    difference quotient, an empirical lower bound on the Lipschitz modulus.

    The pairs are judged as one batch: z_1, z'_1, z_2, z'_2, ... are drawn
    in that order (so the same pairs as one at a time), each is a checked
    :class:`Point` with one evaluation of ``prob.field``, and every derived
    tangent passes the batched :class:`Tangent` contract.
    """
    require_count("n_pairs", n_pairs)
    if prob.solution is None:
        raise ContractViolation("check_assumptions needs a declared solution")
    if radius is None:
        radius = 1.2 * prob.region_radius
    m = prob.manifold
    center = np.broadcast_to(prob.solution.coords, (2 * n_pairs, m.ambient))
    z, fz = np.empty(center.shape), np.empty(center.shape)
    for i, coords in enumerate(m.ball_point(rng, center, radius)):
        point = Point(m, coords)
        z[i], fz[i] = point.coords, prob.field(point).components
    grad_norms = m.norm(z, fz)

    z, zp, fz, fzp = z[0::2], z[1::2], fz[0::2], fz[1::2]
    d = checked_distances(m, z, zp)
    apart = d >= 1e-12
    z, zp, fz, fzp, d = z[apart], zp[apart], fz[apart], fzp[apart], d[apart]
    moved = checked_tangents(m, z, m.transport(zp, z, fzp))
    inners = m.inner(z, checked_tangents(m, z, moved - fz),
                     checked_tangents(m, z, m.log(z, zp)))
    quotients = m.norm(z, checked_tangents(m, z, fz - moved)) / d
    # folds in pair order, with the builtins, as a per-pair loop would make them
    min_inner = min([math.inf] + inners.tolist())
    return AssumptionReport(
        problem=prob.name, n_pairs=n_pairs, radius=radius,
        min_monotone_inner=(0.0 if math.isinf(min_inner) else min_inner),
        violations=int(np.count_nonzero(inners < MONOTONE_TOL)),
        lipschitz_estimate=max([0.0] + quotients.tolist()),
        grad_norm_max=max([0.0] + grad_norms.tolist()))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapEstimate:
    """Duality gap value plus convergence/domain flags for the inner solver."""

    value: float
    converged: bool
    in_domain: bool
    iterations: int


def _clamp_to_ball(m: Manifold, center: np.ndarray, z: np.ndarray,
                   radius: float) -> np.ndarray:
    w = checked_tangents(m, center, m.log(center, z))
    nw = m.norm(center, w)
    if nw <= radius:
        return z
    w = checked_tangents(m, center, w * (radius / nw))
    return checked_points(m, m.exp(center, w))


def _inner_opt(m: Manifold, value_grad, start: np.ndarray, center: np.ndarray,
               radius: float, step: float, max_steps: int, tol: float):
    """Projected Riemannian ascent of a block objective over a geodesic ball.

    Runs on coordinates: ``start`` and ``center`` are checked, and every new
    tangent and point passes :func:`checked_tangents` / :func:`checked_points`.
    """
    y = _clamp_to_ball(m, center, start, radius)
    converged = False
    k = 0
    for k in range(1, max_steps + 1):
        y.setflags(write=False)         # value_grad reads a checked block, as the field's
        g = checked_tangents(m, y, value_grad(y) * step)
        y_new = _clamp_to_ball(m, center, checked_points(m, m.exp(y, g)), radius)
        if checked_distances(m, y, y_new) < tol:
            y = y_new
            converged = True
            break
        y = y_new
    return y, converged, k


def duality_gap(obj: SaddleObjective, z: Point, center: Point, radius: float,
                lipschitz: float | None = None, max_steps: int = 10000,
                tol: float = 1e-6) -> GapEstimate:
    """max_{y' in B(y*, r)} f(x, y')  -  min_{x' in B(x*, r)} f(x', y).

    Solved with projected Riemannian gradient ascent/descent (step
    1/(10 L), geodesic-ball projection by radial clamping).  ``center``
    is the saddle point (x*, y*) on the product manifold; ``z`` outside
    the ball domain is still evaluated but flagged ``in_domain=False``.
    """
    x, y = split_saddle(z)
    cx, cy = split_saddle(center)
    if lipschitz is None:
        lipschitz = 1.0
    step = 1.0 / (10.0 * lipschitz)
    in_domain = (ops.distance(x, cx) <= radius + 1e-12
                 and ops.distance(y, cy) <= radius + 1e-12)

    mx, my = x.manifold, y.manifold
    y_best, conv_y, it_y = _inner_opt(
        my, lambda yy: obj.grad_y(x.coords, yy), y.coords, cy.coords,
        radius, step, max_steps, tol)
    x_best, conv_x, it_x = _inner_opt(
        mx, lambda xx: -obj.grad_x(xx, y.coords), x.coords, cx.coords,
        radius, step, max_steps, tol)

    gap = obj.value(x, Point(my, y_best)) - obj.value(Point(mx, x_best), y)
    return GapEstimate(value=float(gap), converged=conv_y and conv_x,
                       in_domain=in_domain, iterations=max(it_y, it_x))
