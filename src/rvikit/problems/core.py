"""Saddle objectives, vector-field problems, and assumption diagnostics.

A variational-inequality instance is a manifold plus an operator
``field: Point -> Tangent`` with a declared solution z* (where the field
vanishes), a region radius D, and bounds L (Lipschitz modulus under
parallel transport) and G (field norm) valid on the ball of radius 6D/5
around z*.  Saddle problems additionally carry the min-max objective the
field was derived from, which unlocks Hamiltonian and duality-gap metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from ..exceptions import ConfigError, ContractViolation
from ..geometry.constants import GeometryBounds, derive_bounds
from ..manifolds import ops
from ..manifolds.base import Manifold, Point, Tangent
from ..manifolds.product import Product

SOLUTION_TOL = 1e-8       # required ||field(solution)||
MONOTONE_TOL = -1e-8      # sampled monotonicity gaps below this count as violations


@dataclass(frozen=True)
class SaddleObjective:
    """A two-block min-max objective f(x, y): min over x, max over y."""

    manifold_x: Manifold
    manifold_y: Manifold
    value: Callable[[Point, Point], float]
    grad_x: Callable[[Point, Point], Tangent]
    grad_y: Callable[[Point, Point], Tangent]


def split_saddle(z: Point) -> tuple[Point, Point]:
    """Split a point on a two-part product manifold into (x, y)."""
    m = z.manifold
    if not isinstance(m, Product) or len(m.parts) != 2:
        raise ContractViolation("saddle points live on two-part product manifolds")
    cx, cy = m.split(z.coords)
    return Point(m.parts[0], cx), Point(m.parts[1], cy)


def join_saddle(m: Product, x: Point, y: Point) -> Point:
    return Point(m, m.join([x.coords, y.coords]))


def product_field(obj: SaddleObjective):
    """Build the raw operator F(z) = (grad_x f, -grad_y f).

    Returns ``(manifold, field)`` where the manifold is the two-part
    product of the objective's blocks.
    """
    m = Product(obj.manifold_x, obj.manifold_y)

    def field(z: Point) -> Tangent:
        x, y = split_saddle(z)
        gx = obj.grad_x(x, y)
        gy = obj.grad_y(x, y)
        return Tangent(z, m.join([gx.components, -gy.components]))

    return m, field


def saddle_to_field(obj: SaddleObjective, *, name: str = "saddle",
                    solution: Point | None = None, region_radius: float = 1.0,
                    lipschitz: float | None = None,
                    grad_bound: float | None = None,
                    exact_gap=None, params: dict | None = None
                    ) -> "VectorFieldProblem":
    """Wrap a saddle objective as a variational-inequality problem.

    The induced field's x-component is grad_x f and its y-component is the
    negation of grad_y f, on the product of the two block manifolds.
    """
    m, field = product_field(obj)
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

    def to_dict(self) -> dict:
        return {
            "problem": self.problem, "n_pairs": self.n_pairs,
            "radius": self.radius,
            "min_monotone_inner": self.min_monotone_inner,
            "violations": self.violations,
            "lipschitz_estimate": self.lipschitz_estimate,
            "grad_norm_max": self.grad_norm_max,
        }


def check_assumptions(prob: VectorFieldProblem, n_pairs: int,
                      rng: np.random.Generator,
                      radius: float | None = None) -> AssumptionReport:
    """Sample point pairs near the solution and probe the two assumptions.

    For each pair (z, z') inside the ball of radius 6D/5 around z* the
    monotone product <T F(z') - F(z), log_z z'> is recorded (negative
    values below -1e-8 count as violations) together with the transported
    difference quotient, an empirical lower bound on the Lipschitz modulus.
    """
    if prob.solution is None:
        raise ContractViolation("check_assumptions needs a declared solution")
    if radius is None:
        radius = 1.2 * prob.region_radius
    center = prob.solution
    min_inner = math.inf
    violations = 0
    lip = 0.0
    gmax = 0.0
    for _ in range(n_pairs):
        z = ops.ball_point(center, rng, radius)
        zp = ops.ball_point(center, rng, radius)
        fz = prob.field(z)
        fzp = prob.field(zp)
        gmax = max(gmax, fz.norm(), fzp.norm())
        d = ops.distance(z, zp)
        if d < 1e-12:
            continue
        moved = ops.transport(zp, z, fzp)
        inner = ops.inner(moved - fz, ops.log_map(z, zp))
        min_inner = min(min_inner, inner)
        if inner < MONOTONE_TOL:
            violations += 1
        lip = max(lip, (fz - moved).norm() / d)
    return AssumptionReport(
        problem=prob.name, n_pairs=n_pairs, radius=radius,
        min_monotone_inner=(0.0 if math.isinf(min_inner) else min_inner),
        violations=violations, lipschitz_estimate=lip, grad_norm_max=gmax)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def hamiltonian(obj: SaddleObjective, x: Point, y: Point) -> float:
    """||grad_x f||^2 + ||grad_y f||^2 — equals ||F(z)||^2 for the saddle field."""
    return obj.grad_x(x, y).norm() ** 2 + obj.grad_y(x, y).norm() ** 2


@dataclass(frozen=True)
class GapEstimate:
    """Duality gap value plus convergence/domain flags for the inner solver."""

    value: float
    converged: bool
    in_domain: bool
    iterations: int

    def __float__(self) -> float:
        return self.value


def _clamp_to_ball(center: Point, z: Point, radius: float) -> Point:
    w = ops.log_map(center, z)
    nw = w.norm()
    if nw <= radius:
        return z
    return ops.exp_map(center, w * (radius / nw))


def _inner_opt(value_grad, start: Point, center: Point, radius: float,
               step: float, max_steps: int, tol: float):
    """Projected Riemannian ascent of a block objective over a geodesic ball."""
    y = _clamp_to_ball(center, start, radius)
    converged = False
    k = 0
    for k in range(1, max_steps + 1):
        g = value_grad(y)
        y_new = _clamp_to_ball(center, ops.exp_map(y, g * step), radius)
        if ops.distance(y, y_new) < tol:
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

    y_best, conv_y, it_y = _inner_opt(
        lambda yy: obj.grad_y(x, yy), y, cy, radius, step, max_steps, tol)
    x_best, conv_x, it_x = _inner_opt(
        lambda xx: -1.0 * obj.grad_x(xx, y), x, cx, radius, step, max_steps, tol)

    gap = obj.value(x, y_best) - obj.value(x_best, y)
    return GapEstimate(value=float(gap), converged=conv_y and conv_x,
                       in_domain=in_domain, iterations=max(it_y, it_x))


def gap_from_field_bound(prob: VectorFieldProblem, z: Point) -> float:
    """The coarse certificate gap(z) <= ||F(z)|| * 2D."""
    return prob.field(z).norm() * 2.0 * prob.region_radius
