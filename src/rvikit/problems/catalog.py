"""Named problem constructors with certified solutions and region bounds.

Every constructor is deterministic given its parameters (randomness flows
through an explicit ``seed``) and returns a
:class:`~rvikit.problems.core.VectorFieldProblem` whose declared solution
passes the ||F(z*)|| < 1e-8 gate and whose stated L/G bounds dominate
sampled estimates on the operating region.
"""

from __future__ import annotations

import inspect
import math
import re

import numpy as np

from ..exceptions import ConfigError, ContractViolation, require
from ..geometry.constants import zeta
from ..manifolds import ops
from ..manifolds.base import Manifold, Point, Tangent
from ..manifolds.euclidean import Euclidean
from ..manifolds.hyperboloid import Hyperboloid, minkowski
from ..manifolds.product import Product
from ..manifolds.sphere import Sphere
from ..manifolds.spd import SPD
from .core import (
    SaddleObjective,
    VectorFieldProblem,
    check_assumptions,
    product_field,
)

_REGISTRY: dict = {}


def register(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def list_problems() -> list[str]:
    return sorted(_REGISTRY)


def make_problem(name: str, **params) -> VectorFieldProblem:
    """Instantiate a registered problem by name."""
    if name not in _REGISTRY:
        raise ConfigError(
            f"unknown problem {name!r}; available: {', '.join(list_problems())}")
    valid = list(inspect.signature(_REGISTRY[name]).parameters)
    unknown = sorted(set(params) - set(valid))
    require(not unknown, f"unknown parameters {unknown} for problem {name!r}; "
                         f"valid parameters: {valid}")
    return _REGISTRY[name](**params)


# ---------------------------------------------------------------------------
# manifold shorthand ("h2*h2", "spd2", "s2", "e3", ...)
# ---------------------------------------------------------------------------

_ATOM = re.compile(r"^(e|s|h|spd)(\d+)$")


def manifold_from_spec(spec) -> Manifold:
    """Parse 'e<d>', 's<d>', 'h<d>', 'spd<n>' atoms joined by '*'."""
    if isinstance(spec, Manifold):
        return spec
    atoms = [a.strip().lower() for a in str(spec).split("*")]
    built = []
    for a in atoms:
        m = _ATOM.match(a)
        if not m:
            raise ConfigError(f"bad manifold atom {a!r} in {spec!r}")
        kind, d = m.group(1), int(m.group(2))
        built.append({"e": Euclidean, "s": Sphere, "h": Hyperboloid,
                      "spd": SPD}[kind](d))
    return built[0] if len(built) == 1 else Product(*built)


def _anchor(m: Manifold) -> Point:
    return Point(m, m.anchor())


# ---------------------------------------------------------------------------
# euclidean_bilinear
# ---------------------------------------------------------------------------

@register("euclidean_bilinear")
def euclidean_bilinear(dim: int = 24, matrix=None, region_radius: float = 1.0,
                       s_min: float = 0.008, s_max: float = 1.0,
                       seed: int = 0) -> VectorFieldProblem:
    """f(x, y) = x^T A y on R^dim x R^dim; the canonical flat skew field.

    The default coupling matrix is diagonal with log-spaced singular
    values in [s_min, s_max], giving the field an even spread of rotation
    frequencies so last-iterate norms display their sustained power-law
    decay rather than the single-mode linear rate.
    """
    if matrix is not None:
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2:
            raise ConfigError("matrix must be 2-D")
        dx, dy = A.shape
    else:
        spectrum = np.logspace(math.log10(s_min), math.log10(s_max), dim)
        A = np.diag(spectrum)
        dx = dy = dim
    mx, my = Euclidean(dx), Euclidean(dy)
    L = float(np.linalg.svd(A, compute_uv=False)[0])
    D = float(region_radius)

    obj = SaddleObjective(
        manifold_x=mx, manifold_y=my,
        value=lambda x, y: float(x.coords @ A @ y.coords),
        grad_x=lambda x, y: Tangent(x, A @ y.coords),
        grad_y=lambda x, y: Tangent(y, A.T @ x.coords),
    )
    manifold, field = product_field(obj)
    sol = _anchor(manifold)

    def exact_gap(z: Point, radius: float) -> float:
        xc, yc = manifold.split(z.coords)
        return radius * (float(np.linalg.norm(A.T @ xc))
                         + float(np.linalg.norm(A @ yc)))

    return VectorFieldProblem(
        name="euclidean_bilinear", manifold=manifold, field=field,
        solution=sol, region_radius=D, lipschitz=L, grad_bound=L * 1.2 * D,
        objective=obj, exact_gap=exact_gap,
        params={"dim": dx, "s_min": s_min, "s_max": s_max, "seed": seed})


def equal_energy_start(prob: VectorFieldProblem, frac: float = 0.9) -> Point:
    """Benchmark initializer for flat problems: every coordinate equally excited.

    Rate-exponent fits on bilinear problems read the decay envelope across
    the coupling spectrum; a random start gives each frequency a random
    amplitude and the fitted slope inherits that noise.  Starting with
    equal amplitude in every coordinate (at ``frac`` of the region radius
    from the solution) makes the envelope, and hence the fitted exponent,
    deterministic.
    """
    man = prob.manifold
    if not all(isinstance(p, Euclidean)
               for p in (man.parts if isinstance(man, Product) else (man,))):
        raise ConfigError("equal_energy_start is defined for flat problems")
    if prob.solution is None:
        raise ConfigError("equal_energy_start needs a problem with a solution")
    u = Tangent(prob.solution, np.ones(man.ambient))
    u = u * (frac * prob.region_radius / u.norm())
    return ops.exp_map(prob.solution, u)


# ---------------------------------------------------------------------------
# decoupled_saddle
# ---------------------------------------------------------------------------

@register("decoupled_saddle")
def decoupled_saddle(manifold="h2*h2", region_radius: float = 1.0,
                     center_offset: float = 0.3, seed: int = 0) -> VectorFieldProblem:
    """f(x, y) = d(x, x*)^2/2 - d(y, y*)^2/2 on a two-part product.

    The field (-log_x x*, -log_y y*) vanishes exactly at (x*, y*), is
    1-strongly monotone on nonpositively curved parts, and its Lipschitz
    modulus on the operating region is zeta(kappa, 6D/5).
    """
    man = manifold_from_spec(manifold)
    if not isinstance(man, Product) or len(man.parts) != 2:
        raise ConfigError("decoupled_saddle needs a two-part product manifold")
    mx, my = man.parts
    D = float(region_radius)
    reach = 1.2 * D + 1e-9
    for part in man.parts:
        if part.curvature_hi > 0 and reach >= 0.5 * math.pi / math.sqrt(part.curvature_hi):
            raise ConfigError(
                "positively curved parts need 6D/5 < pi/(2 sqrt(K)) for convexity")
    rng = np.random.default_rng(seed)
    x_star = ops.ball_point(_anchor(mx), rng, center_offset)
    y_star = ops.ball_point(_anchor(my), rng, center_offset)

    obj = SaddleObjective(
        manifold_x=mx, manifold_y=my,
        value=lambda x, y: 0.5 * (ops.distance(x, x_star) ** 2
                                  - ops.distance(y, y_star) ** 2),
        grad_x=lambda x, y: -1.0 * ops.log_map(x, x_star),
        grad_y=lambda x, y: ops.log_map(y, y_star),
    )
    manifold_, field = product_field(obj)
    sol = Point(manifold_, manifold_.join([x_star.coords, y_star.coords]))

    L = max(1.0, zeta(man.curvature_lo, reach))

    def exact_gap(z: Point, radius: float) -> float:
        xc, yc = manifold_.split(z.coords)
        return 0.5 * (mx.dist(xc, x_star.coords) ** 2
                      + my.dist(yc, y_star.coords) ** 2)

    return VectorFieldProblem(
        name="decoupled_saddle", manifold=manifold_, field=field,
        solution=sol, region_radius=D, lipschitz=L, grad_bound=L * 1.2 * D,
        objective=obj, exact_gap=exact_gap,
        params={"manifold": str(manifold), "region_radius": D,
                "center_offset": center_offset, "seed": seed})


# ---------------------------------------------------------------------------
# frechet_mean
# ---------------------------------------------------------------------------

@register("frechet_mean")
def frechet_mean(manifold="spd2", n_points: int = 5, spread: float = 0.5,
                 region_radius: float = 0.8, seed: int = 0,
                 data=None) -> VectorFieldProblem:
    """Minimize the mean squared distance to a fixed sample.

    F(x) = -(1/m) sum_i log_x(p_i); the solution is located by a long
    auxiliary gradient run and certified by the ||F(z*)|| < 1e-8 gate.
    """
    man = manifold_from_spec(manifold)
    rng = np.random.default_rng(seed)
    base = _anchor(man)
    if data is None:
        pts = [ops.ball_point(base, rng, spread) for _ in range(n_points)]
    else:
        pts = [Point(man, np.asarray(p, dtype=float).reshape(-1)) for p in data]
        n_points = len(pts)
    D = float(region_radius)

    def raw_field(z: Point) -> Tangent:
        acc = np.zeros(man.ambient)
        for p in pts:
            acc += man.log(z.coords, p.coords)
        return Tangent(z, -acc / len(pts))

    # auxiliary gradient run to locate the minimizer
    x = base
    for _ in range(2000):
        g = raw_field(x)
        if g.norm() < 1e-13:
            break
        x = ops.exp_map(x, g * (-0.5))
    sol = x

    r_max = 1.2 * D + max(ops.distance(sol, p) for p in pts)
    if man.curvature_hi > 0 and r_max >= 0.5 * math.pi / math.sqrt(man.curvature_hi):
        raise ConfigError("data too spread for convexity on positive curvature")
    L = max(1.0, zeta(man.curvature_lo, r_max))

    return VectorFieldProblem(
        name="frechet_mean", manifold=man, field=raw_field, solution=sol,
        region_radius=D, lipschitz=L, grad_bound=L * 1.2 * D,
        params={"manifold": str(manifold), "n_points": n_points,
                "spread": spread, "seed": seed})


# ---------------------------------------------------------------------------
# sphere_bilinear
# ---------------------------------------------------------------------------

@register("sphere_bilinear")
def sphere_bilinear(dim_x: int = 2, dim_y: int = 2, scale: float = 1.0,
                    mu: float | None = None, region_radius: float = 0.25,
                    seed: int = 0, certify_pairs: int = 2000,
                    max_shrinks: int = 10) -> VectorFieldProblem:
    """Sphere-restricted ambient bilinear coupling, positively curved stress test.

    f(x, y) = x^T A y + mu (d(x,x*)^2 - d(y,y*)^2)/2 on S^dx x S^dy, where
    (x*, y*) are unit null vectors of A^T / A, so the field vanishes there.
    A bare restricted bilinear term is never convex-concave around a
    stationary pair on positive curvature (its block Hessians are
    -(x^T A y) g, of opposite required signs), so a small decoupled
    quadratic with weight ``mu`` supplies the monotonicity margin; the
    operating radius is still certified by sampling at construction and
    shrunk by 0.8 (up to ``max_shrinks`` times) until certification passes.
    """
    mx, my = Sphere(dim_x), Sphere(dim_y)
    rng = np.random.default_rng(seed)
    x_star = Point(mx, mx.random_point(rng))
    y_star = Point(my, my.random_point(rng))
    # build A with x* and y* as left/right null vectors, scaled to ||A|| = scale
    B = rng.standard_normal((mx.ambient, my.ambient))
    Px = np.eye(mx.ambient) - np.outer(x_star.coords, x_star.coords)
    Py = np.eye(my.ambient) - np.outer(y_star.coords, y_star.coords)
    A = Px @ B @ Py
    A *= scale / np.linalg.svd(A, compute_uv=False)[0]
    if mu is None:
        mu = 0.6 * scale

    def value(x: Point, y: Point) -> float:
        return (float(x.coords @ A @ y.coords)
                + 0.5 * mu * (ops.distance(x, x_star) ** 2
                              - ops.distance(y, y_star) ** 2))

    def grad_x(x: Point, y: Point) -> Tangent:
        g = mx.project_tangent(x.coords, A @ y.coords)
        return Tangent(x, g) - mu * ops.log_map(x, x_star)

    def grad_y(x: Point, y: Point) -> Tangent:
        g = my.project_tangent(y.coords, A.T @ x.coords)
        return Tangent(y, g) + mu * ops.log_map(y, y_star)

    obj = SaddleObjective(manifold_x=mx, manifold_y=my, value=value,
                          grad_x=grad_x, grad_y=grad_y)
    manifold_, field = product_field(obj)
    sol = Point(manifold_, manifold_.join([x_star.coords, y_star.coords]))
    L = 3.0 * scale + mu

    D = float(region_radius)
    last_report = None
    for _ in range(max_shrinks + 1):
        prob = VectorFieldProblem(
            name="sphere_bilinear", manifold=manifold_, field=field,
            solution=sol, region_radius=D, lipschitz=L, grad_bound=L * 1.2 * D,
            objective=obj,
            params={"dim_x": dim_x, "dim_y": dim_y, "scale": scale,
                    "mu": mu, "region_radius": D, "seed": seed})
        last_report = check_assumptions(
            prob, n_pairs=certify_pairs, rng=np.random.default_rng(seed + 1))
        if last_report.violations == 0:
            prob.params["certified_radius"] = D
            prob.params["min_monotone_inner"] = last_report.min_monotone_inner
            return prob
        D *= 0.8
    raise ContractViolation(
        f"sphere_bilinear: monotonicity certification failed down to radius "
        f"{D / 0.8:.4f} (min inner {last_report.min_monotone_inner:.3e})")


# ---------------------------------------------------------------------------
# hyperbolic_rmean_saddle
# ---------------------------------------------------------------------------

def _log_differential_adjoint(man: Hyperboloid, c: Point, x: Point,
                              u: Tangent) -> Tangent:
    """Gradient (in x) of x -> <log_c x, u>_c on hyperbolic space.

    With v = log_c x, r = ||v||, the adjoint of the inverse exponential's
    differential scales the component of u orthogonal to v by r/sinh(r)
    and parallel-transports the result from c to x.
    """
    v = man.log(c.coords, x.coords)
    r = math.sqrt(max(minkowski(v, v), 0.0))
    if r < 1e-14:
        return ops.transport(c, x, u)
    e = v / r
    a = minkowski(u.components, e)
    par = a * e
    perp = u.components - par
    shrink = r / math.sinh(r)
    w = Tangent(c, par + shrink * perp)
    return ops.transport(c, x, w)


@register("hyperbolic_rmean_saddle")
def hyperbolic_rmean_saddle(d: int = 2, n_points: int = 5, spread: float = 0.6,
                            beta: float = 0.2, alpha: float = 1.0,
                            region_radius: float = 0.7,
                            seed: int = 0) -> VectorFieldProblem:
    """Adversarially perturbed mean estimation on H^d x H^d.

    The x-player fits a mean to hyperbolic data with zero tangent average
    at the base point c; the y-player pays a proximity cost alpha and
    couples to x through beta <log_c x, log_c y>.  The saddle sits exactly
    at (c, c), and for beta well below min(1, alpha) the field stays
    strongly monotone on the region.
    """
    man_part = Hyperboloid(d)
    c = _anchor(man_part)
    rng = np.random.default_rng(seed)
    vs = [man_part.random_tangent(rng, c.coords, spread)
          for _ in range(n_points - 1)]
    vs.append(-np.sum(vs, axis=0))
    pts = [ops.exp_map(c, Tangent(c, v)) for v in vs]

    def value(x: Point, y: Point) -> float:
        fit = sum(ops.distance(x, p) ** 2 for p in pts) / (2 * len(pts))
        lx = Tangent(c, man_part.log(c.coords, x.coords))
        ly = Tangent(c, man_part.log(c.coords, y.coords))
        return (fit + beta * ops.inner(lx, ly)
                - 0.5 * alpha * ops.distance(y, c) ** 2)

    def grad_x(x: Point, y: Point) -> Tangent:
        acc = np.zeros(man_part.ambient)
        for p in pts:
            acc += man_part.log(x.coords, p.coords)
        ly = Tangent(c, man_part.log(c.coords, y.coords))
        coup = _log_differential_adjoint(man_part, c, x, ly)
        return Tangent(x, -acc / len(pts)) + beta * coup

    def grad_y(x: Point, y: Point) -> Tangent:
        lx = Tangent(c, man_part.log(c.coords, x.coords))
        coup = _log_differential_adjoint(man_part, c, y, lx)
        return beta * coup + alpha * ops.log_map(y, c)

    obj = SaddleObjective(manifold_x=man_part, manifold_y=man_part,
                          value=value, grad_x=grad_x, grad_y=grad_y)
    manifold_, field = product_field(obj)
    sol = Point(manifold_, manifold_.join([c.coords, c.coords]))

    D = float(region_radius)
    reach = 1.2 * D
    data_reach = reach + max(ops.distance(c, p) for p in pts)
    L = (zeta(-1.0, data_reach) + alpha * zeta(-1.0, reach)
         + beta * (2.0 + math.cosh(reach)))

    return VectorFieldProblem(
        name="hyperbolic_rmean_saddle", manifold=manifold_, field=field,
        solution=sol, region_radius=D, lipschitz=L, grad_bound=L * 1.2 * D,
        objective=obj,
        params={"d": d, "n_points": n_points, "spread": spread, "beta": beta,
                "alpha": alpha, "region_radius": D, "seed": seed})
