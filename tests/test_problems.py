"""Problem catalog: induced fields, assumption sweeps, gap metrics.

Oracles: hand-differentiated bilinear/quadratic saddles, central finite
differences of objective values along geodesics, closed-form duality gaps
for linear and decoupled objectives, and the symmetry argument for the
two-point Fréchet mean.
"""

import math

import numpy as np
import pytest

from rvikit.exceptions import ConfigError, ContractViolation
from rvikit.geometry import zeta
from rvikit.manifolds import (
    Euclidean,
    Hyperboloid,
    Point,
    Product,
    SPD,
    Sphere,
    Tangent,
    ops,
)
from rvikit.problems import (
    AssumptionReport,
    GapEstimate,
    SaddleObjective,
    VectorFieldProblem,
    check_assumptions,
    duality_gap,
    equal_energy_start,
    list_problems,
    make_problem,
    manifold_from_spec,
    saddle_to_field,
    split_saddle,
)


def _scalar_bilinear():
    """f(x, y) = x*y on R x R."""
    mx, my = Euclidean(1), Euclidean(1)
    return SaddleObjective(
        manifold_x=mx, manifold_y=my,
        value=lambda x, y: float(x.coords[0] * y.coords[0]),
        grad_x=lambda x, y: y.copy(),
        grad_y=lambda x, y: x.copy())


def _euclidean_quadratic():
    """f(x, y) = ||x||^2/2 - ||y||^2/2 + x.y on R x R."""
    mx, my = Euclidean(1), Euclidean(1)
    return SaddleObjective(
        manifold_x=mx, manifold_y=my,
        value=lambda x, y: float(0.5 * x.coords[0] ** 2
                                 - 0.5 * y.coords[0] ** 2
                                 + x.coords[0] * y.coords[0]),
        grad_x=lambda x, y: x + y,
        grad_y=lambda x, y: x - y)


def _at(prob, x_val, y_val):
    return Point(prob.manifold, np.array([x_val, y_val], dtype=float))


# ---------------------------------------------------------------------------
# induced fields
# ---------------------------------------------------------------------------

def test_scalar_bilinear_field_is_rotation():
    prob = saddle_to_field(_scalar_bilinear())
    f = prob.field(_at(prob, 1.0, 2.0))
    np.testing.assert_allclose(f.components, [2.0, -1.0])


def test_euclidean_quadratic_field_vanishes_only_at_origin():
    prob = saddle_to_field(_euclidean_quadratic())
    f = prob.field(_at(prob, 1.0, 2.0))
    np.testing.assert_allclose(f.components, [3.0, 1.0])
    assert prob.field(_at(prob, 0.0, 0.0)).norm() == 0.0
    # the linear system (x+y, y-x) = 0 has only the trivial solution
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(size=2)
        if np.linalg.norm(z) > 1e-6:
            assert prob.field(Point(prob.manifold, z)).norm() > 1e-7


def test_decoupled_saddle_field_is_negative_logs():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    man = prob.manifold
    x_star, y_star = split_saddle(prob.solution)
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = ops.ball_point(prob.solution, rng, prob.region_radius)
        x, y = split_saddle(z)
        want_x = -1.0 * ops.log_map(x, x_star)
        want_y = -1.0 * ops.log_map(y, y_star)
        got = prob.field(z)
        np.testing.assert_allclose(
            got.components, man.join([want_x.components, want_y.components]),
            atol=1e-12)


def test_field_base_point_tagging():
    prob = make_problem("euclidean_bilinear", dim=4)
    rng = np.random.default_rng(2)
    z = ops.ball_point(prob.solution, rng, 1.0)
    assert prob.field(z).base.same_base(z)


def test_split_join_saddle_roundtrip():
    prob = make_problem("decoupled_saddle", manifold="h2*s2",
                        region_radius=0.4)
    x, y = split_saddle(prob.solution)
    assert (x.manifold, y.manifold) == prob.manifold.parts
    z = Point(prob.manifold, prob.manifold.join([x.coords, y.coords]))
    np.testing.assert_array_equal(z.coords, prob.solution.coords)
    with pytest.raises(ContractViolation):
        split_saddle(x)          # not a two-part product point


# ---------------------------------------------------------------------------
# hamiltonian ||grad_x f||^2 + ||grad_y f||^2 and the contract on field values
# ---------------------------------------------------------------------------

def _hamiltonian(obj, z):
    x, y = z.manifold.split(z.coords)
    return (obj.manifold_x.norm(x, obj.grad_x(x, y)) ** 2
            + obj.manifold_y.norm(y, obj.grad_y(x, y)) ** 2)


def test_hamiltonian_hand_value():
    prob = saddle_to_field(_scalar_bilinear())
    z = _at(prob, 1.0, 2.0)
    assert _hamiltonian(prob.objective, z) == pytest.approx(5.0)
    assert prob.field(z).norm() ** 2 == pytest.approx(5.0)
    origin = _at(prob, 0.0, 0.0)
    assert _hamiltonian(prob.objective, origin) == 0.0
    assert prob.field(origin).norm() == 0.0


@pytest.mark.parametrize("maker,kwargs", [
    ("euclidean_bilinear", {"dim": 6}),
    ("decoupled_saddle", {"manifold": "h2*h2"}),
    ("sphere_bilinear", {}),
    ("hyperbolic_rmean_saddle", {}),
])
def test_hamiltonian_equals_field_norm_squared(maker, kwargs):
    prob = make_problem(maker, **kwargs)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = ops.ball_point(prob.solution, rng, prob.region_radius)
        ham = _hamiltonian(prob.objective, z)
        assert ham >= 0.0
        assert ham == pytest.approx(prob.field(z).norm() ** 2, abs=1e-12,
                                    rel=1e-12)


def _sphere_saddle(normal_offset):
    """Block gradients on S^2 x S^2, the x one off its tangent space by ``normal_offset``."""
    m = Sphere(2)
    return SaddleObjective(
        manifold_x=m, manifold_y=m, value=lambda x, y: 0.0,
        grad_x=lambda x, y: (m.project_tangent(x, [0.3, -0.2, 0.5])
                             + normal_offset * x),
        grad_y=lambda x, y: m.project_tangent(y, [0.1, 0.4, -0.3]))


def test_field_value_is_the_one_contract_on_block_gradients():
    prob = saddle_to_field(_sphere_saddle(1e-6))
    z = Point(prob.manifold, prob.manifold.anchor())
    with pytest.raises(ContractViolation, match="tangent defect"):
        prob.field(z)

    prob = saddle_to_field(_sphere_saddle(1e-9))
    f = prob.field(z)
    assert prob.manifold.tangent_defect(z.coords, f.components) <= 1e-10
    x, y = prob.manifold.split(z.coords)
    want = prob.manifold.join([
        Sphere(2).project_tangent(x, prob.objective.grad_x(x, y)),
        -prob.objective.grad_y(x, y)])
    np.testing.assert_allclose(f.components, want, atol=1e-15)


# ---------------------------------------------------------------------------
# gradient consistency (finite differences along geodesics)
# ---------------------------------------------------------------------------

def _directional_fd(value, h=1e-4):
    """(value(h) - value(-h)) / (2h) for a callable over the step."""
    return (value(h) - value(-h)) / (2.0 * h)


@pytest.mark.parametrize("maker,kwargs", [
    ("euclidean_bilinear", {"dim": 6}),
    ("decoupled_saddle", {"manifold": "h2*h2"}),
    ("decoupled_saddle", {"manifold": "spd2*spd2", "region_radius": 0.6}),
    ("sphere_bilinear", {}),
    ("hyperbolic_rmean_saddle", {}),
])
def test_gradients_match_finite_differences(maker, kwargs):
    prob = make_problem(maker, **kwargs)
    obj = prob.objective
    rng = np.random.default_rng(4)
    for _ in range(25):
        z = ops.ball_point(prob.solution, rng, 0.8 * prob.region_radius)
        x, y = split_saddle(z)
        u = ops.random_tangent(x, rng, 1.0)
        u = u * (1.0 / u.norm())
        v = ops.random_tangent(y, rng, 1.0)
        v = v * (1.0 / v.norm())
        fd_x = _directional_fd(lambda h: obj.value(ops.exp_map(x, u * h), y))
        fd_y = _directional_fd(lambda h: obj.value(x, ops.exp_map(y, v * h)))
        got_x = ops.inner(Tangent(x, obj.grad_x(x.coords, y.coords)), u)
        got_y = ops.inner(Tangent(y, obj.grad_y(x.coords, y.coords)), v)
        assert got_x == pytest.approx(fd_x, rel=1e-5, abs=1e-7)
        assert got_y == pytest.approx(fd_y, rel=1e-5, abs=1e-7)


def test_frechet_mean_field_matches_objective_gradient():
    man = SPD(2)
    rng = np.random.default_rng(5)
    base = Point(man, man.anchor())
    data = [ops.ball_point(base, rng, 0.5).coords for _ in range(3)]
    prob = make_problem("frechet_mean", manifold="spd2", data=data,
                        region_radius=0.6)

    def objective(x: Point) -> float:
        return sum(man.dist(x.coords, p) ** 2 for p in data) / (2 * len(data))

    for _ in range(15):
        x = ops.ball_point(prob.solution, rng, 0.5)
        u = ops.random_tangent(x, rng, 1.0)
        u = u * (1.0 / u.norm())
        fd = _directional_fd(lambda h: objective(ops.exp_map(x, u * h)))
        assert ops.inner(prob.field(x), u) == pytest.approx(fd, rel=1e-5,
                                                            abs=1e-7)


# ---------------------------------------------------------------------------
# solutions and construction gates
# ---------------------------------------------------------------------------

def test_all_catalog_problems_have_stationary_solutions():
    for name in list_problems():
        prob = make_problem(name)
        assert prob.field(prob.solution).norm() < 1e-8, name


def test_declared_solution_gate():
    m = Euclidean(1)
    with pytest.raises(ContractViolation):
        VectorFieldProblem(
            name="bad", manifold=m,
            field=lambda z: Tangent(z, z.coords.copy()),
            solution=Point(m, [1.0]), region_radius=1.0)


def test_make_problem_unknown_name():
    with pytest.raises(ConfigError) as err:
        make_problem("nonexistent_problem")
    assert "euclidean_bilinear" in str(err.value)


def test_euclidean_bilinear_takes_no_seed():
    # the problem draws no random numbers, so a seed would change nothing
    with pytest.raises(ConfigError) as err:
        make_problem("euclidean_bilinear", seed=1)
    assert "seed" in str(err.value) and "region_radius" in str(err.value)


def test_list_problems_is_sorted_catalog():
    names = list_problems()
    assert names == sorted(names)
    assert set(names) == {"euclidean_bilinear", "decoupled_saddle",
                          "frechet_mean", "sphere_bilinear",
                          "hyperbolic_rmean_saddle"}


def test_manifold_shorthand_parsing():
    assert manifold_from_spec("s3") == Sphere(3)
    assert manifold_from_spec("spd2") == SPD(2)
    assert manifold_from_spec("h2*e3") == Product(Hyperboloid(2), Euclidean(3))
    m = Hyperboloid(4)
    assert manifold_from_spec(m) is m
    with pytest.raises(ConfigError):
        manifold_from_spec("q5")
    with pytest.raises(ConfigError):
        manifold_from_spec("spd")
    with pytest.raises(ConfigError, match="'spd1'"):
        manifold_from_spec("h2*spd1")      # below SPD's minimum size


def test_frechet_mean_of_two_sphere_points_is_midpoint():
    man = Sphere(2)
    p1 = Point(man, [1.0, 0.0, 0.0])
    p2 = ops.exp_map(p1, Tangent(p1, [0.0, 0.6, 0.3]))
    prob = make_problem("frechet_mean", manifold="s2",
                        data=[p1.coords, p2.coords], region_radius=0.5)
    midpoint = ops.exp_map(p1, ops.log_map(p1, p2) * 0.5)
    assert ops.distance(prob.solution, midpoint) < 1e-6


def test_frechet_mean_certified_against_gradient_oracle():
    prob = make_problem("frechet_mean", manifold="spd2", n_points=5)
    assert prob.field(prob.solution).norm() < 1e-8
    assert isinstance(prob.manifold, SPD)


# ---------------------------------------------------------------------------
# assumption sweeps
# ---------------------------------------------------------------------------

def test_bilinear_monotone_inner_exactly_zero():
    prob = make_problem("euclidean_bilinear", dim=8)
    report = check_assumptions(prob, n_pairs=500, rng=np.random.default_rng(6))
    assert report.violations == 0
    assert abs(report.min_monotone_inner) < 1e-10


@pytest.mark.parametrize("maker,kwargs,n_pairs", [
    ("decoupled_saddle", {"manifold": "h2*h2"}, 10_000),
    ("euclidean_bilinear", {}, 10_000),
    ("frechet_mean", {"manifold": "spd2"}, 10_000),
])
def test_flagship_monotonicity_sweeps(maker, kwargs, n_pairs):
    prob = make_problem(maker, **kwargs)
    report = check_assumptions(prob, n_pairs=n_pairs,
                               rng=np.random.default_rng(7))
    assert report.n_pairs == n_pairs
    assert report.violations == 0
    assert report.min_monotone_inner >= -1e-8


def _reference_report(prob, n_pairs, rng, radius=None):
    """check_assumptions as a per-pair loop over the typed layer."""
    m, center = prob.manifold, prob.solution
    radius = 1.2 * prob.region_radius if radius is None else radius

    def ball_point():
        nv = 0.0
        while nv < 1e-15:
            v = m.project_tangent(center.coords, rng.standard_normal(m.ambient))
            nv = m.norm(center.coords, v)
        r = radius * rng.uniform() ** (1.0 / m.dim)
        return ops.exp_map(center, Tangent(center, v * (r / nv)))

    min_inner, violations, lip, gmax = math.inf, 0, 0.0, 0.0
    for _ in range(n_pairs):
        z, zp = ball_point(), ball_point()
        fz, fzp = prob.field(z), prob.field(zp)
        gmax = max(gmax, fz.norm(), fzp.norm())
        d = ops.distance(z, zp)
        if d < 1e-12:
            continue
        moved = ops.transport(zp, z, fzp)
        inner = ops.inner(moved - fz, ops.log_map(z, zp))
        min_inner = min(min_inner, inner)
        violations += inner < -1e-8
        lip = max(lip, (fz - moved).norm() / d)
    return AssumptionReport(
        problem=prob.name, n_pairs=n_pairs, radius=radius,
        min_monotone_inner=(0.0 if math.isinf(min_inner) else min_inner),
        violations=violations, lipschitz_estimate=lip, grad_norm_max=gmax)


def _fields(report):
    return {k: (type(v), repr(v)) for k, v in vars(report).items()}


@pytest.mark.parametrize("maker,kwargs,radius", [
    ("euclidean_bilinear", {"dim": 6}, None),
    ("decoupled_saddle", {"manifold": "h2*h2"}, None),
    ("frechet_mean", {"manifold": "spd2"}, None),
    ("sphere_bilinear", {"certify_pairs": 20}, None),
    ("decoupled_saddle", {"manifold": "s2*s2"}, 0.0),
], ids=["e6", "h2*h2", "spd2", "sphere", "coincident-pairs"])
def test_batched_certification_equals_per_pair_loop(maker, kwargs, radius):
    prob = make_problem(maker, **kwargs)
    got = check_assumptions(prob, n_pairs=40, rng=np.random.default_rng(3),
                            radius=radius)
    want = _reference_report(prob, 40, np.random.default_rng(3), radius)
    assert _fields(got) == _fields(want)


class _ZeroFirstNormal:
    """A generator whose first normal draw is all zeros, then a seeded stream."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.normals = 0

    def standard_normal(self, size):
        self.normals += 1
        return np.zeros(size) if self.normals == 1 else self.rng.standard_normal(size)

    def uniform(self):
        return self.rng.uniform()


def test_certification_redraws_a_zero_tangent_in_order():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    stub = _ZeroFirstNormal(4)
    got = check_assumptions(prob, n_pairs=5, rng=stub)
    assert stub.normals == 2 * 5 + 1
    want = _reference_report(prob, 5, _ZeroFirstNormal(4))
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("n_pairs", [0, -5, 2.5])
def test_certification_needs_at_least_one_pair(n_pairs):
    prob = make_problem("euclidean_bilinear", dim=4)
    with pytest.raises(ConfigError, match="n_pairs"):
        check_assumptions(prob, n_pairs=n_pairs, rng=np.random.default_rng(0))


def test_decoupled_lipschitz_estimate_bounded_by_distortion_rate():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    report = check_assumptions(prob, n_pairs=2000,
                               rng=np.random.default_rng(8))
    # sampling ball has diameter 2 * (6D/5)
    assert report.lipschitz_estimate <= zeta(-1.0, 2.4 * prob.region_radius) + 0.05


def test_grad_norm_consistent_with_lipschitz_times_radius():
    for name in ("decoupled_saddle", "euclidean_bilinear"):
        prob = make_problem(name)
        report = check_assumptions(prob, n_pairs=2000,
                                   rng=np.random.default_rng(9))
        cap = report.lipschitz_estimate * 1.2 * prob.region_radius
        assert report.grad_norm_max <= cap * 1.05 + 1e-9, name


def test_sphere_bilinear_certified_at_construction():
    prob = make_problem("sphere_bilinear")
    assert prob.params["certified_radius"] <= 0.25
    assert prob.params["min_monotone_inner"] >= -1e-8
    fresh = check_assumptions(prob, n_pairs=1000,
                              rng=np.random.default_rng(10))
    assert fresh.violations == 0


def test_declared_bounds_flow_into_geometry_bounds():
    prob = make_problem("euclidean_bilinear", dim=6)
    b = prob.bounds()
    assert b.L == prob.lipschitz
    assert b.G == prob.grad_bound
    assert b.D == prob.region_radius
    assert (b.kappa, b.K) == (0.0, 0.0)


def test_bounds_require_declared_constants():
    origin = Point(Euclidean(1), [0.0])
    prob = saddle_to_field(_scalar_bilinear(), solution=(origin, origin),
                           lipschitz=1.0)
    with pytest.raises(ConfigError, match="grad_bound"):
        prob.bounds()
    prob = saddle_to_field(_scalar_bilinear(), solution=(origin, origin))
    with pytest.raises(ConfigError, match="lipschitz and grad_bound"):
        prob.bounds()


def test_field_evaluations_are_counted():
    prob = make_problem("euclidean_bilinear", dim=4)
    before = prob.evals
    z = equal_energy_start(prob)
    prob.field(z)
    prob.field(z)
    assert prob.evals == before + 2


# ---------------------------------------------------------------------------
# duality gaps
# ---------------------------------------------------------------------------

def test_gap_at_saddle_point_is_tiny():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    est = duality_gap(prob.objective, prob.solution, prob.solution,
                      radius=0.5, lipschitz=prob.lipschitz)
    assert est.in_domain
    assert abs(est.value) <= 1e-6


def test_scalar_bilinear_gap_closed_form():
    prob = saddle_to_field(_scalar_bilinear())
    center = _at(prob, 0.0, 0.0)
    R = 0.8
    for x_val, y_val in [(0.3, -0.2), (0.5, 0.5), (-0.1, 0.7)]:
        est = duality_gap(prob.objective, _at(prob, x_val, y_val), center,
                          radius=R, lipschitz=1.0)
        want = R * abs(x_val) + R * abs(y_val)
        assert est.value == pytest.approx(want, abs=2e-3)


def test_euclidean_bilinear_exact_gap_matches_inner_solver():
    prob = make_problem("euclidean_bilinear", dim=4)
    rng = np.random.default_rng(11)
    R = math.sqrt(2.0) * prob.region_radius / 2.0
    for _ in range(5):
        z = ops.ball_point(prob.solution, rng, prob.region_radius)
        exact = prob.exact_gap(z, R)
        est = duality_gap(prob.objective, z, prob.solution, radius=R,
                          lipschitz=prob.lipschitz)
        assert est.value == pytest.approx(exact, rel=2e-2, abs=2e-3)


def test_decoupled_exact_gap_is_half_squared_distances():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    rng = np.random.default_rng(12)
    x_star, y_star = split_saddle(prob.solution)
    for _ in range(5):
        z = ops.ball_point(prob.solution, rng, prob.region_radius)
        x, y = split_saddle(z)
        want = 0.5 * (ops.distance(x, x_star) ** 2
                      + ops.distance(y, y_star) ** 2)
        assert prob.exact_gap(z, 0.7) == pytest.approx(want, abs=1e-12)
        est = duality_gap(prob.objective, z, prob.solution, radius=0.7,
                          lipschitz=prob.lipschitz)
        assert est.value == pytest.approx(want, abs=1e-4)


def test_gap_bounded_by_field_norm_times_diameter():
    for name in ("decoupled_saddle", "euclidean_bilinear"):
        prob = make_problem(name)
        rng = np.random.default_rng(13)
        R = math.sqrt(2.0) * prob.region_radius / 2.0
        for _ in range(10):
            z = ops.ball_point(prob.solution, rng, prob.region_radius)
            gap = (prob.exact_gap(z, R) if prob.exact_gap is not None
                   else duality_gap(prob.objective, z, prob.solution, R,
                                    lipschitz=prob.lipschitz).value)
            # the coarse certificate gap(z) <= ||F(z)|| * 2D
            bound = prob.field(z).norm() * 2.0 * prob.region_radius
            assert gap <= bound + 1e-3, name


def test_gap_nonincreasing_toward_saddle_on_decoupled():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    rng = np.random.default_rng(14)
    for _ in range(20):
        z = ops.ball_point(prob.solution, rng, prob.region_radius)
        w = ops.log_map(prob.solution, z)
        gaps = [prob.exact_gap(ops.exp_map(prob.solution, w * s), 0.7)
                for s in (1.0, 0.7, 0.4, 0.1)]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_gap_estimate_flags_out_of_domain_queries():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    x_star, y_star = split_saddle(prob.solution)
    rng = np.random.default_rng(15)
    u = ops.random_tangent(x_star, rng, 1.0)
    x_far = ops.exp_map(x_star, u * (0.5 / u.norm()))
    far = Point(prob.manifold, prob.manifold.join([x_far.coords, y_star.coords]))
    est = duality_gap(prob.objective, far, prob.solution, radius=0.3,
                      lipschitz=prob.lipschitz)
    assert not est.in_domain
    assert est.value >= -1e-6


def _typed_clamp(center, z, radius):
    w = ops.log_map(center, z)
    nw = w.norm()
    if nw <= radius:
        return z
    return ops.exp_map(center, w * (radius / nw))


def _typed_ascent(value_grad, start, center, radius, step, max_steps, tol):
    y = _typed_clamp(center, start, radius)
    converged = False
    k = 0
    for k in range(1, max_steps + 1):
        g = Tangent(y, value_grad(y) * step)
        y_new = _typed_clamp(center, ops.exp_map(y, g), radius)
        if ops.distance(y, y_new) < tol:
            y = y_new
            converged = True
            break
        y = y_new
    return y, converged, k


def _typed_gap(obj, z, center, radius, lipschitz, max_steps=10000, tol=1e-6):
    """duality_gap as a projected ascent on typed Points through ``ops``."""
    x, y = split_saddle(z)
    cx, cy = split_saddle(center)
    step = 1.0 / (10.0 * lipschitz)
    in_domain = (ops.distance(x, cx) <= radius + 1e-12
                 and ops.distance(y, cy) <= radius + 1e-12)
    y_best, conv_y, it_y = _typed_ascent(
        lambda yy: obj.grad_y(x.coords, yy.coords), y, cy, radius, step,
        max_steps, tol)
    x_best, conv_x, it_x = _typed_ascent(
        lambda xx: -obj.grad_x(xx.coords, y.coords), x, cx, radius, step,
        max_steps, tol)
    gap = obj.value(x, y_best) - obj.value(x_best, y)
    return GapEstimate(value=float(gap), converged=conv_y and conv_x,
                       in_domain=in_domain, iterations=max(it_y, it_x))


def _block_at(center, rng, dist):
    u = ops.random_tangent(center, rng, 1.0)
    return ops.exp_map(center, u * (dist / u.norm()))


# (x, y) block distances from (x*, y*) in units of the gap radius
_GAP_CASES = {"inside": ((0.6, 0.8), {}),
              "start-outside": ((1.5, 0.5), {}),
              "out-of-domain": ((1.6, 1.4), {}),
              "max-steps-3": ((0.6, 0.8), {"max_steps": 3})}


@pytest.mark.parametrize("case", list(_GAP_CASES))
@pytest.mark.parametrize("maker,kwargs", [
    ("sphere_bilinear", {}),
    ("hyperbolic_rmean_saddle", {}),
    ("decoupled_saddle", {"manifold": "s2*s2"}),
    ("decoupled_saddle", {"manifold": "h2*h2"}),
    ("decoupled_saddle", {"manifold": "spd3*spd3"}),
    ("euclidean_bilinear", {"dim": 6}),
])
def test_gap_ascent_on_coordinates_equals_typed_ascent(maker, kwargs, case):
    prob = make_problem(maker, **kwargs)
    (dx, dy), extra = _GAP_CASES[case]
    R = math.sqrt(2.0) * prob.region_radius / 2.0
    x_star, y_star = split_saddle(prob.solution)
    rng = np.random.default_rng(16)
    x, y = _block_at(x_star, rng, dx * R), _block_at(y_star, rng, dy * R)
    z = Point(prob.manifold, prob.manifold.join([x.coords, y.coords]))
    got = duality_gap(prob.objective, z, prob.solution, R,
                      lipschitz=prob.lipschitz, **extra)
    want = _typed_gap(prob.objective, z, prob.solution, R, prob.lipschitz, **extra)
    assert _fields(got) == _fields(want)
    assert got.in_domain == (max(dx, dy) <= 1.0)
    if case == "max-steps-3":
        assert (got.converged, got.iterations) == (False, 3)


def _linear_sphere_saddle(normal_offset):
    """f(x, y) = a.x + b.y on S^2 x S^2, grad_x off its tangent space by ``normal_offset``."""
    m = Sphere(2)
    a, b = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.4, -0.3])
    return SaddleObjective(
        manifold_x=m, manifold_y=m,
        value=lambda x, y: float(a @ x.coords + b @ y.coords),
        grad_x=lambda x, y: m.project_tangent(x, a) + normal_offset * x,
        grad_y=lambda x, y: m.project_tangent(y, b))


def test_gap_ascent_checks_every_step_scaled_gradient():
    # step 1/(10 L) = 1: the step-scaled gradient keeps the offset's defect
    m = Product(Sphere(2), Sphere(2))
    center = Point(m, m.anchor())
    z = ops.ball_point(center, np.random.default_rng(17), 0.3)
    with pytest.raises(ContractViolation, match="tangent defect"):
        duality_gap(_linear_sphere_saddle(1e-6), z, center, 0.5, lipschitz=0.1)

    got = duality_gap(_linear_sphere_saddle(1e-9), z, center, 0.5, lipschitz=0.1)
    want = _typed_gap(_linear_sphere_saddle(1e-9), z, center, 0.5, 0.1)
    assert _fields(got) == _fields(want)
    clean = duality_gap(_linear_sphere_saddle(0.0), z, center, 0.5, lipschitz=0.1)
    assert got.value == pytest.approx(clean.value, abs=1e-12)


# ---------------------------------------------------------------------------
# benchmark initializer
# ---------------------------------------------------------------------------

def test_equal_energy_start_geometry():
    prob = make_problem("euclidean_bilinear", dim=6)
    z0 = equal_energy_start(prob)
    assert ops.distance(z0, prob.solution) == pytest.approx(
        0.9 * prob.region_radius, rel=1e-12)
    offsets = z0.coords - prob.solution.coords
    assert np.allclose(offsets, offsets[0])     # equal energy per coordinate


def test_equal_energy_start_rejects_curved_problems():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    with pytest.raises(ConfigError):
        equal_energy_start(prob)
