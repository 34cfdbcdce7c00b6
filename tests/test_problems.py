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
    SaddleObjective,
    VectorFieldProblem,
    check_assumptions,
    duality_gap,
    equal_energy_start,
    gap_from_field_bound,
    hamiltonian,
    join_saddle,
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
        grad_x=lambda x, y: Tangent(x, [y.coords[0]]),
        grad_y=lambda x, y: Tangent(y, [x.coords[0]]))


def _euclidean_quadratic():
    """f(x, y) = ||x||^2/2 - ||y||^2/2 + x.y on R x R."""
    mx, my = Euclidean(1), Euclidean(1)
    return SaddleObjective(
        manifold_x=mx, manifold_y=my,
        value=lambda x, y: float(0.5 * x.coords[0] ** 2
                                 - 0.5 * y.coords[0] ** 2
                                 + x.coords[0] * y.coords[0]),
        grad_x=lambda x, y: Tangent(x, [x.coords[0] + y.coords[0]]),
        grad_y=lambda x, y: Tangent(y, [x.coords[0] - y.coords[0]]))


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
    z = join_saddle(prob.manifold, x, y)
    np.testing.assert_allclose(z.coords, prob.solution.coords)
    with pytest.raises(ContractViolation):
        split_saddle(x)          # not a two-part product point


# ---------------------------------------------------------------------------
# hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_hand_value():
    obj = _scalar_bilinear()
    x = Point(Euclidean(1), [1.0])
    y = Point(Euclidean(1), [2.0])
    assert hamiltonian(obj, x, y) == pytest.approx(5.0)
    origin = Point(Euclidean(1), [0.0])
    assert hamiltonian(obj, origin, origin) == 0.0


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
        x, y = split_saddle(z)
        ham = hamiltonian(prob.objective, x, y)
        assert ham >= 0.0
        assert ham == pytest.approx(prob.field(z).norm() ** 2, abs=1e-12,
                                    rel=1e-12)


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
        got_x = ops.inner(obj.grad_x(x, y), u)
        got_y = ops.inner(obj.grad_y(x, y), v)
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
    origin = Point(Product(Euclidean(1), Euclidean(1)), [0.0, 0.0])
    prob = saddle_to_field(_scalar_bilinear(), solution=origin, lipschitz=1.0)
    with pytest.raises(ConfigError, match="grad_bound"):
        prob.bounds()
    prob = saddle_to_field(_scalar_bilinear(), solution=origin)
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
            assert gap <= gap_from_field_bound(prob, z) + 1e-3, name


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
    far = join_saddle(prob.manifold, x_far, y_star)
    est = duality_gap(prob.objective, far, prob.solution, radius=0.3,
                      lipschitz=prob.lipschitz)
    assert not est.in_domain
    assert est.value >= -1e-6


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
