"""Geometry-kernel tests: hand cases, independent oracles, contract checks.

Oracles used here are deliberately implementation-independent:
* SPD parallel transport is cross-checked by integrating the transport
  ODE (Christoffel form) along the geodesic with RK4, with the geodesic
  itself produced only by ``exp`` and derivatives by finite differences.
* The SPD inner product is cross-checked against the second-order
  expansion of squared distance (metric-from-distance polarization).
* The geodesic running average is checked by a symmetry argument on a
  single sphere geodesic.
"""

import functools
import math

import numpy as np
import pytest

from rvikit.exceptions import ContractViolation, InjectivityError
from rvikit.manifolds import (
    Euclidean,
    GeodesicAverage,
    Hyperboloid,
    Point,
    Product,
    SPD,
    Sphere,
    Tangent,
    geodesic_average_update,
    minkowski,
    ops,
)
from rvikit.manifolds.base import checked_points, checked_tangents

ALL_MANIFOLDS = [
    Euclidean(3),
    Sphere(2),
    Hyperboloid(2),
    SPD(2),
    Product(Hyperboloid(2), Sphere(2)),
]


def _ids(m):
    return repr(m)


# ---------------------------------------------------------------------------
# hand-computable cases
# ---------------------------------------------------------------------------

def test_euclidean_exp_is_addition():
    m = Euclidean(2)
    p = Point(m, [1.0, 2.0])
    q = ops.exp_map(p, Tangent(p, [3.0, 4.0]))
    np.testing.assert_allclose(q.coords, [4.0, 6.0])


def test_sphere_quarter_circle():
    m = Sphere(2)
    p = Point(m, [1.0, 0.0, 0.0])
    q = ops.exp_map(p, Tangent(p, [0.0, math.pi / 2, 0.0]))
    np.testing.assert_allclose(q.coords, [0.0, 1.0, 0.0], atol=1e-15)
    v = ops.log_map(p, Point(m, [0.0, 1.0, 0.0]))
    np.testing.assert_allclose(v.components, [0.0, math.pi / 2, 0.0], atol=1e-15)
    assert ops.distance(p, Point(m, [0.0, 1.0, 0.0])) == pytest.approx(math.pi / 2)


def test_hyperboloid_exp_along_axis():
    m = Hyperboloid(2)
    p = Point(m, [1.0, 0.0, 0.0])
    t = 0.7
    q = ops.exp_map(p, Tangent(p, [0.0, t, 0.0]))
    np.testing.assert_allclose(q.coords, [math.cosh(t), math.sinh(t), 0.0],
                               rtol=1e-15)
    assert ops.distance(p, q) == pytest.approx(t, abs=1e-14)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_exp_zero_velocity_fixes_point(m):
    rng = np.random.default_rng(1)
    p = ops.random_point(m, rng)
    q = ops.exp_map(p, Tangent(p, np.zeros(m.ambient)))
    np.testing.assert_allclose(q.coords, p.coords, atol=1e-15)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_log_of_same_point_is_zero(m):
    rng = np.random.default_rng(2)
    p = ops.random_point(m, rng)
    assert ops.log_map(p, p).norm() < 1e-12
    assert ops.distance(p, p) < 1e-12


def test_euclidean_transport_is_identity():
    m = Euclidean(4)
    rng = np.random.default_rng(3)
    p, q = ops.random_point(m, rng), ops.random_point(m, rng)
    u = ops.random_tangent(p, rng, 2.0)
    moved = ops.transport(p, q, u)
    np.testing.assert_allclose(moved.components, u.components)


def test_sphere_equator_transport_keeps_normal_vector():
    m = Sphere(2)
    p = Point(m, [1.0, 0.0, 0.0])
    q = Point(m, [0.0, 1.0, 0.0])
    u = Tangent(p, [0.0, 0.0, 1.0])       # normal to the equator plane
    moved = ops.transport(p, q, u)
    np.testing.assert_allclose(moved.components, [0.0, 0.0, 1.0], atol=1e-15)
    # while the velocity direction rotates into -x
    vel = Tangent(p, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(ops.transport(p, q, vel).components,
                               [-1.0, 0.0, 0.0], atol=1e-15)


def test_euclidean_inner_is_dot_product():
    m = Euclidean(2)
    p = Point(m, [0.0, 0.0])
    u, v = Tangent(p, [1.0, 2.0]), Tangent(p, [3.0, -1.0])
    assert ops.inner(u, v) == pytest.approx(1.0)
    assert ops.inner(u, Tangent(p, np.zeros(m.ambient))) == 0.0


def test_declared_curvature_bounds():
    assert (Euclidean(3).curvature_lo, Euclidean(3).curvature_hi) == (0.0, 0.0)
    assert (Sphere(2).curvature_lo, Sphere(2).curvature_hi) == (1.0, 1.0)
    assert (Hyperboloid(2).curvature_lo, Hyperboloid(2).curvature_hi) == (-1.0, -1.0)
    assert (SPD(3).curvature_lo, SPD(3).curvature_hi) == (-0.5, 0.0)
    both = Product(Hyperboloid(2), Sphere(2))
    assert (both.curvature_lo, both.curvature_hi) == (-1.0, 1.0)
    # mixed-factor planes are flat, so multi-part products include 0
    neg = Product(Hyperboloid(2), Hyperboloid(2))
    assert (neg.curvature_lo, neg.curvature_hi) == (-1.0, 0.0)


# ---------------------------------------------------------------------------
# randomized invariant sweeps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_exp_log_roundtrip_sweep(m):
    rng = np.random.default_rng(10)
    for _ in range(200):
        p = ops.random_point(m, rng)
        v = ops.random_tangent(p, rng, 1.0)
        q = ops.exp_map(p, v)
        q_again = ops.exp_map(p, ops.log_map(p, q))
        assert ops.distance(q, q_again) < 1e-8


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_transport_isometry_and_inner_preservation(m):
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = ops.random_point(m, rng)
        q = ops.ball_point(p, rng, 1.0)
        u = ops.random_tangent(p, rng, 2.0)
        v = ops.random_tangent(p, rng, 2.0)
        mu, mv = ops.transport(p, q, u), ops.transport(p, q, v)
        assert abs(mu.norm() - u.norm()) < 1e-10
        assert abs(ops.inner(mu, mv) - ops.inner(u, v)) < 1e-10


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_distance_log_consistency_and_symmetry(m):
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = ops.random_point(m, rng)
        q = ops.ball_point(p, rng, 1.5)
        d = ops.distance(p, q)
        assert abs(d - ops.log_map(p, q).norm()) < 1e-10
        assert abs(d - ops.distance(q, p)) < 1e-10


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_triangle_inequality(m):
    rng = np.random.default_rng(13)
    for _ in range(200):
        c = ops.random_point(m, rng)
        p, q, r = (ops.ball_point(c, rng, 1.0) for _ in range(3))
        assert ops.distance(p, r) <= (ops.distance(p, q)
                                      + ops.distance(q, r) + 1e-9)


def test_hyperboloid_distance_matches_minkowski_form():
    m = Hyperboloid(3)
    rng = np.random.default_rng(14)
    for _ in range(200):
        p = ops.random_point(m, rng)
        q = ops.ball_point(p, rng, 2.0)
        c = -minkowski(p.coords, q.coords)
        d_form = math.acosh(max(c, 1.0))
        d = ops.distance(p, q)
        assert d == pytest.approx(d_form, abs=1e-7)
        assert d == pytest.approx(ops.log_map(p, q).norm(), abs=1e-12)


def test_hyperboloid_short_distances_keep_relative_accuracy():
    # the arccosh form alone loses half its digits near zero separation
    m = Hyperboloid(2)
    p = Point(m, m.anchor())
    for t in (1e-9, 1e-7, 1e-5):
        q = ops.exp_map(p, Tangent(p, [0.0, t, 0.0]))
        assert ops.distance(p, q) == pytest.approx(t, rel=1e-9)


def test_product_distance_squares_add_and_ops_act_partwise():
    h2, s2 = Hyperboloid(2), Sphere(2)
    m = Product(h2, s2)
    rng = np.random.default_rng(15)
    for _ in range(100):
        p = ops.random_point(m, rng)
        q = ops.ball_point(p, rng, 1.0)
        pa, pb = m.split(p.coords)
        qa, qb = m.split(q.coords)
        d2 = h2.dist(pa, qa) ** 2 + s2.dist(pb, qb) ** 2
        assert ops.distance(p, q) ** 2 == pytest.approx(d2, abs=1e-10)
        v = ops.log_map(p, q)
        va, vb = m.split(v.components)
        np.testing.assert_allclose(va, h2.log(pa, qa), atol=1e-12)
        np.testing.assert_allclose(vb, s2.log(pb, qb), atol=1e-12)


def test_three_part_product_kernels_are_exactly_partwise():
    parts = (Hyperboloid(2), Sphere(2), SPD(2))
    m = Product(*parts)
    cuts = (slice(0, 3), slice(3, 6), slice(6, 10))

    def each(kernel, *arrays):
        return [getattr(part, kernel)(*[z[c] for z in arrays])
                for part, c in zip(parts, cuts)]

    rng = np.random.default_rng(21)
    for _ in range(20):
        p = ops.random_point(m, rng)
        q = ops.ball_point(p, rng, 0.8)
        x, y = p.coords, q.coords
        a = ops.random_tangent(p, rng, 1.0).components
        b = ops.random_tangent(p, rng, 1.0).components
        # inputs slightly off the manifold and off the tangent space
        x_off = x + 1e-9 * rng.standard_normal(m.ambient)
        a_off = a + 1e-9 * rng.standard_normal(m.ambient)
        assert [len(z) for z in m.split(x)] == [3, 3, 4]
        assert m.point_defect(x_off) == max(each("point_defect", x_off))
        assert np.array_equal(m.project(x_off), np.concatenate(each("project", x_off)))
        assert m.tangent_defect(x, a_off) == max(each("tangent_defect", x, a_off))
        assert np.array_equal(m.project_tangent(x, a_off),
                              np.concatenate(each("project_tangent", x, a_off)))
        assert np.array_equal(m.exp(x, a), np.concatenate(each("exp", x, a)))
        assert np.array_equal(m.log(x, y), np.concatenate(each("log", x, y)))
        assert np.array_equal(m.transport(x, y, a),
                              np.concatenate(each("transport", x, y, a)))
        assert m.inner(x, a, b) == sum(each("inner", x, a, b))
        assert m.dist(x, y) == float(np.sqrt(sum(d ** 2 for d in each("dist", x, y))))


def test_product_takes_its_parts_as_arguments():
    with pytest.raises(ValueError):
        Product()
    with pytest.raises(TypeError):
        Product([Sphere(2), Euclidean(1)])


# ---------------------------------------------------------------------------
# SPD oracles
# ---------------------------------------------------------------------------

def _integrate_spd_transport(man, p, q, u, steps):
    """RK4 integration of the parallel-transport ODE along t -> exp_p(t v).

    du/dt = (g' g^{-1} u + u g^{-1} g')/2 with g(t) from the kernel's exp
    only; g' by central differences on a half-step grid.
    """
    n = man.n
    v = man.log(p, q)
    h = 1.0 / steps
    grid_t = np.arange(2 * steps + 3) * (h / 2) - h / 2
    gs = np.array([man.exp(p, t * v).reshape(n, n) for t in grid_t])
    # derivative and coefficient matrix M = g' g^{-1} at each grid node
    dgs = (gs[2:] - gs[:-2]) / h
    Ms = dgs @ np.linalg.inv(gs[1:-1])

    def rhs(j, u_mat):
        M = Ms[j]
        return 0.5 * (M @ u_mat + u_mat @ M.T)

    u_mat = u.reshape(n, n).copy()
    for k in range(steps):
        j = 2 * k
        k1 = rhs(j, u_mat)
        k2 = rhs(j + 1, u_mat + 0.5 * h * k1)
        k3 = rhs(j + 1, u_mat + 0.5 * h * k2)
        k4 = rhs(j + 2, u_mat + h * k3)
        u_mat = u_mat + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u_mat.reshape(-1)


def test_spd_transport_matches_transport_equation_integration():
    man = SPD(2)
    rng = np.random.default_rng(16)
    for probe, steps in [(0, 10_000), (1, 1000), (2, 1000)]:
        p = ops.random_point(man, rng)
        q = ops.ball_point(p, rng, 1.0)
        u = ops.random_tangent(p, rng, 1.0)
        closed = man.transport(p.coords, q.coords, u.components)
        integrated = _integrate_spd_transport(man, p.coords, q.coords,
                                              u.components, steps)
        assert np.max(np.abs(closed - integrated)) < 1e-6, f"probe {probe}"


def test_spd_inner_matches_distance_expansion():
    # second-order expansion: d(p, p + eps*w)^2 = eps^2 <w,w>_p + O(eps^3),
    # recovered via polarization; symmetric +/-eps evaluation kills the
    # cubic term.
    man = SPD(2)
    rng = np.random.default_rng(17)
    eps = 1e-3

    def sqnorm(p, w):
        plus = man.dist(p, p + eps * w) ** 2
        minus = man.dist(p, p - eps * w) ** 2
        return (plus + minus) / (2 * eps ** 2)

    for _ in range(25):
        p = ops.random_point(man, rng)
        u = ops.random_tangent(p, rng, 1.0)
        v = ops.random_tangent(p, rng, 1.0)
        uc, vc = u.components, v.components
        est = (sqnorm(p.coords, uc + vc) - sqnorm(p.coords, uc - vc)) / 4.0
        assert est == pytest.approx(ops.inner(u, v), abs=1e-5)


def test_spd_exp_log_are_matrix_exponential_at_identity():
    man = SPD(2)
    eye = Point(man, man.anchor())
    w = np.array([[0.3, 0.1], [0.1, -0.2]])
    q = ops.exp_map(eye, Tangent(eye, w.reshape(-1)))
    evals, evecs = np.linalg.eigh(w)
    expw = (evecs * np.exp(evals)) @ evecs.T
    np.testing.assert_allclose(q.coords.reshape(2, 2), expw, atol=1e-14)
    back = ops.log_map(eye, q)
    np.testing.assert_allclose(back.components.reshape(2, 2), w, atol=1e-13)


# ---------------------------------------------------------------------------
# geodesic running average
# ---------------------------------------------------------------------------

def test_geodesic_average_first_point_and_flat_running_mean():
    m = Euclidean(1)
    state = GeodesicAverage()
    assert state.count == 0 and state.mean is None
    for val in (0.0, 2.0, 4.0):
        state = geodesic_average_update(state, Point(m, [val]))
    assert state.count == 3
    assert state.mean.coords[0] == pytest.approx(2.0, abs=1e-15)


def test_geodesic_average_symmetric_sphere_points_converge_to_center():
    m = Sphere(2)
    center = Point(m, [1.0, 0.0, 0.0])
    direction = np.array([0.0, 1.0, 0.0])
    state = GeodesicAverage()
    for i in range(50):                      # 100 alternating points
        t = 0.5 / (i + 1.0)
        for sign in (+1.0, -1.0):
            z = ops.exp_map(center, Tangent(center, sign * t * direction))
            state = geodesic_average_update(state, z)
    assert state.count == 100
    assert ops.distance(state.mean, center) < 1e-6


def test_geodesic_average_two_points_is_midpoint():
    m = Hyperboloid(2)
    rng = np.random.default_rng(18)
    p = ops.random_point(m, rng)
    q = ops.ball_point(p, rng, 1.0)
    state = geodesic_average_update(GeodesicAverage(), p)
    state = geodesic_average_update(state, q)
    midpoint = ops.exp_map(p, ops.log_map(p, q) * 0.5)
    assert ops.distance(state.mean, midpoint) < 1e-12


# ---------------------------------------------------------------------------
# representation contracts and tolerance policy
# ---------------------------------------------------------------------------

def test_point_tolerance_policy_on_sphere():
    m = Sphere(2)
    # defect below 1e-10: accepted unchanged
    small = np.array([1.0 + 5e-11, 0.0, 0.0])
    assert Point(m, small).coords[0] == small[0]
    # defect between 1e-10 and 1e-8: silently re-projected
    mid = np.array([1.0 + 5e-9, 0.0, 0.0])
    assert abs(np.linalg.norm(Point(m, mid).coords) - 1.0) < 1e-15
    # defect at or above 1e-8: rejected
    with pytest.raises(ContractViolation):
        Point(m, [1.0 + 2e-8, 0.0, 0.0])


def test_tangent_tolerance_policy_on_sphere():
    m = Sphere(2)
    p = Point(m, [1.0, 0.0, 0.0])
    fixed = Tangent(p, [5e-9, 1.0, 0.0])
    assert abs(float(fixed.components @ p.coords)) < 1e-15
    with pytest.raises(ContractViolation):
        Tangent(p, [2e-8, 1.0, 0.0])


def test_hyperboloid_rejects_lower_sheet_and_spd_rejects_indefinite():
    with pytest.raises(ContractViolation):
        Point(Hyperboloid(2), [-1.0, 0.0, 0.0])
    with pytest.raises(ContractViolation):
        Point(SPD(2), np.array([[1.0, 0.0], [0.0, -1.0]]).reshape(-1))


def test_base_point_mixing_is_rejected():
    m = Sphere(2)
    p = Point(m, [1.0, 0.0, 0.0])
    q = Point(m, [0.0, 1.0, 0.0])
    u = Tangent(p, [0.0, 1.0, 0.0])
    w = Tangent(q, [1.0, 0.0, 0.0])
    with pytest.raises(ContractViolation):
        _ = u + w
    with pytest.raises(ContractViolation):
        _ = u - w
    with pytest.raises(ContractViolation):
        ops.exp_map(q, u)
    with pytest.raises(ContractViolation):
        ops.transport(q, p, u)
    with pytest.raises(ContractViolation):
        ops.inner(u, w)


def test_points_from_different_manifolds_do_not_mix():
    p = Point(Euclidean(3), [0.0, 0.0, 0.0])
    q = Point(Sphere(2), [1.0, 0.0, 0.0])
    with pytest.raises(ContractViolation):
        ops.distance(p, q)


def test_sphere_injectivity_guards():
    m = Sphere(2)
    p = Point(m, [1.0, 0.0, 0.0])
    with pytest.raises(InjectivityError):
        ops.exp_map(p, Tangent(p, [0.0, math.pi, 0.0]))
    # just inside the injectivity radius is fine
    ops.exp_map(p, Tangent(p, [0.0, math.pi - 0.1, 0.0]))
    with pytest.raises(InjectivityError):
        ops.log_map(p, Point(m, [-1.0, 0.0, 0.0]))


def test_point_coordinates_are_immutable():
    p = Point(Euclidean(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        p.coords[0] = 5.0


def test_nonfinite_coordinates_are_rejected():
    with pytest.raises(ContractViolation):
        Point(Euclidean(2), [np.nan, 0.0])


# finite coordinates whose Lorentz form overflows have a NaN defect; the
# overflow warns before the refusal, hence the errstate
@pytest.mark.parametrize("m,coords", [
    (Hyperboloid(2), [1e200, 1e200, 0.0]),
    (Product(Hyperboloid(2), Sphere(2)), [1e200, 1e200, 0.0, 2.0, 0.0, 0.0]),
    (Product(Sphere(2), Hyperboloid(2)), [1.0, 0.0, 0.0, 1e200, 1e200, 0.0]),
], ids=["H2", "H2xS2-hides-sphere-defect", "S2xH2-nan-second"])
def test_nan_defect_is_refused(m, coords):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ContractViolation, match="defect nan"):
            Point(m, coords)
        with pytest.raises(ContractViolation, match="defect nan"):
            checked_points(m, np.stack([m.anchor(), coords]))


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_sampling_respects_radius(m):
    rng = np.random.default_rng(19)
    for _ in range(50):
        p = ops.random_point(m, rng)
        u = ops.random_tangent(p, rng, 0.75)
        assert u.norm() <= 0.75 + 1e-12
        q = ops.ball_point(p, rng, 0.75)
        assert ops.distance(p, q) <= 0.75 + 1e-9


def test_manifold_equality_is_structural():
    assert Sphere(2) == Sphere(2)
    assert Sphere(2) != Sphere(3)
    assert Product(Sphere(2), Euclidean(1)) == Product(Sphere(2), Euclidean(1))
    assert Sphere(2) != Hyperboloid(2)


# ---------------------------------------------------------------------------
# batch axis: one kernel serves a vector and a (k, ambient) batch
# ---------------------------------------------------------------------------

def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _batch_rows(m, k=6):
    """Stacked points x, y and tangents u, v at x; row 0 has y = x, row 1 has u = 0."""
    rng = np.random.default_rng(23)
    rows = []
    for i in range(k):
        p = ops.random_point(m, rng)
        q = p if i == 0 else ops.ball_point(p, rng, 1.0)
        u = np.zeros(m.ambient) if i == 1 else ops.random_tangent(p, rng, 1.0).components
        v = ops.random_tangent(p, rng, 1.0).components
        rows.append((p.coords, q.coords, u, v))
    x, y, u, v = (np.stack(a) for a in zip(*rows))
    off = y + 1e-9 * rng.standard_normal(y.shape)     # slightly off the manifold
    return x, y, u, v, off


BATCH_KERNELS = {
    "point_defect": lambda m, x, y, u, v, off: m.point_defect(off),
    "project": lambda m, x, y, u, v, off: m.project(off),
    "tangent_defect": lambda m, x, y, u, v, off: m.tangent_defect(x, u + 1e-9),
    "project_tangent": lambda m, x, y, u, v, off: m.project_tangent(x, u + 1e-9),
    "exp": lambda m, x, y, u, v, off: m.exp(x, u),
    "log": lambda m, x, y, u, v, off: m.log(x, y),
    "transport": lambda m, x, y, u, v, off: m.transport(x, y, v),
    "inner": lambda m, x, y, u, v, off: m.inner(x, u, v),
    "dist": lambda m, x, y, u, v, off: m.dist(x, y),
    "norm": lambda m, x, y, u, v, off: m.norm(x, u),
}


@functools.cache
def _bitwise_rows(m):
    """Read-only rows for the bitwise test.  A product gets a few thousand: a
    one-row distance squared with libm's pow differed from the batch's
    product by an ulp on about one row in 2500."""
    arrays = _batch_rows(m, 3000 if isinstance(m, Product) else 6)
    for a in arrays:
        a.setflags(write=False)
    return arrays


@pytest.mark.parametrize("kernel", sorted(BATCH_KERNELS))
@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_batch_equals_stacked_rows_bitwise(m, kernel):
    call = BATCH_KERNELS[kernel]
    arrays = _bitwise_rows(m)
    batch = call(m, *arrays)
    rows = [call(m, *(a[i] for a in arrays)) for i in range(len(arrays[0]))]
    assert _bits(batch) == _bits(np.stack(rows))
    if np.ndim(rows[0]) == 0:
        assert all(type(r) is float for r in rows)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_one_base_point_broadcasts_against_a_batch(m):
    x, y = _batch_rows(m)[:2]
    assert _bits(m.log(x[2], y)) == _bits(np.stack([m.log(x[2], row) for row in y]))


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_batch_random_tangent_draws_rows_in_order(m):
    x = _batch_rows(m)[0]
    batch = m.random_tangent(np.random.default_rng(5), x, 0.7)
    rng = np.random.default_rng(5)
    rows = [m.random_tangent(rng, row, 0.7) for row in x]
    assert _bits(batch) == _bits(np.stack(rows))


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=_ids)
def test_kernels_take_an_empty_batch(m):
    e = np.empty((0, m.ambient))
    for out in (m.log(e, e), m.exp(e, e), m.transport(e, e, e), m.project(e),
                checked_points(m, e), checked_tangents(m, e, e)):
        assert out.shape == (0, m.ambient)
    for out in (m.dist(e, e), m.norm(e, e), m.inner(e, e, e), m.point_defect(e)):
        assert out.shape == (0,)


def test_batch_minkowski_and_product_slices():
    h = Hyperboloid(2)
    x, y = _batch_rows(h)[:2]
    assert _bits(minkowski(x, y)) == _bits([minkowski(a, b) for a, b in zip(x, y)])
    m = Product(Hyperboloid(2), Sphere(2))
    z = _batch_rows(m)[0]
    parts = m.split(z)
    assert [p.shape for p in parts] == [(6, 3), (6, 3)]
    assert _bits(m.join(parts)) == _bits(z)
    assert _bits(parts[1][2]) == _bits(m.split(z[2])[1])


def test_batch_guards_fire_on_any_row():
    m = Sphere(2)
    x, y, u = _batch_rows(m)[:3]
    far = u.copy()
    far[3] *= 3.5 / np.linalg.norm(far[3])
    with pytest.raises(InjectivityError):
        m.exp(x, far)
    antipodal = y.copy()
    antipodal[4] = -x[4]
    with pytest.raises(InjectivityError):
        m.log(x, antipodal)
    spd = SPD(2)
    pts = _batch_rows(spd)[0]
    pts[2] = [1.0, 2.0, 2.0, 1.0]                    # symmetric, indefinite
    with pytest.raises(ContractViolation, match="positive definite"):
        spd.point_defect(pts)


def test_batched_contract_applies_the_defect_policy_per_row():
    m = Sphere(2)
    x = np.tile([1.0, 0.0, 0.0], (3, 1))
    v = np.array([[0.0, 0.5, 0.0], [3e-9, 0.5, 0.0], [0.0, 0.0, 0.2]])
    out = checked_tangents(m, x, v)
    assert _bits(out[[0, 2]]) == _bits(v[[0, 2]])          # accepted as-is
    assert out[1, 0] == 0.0                                   # re-projected
    for i in range(3):
        assert _bits(out[i]) == _bits(Tangent(Point(m, x[i]), v[i]).components)
    bad = v.copy()
    bad[2, 0] = 2e-6
    with pytest.raises(ContractViolation, match="2.000e-06"):
        checked_tangents(m, x, bad)
    bad[2, 0] = np.inf
    with pytest.raises(ContractViolation, match="finite"):
        checked_tangents(m, x, bad)
