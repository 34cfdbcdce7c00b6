"""Comparison-inequality validators against closed-form geometry oracles.

The holonomy check is cross-checked on constant-curvature surfaces where
the loop rotation angle is exactly the triangle's angle excess (sphere)
or angle defect (hyperbolic plane), so the transported vector must move
by 2*|sin(excess/2)| per unit length.
"""

import csv
import math

import numpy as np
import pytest

from rvikit.exceptions import ContractViolation
from rvikit.geometry import (
    CHECKS,
    MAX_ATTEMPTS_FACTOR,
    RESIDUAL_TOL,
    ProbeReport,
    cosine_law_lower_check,
    cosine_law_upper_check,
    distance_comparison_check,
    hessian_comparison_check,
    holonomy_defect,
    run_sweep,
    sample_triangles,
    write_sweep_csv,
)
from rvikit.geometry.probes import _default_leg
from rvikit.manifolds import (
    Euclidean,
    Hyperboloid,
    Point,
    Product,
    SPD,
    Sphere,
    ops,
)

CURVED = [Sphere(2), Hyperboloid(2), SPD(2)]


def _ids(m):
    return repr(m)


def _points(m, *rows):
    return [Point(m, r) for r in rows]


def _vertex_angle(at, p, q):
    u, v = ops.log_map(at, p), ops.log_map(at, q)
    cosang = ops.inner(u, v) / (u.norm() * v.norm())
    return math.acos(min(1.0, max(-1.0, cosang)))


def _angle_excess(x, y, z):
    return (_vertex_angle(x, y, z) + _vertex_angle(y, x, z)
            + _vertex_angle(z, x, y) - math.pi)


# ---------------------------------------------------------------------------
# holonomy
# ---------------------------------------------------------------------------

def test_flat_holonomy_defect_is_zero():
    m = Euclidean(3)
    rng = np.random.default_rng(0)
    x, y, z, u = sample_triangles(m, rng, 1)
    report = holonomy_defect(m, x, y, z, u)
    assert report.valid.all()
    assert (report.bound == 0.0).all()
    assert (report.details["defect"] < 1e-12).all()
    assert not report.violated.any()


@pytest.mark.parametrize("m", CURVED, ids=_ids)
def test_degenerate_triangle_has_zero_defect(m):
    rng = np.random.default_rng(1)
    x, y, _, u = sample_triangles(m, rng, 20)
    for trio in [(x, y, y), (x, x, y), (x, y, x)]:
        report = holonomy_defect(m, *trio, u)
        assert (report.details["defect"] < 1e-10).all()


def _assert_rotation_by_angle_excess(m, rng):
    x, y, z, u = sample_triangles(m, rng, 50)
    report = holonomy_defect(m, x, y, z, u)
    for i in range(50):
        excess = _angle_excess(*_points(m, x[i], y[i], z[i]))
        expected = 2.0 * abs(math.sin(excess / 2.0)) * m.norm(x[i], u[i])
        assert report.details["defect"][i] == pytest.approx(expected, abs=1e-9)


def test_sphere_holonomy_equals_angle_excess_rotation():
    _assert_rotation_by_angle_excess(Sphere(2), np.random.default_rng(2))


def test_hyperbolic_holonomy_equals_angle_defect_rotation():
    _assert_rotation_by_angle_excess(Hyperboloid(2), np.random.default_rng(3))


def test_holonomy_octant_triangle_flagged_outside_validity():
    m = Sphere(2)
    x, y, z = np.eye(3)
    report = holonomy_defect(m, x, y, z, [0.0, 1.0, 0.0])
    assert report.valid is False                 # side sums exceed 1/sqrt(K_m)
    # transporting around the octant rotates by pi/2
    assert report.details["defect"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_holonomy_requires_tangent_based_at_first_vertex():
    m = Sphere(2)
    rng = np.random.default_rng(4)
    x, y, z, _ = sample_triangles(m, rng, 3)
    at_y = m.random_tangent(rng, y, 1.0)
    with pytest.raises(ContractViolation):
        holonomy_defect(m, x[0], y[0], z[0], at_y[0])
    # one such row refuses a batch
    u = m.project_tangent(x, at_y)
    u[1] = at_y[1]
    with pytest.raises(ContractViolation):
        holonomy_defect(m, x, y, z, u)


# ---------------------------------------------------------------------------
# cosine laws
# ---------------------------------------------------------------------------

def test_flat_cosine_laws_are_equalities():
    m = Euclidean(2)
    rng = np.random.default_rng(5)
    x, y, z, _ = sample_triangles(m, rng, 100)
    low = cosine_law_lower_check(m, x, y, z)
    up = cosine_law_upper_check(m, x, y, z)
    assert (abs(low.residual) < 1e-10).all()
    assert (abs(up.residual) < 1e-10).all()


def test_flat_right_triangle_is_pythagorean():
    m = Euclidean(2)
    x, y, z = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    report = cosine_law_lower_check(m, x, y, z)
    assert report.bound == pytest.approx(25.0, abs=1e-12)   # 3^2 + 4^2
    assert report.residual == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m", CURVED, ids=_ids)
def test_cosine_laws_with_coincident_vertices(m):
    from rvikit.geometry import sigma

    rng = np.random.default_rng(6)
    x, y = (a[0] for a in sample_triangles(m, rng, 1)[:2])
    # y = x: the distortion-weighted side b vanishes, both laws collapse
    # to a^2 = c^2 exactly
    assert abs(cosine_law_lower_check(m, x, x, y).residual) < 1e-9
    assert abs(cosine_law_upper_check(m, x, x, y).residual) < 1e-9
    # z = x: the lower law is tight, the upper law keeps its curvature
    # slack b^2 (1 - sigma(K, b))
    assert abs(cosine_law_lower_check(m, x, y, x).residual) < 1e-9
    b = ops.distance(*_points(m, x, y))
    slack = b * b * (1.0 - sigma(m.curvature_hi, b))
    assert cosine_law_upper_check(m, x, y, x).residual == pytest.approx(
        slack, abs=1e-9)


def test_upper_law_flagged_beyond_conjugate_scale():
    m = Sphere(2)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([math.cos(3.0), math.sin(3.0), 0.0])
    z = np.array([math.cos(1.5), 0.0, math.sin(1.5)])
    report = cosine_law_upper_check(m, x, y, z)
    assert report.valid is False
    assert (report.residual, report.bound) == (0.0, 0.0)


def test_sphere_lower_law_has_real_slack():
    # positive curvature shrinks opposite sides, so the kappa = 1 lower
    # law should hold with visible margin on fat triangles
    m = Sphere(2)
    rng = np.random.default_rng(7)
    x, y, z, _ = sample_triangles(m, rng, 100, leg=0.2)
    worst = cosine_law_lower_check(m, x, y, z).residual.min()
    assert worst >= RESIDUAL_TOL


# ---------------------------------------------------------------------------
# transported-logarithm and tangent-space distance comparisons
# ---------------------------------------------------------------------------

def test_hessian_comparison_flat_slacks_are_zero():
    m = Euclidean(3)
    rng = np.random.default_rng(8)
    x, y, z, _ = sample_triangles(m, rng, 50)
    report = hessian_comparison_check(m, x, y, z)
    assert (abs(report.details["res_first_order"]) < 1e-10).all()
    assert (abs(report.details["res_second_order"]) < 1e-10).all()


def test_distance_comparison_flat_residual_equals_distance():
    m = Euclidean(3)
    rng = np.random.default_rng(9)
    x, y, z = (a[0] for a in sample_triangles(m, rng, 1)[:3])
    report = distance_comparison_check(m, x, y, z)
    assert report.residual == pytest.approx(ops.distance(*_points(m, x, y)), abs=1e-12)


def test_distance_comparison_flagged_on_long_hyperbolic_legs():
    m = Hyperboloid(2)
    z = m.anchor()
    x = m.exp(z, np.array([0.0, 1.2, 0.0]))
    y = m.exp(z, np.array([0.0, 0.0, 1.2]))
    assert distance_comparison_check(m, x, y, z).valid is False
    # a batch judges the valid rows and leaves the others at 0
    near = m.exp(z, np.array([0.0, 0.3, 0.0]))
    report = distance_comparison_check(m, np.stack([x, near]), np.stack([y, z]),
                                       np.stack([z, z]))
    assert report.valid.tolist() == [False, True]
    assert report.residual[0] == report.bound[0] == 0.0
    assert report.residual[1] == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("m", CURVED, ids=_ids)
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_sweeps_find_no_violations(m, check):
    rng = np.random.default_rng(10)
    summary = run_sweep(m, check, n_valid=150, rng=rng)
    assert summary.valid == 150
    assert summary.violations == 0
    assert summary.worst_residual >= RESIDUAL_TOL


# ---------------------------------------------------------------------------
# sweep bookkeeping and CSV schema
# ---------------------------------------------------------------------------

def test_sample_triangle_shape():
    m = Sphere(2)
    # a probe draws its center first, so the same seed gives the center
    center = ops.random_point(m, np.random.default_rng(11))
    x, y, z, u = sample_triangles(m, np.random.default_rng(11), 1, leg=0.15)
    assert [a.shape for a in (x, y, z, u)] == [(1, 3)] * 4
    for p in (x, y, z):
        assert ops.distance(center, Point(m, p[0])) <= 0.15 + 1e-9
    assert m.norm(x[0], u[0]) == pytest.approx(1.0, abs=1e-12)
    assert m.tangent_defect(x[0], u[0]) <= 1e-10


def test_run_sweep_row_collection():
    m = Sphere(2)
    rng = np.random.default_rng(12)
    rows = []
    summary = run_sweep(m, "cosine_law_upper", n_valid=40, rng=rng,
                        collect_rows=rows)
    assert summary.valid == 40
    assert len(rows) == summary.probes
    for row in rows:
        assert sorted(row) == ["bound", "manifold", "probe_id",
                               "residual", "valid_flag"]
        if row["valid_flag"]:
            assert isinstance(row["residual"], float)
        else:
            assert row["residual"] == ""
    flags = sum(r["valid_flag"] for r in rows)
    assert flags == summary.valid


def test_write_sweep_csv_schema(tmp_path):
    m = Hyperboloid(2)
    rng = np.random.default_rng(13)
    rows = []
    summary = run_sweep(m, "holonomy", n_valid=25, rng=rng, collect_rows=rows)
    path = tmp_path / "sweep_holonomy.csv"
    write_sweep_csv(path, rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["probe_id", "manifold", "residual", "bound", "valid_flag"]
    assert len(got) == summary.probes + 1
    for line in got[1:]:
        if line[4] == "1":
            float(line[2]), float(line[3])      # parse residual and bound


def test_sweep_csv_writes_numpy_scalars_as_plain_floats(tmp_path):
    row = {"probe_id": 0, "manifold": "S2", "residual": 0.25, "bound": 1e-17,
           "valid_flag": 1}
    write_sweep_csv(tmp_path / "plain.csv", [row])
    write_sweep_csv(tmp_path / "numpy.csv",
                    [{**row, "residual": np.float64(0.25), "bound": np.float64(1e-17)}])
    text = (tmp_path / "numpy.csv").read_text()
    assert text == (tmp_path / "plain.csv").read_text()
    assert text.splitlines()[1] == "0,S2,0.25,1e-17,1"


def test_summary_to_dict_handles_empty_sweep():
    m = Sphere(2)
    rng = np.random.default_rng(14)
    summary = run_sweep(m, "holonomy", n_valid=0, rng=rng)
    d = summary.to_dict()
    assert d["worst_residual"] is None
    assert d["probes"] == 0


def test_probe_report_violation_logic():
    bad = ProbeReport("x", residual=-1e-6, bound=0.0, valid=True)
    assert bad.violated
    invalid = ProbeReport("x", residual=-1e-6, bound=0.0, valid=False)
    assert not invalid.violated
    ok = ProbeReport("x", residual=-1e-10, bound=0.0, valid=True)
    assert not ok.violated


# ---------------------------------------------------------------------------
# the batch path against a per-probe loop over the typed layer
# ---------------------------------------------------------------------------

def _typed_probe(m, rng, leg):
    """One probe drawn with typed ops: center, the steps to x, y, z, unit u at x."""
    center = ops.random_point(m, rng)
    x, y, z = (ops.exp_map(center, ops.random_tangent(center, rng, leg))
               for _ in range(3))
    u = ops.random_tangent(x, rng, 1.0)
    nu = u.norm()
    return x, y, z, (u * (1.0 / nu) if nu > 1e-12 else u)


def _k_m(m):
    return max(abs(m.curvature_lo), abs(m.curvature_hi))


def _typed_triangle(x, y, z):
    b, c, a = ops.distance(x, y), ops.distance(x, z), ops.distance(y, z)
    vy, vz = ops.log_map(x, y), ops.log_map(x, z)
    if b < 1e-14 or c < 1e-14:
        return a, b, c, 0.0
    return a, b, c, math.acos(min(1.0, max(-1.0, ops.inner(vy, vz) / (b * c))))


def _typed_holonomy(x, y, z, u):
    d_xy, d_yz, d_xz = ops.distance(x, y), ops.distance(y, z), ops.distance(x, z)
    w = ops.transport(z, x, ops.transport(y, z, ops.transport(x, y, u)))
    k_m = _k_m(x.manifold)
    pathsum = min(d_xy + d_yz, d_xz + d_yz)
    bound = 36.0 * k_m * u.norm() * pathsum * d_yz
    valid = k_m == 0.0 or pathsum <= 1.0 / math.sqrt(k_m)
    return valid, bound - (w - u).norm(), bound


def _typed_cosine_lower(x, y, z, u):
    from rvikit.geometry import zeta

    a, b, c, angle = _typed_triangle(x, y, z)
    rhs = zeta(x.manifold.curvature_lo, c) * b * b + c * c - 2.0 * b * c * math.cos(angle)
    return True, rhs - a * a, rhs


def _typed_cosine_upper(x, y, z, u):
    from rvikit.geometry import sigma

    a, b, c, angle = _typed_triangle(x, y, z)
    K = x.manifold.curvature_hi
    scale = b + min(a, c)
    if K > 0.0 and scale >= math.pi / math.sqrt(K):
        return False, 0.0, 0.0
    rhs = sigma(K, scale) * b * b + c * c - 2.0 * b * c * math.cos(angle)
    return True, a * a - rhs, rhs


def _typed_hessian(x, y, z, u):
    from rvikit.geometry import sigma, zeta

    d_xz = ops.distance(x, z)
    tau = d_xz + min(ops.distance(x, y), ops.distance(z, y))
    kappa, K = x.manifold.curvature_lo, x.manifold.curvature_hi
    if K > 0.0 and tau >= math.pi / math.sqrt(K):
        return False, 0.0, 0.0
    diff = ops.log_map(x, y) - ops.transport(z, x, ops.log_map(z, y))
    z_t, s_t = zeta(kappa, tau), sigma(K, tau)
    bound1, bound2 = z_t * d_xz, max(z_t - 1.0, 1.0 - s_t) * d_xz
    res1 = bound1 - diff.norm()
    res2 = bound2 - (diff - ops.log_map(x, z)).norm()
    return True, min(res1, res2), max(bound1, bound2)


def _typed_distance(x, y, z, u):
    kappa, K = x.manifold.curvature_lo, x.manifold.curvature_hi
    d_zx, d_zy, d_xy = ops.distance(z, x), ops.distance(z, y), ops.distance(x, y)
    if ((kappa < 0.0 and max(d_zx, d_zy) > 1.0 / math.sqrt(-kappa))
            or (K > 0.0 and max(d_zx, d_zy, d_xy) >= math.pi / math.sqrt(K))):
        return False, 0.0, 0.0
    gap = (ops.log_map(z, x) - ops.log_map(z, y)).norm()
    return True, 2.0 * gap - d_xy, 2.0 * gap


TYPED_CHECKS = {
    "holonomy": _typed_holonomy,
    "cosine_law_lower": _typed_cosine_lower,
    "cosine_law_upper": _typed_cosine_upper,
    "hessian_comparison": _typed_hessian,
    "distance_comparison": _typed_distance,
}


def _typed_sweep(m, check, n_valid, rng, leg):
    """(valid, residual, bound) per probe, one probe at a time, with run_sweep's stop rule."""
    out, valid = [], 0
    while valid < n_valid and len(out) < MAX_ATTEMPTS_FACTOR * max(n_valid, 1):
        ok, res, bound = TYPED_CHECKS[check](*_typed_probe(m, rng, leg))
        out.append((ok, res, bound))
        valid += ok
    return out


def _bits(v):
    return v if v == "" else float(v).hex()


PROBE_MANIFOLDS = [Sphere(2), Hyperboloid(2), SPD(2), Euclidean(3),
                   Product(Hyperboloid(2), Sphere(2))]


@pytest.mark.parametrize("leg,n_valid", [(None, 200), (1.2, 60)])
@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("m", PROBE_MANIFOLDS, ids=_ids)
def test_batched_sweep_equals_per_probe_typed_loop(m, check, leg, n_valid):
    """Same probes, valid flags and violation counts, and bitwise the same
    residuals and bounds (0 ulps) on every valid probe.  Legs of 1.2 put
    probes past the preconditions, so chunks mix valid and invalid rows."""
    rows = []
    summary = run_sweep(m, check, n_valid, np.random.default_rng(31), leg=leg,
                        collect_rows=rows)
    want = _typed_sweep(m, check, n_valid, np.random.default_rng(31),
                        leg if leg is not None else _default_leg(m))
    assert summary.probes == len(rows) == len(want)
    assert [r["valid_flag"] for r in rows] == [int(ok) for ok, _, _ in want]
    assert ([(_bits(r["residual"]), _bits(r["bound"])) for r in rows]
            == [(_bits(res), _bits(b)) if ok else ("", "") for ok, res, b in want])
    assert summary.violations == sum(ok and res < RESIDUAL_TOL for ok, res, _ in want)
    assert summary.valid == sum(ok for ok, _, _ in want)


def test_sweep_stops_at_the_attempt_limit_like_the_loop():
    # legs of up to 3 from z on H2 pass the 1/sqrt(-kappa) precondition rarely
    m = Hyperboloid(2)
    rows = []
    summary = run_sweep(m, "distance_comparison", 10, np.random.default_rng(32),
                        leg=3.0, collect_rows=rows)
    want = _typed_sweep(m, "distance_comparison", 10, np.random.default_rng(32), 3.0)
    assert summary.probes == len(want) == 10 * MAX_ATTEMPTS_FACTOR
    assert summary.valid == sum(ok for ok, _, _ in want) < 10
    assert [r["valid_flag"] for r in rows] == [int(ok) for ok, _, _ in want]


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("m", PROBE_MANIFOLDS, ids=_ids)
def test_one_probe_gives_python_scalars_equal_to_its_batch_row(m, check):
    fn = CHECKS[check]
    x, y, z, u = sample_triangles(m, np.random.default_rng(33), 8, leg=1.2)
    extra = (u,) if check == "holonomy" else ()
    batch = fn(m, x, y, z, *extra)
    for i in range(8):
        one = fn(m, x[i], y[i], z[i], *(a[i] for a in extra))
        assert type(one.residual) is float and type(one.bound) is float
        assert type(one.valid) is bool
        assert (one.valid, _bits(one.residual), _bits(one.bound)) == (
            batch.valid[i], _bits(batch.residual[i]), _bits(batch.bound[i]))
