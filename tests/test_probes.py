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
    RESIDUAL_TOL,
    ProbeReport,
    cosine_law_lower_check,
    cosine_law_upper_check,
    distance_comparison_check,
    hessian_comparison_check,
    holonomy_defect,
    run_sweep,
    sample_triangle,
    write_sweep_csv,
)
from rvikit.manifolds import (
    Euclidean,
    Hyperboloid,
    Point,
    SPD,
    Sphere,
    Tangent,
    ops,
)

CURVED = [Sphere(2), Hyperboloid(2), SPD(2)]


def _ids(m):
    return repr(m)


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
    x, y, z, u = sample_triangle(m, rng)
    report = holonomy_defect(x, y, z, u)
    assert report.valid
    assert report.bound == 0.0
    assert report.details["defect"] < 1e-12
    assert not report.violated


@pytest.mark.parametrize("m", CURVED, ids=_ids)
def test_degenerate_triangle_has_zero_defect(m):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y, _, u = sample_triangle(m, rng)
        for trio in [(x, y, y), (x, x, y), (x, y, x)]:
            report = holonomy_defect(*trio, u)
            assert report.details["defect"] < 1e-10


def test_sphere_holonomy_equals_angle_excess_rotation():
    m = Sphere(2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y, z, u = sample_triangle(m, rng)
        report = holonomy_defect(x, y, z, u)
        expected = 2.0 * abs(math.sin(_angle_excess(x, y, z) / 2.0)) * u.norm()
        assert report.details["defect"] == pytest.approx(expected, abs=1e-9)


def test_hyperbolic_holonomy_equals_angle_defect_rotation():
    m = Hyperboloid(2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y, z, u = sample_triangle(m, rng)
        report = holonomy_defect(x, y, z, u)
        expected = 2.0 * abs(math.sin(_angle_excess(x, y, z) / 2.0)) * u.norm()
        assert report.details["defect"] == pytest.approx(expected, abs=1e-9)


def test_holonomy_octant_triangle_flagged_outside_validity():
    m = Sphere(2)
    x = Point(m, [1.0, 0.0, 0.0])
    y = Point(m, [0.0, 1.0, 0.0])
    z = Point(m, [0.0, 0.0, 1.0])
    u = Tangent(x, [0.0, 1.0, 0.0])
    report = holonomy_defect(x, y, z, u)
    assert not report.valid                      # side sums exceed 1/sqrt(K_m)
    # transporting around the octant rotates by pi/2
    assert report.details["defect"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_holonomy_requires_tangent_based_at_first_vertex():
    m = Sphere(2)
    rng = np.random.default_rng(4)
    x, y, z, _ = sample_triangle(m, rng)
    with pytest.raises(ContractViolation):
        holonomy_defect(x, y, z, ops.random_tangent(y, rng, 1.0))


# ---------------------------------------------------------------------------
# cosine laws
# ---------------------------------------------------------------------------

def test_flat_cosine_laws_are_equalities():
    m = Euclidean(2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y, z, _ = sample_triangle(m, rng)
        low = cosine_law_lower_check(x, y, z)
        up = cosine_law_upper_check(x, y, z)
        assert abs(low.residual) < 1e-10
        assert abs(up.residual) < 1e-10


def test_flat_right_triangle_is_pythagorean():
    m = Euclidean(2)
    x = Point(m, [0.0, 0.0])
    y = Point(m, [3.0, 0.0])
    z = Point(m, [0.0, 4.0])
    report = cosine_law_lower_check(x, y, z)
    assert report.bound == pytest.approx(25.0, abs=1e-12)   # 3^2 + 4^2
    assert report.residual == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m", CURVED, ids=_ids)
def test_cosine_laws_with_coincident_vertices(m):
    from rvikit.geometry import sigma

    rng = np.random.default_rng(6)
    x, y, _, _ = sample_triangle(m, rng)
    # y = x: the distortion-weighted side b vanishes, both laws collapse
    # to a^2 = c^2 exactly
    assert abs(cosine_law_lower_check(x, x, y).residual) < 1e-9
    assert abs(cosine_law_upper_check(x, x, y).residual) < 1e-9
    # z = x: the lower law is tight, the upper law keeps its curvature
    # slack b^2 (1 - sigma(K, b))
    assert abs(cosine_law_lower_check(x, y, x).residual) < 1e-9
    b = ops.distance(x, y)
    slack = b * b * (1.0 - sigma(m.curvature_hi, b))
    assert cosine_law_upper_check(x, y, x).residual == pytest.approx(
        slack, abs=1e-9)


def test_upper_law_flagged_beyond_conjugate_scale():
    m = Sphere(2)
    x = Point(m, [1.0, 0.0, 0.0])
    y = Point(m, [math.cos(3.0), math.sin(3.0), 0.0])
    z = Point(m, [math.cos(1.5), 0.0, math.sin(1.5)])
    report = cosine_law_upper_check(x, y, z)
    assert not report.valid


def test_sphere_lower_law_has_real_slack():
    # positive curvature shrinks opposite sides, so the kappa = 1 lower
    # law should hold with visible margin on fat triangles
    m = Sphere(2)
    rng = np.random.default_rng(7)
    worst = math.inf
    for _ in range(100):
        x, y, z, _ = sample_triangle(m, rng, leg=0.2)
        worst = min(worst, cosine_law_lower_check(x, y, z).residual)
    assert worst >= RESIDUAL_TOL


# ---------------------------------------------------------------------------
# transported-logarithm and tangent-space distance comparisons
# ---------------------------------------------------------------------------

def test_hessian_comparison_flat_slacks_are_zero():
    m = Euclidean(3)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y, z, _ = sample_triangle(m, rng)
        report = hessian_comparison_check(x, y, z)
        assert abs(report.details["res_first_order"]) < 1e-10
        assert abs(report.details["res_second_order"]) < 1e-10


def test_distance_comparison_flat_residual_equals_distance():
    m = Euclidean(3)
    rng = np.random.default_rng(9)
    x, y, z, _ = sample_triangle(m, rng)
    report = distance_comparison_check(x, y, z)
    assert report.residual == pytest.approx(ops.distance(x, y), abs=1e-12)


def test_distance_comparison_flagged_on_long_hyperbolic_legs():
    m = Hyperboloid(2)
    z = Point(m, m.anchor())
    x = ops.exp_map(z, Tangent(z, [0.0, 1.2, 0.0]))
    y = ops.exp_map(z, Tangent(z, [0.0, 0.0, 1.2]))
    assert not distance_comparison_check(x, y, z).valid


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
    rng = np.random.default_rng(11)
    center = ops.random_point(m, rng)
    x, y, z, u = sample_triangle(m, rng, leg=0.15, center=center)
    for p in (x, y, z):
        assert ops.distance(center, p) <= 0.15 + 1e-9
    assert u.norm() == pytest.approx(1.0, abs=1e-12)
    assert u.base.same_base(x)


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
