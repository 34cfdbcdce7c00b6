"""Step rules and the instrumented driver.

Flat-space oracles: every update rule is checked against hand-computed
two-step sequences and against plain numpy reference loops of the
corresponding Euclidean method; curved runs are checked against the
per-step inequalities their step sizes are supposed to certify.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from rvikit.exceptions import ConfigError, ContractViolation, SolverAbort
from rvikit.geometry import (
    derive_bounds,
    step_size_rceg,
    step_size_reg,
    step_size_rpeg,
)
from rvikit.manifolds import Euclidean, Point, Sphere, Tangent, ops
from rvikit.problems import VectorFieldProblem, make_problem, split_saddle
from rvikit.solvers import (
    CSV_COLUMNS,
    IterateRecord,
    SolverConfig,
    auto_eta,
    initial_point,
    reg_step,
    rceg_step,
    rgda_step,
    rogda_step,
    rpeg_step,
    run,
)


def _contraction_problem():
    """F(z) = z on the real line: every method contracts toward 0."""
    m = Euclidean(1)
    return VectorFieldProblem(
        name="contraction", manifold=m,
        field=lambda z: Tangent(z, z.coords.copy()),
        solution=Point(m, [0.0]), region_radius=2.0,
        lipschitz=1.0, grad_bound=2.4)


def _matrix_problem(rng, d=3):
    """Bilinear problem with a dense random coupling, for flat reductions."""
    A = rng.normal(size=(d, d))
    return make_problem("euclidean_bilinear", matrix=A), A


def _flat_F(A, v):
    x, y = v[: A.shape[0]], v[A.shape[0]:]
    return np.concatenate([A @ y, -A.T @ x])


# ---------------------------------------------------------------------------
# hand-computed sequences, F(z) = z, eta = 0.1
# ---------------------------------------------------------------------------

def test_reg_step_hand_sequence():
    prob = _contraction_problem()
    z0 = Point(prob.manifold, [1.0])
    z_tilde, z1 = reg_step(prob, z0, 0.1, prob.field(z0), None)[:2]
    assert z_tilde.coords[0] == pytest.approx(0.9, abs=1e-15)
    assert z1.coords[0] == pytest.approx(0.91, abs=1e-15)


def test_rpeg_step_two_hand_iterations():
    prob = _contraction_problem()
    z0 = Point(prob.manifold, [1.0])
    z_tilde0, z1 = rpeg_step(prob, z0, 0.1, None,
                             (z0, prob.field(z0)))[:2]      # z~_{-1} = z0
    assert z_tilde0.coords[0] == pytest.approx(0.9, abs=1e-15)
    assert z1.coords[0] == pytest.approx(0.91, abs=1e-15)
    z_tilde1, z2 = rpeg_step(prob, z1, 0.1, None,
                             (z_tilde0, prob.field(z_tilde0)))[:2]
    assert z_tilde1.coords[0] == pytest.approx(0.82, abs=1e-15)
    assert z2.coords[0] == pytest.approx(0.828, abs=1e-15)


def test_rceg_step_hand_value():
    prob = _contraction_problem()
    z0 = Point(prob.manifold, [1.0])
    z_tilde, z1 = rceg_step(prob, z0, 0.1, prob.field(z0), None)[:2]
    assert z_tilde.coords[0] == pytest.approx(0.9, abs=1e-15)
    assert z1.coords[0] == pytest.approx(0.91, abs=1e-15)


def test_rogda_step_hand_value():
    prob = _contraction_problem()
    z0 = Point(prob.manifold, [1.0])
    z1 = rogda_step(prob, z0, 0.1, prob.field(z0),
                    (z0, prob.field(z0))).z_next      # 1 - 0.2 + 0.1
    assert z1.coords[0] == pytest.approx(0.9, abs=1e-15)


def test_rgda_step_hand_value():
    prob = _contraction_problem()
    z0 = Point(prob.manifold, [1.0])
    z1 = rgda_step(prob, z0, 0.1, prob.field(z0), None).z_next
    assert z1.coords[0] == pytest.approx(0.9, abs=1e-15)


def test_all_steps_fix_the_solution():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    z = prob.solution
    eta = 0.05
    f = prob.field(z)
    for z_new in [reg_step(prob, z, eta, f, None).z_next,
                  rpeg_step(prob, z, eta, None, (z, f)).z_next,
                  rceg_step(prob, z, eta, f, None).z_next,
                  rogda_step(prob, z, eta, f, (z, f)).z_next,
                  rgda_step(prob, z, eta, f, None).z_next]:
        assert ops.distance(z_new, z) < 1e-12


def test_rgda_rotation_field_norm_grows_exactly():
    rng = np.random.default_rng(0)
    prob = make_problem("euclidean_bilinear", matrix=np.array([[1.0]]))
    z = Point(prob.manifold, rng.normal(size=2))
    eta = 0.3
    for _ in range(50):
        z_new = rgda_step(prob, z, eta, prob.field(z), None).z_next
        grew = np.linalg.norm(z_new.coords) ** 2
        want = (1.0 + eta ** 2) * np.linalg.norm(z.coords) ** 2
        assert grew == pytest.approx(want, rel=1e-14)
        z = z_new


# ---------------------------------------------------------------------------
# flat reductions to the classical updates
# ---------------------------------------------------------------------------

def test_reg_reduces_to_flat_extragradient():
    rng = np.random.default_rng(1)
    prob, A = _matrix_problem(rng)
    for _ in range(100):
        v = rng.normal(size=6)
        eta = float(rng.uniform(0.01, 0.5))
        z = Point(prob.manifold, v)
        z_new = reg_step(prob, z, eta, prob.field(z), None).z_next
        v_tilde = v - eta * _flat_F(A, v)
        want = v - eta * _flat_F(A, v_tilde)
        np.testing.assert_allclose(z_new.coords, want, atol=1e-14)


def test_rceg_reduces_to_flat_extragradient():
    rng = np.random.default_rng(2)
    prob, A = _matrix_problem(rng)
    for _ in range(100):
        v = rng.normal(size=6)
        eta = float(rng.uniform(0.01, 0.5))
        z = Point(prob.manifold, v)
        z_new = rceg_step(prob, z, eta, prob.field(z), None).z_next
        v_tilde = v - eta * _flat_F(A, v)
        want = v - eta * _flat_F(A, v_tilde)
        np.testing.assert_allclose(z_new.coords, want, atol=1e-14)


def test_rpeg_reduces_to_flat_past_extragradient():
    rng = np.random.default_rng(3)
    prob, A = _matrix_problem(rng)
    eta = 0.1
    v = rng.normal(size=6)
    z = Point(prob.manifold, v)
    tilde_prev = z
    v_tilde_prev = v.copy()
    for _ in range(200):
        z_tilde, z_new = rpeg_step(prob, z, eta, None,
                                   (tilde_prev, prob.field(tilde_prev)))[:2]
        v_tilde = v - eta * _flat_F(A, v_tilde_prev)
        v_new = v - eta * _flat_F(A, v_tilde)
        np.testing.assert_allclose(z_tilde.components
                                   if hasattr(z_tilde, "components")
                                   else z_tilde.coords, v_tilde, atol=1e-12)
        np.testing.assert_allclose(z_new.coords, v_new, atol=1e-12)
        z, tilde_prev = z_new, z_tilde
        v, v_tilde_prev = v_new, v_tilde


def test_rogda_reduces_to_flat_optimistic_update():
    rng = np.random.default_rng(4)
    prob, A = _matrix_problem(rng)
    eta = 0.08
    w = rng.normal(size=6)
    z = Point(prob.manifold, w)
    z_prev = z
    w_prev = w.copy()
    for _ in range(200):
        z_new = rogda_step(prob, z, eta, prob.field(z),
                           (z_prev, prob.field(z_prev))).z_next
        w_new = w - 2.0 * eta * _flat_F(A, w) + eta * _flat_F(A, w_prev)
        np.testing.assert_allclose(z_new.coords, w_new, atol=1e-12)
        z_prev, z = z, z_new
        w_prev, w = w, w_new


# ---------------------------------------------------------------------------
# per-step certificates along real runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maker,kwargs", [
    ("euclidean_bilinear", {"dim": 8}),
    ("decoupled_saddle", {"manifold": "h2*h2"}),
])
def test_reg_half_iterate_sandwich_and_proximity(maker, kwargs):
    prob = make_problem(maker, **kwargs)
    L = prob.lipschitz
    eta = step_size_reg(prob.bounds())
    z = initial_point(prob, SolverConfig(seed=5))
    for _ in range(200):
        f_z = prob.field(z)
        z_tilde, z_new = reg_step(prob, z, eta, f_z, None)[:2]
        f_tilde_norm = prob.field(z_tilde).norm()
        lo = (1.0 - L * eta) * f_z.norm() - 1e-10
        hi = (1.0 + L * eta) * f_z.norm() + 1e-10
        assert lo <= f_tilde_norm <= hi
        assert (ops.distance(z_tilde, z_new)
                <= 2.0 * L * eta ** 2 * f_z.norm() + 1e-10)
        z = z_new


def test_rpeg_half_iterate_norm_ratio():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    eta = step_size_rpeg(prob.bounds())
    assert eta <= 1.0 / (8.0 * prob.lipschitz)
    z = initial_point(prob, SolverConfig(seed=6))
    tilde_prev = z
    prev_norm = None
    for _ in range(300):
        z_tilde, z_new = rpeg_step(prob, z, eta, None,
                                   (tilde_prev, prob.field(tilde_prev)))[:2]
        norm = prob.field(z_tilde).norm()
        if prev_norm is not None and prev_norm > 1e-12:
            ratio = norm / prev_norm
            assert 0.5 - 1e-10 <= ratio <= 1.5 + 1e-10
        prev_norm = norm
        z, tilde_prev = z_new, z_tilde


# ---------------------------------------------------------------------------
# driver: traces, instruments, bookkeeping
# ---------------------------------------------------------------------------

def test_run_from_solution_is_stationary():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    trace = run(prob, SolverConfig(method="REG", T=1), z0=prob.solution)
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.op_norm < 1e-8
    assert rec.dist < 1e-8
    assert trace.total_violations() == 0


def test_record_schedule_and_sorted_t():
    prob = make_problem("euclidean_bilinear", dim=4)
    trace = run(prob, SolverConfig(method="REG", T=100, record_every=7))
    ts = [r.t for r in trace.records]
    assert ts == sorted(ts)
    assert ts[-1] == 100
    assert len(ts) == 100 // 7 + 1          # every 7th step plus the last


@pytest.mark.parametrize("method,evals", [
    ("REG", 2 * 40 + 1), ("RPEG", 40 + 2), ("RCEG", 2 * 40 + 1),
    ("ROGDA", 40 + 1), ("RGDA", 40 + 1),
], ids=["REG", "RPEG", "RCEG", "ROGDA", "RGDA"])
def test_field_evaluations_per_iteration(method, evals):
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    T = 40
    config = SolverConfig(method=method, T=T, record_every=10 ** 6,
                          instruments=frozenset())
    before = prob.evals                     # construction-gate evaluations
    trace = run(prob, config)
    # F(z_0), then the method's fresh evaluations; RPEG alone needs no F(z_t)
    # until the final record, so it makes one evaluation per iteration
    assert prob.evals - before == evals
    assert trace.field_evals == evals
    # a second run on the same problem counts only its own evaluations
    again = run(prob, config)
    assert again.field_evals == evals


def _flat_recursion(method, A, v0, eta, T):
    """Plain-numpy iterates z_1..z_T of the Euclidean method on F = (Ay, -A^T x)."""
    v, v_prev = v0.copy(), v0.copy()      # v_prev: past half-iterate / iterate
    out = []
    for _ in range(T):
        if method in ("REG", "RCEG"):
            v_new = v - eta * _flat_F(A, v - eta * _flat_F(A, v))
        elif method == "RPEG":
            v_prev = v - eta * _flat_F(A, v_prev)
            v_new = v - eta * _flat_F(A, v_prev)
        elif method == "ROGDA":
            v_new = v - 2.0 * eta * _flat_F(A, v) + eta * _flat_F(A, v_prev)
            v_prev = v
        else:  # RGDA
            v_new = v - eta * _flat_F(A, v)
        v = v_new
        out.append(v)
    return out


@pytest.mark.parametrize("method", ["REG", "RPEG", "RCEG", "ROGDA", "RGDA"])
def test_driver_matches_flat_recursion(method):
    rng = np.random.default_rng(11)
    prob, A = _matrix_problem(rng)
    v0 = rng.normal(size=6)
    v0 *= 0.5 * prob.region_radius / np.linalg.norm(v0)
    eta, T = 0.1 / prob.lipschitz, 60
    trace = run(prob, SolverConfig(method=method, T=T, eta=eta, record_every=3),
                z0=Point(prob.manifold, v0))
    want = _flat_recursion(method, A, v0, eta, T)
    assert [r.t for r in trace.records] == list(range(3, T + 1, 3))
    for rec in trace.records:
        v = want[rec.t - 1]
        assert rec.dist == pytest.approx(np.linalg.norm(v), rel=0, abs=1e-12)
        assert rec.op_norm == pytest.approx(np.linalg.norm(_flat_F(A, v)),
                                            rel=0, abs=1e-12)
    np.testing.assert_allclose(trace.final.coords, want[-1], rtol=0, atol=1e-12)


def test_reg_run_zero_violations_on_flat_bilinear():
    prob = make_problem("euclidean_bilinear")
    trace = run(prob, SolverConfig(method="REG", T=2000, record_every=100))
    assert trace.violations["norm_monotone"] == 0
    assert trace.violations["boundedness"] == 0
    assert not trace.aborted


def test_rpeg_run_lyapunov_descends_and_contracts():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    cfg = SolverConfig(method="RPEG", T=2000, record_every=50)
    z0 = initial_point(prob, cfg)
    trace = run(prob, cfg, z0=z0)
    assert trace.violations["lyapunov"] == 0
    assert trace.violations["boundedness"] == 0
    assert trace.lyapunov_lambda == pytest.approx(trace.bounds.sigma_bar / 16.0)
    d0 = ops.distance(z0, prob.solution)
    assert trace.records[-1].dist < d0
    for rec in trace.records:
        assert rec.phi is not None
        assert rec.phi >= rec.dist ** 2 - 1e-12
    # terminal norm obeys the 16 D^2 / (sigma_bar T eta^2) certificate
    assert trace.records[-1].op_norm ** 2 <= trace.final_bound_rhs() + 1e-12


def test_gap_recording_on_saddle_problem():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    trace = run(prob, SolverConfig(method="REG", T=50, record_every=10,
                                   gaps=True))
    for rec in trace.records:
        assert rec.gap_last is not None and rec.gap_last >= 0.0
        assert rec.gap_avg is not None and rec.gap_avg >= 0.0
        # the Hamiltonian is read off the field evaluated for op_norm
        assert rec.hamiltonian == rec.op_norm ** 2
    # gaps shrink toward the saddle over the run
    assert trace.records[-1].gap_last < trace.records[0].gap_last


def test_gap_estimate_flags_are_counted_apart_from_violations(monkeypatch):
    run_mod = sys.modules["rvikit.solvers.run"]
    real_gap, estimates = run_mod.duality_gap, []

    def short_gap(*args, **kwargs):     # two ascent steps never converge
        estimates.append(real_gap(*args, **kwargs, max_steps=2))
        return estimates[-1]

    monkeypatch.setattr(run_mod, "duality_gap", short_gap)
    prob = make_problem("hyperbolic_rmean_saddle")
    x_star, y_star = split_saddle(prob.solution)
    u = ops.random_tangent(x_star, np.random.default_rng(18), 1.0)
    x0 = ops.exp_map(x_star, u * (prob.region_radius / u.norm()))   # past the gap ball
    z0 = Point(prob.manifold, prob.manifold.join([x0.coords, y_star.coords]))
    trace = run(prob, SolverConfig(method="REG", T=4, gaps=True), z0=z0)

    assert len(estimates) == 2 * len(trace.records)
    assert trace.gap_unconverged == sum(not e.converged for e in estimates) > 0
    assert trace.gap_out_of_domain == sum(not e.in_domain for e in estimates) > 0
    s = trace.summary()
    assert (s["gap_unconverged"], s["gap_out_of_domain"]) == (
        trace.gap_unconverged, trace.gap_out_of_domain)
    assert set(trace.violations) == {"norm_monotone", "lyapunov", "boundedness",
                                     "holonomy"}
    assert s["total_violations"] == 0


def test_holonomy_probe_instrumentation():
    prob = make_problem("sphere_bilinear")
    trace = run(prob, SolverConfig(method="REG", T=50, holonomy_probes=True))
    assert trace.violations["holonomy"] == 0


def test_violations_are_counted_and_flagged():
    prob = make_problem("euclidean_bilinear")
    # deliberately oversized step: norm monotonicity must break, every step,
    # until ||F|| overflows and the run aborts instead of going blind
    with pytest.raises(SolverAbort) as err:
        run(prob, SolverConfig(method="REG", T=200, record_every=1,
                               eta=3.0 / prob.lipschitz))
    trace = err.value.trace
    steps = len(trace.records)
    assert 0 < steps < 200
    assert trace.violations["norm_monotone"] == steps
    assert all(r.violation_flags & 1 for r in trace.records)
    assert trace.total_violations() == sum(trace.violations.values())
    assert "overflow" in trace.abort_reason


def test_divergent_baseline_breaks_boundedness():
    prob = make_problem("euclidean_bilinear")
    trace = run(prob, SolverConfig(method="RGDA", T=300, eta=0.2,
                                   instruments=frozenset({"boundedness"})))
    assert trace.violations["boundedness"] > 0


def test_rogda_and_rgda_have_no_default_instruments():
    prob = make_problem("euclidean_bilinear")
    for method in ("ROGDA", "RGDA"):
        trace = run(prob, SolverConfig(method=method, T=20))
        assert trace.total_violations() == 0
        assert trace.lyapunov_lambda is None


def test_auto_eta_dispatch():
    b = derive_bounds(0.0, 0.0, 1.0, 2.0, 1.0)
    assert auto_eta("REG", b) == step_size_reg(b)
    assert auto_eta("RGDA", b) == step_size_reg(b)
    assert auto_eta("RPEG", b) == step_size_rpeg(b)
    assert auto_eta("ROGDA", b) == step_size_rpeg(b)
    assert auto_eta("RCEG", b) == step_size_rceg(b)
    with pytest.raises(ConfigError):
        auto_eta("XYZ", b)


def test_initial_point_distance_and_determinism():
    prob = make_problem("decoupled_saddle", manifold="h2*h2")
    cfg = SolverConfig(seed=7, init_radius_frac=0.9)
    z_a = initial_point(prob, cfg)
    z_b = initial_point(prob, cfg)
    np.testing.assert_array_equal(z_a.coords, z_b.coords)
    assert ops.distance(z_a, prob.solution) == pytest.approx(
        0.9 * prob.region_radius, rel=1e-12)
    z_c = initial_point(prob, SolverConfig(seed=8))
    assert ops.distance(z_a, z_c) > 1e-6


def test_run_config_validation():
    prob = make_problem("euclidean_bilinear", dim=4)
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(method="NOPE", T=10))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=0))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, eta=-0.1))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, record_every=0))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, instruments=frozenset({"norm_monotne"})))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=True))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, seed=True))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, eta="abc"))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, gaps=1))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, init_radius_frac="abc"))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, init_radius_frac=-1.0))
    with pytest.raises(ConfigError):
        run(prob, SolverConfig(T=10, init_radius_frac=5.0,
                               instruments=frozenset()))


def test_run_rejects_out_of_region_start_when_instrumented():
    prob = make_problem("euclidean_bilinear", dim=4)
    far = Point(prob.manifold, 2.0 * np.ones(8) / math.sqrt(8.0)
                * prob.region_radius)
    with pytest.raises(ContractViolation):
        run(prob, SolverConfig(method="REG", T=5), z0=far)


def test_solver_abort_carries_partial_trace():
    m = Sphere(2)

    def runaway(z: Point) -> Tangent:
        return Tangent(z, m.project_tangent(z.coords, 100.0 * np.eye(3)[1]))

    prob = VectorFieldProblem(name="runaway", manifold=m, field=runaway,
                              solution=None, region_radius=1.0,
                              lipschitz=1.0, grad_bound=100.0)
    z0 = Point(m, [1.0, 0.0, 0.0])
    with pytest.raises(SolverAbort) as err:
        run(prob, SolverConfig(method="REG", T=10, eta=0.1,
                               instruments=frozenset()), z0=z0)
    trace = err.value.trace
    assert trace is not None
    assert trace.aborted
    assert trace.abort_reason == str(err.value)
    assert trace.field_evals >= 1


def test_overflowing_iterate_aborts_with_full_trace():
    m = Euclidean(2)
    prob = VectorFieldProblem(
        name="blowup", manifold=m,
        field=lambda z: Tangent(z, np.full(2, 1e300)),
        solution=None, region_radius=1.0, lipschitz=1.0, grad_bound=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverAbort) as err:
            run(prob, SolverConfig(method="RGDA", T=5, eta=1e10),
                z0=Point(m, [0.0, 0.0]))
    assert [str(w.message) for w in caught] == []   # the abort is the report
    trace = err.value.trace
    assert trace.aborted
    assert "finite" in trace.abort_reason
    assert trace.field_evals == 1           # F(z_0) only; the step overflows
    assert trace.violations == {"norm_monotone": 0, "lyapunov": 0,
                                "boundedness": 0, "holonomy": 0}


def test_trace_metric_extraction():
    prob = make_problem("euclidean_bilinear", dim=4)
    trace = run(prob, SolverConfig(method="REG", T=30, record_every=10))
    ts = trace.ts()
    assert list(ts) == [10.0, 20.0, 30.0]
    assert len(trace.metric("op_norm")) == 3
    assert np.isnan(trace.metric("phi")).all()      # REG records no phi


def test_trace_csv_deterministic(tmp_path):
    prob_a = make_problem("decoupled_saddle", manifold="h2*h2")
    prob_b = make_problem("decoupled_saddle", manifold="h2*h2")
    cfg = SolverConfig(method="RPEG", T=100, record_every=9, seed=3)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(prob_a, cfg).to_csv(path_a)
    run(prob_b, cfg).to_csv(path_b)
    bytes_a = path_a.read_bytes()
    assert bytes_a == path_b.read_bytes()
    header = bytes_a.decode().splitlines()[0]
    assert header.split(",") == CSV_COLUMNS


def test_trace_summary_shape():
    prob = make_problem("euclidean_bilinear", dim=4)
    trace = run(prob, SolverConfig(method="RPEG", T=25, record_every=5))
    s = trace.summary()
    assert s["problem"] == "euclidean_bilinear"
    assert s["method"] == "RPEG"
    assert s["T"] == 25
    assert not s["aborted"]
    assert s["final"]["t"] == 25
    assert s["total_violations"] == trace.total_violations()
    assert s["rho"] == pytest.approx(trace.rho)


def test_record_row_writes_numpy_scalars_as_plain_floats():
    values = {"dist": 0.5, "op_norm": 1e-300, "gap_avg": -0.1}
    plain = IterateRecord(t=3, **values).to_row()
    numpy = IterateRecord(t=3, **{k: np.float64(v) for k, v in values.items()}).to_row()
    assert numpy == plain
    assert plain[:3] == ["3", "0.5", "1e-300"]
