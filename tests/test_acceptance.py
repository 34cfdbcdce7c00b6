"""Shipping gates for the toolkit, one test per acceptance criterion.

Each test prints exactly one PASS/FAIL line with the measured quantity it
gates on.  Probe counts, tolerances, and time budgets are contractual:
tests fail rather than shrink them.  Run with ``pytest -s`` to see the
lines for passing criteria too.
"""

import time

import numpy as np

from rvikit.geometry import jacobi_ratio, sos_certificate_check
from rvikit.geometry.probes import CHECKS, holonomy_defect, run_sweep, sample_triangle
from rvikit.harness import fit_rate, fit_rate_points, parse_mapping, run_experiment
from rvikit.manifolds import SPD, Euclidean, Hyperboloid, Point, Product, Sphere, ops
from rvikit.problems import equal_energy_start, make_problem
from rvikit.solvers import (
    SolverConfig,
    reg_step,
    rceg_step,
    rogda_step,
    rpeg_step,
    run,
)

KERNEL_MANIFOLDS = [Euclidean(3), Sphere(2), Hyperboloid(2), SPD(2),
                    Product(Hyperboloid(2), Sphere(2))]
CURVED = [Sphere(2), Hyperboloid(2), SPD(2)]
SOLVER_PROBLEMS = [("decoupled_saddle", {"manifold": "h2*h2"}),
                   ("frechet_mean", {"manifold": "spd2"}),
                   ("sphere_bilinear", {})]


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})"
    print(line)
    assert ok, line


def _flat_field(A, v):
    x, y = v[: A.shape[0]], v[A.shape[0]:]
    return np.concatenate([A @ y, -A.T @ x])


def test_criterion_01_geometry_kernel_suite():
    t0 = time.perf_counter()
    worst_round = worst_iso = worst_dist = 0.0
    for m in KERNEL_MANIFOLDS:
        rng = np.random.default_rng(101)
        for _ in range(1000):
            p = ops.random_point(m, rng)
            q = ops.ball_point(p, rng, 1.0)
            u = ops.random_tangent(p, rng, 2.0)
            q2 = ops.exp_map(p, ops.log_map(p, q))
            worst_round = max(worst_round, ops.distance(q, q2))
            moved = ops.transport(p, q, u)
            worst_iso = max(worst_iso, abs(moved.norm() - u.norm()))
            worst_dist = max(
                worst_dist,
                abs(ops.distance(p, q) - ops.log_map(p, q).norm()))
    elapsed = time.perf_counter() - t0
    ok = (worst_round <= 1e-8 and worst_iso <= 1e-10
          and worst_dist <= 1e-10 and elapsed < 10.0)
    _verdict(1, "geometry kernel (1e3 cases x 5 manifolds)", ok,
             f"roundtrip {worst_round:.2e}, isometry {worst_iso:.2e}, "
             f"dist/log {worst_dist:.2e}, {elapsed:.1f}s")


def test_criterion_02_comparison_inequality_sweeps():
    t0 = time.perf_counter()
    checks = sorted(set(CHECKS) - {"holonomy"})
    violations, n_valid, worst = 0, 0, np.inf
    for m in CURVED:
        for ci, check in enumerate(checks):
            s = run_sweep(m, check, 10_000, np.random.default_rng([201, ci]))
            violations += s.violations
            n_valid += s.valid
            worst = min(worst, s.worst_residual)
    ratio_bad = 0
    for kappa, K in [(-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0)]:
        taus = np.random.default_rng(202).uniform(0.0, 1.0, size=10_000)
        ratios = np.array([jacobi_ratio(kappa, K, t) for t in taus])
        ratio_bad += int(np.sum((ratios > 3.0 + 1e-12) | (ratios < 1.0 - 1e-12)))
    elapsed = time.perf_counter() - t0
    ok = (violations == 0 and n_valid >= 120_000 and worst >= -1e-9
          and ratio_bad == 0 and elapsed < 60.0)
    _verdict(2, "comparison-inequality sweeps (1e4 valid probes each)", ok,
             f"{n_valid} valid probes, {violations} violations, worst residual "
             f"{worst:.2e}, {ratio_bad} ratio breaches, {elapsed:.1f}s")


def test_criterion_03_holonomy_bound():
    violations, worst = 0, np.inf
    for mi, m in enumerate(CURVED):
        s = run_sweep(m, "holonomy", 1000, np.random.default_rng([301, mi]))
        violations += s.violations
        worst = min(worst, s.worst_residual)
    worst_degenerate = 0.0
    for m in CURVED:
        rng = np.random.default_rng(302)
        for _ in range(30):
            x, y, _, u = sample_triangle(m, rng)
            for trio in [(x, y, y), (x, x, y), (x, y, x)]:
                report = holonomy_defect(*trio, u)
                defect = report.bound - report.residual
                worst_degenerate = max(worst_degenerate, defect)
    ok = violations == 0 and worst >= -1e-9 and worst_degenerate < 1e-10
    _verdict(3, "holonomy defect bound (1e3 triangles per curved manifold)",
             ok, f"{violations} violations, worst residual {worst:.2e}, "
                 f"degenerate defect {worst_degenerate:.2e}")


def test_criterion_04_reg_monotonicity_and_boundedness():
    total, per = 0, []
    for name, params in SOLVER_PROBLEMS:
        prob = make_problem(name, **params)
        trace = run(prob, SolverConfig(method="REG", T=10_000, eta="auto",
                                       record_every=500, seed=4))
        count = trace.summary()["total_violations"]
        total += count
        per.append(f"{name}={count}")
    _verdict(4, "REG norm monotonicity + boundedness, T=1e4", total == 0,
             ", ".join(per))


def test_criterion_05_rpeg_lyapunov_descent():
    total, bound_ok, per = 0, True, []
    for name, params in SOLVER_PROBLEMS:
        prob = make_problem(name, **params)
        trace = run(prob, SolverConfig(method="RPEG", T=10_000, eta="auto",
                                       record_every=500, seed=5))
        count = trace.summary()["total_violations"]
        final_sq = trace.metric("op_norm")[-1] ** 2
        rhs = trace.final_bound_rhs()
        bound_ok = bound_ok and final_sq <= rhs + 1e-12
        total += count
        per.append(f"{name}: viol={count} |F|^2={final_sq:.2e} rhs={rhs:.2e}")
    _verdict(5, "RPEG Lyapunov descent + final-norm bound, T=1e4",
             total == 0 and bound_ok, "; ".join(per))


def test_criterion_06_euclidean_reductions():
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(2):
        A = rng.normal(size=(3, 3))
        prob = make_problem("euclidean_bilinear", matrix=A)
        eta = 0.1 / prob.lipschitz
        v0 = rng.normal(size=6)

        # two-call extragradient methods against the classical recursion
        for step_fn in (reg_step, rceg_step):
            z, v = Point(prob.manifold, v0), v0.copy()
            for _ in range(1000):
                z = step_fn(prob, z, eta, prob.field(z), None).z_next
                v_tilde = v - eta * _flat_field(A, v)
                v = v - eta * _flat_field(A, v_tilde)
                worst = max(worst, float(np.max(np.abs(z.coords - v))))

        # past-extragradient: one fresh evaluation, one stale half-iterate
        z = tilde_prev = Point(prob.manifold, v0)
        v, v_tilde_prev = v0.copy(), v0.copy()
        for _ in range(1000):
            z_tilde, z = rpeg_step(prob, z, eta, None,
                                   (tilde_prev, prob.field(tilde_prev)))[:2]
            v_tilde = v - eta * _flat_field(A, v_tilde_prev)
            v = v - eta * _flat_field(A, v_tilde)
            worst = max(worst, float(np.max(np.abs(z.coords - v))))
            tilde_prev, v_tilde_prev = z_tilde, v_tilde

        # optimistic update: w+ = w - 2 eta F(w) + eta F(w-)
        z = z_prev = Point(prob.manifold, v0)
        w, w_prev = v0.copy(), v0.copy()
        for _ in range(1000):
            z_new = rogda_step(prob, z, eta, prob.field(z),
                               (z_prev, prob.field(z_prev))).z_next
            w_new = w - 2.0 * eta * _flat_field(A, w) + eta * _flat_field(A, w_prev)
            worst = max(worst, float(np.max(np.abs(z_new.coords - w_new))))
            z_prev, z, w_prev, w = z, z_new, w, w_new

    _verdict(6, "flat reductions REG/RCEG/RPEG/ROGDA, 1e3 steps", worst <= 1e-12,
             f"max elementwise gap {worst:.2e}")


def test_criterion_07_rate_exponents_bilinear():
    t0 = time.perf_counter()
    prob = make_problem("euclidean_bilinear")
    z0 = equal_energy_start(prob)
    slopes, ok = {}, True
    for method in ("REG", "RPEG"):
        trace = run(prob, SolverConfig(method=method, T=100_000, eta="auto",
                                       record_every=250, gaps=True, seed=7),
                    z0=z0)
        s_norm = fit_rate(trace, "op_norm", t_min=1e3, t_max=1e5).slope
        s_gap = fit_rate(trace, "gap_avg", t_min=1e3, t_max=1e5).slope
        slopes[method] = (s_norm, s_gap)
        ok = ok and -0.6 <= s_norm <= -0.4 and -1.15 <= s_gap <= -0.85
    gda = run(prob, SolverConfig(method="RGDA", T=100_000, eta=0.01,
                                 record_every=250, seed=7,
                                 instruments=frozenset()), z0=z0)
    s_gda = fit_rate(gda, "op_norm", t_min=1e3, t_max=1e5).slope
    elapsed = time.perf_counter() - t0
    ok = ok and s_gda >= 0.0 and elapsed < 300.0
    detail = "; ".join(
        f"{m}: op_norm {sn:+.3f}, gap_avg {sg:+.3f}" for m, (sn, sg) in slopes.items())
    _verdict(7, "rate exponents on the bilinear problem", ok,
             f"{detail}; RGDA op_norm {s_gda:+.3f}; {elapsed:.0f}s")


def test_criterion_08_rceg_best_iterate():
    prob = make_problem("euclidean_bilinear")
    trace = run(prob, SolverConfig(method="RCEG", T=100_000, eta="auto",
                                   record_every=250, seed=8),
                z0=equal_energy_start(prob))
    ts = np.asarray(trace.ts(), dtype=float)
    best = np.minimum.accumulate(np.asarray(trace.metric("op_norm")))
    slope = fit_rate_points(ts, best, metric="best_op_norm",
                            t_min=1e3, t_max=1e5).slope
    _verdict(8, "RCEG best-iterate exponent", slope <= -0.4,
             f"slope {slope:+.3f}")


def test_criterion_09_sos_certificate_bulk():
    rng = np.random.default_rng(900)
    counted, worst = 0, -np.inf
    while counted < 1_000_000:
        n = 400_000
        scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        a = rng.normal(size=(n, 3)) * scale
        b = rng.normal(size=(n, 3)) * scale
        L_eta = rng.uniform(0.0, 1.0, size=n)
        u = rng.normal(size=(n, 3))
        radius = rng.uniform(0.0, 1.0, size=n) * L_eta
        shift = np.linalg.norm(a - b, axis=1) / np.maximum(
            np.linalg.norm(u, axis=1), 1e-300)
        c = b + u * (radius * shift)[:, None]
        keep = np.einsum("ij,ij->i", a - c, b) >= 0.0
        gap = (np.linalg.norm(c[keep], axis=1)
               - np.linalg.norm(a[keep], axis=1))
        worst = max(worst, float(gap.max()))
        counted += int(keep.sum())
    # the library checker agrees on a subsample (no CertificateError)
    spot = [sos_certificate_check(a[i], b[i], c[i], L_eta[i])
            for i in np.flatnonzero(keep)[:200]]
    ok = worst <= 1e-10 and all(spot)
    _verdict(9, "norm-contraction certificate (1e6 hypothesis-true triples)",
             ok, f"{counted} triples, worst ||c||-||a|| = {worst:.2e}")


def test_criterion_10_byte_identical_reruns(tmp_path):
    def mapping(sub):
        return {
            "problem": {"name": "euclidean_bilinear", "params": {"dim": 6}},
            "methods": ["REG", "RPEG"], "seeds": [0, 1],
            "T": 150, "record_every": 10, "gaps": True,
            "output_dir": str(tmp_path / sub),
        }

    res_a = run_experiment(parse_mapping(mapping("a")))
    res_b = run_experiment(parse_mapping(mapping("b")))
    same = res_a.summary_path.read_bytes() == res_b.summary_path.read_bytes()
    n = 0
    for pa, pb in zip(sorted(res_a.csv_paths), sorted(res_b.csv_paths)):
        same = same and pa.read_bytes() == pb.read_bytes()
        n += 1
    ok = same and n == 4 and res_a.exit_code == 0
    _verdict(10, "determinism: byte-identical artifacts on rerun", ok,
             f"{n} CSVs + summary compared byte-for-byte")
