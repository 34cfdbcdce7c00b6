"""Comparison-geometry sweeps: the inequalities the solver analysis rests on.

Step sizes and descent certificates in this package come from a handful of
triangle inequalities on manifolds with bounded curvature.  Each one is
implemented as a probe that evaluates both sides on random geodesic
triangles, given as coordinate arrays with one row per triangle; this
script sweeps them on the three curved model spaces and shows the
residuals staying on the correct side of zero.

It also demonstrates the curvature-dependent scalars (zeta, sigma) that
enter every step-size formula, including sigma's domain boundary on
positively curved spaces.
"""

import numpy as np

from rvikit.exceptions import DomainError
from rvikit.geometry import derive_bounds, sigma, step_size_reg, step_size_rpeg, zeta
from rvikit.geometry.probes import (
    CHECKS,
    cosine_law_upper_check,
    run_sweep,
    sample_triangles,
)
from rvikit.manifolds import SPD, Hyperboloid, Sphere

CURVED = [Sphere(2), Hyperboloid(2), SPD(2)]


def section(title):
    print(f"\n=== {title} ===")


section("distortion scalars zeta and sigma")
print("  flat space: zeta(0, t) = sigma(0, t) = 1 for every t")
for tau in (0.25, 0.5, 1.0, 1.5):
    print(f"  tau={tau:4.2f}:  zeta(-1, tau) = {zeta(-1.0, tau):.6f}   "
          f"sigma(+1, tau) = {sigma(1.0, tau):.6f}")
print("  (zeta >= 1 grows with negative curvature, sigma <= 1 decays toward"
      " the conjugate scale)")
try:
    sigma(1.0, np.pi)
except DomainError as e:
    print(f"  sigma(+1, pi) -> {type(e).__name__}: {e}")

section("the inequality probes, 2000 valid triangles each")
print(f"  {'check':24s}" + "".join(f"{m!r:>16s}" for m in CURVED))
for ci, check in enumerate(sorted(CHECKS)):
    cells = []
    for mi, m in enumerate(CURVED):
        s = run_sweep(m, check, 2000, np.random.default_rng([ci, mi]))
        cells.append(f"{s.worst_residual:>13.2e} {'ok' if s.violations == 0 else 'XX'}")
    print(f"  {check:24s}" + "".join(f"{c:>16s}" for c in cells))
print("  (worst residual per cell; residual >= 0 means the bound held)")

section("probes are honest about their own preconditions")
m = Sphere(2)
x, y, z, _ = sample_triangles(m, np.random.default_rng(7), 500, leg=1.2)  # big on purpose
rejected = int(np.count_nonzero(~cosine_law_upper_check(m, x, y, z).valid))
print(f"  upper cosine law with 1.2-radius legs on the sphere: {rejected}/500 "
      f"triangles\n  rejected for crossing the conjugate scale "
      f"(rejected probes never count as passes)")

section("from curvature bounds to certified step sizes")
for kappa, K, D, L, G in [(0.0, 0.0, 1.0, 2.0, 3.0),
                          (-1.0, 0.0, 1.0, 2.0, 3.0),
                          (-1.0, 1.0, 0.5, 2.0, 3.0)]:
    b = derive_bounds(kappa=kappa, K=K, D=D, L=L, G=G)
    print(f"  kappa={kappa:+.0f} K={K:+.0f} D={D} L={L} G={G}:  "
          f"eta_REG = {step_size_reg(b):.6f}   eta_RPEG = {step_size_rpeg(b):.6f}")
print("  (curvature strictly shrinks the admissible step)")
