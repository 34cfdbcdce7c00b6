"""Instrumented solver driver: runs a method, watches its guarantees.

The driver owns all bookkeeping the step functions don't: step-size
selection from curvature bounds, per-iteration guarantee checks
(norm monotonicity, Lyapunov descent, trajectory boundedness, optional
holonomy probes), the running geodesic average of exploratory iterates,
the fixed-schema trace records, and F at the iterates, evaluated once per
point.  The method table is the single registry of per-method facts; all
else the driver reads off each step's :class:`~rvikit.solvers.steps.Step`.

Every record reuses the F(z_t) it already evaluated: ``op_norm`` is its
norm and ``hamiltonian`` its squared norm.  A run either returns its
trace or raises :class:`SolverAbort` carrying the same trace, marked
aborted; both ways the trace holds the live violation counters and the
run's own field-evaluation count.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..exceptions import (ConfigError, ContractViolation, RvikitError, SolverAbort,
                          is_strictly, require)
from ..geometry.constants import (
    GeometryBounds,
    rho_coefficient,
    step_size_rceg,
    step_size_reg,
    step_size_rpeg,
)
from ..geometry.probes import RESIDUAL_TOL, holonomy_defect
from ..manifolds import ops
from ..manifolds.base import Point
from ..problems.core import VectorFieldProblem, duality_gap
from .steps import reg_step, rceg_step, rgda_step, rogda_step, rpeg_step

INSTRUMENT_TOL = 1e-10

# violation_flags bitmask
FLAG_NORM = 1
FLAG_LYAPUNOV = 2
FLAG_BOUNDED = 4
FLAG_HOLONOMY = 8

# guarantee checks a run can switch on; holonomy probes have their own flag
INSTRUMENTS = ("norm_monotone", "lyapunov", "boundedness")


class Method(NamedTuple):
    """Everything the driver needs to know about one method."""

    step: Callable
    eta: Callable[[GeometryBounds], float]    # certified step size
    instruments: frozenset                    # default guarantee checks
    lyapunov: bool = False                    # the RPEG potential applies
    needs_f_z: bool = True                    # the step is handed F(z)


def _method_table() -> dict:
    """Method name -> :class:`Method`, built per call so that the steps
    resolve through this module's namespace when a run starts."""
    return {
        "REG": Method(reg_step, step_size_reg,
                      frozenset({"norm_monotone", "boundedness"})),
        "RPEG": Method(rpeg_step, step_size_rpeg,
                       frozenset({"lyapunov", "boundedness"}), lyapunov=True,
                       needs_f_z=False),
        "RCEG": Method(rceg_step, step_size_rceg, frozenset({"boundedness"})),
        "ROGDA": Method(rogda_step, step_size_rpeg, frozenset()),
        "RGDA": Method(rgda_step, step_size_reg, frozenset()),
    }


METHODS = tuple(_method_table())

CSV_COLUMNS = ["t", "dist", "op_norm", "op_norm_half", "hamiltonian",
               "gap_last", "gap_avg", "phi", "violation_flags"]


@dataclass(frozen=True)
class SolverConfig:
    """How to run one solver on one problem; a bad setting raises ConfigError."""

    method: str = "REG"
    T: int = 1000
    eta: float | str = "auto"     # "auto" resolves to the certified step size
    record_every: int = 1
    seed: Optional[int] = 0       # seeds the initial point draw
    instruments: Optional[frozenset] = None   # None = method defaults
    gaps: bool = False            # record duality gaps (needs an objective)
    holonomy_probes: bool = False
    init_radius_frac: float = 0.9

    def __post_init__(self):
        require(self.method in METHODS,
                f"unknown method {self.method!r}; valid methods: {list(METHODS)}")
        for name in ("T", "record_every"):
            value = getattr(self, name)
            require(is_strictly(value, numbers.Integral) and value >= 1,
                    f"{name} must be an integer >= 1, got {value!r}")
        require(self.eta == "auto" or (is_strictly(self.eta, numbers.Real)
                                       and 0.0 < self.eta < math.inf),
                f"eta must be 'auto' or a positive step size, got {self.eta!r}")
        require(self.seed is None or is_strictly(self.seed, numbers.Integral),
                f"seed must be an integer or None, got {self.seed!r}")
        names = self.instruments
        if names is not None:
            require(isinstance(names, (list, tuple, set, frozenset))
                    and all(i in INSTRUMENTS for i in names),
                    f"unknown instruments in {names!r}; "
                    f"valid instruments: {list(INSTRUMENTS)}")
            object.__setattr__(self, "instruments", frozenset(names))
        for name in ("gaps", "holonomy_probes"):
            require(isinstance(getattr(self, name), bool),
                    f"{name} must be true or false")
        require(is_strictly(self.init_radius_frac, numbers.Real)
                and 0.0 < self.init_radius_frac <= 1.0,
                f"init_radius_frac must lie in (0, 1], got {self.init_radius_frac!r}")


@dataclass
class IterateRecord:
    """One row of the fixed trace schema."""

    t: int
    dist: Optional[float] = None
    op_norm: Optional[float] = None
    op_norm_half: Optional[float] = None
    hamiltonian: Optional[float] = None
    gap_last: Optional[float] = None
    gap_avg: Optional[float] = None
    phi: Optional[float] = None
    violation_flags: int = 0

    def to_row(self) -> list:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return [fmt(getattr(self, c)) for c in CSV_COLUMNS]


@dataclass
class RunTrace:
    """Everything one solver run produced."""

    problem: str
    method: str
    eta: float
    T: int
    seed: Optional[int]
    records: list = dc_field(default_factory=list)
    violations: dict = dc_field(default_factory=dict)
    aborted: bool = False
    abort_reason: str = ""
    final: Optional[Point] = None
    average: Optional[Point] = None
    lyapunov_lambda: Optional[float] = None
    rho: Optional[float] = None
    bounds: Optional[GeometryBounds] = None
    field_evals: int = 0

    def total_violations(self) -> int:
        return sum(self.violations.values())

    def ts(self) -> np.ndarray:
        return np.array([r.t for r in self.records], dtype=float)

    def metric(self, name: str) -> np.ndarray:
        return np.array([math.nan if getattr(r, name) is None else getattr(r, name)
                         for r in self.records], dtype=float)

    def final_bound_rhs(self) -> Optional[float]:
        """Past-extragradient terminal bound 16 D^2 / (sigma_bar T eta^2)."""
        if self.bounds is None or self.T == 0:
            return None
        b = self.bounds
        return 16.0 * b.D ** 2 / (b.sigma_bar * self.T * self.eta ** 2)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in self.records:
                writer.writerow(rec.to_row())

    def summary(self) -> dict:
        last = self.records[-1] if self.records else None
        return {
            "problem": self.problem,
            "method": self.method,
            "eta": self.eta,
            "T": self.T,
            "seed": self.seed,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "violations": dict(sorted(self.violations.items())),
            "total_violations": self.total_violations(),
            "field_evals": self.field_evals,
            "lyapunov_lambda": self.lyapunov_lambda,
            "rho": self.rho,
            "final": None if last is None else {
                "t": last.t, "dist": last.dist, "op_norm": last.op_norm,
                "gap_last": last.gap_last, "gap_avg": last.gap_avg,
                "phi": last.phi,
            },
        }


def auto_eta(method: str, bounds: GeometryBounds) -> float:
    """The certified step size of ``method`` under ``bounds``."""
    require(method in METHODS, f"unknown method {method!r}")
    return _method_table()[method].eta(bounds)


def initial_point(prob: VectorFieldProblem, config: SolverConfig) -> Point:
    """Deterministic draw at init_radius_frac * D from the solution."""
    if prob.solution is None:
        raise ConfigError("cannot draw an initial point without a solution")
    rng = np.random.default_rng(config.seed)
    radius = config.init_radius_frac * prob.region_radius
    u = ops.random_tangent(prob.solution, rng, radius)
    n = u.norm()
    if n > 1e-15:
        u = u * (radius / n)
    return ops.exp_map(prob.solution, u)


def run(prob: VectorFieldProblem, config: SolverConfig,
        z0: Point | None = None,
        bounds: GeometryBounds | None = None) -> RunTrace:
    """Run ``config.method`` on ``prob`` and return the instrumented trace.

    Geometry failures mid-run, non-finite iterates or overflowing norms among
    them, raise :class:`SolverAbort` with the partial trace attached; guarantee
    violations never raise, they are counted and flagged in the records.  The
    steps run with numpy's overflow warnings off; the abort reports an overflow.
    """
    method = _method_table()[config.method]
    instruments = (method.instruments if config.instruments is None
                   else config.instruments)
    evals0 = prob.evals
    if bounds is None:
        bounds = prob.bounds()
    eta = method.eta(bounds) if config.eta == "auto" else float(config.eta)

    z = z0 if z0 is not None else initial_point(prob, config)
    sol = prob.solution
    if "boundedness" in instruments:
        if sol is None:
            raise ConfigError("boundedness instrumentation needs a solution")
        d0 = ops.distance(z, sol)
        if d0 > prob.region_radius + 1e-12:
            raise ContractViolation(
                f"initial point at distance {d0:.6f} exceeds the region radius "
                f"D = {prob.region_radius:.6f}")

    lam = bounds.sigma_bar / 16.0
    viol = {"norm_monotone": 0, "lyapunov": 0, "boundedness": 0, "holonomy": 0}
    trace = RunTrace(
        problem=prob.name, method=config.method, eta=eta, T=config.T,
        seed=config.seed, violations=viol, bounds=bounds,
        lyapunov_lambda=(lam if "lyapunov" in instruments else None),
        rho=rho_coefficient(bounds, eta))

    gap_radius = math.sqrt(2.0) * prob.region_radius / 2.0
    do_gaps = config.gaps and prob.objective is not None and sol is not None

    def gap_at(point: Point) -> float:
        if prob.exact_gap is not None:
            return float(prob.exact_gap(point, gap_radius))
        return duality_gap(prob.objective, point, sol, gap_radius,
                           lipschitz=prob.lipschitz).value

    do_phi = "lyapunov" in instruments and sol is not None and method.lyapunov
    phi = ops.distance(z, sol) ** 2 if do_phi else None
    needs_f_each_step = bool({"norm_monotone", "lyapunov"} & instruments)
    average = ops.GeodesicAverage()

    f_z = prob.field(z)
    stale = (z, f_z)            # z~_{-1} = z_0 for the methods that reuse F

    try:
        with np.errstate(over="ignore"):
            for t in range(1, config.T + 1):
                step = method.step(prob, z, eta, f_z, stale)
                z_new = step.z_next
                recording = (t % config.record_every == 0) or (t == config.T)
                f_new = None
                if needs_f_each_step or recording:
                    f_new = prob.field(z_new)

                flags = 0
                # ---- guarantee instrumentation -----------------------------
                if "norm_monotone" in instruments:
                    if f_new.norm() > f_z.norm() + INSTRUMENT_TOL:
                        viol["norm_monotone"] += 1
                        flags |= FLAG_NORM

                phi_t = None
                if do_phi:
                    pulled = ops.transport(step.z_tilde, z_new, step.f_tilde)
                    drift = (f_new - pulled).norm()
                    phi_t = (ops.distance(z_new, sol) ** 2
                             + lam * t * eta ** 2
                             * (f_new.norm() ** 2 + 2.0 * drift ** 2))
                    if phi_t > phi + INSTRUMENT_TOL:
                        viol["lyapunov"] += 1
                        flags |= FLAG_LYAPUNOV
                    phi = phi_t

                if "boundedness" in instruments:
                    # half iterates sit one eta*||F|| <= eta*G step off the main ones
                    limit_main = prob.region_radius + INSTRUMENT_TOL
                    limit_half = prob.region_radius + eta * bounds.G + INSTRUMENT_TOL
                    if (ops.distance(z_new, sol) > limit_main
                            or ops.distance(step.z_tilde, sol) > limit_half):
                        viol["boundedness"] += 1
                        flags |= FLAG_BOUNDED

                u = step.probe          # None for methods with no probe loop
                if config.holonomy_probes and u is not None and u.norm() > 1e-12:
                    rep = holonomy_defect(z, step.z_tilde, z_new, u)
                    if rep.valid and rep.residual < RESIDUAL_TOL:
                        viol["holonomy"] += 1
                        flags |= FLAG_HOLONOMY

                # ---- averaging & records -----------------------------------
                average = ops.geodesic_average_update(average, step.z_tilde)

                if recording:
                    op_norm = f_new.norm()
                    rec = IterateRecord(t=t, op_norm=op_norm,
                                        hamiltonian=op_norm ** 2,
                                        phi=phi_t, violation_flags=flags)
                    if sol is not None:
                        rec.dist = ops.distance(z_new, sol)
                    if step.f_tilde is not None:
                        rec.op_norm_half = step.f_tilde.norm()
                    if do_gaps:
                        rec.gap_last = gap_at(z_new)
                        if average.mean is not None:
                            rec.gap_avg = gap_at(average.mean)
                    trace.records.append(rec)

                if f_new is None and method.needs_f_z:
                    f_new = prob.field(z_new)
                z, f_z, stale = z_new, f_new, step.stale
    except RvikitError as err:
        trace.aborted = True
        trace.abort_reason = f"{config.method} aborted at t={t}: {err}"
        raise SolverAbort(trace.abort_reason, trace) from err
    finally:
        trace.field_evals = prob.evals - evals0

    trace.final = z
    trace.average = average.mean
    return trace
