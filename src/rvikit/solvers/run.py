"""Instrumented solver driver: runs a method, watches its guarantees.

The driver owns all bookkeeping the step functions don't: step-size
selection from curvature bounds, per-iteration guarantee checks
(norm monotonicity, Lyapunov descent, trajectory boundedness, optional
holonomy probes), the running geodesic average of exploratory iterates,
and the fixed-schema trace records.  One table maps each method to its
certified step size and its default instruments.

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
from typing import Optional

import numpy as np

from ..exceptions import ConfigError, ContractViolation, RvikitError, SolverAbort, require
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

# method -> (certified step size, default instruments)
_METHOD_TABLE = {
    "REG": (step_size_reg, frozenset({"norm_monotone", "boundedness"})),
    "RPEG": (step_size_rpeg, frozenset({"lyapunov", "boundedness"})),
    "RCEG": (step_size_rceg, frozenset({"boundedness"})),
    "ROGDA": (step_size_rpeg, frozenset()),
    "RGDA": (step_size_reg, frozenset()),
}
METHODS = tuple(_METHOD_TABLE)

CSV_COLUMNS = ["t", "dist", "op_norm", "op_norm_half", "hamiltonian",
               "gap_last", "gap_avg", "phi", "violation_flags"]


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


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
            require(_is(value, numbers.Integral) and value >= 1,
                    f"{name} must be an integer >= 1, got {value!r}")
        require(self.eta == "auto" or (_is(self.eta, numbers.Real)
                                       and 0.0 < self.eta < math.inf),
                f"eta must be 'auto' or a positive step size, got {self.eta!r}")
        require(self.seed is None or _is(self.seed, numbers.Integral),
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
        require(_is(self.init_radius_frac, numbers.Real)
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
    if method not in _METHOD_TABLE:
        raise ConfigError(f"unknown method {method!r}")
    return _METHOD_TABLE[method][0](bounds)


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
    violations never raise, they are counted and flagged in the records.
    """
    instruments = (_METHOD_TABLE[config.method][1] if config.instruments is None
                   else config.instruments)
    evals0 = prob.evals
    if bounds is None:
        bounds = prob.bounds()
    eta = auto_eta(config.method, bounds) if config.eta == "auto" else float(config.eta)

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

    # persistent method state
    tilde_prev: Point = z           # z~_{-1} = z_0
    f_curr = prob.field(z)          # F(z_0)
    f_tilde_prev = f_curr           # F(z~_{-1}) = F(z_0), reused by RPEG/ROGDA
    phi_prev: Optional[float] = None
    if "lyapunov" in instruments:
        phi_prev = ops.distance(z, sol) ** 2 if sol is not None else None

    average = ops.GeodesicAverage()
    needs_f_each_step = bool({"norm_monotone", "lyapunov"} & instruments)

    try:
        for t in range(1, config.T + 1):
            cache: dict = {}
            z_prev = z
            # ---- one update ------------------------------------------------
            if config.method == "REG":
                z_tilde, z_new = reg_step(prob, z, eta, f_z=f_curr, cache=cache)
            elif config.method == "RPEG":
                z_tilde, z_new = rpeg_step(prob, z, tilde_prev, eta,
                                           f_tilde_prev=f_tilde_prev, cache=cache)
                f_tilde_prev = cache["f_tilde"]
            elif config.method == "RCEG":
                z_tilde, z_new = rceg_step(prob, z, eta, f_z=f_curr, cache=cache)
            elif config.method == "ROGDA":
                # the iterate sequence *is* the half sequence: z = z~_{t-1}
                z_new = rogda_step(prob, z, tilde_prev, eta,
                                   f_tilde_prev=f_tilde_prev, cache=cache)
                f_tilde_prev = cache["f_tilde"]   # F(z~_{t-1}), based at z
                z_tilde = z_new
            else:  # RGDA
                z_new = rgda_step(prob, z, eta, f_z=f_curr, cache=cache)
                z_tilde = z_new

            recording = (t % config.record_every == 0) or (t == config.T)
            f_new = None
            if needs_f_each_step or recording:
                f_new = prob.field(z_new)

            flags = 0
            # ---- guarantee instrumentation ---------------------------------
            if "norm_monotone" in instruments:
                if f_new.norm() > f_curr.norm() + INSTRUMENT_TOL:
                    viol["norm_monotone"] += 1
                    flags |= FLAG_NORM

            phi_t = None
            if ("lyapunov" in instruments and sol is not None
                    and config.method == "RPEG"):
                stale = ops.transport(z_tilde, z_new, cache["f_tilde"])
                drift = (f_new - stale).norm()
                phi_t = (ops.distance(z_new, sol) ** 2
                         + lam * t * eta ** 2
                         * (f_new.norm() ** 2 + 2.0 * drift ** 2))
                if phi_prev is not None and phi_t > phi_prev + INSTRUMENT_TOL:
                    viol["lyapunov"] += 1
                    flags |= FLAG_LYAPUNOV
                phi_prev = phi_t

            if "boundedness" in instruments and sol is not None:
                # half iterates sit one eta*||F|| <= eta*G step off the main ones
                limit_main = prob.region_radius + INSTRUMENT_TOL
                limit_half = prob.region_radius + eta * bounds.G + INSTRUMENT_TOL
                if (ops.distance(z_new, sol) > limit_main
                        or ops.distance(z_tilde, sol) > limit_half):
                    viol["boundedness"] += 1
                    flags |= FLAG_BOUNDED

            if (config.holonomy_probes
                    and config.method in ("REG", "RPEG", "RCEG")):
                u = cache.get("f_z") or cache.get("stale_at_z")
                if u is not None and u.norm() > 1e-12:
                    rep = holonomy_defect(z_prev, z_tilde, z_new, u)
                    if rep.valid and rep.residual < RESIDUAL_TOL:
                        viol["holonomy"] += 1
                        flags |= FLAG_HOLONOMY

            # ---- averaging & records ---------------------------------------
            average = ops.geodesic_average_update(average, z_tilde)

            if recording:
                op_norm = f_new.norm()
                rec = IterateRecord(t=t, op_norm=op_norm,
                                    hamiltonian=op_norm ** 2,
                                    phi=phi_t, violation_flags=flags)
                if sol is not None:
                    rec.dist = ops.distance(z_new, sol)
                if config.method in ("REG", "RPEG", "RCEG"):
                    rec.op_norm_half = cache["f_tilde"].norm()
                if do_gaps:
                    rec.gap_last = gap_at(z_new)
                    if average.mean is not None:
                        rec.gap_avg = gap_at(average.mean)
                trace.records.append(rec)

            # ---- roll state -------------------------------------------------
            tilde_prev = z_prev if config.method == "ROGDA" else z_tilde
            z = z_new
            if f_new is None and config.method in ("REG", "RCEG", "RGDA"):
                f_new = prob.field(z_new)
            if f_new is not None:
                f_curr = f_new
    except RvikitError as err:
        trace.aborted = True
        trace.abort_reason = f"{config.method} aborted at t={t}: {err}"
        raise SolverAbort(trace.abort_reason, trace) from err
    finally:
        trace.field_evals = prob.evals - evals0

    trace.final = z
    trace.average = average.mean
    return trace
