from .run import (
    CSV_COLUMNS,
    FLAG_BOUNDED,
    FLAG_HOLONOMY,
    FLAG_LYAPUNOV,
    FLAG_NORM,
    INSTRUMENT_TOL,
    INSTRUMENTS,
    IterateRecord,
    METHODS,
    RunTrace,
    SolverConfig,
    auto_eta,
    initial_point,
    run,
)
from .steps import rceg_step, reg_step, rgda_step, rogda_step, rpeg_step

__all__ = [
    "METHODS", "reg_step", "rpeg_step", "rceg_step", "rogda_step", "rgda_step",
    "SolverConfig", "IterateRecord", "RunTrace", "run", "auto_eta",
    "initial_point", "INSTRUMENTS", "INSTRUMENT_TOL", "CSV_COLUMNS",
    "FLAG_NORM", "FLAG_LYAPUNOV", "FLAG_BOUNDED", "FLAG_HOLONOMY",
]
