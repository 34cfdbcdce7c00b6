from .core import (
    AssumptionReport,
    GapEstimate,
    SaddleObjective,
    VectorFieldProblem,
    check_assumptions,
    duality_gap,
    saddle_to_field,
    split_saddle,
)
from .catalog import (
    check_problem,
    equal_energy_start,
    list_problems,
    make_problem,
    manifold_from_spec,
)

__all__ = [
    "SaddleObjective", "VectorFieldProblem", "AssumptionReport", "GapEstimate",
    "saddle_to_field", "split_saddle", "check_assumptions", "duality_gap",
    "check_problem", "make_problem", "list_problems", "manifold_from_spec",
    "equal_energy_start",
]
