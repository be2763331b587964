"""Day-ahead switching schedules for radial multi-substation feeders.

The case generator's names are imported on first use (PEP 562), so a
process that only solves never compiles the generator.
"""

__version__ = "0.1.0"

from .dcflow import FlowSolution, TopologyError, check_limits, solve_flows
from .model import (
    Bus,
    Line,
    Network,
    NetworkFormatError,
    StructureError,
    ValidationReport,
    is_spanning_forest,
    parse_network,
    parse_network_file,
    required_closed_flexible_count,
    serialize_network,
    validate,
)
from .optimize import (
    DayProblem,
    DaySolution,
    HourSolution,
    InfeasibleHourError,
    ModelOptions,
    NodeLimitError,
    SolverOptions,
    evaluate_topology,
    solve_day,
    solve_hour,
)

__all__ = [
    "Bus",
    "DayProblem",
    "DaySolution",
    "FixtureSpec",
    "FlowSolution",
    "HourSolution",
    "InfeasibleHourError",
    "Line",
    "ModelOptions",
    "Network",
    "NetworkFormatError",
    "NodeLimitError",
    "SolverOptions",
    "StructureError",
    "TopologyError",
    "ValidationReport",
    "check_limits",
    "day_problem",
    "evaluate_topology",
    "gen_price_profile",
    "is_spanning_forest",
    "parse_network",
    "parse_network_file",
    "required_closed_flexible_count",
    "scale_loads",
    "serialize_network",
    "solve_day",
    "solve_flows",
    "solve_hour",
    "validate",
]

_GENERATOR = ("FixtureSpec", "day_problem", "gen_price_profile", "scale_loads")


def __getattr__(name):
    if name in _GENERATOR:
        from . import casegen
        return getattr(casegen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
