"""Stochastic lattice simulator of pedestrian evacuation with floor fields."""

from .scenario import (
    WALL,
    FLOOR,
    EXIT,
    AgentProfile,
    Grid,
    ParseError,
    ScenarioSpec,
    SimConfig,
    Spawn,
    parse_scenario,
    render_scenario,
)
from .static_field import (
    UNREACHABLE,
    compute_static_field,
    compute_wall_distance,
)
from .dynamic_field import DynamicField
from .decision import (
    Agent,
    DestinationDistribution,
    SimulationError,
    choose_destination,
    choose_exit,
    destination_distribution,
)
from .movement import execute_round, execute_step
from .engine import (
    SimResult,
    SimState,
    derive_stream,
    init_state,
    run_round,
    run_simulation,
)
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "WALL",
    "FLOOR",
    "EXIT",
    "AgentProfile",
    "Grid",
    "ParseError",
    "ScenarioSpec",
    "SimConfig",
    "Spawn",
    "parse_scenario",
    "render_scenario",
    "UNREACHABLE",
    "compute_static_field",
    "compute_wall_distance",
    "DynamicField",
    "Agent",
    "DestinationDistribution",
    "SimulationError",
    "choose_destination",
    "choose_exit",
    "destination_distribution",
    "execute_round",
    "execute_step",
    "SimResult",
    "SimState",
    "derive_stream",
    "init_state",
    "run_round",
    "run_simulation",
    "main",
    "__version__",
]
