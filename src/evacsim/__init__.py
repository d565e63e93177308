"""Stochastic lattice simulator of pedestrian evacuation with floor fields.

The root exports the library surface; the lower-level pieces are imported
from their modules (`evacsim.engine`, `evacsim.decision`, ...).
"""

from .cli import main
from .decision import SimulationError
from .engine import run_simulation
from .scenario import ParseError, SimConfig, parse_scenario

__version__ = "0.1.0"

__all__ = ["parse_scenario", "SimConfig", "run_simulation", "ParseError", "SimulationError", "main", "__version__"]
