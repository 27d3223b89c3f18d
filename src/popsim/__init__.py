"""popsim: birthday-centred agent-based population simulation.

Each agent runs its own discrete-event simulation around its annual
birthday; a co-simulation layer (``World``) keeps the agents as columns and
synchronises them in macro steps. Parameters come from census-style
aggregate data through Farr's rate formula, integer apportionment and 3D
iterative proportional fitting. Monte Carlo ensembles are validated against
reference censuses with signed min/max relative deviation metrics.
"""

from .agents import AgentEvent, EventKind, OutboxMessage
from .census import AgeClassScheme, SyntheticCensus, count_population
from .config import RunConfig
from .engine import MacroStepConfig, ModelParameters, World, run_simulation
from .errors import (ConvergenceError, CoverageError, FeasibilityError,
                     InputError, SimulationError)
from .ipf import MarginalSet, MigrationTensor, ipf_3d, marginal_residual
from .params import (ImmigrationTable, ParameterTable, apportion_integer,
                     derive_params_from_census, farr_probability)
from .rng import agent_stream, substream, world_stream
from .scenario import (ScenarioSpec, cohort_projection, generate_scenario_files,
                       profile_to_array)
from .validation import (DeviationReport, ReportRow, deviation_extrema,
                         deviation_report, ensemble_mean)

__version__ = "0.1.0"

__all__ = [
    "AgentEvent", "EventKind", "OutboxMessage",
    "AgeClassScheme", "SyntheticCensus", "count_population",
    "RunConfig",
    "MacroStepConfig", "ModelParameters", "World", "run_simulation",
    "ConvergenceError", "CoverageError", "FeasibilityError", "InputError",
    "SimulationError",
    "MarginalSet", "MigrationTensor", "ipf_3d", "marginal_residual",
    "ImmigrationTable", "ParameterTable", "apportion_integer",
    "derive_params_from_census", "farr_probability",
    "agent_stream", "substream", "world_stream",
    "ScenarioSpec", "cohort_projection", "generate_scenario_files",
    "profile_to_array",
    "DeviationReport", "ReportRow", "deviation_extrema", "deviation_report",
    "ensemble_mean",
]
