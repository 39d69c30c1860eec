"""Shared utilities: errors, RNG plumbing, units, validation.

Everything in this package is infrastructure used by every other subpackage.
Nothing here knows anything about networking or the paper; keeping that rule
lets the higher layers stay honest about where domain logic lives.
"""

from repro.util.errors import (
    ConfigurationError,
    DataError,
    ReproError,
    SimulationError,
)
from repro.util.rng import RngStream, child_rng, make_rng, spawn_seeds
from repro.util.validate import (
    require,
    require_in_range,
    require_non_negative,
    require_positive,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DataError",
    "SimulationError",
    "RngStream",
    "make_rng",
    "child_rng",
    "spawn_seeds",
    "require",
    "require_positive",
    "require_non_negative",
    "require_in_range",
]
