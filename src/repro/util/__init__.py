"""Shared utilities: seeded RNG streams, timers, units, config validation.

Every stochastic component in the library draws randomness through
:func:`repro.util.rng.rng_stream` so that whole campaigns are reproducible
from a single integer seed.
"""

from repro.util.config import FrozenConfig, validate_positive, validate_range
from repro.util.log import get_logger
from repro.util.rng import RngFactory, rng_stream
from repro.util.timer import Timer, WallClock
from repro.util.units import node_hours

__all__ = [
    "FrozenConfig",
    "RngFactory",
    "Timer",
    "WallClock",
    "get_logger",
    "node_hours",
    "rng_stream",
    "validate_positive",
    "validate_range",
]
