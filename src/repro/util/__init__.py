"""Shared utilities: seeded RNG streams, the wall clock, logging, config validation.

Every stochastic component in the library draws randomness through
:func:`repro.util.rng.rng_stream` so that whole campaigns are reproducible
from a single integer seed.
"""

from repro.util.config import FrozenConfig, validate_positive, validate_range
from repro.util.log import get_logger
from repro.util.rng import RngFactory, rng_stream
from repro.util.timer import WallClock

__all__ = [
    "FrozenConfig",
    "RngFactory",
    "WallClock",
    "get_logger",
    "rng_stream",
    "validate_positive",
    "validate_range",
]
