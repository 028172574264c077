"""Re-export fixture package: a function and a class handed out here."""

from proj_pkg.helpers import tick  # re-export: proj_pkg.tick -> helpers.tick
from .core import Engine  # relative re-export of a class

__all__ = ["Engine", "tick"]
