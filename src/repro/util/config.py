"""Configuration helpers: validated, immutable config dataclass base.

Protocol configs (ESMACS replica counts, GA population sizes, pilot shapes)
are plain frozen dataclasses.  Subclasses list validation in
``__post_init__`` using the helpers here so misconfiguration fails loudly at
construction time rather than deep inside a run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

__all__ = ["FrozenConfig", "validate_positive", "validate_range"]


def validate_positive(name: str, value: float, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0 if not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def validate_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class FrozenConfig:
    """Base class for immutable configuration objects.

    Provides ``replace`` (functional update).
    """

    def replace(self, **changes: Any):
        """Return a copy with ``changes`` applied (validations re-run)."""
        return dataclasses.replace(self, **changes)
