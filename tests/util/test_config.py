"""Tests for config helpers."""

from dataclasses import dataclass

import pytest

from repro.util.config import FrozenConfig, validate_positive, validate_range


@dataclass(frozen=True)
class _Cfg(FrozenConfig):
    replicas: int = 6
    duration_ns: float = 4.0

    def __post_init__(self):
        validate_positive("replicas", self.replicas)
        validate_positive("duration_ns", self.duration_ns, strict=False)


def test_replace_returns_new_validated_instance():
    cfg = _Cfg()
    cfg2 = cfg.replace(replicas=24)
    assert cfg2.replicas == 24
    assert cfg.replicas == 6


def test_replace_revalidates():
    with pytest.raises(ValueError):
        _Cfg().replace(replicas=0)


def test_validate_positive_strict_and_lax():
    validate_positive("x", 1)
    validate_positive("x", 0, strict=False)
    with pytest.raises(ValueError):
        validate_positive("x", 0)
    with pytest.raises(ValueError):
        validate_positive("x", -1, strict=False)


def test_validate_range():
    validate_range("x", 0.5, 0, 1)
    with pytest.raises(ValueError):
        validate_range("x", 1.5, 0, 1)
