"""Tests for unit conversions."""

import pytest

from repro.util.units import node_hours


def test_node_hours():
    assert node_hours(2, 3600) == 2.0
    assert node_hours(0.5, 7200) == 1.0


def test_node_hours_rejects_negative():
    with pytest.raises(ValueError):
        node_hours(-1, 10)
    with pytest.raises(ValueError):
        node_hours(1, -10)
