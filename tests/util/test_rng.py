"""Tests for hierarchical RNG streams."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import RngFactory, rng_stream


def test_same_seed_key_reproduces():
    a = rng_stream(42, "docking/lga").normal(size=8)
    b = rng_stream(42, "docking/lga").normal(size=8)
    np.testing.assert_array_equal(a, b)


def test_different_keys_independent():
    a = rng_stream(42, "a").normal(size=8)
    b = rng_stream(42, "b").normal(size=8)
    assert not np.allclose(a, b)


def test_different_seeds_differ():
    a = rng_stream(1, "k").normal(size=8)
    b = rng_stream(2, "k").normal(size=8)
    assert not np.allclose(a, b)


def test_factory_prefix_scopes_streams():
    f = RngFactory(7)
    child = RngFactory(7, prefix="md")
    direct = f.stream("md/replica-0").normal(size=4)
    scoped = child.stream("replica-0").normal(size=4)
    np.testing.assert_array_equal(direct, scoped)


def test_factory_rejects_non_int_seed():
    with pytest.raises(TypeError):
        RngFactory("42")  # type: ignore[arg-type]


def test_spawn_seed_deterministic_and_valid():
    f = RngFactory(3)
    s1 = f.spawn_seed("x")
    s2 = f.spawn_seed("x")
    assert s1 == s2
    assert 0 <= s1 < 2**31


def test_adding_consumer_does_not_perturb_existing():
    # Key property: stream for key K must not depend on other keys in use.
    before = rng_stream(5, "stable").normal(size=4)
    _ = rng_stream(5, "new-consumer").normal(size=4)
    after = rng_stream(5, "stable").normal(size=4)
    np.testing.assert_array_equal(before, after)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=30))
def test_streams_deterministic_property(seed, key):
    a = rng_stream(seed, key).integers(0, 1000, size=4)
    b = rng_stream(seed, key).integers(0, 1000, size=4)
    np.testing.assert_array_equal(a, b)
