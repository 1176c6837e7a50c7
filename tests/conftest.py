"""Shared fixtures for the test suite."""

import sys

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _no_shared_pool_outlives_a_test():
    """Close the process-wide warm pool after every test, so no
    worker (nor the environment it was started under) leaks into the
    next test.  The pool module is not imported for tests that never
    loaded it."""
    yield
    pool = sys.modules.get("repro.experiments.pool")
    if pool is not None:
        pool.shutdown_warm_pool()


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def square_points():
    """Four corners of the unit square plus the center."""
    return np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]], dtype=float
    )
