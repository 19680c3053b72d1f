"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

import woldlab as wl

# one fixed sequence of examples and no example database, so that property
# tests draw the same inputs on every run
settings.register_profile("woldlab", derandomize=True, deadline=None, database=None)
settings.load_profile("woldlab")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_core_vector(op, rng, margin=4):
    """A random vector supported on the safe core of the operator."""
    core = op.core_subspace(margin)
    c = rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim)
    return core.basis @ c


def random_poly(caps, dim, rng):
    N1, N2 = caps
    arr = rng.standard_normal((N1 + 1, N2 + 1, dim)) + 1j * rng.standard_normal((N1 + 1, N2 + 1, dim))
    return wl.PolyVector(caps, dim, arr)


def scalar_atoms(*pairs):
    return wl.CircleMeasure.from_scalar_atoms(pairs)
