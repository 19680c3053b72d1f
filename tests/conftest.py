"""Shared helpers for the test suite."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import settings

import woldlab as wl
from woldlab.measures import fourier_coefficients

# one fixed sequence of examples and no example database, so that property
# tests draw the same inputs on every run
settings.register_profile("woldlab", derandomize=True, deadline=None, database=None)
settings.load_profile("woldlab")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class FactorizationLog(list):
    """Shapes of the matrices handed to the dense factorizations, in call order."""

    def large(self, D):
        """How many of them had both dimensions at least D / 2."""
        return sum(1 for shape in self if min(shape) >= D / 2)


#: the factorizations counted: every eigensolver, SVD and QR the package calls
FACTORIZATIONS = ((np.linalg, ("svd", "eigh", "eigvalsh", "qr")),
                  (sla, ("svd", "qr", "schur", "null_space")))


@pytest.fixture
def dense_factorizations(monkeypatch):
    """A :class:`FactorizationLog` of every counted factorization called
    while the test runs."""
    log = FactorizationLog()
    for module, names in FACTORIZATIONS:
        for name in names:
            real = getattr(module, name)

            def counted(a, *args, _real=real, **kwargs):
                log.append(np.shape(a)[-2:])
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return log


@pytest.fixture
def triangular_solves(monkeypatch):
    """Shapes of the right-hand sides of every ``scipy.linalg.solve_triangular``
    call made while the test runs."""
    log = []
    real = sla.solve_triangular

    def counted(a, b, *args, **kwargs):
        log.append(np.shape(b))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(sla, "solve_triangular", counted)
    return log


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


def assert_same_moments(got, ref, K=8, tol=1e-10):
    """Equal Fourier coefficients for |n| <= K.  Pass the depth a truncation
    determines as K: past it, a density is completed by atoms that each
    extraction route chooses its own way."""
    assert got.dim == ref.dim
    if got.dim:
        assert np.max(np.abs(fourier_coefficients(got, K) - fourier_coefficients(ref, K))) < tol
