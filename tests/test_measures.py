"""Circle measures: Fourier coefficients, Poisson integrals, positivity."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import woldlab as wl
from woldlab.instances import random_psd
from woldlab.measures import fourier_coefficients, require_positive, weights_commute

from conftest import scalar_atoms
from reference import loop_fourier_block_table


def test_fourier_lebesgue_only_constant_mode():
    mu = wl.CircleMeasure.lebesgue(1)
    assert wl.fourier_coefficient(mu, 0)[0, 0] == pytest.approx(1.0)
    assert wl.fourier_coefficient(mu, 1)[0, 0] == pytest.approx(0.0)
    assert wl.fourier_coefficient(mu, -3)[0, 0] == pytest.approx(0.0)


def test_fourier_atom_at_zero_is_constant():
    mu = scalar_atoms((0.0, 0.7))
    for n in (-5, -1, 0, 2, 9):
        assert wl.fourier_coefficient(mu, n)[0, 0] == pytest.approx(0.7)


def test_fourier_atom_at_pi_alternates():
    mu = scalar_atoms((np.pi, 1.0))
    for n in range(-4, 5):
        assert wl.fourier_coefficient(mu, n)[0, 0] == pytest.approx((-1.0) ** n)


def test_fourier_hermitian_symmetry(rng):
    mu = wl.random_atomic_measure(2, 3, seed=11, density_scale=0.4)
    for n in range(9):
        np.testing.assert_allclose(wl.fourier_coefficient(mu, -n),
                                   wl.fourier_coefficient(mu, n).conj().T, atol=1e-14)


@pytest.mark.parametrize("mu", [
    wl.CircleMeasure.lebesgue(1, 0.3),
    scalar_atoms((0.2, 0.5), (np.pi, 1.1)),
    wl.random_atomic_measure(2, 3, seed=11, density_scale=0.4),
], ids=["density", "atoms", "matrix"])
def test_fourier_table_matches_each_coefficient(mu):
    K = 9
    table = fourier_coefficients(mu, K)
    assert table.shape == (2 * K + 1, mu.dim, mu.dim)
    for n in range(-K, K + 1):
        np.testing.assert_allclose(table[n + K], wl.fourier_coefficient(mu, n), atol=1e-14)


@settings(max_examples=40)
@given(d=st.integers(1, 3), n_atoms=st.integers(0, 5), density=st.booleans(),
       K=st.integers(0, 100), seed=st.integers(0, 2**20))
def test_fourier_table_is_the_loop_bit_for_bit(d, n_atoms, density, K, seed):
    # the table is filled atom by atom over all degrees, in the order of
    # fourier_coefficient, so it must equal the per-degree loop exactly, not
    # only to rounding; the weights have no shared eigenbasis
    mu = wl.random_atomic_measure(d, n_atoms, seed)
    if density:
        mu = replace(mu, density=random_psd(d, np.random.default_rng(seed), scale=0.5))
    table = fourier_coefficients(mu, K)
    assert table.shape == (2 * K + 1, d, d)
    assert np.array_equal(table, loop_fourier_block_table(mu, K))
    for n in range(K + 1):
        assert np.array_equal(table[K + n], wl.fourier_coefficient(mu, n))
    # mu_hat(-n) = mu_hat(n)^H exactly, the centre included
    assert np.array_equal(table[K::-1], table[K:].conj().transpose(0, 2, 1))


def test_poisson_lebesgue_is_one(rng):
    mu = wl.CircleMeasure.lebesgue(1)
    for _ in range(5):
        z = 0.9 * (rng.standard_normal() + 1j * rng.standard_normal()) / 2
        assert wl.poisson_integral(mu, z)[0, 0] == pytest.approx(1.0)


def test_poisson_point_mass_values():
    mu = scalar_atoms((0.0, 1.0))
    assert wl.poisson_integral(mu, 0.0)[0, 0] == pytest.approx(1.0)
    # (1 - 1/4) / (1/2)^2
    assert wl.poisson_integral(mu, 0.5)[0, 0] == pytest.approx(3.0)


def test_poisson_rejects_boundary():
    mu = wl.CircleMeasure.lebesgue(1)
    with pytest.raises(ValueError):
        wl.poisson_integral(mu, 1.0)
    with pytest.raises(ValueError):
        wl.poisson_integral(mu, 1.2 + 0.1j)


def test_poisson_positive_for_positive_measure(rng):
    mu = wl.random_atomic_measure(2, 3, seed=5, density_scale=0.2)
    for _ in range(100):
        w = rng.standard_normal(2)
        z = (w[0] + 1j * w[1]) / (1.0 + abs(w[0]) + abs(w[1]))
        lam = np.linalg.eigvalsh(wl.poisson_integral(mu, z))
        assert lam.min() >= -1e-12


def test_is_positive_examples():
    ok, worst = wl.is_positive(scalar_atoms((0.0, 1.0)))
    assert ok and worst >= -1e-14

    bad = wl.CircleMeasure(dim=2, atoms=((0.0, np.diag([1.0, -1.0])),))
    ok, worst = wl.is_positive(bad)
    assert not ok
    assert worst == pytest.approx(-1.0)

    zero = wl.CircleMeasure.zero(2)
    assert wl.is_positive(zero).ok


def test_require_positive_raises():
    bad = wl.CircleMeasure(dim=1, atoms=((0.0, np.array([[-0.5]])),))
    with pytest.raises(wl.AssumptionError):
        require_positive(bad)


def test_small_negative_eigenvalues_are_clamped():
    mu = wl.CircleMeasure(dim=1, atoms=((0.0, np.array([[-1e-12]])),))
    assert mu.atoms[0][1][0, 0] == 0.0


def test_clamped_weights_are_exactly_hermitian():
    # a rank-1 weight v v^H has a zero eigenvalue that the eigensolver
    # returns as a rounding-sized negative about half the time, so the
    # weight is rebuilt from its clamped eigendecomposition
    rng = np.random.default_rng(24)
    clamped = 0
    for _ in range(200):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        W = np.outer(v, v.conj())
        clamped += bool(np.linalg.eigvalsh(W).min() < 0)
        weight = wl.CircleMeasure(dim=2, atoms=((1.0, W),)).atoms[0][1]
        assert np.array_equal(weight, weight.conj().T)
    assert clamped >= 20


@pytest.mark.parametrize("w", [0.7, -1e-11, -1e-3],
                         ids=["positive", "inside-clamp-window", "below-clamp-window"])
def test_scalar_weight_skips_the_eigensolver(w):
    # the eigenvalue of a 1 x 1 weight is its entry: the clamped weight and
    # the positivity report are those of the eigendecomposition
    mu = wl.CircleMeasure(dim=1, atoms=((0.4, np.array([[w]])),))
    lam, V = np.linalg.eigh(np.array([[w]], dtype=complex))
    clamped = np.where((lam < 0) & (lam >= -wl.DEFAULTS.psd), 0.0, lam)
    weight = mu.atoms[0][1]
    assert weight.dtype == complex and weight.shape == (1, 1)
    assert np.array_equal(weight, (V * clamped) @ V.conj().T)
    worst = min(0.0, float(np.linalg.eigvalsh(weight).min()))
    assert wl.is_positive(mu) == (worst >= -wl.DEFAULTS.psd, worst)


def test_atoms_must_be_separated():
    with pytest.raises(ValueError):
        wl.CircleMeasure(dim=1, atoms=((0.5, np.eye(1)), (0.5 + 1e-14, np.eye(1))))


def test_conjugate_identity_and_phase():
    mu = scalar_atoms((0.3, 0.9), (2.0, 0.4))
    same = wl.conjugate(mu, np.eye(1))
    for n in range(-4, 5):
        np.testing.assert_allclose(wl.fourier_coefficient(same, n),
                                   wl.fourier_coefficient(mu, n), atol=1e-14)
    phased = wl.conjugate(mu, np.array([[np.exp(1j * 0.7)]]))
    for n in range(-4, 5):
        np.testing.assert_allclose(wl.fourier_coefficient(phased, n),
                                   wl.fourier_coefficient(mu, n), atol=1e-14)


def test_conjugate_permutation_swaps_entries():
    W = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 2.0]])
    mu = wl.CircleMeasure(dim=2, atoms=((1.1, W),))
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    swapped = wl.conjugate(mu, P)
    expected = P.conj().T @ W @ P
    np.testing.assert_allclose(swapped.atoms[0][1], expected, atol=1e-14)
    np.testing.assert_allclose(wl.fourier_coefficient(swapped, 3),
                               np.exp(-3j * 1.1) * expected, atol=1e-14)


def test_conjugation_covariance(rng):
    mu = wl.random_atomic_measure(2, 2, seed=3, density_scale=0.5)
    U = wl.random_unitary(2, 17)
    conj = wl.conjugate(mu, U)
    for n in range(-6, 7):
        np.testing.assert_allclose(
            wl.fourier_coefficient(conj, n),
            U.conj().T @ wl.fourier_coefficient(mu, n) @ U,
            atol=1e-12,
        )


def test_conjugate_rejects_non_unitary():
    mu = scalar_atoms((0.0, 1.0))
    with pytest.raises(ValueError):
        wl.conjugate(mu, np.array([[2.0]]))


def test_json_round_trip():
    mu = wl.random_atomic_measure(2, 2, seed=9, density_scale=0.3)
    back = wl.CircleMeasure.from_json_dict(mu.to_json_dict())
    assert back.dim == mu.dim
    for n in range(-5, 6):
        np.testing.assert_allclose(wl.fourier_coefficient(back, n),
                                   wl.fourier_coefficient(mu, n), atol=1e-14)
    assert back.to_json_dict() == mu.to_json_dict()


def test_weights_commute_detects_noncommuting():
    mu1, mu2 = wl.random_measure_pair(2, 2, seed=21)
    assert weights_commute(mu1, mu2)
    other = wl.random_atomic_measure(2, 2, seed=99)  # its own eigenbasis
    assert not weights_commute(mu1, other)


def test_weights_commute_reads_tols_hermitian():
    # weights in one eigenbasis commute only up to rounding
    mu1, mu2 = wl.random_measure_pair(2, 2, seed=21)
    assert weights_commute(mu1, mu2, wl.DEFAULTS)
    assert not weights_commute(mu1, mu2, replace(wl.DEFAULTS, hermitian=0.0))
