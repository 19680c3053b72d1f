"""Gram assembly of the truncated spaces, validated against the oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import woldlab as wl
from woldlab.space import coordinate_shift_matrix

from conftest import random_poly, scalar_atoms
from reference import gram_block, loop_core_indices, loop_gram, loop_shift_matrix


def lebesgue_pair():
    return wl.CircleMeasure.lebesgue(1), wl.CircleMeasure.lebesgue(1)


def test_gram_block_lebesgue_diagonal():
    mu1, mu2 = lebesgue_pair()
    for m in range(4):
        for n in range(4):
            B = gram_block(mu1, mu2, m, n, m, n)
            assert B[0, 0] == pytest.approx((1 + m) * (1 + n))
    assert gram_block(mu1, mu2, 2, 1, 1, 1)[0, 0] == pytest.approx(0.0)
    assert gram_block(mu1, mu2, 2, 2, 2, 1)[0, 0] == pytest.approx(0.0)


def test_gram_block_single_atom_off_diagonal():
    mu1 = scalar_atoms((0.0, 1.0))
    mu2 = wl.CircleMeasure.lebesgue(1, 0.7)
    # only the first-variable derivative term: (1 ^ 2) * mu1_hat(-1) = 1
    assert gram_block(mu1, mu2, 2, 0, 1, 0)[0, 0] == pytest.approx(1.0)


def test_gram_block_constant_block_is_identity(rng):
    mu1, mu2 = wl.random_measure_pair(2, 3, seed=8)
    np.testing.assert_allclose(gram_block(mu1, mu2, 0, 0, 0, 0), np.eye(2), atol=1e-14)


def test_build_space_lebesgue_diagonal():
    mu1, mu2 = lebesgue_pair()
    sp = wl.build_space(mu1, mu2, 2, 2)
    expected = np.diag([(1 + m) * (1 + n) for m in range(3) for n in range(3)])
    np.testing.assert_allclose(sp.gram, expected, atol=1e-12)


def test_build_space_zero_measures_is_hardy():
    z = wl.CircleMeasure.zero(1)
    sp = wl.build_space(z, z, 3, 2)
    np.testing.assert_allclose(sp.gram, np.eye(sp.dim_total), atol=1e-14)


def test_build_space_one_atom_frozen_gram():
    # <z^m, z^p> = delta + (m ^ p) mu_hat(p - m) with mu_hat constant 1
    mu = scalar_atoms((0.0, 1.0))
    sp = wl.build_space_1v(mu, 2)
    np.testing.assert_allclose(sp.gram, [[1, 0, 0], [0, 2, 1], [0, 1, 3]], atol=1e-14)


def test_inner_product_examples(rng):
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=4)
    sp = wl.build_space(mu1, mu2, 3, 3)
    one = wl.PolyVector.monomial(sp.caps, 1, 0, 0)
    assert wl.inner_product(sp, one, one) == pytest.approx(1.0)

    leb = wl.build_space(*lebesgue_pair(), 3, 3)
    z1z2 = wl.PolyVector.monomial(leb.caps, 1, 1, 1)
    assert wl.inner_product(leb, z1z2, z1z2) == pytest.approx(4.0)

    z1 = wl.PolyVector.monomial(sp.caps, 1, 1, 0)
    z2 = wl.PolyVector.monomial(sp.caps, 1, 0, 1)
    assert wl.inner_product(sp, z1, z2) == pytest.approx(0.0, abs=1e-14)


def test_inner_product_shape_mismatch():
    sp = wl.build_space(*lebesgue_pair(), 2, 2)
    f = wl.PolyVector.monomial((3, 3), 1, 0, 0)
    with pytest.raises(ValueError):
        wl.inner_product(sp, f, f)


def test_gram_hermitian_psd(rng):
    for seed, d, atoms in [(1, 1, 2), (2, 2, 2), (3, 2, 3)]:
        mu1, mu2 = wl.random_measure_pair(d, atoms, seed=seed)
        sp = wl.build_space(mu1, mu2, 4, 3)
        np.testing.assert_allclose(sp.gram, sp.gram.conj().T, atol=1e-12)
        lam = np.linalg.eigvalsh(sp.gram)
        assert lam.min() >= -1e-10
        # the Hardy block makes the gram dominate the identity
        assert lam.min() >= 1.0 - 1e-10


def test_truncation_nesting_exact():
    mu1, mu2 = wl.random_measure_pair(2, 2, seed=13)
    small = wl.build_space(mu1, mu2, 3, 2)
    big = wl.build_space(mu1, mu2, 4, 3)
    idx = [big.flat_index(m, n, k)
           for m in range(4) for n in range(3) for k in range(2)]
    np.testing.assert_array_equal(small.gram, big.gram[np.ix_(idx, idx)])


def test_build_space_matches_gram_block_entries(rng):
    mu1, mu2 = wl.random_measure_pair(2, 2, seed=23)
    sp = wl.build_space(mu1, mu2, 4, 3)
    d = 2
    for _ in range(20):
        m, p = rng.integers(0, 5, 2)
        n, q = rng.integers(0, 4, 2)
        block = sp.gram[sp.flat_index(p, q):sp.flat_index(p, q) + d,
                        sp.flat_index(m, n):sp.flat_index(m, n) + d]
        np.testing.assert_allclose(block, gram_block(mu1, mu2, m, n, p, q), atol=1e-12)


def test_one_variable_consistency():
    mu = scalar_atoms((0.8, 0.6), (3.0, 1.2))
    N = 5
    sp = wl.build_space_1v(mu, N)
    for m in range(N + 1):
        for p in range(N + 1):
            expected = (1.0 if m == p else 0.0)
            if min(m, p) > 0:
                expected += min(m, p) * wl.fourier_coefficient(mu, p - m)[0, 0]
            assert sp.gram[p, m] == pytest.approx(expected)


def test_noncommuting_matrix_measures_rejected():
    mu1, _ = wl.random_measure_pair(2, 2, seed=5)
    other = wl.random_atomic_measure(2, 2, seed=77)
    with pytest.raises(wl.AssumptionError):
        wl.build_space(mu1, other, 3, 3)


def test_dimension_mismatch_rejected():
    mu1 = wl.CircleMeasure.lebesgue(1)
    mu2 = wl.CircleMeasure.lebesgue(2)
    with pytest.raises(wl.AssumptionError):
        wl.build_space(mu1, mu2, 2, 2)


def test_oracle_agreement_random_instances(rng):
    # module invariant, tighter than the acceptance gate: run a fine grid
    # on a few small instances
    for seed, d in [(31, 1), (32, 2)]:
        mu1, mu2 = wl.random_measure_pair(d, 2, seed=seed)
        sp = wl.build_space(mu1, mu2, 4, 3)
        f = random_poly(sp.caps, d, rng)
        g = random_poly(sp.caps, d, rng)
        closed = wl.inner_product(sp, f, g)
        quad = wl.quadrature_inner_product(f, g, mu1, mu2, grid=1024, angular_factor=32)
        assert abs(closed - quad) / (1 + abs(quad)) < 1e-8


def test_dirichlet_components_sum_to_norm(rng):
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=41)
    sp = wl.build_space(mu1, mu2, 4, 4)
    f = random_poly(sp.caps, 1, rng)
    parts = wl.dirichlet_components(sp, f)
    assert sum(parts.values()) == pytest.approx(wl.inner_product(sp, f, f).real)
    assert parts["h2"] == pytest.approx(float(np.sum(np.abs(f.coeffs) ** 2)))


# -- factored assembly against the per-bidegree loop -----------------------------

LOOP_CASES = [(96, 0, 1), (0, 6, 1), (5, 4, 1), (8, 3, 2), (8, 8, 2), (30, 0, 2),
              (12, 10, 3), (10, 10, 1), (20, 20, 1)]


def commuting_pair(d, seed):
    """Two measures with weights in one eigenbasis; the first has a density."""
    basis = wl.random_unitary(d, seed) if d > 1 else None
    mu1 = wl.random_atomic_measure(d, 3, seed + 10, eigenbasis=basis, density_scale=0.4)
    mu2 = wl.random_atomic_measure(d, 2, seed + 20, eigenbasis=basis)
    return mu1, mu2


@pytest.mark.parametrize("N1, N2, d", LOOP_CASES)
def test_build_space_equals_the_loop_bit_for_bit(N1, N2, d):
    mu1, mu2 = commuting_pair(d, seed=N1 + 7 * N2 + d)
    sp = wl.build_space(mu1, mu2, N1, N2)
    ref = loop_gram(mu1, mu2, N1, N2)
    assert np.array_equal(sp.gram, sum(ref.values()))
    # the norm pieces contracted from the factors against the dense components
    f = random_poly(sp.caps, d, np.random.default_rng(N1 + 7 * N2 + d))
    v = f.flatten()
    parts = wl.dirichlet_components(sp, f)
    assert list(parts) == list(ref)
    for name, comp in ref.items():
        dense = float((np.conj(v) @ (comp @ v)).real)
        assert abs(parts[name] - dense) <= 1e-13 * (1 + abs(dense)), name


def test_space_holds_no_dense_array_but_its_gram():
    # a space retains its Gram and the two small one-variable factors, and no
    # other D x D array
    mu1, mu2 = commuting_pair(1, seed=47)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sp = wl.build_space(mu1, mu2, 20, 20)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sp.dim_total == 441
    assert held <= 1.5 * sp.gram.nbytes


@pytest.mark.parametrize("caps, d", [((4, 3), 2), ((5, 0), 1), ((0, 4), 3), ((1, 1), 1)])
def test_index_helpers_equal_their_loops(caps, d):
    mu1, mu2 = commuting_pair(d, seed=3)
    sp = wl.build_space(mu1, mu2, *caps)
    for margin in range(4):
        for var in (None, 1, 2):
            got = sp.core_indices(margin, var=var)
            want = loop_core_indices(sp, margin, var=var)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    for var in (1, 2):
        got = coordinate_shift_matrix(sp, var)
        assert got.dtype == float and np.array_equal(got, loop_shift_matrix(sp, var))


def test_hermitian_gate_reads_its_tolerance():
    # the mixed block of a d = 2 pair is Hermitian only up to rounding; the
    # weights are W, W / 2, 2 W and 0.4 I, whose products commute bit for bit,
    # so the commutation check (which reads the same tolerance) passes at 0
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    W = X @ X.conj().T / 2 + 0.1 * np.eye(2)
    mu1 = wl.CircleMeasure(2, atoms=((0.7, W), (2.9, 0.5 * W)), density=0.4 * np.eye(2))
    mu2 = wl.CircleMeasure(2, atoms=((1.6, W), (4.2, 2 * W)))
    gram = wl.build_space(mu1, mu2, 3, 3).gram
    assert np.max(np.abs(gram - gram.conj().T)) > 0
    with pytest.raises(wl.AssumptionError, match="not Hermitian"):
        wl.build_space(mu1, mu2, 3, 3, tols=replace(wl.DEFAULTS, hermitian=0.0))


# -- properties of the factored Gram ----------------------------------------------

caps_st = st.integers(0, 8)


@st.composite
def measure_pairs(draw, d):
    """Two positive measures with 1-3 atoms each and an optional density;
    for d = 2 their weights share one eigenbasis, so they commute."""
    seed = draw(st.integers(0, 2**16))
    basis = wl.random_unitary(d, seed) if d > 1 else None
    mus = []
    for k in (1, 2):
        density = draw(st.sampled_from([0.0, 0.3, 1.5]))
        mus.append(wl.random_atomic_measure(d, draw(st.integers(1, 3)), seed + 10 * k,
                                            eigenbasis=basis, density_scale=density))
    return tuple(mus)


@given(N1=caps_st, N2=caps_st, d=st.sampled_from([1, 2]), data=st.data())
def test_gram_nests_exactly_under_larger_caps(N1, N2, d, data):
    mu1, mu2 = data.draw(measure_pairs(d))
    small = wl.build_space(mu1, mu2, N1, N2)
    big = wl.build_space(mu1, mu2, N1 + 1, N2 + 1)
    idx = big.core_indices(1)
    assert np.array_equal(small.gram, big.gram[np.ix_(idx, idx)])


@given(N1=caps_st, N2=caps_st, data=st.data())
def test_scalar_gram_is_the_kronecker_product(N1, N2, data):
    mu1, mu2 = data.draw(measure_pairs(1))
    G = wl.build_space(mu1, mu2, N1, N2).gram
    G1 = wl.build_space_1v(mu1, N1).gram
    G2 = wl.build_space_1v(mu2, N2).gram
    assert np.max(np.abs(G - np.kron(G1, G2))) <= 1e-14 * np.max(np.abs(G))


def lifted(G, N, other, first):
    """A one-variable Gram of caps N and dim d, acting on its own degree of
    the bidisc space and as the identity on the other degree (cap ``other``)."""
    d = G.shape[0] // (N + 1)
    G4 = G.reshape(N + 1, d, N + 1, d)
    eye = np.eye(other + 1)
    if first:
        L = np.einsum("plmk,qn->pqlmnk", G4, eye)
    else:
        L = np.einsum("qlnk,pm->pqlmnk", G4, eye)
    return L.reshape(G.shape[0] * (other + 1), -1)


@given(N1=caps_st, N2=caps_st, data=st.data())
def test_matrix_gram_is_the_product_of_lifted_factors(N1, N2, data):
    mu1, mu2 = data.draw(measure_pairs(2))
    G = wl.build_space(mu1, mu2, N1, N2).gram
    L1 = lifted(wl.build_space_1v(mu1, N1).gram, N1, N2, first=True)
    L2 = lifted(wl.build_space_1v(mu2, N2).gram, N2, N1, first=False)
    bound = 1e-14 * np.max(np.abs(G))
    assert np.max(np.abs(G - L2 @ L1)) <= bound
    assert np.max(np.abs(L1 @ L2 - L2 @ L1)) <= bound
