"""Wold decompositions, certificates, measure extraction, norm identities, the model map."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, event, given, settings, strategies as st

import woldlab as wl
from woldlab import decomp, operators
from woldlab.measures import fourier_coefficients
from woldlab.operators import joint_core, range_complement_projection
from woldlab.space import EuclideanSpace

from conftest import assert_same_moments, random_core_vector, scalar_atoms
from reference import (
    _tilde_pieces,
    coords,
    defect_route_measure,
    dense_model_map_gates,
    fresh_restriction_measures,
    kernel_intersection_identity,
    loop_cluster_angles,
    loop_model_rows,
    restrict_operator,
    stable_range,
    three_term_defect,
)

THREE_ATOMS = ((0.5, 0.8), (2.0, 1.3), (4.4, 0.35))


# -- stable range -------------------------------------------------------------


def test_stable_range_unitary_is_full():
    U = wl.unitary_operator(wl.random_unitary(6, 2))
    assert stable_range(U).dim == 6


def test_stable_range_truncated_shift_is_trivial():
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 10)
    assert stable_range(T).dim == 0


def test_stable_range_of_scrambled_direct_sum():
    # the reference and the orbit certificate agree: H0 = stable range and
    # H1 = [ker T*]_T are complementary
    mu = scalar_atoms((1.2, 0.9))
    for k in (1, 3):
        inst = wl.make_single_wold_instance(k, mu, 8, seed=5, scramble_seed=11)
        T = inst.operators[0]
        assert stable_range(T).dim == k
        assert wl.certify(T).orbit.dim == T.dom.dim_total - k


# -- single Wold ---------------------------------------------------------------


def test_wold_single_unitary_input():
    U = wl.unitary_operator(wl.random_unitary(5, 7))
    res = wl.wold_single(U)
    assert res.H1.dim == 0 and res.H0.dim == 5
    assert np.linalg.norm(res.extracted.total_mass) <= 1e-14


def test_wold_single_model_shift_is_analytic():
    mu = scalar_atoms((0.7, 1.0))
    T = wl.build_shift_1v(mu, 12)
    res = wl.wold_single(T)
    assert res.H0.dim == 0
    assert res.H1.dim == 13


def test_wold_single_recovers_scrambled_blocks():
    mu = scalar_atoms(*THREE_ATOMS)
    for k in (1, 3):
        inst = wl.make_single_wold_instance(k, mu, 16, seed=1, scramble_seed=23)
        T = inst.operators[0]
        res = wl.wold_single(T)
        assert (res.H0.dim, res.H1.dim) == inst.truth["dims"]
        assert res.H0.distance(inst.truth["H0"]) < 1e-8
        assert res.H1.distance(inst.truth["H1"]) < 1e-8
        # the Gram complement of the orbit is the stable range
        assert res.H0.distance(stable_range(T)) < 1e-10


def lambda_plus_shift(modulus):
    """Scrambled (lambda) + M_z(mu) at caps 12 with |lambda| = modulus."""
    sp = EuclideanSpace(1)
    lam = wl.OperatorModel(sp, sp, np.array([[modulus * np.exp(0.3j)]]))
    T, _ = wl.scramble(wl.direct_sum([lam, wl.build_shift_1v(scalar_atoms((0.7, 1.0)), 12)]), 5)
    return T


# Negative controls for the analyticity certificate.  For the unitary,
# ker T* = 0; the other two have a 13-dimensional orbit of ker T* that
# misses one direction, and at |lambda| = 1 + 1e-5 the 2-isometry gate
# passes, so only the orbit certificate rejects it.
NON_ANALYTIC = [
    pytest.param(lambda: wl.unitary_operator(wl.random_unitary(4, 3)), id="unitary"),
    pytest.param(lambda: lambda_plus_shift(1.0), id="unimodular-lambda-plus-shift"),
    pytest.param(lambda: lambda_plus_shift(1 + 1e-5), id="edge-lambda-plus-shift"),
]


@pytest.mark.parametrize("modulus, unitary", [(1 + 1e-5, False), (1.0, True)])
def test_wold_single_unitary_block_near_the_edge(modulus, unitary):
    # (lambda) + M_z(mu): at |lambda| = 1 + 1e-5 the 2-isometry defect
    # (|lambda|^2 - 1)^2 = 4e-10 passes, but T is not unitary on H0
    T = lambda_plus_shift(modulus)
    assert wl.two_isometry_defect(T) < wl.DEFAULTS.two_isometry
    if unitary:
        res = wl.wold_single(T)
        assert (res.H0.dim, res.H1.dim) == (1, 13)
    else:
        with pytest.raises(wl.ConvergenceError):
            wl.wold_single(T)


def test_wold_single_rejects_jordan_block():
    sp = EuclideanSpace(2)
    J = wl.OperatorModel(sp, sp, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(wl.AssumptionError):
        wl.wold_single(J)


def test_stable_range_max_iter_exhausted():
    T = wl.build_shift_1v(scalar_atoms((0.7, 1.0)), 8)
    with pytest.raises(wl.ConvergenceError):
        stable_range(T, max_iter=2)


# -- measure extraction from orbit moments ---------------------------------------


# The defect route in tests/reference.py is the cross-check for
# extract_measure; its unitary model of D x -> D T x keeps the atom angles.


def test_tilde_single_atom_is_unimodular_scalar():
    theta0, w = 1.3, 0.9
    T = wl.build_shift_1v(scalar_atoms((theta0, w)), 16)
    Tt, _, _ = _tilde_pieces(T, wl.DEFAULTS)
    assert Tt.shape == (1, 1)
    val = Tt[0, 0]
    assert abs(abs(val) - 1.0) < 1e-10
    # round-trip angle convention: the eigenvalue angle is the atom angle
    assert np.angle(val) == pytest.approx(theta0, abs=1e-8)


def test_tilde_isometry_trivial_for_isometry():
    T = wl.build_shift_1v(wl.CircleMeasure.zero(1), 8)
    Tt, _, _ = _tilde_pieces(T, wl.DEFAULTS)
    assert Tt.shape == (0, 0)


def test_extract_single_atom_round_trip():
    # round-trip angle convention: the eigenvalue angle of the moment shift
    # is the atom angle, at caps 16 and 32
    theta0, w = 1.3, 0.9
    for caps in (16, 32):
        mu = wl.extract_measure(wl.build_shift_1v(scalar_atoms((theta0, w)), caps))
        assert len(mu.atoms) == 1
        angle, W = mu.atoms[0]
        assert angle == pytest.approx(theta0, abs=1e-8)
        assert W[0, 0] == pytest.approx(w, abs=1e-6)


def test_extract_three_atom_angles():
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 32)
    got = [theta for theta, _ in wl.extract_measure(T).atoms]
    np.testing.assert_allclose(got, [0.5, 2.0, 4.4], atol=1e-8)


@given(seed=st.integers(0, 2**20), n=st.integers(0, 12))
def test_angle_clusters_equal_the_loop(seed, n):
    # angles drawn near a few centres, some across the seam, with gaps on
    # both sides of the cluster tolerance
    rng = np.random.default_rng(seed)
    centres = rng.choice([0.0, 1e-9, 1.0, 3.0, 2 * np.pi - 1e-9], n)
    angles = np.mod(centres + rng.choice([0.0, 2e-8, 5e-8, 2e-7], n), 2 * np.pi)
    got = decomp._cluster_angles(angles, 1e-7)
    want = loop_cluster_angles(angles, 1e-7)
    assert [list(c) for c in got] == [list(c) for c in want]


def test_extract_isometry_gives_zero_measure():
    # an isometry has no defect: no moment, no atom
    T = wl.build_shift_1v(wl.CircleMeasure.zero(1), 8)
    mu = wl.extract_measure(T)
    assert mu.atoms == ()
    assert np.linalg.norm(mu.total_mass) <= 1e-14


def test_a_moment_table_that_is_not_toeplitz_at_depth_one_raises():
    # orthogonal powers of norms 1, 2, 3: M = diag(3, 5), so mu_hat(0) is
    # read twice with different values and no atom angle is determined
    powers = [c * np.eye(3, dtype=complex)[:, [j]] for j, c in enumerate((1, 2, 3))]
    with pytest.raises(wl.ConvergenceError, match="not Toeplitz"):
        decomp._orbit_measure(powers, wl.DEFAULTS)
    # norms 1, 2, sqrt(7) give M = diag(3, 3): Toeplitz at depth 1, mass 3
    powers = [c * np.eye(3, dtype=complex)[:, [j]] for j, c in enumerate((1, 2, np.sqrt(7)))]
    mu = decomp._orbit_measure(powers, wl.DEFAULTS)
    assert np.allclose(mu.total_mass, 3.0)


@pytest.mark.parametrize("make", NON_ANALYTIC)
def test_extract_rejects_non_analytic(make):
    with pytest.raises(wl.AssumptionError):
        wl.extract_measure(make())


def test_extract_matrix_measure_round_trip():
    mu = wl.random_atomic_measure(2, 2, seed=14)
    T = wl.build_shift_1v(mu, 20)
    got = wl.extract_measure(T)
    cmp = wl.measures_equal_up_to_unitary(mu, got, K=8)
    assert cmp.equal is True


def test_extract_lebesgue_fourier_table():
    # classical Dirichlet shift: mu_hat(n) -> delta_{n,0}, exact up to caps - 1
    T = wl.build_shift_1v(wl.CircleMeasure.lebesgue(1), 24)
    got = wl.extract_measure(T)
    for n in range(-23, 24):
        target = 1.0 if n == 0 else 0.0
        assert wl.fourier_coefficient(got, n)[0, 0] == pytest.approx(target, abs=1e-12)


def with_density(mu, c):
    return wl.CircleMeasure(mu.dim, atoms=mu.atoms, density=c * np.eye(mu.dim))


@pytest.mark.parametrize("caps,c", [(48, 0.5), (96, 0.4)])
def test_extract_splits_a_constant_density_off_scalar_atoms(caps, c):
    mu = with_density(scalar_atoms(*THREE_ATOMS), c)
    got = wl.extract_measure(wl.build_shift_1v(mu, caps))
    assert len(got.atoms) == 3
    assert abs(got.density[0, 0] - c) <= 1e-12
    assert_same_moments(got, mu, K=8, tol=1e-12)


@pytest.mark.parametrize("caps", [16, 32, 64])
def test_extract_lebesgue_is_density_one_with_no_atoms(caps):
    got = wl.extract_measure(wl.build_shift_1v(wl.CircleMeasure.lebesgue(1), caps))
    assert got.atoms == ()
    assert abs(got.density[0, 0] - 1.0) <= 1e-12


def test_extract_pure_atoms_have_zero_density():
    for mu in (scalar_atoms(*THREE_ATOMS), wl.random_atomic_measure(2, 2, seed=14)):
        got = wl.extract_measure(wl.build_shift_1v(mu, 24))
        assert len(got.atoms) == len(mu.atoms)
        assert np.all(got.density == 0)


def shared_eigenbasis_atoms():
    Q = wl.random_unitary(2, 5)
    return tuple((theta, Q @ np.diag(w) @ Q.conj().T)
                 for theta, w in ((0.4, (0.9, 0.3)), (2.2, (0.5, 1.2)), (4.1, (0.7, 0.6))))


def test_extract_splits_a_scalar_matrix_density_off_matrix_atoms():
    mu = wl.CircleMeasure(2, atoms=shared_eigenbasis_atoms(), density=0.3 * np.eye(2))
    got = wl.extract_measure(wl.build_shift_1v(mu, 16))
    assert len(got.atoms) == 3
    assert np.max(np.abs(got.density - 0.3 * np.eye(2))) <= 1e-12
    assert wl.measures_equal_up_to_unitary(mu, got).equal is True


def test_extract_non_scalar_density_stays_moment_exact():
    # out of the split's scope: the part of the density above its smallest
    # eigenvalue comes back as atoms, with the moments exact to caps - 1
    mu = wl.CircleMeasure(2, atoms=shared_eigenbasis_atoms(), density=np.diag([0.2, 0.5]))
    got = wl.extract_measure(wl.build_shift_1v(mu, 16))
    assert wl.measures_equal_up_to_unitary(mu, got, K=15).equal is True


def test_atoms_that_fill_the_depth_keep_no_density():
    # 7 atoms at caps 8 leave the Toeplitz matrix of mu_hat(0..7) one
    # eigenvalue at the density, so nothing is split off; at caps 10 three
    # are, and the class comes back
    atoms = wl.random_atomic_measure(1, 7, seed=3).atoms
    mu = wl.CircleMeasure(1, atoms=atoms, density=0.2 * np.eye(1))
    got = wl.extract_measure(wl.build_shift_1v(mu, 8))
    assert np.all(got.density == 0)
    assert_same_moments(got, mu, K=7, tol=1e-12)
    got = wl.extract_measure(wl.build_shift_1v(mu, 10))
    assert len(got.atoms) == 7
    assert abs(got.density[0, 0] - 0.2) <= 1e-12


def test_a_measure_that_misses_its_moments_raises(monkeypatch):
    # merge every angle into one atom: its moments miss the orbit moments
    T = wl.build_shift_1v(with_density(scalar_atoms(*THREE_ATOMS), 0.4), 16)
    monkeypatch.setattr(decomp, "_cluster_angles", lambda angles, tol: [np.arange(angles.size)])
    with pytest.raises(wl.ConvergenceError, match="misses its orbit moments"):
        wl.extract_measure(T)


def test_extraction_factors_atom_sized_matrices(dense_factorizations):
    # with the density split off, only the eigenvalues of the full Toeplitz
    # matrix of mu_hat(0..K) are taken at caps size; the dilation of three
    # atoms factors matrices of at most (2 * 3 + 1) d rows
    T = wl.build_shift_1v(with_density(scalar_atoms(*THREE_ATOMS), 0.4), 96)
    decomp.certify(T).require_analytic()
    dense_factorizations.clear()
    wl.extract_measure(T)
    assert len([shape for shape in dense_factorizations if max(shape) > 7]) == 1


def test_round_trip_up_to_unitary_random(rng):
    for seed in (3, 4, 5):
        mu = wl.random_atomic_measure(1, 3, seed=seed)
        T = wl.build_shift_1v(mu, 32)
        got = wl.extract_measure(T)
        cmp = wl.measures_equal_up_to_unitary(mu, got, K=8)
        assert cmp.equal is True, cmp.detail


# -- norm identities -------------------------------------------------------------


def test_norm_identity_constant_vector():
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 10)
    x = np.zeros(11, dtype=complex)
    x[0] = 1.0
    assert wl.check_norm_identity(T, x) < 1e-14


def test_norm_identity_random_core_vectors(rng):
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 16)
    for _ in range(10):
        x = random_core_vector(T, rng, margin=4)
        assert wl.check_norm_identity(T, x) < 1e-9 * (1 + T.dom.norm(x) ** 2)


@pytest.mark.parametrize("make", NON_ANALYTIC)
def test_norm_identity_rejects_unitary(make):
    T = make()
    with pytest.raises(wl.AssumptionError):
        wl.check_norm_identity(T, np.ones(T.dom.dim_total, dtype=complex))


def test_two_variable_identity_constant():
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=6)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 6, 6)
    x = np.zeros(T1.dom.dim_total, dtype=complex)
    x[0] = 1.0
    assert wl.check_two_variable_identity(T1, T2, x) < 1e-14


def test_two_variable_identity_random(rng):
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=16)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 8, 8)
    core = joint_core(T1, T2, 4)
    for _ in range(10):
        c = rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim)
        x = core.basis @ c
        assert wl.check_two_variable_identity(T1, T2, x) < 1e-8 * (1 + T1.dom.norm(x) ** 2)


def test_two_variable_identity_shifted_kernel_vector():
    mu1, mu2 = wl.random_measure_pair(1, 1, seed=26)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 8, 8)
    E = wl.subspace_intersect(wl.certify(T1).E, wl.certify(T2).E)
    a = E.basis[:, 0]
    x = T1.matrix @ (T2.matrix @ a)
    assert wl.check_two_variable_identity(T1, T2, x) < 1e-9


def test_two_variable_identity_early_stop_matches_full_sum(rng):
    # reference: every one of the (dim_total + 1)^2 terms, no early stop
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=16)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 8, 8)
    core = joint_core(T1, T2, 4)
    x = core.basis @ (rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim))
    x /= T1.dom.norm(x)  # unit Gram norm, so the bound below is 45 ulp of ||x||^2
    G = T1.dom.gram
    F1 = T1.matrix.conj().T @ G @ T1.matrix - G
    F2 = T2.matrix.conj().T @ G @ T2.matrix - G
    F12 = (T2.matrix @ T1.matrix).conj().T @ G @ (T1.matrix @ T2.matrix) \
        - T1.matrix.conj().T @ G @ T1.matrix - T2.matrix.conj().T @ G @ T2.matrix + G
    L1 = wl.left_inverse(T1).matrix
    L2 = wl.left_inverse(T2).matrix
    P1, _ = range_complement_projection(T1)
    P2, _ = range_complement_projection(T2)

    def sq(v, M=G):
        return float((v.conj() @ (M @ v)).real)

    acc = 0.0
    ym = x
    for m in range(T1.dom.dim_total + 1):
        y = ym
        for n in range(T2.dom.dim_total + 1):
            acc += sq(P1 @ (P2 @ y))
            if m >= 1:
                acc += sq(P2 @ y, F1)
            if n >= 1:
                acc += sq(P1 @ y, F2)
            if m >= 1 and n >= 1:
                acc += sq(y, F12)
            y = L2 @ y
        ym = L1 @ ym
    full = abs(sq(x) - acc)
    assert abs(wl.check_two_variable_identity(T1, T2, x) - full) < 1e-14


def whitened_left_inverse(T):
    amb = T.dom
    return amb.whiten(wl.certify(T).L @ amb.unwhiten(np.eye(amb.dim_total)))


def test_left_inverses_of_the_identity_inputs_are_contractions():
    # the series of the norm identities bound the terms they leave out
    # through ||L||_G <= 1
    ops = [wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), caps) for caps in (10, 16)]
    ops += [wl.build_shift_1v(wl.random_atomic_measure(1, 2, seed=3000 + s), 16) for s in (1, 2)]
    ops.append(wl.build_shift_1v(wl.random_atomic_measure(2, 3, seed=5), 12))
    for seed, caps in ((6, 6), (16, 8), (3103, 8), (3104, 8)):
        ops += wl.build_pair_2v(*wl.random_measure_pair(1, 2, seed=seed), caps, caps)
    for T in ops:
        assert np.linalg.norm(whitened_left_inverse(T), 2) <= 1 + 1e-12


@pytest.fixture
def series_lengths(monkeypatch):
    """(columns in, iterates out) of every ``_series`` call, in call order."""
    log = []
    real = decomp._series

    def recorded(L, G, Y, negligible):
        out = real(L, G, Y, negligible)
        log.append((Y.shape[1], out[0].shape[1]))
        return out

    monkeypatch.setattr(decomp, "_series", recorded)
    return log


def test_norm_identity_form_stops_after_ceil_log2_D_doublings(rng, monkeypatch):
    # L of a caps-24 shift lowers the degree, so it is nilpotent of index 25
    # and M = L^32 vanishes after 5 doublings; the series the form replaced
    # ran 21 iterates for this x of degree 20, and every other x of T reads
    # the same form
    bounds = []
    real = decomp._tail_bound

    def recorded(M, R, c2, ci2):
        bounds.append(real(M, R, c2, ci2))
        return bounds[-1]

    monkeypatch.setattr(decomp, "_tail_bound", recorded)
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 24)
    x = np.zeros(25, dtype=complex)
    x[:21] = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    x /= T.dom.norm(x)
    assert wl.check_norm_identity(T, x) < 1e-13
    assert len(bounds) == 6 and bounds[-1] <= decomp._EPS < min(bounds[:-1])
    assert wl.check_norm_identity(T, random_core_vector(T, rng)) < 1e-12
    assert len(bounds) == 6


def test_two_variable_series_stop_at_the_degree_of_x(rng, series_lengths):
    # x of bidegree at most (4, 4) at caps 8: 5 outer iterates and 5 inner
    # ones for each, where the old stop ran 11 and 89.  The series run on
    # the dense route, so on the scrambled twin of the coordinate pair, at
    # the twin W^H x of x
    pair = wl.build_pair_2v(*wl.random_measure_pair(1, 2, seed=16), 8, 8)
    (T1, T2), W = wl.scramble(pair, 16)
    x = np.zeros((9, 9), dtype=complex)
    x[:5, :5] = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    x = W.conj().T @ x.reshape(-1)
    x /= T1.dom.norm(x)
    assert wl.check_two_variable_identity(T1, T2, x) < 1e-13
    assert series_lengths == [(1, 5), (5, 25)]
    assert wl.check_two_variable_identity(*pair, W @ x) < 1e-13
    assert len(series_lengths) == 2


def test_a_form_whose_left_inverse_is_not_nilpotent_raises():
    # L = I: M stays I at every doubling, and its tail bound never falls
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 10)
    cert = wl.certify(T).require_analytic()
    vars(cert)["L"] = np.eye(T.dom.dim_total, dtype=complex)
    with pytest.raises(wl.ConvergenceError, match="not nilpotent"):
        wl.check_norm_identity(T, np.eye(11)[0])


def install_short_kernel(T, X):
    """Replace the certificate of T by one whose E misses the direction of
    ker T* that the columns X reach most: the leading left singular
    vector of E^H G X.  It keeps the true split, so T still reads as
    analytic."""
    true = wl.certify(T)
    U, _, _ = np.linalg.svd(coords(true.E, X))
    short = decomp.Certificate(true.defect, wl.Subspace(T.dom, true.E.basis @ U[:, 1:]),
                               true.tols, weakref.ref(T))
    vars(short)["split"] = true.split
    T.certificates[wl.DEFAULTS] = short


def test_a_kernel_missing_a_direction_breaks_the_norm_identity(rng):
    # d = 2, so ker T* is two-dimensional and keeps one direction
    T = wl.build_shift_1v(wl.random_atomic_measure(2, 3, seed=5), 12)
    x = random_core_vector(T, rng)
    x /= T.dom.norm(x)
    assert wl.check_norm_identity(T, x) < 1e-12
    install_short_kernel(T, T.core_subspace(4).basis)
    assert wl.check_norm_identity(T, x) > 1e-4


def test_a_kernel_missing_a_direction_breaks_the_two_variable_identity(rng):
    # the dense route reads ker T2* from the certificate of T2, on the
    # scrambled twin of a coordinate pair; the product route reads the
    # one-dimensional ker S2* of the second factor shift, on the pair itself
    pair = wl.build_pair_2v(*wl.random_measure_pair(1, 2, seed=6), 6, 6)
    (T1, T2), W = wl.scramble(pair, 6)
    core = joint_core(T1, T2, 2)
    x = core.basis @ (rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim))
    x /= T1.dom.norm(x)
    assert wl.check_two_variable_identity(T1, T2, x) < 1e-12
    install_short_kernel(T2, core.basis)
    assert wl.certify(T2).E.dim == 6
    assert wl.check_two_variable_identity(T1, T2, x) > 1e-4
    assert wl.check_two_variable_identity(*pair, W @ x) < 1e-12
    S2 = decomp._factor_shifts(pair[0].dom)[1]
    install_short_kernel(S2, np.eye(S2.dom.dim_total))
    assert wl.certify(S2).E.dim == 0
    assert wl.check_two_variable_identity(*pair, W @ x) > 1e-4


# -- model map V ------------------------------------------------------------------


def _analytic_pair(caps=10, seed=9):
    mu1 = scalar_atoms((0.9, 0.8))
    mu2 = scalar_atoms((4.0, 1.1))
    return wl.build_pair_2v(mu1, mu2, caps, caps)


def test_build_V_sends_orbit_vectors_to_monomials():
    T1, T2 = _analytic_pair()
    quad = wl.wold_pair(T1, T2)
    target = wl.build_space(quad.measures["eta1"], quad.measures["eta2"], *T1.dom.caps)
    V = wl.build_V(T1, T2, target)
    E = wl.subspace_intersect(wl.certify(T1).E, wl.certify(T2).E)
    a = E.basis[:, 0]
    for m, n in [(0, 0), (2, 1), (3, 3)]:
        x = np.linalg.matrix_power(T1.matrix, m) @ np.linalg.matrix_power(T2.matrix, n) @ a
        vx = V.matrix @ x
        image = wl.PolyVector.from_flat(target.caps, target.dim, vx)
        mask = np.zeros_like(image.coeffs, dtype=bool)
        mask[m, n, :] = True
        assert np.max(np.abs(image.coeffs[~mask])) < 1e-9
        assert abs(abs(image.coeffs[m, n, 0]) - 1.0) < 1e-9


def test_build_V_isometry_and_intertwining():
    T1, T2 = _analytic_pair(caps=16)
    quad = wl.wold_pair(T1, T2)
    target = wl.build_space(quad.measures["eta1"], quad.measures["eta2"], *T1.dom.caps)
    V = wl.build_V(T1, T2, target)
    assert V.info["isometry"] < 1e-8
    assert V.info["intertwine_1"] < 1e-8
    assert V.info["intertwine_2"] < 1e-8


def test_build_V_rows_equal_the_row_by_row_loop():
    # d = 2: each bidegree fills two contiguous rows
    T1, T2 = wl.build_pair_2v(*wl.random_measure_pair(2, 2, seed=3), 5, 4)
    quad = wl.wold_pair(T1, T2)
    target = wl.build_space(quad.measures["eta1"], quad.measures["eta2"], *T1.dom.caps)
    V = wl.build_V(T1, T2, target)
    assert np.array_equal(V.matrix, loop_model_rows(T1, T2, target))


def test_build_V_rejects_pair_with_unitary_summand():
    T1, T2 = _analytic_pair(caps=6)
    S1, S2 = wl.direct_sum([(T1, T2), wl.commuting_unitary_pair(3, seed=41)])
    with pytest.raises(wl.AssumptionError):
        wl.build_V(S1, S2, T1.dom)


def test_build_V_dirichlet_component_cross_check(rng):
    # the three derivative components of ||Vx||^2 match the corresponding
    # defect double sums
    T1, T2 = _analytic_pair(caps=8)
    quad = wl.wold_pair(T1, T2)
    target = wl.build_space(quad.measures["eta1"], quad.measures["eta2"], *T1.dom.caps)
    V = wl.build_V(T1, T2, target)
    G = T1.dom.gram
    F1 = T1.matrix.conj().T @ G @ T1.matrix - G
    F2 = T2.matrix.conj().T @ G @ T2.matrix - G
    T12 = T1.matrix @ T2.matrix
    T21 = T2.matrix @ T1.matrix
    F12 = T21.conj().T @ G @ T12 - T1.matrix.conj().T @ G @ T1.matrix \
        - T2.matrix.conj().T @ G @ T2.matrix + G
    L1 = wl.left_inverse(T1).matrix
    L2 = wl.left_inverse(T2).matrix
    P1 = np.eye(G.shape[0]) - T1.matrix @ L1
    P2 = np.eye(G.shape[0]) - T2.matrix @ L2
    core = joint_core(T1, T2, 4)
    for _ in range(5):
        c = rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim)
        x = core.basis @ c
        sums = {"d1": 0.0, "d2": 0.0, "d3": 0.0}
        ym = x.copy()
        for m in range(T1.dom.dim_total + 1):
            if np.linalg.norm(ym) < 1e-300:
                break
            y = ym.copy()
            for n in range(T2.dom.dim_total + 1):
                if np.linalg.norm(y) < 1e-300:
                    break
                if m >= 1:
                    v = P2 @ y
                    sums["d1"] += float((v.conj() @ (F1 @ v)).real)
                if n >= 1:
                    v = P1 @ y
                    sums["d2"] += float((v.conj() @ (F2 @ v)).real)
                if m >= 1 and n >= 1:
                    sums["d3"] += float((y.conj() @ (F12 @ y)).real)
                y = L2 @ y
            ym = L1 @ ym
        vx = wl.PolyVector.from_flat(target.caps, target.dim, V.matrix @ x)
        parts = wl.dirichlet_components(target, vx)
        scale = 1 + T1.dom.norm(x) ** 2
        for name in ("d1", "d2", "d3"):
            assert abs(parts[name] - sums[name]) < 1e-8 * scale


# -- pair decomposition -------------------------------------------------------------


def test_wold_pair_both_unitary():
    U1, U2 = wl.commuting_unitary_pair(6, seed=41)
    quad = wl.wold_pair(U1, U2)
    assert quad.block_dims() == (6, 0, 0, 0)


def test_wold_pair_pure_analytic_pair():
    T1, T2 = _analytic_pair(caps=8)
    quad = wl.wold_pair(T1, T2)
    assert quad.block_dims() == (0, 0, 0, T1.dom.dim_total)


def four_block_fixture(scramble_seed=42):
    nu1 = scalar_atoms((1.0, 0.7))
    nu2 = scalar_atoms((2.5, 1.2), (0.4, 0.5))
    eta1 = scalar_atoms((0.8, 0.6))
    eta2 = scalar_atoms((3.1, 0.9))
    return wl.make_four_block_instance(3, nu1, 8, nu2, 7, eta1, eta2, (5, 4),
                                       seed=1, scramble_seed=scramble_seed)


def test_wold_pair_four_block_recovery():
    inst = four_block_fixture()
    quad = wl.wold_pair(*inst.operators)
    assert quad.block_dims() == inst.truth["dims"]
    for name in ("H00", "H10", "H01", "H11"):
        assert getattr(quad, name).distance(inst.truth["blocks"][name]) < 1e-6
    for name in ("nu1", "nu2", "eta1", "eta2"):
        cmp = wl.measures_equal_up_to_unitary(inst.truth["measures"][name],
                                              quad.measures[name], K=8)
        assert cmp.equal is True, (name, cmp.detail)


def test_quadruple_json_with_verdicts():
    inst = four_block_fixture()
    quad = wl.wold_pair(*inst.operators)
    out = quad.to_json_dict(reference_measures=inst.truth["measures"])
    assert out["block_dims"] == list(inst.truth["dims"])
    assert all(out["verdicts"][k]["equal"] for k in ("nu1", "nu2", "eta1", "eta2"))
    assert "atoms" in out["measures"]["nu1"]


def acceptance_7_instance():
    """Shaped like the first case of acceptance test 7."""
    nu1 = wl.random_atomic_measure(1, 2, seed=7001)
    nu2 = wl.random_atomic_measure(1, 3, seed=7101)
    eta1 = wl.random_atomic_measure(1, 2, seed=7201)
    eta2 = wl.random_atomic_measure(1, 1, seed=7301)
    return wl.make_four_block_instance(3, nu1, 8, nu2, 7, eta1, eta2, (5, 4),
                                       seed=1, scramble_seed=701)


def test_wold_pair_unitary_block_is_joint_stable_range():
    inst = acceptance_7_instance()
    T1, T2 = inst.operators
    quad = wl.wold_pair(T1, T2)
    assert quad.block_dims() == inst.truth["dims"]
    T12 = wl.OperatorModel(T1.dom, T1.dom, T1.matrix @ T2.matrix)
    assert quad.H00.distance(stable_range(T12)) < 1e-10
    assert kernel_intersection_identity(T1, T2, quad.H10) < 1e-10


def test_wold_pair_joint_kernel_is_E_in_H11_coordinates():
    # the old route intersected ker R1* and ker R2* of the H11 restrictions
    T1, T2 = acceptance_7_instance().operators
    quad = wl.wold_pair(T1, T2)
    E = wl.subspace_intersect(wl.certify(T1).E, wl.certify(T2).E)
    R1, R2 = restrict_operator(T1, quad.H11), restrict_operator(T2, quad.H11)
    Ejoint = wl.Subspace(R1.dom, coords(quad.H11, E.basis))
    old = wl.subspace_intersect(wl.certify(R1).E, wl.certify(R2).E)
    assert Ejoint.dim == E.dim == old.dim == 1
    assert Ejoint.distance(old) < 1e-10
    for name, R in (("eta1", R1), ("eta2", R2)):
        mu_old = defect_route_measure(R, compress_to=old)
        for n in range(-8, 9):
            diff = wl.fourier_coefficient(quad.measures[name], n) - wl.fourier_coefficient(mu_old, n)
            assert np.max(np.abs(diff)) < 1e-10, (name, n)


def test_wold_pair_rejects_non_commuting():
    S1 = wl.build_shift_1v(scalar_atoms((0.3, 0.8)), 6)
    # the shift does not doubly commute with itself
    with pytest.raises(wl.AssumptionError):
        wl.wold_pair(S1, S1)


def test_wold_pair_rejects_a_commuting_pair_that_does_not_doubly_commute():
    # T and T^2 commute, and T^2 is again a 2-isometry, but T* T^2 != T^2 T*
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 12)
    T2 = wl.OperatorModel(T.dom, T.dom, T.matrix @ T.matrix, core_fn=lambda m: T.core(m + 2))
    wl.certify(T2)
    with pytest.raises(wl.AssumptionError, match="not doubly commuting"):
        wl.wold_pair(T, T2)


@settings(max_examples=6)
@given(seed=st.integers(0, 2**20), k=st.integers(0, 2), n_atoms=st.integers(1, 3),
       caps=st.integers(3, 10))
def test_pairs_that_do_not_doubly_commute_raise(seed, k, n_atoms, caps):
    # T = U_k ⊕ M_z(mu), scrambled, with itself and with T^2: both pairs
    # commute, and T* commutes with neither T nor T^2 on the shift part.
    # The 2-isometry defect of T^2 applies T^4 to its core, whose degree-0
    # slice is kept at every cap, so at caps 3 T^2 is rejected as a
    # 2-isometry before the pair is checked
    mu = wl.random_atomic_measure(1, n_atoms, seed=seed)
    T = wl.make_single_wold_instance(k, mu, caps, seed=seed, scramble_seed=seed + 1).operators[0]
    T2 = wl.OperatorModel(T.dom, T.dom, T.matrix @ T.matrix, core_fn=lambda m: T.core(m + 2))
    for pair, reason in (((T, T), "not doubly commuting"),
                         ((T, T2), "not doubly commuting" if caps >= 4 else "two-isometry")):
        with pytest.raises(wl.AssumptionError, match=reason):
            wl.wold_pair(*pair)


def test_the_E2_leak_of_a_non_reducing_subspace_is_past_the_gate():
    # the split of E2 = ker T2* by a T2-reducing subspace stays in E2; a
    # generic subspace of the same dimension leaks out of it
    T1, T2 = acceptance_7_instance().operators
    amb = T2.dom
    E2w = amb.whiten(wl.certify(T2).E.basis)
    A1w = amb.whiten(wl.certify(T1).orbit.basis)
    _, leak = decomp._kernel_part(A1w, E2w, wl.DEFAULTS)
    assert leak < 1e-12
    generic = wl.random_unitary(amb.dim_total, 9)[:, :A1w.shape[1]]
    _, leak = decomp._kernel_part(generic, E2w, wl.DEFAULTS)
    assert leak > wl.DEFAULTS.decomposition


def test_wold_pair_blocks_invariant_under_scramble():
    # recovered projectors transport exactly under a change of basis
    inst_a = four_block_fixture(scramble_seed=42)
    inst_b = four_block_fixture(scramble_seed=1042)
    qa = wl.wold_pair(*inst_a.operators)
    qb = wl.wold_pair(*inst_b.operators)
    for name in ("H00", "H10", "H01", "H11"):
        da = getattr(qa, name).distance(inst_a.truth["blocks"][name])
        db = getattr(qb, name).distance(inst_b.truth["blocks"][name])
        assert max(da, db) < 1e-6


# Invariance under scrambling: the same U_k (+) M_z(mu), or the same four-block
# pair, conjugated by two different unitaries decomposes into blocks of the
# same dimensions and measures with the same Fourier data (d = 1, so the
# coefficients themselves are unitary invariants).


def assert_same_measures(a, b):
    assert wl.measures_equal_up_to_unitary(a, b).equal is True
    assert np.max(np.abs(fourier_coefficients(a, 8) - fourier_coefficients(b, 8))) < 1e-8


@settings(max_examples=4)
@given(seed=st.integers(0, 2**20), k=st.integers(0, 2), n_atoms=st.integers(1, 3),
       density=st.booleans(), caps=st.integers(6, 14))
def test_wold_single_is_invariant_under_scrambling(seed, k, n_atoms, density, caps):
    mu = wl.random_atomic_measure(1, n_atoms, seed=seed, density_scale=0.4 * density)
    a, b = (wl.wold_single(wl.make_single_wold_instance(k, mu, caps, seed=seed,
                                                        scramble_seed=s).operators[0])
            for s in (seed + 1, seed + 2))
    assert (a.H0.dim, a.H1.dim) == (b.H0.dim, b.H1.dim) == (k, caps + 1)
    assert_same_measures(a.extracted, b.extracted)


@settings(max_examples=4)
@given(seed=st.integers(0, 2**20), k=st.integers(0, 2), n_atoms=st.integers(1, 3),
       caps=st.integers(6, 10))
def test_wold_single_is_invariant_under_scrambling_at_d2(seed, k, n_atoms, caps):
    # at d = 2 the coefficients are invariants only up to one unitary, so the
    # two scrambles, and the truth, are compared by the unitary verdict alone
    mu = wl.random_atomic_measure(2, n_atoms, seed=seed)
    a, b = (wl.wold_single(wl.make_single_wold_instance(k, mu, caps, seed=seed,
                                                        scramble_seed=s).operators[0])
            for s in (seed + 1, seed + 2))
    assert (a.H0.dim, a.H1.dim) == (b.H0.dim, b.H1.dim) == (k, 2 * (caps + 1))
    assert wl.measures_equal_up_to_unitary(a.extracted, b.extracted).equal is True
    assert wl.measures_equal_up_to_unitary(mu, a.extracted).equal is True


@settings(max_examples=3)
@given(seed=st.integers(0, 2**20), k00=st.integers(0, 2))
def test_wold_pair_is_invariant_under_scrambling(seed, k00):
    nu1, nu2 = (wl.random_atomic_measure(1, 2, seed=seed + j) for j in (1, 2))
    eta1, eta2 = wl.random_measure_pair(1, 2, seed=seed + 3)
    a, b = (wl.wold_pair(*wl.make_four_block_instance(k00, nu1, 5, nu2, 4, eta1, eta2, (3, 3),
                                                      seed=seed, scramble_seed=s).operators)
            for s in (seed + 4, seed + 5))
    assert a.block_dims() == b.block_dims()
    for name in ("nu1", "nu2", "eta1", "eta2"):
        assert_same_measures(a.measures[name], b.measures[name])


# A d = 1 coordinate pair is decomposed one factor at a time; its scrambled
# twin is the same pair in another basis and takes the dense route.


@settings(max_examples=10)
@given(seed=st.integers(0, 2**20), caps=st.tuples(st.integers(2, 8), st.integers(2, 8)),
       n_atoms=st.integers(1, 2))
def test_the_product_route_matches_the_dense_route_on_the_scrambled_twin(seed, caps, n_atoms):
    pair = wl.build_pair_2v(*wl.random_measure_pair(1, n_atoms, seed=seed), *caps)
    twin, _ = wl.scramble(pair, seed)
    assert decomp._coordinate_pair_space(*pair) is pair[0].dom
    assert decomp._coordinate_pair_space(*twin) is None
    product, dense = wl.wold_pair(*pair), wl.wold_pair(*twin)
    D = pair[0].dom.dim_total
    assert product.block_dims() == dense.block_dims() == (0, 0, 0, D)
    assert list(product.residuals) == list(dense.residuals)
    for name in ("eta1", "eta2"):
        assert_same_moments(product.measures[name], dense.measures[name])
    for quad in (product, dense):
        assert max(quad.residuals.values()) <= wl.DEFAULTS.decomposition


@settings(max_examples=10)
@given(seed=st.integers(0, 2**20), caps=st.lists(st.integers(2, 8), min_size=2, max_size=2,
                                                 unique=True),
       n_atoms=st.integers(1, 2))
def test_the_product_identities_and_model_map_match_the_dense_ones_on_the_scrambled_twin(
        seed, caps, n_atoms):
    # the twin x' of x is W^H x, and the dense V of the twin is the product
    # V times W, up to the unimodular constant that fixes a joint kernel
    mu1, mu2 = wl.random_measure_pair(1, n_atoms, seed=seed)
    pair = wl.build_pair_2v(mu1, mu2, *caps)
    twin, W = wl.scramble(pair, seed)
    rng = np.random.default_rng(seed)
    core = joint_core(*twin, 1)
    for _ in range(2):
        x = core.basis @ (rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim))
        x /= twin[0].dom.norm(x)
        assert wl.check_two_variable_identity(*twin, x) <= 1e-12
        assert wl.check_two_variable_identity(*pair, W @ x) <= 1e-12
    target = wl.build_space(mu1, mu2, *caps)
    product, dense = (wl.build_V(*ops, target) for ops in (pair, twin))
    for V in (product, dense):
        assert max(V.info.values()) <= wl.DEFAULTS.vmap
    A = product.matrix @ W
    c = np.vdot(A, dense.matrix) / np.vdot(A, A)
    assert abs(abs(c) - 1) <= 1e-12
    assert np.max(np.abs(c * A - dense.matrix)) <= 1e-12 * np.max(np.abs(dense.matrix))


@settings(max_examples=16)
@given(seed=st.integers(0, 2**20), caps=st.lists(st.integers(2, 9), min_size=2, max_size=2,
                                                 unique=True),
       cuts=st.lists(st.integers(0, 3), min_size=2, max_size=2),
       grow=st.sampled_from([0.0, 1e-6, 0.5]), bend=st.sampled_from([0.0, 1e-3]))
def test_the_product_gates_of_build_V_equal_the_dense_gates(seed, caps, cuts, grow, bend):
    # unequal source caps N_i, target caps M_i = N_i - cut_i <= N_i, the
    # atom weights of the target's first measure times 1 + grow, and the
    # left inverse of each factor shift moved by bend times a random
    # matrix.  A target that cannot hold the core degrees or a grown
    # measure moves the isometry residual off rounding, and rows from a
    # moved left inverse move every residual.  The gates the product route
    # reads from the factors equal the ones read from the assembled Grams
    # and the joint core
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=seed)
    pair = wl.build_pair_2v(mu1, mu2, *caps)
    assert decomp._coordinate_pair_space(*pair) is pair[0].dom
    ungated = replace(wl.DEFAULTS, vmap=np.inf)
    rng = np.random.default_rng(seed)
    for S in decomp._factor_shifts(pair[0].dom):
        cert = wl.certify(S, ungated)
        vars(cert)["L"] = cert.L + bend * rng.standard_normal(cert.L.shape)
    grown = wl.CircleMeasure(dim=1, density=mu1.density,
                             atoms=tuple((t, (1 + grow) * W) for t, W in mu1.atoms))
    target = wl.build_space(grown, mu2, *(max(N - cut, 0) for N, cut in zip(caps, cuts)))
    V = wl.build_V(*pair, target, ungated)
    got = [V.info[k] for k in ("isometry", "intertwine_1", "intertwine_2")]
    want = dense_model_map_gates(*pair, target, V.matrix)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def test_the_product_model_map_factors_nothing_with_D_rows(monkeypatch, dense_factorizations,
                                                           triangular_solves):
    # at caps 20 (D = 441) every Cholesky, counted factorization, spectral
    # norm and triangular solve of build_V has fewer than D / 2 rows: only
    # its D x D output is D-sized.  The scrambled twin, at caps 6, hands
    # them D rows through the same hooks
    handed = []
    for module, name in ((sla, "cholesky"), (np.linalg, "cholesky"), (np.linalg, "norm")):
        real = getattr(module, name)

        def logged(a, *args, _real=real, **kwargs):
            handed.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, logged)
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=3)
    for caps, scramble, large in ((20, False, False), (6, True, True)):
        pair = wl.build_pair_2v(mu1, mu2, caps, caps)
        if scramble:
            pair, _ = wl.scramble(pair, 5)
        target = wl.build_space(mu1, mu2, caps, caps)
        D = pair[0].dom.dim_total
        for log in (handed, dense_factorizations, triangular_solves):
            log.clear()
        assert wl.build_V(*pair, target).matrix.shape == (D, D)
        shapes = handed + list(dense_factorizations) + triangular_solves
        assert shapes and (max(shape[0] for shape in shapes) >= D / 2) is large


def _with_core(core_margin):
    """A caps-6 coordinate pair whose first operator reads its core at
    margin m from the graded core at margin ``core_margin(m)``."""
    T1, T2 = _analytic_pair(caps=6)
    return wl.OperatorModel(T1.dom, T1.dom, T1.matrix,
                            core_fn=lambda m: T1.core(core_margin(m))), T2


def _with_extra_entry():
    """A caps-6 coordinate pair whose first matrix has one more nonzero
    entry than the shift, away from the shift's unit entries."""
    T1, T2 = _analytic_pair(caps=6)
    M = T1.matrix.copy()
    M[0, 0] = 1e-3
    return wl.OperatorModel(T1.dom, T1.dom, M, core_fn=T1.core_fn), T2


NOT_PRODUCTS = {
    "d = 2": lambda: wl.build_pair_2v(*wl.random_measure_pair(2, 2, seed=3), 4, 4),
    "an extra entry": _with_extra_entry,
    "a cap of 0": lambda: wl.build_pair_2v(*wl.random_measure_pair(1, 2, seed=3), 6, 0),
    "swapped": lambda: _analytic_pair(caps=6)[::-1],
    "another core": lambda: _with_core(lambda m: m + 1),
    # the graded core at the default margin 2, but not at margin 1, where
    # the left inverse reads it
    "another margin-1 core": lambda: _with_core(lambda m: max(m, 2)),
    "direct sum": lambda: wl.direct_sum([wl.commuting_unitary_pair(2, 4), _analytic_pair(caps=4)]),
}


@pytest.mark.parametrize("name", list(NOT_PRODUCTS))
def test_only_a_d1_coordinate_pair_takes_the_product_route(name):
    assert decomp._coordinate_pair_space(*NOT_PRODUCTS[name]()) is None


def test_a_pair_is_recognized_once_and_freed_with_its_operators(monkeypatch):
    found = []
    real = decomp._find_coordinate_pair_space

    def counted(T1, T2):
        found.append(None)
        return real(T1, T2)

    monkeypatch.setattr(decomp, "_find_coordinate_pair_space", counted)
    pair = _analytic_pair(caps=6)
    twin, _ = wl.scramble(pair, 6)
    for _ in range(3):
        assert decomp._coordinate_pair_space(*pair) is pair[0].dom
        assert decomp._coordinate_pair_space(*twin) is None
    assert len(found) == 2
    gc.disable()
    try:
        ops = [weakref.ref(T) for T in (*pair, *twin)]
        del pair, twin
        assert all(op() is None for op in ops)
    finally:
        gc.enable()


def test_the_same_core_is_still_a_coordinate_pair():
    T1, T2 = _with_core(lambda m: m)
    assert decomp._coordinate_pair_space(T1, T2) is T1.dom


def test_the_product_route_rejects_a_factor_with_a_unitary_block(monkeypatch):
    # a truncated M_z is nilpotent, so a factor H0 can only come from a fault
    real = decomp.wold_single

    def with_h0(T, tols):
        single = real(T, tols)
        single.H0 = single.H1
        return single

    monkeypatch.setattr(decomp, "wold_single", with_h0)
    with pytest.raises(wl.ConvergenceError, match="unitary block"):
        wl.wold_pair(*_analytic_pair(caps=4))


def block_sum(a, b):
    """The d = 2 measure a ⊕ b of two scalar measures."""
    atoms = [(t, np.diag([W[0, 0], 0])) for t, W in a.atoms]
    atoms += [(t, np.diag([0, W[0, 0]])) for t, W in b.atoms]
    return wl.CircleMeasure(dim=2, atoms=tuple(atoms),
                            density=np.diag([a.density[0, 0], b.density[0, 0]]))


@settings(max_examples=6)
@given(seed=st.integers(0, 2**20), caps=st.lists(st.integers(6, 14), min_size=2, max_size=2,
                                                 unique=True),
       n_atoms=st.integers(1, 3), density=st.booleans())
def test_extracted_measures_add_up_under_direct_sums(seed, caps, n_atoms, density):
    # shift(mu1, c1) ⊕ shift(mu2, c2), scrambled, with c1 != c2: one kernel
    # column is cut by the truncation first, so the moments are a measure's
    # only to the depth min(c1, c2) - 1, and there the extracted d = 2
    # measure is mu1 ⊕ mu2 up to a unitary
    mu1, mu2 = (wl.random_atomic_measure(1, n_atoms, seed=seed + j, density_scale=0.4 * density)
                for j in (0, 1))
    T, _ = wl.scramble(wl.direct_sum([wl.build_shift_1v(mu1, caps[0]),
                                      wl.build_shift_1v(mu2, caps[1])]), seed + 2)
    got = wl.extract_measure(T)
    K = min(caps) - 1
    want = block_sum(mu1, mu2)
    assert wl.measures_equal_up_to_unitary(want, got, K=K).equal is True
    a, b = fourier_coefficients(want, K), fourier_coefficients(got, K)
    # traces and Frobenius norms of the coefficients are unitary invariants
    assert np.max(np.abs(np.trace(a, axis1=1, axis2=2) - np.trace(b, axis1=1, axis2=2))) < 1e-10
    assert np.max(np.abs(np.linalg.norm(a, axis=(1, 2)) - np.linalg.norm(b, axis=(1, 2)))) < 1e-10


def test_wold_pair_idempotent_on_blocks():
    inst = four_block_fixture()
    quad = wl.wold_pair(*inst.operators)
    T1, T2 = inst.operators
    # restriction to H10: T1 shift-like, T2 unitary -> only H10 survives
    R1, R2 = restrict_operator(T1, quad.H10), restrict_operator(T2, quad.H10)
    sub = wl.wold_pair(R1, R2)
    assert sub.block_dims() == (0, quad.H10.dim, 0, 0)
    # restriction to H11 is jointly analytic
    R1, R2 = restrict_operator(T1, quad.H11), restrict_operator(T2, quad.H11)
    sub = wl.wold_pair(R1, R2)
    assert sub.block_dims() == (0, 0, 0, quad.H11.dim)


# -- certificates -------------------------------------------------------------------


@pytest.fixture
def wandering_calls(monkeypatch):
    """The operators whose kernel SVD certify runs (``wandering_subspace``),
    in call order."""
    calls = []
    real = decomp.wandering_subspace

    def counted(T, *args, **kwargs):
        calls.append(T)
        return real(T, *args, **kwargs)

    monkeypatch.setattr(decomp, "wandering_subspace", counted)
    return calls


def test_inherited_kernels_match_fresh_wandering_projections():
    # the measures read from the kernels the decompositions hold (E, P_H10 E1,
    # K01 and the joint kernel, under the ambient operators) against the
    # defect route on each fresh restriction, whose ker R* comes from an SVD
    inst = wl.make_single_wold_instance(2, scalar_atoms(*THREE_ATOMS), 16, seed=1,
                                        scramble_seed=23)
    T = inst.operators[0]
    res = wl.wold_single(T)
    assert_same_moments(res.extracted, defect_route_measure(restrict_operator(T, res.H1)))
    T1, T2 = acceptance_7_instance().operators
    quad = wl.wold_pair(T1, T2)
    fresh = fresh_restriction_measures(T1, T2, quad)
    for name, mu in quad.measures.items():
        assert_same_moments(mu, fresh[name])
    # ker (T1|H11)* is [E]_T2 and ker (T2|H11)* is [E]_T1, not the joint kernel E
    assert wl.certify(restrict_operator(T1, quad.H11)).E.dim == 5
    assert wl.certify(restrict_operator(T2, quad.H11)).E.dim == 6


def test_wold_single_certifies_once(wandering_calls):
    inst = wl.make_single_wold_instance(2, scalar_atoms(*THREE_ATOMS), 16, seed=1,
                                        scramble_seed=23)
    res = wl.wold_single(inst.operators[0])
    assert len(res.extracted.atoms) == 3
    assert wandering_calls == [inst.operators[0]]


def test_norm_identities_certify_each_operator_once(wandering_calls, rng):
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 16)
    for _ in range(6):
        assert wl.check_norm_identity(T, random_core_vector(T, rng)) < 1e-8
    assert wandering_calls == [T]


def test_wold_pair_certifies_each_operator_once(wandering_calls):
    T1, T2 = four_block_fixture().operators
    wl.wold_pair(T1, T2)
    assert wandering_calls == [T1, T2]


# Dense factorizations with both dimensions at least D / 2, pinned per
# decomposition, and for a pair also every counted factorization of any
# size.  Each E = ker T* takes one complete pivoted QR, and each Wold split
# one more: a pivoted QR of the stacked powers of its kernel gives the
# orbit and its complement together, where the orbit took one thin SVD
# per pass of more than one column and the complement a complete QR.
# wold_pair splits by T1 and then by T2 inside A1 and A0: no union SVD.
# A split whose orbit fills its block, or is empty, still costs its one
# QR, so the large count of a dense coordinate pair rises from 5 to 7
# while its total falls.  Each measure is read from orbit moments, so no
# restriction is certified and no defect operator is diagonalized.  A
# d = 1 coordinate pair is decomposed one factor at a time, by two
# wold_single calls on M_z at N_i + 1 rows: no factorization has D rows,
# and its scrambled twin keeps the dense count.


def test_wold_single_dense_factorization_count(dense_factorizations):
    inst = wl.make_single_wold_instance(2, scalar_atoms(*THREE_ATOMS), 16, seed=1,
                                        scramble_seed=23)
    T = inst.operators[0]
    dense_factorizations.clear()
    wl.wold_single(T)
    # 8 with the defect-space fit on a certified restriction, 10 before the cuts
    assert dense_factorizations.large(T.dom.dim_total) == 5


def test_wold_single_factorization_total_does_not_grow_with_caps(dense_factorizations):
    # every counted factorization, of any size: a pass of the orbit of the
    # one-dimensional ker T* is one column and takes no SVD, so the count
    # is the same at D = 19 and D = 67 (28 and 76 with an SVD per pass)
    counts = []
    for caps in (16, 64):
        T = wl.make_single_wold_instance(2, scalar_atoms(*THREE_ATOMS), caps, seed=1,
                                         scramble_seed=23).operators[0]
        dense_factorizations.clear()
        wl.wold_single(T)
        counts.append(len(dense_factorizations))
    assert counts == [11, 11]


def test_wold_pair_dense_factorization_count_on_a_four_block_pair(dense_factorizations):
    T1, T2 = acceptance_7_instance().operators
    dense_factorizations.clear()
    wl.wold_pair(T1, T2)
    # 12 with the defect-space fits on certified restrictions, 12 on the
    # five-orbit route too, 17 before the cuts
    assert dense_factorizations.large(T1.dom.dim_total) == 7
    # 51 with a thin SVD per orbit pass and a QR per complement
    assert len(dense_factorizations) == 40


def test_wold_pair_dense_factorization_count_on_a_coordinate_pair(dense_factorizations):
    T1, T2 = _analytic_pair(caps=10)
    D = T1.dom.dim_total
    dense_factorizations.clear()
    wl.wold_pair(T1, T2)
    # 7 on the dense route (5 with orbit passes and complements, 9 with the
    # defect-space fits on certified restrictions, 11 on the five-orbit
    # route, 20 before the cuts); the product route factors 11 x 11 blocks
    assert dense_factorizations.large(D) == 0
    assert max(max(shape) for shape in dense_factorizations) == 11
    # 27 on the dense route, 45 with a thin SVD per orbit pass and a QR per
    # complement; here 11 for each factor's wold_single
    assert len(dense_factorizations) == 22


def test_wold_pair_dense_factorization_count_on_a_scrambled_coordinate_pair(
        dense_factorizations):
    (T1, T2), _ = wl.scramble(_analytic_pair(caps=10), 11)
    dense_factorizations.clear()
    wl.wold_pair(T1, T2)
    # the scrambled twin is not seen as a product and takes the dense route
    assert dense_factorizations.large(T1.dom.dim_total) == 7
    assert len(dense_factorizations) == 27


def test_pair_identities_and_model_map_factorization_counts(dense_factorizations, rng):
    # three identities and build_V: on a coordinate pair, 4 per factor shift
    # at N_i + 1 rows (defect, ker S*, split and left inverse) and none with
    # D / 2 rows; on its scrambled twin the same 4 per operator at D rows,
    # and the intersection of the two kernels
    pair = _analytic_pair(caps=10)
    twin, _ = wl.scramble(pair, 11)
    target = wl.build_space(scalar_atoms((0.9, 0.8)), scalar_atoms((4.0, 1.1)), 10, 10)
    counts = []
    for T1, T2 in (pair, twin):
        core = joint_core(T1, T2, 4)
        xs = [core.basis @ rng.standard_normal(core.dim) for _ in range(3)]
        dense_factorizations.clear()
        for x in xs:
            wl.check_two_variable_identity(T1, T2, x)
        wl.build_V(T1, T2, target)
        counts.append((dense_factorizations.large(T1.dom.dim_total), len(dense_factorizations)))
    assert counts == [(0, 8), (8, 9)]


def test_wold_pair_builds_its_joint_core_once(monkeypatch):
    calls = []
    for module in (decomp, operators):
        real = module.joint_core

        def counted(*args, _real=real, **kwargs):
            calls.append(args[:2])
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "joint_core", counted)
    T1, T2 = four_block_fixture().operators
    wl.wold_pair(T1, T2)
    assert calls == [(T1, T2)]


def test_pair_identities_and_model_map_share_certificates(wandering_calls, rng):
    # the scrambled twin takes the dense route and certifies T1 and T2
    (T1, T2), _ = wl.scramble(_analytic_pair(caps=8), 8)
    core = joint_core(T1, T2, 4)
    for _ in range(3):
        x = core.basis @ (rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim))
        assert wl.check_two_variable_identity(T1, T2, x) < 1e-8 * (1 + T1.dom.norm(x) ** 2)
    wl.build_V(T1, T2, wl.build_space(scalar_atoms((0.9, 0.8)), scalar_atoms((4.0, 1.1)), 8, 8))
    assert wandering_calls == [T1, T2]


def test_a_coordinate_pair_certifies_each_factor_shift_once(wandering_calls, rng):
    # wold_pair, the identities and build_V read one factor shift per
    # variable, built once per space, and never certify T1 or T2
    T1, T2 = _analytic_pair(caps=8)
    wl.wold_pair(T1, T2)
    core = joint_core(T1, T2, 4)
    for _ in range(3):
        x = core.basis @ (rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim))
        assert wl.check_two_variable_identity(T1, T2, x) < 1e-8 * (1 + T1.dom.norm(x) ** 2)
    wl.build_V(T1, T2, wl.build_space(scalar_atoms((0.9, 0.8)), scalar_atoms((4.0, 1.1)), 8, 8))
    S1, S2 = decomp._factor_shifts(T1.dom)
    assert wandering_calls == [S1, S2]
    assert not T1.certificates and not T2.certificates


def test_scaled_tolerances_get_their_own_certificate(wandering_calls):
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 12)
    cert = wl.certify(T)
    assert wl.certify(T) is cert
    # the orbit, F, L and the memo T_w on T are built on first use only
    assert not {"split", "orbit", "F", "L"} & set(vars(cert))
    assert "whitened" not in vars(T)
    loose = wl.DEFAULTS.scaled(10)
    assert wl.certify(T, loose) is not cert
    assert wandering_calls == [T, T]
    assert set(T.certificates) == {wl.DEFAULTS, loose}


def test_decompositions_do_not_build_P(wandering_calls):
    # a certificate holds no projector; what is left to check is that the
    # decompositions certify the three operators given and no restriction
    inst = wl.make_single_wold_instance(2, scalar_atoms(*THREE_ATOMS), 16, seed=1,
                                        scramble_seed=23)
    T = inst.operators[0]
    wl.wold_single(T)
    T1, T2 = acceptance_7_instance().operators
    wl.wold_pair(T1, T2)
    assert wandering_calls == [T, T1, T2]
    assert all(len(op.certificates) == 1 for op in (T, T1, T2))


def test_norm_identities_and_model_map_do_not_build_P(rng):
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 16)
    wl.check_norm_identity(T, random_core_vector(T, rng))
    (T1, T2), _ = wl.scramble(_analytic_pair(caps=8), 8)
    core = joint_core(T1, T2, 4)
    wl.check_two_variable_identity(T1, T2, core.basis @ rng.standard_normal(core.dim))
    wl.build_V(T1, T2, wl.build_space(scalar_atoms((0.9, 0.8)), scalar_atoms((4.0, 1.1)), 8, 8))
    certs = [T.certificates[wl.DEFAULTS], T1.certificates[wl.DEFAULTS],
             T2.certificates[wl.DEFAULTS]]
    assert all("L" in vars(cert) for cert in certs)


def test_certificate_is_freed_with_its_operator():
    T = wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 12)
    x = np.zeros(13, dtype=complex)
    x[0] = 1.0
    gc.disable()
    try:
        wl.check_norm_identity(T, x)
        cert = weakref.ref(T.certificates[wl.DEFAULTS])
        assert {"split", "F", "L"} <= set(vars(cert()))
        del T
        assert cert() is None
    finally:
        gc.enable()


# -- negative controls at the tolerance edge -----------------------------------------
# A model shift (caps 16) and a scrambled four-block pair, each operator
# perturbed by eps N with N a seeded complex Gaussian and its safe core kept.
# Past the gate every entry point rejects the 2-isometry defect; nearer it,
# each call raises or returns residuals it certifies, never anything else.


def perturbed(T, eps, seed):
    rng = np.random.default_rng(seed)
    D = T.dom.dim_total
    N = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return wl.OperatorModel(T.dom, T.dom, T.matrix + eps * N, core_fn=T.core_fn)


def edge_cases(eps):
    """(perturbed operators, [(entry point, call)])."""
    S = perturbed(wl.build_shift_1v(scalar_atoms(*THREE_ATOMS), 16), eps, 7)
    T1, T2 = (perturbed(T, eps, seed) for T, seed in zip(four_block_fixture().operators, (11, 12)))
    calls = [("certify", lambda: wl.certify(S)), ("wold_single", lambda: wl.wold_single(S)),
             ("certify", lambda: wl.certify(T2)), ("wold_single", lambda: wl.wold_single(T1)),
             ("wold_pair", lambda: wl.wold_pair(T1, T2))]
    return (S, T1, T2), calls


def test_perturbation_past_the_gate_is_a_two_isometry_failure():
    ops, calls = edge_cases(1e-9)
    for T in ops:
        assert three_term_defect(T) >= 2 * wl.DEFAULTS.two_isometry
    for name, call in calls:
        with pytest.raises(wl.AssumptionError, match="two-isometry defect"):
            call()


@pytest.mark.parametrize("eps", [1e-13, 1e-12, 1e-11, 1e-10])
def test_smaller_perturbations_raise_or_certify(eps):
    _, calls = edge_cases(eps)
    for name, call in calls:
        try:
            out = call()
        except (wl.AssumptionError, wl.ConvergenceError):
            continue
        if name == "certify":
            assert out.defect <= wl.DEFAULTS.two_isometry
        else:
            assert max(out.residuals.values()) <= wl.DEFAULTS.decomposition, name


@pytest.mark.parametrize("eps", [1e-11, 1e-10])
def test_a_certified_operator_is_a_two_isometry_candidate(eps):
    # the defect operator clamps T*T - I in the band at which certify
    # accepted T, so no later call rejects it as a candidate; here every
    # call whose operators certify returns
    (S, T1, T2), _ = edge_cases(eps)
    certified = 0
    for ops, call in (((S,), wl.wold_single), ((T1,), wl.wold_single), ((T1, T2), wl.wold_pair)):
        try:
            for T in ops:
                wl.certify(T)
        except wl.AssumptionError:
            continue
        certified += 1
        try:
            out = call(*ops)
        except (wl.AssumptionError, wl.ConvergenceError) as exc:
            assert "not a 2-isometry candidate" not in str(exc), call.__name__
            raise
        assert max(out.residuals.values()) <= wl.DEFAULTS.decomposition, call.__name__
    assert certified


# -- Slocinski ---------------------------------------------------------------------


def test_slocinski_unitary_pair_is_uu():
    U1, U2 = wl.commuting_unitary_pair(5, seed=3)
    quad = wl.slocinski(U1, U2)
    assert quad.block_dims() == (5, 0, 0, 0)


def test_slocinski_hardy_pair_is_ss():
    z = wl.CircleMeasure.zero(1)
    V1, V2 = wl.build_pair_2v(z, z, 6, 6)
    quad = wl.slocinski(V1, V2)
    assert quad.block_dims() == (0, 0, 0, 49)
    for mu in quad.measures.values():
        assert np.linalg.norm(mu.total_mass) <= 1e-8


def test_slocinski_unitary_times_shift():
    # (unitary) x (unilateral shift): only the us-block survives
    z = wl.CircleMeasure.zero(1)
    s = wl.build_shift_1v(z, 8)
    lam = wl.OperatorModel(s.dom, s.dom, np.exp(0.9j) * np.eye(9), core_fn=s.core_fn)
    (V1, V2), _ = wl.scramble((lam, s), 17)
    quad = wl.slocinski(V1, V2)
    assert quad.block_dims() == (0, 0, 9, 0)


def test_slocinski_gates_a_coordinate_pair_on_its_factor_shifts(monkeypatch):
    # a weighted factor fails the isometry gate on both routes, with the
    # residual of the dense defect form; an isometric pair passes, and the
    # product route builds no defect form with D rows
    z, mu = wl.CircleMeasure.zero(1), scalar_atoms((0.5, 1.0))
    for measures, idx in (((mu, z), 1), ((z, mu), 2)):
        pair = wl.build_pair_2v(*measures, 6, 6)
        S = decomp._factor_shifts(pair[0].dom)[idx - 1]
        assert wl.unitarity_residual(S, margin=None) == pytest.approx(
            wl.unitarity_residual(pair[idx - 1], margin=None), rel=1e-10)
        for ops in (pair, wl.scramble(pair, 5)[0]):
            with pytest.raises(wl.AssumptionError, match=f"operator {idx} is not an isometry"):
                wl.slocinski(*ops)
    rows = []
    for module in (decomp, operators):
        real = module._defect_form

        def recorded(T, _real=real):
            rows.append(T.dom.dim_total)
            return _real(T)

        monkeypatch.setattr(module, "_defect_form", recorded)
    assert wl.slocinski(*wl.build_pair_2v(z, z, 6, 6)).block_dims() == (0, 0, 0, 49)
    assert rows and max(rows) == 7


def test_slocinski_rejects_non_isometry():
    T = wl.build_shift_1v(scalar_atoms((0.5, 1.0)), 8)  # 2-isometry, not isometry
    with pytest.raises(wl.AssumptionError):
        wl.slocinski(T, wl.OperatorModel(T.dom, T.dom, np.eye(9)))


# -- measure comparison ---------------------------------------------------------------


def test_measures_equal_identity():
    mu = wl.random_atomic_measure(2, 2, seed=19, density_scale=0.2)
    cmp = wl.measures_equal_up_to_unitary(mu, mu, K=6)
    assert cmp.equal is True
    np.testing.assert_allclose(cmp.unitary, np.eye(2), atol=1e-8)


def test_measures_equal_recovers_conjugation():
    mu = wl.random_atomic_measure(2, 2, seed=29)
    U0 = wl.random_unitary(2, 77)
    nu = wl.conjugate(mu, U0)
    cmp = wl.measures_equal_up_to_unitary(mu, nu, K=6)
    assert cmp.equal is True
    for n in range(-6, 7):
        np.testing.assert_allclose(
            cmp.unitary.conj().T @ wl.fourier_coefficient(mu, n) @ cmp.unitary,
            wl.fourier_coefficient(nu, n), atol=1e-8)


def test_measures_differ_in_angles():
    a = scalar_atoms((0.5, 1.0))
    b = scalar_atoms((0.6, 1.0))
    cmp = wl.measures_equal_up_to_unitary(a, b, K=4)
    assert cmp.equal is False


def test_measures_scalar_vs_dim_mismatch():
    a = scalar_atoms((0.5, 1.0))
    b = wl.random_atomic_measure(2, 1, seed=1)
    with pytest.raises(ValueError):
        wl.measures_equal_up_to_unitary(a, b)


def test_measures_degenerate_spectrum_decided():
    # equal measures whose coefficients are all scalar: every combination has
    # one repeated eigenvalue, and any unitary aligns them
    W = np.eye(2)
    a = wl.CircleMeasure(dim=2, atoms=((0.5, W), (2.5, np.diag([0.3, 0.3]))))
    b = wl.conjugate(a, wl.random_unitary(2, 5))
    cmp = wl.measures_equal_up_to_unitary(a, b, K=4)
    assert cmp.equal is True, cmp.detail
    assert_aligns(cmp.unitary, a, b, K=4)


# -- measure comparison: properties ------------------------------------------------

KINDS = ("generic", "commuting", "scalar", "block-sum", "kron")
seeds = st.integers(0, 2**32 - 1)


def assert_aligns(U, a, b, K=8):
    np.testing.assert_allclose(U.conj().T @ U, np.eye(a.dim), atol=1e-10)
    for n in range(-K, K + 1):
        np.testing.assert_allclose(U.conj().T @ wl.fourier_coefficient(a, n) @ U,
                                   wl.fourier_coefficient(b, n), atol=1e-8)


def drawn_measure(kind, d, n_atoms, with_density, seed):
    """Atoms and an optional density whose weights have the structure ``kind``:
    independent, one shared eigenbasis, w I, a 2 + 1 or 1 + 1 block sum, or A (x) I_2."""
    rng = np.random.default_rng(seed)
    basis = wl.random_unitary(d, seed)

    def psd(m):
        X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        return X @ X.conj().T / m + 0.1 * np.eye(m)

    def weight():
        if kind == "generic":
            return psd(d)
        if kind == "commuting":
            return (basis * rng.uniform(0.1, 1.0, d)) @ basis.conj().T
        if kind == "scalar":
            return rng.uniform(0.1, 1.0) * np.eye(d)
        if kind == "block-sum":
            return sla.block_diag(psd(d - 1), psd(1))
        return np.kron(psd(d // 2), np.eye(2))

    angles = np.sort(rng.uniform(0, 2 * np.pi, n_atoms))
    return wl.CircleMeasure(dim=d, atoms=tuple((float(t), weight()) for t in angles),
                            density=weight() if with_density else None)


@st.composite
def measures(draw, kind):
    d = draw(st.sampled_from((2, 4) if kind == "kron" else (2, 3)))
    return drawn_measure(kind, d, draw(st.integers(1, 3)), draw(st.booleans()), draw(seeds))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_comparison_finds_the_conjugating_unitary(kind, data):
    mu = data.draw(measures(kind))
    nu = wl.conjugate(mu, wl.random_unitary(mu.dim, data.draw(seeds)))
    cmp = wl.measures_equal_up_to_unitary(mu, nu, K=8)
    assert cmp.equal is True, cmp.detail
    assert_aligns(cmp.unitary, mu, nu)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_comparison_rejects_a_changed_weight(kind, data):
    mu = data.draw(measures(kind))
    rng = np.random.default_rng(data.draw(seeds))
    X = rng.standard_normal((mu.dim, mu.dim)) + 1j * rng.standard_normal((mu.dim, mu.dim))
    E = X + X.conj().T
    E *= 1e-4 / np.linalg.norm(E, 2)
    atoms = list(mu.atoms)
    j = data.draw(st.integers(0, len(atoms) - 1))
    atoms[j] = (atoms[j][0], atoms[j][1] + E)
    changed = wl.CircleMeasure(dim=mu.dim, atoms=tuple(atoms), density=mu.density)
    nu = wl.conjugate(changed, wl.random_unitary(mu.dim, data.draw(seeds)))
    cmp = wl.measures_equal_up_to_unitary(mu, nu, K=8)
    assert cmp.equal is False, cmp.detail


def near_repeated(mu, low, K=8):
    """mu with eigenvalue ``low`` of its combination H = C + C^H raised, through
    the density, to 1e-7 below the next one: a cluster no eigenvector fixes."""
    w = decomp._generic_weights(K)
    C = sum(wn * wl.fourier_coefficient(mu, n) for wn, n in zip(w[0], range(-K, K + 1)))
    lam, V = np.linalg.eigh(C + C.conj().T)
    shift = (lam[low + 1] - lam[low] - 1e-7) / (2 * w[0, K].real)
    density = mu.density + shift * np.outer(V[:, low], V[:, low].conj())
    return wl.CircleMeasure(dim=mu.dim, atoms=mu.atoms, density=density)


@pytest.mark.parametrize("low", (0, 1))
@given(seed=seeds, useed=seeds)
def test_comparison_aligns_across_a_near_repeated_eigenvalue(low, seed, useed):
    # the links to the simple cluster fix the unitary of the pair
    mu = near_repeated(drawn_measure("generic", 3, 2, True, seed), low)
    nu = wl.conjugate(mu, wl.random_unitary(3, useed))
    cmp = wl.measures_equal_up_to_unitary(mu, nu, K=8)
    assert cmp.equal is True, cmp.detail
    assert_aligns(cmp.unitary, mu, nu)


@given(seed=seeds, useed=seeds)
def test_comparison_never_rejects_when_the_alignment_is_free(seed, useed):
    # d = 2 with one cluster: no link fixes its unitary, but the eigenbases of
    # the Hermitian parts of the second combination's diagonal blocks split it
    mu = near_repeated(drawn_measure("generic", 2, 2, True, seed), 0)
    nu = wl.conjugate(mu, wl.random_unitary(2, useed))
    cmp = wl.measures_equal_up_to_unitary(mu, nu, K=8)
    assert cmp.equal is True, cmp.detail
    assert_aligns(cmp.unitary, mu, nu)


def max_imaginary_word_trace(mats, length):
    """max |Im tr w| over the words w of length <= ``length`` in ``mats``."""
    words, worst = np.eye(mats.shape[1])[None], 0.0
    for _ in range(length):
        words = (words[:, None] @ mats[None]).reshape(-1, *mats.shape[1:])
        worst = max(worst, float(np.max(np.abs(np.trace(words, axis1=1, axis2=2).imag))))
    return worst


@pytest.mark.parametrize("kind", ("generic", "commuting"))
@given(data=st.data())
def test_comparison_with_the_transpose_matches_word_traces(kind, data):
    # b = a^T has weights W^T = conj(W), and tr w(W^T) = conj tr w(W) for every
    # word w, so a and a^T are unitarily equivalent iff every word trace is real
    # (words of length <= 3 decide d = 2, words of length <= 6 decide d = 3)
    mu = data.draw(measures(kind))
    mats = np.stack([W for _, W in mu.atoms] + [mu.density])
    nu = wl.CircleMeasure(dim=mu.dim, atoms=tuple((t, W.T) for t, W in mu.atoms),
                          density=mu.density.T)
    imag = max_imaginary_word_trace(mats, 3 if mu.dim == 2 else 6)
    assume(imag < 1e-9 or imag > 1e-4)
    cmp = wl.measures_equal_up_to_unitary(mu, nu, K=8)
    event(f"d = {mu.dim}, equivalent: {imag < 1e-9}")
    assert cmp.equal is (imag < 1e-9), (imag, cmp.detail)
    if cmp.equal:
        assert_aligns(cmp.unitary, mu, nu)
