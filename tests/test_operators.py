"""Adjoints, defect operators, left inverses, projections, subspace calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import woldlab as wl
from woldlab import operators
from woldlab._blas import one_blas_thread
from woldlab.instances import block_embeddings
from woldlab.operators import (
    IndexCore,
    SpanCore,
    _pivoted_qr,
    core_intersection,
    joint_core,
    orthonormal_columns,
    range_complement_projection,
)
from woldlab.space import EuclideanSpace, coordinate_shift_matrix, factor_spaces

from conftest import scalar_atoms
from reference import (
    adjoint,
    apply_to_subspace,
    coords,
    eigh_intersection,
    restrict_operator,
    subspace_sum,
    three_term_defect,
)


def jordan_block():
    sp = EuclideanSpace(2)
    return wl.OperatorModel(sp, sp, np.array([[0.0, 0.0], [1.0, 0.0]]))


def plain_shift(n):
    sp = EuclideanSpace(n)
    S = np.zeros((n, n))
    for m in range(n - 1):
        S[m + 1, m] = 1.0
    return wl.OperatorModel(sp, sp, S)


# -- the Gram adjoint of tests/reference.py ------------------------------------


def test_adjoint_identity_gram_is_conj_transpose(rng):
    sp = EuclideanSpace(5)
    A = wl.OperatorModel(sp, sp, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    np.testing.assert_allclose(adjoint(A).matrix, A.matrix.conj().T, atol=1e-14)


def test_adjoint_weighted_shift_entries():
    # on the diagonal space with weights w_m = 1 + m the adjoint of the
    # shift has (S*)[m, m+1] = w_{m+1} / w_m
    mu = wl.CircleMeasure.lebesgue(1)
    T = wl.build_shift_1v(mu, 6)
    S = adjoint(T).matrix
    for m in range(6):
        assert S[m, m + 1] == pytest.approx((m + 2) / (m + 1))
    off = S - np.diag(np.diag(S, 1), 1)
    np.testing.assert_allclose(off, 0, atol=1e-12)


def test_adjoint_involution(rng):
    mu = scalar_atoms((0.9, 0.7))
    T = wl.build_shift_1v(mu, 8)
    A = wl.OperatorModel(T.dom, T.dom, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    np.testing.assert_allclose(adjoint(adjoint(A)).matrix, A.matrix, atol=1e-12)


def test_adjoint_pairing_contract(rng):
    mu1, mu2 = wl.random_measure_pair(2, 2, seed=2)
    sp = wl.build_space(mu1, mu2, 3, 3)
    D = sp.dim_total
    A = wl.OperatorModel(sp, sp, rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
    Astar = adjoint(A)
    for _ in range(100):
        x = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        y = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        lhs = sp.inner(A.matrix @ x, y)
        rhs = sp.inner(x, Astar.matrix @ y)
        assert abs(lhs - rhs) < 1e-10 * (1 + sp.norm(x) * sp.norm(y))


# -- two-isometry defect -----------------------------------------------------


def test_defect_zero_for_unitary():
    U = wl.unitary_operator(wl.random_unitary(6, 3))
    assert wl.two_isometry_defect(U) < 1e-13


def test_defect_zero_for_model_shift():
    mu = wl.CircleMeasure.lebesgue(1)
    T = wl.build_shift_1v(mu, 10)
    assert wl.two_isometry_defect(T) < 1e-12


def test_defect_jordan_block_is_one():
    # T*^2 T^2 - 2 T*T + I = diag(-1, 1) for the nilpotent Jordan block
    assert wl.two_isometry_defect(jordan_block()) == pytest.approx(1.0)
    assert three_term_defect(jordan_block()) == pytest.approx(1.0)


# two_isometry_defect reads T^H F T - F with F = T^H G T - G; the reference
# forms T^2 and the three terms.  Equal in exact arithmetic, they agree to
# rounding.


def assert_defect_forms_agree(T):
    scale = max(1.0, float(np.linalg.norm(T.dom.gram, 2)))
    assert abs(wl.two_isometry_defect(T) - three_term_defect(T)) <= 1e-12 * scale


defect_seeds = st.integers(0, 2**20)


@given(seed=defect_seeds, n_atoms=st.integers(1, 3), density=st.booleans(), caps=st.integers(1, 24))
def test_defect_form_matches_three_terms_on_model_shifts(seed, n_atoms, density, caps):
    mu = wl.random_atomic_measure(1, n_atoms, seed=seed, density_scale=0.4 * density)
    assert_defect_forms_agree(wl.build_shift_1v(mu, caps))


@given(seed=defect_seeds, n_atoms=st.integers(1, 3), caps=st.integers(1, 7))
def test_defect_form_matches_three_terms_on_a_d2_coordinate_pair(seed, n_atoms, caps):
    for T in wl.build_pair_2v(*wl.random_measure_pair(2, n_atoms, seed=seed), caps, caps):
        assert_defect_forms_agree(T)


@given(seed=defect_seeds, k=st.integers(0, 4), caps=st.integers(2, 24))
def test_defect_form_matches_three_terms_on_scrambled_single_instances(seed, k, caps):
    mu = wl.random_atomic_measure(1, 2, seed=seed, density_scale=0.4)
    inst = wl.make_single_wold_instance(k, mu, caps, seed=seed, scramble_seed=seed + 1)
    assert_defect_forms_agree(inst.operators[0])


@given(seed=defect_seeds)
def test_defect_form_matches_three_terms_on_scrambled_four_block_pairs(seed):
    nu1, nu2 = (wl.random_atomic_measure(1, 2, seed=seed + j) for j in (1, 2))
    eta1, eta2 = wl.random_measure_pair(1, 2, seed=seed + 3)
    inst = wl.make_four_block_instance(2, nu1, 6, nu2, 5, eta1, eta2, (4, 3),
                                       seed=seed, scramble_seed=seed + 4)
    for T in inst.operators:
        assert_defect_forms_agree(T)


# -- doubly commuting ---------------------------------------------------------


def test_coordinate_pair_doubly_commutes():
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=7)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 7, 7)
    c1, c2 = wl.doubly_commuting_residual(T1, T2)
    assert c1 < 1e-10 and c2 < 1e-10


def test_unitary_pair_doubly_commutes():
    U = wl.unitary_operator(wl.random_unitary(5, 9))
    c1, c2 = wl.doubly_commuting_residual(U, U)
    assert c1 < 1e-14 and c2 < 1e-14


def test_shift_with_itself_fails_star_commuting():
    S = plain_shift(3)
    c1, c2 = wl.doubly_commuting_residual(S, S)
    assert c1 < 1e-14
    assert c2 > 0.1  # [S*, S] = diag(1, 0, -1) on the plain shift


# -- defect operator ----------------------------------------------------------


def test_defect_operator_isometry_trivial():
    z = wl.CircleMeasure.zero(1)
    T = wl.build_shift_1v(z, 8)
    D, Dspace = wl.defect_operator(T)
    assert Dspace.dim == 0
    np.testing.assert_allclose(D.matrix, 0, atol=1e-12)


def test_defect_squared_is_fourier_toeplitz():
    mu = scalar_atoms((0.5, 0.8), (2.2, 0.4))
    N = 10
    T = wl.build_shift_1v(mu, N)
    D, _ = wl.defect_operator(T)
    G = T.dom.gram
    core = T.dom.core_indices(1)
    form = (G @ D.matrix @ D.matrix)[np.ix_(core, core)]
    toeplitz = np.array([[wl.fourier_coefficient(mu, p - m)[0, 0]
                          for m in range(N)] for p in range(N)])
    assert np.max(np.abs(form - toeplitz)) < 1e-9


def test_defect_rank_one_for_single_atom():
    mu = scalar_atoms((1.3, 0.9))
    T = wl.build_shift_1v(mu, 12)
    _, Dspace = wl.defect_operator(T)
    assert Dspace.dim == 1


def test_isometric_restrictions_have_no_defect_at_rounding_level():
    # the Hardy pair is isometric, so T*T - I vanishes on every basis of it;
    # through a random Gram-unitary basis its eigenvalues are rounding
    # (about 1e-16) and must not count as rank
    z = wl.CircleMeasure.zero(1)
    pair = wl.build_pair_2v(z, z, 5, 5)
    sp = pair[0].dom
    for seed in range(40):
        S = wl.Subspace(sp, sp.unwhiten(wl.random_unitary(sp.dim_total, seed)))
        for T in pair:
            R = restrict_operator(T, S)
            D, Dspace = wl.defect_operator(R)
            assert D.info["rank"] == Dspace.dim == 0
            mu = wl.extract_measure(R)
            assert mu.atoms == () and not np.any(mu.total_mass)


def test_defect_rejects_contractions():
    assert wl.two_isometry_defect(jordan_block()) > 0.5
    with pytest.raises(wl.AssumptionError):
        wl.defect_operator(jordan_block())


# -- left inverse and wandering projection -----------------------------------


def test_left_inverse_of_unitary_is_adjoint():
    U = wl.unitary_operator(wl.random_unitary(5, 21))
    L = wl.left_inverse(U)
    np.testing.assert_allclose(L.matrix, U.matrix.conj().T, atol=1e-12)


def test_left_inverse_is_weighted_backward_shift():
    mu = wl.CircleMeasure.lebesgue(1)
    T = wl.build_shift_1v(mu, 6)
    L = wl.left_inverse(T)
    # L z^{m+1} = z^m exactly; weights of the diagonal space cancel in L T = I
    expected = np.zeros((7, 7))
    for m in range(6):
        expected[m, m + 1] = 1.0
    np.testing.assert_allclose(L.matrix, expected, atol=1e-12)
    assert L.info["condition"] < 1e3


def test_left_inverse_times_shift_is_identity_on_core(rng):
    for seed in range(3):
        mu = wl.random_atomic_measure(1, 2, seed=seed)
        T = wl.build_shift_1v(mu, 9)
        L = wl.left_inverse(T)
        core = T.dom.core_indices(1)
        R = (L.matrix @ T.matrix - np.eye(10))[np.ix_(core, core)]
        assert np.max(np.abs(R)) < 1e-10


def test_left_inverse_rejects_ill_conditioned():
    # the condition gate reads every singular value; a rank cut tighter
    # than the gate changes nothing
    sp = EuclideanSpace(3)
    T = wl.OperatorModel(sp, sp, np.diag([1.0, 1.0, 1e-5]))
    tols = wl.Tolerances(rank_rtol=1e-15, rank_floor=1e-15, condition_max=1e3)
    with pytest.raises(wl.ConvergenceError):
        wl.left_inverse(T, tols=tols)


@pytest.mark.parametrize("smallest", [0.0, 2e-11])
def test_left_inverse_gates_the_singular_values_below_the_rank_cut(smallest):
    # sigma_max / sigma_min is infinite or 5e10 > condition_max, though the
    # rank cut (1e-8) would drop the smallest value before the gate read it
    sp = EuclideanSpace(3)
    T = wl.OperatorModel(sp, sp, np.diag([1.0, 0.5, smallest]))
    with pytest.raises(wl.ConvergenceError, match="ill conditioned"):
        wl.left_inverse(T)


def test_left_inverse_inverts_a_value_below_the_rank_cut():
    sp = EuclideanSpace(3)
    T = wl.OperatorModel(sp, sp, np.diag([1.0, 0.5, 1e-9]))
    L = wl.left_inverse(T)
    assert L.info["condition"] == pytest.approx(1e9)
    assert np.max(np.abs(L.matrix @ T.matrix - np.eye(3))) < 1e-12


def test_wandering_projection_model_shift():
    mu = scalar_atoms((0.4, 1.1), (2.8, 0.3))
    T = wl.build_shift_1v(mu, 8)
    P, E = range_complement_projection(T)
    assert E.dim == 1
    e0 = np.zeros(9); e0[0] = 1.0
    np.testing.assert_allclose(np.abs(coords(E, e0)), [1.0], atol=1e-12)
    G = T.dom.gram
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    np.testing.assert_allclose(G @ P, P.conj().T @ G, atol=1e-10)


def test_wandering_projection_unitary_is_zero():
    U = wl.unitary_operator(wl.random_unitary(4, 33))
    P, E = range_complement_projection(U)
    assert E.dim == 0
    np.testing.assert_allclose(P, 0, atol=1e-12)


@pytest.mark.parametrize("multiple, tols, dim", [
    (0.5, wl.DEFAULTS, 1), (2.0, wl.DEFAULTS, 0), (2.0, wl.DEFAULTS.scaled(10), 1)])
def test_the_kernel_rank_cut_moves_with_the_scale(multiple, tols, dim):
    # |diag R| of diag(1, 1, eps) is (1, 1, eps), cut at rank_rtol: the
    # third direction is range above the cut and kernel below it, and
    # scaled(10) cuts ten times more
    sp = EuclideanSpace(3)
    T = wl.OperatorModel(sp, sp, np.diag([1.0, 1.0, multiple * wl.DEFAULTS.rank_rtol]))
    assert operators.wandering_subspace(T, tols).dim == dim


def test_wandering_dimension_bidisc():
    d = 2
    mu1, mu2 = wl.random_measure_pair(d, 2, seed=51)
    N1, N2 = 5, 4
    T1, T2 = wl.build_pair_2v(mu1, mu2, N1, N2)
    E1, E2 = wl.certify(T1).E, wl.certify(T2).E
    assert E1.dim == (N2 + 1) * d
    assert E2.dim == (N1 + 1) * d


# -- subspace calculus ---------------------------------------------------------


def test_intersection_with_itself(rng):
    mu = scalar_atoms((0.2, 0.5))
    T = wl.build_shift_1v(mu, 7)
    X = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    A = wl.Subspace.from_columns(T.dom, X)
    same = wl.subspace_intersect(A, A)
    assert same.distance(A) < 1e-10


def test_intersection_of_orthogonal_lines_trivial():
    sp = EuclideanSpace(4)
    A = wl.Subspace(sp, np.eye(4)[:, [0]])
    B = wl.Subspace(sp, np.eye(4)[:, [1]])
    assert wl.subspace_intersect(A, B).dim == 0


def test_dimension_formula(rng):
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=61)
    sp = wl.build_space(mu1, mu2, 3, 3)
    D = sp.dim_total
    for _ in range(5):
        A = wl.Subspace.from_columns(sp, rng.standard_normal((D, 5)) + 1j * rng.standard_normal((D, 5)))
        B = wl.Subspace.from_columns(sp, rng.standard_normal((D, 7)) + 1j * rng.standard_normal((D, 7)))
        s = subspace_sum(A, B)
        i = wl.subspace_intersect(A, B)
        assert s.dim + i.dim == A.dim + B.dim


def test_orthocomplement_dims_and_orthogonality(rng):
    # the trailing Q columns of a pivoted QR of the whitened columns, as
    # ker T* and each Wold split read the complement of a range
    mu = scalar_atoms((0.2, 0.5), (4.0, 0.8))
    T = wl.build_shift_1v(mu, 6)
    X = rng.standard_normal((7, 3))
    A = wl.Subspace.from_columns(T.dom, X)
    Q, r = _pivoted_qr(T.dom.whiten(X), wl.DEFAULTS)
    C = wl.Subspace(T.dom, T.dom.unwhiten(Q[:, r:]))
    assert A.dim + C.dim == 7
    assert np.max(np.abs(A.basis.conj().T @ T.dom.gram @ C.basis)) < 1e-10


def test_apply_to_subspace():
    mu = scalar_atoms((1.0, 1.0))
    T = wl.build_shift_1v(mu, 6)
    E = wl.Subspace.from_columns(T.dom, np.eye(7)[:, [0]])
    image = apply_to_subspace(T, E)
    assert image.dim == 1
    # z * constants = multiples of z
    assert abs(coords(image, np.eye(7)[:, 1]))[0] > 0.0


def test_orthonormal_columns_drops_noise():
    sp = EuclideanSpace(5)
    X = 1e-13 * np.ones((5, 3))
    assert orthonormal_columns(sp, X).shape[1] == 0


def test_joint_core_is_coordinate_intersection():
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=71)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 6, 5)
    core = joint_core(T1, T2, 2)
    assert core.dim == (6 - 2 + 1) * (5 - 2 + 1)


def test_operator_matrix_is_a_read_only_copy():
    # certificates are memoized on the operator, so its matrix must not change
    M = np.eye(3, dtype=complex)
    sp = EuclideanSpace(3)
    T = wl.OperatorModel(sp, sp, M)
    with pytest.raises(ValueError):
        T.matrix[0, 0] = 2.0
    M[0, 0] = 2.0
    assert T.matrix[0, 0] == 1.0


# On an identity Gram the Cholesky factor is I, and a product with I or a
# triangular solve against it is exact: whitening and the core basis of a
# full index change no bit, with no branch for such spaces.


def test_whitening_on_a_euclidean_space_is_exact():
    U = wl.unitary_operator(wl.random_unitary(5, 21))
    assert np.array_equal(U.whitened, U.matrix)


def test_whitening_on_a_zero_measure_factor_is_exact():
    zero = wl.CircleMeasure.zero(1)
    factor = factor_spaces(wl.build_space(zero, zero, 4, 3))[0]
    assert np.array_equal(factor.gram, np.eye(factor.dim_total))
    Mz = wl.OperatorModel(factor, factor, coordinate_shift_matrix(factor, 1))
    assert np.array_equal(Mz.whitened, Mz.matrix)


def test_a_full_index_core_on_a_euclidean_frame_has_basis_the_identity():
    sp = EuclideanSpace(4)
    assert np.array_equal(IndexCore(sp, np.arange(4)).basis(), np.eye(4))


# -- intersections by principal angles ------------------------------------------

TOL = wl.DEFAULTS.intersection
seeds = st.integers(0, 2**32 - 1)


def random_space(D, rng):
    X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return wl.HilbertSpace(X @ X.conj().T / D + np.eye(D))


def mixed(cols, rng):
    """The span of ``cols`` through a random basis of it."""
    k = cols.shape[1]
    return cols @ (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))


@given(seed=seeds, inside=st.booleans(), near=st.integers(1, 2), far=st.integers(0, 2),
       extra_a=st.integers(0, 2), extra_b=st.integers(0, 2))
def test_intersection_matches_the_eigh_reference_at_planted_angles(seed, inside, near, far,
                                                                   extra_a, extra_b):
    # principal angles planted near the cut, on one side of it per example: a
    # kept and a cut direction 1e-8 apart in cosine leave the basis of the
    # intersection defined only to about eps / 1e-8, in either route
    rng = np.random.default_rng(seed)
    near_cos = (1.0, 1 - 0.5 * TOL) if inside else (1 - 2 * TOL,)
    cosines = np.array([near_cos[i % len(near_cos)] for i in range(near)]
                       + list(rng.choice([0.0, 0.5, 0.9], size=far)))
    p = cosines.size
    D = 2 * p + extra_a + extra_b + 2
    sp = random_space(D, rng)
    Q = sp.unwhiten(wl.random_unitary(D, seed))  # a Gram-orthonormal basis
    theta = np.arccos(cosines)
    a_cols = np.hstack([Q[:, :p], Q[:, 2 * p:2 * p + extra_a]])
    b_cols = np.hstack([Q[:, :p] * np.cos(theta) + Q[:, p:2 * p] * np.sin(theta),
                        Q[:, 2 * p + extra_a:2 * p + extra_a + extra_b]])
    A = wl.Subspace.from_columns(sp, mixed(a_cols, rng))
    B = wl.Subspace.from_columns(sp, mixed(b_cols, rng))
    got, ref = wl.subspace_intersect(A, B), eigh_intersection(A, B)
    assert got.dim == ref.dim == int(np.sum(cosines > 1 - TOL))
    assert got.distance(ref) < 1e-10


def test_intersection_basis_is_the_symmetric_eigenvector():
    # P_A + P_B has the eigenvector (a + b) / sqrt(2 (1 + cos)) for a pair of
    # principal vectors a, b; it is returned, not b alone
    sp = EuclideanSpace(3)
    c = 1 - 0.5 * TOL
    A = wl.Subspace(sp, np.array([1.0, 0.0, 0.0]))
    B = wl.Subspace(sp, np.array([c, np.sqrt(1 - c * c), 0.0]))
    x = wl.subspace_intersect(A, B).basis[:, 0]
    expected = (A.basis[:, 0] + B.basis[:, 0]) / np.sqrt(2 * (1 + c))
    np.testing.assert_allclose(abs(np.vdot(expected, x)), 1.0, atol=1e-15)


# -- safe cores -------------------------------------------------------------------

CORE_KINDS = ("graded-1v", "graded-2v", "direct-sum", "scramble", "rescramble")


def opaque_scalar(space, lam):
    """lam I with its full safe core given as a plain callable."""
    D = space.dim_total
    return wl.OperatorModel(space, space, lam * np.eye(D), core_fn=lambda margin: np.eye(D))


def core_summands(seed, caps):
    """Four commuting pairs: a unitary pair, a shift beside an opaque
    scalar in either order, and a coordinate pair."""
    mu1, mu2 = wl.random_measure_pair(1, 2, seed)
    s10 = wl.build_shift_1v(mu1, caps)
    s01 = wl.build_shift_1v(mu2, caps - 1)
    return [wl.commuting_unitary_pair(2, seed), (s10, opaque_scalar(s10.dom, 1j)),
            (opaque_scalar(s01.dom, -1.0), s01), wl.build_pair_2v(mu1, mu2, caps - 1, caps - 2)]


def core_case(kind, seed, caps):
    """(T1, T2): a pair of the given kind."""
    mu1, mu2 = wl.random_measure_pair(1, 2, seed)
    if kind == "graded-1v":
        T = wl.build_shift_1v(mu1, caps)
        return T, wl.OperatorModel(T.dom, T.dom, np.exp(0.3j) * np.eye(caps + 1))
    if kind == "graded-2v":
        return wl.build_pair_2v(mu1, mu2, caps, caps - 1)
    T1, T2 = wl.direct_sum(core_summands(seed, caps))
    if kind == "direct-sum":
        return T1, T2
    (T1, T2), _ = wl.scramble((T1, T2), seed)
    if kind == "scramble":
        return T1, T2
    return wl.scramble((T1, T2), seed + 1)[0]


@pytest.mark.parametrize("kind", CORE_KINDS)
@settings(max_examples=15)
@given(seed=st.integers(0, 2**20), caps=st.integers(3, 6))
def test_structural_cores_match_the_orthonormalized_frames(kind, seed, caps):
    T1, T2 = core_case(kind, seed, caps)
    for margin in range(5):
        frames = [wl.Subspace.from_columns(T.dom, T.core_basis(margin)) for T in (T1, T2)]
        for T, frame in zip((T1, T2), frames):
            assert T.core_subspace(margin).distance(frame) < 1e-12
        assert joint_core(T1, T2, margin).distance(eigh_intersection(*frames)) < 1e-12


@settings(max_examples=15)
@given(seed=st.integers(0, 2**20), caps=st.integers(3, 6))
@one_blas_thread
def test_a_core_meets_a_reducing_subspace_by_principal_angles(seed, caps):
    # a compression to a reducing subspace S keeps the ambient core ∩ S:
    # core_intersection of a scrambled index core with the span core of S
    # takes principal angles (subspace_intersect), and the spectrum of
    # P_A + P_B must give the same subspace.  S = H10 ⊕ H11 embeds the
    # second and fourth summands.  One BLAS thread, as in the package: at
    # these sizes two threads only wait on each other
    pairs = core_summands(seed, caps)
    (T1, T2), W = wl.scramble(wl.direct_sum(pairs), seed)
    embeds = block_embeddings(pairs)
    S = wl.Subspace.from_columns(T1.dom, W.conj().T @ np.hstack([embeds[1], embeds[3]]))
    span = SpanCore(T1.dom, S.basis, orthonormal=True)
    for margin in range(5):
        for T in (T1, T2):
            got = core_intersection(T.core(margin), span)
            assert isinstance(T.core(margin), IndexCore) and isinstance(got, SpanCore)
            assert got.subspace().distance(eigh_intersection(T.core_subspace(margin), S)) < 1e-12


@pytest.fixture
def dense_kernel_calls(monkeypatch):
    """Names of the rank-revealing kernels called, in call order."""
    calls = []
    for name in ("orthonormal_columns", "subspace_intersect"):
        real = getattr(operators, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(operators, name, counted)
    return calls


def test_cores_of_graded_and_euclidean_summands_need_no_orthonormalization(dense_kernel_calls):
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=81)
    shift = wl.build_shift_1v(mu1, 7)
    single = wl.direct_sum([wl.unitary_operator(wl.random_unitary(2, 3)), shift])
    pair = wl.direct_sum([wl.commuting_unitary_pair(2, 4), wl.build_pair_2v(mu1, mu2, 4, 3)])
    singles = [shift, single, wl.scramble(single, 5)[0]]
    pairs = [wl.build_pair_2v(mu1, mu2, 5, 4), pair, wl.scramble(pair, 6)[0],
             wl.scramble(wl.scramble(pair, 6)[0], 7)[0]]
    for margin in range(4):
        for T in singles + [T for p in pairs for T in p]:
            assert isinstance(T.core(margin), IndexCore)
            assert T.core_subspace(margin).dim
        for T1, T2 in pairs:
            assert isinstance(core_intersection(T1.core(margin), T2.core(margin)), IndexCore)
            assert joint_core(T1, T2, margin).dim
    assert dense_kernel_calls == []


def test_opaque_core_is_an_index_set_or_a_span_of_the_whole_sum(dense_kernel_calls):
    s = wl.build_shift_1v(scalar_atoms((0.5, 0.8)), 6)
    D = s.dom.dim_total
    for frame, kernels in ((np.eye(D), []),
                           (np.eye(D) @ wl.random_unitary(D, 9),
                            ["orthonormal_columns", "subspace_intersect"])):
        dense_kernel_calls.clear()
        scalar = wl.OperatorModel(s.dom, s.dom, 1j * np.eye(D),
                                  core_fn=lambda margin, frame=frame: frame)
        (T1, T2), _ = wl.scramble(wl.direct_sum([wl.commuting_unitary_pair(3, 7),
                                                 (s, scalar)]), 8)
        assert joint_core(T1, T2, 2).dim == 3 + 5
        # an identity frame is the index set of every coordinate; any other
        # makes the sum one span, orthonormalized once and intersected once
        assert dense_kernel_calls == kernels
