"""Adjoints, defect operators, left inverses, projections, subspace calculus."""

import numpy as np
import pytest

import woldlab as wl
from woldlab.operators import joint_core, orthonormal_columns
from woldlab.space import EuclideanSpace

from conftest import scalar_atoms


def jordan_block():
    sp = EuclideanSpace(2)
    return wl.OperatorModel(sp, sp, np.array([[0.0, 0.0], [1.0, 0.0]]))


def plain_shift(n):
    sp = EuclideanSpace(n)
    S = np.zeros((n, n))
    for m in range(n - 1):
        S[m + 1, m] = 1.0
    return wl.OperatorModel(sp, sp, S)


# -- adjoint ---------------------------------------------------------------


def test_adjoint_identity_gram_is_conj_transpose(rng):
    sp = EuclideanSpace(5)
    A = wl.OperatorModel(sp, sp, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    np.testing.assert_allclose(wl.adjoint(A).matrix, A.matrix.conj().T, atol=1e-14)


def test_adjoint_weighted_shift_entries():
    # on the diagonal space with weights w_m = 1 + m the adjoint of the
    # shift has (S*)[m, m+1] = w_{m+1} / w_m
    mu = wl.CircleMeasure.lebesgue(1)
    T = wl.build_shift_1v(mu, 6)
    S = wl.adjoint(T).matrix
    for m in range(6):
        assert S[m, m + 1] == pytest.approx((m + 2) / (m + 1))
    off = S - np.diag(np.diag(S, 1), 1)
    np.testing.assert_allclose(off, 0, atol=1e-12)


def test_adjoint_involution(rng):
    mu = scalar_atoms((0.9, 0.7))
    T = wl.build_shift_1v(mu, 8)
    A = wl.OperatorModel(T.dom, T.dom, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    np.testing.assert_allclose(wl.adjoint(wl.adjoint(A)).matrix, A.matrix, atol=1e-12)


def test_adjoint_pairing_contract(rng):
    mu1, mu2 = wl.random_measure_pair(2, 2, seed=2)
    sp = wl.build_space(mu1, mu2, 3, 3)
    D = sp.dim_total
    A = wl.OperatorModel(sp, sp, rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
    Astar = wl.adjoint(A)
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
    # with the default rank cut the condition gate cannot fire (chopped
    # directions never enter); tighten the cut to expose it
    sp = EuclideanSpace(3)
    T = wl.OperatorModel(sp, sp, np.diag([1.0, 1.0, 1e-5]))
    tols = wl.Tolerances(rank_rtol=1e-15, rank_floor=1e-15, condition_max=1e3)
    with pytest.raises(wl.ConvergenceError):
        wl.left_inverse(T, tols=tols)


def test_wandering_projection_model_shift():
    mu = scalar_atoms((0.4, 1.1), (2.8, 0.3))
    T = wl.build_shift_1v(mu, 8)
    P, E = wl.wandering_projection(T)
    assert E.dim == 1
    e0 = np.zeros(9); e0[0] = 1.0
    np.testing.assert_allclose(np.abs(E.coords(e0)), [1.0], atol=1e-12)
    G = T.dom.gram
    np.testing.assert_allclose(P.matrix @ P.matrix, P.matrix, atol=1e-10)
    np.testing.assert_allclose(G @ P.matrix, P.matrix.conj().T @ G, atol=1e-10)


def test_wandering_projection_unitary_is_zero():
    U = wl.unitary_operator(wl.random_unitary(4, 33))
    P, E = wl.wandering_projection(U)
    assert E.dim == 0
    np.testing.assert_allclose(P.matrix, 0, atol=1e-12)


def test_wandering_dimension_bidisc():
    d = 2
    mu1, mu2 = wl.random_measure_pair(d, 2, seed=51)
    N1, N2 = 5, 4
    T1, T2 = wl.build_pair_2v(mu1, mu2, N1, N2)
    _, E1 = wl.wandering_projection(T1)
    _, E2 = wl.wandering_projection(T2)
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
        s = wl.subspace_sum(A, B)
        i = wl.subspace_intersect(A, B)
        assert s.dim + i.dim == A.dim + B.dim


def test_orthocomplement_dims_and_orthogonality(rng):
    mu = scalar_atoms((0.2, 0.5), (4.0, 0.8))
    T = wl.build_shift_1v(mu, 6)
    A = wl.Subspace.from_columns(T.dom, rng.standard_normal((7, 3)))
    C = wl.orthocomplement(A)
    assert A.dim + C.dim == 7
    assert np.max(np.abs(A.basis.conj().T @ T.dom.gram @ C.basis)) < 1e-10


def test_apply_to_subspace():
    mu = scalar_atoms((1.0, 1.0))
    T = wl.build_shift_1v(mu, 6)
    E = wl.Subspace.from_columns(T.dom, np.eye(7)[:, [0]])
    image = wl.apply_to_subspace(T, E)
    assert image.dim == 1
    # z * constants = multiples of z
    assert abs(image.coords(np.eye(7)[:, 1]))[0] > 0.0


def test_orthonormal_columns_drops_noise():
    sp = EuclideanSpace(5)
    X = 1e-13 * np.ones((5, 3))
    assert orthonormal_columns(sp, X).shape[1] == 0


def test_joint_core_is_coordinate_intersection():
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=71)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 6, 5)
    core = joint_core(T1, T2, 2)
    assert core.dim == (6 - 2 + 1) * (5 - 2 + 1)


@pytest.mark.parametrize("margin", [0, 1, 2, 3])
def test_restricted_core_is_computed_once_per_margin(margin):
    inst = wl.make_single_wold_instance(2, scalar_atoms((0.5, 0.8), (2.0, 1.3)), 12, seed=3,
                                        scramble_seed=5)
    (T,) = inst.operators
    S = inst.truth["H1"]
    R = wl.restrict_operator(T, S)
    first = R.core_basis(margin)
    inter = wl.subspace_intersect(T.core_subspace(margin), S)
    assert np.array_equal(first, S.coords(inter.basis))
    assert R.core_basis(margin) is first
    assert not first.flags.writeable


def test_operator_matrix_is_a_read_only_copy():
    # certificates are memoized on the operator, so its matrix must not change
    M = np.eye(3, dtype=complex)
    sp = EuclideanSpace(3)
    T = wl.OperatorModel(sp, sp, M)
    with pytest.raises(ValueError):
        T.matrix[0, 0] = 2.0
    M[0, 0] = 2.0
    assert T.matrix[0, 0] == 1.0
