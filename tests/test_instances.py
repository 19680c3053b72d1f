"""Instance builders: determinism, scramble invariance, spec round trips."""

import numpy as np
import pytest

import woldlab as wl

from conftest import scalar_atoms
from reference import stable_range


def test_random_unitary_is_unitary_and_deterministic():
    U = wl.random_unitary(6, 123)
    V = wl.random_unitary(6, 123)
    np.testing.assert_array_equal(U, V)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(6), atol=1e-13)
    assert not np.allclose(U, wl.random_unitary(6, 124))


def test_shift_instances_pass_defect_check():
    for seed in range(5):
        mu = wl.random_atomic_measure(1, 2, seed=seed)
        T = wl.build_shift_1v(mu, 8)
        assert wl.two_isometry_defect(T) < 1e-9
    for seed in range(3):
        mu1, mu2 = wl.random_measure_pair(2, 2, seed=seed)
        T1, T2 = wl.build_pair_2v(mu1, mu2, 5, 5)
        assert wl.two_isometry_defect(T1) < 1e-9
        assert wl.two_isometry_defect(T2) < 1e-9


def test_hardy_shift_is_isometric():
    T = wl.build_shift_1v(wl.CircleMeasure.zero(1), 8)
    assert wl.unitarity_residual(T, margin=1) < 1e-13


def test_lebesgue_shift_weights():
    T = wl.build_shift_1v(wl.CircleMeasure.lebesgue(1), 6)
    for m in range(7):
        e = np.zeros(7); e[m] = 1.0
        assert T.dom.norm(e) ** 2 == pytest.approx(1 + m)


def test_scramble_determinism_and_invariance():
    mu = scalar_atoms((0.9, 0.8), (3.3, 0.4))
    T = wl.build_shift_1v(mu, 10)
    A, _ = wl.scramble(T, 55)
    B, _ = wl.scramble(T, 55)
    np.testing.assert_array_equal(A.matrix, B.matrix)
    np.testing.assert_array_equal(A.dom.gram, B.dom.gram)
    d0 = wl.two_isometry_defect(T)
    d1 = wl.two_isometry_defect(A)
    assert abs(d0 - d1) < 1e-11


def test_scramble_pair_preserves_commuting_residual():
    mu1, mu2 = wl.random_measure_pair(1, 2, seed=31)
    T1, T2 = wl.build_pair_2v(mu1, mu2, 6, 6)
    (S1, S2), _ = wl.scramble((T1, T2), 99)
    c = wl.doubly_commuting_residual(T1, T2)
    cs = wl.doubly_commuting_residual(S1, S2)
    assert abs(c[0] - cs[0]) < 1e-11 and abs(c[1] - cs[1]) < 1e-11


def test_direct_sum_stable_range_dim():
    mu = scalar_atoms((1.0, 0.5))
    U = wl.unitary_operator(wl.random_unitary(3, 2))
    T = wl.direct_sum([U, wl.build_shift_1v(mu, 8)])
    assert stable_range(T).dim == 3


def test_direct_sum_rejects_mixed_parts():
    mu = scalar_atoms((1.0, 0.5))
    T = wl.build_shift_1v(mu, 5)
    U = wl.unitary_operator(wl.random_unitary(2, 1))
    with pytest.raises(ValueError):
        wl.direct_sum([T, (U, U)])


def test_instance_spec_json_round_trip():
    mu = wl.random_atomic_measure(2, 2, seed=8)
    spec = wl.InstanceSpec(kind="scrambled", measures=(mu,), caps=(12, 0),
                           unitary_dims=(3,), seed=17)
    back = wl.InstanceSpec.from_json_dict(spec.to_json_dict())
    assert back.kind == spec.kind
    assert back.caps == spec.caps and back.unitary_dims == spec.unitary_dims
    assert back.digest() == spec.digest()


def test_instance_spec_build_kinds():
    mu = scalar_atoms((0.5, 1.0))
    single = wl.InstanceSpec(kind="shift1v", measures=(mu,), caps=(8, 0)).build()
    assert not single.is_pair

    mu2 = scalar_atoms((2.0, 0.7))
    pair = wl.InstanceSpec(kind="pair2v", measures=(mu, mu2), caps=(5, 4)).build()
    assert pair.is_pair

    mix = wl.InstanceSpec(kind="scrambled", measures=(mu,), caps=(8, 0),
                          unitary_dims=(2,), seed=5).build()
    assert mix.truth["H0"].dim == 2
    assert stable_range(mix.operators[0]).dim == 2


def test_instance_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        wl.InstanceSpec(kind="nonsense")


def test_four_block_instance_dims():
    nu1 = scalar_atoms((1.0, 0.7))
    nu2 = scalar_atoms((2.5, 1.2))
    eta1 = scalar_atoms((0.8, 0.6))
    eta2 = scalar_atoms((3.1, 0.9))
    inst = wl.make_four_block_instance(2, nu1, 6, nu2, 5, eta1, eta2, (4, 4),
                                       seed=3, scramble_seed=8)
    assert inst.truth["dims"] == (2, 7, 6, 25)
    assert inst.space.dim_total == 2 + 7 + 6 + 25
    d1 = wl.two_isometry_defect(inst.operators[0])
    d2 = wl.two_isometry_defect(inst.operators[1])
    assert max(d1, d2) < 1e-9


@pytest.mark.parametrize("k, d, caps, seed", [(3, 1, 12, 17), (2, 2, 8, 5), (0, 1, 10, 9)])
@pytest.mark.parametrize("scrambled", [True, False])
def test_single_wold_instance_equals_its_spec(k, d, caps, seed, scrambled):
    # both builders go through one construction, so they agree bit for bit
    mu = wl.random_atomic_measure(d, 2, seed=seed + 1, density_scale=0.3)
    single = wl.make_single_wold_instance(k, mu, caps, seed=seed,
                                          scramble_seed=seed if scrambled else None)
    spec = wl.InstanceSpec("scrambled" if scrambled else "direct_sum", (mu,), (caps, 0),
                           (k,) if k else (), seed).build()
    (A,), (B,) = single.operators, spec.operators
    assert np.array_equal(A.matrix, B.matrix)
    assert np.array_equal(A.dom.gram, B.dom.gram)
    for name in ("H0", "H1"):
        assert np.array_equal(single.truth[name].basis, spec.truth[name].basis), name
    assert single.truth["dims"] == (k, (caps + 1) * d)
    assert spec.truth["measures"] == (mu,)
