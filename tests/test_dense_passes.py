"""Kernels, orbits and complements against their older routes.

Each routine lost one dense factorization: the kernel of T* is read from one
full SVD, an orbit keeps its accumulated basis, and a complement comes from
a complete QR.  Orbits and the wandering check of ``wold_single`` run on
whitened operators, with no per-pass Gram product, triangular solve or SVD
norm.
``wold_pair`` splits by T1 and then by T2 with three orbits, where it used
five, and reads its measures from orbit moments, where it fit a
defect-space isometry on each certified restriction.  The norm identities
and ``build_V`` read the kernel projections in the coordinates of the
kernels, where they applied D x D projectors and powers.  The
decompositions read their block residuals and the doubly-commuting check
from whitened bases and T_w, where they built restricted operators and
Gram adjoints.  The powers of a kernel stop at the rank floor, where they
ran D + 1.  Each Wold split, the shift block and its
complement, comes from one pivoted QR of the stacked powers of its
kernel, where the orbit took a pass loop and the complement a QR, and
ker T* from one pivoted QR, where it took a full SVD.
``tests/reference.py`` keeps the older routes, the restricted operator and
the Gram adjoint among them; on the same inputs both must give the same
subspaces, residuals and measures, to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import woldlab as wl
from woldlab import decomp, operators
from woldlab.operators import joint_core, range_complement_projection
from woldlab.space import EuclideanSpace, coordinate_shift_matrix

from conftest import assert_same_moments
from reference import (
    adjoint,
    closing_svd_orbit,
    eigh_complement,
    defect_route_measure,
    eps_powers,
    five_orbit_pair,
    fresh_restriction_measures,
    gram_orbit,
    gram_wandering,
    power_model_rows,
    projector_norm_identity,
    projector_two_variable_identity,
    restrict_operator,
    svd_step_orbit,
    svd_wandering_subspace,
    two_svd_kernel,
)

TOL = 1e-10
WANDER_TOL = 1e-13
seeds = st.integers(0, 2**20)


def assert_same(got, ref):
    assert got.dim == ref.dim
    assert got.distance(ref) < TOL


def check_routes(ops):
    """Every rewritten routine on ``ops`` (one operator or a pair) against
    its older route: the kernel of each operator, and the split of the
    whole space by each operator from their joint kernel E, the orbit
    [E]_T and its complement."""
    amb = ops[0].dom
    kernels = []
    for T in ops:
        Pm, E = range_complement_projection(T)
        Pr, Er = two_svd_kernel(T)
        assert_same(E, Er)
        assert np.max(np.abs(Pm - Pr)) < TOL * max(1.0, np.linalg.norm(amb.gram, 2))
        kernels.append(E)
    E = kernels[0] if len(ops) == 1 else wl.subspace_intersect(*kernels)
    for T in ops:
        Hw, Uw, _ = decomp._split(T.whitened, amb.whiten(E.basis), wl.DEFAULTS)
        orbit = wl.Subspace(amb, amb.unwhiten(Hw))
        assert_same(orbit, closing_svd_orbit(T, E))
        assert_same(orbit, gram_orbit(T, E))
        assert_same(wl.Subspace(amb, amb.unwhiten(Uw)), eigh_complement(orbit))


def check_wandering(T):
    """The wandering residual of ``wold_single`` against the Gram-geometry loop."""
    wander = wl.wold_single(T).residuals["wandering"]
    assert abs(wander - gram_wandering(T, wl.certify(T).E)) < WANDER_TOL


def check_pair_measures(T1, T2, K):
    quad = wl.wold_pair(T1, T2)
    fresh = fresh_restriction_measures(T1, T2, quad)
    for name, mu in quad.measures.items():
        assert_same_moments(mu, fresh[name], K)


@settings(max_examples=12)
@given(seed=seeds, k=st.integers(0, 3), n_atoms=st.integers(1, 3), density=st.booleans(),
       caps=st.integers(2, 16))
def test_single_routes_match_on_scrambled_unitary_plus_shift(seed, k, n_atoms, density, caps):
    mu = wl.random_atomic_measure(1, n_atoms, seed=seed, density_scale=0.4 * density)
    inst = wl.make_single_wold_instance(k, mu, caps, seed=seed, scramble_seed=seed + 1)
    check_routes(inst.operators)
    T = inst.operators[0]
    check_wandering(T)
    res = wl.wold_single(T)
    assert_same_moments(res.extracted, defect_route_measure(restrict_operator(T, res.H1)),
                        min(8, caps - 1))


@settings(max_examples=6)
@given(seed=seeds, k00=st.integers(0, 2))
def test_pair_routes_match_on_scrambled_four_block_pairs(seed, k00):
    nu1, nu2 = (wl.random_atomic_measure(1, 2, seed=seed + j) for j in (1, 2))
    eta1, eta2 = wl.random_measure_pair(1, 2, seed=seed + 3)
    inst = wl.make_four_block_instance(k00, nu1, 5, nu2, 4, eta1, eta2, (3, 3),
                                       seed=seed, scramble_seed=seed + 4)
    check_routes(inst.operators)
    for T in inst.operators:
        check_wandering(T)
    check_pair_measures(*inst.operators, 8)


@settings(max_examples=8)
@given(seed=seeds, d=st.integers(1, 2), n_atoms=st.integers(1, 2), caps=st.integers(2, 5))
def test_pair_routes_match_on_coordinate_pairs(seed, d, n_atoms, caps):
    pair = wl.build_pair_2v(*wl.random_measure_pair(d, n_atoms, seed=seed), caps, caps - 1)
    check_routes(pair)
    # the second operator, at cap caps - 1, is not certified on its core
    check_wandering(pair[0])
    if caps >= 3:
        check_pair_measures(*pair, min(8, caps - 2))


def acceptance_7_pair(k00, caps10, caps01, caps11, seed):
    """The pair of one case of acceptance test 7."""
    measures = [wl.random_atomic_measure(1, n, seed=base + seed)
                for n, base in ((2, 7000), (3, 7100), (2, 7200), (1, 7300))]
    nu1, nu2, eta1, eta2 = measures
    return wl.make_four_block_instance(k00, nu1, caps10, nu2, caps01, eta1, eta2, caps11,
                                       seed=seed, scramble_seed=700 + seed).operators


def scrambled_four_block_pair():
    nu1, nu2 = (wl.random_atomic_measure(1, 2, seed=s) for s in (31, 32))
    return wl.make_four_block_instance(2, nu1, 6, nu2, 5, *wl.random_measure_pair(1, 2, seed=33),
                                       (4, 3), seed=34, scramble_seed=35).operators


PAIRS = {
    "acceptance 7, first case": lambda: acceptance_7_pair(3, 8, 7, (5, 4), 1),
    "acceptance 7, second case": lambda: acceptance_7_pair(6, 24, 20, (11, 10), 2),
    "coordinate pair, caps 8": lambda: wl.build_pair_2v(*wl.random_measure_pair(1, 2, seed=8),
                                                        8, 8),
    "coordinate pair, caps 10": lambda: wl.build_pair_2v(*wl.random_measure_pair(2, 2, seed=10),
                                                         10, 10),
    "scrambled four-block pair": scrambled_four_block_pair,
}


@pytest.mark.parametrize("name", list(PAIRS))
def test_wold_pair_matches_the_five_orbit_route(name):
    # blocks against the five-orbit route; measures against the defect route
    # on each fresh restriction, with the kernel dimensions of the five-orbit
    # route (the H11 measures are compressed to the joint kernel)
    T1, T2 = PAIRS[name]()
    quad = wl.wold_pair(T1, T2)
    blocks, kernels = five_orbit_pair(T1, T2)
    assert quad.block_dims() == tuple(S.dim for S in blocks.values())
    for bname, S in blocks.items():
        assert getattr(quad, bname).distance(S) <= TOL, bname
    assert quad.measures["nu1"].dim == kernels[("H10", "T1")].dim
    assert quad.measures["nu2"].dim == kernels[("H01", "T2")].dim
    fresh = fresh_restriction_measures(T1, T2, quad)
    for name, mu in quad.measures.items():
        assert_same_moments(mu, fresh[name], 8)


def test_wold_pair_grows_three_orbits(monkeypatch):
    calls = []
    real = decomp._split

    def counted(Tw, Kw, tols, Aw=None):
        calls.append((Tw, Aw))
        return real(Tw, Kw, tols, Aw)

    monkeypatch.setattr(decomp, "_split", counted)
    T1, T2 = scrambled_four_block_pair()
    wl.wold_pair(T1, T2)
    # [E1]_T1 in the whole space (the certificate of T1), then [K11]_T2 in
    # A1 and [K01]_T2 in A0; the five-orbit route grew five orbits
    assert len(calls) == 3
    assert [Tw is T.whitened for (Tw, _), T in zip(calls, (T1, T2, T2))] == [True] * 3
    assert [Aw is None for _, Aw in calls] == [True, False, False]


@pytest.fixture
def whitenings(monkeypatch):
    """The operators whose whitened matrix T_w is computed, in call order."""
    calls = []
    real = operators._whitened_operator

    def counted(T):
        calls.append(T)
        return real(T)

    monkeypatch.setattr(operators, "_whitened_operator", counted)
    return calls


def test_each_operator_is_whitened_once(whitenings):
    T1, T2 = scrambled_four_block_pair()
    wl.wold_single(T1)
    # the orbit of ker T1*, the block checks and the wandering check read
    # the memo on T1
    assert whitenings == [T1]
    assert not T1.whitened.flags.writeable
    wl.wold_pair(T1, T2)
    # the doubly-commuting check, the orbits under T2 and every block check
    # share the two memos
    assert whitenings == [T1, T2]


# -- one-column orbit passes and the power stop ------------------------------
# ``_euclidean_span`` keeps the directions of an orbit pass that the SVD pass
# keeps, one column included, and the powers of a kernel stop at the first
# block of Frobenius norm at most rank_floor, where they stopped at
# eps^2 dim K.  Both routes keep the same directions and give the same
# measures.

ORBIT_TOL = 1e-12


def whitened_operator_and_kernel(T):
    return T.whitened, T.dom.whiten(wl.certify(T).E.basis)


def assert_same_span(got, ref, tol=ORBIT_TOL):
    assert got.shape == ref.shape
    assert np.linalg.norm(got @ got.conj().T - ref @ ref.conj().T, 2) <= tol


def svd_passes(Tw, Sw):
    """(images, kept) for every pass of ``svd_step_orbit([Tw], Sw)`` when
    each pass but the last keeps as many directions as Sw has columns:
    the images of the last directions kept, projected off the basis, and
    the directions the SVD pass keeps of them."""
    ref = svd_step_orbit([Tw], Sw)
    k = Sw.shape[1]
    for end in range(k, ref.shape[1] + 1, k):
        B = ref[:, :end]
        images = Tw @ ref[:, end - k:end]
        for _ in range(2):
            images = images - B @ (B.conj().T @ images)
        yield images, ref[:, end:end + k]


@pytest.mark.parametrize("d, caps", [(1, 16), (1, 32), (1, 64), (1, 96), (2, 12)])
def test_one_column_orbit_passes_match_the_svd_pass(d, caps):
    mu = wl.random_atomic_measure(d, 3, seed=caps, density_scale=0.4)
    T = wl.make_single_wold_instance(2, mu, caps, seed=caps, scramble_seed=caps + 1).operators[0]
    Tw, Ew = whitened_operator_and_kernel(T)
    passes = list(svd_passes(Tw, Ew))
    # caps passes of d directions each, and a last one that keeps none
    assert len(passes) == caps + 1 and passes[-1][1].shape[1] == 0
    for images, kept in passes:
        assert_same_span(operators._euclidean_span(images, wl.DEFAULTS), kept)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_a_one_column_pass_is_cut_at_the_rank_floor_as_the_svd_pass(factor):
    # T_w sends the kernel direction to factor * rank_floor times a unit
    # vector orthogonal to it, in a random orthonormal frame
    floor = wl.DEFAULTS.rank_floor
    W = wl.random_unitary(5, 7)
    Tw = factor * floor * W[:, 1:2] @ W[:, :1].conj().T
    images, kept = next(svd_passes(Tw, W[:, :1]))
    got = operators._euclidean_span(images, wl.DEFAULTS)
    assert got.shape[1] == kept.shape[1] == (0 if factor < 1 else 1)
    assert_same_span(got, kept)


def four_block_pair_of_dimension_108():
    nu1, nu2 = (wl.random_atomic_measure(1, n, seed=s) for n, s in ((2, 41), (3, 42)))
    eta1, eta2 = wl.random_measure_pair(1, 2, seed=43)
    return wl.make_four_block_instance(4, nu1, 16, nu2, 14, eta1, eta2, (8, 7),
                                       seed=44, scramble_seed=45).operators


def test_powers_stop_at_the_rank_floor_with_the_same_measures(monkeypatch):
    # every kernel whose powers wold_pair takes: the orbit kernels of its
    # three splits and the measure kernels, whose powers reach
    # _orbit_measure (K01 is both)
    kernels, measured = [], []
    real, real_measure = decomp._powers, decomp._orbit_measure

    def recorded(Tw, Kw, tols):
        powers = real(Tw, Kw, tols)
        kernels.append((Tw, Kw, powers))
        return powers

    def measure_recorded(powers, tols):
        measured.append(powers)
        return real_measure(powers, tols)

    monkeypatch.setattr(decomp, "_powers", recorded)
    monkeypatch.setattr(decomp, "_orbit_measure", measure_recorded)
    T1, T2 = four_block_pair_of_dimension_108()
    assert T1.dom.dim_total == 108
    wl.wold_pair(T1, T2)
    monkeypatch.undo()
    assert len(kernels) == 6 and len(measured) == 4
    depths = []
    checked = decomp._checked_moments

    def depth_recorded(mu, row, scale, tols):
        depths.append(row.shape[0] - 1)
        return checked(mu, row, scale, tols)

    monkeypatch.setattr(decomp, "_checked_moments", depth_recorded)
    longest = 0
    for Tw, Kw, powers in kernels:
        got, ref = decomp._powers(Tw, Kw, wl.DEFAULTS), eps_powers(Tw, Kw)
        longest = max(longest, len(got))
        # the older stop runs every power the truncation allows
        assert len(ref) == 110 or Kw.shape[1] == 0
        # the powers left out add no direction past the rank cut
        s = np.linalg.svd(np.hstack(ref), compute_uv=False)
        rank = decomp._numerical_rank(s, wl.DEFAULTS)
        if not any(powers is P for P in measured):
            # an orbit kernel's powers may die unevenly (E1 under T1: the
            # H11 part of E1 dies before its H10 part), so its dead columns
            # are kept to the stop and cut by the split
            got_s = np.linalg.svd(np.hstack(got), compute_uv=False)
            assert decomp._numerical_rank(got_s, wl.DEFAULTS) == rank
            continue
        assert rank == sum(P.shape[1] for P in got)
        depths.clear()
        mu, mu_ref = decomp._orbit_measure(got, wl.DEFAULTS), decomp._orbit_measure(ref, wl.DEFAULTS)
        if Kw.shape[1]:
            K, K_ref = depths
            assert K == K_ref
            assert_same_moments(mu, mu_ref, K, 1e-13)
    assert longest <= 17


# -- one pivoted QR per Wold split and per ker T* ----------------------------
# The split of a block by T is the orbit of its kernel and the complement,
# from one column-pivoted QR of the kernel's stacked powers; ker T* is the
# trailing Q columns of a pivoted QR of L^H T.  Both give the subspaces of
# the orbit pass loop, the complete-QR complement and the full SVD, and
# each cut keeps a direction at twice its threshold and drops one at half.

SPLIT_TOL = 1e-12


def check_whole_space_split(T):
    """The certificate's E against the SVD route, and its split of the
    whole space against the orbit of that E and its complement by the
    Gram-geometry routes."""
    amb, cert = T.dom, wl.certify(T)
    whiten = amb.whiten
    assert_same_span(whiten(cert.E.basis), whiten(svd_wandering_subspace(T).basis), SPLIT_TOL)
    H1w, H0w, powers = cert.split
    orbit = gram_orbit(T, cert.E)
    assert_same_span(H1w, whiten(orbit.basis), SPLIT_TOL)
    assert_same_span(H0w, whiten(eigh_complement(orbit).basis), SPLIT_TOL)
    assert powers[0].shape[1] == cert.E.dim
    return cert


@pytest.mark.parametrize("d, caps", [(1, 16), (1, 32), (1, 64), (1, 96), (2, 12)])
def test_split_and_kernel_match_the_orbit_and_svd_routes(d, caps):
    mu = wl.random_atomic_measure(d, 3, seed=caps, density_scale=0.4)
    T = wl.make_single_wold_instance(2, mu, caps, seed=caps, scramble_seed=caps + 1).operators[0]
    cert = check_whole_space_split(T)
    assert cert.split[0].shape[1] == (caps + 1) * d


def test_pair_splits_match_the_orbit_route():
    for T in PAIRS["coordinate pair, caps 10"]():
        check_whole_space_split(T)
    T1, T2 = four_block_pair_of_dimension_108()
    cert1 = check_whole_space_split(T1)
    A1w, A0w, powers = cert1.split
    # the powers of E1 under T1 die unevenly: the part of E1 in H11 is
    # annihilated before the part in H10, so the stacked powers have more
    # columns than rank
    assert sum(P.shape[1] for P in powers) > A1w.shape[1]
    # the splits of A1 and A0 by T2 against the orbit pass loop, with the
    # complement read from the projectors
    T2w, E2w = whitened_operator_and_kernel(T2)
    for Aw in (A1w, A0w):
        Kw, _ = decomp._kernel_part(Aw, E2w, wl.DEFAULTS)
        Hw, Uw, _ = decomp._split(T2w, Kw, wl.DEFAULTS, Aw)
        ref = svd_step_orbit([T2w], Kw)
        assert_same_span(Hw, ref, SPLIT_TOL)
        assert Uw.shape[1] == Aw.shape[1] - ref.shape[1]
        ref_U = Aw @ Aw.conj().T - ref @ ref.conj().T
        assert np.linalg.norm(Uw @ Uw.conj().T - ref_U, 2) <= SPLIT_TOL


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_a_split_is_cut_at_the_rank_cut(factor):
    # K = c w0 and T_w = w0 w0^H / 2 + (factor cut / c) w1 w0^H in a random
    # orthonormal frame: every power of K is large, and past the pivot K
    # the powers leave the residual factor * cut along w1, the cut being
    # the one the largest power, K, sets
    c, W = 10.0, wl.random_unitary(5, 7)
    cut = operators._rank_cut(c, wl.DEFAULTS)
    Tw = 0.5 * W[:, :1] @ W[:, :1].conj().T + (factor * cut / c) * W[:, 1:2] @ W[:, :1].conj().T
    Hw, Uw, powers = decomp._split(Tw, c * W[:, :1], wl.DEFAULTS)
    assert len(powers) > 2
    r = 1 if factor < 1 else 2
    assert Hw.shape[1] == r == svd_step_orbit([Tw], W[:, :1]).shape[1]
    # a direction resolved at the cut carries rounding of order eps c / cut
    assert_same_span(Hw, W[:, :r], 1e-6)
    # the complement is the rest of one unitary Q
    Q = np.hstack([Hw, Uw])
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(5), 2) < 1e-14


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_a_kernel_is_cut_at_the_rank_cut(factor):
    # T maps the unit vectors onto 10 w0, 10 w1, 10 w2, factor * cut * w3
    # and 0, the cut being the one the largest column sets: ker T* keeps
    # w3 exactly when the cut drops it, as on the SVD route
    W = wl.random_unitary(5, 8)
    cut = operators._rank_cut(10.0, wl.DEFAULTS)
    sp = EuclideanSpace(5)
    T = wl.OperatorModel(sp, sp, W * np.array([10.0, 10.0, 10.0, factor * cut, 0.0]))
    E = operators.wandering_subspace(T)
    k = 3 if factor < 1 else 4
    assert E.dim == 5 - k == svd_wandering_subspace(T).dim
    assert_same_span(E.basis, W[:, k:], 1e-6)


# -- block residuals and the doubly-commuting check in whitened coordinates --
# The decompositions read every block residual from the whitened block
# bases and T_w, and T* as T_w^H, where they built restricted operators and
# Gram adjoints.  Both routes give the same values; where a value is at
# rounding, they agree to ROUTE_TOL * floor.

ROUTE_TOL = 1e-10
ROTATION = 1e-3


def assert_close(got, ref, floor):
    assert abs(got - ref) <= ROUTE_TOL * max(abs(ref), floor), (got, ref)


def rotated_blocks(result, amb, names, first, second, eps=ROTATION):
    """The whitened bases of the blocks ``names`` of a decomposition, with
    the first basis vectors of the blocks ``first`` and ``second`` rotated
    into each other by the angle ``eps``: still an orthonormal splitting of
    the space, but those two blocks leak O(eps) out of themselves."""
    Bw = {name: amb.whiten(getattr(result, name).basis) for name in names}
    u, v = Bw[first][:, 0].copy(), Bw[second][:, 0].copy()
    Bw[first][:, 0] = np.cos(eps) * u + np.sin(eps) * v
    Bw[second][:, 0] = -np.sin(eps) * u + np.cos(eps) * v
    return Bw


def test_block_residuals_match_the_restriction_route():
    T1, T2 = scrambled_four_block_pair()
    amb = T1.dom
    ops = {"T1": T1, "T2": T2}
    Bw = rotated_blocks(wl.wold_pair(T1, T2), amb, ("H00", "H10", "H01", "H11"), "H10", "H11")
    # every pair is checked for unitarity: T1 on H10 and both on H11 are not unitary
    pairs = [(b, o) for b in Bw for o in ops]
    ortho, complete, leaks, unitarity = decomp._block_residuals(
        Bw, {o: T.whitened for o, T in ops.items()}, pairs)
    for b, o in pairs:
        R = restrict_operator(ops[o], wl.Subspace(amb, amb.unwhiten(Bw[b])))
        assert_close(leaks[b, o], R.info["invariance_leak"], ROTATION)
        assert_close(unitarity[b, o], wl.unitarity_residual(R, margin=0), ROTATION)
    for b, o in (("H10", "T1"), ("H10", "T2"), ("H11", "T1"), ("H11", "T2")):
        assert leaks[b, o] > ROTATION / 2
    assert min(unitarity["H10", "T1"], unitarity["H11", "T1"], unitarity["H11", "T2"]) > 0.5
    # the rotation keeps the splitting orthonormal: ||Q Q^H - I|| is at rounding
    Q = np.hstack(list(Bw.values()))
    sums = np.max(np.abs(np.linalg.eigvalsh(Q @ Q.conj().T - np.eye(amb.dim_total))))
    assert_close(complete, sums, ROTATION)
    assert max(ortho, complete) < 1e-13
    # a block that misses a dimension leaves the splitting incomplete
    Bw["H00"] = Bw["H00"][:, 1:]
    ortho, complete, _, _ = decomp._block_residuals(Bw, {"T1": T1.whitened}, [])
    assert complete >= 1 and ortho < 1e-13
    # wold_single's two-block split, rotated: the compression gives the leaks
    # of the restriction route, and a split that misses a dimension fails
    # completeness
    Bw = rotated_blocks(wl.wold_single(T1), amb, ("H0", "H1"), "H0", "H1")
    ortho, complete, leaks, unitarity = decomp._block_residuals(
        Bw, {"T": T1.whitened}, [("H0", "T")])
    for b in Bw:
        R = restrict_operator(T1, wl.Subspace(amb, amb.unwhiten(Bw[b])))
        assert_close(leaks[b, "T"], R.info["invariance_leak"], ROTATION)
    assert min(leaks.values()) > ROTATION / 2 and max(ortho, complete) < 1e-13
    R = restrict_operator(T1, wl.Subspace(amb, amb.unwhiten(Bw["H0"])))
    assert_close(unitarity["H0", "T"], wl.unitarity_residual(R, margin=0), ROTATION)
    Bw["H0"] = Bw["H0"][:, 1:]
    ortho, complete, _, _ = decomp._block_residuals(Bw, {"T": T1.whitened}, [])
    assert complete >= 1 and ortho < 1e-13


def adjoint_route_residuals(T1, T2):
    """||[T1, T2]|| and ||[T1*, T2]|| on the joint core, through the Gram
    adjoint of T1 in ambient coordinates."""
    amb, core = T1.dom, joint_core(T1, T2)
    T1s = adjoint(T1).matrix
    return tuple(np.linalg.norm(amb.whiten((A @ T2.matrix - T2.matrix @ A) @ core.basis), 2)
                 for A in (T1.matrix, T1s))


def test_doubly_commuting_residual_matches_the_adjoint_route():
    T = wl.build_shift_1v(wl.random_atomic_measure(1, 3, seed=4), 12)
    T2 = wl.OperatorModel(T.dom, T.dom, T.matrix @ T.matrix, core_fn=lambda m: T.core(m + 2))
    pairs = [(T, T2), scrambled_four_block_pair()]
    for A, B in pairs:
        for got, ref in zip(wl.doubly_commuting_residual(A, B), adjoint_route_residuals(A, B)):
            assert_close(got, ref, 1e-3)
    # T and T^2 commute but do not doubly commute; the four-block pair does both
    comm, star = wl.doubly_commuting_residual(T, T2)
    assert comm < 1e-13 and star > 1
    assert max(wl.doubly_commuting_residual(*pairs[1])) < 1e-13


def test_decompositions_build_no_restriction_or_adjoint(monkeypatch, whitenings):
    calls = []
    for module in (decomp, operators):
        for name in ("restrict_operator", "unitarity_residual", "adjoint"):
            def counted(*args, _name=name, **kwargs):
                calls.append(_name)
                raise AssertionError(f"{_name} called")

            monkeypatch.setattr(module, name, counted, raising=False)
    T1, T2 = scrambled_four_block_pair()
    wl.wold_single(T1)
    wl.wold_single(T2)
    wl.wold_pair(T1, T2)
    assert calls == []
    assert whitenings == [T1, T2]


# -- norm identities and the model map in kernel coordinates ----------------
# Residuals of unit vectors against the P-route, and the rows of build_V
# against the route through D x D powers.

IDENTITY_TOL = 1e-13
ROWS_TOL = 1e-12


def unit_vector(core, amb, rng):
    x = core.basis @ (rng.standard_normal(core.dim) + 1j * rng.standard_normal(core.dim))
    return x / amb.norm(x)


def check_norm_identity_route(T, rng, count=3):
    for _ in range(count):
        x = unit_vector(T.core_subspace(2), T.dom, rng)
        assert abs(wl.check_norm_identity(T, x) - projector_norm_identity(T, x)) < IDENTITY_TOL


def check_pair_routes(T1, T2, rng, count=3):
    core = joint_core(T1, T2, 2)
    for _ in range(count):
        x = unit_vector(core, T1.dom, rng)
        got = wl.check_two_variable_identity(T1, T2, x)
        assert abs(got - projector_two_variable_identity(T1, T2, x)) < IDENTITY_TOL
    quad = wl.wold_pair(T1, T2)
    target = wl.build_space(quad.measures["eta1"], quad.measures["eta2"], *T1.dom.caps)
    rows = wl.build_V(T1, T2, target).matrix
    ref = power_model_rows(T1, T2, target)
    if decomp._coordinate_pair_space(T1, T2) is not None:
        # the product route's joint kernel e1 ⊗ e2 is the reference's
        # joint kernel times one unimodular constant
        c = np.vdot(rows, ref) / np.vdot(rows, rows)
        assert abs(abs(c) - 1) <= ROWS_TOL
        rows = c * rows
    assert np.max(np.abs(rows - ref)) <= ROWS_TOL * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("caps", [10, 24, 48])
def test_norm_identity_matches_the_projector_route_on_shifts(caps, d):
    mu = wl.random_atomic_measure(d, 3, seed=caps + d, density_scale=0.3)
    check_norm_identity_route(wl.build_shift_1v(mu, caps), np.random.default_rng(caps))


@pytest.mark.parametrize("d", [1, 2])
def test_norm_identity_matches_the_projector_route_on_scrambled_shifts(d):
    # a dense G and a dense L: the form sums no structure the model holds
    mu = wl.random_atomic_measure(d, 3, seed=40 + d, density_scale=0.3)
    T, _ = wl.scramble(wl.build_shift_1v(mu, 16), 7 + d)
    assert np.count_nonzero(T.matrix) > T.dom.dim_total ** 2 // 2
    check_norm_identity_route(T, np.random.default_rng(d))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("caps", [(5, 4), (8, 8)])
def test_pair_identity_and_model_rows_match_the_projector_routes(caps, d):
    pair = wl.build_pair_2v(*wl.random_measure_pair(d, 2, seed=sum(caps) + d), *caps)
    check_pair_routes(*pair, np.random.default_rng(d))


@pytest.mark.parametrize("d", [1, 2])
def test_pair_identity_matches_the_projector_route_on_scrambled_pairs(d):
    # a dense G and dense L1, L2 on the dense route: the pair form sums no
    # structure the model holds
    pair = wl.build_pair_2v(*wl.random_measure_pair(d, 2, seed=50 + d), 5, 4)
    (T1, T2), _ = wl.scramble(pair, 9 + d)
    assert decomp._coordinate_pair_space(T1, T2) is None
    D = T1.dom.dim_total
    assert min(np.count_nonzero(T.matrix) for T in (T1, T2)) > D ** 2 // 2
    core, rng = joint_core(T1, T2, 2), np.random.default_rng(d)
    for _ in range(3):
        x = unit_vector(core, T1.dom, rng)
        got = wl.check_two_variable_identity(T1, T2, x)
        assert abs(got - projector_two_variable_identity(T1, T2, x)) < IDENTITY_TOL


@settings(max_examples=8)
@given(seed=seeds, d=st.integers(1, 2), n_atoms=st.integers(1, 3), caps=st.integers(3, 6))
def test_kernel_coordinate_routes_match_on_small_caps(seed, d, n_atoms, caps):
    rng = np.random.default_rng(seed)
    mu = wl.random_atomic_measure(d, n_atoms, seed=seed, density_scale=0.3)
    check_norm_identity_route(wl.build_shift_1v(mu, 2 * caps), rng)
    check_pair_routes(*wl.build_pair_2v(*wl.random_measure_pair(d, n_atoms, seed=seed),
                                        caps, caps), rng)


def test_model_map_shifts_rows_exactly():
    T1, T2 = wl.build_pair_2v(*wl.random_measure_pair(2, 2, seed=3), 5, 4)
    quad = wl.wold_pair(T1, T2)
    target = wl.build_space(quad.measures["eta1"], quad.measures["eta2"], *T1.dom.caps)
    rows = wl.build_V(T1, T2, target).matrix
    for var in (1, 2):
        assert np.array_equal(decomp._shift_rows(rows, target, var),
                              coordinate_shift_matrix(target, var) @ rows)
