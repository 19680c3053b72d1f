"""Wold-type decompositions of 2-isometries and doubly commuting pairs.

A single 2-isometry splits into a unitary part on the stable range and a
shift part generated by the wandering subspace; the shift part is
classified by a circle measure whose moments are Gram pairings of the
orbit of the wandering subspace.  A constant density is read off the
bottom of their Toeplitz matrix (Pisarenko), and the rest is turned into
atoms by a small Toeplitz dilation.  A doubly commuting pair splits the
space four ways, with one measure per single-shift block and a pair of
measures for the jointly analytic block.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg as sla

from ._blas import one_blas_thread
from .config import DEFAULT_CORE_MARGIN, DEFAULTS, Tolerances
from .errors import AssumptionError, ConvergenceError
from .measures import CircleMeasure, fourier_coefficients
from .operators import (
    IndexCore,
    OperatorModel,
    Subspace,
    _defect_form,
    _euclidean_span,
    _numerical_rank,
    _norm2,
    _pivoted_qr,
    _psd_rank_mask,
    doubly_commuting_residual,
    joint_core,
    left_inverse,
    subspace_intersect,
    two_isometry_defect,
    unitarity_residual,
    wandering_subspace,
)
from .space import (GradedPolySpace, PolyVector, _shift_entries, coordinate_shift_matrix,
                    factor_spaces)


def _as_flat(x) -> np.ndarray:
    if isinstance(x, PolyVector):
        return x.flatten()
    return np.asarray(x, dtype=complex).reshape(-1)


# ---------------------------------------------------------------------------
# orbit closure and the certificate of one operator
# ---------------------------------------------------------------------------

def _powers(Tw: np.ndarray, Kw: np.ndarray, tols: Tolerances) -> list:
    """[K_w, T_w K_w, T_w^2 K_w, ...] in whitened coordinates, up to the
    last power the truncation has not annihilated: the loop stops at the
    first power whose Frobenius norm is at most ``tols.rank_floor``.  By
    Weyl's bound such a block moves no singular value of the stacked
    powers past the rank cut, so it adds no direction the cut keeps; T is
    expansive, so only a power the truncation annihilated gets that
    small.  The stacked powers span the orbit [K]_T: :func:`_split` cuts
    their rank, and :func:`_orbit_measure` reads their moments."""
    powers = [Kw]
    cur = Kw
    for _ in range(Kw.shape[0] + 1):
        cur = Tw @ cur
        if np.vdot(cur, cur).real <= tols.rank_floor**2:
            break
        powers.append(cur)
    return powers


def _split(Tw: np.ndarray, Kw: np.ndarray, tols: Tolerances, Aw: np.ndarray = None) -> tuple:
    """(H_w, U_w, powers): the Wold split of a block A by T, given the
    kernel K of T on A, all in whitened coordinates (A the whole space
    when ``Aw`` is None, else spanned by the orthonormal columns Aw).

    By the Wold-type theorem the shift block is the orbit H = [K]_T and
    the unitary block is A ⊖ H.  The orbit is spanned by the stacked
    powers V = [K_w, T_w K_w, ...] of :func:`_powers`; on the model M_z of
    a Dirichlet-type space their Gram is I plus a positive semidefinite
    Dirichlet part, so the powers the truncation keeps have
    sigma_min(V) >= 1 and the ones it annihilated are at rounding.  One
    complete column-pivoted QR of V in the coordinates of A
    (:func:`woldlab.operators._pivoted_qr`) cuts the rank at
    :func:`_numerical_rank` of |diag R|: its leading columns are H and
    its trailing ones A ⊖ H.  Both are views of one Q; the powers, in
    ambient whitened coordinates, serve the wandering residual and the
    measure.
    """
    powers = _powers(Tw, Kw, tols)
    V = np.hstack(powers)
    if Aw is None:
        Q, r = _pivoted_qr(V, tols)
    else:
        Q, r = _pivoted_qr(Aw.conj().T @ V, tols)
        Q = Aw @ Q
    return Q[:, :r], Q[:, r:], powers


@dataclass(frozen=True, eq=False)
class Certificate:
    """What the pipeline needs of one 2-isometry T, computed once.

    The defect and E = ker T* are built with the certificate; the Wold
    split, the defect form F = T^H G T - G, the left inverse L and the
    gap of the norm identity on first use.  ``gap`` is the D x D
    Hermitian form G - Q whose value at x is the residual of
    :func:`check_norm_identity` (:func:`_norm_gap`), read-only, so every
    vector of T is checked with one product.  ``pair_gaps`` maps the
    certificate of a second operator T2 to the gap of the two-variable
    identity of (T, T2) (:func:`_pair_gap`); it holds that certificate
    weakly, so a replaced or freed one drops its form.  ``split`` is the
    split of the whole space by T (:func:`_split`
    with K = E): (H1_w, H0_w, powers), the orbit [E]_T and its complement
    as whitened bases, views of one Q, and the powers T_w^n E_w, all
    read-only, for the decompositions and the analyticity check.
    ``orbit`` is H1_w unwhitened.  The whitened operator
    T_w = L^H T L^{-H} is memoized on T itself (``OperatorModel.whitened``).
    E is Gram-orthonormal, so its readers take the projection onto it in
    the coordinates of E: ||P y||^2 = ||E^H G y||^2, and no projector is
    built.  By the Wold-type theorem H = H0 ⊕ [E]_T, T is analytic exactly
    when the orbit fills the space.  T is held weakly, so the memo on T
    (see :func:`certify`) is freed with it.  The decompositions certify
    only the operators they are given, never a restriction.
    """

    defect: float
    E: Subspace
    tols: Tolerances
    op: weakref.ref

    @cached_property
    def split(self) -> tuple:
        T = self.op()
        H1w, H0w, powers = _split(T.whitened, T.dom.whiten(self.E.basis), self.tols)
        for X in (H1w, H0w, *powers):
            X.flags.writeable = False
        return H1w, H0w, powers

    @cached_property
    def orbit(self) -> Subspace:
        amb = self.E.ambient
        return Subspace(amb, amb.unwhiten(self.split[0]), self.tols)

    @cached_property
    def F(self) -> np.ndarray:
        F = _defect_form(self.op())
        F.flags.writeable = False
        return F

    @cached_property
    def L(self) -> np.ndarray:
        return left_inverse(self.op(), tols=self.tols).matrix

    @cached_property
    def gap(self) -> np.ndarray:
        gap = _norm_gap(self)
        gap.flags.writeable = False
        return gap

    @cached_property
    def pair_gaps(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()

    def require_analytic(self) -> "Certificate":
        if self.split[0].shape[1] != self.E.ambient.dim_total:
            raise AssumptionError(
                "operator is not analytic: the orbit of ker T* is not the whole space"
            )
        return self


@one_blas_thread
def certify(T: OperatorModel, tols: Tolerances = DEFAULTS) -> Certificate:
    """The certificate of T under ``tols``: built on the first request,
    then read from ``T.certificates``.  Raises ``AssumptionError`` unless T
    is a 2-isometry within tolerance."""
    cert = T.certificates.get(tols)
    if cert is None:
        defect = two_isometry_defect(T, tols=tols)
        if defect > tols.two_isometry:
            raise AssumptionError(
                f"two-isometry defect {defect:.3e} exceeds tolerance {tols.two_isometry:.1e}"
            )
        E = wandering_subspace(T, tols=tols)
        cert = T.certificates[tols] = Certificate(float(defect), E, tols, weakref.ref(T))
    return cert


# ---------------------------------------------------------------------------
# d = 1 coordinate pairs: the product of two factor shifts
# ---------------------------------------------------------------------------

_PAIR_SPACES = weakref.WeakKeyDictionary()


def _coordinate_pair_space(T1: OperatorModel, T2: OperatorModel) -> Optional[GradedPolySpace]:
    """The space of a d = 1 coordinate pair (M_z ⊗ I, I ⊗ M_z), or None.

    The pair is recognized from what it is, not from how it was built:
    both operators act on one :class:`GradedPolySpace` with d = 1 and both
    caps at least 1, their matrices equal the coordinate shifts of that
    space entry for entry, and their safe cores at the default margin and
    at margin 1 are its graded index cores of variables 1 and 2.  The
    default-margin cores carry the defect and unitarity gates, and the
    margin-1 cores the left inverse: on these product sets the pair's
    certificates are products of the factors' (:func:`_factor_shifts`),
    L_T1 = L_S1 ⊗ I among them.  A matrix is compared with its shift in
    place: it has as many nonzero entries as the shift, and a 1 at each
    of the shift's unit entries (:func:`woldlab.space._shift_entries`).
    The answer depends only on the two operators, whose matrices are
    read-only, so it is found once per pair and then read from a memo
    that holds both operators weakly.
    """
    seen = _PAIR_SPACES.setdefault(T1, weakref.WeakKeyDictionary())
    if T2 not in seen:
        seen[T2] = _find_coordinate_pair_space(T1, T2)
    return seen[T2]


def _find_coordinate_pair_space(T1: OperatorModel, T2: OperatorModel) -> Optional[GradedPolySpace]:
    space = T1.dom
    if not (isinstance(space, GradedPolySpace) and space.dim == 1 and min(space.caps) >= 1
            and T1.codom is space and T2.dom is space and T2.codom is space):
        return None
    for var, T in ((1, T1), (2, T2)):
        rows, cols = _shift_entries(space, var)
        if not (np.count_nonzero(T.matrix) == rows.size and np.all(T.matrix[rows, cols] == 1)):
            return None
        for margin in (DEFAULT_CORE_MARGIN, 1):
            core = T.core(margin)
            if not (isinstance(core, IndexCore) and core.transform is None
                    and core.frame is space
                    and np.array_equal(core.index, space.core_indices(margin, var))):
                return None
    return space


_FACTOR_SHIFTS = weakref.WeakKeyDictionary()


def _factor_shifts(space: GradedPolySpace) -> tuple:
    """(S1, S2): M_z on the two factor spaces of ``space``
    (:func:`woldlab.space.factor_spaces`), built on the first request and
    then read from a memo that holds ``space`` weakly.  So :func:`certify`
    memoizes each factor's certificate once per space and tolerance, and
    :func:`wold_pair`, both pair functions and :func:`slocinski` share it.

    On the d = 1 coordinate pair of ``space`` (:func:`_coordinate_pair_space`)
    the Gram is G1 ⊗ G2 to rounding, T1 = S1 ⊗ I and T2 = I ⊗ S2, so
    ker T1* = ker S1* ⊗ C^{N2+1}, the defect form of T1 is F_S1 ⊗ G2, its
    left inverse on the margin-1 core is L_S1 ⊗ I, and likewise in the
    second variable: every certificate of the pair is read from the
    factors' at N_i + 1 rows.  The ``condition_max`` gate of the left
    inverse reads the factor's sigma ratio; the dense ratio of T1 is that
    times cond(L2), the Cholesky factor of G2 that whitens the coordinate
    core, which L_S1 ⊗ I does not depend on.
    """
    shifts = _FACTOR_SHIFTS.get(space)
    if shifts is None:
        shifts = _FACTOR_SHIFTS[space] = tuple(
            OperatorModel(f, f, coordinate_shift_matrix(f, 1)) for f in factor_spaces(space))
    return shifts


# ---------------------------------------------------------------------------
# measure extraction from orbit moments
# ---------------------------------------------------------------------------

def _cluster_angles(angles: np.ndarray, tol: float):
    """Group indices of nearby angles, merging across the 2*pi seam."""
    if angles.size == 0:
        return []
    order = np.argsort(angles)
    clusters = np.split(order, np.flatnonzero(np.diff(angles[order]) >= tol) + 1)
    if len(clusters) > 1 and angles[order[0]] + 2 * np.pi - angles[order[-1]] < tol:
        clusters[0] = np.concatenate([clusters.pop(), clusters[0]])
    return clusters


def _orbit_measure(powers: list, tols: Tolerances) -> CircleMeasure:
    """The measure whose moments the powers V_m = T^m E of a kernel carry.

    Their Gram G gives the table M[m, p] = G[m+1, p+1] - G[m, p]
    = <D T^p E, D T^m E> (D^2 = T*T - I), which is mu_hat(m - p) until the
    truncation cuts a power: the depth K is the last at which the leading
    blocks of M are Toeplitz.  The Toeplitz matrix of mu_hat(0..K) is built
    from the first block row (deeper blocks subtract large Gram entries).

    A constant density c I adds c I to it (Pisarenko).  When its smallest
    eigenvalue counts as rank and more than d eigenvalues sit within the
    rank band of :func:`woldlab.operators._psd_rank_mask` above it, c is
    the mean of that bottom cluster and is subtracted; otherwise c = 0.  The rest, the
    atom part, has rank r; its leading block of depth k = min(K, 2 ceil(r/d)),
    grown until the first k blocks hold rank r, is factored as R^H R.  The
    shift v_j -> v_{j+1} of R's column blocks is then an isometry: it is fit
    by least squares, completed and made unitary, and each eigenvalue
    cluster at theta gives an atom (theta, W), W its spectral projection
    compressed to v_0.  So a scalar or scalar-matrix density comes back as
    the density c I; a non-scalar density keeps its part above the
    smallest eigenvalue as atoms, exact to K.  The result must reproduce
    mu_hat(0..K) (:func:`_checked_moments`).
    """
    d, n = powers[0].shape[1], len(powers) - 1
    if d == 0 or n == 0:
        return CircleMeasure.zero(d)
    V = np.hstack(powers)
    G = V.conj().T @ V
    M = G[d:, d:] - G[:-d, :-d]
    jump = np.abs(M[d:, d:] - M[:-d, :-d]).reshape(n - 1, d, n - 1, d).max(axis=(1, 3))
    scale = max(1.0, float(np.max(np.abs(M))))
    bad = jump > tols.tilde_residual * scale
    levels = np.maximum.outer(np.arange(n - 1), np.arange(n - 1))[bad]
    K = int(levels.min()) if levels.size else n - 1
    row = M[:d, :(K + 1) * d].reshape(d, K + 1, d).transpose(1, 0, 2)
    coeffs = np.concatenate([row[:0:-1].conj().transpose(0, 2, 1), row])  # lags -K..K
    lags = K - np.subtract.outer(np.arange(K + 1), np.arange(K + 1))  # K + p - m
    toep = coeffs[lags].transpose(0, 2, 1, 3).reshape((K + 1) * d, (K + 1) * d)
    lam = np.linalg.eigvalsh(toep)
    # the cluster mean matches c to the rounding of mu_hat(0); lam[0] alone
    # sits lower by the eigensolver's spread
    bottom = ~_psd_rank_mask(lam - lam[0], tols)
    split = bottom.sum() > d and _psd_rank_mask(lam, tols)[0]
    c = float(np.mean(lam[bottom])) if split else 0.0
    density = c * np.eye(d)
    toep -= c * np.eye(len(toep))

    def rank(k):
        return int(_psd_rank_mask(np.linalg.eigvalsh(toep[:k * d, :k * d]), tols).sum())

    r = int(_psd_rank_mask(lam - c, tols).sum())
    if r == 0:
        return _checked_moments(CircleMeasure(d, density=density), row, scale, tols)
    if K == 0:
        raise ConvergenceError("orbit moments are not Toeplitz past depth 0; caps too small")
    k = min(K, 2 * -(-r // d))
    while k < K and rank(k) < r:
        k += 1
    lam, W = np.linalg.eigh(toep[:(k + 1) * d, :(k + 1) * d])
    keep = _psd_rank_mask(lam, tols)
    R = np.sqrt(lam[keep])[:, None] * W[:, keep].conj().T
    X, Y = R[:, :k * d], R[:, d:]
    # X holds mu_hat(0) != 0 on its diagonal, so its rank is at least one
    Ux, sx, Vhx = np.linalg.svd(X, full_matrices=False)
    q = _numerical_rank(sx, tols)
    Ut = Y @ (Vhx[:q].conj().T / sx[:q]) @ Ux[:, :q].conj().T
    lsq = float(np.linalg.norm(Ut @ X - Y, 2) / max(1.0, np.linalg.norm(Y, 2)))
    if lsq > tols.tilde_residual:
        raise ConvergenceError(
            f"moment shift isometry fit residual {lsq:.3e} exceeds tolerance; caps too small"
        )
    if q < R.shape[0]:
        # send the directions no v_j reaches onto the orthogonal
        # complement of the image, matching SVD order (deterministic)
        dom_extra = sla.null_space(Ux[:, :q].conj().T)
        img_extra = sla.null_space((Ut @ Ux[:, :q]).conj().T)
        m = min(dom_extra.shape[1], img_extra.shape[1])
        Ut = Ut + img_extra[:, :m] @ dom_extra[:, :m].conj().T
    Uu, _, Vhu = np.linalg.svd(Ut)
    # Schur of a (numerically) unitary matrix: orthonormal eigenvectors
    Tschur, Q = sla.schur(Uu @ Vhu, output="complex")
    angles = np.mod(np.angle(np.diag(Tschur)), 2 * np.pi)
    Yv = Q.conj().T @ R[:, :d]  # row i pairs the i-th Schur vector with v_0
    atoms = []
    for cluster in _cluster_angles(angles, tols.atom_cluster):
        Yc = Yv[cluster]
        angs = angles[cluster]
        if angs.max() - angs.min() > np.pi:  # seam-straddling cluster
            angs = np.where(angs > np.pi, angs - 2 * np.pi, angs)
        atoms.append((float(np.mean(angs)) % (2 * np.pi), Yc.conj().T @ Yc))
    return _checked_moments(CircleMeasure(d, atoms=tuple(atoms), density=density), row, scale,
                            tols)


def _checked_moments(mu: CircleMeasure, row: np.ndarray, scale: float,
                     tols: Tolerances) -> CircleMeasure:
    """mu, once its moments mu_hat(0), mu_hat(-1), ... reproduce the first
    block row of the moment table within ``tols.tilde_residual`` times
    ``scale`` (max(1, max|M|)); otherwise ``ConvergenceError``."""
    K = row.shape[0] - 1
    err = float(np.max(np.abs(fourier_coefficients(mu, K)[K::-1] - row)))
    if err > tols.tilde_residual * scale:
        raise ConvergenceError(
            f"extracted measure misses its orbit moments by {err:.3e}; caps too small"
        )
    return mu


@one_blas_thread
def extract_measure(T: OperatorModel, tols: Tolerances = DEFAULTS) -> CircleMeasure:
    """Classifying measure of an analytic 2-isometry.

    Analyticity is certified by the orbit of the wandering subspace
    E = ker T* filling the space (see :class:`Certificate`).  The measure
    is read from the orbit moments of E under T_w
    (:func:`_orbit_measure`), the powers the certificate's split holds:
    atoms plus a constant density c I, and for a non-scalar density atoms
    whose moments are exact to the depth of the moment table.
    """
    cert = certify(T, tols).require_analytic()
    return _orbit_measure(cert.split[2], tols)


# ---------------------------------------------------------------------------
# norm identities
# ---------------------------------------------------------------------------

# The norm identity of an analytic 2-isometry T,
#   ||x||_G^2 = sum_{k>=0} ||P L^k x||_G^2 + sum_{k>=1} <F L^k x, L^k x>,
# is one Hermitian form, the same for every x: with P_G = (G E)(G E)^H the
# right side is x^H Q x for Q = P_G + L^H S L = S - F, where
# S = sum_{k>=0} L^kH (P_G + F) L^k is a Stein sum.  :func:`_stein_sum`
# sums it by doubling: from R = P_G + F and M = L each step sets
# R <- R + M^H R M, then M <- M^2, so after j steps R holds the terms
# k < 2^j, M = L^(2^j), and what is left out is
# S - R = sum_{i>=1} (M^i)^H R M^i.  In whitened norms its form at x is at
# most ||M_w||^2 ||R_w|| / (1 - ||M_w||^2) ||x||_G^2 once ||M_w|| < 1
# (:func:`_tail_bound`), and the loop stops at the first step where that
# factor is at most _EPS: the terms left out are then below the rounding of
# ||x||_G^2 itself, for every x.  L of a certified analytic T is
# nilpotent, of index at most the orbit length n, so the loop ends after
# ceil(log2 n) + 1 steps.
#
# The two-variable identity nests two such sums (:func:`_pair_gap`): the
# inner sums S2 over L2 run inside the outer sum S1 over L1.  Each inner
# sum leaves out at most _EPS ||y||_G^2 at every y, and S1 reads it at
# y = L1^m x for the at most n1 powers m below the nilpotency index of L1,
# each with ||y||_G <= ||x||_G because ||L1||_G <= 1.  So an inner tail,
# carried through S1, stays within about (n1 + 1) _EPS ||x||_G^2, and the
# terms left out are again at the rounding of ||x||_G^2 times the orbit
# length.
_EPS = np.finfo(float).eps


def _tail_bound(M: np.ndarray, R: np.ndarray, c2: float, ci2: float) -> float:
    """||M_w||^2 ||R_w|| / (1 - ||M_w||^2) read from upper bounds of the
    whitened norms, or inf while ||M_w|| may be 1 or more (see ``_EPS``).
    With G = C C^H, M_w = C^H M C^{-H} and R_w = C^{-1} R C^{-H}, so
    ||M_w|| <= ||C|| ||C^{-1}|| ||M||_F and ||R_w|| <= ||C^{-1}||^2 ||R||_F,
    given ``c2`` >= ||C||^2 and ``ci2`` >= ||C^{-1}||^2.  A stack of forms
    R has the Frobenius norm of all of them, which bounds each one's."""
    m2 = c2 * ci2 * float(np.vdot(M, M).real)
    if m2 >= 1:
        return np.inf
    return m2 * ci2 * float(np.sqrt(np.vdot(R, R).real)) / (1 - m2)


def _stein_sum(R: np.ndarray, L: np.ndarray, amb) -> np.ndarray:
    """S(R, L) = sum_{k>=0} L^kH R L^k for a form R on ``amb``, or for each
    form of a stack R of shape (r, D, D) at once: summed by doubling until
    :func:`_tail_bound` is at most _EPS (see ``_EPS``).  The bounds read
    ||C||^2 <= tr G and ||C^{-1}||^2 <= ||C^{-1}||_F^2, one triangular
    inverse (LAPACK trtri) of the Cholesky factor, whose diagonal is
    positive.  L must be nilpotent: ``ConvergenceError`` if M has not
    vanished after ceil(log2(D + 1)) + 1 doublings."""
    trtri = sla.lapack.get_lapack_funcs("trtri", (amb.chol,))
    Ci, _ = trtri(amb.chol, lower=1)
    c2, ci2 = float(np.trace(amb.gram).real), float(np.vdot(Ci, Ci).real)
    M = L
    doublings = 0
    while _tail_bound(M, R, c2, ci2) > _EPS:
        if doublings > amb.dim_total.bit_length():  # = ceil(log2(D + 1))
            raise ConvergenceError(
                f"left inverse is not nilpotent: its power 2^{doublings} has not vanished"
            )
        R = R + M.conj().T @ R @ M
        M = M @ M
        doublings += 1
    return R


def _norm_gap(cert: Certificate) -> np.ndarray:
    """G - Q, the gap of the norm identity of the certified T, with
    Q = S - F and S the Stein sum of P_G + F under L (see ``_EPS``)."""
    amb = cert.E.ambient
    GE = amb.gram @ cert.E.basis
    return amb.gram + cert.F - _stein_sum(GE @ GE.conj().T + cert.F, cert.L, amb)


def _pair_gap(c1: Certificate, c2: Certificate) -> np.ndarray:
    """G - Q12, the gap of the two-variable identity of the certified pair
    (T1, T2), read-only (see :func:`check_two_variable_identity`).

    Over y = L2^n L1^m x the four families are pairings with fixed forms:
    K = G E2 C^H C E2^H G with C = E1^H G E2 for the joint-kernel
    projections, A = G E2 (E2^H F1 E2) E2^H G for m >= 1,
    B = G E1 (E1^H F2 E1) E1^H G for n >= 1, and M = T2^H F1 T2 - F1 for
    m, n >= 1.  With S_i the Stein sum under L_i (:func:`_stein_sum`),
    Q12 = S1(S2(K + B) + S2(A + M) - B - M) - S2(A + M) + M, and the two
    S2 sums share one doubling loop over their stack.
    """
    amb = c1.E.ambient
    G, T2 = amb.gram, c2.op()
    E1, E2 = c1.E.basis, c2.E.basis
    GE1, GE2 = G @ E1, G @ E2
    C = E1.conj().T @ GE2
    K = GE2 @ (C.conj().T @ C) @ GE2.conj().T
    A = GE2 @ (E2.conj().T @ (c1.F @ E2)) @ GE2.conj().T
    B = GE1 @ (E1.conj().T @ (c2.F @ E1)) @ GE1.conj().T
    M = T2.matrix.conj().T @ c1.F @ T2.matrix - c1.F
    kb, am = _stein_sum(np.stack([K + B, A + M]), c2.L, amb)
    gap = G + (am - M) - _stein_sum(kb + am - B - M, c1.L, amb)
    gap.flags.writeable = False
    return gap


@one_blas_thread
def check_norm_identity(T: OperatorModel, x, tols: Tolerances = DEFAULTS) -> float:
    """Residual of ||x||^2 = sum_k ||P L^k x||^2 + sum_{k>=1} ||D L^k x||^2.

    P is the Gram projection onto E = ker T*, and the defect terms are the
    exact pairing <(T*T - I) y, y> = <F y, y>, F = T^H G T - G, so no
    square root enters.  The right side is x^H Q x for one Hermitian form
    Q, the same for every x, so the residual is |x^H (G - Q) x|: one
    product with the gap G - Q that the :class:`Certificate` of T holds
    (``gap``), built once per certificate by doubling (:func:`_norm_gap`).
    The terms its sum leaves out are below _EPS ||x||^2 for every x (see
    ``_EPS``).  T must be a 2-isometry whose orbit of ker T* fills the
    space.
    """
    cert = certify(T, tols).require_analytic()
    x = _as_flat(x)
    return abs(float(np.vdot(x, cert.gap @ x).real))


@one_blas_thread
def check_two_variable_identity(T1: OperatorModel, T2: OperatorModel, x,
                                tols: Tolerances = DEFAULTS) -> float:
    """Residual of the two-variable expansion of ||x||^2.

    Over y = L2^n L1^m x, four families of terms: the joint-kernel
    projections ||P1 P2 y||^2, the single defects <F1 P2 y, P2 y> (m >= 1)
    and <F2 P1 y, P1 y> (n >= 1), and the mixed defect (m, n >= 1).  The
    kernel terms are read in the coordinates of the Gram-orthonormal
    kernels E1 and E2: with a = E2^H G y and b = E1^H G y,
    ||P1 P2 y||^2 = ||C a||^2 for C = E1^H G E2, and the single defects
    are a^H (E2^H F1 E2) a and b^H (E1^H F2 E1) b.  The mixed term
    <D1^2 D2^2 y, y> is <F1 T2 y, T2 y> - <F1 y, y>, the pairing with
    T2^H F1 T2 - F1, which equals
    (T2 T1)^H G (T1 T2) - T1^H G T1 - T2^H G T2 + G whenever T1 T2 = T2 T1,
    so every summand is an exact Gram pairing.

    Each family is a fixed Hermitian form at y, so the right side is
    x^H Q12 x for one form Q12 of the pair, and the residual is
    |x^H (G - Q12) x|: one product per vector.  The gap G - Q12 is nested
    Stein sums over L2 and then L1 (:func:`_pair_gap`), with the stop of
    the one-variable identity; the terms they leave out stay at the
    rounding of ||x||^2 times the orbit length (see ``_EPS``).  It is
    built once per pair of certificates and memoized on the certificate
    of T1, keyed weakly by that of T2 (``Certificate.pair_gaps``), so a
    replaced certificate gets a fresh form.  E, F and L of each operator
    are read from its :class:`Certificate`.

    A d = 1 coordinate pair (:func:`_coordinate_pair_space`) is read from
    the gaps of its two factor shifts instead (:func:`_product_identity`):
    there the four families sum to Q1 ⊗ Q2, and T1, T2 are never
    certified at D rows.
    """
    space = _coordinate_pair_space(T1, T2)
    if space is not None:
        return _product_identity(space, _as_flat(x), tols)
    c1 = certify(T1, tols).require_analytic()
    c2 = certify(T2, tols).require_analytic()
    gap = c1.pair_gaps.get(c2)
    if gap is None:
        gap = c1.pair_gaps[c2] = _pair_gap(c1, c2)
    x = _as_flat(x)
    return abs(float(np.vdot(x, gap @ x).real))


def _product_identity(space: GradedPolySpace, x: np.ndarray, tols: Tolerances) -> float:
    """:func:`check_two_variable_identity` of the d = 1 coordinate pair of
    ``space``, from the gaps Delta_i = G_i - Q_i of its factor shifts S1, S2
    (:func:`_factor_shifts`, ``Certificate.gap``), at N_i + 1 rows.

    The Gram is G1 ⊗ G2, T1 = S1 ⊗ I and T2 = I ⊗ S2, so with e_i the
    Gram-orthonormal kernel of S_i*, P1 P2 = p1 ⊗ p2 for the projections
    p_i onto e_i, the defect forms are F_S1 ⊗ G2 and G1 ⊗ F_S2, the mixed
    form is F_S1 ⊗ F_S2, and L1 = L_S1 ⊗ I, L2 = I ⊗ L_S2.  The terms of
    y = L2^n L1^m x then factor into a form of S1 at L_S1^m and one of S2
    at L_S2^n, and the four families sum to Q1 ⊗ Q2.  The gap
    G1 ⊗ G2 - Q1 ⊗ Q2 = Delta1 ⊗ G2 + Q1 ⊗ Delta2 is read on x as an
    (N1+1) x (N2+1) array X, vec(X)^H vec(Delta1 X G2^T + Q1 X Delta2^T)
    with Q1 X = G1 X - Delta1 X, so no two large terms cancel.
    """
    S1, S2 = _factor_shifts(space)
    c1 = certify(S1, tols).require_analytic()
    c2 = certify(S2, tols).require_analytic()
    G1, G2 = S1.dom.gram, S2.dom.gram
    X = x.reshape(G1.shape[0], G2.shape[0])
    dX = c1.gap @ X
    return abs(float(np.vdot(X, dX @ G2.T + (G1 @ X - dX) @ c2.gap.T).real))


# ---------------------------------------------------------------------------
# single Wold decomposition
# ---------------------------------------------------------------------------

@dataclass
class SingleWold:
    """Unitary/analytic splitting of a single 2-isometry."""

    #: the residuals gated at ``tols.decomposition``
    GATED = ("orthogonality", "completeness", "wandering", "H0_unitarity",
             "H0_invariance", "H1_invariance")

    H0: Subspace
    H1: Subspace
    extracted: CircleMeasure
    residuals: dict

    def to_json_dict(self) -> dict:
        return {
            "dim_H0": self.H0.dim,
            "dim_H1": self.H1.dim,
            "residuals": self.residuals,
            "extracted_measure": self.extracted.to_json_dict(),
        }


def _block_residuals(blocks: dict, ops: dict, unitary) -> tuple:
    """(orthogonality, completeness, leaks, unitarity) of a splitting of the
    space into blocks, read in whitened coordinates.

    ``blocks`` maps names to orthonormal bases B_w of the blocks, ``ops``
    names to whitened operators T_w, and ``unitary`` lists the
    (block, operator) pairs on which T must be unitary.  With
    M = B_w^H T_w B_w, the matrix of the restriction of T to the block,
    ``leaks[block, op]`` is the Gram norm of the part of T(block) outside
    it, ||T_w B_w - B_w M|| (read from C below), and
    ``unitarity[block, op]`` is max|eig(M^H M - I)|.  The stacked bases Q give one Gram Q^H Q:
    orthogonality is the largest norm of its cross blocks, completeness
    ||Q^H Q - I|| (for a square Q, ||Q Q^H - I||), and at least 1 when Q
    has fewer columns than rows (the blocks miss a dimension).

    Each operator is compressed once, C = Q^H T_w Q: a block's M is its
    diagonal block of C, and its leak is the norm of its column block of C
    without its own rows, which for a unitary Q equals ||T_w B_w - B_w M||.
    The two differ by at most completeness times ||T_w||, and completeness
    is gated; a Q that is not square has completeness at least 1.
    """
    Q = np.hstack(list(blocks.values()))
    D, n = Q.shape
    QQ = Q.conj().T @ Q
    edges = np.cumsum([0] + [Bw.shape[1] for Bw in blocks.values()])
    spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
    ortho = max((_norm2(QQ[a, b]) for a, b in combinations(spans, 2)), default=0.0)
    QQ -= np.eye(n)
    complete = max(float(np.max(np.abs(np.linalg.eigvalsh(QQ)), initial=0.0)), float(n < D))
    leaks, unit = {}, {}
    for oname, Tw in ops.items():
        C = Q.conj().T @ (Tw @ Q)
        for bname, span in zip(blocks, spans):
            M = C[span, span]
            leaks[bname, oname] = _norm2(np.delete(C[:, span], span, axis=0))
            if (bname, oname) in unitary:
                F = M.conj().T @ M - np.eye(M.shape[0])
                unit[bname, oname] = float(np.max(np.abs(np.linalg.eigvalsh(F)), initial=0.0))
    return ortho, complete, leaks, unit


@one_blas_thread
def wold_single(T: OperatorModel, tols: Tolerances = DEFAULTS) -> SingleWold:
    """Split a 2-isometry into unitary and analytic parts and classify.

    By the Wold-type theorem H = H0 ⊕ [E]_T with E = ker T* the wandering
    subspace, so the shift block H1 is the orbit of E and the unitary block
    H0 is its Gram complement.  Orthogonality and completeness hold by
    construction and are still reported.  H0 is certified by its
    invariance and the unitarity of T on it, which together force it into
    the stable range; H1 by its invariance and the wandering property.
    All are read from the whitened blocks and T_w
    (:func:`_block_residuals`); no restricted operator is built.  E and
    the split are read from the :class:`Certificate` of T: H1, H0 and the
    powers T_w^n E_w come from one pivoted QR of those powers
    (:func:`_split`), so no block is whitened again.  The powers give both
    the wandering residual and the classifying measure of the analytic
    part (:func:`_orbit_measure`), so it is not certified.
    """
    cert = certify(T, tols)
    amb = T.dom
    E, H1 = cert.E, cert.orbit
    H1w, H0w, powers = cert.split
    H0 = Subspace(amb, amb.unwhiten(H0w), tols)
    ortho, complete, leaks, unitarity = _block_residuals(
        {"H0": H0w, "H1": H1w}, {"T": T.whitened}, [("H0", "T")])

    dims_ok = H0.dim + H1.dim == amb.dim_total
    residuals = {"two_isometry_defect": cert.defect, "orthogonality": ortho,
                 "completeness": complete,
                 "dimension_deficit": float(amb.dim_total - H0.dim - H1.dim),
                 "H0_invariance": leaks["H0", "T"], "H1_invariance": leaks["H1", "T"],
                 "H0_unitarity": unitarity["H0", "T"]}
    # wandering property: <T^n w, w'> = 0 for n >= 1, until the truncation
    # has annihilated T^n E; in whitened coordinates the pairing is
    # E_w^H T_w^n E_w
    Ewh = powers[0].conj().T
    cross = [Ewh @ P for P in powers[1:]]
    residuals["wandering"] = (float(np.max(np.linalg.norm(np.stack(cross), 2, axis=(1, 2))))
                              if cross else 0.0)

    worst = max(residuals[k] for k in SingleWold.GATED)
    if not dims_ok or worst > tols.decomposition:
        raise ConvergenceError(
            f"single Wold decomposition residual {worst:.3e} above tolerance "
            f"(dims {H0.dim}+{H1.dim} vs {amb.dim_total})"
        )

    if H1.dim:
        extracted = _orbit_measure(powers, tols)
    else:
        extracted = CircleMeasure.zero(E.dim)
    return SingleWold(H0=H0, H1=H1, extracted=extracted, residuals=residuals)


# ---------------------------------------------------------------------------
# model map V
# ---------------------------------------------------------------------------

def _shift_rows(rows: np.ndarray, target: GradedPolySpace, var: int) -> np.ndarray:
    """Z @ rows for the coordinate shift Z of ``target`` in variable ``var``
    (:func:`woldlab.space.coordinate_shift_matrix`), as an exact row shift:
    the rows of bidegree (m, n) move to (m + 1, n) or (m, n + 1), the top
    degree falls out and degree 0 is zero."""
    M1, M2 = target.caps
    src = rows.reshape(M1 + 1, M2 + 1, target.dim, -1)
    out = np.zeros_like(src)
    if var == 1:
        out[1:] = src[:-1]
    else:
        out[:, 1:] = src[:, :-1]
    return out.reshape(rows.shape)


@one_blas_thread
def build_V(T1: OperatorModel, T2: OperatorModel, target: GradedPolySpace,
            tols: Tolerances = DEFAULTS) -> OperatorModel:
    """Coefficient map x -> (P L1^m L2^n x)_{m,n} onto the model space.

    For a doubly commuting analytic pair this is an isometry onto the
    Dirichlet-type space of the extracted measure pair, intertwining the
    pair with the coordinate shifts.  P is the Gram projection onto the
    joint kernel E = ker T1* ∩ ker T2*, read in the coordinates of E: the
    rows of bidegree (m, n) are r_{m,n} = E^H G L1^m L2^n.  They follow
    the recurrence r_{m+1,0} = r_{m,0} L1 from r_{0,0} = E^H G, then
    r_{m,n+1} = r_{m,n} L2 for every m in one product, so no D x D power
    of L1 or L2 is formed.  Isometry (on 50 seeded core vectors, in one
    product) and intertwining residuals over the safe core are recorded in
    ``info`` (:func:`_dense_gates`); the coordinate shifts act as exact
    row shifts (:func:`_shift_rows`).

    On a d = 1 coordinate pair (:func:`_coordinate_pair_space`) the rows
    and all three gates are read from the certificates of its two factor
    shifts and the factor spaces of the target instead
    (:func:`_product_map`): the rows are kron(R1, R2), the isometry gap
    V^H G_t V - G is Delta1 ⊗ Y2 + G1 ⊗ Delta2 on the same 50 probes, and
    each intertwining residual is the product of two factor norms, so
    T1, T2 are never certified and nothing is factored at D rows.  Both
    routes gate the target dimension, and both gate the three residuals
    at ``tols.vmap``.
    """
    space = _coordinate_pair_space(T1, T2)
    if space is None:
        rows = _dense_rows(T1, T2, target, tols)
        iso, res1, res2 = _dense_gates(T1, T2, target, rows, tols)
    else:
        rows, (iso, res1, res2) = _product_map(space, target, tols)
    V = OperatorModel(T1.dom, target, rows)
    V.info.update({"isometry": iso, "intertwine_1": res1, "intertwine_2": res2})
    if max(iso, res1, res2) > tols.vmap:
        raise ConvergenceError(
            f"model map residuals above tolerance: isometry {iso:.3e}, "
            f"intertwining ({res1:.3e}, {res2:.3e})"
        )
    return V


def _check_target_dim(target: GradedPolySpace, kernel_dim: int):
    if target.dim != kernel_dim:
        raise ValueError(
            f"target coefficient dimension {target.dim} does not match joint kernel {kernel_dim}"
        )


def _probes(dim: int) -> np.ndarray:
    """The 50 seeded probe coefficients of the isometry gate, shape
    (50, dim): each draws its real and then its imaginary part."""
    z = np.random.default_rng(0).standard_normal((50, 2, dim))
    return z[:, 0] + 1j * z[:, 1]


def _dense_rows(T1: OperatorModel, T2: OperatorModel, target: GradedPolySpace,
                tols: Tolerances) -> np.ndarray:
    """The rows of :func:`build_V` from the certificates of T1 and T2."""
    c1 = certify(T1, tols).require_analytic()
    c2 = certify(T2, tols).require_analytic()
    amb = T1.dom
    E = subspace_intersect(c1.E, c2.E, tols)
    _check_target_dim(target, E.dim)
    M1, M2 = target.caps
    D = amb.dim_total
    rows = np.empty((target.dim_total, D), dtype=complex)
    grid = rows.reshape(M1 + 1, M2 + 1, target.dim, D)
    # block holds the rows r_{m,n} of every m, in the order of m
    block = np.empty(((M1 + 1) * target.dim, D), dtype=complex)
    cur = E.basis.conj().T @ amb.gram
    for m in range(M1 + 1):
        block[m * target.dim:(m + 1) * target.dim] = cur
        if m < M1:
            cur = cur @ c1.L
    for n in range(M2 + 1):
        grid[:, n] = block.reshape(M1 + 1, target.dim, D)
        if n < M2:
            block = block @ c2.L
    return rows


def _pairings(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re <a_j, b_j> for each column pair, as a vector."""
    return np.einsum("ij,ij->j", A.conj(), B).real


def _dense_gates(T1: OperatorModel, T2: OperatorModel, target: GradedPolySpace,
                 rows: np.ndarray, tols: Tolerances) -> tuple:
    """(isometry, intertwine_1, intertwine_2) of the map with these rows,
    over the joint safe core B: max |<V x, V x> - <x, x>| / (1 + ||x||^2)
    on the probes x = B c, and ||L_t^H (V T_i - Z_i V) B|| with the
    target's Cholesky factor L_t."""
    amb = T1.dom
    core = joint_core(T1, T2, None, tols)
    X = core.basis @ _probes(core.dim).T
    VX = rows @ X
    nx = _pairings(X, amb.gram @ X)
    nvx = _pairings(VX, target.gram @ VX)
    iso = float(np.max(np.abs(nvx - nx) / (1.0 + nx)))
    res1, res2 = (_norm2(target.whiten((rows @ T.matrix - _shift_rows(rows, target, var))
                                       @ core.basis))
                  for var, T in ((1, T1), (2, T2)))
    return iso, res1, res2


def _product_map(space: GradedPolySpace, target: GradedPolySpace, tols: Tolerances) -> tuple:
    """(rows, (isometry, intertwine_1, intertwine_2)) of :func:`build_V` on
    the d = 1 coordinate pair of ``space``, from the certificates of the
    factor shifts S_i (:func:`_factor_shifts`), at N_i + 1 rows, and the
    factor spaces of the target (:func:`woldlab.space.factor_spaces`),
    Grams Gt_i, at M_i + 1 rows.

    R_i stacks e_i^H G_i L_{S_i}^m for m = 0..M_i, with e_i the kernel of
    S_i*.  The joint kernel is e1 ⊗ e2, and a truncated M_z* has a
    one-dimensional kernel, so the rows are kron(R1, R2): the only
    D-sized work.  The joint core is the product set I1 × I2 of the
    factor cores (the recognizer checks it), so its basis is B1 ⊗ B2 with
    B_i = E_I chol(G_i[I, I])^{-1} (``S_i.core().basis``), the Cholesky
    factor of a Kronecker product being the product of the factors'.

    * Isometry: with Y_i = R_i^H Gt_i R_i and Delta_i = Y_i - G_i the gap
      V^H G_t V - G regroups as Delta1 ⊗ Y2 + G1 ⊗ Delta2, so no two
      large terms cancel.  A probe (B1 ⊗ B2) c, read as the
      (N1+1) x (N2+1) array X = B1 C B2^T, gives
      vec(X)^H vec(Delta1 X Y2^T + G1 X Delta2^T) over 1 + ||x||_G^2.
    * Intertwining: rows T1 - Z1 rows = (R1 S1 - Z R1) ⊗ R2 and the
      target's Cholesky factor is C1 ⊗ C2, so with the whitened norm of a
      Kronecker product the product of the norms,
      intertwine_1 = ||C1^H (R1 S1 - Z R1) B1|| ||C2^H R2 B2||, and
      likewise with the variables exchanged.
    """
    shifts = _factor_shifts(space)
    certs = [certify(S, tols).require_analytic() for S in shifts]
    _check_target_dim(target, certs[0].E.dim * certs[1].E.dim)
    R, B, G, Y, moved, kept = [], [], [], [], [], []
    for S, cert, tf, M in zip(shifts, certs, factor_spaces(target), target.caps):
        r = [cert.E.basis.conj().T @ S.dom.gram]
        for _ in range(M):
            r.append(r[-1] @ cert.L)
        Ri = np.vstack(r)
        Bi = S.core().basis(tols)
        R.append(Ri)
        B.append(Bi)
        G.append(S.dom.gram)
        Y.append(Ri.conj().T @ tf.gram @ Ri)
        moved.append(_norm2(tf.whiten((Ri @ S.matrix - _shift_rows(Ri, tf, 1)) @ Bi)))
        kept.append(_norm2(tf.whiten(Ri @ Bi)))
    rows = np.einsum("mp,nq->mnpq", *R).reshape(target.dim_total, space.dim_total)
    (B1, B2), (G1, G2), (Y1, Y2) = B, G, Y
    X = B1 @ _probes(B1.shape[1] * B2.shape[1]).reshape(-1, B1.shape[1], B2.shape[1]) @ B2.T
    GX = G1 @ X
    nx = np.sum(X.conj() * (GX @ G2.T), axis=(1, 2)).real
    gap = np.sum(X.conj() * ((Y1 - G1) @ X @ Y2.T + GX @ (Y2 - G2).T), axis=(1, 2)).real
    iso = float(np.max(np.abs(gap) / (1.0 + nx)))
    return rows, (iso, moved[0] * kept[1], kept[0] * moved[1])


# ---------------------------------------------------------------------------
# pair decomposition
# ---------------------------------------------------------------------------

@dataclass
class QuadrupleDecomposition:
    """Four-way splitting of a doubly commuting 2-isometric pair."""

    #: the residuals gated at ``tols.decomposition``
    GATED = ("orthogonality", "completeness", "invariance", "kernel_reducing", "E2_leak",
             "unitarity_H00_T1", "unitarity_H00_T2", "unitarity_H01_T1", "unitarity_H10_T2")
    #: the (block, operator) pairs on which the operator must be unitary
    UNITARY = (("H00", "T1"), ("H00", "T2"), ("H01", "T1"), ("H10", "T2"))

    H00: Subspace
    H10: Subspace
    H01: Subspace
    H11: Subspace
    measures: dict
    residuals: dict

    def block_dims(self) -> tuple:
        return (self.H00.dim, self.H10.dim, self.H01.dim, self.H11.dim)

    def compare_measures(self, reference: dict, K: int = 8,
                         tols: Tolerances = DEFAULTS) -> dict:
        """Unitary-equivalence verdicts of the extracted measures against
        reference ones (e.g. the ground truth of a constructed instance)."""
        out = {}
        for name, mu in self.measures.items():
            if name not in reference:
                continue
            cmp = measures_equal_up_to_unitary(reference[name], mu, K=K, tols=tols)
            out[name] = {"equal": cmp.equal, "detail": cmp.detail}
        return out

    def to_json_dict(self, reference_measures: dict = None, K: int = 8,
                     tols: Tolerances = DEFAULTS) -> dict:
        out = {
            "block_dims": list(self.block_dims()),
            "residuals": self.residuals,
            "measures": {k: v.to_json_dict() for k, v in self.measures.items()},
        }
        if reference_measures is not None:
            out["verdicts"] = self.compare_measures(reference_measures, K=K, tols=tols)
        return out


def _kernel_part(Aw: np.ndarray, Ew: np.ndarray, tols: Tolerances) -> tuple:
    """(K_w, leak): the projection P_A E of one subspace onto another, both
    given by orthonormal bases in whitened coordinates, and how far it
    leaks out of E.

    P_A E is spanned by A_w U, U the rank-revealed left singular vectors
    of the coordinates A_w^H E_w, so no SVD has D rows.  When A reduces T
    and E = ker T*, P_A commutes with T*, so P_A E = A ∩ E lies in E and
    the leak, the spectral norm of the part of K_w off E, is zero to
    rounding.
    """
    Kw = Aw @ _euclidean_span(Aw.conj().T @ Ew, tols)
    return Kw, _norm2(Kw - Ew @ (Ew.conj().T @ Kw))


def _product_pair(space: GradedPolySpace, tols: Tolerances) -> QuadrupleDecomposition:
    """:func:`wold_pair` of the d = 1 coordinate pair of ``space``, one
    factor at a time: :func:`wold_single` on M_z over each factor space
    (:func:`_factor_shifts`).  A truncated M_z is nilpotent,
    so a factor with a unitary block is a fault.  :func:`wold_pair` says
    what the blocks, measures and residuals are.
    """
    singles = []
    for shift in _factor_shifts(space):
        single = wold_single(shift, tols)
        if single.H0.dim:
            raise ConvergenceError(
                f"a truncated M_z has a unitary block of dimension {single.H0.dim}"
            )
        singles.append(single)
    w1, w2 = singles
    r1, r2 = w1.residuals, w2.residuals
    trivial = Subspace.trivial(space)
    H11 = Subspace(space, np.kron(w1.H1.basis, w2.H1.basis), tols)
    c1, c2 = r1["completeness"], r2["completeness"]
    residuals = {
        "defect_1": r1["two_isometry_defect"], "defect_2": r2["two_isometry_defect"],
        "commuting": 0.0, "star_commuting": 0.0,
        "orthogonality": max(r1["orthogonality"], r2["orthogonality"]),
        "completeness": c1 + c2 + c1 * c2,
        "dimension_deficit": float(space.dim_total - H11.dim),
        "invariance": max(r1["H1_invariance"], r2["H1_invariance"]),
        **{f"unitarity_{b}_{o}": 0.0 for b, o in QuadrupleDecomposition.UNITARY},
        "kernel_reducing": 0.0, "E2_leak": 0.0,
    }
    worst = max(residuals[k] for k in QuadrupleDecomposition.GATED)
    if H11.dim != space.dim_total or worst > tols.decomposition:
        raise ConvergenceError(
            f"pair decomposition residual {worst:.3e} above tolerance "
            f"(dims (0, 0, 0, {H11.dim}) vs {space.dim_total})"
        )
    measures = {"nu1": CircleMeasure.zero(0), "nu2": CircleMeasure.zero(0),
                "eta1": w1.extracted, "eta2": w2.extracted}
    return QuadrupleDecomposition(H00=trivial, H10=trivial, H01=trivial, H11=H11,
                                  measures=measures, residuals=residuals)


@one_blas_thread
def wold_pair(T1: OperatorModel, T2: OperatorModel, tols: Tolerances = DEFAULTS) -> QuadrupleDecomposition:
    """Wold-type decomposition of a doubly commuting pair of 2-isometries.

    Recovers the four joint-reducing blocks

        H00 (both unitary), H10 (first shifts, second unitary),
        H01 (second shifts, first unitary), H11 (jointly analytic).

    With Ei = ker Ti*, the Wold blocks A1 = [E1]_T1 and A0 = A1^perp of T1
    reduce T2, because the pair doubly commutes, so the four blocks are
    the Wold split of T2 inside each of them.  The projection onto a block
    that reduces T2 commutes with T2*, so the wandering subspace of T2 on
    the block is the projection of E2 onto it:

        K11 = P_A1 E2,  H11 = [K11]_T2,  H10 = A1 ⊖ H11,
        K01 = P_A0 E2,  H01 = [K01]_T2,  H00 = A0 ⊖ H01.

    That is three splits (:func:`_split`), each one pivoted QR of the
    stacked powers of its kernel: A1 and A0 are read from the split of the
    :class:`Certificate` of T1, and A1 and A0 are split by T2 in their own
    coordinates.  Each K is a thin projection of E2 with its rank cut, and
    everything runs in whitened coordinates until the blocks are
    unwhitened.  How far K11 and K01 leak
    out of E2 is the residual ``E2_leak``: zero when the blocks of T1
    reduce T2.

    Every check reads the whitened operators T_w, where T* is T_w^H, so
    neither T* nor a restricted operator is built.  The pair must doubly
    commute on its joint core (:func:`doubly_commuting_residual`).  The
    blocks' orthogonality, completeness, invariance and the unitarity that
    each block requires (which with invariance certifies H00) are read
    from their whitened bases (:func:`_block_residuals`).  The
    kernel-reducing identities check that ker Ti* is invariant under Tj
    and Tj* on the joint core.  Then the classifying measures nu1, nu2
    (single-shift blocks) and eta1, eta2 (jointly analytic block,
    compressed to the joint kernel E = E1 ∩ E2) are extracted.  Each is
    read from the orbit moments of a kernel under an ambient whitened
    operator (:func:`_orbit_measure`): nu1 from P_H10 E1 under T1, nu2
    from K01 under T2 (the powers that split A0), and eta1, eta2 from E
    under T1 and T2.  No restriction is certified.

    A d = 1 coordinate pair takes a product route instead
    (:func:`_product_pair`).  The route is chosen from the input alone
    (:func:`_coordinate_pair_space`): one graded space with d = 1 and both
    caps at least 1, matrices equal to its coordinate shifts, and the
    graded cores of variables 1 and 2.  The space is D(mu1) ⊗ D(mu2) and
    the pair is (M_z ⊗ I, I ⊗ M_z), so the decomposition is the product of
    two :func:`wold_single` calls on M_z over the factor spaces, at
    N_i + 1 rows, and no factorization has D rows.  H11 is spanned by the
    Kronecker product of the factor orbits and is still gated as a
    :class:`Subspace` against the assembled Gram; the other blocks are
    trivial, nu1 and nu2 are zero of dimension 0, and eta1, eta2 are the
    factors' measures.  Its residuals are read from the factors:
    ``defect_i`` is the defect of factor i, equal to the dense one in
    exact arithmetic because the var-i core is a product set;
    ``completeness`` is c1 + c2 + c1 c2, an upper bound on
    ||Q^H Q - I|| for Q = Q1 ⊗ Q2; ``orthogonality`` and ``invariance``
    are the larger of the factors' values; the unitarity entries are 0,
    their blocks being empty, as on the dense route.  Four are exact
    zeros: M_z ⊗ I and I ⊗ M_z commute and doubly commute exactly
    (``commuting``, ``star_commuting``), and ker(M_z* ⊗ I) =
    ker M_z* ⊗ C^{N2+1} reduces I ⊗ M_z exactly, and likewise with the
    variables exchanged (``kernel_reducing``, ``E2_leak``).  Every other
    pair, scrambled, a direct sum or d > 1, takes the dense route.
    """
    amb = T1.dom
    if T2.dom.dim_total != amb.dim_total:
        raise ValueError("operators act on different spaces")
    space = _coordinate_pair_space(T1, T2)
    if space is not None:
        return _product_pair(space, tols)
    cert1, cert2 = certify(T1, tols), certify(T2, tols)
    core = joint_core(T1, T2, None, tols)
    c1, c2 = doubly_commuting_residual(T1, T2, tols=tols, core=core)
    if max(c1, c2) > tols.doubly_commuting:
        raise AssumptionError(
            f"pair is not doubly commuting within tolerance ({c1:.3e}, {c2:.3e})"
        )
    residuals = {
        "defect_1": cert1.defect, "defect_2": cert2.defect,
        "commuting": float(c1), "star_commuting": float(c2),
    }

    T1w, T2w = T1.whitened, T2.whitened
    E1, E2 = cert1.E, cert2.E
    E = subspace_intersect(E1, E2, tols)
    A1w, A0w, _ = cert1.split
    E1w, E2w = amb.whiten(E1.basis), amb.whiten(E2.basis)
    K11w, leak11 = _kernel_part(A1w, E2w, tols)
    K01w, leak01 = _kernel_part(A0w, E2w, tols)
    H11w, H10w, _ = _split(T2w, K11w, tols, A1w)
    H01w, H00w, powers01 = _split(T2w, K01w, tols, A0w)
    blocks_w = {"H00": H00w, "H10": H10w, "H01": H01w, "H11": H11w}
    blocks = {name: Subspace(amb, amb.unwhiten(Bw), tols) for name, Bw in blocks_w.items()}

    ortho, complete, leaks, unitarity = _block_residuals(
        blocks_w, {"T1": T1w, "T2": T2w}, QuadrupleDecomposition.UNITARY)
    residuals.update(orthogonality=ortho, completeness=complete)
    total_dim = sum(S.dim for S in blocks.values())
    residuals["dimension_deficit"] = float(amb.dim_total - total_dim)
    residuals["invariance"] = max(leaks.values())
    for bname, oname in QuadrupleDecomposition.UNITARY:
        residuals[f"unitarity_{bname}_{oname}"] = unitarity[bname, oname]

    # kernel-reducing checks: ker T_i* is invariant under T_j and T_j*.
    # T* is only trustworthy on the safe core, so test kernel
    # vectors inside the joint core and measure the leak out of the kernel.
    lemma_a = 0.0
    for Ei, Eiw, Tjw in ((E1, E1w, T2w), (E2, E2w, T1w)):
        Xw = amb.whiten(subspace_intersect(Ei, core, tols).basis)
        for M in (Tjw, Tjw.conj().T):
            image = M @ Xw
            lemma_a = max(lemma_a, _norm2(image - Eiw @ (Eiw.conj().T @ image)))
    residuals["kernel_reducing"] = lemma_a
    # the parts of E2 in the blocks of T1 stay in E2 when the blocks reduce T2
    residuals["E2_leak"] = max(leak11, leak01)

    worst = max(residuals[k] for k in QuadrupleDecomposition.GATED)
    if total_dim != amb.dim_total or worst > tols.decomposition:
        raise ConvergenceError(
            f"pair decomposition residual {worst:.3e} above tolerance "
            f"(dims {tuple(S.dim for S in blocks.values())} vs {amb.dim_total})"
        )

    # each measure's kernel and operator, in ambient whitened coordinates;
    # nu2 reads the powers of K01 that split A0
    Ew = amb.whiten(E.basis)
    kernels = {
        "nu1": (T1w, _kernel_part(H10w, E1w, tols)[0]),
        "nu2": (T2w, K01w),
        "eta1": (T1w, Ew),
        "eta2": (T2w, Ew),
    }
    measures = {name: _orbit_measure(powers01 if name == "nu2" else _powers(Tw, Kw, tols), tols)
                for name, (Tw, Kw) in kernels.items()}

    return QuadrupleDecomposition(**blocks, measures=measures, residuals=residuals)


@one_blas_thread
def slocinski(V1: OperatorModel, V2: OperatorModel, tols: Tolerances = DEFAULTS) -> QuadrupleDecomposition:
    """Four-way decomposition of a doubly commuting pair of isometries.

    Delegates to the 2-isometric pair decomposition and certifies that
    the extracted measures vanish: isometries have trivial defects, so
    every shift part is an unweighted unilateral shift.  Each operator is
    first gated as an isometry, ||V*V - I|| on its safe core at most
    ``tols.isometry``.  On a d = 1 coordinate pair
    (:func:`_coordinate_pair_space`) the gate reads the factor shifts
    (:func:`_factor_shifts`): the defect form of V1 is F_S1 ⊗ G2, and its
    compression to the var-1 core, a product set, has the norm of F_S1 on
    the core of S1, so no D x D defect form is built.
    """
    space = _coordinate_pair_space(V1, V2)
    for idx, V in enumerate((V1, V2) if space is None else _factor_shifts(space), start=1):
        res = unitarity_residual(V, margin=None, tols=tols)
        if res > tols.isometry:
            raise AssumptionError(
                f"operator {idx} is not an isometry (||V*V - I|| = {res:.3e})"
            )
    quad = wold_pair(V1, V2, tols=tols)
    for name, mu in quad.measures.items():
        mass = float(np.linalg.norm(mu.total_mass)) if mu.dim else 0.0
        quad.residuals[f"mass_{name}"] = mass
        if mass > tols.isometric_mass:
            raise AssumptionError(
                f"extracted measure {name} has mass {mass:.3e}; input was not isometric"
            )
    return quad


# ---------------------------------------------------------------------------
# measure comparison up to unitary
# ---------------------------------------------------------------------------

class MeasureComparison(NamedTuple):
    equal: Optional[bool]           # None = inconclusive
    unitary: Optional[np.ndarray]
    detail: str


def _generic_weights(K: int) -> np.ndarray:
    """Two fixed complex weight rows over n = -K..K, each of l1 norm 1.

    Row 0 puts the real weight 2/3 on n = 0, so an atom at theta enters
    H = C + C^H with the factor 2 Re sum_n w_n e^{-in theta} >= 2/3: no
    change of a weight cancels out of H.
    """
    w = np.random.default_rng(8).standard_normal((2, 2 * K + 1, 2)) @ [1, 1j]
    w /= np.abs(w).sum(axis=1, keepdims=True)
    w[0] /= 3
    w[0, K] += 2 / 3
    return w


def _align_clusters(A: np.ndarray, B: np.ndarray, clusters: list, thr: float) -> np.ndarray:
    """Unitary D, one block per cluster, with D^H A D ~ B.

    With F the clusters fixed so far, a cluster j must satisfy
    A[F,j] D_j = D_F B[F,j] and D_j B[j,F] = A[j,F] D_F.  The least-squares
    D_j is the unitary polar factor of
    M_j = A[F,j]^H D_F B[F,j] + A[j,F] D_F B[j,F]^H, unique when M_j is
    invertible.  The cluster whose sqrt(sigma_min(M_j)) is largest is fixed
    next.  When none is above ``thr``, the smallest cluster left roots a new
    component.  A multi-index root must also satisfy
    D_j^H herm(A[j,j]) D_j = herm(B[j,j]), so it is first split by the
    eigenbases of these Hermitian parts, cut where both spectra have a gap
    above ``thr``; D then carries those eigenbases.  A root that does
    not split is fixed with the identity.
    """
    A, B = A.copy(), B.copy()
    d = A.shape[0]
    Pa, Pb = np.eye(d, dtype=complex), np.eye(d, dtype=complex)
    D = np.zeros_like(A)
    F = np.zeros(0, dtype=int)
    todo = list(clusters)
    while todo:
        DF = D[np.ix_(F, F)]
        M = [A[np.ix_(F, j)].conj().T @ DF @ B[np.ix_(F, j)]
             + A[np.ix_(j, F)] @ DF @ B[np.ix_(j, F)].conj().T for j in todo]
        s = [np.sqrt(np.linalg.svd(m, compute_uv=False)[-1]) for m in M]
        k = int(np.argmax(s))
        if s[k] > thr:
            W, _, Zh = np.linalg.svd(M[k])
            Dj = W @ Zh
        else:
            k = int(np.argmin([len(j) for j in todo]))
            j = todo[k]
            if len(j) > 1:
                (la, Qa), (lb, Qb) = (np.linalg.eigh((X[np.ix_(j, j)] + X[np.ix_(j, j)].conj().T) / 2)
                                      for X in (A, B))
                cuts = np.flatnonzero(np.minimum(np.diff(la), np.diff(lb)) > thr) + 1
                if cuts.size:
                    for X, P, Q in ((A, Pa, Qa), (B, Pb, Qb)):
                        X[:, j] = X[:, j] @ Q
                        X[j, :] = Q.conj().T @ X[j, :]
                        P[:, j] = P[:, j] @ Q
                    todo[k:k + 1] = np.split(j, cuts)
                    continue
            Dj = np.eye(len(todo[k]))
        j = todo.pop(k)
        D[np.ix_(j, j)] = Dj
        F = np.concatenate([F, j])
    return Pa @ D @ Pb.conj().T


@one_blas_thread
def measures_equal_up_to_unitary(a: CircleMeasure, b: CircleMeasure, K: int = 8,
                                 tols: Tolerances = DEFAULTS) -> MeasureComparison:
    """Decide whether b(sigma) = U^H a(sigma) U for some unitary U.

    Fixed generic weights give C = sum_{|n| <= K} w_n mu_hat(n) and the
    Hermitian H = C + C^H of each measure.  If b = U^H a U then
    H_b = U^H H_a U, so different spectra prove ``False``.  Otherwise a
    second generic combination, written in the two eigenbases of H, fixes
    one unitary per eigenvalue cluster (:func:`_align_clusters`), and the
    candidate U = V_a D V_b^H is checked on every coefficient |n| <= K:

    * ``True``: U aligns every coefficient to ``tols.measure_match``;
    * ``False``: the spectra differ, or every cluster is simple, so the
      alignment was unique, and it fails;
    * ``None``: a repeated eigenvalue left the alignment free, and the
      choice made does not align.

    Every threshold is ``tols.measure_match`` times 2d: an entrywise error
    of that size in each coefficient moves the eigenvalues and entries of
    these combinations (of l1 norm 1) by at most that much.
    """
    if a.dim != b.dim:
        raise ValueError("measures have different coefficient dimensions")
    d = a.dim
    if d == 0:
        return MeasureComparison(True, np.zeros((0, 0)), "trivial coefficient space")
    ta, tb = fourier_coefficients(a, K), fourier_coefficients(b, K)
    w = _generic_weights(K)
    Ca, Cb = np.tensordot(w, ta, axes=1), np.tensordot(w, tb, axes=1)
    (la, Va), (lb, Vb) = (np.linalg.eigh(C[0] + C[0].conj().T) for C in (Ca, Cb))
    thr = 2 * d * tols.measure_match
    gap = float(np.max(np.abs(la - lb)))
    if gap > thr:
        return MeasureComparison(False, None, f"generic combinations differ in spectrum ({gap:.2e})")
    cuts = np.flatnonzero(np.minimum(np.diff(la), np.diff(lb)) > thr) + 1
    clusters = np.split(np.arange(d), cuts)
    D = _align_clusters(Va.conj().T @ Ca[1] @ Va, Vb.conj().T @ Cb[1] @ Vb, clusters, thr)
    U = Va @ D @ Vb.conj().T
    err = float(np.max(np.abs(U.conj().T @ ta @ U - tb)))
    if err <= tols.measure_match:
        return MeasureComparison(True, U, f"aligned with explicit unitary ({err:.2e})")
    if len(clusters) == d:
        return MeasureComparison(False, None, f"the unique alignment fails ({err:.2e})")
    return MeasureComparison(None, None,
                             f"inconclusive: repeated eigenvalue, alignment residual {err:.2e}")
