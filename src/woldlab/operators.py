"""Gram-aware operator calculus on finite truncations.

Operators are plain matrices acting on coefficient vectors, but every
norm, T*, projection and rank decision is taken in the geometry of the
ambient Gram matrix.  Identity checks on graded truncations are
restricted to a *safe core* of bidegrees a few steps below the caps: the
truncation corrupts only the action near the top degrees, and all
structural statements hold exactly (to rounding) on the core.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .config import DEFAULTS, DEFAULT_CORE_MARGIN, Tolerances
from .errors import AssumptionError, ConvergenceError
from .space import GradedPolySpace, HilbertSpace


# ---------------------------------------------------------------------------
# rank-revealing orthonormalization
# ---------------------------------------------------------------------------

def orthonormal_columns(space: HilbertSpace, X: np.ndarray, tols: Tolerances = DEFAULTS) -> np.ndarray:
    """Gram-orthonormal basis of the column span of X.

    Singular values below ``rank_rtol * sigma_max`` or below the absolute
    floor ``rank_floor`` are treated as zero.  The floor matters when X is
    entirely noise (e.g. the image of a nilpotent power applied to a unit
    basis): a purely relative cut would keep junk directions.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] == 0:
        return np.zeros((space.dim_total, 0), dtype=complex)
    return space.unwhiten(_euclidean_span(space.whiten(X), tols))


def _euclidean_span(X: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Orthonormal basis of the column span of X in Euclidean coordinates,
    cut at :func:`_numerical_rank`."""
    if X.size == 0:
        return np.zeros((X.shape[0], 0), dtype=complex)
    U, s = _robust_svd(X)
    return U[:, :_numerical_rank(s, tols)]


def _numerical_rank(s: np.ndarray, tols: Tolerances) -> int:
    """Number of the values ``s`` above the rank cut, read relative to
    ``s[0]``: descending singular values, or the diagonal magnitudes
    |R_ii| of a column-pivoted QR, which do not increase."""
    if s.size == 0:
        return 0
    return int(np.sum(s > _rank_cut(s[0], tols)))


def _rank_cut(top: float, tols: Tolerances) -> float:
    """The value a singular value must exceed to count as rank when the
    largest one is ``top``."""
    return max(tols.rank_rtol * top, tols.rank_floor)


def _robust_svd(W: np.ndarray):
    """Thin left singular vectors and values; falls back to the slower
    QR-based LAPACK driver when divide-and-conquer fails to converge."""
    try:
        U, s, _ = np.linalg.svd(W, full_matrices=False)
    except np.linalg.LinAlgError:
        U, s, _ = sla.svd(W, full_matrices=False, lapack_driver="gesvd")
    return U, s


def _pivoted_qr(V: np.ndarray, tols: Tolerances) -> tuple:
    """(Q, r): the complete Q factor of a column-pivoted QR of V
    (Businger-Golub) and the numerical rank r of V, read from |diag R| by
    :func:`_numerical_rank`.  Q[:, :r] spans the range of V and Q[:, r:]
    its orthogonal complement.  Pivoting puts the largest remaining column
    first at every step, so |R_11| is the largest column norm and the
    diagonal does not increase; a V with no rows or no columns has rank 0
    and Q = I."""
    n = V.shape[0]
    if V.size == 0:
        return np.eye(n, dtype=complex), 0
    Q, R, _ = sla.qr(V, mode="full", pivoting=True)
    return Q, _numerical_rank(np.abs(np.diagonal(R)), tols)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of an ambient space, held as a Gram-orthonormal basis.

    The basis is checked on construction: B^H G B must equal the identity
    entrywise to within ``tols.orthonormal``.
    """

    def __init__(self, ambient: HilbertSpace, basis: np.ndarray, tols: Tolerances = DEFAULTS):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.shape[0] != ambient.dim_total:
            raise ValueError("basis rows must match the ambient dimension")
        self.ambient = ambient
        self.basis = basis
        if basis.shape[1]:
            gram_err = np.max(np.abs(basis.conj().T @ ambient.gram @ basis - np.eye(basis.shape[1])))
            if gram_err > tols.orthonormal:
                raise ValueError(f"basis is not Gram-orthonormal (deviation {gram_err:.2e})")

    @classmethod
    def from_columns(cls, ambient: HilbertSpace, X: np.ndarray, tols: Tolerances = DEFAULTS) -> "Subspace":
        return cls(ambient, orthonormal_columns(ambient, X, tols), tols)

    @classmethod
    def trivial(cls, ambient: HilbertSpace) -> "Subspace":
        return cls(ambient, np.zeros((ambient.dim_total, 0), dtype=complex))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Matrix of the Gram-orthogonal projection onto the subspace."""
        return self.basis @ (self.basis.conj().T @ self.ambient.gram)

    def distance(self, other: "Subspace") -> float:
        """Spectral-norm distance of the two Gram-orthogonal projectors."""
        L = self.ambient.chol
        diff = self.projector() - other.projector()
        # whitened operator L^H diff L^{-H}
        right = sla.solve_triangular(L, diff.conj().T, lower=True).conj().T
        return float(np.linalg.norm(L.conj().T @ right, 2))


def _whitened_operator(T: OperatorModel) -> np.ndarray:
    """T_w = L_codom^H T L_dom^{-H}, the matrix of T in whitened coordinates
    x_w = L^H x, where the Gram inner product is Euclidean: one product and
    one triangular solve.  Between identity-Gram spaces both are exact, so
    T_w equals T.  Read it through the memo :attr:`OperatorModel.whitened`."""
    return sla.solve_triangular(T.dom.chol, T.codom.whiten(T.matrix).conj().T, lower=True).conj().T


def _principal_pairs(A: np.ndarray, B: np.ndarray, gram: np.ndarray, tols: Tolerances) -> tuple:
    """(U, s, V): the principal vector pairs A U[:, i], B V[:, i] of two
    Gram-orthonormal bases whose cosine s[i] exceeds 1 - intersection_tol,
    from the thin SVD of the cross-Gram A^H G B."""
    if min(A.shape[1], B.shape[1]) == 0:
        return (np.zeros((A.shape[1], 0), dtype=complex), np.zeros(0),
                np.zeros((B.shape[1], 0), dtype=complex))
    U, s, Vh = np.linalg.svd(A.conj().T @ (gram @ B), full_matrices=False)
    sel = s > 1 - tols.intersection
    return U[:, sel], s[sel], Vh[sel].conj().T


def subspace_intersect(A: Subspace, B: Subspace, tols: Tolerances = DEFAULTS) -> Subspace:
    """Intersection as the span of the (near-)zero principal angles.

    The directions whose cosine exceeds 1 - intersection_tol lie in both
    subspaces.  P_A + P_B has eigenvalues 1 +- cos, so this is the cut
    2 - intersection_tol on its spectrum, and the basis returned is that
    spectrum's eigenvectors (A u + B v) / sqrt(2 (1 + cos)), Gram-orthonormal
    by construction.
    """
    if A.ambient is not B.ambient and A.ambient.gram.shape != B.ambient.gram.shape:
        raise ValueError("subspaces live in different ambient spaces")
    amb = A.ambient
    U, s, V = _principal_pairs(A.basis, B.basis, amb.gram, tols)
    return Subspace(amb, (A.basis @ U + B.basis @ V) / np.sqrt(2 * (1 + s)), tols)


# ---------------------------------------------------------------------------
# safe cores
# ---------------------------------------------------------------------------

class Core:
    """A safe core held by its structure rather than by a basis.

    ``columns()`` spans the core (not necessarily orthonormal);
    ``basis()`` is a Gram-orthonormal basis of it in ``space``.  The kinds:

    * :class:`IndexCore`: coordinate vectors of the space an operator was
      built in, e.g. bidegrees below the caps, carried along by direct
      sums and scrambles;
    * :class:`SpanCore`: the columns of a matrix, e.g. an opaque ``core_fn``.

    Coordinate cores of one construction intersect by index
    (:func:`core_intersection`); nothing is cached.
    """

    def __init__(self, space: HilbertSpace):
        self.space = space

    def subspace(self, tols: Tolerances = DEFAULTS) -> Subspace:
        return Subspace(self.space, self.basis(tols), tols)


class IndexCore(Core):
    """The coordinate vectors ``index`` of ``frame``, the space the operator
    was built in (default ``space``), carried into ``space`` by the unitary
    ``transform`` of a scramble (space Gram transform G_frame transform^H).
    In ``frame`` its Gram-orthonormal basis is E_I R^{-1} with
    R^H R = G[I, I]: a Cholesky factorization of a positive definite block,
    so no rank decision, and exactly E_I on an identity Gram; the transform
    keeps it Gram-orthonormal."""

    def __init__(self, space: HilbertSpace, index, frame: HilbertSpace = None,
                 transform: np.ndarray = None):
        super().__init__(space)
        self.index = np.asarray(index, dtype=int)
        self.frame = space if frame is None else frame
        self.transform = transform

    def columns(self) -> np.ndarray:
        if self.transform is not None:
            return self.transform[:, self.index]
        return np.eye(self.frame.dim_total, dtype=complex)[:, self.index]

    def basis(self, tols: Tolerances = DEFAULTS) -> np.ndarray:
        I, frame = self.index, self.frame
        B = np.zeros((frame.dim_total, I.size), dtype=complex)
        if I.size:
            R = sla.cholesky(frame.gram[np.ix_(I, I)], lower=False)
            B[I] = sla.solve_triangular(R, np.eye(I.size), lower=False)
        return B if self.transform is None else self.transform @ B


class SpanCore(Core):
    """The span of the columns of X, orthonormalized (rank-revealing) on
    each use unless it is ``orthonormal`` already."""

    def __init__(self, space: HilbertSpace, X: np.ndarray, orthonormal: bool = False):
        super().__init__(space)
        self.X = X
        self.orthonormal = orthonormal

    def columns(self) -> np.ndarray:
        return self.X

    def basis(self, tols: Tolerances = DEFAULTS) -> np.ndarray:
        return self.X if self.orthonormal else orthonormal_columns(self.space, self.X, tols)


def _matrix_core(space: HilbertSpace, X) -> Core:
    """The core spanned by the columns of X: the coordinate core of the
    rows they hit when each column has exactly one nonzero entry, else the
    span itself."""
    X = np.asarray(X)
    hits = X != 0
    if X.ndim == 2 and np.all(hits.sum(axis=0) == 1):
        return IndexCore(space, np.unique(hits.argmax(axis=0)))
    return SpanCore(space, X)


def direct_sum_core_fn(ops, space: HilbertSpace):
    """``core_fn`` of the direct sum of ``ops`` on ``space``.

    The Gram is block diagonal, so coordinate cores of the summands are
    one coordinate core of the offset indices.  Any other summand core
    makes the sum the span of the stacked summand frames, orthonormalized
    at the caller's tolerances.
    """
    offsets = np.cumsum([0] + [op.dom.dim_total for op in ops[:-1]])

    def core(margin: int) -> Core:
        parts = [op.core(margin) for op in ops]
        if all(isinstance(c, IndexCore) and c.transform is None for c in parts):
            return IndexCore(space, np.concatenate([off + c.index for off, c in zip(offsets, parts)]))
        return SpanCore(space, sla.block_diag(*[c.columns() for c in parts]))
    return core


def scrambled_core_fns(ops, Wh: np.ndarray, space: HilbertSpace) -> list:
    """``core_fn`` of each of ``ops`` conjugated onto ``space`` (Gram
    Wh G W) by one unitary W.

    A coordinate core keeps its index and frame, with Wh composed onto its
    transform once per call, so cores of operators scrambled together
    share the transform object and intersect by index.  A span X maps to
    Wh X.
    """
    composed = {}

    def transform(inner):
        if inner is None:
            return Wh
        if id(inner) not in composed:
            composed[id(inner)] = (inner, Wh @ inner)  # holds inner, so its id stays unique
        return composed[id(inner)][1]

    def core_fn(op):
        def core(margin: int) -> Core:
            c = op.core(margin)
            if isinstance(c, IndexCore):
                return IndexCore(space, c.index, c.frame, transform(c.transform))
            return SpanCore(space, Wh @ c.X, c.orthonormal)
        return core

    return [core_fn(op) for op in ops]


def core_intersection(a: Core, b: Core, tols: Tolerances = DEFAULTS) -> Core:
    """a ∩ b: by index for coordinate cores of the same frame under the
    same transform object (the operators of a direct sum or of a pair
    scramble share both), by principal angles (:func:`subspace_intersect`)
    otherwise."""
    if (isinstance(a, IndexCore) and isinstance(b, IndexCore) and a.frame is b.frame
            and a.transform is b.transform):
        return IndexCore(a.space, np.intersect1d(a.index, b.index), a.frame, a.transform)
    inter = subspace_intersect(a.subspace(tols), b.subspace(tols), tols)
    return SpanCore(a.space, inter.basis, orthonormal=True)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class OperatorModel:
    """A linear map between coefficient spaces, with safe-core metadata.

    Parameters
    ----------
    dom, codom : HilbertSpace
        Domain and codomain (usually the same space).
    matrix : ndarray
        Coefficient matrix, shape (codom dim, dom dim).
    core_fn : callable, optional
        margin -> the domain subspace on which the operator reproduces its
        untruncated counterpart exactly, as a :class:`Core` or as a matrix
        whose columns span it (a coordinate core when each column has one
        nonzero entry).  Graded shifts install an index core here;
        direct sums and scrambles propagate it.  ``None`` means the
        coordinate core of a graded domain, else the whole domain.

    The matrix is a read-only copy, so the certificates that
    :func:`woldlab.decomp.certify` memoizes in ``certificates`` and the
    whitened matrix memoized in ``whitened`` stay valid.
    """

    def __init__(self, dom: HilbertSpace, codom: HilbertSpace, matrix: np.ndarray,
                 core_fn=None, info: dict = None):
        matrix = np.array(matrix, dtype=complex)
        matrix.flags.writeable = False
        if matrix.shape != (codom.dim_total, dom.dim_total):
            raise ValueError(
                f"matrix shape {matrix.shape} does not map dom ({dom.dim_total}) "
                f"into codom ({codom.dim_total})"
            )
        self.dom = dom
        self.codom = codom
        self.matrix = matrix
        self.core_fn = core_fn
        self.info = info or {}
        self.certificates = {}

    # -- basics ---------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.dom.dim_total == self.codom.dim_total

    @cached_property
    def whitened(self) -> np.ndarray:
        """T_w = L^H T L^{-H} (:func:`_whitened_operator`), read-only,
        computed on first read.  In these coordinates the Gram inner product
        is Euclidean, so T* is T_w^H."""
        Tw = _whitened_operator(self)
        Tw.flags.writeable = False
        return Tw

    # -- safe core --------------------------------------------------------

    def core(self, margin: int = None) -> Core:
        """The safe core at ``margin`` (default ``DEFAULT_CORE_MARGIN``)."""
        margin = DEFAULT_CORE_MARGIN if margin is None else margin
        if self.core_fn is not None:
            core = self.core_fn(margin)
            return core if isinstance(core, Core) else _matrix_core(self.dom, core)
        if isinstance(self.dom, GradedPolySpace):
            return IndexCore(self.dom, self.dom.core_indices(margin))
        return IndexCore(self.dom, np.arange(self.dom.dim_total))

    def core_basis(self, margin: int = None) -> np.ndarray:
        """Basis (not necessarily orthonormal) of the safe core at ``margin``."""
        return self.core(margin).columns()

    def core_subspace(self, margin: int = None, tols: Tolerances = DEFAULTS) -> Subspace:
        return self.core(margin).subspace(tols)


def joint_core(T1: OperatorModel, T2: OperatorModel, margin: int = None,
               tols: Tolerances = DEFAULTS) -> Subspace:
    """Intersection of the two operators' safe cores (as a subspace)."""
    return core_intersection(T1.core(margin), T2.core(margin), tols).subspace(tols)


def _norm2(X: np.ndarray) -> float:
    """Spectral norm of X, 0 when X is empty."""
    return float(np.linalg.norm(X, 2)) if X.size else 0.0


# ---------------------------------------------------------------------------
# 2-isometry checkers
# ---------------------------------------------------------------------------

def _defect_form(T: OperatorModel) -> np.ndarray:
    """F = T^H G T - G, the Gram form of T*T - I: <F x, y> = <Tx, Ty> - <x, y>.

    Every defect is read from it: T*T - I itself, the 2-isometry defect
    T^H F T - F and the mixed defect of a commuting pair.
    """
    G = T.dom.gram
    return T.matrix.conj().T @ G @ T.matrix - G


def _core_norm(T: OperatorModel, F: np.ndarray, margin: int, tols: Tolerances) -> float:
    """Spectral norm of the Hermitian form F compressed to T's safe core."""
    B = T.core(margin).basis(tols)
    FB = B.conj().T @ F @ B
    if FB.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh((FB + FB.conj().T) / 2))))


def two_isometry_defect(T: OperatorModel, tols: Tolerances = DEFAULTS) -> float:
    """Operator norm of T*^2 T^2 - 2 T*T + I compressed to the safe core.

    The form is T^H F T - F with F = T^H G T - G, a pairing of Gram
    pairings <T^k x, T^k y>, so no truncated T* enters; for graded
    model shifts the value is zero to rounding because the min-degree
    weights telescope.
    """
    if not T.is_square:
        raise ValueError("two_isometry_defect needs a square operator")
    F = _defect_form(T)
    return _core_norm(T, T.matrix.conj().T @ F @ T.matrix - F, None, tols)


def doubly_commuting_residual(T1: OperatorModel, T2: OperatorModel,
                              tols: Tolerances = DEFAULTS, core: Subspace = None) -> tuple:
    """(||T1 T2 - T2 T1||, ||T1* T2 - T2 T1*||) on the joint safe core.

    Both are read in whitened coordinates, where T* is T_w^H: with C_w the
    whitened core basis, the norms of (T1_w T2_w - T2_w T1_w) C_w and
    (T1_w^H T2_w - T2_w T1_w^H) C_w, applied to C_w one factor at a time,
    so neither T* nor a D x D product is formed.  A caller that already
    holds the joint core passes it in as ``core``.
    """
    if T1.dom.dim_total != T2.dom.dim_total:
        raise ValueError("operators act on different spaces")
    if core is None:
        core = joint_core(T1, T2, tols=tols)
    Cw = T1.dom.whiten(core.basis)
    A, As, B = T1.whitened, T1.whitened.conj().T, T2.whitened
    BC = B @ Cw
    return _norm2(A @ BC - B @ (A @ Cw)), _norm2(As @ BC - B @ (As @ Cw))


def left_inverse(T: OperatorModel, tols: Tolerances = DEFAULTS) -> OperatorModel:
    """Left inverse L = (T*T)^{-1} T* realized on the safe core.

    The truncated shift annihilates the top bidegree, so a plain
    pseudo-inverse would route preimages through that artificial kernel.
    Constraining preimages to the margin-1 core removes the ambiguity:
    L T = I holds on the core and L reproduces the untruncated left
    inverse there exactly.  No singular value is cut as rank: all are
    inverted, and sigma_max / sigma_min is gated at ``condition_max``.
    """
    if not T.is_square:
        raise ValueError("left_inverse needs a square operator")
    E = T.core_basis(1)
    TEw = T.codom.whiten(T.matrix @ E)
    U, s, Vh = np.linalg.svd(TEw, full_matrices=False)
    if s.size == 0 or s[0] <= tols.rank_floor:
        raise AssumptionError("operator has (numerically) trivial range on its core")
    if s[0] > tols.condition_max * s[-1]:  # also when sigma_min = 0, with no division
        raise ConvergenceError(f"left inverse is ill conditioned (sigma {s[0]:.2e} / {s[-1]:.2e})")
    cond = float(s[0] / s[-1])
    pinv = (Vh.conj().T / s) @ U.conj().T
    mat = E @ pinv @ T.codom.chol.conj().T
    return OperatorModel(T.codom, T.dom, mat, core_fn=T.core_fn, info={"condition": cond})


def wandering_subspace(T: OperatorModel, tols: Tolerances = DEFAULTS) -> Subspace:
    """E = ker T* = ran(T)-perp, the wandering subspace of T.

    One complete column-pivoted QR of the whitened matrix L^H T
    (:func:`_pivoted_qr`): its Q columns past the rank k, cut at
    :func:`_numerical_rank` of |diag R|, unwhiten to a Gram-orthonormal
    basis of E (the leading k span ran T).  No SVD is taken, and T is not
    whitened on its domain side.  It does not depend on any safe-core
    choice.
    """
    sp = T.codom
    Q, k = _pivoted_qr(sp.whiten(T.matrix), tols)
    return Subspace(sp, sp.unwhiten(Q[:, k:]), tols)


def range_complement_projection(T: OperatorModel, tols: Tolerances = DEFAULTS) -> tuple:
    """(P matrix, E): Gram projection onto ker T* = ran(T)-perp, with range,
    from :func:`wandering_subspace`; P = E E^H G satisfies G P = P^H G and
    P^2 = P up to rounding."""
    E = wandering_subspace(T, tols)
    return E.projector(), E


def _psd_rank_mask(lam: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Which eigenvalues of a PSD form count as rank: those above
    ``rank_rtol`` times the largest and ``two_isometry`` times the largest
    (at least 1), the band in which certify accepts a defect, so that no
    eigensolver noise is kept as rank."""
    top = float(lam.max(initial=0.0))
    return lam > max(tols.rank_rtol * top, tols.two_isometry * max(1.0, top))


def defect_operator(T: OperatorModel, tols: Tolerances = DEFAULTS) -> tuple:
    """(D, Dspace): PSD square root of T*T - I on the safe core.

    The quadratic form of T*T - I is evaluated exactly as
    <Tx, Ty> - <x, y> on the margin-1 core, then diagonalized there.
    Eigenvalues in [-two_isometry_tol, 0) are clamped; anything more
    negative disqualifies T as a 2-isometry candidate.  The band is the
    one at which :func:`woldlab.decomp.certify` accepts T, so an operator
    it certified is never rejected here.  It is symmetric: the rank of D
    is cut by :func:`_psd_rank_mask`.  D acts as zero on the core
    complement.
    """
    if not T.is_square:
        raise ValueError("defect_operator needs a square operator")
    G = T.dom.gram
    B = T.core(1).basis(tols)
    FB = B.conj().T @ _defect_form(T) @ B
    FB = (FB + FB.conj().T) / 2
    if FB.size == 0:
        lam = np.zeros(0)
        V = np.zeros((0, 0))
    else:
        lam, V = np.linalg.eigh(FB)
    lam_scale = max(1.0, float(lam.max(initial=0.0)))
    if lam.size and lam.min() < -tols.two_isometry * lam_scale:
        raise AssumptionError(
            f"T*T - I has eigenvalue {lam.min():.3e} below -two_isometry_tol; "
            "not a 2-isometry candidate"
        )
    lam = np.clip(lam, 0.0, None)
    keep = _psd_rank_mask(lam, tols)
    lam = np.where(keep, lam, 0.0)
    roots = np.sqrt(lam)
    DB = (V * roots) @ V.conj().T
    Dmat = B @ DB @ B.conj().T @ G
    Dspace = Subspace(T.dom, B @ V[:, keep], tols)
    D = OperatorModel(T.dom, T.dom, Dmat, info={"rank": int(keep.sum())})
    return D, Dspace


def unitarity_residual(T: OperatorModel, margin: int = 0, tols: Tolerances = DEFAULTS) -> float:
    """||T*T - I|| on the core: 0 for unitaries and isometries."""
    return _core_norm(T, _defect_form(T), margin, tols)
