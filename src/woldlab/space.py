"""Truncated Dirichlet-type spaces over the bidisc as explicit Gram matrices.

The space of coefficient-valued polynomials sum a_{m,n} z1^m z2^n with
0 <= m <= N1, 0 <= n <= N2 carries the inner product determined by two
circle measures.  Its Gram matrix over the monomial basis decomposes into
a Hardy block plus three derivative blocks built from Fourier
coefficients of the measures.  Each space keeps its two one-variable
factors, from which it assembles the Gram matrix and splits a norm into
those four pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .config import DEFAULTS, Tolerances
from .errors import AssumptionError
from .measures import (
    CircleMeasure,
    fourier_coefficients,
    require_positive,
    weights_commute,
)

# Per-entry sign conventions of the Gram blocks, fixed once by agreement
# with the quadrature oracle (tests/test_space.py pins them):
#   first-variable block pairs a_{m,n} against a_{p,n} with mu1_hat(p - m),
#   second-variable block pairs a_{m,n} against a_{m,q} with mu2_hat(q - n),
#   mixed block multiplies mu2_hat(q - n) @ mu1_hat(p - m).


@dataclass(frozen=True)
class PolyVector:
    """Coefficient array of a vector-valued polynomial in two variables.

    ``coeffs[m, n]`` is the coefficient of z1^m z2^n, a vector of length
    ``dim``.  One-variable polynomials use caps (N, 0).
    """

    caps: tuple
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        N1, N2 = self.caps
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (N1 + 1, N2 + 1, self.dim):
            raise ValueError(
                f"coefficient shape {arr.shape} does not match caps {self.caps}, dim {self.dim}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zeros(cls, caps, dim) -> "PolyVector":
        N1, N2 = caps
        return cls(caps, dim, np.zeros((N1 + 1, N2 + 1, dim), dtype=complex))

    @classmethod
    def monomial(cls, caps, dim, m, n, k=0, value=1.0) -> "PolyVector":
        N1, N2 = caps
        arr = np.zeros((N1 + 1, N2 + 1, dim), dtype=complex)
        arr[m, n, k] = value
        return cls(caps, dim, arr)

    @classmethod
    def from_flat(cls, caps, dim, flat) -> "PolyVector":
        N1, N2 = caps
        return cls(caps, dim, np.asarray(flat, dtype=complex).reshape(N1 + 1, N2 + 1, dim))

    def flatten(self) -> np.ndarray:
        """Lexicographic (m, n, k) flattening, matching the Gram index."""
        return self.coeffs.reshape(-1)


class HilbertSpace:
    """A finite-dimensional space C^D with inner product y^H G x."""

    def __init__(self, gram: np.ndarray):
        gram = np.asarray(gram, dtype=complex)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be square")
        self.gram = gram

    @property
    def dim_total(self) -> int:
        return self.gram.shape[0]

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor L with G = L L^H.  Fails on singular grams."""
        try:
            return sla.cholesky(self.gram, lower=True)
        except np.linalg.LinAlgError as exc:
            raise AssumptionError(f"gram matrix is not positive definite: {exc}") from exc

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        """<x, y> = y^H G x (linear in x, conjugate-linear in y)."""
        return complex(np.conj(y) @ (self.gram @ x))

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(x, x).real, 0.0)))

    def whiten(self, X: np.ndarray) -> np.ndarray:
        """Coordinates in which the inner product is Euclidean: L^H X."""
        return self.chol.conj().T @ X

    def unwhiten(self, X: np.ndarray) -> np.ndarray:
        return sla.solve_triangular(self.chol.conj().T, X, lower=False)


class EuclideanSpace(HilbertSpace):
    """C^D with the standard inner product (identity gram)."""

    def __init__(self, dim: int):
        super().__init__(np.eye(dim, dtype=complex))


class GradedPolySpace(HilbertSpace):
    """Truncated two-variable Dirichlet-type space with explicit Gram matrix.

    Basis vectors are monomials z1^m z2^n e_k ordered lexicographically by
    (m, n, k).  The Gram matrix is Hermitian, and positive definite for
    positive measures (the Hardy block dominates the identity).  The space
    is built from its one-variable factors A1, A2 of shapes
    (N1+1, N1+1, d, d) and (N2+1, N2+1, d, d) and keeps them as
    ``factors``; no other D x D array is held beside the Gram matrix.
    """

    def __init__(self, A1: np.ndarray, A2: np.ndarray):
        self.factors = (A1, A2)
        self.caps = (A1.shape[0] - 1, A2.shape[0] - 1)
        self.dim = d = A1.shape[2]
        N1, N2 = self.caps
        D = (N1 + 1) * (N2 + 1) * d
        # one D x D buffer, viewed with six axes (p, q, l, m, n, k): rows
        # first, flattening matches flat_index.  The terms are added in the
        # order I, A1, A2, A2 A1 of tests/reference.py::loop_gram, which the
        # Gram equals bit for bit
        gram = np.eye(D, dtype=complex)
        six = gram.reshape(N1 + 1, N2 + 1, d, N1 + 1, N2 + 1, d)
        diag1, diag2 = np.arange(N1 + 1), np.arange(N2 + 1)
        six[:, diag2, :, :, diag2, :] += np.transpose(A1, (0, 2, 1, 3))
        six[diag1, :, :, diag1, :, :] += np.transpose(A2, (0, 2, 1, 3))
        gram += np.einsum("qnlj,pmjk->pqlmnk", A2, A1).reshape(D, D)
        super().__init__(gram)

    # -- indexing ------------------------------------------------------

    def flat_index(self, m: int, n: int, k: int = 0) -> int:
        N1, N2 = self.caps
        return (m * (N2 + 1) + n) * self.dim + k

    def core_indices(self, margin: int, var=None) -> np.ndarray:
        """Flat indices of bidegrees at least ``margin`` below the caps.

        ``var=1`` constrains only the first degree, ``var=2`` only the
        second, ``var=None`` both.  A variable with cap 0 is inactive and
        never constrained; the degree-0 slice is always kept.
        """
        N1, N2 = self.caps
        up1 = max(N1 - margin, 0) if (var in (None, 1) and N1 > 0) else N1
        up2 = max(N2 - margin, 0) if (var in (None, 2) and N2 > 0) else N2
        return self._grid()[:up1 + 1, :up2 + 1].reshape(-1)

    def _grid(self) -> np.ndarray:
        """Flat indices arranged by (m, n, k), shape (N1+1, N2+1, d)."""
        N1, N2 = self.caps
        return np.arange(self.dim_total).reshape(N1 + 1, N2 + 1, self.dim)


def _weighted_table(mu: CircleMeasure, N: int) -> np.ndarray:
    """One-variable factor A[r, c] = (r ^ c) mu_hat(r - c), shape (N+1, N+1, d, d).

    The lags r - c index the table of :func:`fourier_coefficients`,
    filled once for all degrees 0..N atom by atom, and the weights r ^ c
    are one outer minimum: no loop over the degrees.
    """
    deg = np.arange(N + 1)
    lags = np.subtract.outer(deg, deg) + N
    return np.minimum.outer(deg, deg)[:, :, None, None] * fourier_coefficients(mu, N)[lags]


def build_space(mu1: CircleMeasure, mu2: CircleMeasure, N1: int, N2: int,
                tols: Tolerances = DEFAULTS) -> GradedPolySpace:
    """Assemble the truncated space for the measure pair at caps (N1, N2).

    Requires positive measures of equal dimension; for d > 1 the weights
    of the two measures must commute pairwise, otherwise the mixed block
    would break Hermitian symmetry of the Gram matrix.

    The Gram matrix is the expansion of (I + A1) (x) (I + A2) of the two
    one-variable factors A_i = (r ^ c) mu_i_hat(r - c): the Hardy block
    I, A1 on the diagonal of the second degree, A2 on the diagonal of the
    first degree, and the mixed block A2 A1.  Each factor reads one
    Fourier table of its measure, :func:`fourier_coefficients`.
    """
    if mu1.dim != mu2.dim:
        raise AssumptionError("measures must share the coefficient dimension")
    require_positive(mu1, "first measure")
    require_positive(mu2, "second measure")
    if mu1.dim > 1 and not weights_commute(mu1, mu2, tols):
        raise AssumptionError(
            "measure weights do not commute; the two-variable space is not defined here"
        )
    space = GradedPolySpace(_weighted_table(mu1, int(N1)), _weighted_table(mu2, int(N2)))
    # one complex and one real D x D temporary for both maxima
    G = space.gram
    skew = G.T.conj()
    skew -= G
    mags = np.abs(skew)
    herm = mags.max()
    if herm > tols.hermitian * max(1.0, np.abs(G, out=mags).max()):
        raise AssumptionError(f"assembled gram is not Hermitian (deviation {herm:.2e})")
    return space


def factor_spaces(space: GradedPolySpace) -> tuple:
    """The two one-variable factors of ``space`` as caps-(N1, 0) and
    caps-(N2, 0) spaces, built from ``space.factors``: a zero second
    factor adds exact zeros, so their Grams are exactly I + A1 and I + A2.
    For d = 1 the Gram of ``space`` is the expansion of their Kronecker
    product (see :func:`build_space`), equal to it to rounding."""
    A1, A2 = space.factors
    zero = np.zeros((1, 1, space.dim, space.dim), dtype=complex)
    return GradedPolySpace(A1, zero), GradedPolySpace(A2, zero)


def build_space_1v(mu: CircleMeasure, N: int) -> GradedPolySpace:
    """One-variable space as the degenerate caps (N, 0) bidisc space."""
    return build_space(mu, CircleMeasure.zero(mu.dim), N, 0)


def coordinate_shift_matrix(space: GradedPolySpace, var: int) -> np.ndarray:
    """Coefficient matrix of multiplication by z1 (var=1) or z2 (var=2).

    The top degree in the shifted variable falls outside the truncation
    and is dropped; everything below is the exact coefficient shift.
    """
    D = space.dim_total
    T = np.zeros((D, D))
    T[_shift_entries(space, var)] = 1.0
    return T


def _shift_entries(space: GradedPolySpace, var: int) -> tuple:
    """(rows, cols): the unit entries of :func:`coordinate_shift_matrix`,
    the coefficient of z^(m, n) e_k moved to the next degree in ``var``;
    every other entry of the shift is zero."""
    grid = space._grid()
    if var == 1:
        return grid[1:], grid[:-1]
    return grid[:, 1:], grid[:, :-1]


def inner_product(space: GradedPolySpace, f: PolyVector, g: PolyVector) -> complex:
    """<f, g> in the space; <f, f> is real non-negative for positive measures."""
    if f.caps != space.caps or g.caps != space.caps or f.dim != space.dim or g.dim != space.dim:
        raise ValueError("polynomial shape does not match the space")
    return space.inner(f.flatten(), g.flatten())


def dirichlet_components(space: GradedPolySpace, f: PolyVector) -> dict:
    """The four pieces of ||f||^2: Hardy part and the three derivative terms.

    Each is contracted from the one-variable factors in
    O(N1 N2 (N1 + N2) d^2), with no D x D matrix: A1 acts on the first
    degree, A2 on the second, and the mixed term is A2 applied to A1 f.
    """
    A1, A2 = space.factors
    c = f.coeffs
    a1c = np.einsum("pmlk,mnk->pnl", A1, c)
    terms = (("h2", c), ("d1", a1c), ("d2", np.einsum("qnlk,pnk->pql", A2, c)),
             ("d3", np.einsum("qnlj,pnj->pql", A2, a1c)))
    return {name: float(np.vdot(c, x).real) for name, x in terms}
