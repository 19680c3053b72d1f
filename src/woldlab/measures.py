"""Finite positive matrix-valued measures on the unit circle.

A measure here is a finite list of atoms (angle, PSD weight matrix) plus a
constant density with respect to normalized arc length.  This class is
closed under everything the decomposition machinery produces, and it is
rich enough to model the classical weighted Dirichlet spaces (Lebesgue
density) as well as the purely atomic local ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import AssumptionError


def _as_hermitian(W: np.ndarray, tol: float, what: str) -> np.ndarray:
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {W.shape}")
    herm_err = np.max(np.abs(W - W.conj().T)) if W.size else 0.0
    if herm_err > tol:
        raise ValueError(f"{what} is not Hermitian (deviation {herm_err:.2e})")
    return (W + W.conj().T) / 2


def _clamp_small_negatives(W: np.ndarray, tol_psd: float) -> np.ndarray:
    """Zero out eigenvalues in [-tol_psd, 0); leave larger negatives alone
    so that is_positive can still report them."""
    if W.size == 0:
        return W
    if W.shape == (1, 1):
        # the eigenvalue of a 1 x 1 Hermitian weight is its real entry
        lam = W[0, 0].real
        if lam >= 0 or lam < -tol_psd:
            return W
        return np.zeros_like(W)
    lam, V = np.linalg.eigh(W)
    if lam.size and lam.min() >= 0:
        return W
    clamped = np.where((lam < 0) & (lam >= -tol_psd), 0.0, lam)
    W = (V * clamped) @ V.conj().T
    # the product is Hermitian only to rounding; its Hermitian part is
    # Hermitian exactly, because floating-point addition commutes
    return (W + W.conj().T) / 2


class PositivityReport(NamedTuple):
    ok: bool
    min_eigenvalue: float


@dataclass(frozen=True)
class CircleMeasure:
    """Atomic-plus-constant-density positive operator measure on the circle.

    Parameters
    ----------
    dim : int
        Dimension d of the coefficient space the weights act on.
    atoms : tuple of (float, ndarray)
        Pairs (angle in [0, 2pi), d x d Hermitian weight).  Angles must be
        pairwise distinct.
    density : ndarray
        d x d Hermitian matrix, the constant density with respect to
        normalized arc length (zero matrix if absent).
    """

    dim: int
    atoms: tuple = ()
    density: np.ndarray = None
    tols: Tolerances = field(default=DEFAULTS, repr=False, compare=False)

    def __post_init__(self):
        d = int(self.dim)
        if d < 0:
            raise ValueError("dim must be non-negative")
        dens = self.density
        if dens is None:
            dens = np.zeros((d, d), dtype=complex)
        dens = _as_hermitian(dens, self.tols.hermitian, "density")
        if dens.shape != (d, d):
            raise ValueError(f"density shape {dens.shape} does not match dim {d}")
        dens = _clamp_small_negatives(dens, self.tols.psd)
        dens.setflags(write=False)
        object.__setattr__(self, "density", dens)

        cleaned = []
        for angle, W in self.atoms:
            theta = float(angle) % (2 * np.pi)
            W = _as_hermitian(W, self.tols.hermitian, "atom weight")
            if W.shape != (d, d):
                raise ValueError(f"atom weight shape {W.shape} does not match dim {d}")
            W = _clamp_small_negatives(W, self.tols.psd)
            W.setflags(write=False)
            cleaned.append((theta, W))
        cleaned.sort(key=lambda aw: aw[0])
        for (t1, _), (t2, _) in zip(cleaned, cleaned[1:]):
            if t2 - t1 <= self.tols.atom_separation:
                raise ValueError(f"atom angles {t1} and {t2} are not separated")
        if len(cleaned) >= 2:
            wrap = cleaned[0][0] + 2 * np.pi - cleaned[-1][0]
            if wrap <= self.tols.atom_separation:
                raise ValueError("atom angles coincide modulo 2*pi")
        object.__setattr__(self, "atoms", tuple(cleaned))
        object.__setattr__(self, "dim", d)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int = 1) -> "CircleMeasure":
        return cls(dim=dim)

    @classmethod
    def lebesgue(cls, dim: int = 1, scale: float = 1.0) -> "CircleMeasure":
        """Constant density ``scale * I`` (normalized arc length)."""
        return cls(dim=dim, density=scale * np.eye(dim))

    @classmethod
    def from_scalar_atoms(cls, pairs) -> "CircleMeasure":
        """Scalar measure from (angle, weight) pairs of floats."""
        atoms = tuple((a, np.array([[w]], dtype=complex)) for a, w in pairs)
        return cls(dim=1, atoms=atoms)

    # -- structure ----------------------------------------------------

    @property
    def total_mass(self) -> np.ndarray:
        """mu(circle) = density + sum of atom weights."""
        out = self.density.copy()
        for _, W in self.atoms:
            out += W
        return out

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {
                    "angle": float(a),
                    "weight_re": W.real.tolist(),
                    "weight_im": W.imag.tolist(),
                }
                for a, W in self.atoms
            ],
            "density_re": self.density.real.tolist(),
            "density_im": self.density.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CircleMeasure":
        d = int(data["dim"])
        atoms = tuple(
            (
                float(a["angle"]),
                np.array(a["weight_re"]) + 1j * np.array(a["weight_im"]),
            )
            for a in data.get("atoms", [])
        )
        dens_re = np.array(data.get("density_re", np.zeros((d, d)).tolist()))
        dens_im = np.array(data.get("density_im", np.zeros((d, d)).tolist()))
        return cls(dim=d, atoms=atoms, density=dens_re + 1j * dens_im)


def fourier_coefficient(mu: CircleMeasure, n: int) -> np.ndarray:
    """n-th Fourier coefficient: integral of conj(x)^n against mu.

    Only the constant mode of the density survives, so the value is
    ``density * [n == 0] + sum_j exp(-i n theta_j) W_j``.  Coefficients
    satisfy mu_hat(-n) = mu_hat(n)^H.
    """
    out = np.array(mu.density * (1.0 if n == 0 else 0.0), dtype=complex)
    for theta, W in mu.atoms:
        out += np.exp(-1j * n * theta) * W
    return out


def fourier_coefficients(mu: CircleMeasure, K: int) -> np.ndarray:
    """Stacked coefficients mu_hat(n) for n = -K..K, shape (2K + 1, d, d).

    The one Fourier table of the package, filled for all degrees at once.
    It starts from the density at n = 0 and adds exp(-i n theta_j) W_j
    over the whole degree array n = 0..K, one atom at a time in the atoms'
    order: the expression and the order of :func:`fourier_coefficient`, so
    every entry with n >= 0 equals its value bit for bit.  The negative
    lags are mirrored as mu_hat(-n) = mu_hat(n)^H.
    """
    n = np.arange(K + 1)[:, None, None]
    table = np.zeros((2 * K + 1, mu.dim, mu.dim), dtype=complex)
    pos = table[K:]  # a view: mu_hat(0..K)
    pos[0] = mu.density
    for theta, W in mu.atoms:
        pos += np.exp(-1j * n * theta) * W
    table[:K] = pos[:0:-1].conj().transpose(0, 2, 1)
    return table


def poisson_kernel(z: complex, theta: float) -> float:
    """(1 - |z|^2) / |e^{i theta} - z|^2 for z in the open disc."""
    return (1.0 - abs(z) ** 2) / abs(np.exp(1j * theta) - z) ** 2


def poisson_integral(mu: CircleMeasure, z: complex) -> np.ndarray:
    """Harmonic extension of mu at a point of the open unit disc.

    The constant density integrates the kernel to its mean value 1, and
    each atom contributes the kernel value times its weight.  For a
    positive measure the result is Hermitian PSD.
    """
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError(f"poisson_integral requires |z| < 1, got |z| = {abs(z)}")
    out = np.array(mu.density, dtype=complex)
    for theta, W in mu.atoms:
        out += poisson_kernel(z, theta) * W
    return out


def is_positive(mu: CircleMeasure) -> PositivityReport:
    """Certify that every atom weight and the density are PSD, to
    ``mu.tols.psd``, the tolerance the constructor clamped them with.

    Returns the verdict together with the worst (most negative)
    eigenvalue encountered across all parts.
    """
    worst = 0.0
    parts = [W for _, W in mu.atoms] + [mu.density]
    for W in parts:
        if W.size == 0:
            continue
        lam_min = float(W[0, 0].real if W.shape == (1, 1) else np.linalg.eigvalsh(W).min())
        worst = min(worst, lam_min)
    return PositivityReport(ok=worst >= -mu.tols.psd, min_eigenvalue=worst)


def require_positive(mu: CircleMeasure, what: str = "measure") -> None:
    report = is_positive(mu)
    if not report.ok:
        raise AssumptionError(
            f"{what} is not positive (min eigenvalue {report.min_eigenvalue:.3e})"
        )


def conjugate(mu: CircleMeasure, U: np.ndarray) -> CircleMeasure:
    """Conjugate every weight and the density by a unitary: W -> U^H W U.

    Fourier coefficients transform the same way, so conjugation realizes
    the unitary freedom in the classifying measures.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (mu.dim, mu.dim):
        raise ValueError(f"unitary shape {U.shape} does not match dim {mu.dim}")
    err = np.max(np.abs(U.conj().T @ U - np.eye(mu.dim))) if mu.dim else 0.0
    if err > DEFAULTS.unitary:
        raise ValueError(f"matrix is not unitary (||U^H U - I|| = {err:.2e})")
    atoms = tuple((a, U.conj().T @ W @ U) for a, W in mu.atoms)
    return CircleMeasure(dim=mu.dim, atoms=atoms, density=U.conj().T @ mu.density @ U)


def weights_commute(mu1: CircleMeasure, mu2: CircleMeasure, tols: Tolerances = DEFAULTS) -> bool:
    """Whether every weight/density of mu1 commutes with every one of mu2,
    to ``tols.hermitian`` relative to the largest weight squared.

    Needed for the two-variable space: the mixed block multiplies
    coefficients of the two measures, and commutation is what makes the
    resulting Gram matrix Hermitian.
    """
    parts1 = [W for _, W in mu1.atoms] + [mu1.density]
    parts2 = [W for _, W in mu2.atoms] + [mu2.density]
    scale = max(
        [np.linalg.norm(W) for W in parts1 + parts2] + [1.0]
    )
    for A in parts1:
        for B in parts2:
            if np.max(np.abs(A @ B - B @ A)) > tols.hermitian * scale * scale:
                return False
    return True
