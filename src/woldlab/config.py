"""Numerical tolerances and thresholds used across the package.

Every residual check accepts an explicit tolerance; these are the shared
defaults.  ``Tolerances`` instances are immutable, so a scaled copy (see
:func:`scaled`) can be threaded through a whole run without aliasing
surprises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, fields


@dataclass(frozen=True)
class Tolerances:
    #: eigenvalues of nominally-PSD matrices are clamped to zero above this
    psd: float = 1e-10
    #: singular values below rank_rtol * sigma_max (or below the absolute
    #: floor rank_floor, for unit-scale inputs) count as zero.  The same
    #: cut reads the diagonal |R_ii| of a column-pivoted QR (ker T* and each
    #: Wold split), relative to |R_11|, the largest column: for a split,
    #: the largest power of its kernel rather than one pass of an orbit
    rank_rtol: float = 1e-8
    rank_floor: float = 1e-8
    #: Hermitian / unitary validation of user-supplied matrices
    hermitian: float = 1e-12
    unitary: float = 1e-12
    #: minimum angular separation between atoms of a circle measure
    atom_separation: float = 1e-12
    #: angular tolerance when clustering eigenvalues into atoms
    atom_cluster: float = 1e-7
    #: an operator qualifies as a 2-isometry when its defect is below this
    two_isometry: float = 1e-8
    #: doubly-commuting residual bound for pair decompositions
    doubly_commuting: float = 1e-8
    #: a pair qualifies as isometric when ||V*V - I|| is below this
    isometry: float = 1e-10
    #: subspace intersection keeps principal angles whose cosine is above
    #: 1 - this (eigenvalues of P_A + P_B above 2 - this)
    intersection: float = 1e-8
    #: a subspace basis B must satisfy B^H G B = I entrywise to within this
    orthonormal: float = 1e-8
    #: left inverses reject condition numbers above this
    condition_max: float = 1e10
    #: Toeplitz test of the orbit-moment table, and least-squares fit of
    #: the shift isometry of its factor (both relative)
    tilde_residual: float = 1e-6
    #: residual bound on recovered decompositions
    decomposition: float = 1e-6
    #: isometry/intertwining residual bound for the model map
    vmap: float = 1e-7
    #: Fourier-coefficient agreement for measure comparison
    measure_match: float = 1e-6
    #: the measures Slocinski's decomposition extracts from an isometric
    #: pair must have total mass below this
    isometric_mass: float = 1e-8

    def scaled(self, factor: float) -> "Tolerances":
        """Return a copy with every tolerance multiplied by ``factor``."""
        return replace(self, **{f.name: getattr(self, f.name) * factor for f in fields(self)})


DEFAULTS = Tolerances()

#: safe-core margin per applied operator factor (top bidegrees excluded
#: from identity checks on graded truncations)
DEFAULT_CORE_MARGIN = 2
