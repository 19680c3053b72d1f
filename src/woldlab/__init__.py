"""woldlab: numerical Wold-type decompositions of doubly commuting 2-isometries.

Build Dirichlet-type spaces over the bidisc from circle measures, realize
the coordinate shift pairs on them, decompose general doubly commuting
2-isometric pairs into their unitary/shift blocks, and recover the
classifying measures up to unitary equivalence.
"""

from .config import DEFAULTS, Tolerances
from .errors import AssumptionError, ConvergenceError, WoldLabError
from .measures import (
    CircleMeasure,
    conjugate,
    fourier_coefficient,
    fourier_coefficients,
    is_positive,
    poisson_integral,
)
from .space import (
    GradedPolySpace,
    HilbertSpace,
    PolyVector,
    build_space,
    build_space_1v,
    dirichlet_components,
    inner_product,
)
from .operators import (
    OperatorModel,
    Subspace,
    defect_operator,
    doubly_commuting_residual,
    left_inverse,
    subspace_intersect,
    two_isometry_defect,
    unitarity_residual,
)
from .decomp import (
    Certificate,
    QuadrupleDecomposition,
    SingleWold,
    build_V,
    certify,
    check_norm_identity,
    check_two_variable_identity,
    extract_measure,
    measures_equal_up_to_unitary,
    slocinski,
    wold_pair,
    wold_single,
)
from .instances import (
    Instance,
    InstanceSpec,
    build_pair_2v,
    build_shift_1v,
    commuting_unitary_pair,
    direct_sum,
    make_four_block_instance,
    make_single_wold_instance,
    random_atomic_measure,
    random_measure_pair,
    random_unitary,
    scramble,
    unitary_operator,
)
from .oracle import disc_moments, quadrature_inner_product, quadrature_poisson

__version__ = "0.1.0"
