"""Exception types.

``ValueError`` is reserved for plainly malformed arguments (shape
mismatches, points outside the disc).  The classes below mark failures of
mathematical assumptions or of numerical convergence, so callers can tell
"you handed me the wrong object" apart from "the computation did not
certify".
"""


class WoldLabError(Exception):
    """Base class for package-specific errors."""


class AssumptionError(WoldLabError):
    """A mathematical hypothesis failed (not PSD, not a 2-isometry,
    not analytic, measures not compatible, ...)."""


class ConvergenceError(WoldLabError):
    """A computation did not certify: a decomposition or model-map
    residual above tolerance, a left inverse conditioned worse than
    ``condition_max``, or orbit moments that measure extraction cannot
    reproduce at these caps (not Toeplitz, or a fit above tolerance)."""
