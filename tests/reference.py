"""Reference computations that the tests compare woldlab's results against.

They iterate ranges, one SVD per step, or diagonalize a D x D matrix, so
no part of the pipeline uses them; the tests call them directly.
"""

import numpy as np

import woldlab as wl


def eigh_intersection(A, B, tols=wl.DEFAULTS):
    """A ∩ B from the spectrum of P_A + P_B, in whitened coordinates.

    Eigenvectors with eigenvalue above 2 - intersection_tol lie in both
    ranges.
    """
    amb = A.ambient
    if min(A.dim, B.dim) == 0:
        return wl.Subspace.trivial(amb)
    Aw, Bw = amb.whiten(A.basis), amb.whiten(B.basis)
    Pw = Aw @ Aw.conj().T + Bw @ Bw.conj().T
    lam, V = np.linalg.eigh((Pw + Pw.conj().T) / 2)
    return wl.Subspace(amb, amb.unwhiten(V[:, lam > 2 - tols.intersection]))


def stable_range(T, max_iter=None, tols=wl.DEFAULTS):
    """The intersection of the ranges of all powers of T.

    The ranges of a 2-isometry are nested, so the intersection is reached
    as soon as the dimension stays the same for two steps.
    """
    if not T.is_square:
        raise ValueError("stable_range needs a square operator")
    max_iter = T.dom.dim_total + 2 if max_iter is None else max_iter
    S = wl.Subspace.full(T.dom)
    dims = [S.dim]
    for _ in range(max_iter):
        S = wl.apply_to_subspace(T, S, tols)
        dims.append(S.dim)
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return S
    raise wl.ConvergenceError(
        f"range iteration did not stabilize in {max_iter} steps "
        f"(last dims {dims[-2]}, {dims[-1]})"
    )


def kernel_intersection_identity(T1, T2, H10, tols=wl.DEFAULTS):
    """Largest distance in T1^m(E10) = T1^m(E1) ∩ (stable range of T2), m < 3.

    E1 = ker T1* and E10 = E1 ∩ H10, the wandering subspace of the block
    on which T1 shifts and T2 is unitary.  0.0 when E10 is trivial.
    """
    _, E1 = wl.wandering_projection(T1, tols=tols)
    E10 = wl.subspace_intersect(E1, H10, tols)
    worst = 0.0
    if E10.dim:
        sr2 = stable_range(T2, tols=tols)
        lhs, e1m = E10, E1
        for _ in range(3):
            worst = max(worst, lhs.distance(wl.subspace_intersect(e1m, sr2, tols)))
            lhs = wl.apply_to_subspace(T1, lhs, tols)
            e1m = wl.apply_to_subspace(T1, e1m, tols)
    return worst
