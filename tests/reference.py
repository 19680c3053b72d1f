"""Reference computations that the tests compare woldlab's results against.

They iterate ranges, one SVD per step, diagonalize a D x D matrix, or
write a formula entry by entry, so no part of the pipeline uses them; the
tests call them directly.
"""

import numpy as np
import scipy.linalg as sla

import woldlab as wl
from woldlab._blas import one_blas_thread
from woldlab.operators import (
    SpanCore,
    _norm2,
    _numerical_rank,
    _principal_pairs,
    _robust_svd,
    joint_core,
    orthonormal_columns,
)
from woldlab.space import EuclideanSpace


def apply_to_subspace(T, S, tols=wl.DEFAULTS):
    """Image T(S), rank-revealed in the codomain geometry."""
    return wl.Subspace.from_columns(T.codom, T.matrix @ S.basis, tols)


def subspace_sum(A, B, tols=wl.DEFAULTS):
    """A + B, rank-revealed from the stacked bases."""
    return wl.Subspace.from_columns(A.ambient, np.hstack([A.basis, B.basis]), tols)


def loop_fourier_block_table(mu, N):
    """Table F[s + N] = mu_hat(s) for s in [-N, N], shape (2N+1, d, d),
    one ``fourier_coefficient`` call per degree and the negative lags
    mirrored; ``fourier_coefficients`` must reproduce it bit for bit."""
    d = mu.dim
    tab = np.empty((2 * N + 1, d, d), dtype=complex)
    for s in range(N + 1):
        c = wl.fourier_coefficient(mu, s)
        tab[s + N] = c
        tab[-s + N] = c.conj().T
    return tab


def gram_block(mu1, mu2, m, n, p, q):
    """The d x d block pairing the coefficient of z1^m z2^n against z1^p z2^q.

    <f, g> = sum over (m, n), (p, q) of b_{p,q}^H B(m,n,p,q) a_{m,n} with

        B = delta_mp delta_nq I
            + delta_nq (m ^ p) mu1_hat(p - m)
            + delta_mp (n ^ q) mu2_hat(q - n)
            + (m ^ p)(n ^ q) mu2_hat(q - n) mu1_hat(p - m)

    where ^ is min.  Derivative terms vanish unless both paired degrees in
    the relevant variable are >= 1.
    """
    d = mu1.dim
    B = np.zeros((d, d), dtype=complex)
    if m == p and n == q:
        B += np.eye(d)
    if n == q and min(m, p) > 0:
        B += min(m, p) * wl.fourier_coefficient(mu1, p - m)
    if m == p and min(n, q) > 0:
        B += min(n, q) * wl.fourier_coefficient(mu2, q - n)
    if min(m, p) > 0 and min(n, q) > 0:
        B += (min(m, p) * min(n, q)
              * (wl.fourier_coefficient(mu2, q - n) @ wl.fourier_coefficient(mu1, p - m)))
    return B


def three_term_defect(T, margin=None, tols=wl.DEFAULTS):
    """``two_isometry_defect`` from its three terms: T^2 is formed, then
    T^2^H G T^2 - 2 T^H G T + G is compressed to the same safe core."""
    G = T.dom.gram
    T2 = T.matrix @ T.matrix
    F = (T2.conj().T @ G @ T2) - 2 * (T.matrix.conj().T @ G @ T.matrix) + G
    B = T.core(margin).basis(tols)
    FB = B.conj().T @ F @ B
    if FB.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh((FB + FB.conj().T) / 2))))


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
    S = wl.Subspace.from_columns(T.dom, np.eye(T.dom.dim_total))
    dims = [S.dim]
    for _ in range(max_iter):
        S = apply_to_subspace(T, S, tols)
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
    E1 = wl.certify(T1, tols).E
    E10 = wl.subspace_intersect(E1, H10, tols)
    worst = 0.0
    if E10.dim:
        sr2 = stable_range(T2, tols=tols)
        lhs, e1m = E10, E1
        for _ in range(3):
            worst = max(worst, lhs.distance(wl.subspace_intersect(e1m, sr2, tols)))
            lhs = apply_to_subspace(T1, lhs, tols)
            e1m = apply_to_subspace(T1, e1m, tols)
    return worst


def loop_gram(mu1, mu2, N1, N2):
    """The four Gram components (h2, d1, d2, d3), one (m, p) pair at a time.

    Fills six-axis arrays (p, q, l, m, n, k) in a double loop over the
    first degrees; ``build_space`` must reproduce them bit for bit.
    """
    d = mu1.dim
    D = (N1 + 1) * (N2 + 1) * d
    F1, F2 = loop_fourier_block_table(mu1, N1), loop_fourier_block_table(mu2, N2)

    def blank():
        return np.zeros((N1 + 1, N2 + 1, d, N1 + 1, N2 + 1, d), dtype=complex)

    h2, d1, d2, d3 = blank(), blank(), blank(), blank()
    eye = np.eye(d)
    diag2 = np.arange(N2 + 1)
    # second-variable table: T2[q, n] = (n ^ q) mu2_hat(q - n)
    q_idx, n_idx = np.meshgrid(np.arange(N2 + 1), np.arange(N2 + 1), indexing="ij")
    T2 = np.minimum(q_idx, n_idx)[:, :, None, None] * F2[(q_idx - n_idx) + N2]
    for m in range(N1 + 1):
        h2[m, diag2, :, m, diag2, :] = eye
        if N2 > 0:
            d2[m, :, :, m, :, :] = np.transpose(T2, (0, 2, 1, 3))
        for p in range(N1 + 1):
            c1 = min(m, p)
            if c1 == 0:
                continue
            B1 = c1 * F1[(p - m) + N1]
            d1[p, diag2, :, m, diag2, :] += B1
            if N2 > 0:
                d3[p, :, :, m, :, :] += np.einsum("qnlj,jk->qlnk", T2, B1)
    return {k: v.reshape(D, D) for k, v in
            {"h2": h2, "d1": d1, "d2": d2, "d3": d3}.items()}


def loop_core_indices(space, margin, var=None):
    """``GradedPolySpace.core_indices``, one flat index at a time."""
    N1, N2 = space.caps
    up1 = max(N1 - margin, 0) if (var in (None, 1) and N1 > 0) else N1
    up2 = max(N2 - margin, 0) if (var in (None, 2) and N2 > 0) else N2
    return np.array([space.flat_index(m, n, k)
                     for m in range(up1 + 1) for n in range(up2 + 1)
                     for k in range(space.dim)], dtype=int)


def loop_shift_matrix(space, var):
    """``coordinate_shift_matrix``, one d x d identity block per bidegree."""
    N1, N2 = space.caps
    d = space.dim
    T = np.zeros((space.dim_total, space.dim_total))
    for m in range(N1 + 1):
        for n in range(N2 + 1):
            if var == 1 and m < N1:
                src, dst = space.flat_index(m, n), space.flat_index(m + 1, n)
            elif var == 2 and n < N2:
                src, dst = space.flat_index(m, n), space.flat_index(m, n + 1)
            else:
                continue
            T[dst:dst + d, src:src + d] = np.eye(d)
    return T


@one_blas_thread
def loop_model_rows(T1, T2, target, tols=wl.DEFAULTS):
    """The coefficient rows of ``build_V``, written one row at a time.

    They follow the recurrence of ``build_V`` with the same products:
    r_{m+1,0} = r_{m,0} L1 from r_{0,0} = E^H G, then
    r_{m,n+1} = r_{m,n} L2 for every m at once.  One BLAS thread, as in
    ``build_V``, gives the same basis of the joint kernel E."""
    c1, c2 = wl.certify(T1, tols), wl.certify(T2, tols)
    amb = T1.dom
    E = wl.subspace_intersect(c1.E, c2.E, tols)
    M1, M2 = target.caps
    d = target.dim
    rows = np.zeros((target.dim_total, amb.dim_total), dtype=complex)
    first = [E.basis.conj().T @ amb.gram]
    for _ in range(M1):
        first.append(first[-1] @ c1.L)
    block = np.vstack(first)
    for n in range(M2 + 1):
        for m in range(M1 + 1):
            for k in range(d):
                rows[target.flat_index(m, n, k), :] = block[m * d + k]
        if n < M2:
            block = block @ c2.L
    return rows


# The norm identities and the model map as the pipeline computed them
# before it read kernel projections in the coordinates of the kernel: the
# identities apply the D x D projectors P = E E^H G onto the kernels E of
# the certificates (and P1 P2) to every iterate, one vector at a time,
# and the model map multiplies E^H G
# by a D x D product of powers of L2 and L1 once per bidegree.  They run on
# one BLAS thread, as the package does, so the joint kernel E has the same
# basis.  tests/test_dense_passes.py compares the two routes.


@one_blas_thread
def projector_norm_identity(T, x, tols=wl.DEFAULTS):
    """``check_norm_identity`` through the D x D projector P onto ker T*:
    sum_k ||P L^k x||^2 + sum_{k>=1} <F L^k x, L^k x>, one iterate at a time."""
    cert = wl.certify(T, tols).require_analytic()
    Pm, F, L = cert.E.projector(), cert.F, cert.L
    x = np.asarray(x, dtype=complex).reshape(-1)
    G = T.dom.gram
    total = float((np.conj(x) @ (G @ x)).real)
    negligible = np.finfo(float).eps**2 * total
    acc = 0.0
    y = x.copy()
    for k in range(T.dom.dim_total + 1):
        if float((np.conj(y) @ (G @ y)).real) <= negligible:
            break
        py = Pm @ y
        acc += float((np.conj(py) @ (G @ py)).real)
        if k >= 1:
            acc += float((np.conj(y) @ (F @ y)).real)
        y = L @ y
    return abs(total - acc)


@one_blas_thread
def projector_two_variable_identity(T1, T2, x, tols=wl.DEFAULTS):
    """``check_two_variable_identity`` through the D x D projectors P1, P2
    and P1 P2, one iterate y = L2^n L1^m x at a time."""
    c1 = wl.certify(T1, tols).require_analytic()
    c2 = wl.certify(T2, tols).require_analytic()
    P1, F1, L1 = c1.E.projector(), c1.F, c1.L
    P2, F2, L2 = c2.E.projector(), c2.F, c2.L
    x = np.asarray(x, dtype=complex).reshape(-1)
    G = T1.dom.gram
    F12 = T2.matrix.conj().T @ F1 @ T2.matrix - F1
    P = P1 @ P2

    def sq(vec, mat=None):
        mat = G if mat is None else mat
        return float((np.conj(vec) @ (mat @ vec)).real)

    total = sq(x)
    negligible = np.finfo(float).eps**2 * total
    acc = 0.0
    ym = x.copy()
    for m in range(T1.dom.dim_total + 1):
        if sq(ym) <= negligible:
            break
        y = ym.copy()
        for n in range(T2.dom.dim_total + 1):
            if sq(y) <= negligible:
                break
            acc += sq(P @ y)
            if m >= 1:
                acc += sq(P2 @ y, F1)
            if n >= 1:
                acc += sq(P1 @ y, F2)
            if m >= 1 and n >= 1:
                acc += sq(y, F12)
            y = L2 @ y
        ym = L1 @ ym
    return abs(total - acc)


@one_blas_thread
def power_model_rows(T1, T2, target, tols=wl.DEFAULTS):
    """The rows of ``build_V`` as E^H G L2^n L1^m, each from a D x D
    product of powers, one bidegree at a time."""
    c1, c2 = wl.certify(T1, tols), wl.certify(T2, tols)
    amb = T1.dom
    E = wl.subspace_intersect(c1.E, c2.E, tols)
    M1, M2 = target.caps
    rows = np.zeros((target.dim_total, amb.dim_total), dtype=complex)
    row_proj = E.basis.conj().T @ amb.gram
    cur_m = np.eye(amb.dim_total, dtype=complex)
    for m in range(M1 + 1):
        cur = cur_m
        for n in range(M2 + 1):
            start = target.flat_index(m, n)
            rows[start:start + target.dim] = row_proj @ cur
            cur = c2.L @ cur
        cur_m = c1.L @ cur_m
    return rows


def dense_model_map_gates(T1, T2, target, rows, tols=wl.DEFAULTS):
    """(isometry, intertwine_1, intertwine_2) of the map with these rows,
    as ``build_V`` gates them on the dense route: from the joint core of
    T1, T2 at the default margin, with its Gram-orthonormal basis B, the
    assembled Grams and ``target.whiten``.  The isometry residual is
    max |<Vx, Vx> - <x, x>| / (1 + ||x||^2) over the 50 probes x = B c of
    ``build_V``, whose coefficients draw real and then imaginary parts from
    ``default_rng(0)``; intertwine_i is ||L_t^H (V T_i - Z_i V) B|| with Z_i
    the coordinate shift matrix of the target."""
    core = joint_core(T1, T2, None, tols)
    z = np.random.default_rng(0).standard_normal((50, 2, core.dim))
    G, Gt = T1.dom.gram, target.gram
    iso = 0.0
    for c in z[:, 0] + 1j * z[:, 1]:
        x = core.basis @ c
        vx = rows @ x
        nx = np.vdot(x, G @ x).real
        iso = max(iso, abs(np.vdot(vx, Gt @ vx).real - nx) / (1.0 + nx))
    res = [_norm2(target.whiten((rows @ T.matrix - loop_shift_matrix(target, var) @ rows)
                                @ core.basis))
           for var, T in ((1, T1), (2, T2))]
    return float(iso), *res


# The routes below are the ones the pipeline took before its kernels, orbits
# and complements each lost a dense factorization; the cross-checks in
# tests/test_operators.py and tests/test_decomp.py compare the current
# routes with them.


def two_svd_kernel(T, tols=wl.DEFAULTS):
    """``range_complement_projection`` by two SVDs: a thin one for ran(T),
    then a second, rank-revealing one of the projector P for E = ran P."""
    Q = orthonormal_columns(T.codom, T.matrix, tols)
    Pm = np.eye(T.codom.dim_total, dtype=complex) - Q @ Q.conj().T @ T.codom.gram
    E = wl.Subspace.from_columns(T.codom, Pm, tols)
    return Pm, E


def closing_svd_orbit(ops, S, tols=wl.DEFAULTS):
    """The orbit of S under ``ops`` (one operator or a list), with one
    projection per pass and a closing rank-revealing SVD of the whole
    accumulated basis."""
    ops = [ops] if isinstance(ops, wl.OperatorModel) else list(ops)
    amb = S.ambient
    basis = frontier = S.basis
    while frontier.shape[1] and basis.shape[1] < amb.dim_total:
        images = np.hstack([op.matrix @ frontier for op in ops])
        images = images - basis @ (basis.conj().T @ (amb.gram @ images))
        frontier = orthonormal_columns(amb, images, tols)
        basis = np.hstack([basis, frontier])
    return wl.Subspace.from_columns(amb, basis, tols)


def eigh_complement(S, tols=wl.DEFAULTS):
    """The Gram-orthogonal complement of S, from the eigenvectors of the
    D x D whitened projector with eigenvalue below 1/2."""
    amb = S.ambient
    Bw = amb.whiten(S.basis)
    Pw = Bw @ Bw.conj().T
    lam, V = np.linalg.eigh((Pw + Pw.conj().T) / 2)
    sel = lam < 0.5
    return wl.Subspace(amb, amb.unwhiten(V[:, sel]))


# The restricted operator and the Gram adjoint, which the pipeline no longer
# builds: it reads each block residual from the compression of T_w to a
# whitened block basis, and T* as T_w^H.  tests/test_dense_passes.py compares
# the two routes, and the defect route of the measures runs on restrictions.


def coords(S, X):
    """Coordinates in the basis of S of the projections of the ambient
    vectors X onto S."""
    return S.basis.conj().T @ (S.ambient.gram @ X)


def adjoint(A):
    """Gram adjoint A* = G_dom^{-1} A^H G_codom, by two triangular solves.

    Satisfies <Ax, y> = <x, A*y> for truncation vectors; on graded spaces
    it reproduces the untruncated adjoint only on the safe core.
    """
    Ldom = A.dom.chol
    Y = sla.solve_triangular(Ldom, A.matrix.conj().T @ A.codom.gram, lower=True)
    return wl.OperatorModel(A.codom, A.dom, sla.solve_triangular(Ldom.conj().T, Y, lower=False))


def restrict_operator(T, S, tols=wl.DEFAULTS):
    """Compression of T to an invariant subspace S, in the coordinates of
    its Gram-orthonormal basis, on a space with identity Gram.  Its safe
    core is the ambient core intersected with S: in S coordinates, the
    right principal vectors of the two whose cosine is above
    1 - intersection_tol, already orthonormal.  How far T(S) leaks out of
    S is ``info['invariance_leak']``."""
    if S.ambient.dim_total != T.dom.dim_total:
        raise ValueError("subspace does not live in the operator domain")
    image = T.matrix @ S.basis
    M = coords(S, image)
    leak = _norm2(T.dom.whiten(image - S.basis @ M))
    space = EuclideanSpace(S.dim)

    def core(margin):
        _, _, V = _principal_pairs(T.core_subspace(margin, tols).basis, S.basis, T.dom.gram, tols)
        return SpanCore(space, V, orthonormal=True)

    return wl.OperatorModel(space, space, M, core_fn=core, info={"invariance_leak": leak})


# The orbit and wandering loops below work in the ambient Gram geometry, one
# whitening, Gram product and SVD per pass or power; the pipeline now runs
# both on whitened operators. tests/test_dense_passes.py compares them.


def gram_orbit(ops, S, tols=wl.DEFAULTS):
    """The orbit of S under ``ops`` (one operator or a list) in ambient
    coordinates: each pass projects its images off the basis through the
    Gram matrix and orthonormalizes them with ``orthonormal_columns``, and
    the basis grows by one ``hstack`` a pass."""
    ops = [ops] if isinstance(ops, wl.OperatorModel) else list(ops)
    amb = S.ambient
    basis = frontier = S.basis
    while frontier.shape[1] and basis.shape[1] < amb.dim_total:
        images = np.hstack([op.matrix @ frontier for op in ops])
        for _ in range(2):
            images = images - basis @ (basis.conj().T @ (amb.gram @ images))
        frontier = orthonormal_columns(amb, images, tols)
        basis = np.hstack([basis, frontier])
    return wl.Subspace(amb, basis, tols)


def gram_wandering(T, E):
    """The wandering residual of ``wold_single``: the largest ||E^H G T^n E||
    over n >= 1, one spectral norm per power, until the Gram norm of T^n E
    is at most eps^2 dim E."""
    amb = T.dom
    eps = np.finfo(float).eps
    wander = 0.0
    cur = E.basis
    for _ in range(amb.dim_total + 1):
        cur = T.matrix @ cur
        Gcur = amb.gram @ cur
        if np.vdot(cur, Gcur).real <= eps**2 * E.dim:
            break
        wander = max(wander, float(np.linalg.norm(E.basis.conj().T @ Gcur, 2)))
    return wander


# The orbit pass loop and the power loop of the pipeline before each Wold
# split took one pivoted QR, a one-column pass was normalized by its norm and
# the powers stopped at the rank floor.  tests/test_dense_passes.py compares
# them.


def svd_step_orbit(Tw, Sw, tols=wl.DEFAULTS):
    """Orthonormal basis of the orbit of span(Sw) under the whitened
    operators ``Tw``, in whitened coordinates; Sw has orthonormal columns
    and stays the leading ones.  Each pass projects the images of the
    directions the last pass added off the basis twice and keeps their
    rank-revealed part, from an SVD also when they are one column."""
    D = Sw.shape[0]
    basis = np.empty((D, D), dtype=complex)
    start, end = 0, Sw.shape[1]
    basis[:, :end] = Sw
    while start < end < D:
        images = np.hstack([T @ basis[:, start:end] for T in Tw])
        B = basis[:, :end]
        for _ in range(2):
            images -= B @ (B.conj().T @ images)
        U, s = _robust_svd(images)
        new = U[:, :_numerical_rank(s, tols)]
        start, end = end, end + new.shape[1]
        basis[:, start:end] = new
    return basis[:, :end]


def eps_powers(Tw, Kw):
    """``decomp._powers`` up to the first power whose squared norm is at
    most eps^2 dim K.  That sits below the rounding of a power the
    truncation annihilated, so on a scrambled operator it runs D + 1
    powers."""
    eps = np.finfo(float).eps
    powers = [Kw]
    cur = Kw
    for _ in range(Kw.shape[0] + 1):
        cur = Tw @ cur
        if np.vdot(cur, cur).real <= eps**2 * Kw.shape[1]:
            break
        powers.append(cur)
    return powers


# The kernel of T* as the pipeline read it before it took one pivoted QR:
# a full SVD.  tests/test_dense_passes.py compares the two.


def svd_wandering_subspace(T, tols=wl.DEFAULTS):
    """``wandering_subspace`` from one full SVD of the whitened L^H T: its
    left singular vectors past the rank cut of the singular values."""
    sp = T.codom
    U, s, _ = np.linalg.svd(sp.whiten(T.matrix))
    return wl.Subspace(sp, sp.unwhiten(U[:, _numerical_rank(s, tols):]), tols)


# The construction of the four pair blocks that ``wold_pair`` used before it
# split by T1 and then by T2: five orbits, three full complements, two
# principal-angle intersections and one rank-revealing SVD of the union of
# the shift blocks.  tests/test_dense_passes.py compares the two routes.


def five_orbit_pair(T1, T2, tols=wl.DEFAULTS):
    """(blocks, kernels): the four blocks of a doubly commuting pair and the
    kernels its extracted restrictions inherit, keyed by (block, operator),
    both in ambient coordinates.  With Ei = ker Ti* and E = E1 ∩ E2,

        E10 = E1 ∩ ([E]_T2)^perp,  H10 = [E10]_T1,
        E01 = E2 ∩ ([E]_T1)^perp,  H01 = [E01]_T2,   H11 = [E]_{T1,T2},

    H00 is the complement of the span of the three shift blocks, and the
    restrictions to H11 inherit [E]_T2 (of T1) and [E]_T1 (of T2)."""
    amb = T1.dom
    E1, E2 = wl.certify(T1, tols).E, wl.certify(T2, tols).E
    E = wl.subspace_intersect(E1, E2, tols)
    O1, O2 = gram_orbit(T1, E, tols), gram_orbit(T2, E, tols)
    E10 = wl.subspace_intersect(E1, eigh_complement(O2, tols), tols)
    E01 = wl.subspace_intersect(E2, eigh_complement(O1, tols), tols)
    H10 = gram_orbit(T1, E10, tols)
    H01 = gram_orbit(T2, E01, tols)
    H11 = gram_orbit([T1, T2], E, tols)
    shifts = wl.Subspace.from_columns(amb, np.hstack([H10.basis, H01.basis, H11.basis]), tols)
    blocks = {"H00": eigh_complement(shifts, tols), "H10": H10, "H01": H01, "H11": H11}
    kernels = {("H10", "T1"): E10, ("H01", "T2"): E01, ("H11", "T1"): O2, ("H11", "T2"): O1}
    return blocks, kernels


# The measure extraction that the pipeline used before it read the measures
# from orbit moments: the defect operator D, a unitary model of the
# defect-space isometry D x -> D T x fit on safe-core columns, and its
# spectral data paired with D E.  tests/test_decomp.py and
# tests/test_dense_passes.py compare the two routes.


def _tilde_pieces(T, tols=wl.DEFAULTS):
    """Unitary model of the defect-space isometry D x -> D T x.

    The map is fit by least squares over safe-core columns, completed
    deterministically on any unreached directions, then projected to the
    closest unitary via its singular factors.  Returns (Ut, Dspace, D).
    """
    D, Dspace = wl.defect_operator(T, tols=tols)
    k = Dspace.dim
    if k == 0:
        return np.zeros((0, 0), dtype=complex), Dspace, D
    C = T.core_basis()
    X = coords(Dspace, D.matrix @ C)
    Y = coords(Dspace, D.matrix @ (T.matrix @ C))
    Ux, sx, Vhx = np.linalg.svd(X, full_matrices=False)
    rank = _numerical_rank(sx, tols)
    if rank == 0:
        raise wl.ConvergenceError("defect images of the safe core vanish; caps too small")
    pinv = (Vhx[:rank].conj().T / sx[:rank]) @ Ux[:, :rank].conj().T
    Tt = Y @ pinv
    lsq = float(np.linalg.norm(Tt @ X - Y, 2) / max(1.0, np.linalg.norm(Y, 2)))
    if lsq > tols.tilde_residual:
        raise wl.ConvergenceError(
            f"defect-space isometry fit residual {lsq:.3e} exceeds tolerance; caps too small"
        )
    if rank < k:
        dom_extra = sla.null_space(Ux[:, :rank].conj().T)
        img_extra = sla.null_space((Tt @ Ux[:, :rank]).conj().T)
        r = min(dom_extra.shape[1], img_extra.shape[1])
        Tt = Tt + img_extra[:, :r] @ dom_extra[:, :r].conj().T
    Uu, _, Vhu = np.linalg.svd(Tt)
    return Uu @ Vhu, Dspace, D


def loop_cluster_angles(angles, tol):
    """``decomp._cluster_angles`` one sorted angle at a time: an angle joins
    the last cluster when it is within ``tol`` of that cluster's last
    angle, and the first and last clusters merge across the 2*pi seam."""
    if angles.size == 0:
        return []
    order = np.argsort(angles)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if angles[idx] - angles[clusters[-1][-1]] < tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    if len(clusters) > 1:
        first, last = clusters[0], clusters[-1]
        if angles[first[0]] + 2 * np.pi - angles[last[-1]] < tol:
            clusters[0] = last + first
            clusters.pop()
    return clusters


def defect_route_measure(T, compress_to=None, tols=wl.DEFAULTS):
    """``extract_measure`` by the defect-space isometry of T itself: each
    eigenvalue cluster at angle theta of the unitary model contributes an
    atom (theta, W), W the compression of (D Pi_theta D) to E = ker T*, or
    to ``compress_to`` when given (the joint kernel, for the restrictions
    of a pair to its jointly analytic block)."""
    E = wl.certify(T, tols).require_analytic().E
    if compress_to is None:
        compress_to = E
    Ut, Dspace, D = _tilde_pieces(T, tols)
    if Dspace.dim == 0:
        return wl.CircleMeasure.zero(compress_to.dim)
    Tschur, Q = sla.schur(Ut, output="complex")
    angles = np.mod(np.angle(np.diag(Tschur)), 2 * np.pi)
    Y = (Dspace.basis @ Q).conj().T @ (T.dom.gram @ (D.matrix @ compress_to.basis))
    atoms = []
    for cluster in loop_cluster_angles(angles, tols.atom_cluster):
        Yc = Y[np.array(cluster, dtype=int)]
        angs = angles[cluster]
        if angs.max() - angs.min() > np.pi:
            angs = np.where(angs > np.pi, angs - 2 * np.pi, angs)
        atoms.append((float(np.mean(angs)) % (2 * np.pi), Yc.conj().T @ Yc))
    return wl.CircleMeasure(dim=compress_to.dim, atoms=tuple(atoms))


@one_blas_thread
def fresh_restriction_measures(T1, T2, quad, tols=wl.DEFAULTS):
    """The four measures of ``quad`` by the defect route, each on a fresh
    restriction of T1 or T2 to its block (certified anew, so its kernel is
    ker R* from an SVD); the two on H11 are compressed to the joint kernel
    E = ker T1* ∩ ker T2* in H11 coordinates.  The principal angles of that
    intersection are all zero, so its basis is fixed only by rounding; one
    BLAS thread, as in ``wold_pair``, gives the same basis."""
    E = wl.subspace_intersect(wl.certify(T1, tols).E, wl.certify(T2, tols).E, tols)
    out = {}
    for name, bname, T in (("nu1", "H10", T1), ("nu2", "H01", T2),
                           ("eta1", "H11", T1), ("eta2", "H11", T2)):
        H = getattr(quad, bname)
        if H.dim == 0:
            out[name] = wl.CircleMeasure.zero(E.dim if bname == "H11" else 0)
            continue
        R = restrict_operator(T, H, tols)
        joint = wl.Subspace(R.dom, coords(H, E.basis), tols) if bname == "H11" else None
        out[name] = defect_route_measure(R, compress_to=joint, tols=tols)
    return out
