"""The coordinate shifts as 2-isometries.

Checks the defining identity, the doubly-commuting relations and the
Toeplitz structure of the squared defect operator on model shifts.
"""

import numpy as np

import woldlab as wl

mu1, mu2 = wl.random_measure_pair(1, 2, seed=7)
T1, T2 = wl.build_pair_2v(mu1, mu2, 8, 8)

print("-- 2-isometry identity ||T^2 h||^2 - 2 ||T h||^2 + ||h||^2 = 0 --")
print(f"  defect of M_z1: {wl.two_isometry_defect(T1):.2e}")
print(f"  defect of M_z2: {wl.two_isometry_defect(T2):.2e}")
c1, c2 = wl.doubly_commuting_residual(T1, T2)
print(f"  commutator {c1:.2e}, star commutator {c2:.2e}")

print("\n-- a Jordan block is not a 2-isometry --")
sp = wl.HilbertSpace(np.eye(2))
jordan = wl.OperatorModel(sp, sp, np.array([[0.0, 0.0], [1.0, 0.0]]))
print(f"  defect of the nilpotent Jordan block: {wl.two_isometry_defect(jordan):.2f}")

print("\n-- defect operator of a one-variable model shift --")
mu = wl.CircleMeasure.from_scalar_atoms([(1.3, 0.9), (4.0, 0.4)])
N = 10
T = wl.build_shift_1v(mu, N)
D, Dspace = wl.defect_operator(T)
print(f"  rank of the defect space: {Dspace.dim} (one per atom)")
G = T.dom.gram
core = T.dom.core_indices(1)
form = (G @ D.matrix @ D.matrix)[np.ix_(core, core)]
# toeplitz[p, m] = mu_hat(p - m), read from one table of mu_hat(-N..N)
lags = np.subtract.outer(np.arange(N), np.arange(N)) + N
toeplitz = wl.fourier_coefficients(mu, N)[lags, 0, 0]
print(f"  || D^2 - Fourier-Toeplitz || on the safe core: "
      f"{np.max(np.abs(form - toeplitz)):.2e}")

print("\n-- norm identity along the left inverse --")
rng = np.random.default_rng(3)
core_sub = T.core_subspace(4)
x = core_sub.basis @ (rng.standard_normal(core_sub.dim) + 1j * rng.standard_normal(core_sub.dim))
print(f"  residual of the telescoping expansion: {wl.check_norm_identity(T, x):.2e}")
