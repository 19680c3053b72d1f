"""The coefficient map onto the model space, and a convergence study.

For an analytic doubly commuting pair the map x -> (P L1^m L2^n x) is an
isometry onto the Dirichlet-type space of the extracted measure pair and
intertwines the pair with the coordinate shifts.  The second part watches
the extracted coefficient table of the classical Dirichlet shift as the
truncation grows.
"""

import numpy as np

import woldlab as wl

mu1 = wl.CircleMeasure.from_scalar_atoms([(0.9, 0.8)])
mu2 = wl.CircleMeasure.from_scalar_atoms([(4.0, 1.1)])
T1, T2 = wl.build_pair_2v(mu1, mu2, 12, 12)
quad = wl.wold_pair(T1, T2)
target = wl.build_space(quad.measures["eta1"], quad.measures["eta2"], 12, 12)
V = wl.build_V(T1, T2, target)
print("model map onto the extracted-measure space:")
print(f"  isometry residual     {V.info['isometry']:.2e}")
print(f"  intertwining residual {max(V.info['intertwine_1'], V.info['intertwine_2']):.2e}")

# orbit vectors map to single monomials
E = wl.subspace_intersect(wl.certify(T1).E, wl.certify(T2).E)
a = E.basis[:, 0]
x = np.linalg.matrix_power(T1.matrix, 3) @ np.linalg.matrix_power(T2.matrix, 2) @ a
image = wl.PolyVector.from_flat(target.caps, target.dim, V.matrix @ x)
support = np.argwhere(np.abs(image.coeffs) > 1e-9)
print(f"  V(T1^3 T2^2 a) is supported on bidegrees {[tuple(s[:2]) for s in support]}")

print("\nextraction for the classical Dirichlet shift (density measure):")
print(" caps | atoms | density | max |mu_hat(n) - delta| over |n| <= 8")
for caps in (16, 32, 64):
    T = wl.build_shift_1v(wl.CircleMeasure.lebesgue(1), caps)
    got = wl.extract_measure(T)
    err = max(abs(wl.fourier_coefficient(got, n)[0, 0] - (1.0 if n == 0 else 0.0))
              for n in range(-8, 9))
    print(f"  {caps:3d} | {len(got.atoms):5d} | {got.density[0, 0].real:.12f} | {err:.3e}")
print("(density 1 and no atoms at every caps: the constant density is the")
print(" repeated bottom eigenvalue of the moment Toeplitz matrix)")
