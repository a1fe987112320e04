"""An even fermionic MPS with a nontrivial bond cohomology class.

Two fermionic modes per site, bond matrices proportional to 1, sx, sy,
sz: the per-wire fermion parities act on the bond space through the
Pauli projective representation of Z2 x Z2, whose class is nontrivial.
This is the fermionic analogue of a cluster-state-like phase.
"""

import numpy as np

from fspt import (
    ProjectiveRep,
    OnSiteSymmetry,
    check_symmetry,
    cohomologous,
    density_matrix,
    epsilon,
    even_mps,
    fmps_index,
    klein,
    transfer_apply,
    trivial_cocycle,
    trivial_hom,
    validate_hom_z2,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

v = np.stack([np.sqrt(0.4) * I2, np.sqrt(0.3) * SX, np.sqrt(0.2) * SY, np.sqrt(0.1) * SZ])
mps = even_mps(2, v, theta=SZ)
print(f"even MPS: d = {mps.d} modes/site, bond dimension m = {mps.m}, "
      f"sigma0 = {mps.sigma0}")
print(f"fixed point D = diag{tuple(float(x) for x in np.round(np.diag(mps.D).real, 3))}")

x = np.array([[0.3, 1.0], [0.25j, -0.1]], dtype=complex)
y = x.copy()
for _ in range(50):
    y = transfer_apply(mps, y)
print(f"T^50 contraction residual: "
      f"{np.linalg.norm(y - np.trace(mps.D @ x) * I2):.2e}")

v4 = klein()
p = trivial_hom(v4)
sym = OnSiteSymmetry(
    ProjectiveRep.build(v4, p, [I2, np.diag([1, -1]).astype(complex),
                                np.diag([-1, 1]).astype(complex), -I2]),
    ProjectiveRep.build(v4, p, [I2, SX, SY, SZ]),
)
phases = check_symmetry(mps, sym)
print(f"symmetry phases c_g = {np.round(phases.c.real, 10)}, "
      f"residuals <= {phases.residuals.max():.1e}")

idx = fmps_index(mps, sym)
print(f"index: kappa = {idx.kappa}, q = {[int(x) for x in idx.q.values]}")
ok_trivial, _ = cohomologous(idx.cls, trivial_cocycle(v4), modulus=8)
proj1 = validate_hom_z2(v4, [0, 0, 1, 1])
proj2 = validate_hom_z2(v4, [0, 1, 0, 1])
ok_pauli, _ = cohomologous(idx.cls, epsilon(proj1, proj2), modulus=8)
print(f"class trivial: {ok_trivial}; class of eps(proj1, proj2): {ok_pauli}")

# rho is rank-deficient, so its least eigenvalues are rounding noise around 0:
# check them against a tolerance instead of printing them
PSD_TOL = 1e-12
rho = density_matrix(mps, 2)
eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
if eigs.min() < -PSD_TOL:
    raise SystemExit(f"density matrix has eigenvalue {eigs.min():.1e} below -{PSD_TOL:.0e}")
print(f"three-site density matrix: dim {rho.shape[0]}, "
      f"trace {np.trace(rho).real:.10f}, eigenvalues >= -{PSD_TOL:.0e}")
