"""Shared fixture builders for the test suite."""

import numpy as np
import pytest

from fspt import (
    OnSiteSymmetry,
    ProjectiveRep,
    all_z2_homs,
    cyclic,
    dihedral,
    even_mps,
    klein,
    odd_mps,
    quaternion8,
    r0_system,
    r1_system,
    trivial_hom,
    validate_hom_z2,
)
from fspt.linalg import TOL, residual_norms, vec
from fspt.rep import pair

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PAULI_REP = {0: I2, 1: SZ, 2: SX, 3: SX @ SZ}  # projective rep of Z2 x Z2


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def in_span(basis_rows, mat, tol=TOL):
    """mat lies in the span of the orthonormal rows, relative to max(1, |mat|)."""
    row = vec(mat)
    return residual_norms(basis_rows, row)[0] <= tol * max(1.0, np.linalg.norm(row))


def adjoint_action(mat, flag, x):
    """V x V^-1 for one V = mat conj^flag: mat conj^flag(x) mat^dag, the reference for act_all."""
    return mat @ (np.conj(x) if flag else x) @ mat.conj().T


def per_element_implementer(v, op, flag=0):
    """The one-element Skolem-Noether step that algebra.implementers batches:
    W in M_N with V_a^dag op V_i^(flag) = W_ai M, and the residual of that
    factorization."""
    N, _, r = v.shape
    moved = op @ (np.conj(v) if flag else v)
    h = np.einsum("anx,iny->axiy", v.conj(), moved)
    weight = np.einsum("axiy->ai", np.abs(h) ** 2)
    l, k = np.unravel_index(np.argmax(weight), weight.shape)
    w = np.einsum("axby,xy->ab", h, h[l, :, k, :].conj()) / r
    w = w / np.sqrt(np.trace(w.conj().T @ w).real / N)
    mult = np.einsum("ab,axby->xy", w.conj(), h) / N
    return w, float(np.linalg.norm(h - np.einsum("ab,xy->axby", w, mult)))


def tr_group():
    z2 = cyclic(2)
    return z2, validate_hom_z2(z2, [0, 1])


def tr_system(kappa, mat, k_dim):
    """Anti-unitary Z2 system with V_1 = (mat, flag 1) in standard form."""
    z2, pid = tr_group()
    rep = ProjectiveRep(z2, pid, (pair(np.eye(2 * k_dim), 0), pair(mat, 1)))
    return (r1_system if kappa else r0_system)(rep, k_dim)


def tr_grid():
    """The eight time-reversal standard systems, keyed by their triple."""
    return {
        "[0;0,+]": tr_system(0, I2, 1),
        "[0;0,-]": tr_system(0, np.kron(SY, I2), 2),
        "[0;1,+]": tr_system(0, SX, 1),
        "[0;1,-]": tr_system(0, SY, 1),
        "[1;0,+]": tr_system(1, I2, 1),
        "[1;0,-]": tr_system(1, np.kron(SY, I2), 2),
        "[1;1,+]": tr_system(1, SY, 1),
        "[1;1,-]": tr_system(1, np.kron(SY, SY), 2),
    }


def unitary_system(group, p, kappa, mats, k_dim):
    rep = ProjectiveRep(group, p, tuple(pair(m, p(g)) for g, m in enumerate(mats)))
    return (r1_system if kappa else r0_system)(rep, k_dim)


def z2_trivial_grid():
    """kappa x q cells over Z2 with trivial twist (H^2 is trivial there)."""
    z2 = cyclic(2)
    p = trivial_hom(z2)
    grid = {}
    for kappa in (0, 1):
        changer = SX if kappa == 0 else SY
        for qv in (0, 1):
            mats = [I2, np.linalg.matrix_power(changer, qv)]
            grid[(kappa, qv)] = unitary_system(z2, p, kappa, mats, 1)
    return grid


def v4_trivial_grid():
    """All (kappa, q, class) cells over Z2 x Z2 with trivial twist."""
    v4 = klein()
    p = trivial_hom(v4)
    grid = {}
    for kappa in (0, 1):
        changer = SX if kappa == 0 else SY
        for qi, q in enumerate(all_z2_homs(v4)):
            powers = [np.linalg.matrix_power(changer, q(g)) for g in range(4)]
            grid[(kappa, qi, 0)] = unitary_system(v4, p, kappa, powers, 1)
            dressed = [np.kron(PAULI_REP[g], powers[g]) for g in range(4)]
            grid[(kappa, qi, 1)] = unitary_system(v4, p, kappa, dressed, 2)
    return grid


def dressed_grid(group, p, dressing):
    """(kappa, q index, dressed) cells over (G, p) at ambient 2 and 4.

    The q-carrier is sx (kappa 0) or sy (kappa 1) to the power q(g),
    conjugated where g is anti-unitary; dressed cells tensor it with the
    2-dim projective rep ``dressing`` on the left.
    """
    grid = {}
    for kappa in (0, 1):
        changer = SX if kappa == 0 else SY
        for qi, q in enumerate(all_z2_homs(group)):
            tails = []
            for g in group.elements():
                tail = np.linalg.matrix_power(changer, q(g))
                tails.append(np.conj(tail) if p(g) else tail)
            grid[(kappa, qi, 0)] = unitary_system(group, p, kappa, tails, 1)
            dressed = [np.kron(dressing[g], tails[g]) for g in group.elements()]
            grid[(kappa, qi, 1)] = unitary_system(group, p, kappa, dressed, 2)
    return grid


def twisted_klein_grid():
    """Klein group with p = [0, 1, 0, 1] and criterion 8's Pauli action."""
    v4 = klein()
    return dressed_grid(v4, validate_hom_z2(v4, [0, 1, 0, 1]), [I2, SZ, SX, SX @ SZ])


def d4_grid():
    """D4 dressed by s^f r^k -> S^f R^k, R the pi/4 rotation (R^4 = -1)."""
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    rep = [
        np.linalg.matrix_power(SZ, f) @ np.linalg.matrix_power(rot, k)
        for f in range(2)
        for k in range(4)
    ]
    d4 = dihedral(4)
    return dressed_grid(d4, trivial_hom(d4), rep)


def q8_grid():
    """Q8 dressed by its linear SU(2) rep on the units 1, -1, i, -i, j, -j, k, -k."""
    su2 = []
    for unit in (I2, -1j * SX, -1j * SY, -1j * SZ):
        su2.extend([unit, -unit])
    q8 = quaternion8()
    return dressed_grid(q8, trivial_hom(q8), su2)


# -- fermionic MPS fixtures --

def majorana_mps(sigma0=1):
    v = np.array([[[1.0]], [[1.0]]], dtype=complex) / np.sqrt(2.0)
    return odd_mps(1, v, sigma0=sigma0)


def even_mps_d1():
    """d=1, m=2 even state; subleading transfer eigenvalue 0.436."""
    a, b = np.sqrt(0.05), np.sqrt(0.95)
    v = np.stack(
        [np.diag([a, b]).astype(complex), np.array([[0, b], [a, 0]], complex)]
    )
    return even_mps(1, v, theta=SZ)


def even_mps_d2():
    """d=2, m=2 two-wire state with a Pauli-class bond symmetry."""
    al, be, ga, de = np.sqrt(0.4), np.sqrt(0.3), np.sqrt(0.2), np.sqrt(0.1)
    v = np.stack([al * I2, be * SX, ga * SY, de * SZ])
    return even_mps(2, v, theta=SZ)


def majorana_symmetry():
    """G = Z2 acting by the one-particle sign, bond action trivial."""
    z2 = cyclic(2)
    p = trivial_hom(z2)
    site = ProjectiveRep.build(z2, p, [np.eye(1), -np.eye(1)])
    bond = ProjectiveRep.build(z2, p, [np.eye(1), np.eye(1)])
    return OnSiteSymmetry(site, bond)


def even_d1_symmetry():
    """G = Z2 fermion parity; the bond action is the grading itself."""
    z2 = cyclic(2)
    p = trivial_hom(z2)
    site = ProjectiveRep.build(z2, p, [np.eye(1), -np.eye(1)])
    bond = ProjectiveRep.build(z2, p, [I2, SZ])
    return OnSiteSymmetry(site, bond)


def even_d2_symmetry():
    """G = Z2 x Z2 per-wire parities; bond action is the Pauli rep."""
    v4 = klein()
    p = trivial_hom(v4)
    site = ProjectiveRep.build(
        v4,
        p,
        [
            np.eye(2, dtype=complex),
            np.diag([1.0, -1.0]).astype(complex),
            np.diag([-1.0, 1.0]).astype(complex),
            -np.eye(2, dtype=complex),
        ],
    )
    bond = ProjectiveRep.build(v4, p, [I2, SX, SY, SZ])
    return OnSiteSymmetry(site, bond)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
