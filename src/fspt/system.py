"""Graded symmetry systems, their classification, and stacking.

A :class:`GradedSystem` is the finite-dimensional avatar of a balanced,
central, type-I graded dynamical system: a *-algebra with an ambient
grading unitary and a projective (anti-)unitary group action compatible
with the grading.  One randomized decomposition of the algebra into
matrix units answers every question: Ad_Gamma permutes its simple blocks,
the even center counts the orbits and the odd center the swapped pairs.
One block gives kappa = 0 with marker the in-algebra grading implementer,
balanced when its trace vanishes; two swapped blocks give kappa = 1 with
marker Q_1 - Q_2.  The index is read off closed-form implementers of the
action on the simple factor (all of A, or the even part for kappa = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    MAX_AMBIENT,
    OperatorAlgebra,
    algebra_closure,
    block_element,
    central_projection,
    full_matrix_algebra,
    graded_conjugate,
    graded_tensor_algebra,
    grading_permutation,
    grading_unitary,
    implementers,
    require_one_orbit,
)
from .cocycle import cocycle_of_rep
from .errors import (
    DimensionTooLarge,
    GroupMismatch,
    InvalidSystem,
    MarkerNotFound,
    NotBalanced,
)
from .group import FiniteGroup, Z2Hom, validate_hom_z2
from .invariant import SPTIndex
from .linalg import TOL, vec
from .rep import ProjectiveRep

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)


@dataclass(frozen=True, eq=False)
class GradedSystem:
    """(algebra, grading unitary, projective action) on a common space."""

    algebra: OperatorAlgebra
    gamma: np.ndarray
    action: ProjectiveRep
    form: str = "generators"

    def __post_init__(self):
        n = self.algebra.ambient
        g = np.asarray(self.gamma, dtype=complex)
        if g.shape != (n, n) or self.action.dim != n:
            raise InvalidSystem("grading/action dimensions do not match the algebra")
        if not linalg.is_selfadjoint_unitary(g, 1e-10):
            raise InvalidSystem("grading operator is not a self-adjoint unitary")
        self._validate_action()

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    @property
    def twist(self) -> Z2Hom:
        return self.action.twist

    def _validate_action(self):
        """The action must preserve the algebra and commute with the grading.

        Both conditions are multiplicative, so checking generators suffices:
        one act_all, one compression and one drift norm cover every (g, x).
        For V_g = M K^f the drift Gamma V x V^-1 Gamma - V Gamma x Gamma V^-1
        is M (Y x' Y^dag - Gamma' x' Gamma') M^dag with Y = M^dag Gamma M and
        x', Gamma' conjugated when f = 1.  InvalidSystem names the first g.
        """
        gens, gamma, m = self.algebra.generators, self.gamma, self.action.mats
        moved = self.action.act_all(gens)
        leaves = self.algebra.outside(moved.reshape(-1, *gens.shape[1:])).reshape(moved.shape[:2])
        xs, gs = np.stack([gens, gens.conj()]), np.stack([gamma, gamma.conj()])[:, None]
        y, f = (m.conj().swapaxes(-1, -2) @ gamma @ m)[:, None], self.twist.values
        drift = y @ xs[f] @ y.conj().swapaxes(-1, -2) - (gs @ xs @ gs)[f]
        size = TOL * np.maximum(1.0, np.linalg.norm(vec(moved), axis=-1))
        mixes = np.linalg.norm(vec(drift), axis=-1) > size
        g, first = np.unravel_index(np.argmax(leaves | mixes), leaves.shape)
        if leaves[g, first] or mixes[g, first]:
            what = "preserve the algebra" if leaves[g, first] else "commute with the grading"
            raise InvalidSystem(f"action of {g} does not {what}")

    def conjugated(self, t: np.ndarray) -> "GradedSystem":
        """Transport the whole system by a unitary t (an equivalence)."""
        return GradedSystem(
            algebra=self.algebra.conjugated(t),
            gamma=t @ self.gamma @ t.conj().T,
            action=self.action.conjugated(t),
            form="generators",
        )


def r0_system(action: ProjectiveRep, k_dim: int) -> GradedSystem:
    """Standard form with kappa = 0: all of M_{2K}, graded by 1_K (x) sigma_z."""
    if action.dim != 2 * k_dim:
        raise InvalidSystem(f"action dimension {action.dim} != 2 * {k_dim}")
    algebra = full_matrix_algebra(2 * k_dim)
    gamma = np.kron(np.eye(k_dim, dtype=complex), _SZ)
    return GradedSystem(algebra, gamma, action, form="R0")


def r1_system(action: ProjectiveRep, k_dim: int) -> GradedSystem:
    """Standard form with kappa = 1: B(K) (x) span{1, sigma_x}."""
    if action.dim != 2 * k_dim:
        raise InvalidSystem(f"action dimension {action.dim} != 2 * {k_dim}")
    gens = [np.kron(g, np.eye(2, dtype=complex)) for g in full_matrix_algebra(k_dim).generators]
    gens.append(np.kron(np.eye(k_dim, dtype=complex), _SX))
    # span{1, sigma_x} = C|+><+| (+) C|-><-|: units e_i (x) |+-> of two blocks
    plus_minus = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    units = tuple(np.kron(np.eye(k_dim), s)[:, :, None] for s in plus_minus[:, None, :])
    algebra = OperatorAlgebra(np.stack(gens), units, 2 * k_dim)
    gamma = np.kron(np.eye(k_dim, dtype=complex), _SZ)
    return GradedSystem(algebra, gamma, action, form="R1")


def system_from_generators(
    generators, gamma, action: ProjectiveRep
) -> GradedSystem:
    algebra = algebra_closure(generators)
    return GradedSystem(algebra, np.asarray(gamma, dtype=complex), action)


def classify(sys: GradedSystem) -> tuple[int, np.ndarray]:
    """Decide kappa and produce the marker unitary.

    kappa = 1: two blocks swapped by Ad_Gamma; the marker Q_1 - Q_2 spans
    the odd center.  kappa = 0: one block; the marker is the self-adjoint
    in-algebra implementer of the grading, which generates the even-part
    center.  Its trace is a multiple of the block multiplicity r and
    vanishes exactly when A holds an odd self-adjoint unitary.
    """
    # A^(1) = 0 exactly when every generator is even
    gens = vec(sys.algebra.generators)
    odd = np.linalg.norm(gens - vec(graded_conjugate(sys.algebra, sys.gamma)), axis=-1)
    if (odd <= TOL * np.maximum(1.0, np.linalg.norm(gens, axis=-1))).all():
        raise NotBalanced("trivially graded: no odd elements at all")
    blocks = sys.algebra.blocks
    require_one_orbit(grading_permutation(blocks, sys.gamma))
    if len(blocks) == 2:
        return 1, 2.0 * central_projection(blocks[0]) - np.eye(sys.algebra.ambient)

    v = blocks[0]
    marker = block_element(v, grading_unitary(v, sys.gamma))
    if abs(np.trace(marker)) > v.shape[2] / 2.0:
        raise NotBalanced("no odd self-adjoint unitary found in the algebra")
    return 0, marker


def compute_index(sys: GradedSystem) -> SPTIndex:
    """The (kappa, q, class) invariant of a graded system.

    The cohomology class is always read off implementers of the action on
    the abstract factor (all of M for kappa = 0, the even part for kappa =
    1, with units E_ij + Gamma E_ij Gamma, matching the reduced
    representation on K); this stays correct when the ambient realization
    carries multiplicity, e.g. after stacking.
    """
    kappa, marker = classify(sys)
    error = "action of {g} sends the marker to neither +/- itself"
    q = validate_hom_z2(sys.group, sys.action.sign_character(marker, error))
    v = sys.algebra.blocks[0]
    if kappa:
        v = np.concatenate([v, sys.gamma @ v], axis=-1)
    w, resid = implementers(v, sys.action.mats, sys.twist.values)
    if (bad := resid > TOL * v.shape[0]).any():
        g = int(np.argmax(bad))
        raise MarkerNotFound(f"implementer for {g} fails to reproduce the action ({resid[g]:.2e})")
    w[sys.group.identity] = np.eye(w.shape[-1])  # the action holds V_e within its own cut of 1
    return SPTIndex(kappa, q, cocycle_of_rep(ProjectiveRep.build(sys.group, sys.twist, w)))


def stack_systems(s1: GradedSystem, s2: GradedSystem) -> GradedSystem:
    """Graded tensor product of two systems over the same (G, p).

    The algebra is generated by the Koszul-signed products a (x)^ b; the
    action is implemented by V1_g (x) V2_g Gamma2^(nu1(g)), with nu1(g) the
    commutation sign of V1_g against Gamma1.
    """
    if not s1.group.same_as(s2.group) or not s1.twist.same_as(s2.twist):
        raise GroupMismatch("systems live on different (G, p)")
    n1, n2 = s1.algebra.ambient, s2.algebra.ambient
    if n1 * n2 > MAX_AMBIENT:
        raise DimensionTooLarge(f"ambient dimension {n1 * n2} exceeds {MAX_AMBIENT}")
    algebra = graded_tensor_algebra(s1.algebra, s1.gamma, s2.algebra, s2.gamma)

    error = "action of {g} sends the grading unitary to neither +/- itself"
    nu1 = np.array(s1.action.sign_character(s1.gamma, error))[:, None, None]
    gamma2 = np.where((s1.twist.values == 1)[:, None, None], np.conj(s2.gamma), s2.gamma)
    m2 = np.where(nu1 == 1, s2.action.mats @ gamma2, s2.action.mats)
    action = ProjectiveRep.build(s1.group, s1.twist, linalg.kron(s1.action.mats, m2))
    return GradedSystem(algebra, np.kron(s1.gamma, s2.gamma), action)
