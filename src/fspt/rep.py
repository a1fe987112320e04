"""Projective unitary/anti-unitary representations.

The operator V_g is M_g composed with entrywise complex conjugation where
the twist has p(g) = 1; all composition rules below follow from
K M = conj(M) K.  A representation holds only the stacked linear parts
M_g, one (|G|, n, n) array, and answers each per-element question
(unitarity, action, sign character) in one batched call.  Input given as
(matrix, flag) pairs is checked against the twist and then stacked.
"""

from __future__ import annotations

import numpy as np

from .errors import GradingActionIndeterminate, InvalidSystem, NotUnitary
from .group import FiniteGroup, Z2Hom
from .linalg import TOL


def pair(matrix, flag: int = 0) -> tuple[np.ndarray, int]:
    return np.asarray(matrix, dtype=complex), int(flag)


class ProjectiveRep:
    """g -> M_g conj^p(g), p the twist; ``mats`` stacks the M_g."""

    def __init__(self, group: FiniteGroup, twist: Z2Hom, pairs):
        """From one (matrix, flag) pair per element, each flag the twist's."""
        if len(pairs) != group.n:
            raise InvalidSystem(f"need {group.n} operators, got {len(pairs)}")
        dim = pairs[0][0].shape[0]
        for g, (m, f) in enumerate(pairs):
            if m.shape != (dim, dim):
                raise InvalidSystem(f"operator {g} has shape {m.shape}")
            if f != twist(g):
                raise InvalidSystem(f"flag of operator {g} is {f}, twist demands {twist(g)}")
        self._hold(group, twist, np.stack([np.asarray(m, dtype=complex) for m, _ in pairs]))

    @classmethod
    def build(cls, group: FiniteGroup, twist: Z2Hom, stack) -> "ProjectiveRep":
        """From the (|G|, n, n) stack of the M_g; the flags are the twist's."""
        rep = cls.__new__(cls)
        rep._hold(group, twist, np.array(stack, dtype=complex))
        return rep

    def _hold(self, group: FiniteGroup, twist: Z2Hom, mats: np.ndarray):
        """Keep the stack once every M_g is unitary and M at the identity is 1."""
        dim = mats.shape[-1]
        if mats.shape != (group.n, dim, dim):
            raise InvalidSystem(f"need {group.n} operators, got an array of shape {mats.shape}")
        # an entry beyond modulus 1 + 1e-9 dim breaks M M^dag = 1 and could overflow it: M -> 0
        small = np.where((np.abs(mats) <= 1 + 1e-9 * dim).all(axis=(1, 2), keepdims=True), mats, 0)
        gram = small @ small.conj().swapaxes(-1, -2) - np.eye(dim)
        if (bad := ~(np.linalg.norm(gram, axis=(-2, -1)) <= 1e-9 * dim)).any():
            raise NotUnitary(f"operator {int(np.argmax(bad))} is not unitary within 1e-9")
        if np.linalg.norm(mats[group.identity] - np.eye(dim)) > 1e-8 * dim:
            raise InvalidSystem("operator at the identity must be the identity")
        self.group, self.twist, self.mats = group, twist, mats

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]

    def act_all(self, x: np.ndarray) -> np.ndarray:
        """V_g conj^p(g)(x) V_g^dag for every g: shape (|G|,) + x.shape, x may have leading axes."""
        x = np.asarray(x, dtype=complex)
        m = np.expand_dims(self.mats, tuple(range(1, x.ndim - 1)))
        flip = (self.twist.values == 1).reshape((-1,) + (1,) * x.ndim)
        return m @ np.where(flip, np.conj(x), x) @ m.conj().swapaxes(-1, -2)

    def sign_character(self, x: np.ndarray, error: str) -> list[int]:
        """s(g) in {0, 1} with V_g x V_g^-1 = (-1)^s(g) x for every g (sign_match's cut).

        GradingActionIndeterminate(error with {g} filled in) at the first g
        that sends x to neither +/- x."""
        moved = self.act_all(x)
        cut = TOL * max(1.0, float(np.linalg.norm(x)))
        plus = np.linalg.norm(moved - x, axis=(-2, -1)) <= cut
        minus = np.linalg.norm(moved + x, axis=(-2, -1)) <= cut
        if not (plus | minus).all():
            raise GradingActionIndeterminate(error.format(g=int(np.argmin(plus | minus))))
        return (~plus).astype(int).tolist()

    def rescaled(self, phases) -> "ProjectiveRep":
        """Gauge change g -> lambda(g) V_g; phases[identity] must be 1."""
        lam = np.asarray(phases, dtype=complex)[:, None, None]
        return ProjectiveRep.build(self.group, self.twist, lam * self.mats)

    def conjugated(self, t: np.ndarray) -> "ProjectiveRep":
        """T V_g T^dag; the matrix becomes T M T^t where V_g is anti-unitary."""
        right = np.where((self.twist.values == 1)[:, None, None], t.T, t.conj().T)
        return ProjectiveRep.build(self.group, self.twist, t @ self.mats @ right)
