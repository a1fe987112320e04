"""Projective unitary/anti-unitary representations.

An operator is stored as a pair ``(matrix, flag)``: the linear part in the
standard basis, and flag 1 when the operator carries a complex conjugation
on the right (so the operator is M composed with entrywise conjugation).
All composition rules below follow from K M = conj(M) K.  A representation
also stacks its matrices into one (|G|, n, n) array and answers each
per-element question (unitarity, action, sign character) in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GradingActionIndeterminate, InvalidSystem, NotUnitary
from .group import FiniteGroup, Z2Hom
from .linalg import TOL

Pair = tuple[np.ndarray, int]


def pair(matrix, flag: int = 0) -> Pair:
    return np.asarray(matrix, dtype=complex), int(flag) % 2


def adjoint_action(a: Pair, x: np.ndarray) -> np.ndarray:
    """V x V^-1 for unitary/anti-unitary V; equals M conj^f(x) M^dag."""
    ma, fa = a
    return ma @ (np.conj(x) if fa else x) @ ma.conj().T


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    """g -> (matrix, flag), flags given by the twist p: G -> Z2; ``mats`` stacks them."""

    group: FiniteGroup
    twist: Z2Hom
    ops: tuple[Pair, ...]
    mats: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.ops) != self.group.n:
            raise InvalidSystem(f"need {self.group.n} operators, got {len(self.ops)}")
        dim = self.ops[0][0].shape[0]
        for g, (m, f) in enumerate(self.ops):
            if m.shape != (dim, dim):
                raise InvalidSystem(f"operator {g} has shape {m.shape}")
            if f != self.twist(g):
                raise InvalidSystem(f"flag of operator {g} is {f}, twist demands {self.twist(g)}")
        mats = np.stack([np.asarray(m, dtype=complex) for m, _ in self.ops])
        # an entry beyond modulus 1 + 1e-9 dim breaks M M^dag = 1 and could overflow it: M -> 0
        small = np.where((np.abs(mats) <= 1 + 1e-9 * dim).all(axis=(1, 2), keepdims=True), mats, 0)
        gram = small @ small.conj().swapaxes(-1, -2) - np.eye(dim)
        if (bad := ~(np.linalg.norm(gram, axis=(-2, -1)) <= 1e-9 * dim)).any():
            raise NotUnitary(f"operator {int(np.argmax(bad))} is not unitary within 1e-9")
        if np.linalg.norm(mats[self.group.identity] - np.eye(dim)) > 1e-8 * dim:
            raise InvalidSystem("operator at the identity must be the identity")
        object.__setattr__(self, "mats", mats)

    @staticmethod
    def build(group: FiniteGroup, twist: Z2Hom, matrices) -> "ProjectiveRep":
        ops = tuple(pair(m, twist(g)) for g, m in enumerate(matrices))
        return ProjectiveRep(group, twist, ops)

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]

    def op(self, g: int) -> Pair:
        return self.ops[g]

    def act(self, g: int, x: np.ndarray) -> np.ndarray:
        return adjoint_action(self.ops[g], x)

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
