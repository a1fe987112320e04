"""Projective unitary/anti-unitary representations.

An operator is stored as a pair ``(matrix, flag)``: the linear part in the
standard basis, and flag 1 when the operator carries a complex conjugation
on the right (so the operator is M composed with entrywise conjugation).
All composition rules below follow from K M = conj(M) K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradingActionIndeterminate, InvalidSystem, NotUnitary
from .group import FiniteGroup, Z2Hom
from .linalg import sign_match

Pair = tuple[np.ndarray, int]


def pair(matrix, flag: int = 0) -> Pair:
    return np.asarray(matrix, dtype=complex), int(flag) % 2


def adjoint_action(a: Pair, x: np.ndarray) -> np.ndarray:
    """V x V^-1 for unitary/anti-unitary V; equals M conj^f(x) M^dag."""
    ma, fa = a
    return ma @ (np.conj(x) if fa else x) @ ma.conj().T


def conjugate_pair(t: np.ndarray, a: Pair) -> Pair:
    """T (M K^f) T^dag for a unitary T; matrix becomes T M T^t when f = 1."""
    ma, fa = a
    right = t.T if fa else t.conj().T
    return t @ ma @ right, fa


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    """g -> (matrix, flag) with flag pattern given by the twist p: G -> Z2."""

    group: FiniteGroup
    twist: Z2Hom
    ops: tuple[Pair, ...]

    def __post_init__(self):
        if len(self.ops) != self.group.n:
            raise InvalidSystem(
                f"need {self.group.n} operators, got {len(self.ops)}"
            )
        dim = self.ops[0][0].shape[0]
        for g, (m, f) in enumerate(self.ops):
            if m.shape != (dim, dim):
                raise InvalidSystem(f"operator {g} has shape {m.shape}")
            if f != self.twist(g):
                raise InvalidSystem(
                    f"flag of operator {g} is {f}, twist demands {self.twist(g)}"
                )
            if np.linalg.norm(m @ m.conj().T - np.eye(dim)) > 1e-9 * dim:
                raise NotUnitary(f"operator {g} is not unitary within 1e-9")
        e = self.group.identity
        if np.linalg.norm(self.ops[e][0] - np.eye(dim)) > 1e-8 * dim:
            raise InvalidSystem("operator at the identity must be the identity")

    @staticmethod
    def build(group: FiniteGroup, twist: Z2Hom, matrices) -> "ProjectiveRep":
        ops = tuple(pair(m, twist(g)) for g, m in enumerate(matrices))
        return ProjectiveRep(group, twist, ops)

    @property
    def dim(self) -> int:
        return self.ops[0][0].shape[0]

    def op(self, g: int) -> Pair:
        return self.ops[g]

    def act(self, g: int, x: np.ndarray) -> np.ndarray:
        return adjoint_action(self.ops[g], x)

    def sign_character(self, x: np.ndarray, error: str) -> list[int]:
        """s(g) in {0, 1} with V_g x V_g^-1 = (-1)^s(g) x for every g.

        GradingActionIndeterminate(error with {g} filled in) at the first g
        that sends x to neither +/- x."""
        signs = []
        for g in self.group.elements():
            s = sign_match(self.act(g, x), x)
            if s is None:
                raise GradingActionIndeterminate(error.format(g=g))
            signs.append(s)
        return signs

    def rescaled(self, phases) -> "ProjectiveRep":
        """Gauge change g -> lambda(g) V_g; phases[identity] must be 1."""
        ops = tuple(
            (complex(lam) * m, f) for lam, (m, f) in zip(phases, self.ops)
        )
        return ProjectiveRep(self.group, self.twist, ops)

    def conjugated(self, t: np.ndarray) -> "ProjectiveRep":
        ops = tuple(conjugate_pair(t, o) for o in self.ops)
        return ProjectiveRep(self.group, self.twist, ops)
