"""The SPT index, its stacking group law, and the time-reversal Z8 encoding.

An index is a triple (kappa, q, [v]) in Z2 x H^1(G, Z2) x H^2(G, U(1)_p).
Stacking two systems composes indices by the twisted sum

    (k1 + k2,  q1 + q2 + k1 k2 p,  [v1 v2 eps_p(k1, q1, k2, q2)]),

abelian but not a direct sum.  For the anti-unitary Z2 action the triple
collapses to [kappa; eps, sign] and the law generates a cyclic group of
order eight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import (
    SNAP_TOL,
    TwistedCocycle,
    cocycle_product,
    cohomologous,
    epsilon_p,
    trivial_cocycle,
    validate_cocycle,
)
from .errors import GroupMismatch, NotTimeReversalShape
from .group import Z2Hom, trivial_hom


@dataclass(frozen=True, eq=False)
class SPTIndex:
    """(kappa, q, cohomology class) with the class held as a representative."""

    kappa: int
    q: Z2Hom
    cls: TwistedCocycle

    @property
    def group(self):
        return self.cls.group

    @property
    def twist(self) -> Z2Hom:
        return self.cls.twist

    def __repr__(self) -> str:
        return f"SPTIndex(kappa={self.kappa}, q={list(self.q.values)}, cls=...)"


def trivial_index(group, twist: Z2Hom | None = None) -> SPTIndex:
    twist = twist if twist is not None else trivial_hom(group)
    return SPTIndex(0, trivial_hom(group), trivial_cocycle(group, twist))


def _check_compatible(i1: SPTIndex, i2: SPTIndex):
    if not i1.group.same_as(i2.group) or not i1.twist.same_as(i2.twist):
        raise GroupMismatch("indices live on different (G, p)")


def stack_index(i1: SPTIndex, i2: SPTIndex) -> SPTIndex:
    """Compose two indices by the twisted stacking law."""
    _check_compatible(i1, i2)
    p = i1.twist
    kappa = (i1.kappa + i2.kappa) % 2
    q = i1.q.plus(i2.q)
    if i1.kappa and i2.kappa:
        q = q.plus(p)
    correction = epsilon_p(i1.kappa, i1.q, i2.kappa, i2.q, p)
    cls = cocycle_product(cocycle_product(i1.cls, i2.cls), correction)
    return SPTIndex(kappa, q, cls)


def index_equal(i1: SPTIndex, i2: SPTIndex, modulus: int | None = None) -> bool:
    """Componentwise equality; the classes are compared up to coboundary."""
    _check_compatible(i1, i2)
    if i1.kappa % 2 != i2.kappa % 2 or not i1.q.same_as(i2.q):
        return False
    ok, _ = cohomologous(i1.cls, i2.cls, modulus=modulus)
    return ok


# -- the anti-unitary Z2 (time-reversal) encoding --

@dataclass(frozen=True)
class Z8Element:
    """[kappa; eps, sign] with sign in {+1, -1}."""

    kappa: int
    eps: int
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1) or self.kappa not in (0, 1) or self.eps not in (0, 1):
            raise NotTimeReversalShape(f"malformed triple {self}")

    def __str__(self) -> str:
        return f"[{self.kappa};{self.eps},{'+' if self.sign == 1 else '-'}]"


Z8_IDENTITY = Z8Element(0, 0, 1)
Z8_GENERATOR = Z8Element(1, 0, 1)


def z8_encode(index: SPTIndex) -> Z8Element:
    """Collapse an index on anti-unitary Z2 to its [kappa; eps, sign] triple."""
    group = index.group
    if group.n != 2 or index.twist(1) != 1:
        raise NotTimeReversalShape("requires G = Z2 with p(1) = 1")
    v = complex(index.cls.values()[1, 1])
    sign = 1 if v.real > 0 else -1
    if abs(v - sign) > SNAP_TOL:
        raise NotTimeReversalShape(f"class value v(1,1) = {v:.6g} is not a sign")
    return Z8Element(index.kappa % 2, index.q(1), sign)


def z8_compose(a: Z8Element, b: Z8Element) -> Z8Element:
    """The three composition rules of the time-reversal stacking law."""
    if a.kappa == 0 and b.kappa == 0:
        return Z8Element(0, (a.eps + b.eps) % 2, (-1) ** (a.eps * b.eps) * a.sign * b.sign)
    if a.kappa == 0 and b.kappa == 1:
        return Z8Element(
            1, (a.eps + b.eps) % 2, (-1) ** (a.eps + a.eps * b.eps) * a.sign * b.sign
        )
    if a.kappa == 1 and b.kappa == 0:
        return z8_compose(b, a)  # the law is abelian
    return Z8Element(
        0, (a.eps + b.eps + 1) % 2, (-1) ** (a.eps * b.eps) * a.sign * b.sign
    )


def z8_elements() -> list[Z8Element]:
    """All eight triples, listed as consecutive powers of the generator."""
    out = [Z8_IDENTITY]
    for _ in range(7):
        out.append(z8_compose(out[-1], Z8_GENERATOR))
    return out


def z8_decode(e: Z8Element, group, twist: Z2Hom) -> SPTIndex:
    """A representative index with the given triple, on (Z2, p = id)."""
    if group.n != 2 or twist(1) != 1:
        raise NotTimeReversalShape("requires G = Z2 with p(1) = 1")
    cls = validate_cocycle(group, twist, [[1, 1], [1, int(e.sign)]])
    return SPTIndex(e.kappa, Z2Hom(group, np.array([0, e.eps])), cls)
