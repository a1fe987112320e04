"""Unit-modulus phases as value records.

A :class:`Phase` is either exact, stored as a root of unity exp(2*pi*i*k/N)
with canonical (k, N), or floating, stored as a unit complex number.  It
only carries a value: cocycles do their phase arithmetic and root-lattice
snapping on int64 exponent tables (see :mod:`fspt.cocycle`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd

from .errors import NotUnitPhase


@dataclass(frozen=True)
class Phase:
    """A complex number of modulus one, exact or floating."""

    k: int = 0
    N: int = 1
    z: complex | None = None  # set in floating mode only

    @staticmethod
    def exact(k: int, N: int) -> "Phase":
        if N <= 0:
            raise ValueError(f"root order must be positive, got {N}")
        k %= N
        g = gcd(k, N)
        if k == 0:
            return Phase(0, 1)
        return Phase(k // g, N // g)

    @staticmethod
    def one() -> "Phase":
        return _ONE

    @staticmethod
    def minus_one() -> "Phase":
        return _MINUS_ONE

    @staticmethod
    def from_complex(z: complex, tol: float = 1e-9) -> "Phase":
        z = complex(z)
        if abs(abs(z) - 1.0) > tol:
            raise NotUnitPhase(f"|z| = {abs(z):.3e} deviates from 1 beyond {tol:.1e}")
        return Phase(0, 0, z / abs(z))

    @staticmethod
    def coerce(value, tol: float = 1e-9) -> "Phase":
        """Accept a Phase, an int (+1/-1) or a complex number; NotUnitPhase otherwise."""
        if isinstance(value, Phase):
            return value
        if isinstance(value, int) and value in (1, -1):
            return _ONE if value == 1 else _MINUS_ONE
        try:  # value + 0 refuses str and bytes, which complex() would parse
            return Phase.from_complex(complex(value + 0), tol)
        except (TypeError, ValueError, OverflowError):
            raise NotUnitPhase(f"{value!r:.80} is not a number") from None

    @property
    def value(self) -> complex:
        if self.z is not None:
            return self.z
        if self.N == 1:
            return 1.0 + 0.0j
        if 2 * self.k == self.N:
            return -1.0 + 0.0j
        return cmath.exp(2j * math.pi * self.k / self.N)

    def close_to(self, other: "Phase", tol: float = 1e-9) -> bool:
        if self.z is None and other.z is None:
            return (self.k, self.N) == (other.k, other.N)
        return abs(self.value - other.value) <= tol

    def is_one(self, tol: float = 1e-9) -> bool:
        return self.close_to(Phase.one(), tol)

    def __repr__(self) -> str:
        if self.z is None:
            if self.N == 1:
                return "Phase(1)"
            if self.N == 2:
                return "Phase(-1)"
            return f"Phase(exp(2pi i {self.k}/{self.N}))"
        return f"Phase({self.z:.6g})"


_ONE, _MINUS_ONE = Phase(0, 1), Phase(1, 2)  # frozen, so shared safely
