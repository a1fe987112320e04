"""Twisted U(1)-valued 2-cocycles on finite groups and their cohomology.

An exact cocycle is an int64 exponent table on N-th roots of unity; a table
with any floating entry is complex128 and checked with tolerance ``tol`` on
every triple.  Elements g with twist p(g) = 1 act by complex conjugation.

Equivalence is decided exactly: phases are snapped onto a root lattice Z_M
and the coboundary condition becomes linear congruences mod M, whose matrix
is eliminated once per (G, p, M); one product solves each right-hand side.
|G| annihilates H^n(G, U(1)_p) (Brown, Cohomology of Groups, III.10), so for
exact inputs the default modulus is complete and a False verdict is final;
otherwise it holds only relative to Z_M.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import (
    CocycleIdentityFails,
    MismatchedGroup,
    NotNormalized,
    NotProjectiveRep,
    NotRootOfUnity,
    NotUnitPhase,
    SizeTooLarge,
)
from .group import FiniteGroup, Z2Hom, trivial_hom
from .linalg import TOL
from .phase import Phase
from .rep import ProjectiveRep
from .smith import Elimination, eliminate

SNAP_TOL = 1e-8  # cohomologous, index_equal, z8_encode: the largest |v - root| snapped
GAUGE_SNAP_TOL = 1e-6  # snap_cocycle: the same for cocycles of det-gauged implementers


def _check_order(N: int, what: str = "common root order") -> None:
    if 4 * N >= 2**63:  # the four-term defect of exponents below N must fit int64
        raise SizeTooLarge(f"{what} {N} is too large for int64 exponent arithmetic")


def _roots(k: np.ndarray, N: int) -> np.ndarray:
    """exp(2 pi i k / N), with -1 exact as in Phase.value."""
    z = np.exp(2j * np.pi * (k / N))
    z[2 * k == N] = -1.0
    return z


def _pack(values, shape: tuple, tol: float) -> tuple[np.ndarray, int]:
    """(int64 exponents, N) of exact phases on their lcm order N, else (complex128, 0).

    Rows are read one axis at a time, arrays through ``tolist`` (int +-1 stay exact)."""
    if isinstance(values, np.ndarray):
        if values.shape != shape:
            raise NotNormalized(f"expected a {' x '.join(map(str, shape))} table")
        if values.dtype == np.complex128:
            size = np.abs(values)
            if (off := np.abs(size - 1.0) > tol).any():
                raise NotUnitPhase(f"|z| = {size[off][0]:.3e} deviates from 1 beyond {tol:.1e}")
            return values / size, 0
    flat = [values]
    for n in shape:  # the rows of each axis, then the entries
        flat = [r.tolist() if isinstance(r, np.ndarray) else r for r in flat]
        if not all(isinstance(r, (list, tuple)) and len(r) == n for r in flat):
            raise NotNormalized(f"expected a {' x '.join(map(str, shape))} table")
        flat = [x for r in flat for x in r]
    phases = [x if isinstance(x, Phase) else Phase.coerce(x, tol) for x in flat]
    if any(p.z is not None for p in phases):
        return np.array([p.value for p in phases], dtype=complex).reshape(shape), 0
    N = lcm(*{p.N for p in phases})
    _check_order(N)
    return np.array([p.k * (N // p.N) for p in phases], dtype=np.int64).reshape(shape), N


@dataclass(frozen=True, eq=False)
class TwistedCocycle:
    """A table v: G x G -> U(1) satisfying the p-twisted cocycle identity.

    ``table`` holds int64 exponents on the N-th roots, or complex128 values
    with N = 0; :func:`validate_cocycle` reads any other table.
    """

    group: FiniteGroup
    twist: Z2Hom
    table: np.ndarray
    N: int = 0

    @property
    def n(self) -> int:
        return self.group.n

    def __call__(self, g: int, h: int) -> Phase:
        if self.N:
            return Phase.exact(int(self.table[g, h]), self.N)
        return Phase(0, 0, complex(self.table[g, h]))

    @property
    def is_exact(self) -> bool:
        return self.N > 0

    def values(self) -> np.ndarray:
        """The complex128 table of all entries."""
        return _roots(self.table, self.N) if self.N else self.table

    def close_to(self, other: "TwistedCocycle", tol: float = 1e-9) -> bool:
        if self.is_exact and other.is_exact:  # equal as reduced fractions k/N
            g1, g2 = np.gcd(self.table, self.N), np.gcd(other.table, other.N)
            same = np.array_equal(self.table // g1, other.table // g2)
            return same and np.array_equal(self.N // g1, other.N // g2)
        return bool(np.all(np.abs(self.values() - other.values()) <= tol))


def _exact(group, twist, table, N: int) -> TwistedCocycle:
    """The exact cocycle with these exponents, N reduced to the lcm of orders."""
    table = np.asarray(table, dtype=np.int64) % N
    g = int(np.gcd.reduce(table.ravel(), initial=N))
    return TwistedCocycle(group, twist, table // g, N // g)


def _checked(u: TwistedCocycle, tol: float = 1e-9) -> TwistedCocycle:
    """Check normalization, then the twisted identity on every (f,g,h) at once."""
    a, T, e = u.table, u.group.table, u.group.identity
    ones = a == 0 if u.N else np.abs(a - 1.0) <= tol
    bad = ~(ones[e, :] & ones[:, e])
    if bad.any():
        g = int(np.argmax(bad))
        raise NotNormalized(f"v(e,{g}) or v({g},e) differs from 1")
    if u.N:
        s = (1 - 2 * u.twist.values)[:, None, None]  # (-1)^p(f) acting on exponents
        fails = (s * a[None] + a[:, T] - a[:, :, None] - a[T]) % u.N != 0
    else:
        flip = (u.twist.values == 1)[:, None, None]
        num = np.where(flip, a.conj()[None], a[None]) * a[:, T]
        fails = ~(np.abs(num * (a[:, :, None] * a[T]).conj() - 1.0) <= tol)
    if fails.any():
        f, g, h = (int(i) for i in np.argwhere(fails)[0])
        raise CocycleIdentityFails(
            f"twisted cocycle identity fails at (f,g,h)=({f},{g},{h})"
        )
    return u


def validate_cocycle(
    group: FiniteGroup, twist: Z2Hom, values, tol: float = 1e-9
) -> TwistedCocycle:
    """Check normalization and the twisted 2-cocycle identity."""
    if not twist.group.same_as(group):
        raise MismatchedGroup("twist lives on a different group")
    table, N = _pack(values, (group.n, group.n), tol)
    return _checked(TwistedCocycle(group, twist, table, N), tol)


def trivial_cocycle(group: FiniteGroup, twist: Z2Hom | None = None) -> TwistedCocycle:
    twist = twist if twist is not None else trivial_hom(group)
    return TwistedCocycle(group, twist, np.zeros((group.n, group.n), dtype=np.int64), 1)


def epsilon(q1: Z2Hom, q2: Z2Hom, twist: Z2Hom | None = None) -> TwistedCocycle:
    """The sign cocycle (g,h) -> (-1)^(q1(g) q2(h)); a cocycle for any twist."""
    return epsilon_p(0, q1, 0, q2, twist if twist is not None else trivial_hom(q1.group))


def epsilon_p(
    k1: int, q1: Z2Hom, k2: int, q2: Z2Hom, p: Z2Hom
) -> TwistedCocycle:
    """Correction cocycle of the stacking group law.

    (g,h) -> (-1)^( q1(g) q2(h) + (k1-k2)(k1 q2(g) + k2 q1(g)) p(h) ), where
    only the parity of k1 - k2 matters.
    """
    if not (q1.group.same_as(q2.group) and q1.group.same_as(p.group)):
        raise MismatchedGroup("homomorphisms live on different groups")
    k1, k2 = int(k1) % 2, int(k2) % 2
    dk = abs(k1 - k2)
    expo = np.outer(q1.values, q2.values) + np.outer(
        dk * (k1 * q2.values + k2 * q1.values), p.values
    )
    return _exact(q1.group, p, expo, 2)


def cocycle_product(u1: TwistedCocycle, u2: TwistedCocycle) -> TwistedCocycle:
    if not u1.group.same_as(u2.group) or not u1.twist.same_as(u2.twist):
        raise MismatchedGroup("cocycles must share group and twist")
    if not (u1.is_exact and u2.is_exact):
        return _checked(TwistedCocycle(u1.group, u1.twist, u1.values() * u2.values()))
    N = lcm(u1.N, u2.N)
    _check_order(N)
    table = u1.table * (N // u1.N) + u2.table * (N // u2.N)
    return _checked(_exact(u1.group, u1.twist, table, N))


def _coboundary_exponents(x: np.ndarray, group: FiniteGroup, twist: Z2Hom) -> np.ndarray:
    """x_g + (-1)^p(g) x_h - x_gh, the twisted coboundary in exponents.

    Trailing axes of x ride along: the identity matrix gives the map's matrix."""
    s = (1 - 2 * twist.values).reshape((-1,) + (1,) * x.ndim)
    return x[:, None] + s * x[None, :] - x[group.table]


def coboundary(b, group: FiniteGroup, twist: Z2Hom) -> TwistedCocycle:
    """The twisted coboundary (g,h) -> b(g) conj^p(g)(b(h)) b(gh)^-1."""
    x, N = _pack(b, (group.n,), 1e-9)
    e = group.identity
    if not (x[e] == 0 if N else abs(x[e] - 1.0) <= 1e-9):
        raise NotNormalized("coboundary 1-cochain must have b(e) = 1")
    if N:
        return _checked(_exact(group, twist, _coboundary_exponents(x, group, twist), N))
    xh = np.where((twist.values == 1)[:, None], x.conj()[None, :], x[None, :])
    return _checked(TwistedCocycle(group, twist, x[:, None] * xh * x[group.table].conj()))


@dataclass(frozen=True, eq=False)
class CocycleWitness:
    """A 1-cochain b with b(e) = 1 whose twisted coboundary maps u1 to u2."""

    group: FiniteGroup
    twist: Z2Hom
    modulus: int
    b: tuple[Phase, ...]

    def verify(
        self, u1: TwistedCocycle, u2: TwistedCocycle, tol: float = 1e-9
    ) -> bool:
        shifted = cocycle_product(u1, coboundary(self.b, self.group, self.twist))
        return shifted.close_to(u2, tol)


def default_modulus(*cocycles: TwistedCocycle) -> int:
    """|G| lcm(2, exact root orders), a complete lattice for exact cocycles."""
    return cocycles[0].n * lcm(2, *(u.N for u in cocycles if u.is_exact))


def _on_lattice(u: TwistedCocycle, modulus: int, tol: float, error: str) -> np.ndarray:
    """Exponents of u on the modulus-th roots; NotRootOfUnity(error) if off by > tol."""
    _check_order(modulus, "root lattice modulus")
    if u.is_exact and modulus % u.N == 0:
        return u.table * (modulus // u.N)
    z = u.values()
    k = np.rint(np.angle(z) / (2 * np.pi) * modulus).astype(np.int64) % modulus
    off = np.abs(_roots(k, modulus) - z) > tol
    if off.any():
        g, h = (int(i) for i in np.argwhere(off)[0])
        raise NotRootOfUnity(error.format(g=g, h=h, value=u(g, h).value))
    return k


@lru_cache(maxsize=128)
def _coboundary_elimination(twist: Z2Hom, modulus: int) -> Elimination:
    """The twisted coboundary matrix of (G, p) eliminated mod M; keyed by value."""
    n = twist.group.n
    A = _coboundary_exponents(np.eye(n, dtype=np.int64), twist.group, twist)
    return eliminate(A.reshape(n * n, n), modulus)


def cohomologous(
    u1: TwistedCocycle, u2: TwistedCocycle, modulus: int | None = None
) -> tuple[bool, CocycleWitness | None]:
    """Decide u2 = u1 * (twisted coboundary of b) with b on the Z_M lattice.

    In exponent space the condition reads, for every pair (g, h),

        x_g + (-1)^p(g) x_h - x_gh  =  a2(g,h) - a1(g,h)   (mod M),

    solved exactly: the cached elimination proposes x, A x = c (mod M) decides.
    A False verdict on exact inputs at the default modulus is final, else lattice-relative.
    """
    if not u1.group.same_as(u2.group) or not u1.twist.same_as(u2.twist):
        raise MismatchedGroup("cocycles must share group and twist")
    group, p = u1.group, u1.twist
    m = modulus if modulus is not None else default_modulus(u1, u2)
    error = ("v({g},{h}) = {value:.12g} does not lie on the "
             f"{m}-th root lattice within {SNAP_TOL:.1e}")
    a1, a2 = (_on_lattice(u, m, SNAP_TOL, error) for u in (u1, u2))
    rhs = (a2 - a1) % m

    x = _coboundary_elimination(p, m).solve(rhs.ravel())
    if x is None:
        return False, None
    # the (e, h) equations read x_e = 0, so b(e) = 1 holds automatically
    assert x[group.identity] == 0
    b = tuple(Phase.exact(int(k), m) for k in x)
    return True, CocycleWitness(group, p, m, b)


def snap_cocycle(u: TwistedCocycle, modulus: int) -> TwistedCocycle:
    """Replace floating phases by exact points of the modulus-th root lattice."""
    error = "{value:.12g} is not a " + f"{modulus}-th root of unity within {GAUGE_SNAP_TOL:.1e}"
    return _checked(
        _exact(u.group, u.twist, _on_lattice(u, modulus, GAUGE_SNAP_TOL, error), modulus)
    )


def det_gauge_class(group: FiniteGroup, twist: Z2Hom, mats: np.ndarray) -> TwistedCocycle:
    """The exact cocycle of the projective (anti-)unitaries V_g = mats[g] K^p(g).

    One batched det rescales every V_g to det V_g = 1: the class stays, and
    every v(g,h)^N = 1, N = dim, so the values snap exactly onto the N-th roots.
    det^(1/N) fixes V_g only up to an N-th root of unity, so the class does
    not depend on the phases the V_g came with but the representative does:
    compare results with cohomologous, not entry by entry.
    """
    n = mats.shape[-1]
    gauged = mats / np.exp(np.log(np.linalg.det(mats)) / n)[:, None, None]
    gauged[group.identity] = np.eye(n)
    return snap_cocycle(cocycle_of_rep(ProjectiveRep.build(group, twist, gauged)), n)


def cocycle_of_rep(rep: ProjectiveRep) -> TwistedCocycle:
    """Extract v(g,h) from V_g V_h = v(g,h) V_gh.

    v(g,h) is read off as trace(V_g V_h (V_gh)^-1)/dim; the product must be
    scalar within linalg.TOL or the input is not a projective representation.
    """
    group, dim, M = rep.group, rep.dim, rep.mats
    # V_g V_h V_gh^-1 = M_g conj^p(g)(M_h) M_gh^dag for every (g, h) at once
    flip = (rep.twist.values == 1)[:, None, None, None]
    back = M[:, None] @ np.where(flip, M.conj()[None], M[None])
    back = back @ M[group.table].conj().swapaxes(-1, -2)
    lam = np.trace(back, axis1=-2, axis2=-1) / dim
    resid = np.linalg.norm(back - lam[..., None, None] * np.eye(dim), axis=(-2, -1))
    bad = resid > TOL * np.maximum(1.0, np.abs(lam)) * dim
    if bad.any():
        g, h = (int(i) for i in np.argwhere(bad)[0])
        raise NotProjectiveRep(f"V_{g} V_{h} (V_{g}{h})^-1 deviates from a scalar")
    return validate_cocycle(group, rep.twist, lam, tol=TOL)
