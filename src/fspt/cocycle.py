"""Twisted U(1)-valued 2-cocycles on finite groups and their cohomology.

A cocycle is an int64 exponent table on the N-th roots of unity.  A floating
table is checked within ``tol`` on every triple where it enters, then moved
within its class onto the |G|-th roots and snapped (:func:`read_cocycle`), so
every later step is exact.  Elements g with twist p(g) = 1 act by complex
conjugation.  Equivalence becomes linear congruences mod M on the root
lattice Z_M, eliminated once per (G, p, M).  |G| annihilates H^n(G, U(1)_p)
(Brown, Cohomology of Groups, III.10), so the default modulus is complete and
its False verdict is final; a chosen modulus answers for Z_M only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .errors import (
    CocycleIdentityFails,
    GroupMismatch,
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

# snap_cocycle: the largest |v - root| snapped.  A table passing the identity check at
# tol has every defect within tol; each normalized value is a |G|-th root of a product of
# |G| defects, so within tol (plus order-|G| ulps) of a |G|-th root.  At tol <= TOL on
# |G| <= 16 that is 100 times inside this cut, far inside half the root spacing, pi/16.
# A table snapped onto a chosen Z_M as it stands must lie on it within the same cut.
SNAP_TOL = 1e-6


def _check_order(N: int, what: str = "common root order") -> None:
    if 4 * N >= 2**63:  # the four-term defect of exponents below N must fit int64
        raise SizeTooLarge(f"{what} {N} is too large for int64 exponent arithmetic")


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

    ``table`` holds int64 exponents on the N-th roots, N >= 1 the lcm of the
    orders of the values; :func:`validate_cocycle` reads any other table.
    """

    group: FiniteGroup
    twist: Z2Hom
    table: np.ndarray
    N: int

    @property
    def n(self) -> int:
        return self.group.n

    def __call__(self, g: int, h: int) -> Phase:
        return Phase.exact(int(self.table[g, h]), self.N)

    def close_to(self, other: "TwistedCocycle") -> bool:
        """Equal entry by entry; both tables are in lowest terms."""
        return self.N == other.N and np.array_equal(self.table, other.table)


def _exact(group, twist, table, N: int) -> TwistedCocycle:
    """The exact cocycle with these exponents, N reduced to the lcm of orders."""
    table = np.asarray(table, dtype=np.int64) % N
    g = int(np.gcd.reduce(table.ravel(), initial=N))
    return TwistedCocycle(group, twist, table // g, N // g)


def _raise_first(group: FiniteGroup, ones: np.ndarray, fails: np.ndarray) -> None:
    """NotNormalized at the first g where v(e,g) or v(g,e) is not 1, else
    CocycleIdentityFails at the first (f,g,h) that fails."""
    bad = ~(ones[group.identity, :] & ones[:, group.identity])
    if bad.any():
        g = int(np.argmax(bad))
        raise NotNormalized(f"v(e,{g}) or v({g},e) differs from 1")
    if fails.any():
        f, g, h = (int(i) for i in np.argwhere(fails)[0])
        raise CocycleIdentityFails(f"twisted cocycle identity fails at (f,g,h)=({f},{g},{h})")


def _checked(u: TwistedCocycle) -> TwistedCocycle:
    """Check normalization, then the twisted identity on every (f,g,h) at once."""
    a, T = u.table, u.group.table
    s = (1 - 2 * u.twist.values)[:, None, None]  # (-1)^p(f) acting on exponents
    _raise_first(u.group, a == 0, (s * a[None] + a[:, T] - a[:, :, None] - a[T]) % u.N != 0)
    return u


def validate_cocycle(group: FiniteGroup, twist: Z2Hom, values, tol: float = 1e-9) -> TwistedCocycle:
    """Check normalization and the twisted 2-cocycle identity (see read_cocycle)."""
    return read_cocycle(group, twist, values, tol)[0]


def read_cocycle(
    group: FiniteGroup, twist: Z2Hom, values, tol: float = 1e-9, modulus: int | None = None
) -> tuple[TwistedCocycle, np.ndarray | None]:
    """The exact cocycle of a table, and the 1-cochain c that moved it (None if none did).

    A floating table z is checked within tol on every triple, then snapped as it stands onto
    the M-th roots, or with no modulus moved to z d(c), c(g)^|G| = 1/prod_k z(g,k): the twisted
    identity multiplied over k gives z^|G| = d(prod_k z(., k)), so z d(c) is on the |G|-th roots."""
    if not twist.group.same_as(group):
        raise GroupMismatch("twist lives on a different group")
    a, N = _pack(values, (group.n, group.n), tol)
    if N:
        return _checked(TwistedCocycle(group, twist, a, N)), None
    T = group.table
    num = np.where((twist.values == 1)[:, None, None], a.conj()[None], a[None]) * a[:, T]
    defect = num * (a[:, :, None] * a[T]).conj()
    _raise_first(group, np.abs(a - 1.0) <= tol, ~(np.abs(defect - 1.0) <= tol))
    if modulus:
        return snap_cocycle(group, twist, a, modulus), None
    phi = -np.angle(np.prod(a, axis=1)) / group.n  # c(g) = exp(i phi(g))
    moved = a * np.exp(1j * _coboundary_exponents(phi, group, twist))
    return snap_cocycle(group, twist, moved, group.n), np.exp(1j * phi)


def snap_cocycle(group: FiniteGroup, twist: Z2Hom, z: np.ndarray, modulus: int) -> TwistedCocycle:
    """The exact cocycle on the modulus-th roots nearest z; NotRootOfUnity beyond SNAP_TOL."""
    k = np.rint(np.angle(z) * (modulus / (2 * np.pi))).astype(np.int64) % modulus
    off = np.abs(np.exp(2j * np.pi * k / modulus) - z)
    if (bad := off > SNAP_TOL).any():
        g, h = (int(i) for i in np.argwhere(bad)[0])
        raise NotRootOfUnity(f"v({g},{h}) lies {off[g, h]:.1e} from the {modulus}-th roots "
                             f"(after any normalization), beyond {SNAP_TOL:.1e}")
    return _checked(_exact(group, twist, k, modulus))


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
        raise GroupMismatch("homomorphisms live on different groups")
    k1, k2 = int(k1) % 2, int(k2) % 2
    dk = abs(k1 - k2)
    expo = np.outer(q1.values, q2.values) + np.outer(
        dk * (k1 * q2.values + k2 * q1.values), p.values
    )
    return _exact(q1.group, p, expo, 2)


def cocycle_product(u1: TwistedCocycle, u2: TwistedCocycle) -> TwistedCocycle:
    if not u1.group.same_as(u2.group) or not u1.twist.same_as(u2.twist):
        raise GroupMismatch("cocycles must share group and twist")
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
    """The twisted coboundary (g,h) -> b(g) conj^p(g)(b(h)) b(gh)^-1.

    A floating b gives a floating table, validated and snapped like any other."""
    x, N = _pack(b, (group.n,), 1e-9)
    e = group.identity
    if not (x[e] == 0 if N else abs(x[e] - 1.0) <= 1e-9):
        raise NotNormalized("coboundary 1-cochain must have b(e) = 1")
    if N:
        return _checked(_exact(group, twist, _coboundary_exponents(x, group, twist), N))
    xh = np.where((twist.values == 1)[:, None], x.conj()[None, :], x[None, :])
    return validate_cocycle(group, twist, x[:, None] * xh * x[group.table].conj())


@dataclass(frozen=True, eq=False)
class CocycleWitness:
    """A 1-cochain b with b(e) = 1 whose twisted coboundary maps u1 to u2."""

    group: FiniteGroup
    twist: Z2Hom
    modulus: int
    b: tuple[Phase, ...]

    def verify(self, u1: TwistedCocycle, u2: TwistedCocycle) -> bool:
        return cocycle_product(u1, coboundary(self.b, self.group, self.twist)).close_to(u2)


def default_modulus(*cocycles: TwistedCocycle) -> int:
    """|G| lcm(2, root orders), a complete lattice."""
    return cocycles[0].n * lcm(2, *(u.N for u in cocycles))


def _on_lattice(u: TwistedCocycle, modulus: int) -> np.ndarray:
    """Exponents of u on the modulus-th roots; NotRootOfUnity where k/N is off Z_M."""
    _check_order(modulus, "root lattice modulus")
    if modulus % u.N == 0:
        return u.table * (modulus // u.N)
    g = gcd(u.N, modulus)  # k/N lies on Z_M exactly when N/g divides k
    if (off := u.table % (u.N // g) != 0).any():
        x, y = (int(i) for i in np.argwhere(off)[0])
        raise NotRootOfUnity(f"v({x},{y}) = {u(x, y)} does not lie on the {modulus}-th roots")
    return u.table // (u.N // g) * (modulus // g)


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
    A False verdict at the default modulus is final; at a chosen M it is about Z_M.
    """
    if not u1.group.same_as(u2.group) or not u1.twist.same_as(u2.twist):
        raise GroupMismatch("cocycles must share group and twist")
    group, p = u1.group, u1.twist
    m = modulus if modulus is not None else default_modulus(u1, u2)
    rhs = (_on_lattice(u2, m) - _on_lattice(u1, m)) % m

    x = _coboundary_elimination(p, m).solve(rhs.ravel())
    if x is None:
        return False, None
    # the (e, h) equations read x_e = 0, so b(e) = 1 holds automatically
    assert x[group.identity] == 0
    b = tuple(Phase.exact(int(k), m) for k in x)
    return True, CocycleWitness(group, p, m, b)


def cocycle_of_rep(rep: ProjectiveRep) -> TwistedCocycle:
    """Extract v(g,h) from V_g V_h = v(g,h) V_gh, exactly.

    v(g,h) is read off as trace(V_g V_h (V_gh)^-1)/dim, with V_e read as 1;
    the product must be scalar within linalg.TOL or the input is not a
    projective representation.  The table is validated within TOL and snapped.
    """
    group, dim, M = rep.group, rep.dim, rep.mats.copy()
    M[group.identity] = np.eye(dim)  # ProjectiveRep holds it within a cut of 1
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
