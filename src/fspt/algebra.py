"""Finite-dimensional operator *-algebras with a Z2 grading.

The central object is :class:`OperatorAlgebra`: an orthonormal basis of a
unital *-subalgebra of M_n together with a small generating set.  On top of
it live the Koszul-signed tensor product, commutants as nullspace problems,
centers, graded splittings and the search for distinguished self-adjoint
unitaries (odd central elements, internal grading implementers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CentralityViolation,
    DegreeUntagged,
    DimensionTooLarge,
    MarkerNotFound,
    NotGraded,
)
from . import linalg
from .linalg import onb_rows, unvec, vec

MAX_AMBIENT = 64


@dataclass(frozen=True, eq=False)
class OperatorAlgebra:
    """Unital *-closed subalgebra of M_n.

    ``basis`` is orthonormal under the trace inner product; ``generators``
    is any set known to generate the algebra (used to keep commutant and
    center solves small).
    """

    basis: np.ndarray       # (k, n, n)
    generators: np.ndarray  # (g, n, n)
    ambient: int

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def basis_rows(self) -> np.ndarray:
        return vec(self.basis)

    def contains(self, mat: np.ndarray, tol: float = 1e-8) -> bool:
        return linalg.in_span(self.basis_rows, mat, tol)

    def conjugated(self, t: np.ndarray) -> "OperatorAlgebra":
        """Image under Ad_T, T unitary; orthonormality is preserved."""
        move = lambda mats: np.einsum("ij,ajk,lk->ail", t, mats, t.conj())
        return OperatorAlgebra(move(self.basis), move(self.generators), self.ambient)


def full_matrix_algebra(n: int) -> OperatorAlgebra:
    units = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            units[i * n + j, i, j] = 1.0
    # clock and shift generate M_n for n >= 2
    if n == 1:
        gens = np.eye(1, dtype=complex)[None]
    else:
        shift = np.roll(np.eye(n, dtype=complex), 1, axis=1)
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        gens = np.stack([shift, clock])
    return OperatorAlgebra(units, gens, n)


def algebra_closure(generators, tol: float = linalg.RANK_RTOL, seed=None) -> OperatorAlgebra:
    """Smallest unital *-algebra containing the generators.

    Iterates left multiplication by the (adjoint-closed) generator set,
    re-orthonormalizing until the span is stable.  ``seed`` optionally
    supplies matrices known to lie in the algebra, to start from a bigger
    span.
    """
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim == 2:
        gens = gens[None]
    n = gens.shape[-1]
    if gens.shape[-2] != n:
        raise DimensionTooLarge("generators must be square matrices")
    if n > MAX_AMBIENT:
        raise DimensionTooLarge(f"ambient dimension {n} exceeds {MAX_AMBIENT}")

    mult = np.concatenate([gens, np.conj(np.transpose(gens, (0, 2, 1)))])
    start = [np.eye(n, dtype=complex)[None], mult]
    if seed is not None:
        start.append(np.asarray(seed, dtype=complex).reshape(-1, n, n))
    basis = onb_rows(vec(np.concatenate(start)), tol)

    while True:
        mats = unvec(basis, n)
        prods = np.einsum("gij,bjk->gbik", mult, mats).reshape(-1, n, n)
        rows = vec(prods)
        resid = linalg.residual_norms(basis, rows)
        scale = np.maximum(1.0, np.linalg.norm(rows, axis=-1))
        if (resid <= 1e-8 * scale).all():
            break
        basis = onb_rows(np.concatenate([basis, rows]), tol)
        if basis.shape[0] > n * n:
            raise AssertionError("closure exceeded the ambient operator space")
    return OperatorAlgebra(unvec(basis, n), gens, n)


def _constraint_columns(basis: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Columns vec(left @ B_i - B_i @ right), one per basis element."""
    cols = np.einsum("ij,bjk->bik", left, basis) - np.einsum(
        "bij,jk->bik", basis, right
    )
    return vec(cols).T  # (n^2, k)


def _star_closed(gens: np.ndarray) -> np.ndarray:
    """Generators together with their adjoints.

    Commuting with a set only implies commuting with the generated
    *-algebra when the set is closed under adjoints.
    """
    return np.concatenate([gens, np.conj(np.transpose(gens, (0, 2, 1)))])


def commutant(algebra: OperatorAlgebra, rtol: float = linalg.RANK_RTOL) -> OperatorAlgebra:
    """{x : xg = gx for all g}, as a joint nullspace over the operator space."""
    n = algebra.ambient
    if n > MAX_AMBIENT:
        raise DimensionTooLarge(f"ambient dimension {n} exceeds {MAX_AMBIENT}")
    eye = np.eye(n, dtype=complex)
    blocks = []
    for g in _star_closed(algebra.generators):
        blocks.append(np.kron(g, eye) - np.kron(eye, g.T))
    rows = linalg.nullspace_rows(np.concatenate(blocks, axis=0), rtol)
    mats = unvec(onb_rows(rows, rtol), n)
    return OperatorAlgebra(mats, mats, n)


def center_within(algebra: OperatorAlgebra, rtol: float = linalg.RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of Z(A) = {x in A : [x, g] = 0 for generators g}."""
    blocks = [
        _constraint_columns(algebra.basis, g, g)
        for g in _star_closed(algebra.generators)
    ]
    coeffs = linalg.nullspace_rows(np.concatenate(blocks, axis=0), rtol)
    mats = np.einsum("ck,kij->cij", coeffs, algebra.basis)
    return linalg.orthonormal_matrices(mats, rtol, floor=1.0)


def graded_split(
    algebra: OperatorAlgebra, gamma: np.ndarray, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd orthonormal bases of A under Ad_Gamma; NotGraded if Ad_Gamma
    does not preserve A."""
    conj = np.einsum("ij,bjk,kl->bil", gamma, algebra.basis, gamma)
    resid = linalg.residual_norms(algebra.basis_rows, vec(conj))
    if resid.max(initial=0.0) > tol:
        raise NotGraded("Ad_Gamma does not preserve the algebra")
    even = (algebra.basis + conj) / 2.0
    odd = (algebra.basis - conj) / 2.0
    return (
        linalg.orthonormal_matrices(even, floor=1.0),
        linalg.orthonormal_matrices(odd, floor=1.0),
    )


def operator_degree(mat: np.ndarray, gamma: np.ndarray, tol: float = 1e-10):
    """0/1 if the operator is homogeneous for Ad_Gamma, else None."""
    return linalg.sign_match(gamma @ mat @ gamma, np.asarray(mat, dtype=complex), tol)


def graded_tensor(
    a: np.ndarray,
    gamma1: np.ndarray,
    b: np.ndarray,
    deg_b: int | None = None,
    gamma2: np.ndarray | None = None,
) -> np.ndarray:
    """Koszul-signed tensor product, realized as (a Gamma1^deg(b)) kron b.

    The right factor must be homogeneous; pass its degree explicitly or
    supply gamma2 so it can be read off.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if deg_b is None:
        if gamma2 is None:
            raise DegreeUntagged("right factor needs a degree tag or a grading")
        deg_b = operator_degree(b, gamma2)
        if deg_b is None:
            raise DegreeUntagged("right factor is not homogeneous")
    left = a @ gamma1 if deg_b % 2 else a
    return np.kron(left, b)


def selfadjoint_unitary_from(x: np.ndarray, tol: float = 1e-8) -> np.ndarray | None:
    """Scale a spanning element of a 1-dim *-closed line to a s.a. unitary.

    Tries h = (x + x*)/2 and falls back to i(x - x*)/2; succeeds when
    h^2 is a positive multiple of the identity.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    h = (x + x.conj().T) / 2.0
    if np.linalg.norm(h) <= tol * np.linalg.norm(x):
        h = 1j * (x - x.conj().T) / 2.0
    sq = h @ h
    lam = np.trace(sq).real / n
    if lam <= tol or np.linalg.norm(sq - lam * np.eye(n)) > tol * max(1.0, lam) * n:
        return None
    b = h / np.sqrt(lam)
    if np.linalg.norm(b @ b - np.eye(n)) > tol * n:
        return None
    return b


def graded_center_split(
    algebra: OperatorAlgebra, gamma: np.ndarray, tol: float = 1e-8
):
    """Split Z(A) by grading; return (even basis, odd basis, odd s.a. unitary).

    Raises CentralityViolation when the even center exceeds the scalars, and
    NotGraded when Ad_Gamma does not preserve A.  The odd unitary is None
    when the odd center vanishes.
    """
    graded_split(algebra, gamma, tol)  # grading sanity
    z = center_within(algebra)
    conj = np.einsum("ij,bjk,kl->bil", gamma, z, gamma)
    even = linalg.orthonormal_matrices((z + conj) / 2.0, floor=1.0)
    odd = linalg.orthonormal_matrices((z - conj) / 2.0, floor=1.0)
    if even.shape[0] > 1:
        raise CentralityViolation(
            f"even center has dimension {even.shape[0]} > 1"
        )
    odd_unitary = None
    if odd.shape[0] == 1:
        odd_unitary = selfadjoint_unitary_from(odd[0], tol)
        if odd_unitary is None:
            raise MarkerNotFound("odd center admits no self-adjoint unitary")
    elif odd.shape[0] > 1:
        raise CentralityViolation(
            f"odd center has dimension {odd.shape[0]} > 1"
        )
    return even, odd, odd_unitary


def grading_implementer(
    algebra: OperatorAlgebra, gamma: np.ndarray, rtol: float = linalg.RANK_RTOL
) -> np.ndarray | None:
    """The in-algebra implementer of the grading, up to scale.

    Solves u g = Ad_Gamma(g) u over u in span(A) against the generators.
    For a balanced central type-I system with A a factor the solution line
    is spanned by the self-adjoint unitary generating Z(A^(0)) beside the
    scalars.  Returns None unless the solution space is exactly 1-dim.
    """
    blocks = []
    for g in _star_closed(algebra.generators):
        theta_g = gamma @ g @ gamma
        blocks.append(_constraint_columns(algebra.basis, theta_g, g))
    coeffs = linalg.nullspace_rows(np.concatenate(blocks, axis=0), rtol)
    if coeffs.shape[0] != 1:
        return None
    return np.einsum("k,kij->ij", coeffs[0], algebra.basis)


def find_odd_selfadjoint_unitary(
    algebra: OperatorAlgebra,
    gamma: np.ndarray,
    tol: float = 1e-8,
    attempts: int = 8,
) -> np.ndarray | None:
    """Search A for an odd self-adjoint unitary (the balancedness witness).

    Odd self-adjoint elements h with invertible h yield sign(h), which is
    automatically odd, self-adjoint, unitary and inside A.
    """
    _, odd = graded_split(algebra, gamma, tol)
    if odd.shape[0] == 0:
        return None
    sa = np.concatenate(
        [
            (odd + np.conj(np.transpose(odd, (0, 2, 1)))) / 2.0,
            (odd - np.conj(np.transpose(odd, (0, 2, 1)))) / 2.0j,
        ]
    )
    sa = linalg.orthonormal_matrices(sa, floor=1.0)
    rng = np.random.default_rng(0xFA5E)
    candidates = list(sa)
    for _ in range(attempts):
        w = rng.standard_normal(sa.shape[0])
        candidates.append(np.einsum("k,kij->ij", w, sa))
    for h in candidates:
        h = (h + h.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(h)
        if evals.size == 0 or np.min(np.abs(evals)) <= tol * np.max(np.abs(evals)):
            continue
        u = (evecs * np.sign(evals)) @ evecs.conj().T
        ok = (
            np.linalg.norm(u @ u - np.eye(algebra.ambient)) <= tol * algebra.ambient
            and operator_degree(u, gamma, tol) == 1
            and algebra.contains(u, tol)
        )
        if ok:
            return u
    return None
