"""Finite-dimensional operator *-algebras with a Z2 grading.

The central object is :class:`OperatorAlgebra`: a unital *-subalgebra of
M_n held by a small generating set and the matrix units of its simple
blocks, found once by a randomized decomposition when the algebra is
built.  Membership, commutants, graded centers, (grading) implementers and
odd self-adjoint unitaries are read off the units; the Koszul-signed
tensor product and graded splittings live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CentralityViolation,
    DegreeUntagged,
    DimensionTooLarge,
    InvalidSystem,
    MarkerNotFound,
    NotGraded,
)
from . import linalg
from .linalg import TOL, onb_rows, unvec, vec

MAX_AMBIENT = 64
DECOMPOSITION_ATTEMPTS = 6  # fresh random elements tried by block_decomposition


@dataclass(frozen=True, eq=False)
class OperatorAlgebra:
    """Unital *-closed subalgebra of M_n.

    ``blocks`` holds the matrix units of every simple block as an isometry
    V of shape (N_b, n, r_b), with E_ij = V_i V_j^dag; ``generators`` is any
    set known to generate the algebra (used to keep checks of an action and
    graded products small).
    """

    generators: np.ndarray      # (g, n, n)
    blocks: tuple[np.ndarray, ...]
    ambient: int

    @property
    def dim(self) -> int:
        return sum(v.shape[0] ** 2 for v in self.blocks)

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal basis E_ij / sqrt(r_b) under the trace inner product."""
        n = self.ambient
        return np.concatenate(
            [
                np.einsum("inx,jmx->ijnm", v, v.conj()).reshape(-1, n, n) / np.sqrt(v.shape[2])
                for v in self.blocks
            ]
        )

    def outside(self, mats: np.ndarray) -> np.ndarray:
        """Which x lie off A by more than TOL * max(1, |x|).

        The compression onto the units, sum_b F_b (w_b (x) 1) F_b^dag with
        w_b = Tr_r(F_b^dag x F_b) / r_b, fixes x exactly when x is in A.
        """
        resid = np.array(mats, dtype=complex)
        for v in self.blocks:
            N, _, r = v.shape
            f = flat_isometry(v)
            w = np.einsum("aixjx->aij", (f.conj().T @ mats @ f).reshape(-1, N, r, N, r)) / r
            resid -= block_element(v, w)
        size = np.maximum(1.0, np.linalg.norm(mats, axis=(-2, -1)))
        return np.linalg.norm(resid, axis=(-2, -1)) > TOL * size

    def conjugated(self, t: np.ndarray) -> "OperatorAlgebra":
        """Image under Ad_T, T unitary; the units move with it."""
        gens = np.einsum("ij,ajk,lk->ail", t, self.generators, t.conj())
        return OperatorAlgebra(gens, tuple(t @ v for v in self.blocks), self.ambient)


def full_matrix_algebra(n: int) -> OperatorAlgebra:
    # clock and shift generate M_n for n >= 2; the units are e_i e_j^dag
    if n == 1:
        gens = np.eye(1, dtype=complex)[None]
    else:
        shift = np.roll(np.eye(n, dtype=complex), 1, axis=1)
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        gens = np.stack([shift, clock])
    return OperatorAlgebra(gens, (np.eye(n, dtype=complex)[:, :, None],), n)


def algebra_closure(generators) -> OperatorAlgebra:
    """Smallest unital *-algebra containing the generators.

    Iterates left multiplication by the (adjoint-closed) generator set,
    re-orthonormalizing until the span is stable, then decomposes that
    span with random elements drawn from it.
    """
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim == 2:
        gens = gens[None]
    n = gens.shape[-1]
    if gens.shape[-2] != n:
        raise InvalidSystem("generators must be square matrices")
    if n > MAX_AMBIENT:
        raise DimensionTooLarge(f"ambient dimension {n} exceeds {MAX_AMBIENT}")

    mult = np.concatenate([gens, np.conj(np.transpose(gens, (0, 2, 1)))])
    basis = onb_rows(vec(np.concatenate([np.eye(n, dtype=complex)[None], mult])))

    while True:
        mats = unvec(basis, n)
        prods = np.einsum("gij,bjk->gbik", mult, mats).reshape(-1, n, n)
        rows = vec(prods)
        resid = linalg.residual_norms(basis, rows)
        scale = np.maximum(1.0, np.linalg.norm(rows, axis=-1))
        if (resid <= 1e-8 * scale).all():
            break
        basis = onb_rows(np.concatenate([basis, rows]))
        if basis.shape[0] > n * n:
            raise AssertionError("closure exceeded the ambient operator space")
    k = basis.shape[0]
    rng = np.random.default_rng(0x5EED)
    gauss = lambda: rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return block_decomposition(gens, k, lambda: np.einsum("k,kij->ij", gauss(), mats))


def graded_tensor_algebra(a1, gamma1, a2, gamma2) -> OperatorAlgebra:
    """A1 (x)^ A2 = span{a Gamma1^deg(b) (x) b}, generated by the products of
    A1's generators with 1 and of 1 with the homogeneous parts of A2's.  Its
    random elements are sum_ij E_ij (x) y_ij + E_ij Gamma1 (x) z_ij over the
    units E_ij of A1, with y_ij / z_ij even / odd Gaussian elements of A2.
    """
    swaps = gamma2 @ a2.generators @ gamma2
    floor = 1e-10 * np.maximum(1.0, np.linalg.norm(a2.generators, axis=(1, 2)))  # zero parts
    gens = [np.kron(a, np.eye(a2.ambient)) for a in a1.generators]
    for factor, parity in ((np.eye(a1.ambient), 1.0), (gamma1, -1.0)):
        parts = (a2.generators + parity * swaps) / 2.0
        gens += [np.kron(factor, b) for b, f in zip(parts, floor) if np.linalg.norm(b) > f]
    rng = np.random.default_rng(0x5EED)
    units, basis2 = a1.basis, a2.basis
    left = np.concatenate([units, units @ gamma1])
    sign = np.repeat([1.0, -1.0], len(units))[:, None, None]
    n = a1.ambient * a2.ambient

    def draw():
        shape = (len(left), len(basis2))
        y = np.tensordot(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), basis2, 1)
        right = (y + sign * (gamma2 @ y @ gamma2)) / 2.0
        return np.tensordot(left, right, (0, 0)).transpose(0, 2, 1, 3).reshape(n, n)

    return block_decomposition(np.stack(gens), a1.dim * a2.dim, draw)


def commutant(algebra: OperatorAlgebra) -> OperatorAlgebra:
    """A' read off the units: A = (+)_b M_{N_b} (x) 1_{r_b} has
    A' = (+)_b 1_{N_b} (x) M_{r_b}, whose units swap the two legs of A's,
    V'_x[:, i] = V_i[:, x].  The units E'_0y generate it."""
    blocks = tuple(np.transpose(v, (2, 1, 0)) for v in algebra.blocks)
    gens = np.concatenate([v[0] @ np.conj(np.transpose(v, (0, 2, 1))) for v in blocks])
    return OperatorAlgebra(gens, blocks, algebra.ambient)


def center_within(algebra: OperatorAlgebra) -> np.ndarray:
    """Orthonormal basis of Z(A): the normalized central projections Q_b."""
    qs = np.stack([central_projection(v) for v in algebra.blocks])
    return qs / np.sqrt(np.trace(qs, axis1=1, axis2=2).real)[:, None, None]


def block_decomposition(generators: np.ndarray, dim: int, draw) -> OperatorAlgebra:
    """The algebra of dimension ``dim`` generated by ``generators``, with the
    matrix units of every simple block; ``draw()`` returns a random element.

    H = (+)_b C^{N_b} (x) C^{r_b} with A = (+)_b M_{N_b} (x) 1.  A generic
    self-adjoint element of A has one eigenvalue cluster per minimal
    projection P_c; a second generic element x links them, P_c x P_d != 0
    exactly when c and d lie in one block (Murota, Kanno, Kojima & Kojima,
    JJIAM 27, 2010).  Block b comes back as V of shape (N_b, n, r_b) with
    matrix units E_ij = V_i V_j^dag.  The units span a unital *-algebra;
    when it holds every generator and sum_b N_b^2 = dim, it is A.
    """
    n = generators.shape[-1]
    for _ in range(DECOMPOSITION_ATTEMPTS):
        h = draw()
        evals, evecs = np.linalg.eigh(h + h.conj().T)
        splits = np.nonzero(np.diff(evals) > 1e-6 * max(1.0, evals[-1] - evals[0]))[0]
        clusters = np.split(np.arange(n), splits + 1)
        x = evecs.conj().T @ draw() @ evecs
        onehot = np.repeat(np.eye(len(clusters)), [len(c) for c in clusters], axis=0)
        linked = onehot.T @ np.abs(x) ** 2 @ onehot > (TOL * np.linalg.norm(x)) ** 2
        first = np.argmax(linked, axis=1)  # the lowest cluster of each block
        if not (linked == (first[:, None] == first[None, :])).all():
            continue
        blocks = tuple(
            _block_isometries(evecs, x, [clusters[c] for c in np.flatnonzero(first == b)])
            for b in np.unique(first)
        )
        if all(v is not None for v in blocks):
            algebra = OperatorAlgebra(generators, blocks, n)
            if algebra.dim == dim and not algebra.outside(generators).any():
                return algebra
    raise MarkerNotFound("could not build matrix units for the algebra")


def _block_isometries(evecs, x, clusters):
    """V_c = P_c x P_0 / sqrt(lambda) on the eigenvectors of one block; None
    unless the clusters are minimal (equal sizes, V_c^dag V_c = 1)."""
    n, r = evecs.shape[0], len(clusters[0])
    if any(len(c) != r for c in clusters):
        return None
    rows = np.concatenate(clusters)
    m = x[np.ix_(rows, clusters[0])].reshape(len(clusters), r, r)
    m[0] = np.eye(r)
    gram = np.conj(np.transpose(m, (0, 2, 1))) @ m
    lam = np.trace(gram, axis1=1, axis2=2).real / r
    if (lam < TOL).any() or (
        np.linalg.norm(gram - lam[:, None, None] * np.eye(r), axis=(1, 2))
        > TOL * np.maximum(1.0, lam) * n
    ).any():
        return None
    basis = np.transpose(evecs[:, rows].reshape(n, len(clusters), r), (1, 0, 2))
    return basis @ (m / np.sqrt(lam)[:, None, None])


def flat_isometry(v: np.ndarray) -> np.ndarray:
    """(N, n, r) block isometries as one n x (N r) isometry, columns (i, x)."""
    return np.transpose(v, (1, 0, 2)).reshape(v.shape[1], -1)


def central_projection(v: np.ndarray) -> np.ndarray:
    """Q = sum_i E_ii of one block."""
    f = flat_isometry(v)
    return f @ f.conj().T


def block_element(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_ij w_ij E_ij = F (w (x) 1_r) F^dag: the element of one block with
    coordinates w in M_N, for w of shape (..., N, N)."""
    N, _, r = v.shape
    f = flat_isometry(v)
    w = (w[..., :, None, :, None] * np.eye(r)[:, None, :]).reshape(w.shape[:-2] + (N * r, N * r))
    return f @ w @ f.conj().T


def grading_permutation(blocks: list[np.ndarray], gamma: np.ndarray) -> np.ndarray:
    """perm[b] = the block that Ad_Gamma carries block b onto.

    overlap[b, c] = Tr(Gamma Q_b Gamma Q_c) / Tr(Q_b) is 0 or 1 for an
    automorphism; NotGraded when it is not a permutation within 1/4.
    """
    flats = [flat_isometry(v) for v in blocks]
    overlap = np.array(
        [[np.linalg.norm(fc.conj().T @ gamma @ fb) ** 2 / fb.shape[1] for fc in flats]
         for fb in flats]
    )
    perm = np.argmax(overlap, axis=1)
    off = np.abs(overlap - np.eye(len(blocks))[perm]).max(initial=0.0)
    if off > 0.25 or (perm[perm] != np.arange(len(perm))).any():
        raise NotGraded("Ad_Gamma does not permute the blocks of the algebra")
    return perm


def implementer(v: np.ndarray, op: np.ndarray, flag: int = 0) -> tuple[np.ndarray, float]:
    """Unitary W in M_N implementing x -> op x^(flag) op^dag on one block.

    With phi(x)_ij = Tr(E_ij^dag x)/r the block isomorphism, W satisfies
    phi(op E_ij^(flag) op^dag) = W e_ij W^dag.  Skolem-Noether in closed
    form: W is proportional to sum_i beta(e_ik) e_li for the (k, l) that
    maximizes its norm.  In the block basis op reads W (x) M; the residual
    of that factorization is returned beside W.
    """
    N, _, r = v.shape
    moved = op @ (np.conj(v) if flag else v)
    h = np.einsum("anx,iny->axiy", v.conj(), moved)  # h[a,:,i,:] = V_a^dag op V_i
    weight = np.einsum("axiy->ai", np.abs(h) ** 2)
    l, k = np.unravel_index(np.argmax(weight), weight.shape)
    w = np.einsum("axby,xy->ab", h, h[l, :, k, :].conj()) / r
    w = w / np.sqrt(np.trace(w.conj().T @ w).real / N)
    mult = np.einsum("ab,axby->xy", w.conj(), h) / N
    return w, float(np.linalg.norm(h - np.einsum("ab,xy->axby", w, mult)))


def graded_conjugate(algebra: OperatorAlgebra, gamma: np.ndarray) -> np.ndarray:
    """Gamma x Gamma for every generator x; NotGraded if Ad_Gamma leaves A.

    Ad_Gamma is multiplicative, so it preserves A exactly when it maps every
    generator into A.
    """
    conj = gamma @ algebra.generators @ gamma
    if algebra.outside(conj).any():
        raise NotGraded("Ad_Gamma does not preserve the algebra")
    return conj


def graded_split(algebra: OperatorAlgebra, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd orthonormal bases of A under Ad_Gamma; NotGraded if Ad_Gamma
    does not preserve A."""
    graded_conjugate(algebra, gamma)
    basis = algebra.basis
    conj = gamma @ basis @ gamma
    return (
        linalg.orthonormal_matrices((basis + conj) / 2.0),
        linalg.orthonormal_matrices((basis - conj) / 2.0),
    )


def operator_degree(mat: np.ndarray, gamma: np.ndarray):
    """0/1 if the operator is homogeneous for Ad_Gamma, else None."""
    return linalg.sign_match(gamma @ mat @ gamma, np.asarray(mat, dtype=complex), 1e-10)


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


def require_one_orbit(perm: np.ndarray) -> None:
    """CentralityViolation unless Ad_Gamma has one orbit on the blocks: the
    orbits count the even center's dimension."""
    orbits = int(np.sum(perm >= np.arange(len(perm))))
    if orbits > 1:
        raise CentralityViolation(f"even center has dimension {orbits} > 1")


def grading_unitary(v: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Self-adjoint unitary u in M_N implementing Ad_Gamma on a block it fixes.

    implementer(v, gamma) is unitary and squares to a phase when Ad_Gamma is
    an involution of the block; dividing by a square root of that phase
    gives u.  MarkerNotFound when the result is not a s.a. unitary.
    """
    N = v.shape[0]
    w, resid = implementer(v, gamma)
    square = np.trace(w @ w) / N  # a unit phase for a multiple of a s.a. unitary
    u = w / np.sqrt(square) if abs(square) >= 0.5 else None
    if resid > TOL * N or u is None or not linalg.is_selfadjoint_unitary(u, TOL):
        raise MarkerNotFound("grading implementer is not scalable to a unitary")
    return u


def graded_center_split(algebra: OperatorAlgebra, gamma: np.ndarray):
    """Split Z(A) by grading; return (even basis, odd basis, odd s.a. unitary).

    Ad_Gamma permutes the central projections Q_b: orbit sums span the even
    center, Q_b - Q_c over swapped pairs the odd one.  CentralityViolation
    unless there is one orbit; NotGraded when Ad_Gamma does not preserve A.
    The odd unitary is Q_1 - Q_2, or None when the odd center vanishes.
    """
    graded_conjugate(algebra, gamma)  # grading sanity
    blocks = algebra.blocks
    require_one_orbit(grading_permutation(blocks, gamma))
    n = algebra.ambient
    even = np.eye(n, dtype=complex)[None] / np.sqrt(n)
    if len(blocks) == 1:
        return even, np.zeros((0, n, n), dtype=complex), None
    odd_unitary = 2.0 * central_projection(blocks[0]) - np.eye(n)
    return even, odd_unitary[None] / np.sqrt(n), odd_unitary


def grading_implementer(algebra: OperatorAlgebra, gamma: np.ndarray) -> np.ndarray | None:
    """The in-algebra implementer u of the grading (Gamma x Gamma = u x u^dag).

    Read off the block decomposition; None unless A is a factor preserved
    by Ad_Gamma.
    """
    if len(algebra.blocks) != 1:
        return None
    w, resid = implementer(algebra.blocks[0], gamma)
    return None if resid > TOL * w.shape[0] else block_element(algebra.blocks[0], w)


def find_odd_selfadjoint_unitary(algebra: OperatorAlgebra, gamma: np.ndarray) -> np.ndarray | None:
    """An odd self-adjoint unitary in A (the balancedness witness), or None.

    Built block by block: Q_b - Q_c on each pair of blocks that Ad_Gamma
    swaps; on a block it fixes, with grading unitary u = U+ U+^dag - U- U-^dag,
    the swap U+ U-^dag + U- U+^dag, which exists exactly when the +-1
    eigenspaces of u have equal dimension.
    """
    graded_conjugate(algebra, gamma)  # grading sanity
    blocks = algebra.blocks
    out = np.zeros((algebra.ambient, algebra.ambient), dtype=complex)
    for b, c in enumerate(grading_permutation(blocks, gamma)):
        if c > b:
            out += central_projection(blocks[b]) - central_projection(blocks[c])
        elif c == b:
            evals, evecs = np.linalg.eigh(grading_unitary(blocks[b], gamma))
            plus, minus = evecs[:, evals > 0], evecs[:, evals < 0]
            if plus.shape[1] != minus.shape[1]:
                return None
            swap = plus @ minus.conj().T
            out += block_element(blocks[b], swap + swap.conj().T)
    return out
