"""Dense linear algebra over the operator space of n x n matrices.

Matrices are flattened row-major into vectors of length n^2 and treated
with the trace inner product <A, B> = Tr(A^dag B), which is the plain
Euclidean inner product of the flattened vectors.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-9  # singular values below RANK_RTOL * s_max count as zero
TOL = 1e-8  # residual, sign and rank cuts against O(1) operators


def vec(mats: np.ndarray) -> np.ndarray:
    mats = np.asarray(mats, dtype=complex)
    return mats.reshape(mats.shape[:-2] + (-1,))


def unvec(rows: np.ndarray, n: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=complex)
    return rows.reshape(rows.shape[:-1] + (n, n))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, over broadcast leading axes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def onb_rows(rows: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the row span, via SVD rank truncation.

    ``floor`` sets an absolute scale: singular values below RANK_RTOL * floor
    are zero even when the whole input is small (used when splitting an
    orthonormal family, where pieces are either genuine or pure noise).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    if rows.shape[0] == 0:
        return rows
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    return vh[s > RANK_RTOL * max(s[0], floor)]


def orthonormal_matrices(mats) -> np.ndarray:
    """Orthonormal basis of the span of O(1) matrices: the cut is taken
    against max(s_max, 1), so a family of pure noise spans nothing."""
    mats = np.asarray(mats, dtype=complex)
    n = mats.shape[-1]
    return unvec(onb_rows(vec(mats), floor=1.0), n)


def residual_norms(basis_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distance of each row from the span of orthonormal ``basis_rows``."""
    rows = np.atleast_2d(rows)
    return np.linalg.norm(rows - (rows @ basis_rows.conj().T) @ basis_rows, axis=-1)


def nullspace_rows(stacked: np.ndarray) -> np.ndarray:
    """Rows r with stacked @ r = 0, spanning the right nullspace.

    With A = U S V^H the null vectors are the trailing columns of V, i.e.
    the conjugates of the trailing rows of V^H.  Constraint matrices here
    are built from O(1) operators, so singular values are measured against
    max(s_max, 1); a block that is pure numerical noise has a full
    nullspace.
    """
    stacked = np.atleast_2d(np.asarray(stacked, dtype=complex))
    m, n = stacked.shape
    if m == 0:
        return np.eye(n, dtype=complex)
    if m * n > 1_048_576 and m > n:
        # tall stacks: R of a QR factorization has the same singular values
        # and right singular vectors, so the SVD stays n x n
        stacked = np.linalg.qr(stacked, mode="r")
    elif m < n:
        # economy SVD has all n right singular vectors once m >= n
        stacked = np.vstack([stacked, np.zeros((n - m, n), dtype=complex)])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    cutoff = RANK_RTOL * max(s[0] if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    return np.conj(vh[rank:])


def sign_match(x: np.ndarray, y: np.ndarray, tol: float = TOL) -> int | None:
    """Return s in {0, 1} with x = (-1)^s y within tol, else None."""
    scale = max(1.0, float(np.linalg.norm(y)))
    if np.linalg.norm(x - y) <= tol * scale:
        return 0
    if np.linalg.norm(x + y) <= tol * scale:
        return 1
    return None


def is_selfadjoint_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    n = m.shape[0]
    return (  # no entry of a self-adjoint unitary exceeds 1, so m @ m cannot overflow
        np.abs(m).max(initial=0.0) <= 1.0 + tol * n
        and np.linalg.norm(m - m.conj().T) <= tol * n
        and np.linalg.norm(m @ m - np.eye(n)) <= tol * n
    )
