"""Exact congruence solving: A x = c (mod M) by one elimination mod M.

The elimination depends on A and M only; a solve is U c, V y and the test
A x = c (mod M).  Entries stay symmetric residues mod M: U c sums m products
of at most M^2/4, every other sum n + 1 terms below M^2.  The arrays are int64
when none of that can overflow and Python integers (dtype=object) otherwise;
either way the arithmetic is exact.  Rows are up to |G|^2, columns up to |G|.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np


def _reduce(a: np.ndarray, modulus: int) -> None:
    """Replace every entry, in place, by its residue mod M in (-M/2, M/2]."""
    h = (modulus - 1) // 2
    a += h
    a %= modulus
    a -= h


@dataclass(frozen=True, eq=False)
class Elimination:
    """D = U A V mod M for an m x n matrix A, k = min(m, n).  Kept: A mod M,
    the first k rows of U, g_i = gcd(d_i, M), inv_i = (d_i / g_i)^-1 mod
    M / g_i and the first k columns of V; all arrays are read-only."""

    modulus: int
    A: np.ndarray
    U: np.ndarray
    g: np.ndarray
    inv: np.ndarray
    V: np.ndarray

    def solve(self, c) -> list[int] | None:
        """One x with A x = c (mod M), or None.  If any x exists, g_i | (U c)_i, so
        y = (U c) / g * inv solves D y = U c and x = V y solves A x = c: that test decides."""
        M, c = self.modulus, np.array(c, dtype=self.A.dtype)
        _reduce(c, M)
        y = (self.U @ c % M) // self.g * self.inv % (M // self.g)
        x = self.V @ y % M
        return None if ((self.A @ x - c) % M).any() else x.tolist()


def eliminate(A, modulus: int) -> Elimination:
    """Bring A to D = U A V mod M; each pivot is the first entry of least
    nonzero magnitude left."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    m = len(A)
    n = len(A[0]) if m else 0
    k = min(m, n)
    dtype = np.int64 if max(m + 1, 4 * n + 4) * modulus**2 < 2**65 else object
    # [[A], [1]]: row operations act on the top m rows only, column
    # operations on every row, so the bottom block accumulates V
    W = np.zeros((m + n, n), dtype)
    W[:m] = A
    W[m:] = np.eye(n, dtype=dtype)
    _reduce(W, modulus)
    A = W[:m].copy()

    steps = []  # (t, i, q): swap rows t and t + i, subtract q times row t below
    for t in range(k):
        while True:
            mag = np.abs(W[t:m, t:n])
            mag = np.where(mag, mag, modulus)
            i, j = divmod(int(mag.argmin()), n - t)
            if mag[i, j] == modulus:
                break
            if i:
                W[[t, t + i]] = W[[t + i, t]]
            if j:
                W[:, [t, t + j]] = W[:, [t + j, t]]
            p = W[t, t]
            q = W[t + 1:m, t] // p
            W[t + 1:m] -= np.outer(q, W[t])
            W[:, t + 1:n] -= np.outer(W[:, t], W[t, t + 1:n] // p)
            _reduce(W, modulus)
            steps.append((t, i, q))
            if not (W[t + 1:m, t].any() or W[t, t + 1:n].any()):
                break

    # U's first k rows: [1 0] times the steps transposed, last step first
    U = np.eye(k, m, dtype=dtype)
    for t, i, q in reversed(steps):
        U[:, t] -= U[:, t + 1:] @ q
        _reduce(U[:, t], modulus)
        U[:, [t, t + i]] = U[:, [t + i, t]]

    d = W.diagonal()[:k].tolist()
    g = [gcd(di, modulus) for di in d]  # gcd(0, M) = M
    inv = [pow(d[i] // g[i], -1, modulus // g[i]) for i in range(k)]
    arrays = A, U, np.array(g, dtype), np.array(inv, dtype), W[m:, :k].copy()
    for a in arrays:
        a.flags.writeable = False
    return Elimination(modulus, *arrays)


def solve_congruence(A, c, modulus: int) -> list[int] | None:
    """One solution x of A x = c (mod modulus), or None."""
    return eliminate(A, modulus).solve(c)
