"""Exact congruence solving: A x = c (mod M) by one elimination mod M.

The elimination depends on A and M only; its row steps replay on any c.
Entries stay symmetric residues mod M, so a product reaches about M^2/4 and
V @ y sums n terms below M^2.  The arrays are int64 when none of that can
overflow and Python integers (dtype=object) otherwise; either way the
arithmetic is exact.  Matrices are small (rows up to |G|^2, columns up to |G|).
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
    """D = U A V mod M, U kept as row steps (t, i, q): swap rows t and t + i,
    subtract q times row t from the rows below.  g_i = gcd(d_i, M) per row,
    inv_i = (d_i / g_i)^-1 mod M / g_i; all arrays are read-only."""

    modulus: int
    steps: tuple[tuple[int, int, np.ndarray], ...]
    g: np.ndarray
    inv: np.ndarray
    V: np.ndarray

    def solve(self, c) -> list[int] | None:
        """One x with A x = c (mod M), or None: d_i y_i = (U c)_i is solvable iff
        g_i divides (U c)_i, so (U c)_i = 0 where d_i = 0; then x = V y."""
        M, k = self.modulus, len(self.inv)
        uc = np.array(c, dtype=self.V.dtype)
        _reduce(uc, M)
        for t, i, q in self.steps:
            if i:
                uc[[t, t + i]] = uc[[t + i, t]]
            uc[t + 1:] -= q * uc[t]
            _reduce(uc, M)
        if (uc % self.g).any():
            return None
        g = self.g[:k]
        y = uc[:k] // g * self.inv % (M // g)
        return ((self.V[:, :k] @ y) % M).tolist()


def eliminate(A, modulus: int) -> Elimination:
    """Bring A to D = U A V mod M; each pivot is the first entry of least
    nonzero magnitude left."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    m = len(A)
    n = len(A[0]) if m else 0
    k = min(m, n)
    dtype = np.int64 if (n + 1) * modulus**2 < 2**63 else object
    # [[A], [1]]: row operations act on the top m rows only, column
    # operations on every row, so the bottom block accumulates V
    W = np.zeros((m + n, n), dtype)
    W[:m] = A
    W[m:] = np.eye(n, dtype=dtype)
    _reduce(W, modulus)

    steps = []
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

    d = W.diagonal()[:k].tolist() + [0] * (m - k)
    g = [gcd(di, modulus) for di in d]  # gcd(0, M) = M
    inv = [pow(d[i] // g[i], -1, modulus // g[i]) for i in range(k)]
    arrays = np.array(g, dtype), np.array(inv, dtype), W[m:].copy()
    for a in arrays + tuple(q for _, _, q in steps):
        a.flags.writeable = False
    return Elimination(modulus, tuple(steps), *arrays)


def solve_congruence(A, c, modulus: int) -> list[int] | None:
    """One solution x of A x = c (mod modulus), or None."""
    return eliminate(A, modulus).solve(c)
