"""Exact congruence solving: A x = c (mod M) by one elimination mod M.

Entries stay symmetric residues mod M, so a product reaches about M^2/4 and
V @ y sums n terms below M^2.  The arrays are int64 when none of that can
overflow and Python integers (dtype=object) otherwise; either way the
arithmetic is exact, with no floating point.  Matrices are small (rows up to
|G|^2, columns up to |G|).
"""

from __future__ import annotations

from math import gcd

import numpy as np


def _reduce(a: np.ndarray, modulus: int) -> None:
    """Replace every entry, in place, by its residue mod M in (-M/2, M/2]."""
    h = (modulus - 1) // 2
    a += h
    a %= modulus
    a -= h


def solve_congruence(A, c, modulus: int) -> list[int] | None:
    """One solution x of A x = c (mod modulus), or None.

    Row and column operations bring [A | c] to [D | U c] with D = U A V
    diagonal mod M; each pivot is the first entry of least nonzero magnitude
    left.  The system splits into scalar congruences d_i y_i = (U c)_i
    (mod M), each solvable iff gcd(d_i, M) divides (U c)_i, so (U c)_i = 0
    where d_i = 0; then x = V y.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    m = len(A)
    n = len(A[0]) if m else 0
    k = min(m, n)
    if modulus == 1:
        return [0] * n
    dtype = np.int64 if (n + 1) * modulus**2 < 2**63 else object
    # [[A | c], [1 | 0]]: row operations act on the top m rows only, column
    # operations on every row, so the bottom block accumulates V
    W = np.zeros((m + n, n + 1), dtype)
    W[:m, :n] = A
    W[:m, n] = c
    W[m:, :n] = np.eye(n, dtype=dtype)
    _reduce(W, modulus)

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
            W[t + 1:m] -= np.outer(W[t + 1:m, t] // p, W[t])
            W[:, t + 1:n] -= np.outer(W[:, t], W[t, t + 1:n] // p)
            _reduce(W, modulus)
            if not (W[t + 1:m, t].any() or W[t, t + 1:n].any()):
                break

    uc = (W[:m, n] % modulus).tolist()
    d = W.diagonal()[:k].tolist() + [0] * (m - k)
    g = [gcd(di, modulus) for di in d]  # gcd(0, M) = M
    if any(ui % gi for ui, gi in zip(uc, g)):
        return None
    y = np.zeros(n, dtype)
    for i in range(k):
        mi = modulus // g[i]
        y[i] = uc[i] // g[i] * pow(d[i] // g[i], -1, mi) % mi
    return ((W[m:, :n] @ y) % modulus).tolist()
