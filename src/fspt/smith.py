"""Exact integer linear algebra: diagonalization over Z and congruence solving.

Everything here runs on Python integers, so there is no overflow and no
floating point.  Matrices are small (rows up to |G|^2, columns up to |G|).
"""

from __future__ import annotations

from math import gcd


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _swap_rows(mat, i, j):
    mat[i], mat[j] = mat[j], mat[i]


def _swap_cols(mat, i, j):
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _add_row(mat, src, dst, factor):
    mat[dst] = [d + factor * s for d, s in zip(mat[dst], mat[src])]


def _add_col(mat, src, dst, factor):
    for row in mat:
        row[dst] += factor * row[src]


def diagonalize(A: list[list[int]], carried: list[list[int]] | None = None):
    """Unimodular U, V and diagonal D with D = U A V.

    The diagonal need not satisfy the Smith divisibility chain; for solving
    linear congruences any integer diagonalization suffices.  Row operations
    act in place on ``carried`` (default: the identity), returned as U.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, row)) for row in A]
    U = carried if carried is not None else _identity(m)
    V = _identity(n)

    for t in range(min(m, n)):
        while True:
            # first entry of least nonzero magnitude in the submatrix; 1 is least
            pivot = None
            best = None
            for i in range(t, m):
                row = D[i]
                for j in range(t, n):
                    v = abs(row[j])
                    if v and (best is None or v < best):
                        best, pivot = v, (i, j)
                        if v == 1:
                            break
                if best == 1:
                    break
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                _swap_rows(D, pi, t)
                _swap_rows(U, pi, t)
            if pj != t:
                _swap_cols(D, pj, t)
                _swap_cols(V, pj, t)
            p = D[t][t]
            done = True
            for i in range(t + 1, m):
                q = D[i][t] // p
                if q:
                    _add_row(D, t, i, -q)
                    _add_row(U, t, i, -q)
                if D[i][t]:
                    done = False
            for j in range(t + 1, n):
                q = D[t][j] // p
                if q:
                    _add_col(D, t, j, -q)
                    _add_col(V, t, j, -q)
                if D[t][j]:
                    done = False
            if done:
                break
    return U, D, V


def solve_congruence(A: list[list[int]], c: list[int], modulus: int):
    """One solution x of A x = c (mod modulus), or None.

    Uses D = U A V: the diagonal system D y = U c (mod modulus) splits into
    scalar congruences d*y = t (mod M), each solvable iff gcd(d, M) | t.
    The row operations act on c directly, so U itself is never formed.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    m = len(A)
    n = len(A[0]) if m else 0
    if modulus == 1:
        return [0] * n
    Uc, D, V = diagonalize(A, [[int(v)] for v in c])
    t = [row[0] % modulus for row in Uc]
    y = [0] * n
    for i in range(m):
        d = D[i][i] if i < n else 0
        if d:
            g = gcd(d, modulus)
            if t[i] % g:
                return None
            mi = modulus // g
            if mi > 1:
                y[i] = (t[i] // g) * pow((d // g) % mi, -1, mi) % mi
        elif t[i] % modulus:
            return None
    return [sum(V[i][j] * y[j] for j in range(n)) % modulus for i in range(n)]
