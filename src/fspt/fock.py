"""Fock space over C^d, second quantization, and Jordan-Wigner embedding.

Occupation subsets of {1..d} are encoded as bitmasks; the basis order of
the 2^d-dimensional Fock space is the bitmask as a little-endian integer
(mode i corresponds to bit i-1).  With normalization constants fixed to 1,
the second quantization of a one-particle map U has matrix elements given
by minors of U with rows and columns in increasing mode order; the minors
of one particle number are evaluated as one batched determinant.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange, NotUnitary


def subset_parity(mask: int) -> int:
    return bin(mask).count("1") % 2


def fock_masks(d: int) -> range:
    return range(1 << d)


def parity_operator(d: int) -> np.ndarray:
    """diag((-1)^|mu|) on the Fock basis; the lift of -identity."""
    signs = [(-1.0) ** subset_parity(m) for m in fock_masks(d)]
    return np.diag(np.array(signs, dtype=complex))


def second_quantize(u: np.ndarray) -> np.ndarray:
    """Lift d x d (anti-)unitaries, over any leading axes, to the 2^d-dimensional Fock space.

    Entry (mu, nu) is det(u[mu, nu]) when #mu = #nu and zero otherwise; the
    minors of each particle number k, of all u, come from one batched
    determinant.  An anti-unitary u K lifts to the minor matrix composed with
    entrywise conjugation in the Fock basis.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[-1]
    if u.ndim < 2 or u.shape[-2] != d:
        raise NotUnitary(f"expected square matrices, got {u.shape}")
    gram = u @ u.conj().swapaxes(-1, -2) - np.eye(d)
    if not (np.linalg.norm(gram, axis=(-2, -1)) <= 1e-9 * max(1, d)).all():
        raise NotUnitary("one-particle map is not unitary within tolerance")
    bits = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1  # bits[mask, mode]
    out = np.zeros(u.shape[:-2] + (1 << d, 1 << d), dtype=complex)
    for k in range(d + 1):
        masks = np.flatnonzero(bits.sum(axis=1) == k)
        modes = np.nonzero(bits[masks])[1].reshape(len(masks), k)  # increasing per mask
        # minors[..., a, b] = u[..., modes[a]][..., modes[b]]; a 0 x 0 minor has determinant 1
        minors = u[..., modes[:, None, :, None], modes[None, :, None, :]]
        out[(...,) + np.ix_(masks, masks)] = np.linalg.det(minors)
    return out


def matrix_unit(mu: int, nu: int, d: int) -> np.ndarray:
    e = np.zeros((1 << d, 1 << d), dtype=complex)
    e[mu, nu] = 1.0
    return e


def jw_embed(mu: int, nu: int, site: int, length: int, d: int) -> np.ndarray:
    """The fermionic matrix unit E^(site)_{mu,nu} on a chain of `length` sites.

    Odd units (|mu| + |nu| odd) carry the on-site parity string on all
    preceding sites; even units embed as a plain Kronecker placement.
    """
    if not 0 <= site < length:
        raise IndexOutOfRange(f"site {site} outside chain of length {length}")
    nloc = 1 << d
    odd = (subset_parity(mu) + subset_parity(nu)) % 2
    left = np.eye(1, dtype=complex)
    string = parity_operator(d) if odd else np.eye(nloc, dtype=complex)
    for _ in range(site):
        left = np.kron(left, string)
    out = np.kron(left, matrix_unit(mu, nu, d))
    right_dim = nloc ** (length - 1 - site)
    return np.kron(out, np.eye(right_dim, dtype=complex))


def jw_word(word, d: int, length: int | None = None) -> np.ndarray:
    """Product of embedded units E^(0)_{m0,n0} ... E^(l)_{ml,nl}."""
    word = list(word)
    length = len(word) if length is None else length
    out = np.eye((1 << d) ** length, dtype=complex)
    for x, (mu, nu) in enumerate(word):
        out = out @ jw_embed(mu, nu, x, length, d)
    return out


def jw_word_sign(word) -> int:
    """Sign s with jw_word = s * kron of plain matrix units.

    Commuting each parity string through the matrix units on its left gives
    s = (-1)^(sum_y |nu_y| * sum_{x>y} (|mu_x| + |nu_x|)).
    """
    word = list(word)
    expo = 0
    for y, (_, nu) in enumerate(word):
        tail = sum(
            subset_parity(mu_x) + subset_parity(nu_x)
            for (mu_x, nu_x) in word[y + 1 :]
        )
        expo += subset_parity(nu) * tail
    return -1 if expo % 2 else 1
