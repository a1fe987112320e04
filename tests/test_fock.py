import itertools

import numpy as np
import pytest

from fspt import jw_embed, jw_word, parity_operator, second_quantize
from fspt.errors import IndexOutOfRange, NotUnitary
from fspt.fock import jw_word_sign, matrix_unit, subset_parity
from conftest import SX, random_unitary


def test_second_quantize_single_mode_phase():
    theta = 0.73
    f, flag = second_quantize(np.array([[np.exp(1j * theta)]]))
    assert flag == 0
    assert np.allclose(f, np.diag([1.0, np.exp(1j * theta)]))


def test_second_quantize_minus_identity_is_parity():
    for d in (1, 2, 3):
        f, _ = second_quantize(-np.eye(d))
        assert np.allclose(f, parity_operator(d))


def test_second_quantize_mode_swap():
    f, _ = second_quantize(SX)
    # basis order: {}, {1}, {2}, {1,2}; swap exchanges the single modes
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 1.0
    expect[1, 2] = 1.0
    expect[2, 1] = 1.0
    expect[3, 3] = -1.0  # det(sx)
    assert np.allclose(f, expect)


def test_second_quantize_multiplicative(rng):
    for d in (2, 3):
        u = random_unitary(d, rng)
        v = random_unitary(d, rng)
        fu, _ = second_quantize(u)
        fv, _ = second_quantize(v)
        fuv, _ = second_quantize(u @ v)
        assert np.linalg.norm(fu @ fv - fuv) < 1e-8
        assert np.linalg.norm(fu @ parity_operator(d) - parity_operator(d) @ fu) < 1e-10


def test_second_quantize_antiunitary_flag_composition(rng):
    # (F(M1) K)(F(M2) K) = F(M1) conj(F(M2)) must equal F(M1 conj(M2))
    d = 2
    m1, m2 = random_unitary(d, rng), random_unitary(d, rng)
    f1, _ = second_quantize(m1, flag=1)
    f2, _ = second_quantize(m2, flag=1)
    f12, _ = second_quantize(m1 @ np.conj(m2))
    assert np.linalg.norm(f1 @ np.conj(f2) - f12) < 1e-9


def minor_loop(u):
    """Reference lift: one determinant per pair of equal-size occupation masks."""
    d = u.shape[0]
    modes = [[i for i in range(d) if (mask >> i) & 1] for mask in range(1 << d)]
    out = np.zeros((1 << d, 1 << d), dtype=complex)
    for mu, rows in enumerate(modes):
        for nu, cols in enumerate(modes):
            if len(rows) == len(cols):
                out[mu, nu] = np.linalg.det(u[np.ix_(rows, cols)]) if rows else 1.0
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_second_quantize_matches_per_minor_loop(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3):
        u = random_unitary(d, rng)
        f, _ = second_quantize(u)
        assert np.abs(f - minor_loop(u)).max() <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_second_quantize_of_a_stack_equals_the_per_matrix_lifts(d):
    """A (G, d, d) stack, and a stack with two leading axes, lift matrix by matrix."""
    rng = np.random.default_rng(200 + d)
    stack = np.stack([random_unitary(d, rng) for _ in range(6)])
    for u in (stack, stack.reshape(2, 3, d, d)):
        lifted, flag = second_quantize(u, 1)
        assert lifted.shape == u.shape[:-2] + (1 << d, 1 << d) and flag == 1
        singles = np.stack([second_quantize(m)[0] for m in stack])
        assert np.abs(lifted.reshape(singles.shape) - singles).max() <= 1e-13


def test_second_quantize_rejects_a_stack_with_one_nonunitary():
    with pytest.raises(NotUnitary):
        second_quantize(np.stack([np.eye(2), np.diag([1.0, 2.0]), np.eye(2)]))


def test_second_quantize_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        second_quantize(np.diag([1.0, 2.0]))


def test_jw_embed_site_zero_no_string():
    m = jw_embed(1, 0, 0, 2, 1)
    assert np.allclose(m, np.kron(matrix_unit(1, 0, 1), np.eye(2)))


def test_jw_embed_even_unit_plain():
    m = jw_embed(1, 1, 1, 2, 1)
    assert np.allclose(m, np.kron(np.eye(2), matrix_unit(1, 1, 1)))


def test_jw_embed_out_of_range():
    with pytest.raises(IndexOutOfRange):
        jw_embed(0, 0, 2, 2, 1)


def test_jw_odd_units_anticommute_d1():
    a = jw_embed(1, 0, 0, 2, 1)
    b = jw_embed(1, 0, 1, 2, 1)
    assert np.allclose(a @ b, -b @ a)
    assert np.linalg.norm(a @ b) > 0.5


def test_jw_commutation_exhaustive_d1_l3():
    length = 3
    for x, y in itertools.combinations(range(length), 2):
        for mu1, nu1, mu2, nu2 in itertools.product(range(2), repeat=4):
            a = jw_embed(mu1, nu1, x, length, 1)
            b = jw_embed(mu2, nu2, y, length, 1)
            odd1 = (subset_parity(mu1) + subset_parity(nu1)) % 2
            odd2 = (subset_parity(mu2) + subset_parity(nu2)) % 2
            sign = -1.0 if odd1 and odd2 else 1.0
            assert np.allclose(a @ b, sign * b @ a), (x, y, mu1, nu1, mu2, nu2)


@pytest.mark.parametrize("d,l", [(1, 1), (1, 2), (2, 1)])
def test_jw_word_is_signed_matrix_unit(d, l):
    nloc = 1 << d
    for word in itertools.product(
        itertools.product(range(nloc), range(nloc)), repeat=l + 1
    ):
        word = list(word)
        w = jw_word(word, d)
        row = 0
        col = 0
        for mu, nu in word:
            row = row * nloc + mu
            col = col * nloc + nu
        expected = np.zeros((nloc ** (l + 1),) * 2, dtype=complex)
        expected[row, col] = jw_word_sign(word)
        assert np.array_equal(w, expected), word
