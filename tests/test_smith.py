import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from fspt.smith import eliminate, solve_congruence


@st.composite
def congruence_systems(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    modulus = draw(st.integers(2, 12))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=m, max_size=m))
    c = draw(st.lists(st.integers(-100, 100), min_size=m, max_size=m))
    return np.array(a), np.array(c), modulus


@given(congruence_systems())
@settings(max_examples=300, deadline=None)
def test_solvable_exactly_when_exhaustive_search_finds_x(system):
    a, c, modulus = system
    xs = np.array(list(itertools.product(range(modulus), repeat=a.shape[1])))
    found = (((xs @ a.T - c) % modulus) == 0).all(axis=1).any()
    x = solve_congruence(a, c, modulus)
    assert (x is not None) == found
    if x is not None:
        assert not ((a @ np.array(x) - c) % modulus).any()


@given(congruence_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_one_elimination_serves_every_right_hand_side(system, data):
    a, _, modulus = system
    elim = eliminate(a, modulus)
    xs = np.array(list(itertools.product(range(modulus), repeat=a.shape[1])))
    rhs = st.lists(st.integers(-100, 100), min_size=len(a), max_size=len(a))
    for _ in range(4):
        c = np.array(data.draw(rhs))
        found = (((xs @ a.T - c) % modulus) == 0).all(axis=1).any()
        x = elim.solve(c)
        assert (x is not None) == found
        if x is not None:
            assert not ((a @ np.array(x) - c) % modulus).any()


@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 24), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_solvable_systems_solved(m, n, modulus, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 6, size=(m, n))
    x_true = rng.integers(0, modulus, size=n)
    c = (a @ x_true) % modulus
    x = solve_congruence(a.tolist(), c.tolist(), modulus)
    assert x is not None
    assert np.array_equal((a @ np.array(x)) % modulus, c)


def test_unsolvable_detected():
    # 2x = 1 mod 4 has no solution
    assert solve_congruence([[2]], [1], 4) is None
    # x + y = 1, x + y = 0 mod 2
    assert solve_congruence([[1, 1], [1, 1]], [1, 0], 2) is None


def test_modulus_one_trivial():
    assert solve_congruence([[3, 1]], [2], 1) == [0, 0]


def test_modulus_beyond_int64_products():
    # M^2 ~ 2^80: int64 products would wrap, so the solve runs on Python integers
    rng = np.random.default_rng(5)
    modulus = 2**40 + 15
    a = [[int(v) for v in row] for row in rng.integers(0, 2**40, size=(3, 3))]
    x_true = [int(v) for v in rng.integers(0, 2**40, size=3)]
    c = [sum(ai * xi for ai, xi in zip(row, x_true)) % modulus for row in a]
    x = solve_congruence(a, c, modulus)
    assert x is not None
    assert all((sum(ai * xi for ai, xi in zip(row, x)) - ci) % modulus == 0 for row, ci in zip(a, c))
