import itertools
import time

import numpy as np
import pytest

from fspt import (
    OperatorAlgebra,
    algebra_closure,
    classify,
    commutant,
    find_odd_selfadjoint_unitary,
    full_matrix_algebra,
    graded_center_split,
    graded_split,
    graded_tensor,
    operator_degree,
    stack_systems,
)
from fspt.errors import (
    CentralityViolation,
    DegreeUntagged,
    DimensionTooLarge,
    NotGraded,
)
from fspt.linalg import is_selfadjoint_unitary, nullspace_rows, onb_rows, unvec, vec
from fspt.algebra import implementers
from conftest import (
    I2,
    SX,
    SZ,
    in_span,
    per_element_implementer,
    random_unitary,
    twisted_klein_grid,
)

E11 = np.diag([1.0, 0.0]).astype(complex)


def span_equal(a, b, tol=1e-8):
    if a.shape[0] != b.shape[0]:
        return False
    ra, rb = onb_rows(vec(a)), onb_rows(vec(b))
    return all(in_span(ra, m, tol) for m in b) and all(in_span(rb, m, tol) for m in a)


def word_span(gens):
    """Orthonormal rows spanning the words in the generators and their
    adjoints: a reference for A built from the generators alone."""
    gens = np.asarray(gens, dtype=complex)
    n = gens.shape[-1]
    mult = np.concatenate([gens, np.conj(np.transpose(gens, (0, 2, 1)))])
    rows = onb_rows(vec(np.concatenate([np.eye(n, dtype=complex)[None], mult])))
    while True:
        words = vec(mult[:, None] @ unvec(rows, n)[None]).reshape(-1, n * n)
        grown = onb_rows(np.concatenate([rows, words]))
        if grown.shape[0] == rows.shape[0]:
            return rows
        rows = grown


def test_closure_paulis_full():
    alg = algebra_closure([SX, SZ])
    assert alg.dim == 4


def test_closure_single_sx_two_dim():
    alg = algebra_closure([SX])
    assert alg.dim == 2
    assert span_equal(alg.basis, unvec(word_span([SX]), 2))
    assert in_span(vec(alg.basis), np.eye(2))
    assert in_span(vec(alg.basis), SX)
    assert not in_span(vec(alg.basis), SZ)


def test_closure_e11():
    alg = algebra_closure([E11])
    assert alg.dim == 2
    assert span_equal(alg.basis, unvec(word_span([E11]), 2))
    assert in_span(vec(alg.basis), np.eye(2)) and in_span(vec(alg.basis), E11)


def test_closure_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        algebra_closure([np.eye(65, dtype=complex)])


def test_commutant_full_and_scalars():
    full = full_matrix_algebra(3)
    assert commutant(full).dim == 1
    scalars = OperatorAlgebra(
        np.eye(3, dtype=complex)[None], (np.eye(3, dtype=complex)[None],), 3
    )
    assert commutant(scalars).dim == 9


def test_commutant_matches_kronecker_nullspace(rng):
    """On (M2 (x) 1_2) (+) M3 in a random basis, A' is the joint nullspace of
    x -> gx - xg over A's generators and their adjoints."""
    alg = _m2_x_1_plus_m3(rng)
    gens = np.concatenate([alg.generators, np.conj(np.transpose(alg.generators, (0, 2, 1)))])
    eye = np.eye(7, dtype=complex)
    stacked = np.concatenate([np.kron(g, eye) - np.kron(eye, g.T) for g in gens])
    reference = nullspace_rows(stacked).reshape(-1, 7, 7)
    comm = commutant(alg)
    assert comm.dim == reference.shape[0] == 4 + 1
    assert span_equal(comm.basis, reference)
    gram = np.einsum("aij,bij->ab", comm.basis.conj(), comm.basis)
    assert np.allclose(gram, np.eye(comm.dim), atol=1e-10)


def test_commutant_at_max_ambient():
    """M2 (x) 1_32 at ambient 64 has commutant 1_2 (x) M32, of dimension 1024."""
    eye = np.eye(32, dtype=complex)
    alg = algebra_closure([np.kron(SX, eye), np.kron(SZ, eye)])
    start = time.perf_counter()
    comm = commutant(alg)
    assert time.perf_counter() - start < 1.0
    assert comm.dim == 1024
    for g in alg.generators:
        assert np.abs(g @ comm.basis - comm.basis @ g).max() < 1e-10


def test_bicommutant_matches_algebra(rng):
    for n, n_gens in [(3, 1), (4, 2), (6, 2)]:
        gens = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(n_gens)
        ]
        alg = algebra_closure(gens)
        double = commutant(commutant(alg))
        assert double.dim == alg.dim
        assert span_equal(double.basis, alg.basis)


def _pi(a, gamma1, b, deg_b):
    return graded_tensor(a, gamma1, b, deg_b)


def _graded_product_algebra(left_full, right_full):
    """Closure of the Koszul products of (M2 or C*) with (M2 or C*)."""
    left = [(I2, 0), (SX, 1)] if not left_full else [(I2, 0), (SX, 1), (SZ, 0), (SX @ SZ, 1)]
    right = [(I2, 0), (SX, 1)] if not right_full else [(I2, 0), (SX, 1), (SZ, 0), (SX @ SZ, 1)]
    gens = [_pi(a, SZ, b, db) for a, _ in left for b, db in right]
    return algebra_closure(gens)


def test_graded_tensor_even_is_plain_kron():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(graded_tensor(a, SZ, SZ, 0), np.kron(a, SZ))


def test_graded_tensor_gamma_squares_away():
    assert np.allclose(graded_tensor(SZ, SZ, SX, 1), np.kron(np.eye(2), SX))


def test_graded_tensor_requires_degree():
    with pytest.raises(DegreeUntagged):
        graded_tensor(I2, SZ, SX, None)
    with pytest.raises(DegreeUntagged):
        graded_tensor(I2, SZ, SX + SZ, None, gamma2=SZ)
    assert operator_degree(SX, SZ) == 1


def _random_homogeneous(rng, gamma):
    d = rng.integers(0, 2)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (x + gamma @ x @ gamma) / 2 if d == 0 else (x - gamma @ x @ gamma) / 2
    return h, d


def test_koszul_product_and_star_rules(rng):
    for _ in range(25):
        a1, da1 = _random_homogeneous(rng, SZ)
        a2, da2 = _random_homogeneous(rng, SZ)
        b1, db1 = _random_homogeneous(rng, SZ)
        b2, db2 = _random_homogeneous(rng, SZ)
        lhs = _pi(a1, SZ, b1, db1) @ _pi(a2, SZ, b2, db2)
        rhs = (-1.0) ** (db1 * da2) * _pi(a1 @ a2, SZ, b1 @ b2, (db1 + db2) % 2)
        assert np.allclose(lhs, rhs, atol=1e-12)
        star_lhs = _pi(a1, SZ, b1, db1).conj().T
        star_rhs = (-1.0) ** (da1 * db1) * _pi(
            a1.conj().T, SZ, b1.conj().T, db1
        )
        assert np.allclose(star_lhs, star_rhs, atol=1e-12)


def test_commutant_of_graded_tensor_four_cases():
    """Commutants read off the block decomposition match the predicted
    generators.

    The prediction uses only the elementary commutants M2' = C1 and
    C*' = span{1, sx}, combined as even' (x) right' and odd' (x) right' G2.
    """
    m2_parts = {"even": [I2], "odd": []}
    cl_parts = {"even": [I2], "odd": [SX]}
    m2_comm = [I2 / np.sqrt(2)]
    cl_comm = [I2 / np.sqrt(2), SX / np.sqrt(2)]
    cases = [
        (True, True, m2_parts, m2_comm),
        (True, False, m2_parts, cl_comm),
        (False, True, cl_parts, m2_comm),
        (False, False, cl_parts, cl_comm),
    ]
    for left_full, right_full, left_comm_parts, right_comm in cases:
        alg = _graded_product_algebra(left_full, right_full)
        comm = commutant(alg)
        predicted = []
        parts = m2_parts if left_full else cl_parts
        for a in parts["even"]:
            predicted.extend(np.kron(a, b) for b in right_comm)
        for a in parts["odd"]:
            predicted.extend(np.kron(a, b @ SZ) for b in right_comm)
        predicted = np.stack(predicted)
        assert comm.dim == predicted.shape[0]
        rows = onb_rows(vec(predicted))
        assert all(in_span(vec(comm.basis), m, 1e-8) for m in predicted)
        assert all(in_span(rows, m, 1e-8) for m in comm.basis)


def test_graded_center_split_factor():
    even, odd, b = graded_center_split(full_matrix_algebra(2), SZ)
    assert even.shape[0] == 1 and odd.shape[0] == 0 and b is None


def test_graded_center_split_clifford_line():
    alg = algebra_closure([SX])
    even, odd, b = graded_center_split(alg, SZ)
    assert odd.shape[0] == 1
    assert np.allclose(b, SX) or np.allclose(b, -SX)


def test_graded_center_split_centrality_violation():
    diag = algebra_closure([np.diag([1.0, 0.0]).astype(complex)])
    with pytest.raises(CentralityViolation):
        graded_center_split(diag, np.eye(2, dtype=complex))


def test_graded_split_not_graded():
    # span{1, E11} inside M3 is not invariant under the 0 <-> 1 swap
    e11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    alg = algebra_closure([e11])
    with pytest.raises(NotGraded):
        graded_split(alg, swap)


def test_find_odd_selfadjoint_unitary(rng):
    z = np.zeros((2, 2), dtype=complex)
    gens = [np.block([[m, z], [z, z]]) for m in (SX, SZ)]
    two_factors = algebra_closure(gens + [np.block([[z, z], [z, m]]) for m in (SX, SZ)])
    t = random_unitary(4, rng)
    kappa_one = algebra_closure([np.kron(SX, I2), np.kron(SZ, I2), np.kron(I2, SX)]).conjugated(t)
    witnessed = [
        (full_matrix_algebra(2), SZ),
        (two_factors, np.kron(I2, SZ)),
        (kappa_one, t @ np.kron(I2, SZ) @ t.conj().T),
    ]
    for alg, gamma in witnessed:
        u = find_odd_selfadjoint_unitary(alg, gamma)
        assert u is not None
        assert operator_degree(u, gamma) == 1
        assert is_selfadjoint_unitary(u, 1e-10)
        assert in_span(word_span(alg.generators), u)
    trivially_graded = full_matrix_algebra(2)
    assert find_odd_selfadjoint_unitary(trivially_graded, np.eye(2, dtype=complex)) is None
    unbalanced = np.diag([1.0, 1.0, -1.0]).astype(complex)
    assert find_odd_selfadjoint_unitary(full_matrix_algebra(3), unbalanced) is None


def test_closure_invariant_under_conjugation(rng):
    t = random_unitary(4, rng)
    alg = algebra_closure([np.kron(SX, I2), np.kron(SZ, SX)])
    moved = alg.conjugated(t)
    for m in moved.basis:
        assert abs(np.linalg.norm(m) - 1.0) < 1e-10
    reference = word_span(moved.generators)
    assert span_equal(moved.basis, unvec(reference, 4))
    assert in_span(reference, t @ np.kron(SX, I2) @ t.conj().T)


def test_nullspace_rows_large_stack_keeps_the_svd_cut():
    """A 4096 x 300 stack whose smallest singular value is 1e-8 has full rank
    under the documented 1e-9 cut; an exact zero leaves one null row."""
    rng = np.random.default_rng(5)
    m, n = 4096, 300
    u, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    v = random_unitary(n, rng)
    s = np.ones(n)
    s[-1] = 1e-8
    assert nullspace_rows((u * s) @ v.conj().T).shape[0] == 0
    s[-1] = 0.0
    stacked = (u * s) @ v.conj().T
    null = nullspace_rows(stacked)
    assert null.shape[0] == 1
    assert np.linalg.norm(stacked @ null[0]) < 1e-10


def _m2_x_1_plus_m3(rng):
    """(M2 (x) 1_2) (+) M3 inside M7, in a random basis."""
    t = random_unitary(7, rng)

    def embed(m, at):
        out = np.zeros((7, 7), dtype=complex)
        out[at:at + m.shape[0], at:at + m.shape[0]] = m
        return out

    shift = np.roll(np.eye(3, dtype=complex), 1, axis=1)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    gens = [embed(np.kron(SX, I2), 0), embed(np.kron(SZ, I2), 0), embed(shift, 4), embed(clock, 4)]
    return algebra_closure([t @ g @ t.conj().T for g in gens])


def test_block_decomposition_matrix_units(rng):
    """(M2 (x) 1_2) (+) M3 in a random basis: the units E_ij = V_i V_j^dag of
    every block lie in A, multiply as matrix units, sum to 1 and span A."""
    alg = _m2_x_1_plus_m3(rng)
    reference = word_span(alg.generators)
    blocks = alg.blocks
    assert sorted(v.shape for v in blocks) == [(2, 7, 2), (3, 7, 1)]
    total = np.zeros((7, 7), dtype=complex)
    for v in blocks:
        units = np.einsum("inx,jmx->ijnm", v, v.conj())
        assert all(in_span(reference, e) for e in units.reshape(-1, 7, 7))
        prods = np.einsum("ijab,klbc->ijklac", units, units)
        expected = np.einsum("jk,ilac->ijklac", np.eye(v.shape[0]), units)
        assert np.allclose(prods, expected, atol=1e-10)
        total += np.einsum("iiab->ab", units)
    assert np.allclose(total, np.eye(7), atol=1e-10)
    assert sum(v.shape[0] ** 2 for v in blocks) == reference.shape[0]


def _block_automorphism(f, c, inner, outer, flag):
    """A unitary op with op conj^flag(f) = f inner: the block f (x) the
    complement c, each sent to itself."""
    if flag:
        return f @ inner @ f.T + c @ outer @ c.T
    return f @ inner @ f.conj().T + c @ outer @ c.conj().T


def test_implementers_match_the_per_element_step(rng):
    """Random blocks with N <= 4 and r <= 3 in one more ambient dimension,
    unitary and anti-unitary, acted on by block automorphisms W (x) M and by
    generic unitaries: every W and residual equals the one-element step."""
    for N, r in itertools.product(range(1, 5), range(1, 4)):
        n = N * r + 1
        q = random_unitary(n, rng)
        f, c = q[:, : N * r], q[:, N * r :]
        v = np.transpose(f.reshape(n, N, r), (1, 0, 2))
        flags = np.array([0, 1, 0, 1])
        mats = [
            _block_automorphism(
                f, c, np.kron(random_unitary(N, rng), random_unitary(r, rng)),
                random_unitary(1, rng), flag,
            )
            for flag in flags[:2]
        ] + [random_unitary(n, rng) for _ in flags[2:]]
        w, resid = implementers(v, np.stack(mats), flags)
        assert w.shape == (4, N, N) and resid.shape == (4,)
        assert (resid[:2] < 1e-10).all()
        for g, flag in enumerate(flags):
            w1, resid1 = per_element_implementer(v, mats[g], flag)
            assert np.abs(w[g] - w1).max() <= 1e-12, (N, r, g)
            assert abs(resid[g] - resid1) <= 1e-12, (N, r, g)


def test_implementers_on_the_kappa_one_factor():
    """The concatenated factor [V, Gamma V] of a stacked kappa = 1 system
    (twisted Klein group, so both flags occur)."""
    grid = twisted_klein_grid()
    sysm = stack_systems(grid[(1, 1, 1)], grid[(0, 2, 1)])
    assert classify(sysm)[0] == 1
    v = sysm.algebra.blocks[0]
    v = np.concatenate([v, sysm.gamma @ v], axis=-1)
    w, resid = implementers(v, sysm.action.mats, sysm.twist.values)
    assert (resid < 1e-8).all()
    for g in sysm.group.elements():
        w1, resid1 = per_element_implementer(v, sysm.action.mats[g], sysm.twist(g))
        assert np.abs(w[g] - w1).max() <= 1e-12 and abs(resid[g] - resid1) <= 1e-12
