import itertools

import numpy as np
import pytest

from fspt import (
    ProjectiveRep,
    algebra_closure,
    SPTIndex,
    all_z2_homs,
    Phase,
    Z8Element,
    classify,
    cohomologous,
    compute_index,
    cyclic,
    full_matrix_algebra,
    index_equal,
    r0_system,
    r1_system,
    stack_index,
    stack_systems,
    system_from_generators,
    trivial_cocycle,
    trivial_hom,
    trivial_index,
    validate_cocycle,
    validate_hom_z2,
    z8_compose,
    z8_elements,
    z8_encode,
)
from fspt.errors import (
    CentralityViolation,
    DimensionTooLarge,
    GradingActionIndeterminate,
    GroupMismatch,
    InvalidSystem,
    NotBalanced,
    NotGraded,
    NotTimeReversalShape,
)
from fspt.invariant import Z8_GENERATOR, Z8_IDENTITY, z8_decode
from fspt.rep import pair
from fspt.system import GradedSystem
from conftest import (
    I2,
    SX,
    SY,
    SZ,
    d4_grid,
    q8_grid,
    random_unitary,
    tr_grid,
    tr_group,
    tr_system,
    twisted_klein_grid,
    unitary_system,
    v4_trivial_grid,
    z2_trivial_grid,
)


def trivial_group_rep(n):
    g1 = cyclic(1)
    return ProjectiveRep.build(g1, trivial_hom(g1), [np.eye(n, dtype=complex)])


HADAMARD = (SX + SZ) / np.sqrt(2.0)


def hadamard_rep():
    z2 = cyclic(2)
    return ProjectiveRep.build(z2, trivial_hom(z2), [I2, HADAMARD])


def test_action_that_leaves_the_algebra_is_rejected():
    """Ad_H sends sx to sz, which span{1, sx} does not contain."""
    with pytest.raises(InvalidSystem, match="action of 1 does not preserve the algebra"):
        system_from_generators([SX], SZ, hadamard_rep())


def test_action_that_mixes_the_grading_is_rejected():
    """Ad_H preserves M2 but carries the odd sx to the even sz."""
    with pytest.raises(InvalidSystem, match="action of 1 does not commute with the grading"):
        GradedSystem(full_matrix_algebra(2), SZ, hadamard_rep())


def test_classify_standard_forms():
    kappa, marker = classify(r0_system(trivial_group_rep(4), 2))
    assert kappa == 0
    gamma = np.kron(I2, SZ)
    assert np.allclose(marker, gamma) or np.allclose(marker, -gamma)

    kappa, marker = classify(r1_system(trivial_group_rep(4), 2))
    assert kappa == 1
    b = np.kron(I2, SX)
    assert np.allclose(marker, b) or np.allclose(marker, -b)


def test_classify_not_balanced():
    g1 = cyclic(1)
    sysm = GradedSystem(
        full_matrix_algebra(2),
        np.eye(2, dtype=complex),
        trivial_group_rep(2),
    )
    with pytest.raises(NotBalanced):
        classify(sysm)


def test_classify_rejects_a_grading_that_moves_a_generator_out():
    """span{1, sz} with Gamma the Hadamard: Ad_Gamma sends sz to sx."""
    sysm = system_from_generators([SZ], HADAMARD, trivial_group_rep(2))
    with pytest.raises(NotGraded):
        classify(sysm)


def test_classify_trivially_graded_non_factor_is_not_balanced():
    """C (+) C = span{1, sz} graded by 1: no odd element, and the two fixed
    blocks would also violate centrality; balancedness is decided first."""
    sysm = system_from_generators([SZ], I2, trivial_group_rep(2))
    with pytest.raises(NotBalanced):
        classify(sysm)


def test_classify_two_fixed_blocks_centrality_violation():
    """M2 (+) M2 graded by sz (+) sz: Ad_Gamma fixes both blocks, so the even
    center is two-dimensional."""
    z = np.zeros((2, 2), dtype=complex)
    gens = [np.block([[m, z], [z, z]]) for m in (SX, SZ)]
    gens += [np.block([[z, z], [z, m]]) for m in (SX, SZ)]
    sysm = system_from_generators(gens, np.kron(I2, SZ), trivial_group_rep(4))
    with pytest.raises(CentralityViolation):
        classify(sysm)


def test_classify_unbalanced_factor():
    """M3 graded by diag(1, 1, -1): the marker has trace 1, so A holds no odd
    self-adjoint unitary."""
    gamma = np.diag([1.0, 1.0, -1.0]).astype(complex)
    sysm = GradedSystem(full_matrix_algebra(3), gamma, trivial_group_rep(3))
    with pytest.raises(NotBalanced):
        classify(sysm)


def test_compute_index_trivial_group():
    idx = compute_index(r0_system(trivial_group_rep(2), 1))
    assert idx.kappa == 0 and idx.q.is_trivial
    assert idx.cls(0, 0).is_one()


def test_compute_index_tr_examples():
    # plain conjugation: the Z8 identity [0;0,+]
    idx = compute_index(tr_system(0, I2, 1))
    assert (idx.kappa, idx.q(1)) == (0, 0)
    assert idx.cls(1, 1).is_one(1e-8)
    # V_1 = (sy, flag 1): q = 1 since sy anticommutes with sz, and R^2 = -1
    idx = compute_index(tr_system(0, SY, 1))
    assert (idx.kappa, idx.q(1)) == (0, 1)
    assert idx.cls(1, 1).close_to(Phase.minus_one(), 1e-8)


def test_all_eight_tr_cells():
    for label, sysm in tr_grid().items():
        assert str(z8_encode(compute_index(sysm))) == label


def test_stack_with_trivial_is_identity():
    z2, pid = tr_group()
    trivial = tr_system(0, I2, 1)
    for label, sysm in list(tr_grid().items())[:4]:
        stacked = stack_systems(trivial, sysm)
        assert index_equal(compute_index(stacked), compute_index(sysm))


def test_stack_r1_r1_gives_factor():
    s = tr_system(1, I2, 1)
    kappa, _ = classify(stack_systems(s, s))
    assert kappa == 0


def test_stack_r0_r0_gives_kappa0():
    s = tr_system(0, I2, 1)
    kappa, _ = classify(stack_systems(s, s))
    assert kappa == 0


def test_stack_group_mismatch():
    z2 = cyclic(2)
    p = trivial_hom(z2)
    s1 = unitary_system(z2, p, 0, [I2, SX], 1)
    with pytest.raises(GroupMismatch):
        stack_systems(s1, tr_system(0, I2, 1))


def test_stack_size_guard_before_allocation():
    """8 x 16 exceeds MAX_AMBIENT = 64; the guard fires before any stacked matrix is formed."""
    small = r0_system(trivial_group_rep(8), 4)
    large = r0_system(trivial_group_rep(16), 8)
    with pytest.raises(DimensionTooLarge):
        stack_systems(small, large)


def _block_shapes(algebra):
    return sorted((v.shape[0], v.shape[2]) for v in algebra.blocks)


def test_stacked_blocks_match_the_closure():
    """stack_systems decomposes A1 (x)^ A2 from sampled graded products; its
    blocks {(N_b, r_b)} are those of the closure of the stacked generators.
    One operand is transported by a random unitary, the other closed from
    its generators."""
    rng = np.random.default_rng(11)
    tr = list(tr_grid().values())
    pairs = list(zip(tr[:4], reversed(tr[4:])))  # kappa 0 with kappa 1, ambient <= 8
    for grid in (v4_trivial_grid(), twisted_klein_grid(), d4_grid(), q8_grid()):
        pairs += [(grid[(ka, 1, 1)], grid[(kb, 2, 0)]) for ka in (0, 1) for kb in (0, 1)]
    for a, b in pairs:
        a = a.conjugated(random_unitary(a.algebra.ambient, rng))
        b = system_from_generators(b.algebra.generators, b.gamma, b.action)
        for stacked in (stack_systems(a, b), stack_systems(b, a)):
            closure = algebra_closure(stacked.algebra.generators)
            assert _block_shapes(stacked.algebra) == _block_shapes(closure)


@pytest.mark.parametrize("grid", [v4_trivial_grid, twisted_klein_grid, q8_grid])
def test_triple_stack_law_at_max_ambient(grid):
    """Three ambient-4 cells stack to ambient 64 = MAX_AMBIENT, and the index
    read off the stack obeys the law."""
    cells = grid()
    t = random_unitary(4, np.random.default_rng(12))
    a, b, c = cells[(1, 1, 1)].conjugated(t), cells[(0, 2, 1)], cells[(1, 3, 1)]
    stacked = stack_systems(stack_systems(a, b), c)
    assert stacked.algebra.ambient == 64
    law = stack_index(stack_index(compute_index(a), compute_index(b)), compute_index(c))
    assert index_equal(compute_index(stacked), law)


def test_stack_index_identity_law():
    grid = tr_grid()
    indices = {k: compute_index(s) for k, s in grid.items()}
    z2, pid = tr_group()
    ident = trivial_index(z2, pid)
    for idx in indices.values():
        assert index_equal(stack_index(ident, idx), idx)
        assert index_equal(stack_index(idx, ident), idx)


def test_stack_index_abelian(rng):
    grid = tr_grid()
    indices = list({k: compute_index(s) for k, s in grid.items()}.values())
    for _ in range(20):
        i, j = rng.integers(0, len(indices), 2)
        assert index_equal(
            stack_index(indices[i], indices[j]), stack_index(indices[j], indices[i])
        )


def test_index_equal_components():
    z2 = cyclic(2)
    p = trivial_hom(z2)
    qid = validate_hom_z2(z2, [0, 1])
    from fspt import epsilon, SPTIndex

    i1 = SPTIndex(0, trivial_hom(z2), epsilon(qid, qid, twist=p))
    i2 = SPTIndex(0, trivial_hom(z2), trivial_cocycle(z2, p))
    # untwisted Z2: eps(id,id) is a coboundary (b(1) = i), so classes agree
    assert index_equal(i1, i2)
    i3 = SPTIndex(0, qid, trivial_cocycle(z2, p))
    assert not index_equal(i2, i3)
    assert not index_equal(i2, SPTIndex(1, trivial_hom(z2), trivial_cocycle(z2, p)))


def test_z8_composition_rules():
    # [0;e1,x1][0;e2,x2] = [0; e1+e2, (-)^(e1 e2) x1 x2]
    assert z8_compose(Z8Element(0, 1, 1), Z8Element(0, 1, 1)) == Z8Element(0, 0, -1)
    assert z8_compose(Z8Element(0, 0, -1), Z8Element(0, 1, -1)) == Z8Element(0, 1, 1)
    # [0;e1,x1][1;e2,x2] = [1; e1+e2, (-)^(e1+e1 e2) x1 x2]
    assert z8_compose(Z8Element(0, 1, 1), Z8Element(1, 0, 1)) == Z8Element(1, 1, -1)
    assert z8_compose(Z8Element(0, 1, 1), Z8Element(1, 1, 1)) == Z8Element(1, 0, 1)
    # [1;e1,x1][1;e2,x2] = [0; e1+e2+1, (-)^(e1 e2) x1 x2]
    assert z8_compose(Z8Element(1, 1, 1), Z8Element(1, 1, 1)) == Z8Element(0, 1, -1)
    assert z8_compose(Z8Element(1, 0, 1), Z8Element(1, 0, 1)) == Z8Element(0, 1, 1)


def test_z8_generator_order_eight():
    acc = Z8_GENERATOR
    seen = [acc]
    while acc != Z8_IDENTITY:
        acc = z8_compose(acc, Z8_GENERATOR)
        seen.append(acc)
    assert len(seen) == 8
    assert len(set(seen)) == 8
    assert z8_elements()[0] == Z8_IDENTITY


def test_z8_encode_requires_tr_shape():
    z2 = cyclic(2)
    idx = trivial_index(z2, trivial_hom(z2))
    with pytest.raises(NotTimeReversalShape):
        z8_encode(idx)


def test_z8_encode_reads_a_floating_sign():
    z2, pid = tr_group()
    cls = validate_cocycle(z2, pid, [[1, 1], [1, complex(-1.0, 1e-10)]])
    assert not cls.is_exact
    assert z8_encode(SPTIndex(0, pid, cls)) == Z8Element(0, 1, -1)


def test_z8_decode_round_trip():
    z2, pid = tr_group()
    for e in z8_elements():
        assert z8_encode(z8_decode(e, z2, pid)) == e


def test_z8_compose_consistent_with_stack_index():
    z2, pid = tr_group()
    for e1 in z8_elements():
        for e2 in z8_elements():
            via_index = z8_encode(
                stack_index(z8_decode(e1, z2, pid), z8_decode(e2, z2, pid))
            )
            assert via_index == z8_compose(e1, e2)


def test_homomorphism_property_tr_exhaustive():
    grid = tr_grid()
    indices = {k: compute_index(s) for k, s in grid.items()}
    for (la, sa), (lb, sb) in itertools.product(grid.items(), grid.items()):
        direct = compute_index(stack_systems(sa, sb))
        law = stack_index(indices[la], indices[lb])
        assert index_equal(direct, law), (la, lb)
        assert z8_encode(direct) == z8_compose(
            z8_encode(indices[la]), z8_encode(indices[lb])
        )


def test_homomorphism_property_unitary_grids_sampled(rng):
    for grid in (z2_trivial_grid(), v4_trivial_grid()):
        keys = list(grid)
        indices = {k: compute_index(grid[k]) for k in keys}
        picks = rng.choice(len(keys), size=(8, 2))
        for i, j in picks:
            ka, kb = keys[i], keys[j]
            direct = compute_index(stack_systems(grid[ka], grid[kb]))
            assert index_equal(direct, stack_index(indices[ka], indices[kb])), (ka, kb)


def test_equivalence_invariance_random_conjugations(rng):
    samples = [
        tr_system(0, SY, 1),
        tr_system(1, SY, 1),
        tr_system(0, np.kron(SY, I2), 2),
    ]
    for sysm in samples:
        base = compute_index(sysm)
        for _ in range(10):
            t = random_unitary(sysm.algebra.ambient, rng)
            moved = sysm.conjugated(t)
            assert index_equal(compute_index(moved), base)


def test_phase_gauge_invariance(rng):
    z2, pid = tr_group()
    sysm = tr_system(0, SY, 1)
    base = compute_index(sysm)
    lam = np.exp(2j * np.pi * rng.random())
    rep = sysm.action.rescaled([1.0, lam])
    moved = GradedSystem(sysm.algebra, sysm.gamma, rep, form=sysm.form)
    assert index_equal(compute_index(moved), base)


@pytest.mark.parametrize("grid", [v4_trivial_grid, twisted_klein_grid, d4_grid, q8_grid])
def test_index_equal_under_random_action_phases(grid, rng):
    """Rescaling every V_g by a random phase keeps the index; the printed
    representative may move, since det V_g = 1 fixes V_g up to an N-th root."""
    cells = grid()
    for key in ((0, 1, 1), (1, 1, 1)):
        sysm = cells[key]
        lams = np.exp(2j * np.pi * rng.random(sysm.group.n))
        lams[sysm.group.identity] = 1.0
        moved = GradedSystem(sysm.algebra, sysm.gamma, sysm.action.rescaled(lams))
        assert index_equal(compute_index(moved), compute_index(sysm)), key


def test_componentwise_law_matches_formula():
    """kappa addition, the q law and the class law, cell by cell."""
    from fspt import epsilon_p, cocycle_product

    grid = v4_trivial_grid()
    keys = [(0, 0, 0), (1, 2, 0), (1, 1, 1), (0, 3, 1)]
    indices = {k: compute_index(grid[k]) for k in keys}
    for ka, kb in itertools.product(keys, keys):
        ia, ib = indices[ka], indices[kb]
        law = stack_index(ia, ib)
        assert law.kappa == (ia.kappa + ib.kappa) % 2
        expected_q = ia.q.plus(ib.q)
        if ia.kappa and ib.kappa:
            expected_q = expected_q.plus(ia.twist)
        assert law.q.same_as(expected_q)
        expected_cls = cocycle_product(
            cocycle_product(ia.cls, ib.cls),
            epsilon_p(ia.kappa, ia.q, ib.kappa, ib.q, ia.twist),
        )
        ok, _ = cohomologous(law.cls, expected_cls)
        assert ok


def test_system_from_generators_matches_structured():
    z2, pid = tr_group()
    rep = ProjectiveRep(z2, pid, (pair(I2, 0), pair(SY, 1)))
    direct = system_from_generators([SX, SZ], SZ, rep)
    structured = tr_system(0, SY, 1)
    assert index_equal(compute_index(direct), compute_index(structured))


BEYOND_Z2_GRIDS = {"twisted klein": twisted_klein_grid, "d4": d4_grid, "q8": q8_grid}


@pytest.mark.parametrize("family", list(BEYOND_Z2_GRIDS))
def test_stacking_law_beyond_z2(family, rng):
    """Every kappa pair, undressed and dressed, at ambient 2 and 4; the
    first operand of the last pair is conjugated by a random unitary."""
    grid = BEYOND_Z2_GRIDS[family]()
    n_q = 1 + max(k[1] for k in grid)
    pairs = itertools.product([(0, 0), (0, 1), (1, 1)], [(0, 0), (0, 1), (1, 0), (1, 1)])
    for (da, db), (ka, kb) in pairs:
        a = grid[(ka, int(rng.integers(n_q)), da)]
        b = grid[(kb, int(rng.integers(n_q)), db)]
        if (da, db, ka, kb) == (1, 1, 1, 1):
            a = a.conjugated(random_unitary(a.algebra.ambient, rng))
        direct = compute_index(stack_systems(a, b))
        law = stack_index(compute_index(a), compute_index(b))
        assert index_equal(direct, law), (family, ka, kb, da, db)


@pytest.mark.parametrize("family", list(BEYOND_Z2_GRIDS))
def test_invariance_beyond_z2(family, rng):
    """Random-unitary invariance of operands and of one stack."""
    grid = BEYOND_Z2_GRIDS[family]()
    n_q = 1 + max(k[1] for k in grid)
    for kappa, dressed in itertools.product((0, 1), (0, 1)):
        qi = int(rng.integers(n_q))
        sysm = grid[(kappa, qi, dressed)]
        base = compute_index(sysm)
        assert base.kappa == kappa and base.q.same_as(all_z2_homs(sysm.group)[qi])
        t = random_unitary(sysm.algebra.ambient, rng)
        assert index_equal(compute_index(sysm.conjugated(t)), base), (kappa, dressed)
    stack = stack_systems(grid[(0, 1, 1)], grid[(1, 2, 1)])
    t = random_unitary(stack.algebra.ambient, rng)
    assert index_equal(compute_index(stack.conjugated(t)), compute_index(stack))


def test_sign_character_reads_signs_and_names_first_failing_element():
    z2 = cyclic(2)
    rep = ProjectiveRep.build(z2, trivial_hom(z2), [np.eye(2), np.diag([1.0, -1.0])])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    error = "action of {g} sends the marker to neither +/- itself"
    assert rep.sign_character(np.diag([1.0, -1.0]), error) == [0, 0]
    assert rep.sign_character(sx, error) == [0, 1]
    with pytest.raises(GradingActionIndeterminate) as info:
        rep.sign_character(sx + np.diag([1.0, -1.0]), error)
    assert str(info.value) == "action of 1 sends the marker to neither +/- itself"
