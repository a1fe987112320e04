import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fspt import (
    Phase,
    ProjectiveRep,
    all_z2_homs,
    classify,
    coboundary,
    cocycle_of_rep,
    cocycle_product,
    cohomologous,
    compute_index,
    cyclic,
    default_modulus,
    dihedral,
    direct_product,
    epsilon,
    epsilon_p,
    klein,
    quaternion8,
    stack_systems,
    trivial_cocycle,
    trivial_hom,
    validate_cocycle,
    validate_group,
    validate_hom_z2,
)
from fspt.algebra import implementers
from fspt.cocycle import (
    SNAP_TOL,
    TwistedCocycle,
    _check_order,
    _coboundary_elimination,
    _coboundary_exponents,
    _pack,
)
from fspt.errors import (
    CocycleIdentityFails,
    GroupMismatch,
    NotNormalized,
    NotRootOfUnity,
    NotUnitPhase,
    SizeTooLarge,
)
from conftest import (
    PAULI_REP,
    SY,
    d4_grid,
    q8_grid,
    rescaled,
    tr_grid,
    twisted_klein_grid,
    v4_trivial_grid,
    z2_trivial_grid,
)

Z2 = cyclic(2)
P_ID = validate_hom_z2(Z2, [0, 1])
P_TRIV = trivial_hom(Z2)
V4 = klein()


def cocycle_defect(u, f, g, h):
    """conj^p(f)(v(g,h)) v(f,gh) / (v(f,g) v(fg,h)) as a Phase; 1 for a cocycle.

    The scalar reference for the broadcast in validate_cocycle: exact
    Fraction angles when all four entries are exact, complex values otherwise.
    u is a TwistedCocycle or a PhaseTable.
    """
    grp = u.group
    entries = (u(g, h), u(f, grp.mul(g, h)), u(f, g), u(grp.mul(f, g), h))
    powers = ((-1) ** u.twist(f), 1, -1, -1)
    if all(x.z is None for x in entries):
        angle = sum(s * Fraction(x.k, x.N) for s, x in zip(powers, entries))
        return Phase.exact(angle.numerator, angle.denominator)
    return Phase.from_complex(np.prod([x.value ** s for s, x in zip(powers, entries)]))


@dataclass(frozen=True)
class PhaseTable:
    """Phase records v(g,h) = rows[g][h] on (group, twist), exact or floating."""

    group: object
    twist: object
    rows: object

    def __call__(self, g, h):
        return self.rows[g][h]


def phase_table(group, entries):
    table = np.empty((group.n, group.n), dtype=object)
    table[:] = Phase.one()
    for (g, h), val in entries.items():
        table[g, h] = Phase.coerce(val)
    return table


def small_groups():
    return [
        cyclic(1), cyclic(2), cyclic(3), cyclic(4), cyclic(6), cyclic(8),
        klein(), direct_product(cyclic(2), cyclic(4)),
        direct_product(klein(), cyclic(2)),
        dihedral(3), dihedral(4), quaternion8(),
    ]


def test_trivial_cocycle_valid_any_twist():
    for p in (P_TRIV, P_ID):
        u = trivial_cocycle(Z2, p)
        for f, g, h in itertools.product(Z2.elements(), repeat=3):
            assert cocycle_defect(u, f, g, h).is_one()


def test_i_valued_table_twist_decides():
    table = phase_table(Z2, {(1, 1): Phase.exact(1, 4)})
    # untwisted: v(1,1) = i is killed by a coboundary with b(1)^2 = -i
    u = validate_cocycle(Z2, P_TRIV, table)
    ok, witness = cohomologous(u, trivial_cocycle(Z2, P_TRIV), modulus=8)
    assert ok and Phase.exact(2 * witness.b[1].k, witness.b[1].N) == Phase.exact(3, 4)
    assert witness.verify(u, trivial_cocycle(Z2, P_TRIV))
    # with the anti-unitary twist the defect at (1,1,1) is conj(i)/i = -1
    assert cocycle_defect(
        u.__class__(Z2, P_ID, u.table, u.N), 1, 1, 1
    ).close_to(Phase.minus_one())
    with pytest.raises(CocycleIdentityFails):
        validate_cocycle(Z2, P_ID, table)


def test_epsilon_values_frozen():
    eps = epsilon(P_ID, P_ID)
    assert eps(1, 1) == Phase.minus_one()
    assert eps(0, 0).is_one() and eps(0, 1).is_one() and eps(1, 0).is_one()
    assert epsilon(P_TRIV, P_ID)(1, 1).is_one()


def test_epsilon_v4_support():
    # element (g1, g2) carries index g1*2 + g2
    proj1 = validate_hom_z2(V4, [0, 0, 1, 1])
    proj2 = validate_hom_z2(V4, [0, 1, 0, 1])
    eps = epsilon(proj1, proj2)
    nontrivial = {
        (g, h) for g in V4.elements() for h in V4.elements()
        if not eps(g, h).is_one()
    }
    assert nontrivial == {(g, h) for g in (2, 3) for h in (1, 3)}


def test_epsilon_valid_for_every_twist():
    for p in (P_TRIV, P_ID):
        for q1 in all_z2_homs(Z2):
            for q2 in all_z2_homs(Z2):
                u = epsilon(q1, q2, twist=p)
                for f, g, h in itertools.product(Z2.elements(), repeat=3):
                    assert cocycle_defect(u, f, g, h).is_one()


def test_epsilon_p_reductions():
    q0, qid = trivial_hom(Z2), P_ID
    # equal kappas: reduces to epsilon(q1, q2)
    u = epsilon_p(1, qid, 1, qid, P_ID)
    assert u(1, 1) == epsilon(qid, qid)(1, 1)
    # kappa1=1, kappa2=0 with q1=q2=0: everything vanishes
    assert epsilon_p(1, q0, 0, q0, P_ID)(1, 1).is_one()
    # kappa1=1, kappa2=0, q2=id: value at (1,1) is (-1)^(0 + 1*1)
    assert epsilon_p(1, q0, 0, qid, P_ID)(1, 1) == Phase.minus_one()


def test_epsilon_p_is_cocycle_everywhere():
    v4 = V4
    p = validate_hom_z2(v4, [0, 1, 0, 1])
    homs = all_z2_homs(v4)
    for k1, k2 in itertools.product((0, 1), repeat=2):
        for q1, q2 in itertools.product(homs[:2], homs[2:]):
            u = epsilon_p(k1, q1, k2, q2, p)
            for f, g, h in itertools.product(v4.elements(), repeat=3):
                assert cocycle_defect(u, f, g, h).is_one()


def test_cocycle_product():
    eps = epsilon(P_ID, P_ID, twist=P_TRIV)
    assert cocycle_product(eps, trivial_cocycle(Z2)).close_to(eps)
    assert cocycle_product(eps, eps).close_to(trivial_cocycle(Z2))
    ui = validate_cocycle(Z2, P_TRIV, phase_table(Z2, {(1, 1): Phase.exact(1, 4)}))
    assert cocycle_product(ui, ui)(1, 1) == Phase.minus_one()
    with pytest.raises(GroupMismatch):
        cocycle_product(eps, trivial_cocycle(V4))


def test_cohomologous_reflexive_with_unit_witness():
    u = epsilon(P_ID, P_ID, twist=P_ID)
    ok, w = cohomologous(u, u)
    assert ok and all(p.is_one() for p in w.b)


def test_cohomologous_beyond_int64_products():
    # M = 3 lcm(2, 2^31 - 1) ~ 1.3e10: M^2 overflows int64, so the solve runs on Python integers
    z3 = cyclic(3)
    N = 2**31 - 1
    b = [Phase.one(), Phase.exact(1, N), Phase.exact(N - 12345, N)]
    trivial, u = trivial_cocycle(z3), coboundary(b, z3, trivial_hom(z3))
    assert default_modulus(trivial, u) > 2**32
    ok, w = cohomologous(trivial, u)
    assert ok and w.verify(trivial, u)


def test_cached_elimination_keyed_by_twist_not_group():
    # v(1,1) = -1 is a coboundary without the twist and a class with it
    _coboundary_elimination.cache_clear()
    for twist, expected in ((P_TRIV, True), (P_ID, False)):
        u = epsilon(P_ID, P_ID, twist=twist)
        ok, _ = cohomologous(u, trivial_cocycle(Z2, twist), modulus=4)
        assert ok is expected


def test_repeated_calls_share_one_unchanged_elimination(rng):
    group = dihedral(4)
    homs = all_z2_homs(group)
    twist = homs[1]
    u1 = epsilon(homs[2], homs[3], twist)
    b = [Phase.one()] + [Phase.exact(int(k), 16) for k in rng.integers(0, 16, 7)]
    u2 = cocycle_product(u1, coboundary(b, group, twist))
    elim = _coboundary_elimination(twist, default_modulus(u1, u2))
    arrays = [elim.A, elim.U, elim.g, elim.inv, elim.V]
    before = [a.copy() for a in arrays]
    witnesses = []
    for _ in range(3):
        # inputs rebuilt from plain tables still hit the cache, which keys by value
        fresh = validate_hom_z2(validate_group(group.table.tolist()), twist.values.tolist())
        hits = _coboundary_elimination.cache_info().hits
        ok, w = cohomologous(*(TwistedCocycle(fresh.group, fresh, u.table, u.N) for u in (u1, u2)))
        assert ok and _coboundary_elimination.cache_info().hits == hits + 1
        witnesses.append(w.b)
    assert witnesses[0] == witnesses[1] == witnesses[2]
    assert all(not a.flags.writeable and np.array_equal(a, c) for a, c in zip(arrays, before))


def _reference_solve(A, c, M):
    """The step-by-step solve the cached elimination replaced: record the row
    steps of D = U A V mod M, replay them on c, test g_i | (U c)_i, x = V y."""

    def reduce(a):
        a[...] = (a + (M - 1) // 2) % M - (M - 1) // 2

    m, n = A.shape
    k = min(m, n)
    W = np.zeros((m + n, n), np.int64)
    W[:m], W[m:] = A, np.eye(n, dtype=np.int64)
    reduce(W)
    steps = []
    for t in range(k):
        while True:
            mag = np.abs(W[t:m, t:n])
            mag = np.where(mag, mag, M)
            i, j = divmod(int(mag.argmin()), n - t)
            if mag[i, j] == M:
                break
            if i:
                W[[t, t + i]] = W[[t + i, t]]
            if j:
                W[:, [t, t + j]] = W[:, [t + j, t]]
            p = W[t, t]
            q = W[t + 1:m, t] // p
            W[t + 1:m] -= np.outer(q, W[t])
            W[:, t + 1:n] -= np.outer(W[:, t], W[t, t + 1:n] // p)
            reduce(W)
            steps.append((t, i, q))
            if not (W[t + 1:m, t].any() or W[t, t + 1:n].any()):
                break
    d = W.diagonal()[:k].tolist() + [0] * (m - k)
    g = [gcd(di, M) for di in d]
    inv = np.array([pow(d[i] // g[i], -1, M // g[i]) for i in range(k)])
    g = np.array(g)
    uc = np.array(c, dtype=np.int64)
    reduce(uc)
    for t, i, q in steps:
        if i:
            uc[[t, t + i]] = uc[[t + i, t]]
        uc[t + 1:] -= q * uc[t]
        reduce(uc)
    if (uc % g).any():
        return None
    y = uc[:k] // g[:k] * inv % (M // g[:k])
    return ((W[m:, :k] @ y) % M).tolist()


# the groups of the benchmark's cohomology workload, order 2 to 16
COHOMOLOGY_GROUPS = [
    cyclic(2), cyclic(3), cyclic(4), klein(), cyclic(6), dihedral(3), cyclic(8),
    direct_product(cyclic(2), cyclic(4)), direct_product(klein(), cyclic(2)),
    dihedral(4), quaternion8(), dihedral(6), dihedral(8),
    direct_product(cyclic(4), cyclic(4)),
]


@pytest.mark.parametrize("group", COHOMOLOGY_GROUPS, ids=lambda g: f"order{g.n}")
def test_cached_solve_matches_step_by_step_reference(group, rng):
    """Same verdict and witness as the step-by-step solve, under every twist,
    on coboundary and on generic (mostly non-coboundary) right-hand sides."""
    n, M = group.n, 4 * group.n
    verdicts = set()
    for twist in all_z2_homs(group):
        elim = _coboundary_elimination(twist, M)
        A = _coboundary_exponents(np.eye(n, dtype=np.int64), group, twist).reshape(n * n, n)
        homs = all_z2_homs(group)
        for _ in range(4):
            b = rng.integers(0, M, n)
            b[group.identity] = 0
            q1, q2 = (homs[i] for i in rng.integers(len(homs), size=2))
            sign = np.outer(q1.values, q2.values) % 2 * (M // 2)
            for c in (A @ b % M, (A @ b + sign.ravel()) % M, rng.integers(0, M, n * n)):
                x = elim.solve(c)
                assert x == _reference_solve(A, c, M)
                verdicts.add(x is not None)
    assert verdicts == {True, False}


def test_pauli_class_not_trivial_modulus8():
    rep = ProjectiveRep.build(V4, trivial_hom(V4), [PAULI_REP[g] for g in range(4)])
    u = cocycle_of_rep(rep)
    ratio = Phase.from_complex(u(2, 1).value / u(1, 2).value)
    assert ratio.close_to(Phase.minus_one())
    ok, _ = cohomologous(u, trivial_cocycle(V4), modulus=8)
    assert not ok


def test_pauli_class_equals_epsilon_class():
    rep = ProjectiveRep.build(V4, trivial_hom(V4), [PAULI_REP[g] for g in range(4)])
    u = cocycle_of_rep(rep)
    proj1 = validate_hom_z2(V4, [0, 0, 1, 1])
    proj2 = validate_hom_z2(V4, [0, 1, 0, 1])
    ok, w = cohomologous(u, epsilon(proj1, proj2))
    assert ok and w.verify(u, epsilon(proj1, proj2))


def test_sign_cocycle_swap_symmetry_small_groups():
    for group in small_groups():
        homs = all_z2_homs(group)
        for q1, q2 in itertools.product(homs, homs):
            u1 = epsilon(q1, q2, twist=q1)
            u2 = epsilon(q2, q1, twist=q1)
            ok, witness = cohomologous(u1, u2)
            assert ok, f"|G|={group.n}"
            # the universal explicit witness b(g) = (-1)^(q1(g) q2(g))
            explicit = tuple(
                Phase.exact(q1(g) * q2(g), 2) for g in group.elements()
            )
            shifted = cocycle_product(u1, coboundary(explicit, group, q1))
            assert shifted.close_to(u2)
            assert witness.verify(u1, u2)


def _random_lattice_cochain(group, modulus, rng):
    b = [Phase.exact(int(k), modulus) for k in rng.integers(0, modulus, group.n)]
    b[group.identity] = Phase.one()
    return b


def test_cohomologous_equivalence_relation(rng):
    groups = [cyclic(2), cyclic(3), klein(), cyclic(4), dihedral(3)]
    for trial in range(40):
        group = groups[trial % len(groups)]
        homs = all_z2_homs(group)
        p = homs[rng.integers(0, len(homs))]
        modulus = int(default_modulus(trivial_cocycle(group, p)))
        base = trivial_cocycle(group, p)
        if len(homs) > 1 and rng.random() < 0.5:
            q1 = homs[rng.integers(0, len(homs))]
            q2 = homs[rng.integers(0, len(homs))]
            base = epsilon(q1, q2, twist=p)
        us = [
            cocycle_product(
                base, coboundary(_random_lattice_cochain(group, modulus, rng), group, p)
            )
            for _ in range(3)
        ]
        ok12, w12 = cohomologous(us[0], us[1], modulus=modulus)
        ok21, _ = cohomologous(us[1], us[0], modulus=modulus)
        ok23, _ = cohomologous(us[1], us[2], modulus=modulus)
        ok13, _ = cohomologous(us[0], us[2], modulus=modulus)
        assert ok12 and ok21 and ok23 and ok13
        assert w12.verify(us[0], us[1])


def test_cohomologous_distinguishes_classes():
    proj1 = validate_hom_z2(V4, [0, 0, 1, 1])
    proj2 = validate_hom_z2(V4, [0, 1, 0, 1])
    eps = epsilon(proj1, proj2)
    shifted = cocycle_product(
        eps, coboundary([Phase.one(), Phase.exact(1, 8), Phase.exact(5, 8), Phase.exact(2, 8)], V4, trivial_hom(V4))
    )
    ok, _ = cohomologous(shifted, trivial_cocycle(V4))
    assert not ok
    ok2, _ = cohomologous(shifted, eps)
    assert ok2


def test_not_root_of_unity_raises():
    # exp(2 pi i / 3) is exact, and no 8th root of unity
    u = validate_cocycle(Z2, P_TRIV, phase_table(Z2, {(1, 1): Phase.exact(1, 3)}))
    with pytest.raises(NotRootOfUnity, match="8-th roots"):
        cohomologous(u, trivial_cocycle(Z2), modulus=8)
    assert cohomologous(u, trivial_cocycle(Z2))[0]  # the default lattice holds it


def test_off_lattice_floating_table_is_cohomologous_to_trivial():
    # any v(1,1) on untwisted Z2 is b(1)^2 for some b, on a lattice or not
    table = phase_table(Z2, {(1, 1): complex(np.exp(0.37j))})
    u = validate_cocycle(Z2, P_TRIV, table)
    assert u.close_to(trivial_cocycle(Z2))


def test_a_table_beyond_the_snap_cut_raises_not_root_of_unity():
    # with the twist, v(1,1) must be real: exp(1e-4 i) passes the identity at tol 1e-3,
    # and normalization leaves it 1e-4 from the square roots of unity
    table = phase_table(Z2, {(1, 1): complex(np.exp(1e-4j))})
    with pytest.raises(NotRootOfUnity, match="from the 2-th roots"):
        validate_cocycle(Z2, P_ID, table, tol=1e-3)
    with pytest.raises(CocycleIdentityFails):
        validate_cocycle(Z2, P_ID, table)
    # just inside the cut it snaps to 1
    inside = phase_table(Z2, {(1, 1): complex(np.exp(0.5j * SNAP_TOL))})
    assert validate_cocycle(Z2, P_ID, inside, tol=1e-3).close_to(trivial_cocycle(Z2, P_ID))


def test_identity_operator_within_the_cut_reads_as_one():
    # ProjectiveRep holds M_e within 1e-8 dim of 1 (Frobenius): 1.5e-8 i on four
    # diagonal entries is 3e-8.  Read as it stands, v(e,e) = exp(1.5e-8 i) would
    # fail normalization at linalg.TOL.
    mats = np.stack([np.exp(1.5e-8j) * np.eye(4), np.diag([1.0, -1.0, 1.0, -1.0])])
    rep = ProjectiveRep.build(Z2, P_TRIV, mats)
    assert cocycle_of_rep(rep).close_to(trivial_cocycle(Z2))


def test_cocycle_of_rep_true_rep_trivial():
    z3 = cyclic(3)
    w = np.exp(2j * np.pi / 3)
    rep = ProjectiveRep.build(z3, trivial_hom(z3), [np.eye(1), w * np.eye(1) / w, np.eye(1)])
    u = cocycle_of_rep(rep)
    assert all(u(g, h).is_one(1e-9) for g in z3.elements() for h in z3.elements())


def test_cocycle_of_rep_antiunitary_sign():
    z2, pid = Z2, P_ID
    rep = ProjectiveRep(z2, pid, ((np.eye(2, dtype=complex), 0), (SY, 1)))
    u = cocycle_of_rep(rep)
    assert u(1, 1).close_to(Phase.minus_one())


def test_cocycle_of_rep_rejects_non_projective():
    # two commuting generators whose product is not scalar off the rep
    mats = [np.eye(2, dtype=complex), np.diag([1.0, 2.0]) / np.sqrt(2.0)]
    with pytest.raises(Exception):
        rep = ProjectiveRep.build(Z2, P_TRIV, mats)
        cocycle_of_rep(rep)


def test_rescaling_changes_by_coboundary(rng):
    rep = ProjectiveRep.build(V4, trivial_hom(V4), [PAULI_REP[g] for g in range(4)])
    u = cocycle_of_rep(rep)
    modulus = 8
    lams = [Phase.one()] + [
        Phase.exact(int(k), modulus) for k in rng.integers(0, modulus, 3)
    ]
    u2 = cocycle_of_rep(rescaled(rep, [p.value for p in lams]))
    ok, _ = cohomologous(u, u2, modulus=modulus)
    assert ok


def test_every_produced_cocycle_satisfies_identity(rng):
    producers = [
        epsilon(P_ID, P_ID, twist=P_ID),
        epsilon_p(1, P_ID, 0, P_ID, P_ID),
        cocycle_of_rep(
            ProjectiveRep.build(V4, trivial_hom(V4), [PAULI_REP[g] for g in range(4)])
        ),
    ]
    for u in producers:
        for f, g, h in itertools.product(u.group.elements(), repeat=3):
            assert cocycle_defect(u, f, g, h).is_one(1e-9)


def test_default_lattice_complete_for_exact_inputs():
    # v(1,1) = b(1)^2 is an 8th root, but the witness b(1) is a 16th root
    u = coboundary([1, Phase.exact(1, 16)], Z2, P_TRIV)
    assert default_modulus(trivial_cocycle(Z2), u) == 16
    ok, witness = cohomologous(trivial_cocycle(Z2), u)
    assert ok and witness.verify(trivial_cocycle(Z2), u)
    # an explicit modulus stays a lattice-relative question
    ok8, _ = cohomologous(trivial_cocycle(Z2), u, modulus=8)
    assert not ok8


def test_huge_common_root_order_raises_size_too_large():
    # coprime orders whose lcm needs more than 62 bits
    z3 = cyclic(3)
    table = phase_table(
        z3, {(1, 1): Phase.exact(1, 2**31 - 1), (2, 2): Phase.exact(1, 2**32 - 5)}
    )
    with pytest.raises(SizeTooLarge):
        validate_cocycle(z3, trivial_hom(z3), table)


def object_array_pack(values, shape, tol):
    """The object-array reader that cocycle._pack replaced, kept as its reference:
    (int64 exponents, N) of exact phases on their lcm order N, else (complex128, 0)."""
    floating = getattr(values, "dtype", None) == np.complex128
    raw = values if floating else np.asarray(values, dtype=object)
    if raw.shape != shape:
        raise NotNormalized(f"expected a {' x '.join(map(str, shape))} table")
    if floating:
        size = np.abs(raw)
        if (off := np.abs(size - 1.0) > tol).any():
            raise NotUnitPhase(f"|z| = {size[off][0]:.3e} deviates from 1 beyond {tol:.1e}")
        return raw / size, 0
    phases = [Phase.coerce(x, tol) for x in raw.flat]
    if any(p.z is not None for p in phases):
        return np.array([p.value for p in phases], dtype=complex).reshape(shape), 0
    N = lcm(*(p.N for p in phases))
    _check_order(N)
    return np.array([p.k * (N // p.N) for p in phases], dtype=np.int64).reshape(shape), N


def _object_array(rows):
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    out[:] = [list(row) for row in rows]
    return out


_W = complex(np.exp(0.3j))
_EXACT_ROWS = [  # mixed root orders, Phase and int entries
    [Phase.one(), 1, Phase.exact(1, 3), Phase.exact(3, 4)],
    [-1, Phase.exact(5, 6), Phase.minus_one(), 1],
    [Phase.exact(2, 5), 1, Phase.exact(7, 12), -1],
    [1, -1, -1, Phase.exact(1, 8)],
]
_MIXED_ROWS = [  # every kind of entry, one of them floating
    [Phase.one(), 1, 1.0, Phase.exact(1, 3)],
    [-1.0, 1j, Phase.from_complex(_W), -1],
    [np.int64(1), np.float64(-1.0), True, complex(-1)],
    [Phase.minus_one(), -1j, _W, np.complex128(1j)],
]
_SIGNS = np.array([[1, -1, 1, 1], [-1, -1, 1, -1], [1, 1, -1, 1], [-1, 1, 1, -1]])


@pytest.mark.parametrize(
    "values",
    [
        _EXACT_ROWS,
        tuple(map(tuple, _EXACT_ROWS)),
        _object_array(_EXACT_ROWS),
        _MIXED_ROWS,
        _object_array(_MIXED_ROWS),
        [list(row) for row in _SIGNS.astype(float)],
        _SIGNS,
        _SIGNS.astype(np.int32),
        _SIGNS.astype(object),
        list(_SIGNS),  # rows that are int arrays
        _SIGNS.astype(complex),
        _SIGNS * np.exp(0.1j),
        [[Phase.exact(1, 2**31 - 1), 1, 1, 1], [1, 1, 1, Phase.exact(1, 2**29)], *_SIGNS[2:]],
        # 1-D cochains, as coboundary reads them
        _EXACT_ROWS[0],
        tuple(_MIXED_ROWS[2]),
        _object_array(_EXACT_ROWS)[1],
        _SIGNS[0],
        _SIGNS[0].astype(object),
        [Phase.one(), _W, -1, 1j],
    ],
)
def test_pack_matches_the_object_array_reader(values):
    shape = (4,) * (1 + isinstance(values[0], (list, tuple, np.ndarray)))
    table, N = _pack(values, shape, 1e-9)
    ref_table, ref_N = object_array_pack(values, shape, 1e-9)
    assert N == ref_N and table.dtype == ref_table.dtype
    assert table.shape == shape and np.array_equal(table, ref_table)


@pytest.mark.parametrize(
    "values",
    [
        [[1, 1, 1, 1]] * 3,  # wrong size
        [[1, 1, 1, 1]] * 3 + [[1, 1, 1]],  # ragged
        [[1, 1, 1, 1]] * 3 + [1],
        [1, 1, 1, 1],  # a cochain where a table is due
        1,  # scalar
        Phase.one(),
        np.array(1),
        None,
        "1111",
        np.ones((4, 4, 1), dtype=int),  # 3-D
        np.ones((4, 4), dtype=complex)[:3],
    ],
)
def test_pack_refuses_a_table_of_another_shape(values):
    with pytest.raises(NotNormalized, match="expected a 4 x 4 table"):
        _pack(values, (4, 4), 1e-9)
    with pytest.raises(NotNormalized):
        validate_cocycle(V4, trivial_hom(V4), values)


@pytest.mark.parametrize(
    "entry",
    [None, [1], "x", "-1", b"-1", {}, 10**400],
    ids=["none", "list", "letter", "numeric-string", "bytes", "dict", "beyond-float"],
)
def test_pack_refuses_an_entry_that_is_no_number(entry):
    table = [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, -1, entry], [1, 1, 1, 1]]
    with pytest.raises(NotUnitPhase, match="is not a number"):
        validate_cocycle(V4, trivial_hom(V4), table)
    with pytest.raises(NotUnitPhase, match="is not a number"):
        coboundary([1, 1, entry, 1], V4, trivial_hom(V4))


AGREEMENT_GROUPS = [cyclic(2), cyclic(4), klein(), dihedral(3), dihedral(4), quaternion8()]


def _agreement_table(group, twist, rng, kind, perturb):
    """A coboundary-shifted sign cocycle as Phases, maybe with one entry off, and
    the exact Phases it was rounded from (with the entry off if that one is exact)."""
    homs = all_z2_homs(group)
    q1, q2 = homs[rng.integers(len(homs))], homs[rng.integers(len(homs))]
    modulus = 4 * group.n
    u = cocycle_product(
        epsilon(q1, q2, twist=twist),
        coboundary(_random_lattice_cochain(group, modulus, rng), group, twist),
    )
    table, source = (np.empty((group.n, group.n), dtype=object) for _ in range(2))
    for g, h in itertools.product(group.elements(), repeat=2):
        table[g, h] = source[g, h] = u(g, h)
        if kind == "floating" or (kind == "mixed" and rng.random() < 0.5):
            table[g, h] = Phase.from_complex(u(g, h).value)
    if perturb:
        others = [x for x in group.elements() if x != group.identity]
        g, h = others[rng.integers(len(others))], others[rng.integers(len(others))]
        if table[g, h].z is None:
            k, N = table[g, h].k, table[g, h].N
            off = k * modulus + int(rng.integers(1, modulus)) * N
            table[g, h] = source[g, h] = Phase.exact(off, N * modulus)
        else:
            shift = complex(np.exp(1j * rng.uniform(1e-3, 1.0)))
            table[g, h] = Phase.from_complex(table[g, h].value * shift)
    return table, source


@given(
    st.integers(0, len(AGREEMENT_GROUPS) - 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["exact", "floating", "mixed"]),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_validate_agrees_with_scalar_defects(gi, seed, kind, perturb):
    """Exact tables are read entry by entry; valid floating and mixed tables land
    in the class of the exact cocycle they were rounded from; a table that fails
    raises at the first (f,g,h) the scalar reference finds."""
    group = AGREEMENT_GROUPS[gi]
    rng = np.random.default_rng(seed)
    for twist in all_z2_homs(group):
        table, source = _agreement_table(group, twist, rng, kind, perturb)
        first = next(
            (
                fgh
                for fgh in itertools.product(group.elements(), repeat=3)
                if not cocycle_defect(PhaseTable(group, twist, table), *fgh).is_one(1e-9)
            ),
            None,
        )
        if first is None and kind == "exact":
            reference = object_array_pack(table, (group.n, group.n), 1e-9)
            assert validate_cocycle(group, twist, table).close_to(
                TwistedCocycle(group, twist, *reference)
            )
        elif first is None:
            read, exact = (validate_cocycle(group, twist, t) for t in (table, source))
            ok, witness = cohomologous(read, exact)
            assert ok and witness.verify(read, exact)
        else:
            with pytest.raises(CocycleIdentityFails) as err:
                validate_cocycle(group, twist, table)
            assert str(first).replace(" ", "") in str(err.value)


NORMALIZATION_GROUPS = [cyclic(2), cyclic(4), klein(), dihedral(3), dihedral(4), quaternion8()]


@given(st.integers(0, len(NORMALIZATION_GROUPS) - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_off_lattice_shift_of_a_sign_cocycle_lands_on_the_group_order_roots(gi, seed):
    """eps d(b), b random phases (off every root lattice), under every twist, is
    read onto the |G|-th roots and into the class of eps."""
    group = NORMALIZATION_GROUPS[gi]
    rng = np.random.default_rng(seed)
    homs = all_z2_homs(group)
    for twist in homs:
        q1, q2 = homs[rng.integers(len(homs))], homs[rng.integers(len(homs))]
        eps = epsilon(q1, q2, twist=twist)
        b = np.exp(2j * np.pi * rng.random(group.n))
        b[group.identity] = 1.0
        bh = np.where((twist.values == 1)[:, None], b.conj()[None, :], b[None, :])
        table = np.exp(2j * np.pi * eps.table / eps.N) * b[:, None] * bh / b[group.table]
        u = validate_cocycle(group, twist, table)
        assert group.n % u.N == 0
        ok, witness = cohomologous(u, eps)
        assert ok and witness.verify(u, eps)


def det_gauge_class(group, twist, mats):
    """The class representative compute_index printed before normalization onto the
    |G|-th roots, kept as a reference: each V_g rescaled to det 1 (V_e to 1), so every
    v(g,h) = tr(V_g V_h V_gh^-1)/dim is a dim-th root, snapped onto them."""
    dim = mats.shape[-1]
    gauged = mats / np.exp(np.log(np.linalg.det(mats)) / dim)[:, None, None]
    gauged[group.identity] = np.eye(dim)
    flip = (twist.values == 1)[:, None, None, None]
    back = gauged[:, None] @ np.where(flip, gauged.conj()[None], gauged[None])
    lam = np.trace(back @ gauged[group.table].conj().swapaxes(-1, -2), axis1=-2, axis2=-1) / dim
    k = np.rint(np.angle(lam) * dim / (2 * np.pi)).astype(int) % dim
    assert np.abs(np.exp(2j * np.pi * k / dim) - lam).max() <= 1e-6
    return validate_cocycle(group, twist, [[Phase.exact(int(x), dim) for x in row] for row in k])


@pytest.mark.parametrize(
    "grid", [z2_trivial_grid, tr_grid, v4_trivial_grid, twisted_klein_grid, d4_grid, q8_grid]
)
def test_normalized_class_matches_the_det_gauge_on_stacked_cells(grid):
    """On every stacked pair of a family's first four cells, the class compute_index
    reads off the implementers equals the det gauge's class of the same implementers."""
    cells = list(grid().values())[:4]
    for s1, s2 in itertools.product(cells, repeat=2):
        sysm = stack_systems(s1, s2)
        kappa, _ = classify(sysm)
        v = sysm.algebra.blocks[0]
        if kappa:
            v = np.concatenate([v, sysm.gamma @ v], axis=-1)
        w, _ = implementers(v, sysm.action.mats, sysm.twist.values)
        cls = compute_index(sysm).cls
        assert sysm.group.n % cls.N == 0
        assert cohomologous(cls, det_gauge_class(sysm.group, sysm.twist, w))[0]
