"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line.
The package's fixed thresholds that these verdicts rest on are pinned here
by value, so a change to one of them fails the criterion that uses it.
"""

import itertools
import time

import numpy as np

from fspt import (
    Phase,
    ProjectiveRep,
    all_z2_homs,
    coboundary,
    cocycle_of_rep,
    cocycle_product,
    cohomologous,
    commutant,
    compute_index,
    cyclic,
    density_matrix,
    check_symmetry,
    dihedral,
    direct_product,
    epsilon,
    expectation,
    index_equal,
    klein,
    parity_operator,
    quaternion8,
    stack_index,
    stack_systems,
    transfer_apply,
    trivial_cocycle,
    trivial_hom,
    validate_hom_z2,
    z8_compose,
    z8_elements,
)
from fspt.algebra import algebra_closure, graded_tensor
from fspt.cocycle import GAUGE_SNAP_TOL, SNAP_TOL
from fspt.errors import SymmetryViolated
from fspt.invariant import Z8_GENERATOR, Z8_IDENTITY
from fspt.linalg import RANK_RTOL, TOL, nullspace_rows, onb_rows, vec
from fspt.rep import pair
from conftest import (
    I2,
    SX,
    SY,
    SZ,
    even_d1_symmetry,
    even_d2_symmetry,
    even_mps_d1,
    even_mps_d2,
    in_span,
    majorana_mps,
    majorana_symmetry,
    random_unitary,
    tr_grid,
    tr_system,
    v4_trivial_grid,
    z2_trivial_grid,
)


def report(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} {extra}".rstrip(), flush=True)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_z8_structure():
    t0 = time.time()
    elements = z8_elements()
    ok = len(set(elements)) == 8
    acc = Z8_GENERATOR
    for k in range(1, 8):
        ok = ok and (acc != Z8_IDENTITY)
        acc = z8_compose(acc, Z8_GENERATOR)
    ok = ok and acc == Z8_IDENTITY
    # closure of the composition table
    for a in elements:
        for b in elements:
            ok = ok and z8_compose(a, b) in elements
    elapsed = time.time() - t0
    report(1, "Z8 structure", ok and elapsed < 1.0, f"({elapsed:.2f}s)")


def pin_index_thresholds():
    """The cuts compute_index and index_equal decide with."""
    assert (TOL, RANK_RTOL, SNAP_TOL, GAUGE_SNAP_TOL) == (1e-8, 1e-9, 1e-8, 1e-6)


def test_criterion_2_group_law_consistency():
    pin_index_thresholds()
    t0 = time.time()
    ok = True
    checked = 0
    for grid in (z2_trivial_grid(), tr_grid(), v4_trivial_grid()):
        indices = {k: compute_index(s) for k, s in grid.items()}
        for (ka, sa), (kb, sb) in itertools.product(grid.items(), grid.items()):
            direct = compute_index(stack_systems(sa, sb))
            law = stack_index(indices[ka], indices[kb])
            if not index_equal(direct, law):
                ok = False
                print(f"  group law fails at {ka} x {kb}")
            checked += 1
    elapsed = time.time() - t0
    report(
        2,
        "stacking group law",
        ok and elapsed < 60.0,
        f"({checked} pairs, {elapsed:.1f}s)",
    )


def test_criterion_3_equivalence_invariance():
    rng = np.random.default_rng(0xACC3)
    fixtures = [
        tr_system(0, I2, 1),
        tr_system(0, SY, 1),
        tr_system(0, np.kron(SY, I2), 2),
        tr_system(1, I2, 1),
        tr_system(1, SY, 1),
        tr_system(1, np.kron(SY, SY), 2),
    ]
    pin_index_thresholds()
    ok = True
    for sysm in fixtures:
        base = compute_index(sysm)
        for _ in range(100):
            t = random_unitary(sysm.algebra.ambient, rng)
            moved = compute_index(sysm.conjugated(t))
            if not index_equal(moved, base):
                ok = False
    report(3, "unitary-equivalence invariance", ok, "(6 fixtures x 100)")


def _acceptance_groups():
    return [
        cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(6), cyclic(7),
        cyclic(8), klein(), direct_product(cyclic(2), cyclic(4)),
        direct_product(klein(), cyclic(2)), dihedral(3), dihedral(4),
        quaternion8(),
    ]


def test_criterion_4_cohomology_engine():
    ok = True
    # (a) swap symmetry of the sign cocycle on every stock group of order <= 8
    for group in _acceptance_groups():
        homs = all_z2_homs(group)
        for q1, q2 in itertools.product(homs, homs):
            good, witness = cohomologous(
                epsilon(q1, q2, twist=q1), epsilon(q2, q1, twist=q1)
            )
            ok = ok and good and witness.verify(
                epsilon(q1, q2, twist=q1), epsilon(q2, q1, twist=q1)
            )
    # (b) equivalence relation on 200 random cocycle triples
    rng = np.random.default_rng(0xACC4)
    pool = [cyclic(2), cyclic(3), cyclic(4), klein(), dihedral(3)]
    for trial in range(200):
        group = pool[trial % len(pool)]
        homs = all_z2_homs(group)
        p = homs[rng.integers(0, len(homs))]
        modulus = 2 * group.n * 2
        base = trivial_cocycle(group, p)
        if len(homs) > 1 and trial % 2:
            base = epsilon(
                homs[rng.integers(0, len(homs))],
                homs[rng.integers(0, len(homs))],
                twist=p,
            )
        def shifted():
            b = [Phase.exact(int(k), modulus) for k in rng.integers(0, modulus, group.n)]
            b[group.identity] = Phase.one()
            return cocycle_product(base, coboundary(b, group, p))
        u1, u2, u3 = shifted(), shifted(), shifted()
        r11, _ = cohomologous(u1, u1, modulus=modulus)
        r12, _ = cohomologous(u1, u2, modulus=modulus)
        r21, _ = cohomologous(u2, u1, modulus=modulus)
        r23, _ = cohomologous(u2, u3, modulus=modulus)
        r13, _ = cohomologous(u1, u3, modulus=modulus)
        # reflexive, symmetric, and transitive along the constructed chain
        ok = ok and r11 and r12 and r21 and r23 and r13
    # (c) the Pauli class is nontrivial at modulus 8, by exhaustive search
    v4 = klein()
    proj1 = validate_hom_z2(v4, [0, 0, 1, 1])
    proj2 = validate_hom_z2(v4, [0, 1, 0, 1])
    eps = epsilon(proj1, proj2)
    found = 0
    candidates = 0
    for k1, k2, k3 in itertools.product(range(8), repeat=3):
        candidates += 1
        b = [Phase.one(), Phase.exact(k1, 8), Phase.exact(k2, 8), Phase.exact(k3, 8)]
        if coboundary(b, v4, trivial_hom(v4)).close_to(eps):
            found += 1
    solver_false, _ = cohomologous(eps, trivial_cocycle(v4), modulus=8)
    ok = ok and candidates == 512 and found == 0 and not solver_false
    report(4, "cohomology engine", ok, "(homo + 200 triples + 512-candidate search)")


def test_criterion_5_fmps_oracle():
    ok = True
    fixtures = [majorana_mps(0), majorana_mps(1), even_mps_d1(), even_mps_d2()]
    for mps in fixtures:
        nloc = 1 << mps.d
        rhos = {}
        for l in range(1, 5):
            if mps.d * (l + 1) > 14:
                continue
            rho = density_matrix(mps, l)
            rhos[l] = rho
            eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
            ok = ok and eigs.min() >= -1e-10
            ok = ok and abs(np.trace(rho) - 1.0) <= 1e-10
            p = parity_operator(mps.d)
            gp = p
            for _ in range(l):
                gp = np.kron(gp, p)
            ok = ok and np.linalg.norm(rho @ gp - gp @ rho) <= 1e-10
        for l in sorted(rhos)[:-1]:
            big, small = rhos[l + 1], rhos[l]
            dim = nloc ** (l + 1)
            traced = np.einsum("aibi->ab", big.reshape(dim, nloc, dim, nloc))
            ok = ok and np.linalg.norm(traced - small) <= 1e-9
        if mps.kind == "odd":
            for word in itertools.product(
                itertools.product(range(nloc), range(nloc)), repeat=2
            ):
                word = list(word)
                total = sum(
                    bin(m).count("1") + bin(n).count("1") for m, n in word
                )
                if total % 2:
                    ok = ok and expectation(mps, word) == 0
    report(5, "fMPS density-matrix oracle", ok, "(4 fixtures, l <= 4)")


def test_criterion_6_transfer_convergence():
    rng = np.random.default_rng(0xACC6)
    ok = True
    for mps in (even_mps_d1(), even_mps_d2()):
        for _ in range(20):
            x = rng.standard_normal((mps.m, mps.m)) + 1j * rng.standard_normal(
                (mps.m, mps.m)
            )
            y = x.copy()
            for _ in range(50):
                y = transfer_apply(mps, y)
            ok = ok and np.linalg.norm(
                y - np.trace(mps.D @ x) * np.eye(mps.m)
            ) <= 1e-8
    for mps in (majorana_mps(0), majorana_mps(1)):
        for _ in range(20):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x = c[0] * np.eye(2 * mps.m, dtype=complex) + c[1] * np.kron(
                np.eye(mps.m), SX
            )
            y = x.copy()
            for _ in range(50):
                y = transfer_apply(mps, y)
            target = np.trace(np.kron(mps.D, I2 / 2.0) @ x) * np.eye(2 * mps.m)
            ok = ok and np.linalg.norm(y - target) <= 1e-8
    report(6, "transfer convergence T^50", ok, "(20 random x per fixture)")


def test_criterion_7_symmetry_phases():
    assert TOL == 1e-8  # the covariance residual cut of check_symmetry
    ok = True
    pairs = [
        (even_mps_d1(), even_d1_symmetry()),
        (even_mps_d2(), even_d2_symmetry()),
        (majorana_mps(0), majorana_symmetry()),
    ]
    for mps, sym in pairs:
        phases = check_symmetry(mps, sym)
        ok = ok and np.max(np.abs(np.abs(phases.c) - 1.0)) <= 1e-10
        ok = ok and phases.residuals.max() <= 1e-8
    # sensitivity: a 1e-3 perturbation must be rejected loudly
    from fspt import even_mps

    mps = even_mps_d2()
    v = mps.v.copy()
    v[1] = v[1] + 1e-3 * SY
    s = sum(a @ a.conj().T for a in v)
    w, u = np.linalg.eigh(s)
    root_inv = (u / np.sqrt(w)) @ u.conj().T
    perturbed = even_mps(2, np.stack([root_inv @ a for a in v]), theta=SZ)
    try:
        check_symmetry(perturbed, even_d2_symmetry())
        ok = False
    except SymmetryViolated as err:
        ok = ok and float(str(err).split("residual ")[1]) > 1e-4
    report(7, "symmetry phases + sensitivity", ok)


def test_criterion_8_class_relation_for_factorized_actions():
    """cocycle_of_rep(V) ~ cocycle_of_rep(V0) * eps(q, p) for V = V0 (x) C^p sy^q."""
    z2 = cyclic(2)
    pid = validate_hom_z2(z2, [0, 1])
    ok = True
    v0_choices = [
        np.eye(1, dtype=complex),
        SY,
        np.exp(0.61j) * SY,
    ]
    for v0 in v0_choices:
        k = v0.shape[0]
        for qv in (0, 1):
            q = validate_hom_z2(z2, [0, qv])
            # operator product C sy^q has matrix part conj(sy)^q
            tail = np.conj(SY) if qv else I2
            full = ProjectiveRep(
                z2, pid, (pair(np.eye(2 * k), 0), pair(np.kron(v0, tail), 1))
            )
            reduced = ProjectiveRep(z2, pid, (pair(np.eye(k), 0), pair(v0, 1)))
            lhs = cocycle_of_rep(full)
            rhs = cocycle_product(cocycle_of_rep(reduced), epsilon(q, pid, twist=pid))
            good, _ = cohomologous(lhs, rhs)
            ok = ok and good
    # and over the Klein group with an anti-unitary twist on one projection
    v4 = klein()
    pproj = validate_hom_z2(v4, [0, 1, 0, 1])
    pauli = [I2, SZ, SX, SX @ SZ]
    for qi, q in enumerate(all_z2_homs(v4)):
        mats_reduced = tuple(pair(pauli[g], pproj(g)) for g in range(4))
        reduced = ProjectiveRep(v4, pproj, mats_reduced)
        mats_full = []
        for g in range(4):
            tail = np.linalg.matrix_power(SY, q(g))
            if pproj(g):
                tail = np.conj(tail)
            mats_full.append(pair(np.kron(pauli[g], tail), pproj(g)))
        full = ProjectiveRep(v4, pproj, tuple(mats_full))
        lhs = cocycle_of_rep(full)
        rhs = cocycle_product(cocycle_of_rep(reduced), epsilon(q, pproj, twist=pproj))
        good, _ = cohomologous(lhs, rhs)
        ok = ok and good
    report(8, "reduced-action class relation", ok)


def test_criterion_9_graded_commutant_prediction():
    m2_parts = {"even": [I2], "odd": []}
    cl_parts = {"even": [I2], "odd": [SX]}
    m2_comm = [I2]
    cl_comm = [I2, SX]
    ok = True
    for left_full, right_full in itertools.product((True, False), repeat=2):
        left = [(I2, 0), (SX, 1), (SZ, 0), (SX @ SZ, 1)] if left_full else [(I2, 0), (SX, 1)]
        right = [(I2, 0), (SX, 1), (SZ, 0), (SX @ SZ, 1)] if right_full else [(I2, 0), (SX, 1)]
        gens = [graded_tensor(a, SZ, b, db) for a, _ in left for b, db in right]
        comm = commutant(algebra_closure(gens))
        # the reference A' from the generators alone: x with gx = xg for g, g^dag
        eye = np.eye(4, dtype=complex)
        reference = nullspace_rows(np.concatenate(
            [np.kron(g, eye) - np.kron(eye, g.T) for g in gens + [g.conj().T for g in gens]]
        ))
        predicted = []
        parts = m2_parts if left_full else cl_parts
        comm_right = m2_comm if right_full else cl_comm
        for a in parts["even"]:
            predicted.extend(np.kron(a, b) for b in comm_right)
        for a in parts["odd"]:
            predicted.extend(np.kron(a, b @ SZ) for b in comm_right)
        predicted = np.stack(predicted)
        rows = onb_rows(vec(predicted))
        ok = ok and comm.dim == predicted.shape[0] == reference.shape[0]
        ok = ok and all(in_span(reference, m, 1e-8) for m in predicted)
        ok = ok and all(in_span(rows, m, 1e-8) for m in comm.basis)
    report(9, "graded tensor commutants", ok, "(4 cases)")
