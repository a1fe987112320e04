import itertools

import numpy as np
import pytest

from fspt import (
    OnSiteSymmetry,
    ProjectiveRep,
    all_z2_homs,
    check_symmetry,
    cohomologous,
    cyclic,
    density_matrix,
    epsilon,
    even_mps,
    expectation,
    fmps_index,
    jw_word,
    klein,
    odd_mps,
    parity_operator,
    second_quantize,
    transfer_apply,
    transfer_fixed_point,
    trivial_cocycle,
    trivial_hom,
    validate_hom_z2,
)
from fspt import serialize
from fspt.cocycle import cocycle_of_rep
from fspt.errors import (
    DegenerateFixedPoint,
    DimensionMismatch,
    GroupMismatch,
    InvalidMPS,
    NoConsistentQ,
    SizeTooLarge,
    SymmetryViolated,
)
from fspt.fmps import RHO_BYTE_BUDGET, hatted_v, transfer_matrix
from fspt.linalg import TOL
from conftest import (
    I2,
    SX,
    SY,
    SZ,
    adjoint_action,
    even_d1_symmetry,
    even_d2_symmetry,
    even_mps_d1,
    even_mps_d2,
    majorana_mps,
    majorana_symmetry,
    random_unitary,
)

ALL_FIXTURES = [
    ("majorana0", lambda: majorana_mps(0)),
    ("majorana1", lambda: majorana_mps(1)),
    ("even_d1", even_mps_d1),
    ("even_d2", even_mps_d2),
]


def all_words(d, sites):
    nloc = 1 << d
    return (
        list(w)
        for w in itertools.product(
            itertools.product(range(nloc), range(nloc)), repeat=sites
        )
    )


def global_parity(d, sites):
    p = parity_operator(d)
    out = p
    for _ in range(sites - 1):
        out = np.kron(out, p)
    return out


# -- validation --

def test_normalization_enforced():
    v = np.array([[[1.0]], [[1.0]]], dtype=complex)  # sum vv* = 2
    with pytest.raises(InvalidMPS, match="rescale"):
        odd_mps(1, v, sigma0=0)


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        odd_mps(2, np.zeros((2, 1, 1), dtype=complex), sigma0=0)


def test_theta_must_grade():
    a, b = np.sqrt(0.05), np.sqrt(0.95)
    v = np.stack(
        [np.diag([a, b]).astype(complex), np.array([[0, b], [a, 0]], complex)]
    )
    with pytest.raises(InvalidMPS):
        even_mps(1, v, theta=I2)  # v_1 is not homogeneous for Ad_1


def test_degenerate_blocks_rejected():
    # two decoupled unitary blocks: the fixed space is two-dimensional
    v = np.stack(
        [
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
        ]
    )
    with pytest.raises(DegenerateFixedPoint):
        transfer_fixed_point(v)
    with pytest.raises(DegenerateFixedPoint):
        even_mps(1, v, theta=I2)


def test_supplied_D_must_be_the_fixed_point():
    mps = even_mps_d1()
    off = mps.D + 1e-6 * SZ  # trace one and positive, but not the fixed point
    non_psd = np.diag([1.5, -0.5]).astype(complex)
    for D in (off, non_psd):
        with pytest.raises(InvalidMPS, match="fixed point"):
            even_mps(1, mps.v, theta=SZ, D=D)
    with pytest.raises(InvalidMPS, match="fixed point"):
        odd_mps(1, majorana_mps(1).v, sigma0=1, D=np.array([[1.0 + 1e-6]]))
    close = mps.D + 1e-12 * SZ  # within TOL of the fixed point: kept as given
    assert np.array_equal(even_mps(1, mps.v, theta=SZ, D=close).D, close)


# -- transfer map --

def test_transfer_unital():
    mps = even_mps_d1()
    assert np.allclose(transfer_apply(mps, np.eye(2)), np.eye(2))


def test_transfer_scalar_bond():
    mps = majorana_mps(0)
    # the plain bond transfer map is the identity on M_1
    assert np.allclose(transfer_matrix(mps.v), np.eye(1))


def test_transfer_spectral_radius_one():
    for _, make in ALL_FIXTURES:
        mps = make()
        evals = np.linalg.eigvals(transfer_matrix(mps.v))
        assert np.max(np.abs(evals)) < 1 + 1e-10
        assert np.min(np.abs(evals - 1.0)) < 1e-10


def test_fixed_point_properties():
    mps = even_mps_d1()
    d = transfer_fixed_point(mps.v)
    assert abs(np.trace(d) - 1) < 1e-12
    resid = sum(a.conj().T @ d @ a for a in mps.v) - d
    assert np.linalg.norm(resid) < 1e-10
    assert np.allclose(d, np.diag([0.05, 0.95]), atol=1e-10)


def test_transfer_convergence_even():
    rng = np.random.default_rng(5)
    for make in (even_mps_d1, even_mps_d2):
        mps = make()
        for _ in range(20):
            x = rng.standard_normal((mps.m, mps.m)) + 1j * rng.standard_normal(
                (mps.m, mps.m)
            )
            y = x.copy()
            for _ in range(50):
                y = transfer_apply(mps, y)
            assert (
                np.linalg.norm(y - np.trace(mps.D @ x) * np.eye(mps.m)) <= 1e-8
            )


def test_transfer_convergence_odd_doubled():
    rng = np.random.default_rng(6)
    mps = majorana_mps(1)
    for _ in range(20):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = c[0] * np.eye(2) + c[1] * SX  # element of M_m (x) span{1, sx}
        y = x.copy()
        for _ in range(50):
            y = transfer_apply(mps, y)
        target = np.trace(np.kron(mps.D, I2 / 2) @ x) * np.eye(2)
        assert np.linalg.norm(y - target) <= 1e-8


def test_hatted_matrices():
    mps = majorana_mps(1)
    vh = hatted_v(mps)
    assert np.allclose(vh[0], SZ / np.sqrt(2))  # sigma0 + |empty| = 1
    assert np.allclose(vh[1], I2 / np.sqrt(2))  # sigma0 + |{1}| = 0


# -- expectation values --

def test_expectation_single_site():
    mps = majorana_mps(0)
    assert expectation(mps, [(0, 0)]) == pytest.approx(0.5)
    assert expectation(mps, [(1, 1)]) == pytest.approx(0.5)


def test_expectation_majorana_hopping_sign():
    # omega(E^(0)_{10} E^(1)_{01}) = (-1)^sigma0 / 4
    for s0 in (0, 1):
        mps = majorana_mps(s0)
        val = expectation(mps, [(1, 0), (0, 1)])
        assert val == pytest.approx((-1.0) ** s0 * 0.25)


def test_expectation_odd_parity_vanishes_exactly():
    mps = majorana_mps(0)
    for word in all_words(1, 2):
        total = sum(bin(m).count("1") + bin(n).count("1") for m, n in word)
        if total % 2:
            assert expectation(mps, word) == 0


def test_expectation_empty_sign():
    mps = even_mps_d1()
    val = expectation(mps, [(0, 0)])
    assert val == pytest.approx(np.trace(mps.D @ mps.v[0] @ mps.v[0].conj().T))


# -- the Jordan-Wigner oracle --

@pytest.mark.parametrize("name,make", ALL_FIXTURES)
def test_density_matrix_is_a_state(name, make):
    mps = make()
    max_l = 4 if mps.d == 1 else 3
    for l in range(1, max_l + 1):
        rho = density_matrix(mps, l)
        herm = (rho + rho.conj().T) / 2
        eigs = np.linalg.eigvalsh(herm)
        assert eigs.min() >= -1e-10
        assert abs(np.trace(rho) - 1) <= 1e-10
        gp = global_parity(mps.d, l + 1)
        assert np.linalg.norm(rho @ gp - gp @ rho) <= 1e-10


@pytest.mark.parametrize("name,make", ALL_FIXTURES)
def test_density_matrix_restriction_consistent(name, make):
    mps = make()
    nloc = 1 << mps.d
    for l in (1, 2):
        big = density_matrix(mps, l + 1)
        small = density_matrix(mps, l)
        dim = nloc ** (l + 1)
        traced = np.einsum("aibi->ab", big.reshape(dim, nloc, dim, nloc))
        assert np.linalg.norm(traced - small) <= 1e-9


@pytest.mark.parametrize("name,make", ALL_FIXTURES)
def test_density_matrix_reproduces_expectations(name, make):
    """Tr(rho jw(B)) = omega(B), tying the two sign conventions together."""
    mps = make()
    l = 1 if mps.d == 2 else 2
    rho = density_matrix(mps, l)
    for word in all_words(mps.d, l + 1):
        lhs = np.trace(rho @ jw_word(word, mps.d))
        assert lhs == pytest.approx(expectation(mps, word), abs=1e-12)


def _normalized(v):
    gram = sum(a @ a.conj().T for a in v)
    w, u = np.linalg.eigh(gram)
    return np.stack([((u / np.sqrt(w)) @ u.conj().T) @ a for a in v])


def random_even_mps(d, m, sigma0, rng):
    """Bond matrices of Theta-degree |mu| + sigma0 for a non-diagonal Theta."""
    signs = np.where(np.arange(m) < rng.integers(1, m), 1.0, -1.0)
    same = np.equal.outer(signs, signs)
    q = random_unitary(m, rng)
    v = []
    for mask in range(1 << d):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        keep = same if (bin(mask).count("1") + sigma0) % 2 == 0 else ~same
        v.append(q @ (a * keep) @ q.conj().T)
    mps = even_mps(d, _normalized(v), theta=q @ np.diag(signs) @ q.conj().T)
    assert mps.sigma0 == sigma0
    return mps


def random_odd_mps(d, m, sigma0, rng):
    v = rng.standard_normal((1 << d, m, m)) + 1j * rng.standard_normal((1 << d, m, m))
    return odd_mps(d, _normalized(v), sigma0=sigma0)


def literal_sum(mps, l):
    """rho = sum_B omega(B) jw_word(B)^dag, summed word by word."""
    dim = mps.nloc ** (l + 1)
    acc = np.zeros((dim, dim), dtype=complex)
    for word in all_words(mps.d, l + 1):
        value = expectation(mps, word)
        if value != 0:
            acc += value * jw_word(word, mps.d).conj().T
    return acc


def test_density_matrix_matches_literal_sum():
    for _, make in ALL_FIXTURES:
        mps = make()
        # d = 2 stops at l = 2: l = 3 would sum 65536 words of 256 x 256 products
        for l in range(1, 4 if mps.d == 1 else 3):
            assert np.linalg.norm(literal_sum(mps, l) - density_matrix(mps, l)) < 1e-12


@pytest.mark.parametrize("kind", ["even", "odd"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("sigma0", [0, 1])
def test_density_matrix_matches_literal_sum_random(kind, d, sigma0):
    rng = np.random.default_rng(100 * d + 10 * sigma0 + (kind == "odd"))
    mps = (random_even_mps if kind == "even" else random_odd_mps)(d, 3, sigma0, rng)
    max_l = 3 if d == 1 else (2 if (kind, sigma0) == ("odd", 1) else 1)
    for l in range(1, max_l + 1):
        assert np.linalg.norm(literal_sum(mps, l) - density_matrix(mps, l)) < 1e-12


def test_density_matrix_size_guard():
    need = 16 * 2**15 * (2**15 + 2)  # rho, products and F of 15 sites, m = 1
    message = f"needs {need} bytes, over the budget of {RHO_BYTE_BUDGET} bytes"
    with pytest.raises(SizeTooLarge, match=message):
        density_matrix(majorana_mps(0), 14)


def test_gauge_invariance_of_expectations(rng):
    mps = even_mps_d1()
    g = random_unitary(2, rng)
    # bond gauge must commute with Theta to preserve the grading structure
    g = (g + SZ @ g @ SZ) / 2
    g, _ = np.linalg.qr(g)
    v2 = np.stack([g @ a @ g.conj().T for a in mps.v])
    d2 = g @ mps.D @ g.conj().T
    moved = even_mps(1, v2, theta=SZ, D=d2)
    for word in all_words(1, 2):
        assert expectation(moved, word) == pytest.approx(
            expectation(mps, word), abs=1e-10
        )


# -- symmetry --

def test_check_symmetry_identity_element():
    mps = even_mps_d1()
    phases = check_symmetry(mps, even_d1_symmetry())
    assert phases.c[0] == pytest.approx(1.0)
    assert phases.residuals[0] == pytest.approx(0.0, abs=1e-12)


def test_check_symmetry_even_fixtures():
    for mps, sym in [(even_mps_d1(), even_d1_symmetry()), (even_mps_d2(), even_d2_symmetry())]:
        phases = check_symmetry(mps, sym)
        assert np.allclose(np.abs(phases.c), 1.0, atol=1e-10)
        assert phases.residuals.max() <= 1e-8


def test_check_symmetry_forces_q_on_majorana():
    mps = majorana_mps(0)
    phases = check_symmetry(mps, majorana_symmetry())
    assert phases.q is not None
    assert list(phases.q.values) == [0, 1]


def exhaustive_q(mps, sym):
    """Reference: the first character q, in all_z2_homs order, whose
    parity-signed covariance relation fits at every group element."""
    parity = np.array([(-1.0) ** bin(mu).count("1") for mu in range(mps.nloc)])
    for q in all_z2_homs(sym.group):
        fits = True
        for g in sym.group.elements():
            f, _ = second_quantize(sym.rep_site.mats[g])
            lhs = np.einsum("mn,mij->nij", f, mps.v) * (parity ** q(g))[:, None, None]
            rhs = adjoint_action(sym.rep_bond.mats[g], sym.twist(g), mps.v)
            c = np.vdot(rhs, lhs) / np.vdot(rhs, rhs)
            fits = fits and np.linalg.norm(lhs - c * rhs) <= 1e-8 * max(1.0, np.linalg.norm(lhs))
        if fits:
            return q
    return None


def test_check_symmetry_reads_q_per_element_majorana_v4():
    """Majorana chain under V4, one Z2 factor acting as fermion parity: q is
    read per element and equals the exhaustive search over all characters."""
    v4 = klein()
    p = trivial_hom(v4)
    site = ProjectiveRep.build(v4, p, [np.eye(1), -np.eye(1), np.eye(1), -np.eye(1)])
    sym = OnSiteSymmetry(site, ProjectiveRep.build(v4, p, [np.eye(1)] * 4))
    for sigma0 in (0, 1):
        mps = majorana_mps(sigma0)
        q = check_symmetry(mps, sym).q
        assert not q.is_trivial and q.same_as(exhaustive_q(mps, sym))
        assert list(q.values) == [0, 1, 0, 1]
        assert fmps_index(mps, sym).q.same_as(q)


def test_check_symmetry_no_consistent_q():
    mps = majorana_mps(0)
    z2 = cyclic(2)
    p = trivial_hom(z2)
    # a phase that is not +/-1 cannot be matched by any sign character
    site = ProjectiveRep.build(z2, p, [np.eye(1), 1j * np.eye(1)])
    bond = ProjectiveRep.build(z2, p, [np.eye(1), np.eye(1)])
    broken = OnSiteSymmetry(site, bond)
    with pytest.raises(NoConsistentQ):
        check_symmetry(mps, broken)


def test_check_symmetry_sensitivity():
    # a 1e-3 sigma_y component in v_{1} stays odd (so the state validates)
    # but breaks the per-wire parity covariance
    mps = even_mps_d2()
    v = mps.v.copy()
    v[1] = v[1] + 1e-3 * SY
    s = sum(a @ a.conj().T for a in v)
    w, u = np.linalg.eigh(s)
    root_inv = (u / np.sqrt(w)) @ u.conj().T
    perturbed = even_mps(2, np.stack([root_inv @ a for a in v]), theta=SZ)
    with pytest.raises(SymmetryViolated) as err:
        check_symmetry(perturbed, even_d2_symmetry())
    assert float(str(err.value).split("residual ")[1]) > 1e-4


def _fit_phase(lhs, rhs):
    """Least-squares c in lhs = c rhs, with the relative residual."""
    denom = np.vdot(rhs, rhs)
    c = np.vdot(rhs, lhs) / denom if abs(denom) > 0 else 0.0
    return complex(c), float(np.linalg.norm(lhs - c * rhs) / max(1.0, np.linalg.norm(lhs)))


def per_element_symmetry_fit(mps, sym):
    """The fit check_symmetry batches, one g at a time: (c, residuals, q) or, at
    the first g that fits neither unsigned nor (odd kind) signed, the error."""
    signs = np.where(mps.site_parities() % 2, -1.0, 1.0)[:, None, None]
    cs, resids, qs = [], [], []
    for g in sym.group.elements():
        f, _ = second_quantize(sym.rep_site.mats[g])
        lhs = np.einsum("mn,mij->nij", f, mps.v)
        rhs = np.stack([adjoint_action(sym.rep_bond.mats[g], sym.twist(g), a) for a in mps.v])
        (c, resid), sign = _fit_phase(lhs, rhs), 0
        if mps.kind == "odd" and resid > TOL:
            (c, resid), sign = _fit_phase(lhs * signs, rhs), 1
        if resid > TOL:
            if mps.kind == "odd":
                return NoConsistentQ("no parity character satisfies the covariance relation")
            return SymmetryViolated(f"covariance fails at group element {g}: residual {resid:.3e}")
        cs.append(c)
        resids.append(resid)
        qs.append(sign)
    return np.array(cs), np.array(resids), qs


def random_time_reversal_case(kind, d, m, rng, planted=()):
    """A random state symmetric under V4 = {1, P, T, PT}, T and PT anti-unitary.

    Real bond matrices in a random bond basis X: P acts as -1 on the site and
    by the grading (even kind) or 1 (odd kind) on the bond, T as 1 on the site
    and by X X^t on the bond.  Each g in ``planted`` gets a bond operator
    that breaks covariance.
    """
    v4 = klein()
    p = validate_hom_z2(v4, [0, 0, 1, 1])
    x = random_unitary(m, rng)
    signs = np.where(np.arange(m) < rng.integers(1, m), 1.0, -1.0)
    same = np.equal.outer(signs, signs)
    sigma0 = int(rng.integers(2))
    v = rng.standard_normal((1 << d, m, m))
    if kind == "even":
        v = np.stack([a * (same if (bin(mask).count("1") + sigma0) % 2 == 0 else ~same)
                      for mask, a in enumerate(v)])
    v = np.stack([x @ a @ x.conj().T for a in _normalized(v)])
    theta = x @ np.diag(signs) @ x.conj().T
    mps = even_mps(d, v, theta) if kind == "even" else odd_mps(d, v, sigma0)
    grading = theta if kind == "even" else np.eye(m)
    bond = [np.eye(m), grading, x @ x.T, grading @ x @ x.T]
    for g in planted:
        bond[g] = bond[g] @ random_unitary(m, rng)
    site = ProjectiveRep.build(v4, p, [np.eye(d), -np.eye(d), np.eye(d), -np.eye(d)])
    return mps, OnSiteSymmetry(site, ProjectiveRep.build(v4, p, bond))


def z2_parity_symmetry(mps):
    """Fermion parity: -1 on the site; the grading (even kind) or 1 (odd kind) on the bond."""
    z2 = cyclic(2)
    p = trivial_hom(z2)
    bond = mps.theta if mps.kind == "even" else np.eye(mps.m)
    site = ProjectiveRep.build(z2, p, [np.eye(mps.d), -np.eye(mps.d)])
    return OnSiteSymmetry(site, ProjectiveRep.build(z2, p, [np.eye(mps.m), bond]))


def _symmetry_cases():
    yield majorana_mps(0), majorana_symmetry()
    yield majorana_mps(1), majorana_symmetry()
    yield even_mps_d1(), even_d1_symmetry()
    yield even_mps_d2(), even_d2_symmetry()
    rng = np.random.default_rng(8)
    for kind, d, m in itertools.product(("even", "odd"), (1, 2), (2, 3)):
        yield random_time_reversal_case(kind, d, m, rng)
        mps = (random_even_mps if kind == "even" else random_odd_mps)(d, m, d % 2, rng)
        yield mps, z2_parity_symmetry(mps)


def test_check_symmetry_matches_the_per_element_fit():
    for mps, sym in _symmetry_cases():
        c, resid, q = per_element_symmetry_fit(mps, sym)
        phases = check_symmetry(mps, sym)
        assert np.allclose(phases.c, c, rtol=0, atol=1e-12)
        assert np.allclose(phases.residuals, resid, rtol=0, atol=1e-12)
        assert (phases.q is None) == (mps.kind == "even")
        assert mps.kind == "even" or list(phases.q.values) == q


@pytest.mark.parametrize("kind", ["even", "odd"])
@pytest.mark.parametrize("planted", [(3,), (1, 3), (2, 3)])
def test_check_symmetry_names_the_first_failing_element(kind, planted):
    """A fault planted at the last g, or at two g's, raises what the per-element
    loop raises at the first of them; the even kind's message names that g."""
    mps, sym = random_time_reversal_case(kind, 2, 3, np.random.default_rng(9), planted)
    want = per_element_symmetry_fit(mps, sym)
    with pytest.raises((SymmetryViolated, NoConsistentQ)) as info:
        check_symmetry(mps, sym)
    assert type(info.value) is type(want) and str(info.value) == str(want)
    if kind == "even":
        assert f"at group element {planted[0]}:" in str(info.value)


def test_on_site_symmetry_needs_one_group_and_twist():
    """Site and bond actions of another (G, p) raise GroupMismatch: a time-reversal
    bond on a Z2-parity site, and a Klein bond on a Z2 site."""
    site = even_d1_symmetry().rep_site
    z2, v4 = cyclic(2), klein()
    time_reversal = ProjectiveRep.build(z2, validate_hom_z2(z2, [0, 1]), [I2, I2])
    pauli = ProjectiveRep.build(v4, trivial_hom(v4), [I2, SX, SY, SZ])
    for bond in (time_reversal, pauli):
        with pytest.raises(GroupMismatch):
            OnSiteSymmetry(site, bond)


def test_symmetry_phase_coboundary_consistency():
    """The lifted on-site cocycle equals the twisted coboundary of c."""
    for mps, sym in [
        (even_mps_d1(), even_d1_symmetry()),
        (even_mps_d2(), even_d2_symmetry()),
        (majorana_mps(0), majorana_symmetry()),
    ]:
        phases = check_symmetry(mps, sym)
        group, p = sym.group, sym.twist
        u_f = cocycle_of_rep(ProjectiveRep.build(group, p, second_quantize(sym.rep_site.mats)[0]))
        for g in group.elements():
            for h in group.elements():
                cob = phases.c[g] * (
                    np.conj(phases.c[h]) if p(g) else phases.c[h]
                ) / phases.c[group.mul(g, h)]
                assert u_f(g, h).value == pytest.approx(cob, abs=1e-8)


def test_fmps_index_trivial_product_state():
    v = np.zeros((2, 1, 1), dtype=complex)
    v[0, 0, 0] = 1.0
    mps = even_mps(1, v, theta=np.eye(1, dtype=complex))
    z2 = cyclic(2)
    p = trivial_hom(z2)
    sym = OnSiteSymmetry(
        ProjectiveRep.build(z2, p, [np.eye(1), -np.eye(1)]),
        ProjectiveRep.build(z2, p, [np.eye(1), np.eye(1)]),
    )
    idx = fmps_index(mps, sym)
    assert idx.kappa == 0 and idx.q.is_trivial
    ok, _ = cohomologous(idx.cls, trivial_cocycle(z2))
    assert ok


def test_fmps_index_even_d1():
    idx = fmps_index(even_mps_d1(), even_d1_symmetry())
    assert idx.kappa == 0
    assert list(idx.q.values) == [0, 0]  # sz commutes with Theta = sz


def test_fmps_index_independent_of_bond_phases():
    mps, sym = even_mps_d1(), even_d1_symmetry()
    rescaled = OnSiteSymmetry(sym.rep_site, sym.rep_bond.rescaled([1.0, np.exp(0.3j)]))
    base, moved = fmps_index(mps, sym), fmps_index(mps, rescaled)
    assert moved.cls.is_exact and moved.cls.close_to(base.cls)
    assert cohomologous(moved.cls, trivial_cocycle(cyclic(2)))[0]
    phases = serialize.index_to_json(moved)["cocycle"]["phases"]
    assert all(set(cell) == {"k", "N"} for row in phases for cell in row)


def test_fmps_index_cluster_class():
    idx = fmps_index(even_mps_d2(), even_d2_symmetry())
    assert idx.kappa == 0
    assert list(idx.q.values) == [0, 1, 1, 0]
    v4 = klein()
    ok_trivial, _ = cohomologous(idx.cls, trivial_cocycle(v4), modulus=8)
    assert not ok_trivial
    proj1 = validate_hom_z2(v4, [0, 0, 1, 1])
    proj2 = validate_hom_z2(v4, [0, 1, 0, 1])
    ok_pauli, _ = cohomologous(idx.cls, epsilon(proj1, proj2), modulus=8)
    assert ok_pauli


def test_fmps_index_majorana():
    idx = fmps_index(majorana_mps(0), majorana_symmetry())
    assert idx.kappa == 1
    assert list(idx.q.values) == [0, 1]
    ok, _ = cohomologous(idx.cls, trivial_cocycle(cyclic(2)))
    assert ok
