"""Fermionic matrix product states at finite bond dimension.

An even state is specified by bond matrices v indexed by on-site Fock
occupations, a faithful fixed-point density matrix D of the dual transfer
map, and a bond grading Theta; an odd state replaces Theta by a parity
offset sigma0.  Validation reads one spectrum of the dual transfer map: its
simple eigenvalue 1 gives D (a supplied D must equal it within TOL), and
purity asks that no other eigenvalue lie on the unit circle.  Under an
on-site symmetry each group element g gets one covariance phase c_g and,
for the odd kind, one parity sign q(g).  Expectation values of strings of
fermionic matrix units pick up Koszul sign factors, and the module provides
an independent Jordan-Wigner density-matrix oracle against which those
signs are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .cocycle import cocycle_of_rep
from .errors import (
    DegenerateFixedPoint,
    DimensionMismatch,
    GroupMismatch,
    IndexOutOfRange,
    InvalidMPS,
    NoConsistentQ,
    NotPositive,
    SizeTooLarge,
    SymmetryViolated,
)
from .group import FiniteGroup, Z2Hom, validate_hom_z2
from .invariant import SPTIndex
from .linalg import TOL, is_selfadjoint_unitary, kron, sign_match
from .rep import ProjectiveRep
from .fock import subset_parity

_SZ = np.diag([1.0, -1.0]).astype(complex)

SiteWord = list[tuple[int, int]]  # [(mu_mask, nu_mask)] per site

RHO_BYTE_BUDGET = 1 << 31  # bytes density_matrix may estimate for one call


def transfer_matrix(v: np.ndarray) -> np.ndarray:
    """Row-major matrix of x -> sum_mu v_mu x v_mu^dag on M_m."""
    return sum(np.kron(a, a.conj()) for a in v)


def transfer_fixed_point(v: np.ndarray) -> np.ndarray:
    """The unique positive trace-one solution of sum v^dag D v = D.

    Raises DegenerateFixedPoint when eigenvalue 1 of the dual transfer map
    is not simple, and NotPositive when the fixed point fails positivity.
    """
    return _fixed_point_and_spectrum(v)[0]


def _fixed_point_and_spectrum(v):
    """transfer_fixed_point and the spectrum of the dual transfer matrix
    x -> sum v^dag x v, the adjoint of the transfer matrix, so the conjugate
    of its spectrum."""
    v = np.asarray(v, dtype=complex)
    m = v.shape[-1]
    evals, evecs = np.linalg.eig(transfer_matrix(v).conj().T)
    at_one = np.abs(evals - 1.0) < 1e-8
    if int(at_one.sum()) != 1:
        raise DegenerateFixedPoint(
            f"eigenvalue 1 of the dual transfer map has multiplicity {int(at_one.sum())}"
        )
    d = evecs[:, np.nonzero(at_one)[0][0]].reshape(m, m)
    d = (d + d.conj().T) / 2.0
    tr = np.trace(d).real
    if abs(tr) < 1e-9:
        raise NotPositive("fixed point has vanishing trace")
    d = d / tr
    w = np.linalg.eigvalsh(d)
    if w.min() < -1e-10 * max(1.0, w.max()):
        raise NotPositive(f"fixed point has negative eigenvalue {w.min():.3e}")
    return d, evals


@dataclass(frozen=True, eq=False)
class FermionicMPS:
    """Validated even/odd fermionic MPS data.

    v has shape (2^d, m, m), indexed by the occupation bitmask.  Build
    through :func:`even_mps` / :func:`odd_mps`.
    """

    kind: str            # "even" | "odd"
    d: int
    m: int
    v: np.ndarray
    D: np.ndarray
    theta: np.ndarray | None = None  # even kind
    sigma0: int = 0

    @property
    def nloc(self) -> int:
        return 1 << self.d

    def site_parities(self) -> np.ndarray:
        return np.array([subset_parity(mask) for mask in fock.fock_masks(self.d)])


def _validate_common(d, v, D):
    v = np.asarray(v, dtype=complex)
    nloc = 1 << d
    if v.ndim != 3 or v.shape[0] != nloc or v.shape[1] != v.shape[2]:
        raise DimensionMismatch(
            f"v must have shape ({nloc}, m, m), got {v.shape}"
        )
    m = v.shape[1]
    if not np.abs(v).max(initial=0.0) <= 1.0 + TOL * m:  # else v v^dag might overflow
        raise InvalidMPS("normalization sum_mu v_mu v_mu^dag = 1 fails: some |v_mu[i, j]| > 1")
    gram = sum(a @ a.conj().T for a in v)
    if not np.linalg.norm(gram - np.eye(m)) <= TOL * m:
        scale = np.trace(gram).real / m
        raise InvalidMPS(
            "normalization sum_mu v_mu v_mu^dag = 1 fails; if the defect is a "
            f"uniform scale, rescale every v_mu by 1/sqrt({scale:.6g})"
        )
    # one spectrum: its simple eigenvalue 1 (checked by the solve) gives the
    # fixed point, against which a supplied D is checked and then kept as given
    fixed, evals = _fixed_point_and_spectrum(v)
    if D is None:
        D = fixed
    else:
        D = np.asarray(D, dtype=complex)
        if D.shape != (m, m):
            raise DimensionMismatch(f"D must be {m} x {m}")
        # a trace-one positive D has no entry above 1
        if not (np.abs(D).max() <= 1.0 + TOL and np.linalg.norm(D - fixed) <= TOL):
            raise InvalidMPS("D is not the trace-one fixed point of the dual transfer map")
    w = np.linalg.eigvalsh((D + D.conj().T) / 2.0)
    if w.min() <= 1e-12 * w.max():
        raise NotPositive("D is not faithful")
    # purity: 1 is also the only eigenvalue on the unit circle
    if int((np.abs(evals) > 1.0 - 1e-8).sum()) != 1:
        raise DegenerateFixedPoint(
            "transfer map is not primitive (peripheral spectrum is not {1})"
        )
    return v, D, m


def even_mps(d: int, v, theta, D=None) -> FermionicMPS:
    """Validate and build an even fermionic MPS."""
    v, D, m = _validate_common(d, v, D)
    theta = np.asarray(theta, dtype=complex)
    if theta.shape != (m, m):
        raise DimensionMismatch(f"Theta must be {m} x {m}")
    if not is_selfadjoint_unitary(theta, TOL):
        raise InvalidMPS("Theta must be a self-adjoint unitary")
    offsets = set()  # (Theta-degree + |mu|) mod 2 of each nonzero v_mu: one value, sigma0
    for mask, a in enumerate(v):
        if np.linalg.norm(a) <= TOL:
            continue
        if (s := sign_match(theta @ a @ theta, a)) is None:
            raise InvalidMPS(f"v[{mask}] is not homogeneous under Ad_Theta")
        offsets.add((s + subset_parity(mask)) % 2)
        if len(offsets) > 1:
            raise InvalidMPS("no single parity offset sigma0 fits all v_mu")
    if np.linalg.norm(theta @ D @ theta - D) > TOL:
        raise InvalidMPS("D must commute with Theta")
    return FermionicMPS("even", d, m, v, D, theta, min(offsets, default=0))


def odd_mps(d: int, v, sigma0: int, D=None) -> FermionicMPS:
    """Validate and build an odd fermionic MPS (sigma0 is input data)."""
    v, D, m = _validate_common(d, v, D)
    return FermionicMPS("odd", d, m, v, D, None, int(sigma0) % 2)


def hatted_v(mps: FermionicMPS) -> np.ndarray:
    """Odd-kind doubled matrices v_mu (x) sigma_z^(sigma0 + |mu|)."""
    odd = (mps.sigma0 + mps.site_parities())[:, None, None] % 2 == 1
    return kron(mps.v, np.where(odd, _SZ, np.eye(2, dtype=complex)))


def transfer_apply(mps: FermionicMPS, x: np.ndarray) -> np.ndarray:
    """One application of the transfer map.

    Even kind: x -> sum v x v^dag on M_m.  Odd kind: the doubled map on
    M_m (x) span{1, sigma_x}, using the hatted matrices.
    """
    x = np.asarray(x, dtype=complex)
    mats = mps.v if mps.kind == "even" else hatted_v(mps)
    dim = mats.shape[-1]
    if x.shape != (dim, dim):
        raise DimensionMismatch(f"expected {dim} x {dim}, got {x.shape}")
    return sum(a @ x @ a.conj().T for a in mats)


def _word_sign_exponent(mps: FermionicMPS, word: SiteWord) -> int:
    offset = mps.sigma0 if mps.kind == "odd" else 0
    expo = 0
    acc = 0  # running sum of (offset + |nu_j|) over j < k
    for k, (mu, nu) in enumerate(word):
        if k > 0:
            expo += (subset_parity(mu) + subset_parity(nu)) * acc
        acc += offset + subset_parity(nu)
    return expo % 2


def expectation(mps: FermionicMPS, word: SiteWord) -> complex:
    """The state evaluated on E^(0)_{mu0,nu0} ... E^(l)_{mul,nul}.

    Equals a Koszul sign times Tr(D v_mu0 ... v_mul v_nul^dag ... v_nu0^dag);
    odd-kind words of odd total parity vanish identically.
    """
    word = list(word)
    nloc = mps.nloc
    for mu, nu in word:
        if not (0 <= mu < nloc and 0 <= nu < nloc):
            raise IndexOutOfRange(f"site word occupation ({mu}, {nu}) outside 0..{nloc - 1}")
    if mps.kind == "odd":
        total = sum(subset_parity(mu) + subset_parity(nu) for mu, nu in word)
        if total % 2:
            return 0.0 + 0.0j
    left = np.eye(mps.m, dtype=complex)
    right = np.eye(mps.m, dtype=complex)
    for mu, nu in word:
        left = left @ mps.v[mu]
        right = mps.v[nu].conj().T @ right
    tr = np.trace(mps.D @ left @ right)
    sign = -1.0 if _word_sign_exponent(mps, word) else 1.0
    return complex(sign * tr)


def density_matrix(mps: FermionicMPS, l: int) -> np.ndarray:
    """Reduced density matrix on sites 0..l under the Jordan-Wigner map.

    rho = sum_B expectation(B) jw_word(B)^dag over all site words B.  The
    Koszul and Jordan-Wigner signs of the entry rho[nu, mu] multiply to the
    rank-one sign s_mu s_nu, s_a = (-1)^(sigma0 sum_k k |a_k|), identically +1
    for the even kind.  So with F_a = D^(1/2) v_a0 ... v_al flattened and S
    the diagonal of the s_a, rho = conj(SF) conj(SF)^dag, of which the odd
    kind keeps the two global-parity blocks.  The checks that make this an
    oracle (unit trace, parity invariance, restriction consistency, agreement
    with expectation) live in the test-suite callers.
    """
    sites = l + 1
    total = mps.nloc ** sites
    need = 16 * total * (total + 2 * mps.m * mps.m)  # rho and F, twice while a site is appended
    if need > RHO_BYTE_BUDGET:
        raise SizeTooLarge(
            f"density matrix of {sites} sites at d={mps.d}, m={mps.m} needs "
            f"{need} bytes, over the budget of {RHO_BYTE_BUDGET} bytes"
        )
    # per occupation sequence a, big-endian: F_a = D^(1/2) v_a0 ... v_al,
    # the global parity sum_k |a_k| and the sign weight sum_k k |a_k|
    par = mps.site_parities()
    w, u = np.linalg.eigh((mps.D + mps.D.conj().T) / 2.0)
    prods = ((u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T)[None]
    wide = np.hstack(mps.v)  # [v_0 | v_1 | ...]
    parity = weight = np.zeros(1, dtype=int)
    for k in range(sites):
        # every F_a v_mu in one matrix product: rows (a, i), columns (mu, j)
        prods = (prods.reshape(-1, mps.m) @ wide).reshape(-1, mps.m, mps.nloc, mps.m)
        prods = prods.transpose(0, 2, 1, 3).reshape(-1, mps.m, mps.m)
        parity = (parity[:, None] + par).reshape(-1)
        weight = (weight[:, None] + k * par).reshape(-1)
    flat = prods.reshape(total, -1)
    if mps.kind == "odd" and mps.sigma0:
        flat[weight % 2 == 1] *= -1.0
    gram = flat @ flat.conj().T  # gram[mu, nu] = s_mu s_nu Tr(D P_mu P_nu^dag)
    if mps.kind == "odd":
        odd = parity % 2 == 1
        np.putmask(gram, odd[:, None] != odd, 0.0)
    return gram.T  # rows are nu sequences, columns mu sequences


@dataclass(frozen=True, eq=False)
class OnSiteSymmetry:
    """On-site one-particle action U and bond action W of one (G, p)."""

    rep_site: ProjectiveRep   # d x d one-particle (anti-)unitaries
    rep_bond: ProjectiveRep   # m x m bond (anti-)unitaries

    def __post_init__(self):
        if not self.rep_site.twist.same_as(self.rep_bond.twist):
            raise GroupMismatch("site and bond actions live on different (G, p)")

    @property
    def group(self) -> FiniteGroup:
        return self.rep_site.group

    @property
    def twist(self) -> Z2Hom:
        return self.rep_site.twist


@dataclass(frozen=True, eq=False)
class SymmetryPhases:
    """Result of a symmetry check: one phase per group element."""

    c: np.ndarray            # complex, per group element
    residuals: np.ndarray    # per group element
    q: Z2Hom | None          # odd kind: the parity sign of each fit


def _least_squares_phases(lhs, rhs):
    """Least-squares c_g in lhs[g] = c_g rhs[g] for every g, with the relative residuals.

    Each sum is one BLAS dot per g, so it adds up as np.vdot and np.linalg.norm do."""
    lhs, rhs = lhs.reshape(len(lhs), 1, -1), rhs.reshape(len(rhs), 1, -1)
    dot = lambda a, b: (a @ b.swapaxes(1, 2))[:, 0, 0]
    norm = lambda x: np.sqrt(dot(x.real, x.real) + dot(x.imag, x.imag))
    denom = dot(rhs.conj(), rhs)
    c = np.divide(dot(rhs.conj(), lhs), denom, out=np.zeros_like(denom), where=np.abs(denom) > 0)
    return c, norm(lhs - c[:, None, None] * rhs) / np.maximum(1.0, norm(lhs))


def check_symmetry(mps: FermionicMPS, sym: OnSiteSymmetry) -> SymmetryPhases:
    """Extract the phases c_g; for the odd kind also the character q.

    All g are fitted at once, unsigned first and, for the odd kind, then with
    the parity sign (-1)^|nu|; q(g) is 1 where only the signed fit holds.
    Raises SymmetryViolated (even kind) at the first g, or NoConsistentQ (odd
    kind), when neither fits within tolerance.
    """
    if sym.rep_site.dim != mps.d or sym.rep_bond.dim != mps.m:
        raise DimensionMismatch("symmetry dimensions do not match the MPS")
    lift = fock.second_quantize(sym.rep_site.mats)  # F_g, the Fock lift of U_g
    lhs = np.einsum("gmn,mij->gnij", lift, mps.v)  # sum_mu F_g[mu, nu] v_mu
    rhs = sym.rep_bond.act_all(mps.v)  # W_g v_nu W_g^-1
    c, resid = _least_squares_phases(lhs, rhs)
    if (signed := (resid > TOL) & (mps.kind == "odd")).any():
        signs = np.where(mps.site_parities() % 2, -1.0, 1.0)[:, None, None]
        c_signed, resid_signed = _least_squares_phases(lhs * signs, rhs)
        c, resid = np.where(signed, c_signed, c), np.where(signed, resid_signed, resid)
    if (bad := resid > TOL).any():
        if mps.kind == "odd":
            raise NoConsistentQ("no parity character satisfies the covariance relation")
        g = int(np.argmax(bad))
        raise SymmetryViolated(f"covariance fails at group element {g}: residual {resid[g]:.3e}")
    q = validate_hom_z2(sym.group, signed.astype(int).tolist()) if mps.kind == "odd" else None
    return SymmetryPhases(c, resid, q)


def fmps_index(mps: FermionicMPS, sym: OnSiteSymmetry) -> SPTIndex:
    """The SPT index carried by a symmetric fermionic MPS.

    kappa is the kind; q comes from the action on the bond grading (even)
    or from the per-element parity signs of check_symmetry (odd); the class
    is that of the bond representation, exact, with a representative on the
    |G|-th roots that may move with the phases of the W_g.
    """
    phases = check_symmetry(mps, sym)
    group = sym.group
    if mps.kind == "even":
        error = "bond action of {g} sends Theta to neither +/- itself"
        q = validate_hom_z2(group, sym.rep_bond.sign_character(mps.theta, error))
        kappa = 0
    else:
        q = phases.q
        kappa = 1
    return SPTIndex(kappa, q, cocycle_of_rep(sym.rep_bond))
