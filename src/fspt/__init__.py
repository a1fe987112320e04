"""Invariants of one-dimensional fermionic SPT phases.

The package computes the Z2 x H^1(G, Z2) x H^2(G, U(1)_p) invariant of
finite-dimensional graded symmetry data, implements the stacking group
law, and evaluates fermionic matrix product states against an independent
Jordan-Wigner density-matrix oracle.
"""

from .phase import Phase
from .group import (
    FiniteGroup,
    Z2Hom,
    all_z2_homs,
    cyclic,
    dihedral,
    direct_product,
    klein,
    quaternion8,
    trivial_hom,
    validate_group,
    validate_hom_z2,
)
from .cocycle import (
    CocycleWitness,
    TwistedCocycle,
    coboundary,
    cocycle_of_rep,
    cocycle_product,
    cohomologous,
    default_modulus,
    epsilon,
    epsilon_p,
    trivial_cocycle,
    validate_cocycle,
)
from .rep import ProjectiveRep, pair
from .algebra import (
    OperatorAlgebra,
    algebra_closure,
    commutant,
    find_odd_selfadjoint_unitary,
    full_matrix_algebra,
    graded_center_split,
    graded_split,
    graded_tensor,
    operator_degree,
)
from .fock import jw_embed, jw_word, parity_operator, second_quantize
from .invariant import (
    SPTIndex,
    Z8Element,
    index_equal,
    stack_index,
    trivial_index,
    z8_compose,
    z8_elements,
    z8_encode,
)
from .system import (
    GradedSystem,
    classify,
    compute_index,
    r0_system,
    r1_system,
    stack_systems,
    system_from_generators,
)
from .fmps import (
    FermionicMPS,
    OnSiteSymmetry,
    check_symmetry,
    density_matrix,
    even_mps,
    expectation,
    fmps_index,
    odd_mps,
    transfer_apply,
    transfer_fixed_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
