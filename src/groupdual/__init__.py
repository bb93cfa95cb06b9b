"""Exact arithmetic for dualities over finite abelian groups.

Groups are explicit products of cyclic groups, characters are exponent
tuples, and every computation stays inside the integers or Z[zeta_m].
"""

from .limits import Limits, LimitExceededError
from .groups import (
    Automorphism,
    GroupElement,
    GroupSpec,
    Homomorphism,
    Subgroup,
    all_subgroups,
    aut_order,
    automorphism_group,
    identity_automorphism,
    is_characteristic,
    make_group,
    primary_decomposition,
    scalar_automorphism,
    stabilizer,
    subgroup_closure,
    subgroup_from_elements,
)
from .cyclotomic import CycInt, cyclotomic_poly, root_power
from .characters import (
    Character,
    all_characters,
    annihilator,
    double_annihilator_check,
    evaluate,
    extend_character,
    induced_hom,
    pairing_exponent,
    trivial_character,
)
from .dualities import (
    Duality,
    adjoint,
    all_dualities,
    canonical_duality,
    congruence_classes,
    congruent,
    conjugate_duality,
    count_symmetric_dualities,
    count_symmetric_invertible,
    duality_from_matrix,
    gl_order,
    inner_product_exponent,
    inner_product_value,
    is_symmetric,
    negation_duality,
    power_duality,
    power_witness,
    same_duals_everywhere,
    symmetric_ratio,
)
from .codes import (
    AdditiveCode,
    DualKind,
    PowerGroup,
    UnsupportedPairError,
    code_from_generators,
    code_from_subgroup,
    construct_duality_for_pair,
    duality_dependence,
    duals_table,
    extend_duality,
    left_dual,
    mult_by_p_filtration,
    right_dual,
    search_duality_for_pair,
    self_dual_kind,
    verify_filtration_duality,
)
from .enumerators import (
    CompleteEnumerator,
    HammingEnumerator,
    NonIntegralError,
    cwe,
    fourier_transform,
    hamming_weight,
    hwe,
    mw_complete_transform,
    mw_hamming_transform,
    poisson_check,
)
from .tables import paper_table

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
