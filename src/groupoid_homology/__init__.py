"""Exact homology of finite discrete groupoids.

Moore chain complexes over Z, Smith-normal-form based homology with cycle
representatives (Z/q coefficients come from the integral complex through the
mapping cone of q), universal-coefficient verification, Mayer-Vietoris long
exact sequences for saturated covers, and closed-form tables for
shift-of-finite-type families.  Pure Python, integer-exact throughout.
"""

from .abelian import (
    FinAbGroup,
    GroupHom,
    PresentedGroup,
    direct_sum,
    group_of,
    middle_homology,
    tensor,
    tor1,
)
from .chains import (
    FreeChainComplex,
    HomologyResult,
    homology_groups,
    homology_mod,
    homology_results,
)
from .groupoids import (
    DEFAULT_BUDGET,
    FiniteGroupoid,
    action,
    disjoint_union,
    moore_complex,
    one_object_cyclic,
    orbits,
    pair,
    reduction,
    saturation_witness,
    units,
)
from .matrix import (
    IntegerMatrix,
    invariant_factors,
    smith_normal_form,
    sweep_invariant_factors,
)
from .mv import (
    ConnectingResult,
    LongExactSequence,
    MvChainSes,
    MvDecomposition,
    chain_ses,
    decompose,
    long_exact_sequence,
)
from .sft import (
    FamilySpec,
    GcdRow,
    GcdTable,
    classify,
    collision_search,
    family_h1_oracle,
    family_integral,
    family_mod,
    full_shift_homology,
    full_shift_matrix,
    point_homology,
    probe_schedule,
    sft_matrix_homology,
)
from .uct import (
    CantorReport,
    CylinderRange,
    ModReductionReport,
    UctReport,
    cantor_obstruction,
    coefficient_homology,
    decompose_step_function,
    mod_reduction_check,
    uct_assemble,
    uct_verify,
)

__version__ = "0.1.0"

__all__ = [
    "CantorReport",
    "ConnectingResult",
    "CylinderRange",
    "DEFAULT_BUDGET",
    "FamilySpec",
    "FinAbGroup",
    "FiniteGroupoid",
    "FreeChainComplex",
    "GcdRow",
    "GcdTable",
    "GroupHom",
    "HomologyResult",
    "IntegerMatrix",
    "LongExactSequence",
    "ModReductionReport",
    "MvChainSes",
    "MvDecomposition",
    "PresentedGroup",
    "UctReport",
    "action",
    "cantor_obstruction",
    "chain_ses",
    "classify",
    "coefficient_homology",
    "collision_search",
    "decompose",
    "decompose_step_function",
    "direct_sum",
    "disjoint_union",
    "family_h1_oracle",
    "family_integral",
    "family_mod",
    "full_shift_homology",
    "full_shift_matrix",
    "group_of",
    "homology_groups",
    "homology_mod",
    "homology_results",
    "invariant_factors",
    "long_exact_sequence",
    "middle_homology",
    "mod_reduction_check",
    "moore_complex",
    "one_object_cyclic",
    "orbits",
    "pair",
    "point_homology",
    "probe_schedule",
    "reduction",
    "saturation_witness",
    "sft_matrix_homology",
    "smith_normal_form",
    "sweep_invariant_factors",
    "tensor",
    "tor1",
    "uct_assemble",
    "uct_verify",
    "units",
]
