"""ppforge: finite-field permutation-polynomial families with brute-force audit.

The package builds prime fields and extension towers, the polynomial and
linearized-polynomial algebra over them, constructors for a catalogue of
permutation-polynomial families with predicted bijectivity verdicts, and an
exhaustive oracle that confirms every prediction at desk scale.
"""

from .gf import (
    CtxMismatchError,
    DegreeMismatchError,
    Elem,
    EvenCharacteristicError,
    FieldCtx,
    FieldError,
    FieldSpecError,
    NonPrimeError,
    ReducibleModulusError,
    ResidueClass,
    make_field,
    parse_field_spec,
)
from .poly import Poly, gcd, format_poly, parse_poly
from .linearized import (
    CriteriaDisagreeError,
    LinPoly,
    SubfieldCoefficientError,
    circulant_det_is_nonzero,
    format_linpoly,
    gcd_criterion_is_pp,
    is_permutation,
    parse_linpoly,
    random_linearized_pp,
)
from .agw import (
    AGWInstance,
    FiniteMap,
    HypothesisViolatedError,
    NotCommutingError,
    NotSurjectiveError,
    check_fiber_criterion,
    check_fiber_shift,
    check_perturbed_bijection,
    wrap_family_instance,
)
from .families import (
    FamilyInstance,
    FamilyParameterError,
    GRecipe,
    RecipeContractError,
    SkippedInstance,
    anti_alternating,
    anti_m_sum,
    anti_scaled,
    build_g,
    family_additive_g,
    family_alpha_beta,
    family_alpha_beta_gamma,
    family_anti_g,
    family_even_t,
    family_generic_L,
    family_half_power,
    family_n4k,
    family_q6,
    family_trace_gamma,
    instantiate_grid,
    m_sum,
    norm_power,
    product_of,
    recipe_sign,
    sum_of,
    trace_of_h,
)
from .oracle import (
    DEFAULT_CAP,
    FieldTooLargeError,
    IffRecord,
    Verdict,
    check_bijective,
    check_iff,
    scan_codes,
    format_cycle_type,
)

__version__ = "0.1.0"
