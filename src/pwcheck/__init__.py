"""Exact verification of perverse = weight identities at prime rank."""

from .epoly import (
    CohomologyProfile,
    InconsistentFormulaError,
    ModuliParams,
    NotPrimeError,
    closed_e,
    euler_variant,
    make_params,
    mirror_difference,
    variant_betti,
)
from .filtration import (
    BudgetExceededError,
    Criterion,
    CriterionReport,
    FiltrationTable,
    check_first_criterion,
    check_second_criterion,
    falsification_search,
    is_k_sequence,
)
from .hitchin import (
    PWReport,
    endoscopic_bound,
    perverse_table,
    verify_pw,
    weight_table,
)
from .hookchar import (
    IdentityFailureError,
    SpecialType,
    count_multiplier,
    evar_closed_route,
    evar_from_types,
    evar_type_route,
    special_hook,
    type_contribution,
)
from .laurent import (
    BiLaurentPoly,
    EvalDomainError,
    InexactDivisionError,
    LaurentPoly,
)

__version__ = "0.1.0"

__all__ = [
    "BiLaurentPoly",
    "BudgetExceededError",
    "CohomologyProfile",
    "Criterion",
    "CriterionReport",
    "EvalDomainError",
    "FiltrationTable",
    "IdentityFailureError",
    "InconsistentFormulaError",
    "InexactDivisionError",
    "LaurentPoly",
    "ModuliParams",
    "NotPrimeError",
    "PWReport",
    "SpecialType",
    "check_first_criterion",
    "check_second_criterion",
    "closed_e",
    "count_multiplier",
    "endoscopic_bound",
    "euler_variant",
    "evar_closed_route",
    "evar_from_types",
    "evar_type_route",
    "falsification_search",
    "is_k_sequence",
    "make_params",
    "mirror_difference",
    "perverse_table",
    "special_hook",
    "type_contribution",
    "variant_betti",
    "verify_pw",
    "weight_table",
]
