"""Exact verification of perverse = weight identities at prime rank."""

import types  # already loaded by enum

from ._frozen import DomainError, VerificationError
from .epoly import (
    CohomologyProfile,
    InconsistentFormulaError,
    ModuliParams,
    NotPrimeError,
    closed_e,
    euler_variant,
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

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
