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
    certify_criterion,
    check_first_criterion,
    check_second_criterion,
    is_k_sequence,
)
from .hitchin import (
    PWReport,
    perverse_table,
    verify_pw,
    weight_table,
)
from .hookchar import (
    SpecialType,
    evar_type_route,
    special_hook,
    type_contribution,
)
from .laurent import (
    BiLaurentPoly,
    InexactDivisionError,
    LaurentPoly,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
