"""Exact verification of perverse = weight identities at prime rank.

Importing the package loads none of its modules.  The module-level
__getattr__ (PEP 562) imports an export's module on the name's first
read and binds the name here, so a later read is a plain lookup; the
name of a module gives that module.  So `from pwcheck import LaurentPoly`
loads `laurent` and the layer under it, `_frozen`, and nothing else.
"""

__version__ = "0.1.0"

# Each module of the package -> the names the package exports from it.
_EXPORTS = {
    "_frozen": ("DomainError", "VerificationError"),
    "laurent": ("BiLaurentPoly", "InexactDivisionError", "LaurentPoly"),
    "epoly": ("CohomologyProfile", "InconsistentFormulaError", "ModuliParams", "NotPrimeError",
              "closed_e", "euler_variant", "mirror_difference", "variant_betti"),
    "filtration": ("BudgetExceededError", "Criterion", "CriterionReport", "FiltrationTable",
                   "certify_criterion", "check_first_criterion", "check_second_criterion",
                   "is_k_sequence"),
    "hookchar": ("SpecialType", "evar_type_route", "special_hook", "type_contribution"),
    "hitchin": ("PWReport", "perverse_table", "verify_pw", "weight_table"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:  # importing a module binds it here
        return __import__(name, globals(), level=1)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_OWNER[name], globals(), level=1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_EXPORTS})
