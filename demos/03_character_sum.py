"""The character-sum route: hooks and the cross-check.

Run:  python3 demos/03_character_sum.py
"""

from pwcheck import (
    ModuliParams,
    SpecialType,
    closed_e,
    evar_type_route,
    special_hook,
    type_contribution,
)
from pwcheck.hookchar import evar_from_types
from pwcheck.laurent import LaurentPoly

n, g = 3, 2
params = ModuliParams(n, g)

print(f"rank {n}: the two special families and their hooks")
for kind in SpecialType:
    hook = special_hook(kind, n)
    print(f"  {kind.value:8s} hook = {hook}")
    contrib = type_contribution(hook, g)
    print(f"           contribution = {contrib}")
print()

by_types = evar_type_route(params)
by_formula = closed_e(params) * LaurentPoly({-params.type_shift: 1})
print(f"summed over families: {by_types}")
print(f"closed bracket:       {by_formula}")
print(f"routes agree:         {by_types == by_formula}")
print()

# evar_from_types runs that comparison itself and raises
# InconsistentFormulaError if the two disagree.  A degree shift then
# recovers the full E-polynomial.
evar = evar_from_types(params)
shift = params.type_shift
lifted = evar * LaurentPoly({shift: 1})
print(f"shifted by q^{shift}:      {lifted}")
print(f"matches closed E:     {lifted == closed_e(params)}")
