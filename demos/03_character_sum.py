"""The character-sum route: hooks and the cross-check.

Run:  python3 demos/03_character_sum.py
"""

from pwcheck import (
    ModuliParams,
    SpecialType,
    closed_e,
    evar_closed_route,
    evar_from_types,
    evar_type_route,
    special_hook,
    type_contribution,
)
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
by_formula = evar_closed_route(params)
print(f"summed over families: {by_types}")
print(f"closed bracket:       {by_formula}")
print(f"routes agree:         {by_types == by_formula}")
print()

# evar_from_types runs that comparison internally and refuses to return
# anything if the two disagree.  A degree shift then recovers the full
# E-polynomial.
evar = evar_from_types(params)
shift = (n * n + n - 2) * (g - 1)
lifted = evar * LaurentPoly({shift: 1})
print(f"shifted by q^{shift}:      {lifted}")
print(f"matches closed E:     {lifted == closed_e(params)}")
