"""Point-count route to the variant E-polynomial via special characters.

For prime rank n the irreducible characters that survive on the variant
part fall into two families, distinguished by the torus centralizing
the corresponding special conjugacy class: the split torus (n distinct
scalar eigenvalues) and the nonsplit one (a single n-cycle orbit).
Each family contributes a normalized hook polynomial, and the counted
sum over both must reproduce the closed formula exactly.
"""

from __future__ import annotations

import enum

from ._frozen import VerificationError, require_int
from .epoly import ModuliParams, closed_e, require_prime
from .laurent import LaurentPoly


class IdentityFailureError(VerificationError):
    """The two derivations of the same polynomial disagreed."""


class SpecialType(enum.Enum):
    SPLIT = "split"
    NONSPLIT = "nonsplit"


def special_hook(kind: SpecialType, n: int) -> LaurentPoly:
    """Normalized hook polynomial of one special family.

    Split: q^{(n^2-n)/2} (1-q)^n.  Nonsplit: q^{(n^2-n)/2} (1-q^n).
    The shift is the hook's own q^{-n/2} times the q^{n^2/2} of its
    contribution; for odd n each factor alone has a half-integer exponent.
    """
    require_prime(n)
    shift = LaurentPoly({(n * n - n) // 2: 1})
    if kind is SpecialType.SPLIT:
        return shift * LaurentPoly({0: 1, 1: -1}) ** n
    return shift * LaurentPoly({0: 1, n: -1})


def _count_numerator(kind: SpecialType, n: int, g: int) -> int:
    """n times the number of characters in the family, up to the shared
    scale: n^{2g} - 1 for the split family and 1 - n^{2g} for the nonsplit one."""
    power = n ** (2 * g)
    return power - 1 if kind is SpecialType.SPLIT else 1 - power


def type_contribution(hook: LaurentPoly, g: int) -> LaurentPoly:
    """(hook / (q - 1))^{2g-2}, for a special hook and genus g.

    The division is exact for both hooks.
    """
    require_int(g, 2, "genus g must be an integer >= 2")
    return hook.divide_exact(LaurentPoly({1: 1, 0: -1})) ** (2 * g - 2)


def evar_type_route(params: ModuliParams) -> LaurentPoly:
    """Variant E-polynomial summed over the two special families, on ints:
    the counts' 1/n comes last, as an exact division of each coefficient.
    Never reads closed_e: it is the independent side of evar_from_types
    and of weight_table.
    """
    n, g = params.n, params.g
    total = LaurentPoly.zero()
    for kind in SpecialType:
        hook = special_hook(kind, n)
        total = total + _count_numerator(kind, n, g) * type_contribution(hook, g)
    return total._divide_coefficients(n)


def evar_closed_route(params: ModuliParams) -> LaurentPoly:
    """Same polynomial from the closed formula: closed_e shifted down by
    q^{(n^2+n-2)(g-1)}, which is ((n^{2g}-1)/n) * q^{(n^2-n)(g-1)} * bracket(n, g).
    """
    n, g = params.n, params.g
    shift = (n * n + n - 2) * (g - 1)
    return closed_e(params) * LaurentPoly({-shift: 1})


def evar_from_types(params: ModuliParams) -> LaurentPoly:
    """Variant E-polynomial with both derivations cross-checked.

    Raises IdentityFailureError if the character sum and the closed
    formula disagree.
    """
    from_types = evar_type_route(params)
    from_closed = evar_closed_route(params)
    if from_types != from_closed:
        raise IdentityFailureError(
            f"character sum disagrees with closed form for n={params.n} g={params.g}")
    return from_types
