"""Point-count route to the variant E-polynomial via special characters.

For prime rank n the irreducible characters that survive on the variant
part fall into two families, distinguished by the torus centralizing
the corresponding special conjugacy class: the split torus (n distinct
scalar eigenvalues) and the nonsplit one (a single n-cycle orbit).
Each family contributes a normalized hook polynomial, and the counted
sum over both must reproduce the closed formula exactly.
"""

import enum

from ._frozen import require_int
from .epoly import InconsistentFormulaError, ModuliParams, closed_e, require_prime
from .laurent import LaurentPoly, _exact_quotient


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


def type_contribution(hook: LaurentPoly, g: int) -> LaurentPoly:
    """(hook / (q - 1))^{2g-2}, for a special hook and genus g.

    The division is exact for both hooks.
    """
    require_int(g, 2, "genus g must be an integer >= 2")
    return hook.divide_exact(LaurentPoly({1: 1, 0: -1})) ** (2 * g - 2)


def evar_type_route(params: ModuliParams) -> LaurentPoly:
    """Variant E-polynomial summed over the two special families, on ints:
    the counts' 1/n comes last, as an exact division of each coefficient.
    Never reads closed_e: it is the independent side of verify's
    evar-shift check and of weight_table.
    """
    n, g = params.n, params.g
    # n times each family's signed count, up to the shared scale, is
    # n^{2g} - 1 for the split family and 1 - n^{2g} for the nonsplit one.
    split, nonsplit = (type_contribution(special_hook(kind, n), g) for kind in SpecialType)
    scale = n ** (2 * g) - 1
    return LaurentPoly._of({e: _exact_quotient(scale * c, n)
                            for e, c in (split - nonsplit).terms()})


def evar_from_types(params: ModuliParams) -> LaurentPoly:
    """Variant E-polynomial from the character sum, cross-checked: raises
    InconsistentFormulaError unless q^type_shift times it is closed_e.
    """
    evar = evar_type_route(params)
    if evar * LaurentPoly({params.type_shift: 1}) != closed_e(params):
        raise InconsistentFormulaError(
            f"character sum disagrees with closed form for n={params.n} g={params.g}")
    return evar
