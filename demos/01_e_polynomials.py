"""Closed E-polynomials and the Betti numbers they encode.

Run:  python3 demos/01_e_polynomials.py
"""

from pwcheck import ModuliParams, closed_e, euler_variant, variant_betti

for n, g in [(2, 2), (3, 2), (2, 3)]:
    params = ModuliParams(n, g)
    poly = closed_e(params)
    print(f"n={n} g={g}  dim={params.dim}")
    print(f"  E = {poly}")

    weight = (2 * g - 2) * (2 * n * n + n - 3)
    print(f"  palindromic about weight {weight}: {poly == poly.reverse(weight)}")

    profile = variant_betti(params)
    for d, v in profile.items():
        print(f"  dim H^{d} = {v}")
    print(f"  Euler characteristic: {euler_variant(params)}")
    print()

# Everything is exact: every coefficient is an int, so summing the
# terms at an integer q gives an exact int.
poly = closed_e(ModuliParams(5, 2))
print("q = 1 gives the Euler number:", sum(c for _, c in poly.terms()))
print("q = 4 evaluates exactly:     ", sum(c * 4 ** e for e, c in poly.terms()))
