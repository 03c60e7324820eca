"""The two-variable refinement and its collapse onto the diagonal.

Run:  python3 demos/02_mirror_refinement.py
"""

from pwcheck import ModuliParams, closed_e, mirror_difference

params = ModuliParams(2, 2)
two_var = mirror_difference(params)
print("rank 2, genus 2 refinement:")
print(f"  {two_var}")
print(f"  symmetric under u <-> v: {two_var.swap() == two_var}")

diag = two_var.diagonal()
print(f"  diagonal u = v = q:      {diag}")
print(f"  equals the closed form:  {diag == closed_e(params)}")
print()

# The same collapse holds at every prime rank; here is a bigger one.
params = ModuliParams(3, 3)
two_var = mirror_difference(params)
terms = list(two_var.terms())
print(f"rank 3, genus 3 refinement has {len(terms)} terms; a few of them:")
for key, coeff in terms[:4]:
    print(f"  u^{key[0]} v^{key[1]} -> {coeff}")
print(f"diagonal equals closed form: {two_var.diagonal() == closed_e(params)}")
