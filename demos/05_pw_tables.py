"""Perverse and weight tables side by side, across the whole grid.

Run:  python3 demos/05_pw_tables.py
"""

from pwcheck import ModuliParams, perverse_table, verify_pw, weight_table

params = ModuliParams(3, 2)
print(f"n=3 g=2  (m={params.half_dim}, k={params.curious_shift})")
print("perverse table (from the closed E-polynomial):")
for (i, j), v in perverse_table(params).items():
    print(f"  level {i}, complementary degree {j}: {v}")
print("weight table (from the character sum):")
for (i, j), v in weight_table(params).items():
    print(f"  level {i}, complementary degree {j}: {v}")
print()

report = verify_pw(params)
print(report.summary())
print()

print("the same verification across the full grid:")
for n in (2, 3, 5, 7):
    for g in (2, 3, 4):
        report = verify_pw(ModuliParams(n, g))
        print(f"  {report.verdict}  "
              f"(total variant dimension {report.perverse.total()})")
