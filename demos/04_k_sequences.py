"""Bigraded tables, the two recognition criteria, their certificates
and the search.

Run:  python3 demos/04_k_sequences.py
"""

from pwcheck import (
    Criterion,
    FiltrationTable,
    certify_criterion,
    check_first_criterion,
    check_second_criterion,
    is_k_sequence,
)
from pwcheck.filtration import count_search_tables, falsification_search

# A genuine k-sequence: one column, symmetric about row m.
good = FiltrationTable({(1, 1): 3, (2, 1): 7, (3, 1): 3})
m, k = 2, 1
print(f"table {good!r}")
print(f"  is a k-sequence for (m, k) = ({m}, {k}): {is_k_sequence(good, m, k)}")
for check in (check_first_criterion, check_second_criterion):
    report = check(good, m, k)
    print(f"  {report.criterion.value} criterion: passed={report.passed}")
print()

# Break the symmetry and watch the reports pinpoint the failure.
bad = FiltrationTable({(1, 1): 3, (2, 1): 7})
report = check_first_criterion(bad, m, k)
print(f"table {bad!r}")
print(f"  conditions: i={report.cond_i} ii={report.cond_ii} iii={report.cond_iii}")
print(f"  first violation: {report.first_violation}")
print(f"  as JSON: {report.to_json()}")
print()

# The point of the criteria is that their conditions force the shape.
# The certificate checks each criterion's proof on the 4 x 3 box, for
# tables of any entries (it raises VerificationError if the proof fails
# there); the search enumerates every table with entries 0 or 1 on the
# same box for one that satisfies a criterion without being a k-sequence.
tables = count_search_tables(3, 2, 1, range(1, 4), range(0, 3))
for criterion in Criterion:
    certify_criterion(criterion, 3, 2, range(1, 4), range(0, 3))
    hits = falsification_search(criterion, 3, 2, 1, range(1, 4), range(0, 3))
    print(f"{criterion.value} criterion: certificate holds; {len(hits)} "
          f"counterexamples among {tables} tables")
