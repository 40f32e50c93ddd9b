"""Reference oracle for `constructions._extends_simply`: every subset on its own.

This is the generator's earlier decision, kept as the reference for the
walk that replaced it: a candidate row with a zero normal is redrawn, and
otherwise each (d-1)-subset of the existing rows plus the candidate is
solved by itself with the earlier solver, `oracle_arithmetic.solve_by_echelon`,
in lexicographic order.  The candidate is refused at the first singular
subset or repeated point, and the points it added are removed again; when
it is accepted they stay in the set `points`.
"""

from __future__ import annotations

from itertools import combinations

from oracle_arithmetic import solve_by_echelon


def extends_simply_by_subsets(existing, candidate, d, points) -> bool:
    if not any(candidate[:-1]):
        return False
    rows = existing + [candidate]
    last = len(existing)
    added = []
    for rest in combinations(range(last), d - 1):
        subset = rest + (last,)
        point = solve_by_echelon([rows[i] for i in subset])
        if point is None or point in points:
            points.difference_update(added)
            return False
        points.add(point)
        added.append(point)
    return True
