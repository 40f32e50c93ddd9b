"""Best-found 3D arrangements, pinned with their exact average diameters.

Past six planes the paper bounds the largest δ in R^3 from below and above,
both bounds tending to 3.  These witnesses were found by an exact local
search from random integer rows: each beats ao3(n) and cyclic(3, n) at its
n.  They are data, "best found", never a maximum.  Each row is
(a1, a2, a3, b) of a·x = b.  Every δ must lie below the conjectured d = 3,
Proposition 4's upper bound and the Hirsch-type bound; a witness above any
of them would be a fault of the engine or of the paper.
"""

from collections import Counter
from fractions import Fraction

import pytest

from arrangement_lab.arrangement import Arrangement, SimplicityReport, check_simple, hyperplane
from arrangement_lab.census import census
from arrangement_lab.verify import hirsch_bound, prop4_upper_bound
from oracle_vertices import check_simple_by_fractions

WITNESSES = {
    7: (Fraction(9, 4), [[-30, 25, -13, -28], [29, 4, 25, 11], [7, -9, -30, -12],
                         [-22, -16, 27, -12], [-21, -16, -2, -22], [4, -12, 1, -27],
                         [-1, 24, 2, 21]]),
    8: (Fraction(17, 7), [[-19, 21, -13, -22], [-16, 28, 7, -27], [-19, 26, -3, -26],
                          [17, 20, 17, 15], [-5, -5, 21, -23], [4, 0, -6, 11],
                          [12, 4, -14, -14], [-7, -7, -3, -19]]),
    9: (Fraction(137, 56), [[-29, 19, 19, 8], [-28, 26, 11, 10], [-13, 4, 2, 10],
                            [-15, 22, 17, -30], [-3, 1, 11, -4], [24, -11, 13, -22],
                            [26, 25, 3, -15], [-5, -22, -19, 0], [27, -16, 17, -26]]),
    10: (Fraction(103, 42), [[1, 11, -7, -7], [-19, -29, 25, 20], [-21, -14, 2, -6],
                             [28, 8, -24, -18], [7, 26, 6, 14], [-24, 17, -5, -22],
                             [16, 25, 1, 30], [16, -1, -20, -20], [-19, -23, -28, -23],
                             [3, 30, 30, 8]]),
}


def witness(n):
    return Arrangement(3, tuple(hyperplane(row[:3], row[3]) for row in WITNESSES[n][1]))


@pytest.mark.parametrize("n", sorted(WITNESSES))
def test_best_found_witness_is_simple_with_its_pinned_delta(cached_census, n):
    arr = witness(n)
    assert arr.n == n
    assert check_simple(arr) == check_simple_by_fractions(arr) == SimplicityReport(True)
    delta = census(arr).delta
    assert delta == WITNESSES[n][0]
    assert delta <= 3
    assert delta <= prop4_upper_bound(n)
    assert delta <= hirsch_bound(3, n)
    assert delta > max(cached_census("ao3", 3, n).delta, cached_census("cyclic", 3, n).delta)


def test_seven_plane_witness_cell_diameters():
    diameters = Counter(rec.diameter for rec in census(witness(7)).records)
    assert diameters == {1: 4, 2: 7, 3: 9}
