"""Explicit arrangement families with exact rational coordinates.

Three deterministic families:

  * cyclic star  A*(d,n): the d coordinate hyperplanes plus n-d hyperplanes
    given by axis intercepts 1+(d-i)(k-d-1)*eps on axis i < d and
    1-(k-d-1)*eps on axis d, for k = d+1..n.
  * ao2  A(2,n): the two axes plus lines through (1+(k-3)eps, 0) and
    (0, 1-(k-3)eps) for k = 3..n-1, closed off by a line through (2, 0) and
    (0, 2+eps) that keeps every vertex on one side.
  * ao3  A(3,n): the three coordinate planes plus planes with axis
    intercepts (1+2(k-4)eps, 1+(k-4)eps, 1-(k-4)eps) for k = 4..n-1, closed
    off by the plane with intercepts (3, 2, 3+eps).

One epsilon rule covers every family: eps = 1/(n-d), which satisfies the
strict requirement 0 < eps < 1/(n-d-1) whenever that constraint is
non-vacuous.  That rule is what makes the families simple, so they are
returned as built, with no check of their own: the test suite proves
simplicity across a grid of each family, and every use proves it again for
its instance, because `enumerate_vertices`, the first step of every census
and export, raises NotSimpleError on any non-simple input.

Random simple arrangements draw integer coefficients from a SplitMix64
stream so that identical (d, n, seed, bound) inputs reproduce bit-identical
output on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .arrangement import Arrangement, Hyperplane, hyperplane
from .errors import GenerationError, InputError
from .rational import IntPoint, IntRow, integer_row, solve_integer_system


@dataclass(frozen=True)
class Construction:
    arrangement: Arrangement
    family: str
    d: int
    n: int
    epsilon: Optional[Fraction] = None
    seed: Optional[int] = None
    bound: Optional[int] = None

    def metadata(self) -> dict:
        meta = {"family": self.family, "d": self.d, "n": self.n}
        if self.epsilon is not None:
            meta["epsilon"] = self.epsilon
        if self.seed is not None:
            meta["seed"] = self.seed
        if self.bound is not None:
            meta["bound"] = self.bound
        return meta


def _coordinate_hyperplane(dim: int, axis: int) -> Hyperplane:
    a = [Fraction(0)] * dim
    a[axis] = Fraction(1)
    return Hyperplane(tuple(a), Fraction(0))


def _intercept_hyperplane(intercepts: list[Fraction]) -> Hyperplane:
    """The hyperplane sum(x_i / c_i) = 1, scaled to primitive integers."""
    ints = integer_row([Fraction(1) / c for c in intercepts] + [1])
    return hyperplane(ints[:-1], ints[-1])


def build_cyclic_star(d: int, n: int) -> Construction:
    if d < 2:
        raise InputError("cyclic star requires d >= 2")
    if n < d + 1:
        raise InputError(f"cyclic star requires n >= d+1 = {d + 1}, got n = {n}")
    eps = Fraction(1, n - d)
    planes = [_coordinate_hyperplane(d, d - k) for k in range(1, d + 1)]  # x_{d+1-k} = 0
    for k in range(d + 1, n + 1):
        shift = (k - d - 1) * eps
        intercepts = [1 + (d - i) * shift for i in range(1, d)]
        intercepts.append(1 - shift)
        planes.append(_intercept_hyperplane(intercepts))
    arr = Arrangement(d, tuple(planes))
    return Construction(arr, "cyclic", d, n, epsilon=eps)


def build_ao2(n: int) -> Construction:
    if n < 4:
        raise InputError(f"ao2 requires n >= 4, got n = {n}")
    eps = Fraction(1, n - 2)
    lines = [
        _coordinate_hyperplane(2, 1),  # the x1 axis: x2 = 0
        _coordinate_hyperplane(2, 0),  # the x2 axis: x1 = 0
    ]
    for k in range(3, n):
        lines.append(_intercept_hyperplane([1 + (k - 3) * eps, 1 - (k - 3) * eps]))
    lines.append(_intercept_hyperplane([Fraction(2), 2 + eps]))
    arr = Arrangement(2, tuple(lines))
    return Construction(arr, "ao2", 2, n, epsilon=eps)


def build_ao3(n: int) -> Construction:
    if n < 5:
        raise InputError(f"ao3 requires n >= 5, got n = {n}")
    eps = Fraction(1, n - 3)
    planes = [
        _coordinate_hyperplane(3, 2),  # x3 = 0
        _coordinate_hyperplane(3, 1),  # x2 = 0
        _coordinate_hyperplane(3, 0),  # x1 = 0
    ]
    for k in range(4, n):
        shift = (k - 4) * eps
        planes.append(_intercept_hyperplane([1 + 2 * shift, 1 + shift, 1 - shift]))
    planes.append(_intercept_hyperplane([Fraction(3), Fraction(2), 3 + eps]))
    arr = Arrangement(3, tuple(planes))
    return Construction(arr, "ao3", 3, n, epsilon=eps)


class SplitMix64:
    """The standard 64-bit split-mix generator; portable and documented so
    seeds mean the same arrangement in any implementation."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection to avoid modulo bias."""
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            value = self.next_u64()
            if value < limit:
                return lo + value % span


def random_simple_arrangement(d: int, n: int, seed: int, bound: int = 100) -> Construction:
    """A seed-reproducible simple arrangement with integer coefficients in
    [-bound, bound]; any hyperplane breaking simplicity is redrawn, up to
    1000 attempts each.  `_extends_simply` has then solved every d-subset
    and seen every point distinct, so the result needs no further check."""
    if d not in (2, 3):
        raise InputError("random arrangements support d in {2, 3}")
    if n < d + 1:
        raise InputError(f"random arrangement requires n >= d+1 = {d + 1}")
    if bound < 10:
        raise InputError("coefficient bound must be at least 10")
    stream = SplitMix64(seed)
    rows: list[IntRow] = []
    points: dict[IntPoint, tuple[int, ...]] = {}
    for _ in range(n):
        for attempt in range(1000):
            row = tuple(stream.next_int(-bound, bound) for _ in range(d + 1))
            if all(c == 0 for c in row[:-1]):
                continue
            if _extends_simply(rows, row, d, points):
                rows.append(row)
                break
        else:
            raise GenerationError(
                f"could not extend to {len(rows) + 1} hyperplanes after 1000 attempts"
            )
    arr = Arrangement(d, tuple(hyperplane(row[:-1], row[-1]) for row in rows))
    return Construction(arr, "random", d, n, seed=seed, bound=bound)


def _extends_simply(
    existing: list[IntRow], candidate: IntRow, d: int,
    points: dict[IntPoint, tuple[int, ...]],
) -> bool:
    """True if adding the integer row `candidate` (a, b) keeps every d-subset
    nonsingular and all intersection points distinct.

    `points` holds the intersection points of `existing`, as the
    (numerators, denominator) pairs of `solve_integer_system`, which are
    already known to be distinct, so only the d-subsets containing the
    candidate are solved.  Their points are added to `points` when the
    candidate is accepted and removed again when it is rejected.
    """
    rows = existing + [candidate]
    last = len(existing)
    added: list[IntPoint] = []
    for rest in combinations(range(last), d - 1):
        subset = rest + (last,)
        point = solve_integer_system([rows[i] for i in subset])
        if point is None or point in points:
            for stale in added:
                del points[stale]
            return False
        points[point] = subset
        added.append(point)
    return True
