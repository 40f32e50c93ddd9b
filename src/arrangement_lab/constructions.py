"""Explicit arrangement families with exact rational coordinates.

Three deterministic families, all built on one star of hyperplanes:

  * cyclic star  A*(d,n): the d coordinate hyperplanes plus n-d hyperplanes
    given by axis intercepts 1+(d-i)(k-d-1)*eps on axis i < d and
    1-(k-d-1)*eps on axis d, for k = d+1..n.
  * ao2  A(2,n) and ao3  A(3,n): the closed cyclic star, that is the first
    n-1 hyperplanes of A*(d,n) closed off by one hyperplane with axis
    intercepts (d, d-1, ..., 2, d+eps), which keeps every vertex on one
    side: (2, 2+eps) in the plane, (3, 2, 3+eps) in space.

One epsilon rule covers every family: eps = 1/(n-d), which satisfies the
strict requirement 0 < eps < 1/(n-d-1) whenever that constraint is
non-vacuous.  That rule is what makes the families simple, so they are
returned as built, with no check of their own: the test suite proves
simplicity across a grid of each family, and every use proves it again for
its instance, because `enumerate_vertices`, the first step of every census
and export, raises NotSimpleError on any non-simple input.

Random simple arrangements, in any dimension d >= 2, draw integer
coefficients from a SplitMix64 stream so that identical (d, n, seed, bound)
inputs reproduce bit-identical output on any platform.  Each drawn row is
checked by the vertex pass's own walk over the subsets that contain it
(`arrangement.extends_simply`), and a row that makes a subset singular or a
point repeat is redrawn.  `build` is the one place a family name picks its
builder, and `FIXED_DIMENSION` the one place a name fixes its dimension.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .arrangement import Arrangement, Hyperplane, extends_simply, hyperplane
from .errors import GenerationError, InputError
from .rational import IntPoint, IntRow, integer_row, require_int

RANDOM_COEFF_BOUND = 100  # default bound of random coefficients, drawn from [-bound, bound]
# The families whose dimension the name fixes; `build` refuses any other -d.
FIXED_DIMENSION = {"ao2": 2, "ao3": 3}


class Construction(NamedTuple):
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


def _star_planes(d: int, count: int, eps: Fraction) -> list[Hyperplane]:
    """The first `count` hyperplanes of the cyclic star: x_d = 0, ..., x_1 = 0,
    then the shifted intercept hyperplanes k = d+1..count."""
    planes = [_coordinate_hyperplane(d, d - k) for k in range(1, d + 1)]
    for k in range(d + 1, count + 1):
        shift = (k - d - 1) * eps
        intercepts = [1 + (d - i) * shift for i in range(1, d)]
        intercepts.append(1 - shift)
        planes.append(_intercept_hyperplane(intercepts))
    return planes


def build_cyclic_star(d: int, n: int) -> Construction:
    if d < 2:
        raise InputError("cyclic star requires d >= 2")
    if n < d + 1:
        raise InputError(f"cyclic star requires n >= d+1 = {d + 1}, got n = {n}")
    eps = Fraction(1, n - d)
    arr = Arrangement(d, tuple(_star_planes(d, n, eps)))
    return Construction(arr, "cyclic", d, n, epsilon=eps)


def _closed_star(family: str, d: int, n: int) -> Construction:
    """The cyclic star's first n-1 hyperplanes and the closing hyperplane with
    axis intercepts (d, d-1, ..., 2, d+eps)."""
    if n < d + 2:
        raise InputError(f"{family} requires n >= {d + 2}, got n = {n}")
    eps = Fraction(1, n - d)
    closing = _intercept_hyperplane([*range(d, 1, -1), d + eps])
    arr = Arrangement(d, tuple(_star_planes(d, n - 1, eps)) + (closing,))
    return Construction(arr, family, d, n, epsilon=eps)


def build_ao2(n: int) -> Construction:
    return _closed_star("ao2", 2, n)


def build_ao3(n: int) -> Construction:
    return _closed_star("ao3", 3, n)


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


def random_simple_arrangement(
    d: int, n: int, seed: int, bound: int = RANDOM_COEFF_BOUND
) -> Construction:
    """A seed-reproducible simple arrangement in any d >= 2 with integer
    coefficients in [-bound, bound]; any hyperplane breaking simplicity is
    redrawn, up to 1000 attempts each.  `extends_simply` has then solved
    every d-subset and seen every point distinct, so the result needs no
    further check.  The seed must lie in [0, 2^64): SplitMix64 keeps it mod
    2^64; the bound in [10, 2^63 - 1], so `next_int` draws from <= 2^64 values."""
    if d < 2:
        raise InputError("random arrangement requires d >= 2")
    if n < d + 1:
        raise InputError(f"random arrangement requires n >= d+1 = {d + 1}")
    if bound < 10:
        raise InputError("coefficient bound must be at least 10")
    if bound > SplitMix64.MASK >> 1:
        raise InputError(f"coefficient bound must be at most 2^63 - 1, got {bound}")
    if not 0 <= seed <= SplitMix64.MASK:
        raise InputError(f"seed must lie in [0, 2^64), got {seed}")
    stream = SplitMix64(seed)
    rows: list[IntRow] = []
    points: set[IntPoint] = set()
    for _ in range(n):
        for attempt in range(1000):
            row = tuple(stream.next_int(-bound, bound) for _ in range(d + 1))
            if extends_simply(rows, row, d, points):
                rows.append(row)
                break
        else:
            raise GenerationError(
                f"random d={d} n={n} seed={seed} bound={bound}: could not extend "
                f"{len(rows)} hyperplanes to {len(rows) + 1} after 1000 attempts"
            )
    arr = Arrangement(d, tuple(hyperplane(row[:-1], row[-1]) for row in rows))
    return Construction(arr, "random", d, n, seed=seed, bound=bound)


def build(
    family: str, d: Optional[int], n: int,
    seed: Optional[int] = None, bound: Optional[int] = None,
) -> Construction:
    """The construction of a family name: `d` is required for cyclic and
    random and, when given, must match `FIXED_DIMENSION`'s; `seed` and
    `bound` are read for random only.  Raises InputError on any other name,
    and on a parameter it reads that is not an int."""
    if d is None and family in ("cyclic", "random"):
        raise InputError(f"{family} construction requires -d")
    params = {"n": n} if d is None else {"d": d, "n": n}
    if family == "random":
        params.update(seed=seed, bound=bound)
    for name, value in params.items():
        require_int(value, f"{family} {name}")
    if d not in (None, FIXED_DIMENSION.get(family, d)):
        raise InputError(f"{family} is {FIXED_DIMENSION[family]}-dimensional")
    if family == "cyclic":
        return build_cyclic_star(d, n)
    if family == "ao2":
        return build_ao2(n)
    if family == "ao3":
        return build_ao3(n)
    if family == "random":
        return random_simple_arrangement(d, n, seed, bound)
    raise InputError(f"unknown family {family!r}")
