"""Simple hyperplane arrangements and exact sign-vector enumeration.

The combinatorics is driven entirely by sign vectors: a vertex is the unique
solution of d tight hyperplanes, an edge lives on the line cut out by d-1
hyperplanes, and a face of codimension c is a sign vector with c zeros.  A
face belongs to the closure of another exactly when its sign vector agrees
with the other's on every coordinate where the smaller face is not tight.

`enumerate_vertices` finds every vertex in one pass:

* Solve.  The d-subsets are walked depth-first in lexicographic order, and
  each level reduces its new row once against its prefix's echelon rows
  (`rational.reduce_row`), so a subset costs one row reduction plus a
  back-substitution.  The walk raises at the first singular subset or
  repeated point.
* Order.  Dropping one of a vertex's d tight hyperplanes leaves a line
  through it.  Each line's vertices are sorted once, in lexicographic order
  of their points, by an integer key, which gives each vertex its lower and
  upper neighbour on each of its lines.
* Signs.  A vertex keeps them as its plus mask, bit n-1-k set where
  hyperplane k is positive.  All n signs are evaluated at the first vertex
  only.  Consecutive vertices u < w on a line differ in sign only at their
  own indices off the line, since no other hyperplane crosses the segment
  between them; so w's mask is u's with u's index set to w's side of it
  (one dot product) and w's index cleared.  The masks spread breadth-first.
* Edges.  The segment or ray on a vertex's line to either side of the
  dropped hyperplane is a step.  Each neighbour pair becomes, in place, the
  vertex's step on that line (`Vertex.steps`): its neighbours by side of
  the dropped hyperplane, and the side that lies lexicographically above.

Carrying the signs needs the vertices to be simple, with no point on more than
d hyperplanes, and the solve pass already proves it.  If the point x of a
subset S lies on a hyperplane j outside S, the normals of S are a basis, so
a_j = Σ c_i a_i over i in S, and b_j = Σ c_i b_i because x lies on all of
them.  Some c_i is nonzero, and swapping that i for j gives a nonsingular
subset with the same point x, which the solve pass reports as a repeat (or
it stops earlier).  So a pass that raises nothing has no extra
hyperplanes.  When it does raise, the points solved so far are checked
against all n hyperplanes in lexicographic order, and the first that lies
on an extra one is reported instead, naming every hyperplane through it:
the error of the first defective subset, as a subset-by-subset check would
give.

Everything after this pass reads only the vertices: their tight sets,
plus masks and steps.  A face is one int too, its plus mask with bit
2n-1-k set where it is zero on k; a cell's is its plus mask, whose integer
order is lexicographic order on its ±1 tuple.  Lexicographic order on
points is a generic linear order, so a bounded face has one lex-min and
one lex-max vertex.  At each vertex and for each c of its zeros kept zero,
setting the others to their upward (downward) sides names the one face of
codimension c that can have that vertex as its minimum (maximum); the
faces named both ways are the bounded ones (`_face_walks`).  Walking a
face's steps visits its vertices and each hyperplane's mask of them.  A
cell has E = V·d/2, and skeletons are built only where read
(`cells.skeletons_for_cells`).  A census walks only the bounded cells,
c = 0, builds each record as its walk ends, and pairs the records across
each facet by flipping one bit.  This is reverse search (Avis-Fukuda 1996)
without linear programming, as the vertices are known; no floating point
anywhere.  ±1 tuples and +/- strings are built only to be written
(`signature_str`) or read back (`signature_from_str`).

The geometry itself runs in plain integers.  Each call scales every
hyperplane (a, b) by a positive factor to primitive integers, which keeps
its orientation; a vertex is integer numerators p over a positive common
denominator q in lowest terms, and the sign of a hyperplane at it is the
sign of a·p − b·q.  Fractions appear only in `Vertex.point`, built on each
read, which only reports make.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import attrgetter, mul
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NotSimpleError,
    UnsupportedDimensionError,
)
from .rational import (
    IntPoint,
    IntRow,
    Vec,
    back_substitute,
    dot,
    integer_row,
    reduce_row,
    vector,
)

if TYPE_CHECKING:
    from .cells import CellRecord

Sign = int  # -1, 0, +1
SignVector = tuple[Sign, ...]
Walk = tuple[list[int], list[int]]  # (order, masks), from `_walk`
_SIGN_CHARS = str.maketrans("01", "-+")
_MASK_BITS = str.maketrans("+-", "10")
_SIGN_VALUES = {"+": 1, "-": -1, "0": 0}


@dataclass(frozen=True)
class Hyperplane:
    """Affine functional a·x = b; the stored orientation defines its signs."""

    a: Vec
    b: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.a):
            raise ValueError("hyperplane normal must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.a)


def hyperplane(a, b) -> Hyperplane:
    return Hyperplane(vector(a), Fraction(b))


@dataclass(frozen=True)
class Arrangement:
    """An ordered list of hyperplanes in dimension dim; order is identity."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("arrangements require dimension >= 2")
        for h in self.hyperplanes:
            if h.dim != self.dim:
                raise DimensionMismatchError(
                    f"hyperplane of dimension {h.dim} in a {self.dim}-dimensional arrangement"
                )

    @property
    def n(self) -> int:
        return len(self.hyperplanes)


@dataclass(frozen=True, slots=True)
class Vertex:
    """A vertex as the vertex pass finds it: its point as integers
    numerators / denominator (positive, in lowest terms), the d hyperplanes
    through it, its plus mask, and its steps along each of its d lines.

    `steps[i]` is (w-, w+, up) for the line that drops k = `tight_set[i]`:
    the neighbours on the - and the + side of k, None where a ray leaves
    instead, and the side of k that lies lexicographically above.
    """

    numerators: tuple[int, ...]
    denominator: int
    tight_set: tuple[int, ...]   # exactly d hyperplane indices, sorted
    plus: int                    # bit n-1-k set where hyperplane k is positive
    steps: tuple[tuple[Optional[int], Optional[int], Sign], ...]

    @property
    def point(self) -> Vec:
        """The point as Fractions, built on each read (OFF export, reports)."""
        q = self.denominator
        return tuple(Fraction(p, q) for p in self.numerators)

    def ends(self, face: int, n: int) -> list[Optional[int]]:
        """The far ends of the edges of `face` at this vertex: the step
        toward the face's side of each tight hyperplane it is not on."""
        top, zero = n - 1, face >> n
        return [step[face >> top - k & 1]
                for k, step in zip(self.tight_set, self.steps) if not zero >> top - k & 1]


@dataclass(frozen=True)
class ArrangementEdge:
    """A 1-face: bounded segment (head set) or ray leaving tail (no head)."""

    line_set: tuple[int, ...]    # d-1 hyperplane indices, sorted
    sign_vector: SignVector      # zeros exactly on line_set
    tail: int                    # vertex id
    head: Optional[int] = None

    @property
    def is_segment(self) -> bool:
        return self.head is not None


@dataclass(frozen=True)
class BoundedCell:
    signature: int               # a face, as in the module docstring
    vertex_ids: tuple[int, ...]  # sorted


@dataclass(frozen=True)
class SimplicityReport:
    is_simple: bool
    witness: Optional[tuple[int, ...]] = None  # offending subset, 0-based
    reason: Optional[str] = None


@dataclass(frozen=True, slots=True)
class FacetRecord:
    """A bounded (d-1)-face of a d-dimensional arrangement."""

    hyperplane: int              # index of the carrying hyperplane
    cells: tuple[int, ...]       # positions of the 1 or 2 bounded cells it bounds


@dataclass(frozen=True)
class Restriction:
    """A (d-1)-dimensional arrangement induced on one hyperplane.

    Points of the chart map into the ambient space via
    base + sum(t[k] * directions[k]).
    """

    arrangement: Arrangement
    index: int                  # the hyperplane that was restricted to
    base: Vec
    directions: tuple[Vec, ...]
    kept: tuple[int, ...]       # original indices, in induced order
    excluded: tuple[int, ...]   # parallel hyperplanes (empty for simple input)


def signature_str(face: int, n: int) -> str:
    """A face's signs as text, hyperplane 0 first: + and - for its sides,
    0 for the hyperplanes it lies on."""
    text, zero = f"{face & ~(-1 << n):0{n}b}".translate(_SIGN_CHARS), face >> n
    return "".join("0" if z == "1" else c for c, z in zip(text, f"{zero:0{n}b}")) if zero else text


def signature_from_str(text: str) -> int:
    """A cell's +/- string as its plus mask, the first sign the highest
    bit; `signature_str` writes it back."""
    if not text or any(ch not in "+-" for ch in text):
        raise InputError(f"signature must be a nonempty +/- string, got {text!r}")
    return int(text.translate(_MASK_BITS), 2)


def sign_tuple(face: int, n: int) -> SignVector:
    """A face's signs as a tuple of +1, -1 and 0, for edges and oracles."""
    return tuple(_SIGN_VALUES[c] for c in signature_str(face, n))


def check_simple(arr: Arrangement) -> SimplicityReport:
    """Decide simplicity by the definition: n >= d+1, every d-subset of
    hyperplanes meets in a unique point, and all such points are distinct."""
    try:
        _solve_subsets(_integer_rows(arr), arr.dim, [])
    except NotSimpleError as exc:
        return exc.report
    return SimplicityReport(True)


def _not_simple(witness: Optional[tuple[int, ...]], reason: str) -> NotSimpleError:
    report = SimplicityReport(False, witness, reason)
    return NotSimpleError(f"arrangement is not simple: {reason}", report=report)


def _integer_rows(arr: Arrangement) -> list[IntRow]:
    """Every hyperplane as primitive integers (a, b), orientation kept."""
    return [integer_row((*h.a, h.b)) for h in arr.hyperplanes]


def _solve_subsets(
    rows: Sequence[IntRow], d: int, solved: list[tuple[tuple[int, ...], IntPoint]]
) -> None:
    """Append (subset, (p, q)) to `solved` for every d-subset of the integer
    rows (a, b) in lexicographic order, raising NotSimpleError at the first
    singular subset or repeated point.

    The subsets are walked depth-first, so each prefix is reduced once
    and its echelon rows serve every subset that extends it.  A prefix
    whose normals are dependent makes every subset below it singular, and
    the first of them in lexicographic order is reported.
    """
    n = len(rows)
    if n < d + 1:
        raise _not_simple(None, f"need at least {d + 1} hyperplanes, got {n}")
    _extend_prefix(rows, d, [], [], [], {}, solved)


def _extend_prefix(
    rows: Sequence[IntRow],
    d: int,
    prefix: list[int],
    echelon: list[Sequence[int]],
    pivots: list[int],
    seen: dict[IntPoint, tuple[int, ...]],
    solved: list[tuple[tuple[int, ...], IntPoint]],
) -> None:
    """Every subset that extends `prefix`, whose rows reduced to `echelon`
    with `pivots`, for `_solve_subsets`; `seen` maps each point solved so
    far to its subset."""
    level = len(prefix)
    start = prefix[-1] + 1 if prefix else 0
    for i in range(start, len(rows) - d + level + 1):
        row, col = reduce_row(rows[i], echelon, pivots)
        if col is None:
            raise _not_simple((*prefix, *range(i, i + d - level)),
                              "hyperplanes do not meet in a single point")
        echelon.append(row)
        pivots.append(col)
        if level == d - 1:
            subset = (*prefix, i)
            point = back_substitute(echelon, pivots)
            if point in seen:
                raise _not_simple(
                    subset, f"intersection point coincides with subset {seen[point]}"
                )
            seen[point] = subset
            solved.append((subset, point))
        else:
            prefix.append(i)
            _extend_prefix(rows, d, prefix, echelon, pivots, seen, solved)
            prefix.pop()
        echelon.pop()
        pivots.pop()


def _extra_plane_error(
    rows: list[IntRow], solved: list[tuple[tuple[int, ...], IntPoint]]
) -> Optional[NotSimpleError]:
    """The error for the first solved point, in lexicographic order of its
    subset, that lies on a hyperplane outside its subset; None if none
    does.  It names every hyperplane through the point."""
    planes = [(row[:-1], row[-1]) for row in rows]
    for subset, (p, q) in solved:
        zeros = tuple(i for i, (a, b) in enumerate(planes) if sum(map(mul, a, p)) == b * q)
        if zeros != subset:
            return _not_simple(
                zeros, f"point of subset {subset} lies on extra hyperplanes "
                f"{sorted(set(zeros) - set(subset))}"
            )
    return None


def enumerate_vertices(arr: Arrangement) -> list[Vertex]:
    """All C(n,d) vertices, sorted by tight set, each with its signs and
    its steps.  This is the simplicity check of every enumeration:
    it raises NotSimpleError, with the report attached, on a singular
    subset, a repeated point, or a point lying on more than d hyperplanes
    (the witness then names all of them), whichever subset comes first.

    The pass and its soundness are described in the module docstring.
    """
    d = arr.dim
    rows = _integer_rows(arr)
    solved: list[tuple[tuple[int, ...], IntPoint]] = []
    try:
        _solve_subsets(rows, d, solved)
    except NotSimpleError:
        extra = _extra_plane_error(rows, solved)
        if extra is None:
            raise
        raise extra from None

    lines: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for vid, (tight, _) in enumerate(solved):
        for k in range(d):
            lines.setdefault(tight[:k] + tight[k + 1:], []).append((vid, k))
    neighbours: list[list] = [[None] * d for _ in solved]
    while lines:  # each line's list is dropped as soon as it is read
        on_line = lines.popitem()[1]
        _sort_line(solved, on_line)
        ids = [None, *(vid for vid, _ in on_line), None]
        for t, (vid, k) in enumerate(on_line):
            neighbours[vid][k] = (ids[t], ids[t + 2])
    bits = [1 << len(rows) - 1 - k for k in range(len(rows))]
    masks = _carry_signs(rows, solved, neighbours, bits)
    # the upper neighbour lies on the up side; at a line's lex-max vertex,
    # up is the side away from the lower one
    for (tight, _), pairs in zip(solved, neighbours):
        for i, (k, (below, above)) in enumerate(zip(tight, pairs)):
            up = masks[above] & bits[k] if above is not None else not masks[below] & bits[k]
            pairs[i] = (below, above, 1) if up else (above, below, -1)
    return [
        Vertex(p, q, tight, masks[vid], tuple(neighbours[vid]))
        for vid, (tight, (p, q)) in enumerate(solved)
    ]


def _sort_line(
    solved: list[tuple[tuple[int, ...], IntPoint]], on_line: list[tuple[int, int]]
) -> None:
    """Sort one line's (vertex id, k) entries, k the position in the
    vertex's tight set of the one index off the line, into increasing
    lexicographic order of their points.

    The vertices of a line are collinear, so the first coordinate in which
    two of them differ orders them all strictly.  The sort key is that
    coordinate as an integer, its numerator scaled to the lcm of the
    denominators along the line.
    """
    points = [solved[vid][1] for vid, _ in on_line]
    (p, q), (r, s) = points[0], points[1]
    axis = 0
    while p[axis] * s == r[axis] * q:
        axis += 1
    scale = lcm(*[q for _, q in points])
    keys = [p[axis] * (scale // q) for p, q in points]
    on_line[:] = [on_line[t] for t in sorted(range(len(keys)), key=keys.__getitem__)]


def _carry_signs(
    rows: list[IntRow],
    solved: list[tuple[tuple[int, ...], IntPoint]],
    neighbours: list[list],
    bits: list[int],
) -> list[int]:
    """Every vertex's plus mask, `bits[k]` standing for hyperplane k,
    carried breadth-first along the lines from one full evaluation at
    vertex 0 (see the module docstring).  The vertex graph of a simple
    arrangement is connected, so every vertex is reached."""
    planes = [(row[:-1], row[-1]) for row in rows]
    p, q = solved[0][1]
    masks: list[Optional[int]] = [None] * len(solved)
    masks[0] = sum(bit for bit, (a, b) in zip(bits, planes) if sum(map(mul, a, p)) > b * q)
    # w's index off the line it shares with u: the line is u's tight set
    # without j, so w's index is the sum of w's tight set minus the line's
    totals = [sum(tight) for tight, _ in solved]
    todo = [0]
    for u in todo:
        mu, base = masks[u], totals[u]
        for j, pair in zip(solved[u][0], neighbours[u]):
            for w in pair:
                if w is None or masks[w] is not None:
                    continue
                a, b = planes[j]
                p, q = solved[w][1]
                mw = mu | bits[j] if sum(map(mul, a, p)) > b * q else mu
                masks[w] = mw & ~bits[totals[w] - base + j]
                todo.append(w)
    if len(todo) != len(solved):
        raise InternalConsistencyError(
            f"signs reached {len(todo)} of {len(solved)} vertices along the lines"
        )
    return masks


def enumerate_edges(arr: Arrangement, vertices: list[Vertex]) -> list[ArrangementEdge]:
    """Decompose every line (each (d-1)-subset of hyperplanes) into its
    bounded segments between consecutive vertices plus the two extreme rays.

    Everything follows from the vertex plus masks and steps.  The segment
    from u to its neighbour w has u's signs with u's index j set to w's sign
    at j (u's plus mask OR w's); the ray leaving an extreme vertex v away
    from its neighbour w has v's signs with v's index j set to minus w's
    sign at j.  Lines come in sorted order, each as a ray, its segments,
    then a ray.

    Order contract, shared with `Vertex.steps`: along each line the vertices
    come in increasing lexicographic order of their points, so every
    segment runs from tail to head with vertices[tail].point <
    vertices[head].point, the line's first ray leaves its lex-min vertex
    and its last ray leaves its lex-max vertex.
    """
    n = arr.n
    bits = [1 << n - 1 - k for k in range(n)]
    starts = []
    for vid, v in enumerate(vertices):
        tight = v.tight_set
        for k, step in enumerate(v.steps):
            if step[step[2] < 0] is None:  # no lower neighbour
                starts.append((tight[:k] + tight[k + 1:], vid))
    edges: list[ArrangementEdge] = []
    for line_set, first in sorted(starts):
        on_line = []  # (vertex id, its index off the line), going up
        vid = first
        while vid is not None:
            tight = vertices[vid].tight_set
            k = next(k for k, j in enumerate(tight) if j not in line_set)
            on_line.append((vid, tight[k]))
            step = vertices[vid].steps[k]
            vid = step[step[2] > 0]
        masks = [vertices[vid].plus for vid, _ in on_line]
        zero = sum(bits[k] for k in line_set) << n

        def ray(end: int, inner: int) -> ArrangementEdge:
            vid, j = on_line[end]
            face = masks[end] | bits[j] & ~masks[inner] | zero
            return ArrangementEdge(line_set, sign_tuple(face, n), vid)

        edges.append(ray(0, 1))
        for k in range(len(on_line) - 1):
            (u, _), (w, _) = on_line[k], on_line[k + 1]
            face = masks[k] | masks[k + 1] | zero
            edges.append(ArrangementEdge(line_set, sign_tuple(face, n), u, head=w))
        edges.append(ray(-1, -2))
    return edges


def _walk(vertices: list[Vertex], start: int, n: int, face: int) -> Optional[Walk]:
    """Walk `face` from `start`, in its closure, by the steps toward the
    face's side of every hyperplane it is not on, which are its edges: the
    vertices in the order reached and each hyperplane's bitmask of those on
    it (bit i for the i-th).  None as soon as a step is a ray, i.e. when the
    face is unbounded."""
    top, zero = n - 1, face >> n
    order, on = [start], [0] * n
    seen = {start}
    bit = 1
    for v in order:
        vertex = vertices[v]
        for k, step in zip(vertex.tight_set, vertex.steps):
            on[k] |= bit
            if zero and zero >> top - k & 1:
                continue
            w = step[face >> top - k & 1]
            if w is None:
                return None
            if w not in seen:
                seen.add(w)
                order.append(w)
        bit <<= 1
    return order, on


def _bounded_face_count(n: int, d: int, codim: int) -> int:
    """Zaslavsky's count of the bounded faces of codimension `codim` of a
    simple arrangement of n hyperplanes in dimension d: C(n, c)·C(n-c-1,
    d-c), which is n·C(n-2, d-1) for the facets."""
    return comb(n, codim) * comb(n - codim - 1, d - codim)


def _face_walks(vertices: list[Vertex], n: int, codim: int) -> Iterator[tuple[int, Walk]]:
    """Bounded faces of codimension `codim`, one (face, walk) at a time.

    For each vertex v and each `codim`-subset K of its tight set, v's up
    candidate sets every other tight bit to its up side, and its down
    candidate to the other side.  The up candidate is the one face zero on K
    whose edges at v all go up; they span its cone at v, as v is simple, so
    v is its lex-min vertex.  Likewise v is its down candidate's lex-max
    vertex.  A face is bounded exactly when it is both: a polytope has a
    lex-min and a lex-max vertex; and if a face has lex-min vertex v and
    lex-max vertex w, the direction r of any ray in it is lexicographically
    >= 0, as v + r lies in it, and <= 0, as w + r does, so there is none.
    So the bounded faces are the up candidates that are also down
    candidates.  Their number is checked against Zaslavsky's count
    (`_bounded_face_count`) before any walk, and each is walked once, from
    its minimum.
    """
    d, top = len(vertices[0].tight_set), n - 1
    ups, downs = [], set()
    for vid, v in enumerate(vertices):
        bits = [1 << top - k for k in v.tight_set]
        tight = sum(bits)
        rise = sum([bit for bit, step in zip(bits, v.steps) if step[2] > 0])
        for kept in itertools.combinations(bits, codim):
            zero = sum(kept)
            face, free = v.plus | zero << n, tight ^ zero
            ups.append((vid, face | rise & free))
            downs.add(face | free & ~rise)
    bounded = [(vid, face) for vid, face in ups if face in downs]
    del ups, downs
    expected = _bounded_face_count(n, d, codim)
    if len(bounded) != expected:
        raise InternalConsistencyError(
            f"found {len(bounded)} bounded faces of codimension {codim}, expected "
            f"C({n},{codim})*C({n - codim - 1},{d - codim}) = {expected}"
        )
    for vid, face in bounded:
        walk = _walk(vertices, vid, n, face)
        if walk is None:
            raise InternalConsistencyError(f"bounded face {signature_str(face, n)} has a ray")
        yield face, walk


def _bounded_faces(vertices: list[Vertex], n: int, codim: int) -> dict[int, list[int]]:
    """Bounded faces of codimension `codim`, as {face: increasing vertex ids}."""
    return {face: sorted(walk[0]) for face, walk in _face_walks(vertices, n, codim)}


def enumerate_bounded_cells(arr: Arrangement, vertices: list[Vertex]) -> list[CellRecord]:
    """Bounded cells, the zero-free bounded faces, sorted by signature, each
    a `cells.CellRecord` built as soon as its walk ends; `_face_walks`
    checks their count, C(n-1, d), before the first walk."""
    from .cells import cell_record  # cells imports this module

    return sorted((cell_record(arr.dim, face, walk, vertices)
                   for face, walk in _face_walks(vertices, arr.n, 0)), key=attrgetter("signature"))


def restrict_to_hyperplane(arr: Arrangement, index: int) -> Restriction:
    """The arrangement induced on hyperplane `index` by all others, expressed
    in an explicit affine chart (base point plus d-1 direction vectors)."""
    d = arr.dim
    if d < 3:
        raise UnsupportedDimensionError("restriction requires dimension >= 3")
    if not 0 <= index < arr.n:
        raise ValueError(f"hyperplane index {index} out of range")
    carrier = arr.hyperplanes[index]
    pivot = next(i for i, c in enumerate(carrier.a) if c != 0)
    base = tuple(
        carrier.b / carrier.a[pivot] if i == pivot else Fraction(0) for i in range(d)
    )
    directions = []
    for c in range(d):
        if c == pivot:
            continue
        u = [Fraction(0)] * d
        u[c] = Fraction(1)
        u[pivot] = -carrier.a[c] / carrier.a[pivot]
        directions.append(tuple(u))

    induced: list[Hyperplane] = []
    kept: list[int] = []
    excluded: list[int] = []
    for j, h in enumerate(arr.hyperplanes):
        if j == index:
            continue
        a_induced = tuple(dot(h.a, u) for u in directions)
        if all(c == 0 for c in a_induced):
            excluded.append(j)  # parallel within the carrier; impossible when simple
            continue
        induced.append(Hyperplane(a_induced, h.b - dot(h.a, base)))
        kept.append(j)
    return Restriction(
        Arrangement(d - 1, tuple(induced)),
        index,
        base,
        tuple(directions),
        tuple(kept),
        tuple(excluded),
    )


def enumerate_bounded_facets(arr: Arrangement, records: list[CellRecord]) -> list[FacetRecord]:
    """All bounded (d-1)-faces, sorted by carrier and then first cell: a
    cell has a facet on each k of `CellRecord.facets`, shared with the cell
    whose mask differs in k's bit alone, if bounded.  The bounded complex of a simple
    arrangement is pure (Dong, JCTA 2008); the count n*C(n-2,d-1) checks
    that none is missed."""
    d, n = arr.dim, arr.n
    position = {record.signature: i for i, record in enumerate(records)}
    facets = []
    for i, record in enumerate(records):
        sig = record.signature
        for k in record.facets:
            j = position.get(sig ^ 1 << n - 1 - k)
            if j is None:
                facets.append(FacetRecord(k, (i,)))
            elif j > i:
                facets.append(FacetRecord(k, (i, j)))
    expected = _bounded_face_count(n, d, 1)
    if len(facets) != expected:
        raise InternalConsistencyError(
            f"found {len(facets)} bounded facets, expected n*C(n-2,{d - 1}) = {expected}"
        )
    facets.sort(key=lambda rec: (rec.hyperplane, rec.cells[0]))
    return facets
