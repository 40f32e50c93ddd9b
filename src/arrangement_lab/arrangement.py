"""Simple hyperplane arrangements and exact sign-vector enumeration.

The combinatorics is driven entirely by sign vectors: a vertex is the unique
solution of d tight hyperplanes, an edge lives on the line cut out by d-1
hyperplanes, and a face of codimension c is a sign vector with c zeros.  A
face belongs to the closure of another exactly when its sign vector agrees
with the other's on every coordinate where the smaller face is not tight.

One walk finds the bounded faces of every dimension.  Dropping one of a
vertex's d tight hyperplanes leaves a line through it, and the segment or
ray on that line to either side of the dropped hyperplane is a step.
`line_steps(arr, vertices)` builds the step table once per census straight
from each line's vertices in lexicographic order, sorted by an integer key
(`_line_orders`, which `enumerate_edges` shares, so both keep one order
contract).  Lexicographic order on points is a generic linear order, so a
bounded face has exactly one lex-min vertex, and every edge of the face
leaves it upward.  At each vertex and for each c of its zeros kept zero,
setting the other zeros to their upward sides names the one face of
codimension c that can have that vertex as its minimum; walking its steps
visits its vertices and records its skeleton, or reaches a ray and shows it
unbounded.  Bounded cells are c = 0, and each carries the skeleton of its
walk; bounded facets are c = 1.  This is reverse search (Avis-Fukuda 1996)
without linear programming, because the vertices are already known; no
floating point anywhere.

The geometry itself runs in plain integers.  Each call scales every
hyperplane (a, b) by a positive factor to primitive integers, which keeps
its orientation; a vertex is integer numerators p over a positive common
denominator q in lowest terms, and the sign of a hyperplane at it is the
sign of a·p − b·q.  Fractions appear only in `Vertex.point`, the boundary
value that reports and exports read; line orders read its numerators and
denominators as integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Iterator, Optional

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    NotSimpleError,
    UnsupportedDimensionError,
)
from .rational import (
    IntPoint,
    IntRow,
    Vec,
    dot,
    integer_row,
    solve_integer_system,
    vector,
)

Sign = int  # -1, 0, +1
SignVector = tuple[Sign, ...]
Steps = list[dict[int, list]]  # steps[v][k] = [w-, w+, up], from `line_steps`
Skeleton = dict[int, tuple[int, ...]]  # vertex -> sorted neighbours, from `_walk`


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


@dataclass(frozen=True)
class Vertex:
    point: Vec
    tight_set: tuple[int, ...]   # exactly d hyperplane indices, sorted
    sign_vector: SignVector      # zeros exactly on tight_set


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
    signature: SignVector        # zero-free, length n
    vertex_ids: tuple[int, ...]  # sorted
    # (vertex, sorted neighbours) for each vertex id in order, as the walk
    # that found the cell stepped; empty on a cell built by hand
    skeleton: tuple[tuple[int, tuple[int, ...]], ...] = ()


@dataclass(frozen=True)
class SimplicityReport:
    is_simple: bool
    witness: Optional[tuple[int, ...]] = None  # offending subset, 0-based
    reason: Optional[str] = None


@dataclass(frozen=True)
class FacetRecord:
    """A bounded (d-1)-face of a d-dimensional arrangement."""

    hyperplane: int                       # index of the carrying hyperplane
    signature: SignVector                 # full length n, zero at `hyperplane`
    incident: tuple[SignVector, SignVector]   # carrier set to -, then +


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


def check_simple(arr: Arrangement) -> SimplicityReport:
    """Decide simplicity by the definition: n >= d+1, every d-subset of
    hyperplanes meets in a unique point, and all such points are distinct."""
    try:
        for _ in _subset_points(arr, _integer_rows(arr)):
            pass
    except NotSimpleError as exc:
        return exc.report
    return SimplicityReport(True)


def _not_simple(witness: Optional[tuple[int, ...]], reason: str) -> NotSimpleError:
    report = SimplicityReport(False, witness, reason)
    return NotSimpleError(f"arrangement is not simple: {reason}", report=report)


def _integer_rows(arr: Arrangement) -> list[IntRow]:
    """Every hyperplane as primitive integers (a, b), orientation kept."""
    return [integer_row((*h.a, h.b)) for h in arr.hyperplanes]


def _subset_points(
    arr: Arrangement, rows: list[IntRow]
) -> Iterator[tuple[tuple[int, ...], IntPoint]]:
    """Yield (subset, (p, q)) for every d-subset in lexicographic order,
    raising NotSimpleError at the first singular subset or repeated point.
    `rows` are the hyperplanes as integers, from `_integer_rows`."""
    d, n = arr.dim, arr.n
    if n < d + 1:
        raise _not_simple(None, f"need at least {d + 1} hyperplanes, got {n}")
    seen: dict[IntPoint, tuple[int, ...]] = {}
    for subset in itertools.combinations(range(n), d):
        point = solve_integer_system([rows[i] for i in subset])
        if point is None:
            raise _not_simple(subset, "hyperplanes do not meet in a single point")
        if point in seen:
            raise _not_simple(
                subset, f"intersection point coincides with subset {seen[point]}"
            )
        seen[point] = subset
        yield subset, point


def enumerate_vertices(arr: Arrangement) -> list[Vertex]:
    """All C(n,d) vertices, sorted by tight set.  This is the simplicity
    check of every enumeration: it raises NotSimpleError, with the report
    attached, on a singular subset, a repeated point, or a point lying on
    more than d hyperplanes (the witness then names all of them).

    Every sign is sign(a·p − b·q) in integers; the Fraction point is built
    once per vertex, after its signs.
    """
    rows = _integer_rows(arr)
    planes = [(row[:-1], row[-1]) for row in rows]
    vertices: list[Vertex] = []
    for subset, (p, q) in _subset_points(arr, rows):
        values = [sum(map(mul, a, p)) - b * q for a, b in planes]
        signs = tuple((v > 0) - (v < 0) for v in values)
        zeros = tuple(i for i, s in enumerate(signs) if s == 0)
        if zeros != subset:
            raise _not_simple(
                zeros, f"point of subset {subset} lies on extra hyperplanes "
                f"{sorted(set(zeros) - set(subset))}"
            )
        vertices.append(Vertex(tuple(Fraction(c, q) for c in p), subset, signs))
    return vertices


def _with_sign(signs: SignVector, index: int, sign: Sign) -> SignVector:
    return signs[:index] + (sign,) + signs[index + 1:]


def _line_orders(
    arr: Arrangement, vertices: list[Vertex]
) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Every line (each (d-1)-subset of hyperplanes) with its vertices as
    (vertex id, j), j the one index tight there off the line, in increasing
    lexicographic order of their points.

    A vertex on a line is tight on exactly one hyperplane j off the line,
    which crosses the line there and nowhere else.  The vertices of a line
    are collinear, so the first coordinate in which two of them differ
    orders them all strictly.  The sort key is that coordinate as an
    integer, its numerator scaled to the lcm of its denominators along the
    line, so no Fraction is compared.
    """
    lines: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for vid, v in enumerate(vertices):
        tight = v.tight_set
        for k, j in enumerate(tight):
            lines.setdefault(tight[:k] + tight[k + 1:], []).append((vid, j))
    for on_line in lines.values():
        p, q = vertices[on_line[0][0]].point, vertices[on_line[1][0]].point
        axis = next(c for c in range(arr.dim) if p[c] != q[c])
        coords = [vertices[vid].point[axis] for vid, _ in on_line]
        scale = lcm(*(c.denominator for c in coords))
        keys = [c.numerator * (scale // c.denominator) for c in coords]
        on_line[:] = [item for _, item in sorted(zip(keys, on_line))]
    return lines


def enumerate_edges(arr: Arrangement, vertices: list[Vertex]) -> list[ArrangementEdge]:
    """Decompose every line (each (d-1)-subset of hyperplanes) into its
    bounded segments between consecutive vertices plus the two extreme rays.

    Everything follows from the vertex sign vectors and `_line_orders`.
    The segment from u to its neighbour w has u's signs with u's index j set
    to w's sign at j; the ray leaving an extreme vertex v away from its
    neighbour w has v's signs with v's index j set to minus w's sign at j.
    Lines come in sorted order, each as a ray, its segments, then a ray.

    Order contract, shared with `line_steps`: along each line the vertices
    come in increasing lexicographic order of their points, so every
    segment runs from tail to head with vertices[tail].point <
    vertices[head].point, the line's first ray leaves its lex-min vertex
    and its last ray leaves its lex-max vertex.
    """
    lines = _line_orders(arr, vertices)
    edges: list[ArrangementEdge] = []
    for line_set in sorted(lines):
        on_line = lines[line_set]
        signs = [vertices[vid].sign_vector for vid, _ in on_line]

        first, j = on_line[0]
        edges.append(ArrangementEdge(line_set, _with_sign(signs[0], j, -signs[1][j]), first))
        for k in range(len(on_line) - 1):
            (u, j), (w, _) = on_line[k], on_line[k + 1]
            sign_vector = _with_sign(signs[k], j, signs[k + 1][j])
            edges.append(ArrangementEdge(line_set, sign_vector, u, head=w))
        last, j = on_line[-1]
        edges.append(ArrangementEdge(line_set, _with_sign(signs[-1], j, -signs[-2][j]), last))
    return edges


def line_steps(arr: Arrangement, vertices: list[Vertex]) -> Steps:
    """Every vertex's line steps: the table that the face walk reads, built
    once per census straight from the line orders of `_line_orders`.

    `steps[v][k]` is [w-, w+, up] for each k tight at v: the neighbours of v
    on the line that drops k, on the - and the + side of k (None where a ray
    leaves v), and the side of k that lies lexicographically above v.  For
    consecutive vertices u < w on a line, w lies on its own side of u's
    index j off the line, which is up from u; u lies on its own side of w's
    index, which is down from w, so w's up side is the opposite one.  Every
    line carries at least two vertices, so up is always set.
    """
    steps = [{k: [None, None, 0] for k in v.tight_set} for v in vertices]
    for on_line in _line_orders(arr, vertices).values():
        for (u, ju), (w, jw) in zip(on_line, on_line[1:]):
            side = vertices[w].sign_vector[ju]
            step = steps[u][ju]
            step[side > 0], step[2] = w, side
            side = vertices[u].sign_vector[jw]
            step = steps[w][jw]
            step[side > 0], step[2] = u, -side
    return steps


def _walk(steps: Steps, start: int, face: SignVector) -> Optional[Skeleton]:
    """The skeleton of `face`, reached from `start`, which must lie in its
    closure, by the steps toward the face's side of every hyperplane it is
    not on: {vertex: sorted neighbours}, in increasing vertex order.  Those
    steps at a vertex are exactly the face's edges there.  None as soon as
    a step is a ray, i.e. when the face is unbounded."""
    adjacent: Skeleton = {}
    seen, todo = {start}, [start]
    for v in todo:
        nbrs = []
        for k, step in steps[v].items():
            side = face[k]
            if side:
                w = step[side > 0]
                if w is None:
                    return None
                nbrs.append(w)
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        nbrs.sort()
        adjacent[v] = tuple(nbrs)
    return {v: adjacent[v] for v in sorted(adjacent)}


def _bounded_face_skeletons(
    vertices: list[Vertex], steps: Steps, codim: int
) -> dict[SignVector, Skeleton]:
    """Bounded faces of codimension `codim`, as {signature: skeleton}.

    For each vertex v and each `codim`-subset K of its tight set, the
    candidate is v's signs with every other tight index set to its up side:
    the one face zero on K whose edges at v all go up, so the one that can
    have v as its lex-min vertex.  Each bounded face is found exactly once,
    from its own minimum; a candidate whose walk reaches a ray is unbounded
    and dropped.  Each skeleton is keyed by vertex id in increasing order.
    """
    faces: dict[SignVector, Skeleton] = {}
    for vid, v in enumerate(vertices):
        for kept in itertools.combinations(v.tight_set, codim):
            face = list(v.sign_vector)
            for k, step in steps[vid].items():
                if k not in kept:
                    face[k] = step[2]
            skeleton = _walk(steps, vid, face)
            if skeleton is not None:
                faces[tuple(face)] = skeleton
    return faces


def _bounded_faces(
    vertices: list[Vertex], steps: Steps, codim: int
) -> dict[SignVector, list[int]]:
    """Bounded faces of codimension `codim`, as {signature: increasing
    vertex ids}; the skeletons of `_bounded_face_skeletons` without edges."""
    return {sig: list(skeleton) for sig, skeleton in
            _bounded_face_skeletons(vertices, steps, codim).items()}


def enumerate_bounded_cells(
    arr: Arrangement, vertices: list[Vertex], steps: Steps
) -> list[BoundedCell]:
    """Bounded cells, the zero-free bounded faces, sorted by signature, each
    with the skeleton its walk stepped along.  The count must equal
    C(n-1, d)."""
    d, n = arr.dim, arr.n
    skeletons = _bounded_face_skeletons(vertices, steps, 0)
    expected = comb(n - 1, d)
    if len(skeletons) != expected:
        raise InternalConsistencyError(
            f"found {len(skeletons)} bounded cells, expected C({n - 1},{d}) = {expected}"
        )
    return [
        BoundedCell(sig, tuple(skeletons[sig]), tuple(skeletons[sig].items()))
        for sig in sorted(skeletons)
    ]


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


def enumerate_bounded_facets(
    arr: Arrangement, vertices: list[Vertex], steps: Steps
) -> list[FacetRecord]:
    """All bounded (d-1)-faces, sorted by carrier and then signature.

    A facet has one zero, at its carrier; its two incident full-dimensional
    cells set the carrier to - and +.  The count must be n*C(n-2,d-1).
    """
    d, n = arr.dim, arr.n
    records: list[FacetRecord] = []
    for sig in _bounded_faces(vertices, steps, 1):
        carrier = sig.index(0)
        records.append(FacetRecord(
            carrier, sig, (_with_sign(sig, carrier, -1), _with_sign(sig, carrier, 1))
        ))
    expected = n * comb(n - 2, d - 1)
    if len(records) != expected:
        raise InternalConsistencyError(
            f"found {len(records)} bounded facets, expected n*C(n-2,{d - 1}) = {expected}"
        )
    records.sort(key=lambda rec: (rec.hyperplane, rec.signature))
    return records
