"""Simple hyperplane arrangements and exact sign-vector enumeration.

The combinatorics is driven entirely by sign vectors: a vertex is the unique
solution of d tight hyperplanes, an edge lives on the line cut out by d-1
hyperplanes, and a face of codimension c is a sign vector with c zeros.  A
face belongs to the closure of another exactly when its sign vector agrees
with the other's on every coordinate where the smaller face is not tight.

`enumerate_vertices` finds every vertex in one pass:

* Solve.  The d-subsets are walked depth-first in lexicographic order,
  carrying the flat that each prefix cuts out of R^d (`rational.meet`):
  each level cuts its parent's flat once by its new row, so a subset
  costs one crossing of its prefix's line (`rational.crossing`).  The
  walk raises at the first singular subset or repeated point, here and
  on the subsets that contain a new random row (`extends_simply`).
* Sweep.  Dropping one of a vertex's d tight hyperplanes leaves a line
  through it, named by the vertex's tight mask (bit n-1-k set for each
  tight k, as in the plus masks) less that bit.  The lines are swept
  breadth-first from those of the first vertex, the only one whose n
  signs are all evaluated.  A line's n-d+1 vertices are sorted once, in
  lexicographic order of their points, by an integer key.  Consecutive
  vertices u < w differ in sign only at their own indices off the line,
  as no other hyperplane crosses the segment between them; so w's plus
  mask is u's with u's index set to w's side (one dot product) and w's
  index cleared, carried both ways from a vertex already reached, and
  each vertex newly reached queues its other lines.  A vertex's upper
  neighbour lies on the up side of its index off the line, which sets
  that bit of its rise mask (`Vertex.rise`); at the line's lex-max
  vertex the up side is the one away from the lower neighbour.  The
  vertex graph of a simple arrangement is connected, and every queued
  line holds the vertex that queued it, so every vertex is reached.

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
give, and the report that `check_simple` returns.

Everything after this pass reads only the vertices: their tight sets,
plus masks and rise masks.  A face is one int too, its plus mask with bit
2n-1-k set where it is zero on k; a cell's is its plus mask, whose integer
order is lexicographic order on its ±1 tuple.  Lexicographic order on
points is a generic linear order, so a bounded cell has one lex-min and
one lex-max vertex.  At each vertex, setting its tight signs to their
upward (downward) sides names the one cell that can have that vertex as
its minimum (maximum); the cells named both ways are the bounded ones.  A
vertex lies in the 2^d cells that set its d tight signs either way, so one
more pass over the vertices hands each bounded cell its vertices, with no
walk: `enumerate_bounded_cells`, the cell pass, lists each as a (plus mask,
vertex ids) pair.  A census builds each cell's record from its pair
(`cells.build_cell_records`, which owns the face adjacency) and pairs the
records across each facet by flipping one bit.  No linear programming is
needed, as the vertices are known; no floating point anywhere.  ±1 tuples and +/- strings are built
only to be written (`signature_str`) or read back (`signature_from_str`).

The geometry itself runs in plain integers.  Each call scales every
hyperplane (a, b) by a positive factor to primitive integers, which keeps
its orientation; a vertex is integer numerators p over a positive common
denominator q in lowest terms, and the sign of a hyperplane at it is the
sign of a·p − b·q.  Fractions appear only in `Vertex.point`, built on each
read, which only reports make.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import comb, lcm
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    NotSimpleError,
    UnsupportedDimensionError,
)
from .rational import (
    Flat,
    IntPoint,
    IntRow,
    Vec,
    crossing,
    dot,
    integer_row,
    meet,
    space,
    vector,
)

if TYPE_CHECKING:
    from .cells import CellRecord

Sign = int  # -1, 0, +1
SignVector = tuple[Sign, ...]
Solved = list[tuple[tuple[int, ...], IntPoint]]  # (d-subset, its point) per vertex
Cells = list[tuple[int, tuple[int, ...]]]  # (plus mask, increasing vertex ids) per bounded cell
_SIGN_CHARS = str.maketrans("01", "-+")
_MASK_BITS = str.maketrans("+-", "10")
_SIGN_VALUES = {"+": 1, "-": -1, "0": 0}


class Hyperplane(NamedTuple("Hyperplane", [("a", Vec), ("b", Fraction)])):
    """Affine functional a·x = b; the stored orientation defines its signs."""

    __slots__ = ()

    def __new__(cls, a: Vec, b: Fraction):
        if all(c == 0 for c in a):
            raise ValueError("hyperplane normal must be nonzero")
        return tuple.__new__(cls, (a, b))

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    @property
    def dim(self) -> int:
        return len(self.a)


def hyperplane(a, b) -> Hyperplane:
    return Hyperplane(vector(a), Fraction(b))


class Arrangement(NamedTuple("Arrangement", [("dim", int), ("hyperplanes", tuple)])):
    """An ordered list of hyperplanes in dimension dim; order is identity."""

    __slots__ = ()

    def __new__(cls, dim: int, hyperplanes: tuple[Hyperplane, ...]):
        if dim < 2:
            raise ValueError("arrangements require dimension >= 2")
        for h in hyperplanes:
            if h.dim != dim:
                raise DimensionMismatchError(
                    f"hyperplane of dimension {h.dim} in a {dim}-dimensional arrangement"
                )
        return tuple.__new__(cls, (dim, hyperplanes))

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    @property
    def n(self) -> int:
        return len(self.hyperplanes)


class Vertex(NamedTuple):
    """A vertex as the vertex pass finds it: its point as integers
    numerators / denominator (positive, in lowest terms), the d hyperplanes
    through it, its plus mask, and its rise mask.

    Bit n-1-k of `rise` is set where k is tight and k's + side lies
    lexicographically above the vertex, along the line that drops k.
    """

    numerators: tuple[int, ...]
    denominator: int
    tight_set: tuple[int, ...]   # exactly d hyperplane indices, sorted
    plus: int                    # bit n-1-k set where hyperplane k is positive
    rise: int                    # bit n-1-k set where k is tight and + is up

    @property
    def point(self) -> Vec:
        """The point as Fractions, built on each read (OFF export, reports)."""
        q = self.denominator
        return tuple(Fraction(p, q) for p in self.numerators)


class ArrangementEdge(NamedTuple):
    """A 1-face: bounded segment (head set) or ray leaving tail (no head)."""

    line_set: tuple[int, ...]    # d-1 hyperplane indices, sorted
    sign_vector: SignVector      # zeros exactly on line_set
    tail: int                    # vertex id
    head: Optional[int] = None


class SimplicityReport(NamedTuple):
    is_simple: bool
    witness: Optional[tuple[int, ...]] = None  # offending subset, 0-based
    reason: Optional[str] = None


class FacetRecord(NamedTuple):
    """A bounded (d-1)-face of a d-dimensional arrangement."""

    hyperplane: int              # index of the carrying hyperplane
    cells: tuple[int, ...]       # positions of the 1 or 2 bounded cells it bounds


class Restriction(NamedTuple):
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
    """The report that `enumerate_vertices` raises on `arr`, the census's
    own simplicity check, or SimplicityReport(True) when it raises none.
    Only the solve walk runs."""
    try:
        _solve_simple(_integer_rows(arr), arr.dim)
    except NotSimpleError as exc:
        return exc.report
    return SimplicityReport(True)


def _not_simple(witness: Optional[tuple[int, ...]], reason: str) -> NotSimpleError:
    report = SimplicityReport(False, witness, reason)
    return NotSimpleError(f"arrangement is not simple: {reason}", report=report)


def _integer_rows(arr: Arrangement) -> list[IntRow]:
    """Every hyperplane as primitive integers (a, b), orientation kept."""
    return [integer_row((*h.a, h.b)) for h in arr.hyperplanes]


def _solve_subsets(rows: Sequence[IntRow], d: int, solved: Solved) -> None:
    """Append (subset, (p, q)) to `solved` for every d-subset of the integer
    rows (a, b) in lexicographic order, raising NotSimpleError at the first
    singular subset or repeated point.

    The subsets are walked depth-first, so each prefix cuts its flat once
    and every subset that extends it starts from that flat; a leaf is one
    crossing of its prefix's line.  A prefix whose normals are dependent
    makes every subset below it singular, and the first of them in
    lexicographic order is reported.
    """
    n = len(rows)
    if n < d + 1:
        raise _not_simple(None, f"need at least {d + 1} hyperplanes, got {n}")
    _extend_prefix(rows, d, (), space(d), set(), solved)


def _extend_prefix(
    rows: Sequence[IntRow],
    d: int,
    prefix: tuple[int, ...],
    flat: Flat,
    seen: set[IntPoint],
    solved: Solved,
) -> None:
    """Every subset that extends `prefix`, whose rows cut out `flat`, for
    `_solve_subsets` and `extends_simply`; `seen` is the set of points
    solved so far.  A repeat names no earlier subset: that subset's point
    lies on an extra hyperplane, so `enumerate_vertices` reports it instead."""
    level = len(prefix)
    last = level == d - 1  # the next row completes a subset
    cut = crossing if last else meet
    for i in range(prefix[-1] + 1 if prefix else 0, len(rows) - d + level + 1):
        found = cut(flat, rows[i])
        if found is None:
            raise _not_simple((*prefix, *range(i, i + d - level)),
                              "hyperplanes do not meet in a single point")
        subset = (*prefix, i)
        if not last:
            _extend_prefix(rows, d, subset, found, seen, solved)
        elif found in seen:
            raise _not_simple(subset, "intersection point coincides with an earlier subset's")
        else:
            seen.add(found)
            solved.append((subset, found))


def extends_simply(
    existing: list[IntRow], candidate: IntRow, d: int, points: set[IntPoint]
) -> bool:
    """True if adding the integer row `candidate` (a, b) to `existing` keeps
    every d-subset nonsingular and all intersection points distinct; a zero
    normal is refused.  `points`, the distinct points of `existing`, gains
    an accepted candidate's points and is left as it was otherwise.

    Only the subsets containing the candidate are solved, by the solve walk
    on the rows [candidate, *existing] below the prefix (0,), whose flat is
    the candidate's hyperplane.  The walk adds each point to the set unless
    it is there, and cuts a prefix only when some subset completes it, so it
    raises exactly when a subset is singular or a point repeats, as solving
    each subset on its own would; its points are then removed again, and
    its reason is not read."""
    flat = meet(space(d), candidate)
    if flat is None:
        return False
    solved: Solved = []
    try:
        _extend_prefix([candidate, *existing], d, (0,), flat, points, solved)
    except NotSimpleError:
        points.difference_update([point for _, point in solved])
        return False
    return True


def _extra_plane_error(rows: list[IntRow], solved: Solved) -> Optional[NotSimpleError]:
    """The error for the first solved point, in lexicographic order of its
    subset, that lies on a hyperplane outside its subset; None if none
    does.  It names every hyperplane through the point."""
    for subset, (p, q) in solved:
        zeros = tuple(i for i, row in enumerate(rows) if sum(map(mul, row, p)) == row[-1] * q)
        if zeros != subset:
            return _not_simple(
                zeros, f"point of subset {subset} lies on extra hyperplanes "
                f"{sorted(set(zeros) - set(subset))}"
            )
    return None


def _solve_simple(rows: list[IntRow], d: int) -> Solved:
    """Every d-subset's (subset, (p, q)) in lexicographic order, from the
    solve walk, which is the simplicity check: on a defect it raises the
    error of the first solved point on an extra hyperplane, if any, and
    otherwise the walk's own (module docstring)."""
    solved: Solved = []
    try:
        _solve_subsets(rows, d, solved)
    except NotSimpleError:
        extra = _extra_plane_error(rows, solved)
        if extra is None:
            raise
        raise extra from None
    return solved


def enumerate_vertices(arr: Arrangement) -> list[Vertex]:
    """All C(n,d) vertices, sorted by tight set, each with its signs and
    its rise mask.  This is the simplicity check of every enumeration:
    it raises NotSimpleError, with the report attached, on a singular
    subset, a repeated point, or a point lying on more than d hyperplanes
    (the witness then names all of them), whichever subset comes first.

    The pass and its soundness are described in the module docstring.
    """
    rows = _integer_rows(arr)
    solved = _solve_simple(rows, arr.dim)
    masks, rise = _sweep_lines(rows, solved)
    return [Vertex(p, q, tight, plus, up)
            for (tight, (p, q)), plus, up in zip(solved, masks, rise)]


def _sweep_lines(rows: list[IntRow], solved: Solved) -> tuple[list[int], list[int]]:
    """Every vertex's plus mask and rise mask, from one breadth-first sweep
    over the lines (module docstring); its tables are freed on return,
    before the vertices are built."""
    bits = [1 << len(rows) - 1 - k for k in range(len(rows))]
    vid_of = {sum(bits[k] for k in tight): vid for vid, (tight, _) in enumerate(solved)}
    first, (p, q) = solved[0]
    masks: list[Optional[int]] = [None] * len(solved)
    masks[0] = sum(bit for bit, row in zip(bits, rows) if sum(map(mul, row, p)) > row[-1] * q)
    rise = [0] * len(solved)
    queue = [sum(bits[k] for k in first) ^ bits[k] for k in first]  # lines, as tight masks
    queued = set(queue)
    for line in queue:
        on_line = [(vid_of[line | bit], j) for j, bit in enumerate(bits) if not line & bit]
        _sort_line(solved, on_line)
        start = next(t for t, (vid, _) in enumerate(on_line) if masks[vid] is not None)
        for steps in range(start + 1, len(on_line)), range(start - 1, -1, -1):
            u, i = on_line[start]
            for t in steps:  # w's mask is u's, i set to w's side and j cleared
                w, j = on_line[t]
                if masks[w] is None:
                    row, (p, q) = rows[i], solved[w][1]
                    mw = masks[u] | bits[i] if sum(map(mul, row, p)) > row[-1] * q else masks[u]
                    masks[w] = mw & ~bits[j]
                    for k in solved[w][0]:  # w's lines; the one being swept is queued
                        other = (line | bits[j]) ^ bits[k]
                        if other not in queued:
                            queued.add(other)
                            queue.append(other)
                u, i = w, j
        for (vid, j), (above, _) in zip(on_line, on_line[1:]):
            rise[vid] |= masks[above] & bits[j]
        top, j = on_line[-1]
        rise[top] |= bits[j] & ~masks[on_line[-2][0]]
    if None in masks:
        raise InternalConsistencyError(
            f"signs reached {len(masks) - masks.count(None)} of {len(masks)} vertices "
            "along the lines"
        )
    return masks, rise


def _sort_line(solved: Solved, on_line: list[tuple[int, int]]) -> None:
    """Sort one line's (vertex id, j) entries, j the one hyperplane tight at
    the vertex off the line, into increasing lexicographic order of their
    points.

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


def enumerate_edges(arr: Arrangement, vertices: list[Vertex]) -> list[ArrangementEdge]:
    """Decompose every line (each (d-1)-subset of hyperplanes) into its
    bounded segments between consecutive vertices plus the two extreme rays.

    Each line's vertices are sorted by one comparison: w lies above u when
    w's sign at u's index j off the line is u's rise bit at j.  The segment
    from u to its upper neighbour w has u's signs with j set to w's sign
    there (u's plus mask OR w's); the ray leaving an extreme vertex v away
    from its neighbour w has v's signs with v's index set to minus w's sign
    there.  Lines come in sorted order, each as a ray, its segments, then a
    ray.  Along a line the vertices go up lexicographically, so every
    segment has vertices[tail].point < vertices[head].point, the first ray
    leaves the lex-min vertex and the last ray the lex-max one.
    """
    n = arr.n
    bits = [1 << n - 1 - k for k in range(n)]
    lines: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for vid, v in enumerate(vertices):
        tight = v.tight_set
        for k, j in enumerate(tight):
            lines.setdefault(tight[:k] + tight[k + 1:], []).append((vid, j))

    def order(u: tuple[int, int], w: tuple[int, int]) -> int:
        return 1 if (vertices[w[0]].plus ^ vertices[u[0]].rise) & bits[u[1]] else -1

    edges: list[ArrangementEdge] = []
    for line_set in sorted(lines):
        on_line = sorted(lines[line_set], key=cmp_to_key(order))  # (vertex id, j), going up
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


def _bounded_face_count(n: int, d: int, codim: int) -> int:
    """Zaslavsky's count of the bounded faces of codimension `codim` of a
    simple arrangement of n hyperplanes in dimension d: C(n, c)·C(n-c-1,
    d-c), which is n·C(n-2, d-1) for the facets."""
    return comb(n, codim) * comb(n - codim - 1, d - codim)


def enumerate_bounded_cells(arr: Arrangement, vertices: list[Vertex]) -> Cells:
    """Every bounded cell as (plus mask, increasing vertex ids), sorted by
    mask; `cells.build_cell_records` makes their records.

    A vertex v's up candidate sets every tight bit to its up side, and its
    down candidate to the other side.  The up candidate is the one cell
    whose edges at v all go up; they span its cone at v, as v is simple, so
    v is its lex-min vertex.  Likewise v is its down candidate's lex-max
    vertex.  A cell is bounded exactly when it is both: a polytope has a
    lex-min and a lex-max vertex; and if a cell has lex-min vertex v and
    lex-max vertex w, the direction r of any ray in it is lexicographically
    >= 0, as v + r lies in it, and <= 0, as w + r does, so there is none.
    Their number is checked against Zaslavsky's count, C(n-1, d).  The 2^d
    cells at v are its plus mask with any of its tight bits set, so one
    more pass hands each bounded cell its vertices.
    """
    d, n, top = arr.dim, arr.n, arr.n - 1
    ups, downs = [], set()
    for v in vertices:
        tight = sum(1 << top - k for k in v.tight_set)
        ups.append(v.plus | v.rise)
        downs.add(v.plus | tight & ~v.rise)
    cells: dict[int, list[int]] = {face: [] for face in ups if face in downs}
    del ups, downs
    expected = _bounded_face_count(n, d, 0)
    if len(cells) != expected:
        raise InternalConsistencyError(
            f"found {len(cells)} bounded faces of codimension 0, expected "
            f"C({n},0)*C({n - 1},{d}) = {expected}"
        )
    for vid, v in enumerate(vertices):
        faces = [v.plus]
        for k in v.tight_set:
            faces += [face | 1 << top - k for face in faces]
        for face in faces:
            if face in cells:
                cells[face].append(vid)
    return [(face, tuple(cells.pop(face))) for face in sorted(cells)]


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
