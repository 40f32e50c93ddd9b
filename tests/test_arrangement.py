"""Arrangement enumeration: simplicity, vertices, edges, cells, facets."""

import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab import arrangement
from arrangement_lab.arrangement import (
    Arrangement,
    Hyperplane,
    _bounded_face_count,
    check_simple,
    enumerate_bounded_cells,
    enumerate_bounded_facets,
    enumerate_edges,
    enumerate_vertices,
    hyperplane,
    restrict_to_hyperplane,
)
from arrangement_lab.cells import build_cell_records
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from arrangement_lab.errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    NotSimpleError,
    UnsupportedDimensionError,
)
from oracle_arithmetic import embed, evaluate_sign
from oracle_facets import enumerate_bounded_facets_by_restriction, facet_signature
from signs import signs_of, vertex_signs


def enumerate_all(arr):
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    cells = enumerate_bounded_cells(arr, vertices)
    return vertices, edges, cells


# ---------------------------------------------------------------------------
# construction-time refusals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("normal", [(0, 0), (0, 0, 0), (Fraction(0), Fraction(0, 5))])
def test_hyperplane_refuses_a_zero_normal(normal):
    for build in (lambda: hyperplane(normal, 1), lambda: Hyperplane(normal, Fraction(1)),
                  lambda: Hyperplane(a=normal, b=Fraction(0))):
        with pytest.raises(ValueError, match="^hyperplane normal must be nonzero$"):
            build()


@pytest.mark.parametrize("dim", [1, 0, -2])
def test_arrangement_refuses_dimension_below_two(dim):
    for planes in ((), (hyperplane([1], 0), hyperplane([2], 1))):
        with pytest.raises(ValueError, match="^arrangements require dimension >= 2$"):
            Arrangement(dim, planes)


@pytest.mark.parametrize("dim, a, message", [
    (2, [0, 0, 1], "hyperplane of dimension 3 in a 2-dimensional arrangement"),
    (3, [1, 1], "hyperplane of dimension 2 in a 3-dimensional arrangement"),
])
def test_arrangement_refuses_a_hyperplane_of_another_dimension(dim, a, message):
    planes = (*build_cyclic_star(dim, dim + 1).arrangement.hyperplanes, hyperplane(a, 1))
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        Arrangement(dim, planes)
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        Arrangement(dim=dim, hyperplanes=planes[::-1])


def test_hyperplane_replace_keeps_the_construction_check():
    plane = hyperplane([1, 0], 0)
    with pytest.raises(ValueError, match="^hyperplane normal must be nonzero$"):
        plane._replace(a=(0, 0))
    assert plane._replace(b=Fraction(2)) == hyperplane([1, 0], 2)


def test_arrangement_replace_keeps_the_construction_checks():
    arr = build_cyclic_star(2, 4).arrangement
    message = "hyperplane of dimension 2 in a 3-dimensional arrangement"
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        arr._replace(dim=3)
    with pytest.raises(ValueError, match="^arrangements require dimension >= 2$"):
        arr._replace(dim=1)
    assert arr._replace(hyperplanes=arr.hyperplanes[:3]) == Arrangement(2, arr.hyperplanes[:3])


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------

def test_constructed_star_is_simple():
    arr = build_cyclic_star(3, 6).arrangement
    assert check_simple(arr).is_simple


def test_duplicate_hyperplane_not_simple():
    arr = build_ao2(5).arrangement
    doubled = Arrangement(2, arr.hyperplanes + (arr.hyperplanes[0],))
    report = check_simple(doubled)
    assert not report.is_simple
    assert report.witness is not None


def test_parallel_lines_not_simple():
    arr = Arrangement(
        2,
        (
            hyperplane([1, 0], 0),
            hyperplane([1, 0], 1),
            hyperplane([0, 1], 0),
        ),
    )
    report = check_simple(arr)
    assert not report.is_simple
    assert report.witness == (0, 1)


def test_too_few_hyperplanes_not_simple():
    arr = Arrangement(2, (hyperplane([1, 0], 0), hyperplane([0, 1], 0)))
    assert not check_simple(arr).is_simple


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------

def test_vertex_counts():
    assert len(enumerate_vertices(build_ao2(4).arrangement)) == 6          # C(4,2)
    assert len(enumerate_vertices(build_cyclic_star(3, 6).arrangement)) == 20  # C(6,3)
    assert len(enumerate_vertices(build_cyclic_star(2, 3).arrangement)) == 3


def test_vertices_sorted_with_exact_tight_sets():
    arr = build_ao2(5).arrangement
    vertices = enumerate_vertices(arr)
    tights = [v.tight_set for v in vertices]
    assert tights == sorted(tights)
    for v in vertices:
        zeros = tuple(i for i, s in enumerate(vertex_signs(v, arr.n)) if s == 0)
        assert zeros == v.tight_set
        assert v.plus < 1 << arr.n
        for i in v.tight_set:
            assert evaluate_sign(arr.hyperplanes[i], v.point) == 0


def test_enumerate_vertices_rejects_non_simple():
    arr = Arrangement(
        2, (hyperplane([1, 0], 0), hyperplane([1, 0], 1), hyperplane([0, 1], 0))
    )
    with pytest.raises(NotSimpleError):
        enumerate_vertices(arr)


def test_enumerate_vertices_names_concurrent_hyperplanes():
    arr = Arrangement(
        2,
        (
            hyperplane([1, 1], 1),
            hyperplane([1, 0], 0),
            hyperplane([0, 1], 0),
            hyperplane([1, -1], 0),
        ),
    )
    with pytest.raises(NotSimpleError) as err:
        enumerate_vertices(arr)
    assert err.value.report.witness == (1, 2, 3)
    # the simplicity check reports what the census raises
    assert check_simple(arr) == err.value.report


def test_sign_of_first_slanted_line_at_origin():
    # the line through (1,0) and (0,1) evaluates negative at the origin
    arr = build_ao2(7).arrangement
    h3 = arr.hyperplanes[2]
    origin = (Fraction(0), Fraction(0))
    assert evaluate_sign(h3, origin) == -1


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def test_line_decomposition_counts():
    arr = build_ao2(5).arrangement
    vertices, edges, _ = enumerate_all(arr)
    # each of the 5 lines carries 4 vertices: 3 segments + 2 rays
    by_line = {}
    for e in edges:
        by_line.setdefault(e.line_set, []).append(e)
    assert len(by_line) == 5
    for line_edges in by_line.values():
        assert sum(1 for e in line_edges if e.head is not None) == 3
        assert sum(1 for e in line_edges if e.head is None) == 2
    assert sum(1 for e in edges if e.head is not None) == 15  # n(n-2)


def test_total_bounded_edges_2d():
    for n in (4, 6, 7):
        arr = build_ao2(n).arrangement
        vertices, edges, _ = enumerate_all(arr)
        assert sum(1 for e in edges if e.head is not None) == n * (n - 2)


def test_segment_endpoints_consecutive_and_rays_signed():
    arr = build_ao2(5).arrangement
    vertices, edges, _ = enumerate_all(arr)
    by_line = {}
    for e in edges:
        zeros = tuple(i for i, s in enumerate(e.sign_vector) if s == 0)
        assert zeros == e.line_set
        by_line.setdefault(e.line_set, []).append(e)
    for line_set, line_edges in by_line.items():
        segments = [e for e in line_edges if e.head is not None]
        for ray in (e for e in line_edges if e.head is None):
            # the tail is an extreme vertex of the line: one segment ends there
            touching = [s for s in segments if ray.tail in (s.tail, s.head)]
            assert len(touching) == 1
            # and the ray crosses only the tail's off-line hyperplane
            (off_line,) = set(vertices[ray.tail].tight_set) - set(line_set)
            differ = [
                i for i, (r, s) in enumerate(zip(ray.sign_vector, touching[0].sign_vector))
                if r != s
            ]
            assert differ == [off_line]


def test_segments_chain_consecutive_vertices_along_each_line():
    arr = build_ao3(6).arrangement
    vertices, edges, _ = enumerate_all(arr)
    by_line = {}
    for e in edges:
        if e.head is not None:
            by_line.setdefault(e.line_set, []).append(e)
    for line_set, segments in by_line.items():
        # the segment list must be a path: tail of one is head of the previous
        for first, second in zip(segments, segments[1:]):
            assert first.head == second.tail
        chain = [segments[0].tail] + [s.head for s in segments]
        assert len(set(chain)) == len(chain)
        # and every vertex on the line appears in the chain
        on_line = {
            vid
            for vid, v in enumerate(vertices)
            if set(line_set) <= set(v.tight_set)
        }
        assert set(chain) == on_line


def assert_lines_run_in_lex_order(arr):
    """Segments run tail -> head in increasing lexicographic order of their
    points, and each line's first ray leaves its lex-min vertex, its last ray
    its lex-max vertex."""
    vertices, edges, _ = enumerate_all(arr)
    by_line = {}
    for e in edges:
        by_line.setdefault(e.line_set, []).append(e)
    for line_edges in by_line.values():
        first, *segments, last = line_edges
        assert first.head is None and last.head is None
        for s in segments:
            assert vertices[s.tail].point < vertices[s.head].point
        points = [vertices[s.tail].point for s in segments] + [vertices[last.tail].point]
        assert vertices[first.tail].point == min(points)
        assert vertices[last.tail].point == max(points)


@pytest.mark.parametrize(
    "built",
    [build_ao2(9), build_ao3(8), build_cyclic_star(2, 7), build_cyclic_star(3, 7),
     build_cyclic_star(4, 8)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_constructed_lines_run_in_lex_order(built):
    assert_lines_run_in_lex_order(built.arrangement)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(4, 8))
def test_random_lines_run_in_lex_order(seed, d, n):
    assert_lines_run_in_lex_order(random_simple_arrangement(d, n, seed=seed).arrangement)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000), st.sampled_from([(2, 4), (2, 6), (3, 5)]))
def test_random_arrangements_satisfy_structural_counts(seed, shape):
    d, n = shape
    arr = random_simple_arrangement(d, n, seed=seed).arrangement
    vertices, edges, cells = enumerate_all(arr)
    assert len(vertices) == comb(n, d)
    assert len(cells) == comb(n - 1, d)
    rays = [e for e in edges if e.head is None]
    assert len(rays) == 2 * comb(n, d - 1)
    for cell in cells:
        assert len(cell.vertex_ids) >= d + 1


# ---------------------------------------------------------------------------
# bounded cells
# ---------------------------------------------------------------------------

def test_triangle_arrangement_single_cell():
    arr = build_cyclic_star(2, 3).arrangement
    _, _, cells = enumerate_all(arr)
    assert len(cells) == 1
    assert len(cells[0].vertex_ids) == 3


def test_bounded_cell_counts():
    assert len(enumerate_all(build_ao2(7).arrangement)[2]) == 15    # C(6,2)
    assert len(enumerate_all(build_ao3(7).arrangement)[2]) == 20    # C(6,3)


def test_bounded_cell_count_formula_on_random_instances():
    for d, n, seed in [(2, 5, 1), (2, 8, 11), (3, 5, 7), (3, 7, 3)]:
        arr = random_simple_arrangement(d, n, seed).arrangement
        vertices, edges, cells = enumerate_all(arr)
        assert len(vertices) == comb(n, d)
        assert len(cells) == comb(n - 1, d)
        for cell in cells:
            assert len(cell.vertex_ids) >= d + 1


def test_cells_sorted_and_zero_free():
    arr = build_ao2(6).arrangement
    _, _, cells = enumerate_all(arr)
    sigs = signs_of(cells, arr.n)
    assert sigs == sorted(sigs)
    assert all(0 not in sig for sig in sigs)


def test_line_vertex_sum_identity_2d():
    # sum over lines of (vertices on line - 1) equals n(n-2)
    for n in (5, 7):
        arr = build_ao2(n).arrangement
        vertices, _, _ = enumerate_all(arr)
        per_line = {}
        for v in vertices:
            for i in v.tight_set:
                per_line[i] = per_line.get(i, 0) + 1
        assert sum(k - 1 for k in per_line.values()) == n * (n - 2)


def test_boundedness_cross_check_against_ray_compatibility():
    # recompute compatibility directly: a bounded cell agrees with no ray off
    # that ray's line set, and every vertex-touching unbounded sign vector
    # agrees with at least one
    arr = build_ao3(5).arrangement
    vertices, edges, cells = enumerate_all(arr)
    bounded = set(signs_of(cells, arr.n))
    candidates = set()
    from itertools import product as iproduct

    for v in vertices:
        for combo in iproduct((-1, 1), repeat=arr.dim):
            sig = list(vertex_signs(v, arr.n))
            for pos, s in zip(v.tight_set, combo):
                sig[pos] = s
            candidates.add(tuple(sig))
    rays = [e for e in edges if e.head is None]

    def compatible(ray, sig):
        line = set(ray.line_set)
        return all(
            s == sig[i] for i, s in enumerate(ray.sign_vector) if i not in line
        )

    for sig in candidates:
        hits = sum(1 for ray in rays if compatible(ray, sig))
        if sig in bounded:
            assert hits == 0
        else:
            assert hits >= 1


def test_bounded_flags_invariant_under_hyperplane_permutation():
    base = build_ao2(6).arrangement
    perm = [3, 0, 5, 1, 4, 2]  # position j of the shuffle holds base plane perm[j]
    shuffled = Arrangement(2, tuple(base.hyperplanes[i] for i in perm))
    _, _, cells_base = enumerate_all(base)
    _, _, cells_shuffled = enumerate_all(shuffled)
    inverse = {p: j for j, p in enumerate(perm)}
    back_in_base_order = {
        tuple(sig[inverse[i]] for i in range(len(perm)))
        for sig in signs_of(cells_shuffled, shuffled.n)
    }
    assert back_in_base_order == set(signs_of(cells_base, base.n))


# ---------------------------------------------------------------------------
# restriction and facets
# ---------------------------------------------------------------------------

def test_restriction_of_star_is_simple_with_expected_cells():
    arr = build_cyclic_star(3, 6).arrangement
    restriction = restrict_to_hyperplane(arr, 1)
    induced = restriction.arrangement
    assert induced.dim == 2 and induced.n == 5
    assert check_simple(induced).is_simple
    _, _, cells = enumerate_all(induced)
    assert len(cells) == comb(4, 2)


def test_restriction_embeds_back_onto_carrier():
    arr = build_cyclic_star(3, 6).arrangement
    restriction = restrict_to_hyperplane(arr, 2)
    carrier = arr.hyperplanes[2]
    for t in [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(-2))]:
        point = embed(restriction, t)
        assert evaluate_sign(carrier, point) == 0
    # induced signs agree with ambient signs
    induced = restriction.arrangement
    t = (Fraction(1, 3), Fraction(2, 7))
    point = embed(restriction, t)
    for pos, orig in enumerate(restriction.kept):
        assert evaluate_sign(induced.hyperplanes[pos], t) == evaluate_sign(
            arr.hyperplanes[orig], point
        )


def test_restriction_of_three_planes_is_not_simple():
    arr = Arrangement(
        3,
        (
            hyperplane([1, 0, 0], 0),
            hyperplane([0, 1, 0], 0),
            hyperplane([0, 0, 1], 0),
        ),
    )
    restriction = restrict_to_hyperplane(arr, 0)
    assert not check_simple(restriction.arrangement).is_simple


def test_restriction_requires_dim_three():
    with pytest.raises(UnsupportedDimensionError):
        restrict_to_hyperplane(build_ao2(5).arrangement, 0)


def facets_of(arr):
    vertices, _, cells = enumerate_all(arr)
    records = build_cell_records(arr, vertices, [c.signature for c in cells])
    return enumerate_bounded_facets(arr, records)


def test_facet_counts_3d():
    assert len(facets_of(build_ao3(6).arrangement)) == 36   # n*C(n-2,2)
    assert len(facets_of(build_ao3(7).arrangement)) == 70


def test_facet_records_have_two_incident_signatures():
    # the oracle's two incident cells set the carrier to - and +; the
    # record names the bounded ones among them, by position in the cells
    arr = build_ao3(5).arrangement
    vertices, _, cells = enumerate_all(arr)
    bounded = signs_of(cells, arr.n)
    records = build_cell_records(arr, vertices, [c.signature for c in cells])
    facets = enumerate_bounded_facets(arr, records)
    facets.sort(key=lambda rec: (rec.hyperplane, facet_signature(rec, bounded)))
    oracle = enumerate_bounded_facets_by_restriction(arr)
    assert [(rec.hyperplane, facet_signature(rec, bounded)) for rec in facets] == \
        [(ref.hyperplane, ref.signature) for ref in oracle]
    for rec, ref in zip(facets, oracle):
        minus, plus = ref.incident
        assert minus[rec.hyperplane] == -1 and plus[rec.hyperplane] == 1
        assert facet_signature(rec, bounded)[rec.hyperplane] == 0
        assert [bounded[i] for i in rec.cells] == [s for s in ref.incident if s in bounded]
    assert {len(rec.cells) for rec in facets} == {1, 2}


def test_facet_counts_2d():
    assert len(facets_of(build_ao2(5).arrangement)) == 5 * 3   # n*(n-2)
    assert len(facets_of(build_ao2(8).arrangement)) == 8 * 6


# ---------------------------------------------------------------------------
# the bounded-face count both checks read
# ---------------------------------------------------------------------------

def test_bounded_face_count_gives_the_cells_and_the_facets():
    for d in range(2, 6):
        for n in range(d + 1, d + 9):
            assert _bounded_face_count(n, d, 0) == comb(n - 1, d)
            assert _bounded_face_count(n, d, 1) == n * comb(n - 2, d - 1)


def test_bounded_face_counts_are_checked_with_their_messages(monkeypatch):
    arr = build_ao3(6).arrangement
    vertices = enumerate_vertices(arr)
    records = build_cell_records(
        arr, vertices, [c.signature for c in enumerate_bounded_cells(arr, vertices)])
    monkeypatch.setattr(arrangement, "_bounded_face_count", lambda n, d, c: 1)
    with pytest.raises(InternalConsistencyError) as cells_error:
        enumerate_bounded_cells(arr, vertices)
    assert str(cells_error.value) == (
        "found 10 bounded faces of codimension 0, expected C(6,0)*C(5,3) = 1")
    with pytest.raises(InternalConsistencyError) as facets_error:
        enumerate_bounded_facets(arr, records)
    assert str(facets_error.value) == "found 36 bounded facets, expected n*C(n-2,2) = 1"
