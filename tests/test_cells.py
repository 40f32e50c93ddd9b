"""Skeletons, diameters, f-counts, combinatorial classification."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import (
    Arrangement,
    enumerate_bounded_cells,
    enumerate_edges,
    enumerate_vertices,
    signature_str,
)
from arrangement_lab.cells import (
    build_cell_records,
    cell_diameter,
    cube,
    other,
    polygon,
    shell,
    simplex,
    simplex_product,
    skeletons_for_cells,
)
from arrangement_lab.constructions import build_ao2, build_ao3, build_cyclic_star
from arrangement_lab.errors import InternalConsistencyError
from oracle_classify import (
    canonical_form,
    classify_cell,
    is_clique_product_graph,
    is_hypercube_graph,
)
from oracle_skeleton import cell_diameter as oracle_cell_diameter, cell_skeleton


def records_of(arr):
    """The records of `build_cell_records`, their skeletons, and the
    vertices, edges and (mask, vertex ids) pairs they came from."""
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    cells = enumerate_bounded_cells(arr, vertices)
    records = build_cell_records(arr, vertices, cells)
    return records, skeletons_for_cells(records, vertices, arr.dim, arr.n), vertices, edges, cells


# ---------------------------------------------------------------------------
# reference graphs
# ---------------------------------------------------------------------------

def hypercube_graph(d):
    nodes = list(range(2 ** d))
    return {v: tuple(sorted(v ^ (1 << i) for i in range(d))) for v in nodes}


def clique_product_graph(a, b):
    nodes = [(i, j) for i in range(a) for j in range(b)]
    index = {v: k for k, v in enumerate(nodes)}
    adj = {}
    for (i, j), k in index.items():
        nbrs = [index[(i, jj)] for jj in range(b) if jj != j]
        nbrs += [index[(ii, j)] for ii in range(a) if ii != i]
        adj[k] = tuple(sorted(nbrs))
    return adj


def cycle_graph(k):
    return {v: tuple(sorted(((v - 1) % k, (v + 1) % k))) for v in range(k)}


# ---------------------------------------------------------------------------
# skeletons
# ---------------------------------------------------------------------------

def test_triangle_cell_skeleton_is_three_cycle():
    arr = build_cyclic_star(2, 3).arrangement
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    (cell,) = build_cell_records(arr, vertices, enumerate_bounded_cells(arr, vertices))
    adj = cell_skeleton(cell, edges, arr.dim)
    assert len(adj) == 3
    assert all(len(nbrs) == 2 for nbrs in adj.values())
    assert canonical_form(adj) == canonical_form(cycle_graph(3))


def test_batch_skeletons_match_single_cell_skeletons():
    arr = build_ao3(5).arrangement
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    cells = enumerate_bounded_cells(arr, vertices)
    batch = skeletons_for_cells(cells, vertices, arr.dim, arr.n)
    for cell, adj in zip(build_cell_records(arr, vertices, cells), batch):
        assert adj == cell_skeleton(cell, edges, arr.dim)


@pytest.mark.parametrize(
    "built", [build_ao2(12), build_ao3(8), build_cyclic_star(4, 8)],
    ids=["ao2-12", "ao3-8", "cyclic-4-8"],
)
def test_skeletons_read_records_and_pairs_alike(built):
    # each item is read as (signature, vertex ids, *rest)
    arr = built.arrangement
    vertices = enumerate_vertices(arr)
    pairs = enumerate_bounded_cells(arr, vertices)
    records = build_cell_records(arr, vertices, pairs)
    assert skeletons_for_cells(pairs, vertices, arr.dim, arr.n) == \
        skeletons_for_cells(records, vertices, arr.dim, arr.n)


def test_skeleton_guards_name_the_cell():
    arr = build_ao2(6).arrangement
    vertices = enumerate_vertices(arr)
    cells = build_cell_records(arr, vertices, enumerate_bounded_cells(arr, vertices))
    quad = next(c for c in cells if len(c.vertex_ids) == 4)
    name = re.escape(f"cell {signature_str(quad.signature, arr.n)}")
    # only d vertices: too few for a bounded cell
    too_few = (quad.signature, quad.vertex_ids[:2])
    with pytest.raises(InternalConsistencyError, match=name + " has only 2 vertices"):
        skeletons_for_cells([too_few], vertices, arr.dim, arr.n)
    # one vertex dropped: a step from its neighbours leads out of the cell
    dropped = (quad.signature, quad.vertex_ids[1:])
    with pytest.raises(InternalConsistencyError, match=name + ": an edge at vertex"):
        skeletons_for_cells([dropped], vertices, arr.dim, arr.n)
    # one vertex outside added: a line holds it alone, or it and two others
    outside = [vid for vid in range(len(vertices)) if vid not in quad.vertex_ids]
    assert len(outside) == 11
    for vid in outside:
        added = (quad.signature, tuple(sorted((*quad.vertex_ids, vid))))
        with pytest.raises(InternalConsistencyError, match=name):
            skeletons_for_cells([added], vertices, arr.dim, arr.n)


def test_cell_record_checks_the_counts():
    # a tetrahedron with one vertex dropped: 3 vertices of degree 3 cannot
    # pair up; with a vertex off it in place of the fourth, the 4 tight
    # sets cover 5 planes, and V - E + F = 3
    arr = build_ao3(5).arrangement
    vertices = enumerate_vertices(arr)
    records = build_cell_records(arr, vertices, enumerate_bounded_cells(arr, vertices))
    tetra = next(c for c in records if c.vertex_count == 4)
    name = re.escape(f"cell {signature_str(tetra.signature, arr.n)}")
    with pytest.raises(InternalConsistencyError, match=name + r": V\*d = 3\*3 is odd"):
        build_cell_records(arr, vertices, [(tetra.signature, tetra.vertex_ids[:3])])
    off = next(vid for vid, v in enumerate(vertices) if not set(v.tight_set) <= set(tetra.facets))
    mixed = tuple(sorted([*tetra.vertex_ids[:3], off]))
    assert len({k for vid in mixed for k in vertices[vid].tight_set}) == 5
    with pytest.raises(InternalConsistencyError, match=name + r": \(V,E,F\)=\(4,6,5\)"):
        build_cell_records(arr, vertices, [(tetra.signature, mixed)])


def test_cubical_cell_of_star_36():
    records, skeletons, *_ = records_of(build_cyclic_star(3, 6).arrangement)
    cubes = [(r, adj) for r, adj in zip(records, skeletons) if r.cell_class == cube(3)]
    assert len(cubes) == 1
    rec, adj = cubes[0]
    assert (rec.vertex_count, rec.edge_count, rec.facet_count) == (8, 12, 6)
    assert is_hypercube_graph(adj, 3)
    assert canonical_form(adj) == canonical_form(hypercube_graph(3))


def test_shell_cell_of_ao3_7():
    records, *_ = records_of(build_ao3(7).arrangement)
    shells = [r for r in records if r.cell_class == shell(7)]
    assert len(shells) == 1
    rec = shells[0]
    assert rec.vertex_count == 10 and rec.edge_count == 15 and rec.facet_count == 7
    assert rec.diameter == 3  # floor(7/2), recomputed by BFS


def test_skeletons_connected_and_d_regular():
    for arr in (
        build_ao2(7).arrangement,
        build_ao3(6).arrangement,
        build_cyclic_star(4, 6).arrangement,
    ):
        records, skeletons, *_ = records_of(arr)
        for rec, adj in zip(records, skeletons):
            assert all(len(nbrs) == arr.dim for nbrs in adj.values())
            assert 2 * rec.edge_count == sum(map(len, adj.values()))
            assert cell_diameter(adj) >= 1  # BFS reaches everything


def test_euler_and_double_counting_3d():
    records, *_ = records_of(build_ao3(7).arrangement)
    for rec in records:
        assert rec.vertex_count - rec.edge_count + rec.facet_count == 2
        assert 2 * rec.edge_count == 3 * rec.vertex_count


# ---------------------------------------------------------------------------
# diameters
# ---------------------------------------------------------------------------

def test_single_edge_graph_diameter():
    assert cell_diameter({0: (1,), 1: (0,)}) == 1


def test_diameter_by_class_on_ao3_7():
    records, *_ = records_of(build_ao3(7).arrangement)
    expected = {simplex(3): 1, simplex_product(1, 2): 2, cube(3): 3, shell(7): 3}
    for rec in records:
        assert rec.diameter == expected[rec.cell_class]


def test_polygon_diameters():
    records, *_ = records_of(build_ao2(7).arrangement)
    for rec in records:
        k = rec.cell_class.params[0]
        assert rec.cell_class.kind == "polygon"
        assert rec.diameter == k // 2
    assert any(rec.cell_class == polygon(7) and rec.diameter == 3 for rec in records)


def test_disconnected_graph_diameter_raises():
    with pytest.raises(ValueError):
        cell_diameter({0: (1,), 1: (0,), 2: (3,), 3: (2,)})


def path_graph(k):
    return {v: tuple(w for w in (v - 1, v + 1) if 0 <= w < k) for v in range(k)}


@pytest.mark.parametrize("k", [1, 2, 3, 7, 20])
def test_path_diameter(k):
    assert cell_diameter(path_graph(k)) == k - 1


@pytest.mark.parametrize("k", [3, 4, 5, 8, 11])
def test_cycle_diameter(k):
    assert cell_diameter(cycle_graph(k)) == k // 2


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_hypercube_diameter(d):
    assert cell_diameter(hypercube_graph(d)) == d


@pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (3, 4), (4, 4)])
def test_clique_product_diameter(a, b):
    assert cell_diameter(clique_product_graph(a, b)) == 2


def test_single_vertex_diameter():
    assert cell_diameter({5: ()}) == 0


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus random chords, on scattered vertex ids."""
    k = draw(st.integers(1, 14))
    ids = draw(st.lists(st.integers(0, 500), min_size=k, max_size=k, unique=True))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, k)}
    if k > 1:
        pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
        edges |= {(u, w) for u, w in draw(st.lists(pairs, max_size=2 * k)) if u != w}
    nbrs = {v: set() for v in ids}
    for u, w in edges:
        nbrs[ids[u]].add(ids[w])
        nbrs[ids[w]].add(ids[u])
    return {v: tuple(sorted(ws)) for v, ws in nbrs.items()}


@settings(deadline=None, max_examples=60)
@given(connected_graphs())
def test_diameter_matches_all_sources_bfs(adj):
    assert cell_diameter(adj) == oracle_cell_diameter(adj)


@settings(deadline=None, max_examples=20)
@given(connected_graphs(), connected_graphs())
def test_disjoint_union_diameter_raises(left, right):
    shift = 1 + max(left)
    union = {**left, **{v + shift: tuple(w + shift for w in ws) for v, ws in right.items()}}
    with pytest.raises(ValueError):
        cell_diameter(union)


def test_diameter_by_class_in_dimension_four():
    records, *_ = records_of(build_cyclic_star(4, 8).arrangement)
    seen_kinds = set()
    for rec in records:
        kind = rec.cell_class.kind
        seen_kinds.add(kind)
        if kind == "simplex":
            assert rec.diameter == 1
        elif kind == "product":
            assert rec.diameter == 2
        elif kind == "cube":
            assert rec.diameter == 4
        else:
            # products of three or more simplices: diameter is the factor count
            assert rec.diameter == 3
    assert {"simplex", "product", "cube", "other"} <= seen_kinds


# ---------------------------------------------------------------------------
# f-counts
# ---------------------------------------------------------------------------

def test_f_counts_of_known_cells():
    records, *_ = records_of(build_ao3(5).arrangement)
    by_class = {}
    for rec in records:
        by_class.setdefault(rec.cell_class, []).append(
            (rec.vertex_count, rec.edge_count, rec.facet_count)
        )
    assert by_class[simplex(3)] == [(4, 6, 4), (4, 6, 4)]
    assert by_class[simplex_product(1, 2)] == [(6, 9, 5), (6, 9, 5)]


def test_six_facet_shell_counts_match_cube_counts():
    # at n = 6 the shell cell has the cube's (V, E, F) = (8, 12, 6) but is a
    # different combinatorial type; the certificate test tells them apart
    records, skeletons, *_ = records_of(build_ao3(6).arrangement)
    shells = [(r, adj) for r, adj in zip(records, skeletons) if r.cell_class == shell(6)]
    cubes = [(r, adj) for r, adj in zip(records, skeletons) if r.cell_class == cube(3)]
    assert len(shells) == 1 and len(cubes) == 1
    for rec, _ in shells + cubes:
        assert (rec.vertex_count, rec.edge_count, rec.facet_count) == (8, 12, 6)
    assert canonical_form(shells[0][1]) != canonical_form(cubes[0][1])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_factories_name_the_plane_s_cells_as_polygons():
    # the 2-simplex is the triangle; the 2-cube and the prism over a
    # 1-simplex are one square
    assert simplex(2) is polygon(3)
    assert cube(2) is simplex_product(1, 1) is polygon(4)
    labels = (simplex(3).label, cube(3).label, simplex_product(1, 2).label)
    assert labels == ("simplex-3", "cube-3", "product-1x2")


def test_simplex_classification_is_vertex_count_based():
    assert classify_cell(4, 6, 4, hypercube_graph(2), 3) == simplex(3)


def test_classification_star_35():
    records, *_ = records_of(build_cyclic_star(3, 5).arrangement)
    counts = {}
    for rec in records:
        counts[rec.cell_class] = counts.get(rec.cell_class, 0) + 1
    assert counts == {simplex(3): 2, simplex_product(1, 2): 2}


def test_classification_star_46_middle_product_once():
    records, skeletons, *_ = records_of(build_cyclic_star(4, 6).arrangement)
    counts = {}
    for rec in records:
        counts[rec.cell_class] = counts.get(rec.cell_class, 0) + 1
    assert counts == {
        simplex(4): 2,
        simplex_product(1, 3): 2,
        simplex_product(2, 2): 1,
    }
    square_product, adj = next(
        (r, adj) for r, adj in zip(records, skeletons) if r.cell_class == simplex_product(2, 2)
    )
    assert square_product.vertex_count == 9 and square_product.facet_count == 6
    assert canonical_form(adj) == canonical_form(clique_product_graph(3, 3))


def test_recognizers_agree_with_canonical_form_on_reference_graphs():
    q3 = canonical_form(hypercube_graph(3))
    assert is_hypercube_graph(hypercube_graph(3), 3)
    assert not is_hypercube_graph(clique_product_graph(2, 4), 3)
    assert canonical_form(clique_product_graph(2, 4)) != q3
    assert is_clique_product_graph(clique_product_graph(2, 4), 2, 4)
    assert is_clique_product_graph(clique_product_graph(4, 4), 4, 4)
    assert not is_clique_product_graph(hypercube_graph(3), 2, 4)
    # relabeling leaves the canonical form unchanged
    relabeled = {
        7 - v: tuple(sorted(7 - w for w in nbrs))
        for v, nbrs in hypercube_graph(3).items()
    }
    assert canonical_form(relabeled) == q3


def test_certificate_classification_matches_canonical_form_classification():
    # dual route: on every 3D cell of two constructions, compare the
    # certificate-based class against brute canonical-form comparison
    k4 = {v: tuple(w for w in range(4) if w != v) for v in range(4)}
    references = {
        simplex(3): canonical_form(k4),
        cube(3): canonical_form(hypercube_graph(3)),
        simplex_product(1, 2): canonical_form(clique_product_graph(2, 3)),
    }
    for arr in (build_ao3(6).arrangement, build_cyclic_star(3, 7).arrangement):
        records, skeletons, *_ = records_of(arr)
        for rec, adj in zip(records, skeletons):
            form = canonical_form(adj)
            matches = [cls for cls, ref in references.items() if ref == form]
            if matches:
                assert rec.cell_class == matches[0]
            else:
                assert rec.cell_class.kind == "shell"


@settings(deadline=None, max_examples=10)
@given(st.permutations(list(range(6))))
def test_classification_invariant_under_relabeling(perm):
    base = build_ao3(6).arrangement
    shuffled = Arrangement(3, tuple(base.hyperplanes[i] for i in perm))
    base_records, *_ = records_of(base)
    shuffled_records, *_ = records_of(shuffled)
    base_classes = sorted(r.cell_class for r in base_records)
    shuffled_classes = sorted(r.cell_class for r in shuffled_records)
    assert base_classes == shuffled_classes


def test_shell_diameters_across_the_grid():
    # the n-facet shell has diameter floor(n/2); recomputed by BFS each time
    for n in range(7, 11):
        records, *_ = records_of(build_ao3(n).arrangement)
        shells = [r for r in records if r.cell_class == shell(n)]
        assert len(shells) == 1
        assert shells[0].diameter == n // 2
        assert shells[0].vertex_count == 2 * (n - 2)


def test_shell_canonical_forms_recorded():
    records, skeletons, *_ = records_of(build_ao3(7).arrangement)
    forms = [canonical_form(adj) for rec, adj in zip(records, skeletons)
             if rec.cell_class.kind == "shell"]
    assert len(forms) == 1
    (form,) = forms
    assert form[0] == 10  # vertex count of the 7-facet shell


def test_other_classification_kind():
    cls = other(18, 33, 8)
    assert cls.label == "other-V18-E33-F8"
