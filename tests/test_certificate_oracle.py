"""The vertex-facet product certificate, the tight-set skeletons and the
rise masks against the retained references.

On every cell, the class must equal the graph classifier's
(`oracle_classify`), the diameter the all-sources BFS (`oracle_skeleton`),
the edge count E = V·d/2 the skeleton's, and the skeleton of
`skeletons_for_cells` the completion-lookup builder's.  The rise masks
must equal the up sides of the steps read off the segments of
`enumerate_edges`.  The hand-built tight-set families below exercise each
rejection branch of `product_factors`.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_classify
import oracle_skeleton
from arrangement_lab.arrangement import (
    enumerate_bounded_cells,
    enumerate_edges,
    enumerate_vertices,
)
from arrangement_lab.cells import (
    build_cell_records,
    product_factors,
    simplex_product,
    skeletons_for_cells,
)
from arrangement_lab.constructions import build, build_ao3, random_simple_arrangement
from arrangement_lab.verify import default_instances
from oracle_edges import line_steps_from_edges
from signs import rise_mask


def assert_kernels_match_references(arr):
    vertices = enumerate_vertices(arr)
    edges = enumerate_edges(arr, vertices)
    steps = line_steps_from_edges(vertices, edges)
    assert [v.rise for v in vertices] == \
        [rise_mask(v, s, arr.n) for v, s in zip(vertices, steps)]
    cells = enumerate_bounded_cells(arr, vertices)
    skeletons = skeletons_for_cells(cells, vertices, arr.dim, arr.n)
    assert skeletons == oracle_skeleton.skeletons_for_cells(cells, edges, arr.dim)
    records = build_cell_records(arr, vertices, [c.signature for c in cells])
    for rec, adj in zip(records, skeletons):
        v, e, f = rec.vertex_count, rec.edge_count, rec.facet_count
        assert 2 * e == sum(map(len, adj.values())), rec.signature
        assert rec.cell_class == oracle_classify.classify_cell(v, e, f, adj, arr.dim), rec.signature
        assert rec.diameter == oracle_skeleton.cell_diameter(adj), rec.signature


@pytest.mark.parametrize(
    "key",
    default_instances()
    + [("ao2", 2, 40), ("ao3", 3, 16)]
    + [("cyclic", d, 2 * d) for d in range(2, 7)],
    ids=lambda key: "-".join(str(part) for part in key if part is not None),
)
def test_instances_match_references(key):
    assert_kernels_match_references(build(*key).arrangement)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(4, 9))
def test_random_arrangements_match_references(seed, d, n):
    assert_kernels_match_references(random_simple_arrangement(d, n, seed=seed).arrangement)


# ---------------------------------------------------------------------------
# the certificate on hand-built tight-set families
# ---------------------------------------------------------------------------

def product_tight_sets(sizes):
    """Tight sets of Δ_{g_1-1} × ... × Δ_{g_m-1}: facet (j, i) is numbered
    in order, and the vertex t lies on every facet but (j, t[j])."""
    facets = {(j, i): k for k, (j, i) in enumerate(
        (j, i) for j, g in enumerate(sizes) for i in range(g))}
    return [
        tuple(sorted(k for (j, i), k in facets.items() if i != t[j]))
        for t in itertools.product(*(range(g) for g in sizes))
    ]


@pytest.mark.parametrize("sizes", [(4,), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)])
def test_products_certify_in_any_order(sizes):
    tight_sets = product_tight_sets(sizes)
    rng = random.Random(len(tight_sets))
    relabel = list(range(sum(sizes)))
    for _ in range(5):
        assert product_factors(tight_sets) == sizes
        rng.shuffle(tight_sets)
        rng.shuffle(relabel)
        tight_sets = [tuple(sorted(relabel[k] for k in tight)) for tight in tight_sets]


def test_overlapping_masks_in_a_factor_are_not_a_product():
    # vertices C, D, A, B; missing masks F0 {A,B}, F1 {C,D}, F2 {A,C},
    # F3 {B,D}, F4 {C}: F1 and F4 both miss F0 but overlap at C
    assert product_factors([(0, 3), (0, 2, 4), (1, 3, 4), (1, 2, 4)]) is None


def test_uncovered_vertex_is_not_a_product():
    # vertices D, A, B, C; missing masks F0 {A,B}, F1 {C}, F2 {A,C}, F3 {B,D}:
    # F0's factor {F0, F1} leaves D out, while 2 * 2 = 4 vertices
    assert product_factors([(0, 1, 2), (1, 3), (1, 2), (0, 3)]) is None


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (2, 2, 2)])
def test_product_with_one_vertex_dropped_is_not_a_product(sizes):
    # every factor still partitions the rest; only V = g_1 ... g_m fails
    for dropped in range(len(product_tight_sets(sizes))):
        tight_sets = product_tight_sets(sizes)
        del tight_sets[dropped]
        assert product_factors(tight_sets) is None


def test_ao3_5_shell_certifies_as_the_prism():
    # the shell (+...+-) of ao3(5) is a prism, so precedence books it as
    # the 1x2 product; from n = 6 on the shell is no product at all
    for n in (5, 6, 7):
        arr = build_ao3(n).arrangement
        vertices = enumerate_vertices(arr)
        cells = enumerate_bounded_cells(arr, vertices)
        (cell,) = [c for c in cells if c.signature == (1 << n) - 2]  # + ... + -
        factors = product_factors([vertices[vid].tight_set for vid in cell.vertex_ids])
        (rec,) = build_cell_records(arr, vertices, [cell.signature])
        if n == 5:
            assert factors == (2, 3)
            assert rec.cell_class == simplex_product(1, 2) and rec.diameter == 2
        else:
            assert factors is None
            assert rec.cell_class.kind == "shell" and rec.diameter == n // 2
