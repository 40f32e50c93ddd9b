"""The one-pass cell kernel and the one-walk JSON emitter against the
references in `oracle_cell_pass`.

Every record the census builds from its cells' vertices must equal, field
by field, the record of the walk-then-records path, and so must the records
`build_cell_records` builds from the pairs of `enumerate_bounded_cells`;
`skeletons_for_cells` must give the reference skeletons of those records.
In every codimension `skeletons_for_cells` must give the reference
skeleton of each bounded face.  The bounded cells and their vertices
(`enumerate_bounded_cells`), the up candidates that are also down
candidates, must be the cells the reference finds by walking every up
candidate, with the vertices it reaches, and each facet's mask
(`_facet_masks`) must hold exactly the cell's vertices tight on it.
`export --cell` must refuse a cell that is not bounded.  `canonical_dumps`
must write the bytes of `jsonify` plus `json.dumps` on any JSON-ready
tree, and cell masks must sort as their ±1 tuples and read back their +/-
strings.
"""

import ast
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arrangement_lab
import oracle_cell_pass as oracle
from arrangement_lab.arrangement import (
    check_simple,
    enumerate_bounded_cells,
    enumerate_vertices,
    sign_tuple,
    signature_from_str,
    signature_str,
)
from arrangement_lab.cells import (
    CellRecord,
    _facet_masks,
    build_cell_records,
    skeletons_for_cells,
)
from arrangement_lab.census import census
from arrangement_lab.constructions import build_ao2, build_ao3, build_cyclic_star
from arrangement_lab.errors import InputError
from arrangement_lab.export import render_off
from arrangement_lab.jsonio import canonical_dumps, census_to_obj, suite_to_obj
from arrangement_lab.verify import construction_census, default_instances, run_suite
from oracle_vertices import line_steps_from_orders
from signs import face_of, signs_of
from test_vertex_pass import build, relabelled_arrangements


def assert_same_records(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        for field in CellRecord._fields:
            assert getattr(a, field) == getattr(b, field), (b.signature, field)


def assert_pass_matches_reference(arr, records=None):
    vertices = enumerate_vertices(arr)
    expected, skeletons = oracle.cell_records(arr, vertices)
    if records is None:
        records = build_cell_records(arr, vertices, enumerate_bounded_cells(arr, vertices))
    assert_same_records(records, expected)
    assert skeletons_for_cells(records, vertices, arr.dim, arr.n) == skeletons


def assert_walks_match_reference(arr):
    vertices = enumerate_vertices(arr)
    steps = line_steps_from_orders(arr, vertices)
    for codim in range(arr.dim + 1):
        reference = oracle.bounded_face_skeletons(vertices, steps, arr.n, codim)
        for sig, skeleton in reference.items():
            face = (face_of(sig), tuple(skeleton))
            assert skeletons_for_cells([face], vertices, arr.dim, arr.n) == [skeleton], sig
        if codim == 0:
            cells = dict(enumerate_bounded_cells(arr, vertices))
            assert cells == {face_of(sig): tuple(skeleton) for sig, skeleton in reference.items()}
    for sig, vids in cells.items():
        tight_sets = [vertices[vid].tight_set for vid in vids]
        masks = _facet_masks(tight_sets)
        assert set(masks) == {k for tight in tight_sets for k in tight}, sig
        for k, mask in masks.items():
            assert mask == sum(1 << i for i, tight in enumerate(tight_sets) if k in tight), (sig, k)


@pytest.mark.parametrize("key", default_instances(), ids=str)
def test_census_records_match_reference_on_verify_instances(key):
    assert_pass_matches_reference(build(*key).arrangement, construction_census(*key).records)


@pytest.mark.parametrize("key", default_instances(), ids=str)
def test_bounded_candidates_are_the_walked_cells_on_verify_instances(key):
    # a cell is bounded iff it is some vertex's up candidate and some
    # vertex's down candidate; the reference walks every up candidate
    arr = build(*key).arrangement
    vertices = enumerate_vertices(arr)
    steps = line_steps_from_orders(arr, vertices)
    both = oracle.lex_candidates(vertices, steps, arr.n, 1) \
        & oracle.lex_candidates(vertices, steps, arr.n, -1)
    assert both == set(oracle.bounded_face_skeletons(vertices, steps, arr.n, 0))
    assert sorted(both) == signs_of(construction_census(*key).records, arr.n)


@pytest.mark.parametrize(
    "built",
    [build_ao2(40), build_ao3(16), build_cyclic_star(6, 12), build_cyclic_star(5, 11)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_large_constructions_match_reference(built):
    assert_pass_matches_reference(built.arrangement, census(built.arrangement).records)


def assert_pairs_give_the_census_records(arr):
    vertices = enumerate_vertices(arr)
    cells = enumerate_bounded_cells(arr, vertices)
    assert len(cells) == comb(arr.n - 1, arr.dim)
    masks = [face for face, _ in cells]
    assert masks == sorted(masks)
    for _, vertex_ids in cells:
        assert type(vertex_ids) is tuple and list(vertex_ids) == sorted(set(vertex_ids))
    assert_same_records(build_cell_records(arr, vertices, cells), census(arr).records)


@pytest.mark.parametrize("key", default_instances(), ids=str)
def test_cell_pass_pairs_give_the_census_records_on_verify_instances(key):
    assert_pairs_give_the_census_records(build(*key).arrangement)


@pytest.mark.parametrize(
    "built", [build_ao2(40), build_ao3(16), build_cyclic_star(6, 12)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_cell_pass_pairs_give_the_census_records_on_large_constructions(built):
    assert_pairs_give_the_census_records(built.arrangement)


def test_the_cell_pass_does_not_import_the_records():
    # arrangement lists the cells and cells builds their records, so
    # arrangement reads cells only for type names; and no module of the
    # package imports inside a function
    kinds = (ast.Import, ast.ImportFrom)
    package = Path(arrangement_lab.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        top_level = [node for node in tree.body if isinstance(node, kinds)]
        typing_only = [node for block in tree.body if isinstance(block, ast.If)
                       and ast.unparse(block.test) == "TYPE_CHECKING" for node in block.body]
        imports = [node for node in ast.walk(tree) if isinstance(node, kinds)]
        assert set(map(id, imports)) == set(map(id, top_level + typing_only)), path.name
        if path.name == "arrangement.py":
            assert all(node.module != "cells" for node in top_level
                       if isinstance(node, ast.ImportFrom)), "arrangement imports cells"


@settings(deadline=None, max_examples=25)
@given(relabelled_arrangements())
def test_random_arrangements_match_reference(case):
    arr, moved, _, _ = case
    assume(check_simple(arr).is_simple)
    for instance in (arr, moved):
        assert_pass_matches_reference(instance)
        assert_walks_match_reference(instance)


def test_render_off_names_an_unbounded_cell():
    # of the 2^3 cells at a bounded cell's first vertex, those that are not
    # bounded are refused as `export --cell` refuses them
    for built in (build_cyclic_star(3, 6), build_ao3(7)):
        arr, n = built.arrangement, built.n
        vertices = enumerate_vertices(arr)
        bounded = dict(enumerate_bounded_cells(arr, vertices))
        face, vertex_ids = next(iter(bounded.items()))
        tight = vertices[vertex_ids[0]].tight_set
        refused = 0
        for flips in range(1, 8):
            signature = face
            for i, k in enumerate(tight):
                if flips >> i & 1:
                    signature ^= 1 << n - 1 - k
            if signature in bounded:
                continue
            text = signature_str(signature, n)
            message = f"{text} is not a bounded cell of this arrangement"
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                render_off(arr, text)
            refused += 1
        assert refused > 0, built.family
    arr = build_cyclic_star(3, 6).arrangement
    with pytest.raises(InputError, match=r"^\+{6} is not a bounded cell of this arrangement$"):
        render_off(arr, "+" * 6)


@pytest.mark.parametrize(
    "built", [build_ao3(7), build_cyclic_star(4, 8)], ids=["ao3-7", "cyclic-4-8"]
)
def test_face_walks_match_reference_in_every_codimension(built):
    assert_walks_match_reference(built.arrangement)


# ---------------------------------------------------------------------------
# the JSON emitter
# ---------------------------------------------------------------------------

strings = st.text(st.characters(codec="utf-8"))   # non-ASCII, control characters
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40),
    st.fractions(), st.floats(), strings,
)
keys = st.one_of(strings, st.integers())
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=100)
@given(trees)
def test_canonical_dumps_matches_json_dumps(tree):
    assert canonical_dumps(tree) == oracle.reference_dumps(tree)


@pytest.mark.parametrize("obj", [
    {},
    [],
    {"": [], "b": {}, 3: (Fraction(-7, 2), None, True, False), "é\n": "\x00☃"},
    {1: "int key", "1": "str key", 10: "sorted as text", 9: "after 10"},
], ids=["empty-dict", "empty-list", "mixed", "int-keys"])
def test_canonical_dumps_matches_json_dumps_on_fixed_trees(obj):
    assert canonical_dumps(obj) == oracle.reference_dumps(obj)


def test_canonical_dumps_matches_json_dumps_on_reports():
    report = census(build_ao3(7).arrangement, build_ao3(7).metadata())
    obj = census_to_obj(report, include_cells=True)
    assert canonical_dumps(obj) == oracle.reference_dumps(obj)
    summary = suite_to_obj(run_suite(["P5"]))
    assert canonical_dumps(summary) == oracle.reference_dumps(summary)


def test_canonical_dumps_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        oracle.reference_dumps({"x": {1, 2}})
    with pytest.raises(TypeError):
        canonical_dumps({"x": {1, 2}})


def test_signature_str_writes_zeros_of_faces():
    assert signature_str(0b101, 3) == "+-+"
    assert signature_str(face_of((1, 0, -1)), 3) == "+0-"
    assert sign_tuple(face_of((0, -1, 1, 0)), 4) == (0, -1, 1, 0)


sign_tuples = st.integers(1, 70).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n).map(tuple),
                       min_size=1, max_size=8))


@settings(max_examples=200)
@given(sign_tuples)
def test_masks_sort_as_sign_tuples_and_round_trip_their_strings(tuples):
    n = len(tuples[0])
    masks = [face_of(t) for t in tuples]
    assert sorted(tuples) == signs_of(sorted(masks), n)
    for t, mask in zip(tuples, masks):
        text = "".join("+" if s > 0 else "-" for s in t)
        assert signature_str(mask, n) == text
        assert signature_from_str(text) == mask
