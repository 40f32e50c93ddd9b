"""The one-pass cell kernel and the one-walk JSON emitter against the
references in `oracle_cell_pass`.

Every record the census builds from its walk must equal, field by field, the
record of the walk-then-records path, and so must the records
`build_cell_records` builds for cells known only by signature and vertices;
`skeletons_for_cells` must give the reference skeletons of those records.
In every codimension each walk must reach the vertices of the reference
skeleton, `skeletons_for_cells` must give that skeleton, and each
hyperplane's mask must hold exactly the walked vertices tight on it.
The cells the kernel walks, the up candidates that are also down
candidates, must be the cells the reference finds by walking every up
candidate.  `canonical_dumps` must write the bytes of `jsonify` plus
`json.dumps` on any JSON-ready tree, and cell masks must sort as their ±1
tuples and read back their +/- strings.
"""

import re
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_cell_pass as oracle
from arrangement_lab.arrangement import (
    BoundedCell,
    _face_walks,
    check_simple,
    enumerate_bounded_cells,
    enumerate_vertices,
    sign_tuple,
    signature_from_str,
    signature_str,
)
from arrangement_lab.cells import CellRecord, build_cell_records, skeletons_for_cells
from arrangement_lab.census import census
from arrangement_lab.constructions import build_ao2, build_ao3, build_cyclic_star
from arrangement_lab.errors import InternalConsistencyError
from arrangement_lab.jsonio import canonical_dumps, census_to_obj, suite_to_obj
from arrangement_lab.verify import construction_census, default_instances, run_suite
from signs import face_of, signs_of
from test_vertex_pass import build, relabelled_arrangements


def assert_same_records(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        for field in fields(CellRecord):
            assert getattr(a, field.name) == getattr(b, field.name), (b.signature, field.name)


def assert_pass_matches_reference(arr, records=None):
    vertices = enumerate_vertices(arr)
    expected, skeletons = oracle.cell_records(arr, vertices)
    if records is None:
        records = enumerate_bounded_cells(arr, vertices)
        known = [BoundedCell(rec.signature, rec.vertex_ids) for rec in records]
        rebuilt = build_cell_records(arr, vertices, known)
        assert_same_records(rebuilt, expected)
        assert skeletons_for_cells(rebuilt, vertices, arr.dim, arr.n) == skeletons
    assert_same_records(records, expected)
    assert skeletons_for_cells(records, vertices, arr.dim, arr.n) == skeletons


def assert_walks_match_reference(arr):
    vertices = enumerate_vertices(arr)
    for codim in range(arr.dim + 1):
        walked = {}
        for sig, (order, on) in _face_walks(vertices, arr.n, codim):
            face = BoundedCell(sig, tuple(sorted(order)))
            (walked[sig],) = skeletons_for_cells([face], vertices, arr.dim, arr.n)
            assert len(order) == len(walked[sig]), sig
            tight = {k for vid in order for k in vertices[vid].tight_set}
            assert {k for k, mask in enumerate(on) if mask} == tight
            for k, mask in enumerate(on):
                assert mask == sum(1 << i for i, vid in enumerate(order)
                                   if k in vertices[vid].tight_set), (sig, k)
        reference = oracle.bounded_face_skeletons(vertices, arr.n, codim)
        assert walked == {face_of(sig): skeleton for sig, skeleton in reference.items()}


@pytest.mark.parametrize("key", default_instances(), ids=str)
def test_census_records_match_reference_on_verify_instances(key):
    assert_pass_matches_reference(build(*key).arrangement, construction_census(*key).records)


@pytest.mark.parametrize("key", default_instances(), ids=str)
def test_bounded_candidates_are_the_walked_cells_on_verify_instances(key):
    # a cell is bounded iff it is some vertex's up candidate and some
    # vertex's down candidate; the reference walks every up candidate
    arr = build(*key).arrangement
    vertices = enumerate_vertices(arr)
    both = oracle.lex_candidates(vertices, arr.n, 1) & oracle.lex_candidates(vertices, arr.n, -1)
    assert both == set(oracle.bounded_face_skeletons(vertices, arr.n, 0))
    assert sorted(both) == signs_of(construction_census(*key).records, arr.n)


@pytest.mark.parametrize(
    "built",
    [build_ao2(40), build_ao3(16), build_cyclic_star(6, 12), build_cyclic_star(5, 11)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_large_constructions_match_reference(built):
    assert_pass_matches_reference(built.arrangement, census(built.arrangement).records)


@settings(deadline=None, max_examples=25)
@given(relabelled_arrangements())
def test_random_arrangements_match_reference(case):
    arr, moved, _, _ = case
    assume(check_simple(arr).is_simple)
    for instance in (arr, moved):
        assert_pass_matches_reference(instance)
        assert_walks_match_reference(instance)


def test_build_cell_records_names_an_unbounded_cell():
    # the triangle of cyclic(2,3) is its one bounded cell; the other three
    # cells at its first vertex are unbounded
    arr = build_cyclic_star(2, 3).arrangement
    vertices = enumerate_vertices(arr)
    (triangle,) = enumerate_bounded_cells(arr, vertices)
    start = triangle.vertex_ids[0]
    tight = vertices[start].tight_set
    for flips in ((0,), (1,), (0, 1)):
        signature = triangle.signature
        for i in flips:
            signature ^= 1 << 2 - tight[i]
        cell = BoundedCell(signature, (start,))
        name = signature_str(signature, 3)
        with pytest.raises(InternalConsistencyError, match=re.escape(f"cell {name} is not bounded")):
            build_cell_records(arr, vertices, [cell])


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
