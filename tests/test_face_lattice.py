"""Exact invariants of the bounded face lattice found by `_bounded_faces`.

For a simple arrangement of n hyperplanes in dimension d, Zaslavsky's count
on each flat gives f_k = C(n, d-k) * C(n-d+k-1, k) bounded k-faces, and the
bounded complex is contractible (Bjorner-Edelman-Ziegler 1990), so its Euler
characteristic sum_k (-1)^k f_k is 1.
"""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangement_lab.arrangement import (
    _bounded_faces,
    enumerate_vertices,
)
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)


def assert_face_lattice_invariants(arr):
    d, n = arr.dim, arr.n
    vertices = enumerate_vertices(arr)
    f = []
    for k in range(d + 1):
        faces = _bounded_faces(vertices, d - k)
        assert all(sig.count(0) == d - k for sig in faces)
        f.append(len(faces))
    assert f == [comb(n, d - k) * comb(n - d + k - 1, k) for k in range(d + 1)]
    assert sum((-1) ** k * fk for k, fk in enumerate(f)) == 1


@pytest.mark.parametrize(
    "built",
    [build_cyclic_star(2, 6), build_cyclic_star(3, 7), build_cyclic_star(4, 7),
     build_cyclic_star(5, 8), build_ao2(7), build_ao3(7)],
    ids=lambda b: f"{b.family}-{b.d}-{b.n}",
)
def test_constructions_satisfy_face_lattice_invariants(built):
    assert_face_lattice_invariants(built.arrangement)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(0, 10_000),
    st.sampled_from([(2, 3), (2, 6), (2, 8), (3, 4), (3, 6), (3, 7)]),
)
def test_random_arrangements_satisfy_face_lattice_invariants(seed, shape):
    d, n = shape
    assert_face_lattice_invariants(random_simple_arrangement(d, n, seed=seed).arrangement)


def in_closure(vertex_signs, face_signs):
    """A vertex lies in a face's closure iff it is zero wherever the face is,
    and elsewhere it is zero or agrees with the face."""
    return all(v == 0 if s == 0 else v in (0, s) for v, s in zip(vertex_signs, face_signs))


def test_faces_list_exactly_the_vertices_in_their_closure():
    arr = build_ao3(6).arrangement
    vertices = enumerate_vertices(arr)
    for codim in range(arr.dim + 1):
        for sig, vids in _bounded_faces(vertices, codim).items():
            assert vids == [
                vid for vid, v in enumerate(vertices) if in_closure(v.sign_vector, sig)
            ]
