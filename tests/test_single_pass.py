"""Each fact is computed once: one vertex pass, which writes every step,
per census or export, one face walk per census, edge counts from the
vertex counts (E = V·d/2), skeletons built and diameters measured only for
the cells the product certificate rejects, and one linear solve per
d-subset of a constructed instance.

A counter replaces the function at every module binding, because `census`,
`export` and `constructions` import what they call by name.
"""

import sys
from math import comb

import pytest

from arrangement_lab import arrangement, cells, rational
from arrangement_lab.census import census
from arrangement_lab.constructions import build_ao2, build_ao3, build_cyclic_star
from arrangement_lab.export import render_off, render_svg
from arrangement_lab.verify import construction_census


def replace_everywhere(monkeypatch, fn, replacement) -> None:
    """Put `replacement` wherever an arrangement_lab module binds `fn`."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "arrangement_lab":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, fn) -> list[int]:
    """Wrap `fn` wherever an arrangement_lab module binds it; the returned
    one-element list holds the number of calls so far."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    replace_everywhere(monkeypatch, fn, counted)
    return calls


@pytest.mark.parametrize(
    "render",
    [
        lambda: census(build_ao3(6).arrangement),
        lambda: render_svg(build_ao2(6).arrangement),
        lambda: render_off(build_ao3(6).arrangement, (1, 1, 1, 1, 1, -1)),
    ],
    ids=["census-3d", "render_svg", "render_off"],
)
def test_one_line_step_table_per_use(monkeypatch, render):
    # the steps are written by the vertex pass, so one pass means one table
    calls = count_calls(monkeypatch, arrangement.enumerate_vertices)
    render()
    assert calls[0] == 1


@pytest.mark.parametrize("built", [build_ao2(7), build_ao3(7)], ids=["ao2-7", "ao3-7"])
def test_census_walks_once(monkeypatch, built):
    # the walk in codimension 0 finds the cells and builds their records;
    # the facets are read off the records
    codims = []
    walk = arrangement._face_walks

    def spy(vertices, codim):
        codims.append(codim)
        return walk(vertices, codim)

    monkeypatch.setattr(arrangement, "_face_walks", spy)
    census(built.arrangement)
    assert codims == [0]


@pytest.mark.parametrize(
    "built, measured",
    [(build_ao3(16), 1), (build_cyclic_star(6, 12), 0), (build_ao2(40), 1)],
    ids=["ao3-16-shell", "cyclic-6-12", "ao2-40-gon"],
)
def test_census_measures_only_uncertified_cells(monkeypatch, built, measured):
    # one skeleton per cell the certificate rejects, and none for the others
    skeletons = []
    build_skeletons = cells.skeletons_for_cells

    def spy(faces, vertices, dim):
        skeletons.extend(face.signature for face in faces)
        return build_skeletons(faces, vertices, dim)

    monkeypatch.setattr(cells, "skeletons_for_cells", spy)
    edge_calls = count_calls(monkeypatch, arrangement.enumerate_edges)
    diameter_calls = count_calls(monkeypatch, cells.cell_diameter)
    report = census(built.arrangement)
    assert (len(skeletons), edge_calls[0], diameter_calls[0]) == (measured, 0, measured)
    vertices = arrangement.enumerate_vertices(built.arrangement)
    rejected = [rec.signature for rec in report.records if cells.product_factors(
        [vertices[vid].tight_set for vid in rec.vertex_ids]) is None]
    assert skeletons == rejected
    assert all(2 * rec.edge_count == rec.vertex_count * built.d for rec in report.records)


def test_exports_trace_polygons_without_skeletons(monkeypatch):
    # the SVG and OFF rings are traced on the vertices' steps; the only skeleton
    # left is the one cell_record builds for the ao2 n-gon, which the
    # product certificate rejects
    ao3 = build_ao3(16).arrangement
    certified = next(rec.signature for rec in census(ao3).records
                     if rec.cell_class.kind != "shell")
    built = []
    build_skeletons = cells.skeletons_for_cells

    def spy(faces, vertices, dim):
        built.extend(len(face.vertex_ids) for face in faces)
        return build_skeletons(faces, vertices, dim)

    replace_everywhere(monkeypatch, build_skeletons, spy)
    render_svg(build_ao2(40).arrangement)
    assert built == [40]
    built.clear()
    render_off(ao3, certified)
    assert built == []


def test_constructed_instance_solves_each_subset_once(monkeypatch):
    # every solved subset ends in one back-substitution, shared prefix or not
    calls = count_calls(monkeypatch, rational.back_substitute)
    construction_census.cache_clear()
    try:
        construction_census("ao3", 3, 8, None, None)
    finally:
        construction_census.cache_clear()
    assert calls[0] == comb(8, 3)
