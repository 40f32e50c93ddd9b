"""Each fact is computed once: one line-step table per census or export,
one face walk per census, skeletons from the cell walk alone, diameters
measured only on cells the product certificate rejects, and one linear
solve per d-subset of a constructed instance.

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


def count_calls(monkeypatch, fn) -> list[int]:
    """Wrap `fn` wherever an arrangement_lab module binds it; the returned
    one-element list holds the number of calls so far."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "arrangement_lab":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
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
    calls = count_calls(monkeypatch, arrangement.line_steps)
    render()
    assert calls[0] == 1


@pytest.mark.parametrize("built", [build_ao2(7), build_ao3(7)], ids=["ao2-7", "ao3-7"])
def test_census_walks_once(monkeypatch, built):
    # the walk in codimension 0 finds the cells and builds their records;
    # the facets are read off the records
    codims = []
    walk = arrangement._face_walks

    def spy(vertices, steps, codim):
        codims.append(codim)
        return walk(vertices, steps, codim)

    monkeypatch.setattr(arrangement, "_face_walks", spy)
    census(built.arrangement)
    assert codims == [0]


@pytest.mark.parametrize(
    "built, measured",
    [(build_ao3(16), 1), (build_cyclic_star(6, 12), 0), (build_ao2(40), 1)],
    ids=["ao3-16-shell", "cyclic-6-12", "ao2-40-gon"],
)
def test_census_measures_only_uncertified_cells(monkeypatch, built, measured):
    skeleton_calls = count_calls(monkeypatch, cells.skeletons_for_cells)
    edge_calls = count_calls(monkeypatch, arrangement.enumerate_edges)
    diameter_calls = count_calls(monkeypatch, cells.cell_diameter)
    census(built.arrangement)
    assert (skeleton_calls[0], edge_calls[0], diameter_calls[0]) == (0, 0, measured)


def test_constructed_instance_solves_each_subset_once(monkeypatch):
    # every solved subset ends in one back-substitution, shared prefix or not
    calls = count_calls(monkeypatch, rational.back_substitute)
    construction_census.cache_clear()
    try:
        construction_census("ao3", 3, 8, None, None)
    finally:
        construction_census.cache_clear()
    assert calls[0] == comb(8, 3)
