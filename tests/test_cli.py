"""Command-line surface: flows, exit codes, byte-identical artifacts."""

import json
import random
import re

import pytest

from arrangement_lab.arrangement import enumerate_edges, enumerate_vertices
from arrangement_lab.census import census
from arrangement_lab.cli import main
from arrangement_lab.constructions import build_ao2, build_cyclic_star
from arrangement_lab.export import diameter_color, render_off, render_svg
from arrangement_lab.errors import InputError, UnsupportedDimensionError
from arrangement_lab.jsonio import (
    canonical_dumps,
    census_to_obj,
    load_arrangement,
    signature_from_str,
    signature_str,
)
from arrangement_lab.verify import RANDOM_2D_POOL, RANDOM_3D_POOL


def run(args):
    return main([str(a) for a in args])


def test_construct_ao2_writes_metadata(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert run(["construct", "--family", "ao2", "-n", 7, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "n=7" in printed and "epsilon=1/5" in printed
    obj = json.loads(out.read_text())
    assert obj["metadata"]["epsilon"] == "1/5"
    assert len(obj["hyperplanes"]) == 7


def test_construct_cyclic_simple(tmp_path):
    out = tmp_path / "b.json"
    assert run(["construct", "--family", "cyclic", "-d", 3, "-n", 6, "--out", out]) == 0
    arr, meta = load_arrangement(str(out))
    assert arr.n == 6 and arr.dim == 3
    assert meta["family"] == "cyclic"


def test_construct_rejects_bad_params(tmp_path):
    out = tmp_path / "x.json"
    assert run(["construct", "--family", "ao3", "-n", 4, "--out", out]) == 2
    assert not out.exists()


def test_analyze_round_trip_matches_in_memory(tmp_path, capsys):
    out = tmp_path / "a26.json"
    report_path = tmp_path / "census.json"
    run(["construct", "--family", "ao2", "-n", 6, "--out", out])
    assert run(["analyze", out, "--report", report_path]) == 0
    printed = capsys.readouterr().out
    assert "delta=17/10 (1.700000)" in printed
    file_obj = json.loads(report_path.read_text())
    built = build_ao2(6)
    memory_obj = json.loads(
        canonical_dumps(census_to_obj(census(built.arrangement, built.metadata())))
    )
    assert file_obj == memory_obj
    assert file_obj["I"] == 10 and file_obj["delta"] == "17/10"


def test_analyze_non_simple_names_the_pair(tmp_path, capsys):
    bad = tmp_path / "parallel.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "hyperplanes": [
            {"a": ["1", "0"], "b": "0"},
            {"a": ["1", "0"], "b": "1"},
            {"a": ["0", "1"], "b": "0"},
        ],
    }))
    assert run(["analyze", bad]) == 2
    err = capsys.readouterr().err
    assert "(1, 2)" in err


def test_analyze_concurrent_lines_names_the_triple(tmp_path, capsys):
    # lines 2, 3 and 4 (x = 0, y = 0, x = y) all pass through the origin
    bad = tmp_path / "concurrent.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "hyperplanes": [
            {"a": ["1", "1"], "b": "1"},
            {"a": ["1", "0"], "b": "0"},
            {"a": ["0", "1"], "b": "0"},
            {"a": ["1", "-1"], "b": "0"},
        ],
    }))
    assert run(["analyze", bad]) == 2
    err = capsys.readouterr().err
    assert "extra hyperplanes" in err and "(hyperplanes (2, 3, 4))" in err


def test_analyze_with_cells(tmp_path):
    out = tmp_path / "a.json"
    report_path = tmp_path / "r.json"
    run(["construct", "--family", "ao2", "-n", 5, "--out", out])
    run(["analyze", out, "--report", report_path, "--cells"])
    obj = json.loads(report_path.read_text())
    assert len(obj["cells"]) == 6
    sample = obj["cells"][0]
    assert set(sample) == {"signature", "V", "E", "F", "diameter", "class"}
    assert re.fullmatch(r"[+-]{5}", sample["signature"])


def test_verify_exit_codes_and_output(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert run(["verify", "--prop", "P1", "--range", "n=4..12", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert printed.count(": pass") == 9
    obj = json.loads(out.read_text())
    assert obj["all_pass"] is True
    assert len(obj["results"]) == 9


def test_verify_p5_range_values(capsys):
    assert run(["verify", "--prop", "P5", "--range", "d=2..6"]) == 0
    printed = capsys.readouterr().out
    assert printed.count(": pass") == 5


def test_verify_p7_plane_rows_fail_with_note(capsys):
    assert run(["verify", "--prop", "P7", "--range", "d=2,n=6..6"]) == 1
    printed = capsys.readouterr().out
    assert ": fail" in printed and "double-counts" in printed


def test_verify_malformed_range(capsys):
    assert run(["verify", "--prop", "P1", "--range", "m=4..5"]) == 2


def test_verify_range_rejected_for_hirsch(capsys):
    assert run(["verify", "--prop", "H", "--range", "n=4..5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --range does not apply to H or S")


def test_verify_seeds_override(tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"d2": [[5, 3]], "d3": [[5, 1]]}))
    out = tmp_path / "s.json"
    assert run(["verify", "--prop", "P2", "--range", "n=5..5", "--seeds", seeds, "--out", out]) == 0
    obj = json.loads(out.read_text())
    pool_rows = [r for r in obj["results"] if "pool" in r["params"]]
    assert pool_rows[0]["params"]["instances"] == 1


def test_verify_hirsch_and_floor_check_the_seeds_pools(tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"d2": [[5, 3]], "d3": [[5, 1]]}))
    out = tmp_path / "s.json"
    assert run(["verify", "--prop", "H", "--prop", "S", "--seeds", seeds, "--out", out]) == 0
    by_prop = {r["prop"]: r for r in json.loads(out.read_text())["results"]}
    # 28 constructed instances (21 of them in d = 2, 3) plus the two random ones
    assert by_prop["H"]["params"]["instances"] == 23
    assert by_prop["S"]["params"]["instances"] == 30


def test_verify_summary_records_the_pools_used(tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"d2": [[5, 3]]}))
    out = tmp_path / "s.json"
    assert run(["verify", "--prop", "P2", "--range", "n=5..5", "--seeds", seeds, "--out", out]) == 0
    pools = json.loads(out.read_text())["random_pools"]
    assert pools["d2"] == [[5, 3]]
    assert pools["d3"] == [[n, seed] for n, seed in RANDOM_3D_POOL]


def test_verify_summary_bytes_ignore_pool_order(tmp_path):
    d2, d3 = list(RANDOM_2D_POOL), list(RANDOM_3D_POOL)
    random.Random(7).shuffle(d2)
    random.Random(8).shuffle(d3)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"d2": d2, "d3": d3}))
    shuffled, default = tmp_path / "shuffled.json", tmp_path / "default.json"
    argv = ["verify", "--prop", "P4", "--range", "n=5..5", "--out"]
    assert run([*argv, shuffled, "--seeds", seeds]) == 0
    assert run([*argv, default]) == 0
    assert shuffled.read_bytes() == default.read_bytes()


def test_verify_seeds_file_not_an_object(tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([1, 2]))
    assert run(["verify", "--prop", "P2", "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read seeds file") and "top level" in err


def test_export_svg_heptagon_color(tmp_path):
    src = tmp_path / "a27.json"
    svg = tmp_path / "a27.svg"
    run(["construct", "--family", "ao2", "-n", 7, "--out", src])
    assert run(["export", src, "--format", "svg", "--out", svg]) == 0
    text = svg.read_text()
    assert text.count("<polygon") == 15
    top_color = diameter_color(3, 3)
    assert text.count(f'fill="{top_color}"') == 1  # only the heptagon
    assert text.count("<circle") == 21             # C(7,2) vertex dots
    assert text.count("<line") == 7


def test_export_off_cube(tmp_path):
    src = tmp_path / "s36.json"
    off = tmp_path / "cube.off"
    run(["construct", "--family", "cyclic", "-d", 3, "-n", 6, "--out", src])
    arr, _ = load_arrangement(str(src))
    report = census(arr)
    cube_sig = next(
        rec.signature for rec in report.records if rec.cell_class.kind == "cube"
    )
    assert run(["export", src, "--format", "off", "--out", off,
                "--cell", signature_str(cube_sig)]) == 0
    lines = off.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "8 6 12"
    assert len(lines) == 2 + 8 + 6
    for facet_line in lines[10:]:
        assert facet_line.startswith("4 ")


def test_export_dimension_mismatch(tmp_path, capsys):
    src = tmp_path / "s36.json"
    run(["construct", "--family", "cyclic", "-d", 3, "-n", 6, "--out", src])
    assert run(["export", src, "--format", "svg", "--out", tmp_path / "no.svg"]) == 2
    src2 = tmp_path / "a.json"
    run(["construct", "--family", "ao2", "-n", 5, "--out", src2])
    assert run(["export", src2, "--format", "off", "--out", tmp_path / "no.off",
                "--cell", "+++++"]) == 2


def test_export_off_requires_cell(tmp_path):
    src = tmp_path / "s.json"
    run(["construct", "--family", "cyclic", "-d", 3, "-n", 6, "--out", src])
    assert run(["export", src, "--format", "off", "--out", tmp_path / "no.off"]) == 2


def test_export_off_rejects_unbounded_and_unrealized_cells(tmp_path, capsys):
    src = tmp_path / "s36.json"
    run(["construct", "--family", "cyclic", "-d", 3, "-n", 6, "--out", src])
    arr, _ = load_arrangement(str(src))
    vertices = enumerate_vertices(arr)
    ray = next(e for e in enumerate_edges(arr, vertices) if not e.is_segment)
    # every side of a ray's line set is a cell, and the ray makes it unbounded
    unbounded = signature_str(tuple(s or 1 for s in ray.sign_vector))
    # below all three coordinate planes every slanted plane (positive
    # intercepts) is negative, so no cell has signs ---+++
    for cell in (unbounded, "---+++"):
        assert run(["export", src, "--format", "off", "--out", tmp_path / "no.off",
                    f"--cell={cell}"]) == 2
        assert f"{cell} is not a bounded cell" in capsys.readouterr().err
    assert not (tmp_path / "no.off").exists()


def test_byte_identical_construct(tmp_path):
    a, b = tmp_path / "one.json", tmp_path / "two.json"
    run(["construct", "--family", "ao3", "-n", 6, "--out", a])
    run(["construct", "--family", "ao3", "-n", 6, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_byte_identical_svg(tmp_path):
    src = tmp_path / "a.json"
    run(["construct", "--family", "ao2", "-n", 6, "--out", src])
    one, two = tmp_path / "one.svg", tmp_path / "two.svg"
    run(["export", src, "--format", "svg", "--out", one])
    run(["export", src, "--format", "svg", "--out", two])
    assert one.read_bytes() == two.read_bytes()


def test_analyze_three_dimensional(tmp_path, capsys):
    src = tmp_path / "a37.json"
    report_path = tmp_path / "census.json"
    run(["construct", "--family", "ao3", "-n", 7, "--out", src])
    assert run(["analyze", src, "--report", report_path]) == 0
    printed = capsys.readouterr().out
    assert "I=20" in printed and "delta=41/20 (2.050000)" in printed
    obj = json.loads(report_path.read_text())
    assert obj["f_bounded"] == 70 and obj["p_odd"] is None


def test_thread_cap_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ARRANGEMENT_LAB_THREADS", "zippy")
    assert run(["construct", "--family", "ao2", "-n", 5, "--out", tmp_path / "a.json"]) == 2
    monkeypatch.setenv("ARRANGEMENT_LAB_THREADS", "2")
    assert run(["construct", "--family", "ao2", "-n", 5, "--out", tmp_path / "a.json"]) == 0


def test_signature_parsing():
    assert signature_from_str("+-+") == (1, -1, 1)
    with pytest.raises(InputError):
        signature_from_str("+0-")
    with pytest.raises(InputError):
        signature_from_str("")


def test_render_guards():
    with pytest.raises(UnsupportedDimensionError):
        render_svg(build_cyclic_star(3, 6).arrangement)
    with pytest.raises(UnsupportedDimensionError):
        render_off(build_ao2(5).arrangement, (1,) * 5)
    with pytest.raises(InputError):
        render_off(build_cyclic_star(3, 6).arrangement, (1, 1, 1))  # wrong length
